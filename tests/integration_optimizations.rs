//! Integration tests for the §7 utility optimizations (masking and spatial
//! splitting) and the §5.2 automatic policy estimation, wired through the
//! full system.

use privid::core::masking::MaskingAnalysis;
use privid::cv::{DetectorConfig, TrackerConfig};
use privid::{
    greedy_mask_order, ChunkProcessor, DurationEstimator, GridSpec, MaskPolicy, PolicyEstimator, PrivacyPolicy,
    QueryService, SceneConfig, SceneGenerator, TimeSpan, UniqueEntrantProcessor,
};

#[test]
fn cv_estimated_policy_feeds_the_system_and_protects_everyone() {
    // §5.2 / Table 1: estimate (ρ, K) with the imperfect CV pipeline, then
    // check the estimate covers the ground-truth maximum duration, and that
    // the system accepts queries under that policy.
    let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
    let estimated = PolicyEstimator::for_video("campus").estimate(&scene);
    let gt_max = scene.max_segment_duration(|o| o.class.is_private());
    assert!(estimated.rho_secs >= gt_max, "estimated ρ {} must cover ground truth {gt_max}", estimated.rho_secs);

    let sys = QueryService::new();
    sys.register_camera("campus", scene, PrivacyPolicy::new(estimated.rho_secs, estimated.k, 10.0)).expect("camera/processor registration must succeed");
    sys.register_processor("proc", || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
    let result = sys
        .execute_text(
            1,
            "SPLIT campus BEGIN 0 END 15 min BY TIME 10 sec STRIDE 0 sec INTO c;
             PROCESS c USING proc TIMEOUT 1 sec PRODUCING 20 ROWS WITH SCHEMA (count:NUMBER=0) INTO t;
             SELECT COUNT(*) FROM t CONSUMING 1.0;",
        )
        .unwrap();
    assert!(result.releases[0].sensitivity > 0.0);
}

#[test]
fn masking_reduces_rho_and_noise_while_keeping_most_identities() {
    // The full §7.1 workflow: Algorithm 2 → mask → re-estimated ρ under the
    // mask → smaller noise for the same query, with most identities retained.
    let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(1.0)).generate();
    let grid = GridSpec::coarse(scene.frame_size);
    let plan = greedy_mask_order(&scene, grid, 80);
    let prefix = plan.prefix_for_reduction(2.0).expect("2x reduction reachable");
    let mask = plan.mask_prefix(prefix);
    let analysis = MaskingAnalysis::analyse(&scene, &mask);
    assert!(analysis.reduction_factor >= 2.0);
    assert!(analysis.identities_retained >= 0.6);

    // Re-estimate ρ under the mask with the CV pipeline (not ground truth).
    let estimator = DurationEstimator::new(DetectorConfig::campus(), TrackerConfig::campus());
    let history = TimeSpan::between_secs(0.0, 1800.0);
    let masked_est = estimator.estimate_masked(&scene, &history, Some(&mask));
    let unmasked_est = estimator.estimate_masked(&scene, &history, None);
    assert!(masked_est.max_track_duration_secs <= unmasked_est.max_track_duration_secs);

    let unmasked_rho = (unmasked_est.max_duration_secs).max(1.0);
    let masked_rho = (masked_est.max_duration_secs).min(unmasked_rho);
    let sys = QueryService::new();
    sys.register_camera("campus", scene, PrivacyPolicy::new(unmasked_rho, 2, 10.0)).expect("camera/processor registration must succeed");
    sys.register_mask("campus", "m", MaskPolicy::new(mask, masked_rho)).unwrap();
    sys.register_processor("proc", || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
    let q = "SPLIT campus BEGIN 0 END 20 min BY TIME 5 sec STRIDE 0 sec {M} INTO c;
             PROCESS c USING proc TIMEOUT 1 sec PRODUCING 20 ROWS WITH SCHEMA (count:NUMBER=0) INTO t;
             SELECT COUNT(*) FROM t CONSUMING 1.0;";
    let plain = sys.execute_text(2, &q.replace("{M}", "")).unwrap();
    let masked = sys.execute_text(3, &q.replace("{M}", "WITH MASK m")).unwrap();
    assert!(
        masked.releases[0].noise_scale <= plain.releases[0].noise_scale,
        "masking must never increase the noise for the same query"
    );
}

#[test]
fn spatial_splitting_reduces_per_region_output_range() {
    // Table 2: the per-region max per-chunk output is smaller than the
    // whole-frame max, and the hard-boundary highway scheme admits any chunk size.
    let scene = SceneGenerator::new(SceneConfig::highway().with_duration_hours(0.2).with_arrival_scale(0.3)).generate();
    let scheme = scene.region_schemes["default"].clone();
    let report = privid::core::region_output_ranges(
        &scene,
        &TimeSpan::from_secs(600.0),
        &privid::video::ChunkSpec::contiguous(5.0),
        &scheme,
    );
    assert!(report.reduction_factor > 1.0);

    let sys = QueryService::new();
    sys.register_camera("highway", scene, PrivacyPolicy::new(120.0, 2, 10.0)).expect("camera/processor registration must succeed");
    sys.register_processor("proc", || Box::new(UniqueEntrantProcessor::cars()) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
    // Hard boundary: a 5-second chunk is allowed with BY REGION.
    let result = sys
        .execute_text(
            3,
            "SPLIT highway BEGIN 0 END 5 min BY TIME 5 sec STRIDE 0 sec BY REGION default INTO c;
             PROCESS c USING proc TIMEOUT 1 sec PRODUCING 40 ROWS WITH SCHEMA (count:NUMBER=0) INTO t;
             SELECT COUNT(*) FROM t CONSUMING 1.0;",
        )
        .unwrap();
    assert_eq!(result.chunks_processed, 60 * 2, "one execution per chunk per region");
}

#[test]
fn degradation_curve_bounds_over_long_events() {
    // §5.3 / Appendix C: an event exceeding the bound by 2x is detectable with
    // higher probability than one inside the bound, but still not certainty
    // at moderate ε.
    let inside = privid::core::detection_probability_bound(1.0, 0.05);
    let double = privid::core::detection_probability_bound(2.0, 0.05);
    let huge = privid::core::detection_probability_bound(20.0, 0.05);
    assert!(inside < double && double < huge);
    assert!(inside < 0.2);
    assert!(huge > 0.99);
}
