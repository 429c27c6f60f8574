//! End-to-end tests of the query pipeline (split → process → admit →
//! aggregate → noise) through [`QueryService`](crate::QueryService), one
//! explicit noise seed per query. Test-only: the module keeps the
//! `executor::tests` path these cases have always run under, so the suite's
//! test ids stay stable.

#[cfg(test)]
mod tests {
    use crate::{MaskPolicy, NoisyValue, Parallelism, PrivacyPolicy, PrividError, QueryService};
    use privid_query::parse_query;
    use privid_sandbox::{CarTableProcessor, ChunkProcessor, RedLightProcessor, UniqueEntrantProcessor};
    use privid_video::{Mask, SceneConfig, SceneGenerator};

    fn campus_service() -> QueryService {
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
        let svc = QueryService::new();
        svc.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
        svc.register_processor("person_counter", || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
        svc.register_processor("car_table", || Box::new(CarTableProcessor) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
        svc.register_processor("red_light", || Box::new(RedLightProcessor) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
        svc
    }

    const COUNT_QUERY: &str = "
        SPLIT campus BEGIN 0 END 1200 BY TIME 10 sec STRIDE 0 sec INTO chunks;
        PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
            WITH SCHEMA (count:NUMBER=0) INTO people;
        SELECT COUNT(*) FROM people CONSUMING 1.0;";

    #[test]
    fn end_to_end_count_query_is_close_to_raw() {
        let svc = campus_service();
        let result = svc.execute_text(7, COUNT_QUERY).unwrap();
        assert_eq!(result.releases.len(), 1);
        assert_eq!(result.epsilon_spent, 1.0);
        assert!(result.chunks_processed >= 120);
        let release = &result.releases[0];
        let raw = release.raw.as_number().unwrap();
        let noisy = release.value.as_number().unwrap();
        assert!(raw > 5.0, "a 20-minute campus window sees people: {raw}");
        // Sensitivity: max_rows 20 × K 2 × (1 + ceil(60/10)) = 280; ε = 1.
        assert_eq!(release.sensitivity, 280.0);
        assert_eq!(release.noise_scale, 280.0);
        assert!((noisy - raw).abs() < 280.0 * 12.0, "noise should be on the order of the scale");
    }

    #[test]
    fn budget_is_debited_and_eventually_exhausted() {
        let svc = campus_service();
        // Policy budget is 20; each query consumes 1.0 on frames [0, 1200).
        for seed in 0..20 {
            svc.execute_text(seed, COUNT_QUERY).unwrap();
        }
        let err = svc.execute_text(20, COUNT_QUERY).unwrap_err();
        assert!(matches!(err, PrividError::BudgetExhausted { .. }));
        // A disjoint window (more than ρ away) still has budget.
        let other_window = "
            SPLIT campus BEGIN 1400 END 1700 BY TIME 10 sec STRIDE 0 sec INTO chunks;
            PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                WITH SCHEMA (count:NUMBER=0) INTO people;
            SELECT COUNT(*) FROM people CONSUMING 1.0;";
        svc.execute_text(21, other_window).unwrap();
    }

    #[test]
    fn repeated_queries_reuse_cached_chunk_results() {
        // The 20 identical queries above also exercise the chunk cache; this
        // test pins the accounting: one sandbox execution, then cache hits,
        // with identical per-query results apart from the fresh noise.
        let svc = campus_service();
        let a = svc.execute_text(7, COUNT_QUERY).unwrap();
        let b = svc.execute_text(8, COUNT_QUERY).unwrap();
        assert_eq!(a.chunks_processed, b.chunks_processed, "cache hits still count required executions");
        assert_eq!(a.releases[0].raw, b.releases[0].raw, "same raw table either way");
        let stats = svc.cache_stats();
        assert_eq!(stats.misses, 1, "only the first query ran the sandbox");
        assert!(stats.hits >= 1);
    }

    #[test]
    fn unknown_camera_processor_and_mask_are_rejected() {
        let svc = campus_service();
        let bad_cam = COUNT_QUERY.replace("SPLIT campus", "SPLIT nowhere");
        assert!(matches!(svc.execute_text(7, &bad_cam), Err(PrividError::UnknownCamera(_))));
        let bad_proc = COUNT_QUERY.replace("person_counter", "mystery.py");
        assert!(matches!(svc.execute_text(7, &bad_proc), Err(PrividError::UnknownProcessor(_))));
        let bad_mask = COUNT_QUERY.replace("STRIDE 0 sec INTO", "STRIDE 0 sec WITH MASK ghost INTO");
        assert!(matches!(svc.execute_text(7, &bad_mask), Err(PrividError::UnknownMask(_))));
    }

    #[test]
    fn window_past_the_recording_is_rejected_without_debit() {
        // Regression: the ledger used to clamp a fully disjoint window onto
        // the last real slot and debit it.
        let svc = campus_service();
        let ghost = COUNT_QUERY.replace("BEGIN 0 END 1200", "BEGIN 5000 END 6200");
        match svc.execute_text(7, &ghost) {
            Err(PrividError::WindowOutsideRecording { camera, start_secs, end_secs, duration_secs }) => {
                assert_eq!(camera, "campus");
                assert_eq!((start_secs, end_secs), (5000.0, 6200.0));
                assert_eq!(duration_secs, 1800.0);
            }
            other => panic!("expected WindowOutsideRecording, got {other:?}"),
        }
        assert!((svc.remaining_budget("campus", 1799.0).unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn mask_with_smaller_rho_lowers_noise() {
        let svc = campus_service();
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
        let grid = privid_video::GridSpec::coarse(scene.frame_size);
        svc.register_mask("campus", "benches", MaskPolicy::new(Mask::empty(grid), 20.0)).unwrap();
        let unmasked = svc.execute_text(7, COUNT_QUERY).unwrap();
        let masked_query = COUNT_QUERY.replace("STRIDE 0 sec INTO", "STRIDE 0 sec WITH MASK benches INTO");
        let masked = svc.execute_text(8, &masked_query).unwrap();
        assert!(
            masked.releases[0].sensitivity < unmasked.releases[0].sensitivity,
            "ρ 20 s instead of 60 s must shrink the sensitivity"
        );
    }

    #[test]
    fn group_by_colors_produces_three_releases_splitting_budget() {
        let svc = campus_service();
        let query = r#"
            SPLIT campus BEGIN 0 END 600 BY TIME 10 sec STRIDE 0 sec INTO chunks;
            PROCESS chunks USING car_table TIMEOUT 1 sec PRODUCING 10 ROWS
                WITH SCHEMA (plate:STRING="", color:STRING="", speed:NUMBER=0) INTO cars;
            SELECT COUNT(plate) FROM (SELECT plate, color FROM cars GROUP BY plate)
                GROUP BY color WITH KEYS ["RED", "WHITE", "SILVER"] CONSUMING 0.9;"#;
        let result = svc.execute_text(7, query).unwrap();
        assert_eq!(result.releases.len(), 3);
        for r in &result.releases {
            assert!((r.epsilon - 0.3).abs() < 1e-12, "budget split evenly across the three keys");
        }
        assert_eq!(result.epsilon_spent, 0.9);
    }

    #[test]
    fn argmax_release_returns_a_key() {
        // Use the highway scene: it is car-dominated, so the colour table is
        // guaranteed to be non-empty even for a short window.
        let scene = SceneGenerator::new(
            SceneConfig::highway().with_duration_hours(0.25).with_arrival_scale(0.2),
        )
        .generate();
        let svc = QueryService::new();
        svc.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
        svc.register_processor("car_table", || Box::new(CarTableProcessor) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
        let query = r#"
            SPLIT campus BEGIN 0 END 600 BY TIME 10 sec STRIDE 0 sec INTO chunks;
            PROCESS chunks USING car_table TIMEOUT 1 sec PRODUCING 10 ROWS
                WITH SCHEMA (plate:STRING="", color:STRING="", speed:NUMBER=0) INTO cars;
            SELECT ARGMAX(color) FROM cars CONSUMING 1.0;"#;
        let result = svc.execute_text(3, query).unwrap();
        match &result.releases[0].value {
            NoisyValue::Key(k) => assert!(!k.is_empty()),
            other => panic!("expected a key release, got {other:?}"),
        }
    }

    #[test]
    fn missing_select_or_table_is_invalid_and_free() {
        let svc = campus_service();
        let no_select = "
            SPLIT campus BEGIN 0 END 600 BY TIME 10 sec STRIDE 0 sec INTO chunks;
            PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                WITH SCHEMA (count:NUMBER=0) INTO people;";
        assert!(matches!(svc.execute_text(7, no_select), Err(PrividError::Invalid(_))));
        // Regression (review): a typo'd table name used to be caught only
        // *after* budget admission, permanently debiting ε for a query that
        // released nothing.
        let wrong_table = COUNT_QUERY.replace("FROM people", "FROM ghosts");
        assert!(matches!(svc.execute_text(7, &wrong_table), Err(PrividError::Invalid(_))));
        assert!(
            (svc.remaining_budget("campus", 600.0).unwrap() - 20.0).abs() < 1e-9,
            "a rejected SELECT must not consume budget"
        );
    }

    #[test]
    fn disjoint_splits_spare_the_gap_frames() {
        // Regression (review): admission used to debit the bounding hull of
        // all splits, so frames between two far-apart windows lost budget
        // without contributing to any release. Windows within 2ρ still merge
        // (an event segment could straddle such a gap).
        let two_splits = |begin2: u32, end2: u32| {
            format!(
                "SPLIT campus BEGIN 0 END 300 BY TIME 10 sec STRIDE 0 sec INTO c1;
                 SPLIT campus BEGIN {begin2} END {end2} BY TIME 10 sec STRIDE 0 sec INTO c2;
                 PROCESS c1 USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                     WITH SCHEMA (count:NUMBER=0) INTO t1;
                 PROCESS c2 USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                     WITH SCHEMA (count:NUMBER=0) INTO t2;
                 SELECT COUNT(*) FROM t1 CONSUMING 0.5;
                 SELECT COUNT(*) FROM t2 CONSUMING 0.5;"
            )
        };
        // Gap 300 s > 2ρ (= 120 s): the gap keeps its full budget.
        let svc = campus_service();
        svc.execute_text(7, &two_splits(600, 900)).unwrap();
        assert!((svc.remaining_budget("campus", 100.0).unwrap() - 19.0).abs() < 1e-9, "first window debited ε_total");
        assert!((svc.remaining_budget("campus", 700.0).unwrap() - 19.0).abs() < 1e-9, "second window debited ε_total");
        assert!((svc.remaining_budget("campus", 450.0).unwrap() - 20.0).abs() < 1e-9, "gap frames untouched");
        // Gap 100 s ≤ 2ρ: merged into one window, hull semantics preserved.
        let svc = campus_service();
        svc.execute_text(7, &two_splits(400, 700)).unwrap();
        assert!((svc.remaining_budget("campus", 350.0).unwrap() - 19.0).abs() < 1e-9, "near gap is debited");
    }

    #[test]
    fn red_light_query_with_full_mask_is_exact_up_to_noise_scale() {
        // Case 4 (Q10–Q12): masking everything except the light yields ρ = 0,
        // so the sensitivity collapses to max_rows · K · 1 and accuracy is high.
        let svc = campus_service();
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
        let grid = privid_video::GridSpec::coarse(scene.frame_size);
        svc.register_mask("campus", "all_but_light", MaskPolicy::new(Mask::empty(grid), 0.0)).unwrap();
        let query = "
            SPLIT campus BEGIN 0 END 1800 BY TIME 600 sec STRIDE 0 sec WITH MASK all_but_light INTO chunks;
            PROCESS chunks USING red_light TIMEOUT 1 sec PRODUCING 1 ROWS
                WITH SCHEMA (red_secs:NUMBER=0) INTO lights;
            SELECT AVG(range(red_secs, 0, 300)) FROM lights CONSUMING 1.0;";
        let result = svc.execute_text(7, query).unwrap();
        let release = &result.releases[0];
        assert_eq!(release.raw.as_number().unwrap(), 75.0);
        // Δ = 1·2·1·(300-0)/num_chunks(=3) = 200 … still modest; the key check
        // is that ρ = 0 gives max_chunks = 1.
        assert!(release.sensitivity <= 200.0 + 1e-9);
    }

    #[test]
    fn spatial_split_soft_boundary_requires_single_frame_chunks() {
        let svc = campus_service();
        let query = "
            SPLIT campus BEGIN 0 END 600 BY TIME 10 sec STRIDE 0 sec BY REGION default INTO chunks;
            PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                WITH SCHEMA (count:NUMBER=0) INTO people;
            SELECT COUNT(*) FROM people CONSUMING 1.0;";
        assert!(matches!(svc.execute_text(7, query), Err(PrividError::SoftBoundaryChunkTooLarge { .. })));
        // With single-frame chunks it works (campus default scheme is soft).
        let ok_query = query.replace("BY TIME 10 sec", "BY TIME 1 sec");
        let result = svc.execute_text(7, &ok_query).unwrap();
        assert!(result.chunks_processed >= 1200, "one execution per chunk per region");
    }

    #[test]
    fn select_without_aggregations_is_invalid_not_a_panic() {
        // Regression: a programmatically built SELECT with no aggregations
        // used to slip through planning (statement_sensitivities returns an
        // empty vec, and `sensitivities[0]` was one data-shape away from
        // panicking) and silently consumed budget while releasing nothing.
        let svc = campus_service();
        let budget_before = svc.remaining_budget("campus", 600.0).unwrap();
        let mut query = parse_query(COUNT_QUERY).unwrap();
        query.selects[0].aggregations.clear();
        match svc.execute(7, &query) {
            Err(PrividError::Invalid(msg)) => assert!(msg.contains("no aggregations"), "got: {msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert_eq!(
            svc.remaining_budget("campus", 600.0).unwrap(),
            budget_before,
            "a rejected query must not consume budget"
        );
    }

    #[test]
    fn explicit_parallelism_settings_execute_the_same_query() {
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
        let mut results = Vec::new();
        for parallelism in [Parallelism::Serial, Parallelism::Fixed(3), Parallelism::Auto] {
            let svc = QueryService::builder().parallelism(parallelism).build().expect("in-memory service builds");
            svc.register_camera("campus", scene.clone(), PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
            svc.register_processor("person_counter", || {
                Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
            }).expect("camera/processor registration must succeed");
            results.push(svc.execute_text(5, COUNT_QUERY).unwrap());
        }
        assert_eq!(results[0], results[1], "worker count must not change any release");
        assert_eq!(results[0], results[2]);
    }
}
