//! Privacy-focused integration tests: the budget ledger, the sensitivity
//! bounds, adversarial processors, and an empirical neighbouring-video
//! indistinguishability check.

use privid::query::Value;
use privid::sandbox::{RowFloodProcessor, SlowProcessor};
use privid::video::{ObjectClass, ObjectId, PresenceSegment, TrackedObject};
use privid::{ChunkProcessor, PrivacyPolicy, QueryService, SceneConfig, SceneGenerator, UniqueEntrantProcessor};

const COUNT_QUERY: &str = "
    SPLIT campus BEGIN 0 END 10 min BY TIME 10 sec STRIDE 0 sec INTO chunks;
    PROCESS chunks USING proc TIMEOUT 1 sec PRODUCING 5 ROWS
        WITH SCHEMA (count:NUMBER=0) INTO people;
    SELECT COUNT(*) FROM people CONSUMING 1.0;";

fn service_with(scene: privid::Scene, processor: &'static str) -> QueryService {
    let sys = QueryService::new();
    sys.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 10.0)).expect("camera/processor registration must succeed");
    match processor {
        "flood" => sys.register_processor("proc", || Box::new(RowFloodProcessor { rows: 10_000 }) as Box<dyn ChunkProcessor>),
        "slow" => sys.register_processor("proc", || {
            Box::new(SlowProcessor { base_secs: 5.0, per_observation_secs: 1.0 }) as Box<dyn ChunkProcessor>
        }),
        _ => sys.register_processor("proc", || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>),
    }
    .expect("camera/processor registration must succeed");
    sys
}

#[test]
fn adversarial_row_flood_cannot_exceed_declared_sensitivity() {
    // A processor emitting 10 000 rows per chunk is clamped to max_rows = 5,
    // so the raw count is bounded by chunks × 5 and the sensitivity stays at
    // the declared 5 · K · (1 + ⌈ρ/c⌉).
    let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate();
    let sys = service_with(scene, "flood");
    let result = sys.execute_text(1, COUNT_QUERY).unwrap();
    let release = &result.releases[0];
    assert_eq!(release.sensitivity, 5.0 * 2.0 * 7.0);
    let raw = release.raw.as_number().unwrap();
    assert!(raw <= 60.0 * 5.0 + 1e-9, "60 chunks x 5 rows bounds the table size, got {raw}");
}

#[test]
fn timing_out_processor_only_contributes_default_rows() {
    let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate();
    let sys = service_with(scene, "slow");
    let result = sys.execute_text(2, COUNT_QUERY).unwrap();
    // Every chunk times out and yields exactly one default row.
    assert_eq!(result.releases[0].raw.as_number().unwrap(), 60.0);
}

#[test]
fn budget_composes_across_adaptive_queries_and_is_enforced() {
    let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate();
    let sys = service_with(scene, "counter");
    let mut spent = 0.0;
    // Adaptive sequence: keep issuing queries until the ledger refuses.
    let mut refused = false;
    for seed in 0..15 {
        match sys.execute_text(seed, COUNT_QUERY) {
            Ok(r) => spent += r.epsilon_spent,
            Err(privid::PrividError::BudgetExhausted { requested, available, .. }) => {
                assert!(available < requested);
                refused = true;
                break;
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(refused, "the per-frame budget (10.0) must eventually refuse 1.0-budget queries");
    assert!((spent - 10.0).abs() < 1e-6, "exactly the per-frame budget is spendable on one window, spent {spent}");
}

#[test]
fn neighbouring_videos_produce_statistically_close_outputs() {
    // Construct two neighbouring scenes: identical except that one contains an
    // extra individual visible for 45 s (within ρ = 60, K = 2). Repeated
    // noisy counts from the two systems must be statistically indistinguishable
    // at the ε = 1 level: the difference of means stays within a few noise
    // scales and the distributions overlap heavily.
    let base = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate();
    let mut with_extra = base.clone();
    let max_id = with_extra.objects.iter().map(|o| o.id.0).max().unwrap_or(0);
    with_extra.objects.push(TrackedObject::new(
        ObjectId(max_id + 1),
        ObjectClass::Person,
        privid::video::Attributes::default(),
        vec![PresenceSegment {
            span: privid::video::TimeSpan::between_secs(120.0, 165.0),
            trajectory: privid::video::trajectory::Trajectory::linear(
                privid::video::Point::new(0.0, 500.0),
                privid::video::Point::new(1900.0, 500.0),
                40.0,
                110.0,
            ),
        }],
    ));
    with_extra.rebuild_index();

    let trials = 40;
    let mut outputs_a = Vec::new();
    let mut outputs_b = Vec::new();
    for t in 0..trials {
        let sys_a = service_with(base.clone(), "counter");
        let sys_b = service_with(with_extra.clone(), "counter");
        outputs_a.push(sys_a.execute_text(100 + t, COUNT_QUERY).unwrap().releases[0].value.as_number().unwrap());
        outputs_b.push(sys_b.execute_text(200 + t, COUNT_QUERY).unwrap().releases[0].value.as_number().unwrap());
    }
    let mean_a: f64 = outputs_a.iter().sum::<f64>() / trials as f64;
    let mean_b: f64 = outputs_b.iter().sum::<f64>() / trials as f64;
    let noise_scale = 5.0 * 2.0 * 7.0 / 1.0; // Δ/ε
    assert!(
        (mean_a - mean_b).abs() < noise_scale,
        "the presence of one (ρ,K)-bounded individual is buried in the noise: |{mean_a} - {mean_b}| vs scale {noise_scale}"
    );
}

#[test]
fn default_rows_do_not_depend_on_chunk_content() {
    // Appendix B: the default value must be fixed a priori. Build a table by
    // hand and verify the schema's default row is identical for any chunk.
    let schema = privid::query::Schema::new(vec![
        privid::query::ColumnDef::string("plate", "NONE"),
        privid::query::ColumnDef::number("speed", -1.0),
    ])
    .unwrap();
    assert_eq!(schema.default_values(), vec![Value::str("NONE"), Value::num(-1.0)]);
    assert_eq!(schema.coerce(&[]), schema.default_values());
}
