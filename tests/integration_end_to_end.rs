//! End-to-end integration tests: full split → process → aggregate → noise
//! pipelines over the synthetic scenes, spanning every workspace crate.

use privid::{
    CarTableProcessor, ChunkProcessor, PrivacyPolicy, QueryService, SceneConfig, SceneGenerator, TreeBloomProcessor,
    UniqueEntrantProcessor,
};

fn campus_service(hours: f64) -> QueryService {
    let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(hours)).generate();
    let sys = QueryService::new();
    sys.register_camera("campus", scene, PrivacyPolicy::new(90.0, 2, 50.0)).expect("camera/processor registration must succeed");
    sys.register_processor("person_counter", || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
    sys.register_processor("tree_bloom", || Box::new(TreeBloomProcessor) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
    sys.register_processor("car_table", || Box::new(CarTableProcessor) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
    sys
}

#[test]
fn counting_query_accuracy_is_within_reason() {
    // A Q1-style query over 30 minutes: the noisy result should be within a
    // few noise scales of the raw chunked count, and the raw count within
    // ~20% of ground truth entrances.
    let sys = campus_service(0.5);
    let result = sys
        .execute_text(
            1,
            "SPLIT campus BEGIN 0 END 30 min BY TIME 5 sec STRIDE 0 sec INTO chunks;
             PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                 WITH SCHEMA (count:NUMBER=0) INTO people;
             SELECT COUNT(*) FROM people CONSUMING 1.0;",
        )
        .unwrap();
    let release = &result.releases[0];
    let raw = release.raw.as_number().unwrap();
    let noisy = release.value.as_number().unwrap();
    assert!(raw > 20.0, "30 minutes of campus traffic has entrants, got {raw}");
    assert!((noisy - raw).abs() <= 10.0 * release.noise_scale, "noisy output stays near the raw value");
    assert!(result.epsilon_spent == 1.0);
}

#[test]
fn hourly_time_series_matches_fig5_shape() {
    // Fig. 5: hourly unique-person counts over several hours. The raw chunked
    // counts should follow the diurnal arrival pattern (later morning hours
    // are busier than the first hour), and every hour produces one release.
    let sys = campus_service(4.0);
    let result = sys
        .execute_text(
            2,
            "SPLIT campus BEGIN 0 END 4 hr BY TIME 5 sec STRIDE 0 sec INTO chunks;
             PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                 WITH SCHEMA (count:NUMBER=0) INTO people;
             SELECT COUNT(*) FROM people GROUP BY chunk BIN 1 hr CONSUMING 4.0;",
        )
        .unwrap();
    assert_eq!(result.releases.len(), 4, "one release per hourly bin");
    let raws: Vec<f64> = result.releases.iter().map(|r| r.raw.as_number().unwrap()).collect();
    assert!(raws.iter().all(|&c| c > 0.0));
    assert!(
        raws[3] > raws[0],
        "arrivals ramp up towards midday (diurnal pattern): {raws:?}"
    );
    // Each release got a quarter of the statement budget.
    for r in &result.releases {
        assert!((r.epsilon - 1.0).abs() < 1e-9);
    }
}

#[test]
fn non_private_object_query_reaches_high_accuracy() {
    // Case 3 (Q7-Q9): the fraction of bloomed trees, queried with a long
    // window and minimal chunk size, is recovered almost exactly because the
    // per-release noise is small relative to the percentage scale.
    let scene = SceneGenerator::new(SceneConfig::urban().with_duration_hours(0.5).with_arrival_scale(0.05)).generate();
    let sys = QueryService::new();
    sys.register_camera("urban", scene, PrivacyPolicy::new(60.0, 2, 10.0)).expect("camera/processor registration must succeed");
    sys.register_processor("tree_bloom", || Box::new(TreeBloomProcessor) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
    let result = sys
        .execute_text(
            3,
            "SPLIT urban BEGIN 0 END 30 min BY TIME 1 sec STRIDE 0 sec INTO chunks;
             PROCESS chunks USING tree_bloom TIMEOUT 1 sec PRODUCING 10 ROWS
                 WITH SCHEMA (bloomed:NUMBER=0) INTO trees;
             SELECT AVG(range(bloomed, 0, 100)) FROM trees CONSUMING 1.0;",
        )
        .unwrap();
    let release = &result.releases[0];
    let raw = release.raw.as_number().unwrap();
    let noisy = release.value.as_number().unwrap();
    let truth = 4.0 / 6.0 * 100.0; // urban preset: 4 of 6 trees bloomed
    assert!((raw - truth).abs() < 1.0, "raw average should be the bloom percentage, got {raw}");
    // The full-scale Q9 uses a 12-hour window, which makes the noise tiny; at
    // this test's 30-minute window the noise scale is a few percentage points,
    // so allow a handful of scales of slack.
    assert!(
        (noisy - truth).abs() < 5.0 * release.noise_scale,
        "Q9-style accuracy should be high, got {noisy} (scale {})",
        release.noise_scale
    );
}

#[test]
fn listing1_query_budget_accounting_is_additive() {
    let sys = campus_service(0.5);
    let query = r#"
        SPLIT campus BEGIN 0 END 20 min BY TIME 5 sec STRIDE 0 sec INTO chunks;
        PROCESS chunks USING car_table TIMEOUT 1 sec PRODUCING 10 ROWS
            WITH SCHEMA (plate:STRING="", color:STRING="", speed:NUMBER=0) INTO cars;
        SELECT AVG(range(speed, 30, 60)) FROM cars CONSUMING 0.25;
        SELECT color, COUNT(plate) FROM (SELECT plate, color FROM cars GROUP BY plate)
            GROUP BY color WITH KEYS ["RED", "WHITE", "SILVER"] CONSUMING 0.75;"#;
    let before = sys.remaining_budget("campus", 300.0).unwrap();
    let result = sys.execute_text(4, query).unwrap();
    let after = sys.remaining_budget("campus", 300.0).unwrap();
    assert_eq!(result.releases.len(), 4, "one AVG release plus three per-colour counts");
    assert!((result.epsilon_spent - 1.0).abs() < 1e-9);
    assert!((before - after - 1.0).abs() < 1e-9, "the whole query's ε is debited from covered frames");
}

#[test]
fn parallel_sandbox_settings_do_not_change_results() {
    // Two identical services (same seeds) must produce identical noisy outputs
    // regardless of internal execution details.
    let a = campus_service(0.25);
    let b = campus_service(0.25);
    let q = "SPLIT campus BEGIN 0 END 10 min BY TIME 10 sec STRIDE 0 sec INTO c;
             PROCESS c USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS WITH SCHEMA (count:NUMBER=0) INTO t;
             SELECT COUNT(*) FROM t CONSUMING 0.5;";
    assert_eq!(a.execute_text(9, q).unwrap().releases, b.execute_text(9, q).unwrap().releases);
}
