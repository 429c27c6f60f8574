//! Determinism of the parallel chunk execution engine: the same seeded query
//! must produce bit-for-bit identical results at every worker count, because
//! the engine merges sandboxed outputs in deterministic (chunk, region) order
//! before budget accounting and noise are applied.

use privid::{
    ChunkProcessor, Parallelism, PrivacyPolicy, QueryService, Scene, SceneConfig, SceneGenerator,
    UniqueEntrantProcessor,
};

const QUERY: &str = "
    SPLIT campus BEGIN 0 END 1200 BY TIME 5 sec STRIDE 0 sec INTO chunks;
    PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
        WITH SCHEMA (count:NUMBER=0) INTO people;
    SELECT COUNT(*) FROM people CONSUMING 1.0;";

fn scene() -> Scene {
    SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate()
}

fn service(parallelism: Parallelism) -> QueryService {
    let sys = QueryService::builder().parallelism(parallelism).build().expect("in-memory service builds");
    sys.register_camera("campus", scene(), PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
    sys.register_processor("person_counter", || {
        Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
    }).expect("camera/processor registration must succeed");
    sys
}

#[test]
fn releases_identical_across_1_2_and_8_workers() {
    let baseline = service(Parallelism::Fixed(1)).execute_text(42, QUERY).unwrap();
    assert!(baseline.chunks_processed >= 240);
    for workers in [2, 8] {
        let result = service(Parallelism::Fixed(workers)).execute_text(42, QUERY).unwrap();
        assert_eq!(
            baseline.releases, result.releases,
            "noisy releases must be bit-for-bit identical at {workers} workers"
        );
        assert_eq!(baseline.epsilon_spent, result.epsilon_spent);
        assert_eq!(baseline.chunks_processed, result.chunks_processed);
    }
}

#[test]
fn serial_and_auto_match_fixed_worker_results() {
    let serial = service(Parallelism::Serial).execute_text(7, QUERY).unwrap();
    let auto = service(Parallelism::Auto).execute_text(7, QUERY).unwrap();
    let fixed = service(Parallelism::Fixed(4)).execute_text(7, QUERY).unwrap();
    assert_eq!(serial.releases, auto.releases);
    assert_eq!(serial.releases, fixed.releases);
    assert_eq!(serial.epsilon_spent, auto.epsilon_spent);
}

#[test]
fn spatial_split_is_deterministic_across_worker_counts() {
    // Spatial splitting exercises the region-restriction path of the engine:
    // every chunk fans out once per region, and the (chunk, region) merge
    // order must hold at any parallelism. Campus's default scheme has soft
    // boundaries, so chunks must be a single frame long.
    let query = "
        SPLIT campus BEGIN 0 END 300 BY TIME 1 sec STRIDE 0 sec BY REGION default INTO chunks;
        PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
            WITH SCHEMA (count:NUMBER=0) INTO people;
        SELECT COUNT(*) FROM people CONSUMING 1.0;";
    let serial = service(Parallelism::Serial).execute_text(11, query).unwrap();
    let parallel = service(Parallelism::Fixed(8)).execute_text(11, query).unwrap();
    assert_eq!(serial.releases, parallel.releases);
    assert_eq!(serial.chunks_processed, parallel.chunks_processed);
    assert!(serial.chunks_processed >= 300, "one execution per chunk per region");
}

#[test]
fn empty_window_processes_zero_chunks_at_any_parallelism() {
    // The textual parser rejects BEGIN == END, so build the degenerate window
    // programmatically: the plan must yield zero chunks and the engine must
    // come back empty without spawning useless workers.
    let mut query = privid::parse_query(QUERY).unwrap();
    query.splits[0].end_secs = query.splits[0].begin_secs;
    for parallelism in [Parallelism::Serial, Parallelism::Fixed(8), Parallelism::Auto] {
        let result = service(parallelism).execute(3, &query).unwrap();
        assert_eq!(result.chunks_processed, 0);
        assert_eq!(result.releases.len(), 1, "COUNT over an empty table still releases (noisy) zero");
    }
}
