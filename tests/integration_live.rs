//! Live camera ingestion, end to end: a camera appends frame batches while
//! concurrent analysts query the growing recording. Releases over *closed*
//! windows must be bit-for-bit identical to a batch registration of the final
//! recording, ε must be debited exactly once per slot, queries past the live
//! edge must fail cleanly without burning budget, and standing queries must
//! fire exactly once per completed window with batch-replayable releases.

use privid::{
    ChunkProcessor, FrameBatch, Parallelism, PrivacyPolicy, PrividError, QueryResult, QueryService, Scene,
    SceneConfig, SceneGenerator, TimeSpan, TrackedObject, UniqueEntrantProcessor,
};

const BATCH_SECS: f64 = 300.0;
const POLICY: (f64, u32, f64) = (60.0, 2, 20.0);

fn policy() -> PrivacyPolicy {
    PrivacyPolicy::new(POLICY.0, POLICY.1, POLICY.2)
}

/// Partition a generated scene's objects into frame batches by the batch in
/// which each object first appears (so every batch only delivers objects
/// starting at or after the live edge it is appended at).
fn batches_of(scene: &Scene, n_batches: usize) -> Vec<FrameBatch> {
    let mut per_batch: Vec<Vec<TrackedObject>> = vec![Vec::new(); n_batches];
    for obj in &scene.objects {
        let first = obj.first_seen().map(|t| t.as_secs()).unwrap_or(0.0);
        let slot = ((first / BATCH_SECS).floor() as usize).min(n_batches - 1);
        per_batch[slot].push(obj.clone());
    }
    per_batch.into_iter().map(|objects| FrameBatch::new(BATCH_SECS, objects)).collect()
}

/// The final recording a batch registration would have seen: same camera,
/// same span, objects in the exact order the appends delivered them.
fn final_scene(scene: &Scene, batches: &[FrameBatch]) -> Scene {
    Scene::new(
        scene.camera.clone(),
        TimeSpan::from_secs(batches.len() as f64 * BATCH_SECS),
        scene.frame_rate,
        scene.frame_size,
        batches.iter().flat_map(|b| b.objects.iter().cloned()).collect(),
    )
}

fn register_processor(svc: &QueryService) {
    svc.register_processor("person_counter", || {
        Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
    }).expect("camera/processor registration must succeed");
}

fn live_service() -> (QueryService, Vec<FrameBatch>, Scene) {
    let generated = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
    let batches = batches_of(&generated, 6);
    let finale = final_scene(&generated, &batches);
    let svc = QueryService::builder().parallelism(Parallelism::Fixed(1)).build().expect("in-memory service builds");
    svc.register_live_camera("campus", generated.frame_rate, generated.frame_size, policy()).expect("camera/processor registration must succeed");
    register_processor(&svc);
    (svc, batches, finale)
}

fn batch_service(finale: &Scene) -> QueryService {
    let svc = QueryService::builder().parallelism(Parallelism::Fixed(1)).build().expect("in-memory service builds");
    svc.register_camera("campus", finale.clone(), policy()).expect("camera/processor registration must succeed");
    register_processor(&svc);
    svc
}

/// A closed-window analyst query over `[begin, end)`.
fn window_query(begin: f64, end: f64, epsilon: f64) -> String {
    format!(
        "SPLIT campus BEGIN {begin} END {end} BY TIME 10 sec STRIDE 0 sec INTO chunks;
         PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
             WITH SCHEMA (count:NUMBER=0) INTO people;
         SELECT COUNT(*) FROM people CONSUMING {epsilon};"
    )
}

#[test]
fn appended_recording_matches_batch_registration_bit_for_bit() {
    let (live, batches, finale) = live_service();
    let mut results: Vec<(u64, String, QueryResult)> = Vec::new();

    // The camera appends batch by batch; after every append a panel of
    // concurrent analysts queries closed windows of the footage so far.
    for (k, batch) in batches.into_iter().enumerate() {
        let edge = live.append_frames("campus", batch).unwrap().live_edge_secs;
        assert_eq!(edge, (k + 1) as f64 * BATCH_SECS);
        let queries: Vec<(u64, String)> = vec![
            (1000 + k as u64, window_query(k as f64 * BATCH_SECS, edge, 0.25)),
            (2000 + k as u64, window_query(0.0, edge, 0.125)),
        ];
        let round: Vec<(u64, String, QueryResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .into_iter()
                .map(|(seed, text)| {
                    let live = &live;
                    scope.spawn(move || {
                        let result = live.execute_text(seed, &text).expect("closed-window query admitted");
                        (seed, text, result)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        results.extend(round);
    }

    // Bit-for-bit: a batch registration of the final recording replays every
    // (seed, query) pair to identical releases.
    let batch = batch_service(&finale);
    for (seed, text, live_result) in &results {
        let replay = batch.execute_text(*seed, text).unwrap();
        assert_eq!(
            &replay, live_result,
            "live closed-window releases must equal batch registration (seed {seed})"
        );
    }

    // Exact ε accounting: the batch service ran the same admissions, so every
    // slot must have been debited identically — and exactly once per query
    // that covered it.
    for at in [10.0, 450.0, 900.0, 1350.0, 1799.0] {
        let live_remaining = live.remaining_budget("campus", at).unwrap();
        let batch_remaining = batch.remaining_budget("campus", at).unwrap();
        assert!(
            (live_remaining - batch_remaining).abs() < 1e-9,
            "slot at {at}s: live {live_remaining} vs batch {batch_remaining}"
        );
    }
    // Spot-check the absolute value: the first batch's slots saw the 6
    // whole-recording queries (0.125 each) plus their own per-batch query.
    let expected = POLICY.2 - 6.0 * 0.125 - 0.25;
    let remaining = live.remaining_budget("campus", 10.0).unwrap();
    assert!((remaining - expected).abs() < 1e-9, "expected {expected}, got {remaining}");
}

#[test]
fn queries_past_the_live_edge_fail_cleanly_without_burning_budget() {
    let (live, mut batches, _) = live_service();
    live.append_frames("campus", batches.remove(0)).unwrap();

    // Entirely beyond the edge: retryable error, not a single slot debited.
    match live.execute_text(7, &window_query(BATCH_SECS, 2.0 * BATCH_SECS, 1.0)) {
        Err(PrividError::BeyondLiveEdge { camera, start_secs, end_secs, live_edge_secs }) => {
            assert_eq!(camera, "campus");
            assert_eq!((start_secs, end_secs, live_edge_secs), (BATCH_SECS, 2.0 * BATCH_SECS, BATCH_SECS));
        }
        other => panic!("expected BeyondLiveEdge, got {other:?}"),
    }
    for at in [0.0, 150.0, 299.0] {
        assert!((live.remaining_budget("campus", at).unwrap() - POLICY.2).abs() < 1e-9, "slot {at} untouched");
    }

    // A window before time zero will never exist on any timeline: the
    // non-retryable error, distinguished from the live-edge case.
    assert!(matches!(
        live.execute_text(8, &window_query(-200.0, 0.0, 1.0)),
        Err(PrividError::WindowOutsideRecording { .. })
    ));

    // Once the footage arrives, the very query that was rejected succeeds —
    // against slots born with their full ε.
    live.append_frames("campus", batches.remove(0)).unwrap();
    let result = live.execute_text(7, &window_query(BATCH_SECS, 2.0 * BATCH_SECS, 1.0)).unwrap();
    assert_eq!(result.epsilon_spent, 1.0);
    assert!((live.remaining_budget("campus", 450.0).unwrap() - (POLICY.2 - 1.0)).abs() < 1e-9);
}

#[test]
fn closed_window_cache_entries_stay_warm_across_appends() {
    let (live, mut batches, _) = live_service();
    live.append_frames("campus", batches.remove(0)).unwrap();

    // A closed window misses cold, then hits — and appends keep it warm.
    let closed = window_query(0.0, BATCH_SECS, 0.1);
    live.execute_text(1, &closed).unwrap();
    assert_eq!((live.cache_stats().hits, live.cache_stats().misses), (0, 1));
    live.execute_text(2, &closed).unwrap();
    assert_eq!((live.cache_stats().hits, live.cache_stats().misses), (1, 1));
    live.append_frames("campus", batches.remove(0)).unwrap();
    live.execute_text(3, &closed).unwrap();
    assert_eq!(live.cache_stats().hits, 2, "closed-window entry survives the append");

    // A window overlapping the live edge is served, cached, and invalidated
    // by the next append — re-running it re-executes against the new footage.
    let overlap = window_query(BATCH_SECS, 3.0 * BATCH_SECS, 0.1);
    let at_edge = live.execute_text(4, &overlap).unwrap();
    let entries_with_overlap = live.cache_stats().entries;
    live.execute_text(5, &overlap).unwrap();
    assert_eq!(live.cache_stats().hits, 3, "overlap entry serves repeats at the same edge");
    live.append_frames("campus", batches.remove(0)).unwrap();
    assert!(live.cache_stats().entries < entries_with_overlap, "append reclaimed the overlap entry");
    let past_edge = live.execute_text(4, &overlap).unwrap();
    assert_eq!(at_edge.chunks_processed, past_edge.chunks_processed, "same requested window");
    assert!(
        past_edge.releases[0].raw.as_number().unwrap() >= at_edge.releases[0].raw.as_number().unwrap(),
        "the re-executed window sees the newly recorded footage"
    );
}

#[test]
fn standing_query_replays_bit_for_bit_and_debits_once_per_slot() {
    let (live, batches, finale) = live_service();
    let standing = window_query(0.0, BATCH_SECS, 0.5);
    assert_eq!(live.register_standing_query("per_window_count", 9000, &standing).unwrap(), 0);

    let mut fired_total = 0;
    for batch in batches {
        fired_total += live.append_frames("campus", batch).unwrap().standing_fired;
    }
    assert_eq!(fired_total, 6, "one firing per completed 300 s window");

    let firings = live.standing_results("per_window_count").unwrap();
    assert_eq!(firings.len(), 6);
    let batch = batch_service(&finale);
    for (k, firing) in firings.iter().enumerate() {
        assert_eq!(firing.window, TimeSpan::between_secs(k as f64 * BATCH_SECS, (k + 1) as f64 * BATCH_SECS));
        let result = firing.result.as_ref().expect("ample budget: every firing admitted");
        // Every firing replays bit-for-bit on a batch registration of the
        // final recording, using the recorded (seed, window).
        let replay = batch
            .execute_text(firing.seed, &window_query(firing.window.start.as_secs(), firing.window.end.as_secs(), 0.5))
            .unwrap();
        assert_eq!(&replay, result, "standing firing {k} must be batch-replayable");
    }
    // ε accounting: windows are disjoint, so every slot was debited exactly
    // once over the standing query's life.
    for at in [10.0, 450.0, 899.0, 1200.0, 1799.0] {
        assert!(
            (live.remaining_budget("campus", at).unwrap() - (POLICY.2 - 0.5)).abs() < 1e-9,
            "slot at {at}s debited exactly once"
        );
    }
}
