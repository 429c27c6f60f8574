//! Live camera ingestion, end to end: a camera appends frame batches while
//! concurrent analysts query the growing recording. Releases over *closed*
//! windows must be bit-for-bit identical to a batch registration of the final
//! recording, ε must be debited exactly once per slot, queries past the live
//! edge must fail cleanly without burning budget, and standing queries must
//! fire exactly once per completed window with batch-replayable releases.

use privid::query::Value;
use privid::video::trajectory::Trajectory;
use privid::video::{Attributes, ObjectClass, ObjectId, Point, PresenceSegment};
use privid::{
    ChunkProcessor, ChunkView, FrameBatch, FrameRate, FrameSize, Parallelism, PrivacyPolicy, PrividError,
    QueryResult, QueryService, Scene, SceneConfig, SceneGenerator, TimeSpan, TrackedObject, UniqueEntrantProcessor,
};
use std::sync::{Arc, Mutex};

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

/// The person counter, logging every chunk it is run on as
/// `(camera, chunk start in seconds)`.
struct LoggingCounter {
    inner: UniqueEntrantProcessor,
    log: Arc<Mutex<Vec<(String, u32)>>>,
}

impl ChunkProcessor for LoggingCounter {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn process(&mut self, chunk: &ChunkView<'_>) -> Vec<Vec<Value>> {
        self.log.lock().unwrap().push((chunk.camera().to_string(), chunk.span().start.as_secs() as u32));
        self.inner.process(chunk)
    }
}

/// 30 s of footage starting at `edge`: two people crossing the frame.
fn half_minute(edge: u32, first_id: u64) -> FrameBatch {
    let person = |id: u64, start: f64, end: f64| {
        TrackedObject::new(
            ObjectId(id),
            ObjectClass::Person,
            Attributes::default(),
            vec![PresenceSegment {
                span: TimeSpan::between_secs(start, end),
                trajectory: Trajectory::linear(Point::new(0.0, 50.0), Point::new(100.0, 50.0), 5.0, 10.0),
            }],
        )
    };
    let edge = f64::from(edge);
    FrameBatch::new(30.0, vec![person(first_id, edge + 2.0, edge + 14.0), person(first_id + 1, edge + 11.0, edge + 27.0)])
}

#[test]
fn the_pump_is_scoped_to_the_appended_camera_and_runs_each_closed_chunk_once_per_window() {
    let svc = QueryService::builder().parallelism(Parallelism::Fixed(1)).build().expect("in-memory service builds");
    let log = Arc::new(Mutex::new(Vec::new()));
    let factory_log = Arc::clone(&log);
    svc.register_processor("person_counter", move || {
        Box::new(LoggingCounter { inner: UniqueEntrantProcessor::people(), log: Arc::clone(&factory_log) })
            as Box<dyn ChunkProcessor>
    })
    .unwrap();
    // What ran since the last call, sorted.
    let drain = || {
        let mut runs = std::mem::take(&mut *log.lock().unwrap());
        runs.sort();
        runs
    };
    let on = |camera: &str, starts: &[u32]| -> Vec<(String, u32)> {
        starts.iter().map(|s| (camera.to_string(), *s)).collect()
    };
    let standing = |camera: &str, window: u32, select: &str| {
        format!(
            "SPLIT {camera} BEGIN 0 END {window} BY TIME 10 sec STRIDE 0 sec INTO chunks;
             PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                 WITH SCHEMA (count:NUMBER=0) INTO people;
             SELECT {select} FROM people CONSUMING 0.1;"
        )
    };
    // 2 live cameras × {30, 60} s windows × {COUNT, SUM}: per camera, four
    // standing queries over two distinct windows.
    for camera in ["a", "b"] {
        svc.register_live_camera(camera, FrameRate::new(2.0), FrameSize::new(100, 100), policy()).unwrap();
        for window in [30, 60] {
            for (tag, select) in [("count", "COUNT(*)"), ("sum", "SUM(range(count, 0, 20))")] {
                let name = format!("{camera}-{tag}-{window}");
                assert_eq!(svc.register_standing_query(name, 7, &standing(camera, window, select)).unwrap(), 0);
            }
        }
    }

    // A's first half minute closes chunks 0, 10, 20. Both 30 s queries fire,
    // both 60 s queries pre-fold their forming window: four queries, two
    // distinct windows — each chunk runs twice, not four times, and nothing
    // of B's runs or changes.
    assert_eq!(svc.append_frames("a", half_minute(0, 0)).unwrap().standing_fired, 2);
    assert_eq!(drain(), on("a", &[0, 0, 10, 10, 20, 20]));
    // The second closes 30, 40, 50: window [30, 60) fires twice, window
    // [0, 60) fires twice on top of its pre-folded first half.
    assert_eq!(svc.append_frames("a", half_minute(30, 2)).unwrap().standing_fired, 4);
    assert_eq!(drain(), on("a", &[30, 30, 40, 40, 50, 50]));
    for name in ["b-count-30", "b-sum-30", "b-count-60", "b-sum-60"] {
        assert!(svc.standing_results(name).unwrap().is_empty(), "{name} has nothing to fire for");
    }
    // COUNT and SUM siblings were served the same tail, each its own release.
    for window in [30, 60] {
        let count = svc.standing_results(&format!("a-count-{window}")).unwrap();
        let sum = svc.standing_results(&format!("a-sum-{window}")).unwrap();
        assert_eq!(count.len(), 60 / window);
        for (c, s) in count.iter().zip(&sum) {
            assert_eq!(c.window, s.window);
            let (c, s) = (c.result.as_ref().unwrap(), s.result.as_ref().unwrap());
            assert_eq!((c.chunks_processed, s.chunks_processed), (window / 10, window / 10));
            assert!(c.releases[0].raw.as_number().unwrap() >= 1.0, "the window holds rows");
            assert!(s.releases[0].raw.as_number().unwrap() >= 1.0, "somebody entered");
        }
    }

    // Catch-up at registration: A already completed two 30 s windows. Their
    // chunks are folded in tier 2 by now — nothing runs again.
    assert_eq!(svc.register_standing_query("a-late", 9, &standing("a", 30, "COUNT(*)")).unwrap(), 2);
    assert_eq!(drain(), Vec::new());
    let (late, early) = (svc.standing_results("a-late").unwrap(), svc.standing_results("a-count-30").unwrap());
    assert_eq!(late.len(), 2);
    for (late, early) in late.iter().zip(&early) {
        assert_eq!(late.window, early.window);
        assert_eq!(late.result.as_ref().unwrap().releases[0].raw, early.result.as_ref().unwrap().releases[0].raw);
    }

    // A query over both cameras fires at the slower camera's edge: not at
    // registration (B is empty), then once per half minute B records.
    let both = "SPLIT a BEGIN 0 END 30 BY TIME 10 sec STRIDE 0 sec INTO ca;
                SPLIT b BEGIN 0 END 30 BY TIME 10 sec STRIDE 0 sec INTO cb;
                PROCESS ca USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS WITH SCHEMA (count:NUMBER=0) INTO ta;
                PROCESS cb USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS WITH SCHEMA (count:NUMBER=0) INTO tb;
                SELECT COUNT(*) FROM ta CONSUMING 0.1;
                SELECT COUNT(*) FROM tb CONSUMING 0.1;";
    assert_eq!(svc.register_standing_query("both", 11, both).unwrap(), 0);
    assert_eq!(drain(), Vec::new());
    // B's two 30 s queries + `both`'s window [0, 30). Its B half is the
    // PROCESS `b-count-30` runs, so it rides that tail: B's chunks still run
    // once per distinct window. Its A half runs now (tier 2 holds A's window
    // under the other queries' plans, which name their table differently).
    assert_eq!(svc.append_frames("b", half_minute(0, 0)).unwrap().standing_fired, 3);
    assert_eq!(drain(), [on("a", &[0, 10, 20]), on("b", &[0, 0, 10, 10, 20, 20])].concat());
    // B's 30 s and 60 s queries + `both`'s window [30, 60).
    assert_eq!(svc.append_frames("b", half_minute(30, 2)).unwrap().standing_fired, 5);
    assert_eq!(drain(), [on("a", &[30, 40, 50]), on("b", &[30, 30, 40, 40, 50, 50])].concat());
    let firings = svc.standing_results("both").unwrap();
    assert_eq!(firings.iter().map(|f| f.window).collect::<Vec<_>>(), [
        TimeSpan::between_secs(0.0, 30.0),
        TimeSpan::between_secs(30.0, 60.0)
    ]);
    // An append to the faster camera leaves `both` waiting for B.
    assert_eq!(svc.append_frames("a", half_minute(60, 4)).unwrap().standing_fired, 3, "a-count-30, a-sum-30, a-late");
    assert_eq!(svc.standing_results("both").unwrap().len(), 2);
}
