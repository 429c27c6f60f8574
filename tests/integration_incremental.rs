//! Equivalence suite for the incremental-aggregation data plane: every
//! release produced through the columnar fold path and the two-tier cache
//! must be bit-for-bit identical to the same query executed with caching
//! disabled (the uncached fold degenerates to the seed's sequential
//! row-order aggregation — see `AggState`'s module docs for the contract).
//! Covered: batch aggregates across every foldable function, the GROUP BY
//! row path, standing queries over sliding windows fed piecemeal, spatial
//! splits, empty windows, and crash/restart recovery replay.

use privid::{
    CarTableProcessor, ChunkProcessor, Durability, FrameBatch, FsyncPolicy, Parallelism, PrivacyPolicy,
    QueryResult, QueryService, Scene, SceneConfig, SceneGenerator, StandingFiring, TimeSpan, TrackedObject,
    UniqueEntrantProcessor,
};
use std::path::PathBuf;

const POLICY: (f64, u32, f64) = (60.0, 2, 40.0);

fn policy() -> PrivacyPolicy {
    PrivacyPolicy::new(POLICY.0, POLICY.1, POLICY.2)
}

fn register_processors(svc: &QueryService) {
    svc.register_processor("person_counter", || {
        Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
    })
    .expect("processor registration must succeed");
    svc.register_processor("car_table", || Box::new(CarTableProcessor) as Box<dyn ChunkProcessor>)
        .expect("processor registration must succeed");
}

/// A batch service over `scene`, with the aggregate cache either live (the
/// default) or disabled (capacity 0 turns off both cache tiers, leaving the
/// plain sequential fold — the reference path).
fn batch_service(scene: &Scene, cached: bool) -> QueryService {
    let builder = QueryService::builder().parallelism(Parallelism::Fixed(1));
    let builder = if cached { builder } else { builder.cache_capacity(0) };
    let svc = builder.build().expect("in-memory service builds");
    svc.register_camera("campus", scene.clone(), policy()).expect("camera registration must succeed");
    register_processors(&svc);
    svc
}

fn people_query(begin: f64, end: f64, select: &str) -> String {
    format!(
        "SPLIT campus BEGIN {begin} END {end} BY TIME 10 sec STRIDE 0 sec INTO chunks;
         PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
             WITH SCHEMA (count:NUMBER=0) INTO people;
         {select}"
    )
}

#[test]
fn every_foldable_aggregate_matches_the_uncached_reference_bit_for_bit() {
    let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate();
    let cached = batch_service(&scene, true);
    let reference = batch_service(&scene, false);

    let selects = [
        "SELECT COUNT(*) FROM people CONSUMING 0.5;",
        "SELECT SUM(range(count, 0, 20)) FROM people CONSUMING 0.5;",
        "SELECT AVG(range(count, 0, 20)) FROM people CONSUMING 0.5;",
        "SELECT VAR(range(count, 0, 20)) FROM people CONSUMING 0.5;",
        // The row path (GROUP BY compiles to no fold plan) must agree too.
        "SELECT COUNT(*) FROM people GROUP BY count WITH KEYS [0, 1, 2] CONSUMING 0.5;",
    ];
    for (k, select) in selects.iter().enumerate() {
        let text = people_query(0.0, 600.0, select);
        let seed = 100 + k as u64;
        let warm = cached.execute_text(seed, &text).unwrap();
        let cold = reference.execute_text(seed, &text).unwrap();
        assert_eq!(warm, cold, "cached release diverged from the uncached fold: {select}");
        // Replaying the same query must hit the folded prefix and still
        // release the identical bits.
        let replay = cached.execute_text(seed, &text).unwrap();
        assert_eq!(replay, warm, "a cache hit changed the release: {select}");
    }
    let stats = cached.agg_cache_stats();
    assert!(stats.hits >= 4, "replays of foldable selects must hit tier 2, got {stats:?}");
    assert!(stats.entries >= 4, "each foldable plan folds into its own entry, got {stats:?}");
    let silent = reference.agg_cache_stats();
    assert_eq!((silent.hits, silent.misses, silent.entries), (0, 0, 0), "capacity 0 disables tier 2");
}

#[test]
fn argmax_over_a_key_column_matches_the_uncached_reference() {
    // A car-dominated scene so the colour column is non-empty; ARGMAX folds
    // through the sorted key→count accumulator and must release the same
    // winning key (same report-noisy-max tie-break) as the reference.
    let scene =
        SceneGenerator::new(SceneConfig::highway().with_duration_hours(0.25).with_arrival_scale(0.2)).generate();
    let cached = batch_service(&scene, true);
    let reference = batch_service(&scene, false);
    let text = "SPLIT campus BEGIN 0 END 600 BY TIME 10 sec STRIDE 0 sec INTO chunks;
         PROCESS chunks USING car_table TIMEOUT 1 sec PRODUCING 10 ROWS
             WITH SCHEMA (plate:STRING=\"\", color:STRING=\"\", speed:NUMBER=0) INTO cars;
         SELECT ARGMAX(color) FROM cars CONSUMING 1.0;";
    for seed in [7u64, 8, 9] {
        let warm = cached.execute_text(seed, text).unwrap();
        let cold = reference.execute_text(seed, text).unwrap();
        assert_eq!(warm, cold, "ARGMAX diverged at seed {seed}");
    }
    assert!(cached.agg_cache_stats().hits >= 2, "repeat ARGMAX executions share one folded state");
}

#[test]
fn spatial_splits_fold_identically_per_region() {
    // BY REGION fans every chunk out once per region; the fold consumes the
    // trusted region column in table row order, so the per-region prefix
    // states must reproduce the reference release exactly.
    let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.1)).generate();
    let cached = batch_service(&scene, true);
    let reference = batch_service(&scene, false);
    let text = "SPLIT campus BEGIN 0 END 300 BY TIME 1 sec STRIDE 0 sec BY REGION default INTO chunks;
         PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
             WITH SCHEMA (count:NUMBER=0) INTO people;
         SELECT SUM(range(count, 0, 20)) FROM people CONSUMING 1.0;";
    let warm = cached.execute_text(42, text).unwrap();
    let cold = reference.execute_text(42, text).unwrap();
    assert_eq!(warm, cold);
    assert!(warm.chunks_processed >= 300, "one execution per chunk per region");
    let replay = cached.execute_text(42, text).unwrap();
    assert_eq!(replay, warm);
    assert!(cached.agg_cache_stats().hits >= 1);
}

#[test]
fn empty_windows_release_identical_noisy_zeros() {
    // An object-free recording: every sandbox execution returns zero rows,
    // so the table is all empty chunk runs. The fold must still cover every
    // chunk (identity states), cache them, and release the same noisy zero
    // as the reference.
    let template = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.1)).generate();
    let scene = Scene::new(
        template.camera.clone(),
        TimeSpan::from_secs(300.0),
        template.frame_rate,
        template.frame_size,
        Vec::new(),
    );
    let cached = batch_service(&scene, true);
    let reference = batch_service(&scene, false);
    for (seed, select) in
        [(1u64, "SELECT COUNT(*) FROM people CONSUMING 0.5;"), (2, "SELECT SUM(range(count, 0, 20)) FROM people CONSUMING 0.5;")]
    {
        let text = people_query(0.0, 300.0, select);
        let warm = cached.execute_text(seed, &text).unwrap();
        let cold = reference.execute_text(seed, &text).unwrap();
        assert_eq!(warm, cold, "empty-window release diverged: {select}");
        assert_eq!(warm.releases[0].raw.as_number(), Some(0.0), "an empty table folds to a raw zero");
        let replay = cached.execute_text(seed, &text).unwrap();
        assert_eq!(replay, warm);
    }
    assert!(cached.agg_cache_stats().hits >= 2, "empty prefixes are cacheable like any other");
}

// ---------------------------------------------------------------------------
// Standing queries: the incremental path (per-window folds extended chunk by
// chunk as appends close them, pre-folded at the live edge) versus a batch
// registration replaying the identical footage and seeds.

const BATCH_SECS: f64 = 300.0;
const N_BATCHES: usize = 6;
const STANDING_SEED: u64 = 9000;

fn batches_of(scene: &Scene) -> Vec<FrameBatch> {
    let mut per_batch: Vec<Vec<TrackedObject>> = vec![Vec::new(); N_BATCHES];
    for obj in &scene.objects {
        let first = obj.first_seen().map(|t| t.as_secs()).unwrap_or(0.0);
        let slot = ((first / BATCH_SECS).floor() as usize).min(N_BATCHES - 1);
        per_batch[slot].push(obj.clone());
    }
    per_batch.into_iter().map(|objects| FrameBatch::new(BATCH_SECS, objects)).collect()
}

fn final_scene(scene: &Scene, batches: &[FrameBatch]) -> Scene {
    Scene::new(
        scene.camera.clone(),
        TimeSpan::from_secs(batches.len() as f64 * BATCH_SECS),
        scene.frame_rate,
        scene.frame_size,
        batches.iter().flat_map(|b| b.objects.iter().cloned()).collect(),
    )
}

/// A sliding-chunk (stride > chunk) standing window over the first period.
fn standing_text() -> String {
    format!(
        "SPLIT campus BEGIN 0 END {BATCH_SECS} BY TIME 10 sec STRIDE 5 sec INTO chunks;
         PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
             WITH SCHEMA (count:NUMBER=0) INTO people;
         SELECT SUM(range(count, 0, 20)) FROM people CONSUMING 0.5;"
    )
}

fn assert_firings_match_batch_replay(firings: &[StandingFiring], finale: &Scene) {
    // Replay every firing's window on a cache-DISABLED batch registration of
    // the final recording, with the firing's own seed: the incremental
    // standing state must have released exactly these bits.
    let replay = batch_service(finale, false);
    assert_eq!(firings.len(), N_BATCHES);
    for (k, firing) in firings.iter().enumerate() {
        assert_eq!(firing.seed, STANDING_SEED + k as u64);
        let begin = k as f64 * BATCH_SECS;
        let text = format!(
            "SPLIT campus BEGIN {begin} END {} BY TIME 10 sec STRIDE 5 sec INTO chunks;
             PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                 WITH SCHEMA (count:NUMBER=0) INTO people;
             SELECT SUM(range(count, 0, 20)) FROM people CONSUMING 0.5;",
            begin + BATCH_SECS
        );
        let reference: QueryResult = replay.execute_text(firing.seed, &text).unwrap();
        assert_eq!(
            firing.result.as_ref().expect("standing window admitted"),
            &reference,
            "firing {k}: incremental standing release must equal the uncached batch replay"
        );
    }
}

#[test]
fn standing_windows_fed_piecemeal_match_an_uncached_batch_replay() {
    let generated = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
    let batches = batches_of(&generated);
    let finale = final_scene(&generated, &batches);

    let live = QueryService::builder().parallelism(Parallelism::Fixed(1)).build().expect("in-memory service builds");
    live.register_live_camera("campus", generated.frame_rate, generated.frame_size, policy())
        .expect("camera registration must succeed");
    register_processors(&live);
    live.register_standing_query("per_window", STANDING_SEED, &standing_text()).unwrap();

    // Deliver each period in two half-batches: the first append leaves the
    // window half-closed (exercising the live-edge prefold of only the
    // closed chunk prefix), the second closes it and fires.
    let mut fired = 0;
    for batch in batches {
        let (early, late): (Vec<TrackedObject>, Vec<TrackedObject>) = batch.objects.iter().cloned().partition(|o| {
            o.first_seen().map(|t| t.as_secs() % BATCH_SECS < BATCH_SECS / 2.0).unwrap_or(true)
        });
        fired += live.append_frames("campus", FrameBatch::new(BATCH_SECS / 2.0, early)).unwrap().standing_fired;
        fired += live.append_frames("campus", FrameBatch::new(BATCH_SECS / 2.0, late)).unwrap().standing_fired;
    }
    assert_eq!(fired, N_BATCHES, "each window fires exactly once, on the append that closes it");

    let firings = live.standing_results("per_window").unwrap();
    assert_firings_match_batch_replay(&firings, &finale);

    // Each half-window append pre-folded the closed prefix, and each firing
    // inserted its full-window state — so tier 2 holds (at least) two entries
    // per window. (The firing's walk-back to the prefolded prefix is a
    // silent peek by design, so it shows up in `entries`, not `hits`.)
    let stats = live.agg_cache_stats();
    assert!(
        stats.entries >= 2 * N_BATCHES,
        "prefolds must persist alongside the firings' full-window states, got {stats:?}"
    );

    // A second analyst running the same sub-plan over a fired window shares
    // the firing's folded state: the counting probe at the full prefix hits.
    let hits_before = stats.hits;
    let adhoc = live
        .execute_text(
            4242,
            "SPLIT campus BEGIN 0 END 300 BY TIME 10 sec STRIDE 5 sec INTO chunks;
             PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                 WITH SCHEMA (count:NUMBER=0) INTO people;
             SELECT SUM(range(count, 0, 20)) FROM people CONSUMING 0.5;",
        )
        .unwrap();
    assert_eq!(live.agg_cache_stats().hits, hits_before + 1, "shared sub-plan must hit tier 2");
    assert_eq!(
        adhoc.releases[0].raw,
        firings[0].result.as_ref().unwrap().releases[0].raw,
        "the shared state releases the same raw value the firing released"
    );
}

#[test]
fn recovered_standing_state_replays_to_identical_releases() {
    // Crash after 3 windows, restart from the WAL, replay the recorded
    // footage, resume the stream: the stitched firing sequence must be
    // bit-identical to the uncached batch replay of every window — the
    // incremental states rebuilt after recovery carry no history of the
    // crash.
    let dir: PathBuf =
        std::env::temp_dir().join(format!("privid-incremental-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let generated = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
    let batches = batches_of(&generated);
    let finale = final_scene(&generated, &batches);
    const CRASH_AFTER: usize = 3;

    let durable = || {
        QueryService::builder()
            .parallelism(Parallelism::Fixed(1))
            .durability(Durability::wal(&dir, FsyncPolicy::Always))
            .build()
            .expect("durable service builds")
    };
    let register = |svc: &QueryService| {
        svc.register_live_camera("campus", generated.frame_rate, generated.frame_size, policy())
            .expect("camera registration must succeed");
        register_processors(svc);
        svc.register_standing_query("per_window", STANDING_SEED, &standing_text()).unwrap();
    };

    let pre_crash: Vec<StandingFiring> = {
        let svc = durable();
        register(&svc);
        for batch in &batches[..CRASH_AFTER] {
            svc.append_frames("campus", batch.clone()).unwrap();
        }
        svc.standing_results("per_window").unwrap()
        // dropped without shutdown: a crash
    };
    assert_eq!(pre_crash.len(), CRASH_AFTER);

    let svc = durable();
    register(&svc);
    // Replay the recorded batches (no re-firing), then resume the stream.
    for batch in &batches[..CRASH_AFTER] {
        assert_eq!(svc.append_frames("campus", batch.clone()).unwrap().standing_fired, 0);
    }
    let mut resumed = 0;
    for batch in &batches[CRASH_AFTER..] {
        resumed += svc.append_frames("campus", batch.clone()).unwrap().standing_fired;
    }
    assert_eq!(resumed, N_BATCHES - CRASH_AFTER);

    let stitched: Vec<StandingFiring> =
        pre_crash.into_iter().chain(svc.standing_results("per_window").unwrap()).collect();
    assert_firings_match_batch_replay(&stitched, &finale);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sibling_standing_queries_sharing_one_tail_match_a_cache_disabled_service_across_a_restart() {
    // COUNT and SUM over the same window are one PROCESS: within a pump call
    // the second sibling is served the tail table the first one executed
    // (the per-call tail memo), on firings and on pre-folds alike. What they
    // release must be exactly what a service with every cache tier disabled
    // releases — which runs each query alone, through the reference path —
    // including for the windows fired after a crash and a WAL restart.
    let dir: PathBuf = std::env::temp_dir().join(format!("privid-incremental-siblings-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let generated = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
    let batches = batches_of(&generated);
    const CRASH_AFTER: usize = 3;
    const SIBLINGS: [(&str, u64, &str); 2] =
        [("count", STANDING_SEED, "COUNT(*)"), ("sum", STANDING_SEED + 100, "SUM(range(count, 0, 20))")];

    let register = |svc: &QueryService| {
        svc.register_live_camera("campus", generated.frame_rate, generated.frame_size, policy())
            .expect("camera registration must succeed");
        register_processors(svc);
        for (name, seed, select) in SIBLINGS {
            let text = people_query(0.0, BATCH_SECS, &format!("SELECT {select} FROM people CONSUMING 0.5;"));
            svc.register_standing_query(name, seed, &text).unwrap();
        }
    };
    // Each period arrives in two halves: the first append pre-folds the
    // closed half of the forming window, the second closes it and fires.
    let feed = |svc: &QueryService, batches: &[FrameBatch]| -> usize {
        let mut fired = 0;
        for batch in batches {
            let (early, late): (Vec<TrackedObject>, Vec<TrackedObject>) = batch.objects.iter().cloned().partition(|o| {
                o.first_seen().map(|t| t.as_secs() % BATCH_SECS < BATCH_SECS / 2.0).unwrap_or(true)
            });
            fired += svc.append_frames("campus", FrameBatch::new(BATCH_SECS / 2.0, early)).unwrap().standing_fired;
            fired += svc.append_frames("campus", FrameBatch::new(BATCH_SECS / 2.0, late)).unwrap().standing_fired;
        }
        fired
    };
    let firings = |svc: &QueryService| -> Vec<Vec<StandingFiring>> {
        SIBLINGS.iter().map(|(name, ..)| svc.standing_results(name).unwrap()).collect()
    };

    let reference = QueryService::builder()
        .parallelism(Parallelism::Fixed(1))
        .cache_capacity(0)
        .build()
        .expect("in-memory service builds");
    register(&reference);
    assert_eq!(feed(&reference, &batches), 2 * N_BATCHES);

    let durable = || {
        QueryService::builder()
            .parallelism(Parallelism::Fixed(1))
            .durability(Durability::wal(&dir, FsyncPolicy::Always))
            .build()
            .expect("durable service builds")
    };
    let pre_crash = {
        let svc = durable();
        register(&svc);
        assert_eq!(feed(&svc, &batches[..CRASH_AFTER]), 2 * CRASH_AFTER);
        firings(&svc)
        // dropped without shutdown: a crash
    };
    let svc = durable();
    register(&svc);
    assert_eq!(feed(&svc, &batches[..CRASH_AFTER]), 0, "replayed footage re-fires nothing");
    assert_eq!(feed(&svc, &batches[CRASH_AFTER..]), 2 * (N_BATCHES - CRASH_AFTER));

    for ((pre, post), reference) in pre_crash.into_iter().zip(firings(&svc)).zip(firings(&reference)) {
        let stitched: Vec<StandingFiring> = pre.into_iter().chain(post).collect();
        assert_eq!(stitched.len(), N_BATCHES);
        assert!(stitched.iter().all(|f| f.result.is_ok()), "ample budget: every firing admitted");
        assert_eq!(stitched, reference, "window, seed and every released bit");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
