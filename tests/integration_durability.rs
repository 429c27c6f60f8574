//! Durability end to end: a live service is killed mid-stream and restarted
//! from its write-ahead log. The restarted service must (1) adopt the
//! pre-crash ledger — ε debited exactly once per slot across the crash, with
//! no re-minting for already-queried footage, (2) re-arm standing queries at
//! their next unfired window so the concatenation of pre-crash and
//! post-restart firings is bit-for-bit identical to an uninterrupted run,
//! and (3) fail retryably (without debit) for footage the owner has not yet
//! replayed. Mirrors `integration_live.rs`, with a crash in the middle.

use privid::{
    ChunkProcessor, Durability, FrameBatch, FsyncPolicy, Parallelism, PrivacyPolicy, PrividError, QueryService,
    Scene, SceneConfig, SceneGenerator, StandingFiring, TimeSpan, TrackedObject, UniqueEntrantProcessor,
};
use std::path::PathBuf;

const BATCH_SECS: f64 = 300.0;
const N_BATCHES: usize = 6;
const CRASH_AFTER: usize = 3;
const POLICY: (f64, u32, f64) = (60.0, 2, 20.0);
const STANDING_SEED: u64 = 9000;
const ANALYST_SEED: u64 = 77;

fn policy() -> PrivacyPolicy {
    PrivacyPolicy::new(POLICY.0, POLICY.1, POLICY.2)
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("privid-integration-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Partition a generated scene's objects into frame batches by the batch in
/// which each object first appears.
fn batches_of(scene: &Scene) -> Vec<FrameBatch> {
    let mut per_batch: Vec<Vec<TrackedObject>> = vec![Vec::new(); N_BATCHES];
    for obj in &scene.objects {
        let first = obj.first_seen().map(|t| t.as_secs()).unwrap_or(0.0);
        let slot = ((first / BATCH_SECS).floor() as usize).min(N_BATCHES - 1);
        per_batch[slot].push(obj.clone());
    }
    per_batch.into_iter().map(|objects| FrameBatch::new(BATCH_SECS, objects)).collect()
}

fn register(svc: &QueryService, scene: &Scene) {
    svc.register_live_camera("campus", scene.frame_rate, scene.frame_size, policy()).expect("camera/processor registration must succeed");
    svc.register_processor("person_counter", || {
        Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
    }).expect("camera/processor registration must succeed");
}

fn window_query(begin: f64, end: f64, epsilon: f64) -> String {
    format!(
        "SPLIT campus BEGIN {begin} END {end} BY TIME 10 sec STRIDE 0 sec INTO chunks;
         PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
             WITH SCHEMA (count:NUMBER=0) INTO people;
         SELECT COUNT(*) FROM people CONSUMING {epsilon};"
    )
}

fn standing_text() -> String {
    window_query(0.0, BATCH_SECS, 0.5)
}

/// The uninterrupted reference: everything the crashing run does, on one
/// in-memory service with the same seeds — including the ad-hoc analyst
/// query issued right after batch `CRASH_AFTER`.
fn uninterrupted_run(scene: &Scene, batches: &[FrameBatch]) -> (Vec<StandingFiring>, Vec<f64>, f64) {
    let svc = QueryService::builder().parallelism(Parallelism::Fixed(1)).build().expect("in-memory service builds");
    register(&svc, scene);
    svc.register_standing_query("per_window", STANDING_SEED, &standing_text()).unwrap();
    let mut analyst_raw = f64::NAN;
    for (k, batch) in batches.iter().enumerate() {
        svc.append_frames("campus", batch.clone()).unwrap();
        if k + 1 == CRASH_AFTER {
            let r = svc.execute_text(ANALYST_SEED, &window_query(0.0, BATCH_SECS, 0.25)).unwrap();
            analyst_raw = r.releases[0].raw.as_number().unwrap();
        }
    }
    let firings = svc.standing_results("per_window").unwrap();
    let budgets =
        (0..N_BATCHES).map(|k| svc.remaining_budget("campus", k as f64 * BATCH_SECS + 10.0).unwrap()).collect();
    (firings, budgets, analyst_raw)
}

#[test]
fn restart_resumes_standing_queries_bit_for_bit_with_exactly_once_debits() {
    let dir = wal_dir("restart");
    let generated = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
    let batches = batches_of(&generated);
    let (reference_firings, reference_budgets, reference_raw) = uninterrupted_run(&generated, &batches);
    assert_eq!(reference_firings.len(), N_BATCHES);

    // ---- phase 1: the durable service serves until it "crashes" ----------------------
    let pre_crash_firings: Vec<StandingFiring> = {
        let svc = QueryService::builder()
            .parallelism(Parallelism::Fixed(1))
            .durability(Durability::wal(&dir, FsyncPolicy::Always))
            .snapshot_every(16) // small enough that the crash also crosses snapshots
            .build()
            .expect("fresh durable service");
        assert!(svc.recovery_report().is_none(), "a fresh store has nothing to recover");
        register(&svc, &generated);
        svc.register_standing_query("per_window", STANDING_SEED, &standing_text()).unwrap();
        let mut fired = 0;
        for batch in &batches[..CRASH_AFTER] {
            fired += svc.append_frames("campus", batch.clone()).unwrap().standing_fired;
        }
        assert_eq!(fired, CRASH_AFTER, "one firing per completed window before the crash");
        // An ad-hoc analyst query, so the crash also has a non-standing debit
        // to preserve.
        let r = svc.execute_text(ANALYST_SEED, &window_query(0.0, BATCH_SECS, 0.25)).unwrap();
        assert_eq!(r.releases[0].raw.as_number().unwrap(), reference_raw);
        svc.standing_results("per_window").unwrap()
        // `svc` dropped here: no shutdown protocol, no checkpoint — a crash.
    };

    // ---- phase 2: restart, recover, replay, resume -----------------------------------
    let svc = QueryService::builder()
        .parallelism(Parallelism::Fixed(1))
        .durability(Durability::wal(&dir, FsyncPolicy::Always))
        .snapshot_every(16)
        .build()
        .expect("recovery succeeds");
    let report = svc.recovery_report().expect("an existing store was recovered").clone();
    assert_eq!(report.torn_tail_bytes, 0, "clean shutdown at a record boundary");
    register(&svc, &generated);

    // The ledger resumed at the durable edge with every debit intact…
    assert_eq!(svc.ledger_edge("campus"), Some(CRASH_AFTER as f64 * BATCH_SECS));
    assert!(
        (svc.remaining_budget("campus", 10.0).unwrap() - (POLICY.2 - 0.5 - 0.25)).abs() < 1e-9,
        "window 0 keeps both its standing and its analyst debit across the crash"
    );
    // …while the footage awaits replay: the gap fails retryably, debit-free.
    assert_eq!(svc.live_edge("campus"), Some(0.0));
    match svc.execute_text(5, &window_query(0.0, BATCH_SECS, 0.1)) {
        Err(PrividError::BeyondLiveEdge { live_edge_secs, .. }) => assert_eq!(live_edge_secs, 0.0),
        other => panic!("expected BeyondLiveEdge before the replay, got {other:?}"),
    }

    // Re-arming the identical standing query is idempotent (no reset, no
    // catch-up re-firing) — the recovered watermark stands.
    assert_eq!(svc.register_standing_query("per_window", STANDING_SEED, &standing_text()).unwrap(), 0);

    // Replay the already-recorded batches: no standing window re-fires, no
    // slot is re-debited, no ε is re-minted.
    for batch in &batches[..CRASH_AFTER] {
        let outcome = svc.append_frames("campus", batch.clone()).unwrap();
        assert_eq!(outcome.standing_fired, 0, "replayed footage must not re-fire recovered windows");
    }
    assert!((svc.remaining_budget("campus", 10.0).unwrap() - (POLICY.2 - 0.5 - 0.25)).abs() < 1e-9);

    // Resume the live stream: the remaining windows fire exactly once each.
    let mut resumed = 0;
    for batch in &batches[CRASH_AFTER..] {
        resumed += svc.append_frames("campus", batch.clone()).unwrap().standing_fired;
    }
    assert_eq!(resumed, N_BATCHES - CRASH_AFTER);

    // ---- the proof: pre-crash ++ post-restart == uninterrupted, bit for bit ----------
    let post_restart_firings = svc.standing_results("per_window").unwrap();
    let stitched: Vec<StandingFiring> =
        pre_crash_firings.into_iter().chain(post_restart_firings).collect();
    assert_eq!(stitched.len(), reference_firings.len());
    for (k, (stitched, reference)) in stitched.iter().zip(&reference_firings).enumerate() {
        assert_eq!(stitched.window, TimeSpan::between_secs(k as f64 * BATCH_SECS, (k + 1) as f64 * BATCH_SECS));
        assert_eq!(stitched.seed, STANDING_SEED + k as u64, "per-firing seeds survive the restart");
        assert_eq!(
            stitched, reference,
            "firing {k}: the restarted stream must release bit-for-bit what an uninterrupted run releases"
        );
    }

    // Exactly-once ε accounting across the crash: every sampled slot matches
    // the uninterrupted service to the last bit of f64 arithmetic.
    for (k, reference) in reference_budgets.iter().enumerate() {
        let at = k as f64 * BATCH_SECS + 10.0;
        let remaining = svc.remaining_budget("campus", at).unwrap();
        assert!(
            (remaining - reference).abs() < 1e-12,
            "slot at {at}s: restarted {remaining} vs uninterrupted {reference}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_second_restart_after_a_checkpoint_recovers_from_the_snapshot() {
    // Crash → recover → checkpoint → crash → recover: the second recovery
    // reads (mostly) the snapshot, and the ledgers still carry every debit.
    let dir = wal_dir("two-restarts");
    let generated = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate();
    let build = || {
        QueryService::builder()
            .parallelism(Parallelism::Fixed(1))
            .durability(Durability::wal(&dir, FsyncPolicy::Never))
            .build()
            .expect("durable service builds")
    };
    {
        let svc = build();
        register(&svc, &generated);
        svc.append_frames("campus", FrameBatch::new(600.0, generated.objects.to_vec())).unwrap();
        svc.execute_text(3, &window_query(0.0, 300.0, 1.0)).unwrap();
    }
    {
        let svc = build();
        register(&svc, &generated);
        assert!((svc.remaining_budget("campus", 100.0).unwrap() - (POLICY.2 - 1.0)).abs() < 1e-9);
        // Replay the recorded footage (the video store survives the crash;
        // the WAL only persists admission state), then query fresh windows.
        svc.append_frames("campus", FrameBatch::new(600.0, generated.objects.to_vec())).unwrap();
        svc.execute_text(4, &window_query(300.0, 600.0, 0.5)).unwrap();
        svc.checkpoint().expect("explicit checkpoint");
    }
    let svc = build();
    let report = svc.recovery_report().unwrap();
    assert!(report.snapshot_seq > 0, "the second recovery starts from the snapshot");
    assert_eq!(report.records_replayed, 0, "nothing was appended after the checkpoint");
    register(&svc, &generated);
    assert!((svc.remaining_budget("campus", 100.0).unwrap() - (POLICY.2 - 1.0)).abs() < 1e-9);
    assert!((svc.remaining_budget("campus", 400.0).unwrap() - (POLICY.2 - 0.5)).abs() < 1e-9);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_serving_is_bit_for_bit_identical_to_in_memory_serving() {
    // The WAL must be write-only with respect to semantics: same seeds, same
    // releases, durable or not — including under concurrent analysts.
    let dir = wal_dir("transparent");
    let generated = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate();
    let durable = QueryService::builder()
        .parallelism(Parallelism::Fixed(2))
        .durability(Durability::wal(&dir, FsyncPolicy::Never))
        .build()
        .unwrap();
    let plain = QueryService::builder().parallelism(Parallelism::Fixed(2)).build().expect("in-memory service builds");
    for svc in [&durable, &plain] {
        register(svc, &generated);
        svc.append_frames("campus", FrameBatch::new(900.0, generated.objects.to_vec())).unwrap();
    }
    let queries: Vec<(u64, String)> =
        (0..6).map(|q| (100 + q, window_query((q % 3) as f64 * 300.0, ((q % 3) + 1) as f64 * 300.0, 0.2))).collect();
    let run = |svc: &QueryService| -> Vec<privid::QueryResult> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .iter()
                .map(|(seed, text)| scope.spawn(move || svc.execute_text(*seed, text).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };
    assert_eq!(run(&durable), run(&plain), "durability must never change a release");
    for at in [10.0, 310.0, 610.0] {
        assert_eq!(
            durable.remaining_budget("campus", at).unwrap().to_bits(),
            plain.remaining_budget("campus", at).unwrap().to_bits(),
            "identical debits at {at}s"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
