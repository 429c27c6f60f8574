//! Chaos harness for the storage fault model: randomized, seeded fault
//! schedules injected under concurrent analysts and live appends.
//!
//! Per seed, a durable service runs over a [`FaultVfs`] whose probabilistic
//! fault profile is derived from the seed (write EIO/ENOSPC/short writes,
//! fsync failures, rename failures, truncate failures). Two analysts issue
//! closed-window queries while a feeder appends footage; then the "disk"
//! heals and a supervised [`QueryService::recover_store`] reconciles. The
//! invariants, for every seed:
//!
//! 1. **No panic** — every thread joins cleanly whatever the schedule.
//! 2. **Never under-debit** — at the post-chaos quiescent point, the durable
//!    shadow's remaining budget is ≤ the in-memory ledger's at every instant
//!    the memory ledger covers: ε is only ever debited *after* its journal
//!    record, so faults can lose credits (over-debit), never debits.
//! 3. **Quarantine, not global failure** — a camera that never admits during
//!    the chaos window stays `Healthy` and keeps serving reads; only cameras
//!    whose journal writes failed degrade or quarantine.
//! 4. **Bit-for-bit convergence** — once faults heal, the store reopens and
//!    the remaining footage is fed, a probe query's releases are identical
//!    to a fault-free in-memory service fed the same batches.
//!
//! Seed count defaults to 36 and is pinned in CI via the `CHAOS_SEEDS` env
//! var (a count: seeds `0..CHAOS_SEEDS` run).

use privid::{
    CameraHealth, ChunkProcessor, Durability, FaultKind, FaultOp, FaultProfile, FaultVfs, FrameBatch, FrameRate,
    FrameSize, FsyncPolicy, Parallelism, PrivacyPolicy, PrividError, QueryService, StoreRetryPolicy,
    UniqueEntrantProcessor,
};
use std::path::PathBuf;
use std::sync::Arc;

const BATCH_SECS: f64 = 60.0;
const TOTAL_BATCHES: usize = 6;
const CHAOS_FROM: usize = 2; // batches 0..CHAOS_FROM are fed before faults arm
const POLICY: (f64, u32, f64) = (10.0, 2, 1000.0);

fn policy() -> PrivacyPolicy {
    PrivacyPolicy::new(POLICY.0, POLICY.1, POLICY.2)
}

fn chaos_dir(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("privid-chaos-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn walker(id: u64, start: f64, end: f64) -> privid::TrackedObject {
    use privid::video::trajectory::Trajectory;
    use privid::video::{Attributes, ObjectClass, ObjectId, Point, PresenceSegment};
    privid::TrackedObject::new(
        ObjectId(id),
        ObjectClass::Person,
        Attributes::default(),
        vec![PresenceSegment {
            span: privid::TimeSpan::between_secs(start, end),
            trajectory: Trajectory::linear(Point::new(0.0, 50.0), Point::new(100.0, 50.0), 5.0, 10.0),
        }],
    )
}

/// Deterministic footage: batch `i` carries two walkers whose identities and
/// spans are pure functions of `i`, so a fault-free replay is bit-identical.
fn batch(i: usize) -> FrameBatch {
    let base = i as f64 * BATCH_SECS;
    let a = walker(2 * i as u64 + 1, base + 5.0, base + 40.0);
    let b = walker(2 * i as u64 + 2, base + 20.0, base + 55.0);
    FrameBatch::new(BATCH_SECS, vec![a, b])
}

fn window_query(camera: &str, begin: f64, end: f64, epsilon: f64) -> String {
    format!(
        "SPLIT {camera} BEGIN {begin} END {end} BY TIME 10 sec STRIDE 0 sec INTO chunks;
         PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
             WITH SCHEMA (count:NUMBER=0) INTO people;
         SELECT COUNT(*) FROM people CONSUMING {epsilon};"
    )
}

fn register(svc: &QueryService) {
    svc.register_live_camera("cam", FrameRate::new(2.0), FrameSize::new(100, 100), policy())
        .expect("registration");
    svc.register_live_camera("aux", FrameRate::new(2.0), FrameSize::new(100, 100), policy())
        .expect("registration");
    svc.register_processor("person_counter", || {
        Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
    })
    .expect("registration");
}

/// The seed's fault weather: every probability is a pure function of the
/// seed, so a failing seed replays its exact schedule modulo thread timing.
fn profile_for(seed: u64) -> FaultProfile {
    FaultProfile {
        write_fail: 0.02 + 0.045 * ((seed % 5) as f64),
        fsync_fail: 0.02 + 0.04 * ((seed % 3) as f64),
        rename_fail: if seed.is_multiple_of(2) { 0.1 } else { 0.0 },
        read_corrupt: 0.0, // reads happen only at recovery, after heal()
        truncate_fail: 0.02,
    }
}

/// Tolerate exactly the failures the fault model is allowed to surface.
fn tolerable(err: &PrividError) -> bool {
    err.is_retryable() || matches!(err, PrividError::Store(_))
}

fn run_seed(seed: u64) -> u64 {
    let dir = chaos_dir(seed);
    let fault = FaultVfs::over_std();
    let svc = QueryService::builder()
        .parallelism(Parallelism::Fixed(1))
        .durability(Durability::wal(&dir, FsyncPolicy::Always))
        .snapshot_every(8)
        .storage_vfs(fault.clone())
        .append_retry(StoreRetryPolicy { max_retries: 2, base_backoff: std::time::Duration::from_millis(1) })
        .build()
        .expect("seed {seed}: durable service builds");
    register(&svc);
    // Pre-chaos footage (fault layer is an empty-plan passthrough here).
    for i in 0..CHAOS_FROM {
        svc.append_frames("cam", batch(i)).expect("pre-chaos append");
    }
    svc.append_frames("aux", batch(0)).expect("pre-chaos aux append");

    // ---- chaos window -------------------------------------------------------------------
    fault.seed_profile(seed, profile_for(seed));
    let svc = Arc::new(svc);
    let feeder_svc = Arc::clone(&svc);
    let feeder = std::thread::spawn(move || -> usize {
        // Feed in order; a batch that cannot land stops the feeder (footage
        // must stay contiguous) and is re-fed after supervised recovery.
        for i in CHAOS_FROM..TOTAL_BATCHES {
            let mut attempts = 0u32;
            loop {
                match feeder_svc.append_frames("cam", batch(i)) {
                    Ok(_) => break,
                    Err(PrividError::CameraQuarantined { .. }) => return i,
                    Err(err) if tolerable(&err) && attempts < 4 => {
                        attempts += 1;
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    Err(err) if tolerable(&err) => return i,
                    Err(err) => panic!("seed {seed}: feeder hit a non-storage error: {err:?}"),
                }
            }
        }
        TOTAL_BATCHES
    });
    let analysts: Vec<_> = (0..2u64)
        .map(|a| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                for q in 0..4u64 {
                    let text = window_query("cam", 0.0, BATCH_SECS, 0.01);
                    match svc.execute_text(seed * 1000 + a * 10 + q, &text) {
                        Ok(result) => assert_eq!(result.epsilon_spent, 0.01),
                        Err(err) if tolerable(&err) => {}
                        Err(err) => panic!("seed {seed}: analyst {a} hit a non-storage error: {err:?}"),
                    }
                    // Isolation probe: "aux" never admits during chaos, so no
                    // fault schedule may quarantine it or stop its reads.
                    assert!(
                        !matches!(svc.camera_health("aux"), CameraHealth::Quarantined { .. }),
                        "seed {seed}: a camera that never admitted got quarantined"
                    );
                    assert!(svc.remaining_budget("aux", 10.0).is_some(), "seed {seed}: aux reads must keep serving");
                }
            })
        })
        .collect();
    let fed_until = feeder.join().expect("seed: feeder must not panic");
    for analyst in analysts {
        analyst.join().expect("seed: analyst must not panic");
    }

    // ---- invariant 2: never under-debit (quiescent, faults still armed) -----------------
    // Every in-memory debit was journaled first, so the durable shadow may
    // only ever be *more* debited (lost credits, unacked-but-durable frames).
    let shadow = svc.durable_state().expect("durable service has a shadow");
    if let Some(cam) = shadow.cameras.get("cam") {
        let mem_edge = svc.ledger_edge("cam").expect("cam is registered");
        for (i, durable_remaining) in cam.slots.iter().enumerate() {
            let at = i as f64 + 0.5; // the journal registers 1-second slots
            if at >= mem_edge {
                break; // durable timeline may run ahead of an unacked extend
            }
            let mem_remaining = svc.remaining_budget("cam", at).expect("slot inside the ledger edge");
            assert!(
                *durable_remaining <= mem_remaining + 1e-9,
                "seed {seed}: durable slot {i} ({durable_remaining}) above memory ({mem_remaining}): under-debit"
            );
        }
    }

    // ---- heal + supervised recovery -----------------------------------------------------
    fault.heal();
    let report = svc.recover_store().unwrap_or_else(|e| panic!("seed {seed}: recovery must succeed once healed: {e:?}"));
    drop(report);
    assert!(svc.store_wedged().is_none(), "seed {seed}: reopen clears any wedge");
    assert_eq!(svc.camera_health("cam"), CameraHealth::Healthy, "seed {seed}: recovery lifts quarantine");
    assert_eq!(svc.camera_health("aux"), CameraHealth::Healthy);

    // Finish the footage the chaos window refused.
    for i in fed_until..TOTAL_BATCHES {
        svc.append_frames("cam", batch(i)).unwrap_or_else(|e| panic!("seed {seed}: healed append failed: {e:?}"));
    }
    assert_eq!(svc.live_edge("cam"), Some(TOTAL_BATCHES as f64 * BATCH_SECS));

    // ---- invariants 3 + 4: aux serves; probe is bit-identical to fault-free -------------
    let aux_probe = window_query("aux", 0.0, BATCH_SECS, 0.25);
    svc.execute_text(7 * seed + 3, &aux_probe).unwrap_or_else(|e| panic!("seed {seed}: aux must serve: {e:?}"));

    let probe = window_query("cam", 0.0, TOTAL_BATCHES as f64 * BATCH_SECS, 0.5);
    let chaotic = svc
        .execute_text(424242, &probe)
        .unwrap_or_else(|e| panic!("seed {seed}: post-recovery probe failed: {e:?}"));

    let reference = QueryService::builder().parallelism(Parallelism::Fixed(1)).build().expect("in-memory service builds");
    register(&reference);
    for i in 0..TOTAL_BATCHES {
        reference.append_frames("cam", batch(i)).expect("fault-free append");
    }
    let expected = reference.execute_text(424242, &probe).expect("fault-free probe");
    assert_eq!(
        chaotic, expected,
        "seed {seed}: a healed, reopened store must release bit-for-bit what a fault-free run releases"
    );
    let _ = std::fs::remove_dir_all(&dir);
    fault.injected()
}

/// Sharded fault isolation: a fault schedule scoped to ONE shard's Vfs may
/// wedge that shard and quarantine its cameras, but every other shard keeps
/// journaling, admitting and serving — and a healed supervised recovery
/// brings the wedged shard back without disturbing the rest.
#[test]
fn a_single_shards_faults_leave_the_other_shards_healthy() {
    const SHARDS: usize = 4;
    const FAULTED: usize = 2;

    // Camera names route by id hash; probe candidates until every shard has
    // one (the routing is pure, so a throwaway in-memory service answers).
    let routing = QueryService::builder().shards(SHARDS).build().expect("in-memory service builds");
    let mut names: Vec<Option<String>> = vec![None; SHARDS];
    for i in 0..64 {
        let name = format!("cam{i}");
        let slot = &mut names[routing.shard_index(&name)];
        if slot.is_none() {
            *slot = Some(name);
        }
    }
    let names: Vec<String> = names
        .into_iter()
        .map(|n| n.expect("64 candidate names must cover all 4 shards"))
        .collect();

    let dir = chaos_dir(424243);
    let fault = FaultVfs::over_std();
    let svc = QueryService::builder()
        .parallelism(Parallelism::Fixed(1))
        .durability(Durability::wal(&dir, FsyncPolicy::Always))
        .shards(SHARDS)
        .shard_storage_vfs(FAULTED, fault.clone())
        .build()
        .expect("sharded durable service builds");
    svc.register_processor("person_counter", || {
        Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
    })
    .expect("registration");
    for name in &names {
        svc.register_live_camera(name, FrameRate::new(2.0), FrameSize::new(100, 100), policy())
            .expect("registration");
        svc.append_frames(name, batch(0)).expect("pre-fault append");
    }

    // Deterministic fault: every fsync on the faulted shard's Vfs fails.
    fault.fail_from(FaultOp::Fsync, 1, FaultKind::Eio);
    let err = svc
        .append_frames(&names[FAULTED], batch(1))
        .expect_err("an append journaled through a failing fsync cannot be acknowledged");
    assert!(tolerable(&err), "the failure surfaces as a storage error, got {err:?}");
    assert!(svc.shard_wedged(FAULTED).is_some(), "the faulted shard's WAL wedges");

    // Blast radius check: every OTHER shard keeps appending, admitting and
    // answering — the wedge is shard-local.
    for (k, name) in names.iter().enumerate() {
        if k == FAULTED {
            continue;
        }
        assert!(svc.shard_wedged(k).is_none(), "shard {k} shares no fate with shard {FAULTED}");
        svc.append_frames(name, batch(1)).unwrap_or_else(|e| panic!("shard {k} must keep appending: {e:?}"));
        svc.execute_text(99, &window_query(name, 0.0, BATCH_SECS, 0.01))
            .unwrap_or_else(|e| panic!("shard {k} must keep admitting and serving: {e:?}"));
        assert_eq!(svc.camera_health(name), CameraHealth::Healthy, "shard {k}'s camera stays healthy");
    }

    // Heal + supervised recovery: per-shard reopen lifts the wedge and the
    // quarantine; the fleet is whole again.
    fault.heal();
    svc.recover_store().expect("healed recovery succeeds");
    assert!(svc.store_wedged().is_none(), "no shard stays wedged after recovery");
    for name in &names {
        assert_eq!(svc.camera_health(name), CameraHealth::Healthy, "recovery returns every camera to service");
    }
    svc.append_frames(&names[FAULTED], batch(1)).expect("the recovered shard serves again");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn randomized_fault_schedules_preserve_the_storage_invariants() {
    let seeds: u64 = std::env::var("CHAOS_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(36);
    let mut injected = 0u64;
    for seed in 0..seeds {
        injected += run_seed(seed);
    }
    // The harness only proves anything if the schedules actually fire.
    assert!(injected > seeds, "expected a real fault load across {seeds} seeds, saw {injected} injected faults");
}
