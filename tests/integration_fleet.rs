//! Fleet sharding, end to end: camera-id-hash shards must be *transparent*
//! (bit-for-bit equal releases vs an unsharded service), keep cache
//! invalidation shard-local, admit multi-camera queries across shards
//! atomically, and survive a restart — while refusing a shard-count change
//! that would orphan journaled admissions.

use privid::{
    ChunkProcessor, Durability, FrameBatch, FrameRate, FrameSize, FsyncPolicy, Parallelism, PrivacyPolicy,
    QueryService, UniqueEntrantProcessor,
};
use std::path::PathBuf;

const SHARDS: usize = 4;
const BATCH_SECS: f64 = 60.0;

fn policy() -> PrivacyPolicy {
    PrivacyPolicy::new(10.0, 2, 1000.0)
}

fn fleet_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("privid-fleet-{tag}-{}", std::process::id()));
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

fn batch(i: usize) -> FrameBatch {
    let base = i as f64 * BATCH_SECS;
    FrameBatch::new(
        BATCH_SECS,
        vec![walker(2 * i as u64 + 1, base + 5.0, base + 40.0), walker(2 * i as u64 + 2, base + 20.0, base + 55.0)],
    )
}

/// One camera name per shard, discovered through the pure routing hash.
fn cameras_per_shard(shards: usize) -> Vec<String> {
    let routing = QueryService::builder().shards(shards).build().expect("in-memory service builds");
    let mut names: Vec<Option<String>> = vec![None; shards];
    for i in 0..64 {
        let name = format!("cam{i}");
        let slot = &mut names[routing.shard_index(&name)];
        if slot.is_none() {
            *slot = Some(name);
        }
    }
    names.into_iter().map(|n| n.expect("64 candidates cover every shard")).collect()
}

fn register_fleet(svc: &QueryService, names: &[String], batches: usize) {
    svc.register_processor("person_counter", || {
        Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
    })
    .expect("processor registration");
    for name in names {
        svc.register_live_camera(name, FrameRate::new(2.0), FrameSize::new(100, 100), policy())
            .expect("camera registration");
        for i in 0..batches {
            svc.append_frames(name, batch(i)).expect("append");
        }
    }
}

fn count_query(camera: &str, epsilon: f64) -> String {
    format!(
        "SPLIT {camera} BEGIN 0 END {BATCH_SECS} BY TIME 10 sec STRIDE 0 sec INTO chunks;
         PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
             WITH SCHEMA (count:NUMBER=0) INTO people;
         SELECT COUNT(*) FROM people CONSUMING {epsilon};"
    )
}

/// One program over two cameras: both SPLITs admit in a single fleet
/// admission, so when the cameras live on different shards this is the
/// cross-shard check-all-then-debit-all path end to end.
fn two_camera_query(cam_a: &str, cam_b: &str, epsilon: f64) -> String {
    format!(
        "SPLIT {cam_a} BEGIN 0 END {BATCH_SECS} BY TIME 10 sec STRIDE 0 sec INTO a_chunks;
         SPLIT {cam_b} BEGIN 0 END {BATCH_SECS} BY TIME 10 sec STRIDE 0 sec INTO b_chunks;
         PROCESS a_chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
             WITH SCHEMA (count:NUMBER=0) INTO a_people;
         PROCESS b_chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
             WITH SCHEMA (count:NUMBER=0) INTO b_people;
         SELECT COUNT(*) FROM a_people CONSUMING {epsilon};
         SELECT COUNT(*) FROM b_people CONSUMING {epsilon};"
    )
}

#[test]
fn sharding_is_transparent_bit_for_bit_including_cross_shard_queries() {
    let names = cameras_per_shard(SHARDS);
    let sharded = QueryService::builder().shards(SHARDS).parallelism(Parallelism::Fixed(1)).build().expect("in-memory service builds");
    let flat = QueryService::builder().parallelism(Parallelism::Fixed(1)).build().expect("in-memory service builds");
    register_fleet(&sharded, &names, 2);
    register_fleet(&flat, &names, 2);
    assert_eq!(sharded.shard_count(), SHARDS);
    assert_eq!(flat.shard_count(), 1);

    // Per-camera releases are bit-identical whichever shard serves them.
    for (seed, name) in names.iter().enumerate() {
        let text = count_query(name, 0.25);
        let a = sharded.execute_text(seed as u64, &text).expect("sharded query");
        let b = flat.execute_text(seed as u64, &text).expect("flat query");
        assert_eq!(a, b, "camera {name}: a shard must not change what the analyst sees");
    }

    // A two-camera program whose SPLITs land on different shards admits
    // atomically across both gates and still releases identically.
    let text = two_camera_query(&names[0], &names[3], 0.25);
    let a = sharded.execute_text(99, &text).expect("cross-shard query");
    let b = flat.execute_text(99, &text).expect("flat two-camera query");
    assert_eq!(a, b, "a cross-shard admission must not change the releases");
    assert_eq!(a.epsilon_spent, b.epsilon_spent);

    // The debits landed identically too, camera by camera.
    for name in &names {
        assert_eq!(
            sharded.remaining_budget(name, 10.0).unwrap().to_bits(),
            flat.remaining_budget(name, 10.0).unwrap().to_bits(),
            "camera {name}: remaining ε must agree bit-for-bit"
        );
    }
}

#[test]
fn reregistration_invalidates_only_the_owning_shards_cache() {
    let names = cameras_per_shard(SHARDS);
    let svc = QueryService::builder().shards(SHARDS).parallelism(Parallelism::Fixed(1)).cache_capacity(64).build().expect("in-memory service builds");
    register_fleet(&svc, &names, 1);
    let (cam_a, cam_b) = (&names[1], &names[2]);
    let (shard_a, shard_b) = (svc.shard_index(cam_a), svc.shard_index(cam_b));
    assert_ne!(shard_a, shard_b);

    // Warm both shards' caches: run each query twice, the second must hit.
    for (seed, cam) in [(1u64, cam_a), (2, cam_b)] {
        let text = count_query(cam, 0.01);
        svc.execute_text(seed, &text).expect("warming run");
        svc.execute_text(seed, &text).expect("hitting run");
    }
    let a_before = svc.shard_cache_stats(shard_a).expect("cache enabled");
    let b_before = svc.shard_cache_stats(shard_b).expect("cache enabled");
    assert!(a_before.hits > 0 && b_before.hits > 0, "both shards' caches are warm");
    assert!(a_before.entries > 0 && b_before.entries > 0);

    // Re-register camera A: its shard's entries are invalidated; shard B's
    // tier is untouched — the invalidation walk is shard-local.
    svc.register_live_camera(cam_a, FrameRate::new(2.0), FrameSize::new(100, 100), policy())
        .expect("re-registration");
    let a_after = svc.shard_cache_stats(shard_a).expect("cache enabled");
    let b_after = svc.shard_cache_stats(shard_b).expect("cache enabled");
    assert!(
        a_after.entries < a_before.entries,
        "re-registration must drop the owning shard's cached results ({} -> {})",
        a_before.entries,
        a_after.entries
    );
    assert_eq!(b_after, b_before, "a re-registration on shard {shard_a} must not touch shard {shard_b}'s cache");

    // And shard B's entries are not just present but still *serving*.
    svc.execute_text(2, &count_query(cam_b, 0.01)).expect("repeat query");
    let b_final = svc.shard_cache_stats(shard_b).expect("cache enabled");
    assert!(b_final.hits > b_after.hits, "shard {shard_b}'s warm entries keep hitting");
    assert_eq!(b_final.misses, b_after.misses, "no shard-{shard_b} entry was invalidated");
}

#[test]
fn a_sharded_durable_fleet_restarts_in_place_and_refuses_resharding() {
    let names = cameras_per_shard(SHARDS);
    let dir = fleet_dir("restart");
    let spent = {
        let svc = QueryService::builder()
            .parallelism(Parallelism::Fixed(1))
            .durability(Durability::wal(&dir, FsyncPolicy::Always))
            .shards(SHARDS)
            .build()
            .expect("sharded durable service builds");
        register_fleet(&svc, &names, 1);
        for (seed, name) in names.iter().enumerate() {
            svc.execute_text(seed as u64, &count_query(name, 0.25)).expect("debiting query");
        }
        names.iter().map(|n| svc.remaining_budget(n, 10.0).unwrap().to_bits()).collect::<Vec<_>>()
        // dropped without checkpoint: a crash
    };

    // Restart with the same shard count: every shard's WAL replays and a
    // matching re-registration adopts each camera's pre-crash ledger.
    let svc = QueryService::builder()
        .parallelism(Parallelism::Fixed(1))
        .durability(Durability::wal(&dir, FsyncPolicy::Always))
        .shards(SHARDS)
        .build()
        .expect("sharded restart recovers");
    let report = svc.recovery_report().expect("an existing fleet was recovered").clone();
    assert_eq!(report.torn_tail_bytes, 0);
    register_fleet(&svc, &names, 1);
    for (name, bits) in names.iter().zip(&spent) {
        assert_eq!(
            svc.remaining_budget(name, 10.0).unwrap().to_bits(),
            *bits,
            "camera {name}: the restarted fleet must adopt the pre-crash ledger bit-for-bit"
        );
    }
    drop(svc);

    // A different shard count over the same directory must refuse to build:
    // fewer shards would orphan journaled admissions in the extra dirs, more
    // would re-home cameras away from their journaled shard.
    for wrong in [SHARDS / 2, SHARDS * 2] {
        let err = QueryService::builder()
            .durability(Durability::wal(&dir, FsyncPolicy::Always))
            .shards(wrong)
            .build();
        assert!(err.is_err(), "building {wrong} shards over a {SHARDS}-shard layout must fail, not silently reshard");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
