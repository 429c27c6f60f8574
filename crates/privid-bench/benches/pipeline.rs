//! Criterion benchmark of the end-to-end split → process → aggregate → noise
//! pipeline (the per-query cost an analyst experiences), a comparison of the
//! chunk execution engine's worker counts, and the cost of one live append as
//! a function of how much footage the camera already holds.

use criterion::{criterion_group, criterion_main, Criterion};
use privid::video::trajectory::Trajectory;
use privid::video::{Attributes, ObjectClass, ObjectId, Point, PresenceSegment};
use privid::{
    ChunkProcessor, FrameBatch, FrameRate, FrameSize, Parallelism, PrivacyPolicy, QueryService, SceneConfig,
    SceneGenerator, TimeSpan, TrackedObject, UniqueEntrantProcessor,
};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5).with_arrival_scale(0.3)).generate();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for (name, chunk_secs) in [("chunk_5s", 5.0), ("chunk_30s", 30.0)] {
        group.bench_function(format!("count_query_10min_{name}"), |b| {
            b.iter(|| {
                let sys = QueryService::new();
                sys.register_camera("campus", scene.clone(), PrivacyPolicy::new(90.0, 2, 1e9)).expect("camera/processor registration must succeed");
                sys.register_processor("proc", || {
                    Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
                }).expect("camera/processor registration must succeed");
                let query = format!(
                    "SPLIT campus BEGIN 0 END 600 BY TIME {chunk_secs} sec STRIDE 0 sec INTO c;
                     PROCESS c USING proc TIMEOUT 1 sec PRODUCING 20 ROWS WITH SCHEMA (count:NUMBER=0) INTO t;
                     SELECT COUNT(*) FROM t CONSUMING 1.0;"
                );
                black_box(sys.execute_text(1, &query).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_execution_engine(c: &mut Criterion) {
    let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5).with_arrival_scale(0.3)).generate();
    let query = "SPLIT campus BEGIN 0 END 1200 BY TIME 5 sec STRIDE 0 sec INTO c;
                 PROCESS c USING proc TIMEOUT 1 sec PRODUCING 20 ROWS WITH SCHEMA (count:NUMBER=0) INTO t;
                 SELECT COUNT(*) FROM t CONSUMING 1.0;";

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);

    for (name, parallelism) in [
        ("streaming_serial", Parallelism::Serial),
        ("streaming_workers_4", Parallelism::Fixed(4)),
        ("streaming_auto", Parallelism::Auto),
    ] {
        group.bench_function(format!("count_query_20min_{name}"), |b| {
            let sys = QueryService::builder().parallelism(parallelism).build().expect("in-memory service builds");
            sys.register_camera("campus", scene.clone(), PrivacyPolicy::new(90.0, 2, 1e9)).expect("camera/processor registration must succeed");
            sys.register_processor("proc", || {
                Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
            }).expect("camera/processor registration must succeed");
            b.iter(|| black_box(sys.execute_text(1, query).unwrap()));
        });
    }
    group.finish();
}

/// The `k`-th 30 s batch of a live camera: six walkers inside it.
fn walker_batch(k: u64) -> FrameBatch {
    let edge = k as f64 * 30.0;
    let objects = (0..6u64)
        .map(|w| {
            let start = edge + (w * 4) as f64;
            TrackedObject::new(
                ObjectId(k * 6 + w),
                ObjectClass::Person,
                Attributes::default(),
                vec![PresenceSegment {
                    span: TimeSpan::between_secs(start, start + 2.0 + (w * 3) as f64),
                    trajectory: Trajectory::linear(Point::new(0.0, 50.0), Point::new(100.0, 50.0), 5.0, 10.0),
                }],
            )
        })
        .collect();
    FrameBatch::new(30.0, objects)
}

/// One in-process `append_frames` (a 30 s batch of six walkers, one core)
/// to a live camera that already holds 1 k / 10 k / 100 k s of footage, under
/// the standing-query mix of `privid_e2e`'s `live_standing` workload:
/// 30/60/120/300 s windows × COUNT and SUM over 10 s chunks. An append costs
/// O(batch), so the three medians should agree; a gap between them is
/// per-append work that grows with the recording.
fn bench_append_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("append_scaling");
    group.sample_size(30);
    for recorded_secs in [1_000u64, 10_000, 100_000] {
        let svc = QueryService::builder().parallelism(Parallelism::Serial).build().expect("in-memory service builds");
        svc.register_live_camera("live", FrameRate::new(2.0), FrameSize::new(100, 100), PrivacyPolicy::new(60.0, 2, 1e9))
            .expect("camera/processor registration must succeed");
        svc.register_processor("proc", || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>)
            .expect("camera/processor registration must succeed");
        for window in [30, 60, 120, 300] {
            for (tag, select) in [("count", "COUNT(*)"), ("sum", "SUM(range(count, 0, 20))")] {
                let text = format!(
                    "SPLIT live BEGIN 0 END {window} BY TIME 10 sec STRIDE 0 sec INTO c;
                     PROCESS c USING proc TIMEOUT 1 sec PRODUCING 20 ROWS WITH SCHEMA (count:NUMBER=0) INTO t;
                     SELECT {select} FROM t CONSUMING 0.01;"
                );
                svc.register_standing_query(format!("{tag}-{window}"), window, &text).expect("standing query registers");
            }
        }
        let mut next = 0u64;
        while next * 30 < recorded_secs {
            svc.append_frames("live", walker_batch(next)).expect("preload append");
            next += 1;
        }
        group.bench_function(format!("append_30s_batch_at_{recorded_secs}s"), |b| {
            b.iter(|| {
                let outcome = svc.append_frames("live", walker_batch(next)).expect("append");
                next += 1;
                black_box(outcome)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_execution_engine, bench_append_scaling);
criterion_main!(benches);
