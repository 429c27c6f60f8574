//! Criterion benchmark of the end-to-end split → process → aggregate → noise
//! pipeline (the per-query cost an analyst experiences), plus a comparison of
//! the chunk execution engine's worker counts.

use criterion::{criterion_group, criterion_main, Criterion};
use privid::{
    ChunkProcessor, Parallelism, PrivacyPolicy, QueryService, SceneConfig, SceneGenerator, UniqueEntrantProcessor,
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

criterion_group!(benches, bench_pipeline, bench_execution_engine);
criterion_main!(benches);
