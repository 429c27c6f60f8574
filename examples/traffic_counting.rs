//! Traffic analytics on the highway camera: the full Listing 1 query (average
//! speed plus per-colour unique-car counts), exercising range truncation,
//! intermediate GROUP BY deduplication, and explicit GROUP BY keys.
//!
//! Run with: `cargo run --example traffic_counting`

use privid::{CarTableProcessor, ChunkProcessor, PrivacyPolicy, QueryService, SceneConfig, SceneGenerator};

fn main() {
    // One hour of the synthetic highway scene, at a tenth of the nominal
    // traffic so the example runs in a couple of seconds.
    let scene =
        SceneGenerator::new(SceneConfig::highway().with_duration_hours(1.0).with_arrival_scale(0.1)).generate();
    let privid = QueryService::new();
    // The highway policy: appearances up to 5 minutes (parked cars are handled
    // by masks in the full evaluation), K = 2.
    privid.register_camera("camA", scene, PrivacyPolicy::new(300.0, 2, 10.0)).expect("camera/processor registration must succeed");
    privid.register_processor("model.py", || Box::new(CarTableProcessor) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");

    // Listing 1, adapted to offset timestamps: one hour of video, 5 s chunks.
    let query = r#"
        SPLIT camA BEGIN 0 END 1 hr BY TIME 5 sec STRIDE 0 sec INTO chunksA;

        PROCESS chunksA USING model.py TIMEOUT 1 sec
            PRODUCING 10 ROWS
            WITH SCHEMA (plate:STRING="", color:STRING="", speed:NUMBER=0)
            INTO tableA;

        /* S1: average speed of all cars */
        SELECT AVG(range(speed, 30, 60)) FROM tableA CONSUMING 0.5;

        /* S2: count of unique cars of each colour */
        SELECT color, COUNT(plate) FROM (SELECT plate, color FROM tableA GROUP BY plate)
            GROUP BY color WITH KEYS ["RED", "WHITE", "SILVER"] CONSUMING 0.5;
    "#;

    let result = privid.execute_text(7, query).expect("Listing 1 should execute");

    println!("Listing 1 on the synthetic highway camera ({} chunk executions)", result.chunks_processed);
    println!("{:<28} {:>12} {:>12} {:>10} {:>8}", "release", "noisy", "raw", "delta", "epsilon");
    for r in &result.releases {
        let noisy = r.value.as_number().unwrap_or(f64::NAN);
        let raw = r.raw.as_number().unwrap_or(f64::NAN);
        println!("{:<28} {:>12.2} {:>12.2} {:>10.1} {:>8.3}", r.label, noisy, raw, r.sensitivity, r.epsilon);
    }
    println!("total epsilon spent: {}", result.epsilon_spent);
}
