//! Quickstart: register a camera, attach an analyst processor, run a private
//! counting query, and inspect the noisy result.
//!
//! Run with: `cargo run --example quickstart`

use privid::{
    ChunkProcessor, Parallelism, PrivacyPolicy, QueryService, SceneConfig, SceneGenerator, UniqueEntrantProcessor,
};

fn main() {
    // --- Video owner side -------------------------------------------------------------
    // Generate one hour of the synthetic campus scene (the stand-in for the
    // paper's campus YouTube stream) and register it with a privacy policy:
    // protect every appearance shorter than 90 s, up to K = 2 appearances,
    // with a per-frame budget of 10.
    //
    // Chunk execution fans out over a worker pool (`Parallelism::Auto`, the
    // default, uses one worker per core); results are identical at any
    // worker count. `QueryService::new()` is the all-defaults shorthand.
    let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(1.0)).generate();
    let privid = QueryService::builder().parallelism(Parallelism::Auto).build().expect("in-memory service builds");
    privid.register_camera("campus", scene, PrivacyPolicy::new(90.0, 2, 10.0)).expect("camera/processor registration must succeed");

    // --- Analyst side ------------------------------------------------------------------
    // The analyst supplies a chunk processor ("executable") that emits one row
    // per person entering the scene during each chunk, and a Privid query that
    // counts those rows over a 30-minute window.
    privid.register_processor("person_counter", || {
        Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
    }).expect("camera/processor registration must succeed");

    let query = "
        SPLIT campus BEGIN 0 END 30 min BY TIME 5 sec STRIDE 0 sec INTO chunks;
        PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
            WITH SCHEMA (count:NUMBER=0) INTO people;
        SELECT COUNT(*) FROM people CONSUMING 1.0;";

    // The noise seed is the video owner's: it makes the release replayable
    // here, and would come from owner-side entropy in a deployment.
    let result = privid.execute_text(42, query).expect("query should be admitted");

    // --- What the analyst sees ----------------------------------------------------------
    let release = &result.releases[0];
    println!("Privid quickstart: counting people on the campus camera");
    println!("  chunks processed      : {}", result.chunks_processed);
    println!("  sensitivity (Δ)       : {}", release.sensitivity);
    println!("  noise scale (Δ/ε)     : {}", release.noise_scale);
    println!("  noisy count (released): {:.1}", release.value.as_number().unwrap());
    println!("  raw count (hidden)    : {:?}  <- never shown to a real analyst", release.raw);
    println!("  ε spent               : {}", result.epsilon_spent);
    println!(
        "  budget left at t=10min: {:.2}",
        privid.remaining_budget("campus", 600.0).unwrap()
    );
}
