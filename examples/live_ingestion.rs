//! Live ingestion: a camera that is still recording appends frame batches to
//! an append-only recording while a standing query counts people over every
//! completed five-minute window.
//!
//! Run with: `cargo run --example live_ingestion`

use privid::{
    ChunkProcessor, FrameBatch, FrameRate, FrameSize, PrivacyPolicy, PrividError, QueryService, SceneConfig,
    SceneGenerator, UniqueEntrantProcessor,
};

fn main() {
    // --- Video owner side -------------------------------------------------------------
    // Register a *live* camera: no footage yet, just the camera's parameters
    // and the privacy policy. The budget ledger starts empty and grows with
    // the timeline — every appended slot is born with the policy's full ε.
    let service = QueryService::new();
    service.register_live_camera("lobby", FrameRate::new(10.0), FrameSize::new(1280, 720), PrivacyPolicy::new(60.0, 2, 10.0)).expect("camera/processor registration must succeed");
    service.register_processor("person_counter", || {
        Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
    }).expect("camera/processor registration must succeed");

    // --- Analyst side ------------------------------------------------------------------
    // A standing query re-runs over each newly completed 300 s window,
    // debiting 0.5 ε from that window's frames per release.
    let per_window = "
        SPLIT lobby BEGIN 0 END 300 BY TIME 10 sec STRIDE 0 sec INTO chunks;
        PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
            WITH SCHEMA (count:NUMBER=0) INTO people;
        SELECT COUNT(*) FROM people CONSUMING 0.5;";
    service.register_standing_query("lobby_footfall", 7, per_window).expect("standing query registered");

    // Querying footage that does not exist yet is a clean, retryable error.
    match service.execute_text(1, per_window) {
        Err(PrividError::BeyondLiveEdge { live_edge_secs, .. }) => {
            println!("too early: live edge at {live_edge_secs} s — retry once the camera catches up\n");
        }
        other => panic!("expected BeyondLiveEdge, got {other:?}"),
    }

    // --- The camera records -------------------------------------------------------------
    // Simulate the camera: generate 20 minutes of ground truth and deliver it
    // as 150 s frame batches, each carrying the objects that first appeared in
    // it (their trajectories may extend past the edge; the recording reveals
    // them batch by batch).
    let truth = SceneGenerator::new(SceneConfig::campus().with_duration_hours(20.0 / 60.0)).generate();
    let batch_secs = 150.0;
    let n_batches = 8;
    let mut per_batch: Vec<Vec<privid::TrackedObject>> = vec![Vec::new(); n_batches];
    for obj in &truth.objects {
        let first = obj.first_seen().map(|t| t.as_secs()).unwrap_or(0.0);
        per_batch[((first / batch_secs).floor() as usize).min(n_batches - 1)].push(obj.clone());
    }

    for (k, objects) in per_batch.into_iter().enumerate() {
        let n_objects = objects.len();
        let outcome = service.append_frames("lobby", FrameBatch::new(batch_secs, objects)).expect("append admitted");
        println!(
            "batch {k}: +{batch_secs} s ({n_objects} new objects) -> live edge {:.0} s, {} standing window(s) fired",
            outcome.live_edge_secs, outcome.standing_fired
        );
    }

    // --- What the analyst sees ----------------------------------------------------------
    println!("\nstanding query 'lobby_footfall':");
    for firing in service.standing_results("lobby_footfall").expect("registered above") {
        let window = format!("[{:>4.0}, {:>4.0})", firing.window.start.as_secs(), firing.window.end.as_secs());
        match &firing.result {
            Ok(result) => {
                let release = &result.releases[0];
                println!(
                    "  {window} s: noisy count {:8.2}   (raw {:.0}, ε {:.2})",
                    release.value.as_number().unwrap(),
                    release.raw.as_number().unwrap(),
                    release.epsilon
                );
            }
            Err(e) => println!("  {window} s: {e}"),
        }
    }

    // Closed windows remain queryable ad hoc, and their budget shows exactly
    // one standing debit per slot.
    let remaining = service.remaining_budget("lobby", 450.0).expect("camera registered");
    println!("\nremaining ε on the [300, 600) s frames: {remaining} (started at 10, one standing release at 0.5)");
}
