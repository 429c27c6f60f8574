//! The video owner's masking workflow (§7.1, Appendix F): analyse past
//! footage, build the greedy mask ordering (Algorithm 2), publish a mask with
//! its reduced ρ, and show how the same query gets less noise with the mask.
//!
//! Run with: `cargo run --example masking_policy`

use privid::core::masking::MaskingAnalysis;
use privid::{
    greedy_mask_order, ChunkProcessor, GridSpec, MaskPolicy, PrivacyPolicy, QueryService, SceneConfig,
    SceneGenerator, UniqueEntrantProcessor,
};

fn main() {
    let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(1.0)).generate();
    let grid = GridSpec::coarse(scene.frame_size);

    // --- Step 1: greedy mask ordering over historical footage ---------------------------
    let plan = greedy_mask_order(&scene, grid, 80);
    println!("Algorithm 2 on one hour of campus footage:");
    println!(
        "  unmasked max persistence: {:.0} s over {} identities",
        plan.original_max_persistence, plan.original_identities
    );
    for n in [5, 20, 40] {
        if let Some(step) = plan.steps.get(n - 1) {
            println!(
                "  after masking {:>2} cells: max persistence {:>6.0} s, identities retained {:>5.1}%",
                n,
                step.max_persistence_after,
                step.identities_retained * 100.0
            );
        }
    }

    // --- Step 2: pick the mask achieving a 3x reduction and derive its policy -----------
    let prefix = plan.prefix_for_reduction(3.0).unwrap_or(plan.steps.len());
    let mask = plan.mask_prefix(prefix);
    let analysis = MaskingAnalysis::analyse(&scene, &mask);
    println!(
        "chosen mask: {} cells ({:.1}% of the grid), reduction {:.2}x, identities retained {:.1}%",
        mask.len(),
        analysis.masked_fraction * 100.0,
        analysis.reduction_factor,
        analysis.identities_retained * 100.0
    );

    // --- Step 3: register the camera with both policies and compare noise ---------------
    let unmasked_rho = analysis.max_before_secs * 1.1;
    let masked_rho = analysis.max_after_secs * 1.1;
    let privid = QueryService::new();
    privid.register_camera("campus", scene, PrivacyPolicy::new(unmasked_rho, 2, 10.0)).expect("camera/processor registration must succeed");
    privid.register_mask("campus", "linger_mask", MaskPolicy::new(mask, masked_rho)).unwrap();
    privid.register_processor("person_counter", || {
        Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
    }).expect("camera/processor registration must succeed");

    let base = "
        SPLIT campus BEGIN 0 END 30 min BY TIME 5 sec STRIDE 0 sec {MASK} INTO chunks;
        PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
            WITH SCHEMA (count:NUMBER=0) INTO people;
        SELECT COUNT(*) FROM people CONSUMING 1.0;";
    let without = privid.execute_text(5, &base.replace("{MASK}", "")).unwrap();
    let with = privid.execute_text(6, &base.replace("{MASK}", "WITH MASK linger_mask")).unwrap();

    println!("query noise without mask: scale = {:.1} (rho = {:.0} s)", without.releases[0].noise_scale, unmasked_rho);
    println!("query noise with mask   : scale = {:.1} (rho = {:.0} s)", with.releases[0].noise_scale, masked_rho);
    println!(
        "noise reduction factor  : {:.2}x",
        without.releases[0].noise_scale / with.releases[0].noise_scale
    );
}
