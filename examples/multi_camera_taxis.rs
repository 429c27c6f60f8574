//! Multi-camera analytics over the synthetic Porto taxi fleet (the paper's
//! Case 2, queries Q4–Q6): a JOIN across two cameras and an ARGMAX across
//! several cameras, each a single Privid query with its own budget.
//!
//! Run with: `cargo run --example multi_camera_taxis`

use privid::{ChunkProcessor, PortoConfig, PortoDataset, PrivacyPolicy, QueryService, TaxiShiftProcessor};

fn main() {
    // A scaled-down fleet: 60 taxis, 8 cameras, 7 days (the full 442/105/365
    // configuration is exercised by the experiment harness).
    let config = PortoConfig { num_taxis: 60, num_cameras: 8, days: 7, ..PortoConfig::default() };
    let dataset = PortoDataset::generate(config);

    let privid = QueryService::new();
    for cam in 0..8u32 {
        let scene = dataset.camera_scene(cam);
        // Policy ρ per camera: the longest single visit (plus margin), as the
        // video owner would estimate from historical footage.
        let rho = dataset.max_visit_duration(cam) * 1.2;
        privid.register_camera(format!("porto{cam}"), scene, PrivacyPolicy::new(rho.max(30.0), 4, 20.0)).expect("camera/processor registration must succeed");
    }
    privid.register_processor("taxi_model", || Box::new(TaxiShiftProcessor) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");

    // --- Q5-style query: taxis seen by BOTH camera 0 and camera 1 on the same day --------
    let join_query = r#"
        SPLIT porto0 BEGIN 0 END 7 days BY TIME 60 sec STRIDE 0 sec INTO c0;
        SPLIT porto1 BEGIN 0 END 7 days BY TIME 60 sec STRIDE 0 sec INTO c1;
        PROCESS c0 USING taxi_model TIMEOUT 1 sec PRODUCING 30 ROWS
            WITH SCHEMA (taxi:STRING="", day:NUMBER=0, hour:NUMBER=0, camera:STRING="") INTO t0;
        PROCESS c1 USING taxi_model TIMEOUT 1 sec PRODUCING 30 ROWS
            WITH SCHEMA (taxi:STRING="", day:NUMBER=0, hour:NUMBER=0, camera:STRING="") INTO t1;
        SELECT COUNT(*) FROM (SELECT taxi, day FROM t0 JOIN t1 ON taxi, day GROUP BY taxi, day) CONSUMING 1.0;
    "#;
    let join_result = privid.execute_text(11, join_query).expect("join query");
    let noisy = join_result.releases[0].value.as_number().unwrap();
    let raw = join_result.releases[0].raw.as_number().unwrap();
    let gt = dataset.mean_daily_intersection(0, 1) * 7.0;
    println!("Q5 (JOIN): distinct (taxi, day) pairs seen by both porto0 and porto1 over a week");
    println!("  noisy = {noisy:.1}, raw = {raw:.1}, ground truth = {gt:.1}");

    // --- Q6-style query: which camera saw the most traffic? ------------------------------
    let mut splits = String::new();
    for cam in 0..4u32 {
        splits.push_str(&format!(
            "SPLIT porto{cam} BEGIN 0 END 7 days BY TIME 60 sec STRIDE 0 sec INTO cc{cam};\n\
             PROCESS cc{cam} USING taxi_model TIMEOUT 1 sec PRODUCING 30 ROWS\n\
                WITH SCHEMA (taxi:STRING=\"\", day:NUMBER=0, hour:NUMBER=0, camera:STRING=\"\") INTO tt{cam};\n"
        ));
    }
    let argmax_query = format!(
        "{splits}SELECT ARGMAX(camera) FROM tt0 UNION tt1 ON camera UNION tt2 ON camera UNION tt3 ON camera CONSUMING 1.0;"
    );
    let argmax_result = privid.execute_text(12, &argmax_query).expect("argmax query");
    println!("Q6 (ARGMAX): busiest of cameras 0-3 = {:?}", argmax_result.releases[0].value);
    println!("  (ground-truth busiest camera overall: porto{})", dataset.busiest_camera());
    println!("total epsilon spent across both queries: {}", join_result.epsilon_spent + argmax_result.epsilon_spent);
}
