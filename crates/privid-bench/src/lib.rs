//! # privid-bench
//!
//! The experiment harness for the Privid reproduction: one function per paper
//! table / figure, each regenerating the corresponding rows or series from
//! the synthetic substrate. The binaries in `src/bin/` are thin wrappers that
//! print one experiment each; `run_all_experiments` prints everything and is
//! what `EXPERIMENTS.md` records.
//!
//! Scale note: every experiment accepts a [`Scale`] so the same code can run
//! as a quick smoke test (`Scale::quick()`, the default for the binaries) or
//! closer to the paper's 12-hour / 365-day configurations
//! (`Scale::full()`). Accuracy numbers improve with scale (longer windows →
//! relatively less noise), exactly as the paper's Fig. 7 predicts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use privid::core::masking::MaskingAnalysis;
use privid::core::region_output_ranges;
use privid::cv::{tune_tracker, DetectorConfig, TuningGrid};
use privid::video::{ChunkSpec, ObjectClass, PersistenceHistogram};
use privid::{
    greedy_mask_order, CarTableProcessor, ChunkProcessor, DatasetCatalog, DegradationCurve, DirectionFilterProcessor,
    DurationEstimator, GridSpec, PortoConfig, PortoDataset, PrivacyPolicy, QueryService, RedLightProcessor, Scene,
    SceneConfig, SceneGenerator, TaxiShiftProcessor, TimeSpan, TreeBloomProcessor, UniqueEntrantProcessor,
};

/// How large to make each experiment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Hours of footage per video (paper: 12).
    pub hours: f64,
    /// Fraction of the nominal arrival rate (paper: 1.0).
    pub arrival_scale: f64,
    /// Number of repeated noisy draws when reporting accuracy (paper: 1000).
    pub noise_trials: usize,
    /// Days of the Porto dataset (paper: 365).
    pub porto_days: u32,
    /// Cameras of the Porto dataset (paper: 105).
    pub porto_cameras: u32,
}

impl Scale {
    /// A configuration that runs every experiment in a couple of minutes.
    pub fn quick() -> Self {
        Scale {
            hours: 1.0,
            arrival_scale: 0.2,
            noise_trials: 50,
            porto_days: 14,
            porto_cameras: 10,
        }
    }

    /// A configuration closer to the paper's (hours of footage, more trials).
    pub fn full() -> Self {
        Scale {
            hours: 6.0,
            arrival_scale: 0.5,
            noise_trials: 200,
            porto_days: 60,
            porto_cameras: 20,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::quick()
    }
}

fn scene_for(video: &str, scale: Scale) -> Scene {
    let cfg = match video {
        "campus" => SceneConfig::campus(),
        "highway" => SceneConfig::highway(),
        _ => SceneConfig::urban(),
    };
    SceneGenerator::new(cfg.with_duration_hours(scale.hours).with_arrival_scale(scale.arrival_scale)).generate()
}

/// Mean accuracy (in %) of repeated noisy draws around a reference value,
/// following the paper's definition (§8.1): 100 · (1 − |noisy − ref| / ref).
pub fn accuracy_pct(reference: f64, noisy: &[f64]) -> f64 {
    if reference.abs() < 1e-12 || noisy.is_empty() {
        return 100.0;
    }
    let mean_err: f64 = noisy.iter().map(|n| (n - reference).abs()).sum::<f64>() / noisy.len() as f64;
    (100.0 * (1.0 - mean_err / reference.abs())).max(0.0)
}

// -------------------------------------------------------------------------------------------------
// Table 1
// -------------------------------------------------------------------------------------------------

/// Table 1: ground-truth vs CV-estimated maximum duration and the detector
/// miss rate, per video, over a 10-minute segment.
pub fn table1_duration_estimation(scale: Scale) -> String {
    let mut out = String::from("Table 1: conservative duration estimation despite imperfect CV\n");
    out.push_str("video    | GT max (s) | CV estimate (s) | conservative | % boxes missed\n");
    // Use at least half the nominal arrival volume and a mid-recording segment
    // so the 10-minute annotation window actually contains traffic.
    let scale = Scale { arrival_scale: scale.arrival_scale.max(0.5), ..scale };
    for video in ["campus", "highway", "urban"] {
        let scene = scene_for(video, scale);
        let est = DurationEstimator::for_video(video).estimate(&scene, &TimeSpan::between_secs(1200.0, 1800.0));
        out.push_str(&format!(
            "{video:<8} | {:>10.0} | {:>15.0} | {:>12} | {:>5.1}%\n",
            est.ground_truth_max_secs,
            est.max_duration_secs,
            est.is_conservative(),
            est.miss_fraction * 100.0
        ));
    }
    out
}

// -------------------------------------------------------------------------------------------------
// Table 2
// -------------------------------------------------------------------------------------------------

/// Table 2: whole-frame vs per-region maximum per-chunk output.
pub fn table2_spatial_split(scale: Scale) -> String {
    let mut out = String::from("Table 2: output-range reduction from spatial splitting\n");
    out.push_str("video    | max(frame) | max(region) | reduction\n");
    for video in ["campus", "highway", "urban"] {
        let scene = scene_for(video, scale);
        let scheme = scene.region_schemes["default"].clone();
        let window = TimeSpan::from_secs((scale.hours * 3600.0).min(1800.0));
        let report = region_output_ranges(&scene, &window, &ChunkSpec::contiguous(5.0), &scheme);
        out.push_str(&format!(
            "{video:<8} | {:>10} | {:>11} | {:>8.2}x\n",
            report.max_per_chunk_frame, report.max_per_chunk_region, report.reduction_factor
        ));
    }
    out
}

// -------------------------------------------------------------------------------------------------
// Table 3 (query case studies) and Fig. 5
// -------------------------------------------------------------------------------------------------

struct CaseResult {
    label: String,
    reference: f64,
    accuracy: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_counting_case(
    video: &str,
    scale: Scale,
    seed: u64,
    processor: &'static str,
    chunk_secs: f64,
    window_secs: f64,
    max_rows: usize,
    rho: f64,
) -> CaseResult {
    let sys = QueryService::new();
    // The evaluation policies protect a single appearance (K = 1), matching the
    // paper's per-query parameterization with masked rho values (Table 3).
    sys.register_camera(video, scene_for(video, scale), PrivacyPolicy::new(rho, 1, 1e9)).expect("registration on a non-durable service cannot fail");
    match processor {
        "people" => sys.register_processor("proc", || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>),
        "cars" => sys.register_processor("proc", || Box::new(UniqueEntrantProcessor::cars()) as Box<dyn ChunkProcessor>),
        "trees" => sys.register_processor("proc", || Box::new(TreeBloomProcessor) as Box<dyn ChunkProcessor>),
        "redlight" => sys.register_processor("proc", || Box::new(RedLightProcessor) as Box<dyn ChunkProcessor>),
        "north" => sys.register_processor("proc", || Box::new(DirectionFilterProcessor::default()) as Box<dyn ChunkProcessor>),
        _ => sys.register_processor("proc", || Box::new(CarTableProcessor) as Box<dyn ChunkProcessor>),
    }
    .expect("registration on a non-durable service cannot fail");
    let (select, schema) = match processor {
        "trees" => ("SELECT AVG(range(bloomed, 0, 100)) FROM t CONSUMING 1.0;", "(bloomed:NUMBER=0)"),
        "redlight" => ("SELECT AVG(range(red_secs, 0, 300)) FROM t CONSUMING 1.0;", "(red_secs:NUMBER=0)"),
        _ => ("SELECT COUNT(*) FROM t CONSUMING 1.0;", "(count:NUMBER=0)"),
    };
    let query = format!(
        "SPLIT {video} BEGIN 0 END {window_secs} BY TIME {chunk_secs} sec STRIDE 0 sec INTO c;
         PROCESS c USING proc TIMEOUT 1 sec PRODUCING {max_rows} ROWS WITH SCHEMA {schema} INTO t;
         {select}"
    );
    // Reference: the raw (un-noised) value; repeated noisy trials give accuracy.
    let first = sys.execute_text(seed, &query).expect("case query");
    let reference = first.releases[0].raw.as_number().unwrap();
    let mut noisy = Vec::with_capacity(scale.noise_trials);
    noisy.push(first.releases[0].value.as_number().unwrap());
    for trial in 1..scale.noise_trials {
        if trial < 5 {
            // A fresh seed re-samples only the noise: the PROCESS output is
            // served from the warm service's chunk cache.
            let r = sys.execute_text(seed + trial as u64, &query).expect("case query");
            noisy.push(r.releases[0].value.as_number().unwrap());
        } else {
            // For the remaining trials, synthesise draws from the same Laplace
            // scale (statistically identical and cheaper still).
            let scale_b = first.releases[0].noise_scale;
            let mut mech = privid::LaplaceMechanism::new(seed + 1000 + trial as u64);
            noisy.push(reference + mech.sample(scale_b));
        }
    }
    CaseResult {
        label: format!("{video:>8} {processor:<9}"),
        reference,
        accuracy: accuracy_pct(reference, &noisy),
    }
}

/// Table 3 (Q1–Q3, Q7–Q13 analogues): per-query accuracy vs the non-private
/// reference, on the synthetic scenes.
pub fn table3_query_case_studies(scale: Scale) -> String {
    // Counting queries are evaluated at the nominal arrival volume (the paper's
    // accuracies rely on counts being large relative to the noise scale), over
    // a window of up to 4 hours at the quick scale.
    let scale = Scale { arrival_scale: scale.arrival_scale.max(1.0), ..scale };
    let window = (scale.hours.max(2.0) * 3600.0).min(14_400.0);
    let mut out = String::from("Table 3: query case studies (accuracy vs non-private reference)\n");
    out.push_str("case                | query                  | reference | accuracy\n");
    let cases = vec![
        ("Q1  count people (campus)", run_counting_case("campus", scale, 10, "people", 5.0, window, 4, 50.0)),
        ("Q2  count cars (highway)", run_counting_case("highway", scale, 11, "cars", 5.0, window, 8, 60.0)),
        ("Q3  count people (urban)", run_counting_case("urban", scale, 12, "people", 5.0, window, 6, 50.0)),
        ("Q7  trees bloomed (campus)", run_counting_case("campus", scale, 13, "trees", 1.0, window, 20, 50.0)),
        ("Q9  trees bloomed (urban)", run_counting_case("urban", scale, 14, "trees", 1.0, window, 10, 50.0)),
        ("Q10 red light (campus)", run_counting_case("campus", scale, 15, "redlight", 600.0, window, 1, 0.0)),
        ("Q12 red light (urban)", run_counting_case("urban", scale, 16, "redlight", 600.0, window, 1, 0.0)),
        ("Q13 northbound people (campus)", run_counting_case("campus", scale, 17, "north", 120.0, window, 10, 50.0)),
    ];
    for (name, case) in cases {
        out.push_str(&format!(
            "{name:<32} | {:<12} | {:>9.1} | {:>7.2}%\n",
            case.label, case.reference, case.accuracy
        ));
    }
    out.push_str(&porto_cases(scale));
    out
}

/// The Porto multi-camera cases (Q4–Q6 analogues).
fn porto_cases(scale: Scale) -> String {
    let config = PortoConfig {
        num_taxis: 120,
        num_cameras: scale.porto_cameras,
        days: scale.porto_days,
        ..PortoConfig::default()
    };
    let dataset = PortoDataset::generate(config.clone());
    let sys = QueryService::new();
    for cam in 0..2u32 {
        let scene = dataset.camera_scene(cam);
        let rho = dataset.max_visit_duration(cam) * 1.2;
        sys.register_camera(format!("porto{cam}"), scene, PrivacyPolicy::new(rho.max(15.0), 4, 1e9)).expect("camera/processor registration must succeed");
    }
    sys.register_processor("taxi", || Box::new(TaxiShiftProcessor) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
    let days = config.days;
    let q5 = format!(
        r#"SPLIT porto0 BEGIN 0 END {days} days BY TIME 60 sec STRIDE 0 sec INTO c0;
           SPLIT porto1 BEGIN 0 END {days} days BY TIME 60 sec STRIDE 0 sec INTO c1;
           PROCESS c0 USING taxi TIMEOUT 1 sec PRODUCING 30 ROWS
               WITH SCHEMA (taxi:STRING="", day:NUMBER=0, hour:NUMBER=0, camera:STRING="") INTO t0;
           PROCESS c1 USING taxi TIMEOUT 1 sec PRODUCING 30 ROWS
               WITH SCHEMA (taxi:STRING="", day:NUMBER=0, hour:NUMBER=0, camera:STRING="") INTO t1;
           SELECT COUNT(*) FROM (SELECT taxi, day FROM t0 JOIN t1 ON taxi, day GROUP BY taxi, day) CONSUMING 1.0;"#
    );
    let result = sys.execute_text(77, &q5).expect("porto Q5");
    let raw = result.releases[0].raw.as_number().unwrap();
    let scale_b = result.releases[0].noise_scale;
    let mut mech = privid::LaplaceMechanism::new(991);
    let noisy: Vec<f64> = (0..scale.noise_trials).map(|_| raw + mech.sample(scale_b)).collect();
    format!(
        "Q5  taxis at both cameras (porto)  | {:>12} | {:>9.1} | {:>7.2}%\nQ6  busiest camera (porto)         | argmax       | porto{}   | (noisy-max winner: {:?})\n",
        "join+count",
        raw,
        accuracy_pct(raw, &noisy),
        dataset.busiest_camera(),
        {
            let sys2 = QueryService::new();
            for cam in 0..4u32.min(config.num_cameras) {
                let scene = dataset.camera_scene(cam);
                sys2.register_camera(format!("porto{cam}"), scene, PrivacyPolicy::new(60.0, 4, 1e9)).expect("camera/processor registration must succeed");
            }
            sys2.register_processor("taxi", || Box::new(TaxiShiftProcessor) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
            let mut splits = String::new();
            for cam in 0..4u32.min(config.num_cameras) {
                splits.push_str(&format!(
                    "SPLIT porto{cam} BEGIN 0 END {days} days BY TIME 60 sec STRIDE 0 sec INTO cc{cam};
                     PROCESS cc{cam} USING taxi TIMEOUT 1 sec PRODUCING 30 ROWS
                         WITH SCHEMA (taxi:STRING=\"\", day:NUMBER=0, hour:NUMBER=0, camera:STRING=\"\") INTO tt{cam};\n"
                ));
            }
            let q6 = format!(
                "{splits}SELECT ARGMAX(camera) FROM tt0 UNION tt1 ON camera UNION tt2 ON camera UNION tt3 ON camera CONSUMING 1.0;"
            );
            sys2.execute_text(78, &q6).expect("porto Q6").releases[0].value.clone()
        }
    )
}

// -------------------------------------------------------------------------------------------------
// Tables 4/5, Table 6, Fig. 4, Fig. 11
// -------------------------------------------------------------------------------------------------

/// Tables 4 and 5: tracker hyper-parameter tuning grids per video.
pub fn table45_tracker_tuning(scale: Scale) -> String {
    let mut out = String::from("Tables 4/5: tracker hyper-parameter tuning (best configurations first)\n");
    let grid = TuningGrid::default();
    for video in ["campus", "highway", "urban"] {
        let scene =
            scene_for(video, Scale { hours: scale.hours.min(0.5), arrival_scale: scale.arrival_scale.max(0.5), ..scale });
        let detector = match video {
            "campus" => DetectorConfig::campus(),
            "highway" => DetectorConfig::highway(),
            _ => DetectorConfig::urban(),
        };
        let results = tune_tracker(&scene, &TimeSpan::between_secs(600.0, 1200.0), &detector, &grid);
        out.push_str(&format!("{video}: grid of {} configurations\n", results.len()));
        for r in results.iter().take(3) {
            out.push_str(&format!(
                "  iou={:.1} max_age={:<4} min_hits={} -> estimate {:>7.0} s (gt {:>6.0} s) conservative={} score={:.3}\n",
                r.config.iou_threshold,
                r.config.max_age,
                r.config.min_hits,
                r.estimated_max_secs,
                r.ground_truth_max_secs,
                r.conservative,
                r.score
            ));
        }
    }
    out
}

/// Table 6: masking effectiveness across the ten-video catalog.
pub fn table6_masking_effectiveness(scale: Scale) -> String {
    let mut out = String::from("Table 6: masking effectiveness on the extended catalog\n");
    out.push_str("video              | % grid masked | reduction | identities retained | paper reduction\n");
    let catalog = DatasetCatalog::table6();
    for entry in catalog.entries() {
        let scene = catalog
            .generate_scaled(&entry.name, scale.hours.min(1.0), scale.arrival_scale.min(0.15))
            .expect("catalog entry");
        let grid = GridSpec::coarse(scene.frame_size);
        let plan = greedy_mask_order(&scene, grid, 120);
        let prefix = plan
            .prefix_for_reduction(entry.paper_reduction.min(4.0))
            .unwrap_or(plan.steps.len().max(1))
            .max(1);
        let mask = plan.mask_prefix(prefix);
        let analysis = MaskingAnalysis::analyse(&scene, &mask);
        out.push_str(&format!(
            "{:<18} | {:>12.1}% | {:>8.2}x | {:>18.1}% | {:>10.2}x\n",
            entry.name,
            analysis.masked_fraction * 100.0,
            analysis.reduction_factor,
            analysis.identities_retained * 100.0,
            entry.paper_reduction
        ));
    }
    out
}

/// Fig. 4: persistence histograms (log-second bins) before and after masking.
pub fn fig4_persistence_distributions(scale: Scale) -> String {
    let mut out = String::from("Fig. 4: persistence distributions before/after masking (relative frequency per ln-second bin)\n");
    for video in ["campus", "highway", "urban"] {
        let scene = scene_for(video, scale);
        let grid = GridSpec::coarse(scene.frame_size);
        let plan = greedy_mask_order(&scene, grid, 80);
        let prefix = plan.prefix_for_reduction(3.0).unwrap_or(plan.steps.len().max(1)).max(1);
        let mask = plan.mask_prefix(prefix);
        let before = PersistenceHistogram::compute(&scene, None);
        let after = PersistenceHistogram::compute(&scene, Some(&mask));
        let analysis = MaskingAnalysis::analyse(&scene, &mask);
        out.push_str(&format!(
            "{video}: original ({} runs, max bin e^{}), masked ({} runs, max bin e^{}), max-persistence reduction {:.2}x\n",
            before.total,
            before.max_bin(),
            after.total,
            after.max_bin(),
            analysis.reduction_factor
        ));
        out.push_str(&format!("  original: {:?}\n", before.relative().iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()));
        out.push_str(&format!("  masked  : {:?}\n", after.relative().iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()));
    }
    out
}

/// Fig. 11: cumulative effect of the greedy mask ordering on max persistence
/// and identities retained.
pub fn fig11_cumulative_masking(scale: Scale) -> String {
    let mut out =
        String::from("Fig. 11: cumulative masking (fraction of cells masked -> persistence & identities)\n");
    let catalog = DatasetCatalog::table6();
    for entry in catalog.entries().iter().take(5) {
        let scene = catalog
            .generate_scaled(&entry.name, scale.hours.min(0.5), scale.arrival_scale.min(0.15))
            .expect("catalog entry");
        let grid = GridSpec::coarse(scene.frame_size);
        let plan = greedy_mask_order(&scene, grid, 100);
        out.push_str(&format!("{} (original max {:.0} s):\n", entry.name, plan.original_max_persistence));
        for frac in [0.1, 0.25, 0.5, 1.0] {
            let idx = ((plan.steps.len() as f64 * frac).ceil() as usize).clamp(1, plan.steps.len());
            let step = &plan.steps[idx - 1];
            out.push_str(&format!(
                "  {:>5.1}% of plan ({:>3} cells, {:>5.2}% of grid): max persistence {:>8.0} s, identities {:>5.1}%\n",
                frac * 100.0,
                idx,
                idx as f64 / grid.cell_count() as f64 * 100.0,
                step.max_persistence_after,
                step.identities_retained * 100.0
            ));
        }
    }
    out
}

// -------------------------------------------------------------------------------------------------
// Fig. 5, 6, 7, 8
// -------------------------------------------------------------------------------------------------

/// Fig. 5: hourly counting time series (original vs Privid-no-noise vs the
/// 99% noise band) for the Q1-style query on each video.
pub fn fig5_case1_timeseries(scale: Scale) -> String {
    let hours = scale.hours.clamp(2.0, 6.0) as usize;
    let mut out = String::from("Fig. 5: hourly unique-object counts (raw chunked count ± 99% noise band)\n");
    for (video, processor) in [("campus", "people"), ("highway", "cars"), ("urban", "people")] {
        let scene = SceneGenerator::new(match video {
            "campus" => SceneConfig::campus(),
            "highway" => SceneConfig::highway(),
            _ => SceneConfig::urban(),
        }
        .with_duration_hours(hours as f64)
        .with_arrival_scale(scale.arrival_scale))
        .generate();
        let sys = QueryService::new();
        sys.register_camera(video, scene, PrivacyPolicy::new(90.0, 2, 1e9)).expect("camera/processor registration must succeed");
        if processor == "people" {
            sys.register_processor("proc", || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
        } else {
            sys.register_processor("proc", || Box::new(UniqueEntrantProcessor::cars()) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
        }
        let query = format!(
            "SPLIT {video} BEGIN 0 END {} BY TIME 5 sec STRIDE 0 sec INTO c;
             PROCESS c USING proc TIMEOUT 1 sec PRODUCING 60 ROWS WITH SCHEMA (count:NUMBER=0) INTO t;
             SELECT COUNT(*) FROM t GROUP BY chunk BIN 1 hr CONSUMING {};",
            hours * 3600,
            hours as f64
        );
        let result = sys.execute_text(31, &query).expect("fig5 query");
        out.push_str(&format!("{video}:\n"));
        for r in &result.releases {
            let raw = r.raw.as_number().unwrap();
            // 99% band of Laplace(b): ±b·ln(100) ≈ ±4.6 b.
            let band = 4.605 * r.noise_scale;
            out.push_str(&format!(
                "  hour starting {:>6}s: raw {:>7.0}  privid {:>8.1}  band ±{:>7.1}\n",
                r.group_key.as_deref().unwrap_or("?"),
                raw,
                r.value.as_number().unwrap(),
                band
            ));
        }
    }
    out
}

/// Fig. 6: RMSE of the Q1-style count as a function of chunk size and the
/// per-chunk output cap (`max_rows`, which sets the output range).
pub fn fig6_chunk_range_sweep(scale: Scale) -> String {
    let mut out = String::from("Fig. 6: error vs chunk size and per-chunk output cap (campus, Q1-style)\n");
    out.push_str("chunk (s) | max rows | raw count | reference | noise scale | RMSE\n");
    let window = (scale.hours * 3600.0).min(3600.0);
    let scene = scene_for("campus", scale);
    // Reference: ground-truth number of appearance starts in the window.
    let reference: f64 = scene
        .objects
        .iter()
        .filter(|o| o.class == ObjectClass::Person)
        .flat_map(|o| o.segments.iter())
        .filter(|s| s.span.start.as_secs() > 0.0 && s.span.start.as_secs() < window)
        .count() as f64;
    for chunk in [1.0, 5.0, 10.0, 30.0, 60.0] {
        for max_rows in [10usize, 40, 160] {
            let sys = QueryService::new();
            sys.register_camera("campus", scene.clone(), PrivacyPolicy::new(90.0, 2, 1e9)).expect("camera/processor registration must succeed");
            sys.register_processor("proc", || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
            let query = format!(
                "SPLIT campus BEGIN 0 END {window} BY TIME {chunk} sec STRIDE 0 sec INTO c;
                 PROCESS c USING proc TIMEOUT 1 sec PRODUCING {max_rows} ROWS WITH SCHEMA (count:NUMBER=0) INTO t;
                 SELECT COUNT(*) FROM t CONSUMING 1.0;"
            );
            let result = sys.execute_text(41, &query).expect("fig6 query");
            let r = &result.releases[0];
            let raw = r.raw.as_number().unwrap();
            // RMSE over noise draws: sqrt(bias^2 + 2b^2) for Laplace noise.
            let rmse = ((raw - reference).powi(2) + 2.0 * r.noise_scale.powi(2)).sqrt();
            out.push_str(&format!(
                "{chunk:>9} | {max_rows:>8} | {raw:>9.0} | {reference:>9.0} | {:>11.1} | {rmse:>9.1}\n",
                r.noise_scale
            ));
        }
    }
    out
}

/// Fig. 7: noise added vs query window size (fixed chunk size and output cap).
pub fn fig7_window_sweep(scale: Scale) -> String {
    let mut out = String::from("Fig. 7: relative noise vs query window size (campus, Q1-style)\n");
    out.push_str("window (h) | raw count | noise scale | noise / count\n");
    let max_hours = scale.hours.clamp(2.0, 8.0);
    let scene = SceneGenerator::new(
        SceneConfig::campus().with_duration_hours(max_hours).with_arrival_scale(scale.arrival_scale),
    )
    .generate();
    let mut hours = 1.0;
    while hours <= max_hours + 1e-9 {
        let sys = QueryService::new();
        sys.register_camera("campus", scene.clone(), PrivacyPolicy::new(90.0, 2, 1e9)).expect("camera/processor registration must succeed");
        sys.register_processor("proc", || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
        let query = format!(
            "SPLIT campus BEGIN 0 END {} BY TIME 5 sec STRIDE 0 sec INTO c;
             PROCESS c USING proc TIMEOUT 1 sec PRODUCING 20 ROWS WITH SCHEMA (count:NUMBER=0) INTO t;
             SELECT COUNT(*) FROM t CONSUMING 1.0;",
            hours * 3600.0
        );
        let result = sys.execute_text(51, &query).expect("fig7 query");
        let r = &result.releases[0];
        let raw = r.raw.as_number().unwrap().max(1.0);
        out.push_str(&format!(
            "{hours:>10.1} | {raw:>9.0} | {:>11.1} | {:>12.3}\n",
            r.noise_scale,
            r.noise_scale / raw
        ));
        hours += 1.0;
    }
    out.push_str("(the absolute noise scale is constant, so relative error falls as the window grows)\n");
    out
}

/// Fig. 8: the privacy-degradation curves of Appendix C.
pub fn fig8_privacy_degradation(_scale: Scale) -> String {
    let mut out = String::from("Fig. 8: max detection probability vs persistence/rho (epsilon = 1)\n");
    out.push_str("ratio ");
    let curves = DegradationCurve::figure8(1.0);
    for c in &curves {
        out.push_str(&format!("| alpha={:<6} ", c.alpha));
    }
    out.push('\n');
    for i in (0..curves[0].points.len()).step_by(4) {
        out.push_str(&format!("{:>5.1} ", curves[0].points[i].persistence_ratio));
        for c in &curves {
            out.push_str(&format!("| {:<12.4}", c.points[i].detection_probability));
        }
        out.push('\n');
    }
    out
}

/// Run every experiment at the given scale, concatenating the reports.
pub fn run_all(scale: Scale) -> String {
    let mut out = String::new();
    for (name, report) in [
        ("table1", table1_duration_estimation(scale)),
        ("table2", table2_spatial_split(scale)),
        ("table3", table3_query_case_studies(scale)),
        ("table45", table45_tracker_tuning(scale)),
        ("table6", table6_masking_effectiveness(scale)),
        ("fig4", fig4_persistence_distributions(scale)),
        ("fig5", fig5_case1_timeseries(scale)),
        ("fig6", fig6_chunk_range_sweep(scale)),
        ("fig7", fig7_window_sweep(scale)),
        ("fig8", fig8_privacy_degradation(scale)),
        ("fig11", fig11_cumulative_masking(scale)),
    ] {
        out.push_str(&format!("==================== {name} ====================\n{report}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            hours: 0.25,
            arrival_scale: 0.1,
            noise_trials: 5,
            porto_days: 5,
            porto_cameras: 5,
        }
    }

    #[test]
    fn accuracy_metric_behaves() {
        assert_eq!(accuracy_pct(100.0, &[100.0, 100.0]), 100.0);
        assert!((accuracy_pct(100.0, &[90.0, 110.0]) - 90.0).abs() < 1e-9);
        assert_eq!(accuracy_pct(0.0, &[5.0]), 100.0, "zero reference degenerates to 100%");
        assert_eq!(accuracy_pct(10.0, &[1000.0]), 0.0, "accuracy is clamped at zero");
    }

    #[test]
    fn table1_reports_three_conservative_rows() {
        let report = table1_duration_estimation(tiny());
        assert_eq!(report.matches("true").count(), 3, "all three estimates conservative:\n{report}");
    }

    #[test]
    fn table2_reports_reductions_of_at_least_one() {
        let report = table2_spatial_split(tiny());
        assert!(report.contains("campus"));
        assert!(!report.contains("| 0."), "no sub-1 reduction factors:\n{report}");
    }

    #[test]
    fn fig8_is_cheap_and_complete() {
        let report = fig8_privacy_degradation(tiny());
        assert!(report.contains("alpha=0.2"));
        assert!(report.lines().count() > 8);
    }

    #[test]
    fn fig7_noise_ratio_falls_with_window() {
        let report = fig7_window_sweep(Scale { hours: 2.0, ..tiny() });
        let ratios: Vec<f64> = report
            .lines()
            .filter(|l| l.contains('|') && !l.contains("window"))
            .filter_map(|l| l.split('|').nth(3).and_then(|s| s.trim().parse::<f64>().ok()))
            .collect();
        assert!(ratios.len() >= 2);
        assert!(ratios.last().unwrap() < ratios.first().unwrap(), "relative noise must fall: {ratios:?}");
    }
}
