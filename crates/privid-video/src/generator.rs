//! Scene generators: synthetic stand-ins for the paper's evaluation videos.
//!
//! The paper evaluates on three 12-hour YouTube streams (campus, highway,
//! urban) whose relevant characteristics are: arrival volume, a heavy-tailed
//! persistence distribution with a small population of *lingering* objects
//! (parked cars, people on benches) concentrated in fixed regions, a diurnal
//! arrival pattern (Fig. 5), a class mix (people vs. vehicles), and static
//! non-private objects (trees, traffic lights) used by Q7–Q12. The generators
//! here produce ground-truth scenes with those characteristics from a seeded
//! RNG, so every experiment is reproducible.

use crate::geometry::{BoundingBox, FrameSize, Point, Region, RegionBoundary, RegionScheme};
use crate::object::{Attributes, ObjectClass, ObjectId, PresenceSegment, TrackedObject, VehicleColor};
use crate::scene::{CameraId, Scene};
use crate::time::{FrameRate, Seconds, TimeSpan};
use crate::trajectory::Trajectory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which evaluation video a configuration models.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SceneKind {
    /// Campus walkway: mostly pedestrians, two crosswalks, bench areas where
    /// people linger.
    Campus,
    /// Highway: vehicles only, two directions (hard boundary), a shoulder
    /// where cars park for very long periods.
    Highway,
    /// Urban intersection: dense pedestrian traffic, four crosswalks,
    /// storefront areas where people linger.
    Urban,
    /// A named custom scene (used for the BlazeIt / MIRIS extended catalog).
    Custom(String),
}

impl SceneKind {
    /// Short name used as the camera id.
    pub fn name(&self) -> String {
        match self {
            SceneKind::Campus => "campus".to_string(),
            SceneKind::Highway => "highway".to_string(),
            SceneKind::Urban => "urban".to_string(),
            SceneKind::Custom(n) => n.clone(),
        }
    }
}

/// Full parameterization of a synthetic scene.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneConfig {
    /// Which video this models.
    pub kind: SceneKind,
    /// Total recording duration in seconds (paper: 12 h = 43 200 s).
    pub duration_secs: Seconds,
    /// Frame rate of the camera.
    pub fps: f64,
    /// Frame dimensions.
    pub frame_size: FrameSize,
    /// RNG seed; identical seeds produce identical scenes.
    pub seed: u64,
    /// Mean arrivals of private objects per hour at the diurnal peak.
    pub arrivals_per_hour: f64,
    /// Natural-log mean of the pass-through dwell time (seconds).
    pub dwell_ln_mu: f64,
    /// Natural-log standard deviation of the pass-through dwell time.
    pub dwell_ln_sigma: f64,
    /// Fraction of arrivals that linger in a linger region.
    pub linger_fraction: f64,
    /// Natural-log mean of the lingering dwell time (seconds).
    pub linger_ln_mu: f64,
    /// Natural-log standard deviation of the lingering dwell time.
    pub linger_ln_sigma: f64,
    /// Hard cap on any dwell time (seconds); bounds the ground-truth ρ.
    pub max_dwell_secs: Seconds,
    /// Fraction of private arrivals that are vehicles (rest are pedestrians).
    pub car_fraction: f64,
    /// Probability an object re-appears later with a second segment (K = 2).
    pub revisit_probability: f64,
    /// Regions (normalized `(x, y, w, h)` in `[0, 1]`) where lingering objects rest.
    pub linger_regions: Vec<(f64, f64, f64, f64)>,
    /// Number of static trees in the scene.
    pub tree_count: usize,
    /// Fraction of trees that have bloomed (Q7–Q9 ground truth).
    pub tree_leaf_fraction: f64,
    /// Red-phase duration of the scene's traffic light in seconds (0 = none).
    pub red_light_duration: Seconds,
    /// Whether arrivals follow a diurnal (midday-peaked) pattern.
    pub diurnal: bool,
    /// Fraction of pass-through pedestrians heading "north" (Q13 filter).
    pub northbound_fraction: f64,
}

impl SceneConfig {
    /// The campus walkway preset. Roughly 1.4k pedestrians over 12 h with
    /// bench-lingerers up to ~30 min (Fig. 4a shape).
    pub fn campus() -> Self {
        SceneConfig {
            kind: SceneKind::Campus,
            duration_secs: 12.0 * 3600.0,
            fps: 1.0,
            frame_size: FrameSize::full_hd(),
            seed: 0xCA4B5,
            arrivals_per_hour: 170.0,
            dwell_ln_mu: 3.3,   // e^3.3 ≈ 27 s median crossing
            dwell_ln_sigma: 0.5,
            linger_fraction: 0.04,
            linger_ln_mu: 5.8,  // e^5.8 ≈ 330 s median sit
            linger_ln_sigma: 0.7,
            max_dwell_secs: 1950.0,
            car_fraction: 0.05,
            revisit_probability: 0.05,
            linger_regions: vec![(0.05, 0.75, 0.15, 0.2), (0.8, 0.05, 0.15, 0.2)],
            tree_count: 15,
            tree_leaf_fraction: 1.0,
            red_light_duration: 75.0,
            diurnal: true,
            northbound_fraction: 0.45,
        }
    }

    /// The highway preset. Vehicle-dominated, very heavy tail from parked
    /// cars on the shoulder (Fig. 4b shape, Table 6 row `highway`).
    pub fn highway() -> Self {
        SceneConfig {
            kind: SceneKind::Highway,
            duration_secs: 12.0 * 3600.0,
            fps: 1.0,
            frame_size: FrameSize::full_hd(),
            seed: 0x416841,
            arrivals_per_hour: 4000.0,
            dwell_ln_mu: 2.3,   // e^2.3 ≈ 10 s median traversal
            dwell_ln_sigma: 0.4,
            linger_fraction: 0.002,
            linger_ln_mu: 8.0,  // e^8 ≈ 3000 s median park
            linger_ln_sigma: 1.0,
            max_dwell_secs: 28800.0,
            car_fraction: 1.0,
            revisit_probability: 0.02,
            linger_regions: vec![(0.02, 0.85, 0.2, 0.12)],
            tree_count: 7,
            tree_leaf_fraction: 3.0 / 7.0,
            red_light_duration: 50.0,
            diurnal: true,
            northbound_fraction: 0.0,
        }
    }

    /// The urban intersection preset. Dense pedestrian traffic across four
    /// crosswalks with storefront lingerers (Fig. 4c shape).
    pub fn urban() -> Self {
        SceneConfig {
            kind: SceneKind::Urban,
            duration_secs: 12.0 * 3600.0,
            fps: 1.0,
            frame_size: FrameSize::full_hd(),
            seed: 0x04B44,
            arrivals_per_hour: 3600.0,
            dwell_ln_mu: 3.0,   // e^3 ≈ 20 s median crossing
            dwell_ln_sigma: 0.55,
            linger_fraction: 0.01,
            linger_ln_mu: 5.5,
            linger_ln_sigma: 0.9,
            max_dwell_secs: 2750.0,
            car_fraction: 0.25,
            revisit_probability: 0.08,
            linger_regions: vec![(0.0, 0.0, 0.12, 0.3), (0.85, 0.6, 0.15, 0.3)],
            tree_count: 6,
            tree_leaf_fraction: 4.0 / 6.0,
            red_light_duration: 100.0,
            diurnal: true,
            northbound_fraction: 0.4,
        }
    }

    /// Shrink the scene's duration (and keep the hourly rates), useful for
    /// tests and fast experiment iterations.
    pub fn with_duration_hours(mut self, hours: f64) -> Self {
        self.duration_secs = hours * 3600.0;
        self
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scale the arrival volume (e.g. `0.1` for a 10× smaller scene).
    pub fn with_arrival_scale(mut self, scale: f64) -> Self {
        self.arrivals_per_hour *= scale;
        self
    }

    /// Override the camera frame rate.
    pub fn with_fps(mut self, fps: f64) -> Self {
        self.fps = fps;
        self
    }
}

/// Relative arrival intensity by hour since the start of recording (6am).
/// Peaks around midday, matching the shape of the Fig. 5 time series.
fn diurnal_factor(hours_since_start: f64) -> f64 {
    // 6am start; map to a sinusoid peaking 6 hours in (noon) with a floor.
    let x = (hours_since_start / 12.0 * std::f64::consts::PI).sin();
    0.35 + 0.65 * x.max(0.0)
}

/// Sample a standard normal variate via Box–Muller (rand 0.8 has no normal
/// distribution without rand_distr, which is outside the allowed crate set).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sample a log-normal variate with the given natural-log mean and sigma.
fn lognormal(rng: &mut StdRng, ln_mu: f64, ln_sigma: f64) -> f64 {
    (ln_mu + ln_sigma * standard_normal(rng)).exp()
}

/// Sample a Poisson variate; Knuth's algorithm for small rates, normal
/// approximation for large ones.
fn sample_poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            k += 1;
            p *= rng.gen_range(0.0..1.0);
            if p <= l {
                return k - 1;
            }
        }
    } else {
        (lambda + lambda.sqrt() * standard_normal(rng)).round().max(0.0) as u64
    }
}

/// Generates a [`Scene`] from a [`SceneConfig`].
#[derive(Debug, Clone)]
pub struct SceneGenerator {
    config: SceneConfig,
}

impl SceneGenerator {
    /// Construct a generator.
    pub fn new(config: SceneConfig) -> Self {
        SceneGenerator { config }
    }

    /// The configuration this generator uses.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// Generate the scene (deterministic for a given configuration).
    pub fn generate(&self) -> Scene {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let fw = cfg.frame_size.width as f64;
        let fh = cfg.frame_size.height as f64;
        let mut objects = Vec::new();
        let mut next_id = 0u64;

        // --- Private arrivals (people / vehicles) ------------------------------------
        let hours = cfg.duration_secs / 3600.0;
        let mut hour = 0.0;
        while hour < hours {
            let slice = (hours - hour).min(1.0);
            let factor = if cfg.diurnal { diurnal_factor(hour) } else { 1.0 };
            let lambda = cfg.arrivals_per_hour * factor * slice;
            let n = sample_poisson(&mut rng, lambda);
            for _ in 0..n {
                let arrival = (hour + rng.gen_range(0.0..slice)) * 3600.0;
                let obj = self.make_private_object(&mut rng, &mut next_id, arrival, fw, fh);
                objects.push(obj);
            }
            hour += slice;
        }

        // --- Static non-private objects -----------------------------------------------
        let scene_span = TimeSpan::from_secs(cfg.duration_secs);
        for i in 0..cfg.tree_count {
            let has_leaves = (i as f64) < cfg.tree_leaf_fraction * cfg.tree_count as f64;
            let at = Point::new(rng.gen_range(0.05..0.95) * fw, rng.gen_range(0.02..0.15) * fh);
            objects.push(TrackedObject::new(
                ObjectId(next_id),
                ObjectClass::Tree,
                Attributes { has_leaves, ..Attributes::default() },
                vec![PresenceSegment { span: scene_span, trajectory: Trajectory::stationary(at, 60.0, 120.0) }],
            ));
            next_id += 1;
        }
        if cfg.red_light_duration > 0.0 {
            objects.push(TrackedObject::new(
                ObjectId(next_id),
                ObjectClass::TrafficLight,
                Attributes { red_light_duration: cfg.red_light_duration, ..Attributes::default() },
                vec![PresenceSegment {
                    span: scene_span,
                    trajectory: Trajectory::stationary(Point::new(0.5 * fw, 0.06 * fh), 20.0, 50.0),
                }],
            ));
        }

        let mut scene = Scene::new(
            CameraId::new(cfg.kind.name()),
            scene_span,
            FrameRate::new(cfg.fps),
            cfg.frame_size,
            objects,
        );
        scene.add_region_scheme("default", self.default_region_scheme(fw, fh));
        scene
    }

    /// Build one private object arriving at `arrival` seconds.
    fn make_private_object(
        &self,
        rng: &mut StdRng,
        next_id: &mut u64,
        arrival: f64,
        fw: f64,
        fh: f64,
    ) -> TrackedObject {
        let cfg = &self.config;
        let is_car = rng.gen_bool(cfg.car_fraction.clamp(0.0, 1.0));
        let class = if is_car { ObjectClass::Car } else { ObjectClass::Person };
        let lingers = rng.gen_bool(cfg.linger_fraction.clamp(0.0, 1.0));

        let dwell = if lingers {
            lognormal(rng, cfg.linger_ln_mu, cfg.linger_ln_sigma).clamp(60.0, cfg.max_dwell_secs)
        } else {
            lognormal(rng, cfg.dwell_ln_mu, cfg.dwell_ln_sigma).clamp(2.0, cfg.max_dwell_secs)
        };
        let end = (arrival + dwell).min(cfg.duration_secs);
        let span = TimeSpan::between_secs(arrival.min(cfg.duration_secs - 1.0), end.max(arrival.min(cfg.duration_secs - 1.0) + 1.0));

        let (w, h) = if is_car { (0.06 * fw, 0.04 * fh) } else { (0.02 * fw, 0.06 * fh) };
        let northbound = rng.gen_bool(cfg.northbound_fraction.clamp(0.0, 1.0));

        let trajectory = if lingers && !cfg.linger_regions.is_empty() {
            let region = cfg.linger_regions[rng.gen_range(0..cfg.linger_regions.len())]; // privid-analyzer: allow(panic-freedom) -- gen_range is bounded by the same len; emptiness checked in the condition above
            let rest = Point::new(
                (region.0 + rng.gen_range(0.0..region.2)) * fw,
                (region.1 + rng.gen_range(0.0..region.3)) * fh,
            );
            let entry = Point::new(rng.gen_range(0.0..0.1) * fw, rest.y);
            let exit = Point::new(rng.gen_range(0.9..1.0) * fw, rest.y);
            // Approach/depart over at most ~60 s of the dwell.
            let approach = (60.0 / dwell).min(0.2);
            Trajectory::dwell(entry, rest, exit, approach, w, h)
        } else {
            self.passthrough_trajectory(rng, northbound, fw, fh, w, h)
        };

        let mut segments = vec![PresenceSegment { span, trajectory: trajectory.clone() }];
        // Possible second appearance (K = 2) later in the recording.
        if rng.gen_bool(cfg.revisit_probability.clamp(0.0, 1.0)) {
            let gap = rng.gen_range(600.0..3600.0);
            let start2 = span.end.as_secs() + gap;
            if start2 + 2.0 < cfg.duration_secs {
                let dwell2 = lognormal(rng, cfg.dwell_ln_mu, cfg.dwell_ln_sigma).clamp(2.0, cfg.max_dwell_secs);
                let end2 = (start2 + dwell2).min(cfg.duration_secs);
                segments.push(PresenceSegment { span: TimeSpan::between_secs(start2, end2), trajectory: trajectory.clone() });
            }
        }

        let moving_north = trajectory.moves_north();
        let attributes = if is_car {
            Attributes {
                plate: format!("PLT{:06}", *next_id),
                // privid-analyzer: allow(panic-freedom) -- gen_range is bounded by ALL.len()
                color: Some(VehicleColor::ALL[rng.gen_range(0..VehicleColor::ALL.len())]),
                speed_kmh: rng.gen_range(30.0..110.0),
                moving_north,
                ..Attributes::default()
            }
        } else {
            Attributes { speed_kmh: rng.gen_range(3.0..7.0), moving_north, ..Attributes::default() }
        };

        let obj = TrackedObject::new(ObjectId(*next_id), class, attributes, segments);
        *next_id += 1;
        obj
    }

    /// A straight pass-through trajectory appropriate for the scene kind.
    fn passthrough_trajectory(
        &self,
        rng: &mut StdRng,
        northbound: bool,
        fw: f64,
        fh: f64,
        w: f64,
        h: f64,
    ) -> Trajectory {
        match self.config.kind {
            SceneKind::Highway => {
                // Two directions in separate halves of the frame (hard boundary).
                let eastbound = rng.gen_bool(0.5);
                let lane_y = if eastbound { rng.gen_range(0.25..0.45) } else { rng.gen_range(0.55..0.75) } * fh;
                if eastbound {
                    Trajectory::linear(Point::new(0.0, lane_y), Point::new(fw, lane_y), w, h)
                } else {
                    Trajectory::linear(Point::new(fw, lane_y), Point::new(0.0, lane_y), w, h)
                }
            }
            _ => {
                // Crosswalk-style motion: either horizontal or vertical.
                if rng.gen_bool(0.5) {
                    let y = rng.gen_range(0.3..0.9) * fh;
                    let ltr = rng.gen_bool(0.5);
                    let (x0, x1) = if ltr { (0.0, fw) } else { (fw, 0.0) };
                    Trajectory::linear(Point::new(x0, y), Point::new(x1, y), w, h)
                } else {
                    let x = rng.gen_range(0.2..0.8) * fw;
                    let (y0, y1) = if northbound { (fh, 0.15 * fh) } else { (0.15 * fh, fh) };
                    Trajectory::linear(Point::new(x, y0), Point::new(x, y1), w, h)
                }
            }
        }
    }

    /// The video owner's published spatial-splitting scheme for this scene
    /// (§7.2): crosswalk regions for campus/urban, per-direction lanes
    /// (hard boundary) for highway.
    fn default_region_scheme(&self, fw: f64, fh: f64) -> RegionScheme {
        match self.config.kind {
            SceneKind::Highway => RegionScheme::new(
                vec![
                    Region { id: 0, name: "eastbound".into(), bbox: BoundingBox::new(0.0, 0.0, fw, 0.5 * fh) },
                    Region { id: 1, name: "westbound".into(), bbox: BoundingBox::new(0.0, 0.5 * fh, fw, 0.5 * fh) },
                ],
                RegionBoundary::Hard,
            ),
            SceneKind::Campus => RegionScheme::new(
                vec![
                    Region { id: 0, name: "crosswalk-west".into(), bbox: BoundingBox::new(0.0, 0.0, 0.5 * fw, fh) },
                    Region { id: 1, name: "crosswalk-east".into(), bbox: BoundingBox::new(0.5 * fw, 0.0, 0.5 * fw, fh) },
                ],
                RegionBoundary::Soft,
            ),
            _ => RegionScheme::new(
                vec![
                    Region { id: 0, name: "crosswalk-nw".into(), bbox: BoundingBox::new(0.0, 0.0, 0.5 * fw, 0.5 * fh) },
                    Region { id: 1, name: "crosswalk-ne".into(), bbox: BoundingBox::new(0.5 * fw, 0.0, 0.5 * fw, 0.5 * fh) },
                    Region { id: 2, name: "crosswalk-sw".into(), bbox: BoundingBox::new(0.0, 0.5 * fh, 0.5 * fw, 0.5 * fh) },
                    Region { id: 3, name: "crosswalk-se".into(), bbox: BoundingBox::new(0.5 * fw, 0.5 * fh, 0.5 * fw, 0.5 * fh) },
                ],
                RegionBoundary::Soft,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(cfg: SceneConfig) -> Scene {
        SceneGenerator::new(cfg.with_duration_hours(0.5).with_arrival_scale(0.5)).generate()
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = small(SceneConfig::campus());
        let b = small(SceneConfig::campus());
        assert_eq!(a.object_count(), b.object_count());
        assert_eq!(a.objects.get(0).unwrap().id, b.objects.get(0).unwrap().id);
        assert_eq!(a.objects.last().unwrap().segments.len(), b.objects.last().unwrap().segments.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = small(SceneConfig::campus());
        let b = small(SceneConfig::campus().with_seed(99));
        // Discrete statistics such as object_count collide between seeds with
        // non-trivial probability; the continuous arrival times do not.
        let starts = |s: &Scene| -> Vec<f64> {
            s.objects.iter().flat_map(|o| o.segments.iter().map(|seg| seg.span.start.as_secs())).collect()
        };
        assert_ne!(starts(&a), starts(&b));
    }

    #[test]
    fn campus_is_person_dominated_highway_is_cars_only() {
        let campus = small(SceneConfig::campus());
        let highway = small(SceneConfig::highway());
        let campus_people =
            campus.objects.iter().filter(|o| o.class == ObjectClass::Person).count() as f64;
        let campus_private = campus.objects.iter().filter(|o| o.class.is_private()).count() as f64;
        assert!(campus_people / campus_private > 0.8);
        assert!(highway.objects.iter().filter(|o| o.class.is_private()).all(|o| o.class == ObjectClass::Car));
    }

    #[test]
    fn persistence_is_heavy_tailed() {
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(2.0)).generate();
        let durations: Vec<f64> =
            scene.objects.iter().filter(|o| o.class.is_private()).map(|o| o.max_segment_duration()).collect();
        let mean = durations.iter().sum::<f64>() / durations.len() as f64;
        let max = durations.iter().cloned().fold(0.0, f64::max);
        assert!(max > 4.0 * mean, "expected a heavy tail: max {max}, mean {mean}");
    }

    #[test]
    fn lingerers_rest_inside_linger_regions() {
        let cfg = SceneConfig::campus().with_duration_hours(2.0);
        let regions = cfg.linger_regions.clone();
        let scene = SceneGenerator::new(cfg).generate();
        let fw = scene.frame_size.width as f64;
        let fh = scene.frame_size.height as f64;
        let mut found_lingerer = false;
        for obj in scene.objects.iter().filter(|o| o.class.is_private()) {
            if let crate::trajectory::TrajectoryKind::Dwell { rest, .. } = &obj.segments[0].trajectory.kind {
                found_lingerer = true;
                let inside = regions.iter().any(|r| {
                    rest.x >= r.0 * fw
                        && rest.x <= (r.0 + r.2) * fw
                        && rest.y >= r.1 * fh
                        && rest.y <= (r.1 + r.3) * fh
                });
                assert!(inside, "lingerer rest point {rest:?} outside declared linger regions");
            }
        }
        assert!(found_lingerer, "a 2-hour campus scene should contain at least one lingerer");
    }

    #[test]
    fn scene_contains_static_objects_for_q7_to_q12() {
        let scene = small(SceneConfig::urban());
        let trees = scene.objects.iter().filter(|o| o.class == ObjectClass::Tree).count();
        let lights = scene.objects.iter().filter(|o| o.class == ObjectClass::TrafficLight).count();
        assert_eq!(trees, 6);
        assert_eq!(lights, 1);
        let with_leaves = scene
            .objects
            .iter()
            .filter(|o| o.class == ObjectClass::Tree && o.attributes.has_leaves)
            .count();
        assert_eq!(with_leaves, 4, "urban preset: 4 of 6 trees bloomed (Table 3 Q9)");
    }

    #[test]
    fn highway_region_scheme_is_hard_campus_soft() {
        let highway = small(SceneConfig::highway());
        let campus = small(SceneConfig::campus());
        assert_eq!(highway.region_schemes["default"].boundary, RegionBoundary::Hard);
        assert_eq!(campus.region_schemes["default"].boundary, RegionBoundary::Soft);
        assert_eq!(highway.region_schemes["default"].len(), 2);
    }

    #[test]
    fn diurnal_factor_peaks_midday() {
        assert!(diurnal_factor(6.0) > diurnal_factor(0.5));
        assert!(diurnal_factor(6.0) > diurnal_factor(11.5));
        assert!(diurnal_factor(0.0) >= 0.3);
    }

    #[test]
    fn poisson_sampler_is_sane() {
        let mut rng = StdRng::seed_from_u64(1);
        let small_mean: f64 = (0..2000).map(|_| sample_poisson(&mut rng, 3.0) as f64).sum::<f64>() / 2000.0;
        assert!((small_mean - 3.0).abs() < 0.3);
        let big_mean: f64 = (0..500).map(|_| sample_poisson(&mut rng, 500.0) as f64).sum::<f64>() / 500.0;
        assert!((big_mean - 500.0).abs() < 10.0);
    }

    #[test]
    fn lognormal_sampler_matches_median() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut v: Vec<f64> = (0..4001).map(|_| lognormal(&mut rng, 3.0, 0.5)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((median - 3.0f64.exp()).abs() < 3.0, "median {median} should be near e^3 ≈ 20.1");
    }

    #[test]
    fn arrival_volume_tracks_config() {
        let base = small(SceneConfig::campus());
        let double = SceneGenerator::new(
            SceneConfig::campus().with_duration_hours(0.5).with_arrival_scale(1.0),
        )
        .generate();
        assert!(double.object_count() > base.object_count());
    }

    #[test]
    fn cars_have_plates_and_colors() {
        let scene = small(SceneConfig::highway());
        let car = scene.objects.iter().find(|o| o.class == ObjectClass::Car).expect("highway has cars");
        assert!(car.attributes.plate.starts_with("PLT"));
        assert!(car.attributes.color.is_some());
        assert!(car.attributes.speed_kmh >= 30.0);
    }
}
