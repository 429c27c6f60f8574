//! Workload inputs, all derived from `--seed`.
//!
//! The program under test only ever sees what is generated here: scene seeds,
//! query texts, the order requests are sent in, noise seeds and the walkers of
//! every appended batch. The same seed gives the same inputs; nothing in this
//! module reads a clock.

use privid::wire::{WalkerClass, WalkerSpec};

/// Shards of the hosted service.
pub const SHARDS: usize = 4;
/// Recorded cameras of the query workloads (four per shard).
pub const CAMERAS: usize = 16;
/// Footage per recorded camera, seconds.
pub const FOOTAGE_SECS: u32 = 7200;
/// Live cameras of `live_standing`.
pub const LIVE_CAMERAS: usize = 4;
/// Seconds of footage per appended batch.
pub const BATCH_SECS: u32 = 30;
/// Walkers per appended batch.
pub const WALKERS_PER_BATCH: usize = 6;
/// Batches every live camera holds before the timed phase, so the longest
/// standing window (300 s) has already closed once.
pub const PRELOAD_BATCHES: usize = 10;
/// The open loop sends one append every this many microseconds.
pub const APPEND_PERIOD_US: u64 = 10_000;
/// ε per release; against a per-frame budget of [`CAMERA_EPSILON`] nothing
/// is ever refused for budget, so any refusal in a run is a failure.
pub const QUERY_EPSILON: f64 = 0.01;
/// Per-frame ε of every camera.
pub const CAMERA_EPSILON: f64 = 1e9;
/// ε quota of every tenant.
pub const TENANT_QUOTA: f64 = 1e12;
/// Policy ρ (seconds) and K of every camera.
pub const RHO_SECS: f64 = 60.0;
/// Policy K.
pub const POLICY_K: u32 = 2;

/// The four workloads. Names are normative (`BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cached one-shot queries, no durability: transport, codec, parse,
    /// admission and noise are the whole cost.
    WarmOneshot,
    /// Every query misses both cache tiers and runs the sandbox.
    ColdProcess,
    /// `warm_oneshot` traffic on a WAL that syncs every commit.
    DurableCommit,
    /// Open-loop live ingest with standing queries beside one-shot reads.
    LiveStanding,
}

impl Workload {
    /// All workloads, in the order `run.sh` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::WarmOneshot,
        Workload::ColdProcess,
        Workload::DurableCommit,
        Workload::LiveStanding,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmOneshot => "warm_oneshot",
            Workload::ColdProcess => "cold_process",
            Workload::DurableCommit => "durable_commit",
            Workload::LiveStanding => "live_standing",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Analyst connections driving queries in the untraced run. One on the
    /// memory-only workloads: two closed loops sharing one core settle at
    /// random into one of two scheduling regimes (≈ 41k or ≈ 47k q/s on the
    /// development VM, run to run), which no statistic of a single run can
    /// undo, while one connection is a strict ping-pong. Two on
    /// `durable_commit`, which mostly waits for the device, so that group
    /// commit has a second record to share a sync with. On `live_standing`
    /// each live camera has one subscriber.
    pub fn connections(self) -> usize {
        match self {
            Workload::WarmOneshot | Workload::ColdProcess => 1,
            Workload::DurableCommit => 2,
            Workload::LiveStanding => LIVE_CAMERAS,
        }
    }

    /// Whether the deployment keeps a WAL a restart recovers from.
    pub fn durable(self) -> bool {
        matches!(self, Workload::DurableCommit | Workload::LiveStanding)
    }

    /// Share of `--seconds` the workload's own traffic gets. The query
    /// workloads leave the rest to the ingest tail (the `live_standing`
    /// traffic on their own deployment), so that append latency and firing
    /// lag are measured wherever the other end-to-end metrics are.
    pub fn own_share(self) -> f64 {
        match self {
            Workload::LiveStanding => 1.0,
            _ => 0.8,
        }
    }
}

/// SplitMix64: small, seedable, and good enough to shuffle a schedule. It never
/// touches a release: noise comes from the seeds the plan hands the service.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one purpose (`stream`) of one run (`seed`), so adding a
    /// consumer never shifts the numbers another one sees.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at these sizes.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One camera: its name (chosen for its shard) and, if recorded, scene seed.
#[derive(Debug, Clone, PartialEq)]
pub struct CameraPlan {
    /// Registry name.
    pub name: String,
    /// Seed of the generated campus scene.
    pub scene_seed: u64,
}

/// Everything a run sends, fixed before the clock starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// Recorded cameras (none on `live_standing`).
    pub cameras: Vec<CameraPlan>,
    /// Live cameras, each with its eight standing queries: the whole traffic
    /// of `live_standing`, the ingest tail of the others.
    pub live: Vec<CameraPlan>,
    /// One-shot query texts (empty for `live_standing`, whose one-shot
    /// queries follow the firings).
    pub texts: Vec<String>,
    /// Indices into `texts` in sending order; connections cycle through it
    /// from evenly spaced offsets.
    pub order: Vec<u32>,
    /// How many of `texts` are run once before the timed phase (the cached
    /// workloads pre-warm all 64 shapes; `cold_process` none).
    pub prewarm: usize,
}

/// The SELECT of a generated query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Select {
    /// One count per `BIN`-second bin (the GROUP BY row evaluator).
    CountByBin(u32),
    /// One count over the whole window.
    Count,
    /// A foldable aggregate: served from the tier-2 aggregate-state cache.
    Sum,
}

impl Select {
    fn clause(self) -> String {
        match self {
            Select::CountByBin(bin) => format!("COUNT(*) FROM people GROUP BY chunk BIN {bin}"),
            Select::Count => "COUNT(*) FROM people".into(),
            Select::Sum => "SUM(range(count, 0, 20)) FROM people".into(),
        }
    }
}

/// `SPLIT … PROCESS … SELECT …` over `[begin, end)` of one camera, 10 s chunks.
pub fn query_text(camera: &str, begin: u32, end: u32, select: Select) -> String {
    format!(
        "SPLIT {camera} BEGIN {begin} END {end} BY TIME 10 sec STRIDE 0 sec INTO chunks; \
         PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS \
         WITH SCHEMA (count:NUMBER=0) INTO people; \
         SELECT {} CONSUMING {QUERY_EPSILON};",
        select.clause()
    )
}

impl Plan {
    /// Build the inputs of `workload` for `seed`. `shard_of` maps a camera
    /// name to its shard (the service's stable name hash) so that each shard
    /// owns the same number of cameras.
    pub fn new(workload: Workload, seed: u64, shard_of: impl Fn(&str) -> usize) -> Plan {
        let recorded = match workload {
            Workload::LiveStanding => 0,
            _ => CAMERAS,
        };
        let cameras = balanced_cameras("cam", recorded, seed, &shard_of);
        let live = balanced_cameras("live", LIVE_CAMERAS, seed, &shard_of);
        let (texts, order, prewarm) = match workload {
            Workload::WarmOneshot | Workload::DurableCommit => {
                let texts = warm_shapes(&cameras, seed);
                // Every shape equally often, so the mix of wide and narrow
                // replies is the same for every seed; only the order differs.
                let mut order: Vec<u32> = (0..4096).map(|i| i % texts.len() as u32).collect();
                SplitMix::new(seed, 2).shuffle(&mut order);
                let prewarm = texts.len();
                (texts, order, prewarm)
            }
            Workload::ColdProcess => {
                let texts = cold_keys(&cameras);
                let mut order: Vec<u32> = (0..texts.len() as u32).collect();
                SplitMix::new(seed, 3).shuffle(&mut order);
                (texts, order, 0)
            }
            Workload::LiveStanding => (Vec::new(), Vec::new(), 0),
        };
        Plan {
            workload,
            seed,
            cameras,
            live,
            texts,
            order,
            prewarm,
        }
    }
}

/// `count` camera names `<prefix><i>`, scanning `i` upward and keeping a name
/// only while its shard still has room, so every shard owns `count / SHARDS`.
fn balanced_cameras(
    prefix: &str,
    count: usize,
    seed: u64,
    shard_of: impl Fn(&str) -> usize,
) -> Vec<CameraPlan> {
    let per_shard = count.div_ceil(SHARDS);
    let mut owned = [0usize; SHARDS];
    let mut cameras = Vec::with_capacity(count);
    for i in 0.. {
        if cameras.len() == count {
            break;
        }
        let name = format!("{prefix}{i}");
        let shard = shard_of(&name) % SHARDS;
        if owned[shard] < per_shard {
            owned[shard] += 1;
            cameras.push(CameraPlan {
                name,
                scene_seed: seed.wrapping_mul(1000).wrapping_add(i),
            });
        }
    }
    cameras
}

/// The 64 cached query shapes: 10 % wide (1800 s in 30 s bins ≈ 60 releases,
/// the codec-heavy case), the rest split between five per-minute counts over
/// 300 s and one foldable sum over 600 s.
fn warm_shapes(cameras: &[CameraPlan], seed: u64) -> Vec<String> {
    let mut rng = SplitMix::new(seed, 1);
    (0..64)
        .map(|i| {
            let camera = &cameras[rng.below(cameras.len() as u64) as usize].name;
            let (len, select) = match i % 10 {
                0 => (1800, Select::CountByBin(30)),
                k if k % 2 == 1 => (300, Select::CountByBin(60)),
                _ => (600, Select::Sum),
            };
            let begin = rng.below(u64::from(FOOTAGE_SECS - len)) as u32;
            query_text(camera, begin, begin + len, select)
        })
        .collect()
}

/// Every (camera, 7 s-stepped window): 16 × 986 = 15 776 distinct PROCESS
/// keys, ≥ 8× the tier-1 capacity (4 shards × 256), so neither tier can serve
/// any of them. Windows span 300 s (30 chunks), and one in 32 spans 600 s:
/// with requests all alike, the p99 of this CPU-bound loop was whatever the
/// host's jitter did to 1 % of them (run-to-run spread 18–29 %); with 3 % of
/// the requests twice as heavy it is the latency of those, which follows the
/// system like the median does.
fn cold_keys(cameras: &[CameraPlan]) -> Vec<String> {
    let mut texts = Vec::new();
    for camera in cameras {
        for (k, begin) in (0..=FOOTAGE_SECS - 300).step_by(7).enumerate() {
            let len = if k % 32 == 31 && begin + 600 <= FOOTAGE_SECS {
                600
            } else {
                300
            };
            texts.push(query_text(
                &camera.name,
                begin,
                begin + len,
                Select::CountByBin(60),
            ));
        }
    }
    texts
}

/// Noise seed of the `i`-th request of connection `conn`.
pub fn noise_seed(seed: u64, conn: usize, i: u64) -> u64 {
    seed.wrapping_mul(1_000_003) ^ ((conn as u64) << 48) ^ i
}

// ---- live_standing ---------------------------------------------------------

/// Standing-query windows, seconds; each gets a COUNT and a SUM.
pub const STANDING_WINDOWS: [u32; 4] = [30, 60, 120, 300];

/// Name of the standing query the camera's subscriber follows.
pub fn followed_standing(camera: &str) -> String {
    format!("{camera}-count-30")
}

/// The eight standing queries of one live camera: `(name, base seed, text)`.
pub fn standing_queries(camera: &str, seed: u64) -> Vec<(String, u64, String)> {
    let mut out = Vec::new();
    for (w, window) in STANDING_WINDOWS.into_iter().enumerate() {
        for (s, (tag, select)) in [("count", Select::Count), ("sum", Select::Sum)]
            .into_iter()
            .enumerate()
        {
            let base_seed = seed
                .wrapping_mul(7919)
                .wrapping_add((w * 2 + s) as u64 * 1_000_000);
            out.push((
                format!("{camera}-{tag}-{window}"),
                base_seed,
                query_text(camera, 0, window, select),
            ));
        }
    }
    out
}

/// The one-shot query a subscriber submits over the window that just closed;
/// its raw count must equal the firing's.
pub fn follow_up_text(camera: &str, begin: u32, end: u32) -> String {
    query_text(camera, begin, end, Select::Count)
}

/// Which live camera the `i`-th append of the run goes to (round-robin).
pub fn append_camera(i: u64) -> usize {
    (i % LIVE_CAMERAS as u64) as usize
}

/// The walkers of the `batch`-th batch of live camera `camera` (0-based, the
/// preload included): six people inside `[30·batch, 30·batch + 30)`, ids
/// unique per camera.
pub fn batch_walkers(seed: u64, camera: usize, batch: u64) -> Vec<WalkerSpec> {
    let mut rng = SplitMix::new(seed, 100 + camera as u64 * 1_000_003 + batch);
    let edge = batch * u64::from(BATCH_SECS);
    (0..WALKERS_PER_BATCH as u64)
        .map(|w| {
            let start = rng.below(u64::from(BATCH_SECS) - 5);
            let len = 2 + rng.below(u64::from(BATCH_SECS) - start - 2);
            WalkerSpec {
                id: batch * WALKERS_PER_BATCH as u64 + w,
                class: WalkerClass::Person,
                start_secs: (edge + start) as f64,
                end_secs: (edge + start + len) as f64,
            }
        })
        .collect()
}

/// When the `i`-th append of the timed phase is due, nanoseconds after the
/// phase starts. The open loop never waits for a reply before this.
pub fn append_due_ns(i: u64) -> u64 {
    i * APPEND_PERIOD_US * 1_000
}

/// Index within the timed phase of the append that closed the window ending
/// at `window_end_secs` on live camera `camera`, or `None` for a window the
/// preload closed.
pub fn closing_append(camera: usize, window_end_secs: u32) -> Option<u64> {
    let batch = u64::from(window_end_secs / BATCH_SECS).checked_sub(1)?;
    let timed = batch.checked_sub(PRELOAD_BATCHES as u64)?;
    Some(timed * LIVE_CAMERAS as u64 + camera as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_shard(name: &str) -> usize {
        name.bytes().map(usize::from).sum::<usize>() % SHARDS
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, 7, toy_shard);
            let b = Plan::new(workload, 7, toy_shard);
            assert_eq!(
                a,
                b,
                "{}: the plan is a pure function of the seed",
                workload.name()
            );
            let c = Plan::new(workload, 8, toy_shard);
            assert_ne!(a, c, "{}: another seed gives other inputs", workload.name());
        }
        assert_eq!(batch_walkers(7, 2, 41), batch_walkers(7, 2, 41));
        assert_ne!(batch_walkers(7, 2, 41), batch_walkers(8, 2, 41));
        assert_eq!(noise_seed(7, 1, 99), noise_seed(7, 1, 99));
        assert_ne!(noise_seed(7, 1, 99), noise_seed(7, 0, 99));
    }

    #[test]
    fn cameras_are_balanced_over_shards() {
        let plan = Plan::new(Workload::WarmOneshot, 1, toy_shard);
        assert_eq!(plan.cameras.len(), CAMERAS);
        for shard in 0..SHARDS {
            assert_eq!(
                plan.cameras
                    .iter()
                    .filter(|c| toy_shard(&c.name) == shard)
                    .count(),
                CAMERAS / SHARDS
            );
        }
    }

    #[test]
    fn warm_plan_has_64_shapes_with_a_wide_tenth() {
        let plan = Plan::new(Workload::WarmOneshot, 1, toy_shard);
        assert_eq!(plan.texts.len(), 64);
        assert_eq!(plan.prewarm, 64);
        let wide = plan.texts.iter().filter(|t| t.contains("BIN 30")).count();
        assert_eq!(wide, 7, "shapes 0, 10, … 60");
        assert!(plan
            .texts
            .iter()
            .any(|t| t.contains("SUM(range(count, 0, 20))")));
        assert!(plan.texts.iter().all(|t| privid::parse_query(t).is_ok()));
    }

    #[test]
    fn cold_plan_cycles_8x_the_tier1_capacity_in_shuffled_order() {
        let plan = Plan::new(Workload::ColdProcess, 1, toy_shard);
        assert!(
            plan.texts.len() >= 8 * SHARDS * 256,
            "{} keys",
            plan.texts.len()
        );
        assert_eq!(plan.order.len(), plan.texts.len());
        let mut seen = plan.order.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), plan.texts.len(), "every key once per cycle");
        assert_ne!(
            plan.order,
            (0..plan.texts.len() as u32).collect::<Vec<_>>(),
            "shuffled"
        );
        assert_eq!(plan.prewarm, 0);
        let heavy = plan
            .texts
            .iter()
            .filter(|t| {
                let number_after = |word: &str| -> u32 {
                    let rest = &t[t.find(word).expect("BEGIN and END") + word.len()..];
                    rest.split_whitespace()
                        .next()
                        .and_then(|n| n.parse().ok())
                        .expect("a number")
                };
                number_after("END ") - number_after("BEGIN ") == 600
            })
            .count();
        // Beyond the p99's rank, so the tail is the heavy requests' latency.
        assert_eq!(heavy, 16 * 29, "one key in 32, while 600 s still fit");
        assert!(heavy * 100 > plan.texts.len() * 2);
    }

    #[test]
    fn walkers_stay_inside_their_batch() {
        for batch in [0, 1, 500] {
            let walkers = batch_walkers(3, 1, batch);
            assert_eq!(walkers.len(), WALKERS_PER_BATCH);
            let (lo, hi) = ((batch * 30) as f64, (batch * 30 + 30) as f64);
            for w in &walkers {
                assert!(
                    lo <= w.start_secs && w.start_secs < w.end_secs && w.end_secs <= hi,
                    "{w:?}"
                );
            }
        }
    }

    #[test]
    fn closing_append_inverts_the_round_robin() {
        // Camera 2's first timed batch is batch 10, closing the window ending at 330 s.
        assert_eq!(closing_append(2, 330), Some(2));
        assert_eq!(closing_append(2, 360), Some(6));
        assert_eq!(closing_append(0, 300), None, "closed by the preload");
        assert_eq!(append_camera(6), 2);
        assert_eq!(append_due_ns(6), 60_000_000);
    }
}
