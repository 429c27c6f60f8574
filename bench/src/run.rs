//! The untraced run: what a user of the system would see.
//!
//! Set-up, a handful of fresh sessions, a short warm-up, then `--seconds` of
//! traffic over loopback TCP with no recording anywhere, then the correctness
//! checks of the same run, restarts, and the set-up several times more (its
//! median is reported). Every timing is the wall clock's over the whole
//! phase; its spread over [`SEGMENTS`] equal slices is printed beside it.

use crate::harness::{
    analyst_token, build_service, fail, register_cameras_in_process,
    register_live_cameras_in_process, Deployment, Failure, Instrument, ANALYSTS,
};
use crate::load::{
    closed_loop, fresh_sessions, open_loop_appends, subscriber, AppendLog, AppendOutcome, Kept,
    LoopOutcome, Phase, SubscriberOutcome,
};
use crate::plan::{
    follow_up_text, Plan, Workload, APPEND_PERIOD_US, BATCH_SECS, LIVE_CAMERAS, PRELOAD_BATCHES,
    SHARDS,
};
use crate::procfs;
use crate::report::{Metric, Report};
use crate::stats::{self, Samples};
use privid::{QueryResult, QueryService};
use std::path::{Path, PathBuf};
use std::sync::atomic::{
    AtomicBool,
    Ordering::{Relaxed, Release},
};
use std::time::{Duration, Instant};

/// Equal slices of a timed phase. Each timing is also computed per slice and
/// the spread of the slices printed beside it: a figure that moved during
/// the run says so.
pub const SEGMENTS: usize = 5;
/// Set-ups per run; the median is reported. The first serves the traffic,
/// the others follow it, so that peak memory is that of one deployment.
const SETUPS: usize = 9;
/// Fresh sessions timed for `first_result_p50_ms`. Each waits for the
/// server's 25 ms accept poll, so this costs about a second.
const SESSIONS: usize = 40;
/// Close → rebuild-from-WAL cycles timed for `recovery_ms`.
const RECOVERIES: usize = 5;
/// Subscribers connect and read their backlog before the ingest tail's first
/// append is due.
const TAIL_WARM_UP: Duration = Duration::from_millis(200);

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Quick pass: fewer set-ups and sessions, no pinning required.
    pub smoke: bool,
    /// Where WAL directories, traces and result files go (inside the checkout).
    pub out_dir: PathBuf,
}

impl Config {
    /// Untimed traffic before the clock starts: caches fill, threads and
    /// buffers reach their steady size.
    pub fn warm_up(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.05).clamp(0.2, 1.0))
    }
}

/// The plan of this run; the shard function is the service's own name hash.
pub fn plan_for(cfg: &Config) -> Result<Plan, Failure> {
    let probe = QueryService::builder()
        .shards(SHARDS)
        .build()
        .map_err(fail("building the shard probe"))?;
    Ok(Plan::new(cfg.workload, cfg.seed, |name| {
        probe.shard_index(name)
    }))
}

/// Stand the system up once. Returns the deployment and how long it took,
/// seconds.
fn set_up(cfg: &Config, plan: &Plan) -> Result<(Deployment, f64), Failure> {
    let start = Instant::now();
    let deployment = Deployment::start(cfg.workload, &cfg.out_dir, &Instrument::Off)?;
    deployment.provision(plan)?;
    Ok((deployment, start.elapsed().as_secs_f64()))
}

/// Texts for the fresh sessions: the plan's own, or on `live_standing` counts
/// over the windows the preload closed.
pub fn session_texts(plan: &Plan) -> Vec<String> {
    if plan.workload != Workload::LiveStanding {
        return plan
            .order
            .iter()
            .take(64)
            .map(|&i| plan.texts[i as usize].clone())
            .collect();
    }
    (0..PRELOAD_BATCHES as u32)
        .map(|b| follow_up_text(&plan.live[0].name, b * BATCH_SECS, (b + 1) * BATCH_SECS))
        .collect()
}

/// Bit-for-bit: `==` covers structure, labels and keys; the floats an analyst
/// receives are compared by bit pattern on top (`-0.0 == 0.0` is not enough).
fn same_bits(a: &QueryResult, b: &QueryResult) -> bool {
    a == b
        && a.epsilon_spent.to_bits() == b.epsilon_spent.to_bits()
        && a.releases.iter().zip(&b.releases).all(|(x, y)| {
            x.value.as_number().map(f64::to_bits) == y.value.as_number().map(f64::to_bits)
                && x.noise_scale.to_bits() == y.noise_scale.to_bits()
        })
}

/// Execute the kept `(seed, text)` pairs on an identically registered
/// in-process twin and count the releases that differ in any bit.
pub fn check_against_twin(plan: &Plan, kept: &[Kept]) -> Result<usize, Failure> {
    // The twin keeps nothing on disk: a release is a pure function of
    // (seed, query, footage), whatever the durability of the served side.
    let (twin, _) = build_service(Workload::WarmOneshot, Path::new(""), &Instrument::Off)?;
    register_cameras_in_process(&twin, plan)?;
    let mut wrong = 0;
    for (seed, text_index, over_wire) in kept {
        match twin.execute_text(*seed, &plan.texts[*text_index as usize]) {
            Ok(direct) if same_bits(&direct, over_wire) => {}
            _ => wrong += 1,
        }
    }
    Ok(wrong)
}

/// Instants at which each camera's remaining ε is compared across a restart:
/// over the recorded footage, and over what the preload and the first
/// appends gave a live camera.
const LEDGER_PROBES: [f64; 4] = [0.0, 1800.5, 3600.0, 7199.0];
const LIVE_LEDGER_PROBES: [f64; 4] = [0.0, 150.5, 299.0, 1000.0];

/// Every `(camera, instant)` whose remaining ε must survive a restart.
fn ledger_probes(plan: &Plan) -> Vec<(&str, f64)> {
    let mut out = Vec::new();
    for (cameras, probes) in [
        (&plan.cameras, LEDGER_PROBES),
        (&plan.live, LIVE_LEDGER_PROBES),
    ] {
        for camera in cameras {
            out.extend(probes.map(|at| (camera.name.as_str(), at)));
        }
    }
    out
}

/// Remaining ε at every probe, as the owner reads it over the wire.
fn ledger_over_wire(deployment: &Deployment, plan: &Plan) -> Result<Vec<Option<u64>>, Failure> {
    let mut owner = deployment.owner()?;
    ledger_probes(plan)
        .into_iter()
        .map(|(camera, at)| {
            owner
                .remaining_budget(camera, at)
                .map(|eps| eps.map(f64::to_bits))
                .map_err(fail("reading a budget"))
        })
        .collect()
}

/// Close the deployment and rebuild it from its WAL `cycles` times. Returns
/// each rebuild's time in milliseconds (open + replay + the re-registration
/// that adopts the recovered ledgers) and whether every rebuild recovered
/// every probed ε bit-for-bit.
pub fn recovery_cycles(
    deployment: Deployment,
    plan: &Plan,
    cycles: usize,
) -> Result<(Vec<f64>, bool), Failure> {
    let before = ledger_over_wire(&deployment, plan)?;
    let wal_dir = deployment.stop();
    let mut times = Vec::with_capacity(cycles);
    let mut exact = true;
    for _ in 0..cycles {
        let start = Instant::now();
        let (service, _) = build_service(plan.workload, &wal_dir, &Instrument::Off)?;
        register_cameras_in_process(&service, plan)?;
        register_live_cameras_in_process(&service, plan)?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
        let after: Vec<Option<u64>> = ledger_probes(plan)
            .into_iter()
            .map(|(camera, at)| service.remaining_budget(camera, at).map(f64::to_bits))
            .collect();
        exact &= after == before;
    }
    let _ = std::fs::remove_dir_all(wal_dir);
    Ok((times, exact))
}

/// CPU and steal over the timed phase, read by the coordinating thread while
/// the load threads run.
#[derive(Debug, Default, Clone)]
pub struct PhaseCosts {
    /// CPU time the process used, microseconds.
    pub cpu_us: f64,
    /// CPU time of the process's threads, nanoseconds, at the boundaries of
    /// the phase's [`SEGMENTS`] slices.
    pub cpu_ns_at: Vec<u64>,
    /// Share of the machine's ticks the hypervisor withheld.
    pub steal_share: f64,
    /// Voluntary context switches of the process's threads.
    pub switches: u64,
}

/// Sleep through `phase`, reading the process and machine clocks — and
/// whatever `probe` reads — at both ends of its measured part, and the
/// threads' CPU time at every segment boundary; then raise `watched`, which
/// the load generators wait for before they let their threads go.
pub fn watch<T>(phase: Phase, watched: &AtomicBool, probe: impl Fn() -> T) -> (PhaseCosts, [T; 2]) {
    let sleep_until = |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
    sleep_until(phase.start);
    let (cpu0, (steal0, all0), sw0, before) = (
        procfs::cpu_ns_live_threads(),
        procfs::machine_ticks(),
        procfs::voluntary_switches(),
        probe(),
    );
    let mut cpu_ns_at = Vec::new();
    for k in 0..=SEGMENTS as u64 {
        sleep_until(phase.start + Duration::from_nanos(phase.measured_ns() * k / SEGMENTS as u64));
        cpu_ns_at.push(procfs::cpu_ns_live_threads());
    }
    sleep_until(phase.end);
    let (cpu1, (steal1, all1), sw1, after) = (
        procfs::cpu_ns_live_threads(),
        procfs::machine_ticks(),
        procfs::voluntary_switches(),
        probe(),
    );
    watched.store(true, Release);
    let costs = PhaseCosts {
        cpu_us: cpu1.saturating_sub(cpu0) as f64 / 1e3,
        cpu_ns_at,
        steal_share: (steal1 - steal0) as f64 / (all1 - all0).max(1) as f64,
        switches: sw1.saturating_sub(sw0),
    };
    (costs, [before, after])
}

/// Throughput, median and tail of one set of samples over its whole phase,
/// as the wall clock read them, and the same over each of its slices.
pub struct Summary {
    /// Completions per second.
    pub ops_s: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// Tail latency under the percentile rule, µs, and the per-mille used.
    pub tail_us: (f64, u32),
    /// Sample count.
    pub n: usize,
    /// Per slice: completions, median µs, and the tail µs read at the whole
    /// phase's percentile.
    pub slices: Vec<(usize, f64, f64)>,
}

impl Summary {
    /// `(max − min) ÷ median` of a figure over the slices.
    pub fn slice_spread(&self, figure: impl Fn(&(usize, f64, f64)) -> f64) -> f64 {
        stats::spread(&self.slices.iter().map(figure).collect::<Vec<_>>())
    }

    /// The slices' figures, for a note: `what` names the operations.
    pub fn per_slice(&self, what: &str) -> String {
        let list = |figure: &dyn Fn(&(usize, f64, f64)) -> String| {
            self.slices.iter().map(figure).collect::<Vec<_>>().join(" ")
        };
        format!(
            "{what} per slice: completed {}; p50 us {}; p{} us {}",
            list(&|s| s.0.to_string()),
            list(&|s| format!("{:.1}", s.1)),
            self.tail_us.1 as f64 / 10.0,
            list(&|s| format!("{:.1}", s.2))
        )
    }
}

/// Summarise `samples` of a phase `phase_ns` long.
pub fn summarise(samples: &Samples, phase_ns: u64, wanted_tail: u32) -> Summary {
    let sorted = samples.sorted_latencies();
    let (tail, used) = stats::tail(&sorted, wanted_tail);
    Summary {
        ops_s: sorted.len() as f64 / (phase_ns as f64 / 1e9),
        p50_us: stats::us(stats::percentile(&sorted, 500)),
        tail_us: (stats::us(tail), used),
        n: sorted.len(),
        slices: samples
            .segment_latencies(phase_ns, SEGMENTS)
            .iter()
            .map(|slice| {
                (
                    slice.len(),
                    stats::us(stats::percentile(slice, 500)),
                    stats::us(stats::percentile(slice, used)),
                )
            })
            .collect(),
    }
}

/// The traffic of `live_standing`: the owner's open loop and one subscriber
/// per camera, until the phase ends and the firing streams have drained.
pub fn live_traffic<T>(
    addr: &str,
    plan: &Plan,
    phase: Phase,
    epoch: Option<Instant>,
    probe: impl Fn() -> T,
) -> Result<(AppendOutcome, Vec<SubscriberOutcome>, PhaseCosts, [T; 2]), Failure> {
    let appends = (phase.measured_ns() / (APPEND_PERIOD_US * 1_000)) as usize + 1;
    let log = AppendLog::new(appends);
    let (watched, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|scope| {
        let subscribers: Vec<_> = (0..LIVE_CAMERAS)
            .map(|c| {
                let (log, stop) = (&log, &stop);
                scope.spawn(move || subscriber(addr, plan, c, phase, log, stop, epoch))
            })
            .collect();
        let owner = scope.spawn(|| open_loop_appends(addr, plan, phase, &log, epoch, &watched));
        let (costs, probed) = watch(phase, &watched, probe);
        let appended = owner
            .join()
            .map_err(|_| "the open loop panicked".to_string());
        // Every append is acknowledged by now, so every firing exists: one
        // more empty long-poll each and the subscribers have seen them all.
        stop.store(true, Relaxed);
        let seen: Result<Vec<_>, Failure> = subscribers
            .into_iter()
            .map(|s| {
                s.join()
                    .map_err(|_| "a subscriber panicked".to_string())
                    .and_then(|r| r)
            })
            .collect();
        Ok((appended??, seen?, costs, probed))
    })
}

/// The traffic of the three query workloads: `conns` closed loops.
fn query_traffic(
    addr: &str,
    plan: &Plan,
    phase: Phase,
) -> Result<(Vec<LoopOutcome>, PhaseCosts), Failure> {
    let conns = plan.workload.connections();
    let watched = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let watched = &watched;
        let loops: Vec<_> = (0..conns)
            .map(|conn| scope.spawn(move || closed_loop(addr, plan, conn, conns, phase, watched)))
            .collect();
        let (costs, _) = watch(phase, watched, || ());
        let outcomes: Result<Vec<_>, Failure> = loops
            .into_iter()
            .map(|l| {
                l.join()
                    .map_err(|_| "a load connection panicked".to_string())
                    .and_then(|r| r)
            })
            .collect();
        Ok((outcomes?, costs))
    })
}

/// Firings every subscriber must have received: one per 30 s window its
/// camera's footage covers, each exactly once and in order (the subscriber
/// counts anything else as a failure).
fn expected_window_end(appended: u64, camera: usize) -> u32 {
    let batches = PRELOAD_BATCHES as u64
        + (appended + (LIVE_CAMERAS - 1 - camera) as u64) / LIVE_CAMERAS as u64;
    batches as u32 * BATCH_SECS
}

/// Peak resident memory now, MiB, less what the harness itself holds in
/// proportion to the traffic: the latency log of `logged` operations. At
/// 40k q/s that log is half of `warm_oneshot`'s peak, and it made the figure
/// follow the throughput (11.2 MiB at 34k q/s, 12.9 at 40k).
fn rss_less_the_log(logged: usize) -> f64 {
    procfs::rss_peak_mib() - (logged * Samples::BYTES_PER_SAMPLE) as f64 / (1024.0 * 1024.0)
}

/// What a phase of live traffic measured: the whole of `live_standing`, the
/// ingest tail of the query workloads.
struct Ingest {
    /// Appends, each timed from its due instant.
    appends: Summary,
    /// Acknowledged appends per second up to the last acknowledgement.
    acked_per_s: f64,
    /// The subscribers' follow-up queries.
    queries: Samples,
    costs: PhaseCosts,
    attempted: u64,
    failed: u64,
    /// `VmHWM` right after the traffic, less the harness's latency log.
    rss_peak_mib: f64,
}

/// Open-loop appends beside the subscribers for `phase`, and the firing
/// check; reports what only this traffic has.
fn ingest(
    deployment: &Deployment,
    plan: &Plan,
    phase: Phase,
    report: &mut Report,
) -> Result<Ingest, Failure> {
    let (appends, subscribers, costs, _) =
        live_traffic(&deployment.addr, plan, phase, None, || ())?;
    let logged = appends.samples.len() + subscribers.iter().map(|s| s.queries.len()).sum::<usize>();
    let rss_peak_mib = rss_less_the_log(logged);
    let mut queries = Samples::default();
    let mut lag = Vec::new();
    let attempted = appends.attempted + subscribers.iter().map(|s| s.attempted).sum::<u64>();
    let mut failed = appends.failed + subscribers.iter().map(|s| s.failed).sum::<u64>();
    for (camera, s) in subscribers.into_iter().enumerate() {
        let footage = expected_window_end(appends.samples.len() as u64, camera);
        if s.last_window_end != footage {
            report.note(format!(
                "FAIL live{camera}: firings reached {} s, footage {footage} s",
                s.last_window_end
            ));
            failed += 1;
        }
        queries.absorb(s.queries);
        lag.extend(s.firing_lag_ns);
    }
    lag.sort_unstable();
    let summary = summarise(&appends.samples, phase.measured_ns(), 990);
    let mut late = appends.lateness_ns;
    late.sort_unstable();
    let (lag_tail, lag_used) = stats::tail(&lag, 950);
    report.metric(
        Metric::new("append_p50_us", summary.p50_us, "us")
            .with_segment_spread(summary.slice_spread(|s| s.1)),
    );
    report.metric(Metric::new(
        "firing_lag_p50_ms",
        stats::ms(stats::percentile(&lag, 500)),
        "ms",
    ));
    report.extra(
        Metric::new("firing_lag_p95_ms", stats::ms(lag_tail), "ms").with_tail(lag_used, lag.len()),
    );
    report.extra(
        Metric::new("append_p99_us", summary.tail_us.0, "us")
            .with_tail(summary.tail_us.1, summary.n)
            .with_segment_spread(summary.slice_spread(|s| s.2)),
    );
    report.extra(Metric::new(
        "loadgen.lag_p99_us",
        stats::us(stats::tail(&late, 990).0),
        "us",
    ));
    report.note(format!(
        "appends: {} acknowledged in {:.1} s; {:.2} standing windows fired per append; every subscriber \
         received every window once, in order: {}",
        summary.n,
        phase.measured_ns() as f64 / 1e9,
        appends.standing_fired as f64 / summary.n.max(1) as f64,
        failed == 0
    ));
    report.note(summary.per_slice("appends"));
    Ok(Ingest {
        // An open loop's rate is set by its generator; what the system adds
        // is only whether the last acknowledgement arrives on time.
        acked_per_s: summary.n as f64 / (appends.samples.last_done_ns().max(1) as f64 / 1e9),
        appends: summary,
        queries,
        costs,
        attempted,
        failed,
        rss_peak_mib,
    })
}

/// What the closed loops of a query workload measured.
struct Queried {
    queries: Samples,
    costs: PhaseCosts,
    attempted: u64,
    failed: u64,
    rss_peak_mib: f64,
}

/// The query workloads: closed loops, then the bit-for-bit twin check.
fn query_phase(
    deployment: &Deployment,
    plan: &Plan,
    phase: Phase,
    report: &mut Report,
) -> Result<Queried, Failure> {
    let (outcomes, costs) = query_traffic(&deployment.addr, plan, phase)?;
    let rss_peak_mib = rss_less_the_log(outcomes.iter().map(|o| o.samples.len()).sum());
    let mut queries = Samples::default();
    let mut kept = Vec::new();
    let attempted = outcomes.iter().map(|o| o.attempted).sum();
    let mut failed = outcomes.iter().map(|o| o.failed).sum();
    for o in outcomes {
        queries.absorb(o.samples);
        kept.extend(o.kept);
    }
    kept.truncate(crate::load::CHECK_SAMPLES);
    let wrong = check_against_twin(plan, &kept)?;
    report.note(format!(
        "twin check: {wrong} of {} sampled releases differ from the in-process twin",
        kept.len()
    ));
    failed += wrong as u64;
    if let Some(disk) = &deployment.meters.disk {
        let disk = disk.counts();
        report.extra(Metric::new(
            "store.checkpoints",
            disk.checkpoints as f64,
            "count",
        ));
        report.extra(Metric::new(
            "store.fsyncs_per_op",
            disk.syncs as f64 / (attempted as f64).max(1.0),
            "count",
        ));
    }
    Ok(Queried {
        queries,
        costs,
        attempted,
        failed,
        rss_peak_mib,
    })
}

/// Report what every workload's own traffic has: the rate and CPU cost of
/// its operations (`ops`: the queries, or on `live_standing` the appends,
/// acknowledged at `ops_s`) and the latency of its queries.
fn report_traffic(
    report: &mut Report,
    queries: &Summary,
    ops: &Summary,
    ops_s: f64,
    costs: &PhaseCosts,
) {
    // CPU per completion in each slice whose boundaries were read.
    let cpu_slices: Vec<f64> = costs
        .cpu_ns_at
        .windows(2)
        .zip(&ops.slices)
        .filter(|(_, slice)| slice.0 > 0)
        .map(|(at, slice)| at[1].saturating_sub(at[0]) as f64 / slice.0 as f64)
        .collect();
    report.metric(
        Metric::new("throughput_ops_s", ops_s, "1/s")
            .with_segment_spread(ops.slice_spread(|s| s.0 as f64)),
    );
    report.metric(
        Metric::new("query_p50_us", queries.p50_us, "us")
            .with_segment_spread(queries.slice_spread(|s| s.1)),
    );
    report.metric(
        Metric::new("query_p99_us", queries.tail_us.0, "us")
            .with_tail(queries.tail_us.1, queries.n)
            .with_segment_spread(queries.slice_spread(|s| s.2)),
    );
    report.metric(
        Metric::new("cpu_us_per_op", costs.cpu_us / ops.n.max(1) as f64, "us")
            .with_segment_spread(stats::spread(&cpu_slices)),
    );
    report.note(queries.per_slice("queries"));
    report.note(format!(
        "steal during the timed phase: {:.1} % of machine ticks",
        costs.steal_share * 100.0
    ));
}

/// Run the workload untraced and report the end-to-end metrics.
pub fn run(cfg: &Config) -> Result<Report, Failure> {
    let plan = plan_for(cfg)?;
    let (setups, sessions, recoveries) = if cfg.smoke {
        (1, 4, 1)
    } else {
        (SETUPS, SESSIONS, RECOVERIES)
    };
    let (deployment, first_setup) = set_up(cfg, &plan)?;
    let mut first = fresh_sessions(
        &deployment.addr,
        &analyst_token(ANALYSTS - 1),
        &session_texts(&plan),
        sessions,
    )?;
    first.sort_unstable();

    let mut report = Report::new(cfg, false);
    let own = cfg.seconds * cfg.workload.own_share();
    let phase = Phase::starting_now(cfg.warm_up(), Duration::from_secs_f64(own));
    let (rss_peak_mib, attempted, mut failed);
    if cfg.workload == Workload::LiveStanding {
        let live = ingest(&deployment, &plan, phase, &mut report)?;
        let queries = summarise(&live.queries, phase.measured_ns(), 990);
        report_traffic(
            &mut report,
            &queries,
            &live.appends,
            live.acked_per_s,
            &live.costs,
        );
        (rss_peak_mib, attempted, failed) = (live.rss_peak_mib, live.attempted, live.failed);
    } else {
        let q = query_phase(&deployment, &plan, phase, &mut report)?;
        let queries = summarise(&q.queries, phase.measured_ns(), 990);
        report_traffic(&mut report, &queries, &queries, queries.ops_s, &q.costs);
        // The ingest tail: the rest of `--seconds`, on the same deployment.
        let tail = Phase::starting_now(TAIL_WARM_UP, Duration::from_secs_f64(cfg.seconds - own));
        let live = ingest(&deployment, &plan, tail, &mut report)?;
        (rss_peak_mib, attempted, failed) = (
            q.rss_peak_mib,
            q.attempted + live.attempted,
            q.failed + live.failed,
        );
    }
    report.metric(Metric::new(
        "first_result_p50_ms",
        stats::ms(stats::percentile(&first, 500)),
        "ms",
    ));
    report.metric(Metric::new("rss_peak_mib", rss_peak_mib, "MiB"));

    if cfg.workload.durable() {
        let (times, exact) = recovery_cycles(deployment, &plan, recoveries)?;
        report.extra(Metric::new("recovery_ms", stats::median(&times), "ms"));
        report.note(format!(
            "restart check: remaining ε of every camera recovered bit-for-bit: {exact}"
        ));
        failed += u64::from(!exact);
    } else {
        deployment.teardown();
    }

    // The other set-ups come after the traffic: peak memory above is that of
    // one deployment, whatever the allocator kept of the ones before it.
    let mut setup_secs = vec![first_setup];
    while setup_secs.len() < setups {
        let (deployment, secs) = set_up(cfg, &plan)?;
        deployment.teardown();
        setup_secs.push(secs);
    }
    report
        .metrics
        .insert(0, Metric::new("setup_s", stats::median(&setup_secs), "s"));
    report.note(format!(
        "set-ups (s): {}",
        setup_secs
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.extra(Metric::new(
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    report.finish(attempted, failed);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pause_confined_to_one_slice_moves_the_whole_phase_tail() {
        // Five seconds at one completion per millisecond, 100 µs each — except
        // that during the fourth second every 16th request waits 5 ms (a
        // checkpoint under the gate, say): 63 of 5000, beyond the p99's rank.
        let mut samples = Samples::default();
        for i in 0..5000u64 {
            let stalled = (3000..4000).contains(&i) && i % 16 == 0;
            samples.push(i * 1_000_000, if stalled { 5_000_000 } else { 100_000 });
        }
        let s = summarise(&samples, 5_000_000_000, 990);
        assert_eq!((s.n, s.ops_s, s.p50_us), (5000, 1000.0, 100.0));
        assert_eq!(s.tail_us, (5000.0, 990), "four quiet slices hide nothing");
        let quiet = (1000, 100.0, 100.0);
        assert_eq!(
            s.slices,
            [quiet, quiet, quiet, (1000, 100.0, 5000.0), quiet]
        );
        // The slices' tails lie (5000 − 100) ÷ 100 apart, their medians not at all.
        assert_eq!(s.slice_spread(|s| s.2), 49.0);
        assert_eq!(s.slice_spread(|s| s.1), 0.0);
        assert!(s
            .per_slice("queries")
            .ends_with("p99 us 100.0 100.0 100.0 5000.0 100.0"));
    }
}
