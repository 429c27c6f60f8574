//! The traced run: where the time goes, layer by layer.
//!
//! Separate from the untraced numbers. Per workload, with one query
//! connection: an untraced pass and a traced pass of equal length through the
//! same staged client (the ratio of their medians is the tracing overhead),
//! then replays of the same request stream against single layers through
//! their public functions — the codec on captured frames, the parser on the
//! texts, `execute_text_as` on an in-process twin, the processor's chunks
//! through `ChunkPlan`. Spans are written to `trace-<workload>.json`.

use crate::decor::DiskCounts;
use crate::harness::{
    analyst_tenant, analyst_token, build_service, campus_scene, fail, frame_batch, fresh_wal_dir,
    register_cameras_in_process, register_live_cameras_in_process, Deployment, Failure, Instrument,
    Meters, LIVE_FPS, LIVE_FRAME, OWNER_TOKEN,
};
use crate::load::{staged_loop, LoopOutcome, Phase, StagedClient};
use crate::plan::{
    batch_walkers, follow_up_text, noise_seed, standing_queries, Plan, Workload, BATCH_SECS,
    LIVE_CAMERAS, PRELOAD_BATCHES,
};
use crate::report::{Metric, Report};
use crate::run::{
    live_traffic, plan_for, recovery_cycles, session_texts, summarise, watch, Config, PhaseCosts,
};
use crate::stats::{self, Samples};
use crate::trace::{self, Name, Sink, Span};
use privid::video::{ChunkSpec, Recording};
use privid::wire::{Request, Response, HEADER_LEN};
use privid::{
    parse_query, AggCacheStats, CameraId, ChunkBuffer, ChunkCacheStats, ChunkPlan, FrameRate,
    FrameSize, LaplaceMechanism, Scene, TimeSpan,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests whose frames are captured for the codec replays.
const FRAME_SAMPLES: usize = 64;
/// Ping round trips timed for `server.ping_rtt_us`.
const PINGS: usize = 2000;
/// Fresh connections timed for `server.connect_ms`.
const CONNECTS: usize = 8;
/// Requests whose spans are written to the trace file (all are kept in
/// memory and counted; the file is a readable sample).
const TRACE_FILE_REQUESTS: usize = 2000;
/// Close → rebuild-from-WAL cycles in the traced run, where there is a WAL.
const RECOVERIES: usize = 3;

/// One pass of traffic and what the process spent on it.
#[derive(Default)]
struct Pass {
    /// Query latencies (the follow-ups on `live_standing`).
    queries: Samples,
    /// Append latencies from the due instant (`live_standing` only).
    appends: Samples,
    lateness_ns: Vec<u64>,
    notify_ns: Vec<u64>,
    standing_fired: u64,
    attempted: u64,
    failed: u64,
    costs: PhaseCosts,
    /// The service's and decorators' counters at both ends of the measured part.
    counters: [Counters; 2],
    /// Client spans, one vector per connection.
    spans: Vec<Vec<Span>>,
    phase_ns: u64,
}

/// Every counter the benchmark can read from outside the layers.
#[derive(Clone, Copy, Default)]
struct Counters {
    tier1: ChunkCacheStats,
    tier2: AggCacheStats,
    disk: DiskCounts,
    /// `(chunks, process_ns)` of the sandbox seam.
    sandbox: (u64, u64),
}

impl Counters {
    fn read(deployment: &Deployment) -> Counters {
        Counters {
            tier1: deployment.service.cache_stats(),
            tier2: deployment.service.agg_cache_stats(),
            disk: disk_counts(&deployment.meters),
            sandbox: sandbox_counts(&deployment.meters),
        }
    }
}

impl Pass {
    /// Operations of the workload's primary kind that succeeded.
    fn ops(&self, workload: Workload) -> u64 {
        match workload {
            Workload::LiveStanding => self.appends.len() as u64,
            _ => self.queries.len() as u64,
        }
    }
}

fn one_query_loop(
    deployment: &Deployment,
    plan: &Plan,
    phase: Phase,
    epoch: Option<Instant>,
) -> Result<(LoopOutcome, PhaseCosts, [Counters; 2]), Failure> {
    let watched = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let load = scope.spawn(|| staged_loop(&deployment.addr, plan, phase, epoch, &watched));
        let (costs, counters) = watch(phase, &watched, || Counters::read(deployment));
        let outcome = load
            .join()
            .map_err(|_| "the load connection panicked".to_string())??;
        Ok((outcome, costs, counters))
    })
}

fn traffic(
    deployment: &Deployment,
    plan: &Plan,
    measure: Duration,
    warm_up: Duration,
    epoch: Option<Instant>,
) -> Result<Pass, Failure> {
    let phase = Phase::starting_now(warm_up, measure);
    let phase_ns = phase.measured_ns();
    if plan.workload != Workload::LiveStanding {
        let (o, costs, counters) = one_query_loop(deployment, plan, phase, epoch)?;
        return Ok(Pass {
            queries: o.samples,
            attempted: o.attempted,
            failed: o.failed,
            costs,
            counters,
            spans: vec![o.spans],
            phase_ns,
            ..Pass::default()
        });
    }
    let (appends, subscribers, costs, counters) =
        live_traffic(&deployment.addr, plan, phase, epoch, || {
            Counters::read(deployment)
        })?;
    let mut pass = Pass {
        appends: appends.samples,
        lateness_ns: appends.lateness_ns,
        standing_fired: appends.standing_fired,
        attempted: appends.attempted,
        failed: appends.failed,
        costs,
        counters,
        spans: vec![appends.spans],
        phase_ns,
        ..Pass::default()
    };
    for s in subscribers {
        pass.attempted += s.attempted;
        pass.failed += s.failed;
        pass.queries.absorb(s.queries);
        pass.notify_ns.extend(s.notify_ns);
        pass.spans.push(s.spans);
    }
    Ok(pass)
}

/// Mean nanoseconds per call of `f` over the items, repeated until about
/// `budget` has passed (at least one round).
fn mean_ns<T>(items: &[T], budget: Duration, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
        if start.elapsed() >= budget {
            return start.elapsed().as_nanos() as f64 / calls as f64;
        }
    }
}

/// One captured exchange: what went over the wire for one query.
struct Exchange {
    seed: u64,
    text: String,
    request_frame: Vec<u8>,
    response_op: u8,
    response_payload: Vec<u8>,
    response: Response,
}

/// Send `FRAME_SAMPLES` of the workload's own queries on a fresh connection
/// and keep both frames of each.
fn capture_frames(deployment: &Deployment, plan: &Plan) -> Result<Vec<Exchange>, Failure> {
    let mut client = StagedClient::connect(&deployment.addr, &analyst_token(0))?;
    let texts = session_texts(plan);
    let mut out = Vec::with_capacity(FRAME_SAMPLES);
    for i in 0..FRAME_SAMPLES {
        let text = texts[i % texts.len()].clone();
        let seed = noise_seed(plan.seed, 7, i as u64);
        let staged = client.call(&Request::SubmitQuery { seed, text: &text })?;
        if !matches!(staged.response, Response::QueryOk(_)) {
            return Err(format!(
                "frame capture: query refused: {:?}",
                staged.response
            ));
        }
        out.push(Exchange {
            seed,
            text,
            request_frame: client.last_frame().to_vec(),
            response_op: staged.raw.0,
            response_payload: staged.raw.1,
            response: staged.response,
        });
    }
    Ok(out)
}

/// The four codec directions on the captured frames, ns per frame, and the
/// mean frame sizes.
fn codec_replay(exchanges: &[Exchange], budget: Duration, report: &mut Report) {
    let mut buf = Vec::with_capacity(1 << 16);
    let request_encode = mean_ns(exchanges, budget, |x| {
        buf.clear();
        black_box(
            Request::SubmitQuery {
                seed: x.seed,
                text: &x.text,
            }
            .encode(&mut buf),
        )
        .ok();
        black_box(&buf);
    });
    let request_decode = mean_ns(exchanges, budget, |x| {
        black_box(Request::decode(
            x.request_frame[3],
            &x.request_frame[HEADER_LEN..],
        ))
        .ok();
    });
    let response_encode = mean_ns(exchanges, budget, |x| {
        buf.clear();
        black_box(x.response.encode(&mut buf)).ok();
        black_box(&buf);
    });
    let response_decode = mean_ns(exchanges, budget, |x| {
        black_box(Response::decode(x.response_op, &x.response_payload)).ok();
    });
    let n = exchanges.len().max(1) as f64;
    let request_bytes = exchanges
        .iter()
        .map(|x| x.request_frame.len())
        .sum::<usize>() as f64
        / n;
    let response_bytes = exchanges
        .iter()
        .map(|x| x.response_payload.len() + HEADER_LEN)
        .sum::<usize>() as f64
        / n;
    report.metric(Metric::new(
        "wire.request_encode_ns",
        request_encode,
        "ns/frame",
    ));
    report.metric(Metric::new(
        "wire.request_decode_ns",
        request_decode,
        "ns/frame",
    ));
    report.metric(Metric::new(
        "wire.response_encode_ns",
        response_encode,
        "ns/frame",
    ));
    report.metric(Metric::new(
        "wire.response_decode_ns",
        response_decode,
        "ns/frame",
    ));
    report.metric(Metric::new("wire.request_bytes", request_bytes, "bytes"));
    report.metric(Metric::new("wire.response_bytes", response_bytes, "bytes"));
}

/// Median Ping round trip (µs) and median connect → `HelloOk` (ms).
fn transport_probes(deployment: &Deployment) -> Result<(f64, f64), Failure> {
    let mut client = StagedClient::connect(&deployment.addr, &analyst_token(1))?;
    let mut rtts = Vec::with_capacity(PINGS);
    for nonce in 0..PINGS as u64 {
        let staged = client.call(&Request::Ping { nonce })?;
        rtts.push((staged.at[4] - staged.at[0]).as_nanos() as u64);
    }
    rtts.sort_unstable();
    let mut connects = Vec::with_capacity(CONNECTS);
    for _ in 0..CONNECTS {
        let start = Instant::now();
        StagedClient::connect(&deployment.addr, OWNER_TOKEN)?;
        connects.push(start.elapsed().as_nanos() as u64);
    }
    connects.sort_unstable();
    Ok((
        stats::us(stats::percentile(&rtts, 500)),
        stats::ms(stats::percentile(&connects, 500)),
    ))
}

/// The footage of the plan's cameras, rebuilt locally for the materialize
/// replay: the generated campus scenes, or the preloaded live batches.
fn local_scenes(plan: &Plan) -> Result<HashMap<String, Scene>, Failure> {
    let mut scenes = HashMap::new();
    let live = plan.workload == Workload::LiveStanding;
    let cameras = if live { &plan.live } else { &plan.cameras };
    for (c, camera) in cameras.iter().enumerate() {
        let scene = if live {
            let mut recording = Recording::start(
                CameraId::new(camera.name.as_str()),
                FrameRate::new(LIVE_FPS),
                FrameSize::new(LIVE_FRAME, LIVE_FRAME),
            );
            for batch in 0..PRELOAD_BATCHES as u64 {
                recording
                    .append_batch(frame_batch(&batch_walkers(plan.seed, c, batch)))
                    .map_err(fail("local recording"))?;
            }
            recording.into_scene()
        } else {
            campus_scene(camera.scene_seed)
        };
        scenes.insert(camera.name.clone(), scene);
    }
    Ok(scenes)
}

/// `ChunkPlan::new` + `materialize_into` over the windows of `texts`: mean µs per chunk.
fn materialize_replay(plan: &Plan, texts: &[String], budget: Duration) -> Result<f64, Failure> {
    let scenes = local_scenes(plan)?;
    let mut windows = Vec::new();
    for text in texts {
        let query = parse_query(text).map_err(fail("parsing a plan text"))?;
        for split in &query.splits {
            let scene = scenes
                .get(&split.camera)
                .ok_or_else(|| format!("no local scene for {}", split.camera))?;
            let spec =
                ChunkSpec::new(split.chunk_secs, split.stride_secs).map_err(fail("chunk spec"))?;
            windows.push((
                scene,
                TimeSpan::between_secs(split.begin_secs, split.end_secs),
                spec,
            ));
        }
    }
    let mut buf = ChunkBuffer::new();
    let mut chunks = 0u64;
    let per_window = mean_ns(&windows, budget, |(scene, window, spec)| {
        let chunk_plan = ChunkPlan::new(scene, window, spec, None);
        for index in 0..chunk_plan.len() {
            black_box(
                chunk_plan
                    .materialize_into(index, &mut buf)
                    .observation_count(),
            );
        }
        chunks += chunk_plan.len() as u64;
    });
    let chunks_per_window = windows
        .iter()
        .map(|(scene, window, spec)| ChunkPlan::new(scene, window, spec, None).len())
        .sum::<usize>() as f64
        / windows.len().max(1) as f64;
    black_box(chunks);
    Ok(per_window / chunks_per_window.max(1.0) / 1e3)
}

/// What the in-process twin measured: the core layer without any transport.
#[derive(Default)]
struct InProcess {
    execute_us: f64,
    sandbox_us_per_op: f64,
    store_us_per_op: f64,
    append_us: f64,
}

fn disk_counts(meters: &Meters) -> DiskCounts {
    meters.disk.as_ref().map(|d| d.counts()).unwrap_or_default()
}

fn sandbox_counts(meters: &Meters) -> (u64, u64) {
    meters
        .sandbox
        .as_ref()
        .map(|m| m.counts())
        .unwrap_or_default()
}

/// The same request stream through `execute_text_as` on a service built and
/// registered like the served one, with the counting decorators: median
/// execute time and the sandbox and store time inside it. On
/// `live_standing` also the median in-process append.
fn in_process_replay(cfg: &Config, plan: &Plan, budget: Duration) -> Result<InProcess, Failure> {
    let wal_dir = fresh_wal_dir(&cfg.out_dir, cfg.workload);
    let (service, meters) = build_service(cfg.workload, &wal_dir, &Instrument::Count)?;
    let tenant = analyst_tenant(0);
    let mut out = InProcess::default();
    let texts: Vec<String>;
    let order: Vec<u32>;
    if cfg.workload == Workload::LiveStanding {
        register_live_cameras_in_process(&service, plan)?;
        for (c, camera) in plan.live.iter().enumerate() {
            for (name, base_seed, text) in standing_queries(&camera.name, plan.seed) {
                service
                    .register_standing_query_as(&analyst_tenant(c), name, base_seed, &text)
                    .map_err(fail("registering a standing query in-process"))?;
            }
        }
        let mut append_ns = Vec::new();
        let batches = PRELOAD_BATCHES as u64 + 50;
        for batch in 0..batches {
            for (c, camera) in plan.live.iter().enumerate() {
                let frames = frame_batch(&batch_walkers(plan.seed, c, batch));
                let start = Instant::now();
                service
                    .append_frames(&camera.name, frames)
                    .map_err(fail("in-process append"))?;
                if batch >= PRELOAD_BATCHES as u64 {
                    append_ns.push(start.elapsed().as_nanos() as u64);
                }
            }
        }
        append_ns.sort_unstable();
        out.append_us = stats::us(stats::percentile(&append_ns, 500));
        // Like the subscribers' follow-ups: every window queried once, fresh.
        texts = (PRELOAD_BATCHES as u32..batches as u32)
            .flat_map(|b| {
                plan.live
                    .iter()
                    .map(move |c| follow_up_text(&c.name, b * BATCH_SECS, (b + 1) * BATCH_SECS))
            })
            .collect();
        order = (0..texts.len() as u32).collect();
    } else {
        register_cameras_in_process(&service, plan)?;
        for text in &plan.texts[..plan.prewarm] {
            service
                .execute_text_as(&tenant, 0, text)
                .map_err(fail("in-process pre-warm"))?;
        }
        texts = plan.texts.clone();
        order = plan.order.clone();
    }
    let (disk0, sandbox0) = (disk_counts(&meters), sandbox_counts(&meters));
    let mut execute_ns = Vec::new();
    let start = Instant::now();
    for i in 0u64.. {
        let once_through = cfg.workload == Workload::LiveStanding && i as usize >= order.len();
        if once_through || start.elapsed() >= budget {
            break;
        }
        let text = &texts[order[i as usize % order.len()] as usize];
        let t = Instant::now();
        let result = service.execute_text_as(&tenant, noise_seed(plan.seed, 0, i), text);
        execute_ns.push(t.elapsed().as_nanos() as u64);
        black_box(result).map_err(fail("in-process query"))?;
    }
    let ops = execute_ns.len().max(1) as f64;
    let disk = disk_counts(&meters).since(&disk0);
    let sandbox_ns = sandbox_counts(&meters).1 - sandbox0.1;
    execute_ns.sort_unstable();
    out.execute_us = stats::us(stats::percentile(&execute_ns, 500));
    out.sandbox_us_per_op = sandbox_ns as f64 / 1e3 / ops;
    out.store_us_per_op = (disk.write_ns + disk.sync_ns) as f64 / 1e3 / ops;
    drop(service);
    let _ = std::fs::remove_dir_all(wal_dir);
    Ok(out)
}

/// Median of `parse_query` over the texts, µs, and their mean length.
fn parse_replay(texts: &[String], budget: Duration) -> (f64, f64) {
    let ns = mean_ns(texts, budget, |t| {
        black_box(parse_query(t)).ok();
    });
    (
        ns / 1e3,
        texts.iter().map(String::len).sum::<usize>() as f64 / texts.len().max(1) as f64,
    )
}

/// One `LaplaceMechanism` per query, as the session does, then releases.
fn noise_replay(budget: Duration) -> f64 {
    let seeds: Vec<u64> = (0..64).collect();
    mean_ns(&seeds, budget, |&seed| {
        let mut mechanism = LaplaceMechanism::new(seed);
        for k in 0..8 {
            black_box(mechanism.release(k as f64, 2.0, 0.01));
        }
    }) / 8.0
}

/// `part ÷ whole`, 0 when there is no whole.
fn ratio_f(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    ratio_f(part as f64, whole as f64)
}

/// Write the spans of the first `TRACE_FILE_REQUESTS` requests.
fn write_trace(cfg: &Config, spans: &[Span]) -> Result<(), Failure> {
    let mut roots: Vec<u32> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.req != 0)
        .map(|s| s.req)
        .collect();
    roots.sort_unstable();
    roots.truncate(TRACE_FILE_REQUESTS);
    let sample: Vec<Span> = spans
        .iter()
        .filter(|s| roots.binary_search(&s.req).is_ok())
        .copied()
        .collect();
    let path = cfg
        .out_dir
        .join(format!("trace-{}.json", cfg.workload.name()));
    std::fs::write(&path, trace::to_json(&sample)).map_err(fail("writing the trace file"))
}

/// Everything the traced run measured, before it is turned into metrics.
struct Measured {
    /// Pass A: the staged client with nothing recording.
    untraced: Pass,
    /// Pass B: decorators in, spans on.
    traced: Pass,
    spans: Vec<Span>,
    ping_rtt_us: f64,
    connect_ms: f64,
    /// Median rebuild-from-WAL time and whether every ε came back bit-for-bit
    /// (the workloads with a WAL; `(0, true)` elsewhere).
    recovery: (f64, bool),
    exchanges: Vec<Exchange>,
}

/// The two passes over loopback and the probes that need the live server.
fn measure(cfg: &Config, plan: &Plan) -> Result<Measured, Failure> {
    let workload = cfg.workload;
    let length = Duration::from_secs_f64(cfg.seconds * 0.35);
    let plain = Deployment::start(workload, &cfg.out_dir, &Instrument::Off)?;
    plain.provision(plan)?;
    let untraced = traffic(&plain, plan, length, cfg.warm_up(), None)?;
    plain.teardown();

    let sink = Arc::new(Sink::new());
    let deployment = Deployment::start(
        workload,
        &cfg.out_dir,
        &Instrument::Trace(Arc::clone(&sink)),
    )?;
    deployment.provision(plan)?;
    sink.drain(); // set-up is not part of the trace
    let mut traced = traffic(&deployment, plan, length, cfg.warm_up(), Some(sink.epoch()))?;
    let spans = trace::assemble(std::mem::take(&mut traced.spans), sink.drain());

    let exchanges = capture_frames(&deployment, plan)?;
    let (ping_rtt_us, connect_ms) = transport_probes(&deployment)?;
    let recovery = if workload.durable() {
        let (times, exact) =
            recovery_cycles(deployment, plan, if cfg.smoke { 1 } else { RECOVERIES })?;
        (stats::median(&times), exact)
    } else {
        deployment.teardown();
        (0.0, true)
    };
    Ok(Measured {
        untraced,
        traced,
        spans,
        ping_rtt_us,
        connect_ms,
        recovery,
        exchanges,
    })
}

/// Self times: what each span kept for itself.
fn note_self_times(spans: &[Span], report: &mut Report) {
    let table = trace::self_times(spans);
    let requests = table
        .iter()
        .filter(|r| matches!(r.0, Name::Query | Name::Append))
        .map(|r| r.1)
        .sum::<u64>();
    report.note(format!(
        "spans: {} over {requests} requests; per span name:",
        spans.len()
    ));
    for (name, count, total, own) in &table {
        report.note(format!(
            "  {:<16} {:>9} spans  mean {:>9.2} us  self {:>9.2} us",
            name.as_str(),
            count,
            *total as f64 / 1e3 / *count as f64,
            *own as f64 / 1e3 / *count as f64
        ));
    }
}

/// The budget: the median query of the *untraced* pass — the same staged
/// client with nothing recording, so no row is the observer — attributed to
/// layers, and the share no layer accounts for.
fn note_budget(p50: f64, queries: usize, rows: &[(&str, f64)], report: &mut Report) {
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    let percent = |v: f64| v / p50.max(1e-9) * 100.0;
    report.note(format!(
        "budget of trace.untraced_p50_us = {p50:.2} us ({queries} queries, 1 connection):"
    ));
    for (label, value) in rows {
        report.note(format!(
            "  {label:<56} {value:>9.2} us  {:>5.1} %",
            percent(*value)
        ));
    }
    report.note(format!(
        "  {:<56} {:>9.2} us  {:>5.1} %",
        "unattributed",
        p50 - attributed,
        percent(p50 - attributed)
    ));
    report.metric(Metric::new(
        "trace.budget_coverage",
        attributed / p50.max(1e-9),
        "ratio",
    ));
}

/// Run the workload traced and report the per-layer metrics.
pub fn run(cfg: &Config) -> Result<Report, Failure> {
    let plan = plan_for(cfg)?;
    let workload = cfg.workload;
    let live = workload == Workload::LiveStanding;
    let replay = Duration::from_secs_f64((cfg.seconds * 0.02).clamp(0.02, 0.25));
    let mut report = Report::new(cfg, true);
    let Measured {
        untraced,
        traced,
        spans,
        ping_rtt_us,
        connect_ms,
        recovery,
        exchanges,
    } = measure(cfg, &plan)?;
    write_trace(cfg, &spans)?;
    if !recovery.1 {
        report.note("FAIL restart check: remaining ε not recovered bit-for-bit".into());
    }

    // Counters of the traced pass, per operation of the workload's primary kind.
    let [before, after] = traced.counters;
    let disk = after.disk.since(&before.disk);
    let (chunks, process_ns) = (
        after.sandbox.0 - before.sandbox.0,
        after.sandbox.1 - before.sandbox.1,
    );
    let tier1 = (
        after.tier1.hits - before.tier1.hits,
        after.tier1.misses - before.tier1.misses,
    );
    let tier2 = (
        after.tier2.hits - before.tier2.hits,
        after.tier2.misses - before.tier2.misses,
    );
    let evictions = after.tier1.evictions - before.tier1.evictions;
    let ops = traced.ops(workload).max(1) as f64;
    let per_op_us = |ns: u64| ns as f64 / 1e3 / ops;
    let q_untraced = summarise(&untraced.queries, untraced.phase_ns, 990);
    let q_traced = summarise(&traced.queries, traced.phase_ns, 990);

    // Replays of single layers through their public functions.
    codec_replay(&exchanges, replay, &mut report);
    let texts: Vec<String> = exchanges.iter().map(|x| x.text.clone()).collect();
    let (parse_us, text_bytes) = parse_replay(&texts, replay);
    let core = in_process_replay(cfg, &plan, Duration::from_secs_f64(cfg.seconds * 0.1))?;
    let materialize_us = materialize_replay(&plan, &texts, replay)?;
    let core_self_us = core.execute_us - parse_us - core.sandbox_us_per_op - core.store_us_per_op;

    // server (latencies from the untraced pass)
    let append = summarise(&untraced.appends, untraced.phase_ns, 990);
    let sorted = |v: &[u64]| {
        let mut v = v.to_vec();
        v.sort_unstable();
        v
    };
    let (notify, late) = (sorted(&untraced.notify_ns), sorted(&untraced.lateness_ns));
    report.metric(Metric::new("server.ping_rtt_us", ping_rtt_us, "us"));
    report.metric(Metric::new("server.connect_ms", connect_ms, "ms"));
    report.metric(Metric::new(
        "server.residual_us",
        q_untraced.p50_us - ping_rtt_us - core.execute_us,
        "us",
    ));
    report.metric(Metric::new(
        "server.ctx_switches_per_op",
        traced.costs.switches as f64 / ops,
        "count",
    ));
    report.metric(Metric::new(
        "server.stream_notify_ms",
        stats::ms(stats::percentile(&notify, 500)),
        "ms",
    ));
    report.metric(
        Metric::new("server.append_p99_us", append.tail_us.0, "us")
            .with_tail(append.tail_us.1, append.n),
    );
    report.metric(Metric::new(
        "loadgen.lag_p99_us",
        stats::us(stats::tail(&late, 990).0),
        "us",
    ));
    // query
    report.metric(Metric::new("query.parse_us", parse_us, "us"));
    report.metric(Metric::new("query.text_bytes", text_bytes, "bytes"));
    // core
    let quarter = untraced.phase_ns / 4;
    let quarter_p50 =
        |lo: u64, hi: u64| stats::percentile(&untraced.appends.sorted_between(lo, hi), 500) as f64;
    let (first, last) = (quarter_p50(0, quarter), quarter_p50(3 * quarter, u64::MAX));
    let fired_per_append = untraced.standing_fired as f64 / untraced.appends.len().max(1) as f64;
    report.metric(Metric::new("core.execute_us", core.execute_us, "us"));
    report.metric(Metric::new("core.self_us", core_self_us, "us"));
    report.metric(Metric::new(
        "core.tier1_hit_ratio",
        ratio(tier1.0, tier1.0 + tier1.1),
        "ratio",
    ));
    report.metric(Metric::new(
        "core.tier1_evictions_per_op",
        evictions as f64 / ops,
        "count",
    ));
    report.metric(Metric::new(
        "core.tier2_hit_ratio",
        ratio(tier2.0, tier2.0 + tier2.1),
        "ratio",
    ));
    report.metric(Metric::new(
        "core.noise_ns_per_release",
        noise_replay(replay),
        "ns/release",
    ));
    report.metric(Metric::new("core.append_us", core.append_us, "us"));
    report.metric(Metric::new(
        "core.append_growth",
        if first > 0.0 { last / first } else { 0.0 },
        "ratio",
    ));
    report.metric(Metric::new(
        "core.standing_fired_per_append",
        fired_per_append,
        "count",
    ));
    // sandbox, video
    report.metric(Metric::new(
        "sandbox.chunks_per_op",
        chunks as f64 / ops,
        "count",
    ));
    report.metric(Metric::new(
        "sandbox.process_us_per_op",
        per_op_us(process_ns),
        "us/op",
    ));
    report.metric(Metric::new(
        "sandbox.process_us_per_chunk",
        ratio(process_ns, chunks) / 1e3,
        "us/chunk",
    ));
    report.metric(Metric::new(
        "video.materialize_us_per_chunk",
        materialize_us,
        "us/chunk",
    ));
    // store
    report.metric(Metric::new(
        "store.bytes_written_per_op",
        disk.bytes as f64 / ops,
        "bytes",
    ));
    report.metric(Metric::new(
        "store.writes_per_op",
        disk.writes as f64 / ops,
        "count",
    ));
    report.metric(Metric::new(
        "store.fsyncs_per_op",
        disk.syncs as f64 / ops,
        "count",
    ));
    report.metric(Metric::new(
        "store.records_per_fsync",
        ratio(ops as u64, disk.syncs),
        "count",
    ));
    report.metric(Metric::new(
        "store.flush_wait_us_per_op",
        per_op_us(disk.sync_ns),
        "us/op",
    ));
    report.metric(Metric::new(
        "store.write_us_per_op",
        per_op_us(disk.write_ns),
        "us/op",
    ));
    report.metric(Metric::new(
        "store.checkpoints",
        disk.checkpoints as f64,
        "count",
    ));
    report.metric(Metric::new(
        "store.checkpoint_bytes",
        disk.checkpoint_bytes as f64,
        "bytes",
    ));
    report.metric(Metric::new("store.recover_ms", recovery.0, "ms"));
    // tracing itself
    report.metric(Metric::new(
        "trace.untraced_p50_us",
        q_untraced.p50_us,
        "us",
    ));
    report.metric(Metric::new("trace.traced_p50_us", q_traced.p50_us, "us"));
    report.metric(Metric::new(
        "trace.overhead_ratio",
        ratio_f(q_traced.p50_us, q_untraced.p50_us),
        "ratio",
    ));

    note_self_times(&spans, &mut report);
    let codec_us = |names: [&str; 2]| {
        names
            .iter()
            .filter_map(|n| report.metrics.iter().find(|m| m.name == *n))
            .map(|m| m.value)
            .sum::<f64>()
            / 1e3
    };
    // On `live_standing` the budgeted operation is the follow-up query, which
    // runs no sandbox and writes nothing beyond its admission record: its
    // sandbox and store shares come from the in-process replay of those very
    // queries, not from the appends' counters. Elsewhere the traced pass's
    // counters are per query already. Materialising chunks happens inside
    // core's PROCESS stage and has no seam of its own: its share is the
    // replayed cost times the chunks the sandbox seam counted.
    let (sandbox_us, store_us, video_us) = if live {
        (core.sandbox_us_per_op, core.store_us_per_op, 0.0)
    } else {
        (
            per_op_us(process_ns),
            per_op_us(disk.write_ns + disk.sync_ns),
            materialize_us * chunks as f64 / ops,
        )
    };
    let rows = [
        ("server.ping_rtt (transport + dispatch floor)", ping_rtt_us),
        (
            "wire, client side (request encode + response decode)",
            codec_us(["wire.request_encode_ns", "wire.response_decode_ns"]),
        ),
        (
            "wire, server side (request decode + response encode)",
            codec_us(["wire.request_decode_ns", "wire.response_encode_ns"]),
        ),
        ("query.parse", parse_us),
        (
            "video.materialize (chunks x replayed cost per chunk)",
            video_us,
        ),
        (
            "core.self less video (plan, caches, admission, noise)",
            core_self_us - video_us,
        ),
        ("sandbox.process", sandbox_us),
        ("store (write + flush wait)", store_us),
    ];
    note_budget(q_untraced.p50_us, q_untraced.n, &rows, &mut report);
    report.note(format!(
        "steal during the untraced / traced pass: {:.1} % / {:.1} % of machine ticks",
        untraced.costs.steal_share * 100.0,
        traced.costs.steal_share * 100.0
    ));
    if live {
        report.note(format!(
            "appends per pass: {} untraced, {} traced; cameras {LIVE_CAMERAS}, batch {BATCH_SECS} s",
            untraced.appends.len(),
            traced.appends.len()
        ));
    }

    let failed = untraced.failed + traced.failed + u64::from(!recovery.1);
    report.finish(untraced.attempted + traced.attempted, failed);
    Ok(report)
}
