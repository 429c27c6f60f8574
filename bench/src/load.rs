//! The load generators. Everything here talks to the server over loopback
//! TCP and nothing else.
//!
//! * [`closed_loop`] — analysts that wait for each reply before sending the
//!   next request (callers, not independent users): a slow server receives
//!   less load, so throughput and latency are reported together.
//! * [`open_loop_appends`] — cameras that do not wait: one append is *due*
//!   every 10 ms whatever happened to the previous one, each is timed from
//!   its due instant, and how late the generator itself ran is reported.
//! * [`subscriber`] — long-polls a standing query and follows every firing
//!   with a one-shot query over the window that just closed.

use crate::harness::{analyst_token, fail, Failure, OWNER_TOKEN};
use crate::plan::{
    append_camera, append_due_ns, batch_walkers, closing_append, follow_up_text, followed_standing,
    noise_seed, Plan, BATCH_SECS, LIVE_CAMERAS, PRELOAD_BATCHES,
};
use crate::stats::Samples;
use crate::trace::{Name, Span};
use privid::query::exec::ReleaseValue;
use privid::server::net::{read_frame, write_frame, ReadFrame};
use privid::server::PrividClient;
use privid::wire::{Request, Response, MAX_PAYLOAD};
use privid::QueryResult;
use std::net::TcpStream;
use std::sync::atomic::{
    AtomicBool, AtomicU64,
    Ordering::{Acquire, Relaxed},
};
use std::time::{Duration, Instant};

/// How many releases a run keeps for the bit-for-bit check against the twin.
pub const CHECK_SAMPLES: usize = 256;

/// One phase of traffic: warm-up until `start`, measure until `end`.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// First instant whose requests count.
    pub start: Instant,
    /// Traffic stops here; a request in flight at `end` is not counted.
    pub end: Instant,
}

impl Phase {
    /// A phase of `measure` after `warm_up`, starting now.
    pub fn starting_now(warm_up: Duration, measure: Duration) -> Phase {
        let start = Instant::now() + warm_up;
        Phase {
            start,
            end: start + measure,
        }
    }

    /// Length of the measured part, nanoseconds.
    pub fn measured_ns(&self) -> u64 {
        (self.end - self.start).as_nanos() as u64
    }

    fn since_start(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_nanos() as u64
    }
}

/// Keep a load generator's connection open — and with it the server's threads
/// for that connection — until the coordinator has read the per-thread
/// counters at the end of the phase: a thread that exits takes its CPU time
/// and context switches out of `/proc/self/task` with it.
fn wait_until(watched: &AtomicBool) {
    while !watched.load(Acquire) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A `(noise seed, index into the plan's texts, decoded result)` kept for the
/// twin check.
pub type Kept = (u64, u32, QueryResult);

/// What one connection of a closed loop did.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Latency of every request that started and completed inside the phase.
    pub samples: Samples,
    /// Requests sent inside the phase.
    pub attempted: u64,
    /// Of those, refused or failed.
    pub failed: u64,
    /// A uniform sample of the releases, for the twin.
    pub kept: Vec<Kept>,
    /// Spans of the phase (traced pass only).
    pub spans: Vec<Span>,
}

/// Reservoir sampling: after `n` offers every item has been kept with
/// probability `CHECK_SAMPLES / n`.
fn offer(
    kept: &mut Vec<Kept>,
    offered: u64,
    rng: &mut crate::plan::SplitMix,
    item: impl FnOnce() -> Kept,
) {
    if kept.len() < CHECK_SAMPLES {
        kept.push(item());
    } else {
        let slot = rng.below(offered) as usize;
        if slot < CHECK_SAMPLES {
            kept[slot] = item();
        }
    }
}

/// Where connection `conn` of `conns` starts in the plan's order, so that
/// connections do not send the same request at the same moment.
fn start_offset(plan: &Plan, conn: usize, conns: usize) -> usize {
    plan.order.len() * conn / conns.max(1)
}

/// One analyst connection of the untraced run: the product's own blocking
/// client, one request at a time through the plan's order.
pub fn closed_loop(
    addr: &str,
    plan: &Plan,
    conn: usize,
    conns: usize,
    phase: Phase,
    watched: &AtomicBool,
) -> Result<LoopOutcome, Failure> {
    let mut client =
        PrividClient::connect(addr, &analyst_token(conn)).map_err(fail("analyst connect"))?;
    let mut out = LoopOutcome {
        samples: Samples::with_capacity(1 << 22),
        ..LoopOutcome::default()
    };
    let mut rng = crate::plan::SplitMix::new(plan.seed, 50 + conn as u64);
    let offset = start_offset(plan, conn, conns);
    for i in 0u64.. {
        let text_index = plan.order[(offset + i as usize) % plan.order.len()];
        let seed = noise_seed(plan.seed, conn, i);
        let sent = Instant::now();
        if sent >= phase.end {
            break;
        }
        let reply = client.submit_query(seed, &plan.texts[text_index as usize]);
        let done = Instant::now();
        if sent < phase.start || done > phase.end {
            continue;
        }
        out.attempted += 1;
        match reply {
            Ok(result) => {
                out.samples
                    .push(phase.since_start(done), (done - sent).as_nanos() as u64);
                offer(&mut out.kept, out.attempted, &mut rng, || {
                    (seed, text_index, result)
                });
            }
            Err(_) => out.failed += 1,
        }
    }
    wait_until(watched);
    Ok(out)
}

/// The product client's `call`, taken apart so each stage can be stamped:
/// `Request::encode` → `net::write_frame` → `net::read_frame` →
/// `Response::decode`. Used by both passes of the traced run, so the only
/// difference between them is the recording.
pub struct StagedClient {
    stream: TcpStream,
    never: AtomicBool,
    frame: Vec<u8>,
}

/// The instants between the stages of one call, plus the raw response.
pub struct Staged {
    /// Before encode, after encode, after write, after read, after decode.
    pub at: [Instant; 5],
    /// The decoded response.
    pub response: Response,
    /// Response opcode and payload as read.
    pub raw: (u8, Vec<u8>),
}

impl StagedClient {
    /// Connect and authenticate.
    pub fn connect(addr: &str, token: &str) -> Result<StagedClient, Failure> {
        let stream = TcpStream::connect(addr).map_err(fail("connect"))?;
        stream.set_nodelay(true).map_err(fail("set_nodelay"))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(fail("set_read_timeout"))?;
        let mut client = StagedClient {
            stream,
            never: AtomicBool::new(false),
            frame: Vec::new(),
        };
        match client.call(&Request::Hello { token })?.response {
            Response::HelloOk { .. } => Ok(client),
            other => Err(format!("Hello answered with {other:?}")),
        }
    }

    /// One request → response round trip, stamped between stages.
    pub fn call(&mut self, request: &Request<'_>) -> Result<Staged, Failure> {
        let t0 = Instant::now();
        self.frame.clear();
        request
            .encode(&mut self.frame)
            .map_err(fail("request encode"))?;
        let t1 = Instant::now();
        write_frame(&mut self.stream, &self.frame).map_err(fail("frame write"))?;
        let t2 = Instant::now();
        let (op, payload) = match read_frame(&mut self.stream, &self.never, MAX_PAYLOAD)
            .map_err(fail("frame read"))?
        {
            ReadFrame::Frame(op, payload) => (op, payload),
            ReadFrame::Eof | ReadFrame::Shutdown => {
                return Err("server closed the connection".into())
            }
        };
        let t3 = Instant::now();
        let response = Response::decode(op, &payload).map_err(fail("response decode"))?;
        let t4 = Instant::now();
        Ok(Staged {
            at: [t0, t1, t2, t3, t4],
            response,
            raw: (op, payload),
        })
    }

    /// The request frame of the last call.
    pub fn last_frame(&self) -> &[u8] {
        &self.frame
    }
}

/// Turns the stamps of one connection's staged calls into spans on the
/// trace's epoch. Ids are local to the connection (`trace::assemble` shifts
/// them).
pub struct Recorder {
    epoch: Instant,
    /// The spans so far; ids index into it, 1-based.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `epoch` must be the sink's.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::with_capacity(1 << 18),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Five spans for one call: the root and its four stages.
    pub fn record(&mut self, root: Name, at: &[Instant; 5]) {
        let root_id = self.spans.len() as u32 + 1;
        let req = root_id;
        let stamp: Vec<u64> = at.iter().map(|&t| self.ns(t)).collect();
        self.spans.push(Span {
            id: root_id,
            parent: 0,
            req,
            name: root,
            start_ns: stamp[0],
            end_ns: stamp[4],
        });
        let stages = [
            Name::ClientEncode,
            Name::ClientWrite,
            Name::ClientWait,
            Name::ClientDecode,
        ];
        for (k, name) in stages.into_iter().enumerate() {
            let id = root_id + 1 + k as u32;
            self.spans.push(Span {
                id,
                parent: root_id,
                req,
                name,
                start_ns: stamp[k],
                end_ns: stamp[k + 1],
            });
        }
    }
}

/// One analyst connection of the traced run's two passes: the staged client,
/// recording spans iff `epoch` is given.
pub fn staged_loop(
    addr: &str,
    plan: &Plan,
    phase: Phase,
    epoch: Option<Instant>,
    watched: &AtomicBool,
) -> Result<LoopOutcome, Failure> {
    let mut client = StagedClient::connect(addr, &analyst_token(0))?;
    let mut out = LoopOutcome {
        samples: Samples::with_capacity(1 << 19),
        ..LoopOutcome::default()
    };
    let mut recorder = epoch.map(Recorder::new);
    for i in 0u64.. {
        let text_index = plan.order[i as usize % plan.order.len()];
        let seed = noise_seed(plan.seed, 0, i);
        let sent = Instant::now();
        if sent >= phase.end {
            break;
        }
        let reply = client.call(&Request::SubmitQuery {
            seed,
            text: &plan.texts[text_index as usize],
        });
        let done = Instant::now();
        if sent < phase.start || done > phase.end {
            continue;
        }
        out.attempted += 1;
        match reply {
            Ok(Staged {
                at,
                response: Response::QueryOk(_),
                ..
            }) => {
                out.samples
                    .push(phase.since_start(done), (at[4] - at[0]).as_nanos() as u64);
                if let Some(rec) = &mut recorder {
                    rec.record(Name::Query, &at);
                }
            }
            _ => out.failed += 1,
        }
    }
    out.spans = recorder.map(|r| r.spans).unwrap_or_default();
    wait_until(watched);
    Ok(out)
}

/// `n` sequential fresh sessions — connect, `Hello`, one query, close — each
/// timed from before `connect` to the decoded release, nanoseconds.
pub fn fresh_sessions(
    addr: &str,
    token: &str,
    texts: &[String],
    n: usize,
) -> Result<Vec<u64>, Failure> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let start = Instant::now();
        let mut client =
            PrividClient::connect(addr, token).map_err(fail("fresh session connect"))?;
        client
            .submit_query(1_000_000 + i as u64, &texts[i % texts.len()])
            .map_err(fail("fresh session query"))?;
        out.push(start.elapsed().as_nanos() as u64);
    }
    Ok(out)
}

// ---- live_standing ---------------------------------------------------------

/// What the subscribers need to know about the appends, shared lock-free:
/// when each timed append was acknowledged (0 = not yet).
pub struct AppendLog {
    acked_ns: Vec<AtomicU64>,
}

impl AppendLog {
    /// Room for `n` timed appends.
    pub fn new(n: usize) -> AppendLog {
        AppendLog {
            acked_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn acked(&self, i: u64) -> Option<u64> {
        self.acked_ns
            .get(i as usize)
            .map(|a| a.load(Relaxed))
            .filter(|&ns| ns != 0)
    }
}

/// What the open loop measured.
#[derive(Debug, Default)]
pub struct AppendOutcome {
    /// Latency of each append **from its due instant** to the decoded ack.
    pub samples: Samples,
    /// How late each append was sent (send instant − due instant), ns.
    pub lateness_ns: Vec<u64>,
    /// Appends sent.
    pub attempted: u64,
    /// Refused or failed.
    pub failed: u64,
    /// Standing windows the acks reported fired.
    pub standing_fired: u64,
    /// Spans (traced pass only).
    pub spans: Vec<Span>,
}

/// Latency of an open-loop operation: from when it was *due*, not from when
/// the generator got round to sending it — so a stall is charged to every
/// operation it delayed, not hidden as a quiet generator.
pub fn open_loop_latency_ns(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

/// The owner connection of `live_standing`: append `i` is due at
/// `phase.start + i · 10 ms`, round-robin over the live cameras. The loop
/// never sends early and never skips: when it falls behind it sends
/// back-to-back until it has caught up.
pub fn open_loop_appends(
    addr: &str,
    plan: &Plan,
    phase: Phase,
    log: &AppendLog,
    epoch: Option<Instant>,
    watched: &AtomicBool,
) -> Result<AppendOutcome, Failure> {
    let mut client = StagedClient::connect(addr, OWNER_TOKEN)?;
    let mut out = AppendOutcome::default();
    let mut recorder = epoch.map(Recorder::new);
    for i in 0u64.. {
        let due_ns = append_due_ns(i);
        if due_ns >= phase.measured_ns() {
            break;
        }
        let due = phase.start + Duration::from_nanos(due_ns);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let c = append_camera(i);
        let batch = PRELOAD_BATCHES as u64 + i / LIVE_CAMERAS as u64;
        let request = Request::AppendFrames {
            camera: &plan.live[c].name,
            duration_secs: f64::from(BATCH_SECS),
            walkers: batch_walkers(plan.seed, c, batch),
        };
        let reply = client.call(&request);
        out.attempted += 1;
        match reply {
            Ok(Staged {
                at,
                response: Response::AppendOk { standing_fired, .. },
                ..
            }) => {
                let done_ns = phase.since_start(at[4]);
                out.samples
                    .push(done_ns, open_loop_latency_ns(due_ns, done_ns));
                out.lateness_ns
                    .push(phase.since_start(at[0]).saturating_sub(due_ns));
                out.standing_fired += standing_fired;
                if let Some(slot) = log.acked_ns.get(i as usize) {
                    slot.store(done_ns.max(1), Relaxed);
                }
                if let Some(rec) = &mut recorder {
                    rec.record(Name::Append, &at);
                }
            }
            _ => out.failed += 1,
        }
    }
    out.spans = recorder.map(|r| r.spans).unwrap_or_default();
    wait_until(watched);
    Ok(out)
}

/// What one subscriber saw.
#[derive(Debug, Default)]
pub struct SubscriberOutcome {
    /// Follow-up one-shot query latencies.
    pub queries: Samples,
    /// Due instant of the closing append → firing decoded, ns.
    pub firing_lag_ns: Vec<u64>,
    /// Ack of the closing append → firing decoded, ns (the long-poll's share).
    pub notify_ns: Vec<u64>,
    /// Follow-up queries sent / failed.
    pub attempted: u64,
    /// Failed follow-ups, failed firings, or firings out of order.
    pub failed: u64,
    /// Firings received during the phase.
    pub firings: u64,
    /// End of the last window received, seconds.
    pub last_window_end: u32,
    /// Spans (traced pass only).
    pub spans: Vec<Span>,
}

fn raw_count(result: &QueryResult) -> Option<u64> {
    match result.releases.first().map(|r| &r.raw) {
        Some(ReleaseValue::Number(n)) => Some(n.to_bits()),
        _ => None,
    }
}

/// The analyst of live camera `c`: long-polls the camera's 30 s count and,
/// for each firing, checks it is the next window in order, then submits one
/// one-shot count over that window (whose raw value must equal the firing's).
/// Runs until `stop` is raised and the stream has gone quiet.
pub fn subscriber(
    addr: &str,
    plan: &Plan,
    c: usize,
    phase: Phase,
    log: &AppendLog,
    stop: &AtomicBool,
    epoch: Option<Instant>,
) -> Result<SubscriberOutcome, Failure> {
    let mut client = StagedClient::connect(addr, &analyst_token(c))?;
    let camera = &plan.live[c].name;
    let name = followed_standing(camera);
    let mut out = SubscriberOutcome::default();
    let mut recorder = epoch.map(Recorder::new);
    // The preload's firings are history: check them, start after them.
    let backlog = match client
        .call(&Request::PollStanding {
            name: &name,
            cursor: 0,
        })?
        .response
    {
        Response::PollOk(poll) => poll,
        other => return Err(format!("PollStanding answered with {other:?}")),
    };
    let mut expected_start = 0u32;
    for firing in &backlog.firings {
        if firing.start_micros != i64::from(expected_start) * 1_000_000 || firing.result.is_err() {
            return Err(format!(
                "{name}: preload firing out of order or failed at {expected_start} s"
            ));
        }
        expected_start += BATCH_SECS;
    }
    if expected_start != PRELOAD_BATCHES as u32 * BATCH_SECS {
        return Err(format!(
            "{name}: preload fired {expected_start} s of windows"
        ));
    }
    let mut cursor = backlog.next_cursor;
    loop {
        let stopping = stop.load(Relaxed);
        let poll = match client
            .call(&Request::StreamFirings {
                name: &name,
                cursor,
                max_wait_ms: 100,
            })?
            .response
        {
            Response::PollOk(poll) => poll,
            other => return Err(format!("StreamFirings answered with {other:?}")),
        };
        let decoded = Instant::now();
        if poll.firings.is_empty() && stopping {
            break;
        }
        cursor = poll.next_cursor;
        out.failed += poll.dropped;
        for firing in poll.firings {
            out.firings += 1;
            let end = expected_start + BATCH_SECS;
            let in_order = firing.start_micros == i64::from(expected_start) * 1_000_000
                && firing.end_micros == i64::from(end) * 1_000_000;
            let Ok(fired) = &firing.result else {
                out.failed += 1;
                continue;
            };
            if !in_order {
                out.failed += 1;
                continue;
            }
            if let Some(i) = closing_append(c, end) {
                let decoded_ns = phase.since_start(decoded);
                if decoded <= phase.end {
                    out.firing_lag_ns
                        .push(open_loop_latency_ns(append_due_ns(i), decoded_ns));
                    if let Some(acked) = log.acked(i) {
                        out.notify_ns.push(decoded_ns.saturating_sub(acked));
                    }
                }
            }
            let text = follow_up_text(camera, expected_start, end);
            let sent = Instant::now();
            let reply = client.call(&Request::SubmitQuery {
                seed: noise_seed(plan.seed, c, u64::from(end)),
                text: &text,
            });
            if sent >= phase.start && Instant::now() <= phase.end {
                out.attempted += 1;
                match reply {
                    Ok(Staged {
                        at,
                        response: Response::QueryOk(result),
                        ..
                    }) if raw_count(&result) == raw_count(fired) => {
                        out.queries
                            .push(phase.since_start(at[4]), (at[4] - at[0]).as_nanos() as u64);
                        if let Some(rec) = &mut recorder {
                            rec.record(Name::Query, &at);
                        }
                    }
                    _ => out.failed += 1,
                }
            }
            expected_start = end;
        }
    }
    out.last_window_end = expected_start;
    out.spans = recorder.map(|r| r.spans).unwrap_or_default();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_instant() {
        // Due at 10 ms, the generator was stalled and sent at 25 ms, the ack
        // was decoded at 26 ms: the operation took 16 ms, not 1 ms.
        assert_eq!(open_loop_latency_ns(10_000_000, 26_000_000), 16_000_000);
        // Clock granularity can put `done` a hair before `due`; never negative.
        assert_eq!(open_loop_latency_ns(10, 9), 0);
    }

    #[test]
    fn recorder_emits_root_and_four_stages() {
        let epoch = Instant::now();
        let at = [0u64, 10, 30, 130, 150].map(|ns| epoch + Duration::from_nanos(ns));
        let mut rec = Recorder::new(epoch);
        rec.record(Name::Query, &at);
        rec.record(Name::Query, &at);
        assert_eq!(rec.spans.len(), 10);
        assert_eq!(
            rec.spans[0],
            Span {
                id: 1,
                parent: 0,
                req: 1,
                name: Name::Query,
                start_ns: 0,
                end_ns: 150
            }
        );
        assert_eq!(
            rec.spans[3],
            Span {
                id: 4,
                parent: 1,
                req: 1,
                name: Name::ClientWait,
                start_ns: 30,
                end_ns: 130
            }
        );
        assert_eq!(rec.spans[5].id, 6);
        assert_eq!(
            rec.spans[9],
            Span {
                id: 10,
                parent: 6,
                req: 6,
                name: Name::ClientDecode,
                start_ns: 130,
                end_ns: 150
            }
        );
    }

    #[test]
    fn reservoir_keeps_at_most_the_sample_size() {
        let mut kept = Vec::new();
        let mut rng = crate::plan::SplitMix::new(1, 1);
        for n in 1..=10_000u64 {
            offer(&mut kept, n, &mut rng, || {
                (
                    n,
                    0,
                    QueryResult {
                        releases: Vec::new(),
                        epsilon_spent: 0.0,
                        chunks_processed: 0,
                    },
                )
            });
        }
        assert_eq!(kept.len(), CHECK_SAMPLES);
        // Late offers do get in: the sample is not just the first 256.
        assert!(kept.iter().any(|k| k.0 > 5_000));
    }
}
