//! The threaded TCP front-end over a [`QueryService`].
//!
//! One accept thread, one handler thread plus one writer thread per
//! connection. Responses travel handler → writer through a **bounded**
//! queue: when a slow client stops draining its socket, the queue fills and
//! the handler blocks *before* reading the next request — backpressure
//! reaches the peer as TCP flow control instead of unbounded server memory.
//!
//! Multi-tenant admission control happens here, before any execution:
//! * `Hello` must authenticate the connection (token → tenant + role);
//! * owner-plane operations (camera registration, appends, budget reads)
//!   require the owner role;
//! * `SubmitQuery` runs as the authenticated tenant, so the service's
//!   per-tenant ε quota gates it at admission — a rejected query debits
//!   nothing, anywhere;
//! * standing queries are tenant-scoped end to end: registration claims the
//!   name for the tenant, every firing debits the owner's quota, and polls
//!   from any other tenant answer `UnknownStandingQuery` — one tenant's
//!   noised releases are never readable under another's token.
//!
//! Resource bounds: concurrent connections are capped (excess peers get a
//! typed retryable `ServerBusy` and are closed, and finished handler threads
//! are reaped on every accept), and until a connection authenticates its
//! frames are limited to [`PRE_AUTH_MAX_PAYLOAD`] — an anonymous peer cannot
//! make one length prefix size a 16 MiB allocation.
//!
//! Threads block on events, not on a clock. The accept thread parks in
//! `accept()`; a `StreamFirings` long-poll parks on the server's firing
//! signal ([`Signals`]), which a connection raises once it has queued the
//! reply of a request that fired standing windows. The wake follows the ack
//! on purpose: a subscriber woken from inside the pump answers — and has its
//! follow-up query served — ahead of the append's own ack (measured on one
//! core: appends 31–40 % slower), so "firing published" reaches the waiters
//! only after the appender's response is on its way.
//!
//! Shutdown is cooperative: [`Server::shutdown`] (and `Drop`) raises a flag,
//! wakes the accept thread by connecting to it, wakes every parked long-poll
//! through the signal, and joins every thread. What [`TICK`] still bounds:
//! a connection idle in `read` (its socket timeout) or stalled on a full
//! write queue or a full socket notices the flag within one tick; a firing
//! published by an in-process `QueryService::append_frames` — behind the
//! server's back, so nothing raises the signal — reaches a parked long-poll
//! within one tick; and an `accept` that keeps failing backs off one tick
//! per failure.

use crate::auth::{AuthRegistry, Identity, Role, Token};
use crate::net::{read_frame, write_frame, FrameError, ReadFrame};
use privid_core::{PrivacyPolicy, PrividError, QueryService};
use privid_video::trajectory::Trajectory;
use privid_video::{
    Attributes, FrameBatch, FrameRate, FrameSize, ObjectClass, ObjectId, Point, PresenceSegment,
    SceneConfig, SceneGenerator, TimeSpan, TrackedObject,
};
use privid_wire::{code, RemoteError, Request, Response, SceneKind, WalkerSpec, WirePoll, MAX_PAYLOAD};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The fallback period of every wait that has a wake-up: how long a socket
/// read or write, a full write queue, or a parked long-poll may go without
/// re-checking the shutdown flag (and, for the long-poll, without re-polling
/// for firings nobody signalled), and the back-off after a failed `accept`.
const TICK: Duration = Duration::from_millis(25);

/// Hard cap on a registered synthetic scene's duration (one week). Scene
/// generation is O(duration); an unbounded request would let one owner call
/// pin a core for minutes. The same bound a live recording applies to one
/// appended batch (there it is `Recording` that refuses, with a typed error
/// `append_frames` turns into `Invalid`).
const MAX_SCENE_SECS: f64 = privid_video::MAX_BATCH_SECS;

/// Frame-payload cap for a connection that has not yet authenticated
/// (PROTOCOL.md). A `Hello` is a short token string; until one succeeds the
/// peer gets a few KiB, not the protocol's 16 MiB — pre-auth connections
/// must be close to free.
pub const PRE_AUTH_MAX_PAYLOAD: u32 = 4 * 1024;

/// Server-side ceiling on [`Request::StreamFirings`]'s `max_wait_ms`
/// (PROTOCOL.md). A long-poll pins its handler thread (each wake-up or tick
/// re-takes the standing-registry lock); a `u32::MAX` wait would pin it for
/// ~50 days.
/// Clients wanting to wait longer re-issue the poll with the same cursor.
pub const MAX_STREAM_WAIT_MS: u32 = 30_000;

/// Server configuration: credentials and queue sizing.
#[derive(Debug)]
pub struct ServerConfig {
    /// The accepted credentials.
    pub tokens: Vec<Token>,
    /// Bounded frames per connection write queue. When full, the handler
    /// blocks (backpressure) instead of buffering without limit.
    pub write_queue_frames: usize,
    /// Cap on concurrent connections. A peer accepted past the cap receives
    /// one typed, retryable `ServerBusy` error frame and is closed before
    /// any handler threads are spawned for it; finished handlers are reaped
    /// from the registry on every accept, so a long-running server's
    /// thread/handle count is bounded by this number, not by uptime.
    pub max_connections: usize,
}

impl ServerConfig {
    /// A config with the given credentials, the default 64-frame write
    /// queue and the default 128-connection cap.
    pub fn new(tokens: Vec<Token>) -> Self {
        ServerConfig { tokens, write_queue_frames: 64, max_connections: 128 }
    }

    /// Builder-style override of the concurrent-connection cap (clamped to
    /// at least 1).
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }
}

/// What one server's threads share to wake each other: the shutdown flag
/// and the firing signal.
struct Signals {
    /// Raised once, by [`Server::stop`]; every blocking loop re-checks it.
    shutdown: AtomicBool,
    /// Bumped whenever a connection has acked a request that fired standing
    /// windows, and at shutdown. A long-poll reads it *before* it polls and
    /// parks only while it is unchanged, so a firing published between its
    /// poll and its wait is never slept through.
    generation: Mutex<u64>,
    published: Condvar,
}

impl Signals {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    // The counter is valid whatever a panicking holder was doing, and
    // `publish` runs in `Drop`: every lock below recovers from poison.

    fn generation(&self) -> u64 {
        *self.generation.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake every parked long-poll.
    fn publish(&self) {
        let mut generation = self.generation.lock().unwrap_or_else(PoisonError::into_inner);
        *generation = generation.wrapping_add(1);
        drop(generation);
        self.published.notify_all();
    }

    /// Park until the generation moves past `seen` or `timeout` elapses. A
    /// spurious wake-up only costs the caller one extra poll.
    fn wait_past(&self, seen: u64, timeout: Duration) {
        let generation = self.generation.lock().unwrap_or_else(PoisonError::into_inner);
        if *generation == seen {
            let _ = self.published.wait_timeout(generation, timeout);
        }
    }
}

/// A running front-end. [`Server::shutdown`] stops it and joins its threads;
/// dropping it does the same.
pub struct Server {
    addr: SocketAddr,
    signals: Arc<Signals>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind `127.0.0.1:0` (an ephemeral port) and start serving `service`.
    pub fn start(service: Arc<QueryService>, config: ServerConfig) -> io::Result<Server> {
        Server::bind("127.0.0.1:0", service, config)
    }

    /// Bind an explicit address and start serving.
    pub fn bind(addr: &str, service: Arc<QueryService>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let signals =
            Arc::new(Signals { shutdown: AtomicBool::new(false), generation: Mutex::new(0), published: Condvar::new() });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let auth = Arc::new(AuthRegistry::new(config.tokens));
        let queue = config.write_queue_frames.max(1);
        let max_connections = config.max_connections.max(1);

        let accept = {
            let signals = Arc::clone(&signals);
            let conns = Arc::clone(&conns);
            thread::spawn(move || loop {
                let accepted = listener.accept();
                // Checked after every return from `accept`: the connection
                // that woke us at shutdown (or a straggler racing it) is
                // dropped here without ever getting a handler.
                if signals.is_shutdown() {
                    return;
                }
                let Ok((stream, _)) = accepted else {
                    // Typically EMFILE: retrying at once would spin a core.
                    thread::sleep(TICK);
                    continue;
                };
                let mut conns = conns.lock().expect("connection registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
                // Reap finished handlers on every accept: the registry holds
                // only live connections, so neither handles nor threads grow
                // with uptime.
                conns.retain(|handle| !handle.is_finished());
                if conns.len() >= max_connections {
                    drop(conns);
                    refuse_busy(stream);
                    continue;
                }
                let service = Arc::clone(&service);
                let auth = Arc::clone(&auth);
                let signals = Arc::clone(&signals);
                conns.push(thread::spawn(move || {
                    // A connection failing is that connection's problem; the
                    // server keeps serving.
                    let _ = serve_connection(stream, service, auth, signals, queue);
                }));
            })
        };

        Ok(Server { addr, signals, accept: Some(accept), conns })
    }

    /// The bound address (use with an ephemeral-port bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake every connection, and join all threads. In-flight
    /// requests finish; parked long-polls answer `SHUTTING_DOWN` at once;
    /// idle connections close at their next tick.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// What `shutdown` and `Drop` both do; a second call finds nothing left.
    fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.signals.shutdown.store(true, Ordering::SeqCst);
        self.signals.publish();
        // The accept thread is parked in `accept()`: hand it a connection.
        // One that succeeds is enough (every return from `accept` re-checks
        // the flag); one that fails (this process out of descriptors) is
        // retried until the thread has gone.
        let wake = wake_addr(self.addr);
        while !accept.is_finished() {
            if TcpStream::connect_timeout(&wake, TICK).is_ok() {
                break;
            }
            thread::sleep(TICK);
        }
        let _ = accept.join();
        // Not `expect`: this runs in `Drop`, and the handles are valid
        // whatever a panicking holder was doing.
        let handles = std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Where a connection reaches the listener bound at `bound`: itself, or — a
/// wildcard bind is not a destination everywhere — loopback of its family.
fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    bound
}

/// Refuse a connection accepted past the cap: one typed, retryable error
/// frame, best-effort (a few dozen bytes into a fresh socket buffer — if
/// even that fails, the close alone tells the peer), then drop. No handler
/// or writer thread is ever spawned for a refused connection, and the whole
/// refusal is bounded to a few ticks of the accept thread.
fn refuse_busy(mut stream: TcpStream) {
    let busy = Response::Error(RemoteError {
        code: code::SERVER_BUSY,
        retryable: true,
        message: "server at its connection cap; retry shortly".into(),
    });
    let mut frame = Vec::new();
    if busy.encode(&mut frame).is_ok() {
        let _ = stream.set_write_timeout(Some(TICK));
        if write_frame(&mut stream, &frame).is_ok() {
            // Signal end-of-stream, then briefly drain whatever the peer
            // already sent (typically its Hello). Closing with unread bytes
            // in the kernel buffer turns into an RST that can discard the
            // busy frame before the peer reads it — the drain is what makes
            // the refusal reliably *typed* rather than a reset.
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let _ = stream.set_read_timeout(Some(TICK));
            let mut scratch = [0u8; 256];
            for _ in 0..2 {
                match stream.read(&mut scratch) {
                    Ok(n) if n > 0 => continue,
                    _ => break,
                }
            }
        }
    }
}

/// Why the handler is done with a connection.
enum Done {
    /// Peer went away or asked everything it wanted.
    Closed,
    /// Shutdown flag.
    Shutdown,
}

fn serve_connection(
    mut stream: TcpStream,
    service: Arc<QueryService>,
    auth: Arc<AuthRegistry>,
    signals: Arc<Signals>,
    queue_frames: usize,
) -> Result<Done, FrameError> {
    stream.set_read_timeout(Some(TICK))?;
    // Shared with the writer's clone: a peer that stops reading must not
    // hold the writer in `write` past shutdown.
    stream.set_write_timeout(Some(TICK))?;
    stream.set_nodelay(true)?;
    let write_half = stream.try_clone()?;
    let (tx, rx) = sync_channel::<Vec<u8>>(queue_frames);
    let writer = spawn_writer(write_half, rx, Arc::clone(&signals));

    let result = connection_loop(&mut stream, &service, &auth, &signals, &tx);

    // Close the queue, let the writer drain what was accepted, then join.
    drop(tx);
    let _ = writer.join();
    result
}

fn spawn_writer(mut stream: TcpStream, rx: Receiver<Vec<u8>>, signals: Arc<Signals>) -> JoinHandle<()> {
    thread::spawn(move || {
        while let Ok(frame) = rx.recv() {
            if write_until_shutdown(&mut stream, &frame, &signals).is_err() {
                // Peer gone (or not reading, at shutdown): drain the queue so
                // the handler never blocks on a channel nobody reads, then
                // quit.
                while rx.recv().is_ok() {}
                return;
            }
        }
    })
}

/// `write_all` over the socket's [`TICK`] write timeout: a write that stalls
/// on a full socket is retried — that is the backpressure — until the
/// shutdown flag is up, then abandoned. A peer that is reading still gets
/// everything queued for it, the `SHUTTING_DOWN` frame included; one that
/// stopped reading costs shutdown one tick.
fn write_until_shutdown(stream: &mut TcpStream, mut frame: &[u8], signals: &Signals) -> io::Result<()> {
    while !frame.is_empty() {
        match stream.write(frame) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => frame = frame.get(n..).unwrap_or_default(),
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if signals.is_shutdown() {
                    return Err(e);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Encode and enqueue one response. Blocks when the bounded queue is full —
/// that *is* the backpressure. Returns `false` when the writer is gone.
fn enqueue(tx: &SyncSender<Vec<u8>>, signals: &Signals, resp: &Response) -> bool {
    let mut frame = Vec::new();
    if resp.encode(&mut frame).is_err() {
        // A response too large for the wire (e.g. a poll with a pathological
        // firing backlog) must not kill the protocol stream silently; send a
        // typed error instead.
        let fallback = Response::Error(RemoteError {
            code: code::BAD_REQUEST,
            retryable: true,
            message: "response exceeded the frame size cap; narrow the request".into(),
        });
        frame.clear();
        if fallback.encode(&mut frame).is_err() {
            return false;
        }
    }
    // Bounded send with shutdown checks: try, and on a full queue wait a
    // tick and re-check the flag rather than parking forever.
    loop {
        match tx.try_send(frame) {
            Ok(()) => return true,
            Err(TrySendError::Full(f)) => {
                if signals.is_shutdown() {
                    return false;
                }
                thread::sleep(TICK);
                frame = f;
            }
            Err(TrySendError::Disconnected(_)) => return false,
        }
    }
}

fn connection_loop(
    stream: &mut TcpStream,
    service: &QueryService,
    auth: &AuthRegistry,
    signals: &Signals,
    tx: &SyncSender<Vec<u8>>,
) -> Result<Done, FrameError> {
    let mut identity: Option<Identity> = None;
    loop {
        // Until `Hello` succeeds the peer is anonymous: its frames are held
        // to the small pre-auth cap, not the protocol's 16 MiB.
        let cap = if identity.is_some() { MAX_PAYLOAD } else { PRE_AUTH_MAX_PAYLOAD };
        let (op, payload) = match read_frame(stream, &signals.shutdown, cap) {
            Ok(ReadFrame::Frame(op, payload)) => (op, payload),
            Ok(ReadFrame::Eof) => return Ok(Done::Closed),
            Ok(ReadFrame::Shutdown) => {
                let _ = enqueue(tx, signals, &Response::Error(RemoteError {
                    code: code::SHUTTING_DOWN,
                    retryable: true,
                    message: "server shutting down".into(),
                }));
                return Ok(Done::Shutdown);
            }
            // Framing broke (bad magic/version/length): the stream is no
            // longer self-synchronizing. Nothing sane to reply onto it.
            Err(e) => return Err(e),
        };

        let request = match Request::decode(op, &payload) {
            Ok(request) => request,
            Err(e) => {
                // The frame layer was intact (we consumed exactly the
                // advertised payload), so the stream is still synchronized:
                // reply with the typed failure and keep serving.
                let ok = enqueue(tx, signals, &Response::Error(RemoteError {
                    code: code::BAD_REQUEST,
                    retryable: false,
                    message: e.to_string(),
                }));
                if !ok {
                    return Ok(Done::Closed);
                }
                continue;
            }
        };

        let (response, close) = handle_request(service, auth, signals, &mut identity, &request);
        if !enqueue(tx, signals, &response) || close {
            return Ok(Done::Closed);
        }
        // Only now, with the ack queued ahead of them, wake the long-polls
        // (see the module doc for why not earlier).
        if matches!(response, Response::AppendOk { standing_fired: 1.., .. } | Response::StandingOk { fired: 1.. }) {
            signals.publish();
        }
    }
}

fn remote(code: u16, retryable: bool, message: impl Into<String>) -> Response {
    Response::Error(RemoteError { code, retryable, message: message.into() })
}

fn privid_err(e: &PrividError) -> Response {
    Response::Error(RemoteError::from_privid(e))
}

/// Dispatch one decoded request. Returns the response and whether the
/// connection must close afterwards (auth failures close; everything else
/// keeps the connection).
fn handle_request(
    service: &QueryService,
    auth: &AuthRegistry,
    signals: &Signals,
    identity: &mut Option<Identity>,
    request: &Request<'_>,
) -> (Response, bool) {
    // Hello is the only pre-auth request.
    if let Request::Hello { token } = request {
        return match auth.lookup(token) {
            Some(id) => {
                *identity = Some(id.clone());
                (Response::HelloOk { tenant: id.tenant.clone() }, false)
            }
            None => (remote(code::AUTH_FAILED, false, "unrecognised token"), true),
        };
    }
    let Some(id) = identity.as_ref() else {
        return (remote(code::AUTH_REQUIRED, false, "authenticate with Hello first"), false);
    };

    // Budget reads are owner-plane too: a camera's remaining ε encodes what
    // every analyst spent on it — a cross-tenant side channel if any
    // analyst could read it.
    let owner_only = matches!(
        request,
        Request::RegisterCamera { .. }
            | Request::RegisterLiveCamera { .. }
            | Request::AppendFrames { .. }
            | Request::RemainingBudget { .. }
    );
    if owner_only && id.role != Role::Owner {
        return (remote(code::FORBIDDEN, false, "owner-plane operation requires an owner token"), false);
    }

    let response = match request {
        // Already dispatched pre-auth; kept total so a refactor that moves
        // the early return can never turn this arm into a panic.
        Request::Hello { .. } => remote(code::BAD_REQUEST, false, "Hello already handled"),
        Request::RegisterCamera { name, kind, duration_secs, seed, rho_secs, k, epsilon } => {
            register_camera(service, name, *kind, *duration_secs, *seed, *rho_secs, *k, *epsilon)
        }
        Request::RegisterLiveCamera { name, fps, width, height, rho_secs, k, epsilon } => {
            match validate_policy(*rho_secs, *k, *epsilon).and_then(|policy| {
                if !(fps.is_finite() && *fps > 0.0) {
                    return Err(PrividError::Invalid(format!("frame rate must be positive, got {fps}")));
                }
                service.register_live_camera(*name, FrameRate::new(*fps), FrameSize::new(*width, *height), policy)
            }) {
                Ok(()) => Response::Done,
                Err(e) => privid_err(&e),
            }
        }
        Request::AppendFrames { camera, duration_secs, walkers } => {
            match build_batch(*duration_secs, walkers).and_then(|batch| service.append_frames(camera, batch)) {
                Ok(outcome) => Response::AppendOk {
                    live_edge_secs: outcome.live_edge_secs,
                    standing_fired: outcome.standing_fired as u64,
                },
                Err(e) => privid_err(&e),
            }
        }
        Request::SubmitQuery { seed, text } => {
            // The tenant quota gates this at admission: over-quota requests
            // are refused before execution and debit nothing.
            match service.execute_text_as(&id.tenant, *seed, text) {
                Ok(result) => Response::QueryOk(result),
                Err(e) => privid_err(&e),
            }
        }
        Request::RegisterStanding { name, base_seed, text } => {
            // Registration claims the name for this tenant; every firing
            // then debits the tenant's ε quota at admission, exactly like a
            // SubmitQuery — standing queries are not a quota bypass.
            match service.register_standing_query_as(&id.tenant, *name, *base_seed, text) {
                Ok(fired) => Response::StandingOk { fired: fired as u64 },
                Err(e) => privid_err(&e),
            }
        }
        Request::PollStanding { name, cursor } => {
            match service.standing_results_since_as(&id.tenant, name, *cursor) {
                Some(poll) => Response::PollOk(WirePoll::from_core(&poll)),
                None => unknown_standing(name),
            }
        }
        Request::StreamFirings { name, cursor, max_wait_ms } => {
            stream_firings(service, signals, &id.tenant, name, *cursor, *max_wait_ms)
        }
        Request::RemainingBudget { camera, at_secs } => {
            Response::BudgetOk { remaining: service.remaining_budget(camera, *at_secs) }
        }
        Request::Ping { nonce } => Response::Pong { nonce: *nonce },
    };
    (response, false)
}

/// The uniform refusal for a standing-query name this tenant may not read:
/// missing and other-tenant names answer identically, so a poll cannot be
/// used to probe which names other tenants have registered.
fn unknown_standing(name: &str) -> Response {
    remote(code::UNKNOWN_STANDING_QUERY, false, format!("no standing query named {name}"))
}

fn clamped_wait(max_wait_ms: u32) -> Duration {
    Duration::from_millis(u64::from(max_wait_ms.min(MAX_STREAM_WAIT_MS)))
}

/// Long-poll: return as soon as a firing past `cursor` exists, else when
/// `max_wait_ms` (clamped to [`MAX_STREAM_WAIT_MS`]) elapses (with whatever
/// the final poll shows), else when the server shuts down. Between polls it
/// parks on the firing signal; the [`TICK`] timeout is only the net under
/// firings published without a signal (in-process appends).
fn stream_firings(
    service: &QueryService,
    signals: &Signals,
    tenant: &str,
    name: &str,
    cursor: u64,
    max_wait_ms: u32,
) -> Response {
    let deadline = Instant::now() + clamped_wait(max_wait_ms);
    loop {
        // Read before polling: a firing published after this poll moves the
        // generation, and `wait_past` then returns without parking.
        let seen = signals.generation();
        let Some(poll) = service.standing_results_since_as(tenant, name, cursor) else {
            return unknown_standing(name);
        };
        let remaining = deadline.saturating_duration_since(Instant::now());
        if !poll.firings.is_empty() || remaining.is_zero() {
            return Response::PollOk(WirePoll::from_core(&poll));
        }
        if signals.is_shutdown() {
            return remote(code::SHUTTING_DOWN, true, "server shutting down");
        }
        signals.wait_past(seen, TICK.min(remaining));
    }
}

fn validate_policy(rho_secs: f64, k: u32, epsilon: f64) -> Result<PrivacyPolicy, PrividError> {
    if !(rho_secs.is_finite() && rho_secs > 0.0) {
        return Err(PrividError::Invalid(format!("policy rho must be positive and finite, got {rho_secs}")));
    }
    if k == 0 {
        return Err(PrividError::Invalid("policy K must be at least 1".into()));
    }
    if !(epsilon.is_finite() && epsilon >= 0.0) {
        return Err(PrividError::Invalid(format!("policy epsilon must be non-negative and finite, got {epsilon}")));
    }
    Ok(PrivacyPolicy::new(rho_secs, k, epsilon))
}

/// Expand a wire registration into a deterministic synthetic scene. The
/// same `(kind, duration, seed)` triple generates bit-identical footage
/// here and in any in-process harness — that determinism is what the
/// differential tests lean on.
#[allow(clippy::too_many_arguments)]
fn register_camera(
    service: &QueryService,
    name: &str,
    kind: SceneKind,
    duration_secs: f64,
    seed: u64,
    rho_secs: f64,
    k: u32,
    epsilon: f64,
) -> Response {
    let policy = match validate_policy(rho_secs, k, epsilon) {
        Ok(policy) => policy,
        Err(e) => return privid_err(&e),
    };
    if !(duration_secs.is_finite() && duration_secs > 0.0 && duration_secs <= MAX_SCENE_SECS) {
        return privid_err(&PrividError::Invalid(format!(
            "scene duration must be in (0, {MAX_SCENE_SECS}] seconds, got {duration_secs}"
        )));
    }
    let config = match kind {
        SceneKind::Campus => SceneConfig::campus(),
        SceneKind::Highway => SceneConfig::highway(),
        SceneKind::Urban => SceneConfig::urban(),
    }
    .with_duration_hours(duration_secs / 3600.0)
    .with_seed(seed);
    let scene = SceneGenerator::new(config).generate();
    match service.register_camera(name, scene, policy) {
        Ok(()) => Response::Done,
        Err(e) => privid_err(&e),
    }
}

/// Expand wire walker specs into the tracked objects of a frame batch.
/// Validation happens *here*, before any constructor that asserts: hostile
/// spans are typed errors, not server panics.
fn build_batch(duration_secs: f64, walkers: &[WalkerSpec]) -> Result<FrameBatch, PrividError> {
    if !(duration_secs.is_finite() && duration_secs > 0.0) {
        return Err(PrividError::Invalid(format!("batch duration must be positive and finite, got {duration_secs}")));
    }
    let mut objects = Vec::with_capacity(walkers.len());
    for w in walkers {
        if !(w.start_secs.is_finite() && w.end_secs.is_finite() && 0.0 <= w.start_secs && w.start_secs < w.end_secs)
        {
            return Err(PrividError::Invalid(format!(
                "walker {} span [{}, {}) must be finite, non-negative and non-empty",
                w.id, w.start_secs, w.end_secs
            )));
        }
        let class = match w.class {
            privid_wire::WalkerClass::Person => ObjectClass::Person,
            privid_wire::WalkerClass::Car => ObjectClass::Car,
        };
        objects.push(TrackedObject::new(
            ObjectId(w.id),
            class,
            Attributes::default(),
            vec![PresenceSegment {
                span: TimeSpan::between_secs(w.start_secs, w.end_secs),
                trajectory: Trajectory::linear(Point::new(0.0, 50.0), Point::new(100.0, 50.0), 5.0, 10.0),
            }],
        ));
    }
    Ok(FrameBatch::new(duration_secs, objects))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_long_poll_wait_is_clamped_to_the_server_ceiling() {
        assert_eq!(clamped_wait(0), Duration::ZERO);
        assert_eq!(clamped_wait(200), Duration::from_millis(200));
        assert_eq!(clamped_wait(MAX_STREAM_WAIT_MS + 1), Duration::from_secs(30));
        assert_eq!(clamped_wait(u32::MAX), Duration::from_secs(30));
    }

    #[test]
    fn a_connection_accepted_after_the_flag_gets_no_handler() {
        let mut server = Server::start(Arc::new(QueryService::new()), ServerConfig::new(Vec::new())).unwrap();
        server.signals.shutdown.store(true, Ordering::SeqCst);
        // A straggler, not `stop`'s own wake-up: the accept thread must drop
        // it and exit rather than spawn a handler for it.
        let _straggler = TcpStream::connect(server.addr()).unwrap();
        server.accept.take().unwrap().join().unwrap();
        assert!(server.conns.lock().unwrap().is_empty());
    }
}
