//! The server's waits are wake-ups, not ticks.
//!
//! What this suite pins: a `StreamFirings` long-poll answers with the append
//! that closes its window (not at its next tick, and never by sleeping
//! through a firing published between its poll and its wait); a fresh session
//! reaches its first release without waiting for an accept poll; `shutdown()`
//! and `Drop` are bounded whatever the peers are doing — parked, idle, or no
//! longer reading; and none of it changes a byte of what the long-poll
//! answers.
//!
//! The timing half (medians and counts over ≥ 21 trials) is ignored in debug
//! builds and runs under `cargo test --release`; the functional half runs in
//! both, bounded in medians over a few trials so one scheduling hiccup on a
//! shared machine is not a failure.

use privid_core::QueryService;
use privid_sandbox::{ChunkProcessor, UniqueEntrantProcessor};
use privid_server::{PrividClient, Server, ServerConfig, Token, MAX_STREAM_WAIT_MS};
use privid_video::FrameBatch;
use privid_wire::{code, decode_header, RemoteError, Request, Response, SceneKind, HEADER_LEN};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Mirrors the server's private `TICK`: the bounds below are stated in it.
const TICK: Duration = Duration::from_millis(25);

/// One standing window; every append below is one window long, so every
/// append closes exactly one.
const WINDOW_SECS: f64 = 10.0;

const LIVE_QUERY: &str = "
    SPLIT live BEGIN 0 END 10 BY TIME 10 sec STRIDE 0 sec INTO chunks;
    PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
        WITH SCHEMA (count:NUMBER=0) INTO people;
    SELECT COUNT(*) FROM people CONSUMING 0.01;";

const CAMPUS_QUERY: &str = "
    SPLIT campus BEGIN 0 END 300 BY TIME 10 sec STRIDE 0 sec INTO chunks;
    PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
        WITH SCHEMA (count:NUMBER=0) INTO people;
    SELECT COUNT(*) FROM people CONSUMING 0.01;";

fn base_service() -> Arc<QueryService> {
    let service = Arc::new(QueryService::new());
    service
        .register_processor("person_counter", || {
            Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
        })
        .expect("processor registration");
    service
}

fn config() -> ServerConfig {
    ServerConfig::new(vec![
        Token::owner("owner-secret", "ops"),
        Token::analyst("analyst-a-secret", "tenant-a"),
        Token::analyst("analyst-b-secret", "tenant-b"),
    ])
}

/// A server with live camera `live` and tenant-a's standing query `watch`.
fn live_server() -> (Arc<QueryService>, Server, PrividClient) {
    let service = base_service();
    let server = Server::start(Arc::clone(&service), config()).expect("server start");
    let addr = server.addr().to_string();
    let mut owner = PrividClient::connect(&addr, "owner-secret").expect("owner connect");
    owner.register_live_camera("live", 2.0, 100, 100, 20.0, 2, 1000.0).expect("live registration");
    let mut analyst = PrividClient::connect(&addr, "analyst-a-secret").expect("analyst connect");
    assert_eq!(analyst.register_standing("watch", 3, LIVE_QUERY).expect("standing registration"), 0);
    (service, server, owner)
}

/// A connection that can have a request in flight while the test does
/// something else — `PrividClient` is strictly call-and-wait. Reads fail
/// after 10 s instead of hanging the suite.
struct Raw {
    stream: TcpStream,
}

impl Raw {
    fn connect(server: &Server, token: &str) -> Raw {
        let stream = TcpStream::connect(server.addr()).expect("tcp connect");
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut raw = Raw { stream };
        raw.send(&Request::Hello { token });
        assert!(matches!(raw.recv(), Response::HelloOk { .. }));
        raw
    }

    fn send(&mut self, request: &Request<'_>) {
        let mut frame = Vec::new();
        request.encode(&mut frame).unwrap();
        self.stream.write_all(&frame).expect("request write");
    }

    /// The next response frame, as bytes: opcode and payload.
    fn recv_bytes(&mut self) -> (u8, Vec<u8>) {
        let mut header = [0u8; HEADER_LEN];
        self.stream.read_exact(&mut header).expect("response header");
        let header = decode_header(&header).expect("well-formed header");
        let mut payload = vec![0u8; header.len as usize];
        self.stream.read_exact(&mut payload).expect("response payload");
        (header.opcode, payload)
    }

    fn recv(&mut self) -> Response {
        let (op, payload) = self.recv_bytes();
        Response::decode(op, &payload).expect("response decodes")
    }
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// `rounds` times: issue a long-poll on `watch`, optionally let it park,
/// close one window with a wire append, and measure from that append's ack
/// to the long-poll's answer. Every firing must arrive exactly once, in
/// order.
fn lags_after_ack(rounds: usize, settle: Option<Duration>) -> Vec<Duration> {
    let (_service, server, mut owner) = live_server();
    let mut subscriber = Raw::connect(&server, "analyst-a-secret");
    let mut cursor = 0;
    let mut lags = Vec::with_capacity(rounds);
    for round in 0..rounds {
        subscriber.send(&Request::StreamFirings { name: "watch", cursor, max_wait_ms: 5_000 });
        if let Some(settle) = settle {
            thread::sleep(settle);
        }
        let (_, fired) = owner.append_frames("live", WINDOW_SECS, Vec::new()).expect("append");
        let acked = Instant::now();
        assert_eq!(fired, 1, "round {round}: one window closed");
        let Response::PollOk(poll) = subscriber.recv() else { panic!("round {round}: expected a poll") };
        lags.push(acked.elapsed());
        assert_eq!(poll.firings.len(), 1, "round {round}: exactly the new firing");
        assert_eq!(poll.next_cursor, cursor + 1, "round {round}: in order, none skipped");
        cursor = poll.next_cursor;
    }
    server.shutdown();
    lags
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn a_parked_long_poll_answers_with_the_append_that_closes_its_window() {
    let lags = lags_after_ack(31, Some(Duration::from_millis(3)));
    let median = median(lags);
    assert!(median < TICK / 2, "median lag from the append's ack to the firing was {median:?}");
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn a_firing_published_between_poll_and_wait_is_not_slept_through() {
    // No settling: the append races the long-poll's own poll, so its signal
    // lands before, between and after "polled, found nothing" and "parked".
    let lags = lags_after_ack(200, None);
    let late = lags.iter().filter(|lag| **lag >= TICK / 2).count();
    assert!(late <= 2, "{late} of 200 long-polls waited out a tick (worst {:?})", lags.iter().max());
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn a_fresh_session_reaches_its_first_release_without_an_accept_tick() {
    let service = base_service();
    let server = Server::start(Arc::clone(&service), config()).expect("server start");
    let addr = server.addr().to_string();
    let mut owner = PrividClient::connect(&addr, "owner-secret").expect("owner connect");
    owner.register_camera("campus", SceneKind::Campus, 600.0, 7, 60.0, 2, 100.0).expect("camera");
    owner.submit_query(0, CAMPUS_QUERY).expect("warm the chunk cache");

    let firsts = (1..=31)
        .map(|seed| {
            let start = Instant::now();
            let mut analyst = PrividClient::connect(&addr, "analyst-a-secret").expect("connect");
            analyst.submit_query(seed, CAMPUS_QUERY).expect("first query");
            start.elapsed()
        })
        .collect();
    let median = median(firsts);
    assert!(median < Duration::from_millis(5), "median connect → Hello → SubmitQuery → release was {median:?}");
    server.shutdown();
}

#[test]
fn a_firing_from_an_in_process_append_still_reaches_a_parked_long_poll() {
    let (service, server, _owner) = live_server();
    let mut subscriber = Raw::connect(&server, "analyst-a-secret");
    subscriber.send(&Request::StreamFirings { name: "watch", cursor: 0, max_wait_ms: 5_000 });
    thread::sleep(Duration::from_millis(5));
    // Behind the server's back: no connection acks this, so nothing raises
    // the signal — the long-poll's tick is what finds the firing.
    let outcome = service.append_frames("live", FrameBatch::new(WINDOW_SECS, Vec::new())).expect("append");
    let appended = Instant::now();
    assert_eq!(outcome.standing_fired, 1);
    let Response::PollOk(poll) = subscriber.recv() else { panic!("expected a poll") };
    let lag = appended.elapsed();
    assert_eq!(poll.firings.len(), 1);
    assert!(lag < TICK + Duration::from_millis(75), "unsignalled firing took {lag:?}, the fallback tick is {TICK:?}");
    server.shutdown();
}

#[test]
fn long_polls_that_must_not_park_answer_at_once_with_the_same_bytes_as_ever() {
    let (_service, server, mut owner) = live_server();
    owner.append_frames("live", WINDOW_SECS, Vec::new()).expect("append");
    let unknown = |name: &str| {
        let mut frame = Vec::new();
        Response::Error(RemoteError {
            code: code::UNKNOWN_STANDING_QUERY,
            retryable: false,
            message: format!("no standing query named {name}"),
        })
        .encode(&mut frame)
        .unwrap();
        frame.split_off(HEADER_LEN)
    };
    let start = Instant::now();

    // Another tenant's name and a name nobody registered: the same refusal,
    // immediately, however long the caller offered to wait.
    let mut other = Raw::connect(&server, "analyst-b-secret");
    for name in ["watch", "nope"] {
        other.send(&Request::StreamFirings { name, cursor: 0, max_wait_ms: MAX_STREAM_WAIT_MS });
        let (_, payload) = other.recv_bytes();
        assert_eq!(payload, unknown(name), "long-poll on {name:?} as another tenant");
    }

    // `max_wait_ms = 0` is a plain poll, caught up or not.
    let mut analyst = Raw::connect(&server, "analyst-a-secret");
    for cursor in [0, 1] {
        analyst.send(&Request::PollStanding { name: "watch", cursor });
        let polled = analyst.recv_bytes();
        analyst.send(&Request::StreamFirings { name: "watch", cursor, max_wait_ms: 0 });
        assert_eq!(analyst.recv_bytes(), polled, "zero-wait long-poll at cursor {cursor}");
    }

    // A caught-up long-poll waits out what it asked for, and only that.
    analyst.send(&Request::StreamFirings { name: "watch", cursor: 1, max_wait_ms: 40 });
    let asked = Instant::now();
    let Response::PollOk(poll) = analyst.recv() else { panic!("expected a poll") };
    assert!(poll.firings.is_empty());
    assert!(asked.elapsed() >= Duration::from_millis(40), "returned empty before its wait was up");

    assert!(start.elapsed() < Duration::from_secs(2), "something parked: {:?}", start.elapsed());
    server.shutdown();
}

/// Median over a few trials of how long `shutdown()` (or a drop) took.
fn median_stop(trials: usize, trial: impl Fn() -> Duration) -> Duration {
    median((0..trials).map(|_| trial()).collect())
}

#[test]
fn shutdown_does_not_wait_for_a_parked_long_poll_or_an_idle_connection() {
    let stop = median_stop(5, || {
        let (_service, server, _owner) = live_server();
        let addr = server.addr().to_string();
        let _idle = PrividClient::connect(&addr, "analyst-b-secret").expect("idle connect");
        let mut parked = Raw::connect(&server, "analyst-a-secret");
        parked.send(&Request::StreamFirings { name: "watch", cursor: 0, max_wait_ms: MAX_STREAM_WAIT_MS });
        thread::sleep(Duration::from_millis(5));

        let start = Instant::now();
        server.shutdown();
        let took = start.elapsed();
        match parked.recv() {
            Response::Error(e) => {
                assert_eq!(e.code, code::SHUTTING_DOWN);
                assert!(e.retryable, "a long-poll cut short by shutdown may be retried elsewhere");
            }
            other => panic!("a parked long-poll must answer SHUTTING_DOWN, got {other:?}"),
        }
        took
    });
    assert!(stop <= 4 * TICK, "shutdown took {stop:?} with a 30 s long-poll parked");
}

#[test]
fn shutdown_wakes_an_accept_thread_nobody_ever_connected_to() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0", "[::]:0"] {
        let start = || Server::bind(bind, base_service(), config());
        if start().is_err() {
            // This host has no such address family; nothing to wake.
            continue;
        }
        let stop = median_stop(3, || {
            let server = start().expect("bind");
            let begin = Instant::now();
            server.shutdown();
            begin.elapsed()
        });
        assert!(stop <= 2 * TICK, "shutdown of a never-used server on {bind} took {stop:?}");
    }
}

#[test]
fn dropping_a_server_is_a_shutdown() {
    let server = Server::start(base_service(), config()).expect("server start");
    let mut client = PrividClient::connect(&server.addr().to_string(), "analyst-a-secret").expect("connect");
    client.ping(1).expect("live before the drop");
    let begin = Instant::now();
    drop(server);
    let took = begin.elapsed();
    // The handler was told and joined, not leaked with its accept thread.
    assert!(client.ping(2).is_err(), "a dropped server still answers");
    assert!(took <= 4 * TICK, "dropping the server took {took:?}");
}

#[test]
fn shutdown_is_bounded_when_a_peer_has_stopped_reading() {
    let server = Server::start(base_service(), config()).expect("server start");
    let mut deaf = Raw::connect(&server, "analyst-a-secret");
    // Ask without ever reading the answers until our own writes stall for
    // good: by then the server's writer thread is stuck in `write` on a full
    // socket, its queue is full behind it, and its handler has stopped
    // reading. The refusal echoes the name, so every 64 KiB asked is 64 KiB
    // the server must write back; and the stall must outlast the handler's
    // full-queue retries (a tick each), which only slow the reading down.
    let name = "n".repeat(64 * 1024);
    let mut ask = Vec::new();
    Request::PollStanding { name: &name, cursor: 0 }.encode(&mut ask).unwrap();
    deaf.stream.set_write_timeout(Some(10 * TICK)).unwrap();
    let mut sent = 0;
    let stalled = (0..100_000).any(|_| match deaf.stream.write(&ask[sent % ask.len()..]) {
        Ok(n) => {
            sent += n;
            false
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => true,
        Err(e) => panic!("asking failed after {sent} bytes: {e}"),
    });
    assert!(stalled, "the connection never backed up ({sent} bytes sent)");

    let start = Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?} behind a peer that stopped reading");
}
