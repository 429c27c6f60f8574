//! Spans: who was busy when, and for whom.
//!
//! The traced run records one span per layer boundary the benchmark can see
//! from outside the program — the stages of its own client and the two public
//! decorator seams (`Vfs`, `ChunkProcessor`). Spans stay in memory while the
//! clock runs and are written out when the run ends. A layer's *self time* is
//! its span's duration minus the part of that interval its children cover.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Span names, fixed so a span is 40 bytes and recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// One query, client encode → decoded release.
    Query,
    /// One append, client encode → decoded acknowledgement.
    Append,
    /// `Request::encode` on the client.
    ClientEncode,
    /// `net::write_frame` on the client.
    ClientWrite,
    /// Write done → response frame read: transport both ways plus everything
    /// the server does. The decorator spans are its children.
    ClientWait,
    /// `Response::decode` on the client.
    ClientDecode,
    /// One chunk through the registered `ChunkProcessor`.
    SandboxProcess,
    /// One `write_all` on a store file.
    StoreWrite,
    /// One `sync_data` / `sync_all` / `sync_dir` on the store.
    StoreSync,
}

impl Name {
    /// The name as written to the trace file and the self-time table.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Query => "query",
            Name::Append => "append",
            Name::ClientEncode => "client.encode",
            Name::ClientWrite => "client.write",
            Name::ClientWait => "client.wait",
            Name::ClientDecode => "client.decode",
            Name::SandboxProcess => "sandbox.process",
            Name::StoreWrite => "store.write",
            Name::StoreSync => "store.sync",
        }
    }
}

/// One recorded interval. `id` 0 means "not assigned yet", `parent` 0 "none";
/// spans of one request share `req` (the id of the request's root span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within a trace, 1-based.
    pub id: u32,
    /// The span that caused this one, or 0.
    pub parent: u32,
    /// Request identifier shared by every span of one request, or 0.
    pub req: u32,
    /// Which boundary this is.
    pub name: Name,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where the decorators put their spans: they run on the server's threads and
/// know nothing of requests, so their spans arrive unparented.
#[derive(Debug)]
pub struct Sink {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Sink {
    /// A sink whose clock starts now.
    pub fn new() -> Self {
        Sink {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 20)),
        }
    }

    /// The instant every span of this trace is counted from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Record an unparented decorator span.
    pub fn record(&self, name: Name, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id: 0,
            parent: 0,
            req: 0,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking decorator")
            .push(span);
    }

    /// Take everything recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span sink poisoned by a panicking decorator"),
        )
    }
}

/// Merge the spans of every client connection and of the decorators into
/// one trace. Each connection numbered its spans from 1; they are shifted
/// here so ids are unique, 1-based and dense. Decorator spans are parented by
/// time containment — each becomes a child of the latest-starting
/// [`Name::ClientWait`] span whose interval contains it (with one connection
/// requests never overlap, so this is exact; on `live_standing` a store write
/// during an append that overlaps a subscriber's query goes to whichever
/// started last).
pub fn assemble(connections: Vec<Vec<Span>>, mut decorators: Vec<Span>) -> Vec<Span> {
    let mut all: Vec<Span> =
        Vec::with_capacity(connections.iter().map(Vec::len).sum::<usize>() + decorators.len());
    for spans in connections {
        let shift = all.len() as u32;
        all.extend(spans.into_iter().map(|s| Span {
            id: s.id + shift,
            parent: if s.parent == 0 { 0 } else { s.parent + shift },
            req: s.req + shift,
            ..s
        }));
    }
    let mut waits: Vec<(u64, u64, u32, u32)> = all
        .iter()
        .filter(|s| s.name == Name::ClientWait)
        .map(|s| (s.start_ns, s.end_ns, s.id, s.req))
        .collect();
    waits.sort_unstable();
    decorators.sort_unstable_by_key(|s| s.start_ns);
    for span in &mut decorators {
        span.id = all.len() as u32 + 1;
        let upto = waits.partition_point(|w| w.0 <= span.start_ns);
        // A handful of waits can be open at once (one per connection).
        if let Some(w) = waits[..upto]
            .iter()
            .rev()
            .take(8)
            .find(|w| w.1 >= span.end_ns)
        {
            span.parent = w.2;
            span.req = w.3;
        }
        all.push(*span);
    }
    all
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (`(start, end)` pairs, any order, possibly overlapping or sticking out).
pub fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut cursor) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Per span name: `(count, total duration ns, total self ns)`, names in enum order.
pub fn self_times(spans: &[Span]) -> Vec<(Name, u64, u64, u64)> {
    let max_id = spans.iter().map(|s| s.id).max().unwrap_or(0) as usize;
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); max_id + 1];
    for s in spans {
        if s.parent != 0 {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut table: Vec<(Name, u64, u64, u64)> = Vec::new();
    for s in spans {
        let own = s.duration() - covered_ns(s.start_ns, s.end_ns, &mut children[s.id as usize]);
        match table.iter_mut().find(|row| row.0 == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += s.duration();
                row.3 += own;
            }
            None => table.push((s.name, 1, s.duration(), own)),
        }
    }
    table.sort_unstable_by_key(|row| row.0);
    table
}

/// The spans as a JSON array of `{id, parent, req, name, start_ns, end_ns}`.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.id,
            s.parent,
            s.req,
            s.name.as_str(),
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, req: u32, name: Name, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn coverage_is_the_union_clipped_to_the_parent() {
        // Two overlapping children and one sticking out past the end.
        assert_eq!(
            covered_ns(100, 200, &mut [(110, 130), (120, 150), (190, 260)]),
            40 + 10
        );
        // A child entirely outside covers nothing; no children cover nothing.
        assert_eq!(covered_ns(100, 200, &mut [(10, 50), (300, 400)]), 0);
        assert_eq!(covered_ns(100, 200, &mut []), 0);
        // A child covering everything leaves no self time.
        assert_eq!(covered_ns(100, 200, &mut [(0, 1000)]), 100);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(1, 0, 1, Name::Query, 0, 1000),
            span(2, 1, 1, Name::ClientEncode, 0, 100),
            span(3, 1, 1, Name::ClientWait, 150, 900),
            span(4, 3, 1, Name::SandboxProcess, 200, 400),
            span(5, 3, 1, Name::SandboxProcess, 400, 700),
        ];
        let table = self_times(&spans);
        let row = |n: Name| *table.iter().find(|r| r.0 == n).expect("row present");
        assert_eq!(row(Name::Query), (Name::Query, 1, 1000, 1000 - 100 - 750));
        assert_eq!(row(Name::ClientWait), (Name::ClientWait, 1, 750, 250));
        assert_eq!(
            row(Name::SandboxProcess),
            (Name::SandboxProcess, 2, 500, 500)
        );
        // Self times of a request's spans add up to the request.
        assert_eq!(table.iter().map(|r| r.3).sum::<u64>(), 1000);
    }

    #[test]
    fn decorator_spans_are_parented_by_containment() {
        // Two connections, each numbering its own spans from 1.
        let client = vec![
            vec![
                span(1, 0, 1, Name::Query, 0, 100),
                span(2, 1, 1, Name::ClientWait, 10, 90),
            ],
            vec![
                span(1, 0, 1, Name::Query, 100, 200),
                span(2, 1, 1, Name::ClientWait, 110, 190),
            ],
        ];
        let decorators = vec![
            span(0, 0, 0, Name::StoreSync, 120, 180),
            span(0, 0, 0, Name::StoreWrite, 20, 30),
            span(0, 0, 0, Name::StoreSync, 95, 105), // between requests: nobody's child
        ];
        let all = assemble(client, decorators);
        assert_eq!(all.len(), 7);
        let write = all
            .iter()
            .find(|s| s.name == Name::StoreWrite)
            .expect("write span");
        assert_eq!((write.parent, write.req), (2, 1));
        let syncs: Vec<_> = all.iter().filter(|s| s.name == Name::StoreSync).collect();
        assert_eq!(
            (syncs[0].parent, syncs[0].req),
            (0, 0),
            "the orphan sorts first"
        );
        assert_eq!(
            (syncs[1].parent, syncs[1].req),
            (4, 3),
            "the second connection's ids were shifted by two"
        );
        assert_eq!(all[3].parent, 3);
        let mut ids: Vec<u32> = all.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=7).collect::<Vec<_>>());
    }

    #[test]
    fn json_has_the_six_keys() {
        let json = to_json(&[span(1, 0, 7, Name::Query, 5, 9)]);
        assert_eq!(json, "[\n{\"id\":1,\"parent\":0,\"req\":7,\"name\":\"query\",\"start_ns\":5,\"end_ns\":9}\n]\n");
    }
}
