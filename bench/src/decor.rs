//! The two public decorator seams the benchmark times layers through:
//! [`ModelDisk`] over the store's `Vfs`, [`MeteredProcessor`] around the
//! registered `ChunkProcessor`.
//!
//! Both always count (relaxed atomics — a few nanoseconds against operations
//! of tens of microseconds); they record spans only when given a [`Sink`],
//! which only the traced pass does.

use crate::trace::{Name, Sink};
use privid::query::Value;
use privid::{ChunkProcessor, ChunkView, StdVfs, Vfs, VfsFile};
use std::io::{self, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one modelled device sync costs. A real `fsync` on the development
/// VM's disk moved `durable_commit` between 5.9k and 7.1k q/s from one run to
/// the next; a fixed cost makes the WAL's own behaviour (group commit,
/// checkpoints) the thing that is measured.
pub const SYNC_COST: Duration = Duration::from_micros(200);

/// End an operation that began at `start`: one clock read serves both the
/// counter (the returned nanoseconds) and, when tracing, the span.
fn stamp(sink: &Option<Arc<Sink>>, name: Name, start: Instant) -> u64 {
    let end = Instant::now();
    if let Some(sink) = sink {
        sink.record(name, start, end);
    }
    (end - start).as_nanos() as u64
}

/// Counters of a [`ModelDisk`]; read two snapshots and subtract.
#[derive(Debug, Default, Clone, Copy)]
pub struct DiskCounts {
    /// `write_all` calls.
    pub writes: u64,
    /// Bytes written.
    pub bytes: u64,
    /// Nanoseconds inside `write_all`.
    pub write_ns: u64,
    /// `sync_data` + `sync_all` + `sync_dir` calls.
    pub syncs: u64,
    /// Nanoseconds inside those.
    pub sync_ns: u64,
    /// Snapshots renamed into place.
    pub checkpoints: u64,
    /// Bytes written to snapshot files.
    pub checkpoint_bytes: u64,
}

impl DiskCounts {
    /// Field-wise `self − earlier`.
    pub fn since(&self, earlier: &DiskCounts) -> DiskCounts {
        DiskCounts {
            writes: self.writes - earlier.writes,
            bytes: self.bytes - earlier.bytes,
            write_ns: self.write_ns - earlier.write_ns,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
            checkpoints: self.checkpoints - earlier.checkpoints,
            checkpoint_bytes: self.checkpoint_bytes - earlier.checkpoint_bytes,
        }
    }
}

#[derive(Debug, Default)]
struct DiskMeter {
    writes: AtomicU64,
    bytes: AtomicU64,
    write_ns: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_bytes: AtomicU64,
    sink: Option<Arc<Sink>>,
}

impl DiskMeter {
    /// The modelled device: a sync is a fixed wait, not a call into the host's
    /// disk. Files still go through `StdVfs` (the page cache), so restart
    /// recovery reads back exactly what was written.
    fn sync(&self) -> io::Result<()> {
        let start = Instant::now();
        std::thread::sleep(SYNC_COST);
        self.syncs.fetch_add(1, Relaxed);
        self.sync_ns
            .fetch_add(stamp(&self.sink, Name::StoreSync, start), Relaxed);
        Ok(())
    }
}

/// `StdVfs` with every sync replaced by a fixed [`SYNC_COST`] wait, counting
/// and timing each write and sync.
#[derive(Debug)]
pub struct ModelDisk {
    meter: Arc<DiskMeter>,
}

impl ModelDisk {
    /// A device; spans go to `sink` when there is one.
    pub fn new(sink: Option<Arc<Sink>>) -> Arc<ModelDisk> {
        Arc::new(ModelDisk {
            meter: Arc::new(DiskMeter {
                sink,
                ..DiskMeter::default()
            }),
        })
    }

    /// The counters now.
    pub fn counts(&self) -> DiskCounts {
        let m = &self.meter;
        DiskCounts {
            writes: m.writes.load(Relaxed),
            bytes: m.bytes.load(Relaxed),
            write_ns: m.write_ns.load(Relaxed),
            syncs: m.syncs.load(Relaxed),
            sync_ns: m.sync_ns.load(Relaxed),
            checkpoints: m.checkpoints.load(Relaxed),
            checkpoint_bytes: m.checkpoint_bytes.load(Relaxed),
        }
    }

    fn wrap(&self, inner: Box<dyn VfsFile>, snapshot: bool) -> Box<dyn VfsFile> {
        Box::new(ModelFile {
            inner,
            meter: Arc::clone(&self.meter),
            snapshot,
        })
    }
}

struct ModelFile {
    inner: Box<dyn VfsFile>,
    meter: Arc<DiskMeter>,
    /// Opened with `create`: the WAL only does that for `snapshot.tmp`.
    snapshot: bool,
}

impl VfsFile for ModelFile {
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        self.inner.read_to_end(buf)
    }
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let m = &self.meter;
        let start = Instant::now();
        let result = self.inner.write_all(buf);
        m.writes.fetch_add(1, Relaxed);
        m.bytes.fetch_add(buf.len() as u64, Relaxed);
        m.write_ns
            .fetch_add(stamp(&m.sink, Name::StoreWrite, start), Relaxed);
        if self.snapshot {
            m.checkpoint_bytes.fetch_add(buf.len() as u64, Relaxed);
        }
        result
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.meter.sync()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.meter.sync()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

impl Vfs for ModelDisk {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        StdVfs.create_dir_all(path)
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(StdVfs.open_rw(path)?, false))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(StdVfs.create(path)?, true))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdVfs.rename(from, to)?;
        if to.file_name().is_some_and(|n| n == "snapshot.bin") {
            self.meter.checkpoints.fetch_add(1, Relaxed);
        }
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        StdVfs.remove_file(path)
    }
    fn exists(&self, path: &Path) -> bool {
        StdVfs.exists(path)
    }
    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        self.meter.sync()
    }
}

/// Counters of the sandbox seam; read two snapshots and subtract.
#[derive(Debug, Default)]
pub struct SandboxMeter {
    /// Chunks handed to the processor.
    pub chunks: AtomicU64,
    /// Nanoseconds inside `ChunkProcessor::process`.
    pub process_ns: AtomicU64,
    sink: Option<Arc<Sink>>,
}

impl SandboxMeter {
    /// A meter; spans go to `sink` when there is one.
    pub fn new(sink: Option<Arc<Sink>>) -> Arc<SandboxMeter> {
        Arc::new(SandboxMeter {
            sink,
            ..SandboxMeter::default()
        })
    }

    /// `(chunks, process_ns)` now.
    pub fn counts(&self) -> (u64, u64) {
        (self.chunks.load(Relaxed), self.process_ns.load(Relaxed))
    }
}

/// The registered processor with a stopwatch around `process`.
pub struct MeteredProcessor {
    inner: Box<dyn ChunkProcessor>,
    meter: Arc<SandboxMeter>,
}

impl MeteredProcessor {
    /// Wrap `inner`, counting into `meter`.
    pub fn new(inner: Box<dyn ChunkProcessor>, meter: Arc<SandboxMeter>) -> Self {
        MeteredProcessor { inner, meter }
    }
}

impl ChunkProcessor for MeteredProcessor {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn process(&mut self, chunk: &ChunkView<'_>) -> Vec<Vec<Value>> {
        let m = &self.meter;
        let start = Instant::now();
        let rows = self.inner.process(chunk);
        m.chunks.fetch_add(1, Relaxed);
        m.process_ns
            .fetch_add(stamp(&m.sink, Name::SandboxProcess, start), Relaxed);
        rows
    }
    fn simulated_cost_secs(&self, chunk: &ChunkView<'_>) -> f64 {
        self.inner.simulated_cost_secs(chunk)
    }
}
