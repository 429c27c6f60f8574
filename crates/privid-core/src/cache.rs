//! The cross-query chunk-result cache.
//!
//! The PROCESS stage — running every chunk through a sandboxed processor —
//! dominates end-to-end query latency, and analysts frequently re-issue the
//! same PROCESS prolog with different SELECTs (different aggregations,
//! different ε, a GROUP BY added). Re-executing the sandbox for those is pure
//! waste: chunk execution is a deterministic function of the recording, the
//! chunk geometry, the mask and the processor, so its output can be reused.
//!
//! **Why caching raw tables is DP-safe.** The cached values are the *raw*
//! sandbox outputs, which never leave the video owner's trust domain. Privid
//! applies Laplace noise at release time — after aggregation, per release —
//! and debits the privacy budget per admitted query, regardless of whether
//! the intermediate table came from the sandbox or the cache. Serving a
//! cached table therefore changes neither the released distribution nor the
//! accounting: the analyst sees exactly what a fresh execution (same seed)
//! would have produced, at a fraction of the cost.
//!
//! Keys cover everything that influences sandbox output: camera, window,
//! chunk spec, mask, region scheme, processor name, and the sandbox spec
//! (timeout / max rows / schema). Re-registering a camera, mask or processor
//! under an existing name invalidates the affected entries.
//!
//! **The live-edge invalidation rule.** For a *live* camera the recording is
//! append-only, which splits cached entries into two classes:
//!
//! * **Closed-window entries** — the PROCESS window ended at or before the
//!   live edge when the entry was computed. Footage before the edge never
//!   changes, so these entries are valid *forever*: appends leave them warm,
//!   and analysts replaying yesterday's windows keep hitting them.
//! * **Live-edge-overlapping entries** — the window extended past the edge,
//!   so the trailing chunks were (partially) empty. Such entries are tagged
//!   with the live edge they were computed at ([`ChunkCacheKey`]'s
//!   `live_edge_micros`), which makes them unreachable the moment the edge
//!   advances — a session that resolved the camera after an append computes a
//!   different tag, so a racing insert of an outdated table can never be
//!   served to it. [`ChunkResultCache::invalidate_live_edge`] (called on every
//!   append) then reclaims their space eagerly.
//!
//! **Crash recovery.** The cache is deliberately *not* persisted: entries are
//! pure recomputable sandbox output, and a restarted service simply starts
//! cold. What recovery does restore is the registration **generation
//! counter** (seeded past every generation the WAL ever logged), so keys
//! minted after a restart can never alias keys from before it — even though
//! an aliased hit would merely have been a stale-but-identical raw table, the
//! invariant keeps the re-registration invalidation story airtight.

use privid_query::Table;
use privid_video::{ChunkSpec, Seconds, TimeSpan};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The materialized table of one PROCESS statement: chunk outputs appended in
/// deterministic (chunk, region) order, exactly as produced by
/// [`crate::parallel::execute_plan`]. Sharing the *table* (rather than the raw
/// output rows) makes a cache hit a pure `Arc` clone — no row copies, no
/// re-materialization — while [`Table::runs`] still records one run per chunk
/// execution, so `chunks_processed` accounting is identical on hit and miss.
pub type CachedOutputs = Arc<Table>;

/// Everything that determines the rows a PROCESS statement produces from
/// *closed* footage: camera, window, chunk geometry, mask, region scheme,
/// processor and sandbox spec. Built once per PROCESS statement and shared
/// (behind an `Arc`) by the tier-1 key, the tier-2 keys and the standing
/// pump's per-call tail memo, so the three can never disagree on what
/// "the same PROCESS" means.
///
/// The camera and processor are identified by `(name, generation)` pairs: the
/// registry bumps a generation every time a name is (re-)registered, so a
/// session that resolved the *old* camera or processor can never insert its
/// outputs under a key the *new* registration would hit — re-registration
/// invalidation stays correct even against in-flight queries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcessIdentity {
    camera: String,
    camera_generation: u64,
    /// Window start/end in microseconds (exact integer timeline).
    window_micros: (i64, i64),
    /// Chunk duration and stride as IEEE bit patterns (exact).
    chunk_bits: (u64, u64),
    /// Mask id plus its registration generation (masks are re-publishable in
    /// place on a live camera, so the id alone is not a stable identity).
    mask: Option<(String, u64)>,
    region_scheme: Option<String>,
    processor: String,
    processor_generation: u64,
    /// Sandbox spec: timeout bit pattern, max rows, canonical schema text.
    timeout_bits: u64,
    max_rows: usize,
    schema: String,
}

impl ProcessIdentity {
    /// Build an identity from the resolved pieces of a PROCESS statement.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        camera: (&str, u64),
        window: &TimeSpan,
        spec: &ChunkSpec,
        mask: Option<(&str, u64)>,
        region_scheme: Option<&str>,
        processor: (&str, u64),
        timeout_secs: Seconds,
        max_rows: usize,
        schema_repr: String,
    ) -> Arc<Self> {
        Arc::new(ProcessIdentity {
            camera: camera.0.to_string(),
            camera_generation: camera.1,
            window_micros: (window.start.as_micros(), window.end.as_micros()),
            chunk_bits: (spec.chunk_secs.to_bits(), spec.stride_secs.to_bits()),
            mask: mask.map(|(id, generation)| (id.to_string(), generation)),
            region_scheme: region_scheme.map(str::to_string),
            processor: processor.0.to_string(),
            processor_generation: processor.1,
            timeout_bits: timeout_secs.to_bits(),
            max_rows,
            schema: schema_repr,
        })
    }

    /// The camera the PROCESS reads.
    pub fn camera(&self) -> &str {
        &self.camera
    }

    /// The processor it runs.
    pub fn processor(&self) -> &str {
        &self.processor
    }

    /// True when it runs under mask `mask_id` of `camera`.
    pub fn uses_mask(&self, camera: &str, mask_id: &str) -> bool {
        self.camera == camera && matches!(&self.mask, Some((id, _)) if id == mask_id)
    }
}

/// Identity of one PROCESS execution. Two PROCESS statements with equal keys
/// are guaranteed to produce identical sandbox outputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChunkCacheKey {
    process: Arc<ProcessIdentity>,
    /// Live-edge tag: `None` for fixed recordings and for windows that were
    /// already closed (fully recorded) when the entry was computed; for a
    /// window overlapping a live camera's edge, the edge it was computed at.
    /// Closed-window keys are therefore stable across appends (entries stay
    /// warm), while overlap keys become unreachable as soon as the edge moves
    /// — see the module docs for the full invalidation rule.
    live_edge_micros: Option<i64>,
}

impl ChunkCacheKey {
    /// The key of `process` executed against a snapshot with this live-edge
    /// tag.
    pub fn new(process: Arc<ProcessIdentity>, live_edge_micros: Option<i64>) -> Self {
        ChunkCacheKey { process, live_edge_micros }
    }
}

/// Point-in-time counters of the cache (monotonic over the cache's life).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed and required sandbox execution.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// The map plus its insertion-order index, guarded by one mutex.
///
/// `order` records `(stamp, key)` in insertion order. Invalidation only
/// removes from `map`, leaving *tombstones* in the deque; eviction pops from
/// the front, skipping any tombstone (key gone, or re-inserted under a newer
/// stamp). Each deque element is pushed once and popped at most once, so
/// eviction is amortized O(1) — the old implementation re-scanned the whole
/// map under the mutex on every insert at capacity.
#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<ChunkCacheKey, (u64, CachedOutputs)>,
    order: VecDeque<(u64, ChunkCacheKey)>,
}

impl CacheInner {
    /// Drop order records whose entry is gone (or re-inserted under a newer
    /// stamp). Called after every invalidation: eviction only drains the
    /// deque once the *map* is at capacity, so a workload that invalidates
    /// faster than it fills — a live camera's append loop is exactly that —
    /// would otherwise grow `order` without bound.
    fn prune_order(&mut self) {
        let CacheInner { map, order } = self;
        order.retain(|(stamp, key)| map.get(key).is_some_and(|(s, _)| s == stamp));
    }

    /// Drop the entries `stale` selects and — only if any went — their order
    /// records: the common live append finds nothing tagged with the old
    /// edge, and must not pay a hash probe per resident entry for that.
    fn remove_where(&mut self, stale: impl Fn(&ChunkCacheKey) -> bool) {
        let resident = self.map.len();
        self.map.retain(|k, _| !stale(k));
        if self.map.len() != resident {
            self.prune_order();
        }
    }
}

/// A bounded, thread-safe map from PROCESS identity to sandbox outputs.
///
/// Entries are evicted oldest-insertion-first once `max_entries` is reached —
/// a deliberately simple policy: the cache exists to absorb *bursts* of
/// analysts re-processing the same windows, not to be a long-lived store.
#[derive(Debug)]
pub struct ChunkResultCache {
    /// Lock-order audit: `cache-entries` — a leaf in the declared global
    /// order (analyzer.toml). get/insert/invalidate each hold it for one
    /// map operation and never acquire anything inside it; callers may hold
    /// registry locks or the gate when invalidating, never the reverse.
    entries: Mutex<CacheInner>,
    /// Monotonic insertion stamp, for oldest-first eviction.
    next_stamp: AtomicU64,
    max_entries: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ChunkResultCache {
    fn default() -> Self {
        Self::with_capacity(256)
    }
}

impl ChunkResultCache {
    /// Create a cache bounded to `max_entries` resident PROCESS results.
    /// `max_entries == 0` disables caching (every lookup misses).
    pub fn with_capacity(max_entries: usize) -> Self {
        ChunkResultCache {
            entries: Mutex::new(CacheInner::default()),
            next_stamp: AtomicU64::new(0),
            max_entries,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether this cache stores anything at all. Lets the miss path skip
    /// the defensive row copy when results will never be retained.
    pub fn enabled(&self) -> bool {
        self.max_entries > 0
    }

    /// Look up the outputs for a PROCESS identity.
    pub fn get(&self, key: &ChunkCacheKey) -> Option<CachedOutputs> {
        let inner = self.entries.lock().expect("chunk cache lock poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        match inner.map.get(key) {
            Some((_, outputs)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(outputs))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert freshly computed outputs, evicting the oldest entry if full.
    /// Concurrent inserts under the same key keep the first value (both are
    /// identical by construction, so which one wins is unobservable).
    ///
    /// There is deliberately no single-flight: N analysts cold-missing the
    /// same key each run the sandbox and race to insert. The duplicate work
    /// is transient (one burst, identical results) and keeping lookups
    /// wait-free avoids a cross-query convoy on the slowest sandbox run.
    pub fn insert(&self, key: ChunkCacheKey, outputs: CachedOutputs) {
        if self.max_entries == 0 {
            return;
        }
        let mut inner = self.entries.lock().expect("chunk cache lock poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        if inner.map.contains_key(&key) {
            return;
        }
        while inner.map.len() >= self.max_entries {
            // Oldest-first via the insertion-order deque, skipping tombstones
            // left behind by invalidation (key gone) or re-insertion after
            // invalidation (stamp moved on).
            let Some((stamp, oldest)) = inner.order.pop_front() else { break };
            if inner.map.get(&oldest).is_some_and(|(s, _)| *s == stamp) {
                inner.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let stamp = self.next_stamp.fetch_add(1, Ordering::Relaxed);
        inner.order.push_back((stamp, key.clone()));
        inner.map.insert(key, (stamp, outputs));
    }

    /// Drop every entry for a camera (the camera was re-registered, so cached
    /// outputs may no longer match the footage).
    pub fn invalidate_camera(&self, camera: &str) {
        let mut inner = self.entries.lock().expect("chunk cache lock poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        inner.remove_where(|k| k.process.camera == camera);
    }

    /// Drop the entries produced under one of a camera's masks (that mask was
    /// re-published; unmasked entries and other masks' entries stay warm).
    pub fn invalidate_mask(&self, camera: &str, mask_id: &str) {
        let mut inner = self.entries.lock().expect("chunk cache lock poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        inner.remove_where(|k| k.process.uses_mask(camera, mask_id));
    }

    /// Drop every entry produced by a processor (it was re-registered under
    /// the same name, possibly with different behaviour).
    pub fn invalidate_processor(&self, processor: &str) {
        let mut inner = self.entries.lock().expect("chunk cache lock poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        inner.remove_where(|k| k.process.processor == processor);
    }

    /// A live camera's edge advanced: drop its entries whose PROCESS window
    /// overlapped the live edge (their trailing chunks were computed against
    /// footage that has since come into existence). Closed-window entries are
    /// final and stay warm — see the module docs for why this is safe.
    pub fn invalidate_live_edge(&self, camera: &str) {
        let mut inner = self.entries.lock().expect("chunk cache lock poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        inner.remove_where(|k| k.live_edge_micros.is_some() && k.process.camera == camera);
    }

    /// Number of insertion-order records currently held (test instrumentation
    /// for the boundedness of the eviction index).
    #[cfg(test)]
    fn order_len(&self) -> usize {
        self.entries.lock().expect("chunk cache lock poisoned").order.len() // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
    }

    /// Current counters.
    pub fn stats(&self) -> ChunkCacheStats {
        ChunkCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.lock().expect("chunk cache lock poisoned").map.len(), // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privid_query::{ColumnDef, Schema};

    fn table() -> CachedOutputs {
        Arc::new(Table::new(Schema::new(vec![ColumnDef::number("count", 0.0)]).unwrap()))
    }

    fn identity(camera: (&str, u64), start: f64, mask: Option<(&str, u64)>, processor: &str) -> Arc<ProcessIdentity> {
        ProcessIdentity::new(
            camera,
            &TimeSpan::between_secs(start, start + 100.0),
            &ChunkSpec::contiguous(5.0),
            mask,
            None,
            (processor, 0),
            1.0,
            20,
            "(count:NUMBER=0)".into(),
        )
    }

    fn key(camera: &str, start: f64, processor: &str) -> ChunkCacheKey {
        ChunkCacheKey::new(identity((camera, 0), start, None, processor), None)
    }

    fn live_key(camera: &str, start: f64, edge_secs: f64) -> ChunkCacheKey {
        ChunkCacheKey::new(identity((camera, 0), start, None, "p"), Some((edge_secs * 1e6) as i64))
    }

    #[test]
    fn hit_miss_and_stats() {
        let cache = ChunkResultCache::with_capacity(8);
        let k = key("campus", 0.0, "p");
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), table());
        assert!(cache.get(&k).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_process_identities_do_not_collide() {
        let cache = ChunkResultCache::with_capacity(8);
        cache.insert(key("campus", 0.0, "p"), table());
        assert!(cache.get(&key("campus", 100.0, "p")).is_none(), "different window");
        assert!(cache.get(&key("highway", 0.0, "p")).is_none(), "different camera");
        assert!(cache.get(&key("campus", 0.0, "q")).is_none(), "different processor");
        let masked = ChunkCacheKey::new(identity(("campus", 0), 0.0, Some(("m", 0)), "p"), None);
        assert!(cache.get(&masked).is_none(), "different mask");
        let new_generation = ChunkCacheKey::new(identity(("campus", 1), 0.0, None, "p"), None);
        assert!(cache.get(&new_generation).is_none(), "re-registered camera generation");
        assert!(cache.get(&live_key("campus", 0.0, 40.0)).is_none(), "live-edge tag is part of the identity");
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = ChunkResultCache::with_capacity(2);
        cache.insert(key("c", 0.0, "p"), table());
        cache.insert(key("c", 100.0, "p"), table());
        cache.insert(key("c", 200.0, "p"), table());
        assert!(cache.get(&key("c", 0.0, "p")).is_none(), "oldest entry evicted");
        assert!(cache.get(&key("c", 100.0, "p")).is_some());
        assert!(cache.get(&key("c", 200.0, "p")).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn invalidation_by_camera_and_processor() {
        let cache = ChunkResultCache::with_capacity(8);
        cache.insert(key("campus", 0.0, "p"), table());
        cache.insert(key("highway", 0.0, "p"), table());
        cache.insert(key("highway", 0.0, "q"), table());
        cache.invalidate_camera("campus");
        assert!(cache.get(&key("campus", 0.0, "p")).is_none());
        assert!(cache.get(&key("highway", 0.0, "p")).is_some());
        cache.invalidate_processor("q");
        assert!(cache.get(&key("highway", 0.0, "q")).is_none());
        assert!(cache.get(&key("highway", 0.0, "p")).is_some());
    }

    #[test]
    fn eviction_after_invalidation_removes_the_oldest_resident() {
        // Invalidation removes entries out of insertion order; a later insert
        // at capacity must still evict the oldest *resident* entry, and the
        // invalidated entry's vanishing must not count as an eviction.
        let cache = ChunkResultCache::with_capacity(2);
        cache.insert(key("a", 0.0, "p"), table());
        cache.insert(key("b", 0.0, "p"), table());
        cache.invalidate_camera("a");
        assert_eq!(cache.stats().entries, 1);
        cache.insert(key("c", 0.0, "p"), table());
        cache.insert(key("d", 0.0, "p"), table());
        assert!(cache.get(&key("b", 0.0, "p")).is_none(), "oldest resident evicted");
        assert!(cache.get(&key("c", 0.0, "p")).is_some());
        assert!(cache.get(&key("d", 0.0, "p")).is_some());
        assert_eq!(cache.stats().evictions, 1, "invalidation is not an eviction");
    }

    #[test]
    fn reinserted_key_ranks_by_its_new_insertion_time() {
        let cache = ChunkResultCache::with_capacity(2);
        cache.insert(key("a", 0.0, "p"), table());
        cache.insert(key("b", 0.0, "p"), table());
        cache.invalidate_camera("a");
        // Re-insert "a": it is now the *newest* entry, so the next insert at
        // capacity must evict "b", not "a".
        cache.insert(key("a", 0.0, "p"), table());
        cache.insert(key("c", 0.0, "p"), table());
        assert!(cache.get(&key("a", 0.0, "p")).is_some(), "re-insert survives");
        assert!(cache.get(&key("b", 0.0, "p")).is_none());
        assert!(cache.get(&key("c", 0.0, "p")).is_some());
    }

    #[test]
    fn order_index_stays_bounded_under_invalidation_churn() {
        // Regression (review): a live camera's append loop — insert an
        // overlap entry, invalidate it, repeat — never reaches the capacity
        // eviction path, so tombstones used to accumulate in the order deque
        // without bound.
        let cache = ChunkResultCache::with_capacity(8);
        for round in 0..100 {
            cache.insert(live_key("live", round as f64 * 100.0, round as f64 + 1.0), table());
            cache.invalidate_live_edge("live");
        }
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.order_len(), 0, "invalidation must reclaim its order records");
    }

    #[test]
    fn live_edge_invalidation_keeps_closed_windows_warm() {
        let cache = ChunkResultCache::with_capacity(8);
        cache.insert(key("live", 0.0, "p"), table()); // closed window
        cache.insert(live_key("live", 100.0, 150.0), table()); // overlaps the edge
        cache.insert(live_key("other", 0.0, 50.0), table());
        cache.invalidate_live_edge("live");
        assert!(cache.get(&key("live", 0.0, "p")).is_some(), "closed-window entry stays warm");
        assert!(cache.get(&live_key("live", 100.0, 150.0)).is_none(), "overlap entry dropped");
        assert!(cache.get(&live_key("other", 0.0, 50.0)).is_some(), "other cameras untouched");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ChunkResultCache::with_capacity(0);
        let k = key("c", 0.0, "p");
        cache.insert(k.clone(), table());
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
