//! The cross-analyst aggregate-state cache (tier 2).
//!
//! The chunk-result cache (`cache`, tier 1) absorbs repeated PROCESS work;
//! this cache absorbs repeated *aggregation* work. Its values are folded
//! [`AggState`]s — the running partial aggregates of one compiled SELECT
//! (`FoldableSelect`) over the first `prefix_chunks` chunks of one PROCESS
//! table — so N analysts running the same sub-plan (same PROCESS identity,
//! same aggregation plan) evaluate it once and share the folded state, and a
//! standing query's firing extends a prefix folded at append time instead of
//! re-aggregating its whole window.
//!
//! **Why caching folded states is DP-safe.** An `AggState` is a deterministic
//! function of the raw sandbox outputs, which never leave the video owner's
//! trust domain — exactly the argument that makes tier 1 safe. Noise is
//! applied at release time, per release, and ε is checked and debited per
//! admitted query through the unchanged admission gate, regardless of whether
//! the release was computed from rows or from a cached state. The analyst
//! sees bit-for-bit what a fresh evaluation would have released.
//!
//! **Why there is no live-edge invalidation rule here.** Keys carry the
//! number of *closed* chunks they cover (`prefix_chunks`), and the session
//! only ever folds and inserts states over chunks whose span ended at or
//! before the camera's live edge. Closed footage is immutable, so every entry
//! is valid forever — appends monotonically extend which prefixes are
//! *reachable*, never what a reachable prefix contains. Re-registering a
//! camera, mask or processor invalidates eagerly (and the registration
//! generations in the key make stale racing inserts unreachable anyway),
//! mirroring tier 1.
//!
//! **Determinism.** States are only ever produced by sequential observation
//! in canonical table row order (see `privid_query::aggstate`); a cached
//! prefix extended by folding the remaining chunks performs exactly the
//! floating-point op sequence of a from-scratch aggregation. Concurrent
//! inserts under one key race benignly: both values are bit-identical by
//! construction, and insertion keeps the first.

use crate::cache::ProcessIdentity;
use privid_query::AggState;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The folded partial states of one compiled SELECT over a chunk prefix: one
/// state per aggregation of the statement, in declaration order.
pub type CachedStates = Arc<Vec<AggState>>;

/// Identity of one folded aggregation prefix: the PROCESS identity of tier 1
/// (without the live-edge tag — entries cover closed chunks only), plus the
/// compiled plan's fingerprint and the number of leading chunks folded.
///
/// A fold probes many prefixes of one (PROCESS, plan) pair — the target, then
/// a walk back to the longest cached one. The key is built once for the pair
/// and every other prefix derived with [`AggCacheKey::with_prefix`], which
/// shares both halves: no probe allocates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggCacheKey {
    process: Arc<ProcessIdentity>,
    /// The compiled SELECT's plan fingerprint (relation tree + aggregations;
    /// ε is deliberately excluded — it shapes noise, not the folded state).
    plan: Arc<str>,
    /// How many leading chunks of the window this state has folded.
    prefix_chunks: u32,
}

impl AggCacheKey {
    /// The key of `prefix_chunks` leading chunks of `process`'s table folded
    /// by the plan with this fingerprint.
    pub fn new(process: Arc<ProcessIdentity>, plan_fingerprint: &str, prefix_chunks: u32) -> Self {
        AggCacheKey { process, plan: Arc::from(plan_fingerprint), prefix_chunks }
    }

    /// The key of another prefix of the same (PROCESS, plan) pair.
    pub fn with_prefix(&self, prefix_chunks: u32) -> Self {
        AggCacheKey { prefix_chunks, ..self.clone() }
    }
}

/// Point-in-time counters of the aggregate-state cache. `hits`/`misses`
/// count one lookup event per fold (did the *target* prefix resolve?);
/// walking back to a shorter cached prefix is not a separate miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AggCacheStats {
    /// Folds whose target prefix was served from the cache.
    pub hits: u64,
    /// Folds that had to extend (or build) the target prefix themselves.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// The map plus its insertion-order index, guarded by one mutex — the same
/// tombstone-skipping amortized-O(1) eviction structure as tier 1.
#[derive(Debug, Default)]
struct AggCacheInner {
    map: HashMap<AggCacheKey, (u64, CachedStates)>,
    order: VecDeque<(u64, AggCacheKey)>,
}

impl AggCacheInner {
    /// Drop order records whose entry is gone (or re-inserted under a newer
    /// stamp), keeping the eviction index bounded under invalidation churn.
    fn prune_order(&mut self) {
        let AggCacheInner { map, order } = self;
        order.retain(|(stamp, key)| map.get(key).is_some_and(|(s, _)| s == stamp));
    }
}

/// A bounded, thread-safe map from (PROCESS identity, plan, chunk prefix) to
/// folded aggregate states.
///
/// Entries are tiny (a handful of f64 moments, or an ARGMAX key→count map)
/// compared to tier 1's row tables, so the cache affords a proportionally
/// larger entry budget: the service sizes it at a multiple of the chunk
/// cache's capacity, and capacity 0 disables it.
#[derive(Debug)]
pub struct AggStateCache {
    /// Lock-order audit: `agg-cache-entries` — a leaf in the declared global
    /// order (analyzer.toml), ordered after `cache-entries`. Every method
    /// holds it for one map operation and never acquires anything inside it;
    /// callers may hold registry locks or the standing-registry lock when
    /// probing or invalidating, never the reverse.
    agg_entries: Mutex<AggCacheInner>,
    /// Monotonic insertion stamp, for oldest-first eviction.
    next_stamp: AtomicU64,
    max_entries: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl AggStateCache {
    /// Create a cache bounded to `max_entries` resident folded prefixes.
    /// `max_entries == 0` disables the cache (every lookup misses silently).
    pub fn with_capacity(max_entries: usize) -> Self {
        AggStateCache {
            agg_entries: Mutex::new(AggCacheInner::default()),
            next_stamp: AtomicU64::new(0),
            max_entries,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether this cache stores anything at all. The session's fold path
    /// skips key construction and probing entirely when disabled.
    pub fn enabled(&self) -> bool {
        self.max_entries > 0
    }

    /// Look up the folded states for a prefix, counting the outcome: this is
    /// the *target*-prefix probe of a fold, so its hit/miss ratio reports how
    /// often a whole fold was served without touching any rows.
    pub fn get(&self, key: &AggCacheKey) -> Option<CachedStates> {
        match self.peek(key) {
            Some(states) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(states)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Look up a prefix without touching the hit/miss counters — used when
    /// walking back from a missed target prefix to the longest cached one
    /// (each fold should count as one lookup event, not `prefix_chunks` of
    /// them).
    pub fn peek(&self, key: &AggCacheKey) -> Option<CachedStates> {
        let inner = self.agg_entries.lock().expect("agg cache lock poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        inner.map.get(key).map(|(_, states)| Arc::clone(states))
    }

    /// Insert freshly folded states, evicting the oldest entry if full.
    /// Concurrent inserts under the same key keep the first value (both are
    /// bit-identical by the determinism contract, so which wins is
    /// unobservable).
    pub fn insert(&self, key: AggCacheKey, states: CachedStates) {
        if self.max_entries == 0 {
            return;
        }
        let mut inner = self.agg_entries.lock().expect("agg cache lock poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        if inner.map.contains_key(&key) {
            return;
        }
        while inner.map.len() >= self.max_entries {
            let Some((stamp, oldest)) = inner.order.pop_front() else { break };
            if inner.map.get(&oldest).is_some_and(|(s, _)| *s == stamp) {
                inner.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let stamp = self.next_stamp.fetch_add(1, Ordering::Relaxed);
        inner.order.push_back((stamp, key.clone()));
        inner.map.insert(key, (stamp, states));
    }

    /// Drop every entry for a camera (it was re-registered; generations make
    /// the old entries unreachable anyway — this reclaims their space).
    pub fn invalidate_camera(&self, camera: &str) {
        let mut inner = self.agg_entries.lock().expect("agg cache lock poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        inner.map.retain(|k, _| k.process.camera() != camera);
        inner.prune_order();
    }

    /// Drop the entries folded under one of a camera's masks (it was
    /// re-published; other masks' and unmasked entries stay warm).
    pub fn invalidate_mask(&self, camera: &str, mask_id: &str) {
        let mut inner = self.agg_entries.lock().expect("agg cache lock poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        inner.map.retain(|k, _| !k.process.uses_mask(camera, mask_id));
        inner.prune_order();
    }

    /// Drop every entry folded from a processor's outputs (it was
    /// re-registered under the same name).
    pub fn invalidate_processor(&self, processor: &str) {
        let mut inner = self.agg_entries.lock().expect("agg cache lock poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        inner.map.retain(|k, _| k.process.processor() != processor);
        inner.prune_order();
    }

    /// Current counters.
    pub fn stats(&self) -> AggCacheStats {
        AggCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.agg_entries.lock().expect("agg cache lock poisoned").map.len(), // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privid_query::ast::AggregateFunction;
    use privid_video::{ChunkSpec, TimeSpan};

    fn key(camera: &str, plan: &str, prefix: u32) -> AggCacheKey {
        let process = ProcessIdentity::new(
            (camera, 0),
            &TimeSpan::from_secs(60.0),
            &ChunkSpec::contiguous(10.0),
            None,
            None,
            ("p", 0),
            1.0,
            20,
            "(count:NUMBER=0)".into(),
        );
        AggCacheKey::new(process, plan, prefix)
    }

    fn states(n: f64) -> CachedStates {
        let mut st = AggState::identity(AggregateFunction::Count);
        for _ in 0..n as usize {
            st.observe(None, None);
        }
        Arc::new(vec![st])
    }

    #[test]
    fn prefixes_and_plans_are_distinct_identities() {
        let cache = AggStateCache::with_capacity(8);
        cache.insert(key("campus", "count", 3), states(3.0));
        assert!(cache.get(&key("campus", "count", 3)).is_some());
        assert!(cache.peek(&key("campus", "count", 2)).is_none(), "shorter prefix is a different entry");
        assert!(cache.peek(&key("campus", "count", 9).with_prefix(3)).is_some(), "a derived key is that prefix's key");
        assert!(cache.get(&key("campus", "sum", 3)).is_none(), "different plan fingerprint");
        assert!(cache.get(&key("other", "count", 3)).is_none(), "different camera");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
    }

    #[test]
    fn peek_does_not_count_and_insert_keeps_the_first_value() {
        let cache = AggStateCache::with_capacity(8);
        cache.insert(key("c", "count", 1), states(1.0));
        assert!(cache.peek(&key("c", "count", 1)).is_some());
        assert_eq!(cache.stats().hits, 0, "peek is not a lookup event");
        cache.insert(key("c", "count", 1), states(99.0));
        let held = cache.peek(&key("c", "count", 1)).unwrap();
        assert_eq!(held[0], states(1.0)[0], "first insert wins");
    }

    #[test]
    fn capacity_evicts_oldest_and_invalidation_reclaims() {
        let cache = AggStateCache::with_capacity(2);
        cache.insert(key("a", "count", 1), states(1.0));
        cache.insert(key("b", "count", 1), states(1.0));
        cache.insert(key("c", "count", 1), states(1.0));
        assert!(cache.peek(&key("a", "count", 1)).is_none(), "oldest evicted");
        assert_eq!(cache.stats().evictions, 1);
        cache.invalidate_camera("b");
        assert_eq!(cache.stats().entries, 1);
        cache.invalidate_processor("p");
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = AggStateCache::with_capacity(0);
        assert!(!cache.enabled());
        cache.insert(key("c", "count", 1), states(1.0));
        assert!(cache.get(&key("c", "count", 1)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
