//! The concurrent, multi-analyst query service.
//!
//! [`QueryService`] is the one in-process entry point, for a single
//! experiment script and for a video owner serving many analysts alike.
//! Registration and lookup go through read-mostly registries (`RwLock`-guarded
//! maps of `Arc`-shared per-camera state), every admission funnels through the
//! [`AdmissionController`] in `budget` (the single serialization point), and
//! each query runs as an independent session with its own seeded noise
//! stream. Any number of threads can call [`QueryService::execute`]
//! concurrently on one `&QueryService`.
//!
//! **Determinism.** A query's releases are a function of `(seed, query)`
//! only: the session draws noise from a fresh `LaplaceMechanism::new(seed)`,
//! and the execution engine merges chunk outputs in deterministic order. N
//! analysts hammering the service concurrently therefore receive bit-for-bit
//! the releases a serial replay of the same `(seed, query)` pairs would
//! produce (given sufficient budget; admission outcomes under *contended*
//! budget depend on arrival order, exactly as in a real deployment).
//!
//! A cross-query [`ChunkResultCache`] absorbs repeated PROCESS work: chunk
//! execution is deterministic, noise is applied at release time and budget is
//! debited per admitted query, so serving a cached raw table is invisible to
//! the analyst except in latency (see `cache` module docs for the DP-safety
//! argument).
//!
//! **Live ingestion costs the batch.** A live camera is one long-lived
//! [`Recording`] behind its ingest lock plus the snapshot of it the registry
//! currently publishes. [`QueryService::append_frames`] extends the
//! recording and publishes a fresh snapshot; snapshots share storage with the
//! recording (see `privid_video::scene`), so neither the footage already
//! recorded nor the snapshots sessions still hold are copied. The standing
//! pump that follows is scoped to the cameras whose edge moved: the standing
//! registry indexes queries by the cameras they read, only the appended
//! camera's are visited, due windows run the shared prototype at an offset,
//! and one `session::TailMemo` per pump call lets every query with the same
//! PROCESS over the same window share one execution of the newly closed
//! chunks. `StandingFired` watermarks are staged as the firings complete and
//! committed together, before any of the call's firings becomes visible.

use crate::aggcache::{AggCacheStats, AggStateCache};
use crate::budget::{
    admit_fleet, AdmissionController, AdmissionFailure, AdmissionJournal, AdmissionRequest, BudgetLedger,
    CommitWait, ShardAdmission,
};
use crate::cache::{ChunkCacheStats, ChunkResultCache};
use crate::error::PrividError;
use crate::health::{CameraHealth, StoreRetryPolicy};
use crate::mechanism::LaplaceMechanism;
use crate::parallel::Parallelism;
use crate::policy::{MaskPolicy, PrivacyPolicy};
use crate::release::QueryResult;
use crate::session;
use privid_query::{parse_query, ParsedQuery};
use privid_sandbox::{ChunkProcessor, ProcessorFactory};
use privid_store::{
    CameraRecord, Durability, Record, RecoveryReport, RecoveryWarning, StoreError, Vfs, WalOptions, WalStore,
};
use privid_video::{CameraId, FrameBatch, FrameRate, FrameSize, Recording, Scene, Seconds, TimeSpan};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Everything the service knows about one registered camera. Shared with
/// running sessions via `Arc`, so registering new cameras never blocks (or
/// invalidates) queries already in flight.
///
/// For a *live* camera every appended frame batch publishes a fresh
/// `CameraState` holding a snapshot of the grown scene — O(1) to take, since
/// [`Scene`] snapshots share storage with the recording they came from —
/// while the recording, the ledger and the mask registry are `Arc`-shared
/// across snapshots: budget is debited on the one true ledger no matter
/// which snapshot a session resolved, and a mask published mid-recording is
/// visible to every later snapshot.
pub(crate) struct CameraState {
    pub(crate) scene: Scene,
    pub(crate) policy: PrivacyPolicy,
    /// Published masks, each tagged with its registration generation (masks
    /// are re-publishable in place, so they need their own cache-key tag).
    pub(crate) masks: Arc<RwLock<HashMap<String, (u64, MaskPolicy)>>>,
    pub(crate) ledger: Arc<BudgetLedger>,
    /// Registration generation, part of every chunk-cache key: a session
    /// still executing against a *replaced* camera writes cache entries under
    /// the old generation, which queries against the new registration can
    /// never hit. Appends keep the generation (closed-window cache entries
    /// stay warm — the footage they cover is final).
    pub(crate) generation: u64,
    /// The writer side of a *live* camera (`None` for a fixed recording): the
    /// one long-lived [`Recording`] every append extends and every snapshot's
    /// `scene` was taken from; `scene.span.end` is the live edge the snapshot
    /// was taken at. Its mutex is the camera's ingest lock — see
    /// [`QueryService::append_frames`].
    recording: Option<Arc<Mutex<Recording>>>,
}

impl CameraState {
    /// True for an append-only live recording.
    pub(crate) fn live(&self) -> bool {
        self.recording.is_some()
    }
}

/// What one [`QueryService::append_frames`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppendOutcome {
    /// The camera's live edge after the append, in seconds.
    pub live_edge_secs: Seconds,
    /// How many standing-query windows completed (and were executed) as a
    /// result of this append.
    pub standing_fired: usize,
}

/// One execution of a standing query over a completed window.
#[derive(Debug, Clone, PartialEq)]
pub struct StandingFiring {
    /// The absolute window this firing covered.
    pub window: TimeSpan,
    /// The per-firing noise seed (`base_seed + window index`), recorded so a
    /// firing can be replayed bit-for-bit against a batch registration.
    pub seed: u64,
    /// The query's outcome: releases on success, or the admission error (e.g.
    /// exhausted budget) — later windows keep firing either way.
    pub result: Result<QueryResult, PrividError>,
}

/// One cursor-based poll of a standing query's firings: the new firings past
/// the caller's cursor, the cursor to pass next time, and how many firings
/// the retention cap had already evicted before the caller could see them.
#[derive(Debug, Clone, PartialEq)]
pub struct StandingPoll {
    /// Firings with index ≥ the polled cursor that are still retained, in
    /// window order.
    pub firings: Vec<StandingFiring>,
    /// Pass this as the cursor of the next poll to receive only firings that
    /// happen after this one. Opaque beyond that: the cursor space restarts
    /// with the process (firings are not journaled), so a stored cursor from
    /// a previous process incarnation simply replays the retained window.
    pub next_cursor: u64,
    /// Firings in `[cursor, next_cursor)` that were evicted by the retention
    /// cap before this poll — non-zero means the caller polled too slowly to
    /// see every firing.
    pub dropped: u64,
}

/// A registered standing query: the prototype (windows relative to zero), the
/// cameras it reads, and the high-watermark of windows already fired.
struct StandingState {
    /// Shared with every firing and pre-fold of the query, which run it
    /// shifted by their window's start (see `session`): never cloned.
    query: Arc<ParsedQuery>,
    /// The original query text — journaled for recovery, and compared on
    /// re-registration so restoring the same standing query after a restart
    /// resumes its watermark instead of resetting (and re-debiting) it.
    text: String,
    cameras: Vec<String>,
    period_secs: Seconds,
    base_seed: u64,
    next_start_secs: Seconds,
    /// The most recent firings, oldest first, capped at the service's
    /// standing-firing retention — a server polling thousands of standing
    /// queries must never make this registry's memory grow with uptime.
    firings: VecDeque<StandingFiring>,
    /// Total firings ever recorded for this query (the cursor space of
    /// [`QueryService::standing_results_since`]); `fired_count -
    /// firings.len()` is the index of the oldest retained firing.
    fired_count: u64,
    /// The tenant that registered this query through the multi-tenant
    /// front-end, or `None` for trusted in-process registrations. Every
    /// firing is charged against the owner's ε quota, and only the owner may
    /// poll, replace or re-register the name — the standing namespace is
    /// shared, so ownership is what keeps one tenant's noised releases (and
    /// quota) out of another's reach.
    owner: Option<String>,
}

/// The standing-query registry: the queries by name, and the names by the
/// cameras they read — the pump visits only the queries of the cameras whose
/// edge moved, however many the fleet holds.
#[derive(Default)]
struct StandingRegistry {
    queries: HashMap<String, StandingState>,
    by_camera: HashMap<String, BTreeSet<String>>,
}

impl StandingRegistry {
    /// Register `state` under `name`, replacing (and unlinking) any previous
    /// registration of the name.
    fn insert(&mut self, name: String, state: StandingState) {
        if let Some(old) = self.queries.get(&name) {
            for camera in &old.cameras {
                if let Some(names) = self.by_camera.get_mut(camera) {
                    names.remove(&name);
                }
            }
        }
        for camera in &state.cameras {
            self.by_camera.entry(camera.clone()).or_default().insert(name.clone());
        }
        self.queries.insert(name, state);
    }
}

/// A due standing-query window collected under the registry lock, executed
/// outside it: the prototype plus the window's start to shift it by.
struct StandingJob {
    name: String,
    window: TimeSpan,
    index: u64,
    seed: u64,
    query: Arc<ParsedQuery>,
    offset_secs: Seconds,
    /// The tenant whose ε quota this firing debits (`None`: unmetered
    /// in-process registration).
    owner: Option<String>,
}

/// A registered processor: its registration generation plus the shared factory.
type RegisteredProcessor = (u64, Arc<dyn ProcessorFactory + Send + Sync>);

/// Aggregate-state entries per chunk-cache entry: a folded state is a handful
/// of scalars (or one key→count map), orders of magnitude smaller than the
/// chunk rows it summarizes, so the second tier affords many more entries —
/// enough for thousands of standing queries' prefix states per camera.
const AGG_CACHE_FACTOR: usize = 16;

/// A shared, concurrent Privid query service.
///
/// Construction is [`QueryService::new`] (all defaults) or
/// [`QueryService::builder`]; all serving methods take `&self`:
///
/// ```
/// use privid_core::{QueryService, PrivacyPolicy};
/// use privid_sandbox::{ChunkProcessor, UniqueEntrantProcessor};
/// use privid_video::{SceneConfig, SceneGenerator};
///
/// let service = QueryService::new();
/// let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate();
/// service.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 10.0)).unwrap();
/// service.register_processor("person_counter", || {
///     Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
/// }).unwrap();
///
/// // Each analyst query carries its own noise seed; concurrent callers may
/// // share `&service` across threads.
/// let result = service
///     .execute_text(
///         7,
///         "SPLIT campus BEGIN 0 END 300 BY TIME 10 sec STRIDE 0 sec INTO chunks;
///          PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
///              WITH SCHEMA (count:NUMBER=0) INTO people;
///          SELECT COUNT(*) FROM people CONSUMING 1.0;",
///     )
///     .unwrap();
/// assert_eq!(result.releases.len(), 1);
/// ```
pub struct QueryService {
    /// The serving plane, partitioned by camera-id hash: each shard owns a
    /// slice of the camera/processor registries, its own admission gate and
    /// cache tiers, its own health registry — and, when durable, its own WAL
    /// and snapshot under `dir/shard-<k>/`. One shard (the default)
    /// reproduces the pre-fleet service exactly.
    shards: Vec<ServiceShard>,
    /// Registered standing queries, keyed by name and indexed by camera —
    /// global, not sharded: a standing query may reference cameras on several
    /// shards. Its journal records live on the shard its *name* hashes to. A
    /// `Mutex` (not `RwLock`): every access mutates the firing high-watermark
    /// or results.
    standing: Mutex<StandingRegistry>,
    /// Source of registration generations for cameras and processors —
    /// global and monotonic across shards, so a recovered fleet resumes the
    /// counter past every shard's generations.
    generations: AtomicU64,
    /// Budget charged to a SELECT that has no `CONSUMING` clause.
    pub(crate) default_epsilon: f64,
    /// Worker count of the chunk execution engine, per PROCESS statement.
    /// Releases are bit-for-bit identical at every setting (the engine
    /// merges outputs in deterministic chunk order); only wall-clock time
    /// changes.
    pub(crate) parallelism: Parallelism,
    /// What recovery did across all shards when this service was built
    /// (None without durability, or when every shard was fresh).
    recovery: Option<RecoveryReport>,
    /// Backoff policy for transient journal failures in live ingestion.
    retry: StoreRetryPolicy,
    /// Maximum standing-query firings retained per query for polling — a
    /// server polling on behalf of remote analysts must never let the
    /// standing registry's memory grow with uptime. Cursor polls report
    /// evictions via [`StandingPoll::dropped`].
    standing_retention: usize,
    /// Remaining ε per tenant, for services fronted by the multi-tenant
    /// server. `None` (no entry) means the tenant is unlimited; quotas are a
    /// resource-governance layer *above* the per-camera ledgers — the DP
    /// guarantee itself never depends on them. Lock-order audit:
    /// `tenant-quota-registry` — standalone acquisitions only (reserve /
    /// refund / read), never nested with any other lock.
    tenant_quotas: Mutex<HashMap<String, f64>>,
}

/// Default number of standing-query firings retained per query.
const DEFAULT_STANDING_RETENTION: usize = 1024;

/// One slice of the fleet: the registries, admission gate, cache tiers,
/// health registry and (optional) WAL for the names that hash here.
///
/// Lock discipline: a multi-shard admission acquires shard gates in
/// strictly ascending `index` order — enforced dynamically by
/// [`admit_fleet`] and lexically by the workspace lint (the `indexed`
/// lock-order family in analyzer.toml).
struct ServiceShard {
    /// Position in `QueryService::shards` — the gate's lock rank.
    index: usize,
    cameras: RwLock<HashMap<String, Arc<CameraState>>>,
    processors: RwLock<HashMap<String, RegisteredProcessor>>,
    admission: AdmissionController,
    /// Tier-1 chunk-result cache, holding only this shard's cameras'
    /// entries: invalidation on re-registration walks one shard's map.
    cache: ChunkResultCache,
    /// Second cache tier: folded aggregate states per (PROCESS identity,
    /// SELECT plan, closed-chunk prefix), shard-scoped like tier 1. Entries
    /// cover only fully recorded footage, so appends never invalidate them;
    /// re-registrations do.
    agg_cache: AggStateCache,
    /// This shard's write-ahead log (`dir/shard-<k>/`), when the service was
    /// built with [`Durability::Wal`]. Every registration, live-edge
    /// extension and admission journals here *before* mutating in-memory
    /// state.
    store: Option<Arc<WalStore>>,
    /// Recovered cameras awaiting adoption: when the owner re-registers a
    /// name with the same policy (and, for fixed recordings, the same
    /// duration), the pre-crash ledger is restored instead of minting fresh ε
    /// for footage that was already queried. Consumed on adoption.
    recovered_cameras: Mutex<BTreeMap<String, CameraRecord>>,
    /// Per-camera durability health plus accumulated storage warnings.
    /// Lock-order audit: `health-registry` — ordered after
    /// `recovered-registry`, before `cache-entries`; acquired under the
    /// admission gate on the journal failure paths and standalone on reads.
    health: Mutex<HealthRegistry>,
}

impl ServiceShard {
    fn new(index: usize, cache_capacity: Option<usize>) -> ServiceShard {
        let (cache, agg_cache) = match cache_capacity {
            None => (ChunkResultCache::default(), AggStateCache::with_capacity(256 * AGG_CACHE_FACTOR)),
            Some(c) => {
                (ChunkResultCache::with_capacity(c), AggStateCache::with_capacity(c.saturating_mul(AGG_CACHE_FACTOR)))
            }
        };
        ServiceShard {
            index,
            cameras: RwLock::new(HashMap::new()),
            processors: RwLock::new(HashMap::new()),
            admission: AdmissionController::new(),
            cache,
            agg_cache,
            store: None,
            recovered_cameras: Mutex::new(BTreeMap::new()),
            health: Mutex::new(HealthRegistry::default()),
        }
    }
}

/// FNV-1a over a registry name — the shard-routing hash. Deliberately not
/// `std`'s seeded `RandomState`: a camera must hash to the *same* shard on
/// every process start, or recovery would re-home ledgers across shards.
fn shard_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Split a total cache capacity across `n` shards (ceiling division, so the
/// fleet never gets *less* total capacity than requested; 0 stays 0, which
/// keeps "capacity 0 disables the cache" true per shard).
fn split_capacity(total: usize, n: usize) -> usize {
    if n <= 1 {
        total
    } else {
        total.div_ceil(n)
    }
}

/// Fold one shard's recovery report into the fleet-wide report: counters
/// add, the snapshot watermark takes the furthest shard, events and
/// warnings concatenate in shard order.
fn merge_report(into: &mut RecoveryReport, shard: RecoveryReport) {
    into.snapshot_seq = into.snapshot_seq.max(shard.snapshot_seq);
    into.records_replayed += shard.records_replayed;
    into.stale_skipped += shard.stale_skipped;
    into.torn_tail_bytes += shard.torn_tail_bytes;
    into.events.extend(shard.events);
    into.warnings.extend(shard.warnings);
}

/// Camera health states and pending storage warnings, under one lock (they
/// change together: a failure that warns also degrades or quarantines).
#[derive(Default)]
struct HealthRegistry {
    /// Health per camera; a missing entry means [`CameraHealth::Healthy`].
    states: HashMap<String, CameraHealth>,
    /// Typed warnings accumulated since the last supervised recovery; drained
    /// into the [`RecoveryReport`] that [`QueryService::recover_store`]
    /// returns.
    warnings: Vec<RecoveryWarning>,
}

impl Default for QueryService {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryService {
    /// Create an empty service with default ε (1.0), `Auto` parallelism, the
    /// default chunk-cache capacity and no durability.
    pub fn new() -> Self {
        QueryService {
            shards: vec![ServiceShard::new(0, None)],
            standing: Mutex::new(StandingRegistry::default()),
            generations: AtomicU64::new(0),
            default_epsilon: 1.0,
            parallelism: Parallelism::Auto,
            recovery: None,
            retry: StoreRetryPolicy::default(),
            standing_retention: DEFAULT_STANDING_RETENTION,
            tenant_quotas: Mutex::new(HashMap::new()),
        }
    }

    /// Start building a service — the one way to configure anything beyond
    /// the defaults (worker count, default ε, shards, cache capacity,
    /// durability, …). Every knob is resolved once, at
    /// [`QueryServiceBuilder::build`], so the order the knobs are set in
    /// never matters.
    pub fn builder() -> QueryServiceBuilder {
        QueryServiceBuilder::default()
    }

    // ---- registration -------------------------------------------------------------------

    /// Register a camera with its recording and privacy policy. Re-registering
    /// a name replaces the camera (fresh ledger) and invalidates its cached
    /// chunk results; sessions already holding the old state finish against it.
    ///
    /// On a durable service recovering from a crash, registering a name whose
    /// recovered policy and duration match **adopts** the pre-crash ledger —
    /// every debit made before the crash stays spent. A registration that
    /// does not match is an explicit replacement and mints a fresh ledger,
    /// exactly as it would have without the restart.
    ///
    /// Fails with [`PrividError::Store`] when the registration cannot be
    /// journaled — the registry is left untouched, so a retry after the
    /// store recovers sees exactly the pre-call state.
    pub fn register_camera(&self, name: impl Into<String>, scene: Scene, policy: PrivacyPolicy) -> Result<(), PrividError> {
        let name = name.into();
        let duration = scene.span.end.as_secs();
        let shard = self.shard_of(&name);
        // Shard-scoped invalidation: only the owning shard's cache tiers can
        // hold this camera's entries, so no other shard's map is walked.
        shard.cache.invalidate_camera(&name);
        shard.agg_cache.invalidate_camera(&name);
        // Journal + insert run under the shard's admission gate (and, inside
        // it, the registry write lock — gate-before-registry is the system's
        // lock order): two racing registrations of one name reach the WAL and
        // the registry in the same order, and an in-flight admission can
        // never journal its debits *after* a replacement's registration
        // record — its ledger currency check and its append are atomic with
        // respect to registrations.
        shard.admission.exclusive(|| {
            let mut cameras = shard.cameras.write().expect("camera registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
            let (generation, ledger) = self.camera_ledger(shard, &name, duration, policy, false)?;
            let state = Arc::new(CameraState {
                scene,
                policy,
                masks: Arc::new(RwLock::new(HashMap::new())),
                ledger: Arc::new(ledger),
                generation,
                recording: None,
            });
            cameras.insert(name, state);
            Ok(())
        })
    }

    /// Register a *live* camera: an empty append-only recording whose footage
    /// arrives through [`QueryService::append_frames`]. The privacy budget
    /// grows with the timeline — every appended slot is born with the
    /// policy's full ε. Re-registering a name replaces the camera (fresh
    /// recording and ledger) and invalidates its cached chunk results.
    ///
    /// On a durable service recovering from a crash, a matching registration
    /// adopts the pre-crash ledger: its timeline already extends to the
    /// recovered live edge with every debit intact, while the scene restarts
    /// empty. The owner then re-feeds the recorded batches from its video
    /// store — replayed edges are no-ops on the ledger (no ε is re-minted),
    /// and queries between the replayed footage and the recovered edge fail
    /// with the retryable [`PrividError::BeyondLiveEdge`] until the replay
    /// catches up.
    pub fn register_live_camera(
        &self,
        name: impl Into<String>,
        frame_rate: FrameRate,
        frame_size: FrameSize,
        policy: PrivacyPolicy,
    ) -> Result<(), PrividError> {
        let name = name.into();
        let recording = Recording::start(CameraId::new(name.as_str()), frame_rate, frame_size);
        let shard = self.shard_of(&name);
        shard.cache.invalidate_camera(&name);
        shard.agg_cache.invalidate_camera(&name);
        shard.admission.exclusive(|| {
            let mut cameras = shard.cameras.write().expect("camera registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
            let (generation, ledger) = self.camera_ledger(shard, &name, 0.0, policy, true)?;
            let state = Arc::new(CameraState {
                scene: recording.scene().clone(),
                policy,
                masks: Arc::new(RwLock::new(HashMap::new())),
                ledger: Arc::new(ledger),
                generation,
                recording: Some(Arc::new(Mutex::new(recording))),
            });
            cameras.insert(name, state);
            Ok(())
        })
    }

    /// Adopt the recovered ledger for `name` when policy and shape match,
    /// else mint (and journal) a fresh registration.
    fn camera_ledger(
        &self,
        shard: &ServiceShard,
        name: &str,
        duration: Seconds,
        policy: PrivacyPolicy,
        live: bool,
    ) -> Result<(u64, BudgetLedger), PrividError> {
        if let Some(rec) = self.take_recovered(shard, name, duration, policy, live) {
            let ledger = BudgetLedger::restore(rec.slots, rec.duration_secs, rec.slot_secs, rec.initial_epsilon, live);
            return Ok((rec.generation, ledger));
        }
        let generation = self.generations.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &shard.store {
            store
                .append(Record::RegisterCamera {
                    name: name.to_string(),
                    generation,
                    live,
                    slot_secs: 1.0,
                    duration_secs: duration,
                    initial_epsilon: policy.epsilon_budget,
                    rho_secs: policy.rho_secs,
                    k: policy.k,
                })
                .map_err(PrividError::Store)?;
        }
        let ledger =
            if live { BudgetLedger::new_live(policy.epsilon_budget) } else { BudgetLedger::new(duration, policy.epsilon_budget) };
        Ok((generation, ledger))
    }

    /// Consume the recovered camera record for `name`, returning it iff the
    /// new registration is the same camera: same liveness, same policy, and
    /// (for fixed recordings) the same duration. Anything else is a
    /// deliberate replacement and must *not* inherit the old ledger — and
    /// the stale entry is dropped either way, so a *later* registration of
    /// the name can never adopt a ledger that a replacement already
    /// superseded in the journal.
    fn take_recovered(
        &self,
        shard: &ServiceShard,
        name: &str,
        duration: Seconds,
        policy: PrivacyPolicy,
        live: bool,
    ) -> Option<CameraRecord> {
        shard.store.as_ref()?;
        let recovered = shard.recovered_cameras.lock().expect("recovered registry poisoned").remove(name)?; // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        let matches = recovered.live == live
            && recovered.initial_epsilon == policy.epsilon_budget
            && recovered.rho_secs == policy.rho_secs
            && recovered.k == policy.k
            && (live || recovered.duration_secs == duration);
        matches.then_some(recovered)
    }

    /// Append one batch of freshly recorded footage to a live camera,
    /// advancing its live edge and growing its budget ledger (new slots are
    /// born with full ε). Publishes a snapshot of the grown scene — sessions
    /// already in flight finish against the edge they resolved — invalidates
    /// cached chunk results whose window overlapped the old live edge
    /// (closed-window entries stay warm), and then fires every standing
    /// query *of this camera* whose next window the new edge completed.
    ///
    /// ## Cost model
    ///
    /// An append costs O(batch), end to end, however much footage the camera
    /// already holds. The scene's objects and time index are structurally
    /// shared ([`privid_video::PagedVec`]): extending the camera's one
    /// long-lived [`Recording`] copies only the pages and index buckets the
    /// batch touches, the published snapshot is an O(1) clone of it, and
    /// dropping the predecessor snapshot frees only those few copied pages.
    /// The pump then visits only this camera's standing queries and runs each
    /// newly closed chunk once per distinct window (see `session`).
    ///
    /// ## Degraded modes
    ///
    /// With durability, a *transient* journal failure (I/O error on the
    /// append) is retried with bounded exponential backoff
    /// ([`StoreRetryPolicy`]); exhaustion marks the camera
    /// [`CameraHealth::Degraded`] and returns the store error (a later append
    /// may still succeed). A **wedged** store quarantines the camera and
    /// returns the retryable [`PrividError::CameraQuarantined`]: the ledger
    /// never grows without a journaled record, and only a supervised
    /// [`QueryService::recover_store`] resumes ingestion.
    pub fn append_frames(&self, camera: &str, mut batch: FrameBatch) -> Result<AppendOutcome, PrividError> {
        self.ensure_admittable(camera)?;
        let mut attempt = 0u32;
        let live_edge_secs = loop {
            match self.append_once(camera, &mut batch) {
                // A re-registration replaced the camera mid-append: redo
                // against the new one.
                Ok(None) => continue,
                Ok(Some(edge)) => {
                    if self.shard_of(camera).store.is_some() {
                        // Any successful journaled append clears a Degraded
                        // mark (quarantine was refused before the loop).
                        self.set_health(camera, CameraHealth::Healthy);
                    }
                    break edge;
                }
                Err(PrividError::Store(e)) => {
                    if matches!(e, StoreError::Wedged { .. }) {
                        // Durability is compromised until a supervised
                        // reopen; retrying cannot help and must not pretend
                        // otherwise. Quarantine this camera only.
                        let reason = e.to_string();
                        self.set_health(camera, CameraHealth::Quarantined { reason: reason.clone() });
                        return Err(PrividError::CameraQuarantined { camera: camera.to_string(), reason });
                    }
                    if e.is_transient() && attempt < self.retry.max_retries {
                        // Backoff outside every lock, then redo the whole
                        // append against whatever the camera is by then.
                        attempt += 1;
                        std::thread::sleep(self.retry.backoff(attempt));
                        continue;
                    }
                    self.set_health(camera, CameraHealth::Degraded { reason: e.to_string() });
                    return Err(PrividError::Store(e));
                }
                Err(other) => return Err(other),
            }
        };
        let standing_fired = self.pump_standing_queries(&[camera]);
        Ok(AppendOutcome { live_edge_secs, standing_fired })
    }

    /// One attempt at appending `batch`: validate, journal the new edge, grow
    /// the ledger and the recording, publish the snapshot. Returns the new
    /// edge, or `None` — nothing changed — when the camera was re-registered
    /// between resolving it and the registry write lock. `batch` is emptied
    /// only by the attempt that succeeds.
    fn append_once(&self, camera: &str, batch: &mut FrameBatch) -> Result<Option<Seconds>, PrividError> {
        // Everything below is scoped to the owning shard: the exclusive
        // section holds *this shard's* gate only, so an append here never
        // stalls admissions (or other appends) on any other shard.
        let shard = self.shard_of(camera);
        let base = self.camera(camera).ok_or_else(|| PrividError::UnknownCamera(camera.to_string()))?;
        let Some(ingest) = &base.recording else {
            return Err(PrividError::Invalid(format!(
                "camera {camera} is a fixed recording; only live cameras accept frame batches"
            )));
        };
        // Lock-order audit: `camera-ingest` is the outermost lock — taken
        // with nothing held (`base` is a cloned Arc, not a registry guard);
        // the shard gate and the registry write lock nest inside it. It
        // serializes this camera's appenders from validation to publication,
        // so the recording is only ever extended by a batch whose edge was
        // journaled, in journal order. Held for O(batch) work plus the
        // journal append; released before any backoff sleep and before the
        // standing pump.
        let mut recording = ingest.lock().expect("camera ingest lock poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        // Refuse a bad batch before anything is journaled or grown.
        let edge_secs = recording.validate(batch).map_err(|e| PrividError::Invalid(e.to_string()))?.as_secs();
        // Order matters: grow the ledger *before* publishing the snapshot (a
        // session resolving the new scene must find its slots funded), and
        // drop overlap cache entries while holding the write lock so no
        // session can resolve the new edge and still hit them.
        //
        // With durability the new edge is journaled *before* the ledger
        // grows, under the admission gate (acquired before the registry lock
        // — gate-before-registry is the system's lock order): admissions
        // resolve their debit slot ranges between check and debit, so
        // extensions must not interleave — and the WAL must observe extends
        // and admits in exactly the order the ledger does. A crash between
        // journal and extend recovers a timeline slightly ahead of the
        // footage; queries there fail retryably, and no slot gains ε.
        shard.admission.exclusive(|| {
            let mut cameras = shard.cameras.write().expect("camera registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
            let current = cameras.get(camera).and_then(|state| state.recording.as_ref());
            if !current.is_some_and(|current| Arc::ptr_eq(current, ingest)) {
                return Ok(None);
            }
            if let Some(store) = &shard.store {
                // Skip the record when the edge does not advance the ledger:
                // post-crash replay of recorded batches would otherwise pay
                // one append (and an fsync) per batch for journal no-ops.
                // Race-free: the gate serializes every ledger growth.
                if edge_secs > base.ledger.duration_secs() {
                    store
                        .append(Record::Extend { camera: camera.to_string(), live_edge_secs: edge_secs })
                        .map_err(PrividError::Store)?;
                }
            }
            // Journaled: from here on nothing refuses the batch (it was
            // validated against this very recording, under its lock).
            let validated = FrameBatch::new(batch.duration_secs, std::mem::take(&mut batch.objects));
            recording.append_batch(validated).map_err(|e| PrividError::Invalid(e.to_string()))?;
            base.ledger.extend_to(edge_secs);
            // Only the chunk-result tier carries live-edge-tagged entries;
            // aggregate states cover exclusively closed chunks, which this
            // append cannot change, so the second tier needs no invalidation
            // here.
            shard.cache.invalidate_live_edge(camera);
            let next = Arc::new(CameraState {
                // O(1): the snapshot shares every page with the recording.
                scene: recording.scene().clone(),
                policy: base.policy,
                masks: Arc::clone(&base.masks),
                ledger: Arc::clone(&base.ledger),
                generation: base.generation,
                recording: Some(Arc::clone(ingest)),
            });
            cameras.insert(camera.to_string(), next);
            Ok(Some(edge_secs))
        })
    }

    /// The recorded duration of a camera, in seconds — for a live camera,
    /// its current high-watermark (footage exists strictly before it).
    pub fn live_edge(&self, camera: &str) -> Option<Seconds> {
        self.camera(camera).map(|c| c.scene.span.end.as_secs())
    }

    /// Publish a mask (and its reduced ρ) for a camera (§7.1). Re-publishing
    /// a mask id replaces it and invalidates only that mask's cached results
    /// (unmasked and other-mask entries are unaffected by the change).
    pub fn register_mask(&self, camera: &str, mask_id: impl Into<String>, policy: MaskPolicy) -> Result<(), PrividError> {
        // Insert under the camera-registry read lock: resolving the state and
        // then writing outside it would race a concurrent register_camera and
        // silently publish the mask into the replaced (dead) CameraState.
        let shard = self.shard_of(camera);
        let cameras = shard.cameras.read().expect("camera registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        let state = cameras.get(camera).ok_or_else(|| PrividError::UnknownCamera(camera.to_string()))?;
        let mask_id = mask_id.into();
        shard.cache.invalidate_mask(camera, &mask_id);
        shard.agg_cache.invalidate_mask(camera, &mask_id);
        let generation = self.generations.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &shard.store {
            store
                .append(Record::RegisterMask {
                    camera: camera.to_string(),
                    mask_id: mask_id.clone(),
                    generation,
                    rho_secs: policy.rho_secs,
                })
                .map_err(PrividError::Store)?;
        }
        state.masks.write().expect("mask registry poisoned").insert(mask_id, (generation, policy)); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        Ok(())
    }

    /// Attach an analyst processor executable under a name. Re-registering a
    /// name replaces the factory and invalidates its cached chunk results.
    ///
    /// Fails with [`PrividError::Store`] when the registration cannot be
    /// journaled; the factory registry is left untouched.
    pub fn register_processor<F>(&self, name: impl Into<String>, factory: F) -> Result<(), PrividError>
    where
        F: Fn() -> Box<dyn ChunkProcessor> + Send + Sync + 'static,
    {
        let name = name.into();
        // A processor's cached outputs live on its *cameras'* shards, not on
        // the shard its own name hashes to — a re-registration must walk
        // every shard's tiers (unlike camera invalidation, which is
        // shard-local by construction).
        for shard in &self.shards {
            shard.cache.invalidate_processor(&name);
            shard.agg_cache.invalidate_processor(&name);
        }
        let shard = self.shard_of(&name);
        let generation = self.generations.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &shard.store {
            store
                .append(Record::RegisterProcessor { name: name.clone(), generation })
                .map_err(PrividError::Store)?;
        }
        // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        shard.processors.write().expect("processor registry poisoned").insert(name, (generation, Arc::new(factory)));
        Ok(())
    }

    // ---- standing queries ---------------------------------------------------------------

    /// Register a standing query: a prototype query whose SPLIT windows cover
    /// `[0, period)` and which automatically re-runs — shifted by one period —
    /// over every window the referenced live cameras complete. Each firing is
    /// an ordinary query: it passes budget admission and debits ε for its own
    /// window (exactly once per slot over the standing query's life, since
    /// consecutive windows are disjoint), and draws noise from
    /// `base_seed + window_index`, so any firing can be replayed bit-for-bit
    /// against a batch registration of the same footage.
    ///
    /// Windows already completed at registration time fire immediately
    /// (catch-up); the count of firings this call produced is returned.
    /// Re-registering a name with a *different* query text or seed replaces
    /// the standing query and resets its high-watermark to zero; registering
    /// the identical `(text, base_seed)` again is idempotent and keeps the
    /// watermark — which is what lets a restarted durable service re-arm a
    /// recovered standing query at its next unfired window instead of
    /// re-firing (and re-debiting) history.
    pub fn register_standing_query(
        &self,
        name: impl Into<String>,
        base_seed: u64,
        text: &str,
    ) -> Result<usize, PrividError> {
        self.register_standing_scoped(None, name, base_seed, text)
    }

    /// [`QueryService::register_standing_query`] on a tenant's behalf — the
    /// multi-tenant front-end's entry point.
    ///
    /// The standing namespace is shared, so ownership gates it: a fresh name
    /// is claimed for `tenant`; a name owned by a *different* tenant is
    /// refused with the typed [`PrividError::StandingQueryDenied`] whether
    /// the call would re-register or replace it. A recovered standing query
    /// (whose journal predates tenant ownership) is unowned until its
    /// tenant's first idempotent re-registration reclaims it. Every firing
    /// of an owned query is charged against the owner's ε quota exactly like
    /// a [`QueryService::execute_as`] submission: an over-quota window is
    /// recorded as a quota-refusal firing and executes nothing — no camera
    /// ledger is touched.
    pub fn register_standing_query_as(
        &self,
        tenant: &str,
        name: impl Into<String>,
        base_seed: u64,
        text: &str,
    ) -> Result<usize, PrividError> {
        self.register_standing_scoped(Some(tenant), name, base_seed, text)
    }

    fn register_standing_scoped(
        &self,
        tenant: Option<&str>,
        name: impl Into<String>,
        base_seed: u64,
        text: &str,
    ) -> Result<usize, PrividError> {
        let query = parse_query(text)?;
        if query.splits.is_empty() {
            return Err(PrividError::Invalid("a standing query needs at least one SPLIT".into()));
        }
        if query.splits.iter().any(|s| s.begin_secs < 0.0) {
            return Err(PrividError::Invalid("standing-query SPLIT windows must start at or after 0".into()));
        }
        let period_secs = query.splits.iter().map(|s| s.end_secs).fold(0.0, f64::max);
        if period_secs <= 0.0 {
            return Err(PrividError::Invalid("a standing query's SPLIT windows must cover footage".into()));
        }
        let mut cameras: Vec<String> = query.splits.iter().map(|s| s.camera.clone()).collect();
        cameras.sort();
        cameras.dedup();
        for cam in &cameras {
            let state = self.camera(cam).ok_or_else(|| PrividError::UnknownCamera(cam.clone()))?;
            if !state.live() {
                return Err(PrividError::Invalid(format!(
                    "standing queries require live cameras; {cam} is a fixed recording"
                )));
            }
        }
        let name = name.into();
        {
            let mut standing = self.standing.lock().expect("standing registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
            // Ownership gate: a tenant may touch a name only if it is fresh,
            // already its own, or unowned (a recovered registration whose
            // journal predates tenant ownership — first re-registration
            // reclaims it). Trusted in-process callers (`tenant == None`)
            // bypass the gate but never *take* ownership from a tenant.
            if let (Some(t), Some(existing)) = (tenant, standing.queries.get(&name)) {
                if existing.owner.as_deref().is_some_and(|o| o != t) {
                    return Err(PrividError::StandingQueryDenied { name, tenant: t.to_string() });
                }
            }
            match standing.queries.get_mut(&name) {
                Some(existing) if existing.text == text && existing.base_seed == base_seed => {
                    // Idempotent re-registration: keep the firing watermark.
                    // A tenant re-registering an unowned (recovered) query
                    // claims it here.
                    if let Some(t) = tenant {
                        existing.owner.get_or_insert_with(|| t.to_string());
                    }
                }
                _ => {
                    // Standing queries are global in memory but journal to
                    // the shard their *name* hashes to (they may reference
                    // cameras on several shards; the record needs one home).
                    if let Some(store) = &self.shard_of(&name).store {
                        store
                            .append(Record::RegisterStanding {
                                name: name.clone(),
                                base_seed,
                                period_secs,
                                text: text.to_string(),
                            })
                            .map_err(PrividError::Store)?;
                    }
                    standing.insert(
                        name,
                        StandingState {
                            query: Arc::new(query),
                            text: text.to_string(),
                            cameras: cameras.clone(),
                            period_secs,
                            base_seed,
                            next_start_secs: 0.0,
                            firings: VecDeque::new(),
                            fired_count: 0,
                            owner: tenant.map(str::to_string),
                        },
                    );
                }
            }
        }
        // Catch-up: windows the registration's own cameras had already
        // completed fire now.
        let cameras: Vec<&str> = cameras.iter().map(String::as_str).collect();
        Ok(self.pump_standing_queries(&cameras))
    }

    /// The retained firings of a standing query, in window order.
    ///
    /// Only the most recent `standing_retention` firings are kept in memory;
    /// a long-running poller should use
    /// [`QueryService::standing_results_since`] instead, which returns only
    /// the firings past a cursor and reports anything evicted before it could
    /// be observed.
    pub fn standing_results(&self, name: &str) -> Option<Vec<StandingFiring>> {
        self.standing.lock().expect("standing registry poisoned").queries.get(name).map(|s| { // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
            // Firings are recorded in watermark order, which is window order.
            s.firings.iter().cloned().collect()
        })
    }

    /// The firings of a standing query past `cursor`, in window order.
    ///
    /// The cursor space is the total number of firings ever recorded:
    /// `cursor = 0` means "from the beginning", and each poll's
    /// [`StandingPoll::next_cursor`] names the first firing the *next* poll
    /// should return. Each poll copies only the new firings — a poller that
    /// keeps up pays O(new) per call regardless of how long the query has
    /// been running, and memory stays bounded by the retention cap either
    /// way. Firings the cap evicted before the caller saw them are counted
    /// in [`StandingPoll::dropped`]. `None` means no such standing query.
    pub fn standing_results_since(&self, name: &str, cursor: u64) -> Option<StandingPoll> {
        self.poll_standing_scoped(None, name, cursor)
    }

    /// [`QueryService::standing_results_since`] on a tenant's behalf — the
    /// multi-tenant front-end's poll path.
    ///
    /// Firings are noised query releases; only the tenant that owns the
    /// standing query may read them. A name that does not exist, is owned by
    /// another tenant, or is unowned (a recovered registration the tenant
    /// has not yet reclaimed via
    /// [`QueryService::register_standing_query_as`]) uniformly returns
    /// `None` — a poll must not double as an oracle for which names other
    /// tenants have registered.
    pub fn standing_results_since_as(&self, tenant: &str, name: &str, cursor: u64) -> Option<StandingPoll> {
        self.poll_standing_scoped(Some(tenant), name, cursor)
    }

    fn poll_standing_scoped(&self, tenant: Option<&str>, name: &str, cursor: u64) -> Option<StandingPoll> {
        self.standing.lock().expect("standing registry poisoned").queries.get(name).filter(|s| { // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
            match tenant {
                // Trusted in-process callers see everything.
                None => true,
                Some(t) => s.owner.as_deref() == Some(t),
            }
        }).map(|s| {
            let oldest = s.fired_count - s.firings.len() as u64;
            // A cursor past the end (e.g. from a previous process incarnation
            // that had fired more) clamps to the live range rather than
            // erroring: the poller simply resumes from "now".
            let from = cursor.min(s.fired_count);
            let dropped = oldest.saturating_sub(from);
            let skip = from.saturating_sub(oldest) as usize;
            StandingPoll {
                firings: s.firings.iter().skip(skip).cloned().collect(),
                next_cursor: s.fired_count,
                dropped,
            }
        })
    }

    /// Fire every standing query of `cameras` whose next window is now fully
    /// recorded — `cameras` being the ones whose edge just moved (the
    /// appended camera) or whose completed windows may never have been
    /// looked at (a registration's own cameras). Queries that read none of
    /// them cannot have become due and are not visited, so an append costs
    /// the standing queries of its camera, not of the fleet.
    ///
    /// Due windows are claimed (and the per-query high-watermark advanced)
    /// under the standing-registry lock, so two appends racing each other can
    /// never double-fire a window; the queries themselves execute *outside*
    /// the lock, sharing the prototype (`Arc`) and — through one
    /// [`session::TailMemo`] for the whole call — the execution of every
    /// newly closed chunk that several of them read.
    fn pump_standing_queries(&self, cameras: &[&str]) -> usize {
        let mut jobs: Vec<StandingJob> = Vec::new();
        let mut prefolds: Vec<(Arc<ParsedQuery>, Seconds)> = Vec::new();
        {
            let mut standing = self.standing.lock().expect("standing registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
            let StandingRegistry { queries, by_camera } = &mut *standing;
            // A query on several of `cameras` is visited once.
            let due: BTreeSet<&String> = cameras.iter().filter_map(|c| by_camera.get(*c)).flatten().collect();
            for name in due {
                let Some(st) = queries.get_mut(name) else { continue };
                // The firing frontier is the slowest referenced camera's edge.
                let edge = st
                    .cameras
                    .iter()
                    .map(|c| self.camera(c).map(|s| s.scene.span.end.as_secs()))
                    .try_fold(f64::INFINITY, |acc: f64, e| e.map(|e| acc.min(e)));
                let Some(edge) = edge else { continue };
                // Tolerate float accumulation over many periods at the boundary.
                while st.next_start_secs + st.period_secs <= edge + 1e-9 {
                    let start = st.next_start_secs;
                    let index = (start / st.period_secs).round() as u64;
                    // The watermark advances by *multiplication*, not by
                    // accumulating `+= period`: recovery recomputes it as
                    // `(index + 1) × period` from the journaled firing index,
                    // and for periods with no exact binary representation the
                    // two arithmetics drift apart — which would shift every
                    // post-restart window by ULPs and break bit-for-bit
                    // resumption.
                    let next_start = (index + 1) as f64 * st.period_secs;
                    jobs.push(StandingJob {
                        name: name.clone(),
                        window: TimeSpan::between_secs(start, next_start),
                        index,
                        seed: st.base_seed.wrapping_add(index),
                        query: Arc::clone(&st.query),
                        offset_secs: start,
                        owner: st.owner.clone(),
                    });
                    st.next_start_secs = next_start;
                }
                // The window now *forming* (`[next_start, next_start+period)`)
                // has some footage whenever the edge sits inside it: pre-fold
                // the chunks this append closed so the eventual firing only
                // runs the final stretch. Collected under the lock, executed
                // outside it (it runs the sandbox).
                if edge > st.next_start_secs {
                    prefolds.push((Arc::clone(&st.query), st.next_start_secs));
                }
            }
        }
        let mut memo = session::TailMemo::default();
        let mut commits = Vec::new();
        let mut fired: Vec<(String, StandingFiring)> = Vec::with_capacity(jobs.len());
        for job in jobs {
            // A tenant-owned firing is metered exactly like an `execute_as`
            // submission: reserve the owner's quota first (an over-quota
            // window becomes a quota-refusal firing and executes nothing —
            // no camera ledger is touched), refund on execution failure.
            let result = match job.owner.as_deref() {
                None => self.execute_standing_query(&job, &mut memo),
                Some(tenant) => {
                    let requested = self.query_epsilon_demand(&job.query);
                    match self.reserve_tenant_quota(tenant, requested) {
                        Err(refused) => Err(refused),
                        Ok(()) => {
                            let result = self.execute_standing_query(&job, &mut memo);
                            if result.is_err() {
                                self.refund_tenant_quota(tenant, requested);
                            }
                            result
                        }
                    }
                }
            };
            // Journal the advanced watermark *after* the firing (whose own
            // debits the execute path journaled). The record is only staged
            // here: it rides the commit of whichever `Admit` comes next
            // (the group-commit leader flushes everything staged), and the
            // tickets are redeemed once, below. Best-effort on purpose: a
            // lost record can only make recovery re-fire this window — a
            // duplicate release (identical, by seed determinism) and a
            // conservative double debit, never an under-debit.
            if let Some(store) = &self.shard_of(&job.name).store {
                if let Ok(ticket) = store.stage(Record::StandingFired { name: job.name.clone(), window_index: job.index }) {
                    commits.push((store, ticket));
                }
            }
            fired.push((job.name, StandingFiring { window: job.window, seed: job.seed, result }));
        }
        // Watermarks durable (as far as they will be) → firings visible.
        for (store, ticket) in commits {
            let _ = store.wait_commit(ticket);
        }
        let count = fired.len();
        if count > 0 {
            let mut standing = self.standing.lock().expect("standing registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
            for (name, firing) in fired {
                if let Some(st) = standing.queries.get_mut(&name) {
                    st.firings.push_back(firing);
                    st.fired_count += 1;
                    while st.firings.len() > self.standing_retention {
                        st.firings.pop_front();
                    }
                }
            }
        }
        for (query, offset_secs) in prefolds {
            session::prefold_standing(self, &query, offset_secs, &mut memo);
        }
        count
    }

    /// Execute one standing-query firing: the incremental fold path when it
    /// applies (fully recorded window, foldable SELECTs), else the ordinary
    /// [`QueryService::execute`] pipeline. Both paths draw from a fresh
    /// mechanism seeded the same way and release bit-identical values, so
    /// which one served a firing is observable only in latency.
    fn execute_standing_query(&self, job: &StandingJob, memo: &mut session::TailMemo) -> Result<QueryResult, PrividError> {
        let mut mechanism = LaplaceMechanism::new(job.seed);
        match session::execute_standing(self, &job.query, job.offset_secs, &mut mechanism, memo)? {
            Some(result) => Ok(result),
            None => session::execute_query(self, &job.query, job.offset_secs, &mut LaplaceMechanism::new(job.seed)),
        }
    }

    // ---- durability ---------------------------------------------------------------------

    /// What recovery did when this service was built from an existing store
    /// (`None` without durability or for a fresh store directory).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Write a snapshot and truncate the write-ahead log of every shard,
    /// bounding the next recovery's replay cost. A no-op without durability.
    /// Compaction is per shard — each store also snapshots automatically
    /// every `snapshot_every` of *its own* records, so one hot shard's churn
    /// never forces fleet-wide snapshot work and recovery time stays flat as
    /// the fleet ages.
    pub fn checkpoint(&self) -> Result<(), PrividError> {
        for shard in &self.shards {
            if let Some(store) = &shard.store {
                store.checkpoint().map_err(PrividError::Store)?;
            }
        }
        Ok(())
    }

    /// The durable timeline the budget ledger covers, in seconds. Normally
    /// equal to [`QueryService::live_edge`]; after crash recovery it can run
    /// *ahead* of the replayed scene until the owner has re-fed the recorded
    /// batches (queries in the gap fail retryably).
    pub fn ledger_edge(&self, camera: &str) -> Option<Seconds> {
        self.camera(camera).map(|c| c.ledger.duration_secs())
    }

    // ---- health & supervised recovery ---------------------------------------------------

    /// The durability health of a camera. Cameras with no recorded failure
    /// (and every camera on a non-durable service) are
    /// [`CameraHealth::Healthy`].
    pub fn camera_health(&self, camera: &str) -> CameraHealth {
        self.shard_of(camera)
            .health
            .lock()
            .expect("health registry poisoned") // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
            .states
            .get(camera)
            .cloned()
            .unwrap_or(CameraHealth::Healthy)
    }

    /// Why a store refuses appends, if any shard's WAL is wedged. `None`
    /// without durability or while every shard is accepting records. (A
    /// wedge is per shard: the other shards keep journaling and serving.)
    pub fn store_wedged(&self) -> Option<String> {
        self.shards.iter().find_map(|shard| shard.store.as_ref().and_then(|s| s.is_wedged()))
    }

    /// Why one specific shard's WAL refuses appends, if it is wedged.
    pub fn shard_wedged(&self, shard: usize) -> Option<String> {
        self.shards.get(shard).and_then(|s| s.store.as_ref()).and_then(|s| s.is_wedged())
    }

    /// The durable shadow state (what recovery would rebuild right now),
    /// merged across shards — names are disjoint across shard stores by the
    /// routing hash, so the union loses nothing. `None` without durability.
    /// Chaos and recovery proofs compare its per-slot budgets against the
    /// in-memory ledgers.
    pub fn durable_state(&self) -> Option<privid_store::StoreState> {
        if !self.is_durable() {
            return None;
        }
        let mut merged = privid_store::StoreState::default();
        for shard in &self.shards {
            if let Some(store) = &shard.store {
                let state = store.state();
                merged.cameras.extend(state.cameras);
                merged.processors.extend(state.processors);
                merged.standing.extend(state.standing);
                merged.next_generation = merged.next_generation.max(state.next_generation);
            }
        }
        Some(merged)
    }

    fn is_durable(&self) -> bool {
        self.shards.iter().any(|shard| shard.store.is_some())
    }

    fn set_health(&self, camera: &str, health: CameraHealth) {
        let mut registry = self.shard_of(camera).health.lock().expect("health registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        match health {
            CameraHealth::Healthy => {
                registry.states.remove(camera);
            }
            other => {
                registry.states.insert(camera.to_string(), other);
            }
        }
    }

    /// Refuse the operation when `camera` is quarantined: ε must never be
    /// debited (nor the ledger extended) without a journaled record.
    pub(crate) fn ensure_admittable(&self, camera: &str) -> Result<(), PrividError> {
        match self.camera_health(camera) {
            CameraHealth::Quarantined { reason } => {
                Err(PrividError::CameraQuarantined { camera: camera.to_string(), reason })
            }
            _ => Ok(()),
        }
    }

    /// Degrade or quarantine the cameras an admission's journal failure hit,
    /// and convert the store error into the error the analyst sees. A wedge
    /// quarantines every camera in the admission (their debits share the one
    /// refused record); a transient failure only degrades them — the next
    /// admission retries naturally.
    pub(crate) fn note_journal_failure(&self, cameras: &[&str], error: StoreError) -> PrividError {
        if let StoreError::Wedged { reason } = &error {
            for camera in cameras {
                self.set_health(camera, CameraHealth::Quarantined { reason: reason.clone() });
            }
            if let Some(first) = cameras.first() {
                return PrividError::CameraQuarantined { camera: first.to_string(), reason: reason.clone() };
            }
        } else if error.is_transient() {
            for camera in cameras {
                self.set_health(camera, CameraHealth::Degraded { reason: error.to_string() });
            }
        }
        PrividError::Store(error)
    }

    /// Record that a best-effort `Credit` rollback could not be journaled:
    /// the durable ledger keeps debits the in-memory ledger rolled back. The
    /// camera is quarantined (further admissions could compound the
    /// divergence) and a typed [`RecoveryWarning`] is queued for the next
    /// [`QueryService::recover_store`] report.
    fn note_lost_rollback(&self, camera: &str, lo: u64, hi: u64, epsilon: f64, error: &StoreError) {
        let reason = format!("a rollback credit could not be journaled: {error}");
        let mut registry = self.shard_of(camera).health.lock().expect("health registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        registry.warnings.push(RecoveryWarning::CreditRollbackLost {
            camera: camera.to_string(),
            lo,
            hi,
            epsilon_bits: epsilon.to_bits(),
            error: error.to_string(),
        });
        registry.states.insert(camera.to_string(), CameraHealth::Quarantined { reason });
    }

    /// Supervised recovery after storage faults: reopen the store (re-reading
    /// the log from disk), reconcile every registered camera's in-memory
    /// ledger against the recovered durable state, lift all quarantines, and
    /// return the recovery report with any accumulated warnings attached.
    ///
    /// Reconciliation takes the element-wise **minimum** of remaining budget
    /// and the **maximum** of the timelines ([`BudgetLedger::reconcile`]), so
    /// whichever side saw more debits wins — ε lost to a fault is wasted,
    /// never re-minted. Recovered cameras that are not currently registered
    /// are staged for adoption exactly as at build time.
    pub fn recover_store(&self) -> Result<RecoveryReport, PrividError> {
        if !self.is_durable() {
            return Err(PrividError::Invalid("recover_store requires a durable service".into()));
        }
        let mut merged = RecoveryReport::default();
        for shard in &self.shards {
            let Some(store) = &shard.store else { continue };
            // Under this shard's admission gate: no admission may journal (or
            // debit) on this shard between the reopen and the ledger
            // reconciliation, and no append may extend a timeline the
            // reconciliation is mid-merge on. Other shards keep serving —
            // recovery is per shard, like the faults it repairs.
            let report = shard.admission.exclusive(|| -> Result<RecoveryReport, PrividError> {
                let recovered = store.reopen().map_err(PrividError::Store)?;
                let cameras = shard.cameras.read().expect("camera registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
                let mut unclaimed = BTreeMap::new();
                for (name, rec) in recovered.state.cameras {
                    match cameras.get(&name) {
                        // Same generation = same registration lineage: the
                        // recovered slots describe this very ledger.
                        Some(state) if state.generation == rec.generation => {
                            state.ledger.reconcile(&rec.slots, rec.duration_secs);
                        }
                        // A different (or no) registration: stage the record
                        // for adoption by a future matching re-registration.
                        _ => {
                            unclaimed.insert(name, rec);
                        }
                    }
                }
                let mut staged = shard.recovered_cameras.lock().expect("recovered registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
                staged.extend(unclaimed);
                Ok(recovered.report)
            })?;
            merge_report(&mut merged, report);
        }
        for shard in &self.shards {
            // Drain the store's own durability warnings (e.g. a snapshot
            // rename whose directory fsync failed) before the health
            // registry's: the store saw its faults first.
            if let Some(store) = &shard.store {
                merged.warnings.extend(store.drain_warnings());
            }
            let mut registry = shard.health.lock().expect("health registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
            merged.warnings.append(&mut registry.warnings);
            registry.states.clear();
        }
        Ok(merged)
    }

    // ---- introspection ------------------------------------------------------------------

    /// Remaining per-frame budget of a camera at a given time.
    pub fn remaining_budget(&self, camera: &str, at_secs: f64) -> Option<f64> {
        self.camera(camera).map(|c| c.ledger.remaining_at(at_secs))
    }

    /// Counters of the cross-query chunk-result cache, summed over shards.
    pub fn cache_stats(&self) -> ChunkCacheStats {
        let mut total = ChunkCacheStats::default();
        for stats in self.shards.iter().map(|shard| shard.cache.stats()) {
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.evictions += stats.evictions;
            total.entries += stats.entries;
        }
        total
    }

    /// Counters of the aggregate-state cache (the second tier), summed over
    /// shards: hits are queries that reused another query's folded sub-plan
    /// states.
    pub fn agg_cache_stats(&self) -> AggCacheStats {
        let mut total = AggCacheStats::default();
        for stats in self.shards.iter().map(|shard| shard.agg_cache.stats()) {
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.evictions += stats.evictions;
            total.entries += stats.entries;
        }
        total
    }

    /// Counters of one shard's chunk-result cache (`None` out of range).
    /// The fleet tests assert with these that invalidation on camera
    /// re-registration walks only the owning shard's entries.
    pub fn shard_cache_stats(&self, shard: usize) -> Option<ChunkCacheStats> {
        self.shards.get(shard).map(|s| s.cache.stats())
    }

    /// The number of shards the serving plane is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns a registry name (camera, processor or standing
    /// query). Stable across restarts: FNV-1a of the name, not a seeded
    /// hasher — the durable layout depends on it.
    pub fn shard_index(&self, name: &str) -> usize {
        (shard_hash(name) % self.shards.len().max(1) as u64) as usize
    }

    // ---- execution ----------------------------------------------------------------------

    /// Parse and execute a textual query with a per-query noise seed.
    pub fn execute_text(&self, seed: u64, text: &str) -> Result<QueryResult, PrividError> {
        let query = parse_query(text)?;
        self.execute(seed, &query)
    }

    /// Execute a parsed query with a per-query noise seed. Safe to call from
    /// any number of threads concurrently; the releases depend only on
    /// `(seed, query)` (plus, under contended budget, the admission outcome).
    ///
    /// **Threat model**: the seed must be chosen by the *video owner*. This
    /// reproduction takes it as a parameter so experiments can replay exact
    /// noise streams — the same reason [`NoisyRelease`](crate::NoisyRelease)
    /// exposes its `raw` value. A deployment would draw the seed from
    /// owner-side entropy per query; an analyst who controls (or learns) the
    /// seed can regenerate every Laplace sample offline and subtract the
    /// noise, voiding the DP guarantee.
    pub fn execute(&self, seed: u64, query: &ParsedQuery) -> Result<QueryResult, PrividError> {
        session::execute_query(self, query, 0.0, &mut LaplaceMechanism::new(seed))
    }

    // ---- tenant quotas ------------------------------------------------------------------

    /// Grant (or reset) a tenant's remaining ε quota. Tenants with no quota
    /// set are unlimited — quotas are the multi-tenant server's resource
    /// governance layer; the per-camera ledgers alone carry the DP
    /// guarantee.
    pub fn set_tenant_quota(&self, tenant: impl Into<String>, epsilon: f64) {
        let mut quotas = self.tenant_quotas.lock().expect("tenant quota registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        quotas.insert(tenant.into(), epsilon.max(0.0));
    }

    /// A tenant's remaining ε quota, or `None` if the tenant is unlimited.
    pub fn tenant_quota_remaining(&self, tenant: &str) -> Option<f64> {
        let quotas = self.tenant_quotas.lock().expect("tenant quota registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        quotas.get(tenant).copied()
    }

    /// Parse and execute a textual query on a tenant's behalf, enforcing the
    /// tenant's ε quota. See [`QueryService::execute_as`].
    pub fn execute_text_as(&self, tenant: &str, seed: u64, text: &str) -> Result<QueryResult, PrividError> {
        let query = parse_query(text)?;
        self.execute_as(tenant, seed, &query)
    }

    /// Execute a parsed query on a tenant's behalf, enforcing the tenant's ε
    /// quota at admission time.
    ///
    /// The query's total ε demand is computable from the parsed query alone
    /// (each SELECT's `CONSUMING` clause, or the service default) — the same
    /// formula the per-camera admission gate charges — so the quota is
    /// reserved *before* any sandbox work or ledger debit. An over-quota
    /// submission is rejected with the typed
    /// [`PrividError::TenantQuotaExhausted`] and debits nothing anywhere. If
    /// execution then fails (unknown camera, exhausted per-camera ledger,
    /// …), the reservation is refunded in full: the refund can only
    /// *under*-count ε the per-camera ledgers kept (rare post-admission
    /// failures), never hand back ε that produced an analyst-visible
    /// release.
    pub fn execute_as(&self, tenant: &str, seed: u64, query: &ParsedQuery) -> Result<QueryResult, PrividError> {
        let requested = self.query_epsilon_demand(query);
        self.reserve_tenant_quota(tenant, requested)?;
        let result = self.execute(seed, query);
        if result.is_err() {
            self.refund_tenant_quota(tenant, requested);
        }
        result
    }

    /// Total ε a parsed query will consume on success — each SELECT's
    /// `CONSUMING` clause, or the service default. `session` admits exactly
    /// this value at the per-camera gate, which is what makes reserving it
    /// against a tenant quota *before* execution sound.
    pub(crate) fn query_epsilon_demand(&self, query: &ParsedQuery) -> f64 {
        query.selects.iter().map(|s| s.epsilon.unwrap_or(self.default_epsilon)).sum()
    }

    /// Reserve `requested` ε from a tenant's quota, or refuse with the typed
    /// admission error (debiting nothing). Tenants with no quota entry are
    /// unlimited. Standalone acquisition of `tenant-quota-registry`.
    fn reserve_tenant_quota(&self, tenant: &str, requested: f64) -> Result<(), PrividError> {
        let mut quotas = self.tenant_quotas.lock().expect("tenant quota registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        if let Some(available) = quotas.get_mut(tenant) {
            if requested > *available {
                return Err(PrividError::TenantQuotaExhausted {
                    tenant: tenant.to_string(),
                    requested,
                    available: *available,
                });
            }
            *available -= requested;
        }
        Ok(())
    }

    /// Return a failed execution's reservation. The refund can only
    /// *under*-count ε the per-camera ledgers kept (rare post-admission
    /// failures), never hand back ε that produced an analyst-visible
    /// release. Standalone acquisition of `tenant-quota-registry`.
    fn refund_tenant_quota(&self, tenant: &str, amount: f64) {
        let mut quotas = self.tenant_quotas.lock().expect("tenant quota registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        if let Some(available) = quotas.get_mut(tenant) {
            *available += amount;
        }
    }

    // ---- internals shared with `session` -------------------------------------------------

    fn shard_of(&self, name: &str) -> &ServiceShard {
        self.shard_at(self.shard_index(name))
    }

    fn shard_at(&self, index: usize) -> &ServiceShard {
        // privid-analyzer: allow(panic-freedom) -- `index` comes from `shard_index`, a modulus over the (never-empty) shard vec
        &self.shards[index]
    }

    pub(crate) fn camera(&self, name: &str) -> Option<Arc<CameraState>> {
        self.shard_of(name).cameras.read().expect("camera registry poisoned").get(name).cloned() // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
    }

    /// Resolve a processor to its `(generation, factory)` pair.
    pub(crate) fn processor(&self, name: &str) -> Option<RegisteredProcessor> {
        self.shard_of(name).processors.read().expect("processor registry poisoned").get(name).cloned() // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
    }

    /// The chunk-result cache tier of the shard owning `camera` — sessions
    /// route every probe and insert through the camera's home shard, which
    /// is what keeps invalidation shard-local.
    pub(crate) fn chunk_cache_for(&self, camera: &str) -> &ChunkResultCache {
        &self.shard_of(camera).cache
    }

    /// The aggregate-state cache tier of the shard owning `camera`.
    pub(crate) fn agg_cache_for(&self, camera: &str) -> &AggStateCache {
        &self.shard_of(camera).agg_cache
    }

    /// Whether the tier-2 cache is enabled (capacity is uniform per shard,
    /// so the first shard answers for the fleet).
    pub(crate) fn agg_cache_enabled(&self) -> bool {
        self.shards.first().is_some_and(|shard| shard.agg_cache.enabled())
    }

    /// Admit a query's per-window requests, journaling the debits first when
    /// the service is durable. `cameras[i]` names the camera of `requests[i]`
    /// (for the journal record and error attribution).
    ///
    /// Requests are grouped by owning shard and admitted through
    /// [`admit_fleet`]: every involved shard's gate is acquired in ascending
    /// shard order, the check-all-then-debit-all protocol runs across the
    /// union, and each durable shard's `Admit` record is *staged* under the
    /// gates but group-committed (one fsync per batch) after they drop.
    pub(crate) fn admit_requests(
        &self,
        requests: &[AdmissionRequest<'_>],
        cameras: &[&str],
        epsilon: f64,
    ) -> Result<(), AdmissionFailure> {
        debug_assert_eq!(requests.len(), cameras.len());
        // BTreeMap iteration gives the canonical ascending shard order the
        // fleet lock discipline requires.
        let mut grouped: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, camera) in cameras.iter().enumerate() {
            grouped.entry(self.shard_index(camera)).or_default().push(i);
        }
        let prepared: Vec<(&ServiceShard, Vec<usize>, Option<WalAdmissionJournal<'_>>)> = grouped
            .into_iter()
            .map(|(k, members)| {
                let shard = self.shard_at(k);
                let journal = shard.store.as_ref().map(|store| WalAdmissionJournal {
                    service: self,
                    store: Arc::clone(store),
                    cameras: members.iter().filter_map(|&i| cameras.get(i).copied()).collect(),
                });
                (shard, members, journal)
            })
            .collect();
        let groups: Vec<ShardAdmission<'_>> = prepared
            .iter()
            .map(|(shard, members, journal)| ShardAdmission {
                shard: shard.index,
                controller: &shard.admission,
                journal: journal.as_ref().map(|j| j as &dyn AdmissionJournal),
                members: members.clone(),
            })
            .collect();
        admit_fleet(&groups, requests, epsilon)
    }
}

/// The serving layer's [`AdmissionJournal`]: one atomic [`Record::Admit`]
/// per (admission, shard), carrying the exact slot ranges the debits will
/// cover on that shard.
struct WalAdmissionJournal<'a> {
    service: &'a QueryService,
    /// The owning shard's store, as an owned `Arc`: the commit-wait closure
    /// `record_admit` returns must outlive the admission call, so it cannot
    /// borrow from the journal.
    store: Arc<WalStore>,
    /// Camera name per member request, index-aligned with the (shard-local)
    /// request slice the journal hooks receive.
    cameras: Vec<&'a str>,
}

impl AdmissionJournal for WalAdmissionJournal<'_> {
    fn record_admit(
        &self,
        requests: &[AdmissionRequest<'_>],
        epsilon: f64,
    ) -> Result<Option<CommitWait>, StoreError> {
        let mut debits = Vec::with_capacity(requests.len());
        for (camera, request) in self.cameras.iter().zip(requests) {
            // A session may be admitting against a camera a concurrent
            // re-registration has since replaced. Its debit then lands on
            // the detached old ledger — correct for the session, which
            // finishes against the state it resolved — but meaningless after
            // a restart: the journal's shadow already follows the
            // replacement's fresh ledger (whose record was appended under
            // this same gate). Skip journaling such ranges; the detached
            // ledger dies with the process.
            let current =
                self.service.camera(camera).is_some_and(|s| std::ptr::eq(s.ledger.as_ref(), request.ledger));
            if !current {
                continue;
            }
            // The range is resolved under the admission gate, between check
            // and debit: it is exactly what `check_and_debit` will cover.
            let (lo, hi) = request.ledger.debit_slot_range(&request.window).map_err(|e| StoreError::InvalidRecord {
                offset: 0,
                reason: format!("checked admission window failed to resolve to slots: {e:?}"),
            })?;
            debits.push(privid_store::DebitRange { camera: camera.to_string(), lo: lo as u64, hi: hi as u64 });
        }
        if debits.is_empty() {
            return Ok(None);
        }
        // Stage under the shard gates, redeem after they drop: the group
        // commit batches this record with concurrent admissions' appends
        // (one fsync per batch), and no admission holds a gate while the
        // flush runs. A staging failure aborts the fleet admission with the
        // budget intact, exactly as the old synchronous append did.
        let ticket = self.store.stage(Record::Admit { epsilon, debits })?;
        let store = Arc::clone(&self.store);
        Ok(Some(Box::new(move || store.wait_commit(ticket))))
    }

    fn record_rollback(&self, requests: &[AdmissionRequest<'_>], _debited: usize, epsilon: f64) {
        // Only reachable when an out-of-contract caller debits a ledger
        // outside the controller (shared-ledger conflicts are rejected by
        // simulation before anything is journaled). The admit record
        // journaled debits for *every* current request, while the rolled-back
        // admission's net in-memory effect is zero — so every journaled range
        // must be credited back, including those whose in-memory debit never
        // happened. Best-effort: a lost (or ULP-inexact) credit recovers an
        // over-debited slot, never an under-debit — but a *failed* credit is
        // not silent: the divergence between journal and memory is recorded
        // as a typed warning and the camera is quarantined until a supervised
        // recovery reconciles the two (further admissions on a ledger the
        // journal disagrees with could compound the gap).
        let store = &self.store;
        for (camera, request) in self.cameras.iter().zip(requests) {
            let current =
                self.service.camera(camera).is_some_and(|s| std::ptr::eq(s.ledger.as_ref(), request.ledger));
            if !current {
                continue;
            }
            if let Ok((lo, hi)) = request.ledger.debit_slot_range(&request.window) {
                let credit = Record::Credit { camera: camera.to_string(), lo: lo as u64, hi: hi as u64, epsilon };
                if let Err(e) = store.append(credit) {
                    self.service.note_lost_rollback(camera, lo as u64, hi as u64, epsilon, &e);
                }
            }
        }
    }
}

/// Builder for [`QueryService`] — the single configuration path. Knobs are
/// only recorded here and resolved together in [`QueryServiceBuilder::build`]
/// (so their order is irrelevant: `cache_capacity(0).shards(4)` and
/// `shards(4).cache_capacity(0)` build the same service). `build` is
/// fallible because the durability configuration recovers from disk.
#[derive(Debug, Default)]
pub struct QueryServiceBuilder {
    parallelism: Option<Parallelism>,
    default_epsilon: Option<f64>,
    cache_capacity: Option<usize>,
    durability: Durability,
    snapshot_every: Option<u64>,
    storage_vfs: Option<Arc<dyn Vfs>>,
    shard_vfs: Vec<(usize, Arc<dyn Vfs>)>,
    append_retry: Option<StoreRetryPolicy>,
    shards: Option<usize>,
    standing_retention: Option<usize>,
}

impl QueryServiceBuilder {
    /// Worker count of the chunk execution engine.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// ε charged to SELECTs without `CONSUMING`.
    pub fn default_epsilon(mut self, epsilon: f64) -> Self {
        self.default_epsilon = Some(epsilon);
        self
    }

    /// Chunk-cache capacity, split across shards (ceiling division). The
    /// aggregate-state tier scales with it — its entries are a few folded
    /// states, far smaller than a chunk's rows — so `0` disables both tiers
    /// (and with them incremental standing-query execution).
    pub fn cache_capacity(mut self, max_entries: usize) -> Self {
        self.cache_capacity = Some(max_entries);
        self
    }

    /// Where (and whether) to persist admission state. With
    /// [`Durability::Wal`], `build` recovers any existing state in the
    /// directory: standing queries are restored and re-armed at their next
    /// unfired window, the generation counter resumes past every recovered
    /// generation, and recovered camera ledgers await adoption by matching
    /// re-registrations.
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Snapshot (and truncate the WAL) after this many records (default 4096).
    pub fn snapshot_every(mut self, records: u64) -> Self {
        self.snapshot_every = Some(records);
        self
    }

    /// Route every filesystem touch of the durability store through an
    /// explicit [`Vfs`] — the injection point for
    /// [`FaultVfs`](privid_store::FaultVfs) in fault-injection tests and
    /// chaos harnesses. Defaults to the real filesystem.
    pub fn storage_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.storage_vfs = Some(vfs);
        self
    }

    /// Number of camera shards. Each shard owns its own registry slice,
    /// admission gate, cache tiers, health registry and — under
    /// [`Durability::Wal`] — its own WAL + snapshot in `dir/shard-<k>/`.
    /// Cameras route to shards by a stable hash of their name, so the
    /// layout survives restarts. Defaults to 1 (the pre-fleet layout).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Override the [`Vfs`] of a *single* shard's store, leaving the rest on
    /// the default. This is the injection point for single-shard chaos: fault
    /// one shard's filesystem and assert the others keep serving.
    pub fn shard_storage_vfs(mut self, shard: usize, vfs: Arc<dyn Vfs>) -> Self {
        self.shard_vfs.push((shard, vfs));
        self
    }

    /// Backoff policy for transient journal failures in
    /// [`QueryService::append_frames`].
    pub fn append_retry(mut self, policy: StoreRetryPolicy) -> Self {
        self.append_retry = Some(policy);
        self
    }

    /// How many firings each standing query retains for polling (default
    /// 1024; clamped to at least 1).
    pub fn standing_retention(mut self, retained: usize) -> Self {
        self.standing_retention = Some(retained);
        self
    }

    /// Build the service, performing crash recovery if the durability
    /// directory holds existing state.
    pub fn build(self) -> Result<QueryService, PrividError> {
        let mut service = QueryService::new();
        if let Some(p) = self.parallelism {
            service.parallelism = p;
        }
        if let Some(e) = self.default_epsilon {
            service.default_epsilon = e;
        }
        if let Some(r) = self.append_retry {
            service.retry = r;
        }
        if let Some(r) = self.standing_retention {
            service.standing_retention = r.max(1);
        }
        let n = self.shards.unwrap_or(1).max(1);
        let per_cache = self.cache_capacity.map(|c| split_capacity(c, n));
        service.shards = (0..n).map(|k| ServiceShard::new(k, per_cache)).collect();
        let Durability::Wal { dir, fsync } = self.durability else {
            return Ok(service);
        };
        let options = WalOptions { snapshot_every: self.snapshot_every.unwrap_or(WalOptions::default().snapshot_every) };
        let default_vfs = self.storage_vfs.unwrap_or_else(|| Arc::new(privid_store::StdVfs));
        let overrides: HashMap<usize, Arc<dyn Vfs>> = self.shard_vfs.into_iter().collect();
        // Shard dirs are created contiguously (0..n), so a shrunk fleet is
        // detectable by probing index n: footage journaled on a shard this
        // layout would never read again must refuse to open, not silently
        // re-mint its ε.
        if default_vfs.exists(&dir.join(format!("shard-{n}"))) {
            return Err(PrividError::Store(StoreError::InvalidRecord {
                offset: 0,
                reason: format!(
                    "durability dir holds shard-{n} but the service was built with {n} shard(s): \
                     refusing a layout that would orphan journaled admissions"
                ),
            }));
        }
        let mut merged_report = RecoveryReport::default();
        let mut fresh = true;
        let mut standing_records: BTreeMap<String, privid_store::StandingRecord> = BTreeMap::new();
        for (k, shard) in service.shards.iter_mut().enumerate() {
            let shard_dir = dir.join(format!("shard-{k}"));
            let vfs = overrides.get(&k).cloned().unwrap_or_else(|| Arc::clone(&default_vfs));
            let (store, recovered) =
                WalStore::open_with_vfs(shard_dir, fsync, options, vfs).map_err(PrividError::Store)?;
            // Every recovered name must hash home to this shard: a store laid
            // out under a different shard count would scatter a camera's
            // ledger across shards and could double-expose its ε.
            for name in recovered.state.cameras.keys().chain(recovered.state.standing.keys()) {
                let home = (shard_hash(name) % n as u64) as usize;
                if home != k {
                    return Err(PrividError::Store(StoreError::InvalidRecord {
                        offset: 0,
                        reason: format!(
                            "shard-{k} holds {name:?} whose home under {n} shard(s) is shard-{home}: \
                             store was laid out for a different shard count"
                        ),
                    }));
                }
            }
            let gen = service.generations.load(Ordering::Relaxed).max(recovered.state.next_generation);
            service.generations.store(gen, Ordering::Relaxed);
            standing_records.extend(recovered.state.standing.clone());
            fresh &= recovered.report == RecoveryReport::default()
                && recovered.state == privid_store::StoreState::default();
            *shard.recovered_cameras.lock().expect("recovered registry poisoned") = recovered.state.cameras; // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
            shard.store = Some(Arc::new(store));
            merge_report(&mut merged_report, recovered.report);
        }
        // Standing queries restore fully automatically: the WAL holds their
        // text, seed and firing watermark. They stay dormant until the owner
        // re-registers their live cameras and re-feeds footage past the
        // watermark (the pump skips queries whose cameras are missing).
        let mut standing = StandingRegistry::default();
        for (name, st) in &standing_records {
            let query = parse_query(&st.text).map_err(|e| {
                PrividError::Store(StoreError::InvalidRecord {
                    offset: 0,
                    reason: format!("recovered standing query {name} no longer parses: {e}"),
                })
            })?;
            let mut cameras: Vec<String> = query.splits.iter().map(|s| s.camera.clone()).collect();
            cameras.sort();
            cameras.dedup();
            standing.insert(
                name.clone(),
                StandingState {
                    query: Arc::new(query),
                    text: st.text.clone(),
                    cameras,
                    period_secs: st.period_secs,
                    base_seed: st.base_seed,
                    next_start_secs: st.next_start_secs,
                    firings: VecDeque::new(),
                    fired_count: 0,
                    // The journal predates tenant ownership; the query stays
                    // unowned (dormant to every tenant) until its tenant's
                    // idempotent re-registration reclaims it.
                    owner: None,
                },
            );
        }
        *service.standing.lock().expect("standing registry poisoned") = standing; // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        // A genuinely fresh store (no snapshot, nothing replayed on any
        // shard) reports no recovery; anything else — even an
        // empty-but-snapshotted state — does, so operators can tell a
        // restart from a first boot.
        service.recovery = (!fresh).then_some(merged_report);
        Ok(service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privid_sandbox::UniqueEntrantProcessor;
    use privid_video::{SceneConfig, SceneGenerator};

    const QUERY: &str = "
        SPLIT campus BEGIN 0 END 600 BY TIME 10 sec STRIDE 0 sec INTO chunks;
        PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
            WITH SCHEMA (count:NUMBER=0) INTO people;
        SELECT COUNT(*) FROM people CONSUMING 0.5;";

    fn service() -> QueryService {
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
        let service = QueryService::builder().parallelism(Parallelism::Fixed(2)).build().expect("in-memory service builds");
        service.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
        service.register_processor("person_counter", || {
            Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
        }).expect("camera/processor registration must succeed");
        service
    }

    #[test]
    fn seeded_execution_is_reproducible_and_seed_sensitive() {
        let svc = service();
        let a = svc.execute_text(11, QUERY).unwrap();
        let b = svc.execute_text(11, QUERY).unwrap();
        assert_eq!(a.releases, b.releases, "same (seed, query) → identical releases");
        let c = svc.execute_text(12, QUERY).unwrap();
        assert_ne!(a.releases[0].value, c.releases[0].value, "different seed → different noise");
    }

    #[test]
    fn repeated_process_prologs_hit_the_cache() {
        let svc = service();
        svc.execute_text(1, QUERY).unwrap();
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        // Different SELECT, same PROCESS prolog: served from cache.
        let other_select =
            QUERY.replace("COUNT(*)", "SUM(range(count, 0, 50))").replace("CONSUMING 0.5", "CONSUMING 0.25");
        svc.execute_text(2, &other_select).unwrap();
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // Budget was still debited once per query.
        let spent = 20.0 - svc.remaining_budget("campus", 300.0).unwrap();
        assert!((spent - 0.75).abs() < 1e-9, "0.5 + 0.25 debited: {spent}");
    }

    #[test]
    fn re_registration_invalidates_cached_results() {
        let svc = service();
        svc.execute_text(1, QUERY).unwrap();
        assert_eq!(svc.cache_stats().entries, 1);
        svc.register_processor("person_counter", || {
            Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
        }).expect("camera/processor registration must succeed");
        assert_eq!(svc.cache_stats().entries, 0, "re-registered processor drops its entries");
        svc.execute_text(1, QUERY).unwrap();
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
        svc.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
        assert_eq!(svc.cache_stats().entries, 0, "re-registered camera drops its entries");
    }

    #[test]
    fn mask_republication_invalidates_only_that_mask() {
        use privid_video::{GridSpec, Mask};
        let svc = service();
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
        let grid = GridSpec::coarse(scene.frame_size);
        svc.register_mask("campus", "benches", MaskPolicy::new(Mask::empty(grid), 20.0)).unwrap();
        svc.execute_text(1, QUERY).unwrap(); // unmasked entry
        let masked = QUERY.replace("STRIDE 0 sec INTO", "STRIDE 0 sec WITH MASK benches INTO");
        svc.execute_text(2, &masked).unwrap(); // masked entry
        assert_eq!(svc.cache_stats().entries, 2);
        // Re-publishing the mask drops only its own entry…
        svc.register_mask("campus", "benches", MaskPolicy::new(Mask::empty(grid), 15.0)).unwrap();
        assert_eq!(svc.cache_stats().entries, 1, "unmasked entry stays warm");
        let before = svc.cache_stats().hits;
        svc.execute_text(3, QUERY).unwrap();
        assert_eq!(svc.cache_stats().hits, before + 1, "unmasked prolog still served from cache");
        // …and the re-published mask's next query re-executes (fresh ρ).
        let replayed = svc.execute_text(4, &masked).unwrap();
        assert!(replayed.releases[0].sensitivity > 0.0);
    }

    #[test]
    fn concurrent_analysts_share_one_service() {
        let svc = service();
        let results: Vec<QueryResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|analyst| {
                    let svc = &svc;
                    scope.spawn(move || svc.execute_text(100 + analyst, QUERY).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every analyst's result matches a serial replay with the same seed.
        let replay = service();
        for (analyst, result) in results.iter().enumerate() {
            let serial = replay.execute_text(100 + analyst as u64, QUERY).unwrap();
            assert_eq!(serial.releases, result.releases, "analyst {analyst} releases must match serial replay");
        }
        // ε was debited exactly once per query.
        let spent = 20.0 - svc.remaining_budget("campus", 300.0).unwrap();
        assert!((spent - 4.0 * 0.5).abs() < 1e-9, "4 queries × 0.5 ε: {spent}");
    }

    #[test]
    fn cache_disabled_service_executes_identically() {
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
        let cached = service();
        let uncached = QueryService::builder()
            .parallelism(Parallelism::Fixed(2))
            .cache_capacity(0)
            .build()
            .expect("in-memory service builds");
        uncached.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
        uncached.register_processor("person_counter", || {
            Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
        }).expect("camera/processor registration must succeed");
        let a = cached.execute_text(5, QUERY).unwrap();
        let b = uncached.execute_text(5, QUERY).unwrap();
        assert_eq!(a, b, "the cache must be invisible in results");
        uncached.execute_text(6, QUERY).unwrap();
        let stats = uncached.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0), "disabled cache is never consulted");
    }

    #[test]
    fn builder_knobs_resolve_at_build_in_any_order() {
        // Regression: configuration used to be applied eagerly, knob by knob,
        // and setting the shard count rebuilt every shard with the default
        // cache capacity — so "capacity 0, then 4 shards" silently re-enabled
        // both cache tiers, and a "cache-disabled reference" service was a
        // cached one depending on call order.
        const SHARDS: usize = 4;
        let capacity_first = QueryService::builder().cache_capacity(0).shards(SHARDS);
        let shards_first = QueryService::builder().shards(SHARDS).cache_capacity(0);
        for builder in [capacity_first, shards_first] {
            let svc = builder.parallelism(Parallelism::Fixed(1)).build().expect("in-memory service builds");
            assert_eq!(svc.shard_count(), SHARDS);
            let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
            svc.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
            svc.register_processor("person_counter", || {
                Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
            }).expect("camera/processor registration must succeed");
            for seed in 0..3 {
                svc.execute_text(seed, QUERY).unwrap();
            }
            for k in 0..SHARDS {
                let tier1 = svc.shard_cache_stats(k).expect("shard in range");
                assert_eq!((tier1.entries, tier1.hits), (0, 0), "shard {k}: tier 1 must stay disabled");
            }
            let tier2 = svc.agg_cache_stats();
            assert_eq!((tier2.entries, tier2.hits), (0, 0), "tier 2 must stay disabled on every shard");
        }
        let clamped = QueryService::builder().standing_retention(0).build().expect("in-memory service builds");
        assert_eq!(clamped.standing_retention, 1, "a retention of 0 would drop every firing before it could be polled");
    }

    fn walker(id: u64, start: f64, end: f64) -> privid_video::TrackedObject {
        use privid_video::trajectory::Trajectory;
        use privid_video::{Attributes, ObjectClass, ObjectId, Point, PresenceSegment, TimeSpan};
        privid_video::TrackedObject::new(
            ObjectId(id),
            ObjectClass::Person,
            Attributes::default(),
            vec![PresenceSegment {
                span: TimeSpan::between_secs(start, end),
                trajectory: Trajectory::linear(Point::new(0.0, 50.0), Point::new(100.0, 50.0), 5.0, 10.0),
            }],
        )
    }

    const LIVE_QUERY: &str = "
        SPLIT live BEGIN 0 END 120 BY TIME 10 sec STRIDE 0 sec INTO chunks;
        PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
            WITH SCHEMA (count:NUMBER=0) INTO people;
        SELECT COUNT(*) FROM people CONSUMING 0.5;";

    fn live_service() -> QueryService {
        live_service_from(QueryService::builder())
    }

    fn live_service_from(builder: QueryServiceBuilder) -> QueryService {
        use privid_video::{FrameRate, FrameSize};
        let svc = builder.parallelism(Parallelism::Fixed(1)).build().expect("in-memory service builds");
        svc.register_live_camera("live", FrameRate::new(2.0), FrameSize::new(100, 100), PrivacyPolicy::new(20.0, 2, 10.0)).expect("camera/processor registration must succeed");
        svc.register_processor("person_counter", || {
            Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
        }).expect("camera/processor registration must succeed");
        svc
    }

    #[test]
    fn live_camera_closed_windows_match_a_batch_registration() {
        use privid_video::{CameraId, FrameBatch, FrameRate, FrameSize, Scene, TimeSpan};
        let objects = vec![walker(1, 5.0, 40.0), walker(2, 70.0, 110.0)];
        let svc = live_service();
        let outcome = svc.append_frames("live", FrameBatch::new(60.0, vec![objects[0].clone()])).unwrap();
        assert_eq!(outcome.live_edge_secs, 60.0);
        svc.append_frames("live", FrameBatch::new(60.0, vec![objects[1].clone()])).unwrap();
        assert_eq!(svc.live_edge("live"), Some(120.0));
        let live = svc.execute_text(7, LIVE_QUERY).unwrap();

        let batch = QueryService::builder().parallelism(Parallelism::Fixed(1)).build().expect("in-memory service builds");
        batch.register_camera(
            "live",
            Scene::new(CameraId::new("live"), TimeSpan::from_secs(120.0), FrameRate::new(2.0), FrameSize::new(100, 100), objects),
            PrivacyPolicy::new(20.0, 2, 10.0),
        ).expect("camera/processor registration must succeed");
        batch.register_processor("person_counter", || {
            Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
        }).expect("camera/processor registration must succeed");
        let replay = batch.execute_text(7, LIVE_QUERY).unwrap();
        assert_eq!(live, replay, "a closed window over the appended recording must be bit-for-bit batch-identical");
        assert!(live.releases[0].raw.as_number().unwrap() >= 1.0, "the appended walkers are visible to the query");
    }

    #[test]
    fn window_beyond_live_edge_fails_cleanly_without_debit() {
        use privid_video::FrameBatch;
        let svc = live_service();
        svc.append_frames("live", FrameBatch::new(60.0, vec![walker(1, 5.0, 40.0)])).unwrap();
        // A window entirely past the edge is the retryable error and burns nothing.
        let future = LIVE_QUERY.replace("BEGIN 0 END 120", "BEGIN 60 END 120");
        match svc.execute_text(2, &future) {
            Err(PrividError::BeyondLiveEdge { camera, start_secs, end_secs, live_edge_secs }) => {
                assert_eq!(camera, "live");
                assert_eq!((start_secs, end_secs, live_edge_secs), (60.0, 120.0, 60.0));
            }
            other => panic!("expected BeyondLiveEdge, got {other:?}"),
        }
        assert!((svc.remaining_budget("live", 30.0).unwrap() - 10.0).abs() < 1e-9, "no slot debited");
        // A window *overlapping* the edge is admitted (clamped, like a fixed
        // recording's windows past its end): only recorded slots are debited.
        let overlap = svc.execute_text(1, LIVE_QUERY).unwrap();
        assert_eq!(overlap.epsilon_spent, 0.5);
        assert!((svc.remaining_budget("live", 30.0).unwrap() - 9.5).abs() < 1e-9, "recorded slots debited");
        // After the footage arrives, the fully-beyond window succeeds and the
        // newly born slots still carry their full budget.
        svc.append_frames("live", FrameBatch::empty(60.0)).unwrap();
        assert!((svc.remaining_budget("live", 90.0).unwrap() - 10.0).abs() < 1e-9, "new frames born with full ε");
        svc.execute_text(2, &future).unwrap();
        assert!((svc.remaining_budget("live", 90.0).unwrap() - 9.5).abs() < 1e-9);
    }

    #[test]
    fn appending_to_a_fixed_camera_is_rejected() {
        use privid_video::FrameBatch;
        let svc = service();
        match svc.append_frames("campus", FrameBatch::empty(60.0)) {
            Err(PrividError::Invalid(msg)) => assert!(msg.contains("fixed recording"), "got: {msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert!(matches!(svc.append_frames("nowhere", FrameBatch::empty(60.0)), Err(PrividError::UnknownCamera(_))));
    }

    #[test]
    fn standing_query_fires_once_per_completed_window() {
        use privid_video::FrameBatch;
        let svc = live_service();
        let standing = "
            SPLIT live BEGIN 0 END 60 BY TIME 10 sec STRIDE 0 sec INTO chunks;
            PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                WITH SCHEMA (count:NUMBER=0) INTO people;
            SELECT COUNT(*) FROM people CONSUMING 0.5;";
        // Registered before any footage: nothing fires yet.
        assert_eq!(svc.register_standing_query("people_per_min", 40, standing).unwrap(), 0);
        // 150 s of footage completes windows [0, 60) and [60, 120).
        let outcome = svc.append_frames("live", FrameBatch::new(150.0, vec![walker(1, 5.0, 40.0), walker(2, 70.0, 140.0)])).unwrap();
        assert_eq!(outcome.standing_fired, 2);
        // 90 s more completes [120, 180) and [180, 240).
        let outcome = svc.append_frames("live", FrameBatch::new(90.0, vec![walker(3, 150.0, 200.0)])).unwrap();
        assert_eq!(outcome.standing_fired, 2);
        let firings = svc.standing_results("people_per_min").unwrap();
        assert_eq!(firings.len(), 4);
        for (k, firing) in firings.iter().enumerate() {
            assert_eq!(firing.window, privid_video::TimeSpan::between_secs(k as f64 * 60.0, (k + 1) as f64 * 60.0));
            assert_eq!(firing.seed, 40 + k as u64);
            let result = firing.result.as_ref().expect("ample budget: every firing admitted");
            assert_eq!(result.epsilon_spent, 0.5);
        }
        // ε was debited exactly once per slot across the standing query's life.
        for at in [10.0, 70.0, 130.0, 190.0] {
            assert!((svc.remaining_budget("live", at).unwrap() - 9.5).abs() < 1e-9, "slot at {at} debited once");
        }
        // Catch-up: a second standing query registered late fires immediately.
        assert_eq!(svc.register_standing_query("catch_up", 99, standing).unwrap(), 4);
    }

    #[test]
    fn standing_poll_cursor_returns_only_new_firings_and_retention_bounds_memory() {
        use privid_video::FrameBatch;
        let svc = live_service_from(QueryService::builder().standing_retention(2));
        let standing = "
            SPLIT live BEGIN 0 END 60 BY TIME 10 sec STRIDE 0 sec INTO chunks;
            PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                WITH SCHEMA (count:NUMBER=0) INTO people;
            SELECT COUNT(*) FROM people CONSUMING 0.05;";
        svc.register_standing_query("per_min", 7, standing).unwrap();
        assert!(svc.standing_results_since("nope", 0).is_none(), "unknown name is None");

        // Two firings; a cursor poll sees both and advances.
        svc.append_frames("live", FrameBatch::new(130.0, vec![walker(1, 5.0, 40.0)])).unwrap();
        let poll = svc.standing_results_since("per_min", 0).unwrap();
        assert_eq!(poll.firings.len(), 2);
        assert_eq!((poll.next_cursor, poll.dropped), (2, 0));
        assert_eq!(poll.firings[0].window, TimeSpan::between_secs(0.0, 60.0));

        // Nothing new: the follow-up poll is empty (no clone of history).
        let idle = svc.standing_results_since("per_min", poll.next_cursor).unwrap();
        assert!(idle.firings.is_empty());
        assert_eq!((idle.next_cursor, idle.dropped), (2, 0));

        // Four more windows close; retention 2 keeps memory bounded while a
        // keeping-up poller still sees every firing it wasn't too slow for.
        svc.append_frames("live", FrameBatch::new(240.0, vec![walker(2, 140.0, 200.0)])).unwrap();
        assert_eq!(svc.standing_results("per_min").unwrap().len(), 2, "retention caps the in-memory history");
        let poll2 = svc.standing_results_since("per_min", idle.next_cursor).unwrap();
        assert_eq!(poll2.firings.len(), 2, "only retained firings are returned");
        assert_eq!(poll2.next_cursor, 6);
        assert_eq!(poll2.dropped, 2, "firings 2 and 3 were evicted before this poll");
        assert_eq!(poll2.firings[0].window, TimeSpan::between_secs(240.0, 300.0));
        assert_eq!(poll2.firings[1].seed, 7 + 5);

        // A stale cursor past the end clamps instead of panicking.
        let clamped = svc.standing_results_since("per_min", 999).unwrap();
        assert!(clamped.firings.is_empty());
        assert_eq!((clamped.next_cursor, clamped.dropped), (6, 0));

        // The regression the wire poll rides on: 10k idle polls each return
        // only the delta. With the old clone-the-world API this loop cloned
        // 10k full histories; here every poll moves zero firings and the
        // retained deque stays at the cap.
        let mut cursor = clamped.next_cursor;
        for _ in 0..10_000 {
            let p = svc.standing_results_since("per_min", cursor).unwrap();
            assert!(p.firings.is_empty());
            cursor = p.next_cursor;
        }
        let standing = svc.standing.lock().unwrap();
        assert_eq!(standing.queries.get("per_min").unwrap().firings.len(), 2, "polling never grows retained state");
    }

    #[test]
    fn tenant_quota_gates_admission_and_refunds_failed_queries() {
        let svc = service();
        // Unlimited tenants pass through untouched.
        assert_eq!(svc.tenant_quota_remaining("alice"), None);
        let direct = svc.execute_text(3, QUERY).unwrap();
        let as_alice = svc.execute_text_as("alice", 3, QUERY).unwrap();
        assert_eq!(direct, as_alice, "quota wrapper never perturbs the release");

        // QUERY consumes 0.5 ε; a 1.2 quota admits two runs, then refuses.
        svc.set_tenant_quota("bob", 1.2);
        svc.execute_text_as("bob", 4, QUERY).unwrap();
        svc.execute_text_as("bob", 5, QUERY).unwrap();
        assert!((svc.tenant_quota_remaining("bob").unwrap() - 0.2).abs() < 1e-9);
        let before = svc.remaining_budget("campus", 5.0).unwrap();
        match svc.execute_text_as("bob", 6, QUERY) {
            Err(PrividError::TenantQuotaExhausted { tenant, requested, available }) => {
                assert_eq!(tenant, "bob");
                assert_eq!(requested, 0.5);
                assert!((available - 0.2).abs() < 1e-9);
            }
            other => panic!("expected TenantQuotaExhausted, got {other:?}"),
        }
        assert!((svc.tenant_quota_remaining("bob").unwrap() - 0.2).abs() < 1e-9, "rejection debits no quota");
        assert_eq!(svc.remaining_budget("campus", 5.0).unwrap(), before, "rejection debits no camera ε");

        // A failed execution refunds the reservation in full.
        svc.set_tenant_quota("carol", 1.0);
        let bad = QUERY.replace("campus", "nowhere");
        assert!(matches!(svc.execute_text_as("carol", 7, &bad), Err(PrividError::UnknownCamera(_))));
        assert!((svc.tenant_quota_remaining("carol").unwrap() - 1.0).abs() < 1e-9, "failed query refunds its reservation");
    }

    #[test]
    fn standing_ownership_scopes_polls_and_meters_the_owner_quota() {
        use privid_video::FrameBatch;
        let svc = live_service();
        let standing = "
            SPLIT live BEGIN 0 END 60 BY TIME 10 sec STRIDE 0 sec INTO chunks;
            PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                WITH SCHEMA (count:NUMBER=0) INTO people;
            SELECT COUNT(*) FROM people CONSUMING 0.5;";
        svc.set_tenant_quota("acme", 1.2);
        // acme claims the name; a rival may neither replace it nor re-register
        // the identical text (that would hand it a handle to acme's firings).
        assert_eq!(svc.register_standing_query_as("acme", "watch", 9, standing).unwrap(), 0);
        match svc.register_standing_query_as("rival", "watch", 9, standing) {
            Err(PrividError::StandingQueryDenied { name, tenant }) => {
                assert_eq!((name.as_str(), tenant.as_str()), ("watch", "rival"));
            }
            other => panic!("expected StandingQueryDenied, got {other:?}"),
        }
        // Scoped polls: the owner sees its query; a rival gets the same answer
        // as for a name that was never registered.
        assert!(svc.standing_results_since_as("acme", "watch", 0).is_some());
        assert!(svc.standing_results_since_as("rival", "watch", 0).is_none(), "cross-tenant poll is indistinguishable from an unknown name");

        // Three windows close; the 1.2 quota admits two 0.5 ε firings and the
        // third becomes a typed refusal firing that executed nothing.
        svc.append_frames("live", FrameBatch::new(200.0, vec![walker(1, 5.0, 40.0)])).unwrap();
        let poll = svc.standing_results_since_as("acme", "watch", 0).unwrap();
        assert_eq!(poll.firings.len(), 3);
        assert!(poll.firings[0].result.is_ok());
        assert!(poll.firings[1].result.is_ok());
        match &poll.firings[2].result {
            Err(PrividError::TenantQuotaExhausted { tenant, requested, available }) => {
                assert_eq!(tenant, "acme");
                assert_eq!(*requested, 0.5);
                assert!((available - 0.2).abs() < 1e-9);
            }
            other => panic!("expected TenantQuotaExhausted firing, got {other:?}"),
        }
        assert!((svc.tenant_quota_remaining("acme").unwrap() - 0.2).abs() < 1e-9, "refused firing debits no quota");
        assert!((svc.remaining_budget("live", 130.0).unwrap() - 10.0).abs() < 1e-9, "refused firing debits no camera ε");

        // In-process registrations stay unowned (and unmetered); they are
        // invisible to scoped polls until a tenant reclaims the name with an
        // idempotent re-registration — the recovery path for pre-ownership
        // journal records.
        svc.register_standing_query("legacy", 4, standing).unwrap();
        assert!(svc.standing_results_since_as("acme", "legacy", 0).is_none(), "unowned names are invisible to scoped polls");
        svc.register_standing_query_as("acme", "legacy", 4, standing).unwrap();
        assert!(svc.standing_results_since_as("acme", "legacy", 0).is_some(), "identical re-registration claims the unowned name");
    }

    // ---- durability ---------------------------------------------------------------------

    use privid_store::{Durability, FsyncPolicy};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    static WAL_DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

    fn wal_dir(tag: &str) -> PathBuf {
        let n = WAL_DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("privid-svc-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_service(dir: &PathBuf) -> QueryService {
        let svc = QueryService::builder()
            .parallelism(Parallelism::Fixed(1))
            .durability(Durability::wal(dir, FsyncPolicy::Never))
            .build()
            .expect("durable service builds");
        svc.register_processor("person_counter", || {
            Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
        }).expect("camera/processor registration must succeed");
        svc
    }

    #[test]
    fn restart_adopts_the_debited_ledger_instead_of_reminting_epsilon() {
        let dir = wal_dir("adopt");
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
        {
            let svc = durable_service(&dir);
            svc.register_camera("campus", scene.clone(), PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
            svc.execute_text(1, QUERY).unwrap();
            assert!((svc.remaining_budget("campus", 300.0).unwrap() - 19.5).abs() < 1e-9);
            // Crash: the service is dropped without any shutdown protocol.
        }
        let svc = durable_service(&dir);
        assert!(svc.recovery_report().is_some());
        svc.register_camera("campus", scene.clone(), PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
        assert!(
            (svc.remaining_budget("campus", 300.0).unwrap() - 19.5).abs() < 1e-9,
            "the pre-crash debit must survive the restart"
        );
        // A *different* policy is a deliberate replacement: fresh ledger.
        svc.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 10.0)).expect("camera/processor registration must succeed");
        assert!((svc.remaining_budget("campus", 300.0).unwrap() - 10.0).abs() < 1e-9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_restores_live_edge_and_rejects_the_unreplayed_gap() {
        use privid_video::{FrameBatch, FrameRate, FrameSize};
        let dir = wal_dir("live");
        {
            let svc = durable_service(&dir);
            svc.register_live_camera("live", FrameRate::new(2.0), FrameSize::new(100, 100), PrivacyPolicy::new(20.0, 2, 10.0)).expect("camera/processor registration must succeed");
            svc.append_frames("live", FrameBatch::new(60.0, vec![walker(1, 5.0, 40.0)])).unwrap();
            svc.append_frames("live", FrameBatch::new(60.0, vec![walker(2, 70.0, 110.0)])).unwrap();
            svc.execute_text(7, LIVE_QUERY).unwrap();
        }
        let svc = durable_service(&dir);
        svc.register_live_camera("live", FrameRate::new(2.0), FrameSize::new(100, 100), PrivacyPolicy::new(20.0, 2, 10.0)).expect("camera/processor registration must succeed");
        // The ledger resumed at the recovered edge with its debits…
        assert_eq!(svc.ledger_edge("live"), Some(120.0));
        assert!((svc.remaining_budget("live", 30.0).unwrap() - 9.5).abs() < 1e-9);
        // …but the scene starts empty: queries fail retryably until the owner
        // replays the recorded batches.
        assert_eq!(svc.live_edge("live"), Some(0.0));
        assert!(matches!(svc.execute_text(1, LIVE_QUERY), Err(PrividError::BeyondLiveEdge { .. })));
        svc.append_frames("live", FrameBatch::new(60.0, vec![walker(1, 5.0, 40.0)])).unwrap();
        svc.append_frames("live", FrameBatch::new(60.0, vec![walker(2, 70.0, 110.0)])).unwrap();
        // Replayed appends do not re-mint ε (the ledger edge never moved).
        assert!((svc.remaining_budget("live", 30.0).unwrap() - 9.5).abs() < 1e-9);
        let replayed = svc.execute_text(7, LIVE_QUERY).unwrap();
        assert_eq!(replayed.epsilon_spent, 0.5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_re_registration_discards_the_recovered_ledger_for_good() {
        // Regression (review): a mismatched registration used to leave the
        // recovered entry in place, so a *later* registration with the
        // original policy silently adopted a ledger the journal had already
        // superseded — diverging the in-memory state from the WAL shadow.
        let dir = wal_dir("stale-adopt");
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate();
        {
            let svc = durable_service(&dir);
            svc.register_camera("campus", scene.clone(), PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
            let q = QUERY.replace("END 600", "END 300");
            svc.execute_text(1, &q).unwrap();
        }
        let svc = durable_service(&dir);
        // A deliberate replacement (different ε budget) supersedes the
        // recovered ledger…
        svc.register_camera("campus", scene.clone(), PrivacyPolicy::new(60.0, 2, 10.0)).expect("camera/processor registration must succeed");
        assert!((svc.remaining_budget("campus", 100.0).unwrap() - 10.0).abs() < 1e-9);
        // …so registering the *original* policy afterwards is a fresh
        // replacement too, not a resurrection of the pre-crash debits.
        svc.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
        assert!(
            (svc.remaining_budget("campus", 100.0).unwrap() - 20.0).abs() < 1e-9,
            "the superseded pre-crash ledger must not come back"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn conflicting_compound_admission_leaves_the_wal_shadow_equal_to_the_ledger() {
        // Regression (review): a same-ledger overlapping admission used to
        // journal its admit record and then roll back, leaving the WAL
        // shadow over-debited relative to the in-memory ledger (float
        // credits don't round-trip). Such conflicts are now rejected by
        // simulation *before* anything reaches the journal; shadow and
        // ledger must stay bit-for-bit equal through the whole episode.
        let dir = wal_dir("rollback");
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
        let svc = durable_service(&dir);
        svc.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 1.0)).expect("camera/processor registration must succeed");
        let state = svc.camera("campus").unwrap();
        let requests = [
            AdmissionRequest { ledger: &state.ledger, window: TimeSpan::between_secs(0.0, 60.0), rho_margin: 0.0 },
            AdmissionRequest { ledger: &state.ledger, window: TimeSpan::between_secs(40.0, 100.0), rho_margin: 0.0 },
        ];
        match svc.admit_requests(&requests, &["campus", "campus"], 0.6) {
            Err(AdmissionFailure::Budget { index: 1, .. }) => {}
            other => panic!("expected a phase-2 rejection, got {other:?}"),
        }
        let shadow = svc.shards[0].store.as_ref().unwrap().state();
        let ledger_bits: Vec<u64> = state.ledger.slots_snapshot().iter().map(|s| s.to_bits()).collect();
        let shadow_bits: Vec<u64> = shadow.cameras["campus"].slots.iter().map(|s| s.to_bits()).collect();
        assert_eq!(shadow_bits, ledger_bits, "after a rollback the WAL shadow must equal the ledger bit-for-bit");
        // And a restart proves it end to end: the adopted ledger still has
        // every slot's full budget.
        drop(svc);
        let svc = durable_service(&dir);
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
        svc.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 1.0)).expect("camera/processor registration must succeed");
        for at in [10.0, 50.0, 90.0] {
            assert!((svc.remaining_budget("campus", at).unwrap() - 1.0).abs() < 1e-9, "no residual debit at {at}s");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replayed_appends_journal_no_stale_extend_records() {
        use privid_video::{FrameBatch, FrameRate, FrameSize};
        let dir = wal_dir("stale-extend");
        {
            let svc = durable_service(&dir);
            svc.register_live_camera("live", FrameRate::new(2.0), FrameSize::new(100, 100), PrivacyPolicy::new(20.0, 2, 10.0)).expect("camera/processor registration must succeed");
            svc.append_frames("live", FrameBatch::new(60.0, vec![walker(1, 5.0, 40.0)])).unwrap();
        }
        let svc = durable_service(&dir);
        svc.register_live_camera("live", FrameRate::new(2.0), FrameSize::new(100, 100), PrivacyPolicy::new(20.0, 2, 10.0)).expect("camera/processor registration must succeed");
        let seq_before = svc.shards[0].store.as_ref().unwrap().next_seq();
        // Replaying the recorded batch must not grow the journal at all…
        svc.append_frames("live", FrameBatch::new(60.0, vec![walker(1, 5.0, 40.0)])).unwrap();
        assert_eq!(svc.shards[0].store.as_ref().unwrap().next_seq(), seq_before, "a stale edge journals nothing");
        // …while genuinely new footage still does.
        svc.append_frames("live", FrameBatch::empty(30.0)).unwrap();
        assert_eq!(svc.shards[0].store.as_ref().unwrap().next_seq(), seq_before + 1);
        assert_eq!(svc.ledger_edge("live"), Some(90.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_and_in_memory_services_release_identically() {
        let dir = wal_dir("biteq");
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
        let durable = durable_service(&dir);
        durable.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
        let plain = service();
        let a = durable.execute_text(11, QUERY).unwrap();
        let b = plain.execute_text(11, QUERY).unwrap();
        assert_eq!(a, b, "durability must be invisible in the released values");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_standing_query_rearms_at_its_next_window() {
        use privid_video::{FrameBatch, FrameRate, FrameSize};
        let dir = wal_dir("standing");
        let standing = "
            SPLIT live BEGIN 0 END 60 BY TIME 10 sec STRIDE 0 sec INTO chunks;
            PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                WITH SCHEMA (count:NUMBER=0) INTO people;
            SELECT COUNT(*) FROM people CONSUMING 0.5;";
        {
            let svc = durable_service(&dir);
            svc.register_live_camera("live", FrameRate::new(2.0), FrameSize::new(100, 100), PrivacyPolicy::new(20.0, 2, 10.0)).expect("camera/processor registration must succeed");
            svc.register_standing_query("per_min", 40, standing).unwrap();
            let fired = svc.append_frames("live", FrameBatch::new(120.0, vec![walker(1, 5.0, 40.0)])).unwrap().standing_fired;
            assert_eq!(fired, 2, "windows [0,60) and [60,120) fire before the crash");
        }
        let svc = durable_service(&dir);
        svc.register_live_camera("live", FrameRate::new(2.0), FrameSize::new(100, 100), PrivacyPolicy::new(20.0, 2, 10.0)).expect("camera/processor registration must succeed");
        // Replaying the recorded footage must not re-fire recovered windows…
        let fired = svc.append_frames("live", FrameBatch::new(120.0, vec![walker(1, 5.0, 40.0)])).unwrap().standing_fired;
        assert_eq!(fired, 0, "recovered watermark holds through the replay");
        // …and the identical re-registration is idempotent, not a reset.
        assert_eq!(svc.register_standing_query("per_min", 40, standing).unwrap(), 0);
        // New footage resumes firing at the next window with the right seed.
        let fired = svc.append_frames("live", FrameBatch::new(60.0, vec![walker(2, 130.0, 170.0)])).unwrap().standing_fired;
        assert_eq!(fired, 1);
        let firings = svc.standing_results("per_min").unwrap();
        assert_eq!(firings.len(), 1, "only post-restart firings are in memory");
        assert_eq!(firings[0].window, TimeSpan::between_secs(120.0, 180.0));
        assert_eq!(firings[0].seed, 42, "seed = base 40 + window index 2");
        // ε: every window debited exactly once across the crash.
        for at in [10.0, 70.0, 130.0] {
            assert!((svc.remaining_budget("live", at).unwrap() - 9.5).abs() < 1e-9, "slot at {at} debited once");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- fault tolerance ----------------------------------------------------------------

    /// Builder-injected `FaultVfs` durable service (passthrough until scripted).
    fn faulty_service(dir: &PathBuf, fsync: FsyncPolicy) -> (std::sync::Arc<privid_store::FaultVfs>, QueryService) {
        let fault = privid_store::FaultVfs::over_std();
        let svc = QueryService::builder()
            .parallelism(Parallelism::Fixed(1))
            .durability(Durability::wal(dir, fsync))
            .storage_vfs(fault.clone())
            .build()
            .expect("durable service builds");
        svc.register_processor("person_counter", || {
            Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
        }).expect("camera/processor registration must succeed");
        (fault, svc)
    }

    #[test]
    fn lost_rollback_credit_quarantines_and_surfaces_in_recovery() {
        // Regression: a failed best-effort `Credit` append used to vanish
        // silently, leaving the WAL shadow permanently over-debited relative
        // to the in-memory ledger with nothing telling the operator. It must
        // quarantine the camera and surface as a typed RecoveryWarning.
        use privid_store::{FaultKind, FaultOp, RecoveryWarning};
        let dir = wal_dir("lost-credit");
        let (fault, svc) = faulty_service(&dir, FsyncPolicy::Never);
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate();
        svc.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
        let store = Arc::clone(svc.shards[svc.shard_index("campus")].store.as_ref().unwrap());
        let state = svc.camera("campus").unwrap();
        let window = TimeSpan::between_secs(0.0, 60.0);
        let (lo, hi) = state.ledger.debit_slot_range(&window).unwrap();

        // Drive record_rollback with every append refused — the only public
        // route to it is an out-of-contract external debit, so the test
        // exercises the journal hook directly.
        let requests = [AdmissionRequest { ledger: &state.ledger, window, rho_margin: 0.0 }];
        fault.fail_from(FaultOp::Write, 1, FaultKind::Eio);
        let journal = WalAdmissionJournal { service: &svc, store: Arc::clone(&store), cameras: vec!["campus"] };
        journal.record_rollback(&requests, 0, 0.5);
        fault.heal();
        assert!(fault.injected() >= 1, "the credit append must actually have failed");

        // Not silent: the camera is quarantined and further admissions
        // refuse retryably before any ε can be debited unjournaled.
        assert!(matches!(svc.camera_health("campus"), CameraHealth::Quarantined { .. }));
        match svc.execute_text(1, QUERY) {
            Err(err @ PrividError::CameraQuarantined { .. }) => assert!(err.is_retryable()),
            other => panic!("expected CameraQuarantined, got {other:?}"),
        }

        // Supervised recovery surfaces the loss as a typed warning…
        let report = svc.recover_store().unwrap();
        match &report.warnings[..] {
            [RecoveryWarning::CreditRollbackLost { camera, lo: wlo, hi: whi, epsilon_bits, .. }] => {
                assert_eq!(camera, "campus");
                assert_eq!((*wlo, *whi), (lo as u64, hi as u64));
                assert_eq!(*epsilon_bits, 0.5f64.to_bits());
            }
            other => panic!("expected one CreditRollbackLost warning, got {other:?}"),
        }
        // …reconciles the ledgers, lifts the quarantine, and the refused
        // query now runs. A second recovery does not replay the warning.
        assert_eq!(svc.camera_health("campus"), CameraHealth::Healthy);
        svc.execute_text(1, QUERY).unwrap();
        assert!(svc.recover_store().unwrap().warnings.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_dir_sync_failure_surfaces_in_supervised_recovery() {
        use privid_store::{FaultKind, FaultOp};
        let dir = wal_dir("dirsync");
        let fault = privid_store::FaultVfs::over_std();
        let svc = QueryService::builder()
            .parallelism(Parallelism::Fixed(1))
            .durability(Durability::wal(&dir, FsyncPolicy::Never))
            .storage_vfs(fault.clone())
            .snapshot_every(1)
            .build()
            .expect("durable service builds");
        // The first journaled record triggers an automatic checkpoint whose
        // post-rename directory fsync fails. Regression: this used to be a
        // swallowed `let _ =` — no trace anywhere.
        fault.fail_nth(FaultOp::DirSync, 1, FaultKind::FsyncFailure);
        svc.register_processor("person_counter", || {
            Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
        }).expect("camera/processor registration must succeed");
        assert_eq!(fault.injected(), 1, "the dir-sync fault fired during the checkpoint");

        let report = svc.recover_store().unwrap();
        match &report.warnings[..] {
            [RecoveryWarning::SnapshotDirSyncFailed { dir: d, error }] => {
                assert!(d.contains("dirsync"), "warning names the shard dir, got {d}");
                assert!(!error.is_empty());
            }
            other => panic!("expected one SnapshotDirSyncFailed warning, got {other:?}"),
        }
        // Drained, not replayed: a second recovery reports nothing.
        assert!(svc.recover_store().unwrap().warnings.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_append_faults_retry_and_a_wedge_quarantines_only_that_camera() {
        use privid_store::{FaultKind, FaultOp, RecoveryEvent};
        use privid_video::{FrameBatch, FrameRate, FrameSize};
        let dir = wal_dir("degrade");
        let (fault, svc) = faulty_service(&dir, FsyncPolicy::Always);
        svc.register_live_camera("live", FrameRate::new(2.0), FrameSize::new(100, 100), PrivacyPolicy::new(20.0, 2, 10.0)).expect("camera/processor registration must succeed"); // write #2 (the processor record was #1)
        let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate();
        svc.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed"); // write #3

        // A single transient write fault on the Extend journal record: the
        // bounded-backoff retry inside append_frames absorbs it.
        fault.fail_nth(FaultOp::Write, 4, FaultKind::Eio);
        let outcome = svc.append_frames("live", FrameBatch::new(60.0, vec![walker(1, 5.0, 40.0)])).unwrap();
        assert_eq!(outcome.live_edge_secs, 60.0);
        assert_eq!(fault.injected(), 1, "the retried attempt hit the scripted fault exactly once");
        assert_eq!(svc.camera_health("live"), CameraHealth::Healthy, "an absorbed transient leaves the camera healthy");

        // A failed fsync wedges the store: the appending camera quarantines,
        // but the blast radius stops there — the other camera stays healthy
        // and its in-memory ledger keeps serving reads.
        fault.fail_from(FaultOp::Fsync, 1, FaultKind::FsyncFailure);
        let err = svc.append_frames("live", FrameBatch::new(60.0, vec![walker(2, 70.0, 110.0)])).unwrap_err();
        assert!(matches!(err, PrividError::CameraQuarantined { .. }), "a wedge surfaces as quarantine, got {err:?}");
        assert!(err.is_retryable());
        assert!(matches!(svc.camera_health("live"), CameraHealth::Quarantined { .. }));
        assert!(svc.store_wedged().is_some());
        assert_eq!(svc.camera_health("campus"), CameraHealth::Healthy);
        assert!((svc.remaining_budget("campus", 100.0).unwrap() - 20.0).abs() < 1e-9, "closed-ledger reads keep serving");
        // Repeated appends stay refused (the wedge is sticky, not per-call).
        assert!(svc.append_frames("live", FrameBatch::empty(30.0)).is_err());

        // Supervised recovery: heal the disk, reopen, reconcile. The wedged
        // Extend's write reached disk before its fsync failed, so the
        // durable timeline may be *ahead* — reconcile adopts the maximum.
        fault.heal();
        let report = svc.recover_store().unwrap();
        assert!(report.events.iter().any(|e| matches!(e, RecoveryEvent::StoreReopened { .. })));
        assert!(report.warnings.is_empty());
        assert_eq!(svc.camera_health("live"), CameraHealth::Healthy);
        assert!(svc.store_wedged().is_none());
        let outcome = svc.append_frames("live", FrameBatch::new(60.0, vec![walker(2, 70.0, 110.0)])).unwrap();
        assert_eq!(outcome.live_edge_secs, 120.0);
        assert_eq!(svc.live_edge("live"), Some(120.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn window_outside_recording_is_rejected_without_debit() {
        let svc = service();
        // The campus scene is 1800 s long; this window is entirely past it.
        let ghost = QUERY.replace("BEGIN 0 END 600", "BEGIN 2000 END 2600");
        match svc.execute_text(1, &ghost) {
            Err(PrividError::WindowOutsideRecording { camera, start_secs, .. }) => {
                assert_eq!(camera, "campus");
                assert_eq!(start_secs, 2000.0);
            }
            other => panic!("expected WindowOutsideRecording, got {other:?}"),
        }
        assert!((svc.remaining_budget("campus", 1799.0).unwrap() - 20.0).abs() < 1e-9, "no frame debited");
    }
}
