//! Per-query execution sessions.
//!
//! One session = one analyst query: resolve SPLITs against the camera
//! registry, run PROCESS statements through the sandbox (or serve them from
//! the cross-query chunk cache), admit the total ε through the budget
//! admission controller, then aggregate and add seeded noise. Sessions hold
//! `Arc`s to the camera state they resolved at the start, so registry writes
//! never invalidate a query in flight, and they share nothing mutable except
//! the ledgers (serialized in `budget`), the chunk cache and the aggregate
//! cache (both internally locked) — which is what makes
//! [`crate::QueryService`] safely concurrent.
//!
//! Aggregate-only SELECTs never materialize rows at release time: they fold
//! per-chunk [`AggState`]s (see `privid_query::aggstate`) over the columnar
//! table, reusing folded chunk-prefix states from the second cache tier
//! ([`crate::aggcache`]) when another analyst already ran the same sub-plan.
//! Standing-query firings go further via [`execute_standing`]: when every
//! chunk of the window is fully recorded, the session executes only the
//! chunks past the longest cached prefix and extends the folded states —
//! per-firing work proportional to the *new* footage, not the window.
//!
//! **Standing queries run as (prototype, offset).** A standing query's
//! prototype covers `[0, period)`; window `k` is the same statements shifted
//! by `k × period`. The session entry points take that shift as
//! `offset_secs` and add it while resolving SPLITs, so the pump shares one
//! `Arc<ParsedQuery>` per standing query instead of cloning and rewriting it
//! per window (one-shot queries pass 0).
//!
//! **The per-call tail memo.** One append typically makes several standing
//! queries of a camera run the *same* newly closed chunks: COUNT and SUM
//! siblings over one window fire (or pre-fold) together. Within one pump
//! call, [`TailMemo`] hands every firing and pre-fold with the same
//! [`ProcessIdentity`] and chunk range the tail table the first of them
//! executed, so each newly closed chunk runs once per distinct window, not
//! once per query. The memo dies with the call — closed chunks are final, so
//! sharing them is sound, but anything longer-lived is tier 1's and tier 2's
//! job.

use crate::aggcache::{AggCacheKey, AggStateCache};
use crate::budget::{AdmissionFailure, BudgetError};
use crate::cache::{ChunkCacheKey, ProcessIdentity};
use crate::error::PrividError;
use crate::mechanism::LaplaceMechanism;
use crate::parallel::{execute_plan, execute_plan_range};
use crate::release::{NoisyRelease, NoisyValue, QueryResult};
use crate::service::{CameraState, QueryService};
use privid_query::exec::RawRelease;
use privid_query::{
    execute_select, AggState, FoldableSelect, ParsedQuery, ProcessStatement, ReleaseValue, SelectStatement,
    SensitivityContext, SplitStatement, Table,
};
use privid_sandbox::{ProcessorFactory, SandboxSpec};
use privid_video::{ChunkPlan, ChunkSpec, Mask, RegionBoundary, RegionScheme, Seconds, TimeSpan, Timestamp};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// A SPLIT statement resolved against the registered cameras.
struct PreparedSplit {
    camera: String,
    state: Arc<CameraState>,
    window: TimeSpan,
    spec: ChunkSpec,
    /// Resolved mask id plus its registration generation (cache-key tag).
    mask_id: Option<(String, u64)>,
    mask: Option<Mask>,
    /// Live-edge cache tag: `Some(edge)` iff the camera is live and the
    /// window extends past the snapshot's live edge (see `cache` module docs).
    live_edge_micros: Option<i64>,
    /// The window budget admission debits: the query window, clamped to the
    /// snapshot's live edge for live cameras (the shared ledger may have
    /// grown past the snapshot this session serves).
    admit_window: TimeSpan,
    /// The ρ governing tables built from this split (the mask's reduced ρ, or
    /// the camera policy's ρ).
    rho_secs: Seconds,
    region_scheme_id: Option<String>,
    region_scheme: Option<RegionScheme>,
}

/// Everything the aggregate-cache tier needs to know about one PROCESS
/// output: its execution identity (what [`ChunkCacheKey`] carries, minus the
/// live-edge tag — folded states cover only *closed* chunks, which appends
/// never mutate) plus where the window's closed prefix ends.
pub(crate) struct TableMeta {
    process: Arc<ProcessIdentity>,
    window: TimeSpan,
    spec: ChunkSpec,
    /// `Some(edge)` for live cameras: chunks ending at or before the edge are
    /// final; later chunks may still grow. `None` (batch camera) = all final.
    closed_edge: Option<Timestamp>,
    /// Registrations were current when the table was built — folded states
    /// derived from it are worth caching (a stale generation keys entries no
    /// future session can reach).
    cacheable: bool,
}

/// The identity of PROCESS `p` over `split`, built (and its schema
/// formatted) once per statement; every cache key of the statement shares it.
fn process_identity(split: &PreparedSplit, p: &ProcessStatement, processor_generation: u64) -> Arc<ProcessIdentity> {
    ProcessIdentity::new(
        (&split.camera, split.state.generation),
        &split.window,
        &split.spec,
        split.mask_id.as_ref().map(|(id, generation)| (id.as_str(), *generation)),
        split.region_scheme_id.as_deref(),
        (&p.executable, processor_generation),
        p.timeout_secs,
        p.max_rows,
        format!("{:?}", p.schema),
    )
}

impl TableMeta {
    fn new(split: &PreparedSplit, process: Arc<ProcessIdentity>, cacheable: bool) -> TableMeta {
        TableMeta {
            process,
            window: split.window,
            spec: split.spec,
            closed_edge: split.state.live().then_some(split.state.scene.span.end),
            cacheable,
        }
    }

    /// The tier-2 key of this table's first `prefix_chunks` chunks folded by
    /// the plan with this fingerprint — built once per (table, plan); the
    /// walk-back derives the shorter prefixes from it.
    fn agg_key(&self, plan_fingerprint: &str, prefix_chunks: usize) -> AggCacheKey {
        AggCacheKey::new(Arc::clone(&self.process), plan_fingerprint, prefix_chunks as u32)
    }

    /// How many leading chunks of the window are fully recorded. Computed in
    /// exact `Timestamp` (integer microsecond) arithmetic — an f64 comparison
    /// could misclassify a chunk that ends exactly at the live edge, and a
    /// cached state must never cover footage an append can still change.
    fn closed_chunks(&self) -> usize {
        let spans = self.spec.chunk_spans(&self.window);
        match self.closed_edge {
            None => spans.len(),
            Some(edge) => spans.iter().take_while(|span| span.end <= edge).count(),
        }
    }
}

/// Execute one query against the service's registries, drawing noise from
/// `mechanism`. This is the split → process → admit → aggregate → noise
/// pipeline of Algorithm 1 behind [`crate::QueryService::execute`], which
/// seeds one fresh mechanism per query. `offset_secs` shifts every SPLIT
/// window (a standing query's prototype at its firing window; 0 otherwise).
pub(crate) fn execute_query(
    service: &QueryService,
    query: &ParsedQuery,
    offset_secs: Seconds,
    mechanism: &mut LaplaceMechanism,
) -> Result<QueryResult, PrividError> {
    let default_epsilon = service.default_epsilon;
    // ---- 1. Resolve SPLIT statements -------------------------------------------------
    let splits = prepare_all_splits(service, query, offset_secs)?;

    // ---- 2. Run PROCESS statements through the sandbox (or the cache) ----------------
    let mut tables: HashMap<String, Arc<Table>> = HashMap::new();
    let mut metas: HashMap<String, TableMeta> = HashMap::new();
    let mut ctx = SensitivityContext::new();
    let mut table_windows: HashMap<String, (String, TimeSpan)> = HashMap::new();
    let mut chunks_processed = 0usize;
    for p in &query.processes {
        let split = splits.get(&p.input).ok_or_else(|| {
            PrividError::Invalid(format!("PROCESS {} references undefined chunk set {}", p.output, p.input))
        })?;
        let (table, n_chunks, profile, meta) = run_process(service, p, split)?;
        chunks_processed += n_chunks;
        ctx.register(p.output.clone(), profile);
        table_windows.insert(p.output.clone(), (split.camera.clone(), split.window));
        metas.insert(p.output.clone(), meta);
        tables.insert(p.output.clone(), table);
    }

    // ---- 3. Plan every SELECT (validation + sensitivities), pre-admission ------------
    // Everything that can be rejected from the query *structure* — a missing
    // table, no aggregations, a sensitivity-rule violation — must fail before
    // budget admission: rejecting afterwards would permanently consume the
    // analyst's budget for a query that never releases anything.
    let epsilon_total = service.query_epsilon_demand(query);
    if query.selects.is_empty() {
        return Err(PrividError::Invalid("a query must contain at least one SELECT".into()));
    }
    let mut planned = Vec::with_capacity(query.selects.len());
    for stmt in &query.selects {
        let select_epsilon = stmt.epsilon.unwrap_or(default_epsilon);
        let sensitivities = plan_select(stmt, &ctx, &table_windows)?;
        planned.push((stmt, select_epsilon, sensitivities));
    }

    // ---- 4. Budget admission (Algorithm 1, lines 1-5) --------------------------------
    admit_query(service, &splits, epsilon_total)?;

    // ---- 5. Aggregate, bound, add noise ----------------------------------------------
    let mut releases = Vec::new();
    for (stmt, select_epsilon, sensitivities) in planned {
        releases.extend(release_select(stmt, &tables, &metas, &sensitivities, select_epsilon, mechanism, service)?);
    }

    Ok(QueryResult { releases, epsilon_spent: epsilon_total, chunks_processed })
}

/// Resolve every SPLIT of `query` against the camera registry.
///
/// Each camera name is resolved against the registry exactly once per query:
/// if a concurrent register_camera replaced the camera between two SPLITs,
/// resolving per-split could hand them *different* CameraStates — and
/// admission (keyed by name) would debit only one of the two ledgers.
fn prepare_all_splits(
    service: &QueryService,
    query: &ParsedQuery,
    offset_secs: Seconds,
) -> Result<HashMap<String, PreparedSplit>, PrividError> {
    let mut resolved: HashMap<String, Arc<CameraState>> = HashMap::new();
    let mut splits: HashMap<String, PreparedSplit> = HashMap::new();
    for s in &query.splits {
        let state = match resolved.get(&s.camera) {
            Some(state) => Arc::clone(state),
            None => {
                // A quarantined camera is refused up front: the query would
                // need an admission this camera's journal cannot record, and
                // failing here (retryably, before any sandbox work) is
                // cheaper than failing at the admission gate.
                service.ensure_admittable(&s.camera)?;
                let state = service.camera(&s.camera).ok_or_else(|| PrividError::UnknownCamera(s.camera.clone()))?;
                resolved.insert(s.camera.clone(), Arc::clone(&state));
                state
            }
        };
        splits.insert(s.output.clone(), prepare_split(s, offset_secs, state)?);
    }
    Ok(splits)
}

/// Admit the query's total ε over the union of its windows (Algorithm 1,
/// lines 1-5). A camera is debited exactly over the union of its splits'
/// windows: overlapping splits merge, but a gap between disjoint splits is
/// never debited (no chunk from it contributes to any release). The admission
/// controller runs check-all-then-debit-all under a single gate, so
/// concurrent sessions can never partially admit a query or jointly
/// over-spend a slot. Cameras are visited in sorted order purely for
/// deterministic error attribution.
fn admit_query(
    service: &QueryService,
    splits: &HashMap<String, PreparedSplit>,
    epsilon_total: f64,
) -> Result<(), PrividError> {
    let mut camera_windows: BTreeMap<String, (Arc<CameraState>, Vec<TimeSpan>)> = BTreeMap::new();
    for split in splits.values() {
        camera_windows
            .entry(split.camera.clone())
            .and_modify(|(_, windows)| windows.push(split.admit_window))
            .or_insert_with(|| (Arc::clone(&split.state), vec![split.admit_window]));
    }
    let mut requests: Vec<crate::budget::AdmissionRequest<'_>> = Vec::new();
    let mut request_cameras: Vec<&str> = Vec::new();
    for (camera, (state, windows)) in &camera_windows {
        for window in merge_windows(windows, state.policy.rho_secs) {
            requests.push(crate::budget::AdmissionRequest {
                ledger: &state.ledger,
                window,
                rho_margin: state.policy.rho_secs,
            });
            request_cameras.push(camera);
        }
    }
    // On a durable service this journals the admission's exact slot-range
    // debits *before* any slot is debited — and aborts, budget intact, if the
    // record cannot be appended.
    service.admit_requests(&requests, &request_cameras, epsilon_total).map_err(|failure| match failure {
        AdmissionFailure::Budget { index, error } => {
            // privid-analyzer: allow(panic-freedom) -- `index` indexes `requests`, built index-aligned with `request_cameras` (debug_assert in admit_requests)
            let camera = request_cameras[index].to_string();
            match error {
                BudgetError::Insufficient { available } => {
                    PrividError::BudgetExhausted { camera, requested: epsilon_total, available }
                }
                BudgetError::OutsideRecording { start_secs, end_secs, duration_secs } => {
                    PrividError::WindowOutsideRecording { camera, start_secs, end_secs, duration_secs }
                }
                BudgetError::BeyondLiveEdge { start_secs, end_secs, live_edge_secs } => {
                    PrividError::BeyondLiveEdge { camera, start_secs, end_secs, live_edge_secs }
                }
            }
        }
        // A journal failure degrades (transient) or quarantines (wedge) the
        // cameras the refused record covered — per-camera blast radius, not a
        // global failure.
        AdmissionFailure::Journal(e) => service.note_journal_failure(&request_cameras, e),
    })
}

// -------------------------------------------------------------------------------------

/// Merge one camera's split windows into the disjoint spans to admit.
/// Windows whose ±ρ expansions overlap (gap ≤ 2ρ) are merged — an event
/// segment could straddle such a gap, so the margin rule treats them as one
/// continuous window, exactly as the pre-serving-layer executor's bounding
/// hull did. Gaps wider than 2ρ keep their frames' budget untouched: no chunk
/// from them contributes to any release.
fn merge_windows(windows: &[TimeSpan], rho_secs: Seconds) -> Vec<TimeSpan> {
    let mut sorted = windows.to_vec();
    sorted.sort_by_key(|w| (w.start, w.end));
    let mut merged: Vec<TimeSpan> = Vec::with_capacity(sorted.len());
    for w in sorted {
        match merged.last_mut() {
            Some(last) if w.start.as_secs() - last.end.as_secs() <= 2.0 * rho_secs => {
                if w.end > last.end {
                    *last = TimeSpan::new(last.start, w.end);
                }
            }
            _ => merged.push(w),
        }
    }
    merged
}

/// True when the camera, mask and processor registrations a split resolved
/// are still the live ones — i.e. freshly computed outputs are worth caching.
fn registrations_current(
    service: &QueryService,
    split: &PreparedSplit,
    processor: &str,
    processor_generation: u64,
) -> bool {
    if service.camera(&split.camera).map(|s| s.generation) != Some(split.state.generation) {
        return false;
    }
    if service.processor(processor).map(|(g, _)| g) != Some(processor_generation) {
        return false;
    }
    match &split.mask_id {
        None => true,
        Some((id, generation)) => {
            split.state.masks.read().expect("mask registry poisoned").get(id).map(|(g, _)| *g) == Some(*generation) // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
        }
    }
}

fn prepare_split(s: &SplitStatement, offset_secs: Seconds, state: Arc<CameraState>) -> Result<PreparedSplit, PrividError> {
    let spec = ChunkSpec::new(s.chunk_secs, s.stride_secs).map_err(PrividError::Invalid)?;
    let (begin_secs, end_secs) = (s.begin_secs + offset_secs, s.end_secs + offset_secs);
    let window = TimeSpan::between_secs(begin_secs, end_secs);
    // Reject windows with no footage *before* the PROCESS stage: running the
    // sandbox over an empty plan and failing only at admission would waste
    // the whole processing cost (and the old ledger silently clamped such
    // windows onto real frames instead).
    //
    // Live cameras are validated against the *snapshot's* edge, not the
    // shared ledger: an append racing this query may already have grown the
    // ledger, but this session would still serve the pre-append scene — it
    // must fail retryably rather than release empty footage as if recorded.
    let snapshot_edge = state.scene.span.end;
    let live = state.live();
    if live && window.start.max(Timestamp::ZERO) >= snapshot_edge {
        return Err(PrividError::BeyondLiveEdge {
            camera: s.camera.clone(),
            start_secs: begin_secs,
            end_secs,
            live_edge_secs: snapshot_edge.as_secs(),
        });
    }
    match state.ledger.validate_window(&window) {
        Err(BudgetError::OutsideRecording { start_secs, end_secs, duration_secs }) => {
            return Err(PrividError::WindowOutsideRecording { camera: s.camera.clone(), start_secs, end_secs, duration_secs });
        }
        Err(BudgetError::BeyondLiveEdge { start_secs, end_secs, live_edge_secs }) => {
            return Err(PrividError::BeyondLiveEdge { camera: s.camera.clone(), start_secs, end_secs, live_edge_secs });
        }
        _ => {}
    }
    let live_edge_micros = (live && window.end > snapshot_edge).then(|| snapshot_edge.as_micros());
    // Admission must not debit past the footage this session actually serves:
    // the ledger is shared across append snapshots and may already cover more
    // timeline than this snapshot's scene (an append raced the query), but
    // every chunk comes from the snapshot. Clamping the *admitted* window to
    // the snapshot edge keeps the debit and the release congruent; the
    // requested window still drives chunk geometry and sensitivities.
    let admit_window =
        if live && window.end > snapshot_edge { TimeSpan::new(window.start, snapshot_edge) } else { window };
    // Lock-order audit: `mask-registry` is taken here with nothing held
    // above it — `state` is a cloned Arc<CameraState>, not a registry guard.
    // The one nested acquisition (under `camera-registry`) lives in
    // register_mask, which follows the declared order (analyzer.toml).
    let (mask_id, mask, rho) = match &s.mask {
        Some(id) => {
            let masks = state.masks.read().expect("mask registry poisoned"); // privid-analyzer: allow(panic-freedom) -- lock poisoning only follows a prior panic; propagating the crash is intended
            let (generation, mp) = masks.get(id).ok_or_else(|| PrividError::UnknownMask(id.clone()))?;
            (Some((id.clone(), *generation)), Some(mp.mask.clone()), mp.rho_secs)
        }
        None => (None, None, state.policy.rho_secs),
    };
    let region_scheme = match &s.region_scheme {
        Some(id) => {
            let scheme =
                state.scene.region_schemes.get(id).ok_or_else(|| PrividError::UnknownRegionScheme(id.clone()))?;
            // §7.2: soft boundaries require single-frame chunks.
            let frame_secs = state.scene.frame_rate.frame_duration();
            if scheme.boundary == RegionBoundary::Soft && s.chunk_secs > frame_secs + 1e-9 {
                return Err(PrividError::SoftBoundaryChunkTooLarge { chunk_secs: s.chunk_secs, frame_secs });
            }
            Some(scheme.clone())
        }
        None => None,
    };
    Ok(PreparedSplit {
        camera: s.camera.clone(),
        state,
        window,
        spec,
        mask_id,
        mask,
        live_edge_micros,
        admit_window,
        rho_secs: rho,
        region_scheme_id: s.region_scheme.clone(),
        region_scheme,
    })
}

/// The sensitivity profile a PROCESS output registers: data-independent,
/// derived from the statement's declared bounds and the trusted window.
fn table_profile(split: &PreparedSplit, p: &ProcessStatement, regions: usize) -> privid_query::sensitivity::TableProfile {
    privid_query::sensitivity::TableProfile {
        max_rows_per_chunk: p.max_rows,
        chunk_secs: split.spec.chunk_secs,
        rho_secs: split.rho_secs,
        k: split.state.policy.k,
        num_chunks: split.spec.chunk_count(split.window.duration()) * regions as u64,
    }
}

fn run_process(
    service: &QueryService,
    p: &ProcessStatement,
    split: &PreparedSplit,
) -> Result<(Arc<Table>, usize, privid_query::sensitivity::TableProfile, TableMeta), PrividError> {
    let (processor_generation, factory) =
        service.processor(&p.executable).ok_or_else(|| PrividError::UnknownProcessor(p.executable.clone()))?;
    let sandbox_spec = SandboxSpec::new(p.timeout_secs, p.max_rows, p.schema.clone());
    let cache = service.chunk_cache_for(&split.camera);
    // Identity of this PROCESS execution: any two statements with equal keys
    // produce identical sandbox outputs, so the raw table can be shared
    // across queries (noise is applied at release time; see `cache` docs).
    // Registration generations in the key stop a session racing a
    // re-registration from repopulating the cache with outdated outputs.
    // When caching is disabled the cache lock is skipped entirely.
    let process = process_identity(split, p, processor_generation);
    let key = cache.enabled().then(|| ChunkCacheKey::new(Arc::clone(&process), split.live_edge_micros));
    // `chunks_processed` counts the chunk executions the query *required*,
    // whether they ran in the sandbox or were served from the cache — keeping
    // QueryResult a deterministic function of (seed, query).
    let executions;
    let cacheable;
    let table = match key.as_ref().and_then(|k| cache.get(k)) {
        Some(cached) => {
            // The table appends one run per chunk execution — including
            // empty ones — so the cached table re-counts exactly the
            // executions it replaced. A hit is shared by `Arc` clone: no
            // row is copied on this path.
            executions = cached.runs().len();
            // A hit implies the entry's registration generations are still
            // the live ones: every re-registration invalidates eagerly.
            cacheable = true;
            cached
        }
        None => {
            // Stream the chunks through the parallel execution engine: chunks
            // are materialized lazily in the workers and outputs come back in
            // deterministic (chunk, region) order, so the table below is
            // identical at every worker count — and on every cache hit.
            let plan = ChunkPlan::new(&split.state.scene, &split.window, &split.spec, split.mask.as_ref());
            let outputs =
                execute_plan(&plan, split.region_scheme.as_ref(), &*factory, &sandbox_spec, service.parallelism);
            executions = outputs.len();
            // Rows move straight into the columnar table exactly once; the
            // cache shares the same allocation through the `Arc`.
            let mut table = Table::new(p.schema.clone());
            for (region, out) in outputs {
                table.append_chunk_rows(out.chunk_start_secs, region, out.rows, p.max_rows);
            }
            let table = Arc::new(table);
            // Don't retain outputs whose camera/processor/mask registration
            // moved on while we executed: such entries are unreachable (the
            // new generation keys differently) and would only displace live
            // entries when the cache is at capacity.
            cacheable = registrations_current(service, split, &p.executable, processor_generation);
            if let Some(key) = key.filter(|_| cacheable) {
                cache.insert(key, Arc::clone(&table));
            }
            table
        }
    };
    let regions = split.region_scheme.as_ref().map(|s| s.len()).unwrap_or(1).max(1);
    let profile = table_profile(split, p, regions);
    let meta = TableMeta::new(split, process, cacheable);
    Ok((table, executions, profile, meta))
}

/// Validate a SELECT and derive its per-release sensitivities. Runs *before*
/// budget admission: any error here (undefined table, no aggregations, a
/// sensitivity-rule violation) must reject the query while the analyst's
/// budget is still intact. Data-independent by construction — it looks only
/// at the statement and the table *profiles*, never at row contents.
fn plan_select(
    stmt: &SelectStatement,
    ctx: &SensitivityContext,
    table_windows: &HashMap<String, (String, TimeSpan)>,
) -> Result<Vec<f64>, PrividError> {
    // Planned number of releases (data-independent): explicit keys, or
    // chunk bins derived from the trusted query window.
    let base_tables = stmt.source.base_tables();
    for t in &base_tables {
        if !table_windows.contains_key(t) {
            return Err(PrividError::Invalid(format!("SELECT references undefined table {t}")));
        }
    }
    let window = base_tables
        .first()
        .and_then(|t| table_windows.get(t))
        .map(|(_, w)| *w)
        .unwrap_or_else(|| TimeSpan::from_secs(0.0));
    let bins = match &stmt.group_by {
        Some(privid_query::ast::GroupBy { keys: privid_query::ast::GroupKeys::ChunkBins { bin_secs }, .. }) => {
            (window.duration() / bin_secs).ceil().max(1.0) as usize
        }
        _ => 1,
    };
    let sensitivities = ctx.statement_sensitivities(stmt, bins)?;
    // A SELECT with no aggregations plans zero releases; admitting it would
    // consume budget while releasing nothing.
    if sensitivities.is_empty() {
        return Err(PrividError::Invalid(
            "SELECT statement declares no aggregations, so it plans no releases".into(),
        ));
    }
    Ok(sensitivities)
}

/// Aggregate the tables and apply seeded noise for one planned SELECT. Runs
/// after admission; `sensitivities` comes from [`plan_select`].
///
/// Aggregate-only single-table SELECTs take the incremental fold path
/// ([`fold_release`]); JOIN / GROUP BY plans keep the row-materializing
/// evaluator. Both produce bit-identical raw values (the row evaluator's
/// aggregation *is* the same [`AggState`] fold).
fn release_select(
    stmt: &SelectStatement,
    tables: &HashMap<String, Arc<Table>>,
    metas: &HashMap<String, TableMeta>,
    sensitivities: &[f64],
    select_epsilon: f64,
    mechanism: &mut LaplaceMechanism,
    service: &QueryService,
) -> Result<Vec<NoisyRelease>, PrividError> {
    let raw: Vec<RawRelease> = match fold_release(stmt, tables, metas, service) {
        Some(raw) => raw,
        None => execute_select(stmt, tables)?,
    };
    apply_noise(raw, sensitivities, select_epsilon, mechanism)
}

/// The longest cached prefix of `fold` over the first `target` chunks of
/// `key`'s table: how many chunks it covers, and its states (none and the
/// identity when nothing is cached). With `counted`, the probe at `target`
/// itself is a lookup event — the cache's hit rate is the shared-sub-plan
/// rate of the serving path; the walk back to a shorter prefix, and every
/// probe of a warm-up, is silent.
fn longest_cached_prefix(
    agg: &AggStateCache,
    key: &AggCacheKey,
    fold: &FoldableSelect,
    target: usize,
    counted: bool,
) -> (usize, Vec<AggState>) {
    for prefix in (1..=target).rev() {
        let key = key.with_prefix(prefix as u32);
        let hit = if counted && prefix == target { agg.get(&key) } else { agg.peek(&key) };
        if let Some(hit) = hit {
            return (prefix, hit.as_ref().clone());
        }
    }
    (0, fold.identity())
}

/// Release an aggregate-only SELECT by folding per-chunk [`AggState`]s over
/// the columnar table, reusing (and extending) a cached chunk-prefix state
/// when one exists. Returns `None` when the plan is not foldable (JOIN,
/// GROUP BY, no base table) — the caller falls back to the row evaluator.
///
/// Determinism contract: states are always the result of observing the
/// table's surviving rows in row order from row 0 — a cached prefix is
/// extended, never merged out of order — so the released values are
/// bit-identical to a from-scratch fold and to the row evaluator.
fn fold_release(
    stmt: &SelectStatement,
    tables: &HashMap<String, Arc<Table>>,
    metas: &HashMap<String, TableMeta>,
    service: &QueryService,
) -> Option<Vec<RawRelease>> {
    let base_tables = stmt.source.base_tables();
    if base_tables.len() != 1 {
        return None;
    }
    // privid-analyzer: allow(panic-freedom) -- `base_tables.len() == 1` was checked above, so index 0 exists
    let table = tables.get(&base_tables[0])?;
    // privid-analyzer: allow(panic-freedom) -- `base_tables.len() == 1` was checked above, so index 0 exists
    let meta = metas.get(&base_tables[0])?;
    // Aggregate states live in the camera's shard: invalidation on camera
    // re-registration then only ever walks that shard's tier.
    let agg = service.agg_cache_for(meta.process.camera());
    let plan = FoldableSelect::compile(stmt, &table.schema)?;
    let chunks = table.chunk_rows();
    let n = chunks.len();
    let closed = meta.closed_chunks().min(n);
    // The key of the target prefix; shorter prefixes derive from it.
    let key = (agg.enabled() && meta.cacheable && closed > 0).then(|| meta.agg_key(plan.fingerprint(), closed));
    let (covered, mut states) = match &key {
        Some(key) => longest_cached_prefix(agg, key, &plan, closed, true),
        None => (0, plan.identity()),
    };
    if covered < closed {
        // privid-analyzer: allow(panic-freedom) -- `covered < closed <= n == chunks.len()`, so both indices are in bounds
        plan.fold_range(table, chunks[covered].start..chunks[closed - 1].end, &mut states);
        if let Some(key) = key {
            // First insert wins on a race; both values are bit-identical by
            // the determinism contract, so it doesn't matter which.
            agg.insert(key, Arc::new(states.clone()));
        }
    }
    if closed < n {
        // Live-edge tail: chunks an append can still grow are folded fresh
        // every time and never enter the cache.
        // privid-analyzer: allow(panic-freedom) -- `closed < n == chunks.len()` in this branch
        plan.fold_range(table, chunks[closed].start..table.len(), &mut states);
    }
    Some(plan.release(&states))
}

/// Apply seeded Laplace noise to one SELECT's raw releases.
fn apply_noise(
    raw: Vec<RawRelease>,
    sensitivities: &[f64],
    select_epsilon: f64,
    mechanism: &mut LaplaceMechanism,
) -> Result<Vec<NoisyRelease>, PrividError> {
    let first_sensitivity = sensitivities
        .first()
        .copied()
        .ok_or_else(|| PrividError::Invalid("SELECT released no values: no PROCESS produced rows for it".into()))?;
    let planned_releases = sensitivities.len();
    let per_release_epsilon = select_epsilon / planned_releases as f64;

    let mut out = Vec::with_capacity(raw.len());
    for (i, release) in raw.into_iter().enumerate() {
        let sensitivity = sensitivities.get(i).copied().unwrap_or(first_sensitivity);
        let scale = LaplaceMechanism::scale(sensitivity, per_release_epsilon);
        let value = match &release.value {
            ReleaseValue::Number(n) => NoisyValue::Number(mechanism.release(*n, sensitivity, per_release_epsilon)),
            ReleaseValue::Candidates(c) => NoisyValue::Key(
                mechanism.release_argmax(c, sensitivity, per_release_epsilon).unwrap_or_else(|| String::from("")),
            ),
        };
        out.push(NoisyRelease {
            label: release.label,
            group_key: release.group_key,
            value,
            raw: release.value,
            sensitivity,
            noise_scale: scale,
            epsilon: per_release_epsilon,
        });
    }
    Ok(out)
}

// -------------------------------------------------------------------------------------
// Incremental standing-query execution.

/// The tail tables one standing pump call has executed so far, by PROCESS
/// identity (which carries the window) and chunk range — see the module docs.
#[derive(Default)]
pub(crate) struct TailMemo {
    tails: HashMap<(Arc<ProcessIdentity>, Range<usize>), Arc<Table>>,
}

/// One PROCESS statement planned (but not executed) for the incremental path.
struct StandingProcess<'q> {
    p: &'q ProcessStatement,
    split: &'q PreparedSplit,
    factory: Arc<dyn ProcessorFactory + Send + Sync>,
    meta: TableMeta,
}

impl StandingProcess<'_> {
    /// The table of chunks `range` — all of them closed — of this PROCESS:
    /// the one an earlier firing or pre-fold of the same pump call executed
    /// for the same identity and range, or else a fresh sandbox run.
    /// `execute_plan_range` keeps full-plan chunk indices, so the tail is
    /// bit-identical to the same rows of a full execution.
    fn tail(&self, service: &QueryService, memo: &mut TailMemo, range: Range<usize>) -> Arc<Table> {
        let key = (Arc::clone(&self.meta.process), range.clone());
        if let Some(tail) = memo.tails.get(&key) {
            return Arc::clone(tail);
        }
        let StandingProcess { p, split, factory, .. } = self;
        let plan = ChunkPlan::new(&split.state.scene, &split.window, &split.spec, split.mask.as_ref());
        let sandbox_spec = SandboxSpec::new(p.timeout_secs, p.max_rows, p.schema.clone());
        let outputs = execute_plan_range(
            &plan,
            range,
            split.region_scheme.as_ref(),
            &**factory,
            &sandbox_spec,
            service.parallelism,
        );
        let mut tail = Table::new(p.schema.clone());
        for (region, out) in outputs {
            tail.append_chunk_rows(out.chunk_start_secs, region, out.rows, p.max_rows);
        }
        let tail = Arc::new(tail);
        memo.tails.insert(key, Arc::clone(&tail));
        tail
    }
}

/// Execute a standing-query firing incrementally: identical releases to
/// [`execute_query`], but only the chunks past the longest cached fold prefix
/// run in the sandbox — and not even those when an earlier firing of the same
/// pump call (`memo`) already ran them.
///
/// Returns `Ok(None)` — *strictly before admission, so no budget is touched
/// and no noise is drawn* — when the firing can't take the incremental path:
/// the aggregate cache is disabled, a SELECT isn't foldable (JOIN/GROUP BY),
/// or some chunk of the window isn't fully recorded yet. The caller then
/// falls back to the reference pipeline, whose releases are bit-identical.
///
/// Error behavior mirrors [`execute_query`] stage by stage (same error
/// variants in the same order), so a firing fails identically on both paths.
pub(crate) fn execute_standing(
    service: &QueryService,
    query: &ParsedQuery,
    offset_secs: Seconds,
    mechanism: &mut LaplaceMechanism,
    memo: &mut TailMemo,
) -> Result<Option<QueryResult>, PrividError> {
    if !service.agg_cache_enabled() {
        return Ok(None);
    }
    let default_epsilon = service.default_epsilon;
    // ---- 1. Resolve SPLIT statements (identical to the reference path) --------------
    let splits = prepare_all_splits(service, query, offset_secs)?;

    // ---- 2. Plan PROCESS statements without executing any chunk ----------------------
    let mut ctx = SensitivityContext::new();
    let mut table_windows: HashMap<String, (String, TimeSpan)> = HashMap::new();
    let mut processes: Vec<(String, usize, StandingProcess<'_>)> = Vec::new();
    let mut chunks_processed = 0usize;
    for p in &query.processes {
        let split = splits.get(&p.input).ok_or_else(|| {
            PrividError::Invalid(format!("PROCESS {} references undefined chunk set {}", p.output, p.input))
        })?;
        let (processor_generation, factory) =
            service.processor(&p.executable).ok_or_else(|| PrividError::UnknownProcessor(p.executable.clone()))?;
        let cacheable = registrations_current(service, split, &p.executable, processor_generation);
        let meta = TableMeta::new(split, process_identity(split, p, processor_generation), cacheable);
        let n_chunks = meta.spec.chunk_spans(&meta.window).len();
        // The incremental path serves only fully recorded windows: a chunk
        // that can still grow would need re-execution at the next firing
        // anyway, and folded states must never cover mutable footage.
        if meta.closed_chunks() < n_chunks {
            return Ok(None);
        }
        let regions = split.region_scheme.as_ref().map(|s| s.len()).unwrap_or(1).max(1);
        // The reference path executes every (chunk, region) pair; the count
        // stays a deterministic function of the query on both paths.
        chunks_processed += n_chunks * regions;
        ctx.register(p.output.clone(), table_profile(split, p, regions));
        table_windows.insert(p.output.clone(), (split.camera.clone(), split.window));
        processes.push((p.output.clone(), n_chunks, StandingProcess { p, split, factory, meta }));
    }

    // ---- 3. Plan every SELECT, pre-admission (identical to the reference path) -------
    let epsilon_total = service.query_epsilon_demand(query);
    if query.selects.is_empty() {
        return Err(PrividError::Invalid("a query must contain at least one SELECT".into()));
    }
    let mut planned: Vec<(String, f64, Vec<f64>, FoldableSelect)> = Vec::with_capacity(query.selects.len());
    for stmt in &query.selects {
        let select_epsilon = stmt.epsilon.unwrap_or(default_epsilon);
        let sensitivities = plan_select(stmt, &ctx, &table_windows)?;
        let base_tables = stmt.source.base_tables();
        if base_tables.len() != 1 {
            return Ok(None);
        }
        let Some(fold) = processes
            .iter()
            // privid-analyzer: allow(panic-freedom) -- `base_tables.len() == 1` was checked above, so index 0 exists
            .find(|(name, ..)| *name == base_tables[0])
            .and_then(|(_, _, sp)| FoldableSelect::compile(stmt, &sp.p.schema))
        else {
            return Ok(None);
        };
        planned.push((base_tables.into_iter().next().unwrap_or_default(), select_epsilon, sensitivities, fold));
    }

    // ---- 4. Budget admission (identical to the reference path) -----------------------
    admit_query(service, &splits, epsilon_total)?;

    // ---- 5. Fold: extend the longest cached prefix per SELECT ------------------------
    let mut select_states: Vec<Option<Vec<AggState>>> = planned.iter().map(|_| None).collect();
    for (name, n, sp) in &processes {
        let n = *n;
        let agg = service.agg_cache_for(sp.meta.process.camera());
        // Longest cached prefix per SELECT on this table: one counting probe
        // at the full prefix, then a silent walk-back.
        let mut folds: Vec<(usize, AggCacheKey, usize, Vec<AggState>)> = Vec::new();
        for (i, (table, _, _, fold)) in planned.iter().enumerate() {
            if table != name {
                continue;
            }
            let key = sp.meta.agg_key(fold.fingerprint(), n);
            let (covered, states) =
                if sp.meta.cacheable { longest_cached_prefix(agg, &key, fold, n, true) } else { (0, fold.identity()) };
            folds.push((i, key, covered, states));
        }
        // Execute only the chunks past the *shortest* covered prefix, once,
        // shared by every SELECT on this table (and, through the memo, by
        // every sibling query of this pump call).
        let need_from = folds.iter().map(|(_, _, covered, _)| *covered).min().unwrap_or(n);
        if need_from < n {
            let tail = sp.tail(service, memo, need_from..n);
            let tail_chunks = tail.chunk_rows();
            for (i, key, covered, states) in &mut folds {
                if *covered < n {
                    // privid-analyzer: allow(panic-freedom) -- `i` came from enumerate() over `planned`
                    let fold = &planned[*i].3;
                    // privid-analyzer: allow(panic-freedom) -- `need_from <= covered < n` and the tail holds exactly `n - need_from` chunks (one run per executed chunk, empty runs included)
                    fold.fold_range(&tail, tail_chunks[*covered - need_from].start..tail.len(), states);
                    if sp.meta.cacheable {
                        agg.insert(key.clone(), Arc::new(states.clone()));
                    }
                }
            }
        }
        for (i, _, _, states) in folds {
            // privid-analyzer: allow(panic-freedom) -- `i` came from enumerate() over `planned`; `select_states` is planned-length
            select_states[i] = Some(states);
        }
    }

    // ---- 6. Release with seeded noise, in SELECT order -------------------------------
    let mut releases = Vec::new();
    for (i, (_, select_epsilon, sensitivities, fold)) in planned.iter().enumerate() {
        // privid-analyzer: allow(panic-freedom) -- `select_states` was built planned-length above
        let states = select_states[i].take().unwrap_or_else(|| fold.identity());
        releases.extend(apply_noise(fold.release(&states), sensitivities, *select_epsilon, mechanism)?);
    }
    Ok(Some(QueryResult { releases, epsilon_spent: epsilon_total, chunks_processed }))
}

/// Warm the aggregate cache for a standing query's *forming* window: execute
/// and fold the chunks that the latest append closed, so the eventual firing
/// only runs the final stretch. Best-effort and side-effect-free beyond the
/// cache — no budget is admitted or debited (raw outputs and folded states
/// stay inside the video owner's trust domain; ε is charged when a firing
/// releases, exactly as for the chunk cache), no noise is drawn, and every
/// failure is swallowed (the firing simply does the work itself).
///
/// Idempotent under racing appends: the walk-back probe finds the prefix a
/// previous pump already folded, and a duplicate insert at the same prefix is
/// a first-wins no-op on bit-identical states.
pub(crate) fn prefold_standing(service: &QueryService, query: &ParsedQuery, offset_secs: Seconds, memo: &mut TailMemo) {
    if !service.agg_cache_enabled() {
        return;
    }
    let Ok(splits) = prepare_all_splits(service, query, offset_secs) else { return };
    for p in &query.processes {
        let Some(split) = splits.get(&p.input) else { return };
        let agg = service.agg_cache_for(&split.camera);
        let Some((processor_generation, factory)) = service.processor(&p.executable) else { return };
        if !registrations_current(service, split, &p.executable, processor_generation) {
            continue;
        }
        let meta = TableMeta::new(split, process_identity(split, p, processor_generation), true);
        let n_chunks = meta.spec.chunk_spans(&meta.window).len();
        let closed = meta.closed_chunks().min(n_chunks);
        if closed == 0 {
            continue;
        }
        let folds: Vec<FoldableSelect> = query
            .selects
            .iter()
            .filter(|stmt| {
                let base_tables = stmt.source.base_tables();
                // privid-analyzer: allow(panic-freedom) -- short-circuit: index 0 only after `len() == 1`
                base_tables.len() == 1 && base_tables[0] == p.output
            })
            .filter_map(|stmt| FoldableSelect::compile(stmt, &p.schema))
            .collect();
        // Silent probes only: warm-up must not skew the serving-path hit rate.
        let mut work: Vec<(AggCacheKey, usize, Vec<AggState>, &FoldableSelect)> = Vec::new();
        for fold in &folds {
            let key = meta.agg_key(fold.fingerprint(), closed);
            let (covered, states) = longest_cached_prefix(agg, &key, fold, closed, false);
            if covered < closed {
                work.push((key, covered, states, fold));
            }
        }
        let Some(need_from) = work.iter().map(|(_, covered, ..)| *covered).min() else { continue };
        let tail = StandingProcess { p, split, factory, meta }.tail(service, memo, need_from..closed);
        let tail_chunks = tail.chunk_rows();
        for (key, covered, mut states, fold) in work {
            // privid-analyzer: allow(panic-freedom) -- `need_from <= covered < closed` and the tail holds exactly `closed - need_from` chunks (one run per executed chunk, empty runs included)
            fold.fold_range(&tail, tail_chunks[covered - need_from].start..tail.len(), &mut states);
            agg.insert(key, Arc::new(states));
        }
    }
}
