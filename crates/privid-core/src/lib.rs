//! # privid-core
//!
//! The Privid system (NSDI 2022): `(ρ, K, ε)`-event-duration privacy for
//! video analytics queries.
//!
//! This crate ties the substrates together into the system of §6:
//!
//! * [`policy`] — `(ρ, K)` privacy policies and per-mask policy maps.
//! * [`mechanism`] — the Laplace mechanism and report-noisy-max.
//! * [`budget`] — the per-frame privacy-budget ledger of Algorithm 1, and the
//!   admission controller that serializes multi-camera admissions.
//! * [`health`] — per-camera `Healthy → Degraded → Quarantined` states that
//!   scope a storage fault to the camera it hit, plus the bounded-backoff
//!   retry policy for transient journal failures.
//! * [`service`] — [`QueryService`], the one in-process entry point:
//!   `RwLock`ed camera/processor registries, per-query sessions with
//!   per-query noise seeds, and the cross-query chunk cache. Built by
//!   [`QueryService::new`] or [`QueryService::builder`].
//! * `session` — per-query execution behind [`QueryService::execute`]:
//!   split → process → admit → aggregate → noise (Algorithm 1).
//! * [`cache`] — the cross-query chunk-result cache (raw sandbox outputs,
//!   DP-safe to share because noise is applied at release time).
//! * [`aggcache`] — the second cache tier: folded per-(plan, chunk-prefix)
//!   aggregate states, shared across analysts running the same sub-plan and
//!   extended incrementally by standing queries.
//! * [`release`] — the release/result types ([`NoisyValue`],
//!   [`NoisyRelease`], [`QueryResult`]).
//! * durability (the `privid-store` crate, re-exported here) — the
//!   write-ahead log + snapshot subsystem behind the [`Durability`] knob on
//!   [`QueryServiceBuilder`]: admissions journal their debits before any slot
//!   is debited, so a crash can never re-mint ε for queried footage.
//! * [`parallel`] — the streaming chunk execution engine: fans lazily
//!   materialized chunk views out to a worker pool and merges outputs in
//!   deterministic order ([`Parallelism`] selects the worker count).
//! * [`masking`] — the spatial-masking optimization of §7.1 and the greedy
//!   mask-ordering Algorithm 2 (Appendix F).
//! * [`spatial`] — the spatial-splitting optimization of §7.2.
//! * [`degradation`] — the graceful-degradation analysis of Appendix C.
//!
//! ## Quick example
//!
//! ```
//! use privid_core::{PrivacyPolicy, QueryService};
//! use privid_sandbox::{ChunkProcessor, UniqueEntrantProcessor};
//! use privid_video::{SceneConfig, SceneGenerator};
//!
//! // The video owner registers a camera, a policy, and accepts queries.
//! let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate();
//! let privid = QueryService::new();
//! privid.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 10.0)).unwrap();
//! privid.register_processor("person_counter", || {
//!     Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
//! }).unwrap();
//!
//! // The analyst submits a textual query; the owner picks its noise seed.
//! let result = privid
//!     .execute_text(
//!         42,
//!         "SPLIT campus BEGIN 0 END 600 BY TIME 10 sec STRIDE 0 sec INTO chunks;
//!          PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
//!              WITH SCHEMA (count:NUMBER=0) INTO people;
//!          SELECT COUNT(*) FROM people CONSUMING 1.0;",
//!     )
//!     .unwrap();
//! assert_eq!(result.releases.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggcache;
pub mod budget;
pub mod cache;
pub mod degradation;
pub mod error;
#[cfg(test)]
mod executor;
pub mod health;
pub mod masking;
pub mod mechanism;
pub mod parallel;
pub mod policy;
pub mod release;
pub mod service;
mod session;
pub mod spatial;

pub use aggcache::{AggCacheKey, AggCacheStats, AggStateCache};
pub use budget::{
    admit_fleet, AdmissionController, AdmissionFailure, AdmissionJournal, AdmissionRequest, BudgetError,
    BudgetLedger, CommitWait, ShardAdmission,
};
pub use cache::{ChunkCacheKey, ChunkCacheStats, ChunkResultCache, ProcessIdentity};
pub use degradation::{detection_probability_bound, DegradationCurve};
pub use error::PrividError;
pub use health::{CameraHealth, StoreRetryPolicy};
pub use parallel::{execute_plan, Parallelism};
pub use privid_store::{
    Durability, FaultKind, FaultOp, FaultProfile, FaultVfs, FsyncPolicy, RecoveryEvent, RecoveryReport,
    RecoveryWarning, StdVfs, StoreError, Vfs,
};
pub use service::{AppendOutcome, QueryService, QueryServiceBuilder, StandingFiring, StandingPoll};
pub use masking::{greedy_mask_order, MaskPlan, MaskingAnalysis};
pub use mechanism::{laplace_noise, report_noisy_max, LaplaceMechanism};
pub use policy::{MaskPolicy, PrivacyPolicy};
pub use release::{NoisyRelease, NoisyValue, QueryResult};
pub use spatial::{region_output_ranges, RegionRangeReport};
