//! # privid
//!
//! Facade crate for the Privid reproduction (NSDI 2022: *Privid: Practical,
//! Privacy-Preserving Video Analytics Queries*). It re-exports the public API
//! of every workspace crate so applications can depend on a single crate:
//!
//! * [`video`] — synthetic video substrate (scenes, chunks, masks, datasets).
//! * [`cv`] — simulated detection + tracking and `(ρ, K)` policy estimation.
//! * [`query`] — the query language, relational algebra and sensitivity rules.
//! * [`sandbox`] — isolated execution of analyst chunk processors.
//! * [`core`] — the Privid system: policies, the Laplace mechanism, the
//!   per-frame budget ledger, the concurrent multi-analyst [`QueryService`]
//!   (the one in-process entry point) and the §7 optimizations.
//! * [`store`] — the durable privacy ledger: write-ahead log, snapshots and
//!   crash recovery behind the [`Durability`] knob.
//! * [`wire`] — the sans-IO zero-copy binary wire protocol (versioned frames,
//!   typed decode errors, bit-exact float transport).
//! * [`server`] — the threaded multi-tenant TCP front-end and blocking client
//!   over [`QueryService`], speaking [`wire`].
//!
//! The most common entry points are re-exported at the crate root; see the
//! `examples/` directory for runnable end-to-end walkthroughs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use privid_core as core;
pub use privid_cv as cv;
pub use privid_query as query;
pub use privid_sandbox as sandbox;
pub use privid_server as server;
pub use privid_store as store;
pub use privid_video as video;
pub use privid_wire as wire;

pub use privid_core::{
    admit_fleet, greedy_mask_order, AdmissionController, AdmissionFailure, AdmissionJournal, AdmissionRequest,
    AggCacheStats, AppendOutcome, BudgetError, BudgetLedger, CameraHealth, ChunkCacheStats, CommitWait,
    DegradationCurve, LaplaceMechanism, MaskPolicy, MaskingAnalysis, NoisyRelease, NoisyValue, Parallelism,
    PrivacyPolicy, PrividError, QueryResult, QueryService, QueryServiceBuilder, ShardAdmission,
    StandingFiring, StandingPoll, StoreRetryPolicy,
};
pub use privid_store::{
    Durability, FaultKind, FaultOp, FaultProfile, FaultVfs, FsyncPolicy, Record, RecoveryEvent, RecoveryReport,
    RecoveryWarning, StdVfs, StoreError, StoreState, Vfs, VfsFile, WalOptions, WalStore,
};
pub use privid_cv::{Detector, DetectorConfig, DurationEstimator, PolicyEstimator, Tracker, TrackerConfig};
pub use privid_query::{parse_query, Aggregation, ParsedQuery, Relation, SelectStatement, Value};
pub use privid_sandbox::{
    CarTableProcessor, ChunkProcessor, DirectionFilterProcessor, RedLightProcessor, TaxiShiftProcessor,
    TreeBloomProcessor, UniqueEntrantProcessor,
};
pub use privid_video::{
    CameraId, ChunkBuffer, ChunkPlan, ChunkView, DatasetCatalog, FrameBatch, FrameRate, FrameSize, GridSpec, Mask,
    PersistenceStats, PortoConfig, PortoDataset, PresenceHeatmap, Recording, Scene, SceneConfig, SceneGenerator,
    TimeSpan, Timestamp, TrackedObject,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        // A tiny smoke test exercising one type from each sub-crate.
        let scene = crate::SceneGenerator::new(crate::SceneConfig::campus().with_duration_hours(0.05)).generate();
        assert!(scene.object_count() > 0);
        let policy = crate::PrivacyPolicy::new(30.0, 2, 1.0);
        assert_eq!(policy.bound(), (30.0, 2));
        let parsed = crate::parse_query("SELECT COUNT(*) FROM t;").unwrap();
        assert_eq!(parsed.selects.len(), 1);
    }
}
