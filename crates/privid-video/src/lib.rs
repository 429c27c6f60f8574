//! # privid-video
//!
//! Synthetic video and scene substrate for the Privid reproduction.
//!
//! The Privid paper (NSDI 2022) evaluates on real surveillance footage
//! (campus / highway / urban YouTube streams and the Porto taxi dataset).
//! Those inputs are not available offline, and Privid itself never inspects
//! pixels: every part of the system consumes either (a) per-chunk tables
//! emitted by an analyst-provided processor, or (b) ground-truth / estimated
//! *durations* of object appearances. This crate therefore models video as a
//! timeline of ground-truth objects with trajectories and attributes, from
//! which frames of bounding-box observations can be materialized at any frame
//! rate, chunked temporally, masked spatially, and split into regions —
//! exactly the operations the paper's pipeline performs on real video.
//!
//! Main entry points:
//! * [`scene::Scene`] — a camera's ground-truth world over a time span.
//! * [`generator`] — the campus / highway / urban scene generators plus the
//!   extended BlazeIt / MIRIS-style catalog used by Table 6.
//! * [`porto`] — the synthetic Porto taxi fleet used by queries Q4–Q6.
//! * [`chunk`] — temporal chunking (`SPLIT ... BY TIME c STRIDE s`).
//! * [`plan`] — lazy, zero-copy chunk materialization ([`plan::ChunkPlan`] /
//!   [`plan::ChunkView`]), the streaming form the execution engine consumes.
//! * [`recording`] — append-only live recordings ([`recording::Recording`]):
//!   a scene that grows by [`recording::FrameBatch`]es behind a per-camera
//!   live-edge high-watermark.
//! * [`stats`] — persistence distributions, heatmaps and maxima (Fig. 3/4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod datasets;
pub mod generator;
pub mod geometry;
pub mod object;
pub mod paged;
pub mod plan;
pub mod porto;
pub mod recording;
pub mod scene;
pub mod stats;
pub mod time;
pub mod trajectory;

pub use chunk::{split_scene, Chunk, ChunkObjectInfo, ChunkSpec, Frame};
pub use datasets::{DatasetCatalog, DatasetEntry};
pub use generator::{SceneConfig, SceneGenerator, SceneKind};
pub use geometry::{BoundingBox, FrameSize, GridSpec, Mask, Point, Region, RegionBoundary, RegionScheme};
pub use object::{Attributes, ObjectClass, ObjectId, Observation, PresenceSegment, TrackedObject, VehicleColor};
pub use plan::{ChunkBuffer, ChunkPlan, ChunkView, FrameView, ObjectView};
pub use porto::{PortoConfig, PortoDataset, TaxiVisit};
pub use paged::PagedVec;
pub use recording::{FrameBatch, Recording, RecordingError, MAX_BATCH_SECS};
pub use scene::{CameraId, Scene};
pub use stats::{PersistenceHistogram, PersistenceStats, PresenceHeatmap};
pub use time::{FrameRate, Seconds, TimeSpan, Timestamp};
