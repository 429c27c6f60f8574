//! Append-only live recordings: a [`Scene`] that grows by frame batches.
//!
//! Privid's budget is defined over the video *timeline*: every chunk-sized
//! slot of footage carries its own ε, and new footage is born with a full
//! budget as the camera keeps recording. A [`Recording`] is the video-owner
//! side of that model — the per-camera high-watermark (the *live edge*) plus
//! the validation that keeps already-recorded frames final:
//!
//! * the live edge only moves forward: every batch advances it by at least
//!   one microsecond (the timeline's resolution) and at most
//!   [`MAX_BATCH_SECS`], in checked integer arithmetic;
//! * a batch may only add objects whose first appearance starts at or after
//!   the live edge it is appended at (footage before the edge never changes,
//!   which is what lets closed-window query results — and their cache
//!   entries — stay valid forever);
//! * object ids stay unique across the whole recording.
//!
//! A delivered object may carry trajectory extending past the current edge
//! (the tracker knows where it is heading), up to [`MAX_BATCH_SECS`] past the
//! new one; that future footage stays invisible to queries because [`Scene`]
//! materializes no observations past `span.end`, and is revealed batch by
//! batch as the edge advances.
//!
//! The recording is the *writer* of its scene: it alone needs to know which
//! object ids exist (to refuse duplicates), so that set lives here and not in
//! the [`Scene`] snapshots readers hold. [`Recording::scene`]`.clone()` is an
//! O(1) snapshot that shares storage with the recording (see `scene`).
//!
//! **The replay contract (crash recovery).** Recorded footage is final, so
//! the durable privacy ledger (`privid-store`) persists only admission state
//! — never the video. After a crash the owner re-registers the camera
//! (adopting the recovered, already-debited ledger) and re-feeds the same
//! batches from its video store. For that to be sound, appending must be
//! *bit-for-bit deterministic*: the same batch sequence must reproduce the
//! exact same live-edge timestamps (edge arithmetic is integer microseconds,
//! no accumulation error) and the exact same observations, so replayed edges
//! compare equal against the recovered ledger's high-watermark and are
//! correctly treated as no-ops that mint no ε.

use crate::chunk::ChunkSpec;
use crate::geometry::FrameSize;
use crate::object::{ObjectId, TrackedObject};
use crate::plan::ChunkPlan;
use crate::scene::{CameraId, Scene};
use crate::time::{FrameRate, Seconds, TimeSpan, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// The most footage one batch may append, and how far past the new live edge
/// a delivered trajectory may reach: one week. Batches arrive from outside
/// (over the wire, for a served camera); the bound keeps the edge arithmetic,
/// the budget ledger's growth and the scene's time index proportional to
/// something a camera can actually have recorded.
pub const MAX_BATCH_SECS: Seconds = 7.0 * 24.0 * 3600.0;

/// One batch of freshly recorded footage: how much timeline it covers and
/// which ground-truth objects first appeared during it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameBatch {
    /// Seconds of new footage this batch appends. Must be positive.
    pub duration_secs: Seconds,
    /// Objects whose first appearance falls at or after the live edge this
    /// batch is appended at. Segments may extend past the new edge; they are
    /// revealed as later batches advance it.
    pub objects: Vec<TrackedObject>,
}

impl FrameBatch {
    /// A batch of footage with no newly appearing objects.
    pub fn empty(duration_secs: Seconds) -> Self {
        FrameBatch { duration_secs, objects: Vec::new() }
    }

    /// A batch of footage carrying newly appearing objects.
    pub fn new(duration_secs: Seconds, objects: Vec<TrackedObject>) -> Self {
        FrameBatch { duration_secs, objects }
    }
}

/// Why a batch could not be appended. Rejected batches leave the recording
/// untouched.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordingError {
    /// The batch covers no footage: its duration is not a finite number of
    /// seconds that advances the live edge by at least one microsecond.
    EmptyBatch {
        /// The offending duration.
        duration_secs: Seconds,
    },
    /// The batch covers more than [`MAX_BATCH_SECS`], or would move the live
    /// edge past the end of the representable timeline.
    BatchTooLong {
        /// The offending duration.
        duration_secs: Seconds,
    },
    /// The batch delivers an object whose trajectory reaches more than
    /// [`MAX_BATCH_SECS`] past the batch's new live edge.
    BeyondHorizon {
        /// The offending object.
        id: ObjectId,
        /// Where its last appearance ends, seconds.
        last_seen_secs: Seconds,
        /// The furthest a trajectory may reach at this append, seconds.
        horizon_secs: Seconds,
    },
    /// The batch re-uses an object id already present in the recording.
    DuplicateObject(ObjectId),
    /// The batch delivers an object whose first appearance predates the live
    /// edge — that would rewrite footage analysts may already have queried.
    BeforeLiveEdge {
        /// The offending object.
        id: ObjectId,
        /// Its first appearance, seconds.
        first_seen_secs: Seconds,
        /// The live edge the batch was appended at, seconds.
        live_edge_secs: Seconds,
    },
}

impl fmt::Display for RecordingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordingError::EmptyBatch { duration_secs } => {
                write!(f, "frame batch must cover footage, got {duration_secs} s")
            }
            RecordingError::BatchTooLong { duration_secs } => {
                write!(f, "frame batch may cover at most {MAX_BATCH_SECS} s, got {duration_secs} s")
            }
            RecordingError::BeyondHorizon { id, last_seen_secs, horizon_secs } => write!(
                f,
                "object {id} is still visible at {last_seen_secs} s, past the {horizon_secs} s horizon of this batch"
            ),
            RecordingError::DuplicateObject(id) => write!(f, "object {id} already exists in the recording"),
            RecordingError::BeforeLiveEdge { id, first_seen_secs, live_edge_secs } => write!(
                f,
                "object {id} first appears at {first_seen_secs} s, before the live edge ({live_edge_secs} s); \
                 recorded footage is append-only"
            ),
        }
    }
}

impl std::error::Error for RecordingError {}

/// An append-only recording: the growing [`Scene`] of a live camera.
#[derive(Debug, Clone)]
pub struct Recording {
    scene: Scene,
    /// Every object id in `scene`, for duplicate detection.
    ids: HashSet<ObjectId>,
}

impl Recording {
    /// Start an empty recording for a camera (live edge at zero).
    pub fn start(camera: CameraId, frame_rate: FrameRate, frame_size: FrameSize) -> Self {
        Recording {
            scene: Scene::new(
                camera,
                TimeSpan::new(Timestamp::ZERO, Timestamp::ZERO),
                frame_rate,
                frame_size,
                Vec::new(),
            ),
            ids: HashSet::new(),
        }
    }

    /// The high-watermark: footage exists strictly before this timestamp.
    pub fn live_edge(&self) -> Timestamp {
        self.scene.span.end
    }

    /// The recording's scene so far. Cloning it is an O(1) snapshot.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Unwrap into the underlying scene.
    pub fn into_scene(self) -> Scene {
        self.scene
    }

    /// A chunk plan over the *closed* timeline `[0, live edge)`. As more
    /// batches arrive, [`ChunkPlan::extend_to`] grows the plan lazily instead
    /// of recomputing it.
    pub fn plan<'a>(&'a self, spec: &ChunkSpec) -> ChunkPlan<'a> {
        ChunkPlan::new(&self.scene, &TimeSpan::new(self.scene.span.start, self.scene.span.end), spec, None)
    }

    /// Check that `batch` can be appended at the current live edge and return
    /// the edge it would move to, changing nothing. [`Recording::append_batch`]
    /// runs exactly this first; a caller with work to do in between (the
    /// service journals the new edge) validates up front so that nothing it
    /// does can be followed by a refusal.
    pub fn validate(&self, batch: &FrameBatch) -> Result<Timestamp, RecordingError> {
        let duration_secs = batch.duration_secs;
        if duration_secs > MAX_BATCH_SECS {
            return Err(RecordingError::BatchTooLong { duration_secs });
        }
        // Bounded above, so the conversion cannot saturate upwards; NaN
        // converts to 0 and anything non-positive stays non-positive.
        let advance = Timestamp::from_secs(duration_secs).as_micros();
        if advance < 1 {
            return Err(RecordingError::EmptyBatch { duration_secs });
        }
        let edge = self.live_edge();
        let new_edge = edge
            .as_micros()
            .checked_add(advance)
            .map(Timestamp::from_micros)
            .ok_or(RecordingError::BatchTooLong { duration_secs })?;
        let horizon =
            Timestamp::from_micros(new_edge.as_micros().saturating_add(Timestamp::from_secs(MAX_BATCH_SECS).as_micros()));
        let mut seen = HashSet::with_capacity(batch.objects.len());
        for obj in &batch.objects {
            // `seen` catches ids repeated *within* the batch.
            if self.ids.contains(&obj.id) || !seen.insert(obj.id) {
                return Err(RecordingError::DuplicateObject(obj.id));
            }
            let first = obj.first_seen().unwrap_or(edge);
            if first < edge {
                return Err(RecordingError::BeforeLiveEdge {
                    id: obj.id,
                    first_seen_secs: first.as_secs(),
                    live_edge_secs: edge.as_secs(),
                });
            }
            if let Some(last) = obj.segments.iter().map(|s| s.span.end).max().filter(|last| *last > horizon) {
                return Err(RecordingError::BeyondHorizon {
                    id: obj.id,
                    last_seen_secs: last.as_secs(),
                    horizon_secs: horizon.as_secs(),
                });
            }
        }
        Ok(new_edge)
    }

    /// Append one batch of footage, advancing the live edge. Returns the new
    /// edge. Validation is all-or-nothing: a rejected batch changes nothing.
    /// Costs O(batch), however long the recording and however many snapshots
    /// of its scene are alive.
    pub fn append_batch(&mut self, batch: FrameBatch) -> Result<Timestamp, RecordingError> {
        let new_edge = self.validate(&batch)?;
        self.ids.extend(batch.objects.iter().map(|o| o.id));
        self.scene.extend(new_edge, batch.objects);
        Ok(new_edge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::object::{Attributes, ObjectClass, PresenceSegment};
    use crate::trajectory::Trajectory;

    fn walker(id: u64, start: f64, end: f64) -> TrackedObject {
        TrackedObject::new(
            ObjectId(id),
            ObjectClass::Person,
            Attributes::default(),
            vec![PresenceSegment {
                span: TimeSpan::between_secs(start, end),
                trajectory: Trajectory::linear(Point::new(0.0, 50.0), Point::new(100.0, 50.0), 5.0, 10.0),
            }],
        )
    }

    fn fresh() -> Recording {
        Recording::start(CameraId::new("live"), FrameRate::new(2.0), FrameSize::new(100, 100))
    }

    #[test]
    fn batches_advance_the_live_edge_and_reveal_footage() {
        let mut rec = fresh();
        assert_eq!(rec.live_edge(), Timestamp::ZERO);
        // The walker's trajectory extends past the first batch's edge.
        rec.append_batch(FrameBatch::new(60.0, vec![walker(1, 10.0, 100.0)])).unwrap();
        assert_eq!(rec.live_edge(), Timestamp::from_secs(60.0));
        assert_eq!(rec.scene().observations_at(Timestamp::from_secs(30.0)).len(), 1);
        assert!(
            rec.scene().observations_at(Timestamp::from_secs(80.0)).is_empty(),
            "footage past the live edge does not exist yet"
        );
        rec.append_batch(FrameBatch::empty(60.0)).unwrap();
        assert_eq!(rec.live_edge(), Timestamp::from_secs(120.0));
        assert_eq!(rec.scene().observations_at(Timestamp::from_secs(80.0)).len(), 1, "now it does");
    }

    #[test]
    fn rejected_batches_change_nothing() {
        let mut rec = fresh();
        rec.append_batch(FrameBatch::new(60.0, vec![walker(1, 10.0, 40.0)])).unwrap();
        assert!(matches!(
            rec.append_batch(FrameBatch::empty(0.0)),
            Err(RecordingError::EmptyBatch { .. })
        ));
        assert!(matches!(
            rec.append_batch(FrameBatch::new(60.0, vec![walker(1, 70.0, 90.0)])),
            Err(RecordingError::DuplicateObject(ObjectId(1)))
        ));
        match rec.append_batch(FrameBatch::new(60.0, vec![walker(2, 30.0, 90.0)])) {
            Err(RecordingError::BeforeLiveEdge { id, first_seen_secs, live_edge_secs }) => {
                assert_eq!(id, ObjectId(2));
                assert_eq!(first_seen_secs, 30.0);
                assert_eq!(live_edge_secs, 60.0);
            }
            other => panic!("expected BeforeLiveEdge, got {other:?}"),
        }
        // Duplicate ids within one batch are caught too.
        assert!(matches!(
            rec.append_batch(FrameBatch::new(60.0, vec![walker(3, 70.0, 80.0), walker(3, 90.0, 100.0)])),
            Err(RecordingError::DuplicateObject(ObjectId(3)))
        ));
        assert_eq!(rec.live_edge(), Timestamp::from_secs(60.0), "every rejection left the edge alone");
        assert_eq!(rec.scene().object_count(), 1);
    }

    #[test]
    fn hostile_batch_durations_are_refused_not_rounded_or_wrapped() {
        let mut rec = fresh();
        rec.append_batch(FrameBatch::empty(30.0)).unwrap();
        let edge = rec.live_edge();
        // Rounds to 0 µs: acknowledging it would leave the edge unmoved.
        for secs in [4e-7, f64::MIN_POSITIVE, -1.0, f64::NAN, f64::NEG_INFINITY] {
            assert!(
                matches!(rec.append_batch(FrameBatch::empty(secs)), Err(RecordingError::EmptyBatch { .. })),
                "{secs} s must be refused as covering no footage"
            );
        }
        // Saturates the µs conversion: used to wrap the edge and trip the
        // `Scene::extend` assertion.
        for secs in [1e300, f64::INFINITY, MAX_BATCH_SECS * (1.0 + f64::EPSILON)] {
            let refused = rec.append_batch(FrameBatch::empty(secs));
            assert!(
                matches!(refused, Err(RecordingError::BatchTooLong { .. } | RecordingError::EmptyBatch { .. })),
                "{secs} s must be refused, got {refused:?}"
            );
        }
        assert_eq!(rec.live_edge(), edge, "every refusal left the edge alone");
        // The bounds themselves are fine: one µs, and a whole week.
        assert_eq!(rec.append_batch(FrameBatch::empty(1e-6)).unwrap().as_micros(), edge.as_micros() + 1);
        rec.append_batch(FrameBatch::empty(MAX_BATCH_SECS)).unwrap();
        // An edge at the end of the representable timeline cannot advance.
        let mut last = fresh();
        last.scene.span.end = Timestamp::from_micros(i64::MAX - 10);
        assert!(matches!(last.append_batch(FrameBatch::empty(1.0)), Err(RecordingError::BatchTooLong { .. })));
        assert_eq!(last.live_edge(), Timestamp::from_micros(i64::MAX - 10));
    }

    #[test]
    fn trajectories_may_not_reach_past_the_horizon() {
        // The scene's time index is dense: a trajectory delivered for the far
        // future would make it allocate every minute in between.
        let mut rec = fresh();
        let far = 60.0 + MAX_BATCH_SECS + 1.0;
        match rec.append_batch(FrameBatch::new(60.0, vec![walker(1, 10.0, far)])) {
            Err(RecordingError::BeyondHorizon { id, last_seen_secs, horizon_secs }) => {
                assert_eq!((id, last_seen_secs, horizon_secs), (ObjectId(1), far, 60.0 + MAX_BATCH_SECS));
            }
            other => panic!("expected BeyondHorizon, got {other:?}"),
        }
        assert_eq!((rec.live_edge(), rec.scene().object_count()), (Timestamp::ZERO, 0));
        rec.append_batch(FrameBatch::new(60.0, vec![walker(1, 10.0, far - 1.0)])).unwrap();
    }

    #[test]
    fn appended_recording_equals_one_shot_scene() {
        // The core live-ingestion invariant: appending batch by batch yields
        // the same scene (same observations everywhere) as constructing the
        // final recording in one go.
        let objects = vec![walker(1, 5.0, 50.0), walker(2, 70.0, 130.0), walker(3, 130.0, 170.0)];
        let mut rec = fresh();
        rec.append_batch(FrameBatch::new(60.0, vec![objects[0].clone()])).unwrap();
        rec.append_batch(FrameBatch::new(60.0, vec![objects[1].clone()])).unwrap();
        rec.append_batch(FrameBatch::new(60.0, vec![objects[2].clone()])).unwrap();
        let batch_scene = Scene::new(
            CameraId::new("live"),
            TimeSpan::from_secs(180.0),
            FrameRate::new(2.0),
            FrameSize::new(100, 100),
            objects,
        );
        let live_scene = rec.scene();
        assert_eq!(live_scene.span, batch_scene.span);
        let dt = 0.5;
        for i in 0..360 {
            let t = Timestamp::from_secs(i as f64 * dt);
            assert_eq!(
                live_scene.observations_at(t),
                batch_scene.observations_at(t),
                "observations diverge at {t}"
            );
        }
    }

    #[test]
    fn replaying_batches_is_bit_for_bit_deterministic() {
        // The crash-recovery replay contract: feeding the same batches twice
        // must reproduce identical live-edge timestamps (down to the micro-
        // second integer) and identical observations. Fractional batch
        // durations are the dangerous case — a float-seconds accumulator
        // would drift; the Timestamp micros arithmetic must not.
        let batches = vec![
            FrameBatch::new(0.3, vec![walker(1, 0.1, 0.25)]),
            FrameBatch::new(7.77, vec![walker(2, 1.0, 9.0)]),
            FrameBatch::new(0.1 + 0.2, Vec::new()), // a duration with no exact decimal form
            FrameBatch::new(13.333333, vec![walker(3, 9.5, 20.0)]),
        ];
        let run = |batches: &[FrameBatch]| {
            let mut rec = fresh();
            let edges: Vec<Timestamp> =
                batches.iter().map(|b| rec.append_batch(b.clone()).unwrap()).collect();
            (edges, rec.into_scene())
        };
        let (edges_a, scene_a) = run(&batches);
        let (edges_b, scene_b) = run(&batches);
        assert_eq!(edges_a, edges_b, "live-edge timestamps must replay exactly");
        assert_eq!(scene_a.span, scene_b.span);
        for i in 0..=43 {
            let t = Timestamp::from_secs(i as f64 * 0.5);
            assert_eq!(scene_a.observations_at(t), scene_b.observations_at(t), "observations diverge at {t}");
        }
        // And the edge the ledger sees (seconds, via the span) is the same
        // f64 bit pattern both times — the no-op comparison in a recovered
        // ledger's extend_to depends on it.
        assert_eq!(scene_a.span.end.as_secs().to_bits(), scene_b.span.end.as_secs().to_bits());
    }

    #[test]
    fn plan_over_the_closed_timeline() {
        let mut rec = fresh();
        rec.append_batch(FrameBatch::new(25.0, vec![walker(1, 5.0, 20.0)])).unwrap();
        let spec = ChunkSpec::contiguous(10.0);
        let plan = rec.plan(&spec);
        assert_eq!(plan.len(), 3, "25 s of closed footage in 10 s chunks");
        assert_eq!(plan.span_of(2), TimeSpan::between_secs(20.0, 25.0));
    }
}
