//! A [`Scene`] is the ground-truth world a single camera records: a set of
//! objects with trajectories over a time span, plus the camera's frame rate
//! and frame size.
//!
//! Everything downstream consumes scenes: the CV substrate "detects" objects
//! from scene observations (with injected error), the sandbox materializes
//! chunks of frames from a scene, and the statistics module computes
//! persistence distributions from a scene's ground truth.
//!
//! Scenes carry a coarse time-bucketed index over presence segments so that
//! materializing a frame only inspects objects present in that minute of
//! video instead of every object in a 12-hour recording.
//!
//! **One representation for recorded and live cameras.** Objects and index
//! buckets live in [`PagedVec`]s — append-only vectors whose clones share
//! pages — so `Scene::clone` is O(1) in the amount of footage,
//! [`Scene::extend`] copies only the pages and buckets the new objects touch,
//! and dropping a superseded snapshot frees only what it alone owned. That is
//! what lets a live camera publish a snapshot per appended batch for days on
//! end at a cost that depends on the batch, never on the recording.

use crate::geometry::{FrameSize, Mask, RegionScheme};
use crate::object::{Observation, TrackedObject};
use crate::paged::PagedVec;
use crate::time::{FrameRate, Seconds, TimeSpan, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Stable identifier for a camera / scene.
///
/// Interned as an `Arc<str>` so hot-path code (chunk materialization, per-row
/// camera columns) can share the identifier with a reference-count bump
/// instead of cloning a `String` per chunk.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CameraId(pub Arc<str>);

impl CameraId {
    /// Construct a camera id from any string-like value.
    pub fn new(name: impl Into<String>) -> Self {
        CameraId(Arc::from(name.into()))
    }

    /// The identifier as a plain string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for CameraId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Width of one index bucket in seconds.
const BUCKET_SECS: f64 = 60.0;

/// The index bucket a timestamp falls into.
fn bucket_of(t: Timestamp) -> i64 {
    (t.as_secs() / BUCKET_SECS).floor() as i64
}

/// One index entry: a presence segment overlapping the bucket. It points at
/// its object directly — the per-frame walk never goes back through
/// `objects` — and carries the object's position there for consumers that
/// refer to objects by index ([`crate::ChunkView`]'s attribute slots).
#[derive(Debug, Clone)]
struct Sighting {
    object: Arc<TrackedObject>,
    object_index: u32,
    segment: u32,
}

/// The ground-truth contents of one camera's recording.
///
/// Cloning is O(1) and clones share storage (see the module docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scene {
    /// The camera that recorded this scene.
    pub camera: CameraId,
    /// The recording's time span.
    pub span: TimeSpan,
    /// Frame rate the camera records at.
    pub frame_rate: FrameRate,
    /// Pixel dimensions of the frames.
    pub frame_size: FrameSize,
    /// Every ground-truth object that ever appears, in delivery order.
    pub objects: PagedVec<TrackedObject>,
    /// Optional spatial-splitting schemes published by the video owner (§7.2),
    /// keyed by scheme name.
    pub region_schemes: HashMap<String, RegionScheme>,
    /// Time-bucketed index: element `b - index_base` lists the segments
    /// overlapping bucket `b`, in object order. Rebuilt on construction and
    /// skipped during serialization.
    #[serde(skip)]
    index: PagedVec<Vec<Sighting>>,
    /// The bucket of `span.start` when the index was built. Earlier buckets
    /// are not indexed: no frame exists before the recording starts.
    #[serde(skip)]
    index_base: i64,
}

impl Scene {
    /// Construct a scene and build its segment index.
    pub fn new(
        camera: CameraId,
        span: TimeSpan,
        frame_rate: FrameRate,
        frame_size: FrameSize,
        objects: Vec<TrackedObject>,
    ) -> Self {
        let mut scene = Scene {
            camera,
            span,
            frame_rate,
            frame_size,
            objects: objects.into_iter().collect(),
            region_schemes: HashMap::new(),
            index: PagedVec::new(),
            index_base: 0,
        };
        scene.rebuild_index();
        scene
    }

    /// Rebuild the time-bucketed segment index. Call after mutating `objects`
    /// directly (the generators never do; they construct scenes once).
    pub fn rebuild_index(&mut self) {
        self.index = PagedVec::new();
        self.index_base = bucket_of(self.span.start);
        let objects = self.objects.clone(); // O(1): iterate a snapshot while `self` is indexed
        for (oi, object) in objects.iter_shared().enumerate() {
            self.index_object(oi, object);
        }
    }

    /// Index one object's segments; `oi` is its position in `objects`.
    fn index_object(&mut self, oi: usize, object: &Arc<TrackedObject>) {
        for (si, seg) in object.segments.iter().enumerate() {
            for b in bucket_of(seg.span.start)..=bucket_of(seg.span.end) {
                let Ok(slot) = usize::try_from(b - self.index_base) else { continue };
                while self.index.len() <= slot {
                    self.index.push(Vec::new());
                }
                if let Some(bucket) = self.index.get_mut(slot) {
                    bucket.push(Sighting { object: Arc::clone(object), object_index: oi as u32, segment: si as u32 });
                }
            }
        }
    }

    /// Append-only extension of the recording: advance the span's end to
    /// `new_end` and add the objects that newly appeared, indexing only them.
    ///
    /// This is the mechanical half of live ingestion — [`crate::Recording`]
    /// wraps it with the validation (monotonic edge, unique ids, no footage
    /// added before the live edge) that keeps already-recorded frames final.
    /// Cost is proportional to the *batch*, not the whole scene — also when
    /// snapshots of the scene are alive: only the pages and index buckets the
    /// batch touches are copied, everything else stays shared with them.
    pub fn extend(&mut self, new_end: Timestamp, objects: Vec<TrackedObject>) {
        assert!(new_end >= self.span.end, "a recording timeline only ever grows");
        self.span.end = new_end;
        for object in objects {
            let object = Arc::new(object);
            let oi = self.objects.len();
            self.objects.push(Arc::clone(&object));
            self.index_object(oi, &object);
        }
    }

    /// Register a spatial-splitting scheme under a name.
    pub fn add_region_scheme(&mut self, name: impl Into<String>, scheme: RegionScheme) {
        self.region_schemes.insert(name.into(), scheme);
    }

    /// Number of ground-truth objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Ground-truth observations (unmasked) at a timestamp.
    pub fn observations_at(&self, t: Timestamp) -> Vec<Observation> {
        self.observations_at_masked(t, None)
    }

    /// Ground-truth observations at a timestamp with an optional mask applied.
    ///
    /// Masked observations are *removed*: the analyst's processor cannot see
    /// objects whose pixels have been blacked out, which is how §7.1 lowers
    /// the observable persistence.
    pub fn observations_at_masked(&self, t: Timestamp, mask: Option<&Mask>) -> Vec<Observation> {
        let mut out = Vec::new();
        self.observations_at_masked_into(t, mask, &mut out);
        out
    }

    /// Append the (masked) observations at a timestamp to `out`.
    ///
    /// The allocation-free workhorse behind [`Scene::observations_at_masked`].
    ///
    /// Timestamps outside `span` yield nothing: the recording ends at
    /// `span.end`, so no frame exists there — even when a ground-truth
    /// trajectory (delivered early by a live [`crate::Recording`] batch, or
    /// overhanging a generated scene's end) extends past it.
    pub fn observations_at_masked_into(&self, t: Timestamp, mask: Option<&Mask>, out: &mut Vec<Observation>) {
        self.for_each_observation_at(t, mask, |obs, _| out.push(obs));
    }

    /// Visit the (masked) observations at a timestamp, each with its object's
    /// position in `objects`. One bucket lookup per call; every entry of the
    /// bucket points straight at its object.
    pub(crate) fn for_each_observation_at(
        &self,
        t: Timestamp,
        mask: Option<&Mask>,
        mut visit: impl FnMut(Observation, u32),
    ) {
        if !self.span.contains(t) {
            return;
        }
        let Some(bucket) = usize::try_from(bucket_of(t) - self.index_base).ok().and_then(|slot| self.index.get(slot))
        else {
            return;
        };
        for sighting in bucket {
            let obj = &*sighting.object;
            let Some(bbox) = obj.segments.get(sighting.segment as usize).and_then(|seg| seg.bbox_at(t)) else {
                continue;
            };
            if mask.is_some_and(|m| m.hides(&bbox)) {
                continue;
            }
            visit(Observation { object_id: obj.id, class: obj.class, bbox, timestamp: t }, sighting.object_index);
        }
    }

    /// Objects visible at some instant of the span (unmasked).
    pub fn objects_visible_during(&self, span: &TimeSpan) -> Vec<&TrackedObject> {
        self.objects.iter().filter(|o| o.visible_during(span)).collect()
    }

    /// Ground-truth maximum single-segment duration over objects for which
    /// `filter` returns true (e.g. only private classes). This is the quantity
    /// the video owner's `(ρ, K)` policy must cover.
    pub fn max_segment_duration(&self, filter: impl Fn(&TrackedObject) -> bool) -> Seconds {
        self.objects.iter().filter(|o| filter(o)).map(|o| o.max_segment_duration()).fold(0.0, f64::max)
    }

    /// Ground-truth maximum appearance count over filtered objects.
    pub fn max_appearance_count(&self, filter: impl Fn(&TrackedObject) -> bool) -> usize {
        self.objects.iter().filter(|o| filter(o)).map(|o| o.appearance_count()).max().unwrap_or(0)
    }

    /// The *observable* per-segment durations of an object under a mask: each
    /// presence segment is sampled at the camera's frame interval and split
    /// into maximal runs of frames in which the object is not hidden.
    ///
    /// Returns one duration per observable run, in seconds.
    pub fn observable_runs(&self, obj: &TrackedObject, mask: Option<&Mask>) -> Vec<Seconds> {
        let dt = self.frame_rate.frame_duration();
        let mut runs = Vec::new();
        for seg in &obj.segments {
            if mask.is_none_or(|m| m.is_empty()) {
                // No mask (or an empty one): the observable run is the whole segment.
                runs.push(seg.duration());
                continue;
            }
            let mut run_start: Option<Timestamp> = None;
            let mut last_visible: Option<Timestamp> = None;
            let n = (seg.span.duration() / dt).ceil() as u64;
            for i in 0..=n {
                let t = seg.span.start.add_secs(i as f64 * dt);
                let visible = seg.bbox_at(t).map(|b| mask.is_none_or(|m| !m.hides(&b))).unwrap_or(false);
                if visible {
                    if run_start.is_none() {
                        run_start = Some(t);
                    }
                    last_visible = Some(t);
                } else if let (Some(s), Some(e)) = (run_start.take(), last_visible) {
                    runs.push((e - s) + dt);
                }
            }
            if let (Some(s), Some(e)) = (run_start, last_visible) {
                runs.push((e - s) + dt);
            }
        }
        runs
    }

    /// Maximum observable run duration over all filtered objects under a mask.
    /// With `mask = None` this equals the ground-truth maximum persistence.
    pub fn max_observable_duration(
        &self,
        mask: Option<&Mask>,
        filter: impl Fn(&TrackedObject) -> bool,
    ) -> Seconds {
        self.objects
            .iter()
            .filter(|o| filter(o))
            .flat_map(|o| self.observable_runs(o, mask))
            .fold(0.0, f64::max)
    }

    /// Number of filtered objects that remain observable (at least one run)
    /// under the mask. Used by Table 6's "% identities retained".
    pub fn observable_object_count(&self, mask: Option<&Mask>, filter: impl Fn(&TrackedObject) -> bool) -> usize {
        self.objects.iter().filter(|o| filter(o) && !self.observable_runs(o, mask).is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{BoundingBox, GridSpec, Point, Region, RegionBoundary};
    use crate::object::{Attributes, ObjectClass, ObjectId, PresenceSegment};
    use crate::trajectory::Trajectory;

    fn simple_scene() -> Scene {
        let frame = FrameSize::new(100, 100);
        let person = TrackedObject::new(
            ObjectId(1),
            ObjectClass::Person,
            Attributes::default(),
            vec![PresenceSegment {
                span: TimeSpan::between_secs(0.0, 30.0),
                trajectory: Trajectory::linear(Point::new(5.0, 50.0), Point::new(95.0, 50.0), 6.0, 10.0),
            }],
        );
        let parked_car = TrackedObject::new(
            ObjectId(2),
            ObjectClass::Car,
            Attributes::default(),
            vec![PresenceSegment {
                span: TimeSpan::between_secs(0.0, 300.0),
                trajectory: Trajectory::dwell(
                    Point::new(5.0, 90.0),
                    Point::new(50.0, 90.0),
                    Point::new(95.0, 90.0),
                    0.05,
                    10.0,
                    6.0,
                ),
            }],
        );
        Scene::new(
            CameraId::new("test"),
            TimeSpan::from_secs(600.0),
            FrameRate::new(2.0),
            frame,
            vec![person, parked_car],
        )
    }

    #[test]
    fn observations_at_returns_visible_objects() {
        let scene = simple_scene();
        let obs = scene.observations_at(Timestamp::from_secs(10.0));
        assert_eq!(obs.len(), 2);
        let obs_late = scene.observations_at(Timestamp::from_secs(100.0));
        assert_eq!(obs_late.len(), 1, "person has left by t=100");
        assert_eq!(obs_late[0].object_id, ObjectId(2));
    }

    #[test]
    fn observations_use_index_across_buckets() {
        let scene = simple_scene();
        // Bucket 4 (t=240..300) should still find the parked car.
        let obs = scene.observations_at(Timestamp::from_secs(250.0));
        assert_eq!(obs.len(), 1);
        // After the car leaves there is nothing.
        assert!(scene.observations_at(Timestamp::from_secs(400.0)).is_empty());
    }

    #[test]
    fn ground_truth_maxima() {
        let scene = simple_scene();
        assert!((scene.max_segment_duration(|o| o.class.is_private()) - 300.0).abs() < 1e-9);
        assert_eq!(scene.max_appearance_count(|_| true), 1);
        assert_eq!(scene.object_count(), 2);
    }

    #[test]
    fn mask_over_parking_spot_cuts_observable_duration() {
        let scene = simple_scene();
        let grid = GridSpec::new(scene.frame_size, 10, 10);
        // Mask the cells around the parked car's resting spot (x≈50, y≈90).
        let mask = Mask::from_cells(grid, [(3, 8), (4, 8), (5, 8), (6, 8), (3, 9), (4, 9), (5, 9), (6, 9)]);
        let unmasked_max = scene.max_observable_duration(None, |o| o.class.is_private());
        let masked_max = scene.max_observable_duration(Some(&mask), |o| o.class.is_private());
        assert!(unmasked_max >= 299.0);
        assert!(
            masked_max < unmasked_max / 2.0,
            "masking the rest spot should slash max persistence: {masked_max} vs {unmasked_max}"
        );
        // Both objects are still observable at least once.
        assert_eq!(scene.observable_object_count(Some(&mask), |o| o.class.is_private()), 2);
    }

    #[test]
    fn observable_runs_without_mask_cover_full_segments() {
        let scene = simple_scene();
        let runs = scene.observable_runs(scene.objects.get(0).unwrap(), None);
        assert_eq!(runs.len(), 1);
        assert!((runs[0] - 30.0).abs() <= scene.frame_rate.frame_duration() + 1e-9);
    }

    #[test]
    fn region_scheme_registration() {
        let mut scene = simple_scene();
        scene.add_region_scheme(
            "halves",
            RegionScheme::new(
                vec![
                    Region { id: 0, name: "left".into(), bbox: BoundingBox::new(0.0, 0.0, 50.0, 100.0) },
                    Region { id: 1, name: "right".into(), bbox: BoundingBox::new(50.0, 0.0, 50.0, 100.0) },
                ],
                RegionBoundary::Soft,
            ),
        );
        assert!(scene.region_schemes.contains_key("halves"));
        assert_eq!(scene.region_schemes["halves"].len(), 2);
    }

    #[test]
    fn objects_visible_during_filters_by_overlap() {
        let scene = simple_scene();
        let visible = scene.objects_visible_during(&TimeSpan::between_secs(40.0, 50.0));
        assert_eq!(visible.len(), 1);
        assert_eq!(visible[0].id, ObjectId(2));
    }

    #[test]
    fn extend_indexes_only_new_objects_and_grows_the_span() {
        let mut scene = simple_scene();
        assert_eq!(scene.span.end, Timestamp::from_secs(600.0));
        scene.extend(
            Timestamp::from_secs(900.0),
            vec![TrackedObject::new(
                ObjectId(9),
                ObjectClass::Person,
                Attributes::default(),
                vec![PresenceSegment {
                    span: TimeSpan::between_secs(700.0, 760.0),
                    trajectory: Trajectory::linear(Point::new(0.0, 10.0), Point::new(90.0, 10.0), 5.0, 10.0),
                }],
            )],
        );
        assert_eq!(scene.span.end, Timestamp::from_secs(900.0));
        // The new object is reachable through the incremental index…
        let obs = scene.observations_at(Timestamp::from_secs(730.0));
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].object_id, ObjectId(9));
        assert_eq!(scene.objects.last().map(|o| o.id), Some(ObjectId(9)));
        // …and the pre-existing footage is untouched.
        assert_eq!(scene.observations_at(Timestamp::from_secs(10.0)).len(), 2);
    }

    #[test]
    fn observations_stop_at_the_recorded_edge() {
        // A trajectory overhanging the recording's end must not produce
        // observations past `span.end`: the frames there do not exist (yet).
        let mut scene = simple_scene();
        scene.span.end = Timestamp::from_secs(100.0);
        assert!(scene.observations_at(Timestamp::from_secs(150.0)).is_empty(), "the car dwells until 300 s, but the recording stops at 100 s");
        assert_eq!(scene.observations_at(Timestamp::from_secs(99.5)).len(), 1);
        scene.span.end = Timestamp::from_secs(600.0);
        assert_eq!(scene.observations_at(Timestamp::from_secs(150.0)).len(), 1, "growing the edge reveals the footage");
    }

    #[test]
    fn rebuild_index_after_mutation() {
        let mut scene = simple_scene();
        scene.objects.push(TrackedObject::new(
            ObjectId(3),
            ObjectClass::Person,
            Attributes::default(),
            vec![PresenceSegment {
                span: TimeSpan::between_secs(500.0, 550.0),
                trajectory: Trajectory::linear(Point::new(0.0, 10.0), Point::new(90.0, 10.0), 5.0, 10.0),
            }],
        ));
        // Before rebuilding the index the new object is invisible to frame queries.
        assert!(scene.observations_at(Timestamp::from_secs(520.0)).is_empty());
        scene.rebuild_index();
        assert_eq!(scene.observations_at(Timestamp::from_secs(520.0)).len(), 1);
    }

    // ---- structurally shared snapshots ------------------------------------------------

    use crate::chunk::ChunkSpec;
    use crate::plan::{ChunkBuffer, ChunkPlan};
    use crate::recording::{FrameBatch, Recording};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

    /// Everything a reader can see of `scene`: every chunk of its span, and
    /// the observations at a few instants up to and past its edge.
    fn footage(scene: &Scene) -> (Vec<crate::chunk::Chunk>, Vec<Vec<Observation>>) {
        let plan = ChunkPlan::new(scene, &scene.span, &ChunkSpec::new(10.0, 20.0).unwrap(), None);
        let mut buf = ChunkBuffer::new();
        let chunks = (0..plan.len()).map(|i| plan.materialize_into(i, &mut buf).to_chunk()).collect();
        let end = scene.span.end.as_secs();
        let instants = (0..=20).map(|i| scene.observations_at(Timestamp::from_secs(end * f64::from(i) / 16.0))).collect();
        (chunks, instants)
    }

    /// `after` is `before` extended by `batch`: every page and bucket the
    /// batch did not touch must be the *same allocation* in both.
    fn assert_untouched_storage_is_shared(before: &Scene, after: &Scene, batch: &[TrackedObject]) {
        let (old, new) = (before.objects.pages(), after.objects.pages());
        for (page, (o, n)) in old.iter().zip(&new).enumerate() {
            // Appending fills the last page; a full one is never written again.
            if batch.is_empty() || o.len() == 32 {
                assert!(std::ptr::eq(*o, *n), "object page {page} was copied");
            }
        }
        let touched: BTreeSet<usize> = batch
            .iter()
            .flat_map(|o| &o.segments)
            .flat_map(|seg| bucket_of(seg.span.start)..=bucket_of(seg.span.end))
            .map(|b| usize::try_from(b - before.index_base).unwrap())
            .collect();
        for (slot, (o, n)) in before.index.iter_shared().zip(after.index.iter_shared()).enumerate() {
            assert_eq!(Arc::ptr_eq(o, n), !touched.contains(&slot), "bucket {slot}; the batch touched {touched:?}");
        }
        let grown = after.index.len() > before.index.len();
        for (page, (o, n)) in before.index.pages().iter().zip(&after.index.pages()).enumerate() {
            let written = touched.iter().any(|slot| slot / 32 == page) || (grown && o.len() < 32);
            assert_eq!(std::ptr::eq(*o, *n), !written, "index page {page}; the batch touched {touched:?}");
        }
    }

    proptest! {
        /// Random batch sequences: a snapshot taken after any append keeps
        /// returning exactly the footage of a one-shot `Scene::new` over what
        /// had been delivered by then — however many batches follow — and
        /// each append copies only the storage its batch touches.
        #[test]
        fn snapshots_are_final_and_share_what_later_appends_leave_alone(
            raw in prop::collection::vec(prop::collection::vec(0.0..1.0f64, 1..10), 1..14)
        ) {
            let (camera, fps, size) = (CameraId::new("live"), FrameRate::new(2.0), FrameSize::new(100, 100));
            let mut rec = Recording::start(camera.clone(), fps, size);
            let mut delivered: Vec<TrackedObject> = Vec::new();
            let mut snapshots: Vec<(Scene, usize)> = Vec::new();
            for spec in &raw {
                // spec = [duration, (start, length)*], each in [0, 1).
                let edge = rec.live_edge().as_secs();
                let duration = (1.0 + spec[0] * 400.0).round();
                let batch: Vec<TrackedObject> = spec[1..]
                    .chunks_exact(2)
                    .zip(delivered.len() as u64..)
                    .map(|(p, id)| {
                        let start = (edge + p[0] * duration).floor();
                        walker(id, start, start + 0.5 + (p[1] * 300.0).round())
                    })
                    .collect();
                let before = rec.scene().clone();
                rec.append_batch(FrameBatch::new(duration, batch.clone())).unwrap();
                assert_untouched_storage_is_shared(&before, rec.scene(), &batch);
                delivered.extend(batch);
                snapshots.push((rec.scene().clone(), delivered.len()));
            }
            for (snapshot, n_objects) in &snapshots {
                let one_shot = Scene::new(camera.clone(), snapshot.span, fps, size, delivered[..*n_objects].to_vec());
                prop_assert_eq!(snapshot.object_count(), *n_objects);
                prop_assert_eq!(footage(snapshot), footage(&one_shot));
            }
        }
    }
}
