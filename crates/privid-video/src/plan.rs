//! Lazy, zero-copy chunk materialization: the execution-engine side of the
//! `SPLIT` stage.
//!
//! [`split_scene`](crate::chunk::split_scene) materializes every chunk as an
//! owned [`Chunk`] — convenient, but each chunk deep-clones the camera name
//! and every observed object's attributes, and spatial splitting used to
//! clone the whole chunk *again* per region. The paper's executor instead
//! streams chunks to workers; chunk processing dominates query latency, so
//! those clones sit squarely on the hot path.
//!
//! This module provides the streaming alternative:
//!
//! * [`ChunkPlan`] — the pure arithmetic of a split (which spans exist),
//!   computed once; no frame or object data is touched until a chunk is
//!   materialized.
//! * [`ChunkBuffer`] — reusable scratch storage for one materialized chunk
//!   (flat observation array, per-frame ranges, per-object records). A worker
//!   keeps one buffer and refills it per chunk, so steady-state chunk
//!   materialization performs no allocation.
//! * [`ChunkView`] — a borrowed, `Copy` view of one materialized chunk.
//!   The camera name is borrowed, object attributes are resolved by index
//!   into the scene (never cloned), and
//!   [`ChunkView::restrict_into`] produces a region-filtered view by
//!   compact-copying `Copy` observation records into a second reused buffer —
//!   no deep clone.
//!
//! Object iteration order is sorted by [`ObjectId`], which makes per-chunk row
//! order deterministic (the owned `Chunk` stores objects in a `HashMap`, whose
//! iteration order is randomized per process). Determinism here is what lets
//! the parallel executor guarantee bit-for-bit identical query results at any
//! worker count.

use crate::chunk::{Chunk, ChunkObjectInfo, ChunkSpec, Frame};
use crate::geometry::{BoundingBox, Mask};
use crate::object::{Attributes, ObjectClass, ObjectId, Observation, TrackedObject};
use crate::paged::PagedVec;
use crate::scene::Scene;
use crate::time::{TimeSpan, Timestamp};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The attributes returned for an object the view cannot resolve (never the
/// case for scene-materialized chunks; a safety net for hand-built chunks).
fn default_attributes() -> &'static Attributes {
    static DEFAULT: OnceLock<Attributes> = OnceLock::new();
    DEFAULT.get_or_init(Attributes::default)
}

/// Where a chunk object's attributes live.
#[derive(Debug, Clone, Copy)]
enum AttrSlot {
    /// Index into the scene's object list (zero-copy path).
    Scene(u32),
    /// Index into the buffer's local attribute pool (owned-`Chunk` loading).
    Local(u32),
}

/// One frame of a materialized chunk: a timestamp plus a range into the
/// buffer's flat observation array.
#[derive(Debug, Clone, Copy)]
struct FrameRecord {
    index_in_chunk: u64,
    timestamp: Timestamp,
    obs_start: usize,
    obs_end: usize,
}

/// Per-object metadata accumulated while filling a buffer — the index-based
/// analogue of [`ChunkObjectInfo`], with attributes referenced, not cloned.
#[derive(Debug, Clone, Copy)]
struct ObjectRecord {
    id: ObjectId,
    class: ObjectClass,
    attr: AttrSlot,
    visible_in_first_frame: bool,
    first_seen: Timestamp,
    last_seen: Timestamp,
    net_dy: f64,
    first_center_y: f64,
}

/// Reusable scratch storage for one materialized chunk.
///
/// A worker thread owns one (plus a second one if spatial splitting is used)
/// and refills it for every chunk it processes; all vectors retain their
/// capacity across chunks, so the steady state allocates nothing.
#[derive(Debug, Default)]
pub struct ChunkBuffer {
    frames: Vec<FrameRecord>,
    observations: Vec<Observation>,
    objects: Vec<ObjectRecord>,
    /// Object id → index into `objects`, valid only while filling.
    slots: HashMap<ObjectId, usize>,
    /// Attribute pool for chunks loaded from an owned [`Chunk`] (tests and
    /// compatibility paths); empty for scene-materialized chunks.
    local_attrs: Vec<Attributes>,
    /// Camera name for chunks loaded from an owned [`Chunk`].
    camera: Option<Arc<str>>,
}

impl ChunkBuffer {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        ChunkBuffer::default()
    }

    /// Clear all per-chunk state, retaining capacity.
    fn clear(&mut self) {
        self.frames.clear();
        self.observations.clear();
        self.objects.clear();
        self.slots.clear();
        self.local_attrs.clear();
        self.camera = None;
    }

    /// Record one observation (already appended to `self.observations`) into
    /// the per-object metadata. `frame_pos` is the frame's position within the
    /// chunk; `attr` says where the object's attributes can be found.
    fn note_observation(&mut self, frame_pos: usize, obs: Observation, attr: AttrSlot) {
        let center_y = obs.bbox.center().y;
        match self.slots.get(&obs.object_id) {
            Some(&i) => {
                let rec = &mut self.objects[i]; // privid-analyzer: allow(panic-freedom) -- slots maps object ids to indices this struct itself pushed into objects
                rec.last_seen = obs.timestamp;
                rec.net_dy = center_y - rec.first_center_y;
            }
            None => {
                self.slots.insert(obs.object_id, self.objects.len());
                self.objects.push(ObjectRecord {
                    id: obs.object_id,
                    class: obs.class,
                    attr,
                    visible_in_first_frame: frame_pos == 0,
                    first_seen: obs.timestamp,
                    last_seen: obs.timestamp,
                    net_dy: 0.0,
                    first_center_y: center_y,
                });
            }
        }
    }

    /// Sort object records by id so view iteration (and therefore per-chunk
    /// row order) is deterministic.
    fn finish(&mut self) {
        self.objects.sort_unstable_by_key(|r| r.id);
    }

    /// Load an owned [`Chunk`] into this buffer and return a view of it.
    ///
    /// This is the compatibility path for code that already holds materialized
    /// chunks (tests, the eager `split_scene` pipeline): attributes are copied
    /// into the buffer's local pool once. Hot-path code should materialize
    /// straight from a [`ChunkPlan`] instead.
    pub fn load_chunk<'v>(&'v mut self, chunk: &Chunk) -> ChunkView<'v> {
        self.clear();
        self.camera = Some(chunk.camera.clone());
        for frame in &chunk.frames {
            let obs_start = self.observations.len();
            self.observations.extend(frame.observations.iter().copied());
            self.frames.push(FrameRecord {
                index_in_chunk: frame.index_in_chunk,
                timestamp: frame.timestamp,
                obs_start,
                obs_end: self.observations.len(),
            });
        }
        // Carry the chunk's own per-object metadata verbatim; attributes go
        // into the local pool.
        for (id, info) in &chunk.objects {
            let attr = AttrSlot::Local(self.local_attrs.len() as u32);
            self.local_attrs.push(info.attributes.clone());
            self.objects.push(ObjectRecord {
                id: *id,
                class: info.class,
                attr,
                visible_in_first_frame: info.visible_in_first_frame,
                first_seen: info.first_seen,
                last_seen: info.last_seen,
                net_dy: info.net_dy,
                first_center_y: 0.0,
            });
        }
        self.finish();
        ChunkView {
            index: chunk.index,
            camera: self.camera.as_deref().unwrap_or(""),
            span: chunk.span,
            frames: &self.frames,
            observations: &self.observations,
            objects: &self.objects,
            scene_objects: None,
            local_attrs: &self.local_attrs,
        }
    }
}

/// A borrowed, copyable view of one materialized chunk.
///
/// Everything a [`ChunkProcessor`](../../privid_sandbox/processor/trait.ChunkProcessor.html)
/// can learn about a chunk is reachable from here, without owning any of it:
/// the camera name and object attributes are borrowed from the scene (or the
/// backing buffer), frames and observations from the worker's [`ChunkBuffer`].
#[derive(Debug, Clone, Copy)]
pub struct ChunkView<'v> {
    index: u64,
    camera: &'v str,
    span: TimeSpan,
    frames: &'v [FrameRecord],
    observations: &'v [Observation],
    objects: &'v [ObjectRecord],
    /// The scene's object list, for views materialized from a [`ChunkPlan`].
    scene_objects: Option<&'v PagedVec<TrackedObject>>,
    local_attrs: &'v [Attributes],
}

impl<'v> ChunkView<'v> {
    /// Index of the chunk within its split (0-based).
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Name of the camera the chunk came from.
    pub fn camera(&self) -> &'v str {
        self.camera
    }

    /// Time span covered by the chunk.
    pub fn span(&self) -> TimeSpan {
        self.span
    }

    /// Number of frames in the chunk.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Total number of observations across all frames.
    pub fn observation_count(&self) -> usize {
        self.observations.len()
    }

    /// Number of distinct objects observed in the chunk.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// The chunk's frames, in order.
    pub fn frames(&self) -> impl Iterator<Item = FrameView<'v>> + '_ {
        let observations = self.observations;
        self.frames.iter().map(move |f| FrameView {
            index_in_chunk: f.index_in_chunk,
            timestamp: f.timestamp,
            observations: &observations[f.obs_start..f.obs_end], // privid-analyzer: allow(panic-freedom) -- frame ranges are recorded as observations is appended; they never exceed its final length
        })
    }

    /// Per-object chunk metadata, in ascending [`ObjectId`] order (so row
    /// order derived from it is deterministic).
    pub fn objects(&self) -> impl Iterator<Item = ObjectView<'v>> + '_ {
        let scene_objects = self.scene_objects;
        let local_attrs = self.local_attrs;
        self.objects.iter().map(move |r| ObjectView {
            id: r.id,
            class: r.class,
            visible_in_first_frame: r.visible_in_first_frame,
            first_seen: r.first_seen,
            last_seen: r.last_seen,
            net_dy: r.net_dy,
            attributes: resolve_attr(r.attr, scene_objects, local_attrs),
        })
    }

    /// All distinct object ids observed in the chunk, ascending.
    pub fn observed_object_ids(&self) -> Vec<ObjectId> {
        self.objects.iter().map(|r| r.id).collect()
    }

    /// Restrict this chunk to a spatial region, writing the filtered chunk
    /// into `buf` and returning a view of it.
    ///
    /// Only observations whose centre lies inside `region` are kept, and the
    /// per-object metadata is filtered to objects that remain visible (the
    /// metadata itself — first/last seen, net motion — is not recomputed,
    /// matching the semantics of the former `restrict_chunk_to_region`).
    /// Observations are `Copy`, so this is a compact copy into reused
    /// storage, not a deep clone: no strings or attributes are duplicated.
    pub fn restrict_into<'b>(&self, region: &BoundingBox, buf: &'b mut ChunkBuffer) -> ChunkView<'b>
    where
        'v: 'b,
    {
        buf.clear();
        for f in self.frames {
            let obs_start = buf.observations.len();
            // privid-analyzer: allow(panic-freedom) -- frame ranges are recorded as observations is appended; they never exceed its final length
            for obs in &self.observations[f.obs_start..f.obs_end] {
                if region.contains_point(obs.bbox.center()) {
                    buf.observations.push(*obs);
                    buf.slots.insert(obs.object_id, 0);
                }
            }
            buf.frames.push(FrameRecord {
                index_in_chunk: f.index_in_chunk,
                timestamp: f.timestamp,
                obs_start,
                obs_end: buf.observations.len(),
            });
        }
        // Source records are already sorted by id; retaining preserves order.
        for r in self.objects {
            if buf.slots.contains_key(&r.id) {
                buf.objects.push(*r);
            }
        }
        ChunkView {
            index: self.index,
            camera: self.camera,
            span: self.span,
            frames: &buf.frames,
            observations: &buf.observations,
            objects: &buf.objects,
            scene_objects: self.scene_objects,
            local_attrs: self.local_attrs,
        }
    }

    /// Materialize this view into an owned [`Chunk`] (clones attributes and
    /// the camera name; compatibility path for code that needs ownership).
    pub fn to_chunk(&self) -> Chunk {
        Chunk {
            index: self.index,
            camera: Arc::from(self.camera),
            span: self.span,
            frames: self
                .frames()
                .map(|f| Frame {
                    index_in_chunk: f.index_in_chunk,
                    timestamp: f.timestamp,
                    observations: f.observations().to_vec(),
                })
                .collect(),
            objects: self
                .objects()
                .map(|o| {
                    (
                        o.id,
                        ChunkObjectInfo {
                            class: o.class,
                            attributes: o.attributes().clone(),
                            visible_in_first_frame: o.visible_in_first_frame,
                            first_seen: o.first_seen,
                            last_seen: o.last_seen,
                            net_dy: o.net_dy,
                        },
                    )
                })
                .collect(),
        }
    }
}

fn resolve_attr<'v>(
    slot: AttrSlot,
    scene_objects: Option<&'v PagedVec<TrackedObject>>,
    local_attrs: &'v [Attributes],
) -> &'v Attributes {
    match slot {
        AttrSlot::Scene(i) => scene_objects.and_then(|objects| objects.get(i as usize)).map(|o| &o.attributes),
        AttrSlot::Local(i) => local_attrs.get(i as usize),
    }
    .unwrap_or_else(|| default_attributes())
}

/// A borrowed view of one frame: its timestamp plus the observations visible
/// in it (after masking and any region restriction).
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'v> {
    /// Index of the frame within its chunk.
    pub index_in_chunk: u64,
    /// Absolute timestamp of the frame.
    pub timestamp: Timestamp,
    observations: &'v [Observation],
}

impl<'v> FrameView<'v> {
    /// The observations visible in this frame.
    pub fn observations(&self) -> &'v [Observation] {
        self.observations
    }
}

/// What a processor can learn about one object from one chunk — the borrowed
/// analogue of [`ChunkObjectInfo`], with attributes shared, not cloned.
#[derive(Debug, Clone, Copy)]
pub struct ObjectView<'v> {
    /// The object's id.
    pub id: ObjectId,
    /// The object's class.
    pub class: ObjectClass,
    /// True if the object is already visible in the chunk's first frame.
    pub visible_in_first_frame: bool,
    /// First frame timestamp (within this chunk) the object is visible.
    pub first_seen: Timestamp,
    /// Last frame timestamp (within this chunk) the object is visible.
    pub last_seen: Timestamp,
    /// Net vertical motion of the object's centre across this chunk, in
    /// pixels (negative = northwards).
    pub net_dy: f64,
    attributes: &'v Attributes,
}

impl<'v> ObjectView<'v> {
    /// The object's appearance attributes, borrowed from the scene.
    pub fn attributes(&self) -> &'v Attributes {
        self.attributes
    }
}

/// The lazy chunk plan: which chunks a `SPLIT` produces, with materialization
/// deferred until a worker asks for a specific chunk.
///
/// Construction is pure arithmetic over the window and [`ChunkSpec`]; no
/// frame or object data is touched. Workers then call
/// [`ChunkPlan::materialize_into`] with their own [`ChunkBuffer`], which is
/// what makes the plan trivially shareable across threads (`&ChunkPlan` is
/// `Send + Sync`).
#[derive(Debug)]
pub struct ChunkPlan<'a> {
    scene: &'a Scene,
    mask: Option<&'a Mask>,
    spec: ChunkSpec,
    window: TimeSpan,
    spans: Vec<TimeSpan>,
}

impl<'a> ChunkPlan<'a> {
    /// Plan the split of `scene`'s `window` into chunks per `spec`, with an
    /// optional mask applied during materialization.
    pub fn new(scene: &'a Scene, window: &TimeSpan, spec: &ChunkSpec, mask: Option<&'a Mask>) -> Self {
        ChunkPlan { scene, mask, spec: *spec, window: *window, spans: spec.chunk_spans(window) }
    }

    /// The window the plan currently covers.
    pub fn window(&self) -> TimeSpan {
        self.window
    }

    /// Lazily extend the plan to a longer window (a live recording's edge
    /// moved). Completed chunk spans are kept as-is; only a trailing chunk
    /// that was truncated by the old window end is re-derived, and new spans
    /// are appended from there — the cost is proportional to the *extension*,
    /// not the whole timeline, which is what lets a standing query's plan
    /// grow all day. Equivalent to re-planning the longer window from scratch.
    pub fn extend_to(&mut self, new_end: Timestamp) {
        if new_end <= self.window.end {
            return;
        }
        // Trailing chunks cut short by the old window edge grow back (with a
        // negative stride several overlapping chunks can end there).
        while self
            .spans
            .last()
            .is_some_and(|s| s.end == self.window.end && s.duration() < self.spec.chunk_secs)
        {
            self.spans.pop();
        }
        let resume = match self.spans.last() {
            Some(last) => last.start.add_secs(self.spec.period()),
            None => self.window.start,
        };
        self.window = TimeSpan::new(self.window.start, new_end);
        if resume < new_end {
            self.spans.extend(self.spec.chunk_spans(&TimeSpan::new(resume, new_end)));
        }
    }

    /// Number of chunks the plan yields.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if the plan yields no chunks (empty window).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The time span of chunk `index`.
    pub fn span_of(&self, index: usize) -> TimeSpan {
        self.spans[index] // privid-analyzer: allow(panic-freedom) -- documented contract: index < chunk_count(), upheld by the executor's chunk loop
    }

    /// The scene this plan splits.
    pub fn scene(&self) -> &'a Scene {
        self.scene
    }

    /// Materialize chunk `index` into `buf`, returning a borrowed view.
    ///
    /// Frames are sampled at the scene's frame rate from the chunk's start;
    /// observations are appended to the buffer's flat storage (no per-frame
    /// allocation at steady state), and object attributes are referenced by
    /// scene index, never cloned.
    pub fn materialize_into<'v>(&'v self, index: usize, buf: &'v mut ChunkBuffer) -> ChunkView<'v> {
        let span = self.spans[index]; // privid-analyzer: allow(panic-freedom) -- documented contract: index < chunk_count(), upheld by the executor's chunk loop
        buf.clear();
        let dt = self.scene.frame_rate.frame_duration();
        let n_frames = (span.duration() / dt).ceil().max(1.0) as u64;
        for fi in 0..n_frames {
            let t = span.start.add_secs(fi as f64 * dt);
            if !span.contains(t) {
                break;
            }
            let obs_start = buf.observations.len();
            // The scene hands over each observation with its object's index:
            // no per-observation lookup to find where the attributes live.
            self.scene.for_each_observation_at(t, self.mask, |obs, object_index| {
                buf.observations.push(obs);
                buf.note_observation(fi as usize, obs, AttrSlot::Scene(object_index));
            });
            buf.frames.push(FrameRecord {
                index_in_chunk: fi,
                timestamp: t,
                obs_start,
                obs_end: buf.observations.len(),
            });
        }
        buf.finish();
        ChunkView {
            index: index as u64,
            camera: self.scene.camera.as_str(),
            span,
            frames: &buf.frames,
            observations: &buf.observations,
            objects: &buf.objects,
            scene_objects: Some(&self.scene.objects),
            local_attrs: &buf.local_attrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::split_scene;
    use crate::geometry::{FrameSize, Point};
    use crate::object::{Attributes, ObjectClass, PresenceSegment};
    use crate::scene::CameraId;
    use crate::time::FrameRate;
    use crate::trajectory::Trajectory;

    fn scene_with_one_walker(duration: f64) -> Scene {
        let obj = TrackedObject::new(
            ObjectId(7),
            ObjectClass::Person,
            Attributes::default(),
            vec![PresenceSegment {
                span: TimeSpan::between_secs(2.0, 2.0 + duration),
                trajectory: Trajectory::linear(Point::new(0.0, 50.0), Point::new(100.0, 50.0), 5.0, 10.0),
            }],
        );
        Scene::new(CameraId::new("cam"), TimeSpan::from_secs(60.0), FrameRate::new(2.0), FrameSize::new(100, 100), vec![obj])
    }

    /// The pre-plan `split_scene` algorithm, kept verbatim as an independent
    /// reference: `split_scene` itself is now a wrapper over `ChunkPlan`, so
    /// comparing against it would be circular.
    fn reference_split(scene: &Scene, window: &TimeSpan, spec: &ChunkSpec) -> Vec<Chunk> {
        use crate::chunk::Frame;
        use std::collections::HashMap;
        let dt = scene.frame_rate.frame_duration();
        spec.chunk_spans(window)
            .into_iter()
            .enumerate()
            .map(|(i, span)| {
                let mut frames = Vec::new();
                for fi in 0.. {
                    let t = span.start.add_secs(fi as f64 * dt);
                    if !span.contains(t) {
                        break;
                    }
                    frames.push(Frame { index_in_chunk: fi, timestamp: t, observations: scene.observations_at(t) });
                }
                let mut objects: HashMap<ObjectId, ChunkObjectInfo> = HashMap::new();
                let mut first_centers: HashMap<ObjectId, f64> = HashMap::new();
                for (fi, frame) in frames.iter().enumerate() {
                    for obs in &frame.observations {
                        let center_y = obs.bbox.center().y;
                        let entry = objects.entry(obs.object_id).or_insert_with(|| {
                            let attributes = scene
                                .objects
                                .iter()
                                .find(|o| o.id == obs.object_id)
                                .map(|o| o.attributes.clone())
                                .unwrap_or_default();
                            first_centers.insert(obs.object_id, center_y);
                            ChunkObjectInfo {
                                class: obs.class,
                                attributes,
                                visible_in_first_frame: fi == 0,
                                first_seen: obs.timestamp,
                                last_seen: obs.timestamp,
                                net_dy: 0.0,
                            }
                        });
                        entry.last_seen = obs.timestamp;
                        entry.net_dy = center_y - first_centers.get(&obs.object_id).copied().unwrap_or(center_y);
                    }
                }
                Chunk { index: i as u64, camera: scene.camera.0.clone(), span, frames, objects }
            })
            .collect()
    }

    #[test]
    fn plan_matches_independent_reference_split() {
        let scene = scene_with_one_walker(10.0);
        let window = TimeSpan::from_secs(20.0);
        let spec = ChunkSpec::contiguous(5.0);
        let reference = reference_split(&scene, &window, &spec);
        let plan = ChunkPlan::new(&scene, &window, &spec, None);
        assert_eq!(plan.len(), reference.len());
        let mut buf = ChunkBuffer::new();
        for (i, chunk) in reference.iter().enumerate() {
            let view = plan.materialize_into(i, &mut buf);
            assert_eq!(&view.to_chunk(), chunk, "chunk {i} must be identical through either path");
            assert_eq!(view.camera(), "cam");
            assert_eq!(view.observation_count(), chunk.observation_count());
            assert_eq!(view.observed_object_ids(), chunk.observed_object_ids());
        }
        // And the public eager wrapper agrees too.
        assert_eq!(split_scene(&scene, &window, &spec, None), reference);
    }

    #[test]
    fn view_attributes_are_borrowed_from_the_scene() {
        let scene = scene_with_one_walker(10.0);
        let plan = ChunkPlan::new(&scene, &TimeSpan::from_secs(5.0), &ChunkSpec::contiguous(5.0), None);
        let mut buf = ChunkBuffer::new();
        let view = plan.materialize_into(0, &mut buf);
        let obj = view.objects().next().expect("walker visible in chunk 0");
        assert!(std::ptr::eq(obj.attributes(), &scene.objects.get(0).unwrap().attributes), "no attribute clone");
    }

    #[test]
    fn empty_window_yields_no_chunks() {
        let scene = scene_with_one_walker(10.0);
        let plan = ChunkPlan::new(&scene, &TimeSpan::between_secs(5.0, 5.0), &ChunkSpec::contiguous(5.0), None);
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn chunk_boundary_exactly_on_a_frame_is_half_open() {
        // 2 fps, 5 s chunks: the frame at t = 5.0 belongs to chunk 1, not
        // chunk 0, because spans are half-open.
        let scene = scene_with_one_walker(10.0);
        let plan = ChunkPlan::new(&scene, &TimeSpan::from_secs(10.0), &ChunkSpec::contiguous(5.0), None);
        let mut buf = ChunkBuffer::new();
        let c0 = plan.materialize_into(0, &mut buf);
        let last_t = c0.frames().last().unwrap().timestamp;
        assert_eq!(last_t, Timestamp::from_secs(4.5));
        assert_eq!(c0.frame_count(), 10);
        let c1 = plan.materialize_into(1, &mut buf);
        assert_eq!(c1.frames().next().unwrap().timestamp, Timestamp::from_secs(5.0));
    }

    #[test]
    fn restrict_keeps_only_in_region_observations() {
        let scene = scene_with_one_walker(10.0);
        let plan = ChunkPlan::new(&scene, &TimeSpan::from_secs(20.0), &ChunkSpec::contiguous(5.0), None);
        let mut buf = ChunkBuffer::new();
        let mut region_buf = ChunkBuffer::new();
        // Walker moves left→right at y = 50; chunk 1 covers t ∈ [5, 10).
        let view = plan.materialize_into(1, &mut buf);
        let left = BoundingBox::new(0.0, 0.0, 50.0, 100.0);
        let sub = view.restrict_into(&left, &mut region_buf);
        assert!(sub.observation_count() > 0);
        assert!(sub.observation_count() < view.observation_count());
        for f in sub.frames() {
            for obs in f.observations() {
                assert!(left.contains_point(obs.bbox.center()));
            }
        }
        assert_eq!(sub.frame_count(), view.frame_count(), "frames survive, possibly empty");
        assert_eq!(sub.index(), view.index());
        assert_eq!(sub.camera(), view.camera());
    }

    #[test]
    fn restrict_to_empty_region_drops_all_objects() {
        let scene = scene_with_one_walker(10.0);
        let plan = ChunkPlan::new(&scene, &TimeSpan::from_secs(5.0), &ChunkSpec::contiguous(5.0), None);
        let mut buf = ChunkBuffer::new();
        let mut region_buf = ChunkBuffer::new();
        let view = plan.materialize_into(0, &mut buf);
        assert!(view.object_count() > 0);
        // The walker is at y = 50; a strip at the bottom of the frame sees nothing.
        let empty = BoundingBox::new(0.0, 90.0, 100.0, 10.0);
        let sub = view.restrict_into(&empty, &mut region_buf);
        assert_eq!(sub.observation_count(), 0);
        assert_eq!(sub.object_count(), 0);
        assert!(sub.objects().next().is_none());
        assert_eq!(sub.frame_count(), view.frame_count());
    }

    #[test]
    fn loaded_chunk_round_trips_through_a_view() {
        let scene = scene_with_one_walker(10.0);
        let chunks = split_scene(&scene, &TimeSpan::from_secs(10.0), &ChunkSpec::contiguous(5.0), None);
        let mut buf = ChunkBuffer::new();
        let view = buf.load_chunk(&chunks[0]);
        assert_eq!(&view.to_chunk(), &chunks[0]);
    }

    #[test]
    fn extend_to_matches_a_fresh_plan_over_the_longer_window() {
        let scene = scene_with_one_walker(10.0);
        // Windows that leave the trailing chunk truncated, full, and strided.
        for (first_end, spec) in [
            (12.0, ChunkSpec::contiguous(5.0)),
            (15.0, ChunkSpec::contiguous(5.0)),
            (13.0, ChunkSpec::new(5.0, 3.0).unwrap()),
            (14.0, ChunkSpec::new(10.0, -6.0).unwrap()),
        ] {
            let mut lazy = ChunkPlan::new(&scene, &TimeSpan::from_secs(first_end), &spec, None);
            lazy.extend_to(Timestamp::from_secs(31.0));
            lazy.extend_to(Timestamp::from_secs(31.0)); // no-op re-extension
            lazy.extend_to(Timestamp::from_secs(44.0));
            let fresh = ChunkPlan::new(&scene, &TimeSpan::from_secs(44.0), &spec, None);
            assert_eq!(lazy.len(), fresh.len(), "spec {spec:?} first_end {first_end}");
            assert_eq!(lazy.window(), fresh.window());
            for i in 0..fresh.len() {
                assert_eq!(lazy.span_of(i), fresh.span_of(i), "chunk {i}, spec {spec:?} first_end {first_end}");
            }
        }
    }

    #[test]
    fn extend_to_from_an_empty_window() {
        let scene = scene_with_one_walker(10.0);
        let mut plan = ChunkPlan::new(&scene, &TimeSpan::between_secs(5.0, 5.0), &ChunkSpec::contiguous(5.0), None);
        assert!(plan.is_empty());
        plan.extend_to(Timestamp::from_secs(17.0));
        let fresh = ChunkPlan::new(&scene, &TimeSpan::between_secs(5.0, 17.0), &ChunkSpec::contiguous(5.0), None);
        assert_eq!(plan.len(), fresh.len());
        for i in 0..fresh.len() {
            assert_eq!(plan.span_of(i), fresh.span_of(i));
        }
    }

    #[test]
    fn object_iteration_is_sorted_by_id() {
        let mut objects = Vec::new();
        for id in [9u64, 3, 7, 1] {
            objects.push(TrackedObject::new(
                ObjectId(id),
                ObjectClass::Person,
                Attributes::default(),
                vec![PresenceSegment {
                    span: TimeSpan::between_secs(0.0, 10.0),
                    trajectory: Trajectory::linear(Point::new(0.0, 50.0), Point::new(100.0, 50.0), 5.0, 10.0),
                }],
            ));
        }
        let scene = Scene::new(
            CameraId::new("cam"),
            TimeSpan::from_secs(20.0),
            FrameRate::new(2.0),
            FrameSize::new(100, 100),
            objects,
        );
        let plan = ChunkPlan::new(&scene, &TimeSpan::from_secs(5.0), &ChunkSpec::contiguous(5.0), None);
        let mut buf = ChunkBuffer::new();
        let view = plan.materialize_into(0, &mut buf);
        let ids: Vec<u64> = view.objects().map(|o| o.id.0).collect();
        assert_eq!(ids, vec![1, 3, 7, 9]);
    }
}
