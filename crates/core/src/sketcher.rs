//! The Sketcher: a headless model of SketchQL's visual query interface.
//!
//! The real system renders a tldraw canvas in the browser; everything the
//! GUI does is modeled here with full semantics so queries can be composed
//! programmatically exactly the way a user composes them interactively
//! (§2.1 of the demo paper):
//!
//! * a canvas ([`Sketcher`]) where typed objects are created, edited,
//!   deleted, and dragged (mouse modes: create / edit / delete / drag),
//! * drag-and-drop **trajectory segments** recorded per object, each
//!   appearing as a box in the [`TrajectoryPanel`],
//! * panel operations — delete, reorder, stretch (speed up / slow down),
//!   and shift (time-align across objects, Figure 4), and
//! * **query replay** ([`Sketcher::compile`]): the composed event as a
//!   [`Clip`], which is both what "Open Query" animates and what the
//!   Matcher executes.

use serde::{Deserialize, Serialize};
use sketchql_trajectory::{BBox, Clip, ObjectClass, Point2, TrajPoint, Trajectory};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an object placed on the canvas.
pub type ObjectId = u64;
/// Identifier of a recorded trajectory segment.
pub type SegmentId = u64;

/// The four mouse modes of the canvas toolbar (cursor / cross / pencil /
/// square icons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MouseMode {
    /// Drag objects to record trajectories (cursor icon).
    Drag,
    /// Click an object to delete it (cross icon).
    Delete,
    /// Click an object to change its type (pencil icon).
    Edit,
    /// Click the canvas to place a new object (square icon).
    Create,
}

/// An object placed on the canvas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CanvasObject {
    /// The object's id.
    pub id: ObjectId,
    /// Its type (set at creation, editable with the pencil tool).
    pub class: ObjectClass,
    /// Current position of the object's icon on the canvas.
    pub position: Point2,
    /// Icon size (width, height) in canvas units.
    pub size: (f32, f32),
}

/// Default icon size for a class when placed on the canvas.
fn icon_size(class: ObjectClass) -> (f32, f32) {
    match class {
        ObjectClass::Car => (90.0, 50.0),
        ObjectClass::Truck | ObjectClass::Bus => (130.0, 60.0),
        ObjectClass::Person => (24.0, 60.0),
        ObjectClass::Bicycle | ObjectClass::Motorcycle => (60.0, 40.0),
        ObjectClass::Dog | ObjectClass::Cat => (40.0, 25.0),
        _ => (50.0, 50.0),
    }
}

/// Errors raised by sketcher operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchError {
    /// The referenced object does not exist.
    NoSuchObject(ObjectId),
    /// The referenced segment does not exist.
    NoSuchSegment(SegmentId),
    /// Operation requires a different mouse mode.
    WrongMode {
        /// Mode the canvas is in.
        current: MouseMode,
        /// Mode the operation needs.
        needed: MouseMode,
    },
    /// A drag is already in progress.
    DragInProgress,
    /// No drag is in progress.
    NoActiveDrag,
    /// The query has no motion to compile.
    EmptyQuery,
    /// Segment duration must be positive.
    ZeroDuration,
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::NoSuchObject(id) => write!(f, "no object with id {id}"),
            SketchError::NoSuchSegment(id) => write!(f, "no segment with id {id}"),
            SketchError::WrongMode { current, needed } => {
                write!(
                    f,
                    "mouse is in {current:?} mode, operation needs {needed:?}"
                )
            }
            SketchError::DragInProgress => write!(f, "finish the current drag first"),
            SketchError::NoActiveDrag => write!(f, "no drag in progress"),
            SketchError::EmptyQuery => write!(f, "query has no trajectory segments"),
            SketchError::ZeroDuration => write!(f, "segment duration must be positive"),
        }
    }
}

impl std::error::Error for SketchError {}

/// One drag-and-drop trajectory segment (a box in the trajectory panel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// The segment's id.
    pub id: SegmentId,
    /// The object this segment moves.
    pub object: ObjectId,
    /// Recorded mouse path.
    pub path: Vec<Point2>,
    /// Start tick on the panel timeline.
    pub start_tick: u32,
    /// Duration in ticks (panel stretching edits this).
    pub ticks: u32,
}

impl Segment {
    /// End tick (exclusive).
    pub fn end_tick(&self) -> u32 {
        self.start_tick + self.ticks
    }
}

/// The trajectory panel: per-object ordered segment boxes.
///
/// Mirrors the soundtrack-style panel of the UI. Operations correspond to
/// the interactions of §2.1: delete a box, reorder boxes, stretch a box
/// (change duration), and shift a box in time to coordinate objects.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryPanel {
    /// Per-object lanes: ordered segment ids.
    lanes: BTreeMap<ObjectId, Vec<SegmentId>>,
}

impl TrajectoryPanel {
    /// Segment ids of an object's lane, in panel order.
    pub fn lane(&self, object: ObjectId) -> &[SegmentId] {
        self.lanes.get(&object).map_or(&[], Vec::as_slice)
    }

    /// Objects with at least one segment.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.lanes.keys().copied()
    }

    fn push(&mut self, object: ObjectId, seg: SegmentId) {
        self.lanes.entry(object).or_default().push(seg);
    }

    fn remove(&mut self, object: ObjectId, seg: SegmentId) {
        if let Some(lane) = self.lanes.get_mut(&object) {
            lane.retain(|&s| s != seg);
            if lane.is_empty() {
                self.lanes.remove(&object);
            }
        }
    }
}

/// The sketcher: canvas + recorded segments + trajectory panel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sketcher {
    /// Canvas width in canvas units.
    pub width: f32,
    /// Canvas height in canvas units.
    pub height: f32,
    mode: MouseMode,
    objects: BTreeMap<ObjectId, CanvasObject>,
    segments: BTreeMap<SegmentId, Segment>,
    panel: TrajectoryPanel,
    next_object: ObjectId,
    next_segment: SegmentId,
    active_drag: Option<(ObjectId, Vec<Point2>)>,
}

impl Sketcher {
    /// An empty canvas of the given size.
    pub fn new(width: f32, height: f32) -> Self {
        Sketcher {
            width,
            height,
            mode: MouseMode::Create,
            objects: BTreeMap::new(),
            segments: BTreeMap::new(),
            panel: TrajectoryPanel::default(),
            next_object: 1,
            next_segment: 1,
            active_drag: None,
        }
    }

    /// The default demo canvas (1000x600).
    pub fn demo() -> Self {
        Sketcher::new(1000.0, 600.0)
    }

    /// Current mouse mode.
    pub fn mode(&self) -> MouseMode {
        self.mode
    }

    /// Selects a mouse mode (clicking a toolbar icon).
    pub fn set_mode(&mut self, mode: MouseMode) {
        self.mode = mode;
    }

    /// Objects currently on the canvas.
    pub fn objects(&self) -> impl Iterator<Item = &CanvasObject> {
        self.objects.values()
    }

    /// Looks up an object.
    pub fn object(&self, id: ObjectId) -> Result<&CanvasObject, SketchError> {
        self.objects.get(&id).ok_or(SketchError::NoSuchObject(id))
    }

    /// The trajectory panel.
    pub fn panel(&self) -> &TrajectoryPanel {
        &self.panel
    }

    /// Looks up a segment.
    pub fn segment(&self, id: SegmentId) -> Result<&Segment, SketchError> {
        self.segments.get(&id).ok_or(SketchError::NoSuchSegment(id))
    }

    // ------------------------------------------------------------------
    // Create / edit / delete (square, pencil, cross icons)
    // ------------------------------------------------------------------

    /// Places a new typed object at a canvas position (Create mode).
    pub fn create_object(
        &mut self,
        class: ObjectClass,
        at: Point2,
    ) -> Result<ObjectId, SketchError> {
        self.require_mode(MouseMode::Create)?;
        let id = self.next_object;
        self.next_object += 1;
        self.objects.insert(
            id,
            CanvasObject {
                id,
                class,
                position: at,
                size: icon_size(class),
            },
        );
        Ok(id)
    }

    /// Deletes an object and its segments (Delete mode).
    pub fn delete_object(&mut self, id: ObjectId) -> Result<(), SketchError> {
        self.require_mode(MouseMode::Delete)?;
        self.objects
            .remove(&id)
            .ok_or(SketchError::NoSuchObject(id))?;
        let segs: Vec<SegmentId> = self.panel.lane(id).to_vec();
        for s in segs {
            self.segments.remove(&s);
            self.panel.remove(id, s);
        }
        Ok(())
    }

    /// Changes an object's type (Edit mode).
    pub fn edit_object_type(
        &mut self,
        id: ObjectId,
        class: ObjectClass,
    ) -> Result<(), SketchError> {
        self.require_mode(MouseMode::Edit)?;
        let obj = self
            .objects
            .get_mut(&id)
            .ok_or(SketchError::NoSuchObject(id))?;
        obj.class = class;
        obj.size = icon_size(class);
        Ok(())
    }

    fn require_mode(&self, needed: MouseMode) -> Result<(), SketchError> {
        if self.mode == needed {
            Ok(())
        } else {
            Err(SketchError::WrongMode {
                current: self.mode,
                needed,
            })
        }
    }

    // ------------------------------------------------------------------
    // Drag-and-drop trajectory recording (cursor icon)
    // ------------------------------------------------------------------

    /// Starts dragging an object (mouse-down on it in Drag mode).
    pub fn begin_drag(&mut self, object: ObjectId) -> Result<(), SketchError> {
        self.require_mode(MouseMode::Drag)?;
        if self.active_drag.is_some() {
            return Err(SketchError::DragInProgress);
        }
        let obj = self.object(object)?;
        let start = obj.position;
        self.active_drag = Some((object, vec![start]));
        Ok(())
    }

    /// Records a mouse movement during a drag; the object follows.
    pub fn drag_to(&mut self, at: Point2) -> Result<(), SketchError> {
        let (obj_id, path) = self.active_drag.as_mut().ok_or(SketchError::NoActiveDrag)?;
        path.push(at);
        if let Some(obj) = self.objects.get_mut(obj_id) {
            obj.position = at;
        }
        Ok(())
    }

    /// Drops the object (mouse-up), committing the recorded path as a new
    /// segment appended to the object's lane. Returns the segment id.
    ///
    /// The segment's duration defaults to the number of recorded samples
    /// (one tick per mouse sample), which the panel can stretch afterwards.
    pub fn end_drag(&mut self) -> Result<SegmentId, SketchError> {
        let (object, path) = self.active_drag.take().ok_or(SketchError::NoActiveDrag)?;
        let ticks = path.len().max(2) as u32;
        // New segments start where the object's lane currently ends.
        let start_tick = self
            .panel
            .lane(object)
            .iter()
            .map(|s| self.segments[s].end_tick())
            .max()
            .unwrap_or(0);
        let id = self.next_segment;
        self.next_segment += 1;
        self.segments.insert(
            id,
            Segment {
                id,
                object,
                path,
                start_tick,
                ticks,
            },
        );
        self.panel.push(object, id);
        Ok(id)
    }

    /// Convenience: drags an object along a whole path in one call.
    pub fn drag_object_along(
        &mut self,
        object: ObjectId,
        path: &[Point2],
    ) -> Result<SegmentId, SketchError> {
        self.begin_drag(object)?;
        for p in path {
            self.drag_to(*p)?;
        }
        self.end_drag()
    }

    // ------------------------------------------------------------------
    // Trajectory panel operations
    // ------------------------------------------------------------------

    /// Deletes a segment box from the panel.
    pub fn delete_segment(&mut self, id: SegmentId) -> Result<(), SketchError> {
        let seg = self
            .segments
            .remove(&id)
            .ok_or(SketchError::NoSuchSegment(id))?;
        self.panel.remove(seg.object, id);
        Ok(())
    }

    /// Reorders a segment box to position `index` within its object's lane,
    /// then re-packs the lane's boxes back-to-back in the new order (the
    /// paper's example: swap a left turn and a straight stretch).
    pub fn reorder_segment(&mut self, id: SegmentId, index: usize) -> Result<(), SketchError> {
        let object = self.segment(id)?.object;
        let lane: Vec<SegmentId> = self.panel.lane(object).to_vec();
        let mut order: Vec<SegmentId> = lane.iter().copied().filter(|&s| s != id).collect();
        let index = index.min(order.len());
        order.insert(index, id);
        // Re-pack sequentially starting at the lane's original start.
        let mut tick = lane
            .iter()
            .map(|s| self.segments[s].start_tick)
            .min()
            .unwrap_or(0);
        for s in &order {
            let seg = self.segments.get_mut(s).expect("lane segment exists");
            seg.start_tick = tick;
            tick = seg.end_tick();
        }
        if let Some(l) = self.panel.lanes.get_mut(&object) {
            *l = order;
        }
        Ok(())
    }

    /// Stretches (or shrinks) a segment box to a new duration — the
    /// "make the left turn faster/slower" edit. Later boxes in the lane are
    /// shifted to remain back-to-back relative to their previous gaps.
    pub fn stretch_segment(&mut self, id: SegmentId, new_ticks: u32) -> Result<(), SketchError> {
        if new_ticks == 0 {
            return Err(SketchError::ZeroDuration);
        }
        let (object, old_end) = {
            let seg = self.segment(id)?;
            (seg.object, seg.end_tick())
        };
        let delta = new_ticks as i64 - self.segments[&id].ticks as i64;
        self.segments.get_mut(&id).expect("checked").ticks = new_ticks;
        // Shift subsequent boxes in this lane by delta.
        let lane: Vec<SegmentId> = self.panel.lane(object).to_vec();
        for s in lane {
            if s == id {
                continue;
            }
            let seg = self.segments.get_mut(&s).expect("lane segment exists");
            if seg.start_tick >= old_end {
                seg.start_tick = (seg.start_tick as i64 + delta).max(0) as u32;
            }
        }
        Ok(())
    }

    /// Simplifies a segment's recorded mouse path with RDP at tolerance
    /// `epsilon` (canvas units), removing hand jitter while keeping the
    /// stroke's corners. Duration is unchanged.
    pub fn simplify_segment(&mut self, id: SegmentId, epsilon: f32) -> Result<(), SketchError> {
        let seg = self
            .segments
            .get_mut(&id)
            .ok_or(SketchError::NoSuchSegment(id))?;
        seg.path = sketchql_trajectory::simplify_path(&seg.path, epsilon);
        Ok(())
    }

    /// Moves a segment box to start at `tick` (horizontal drag on the
    /// panel) — the multi-object synchronization edit of Figure 4.
    pub fn shift_segment(&mut self, id: SegmentId, tick: u32) -> Result<(), SketchError> {
        let seg = self
            .segments
            .get_mut(&id)
            .ok_or(SketchError::NoSuchSegment(id))?;
        seg.start_tick = tick;
        Ok(())
    }

    /// Aligns segment `a` to start at the same tick as segment `b`.
    pub fn align_segments(&mut self, a: SegmentId, b: SegmentId) -> Result<(), SketchError> {
        let target = self.segment(b)?.start_tick;
        self.shift_segment(a, target)
    }

    // ------------------------------------------------------------------
    // Query replay / compilation
    // ------------------------------------------------------------------

    /// Total timeline length in ticks.
    pub fn timeline_ticks(&self) -> u32 {
        self.segments
            .values()
            .map(Segment::end_tick)
            .max()
            .unwrap_or(0)
    }

    /// Compiles the sketch into the visual query clip C_Q ("Open Query"
    /// replays exactly this clip; "Run" sends it to the Matcher).
    ///
    /// Semantics: each object's icon box rides along its segments' paths
    /// (arc-length parameterized over each segment's tick span); between
    /// segments the object holds its position; objects with no segments are
    /// stationary context objects held at their canvas position.
    pub fn compile(&self) -> Result<Clip, SketchError> {
        if self.segments.is_empty() {
            return Err(SketchError::EmptyQuery);
        }
        let total = self.timeline_ticks();
        let mut trajectories = Vec::new();
        for obj in self.objects.values() {
            let lane = self.panel.lane(obj.id);
            let mut points: Vec<TrajPoint> = Vec::with_capacity(total as usize);
            // Sorted copies of this object's segments by start tick.
            let mut segs: Vec<&Segment> = lane.iter().map(|s| &self.segments[s]).collect();
            segs.sort_by_key(|s| s.start_tick);
            // Walk the timeline, holding position outside segments.
            let mut pos = segs
                .first()
                .and_then(|s| s.path.first().copied())
                .unwrap_or(obj.position);
            for t in 0..total.max(1) {
                let mut current = None;
                for s in &segs {
                    if t >= s.start_tick && t < s.end_tick() {
                        current = Some(*s);
                        break;
                    }
                }
                if let Some(s) = current {
                    let frac = if s.ticks <= 1 {
                        1.0
                    } else {
                        (t - s.start_tick) as f32 / (s.ticks - 1) as f32
                    };
                    pos = sketchql_datasets::sample_path(&s.path, frac);
                }
                points.push(TrajPoint::new(
                    t,
                    BBox::new(pos.x, pos.y, obj.size.0, obj.size.1),
                ));
            }
            trajectories.push(Trajectory::from_points(obj.id, obj.class, points));
        }
        Ok(Clip::new(self.width, self.height, trajectories))
    }

    /// "Open Query": the per-tick object positions the replay window
    /// animates. Equivalent to [`Self::compile`] but framed for display.
    pub fn replay(&self) -> Result<Vec<Vec<(ObjectId, BBox)>>, SketchError> {
        let clip = self.compile()?;
        let total = clip.span();
        let mut frames = Vec::with_capacity(total as usize);
        for t in 0..total {
            let mut frame = Vec::new();
            for traj in &clip.objects {
                if let Some(bb) = traj.bbox_at(t) {
                    frame.push((traj.id, bb));
                }
            }
            frames.push(frame);
        }
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f32, f32)]) -> Vec<Point2> {
        coords.iter().map(|&(x, y)| Point2::new(x, y)).collect()
    }

    fn sketcher_with_car() -> (Sketcher, ObjectId) {
        let mut s = Sketcher::demo();
        let car = s
            .create_object(ObjectClass::Car, Point2::new(100.0, 300.0))
            .unwrap();
        (s, car)
    }

    #[test]
    fn create_requires_create_mode() {
        let mut s = Sketcher::demo();
        s.set_mode(MouseMode::Drag);
        let err = s.create_object(ObjectClass::Car, Point2::ZERO).unwrap_err();
        assert!(matches!(
            err,
            SketchError::WrongMode {
                needed: MouseMode::Create,
                ..
            }
        ));
    }

    #[test]
    fn create_edit_delete_lifecycle() {
        let (mut s, car) = sketcher_with_car();
        assert_eq!(s.object(car).unwrap().class, ObjectClass::Car);
        s.set_mode(MouseMode::Edit);
        s.edit_object_type(car, ObjectClass::Truck).unwrap();
        assert_eq!(s.object(car).unwrap().class, ObjectClass::Truck);
        s.set_mode(MouseMode::Delete);
        s.delete_object(car).unwrap();
        assert!(s.object(car).is_err());
    }

    #[test]
    fn delete_object_removes_its_segments() {
        let (mut s, car) = sketcher_with_car();
        s.set_mode(MouseMode::Drag);
        let seg = s
            .drag_object_along(car, &pts(&[(150.0, 300.0), (200.0, 300.0)]))
            .unwrap();
        s.set_mode(MouseMode::Delete);
        s.delete_object(car).unwrap();
        assert!(s.segment(seg).is_err());
        assert!(s.panel().lane(car).is_empty());
    }

    #[test]
    fn drag_records_path_and_moves_object() {
        let (mut s, car) = sketcher_with_car();
        s.set_mode(MouseMode::Drag);
        s.begin_drag(car).unwrap();
        s.drag_to(Point2::new(200.0, 300.0)).unwrap();
        s.drag_to(Point2::new(300.0, 250.0)).unwrap();
        let seg = s.end_drag().unwrap();
        // Path includes the start position plus the two moves.
        assert_eq!(s.segment(seg).unwrap().path.len(), 3);
        assert_eq!(s.object(car).unwrap().position, Point2::new(300.0, 250.0));
        assert_eq!(s.panel().lane(car), &[seg]);
    }

    #[test]
    fn nested_drags_are_rejected() {
        let (mut s, car) = sketcher_with_car();
        s.set_mode(MouseMode::Drag);
        s.begin_drag(car).unwrap();
        assert_eq!(s.begin_drag(car).unwrap_err(), SketchError::DragInProgress);
        s.end_drag().unwrap();
        assert_eq!(s.end_drag().unwrap_err(), SketchError::NoActiveDrag);
    }

    #[test]
    fn segments_append_back_to_back() {
        let (mut s, car) = sketcher_with_car();
        s.set_mode(MouseMode::Drag);
        let a = s
            .drag_object_along(car, &pts(&[(200.0, 300.0), (300.0, 300.0)]))
            .unwrap();
        let b = s
            .drag_object_along(car, &pts(&[(300.0, 200.0), (300.0, 100.0)]))
            .unwrap();
        let sa = s.segment(a).unwrap().clone();
        let sb = s.segment(b).unwrap().clone();
        assert_eq!(sb.start_tick, sa.end_tick());
    }

    #[test]
    fn stretch_changes_duration_and_shifts_following() {
        let (mut s, car) = sketcher_with_car();
        s.set_mode(MouseMode::Drag);
        let a = s
            .drag_object_along(car, &pts(&[(200.0, 300.0), (300.0, 300.0)]))
            .unwrap();
        let b = s
            .drag_object_along(car, &pts(&[(300.0, 200.0), (300.0, 100.0)]))
            .unwrap();
        let b_start_before = s.segment(b).unwrap().start_tick;
        s.stretch_segment(a, 30).unwrap();
        assert_eq!(s.segment(a).unwrap().ticks, 30);
        let shift = 30 - 3; // new - old duration
        assert_eq!(s.segment(b).unwrap().start_tick, b_start_before + shift);
        assert_eq!(
            s.stretch_segment(a, 0).unwrap_err(),
            SketchError::ZeroDuration
        );
    }

    #[test]
    fn reorder_repacks_lane() {
        let (mut s, car) = sketcher_with_car();
        s.set_mode(MouseMode::Drag);
        let a = s
            .drag_object_along(car, &pts(&[(200.0, 300.0), (300.0, 300.0)]))
            .unwrap();
        let b = s
            .drag_object_along(car, &pts(&[(300.0, 200.0), (300.0, 100.0)]))
            .unwrap();
        s.reorder_segment(b, 0).unwrap();
        assert_eq!(s.panel().lane(car), &[b, a]);
        let sb = s.segment(b).unwrap().clone();
        let sa = s.segment(a).unwrap().clone();
        assert_eq!(sb.start_tick, 0);
        assert_eq!(sa.start_tick, sb.end_tick());
    }

    #[test]
    fn shift_and_align_synchronize_objects() {
        // The Figure 4 scenario: person then car drawn sequentially; align
        // the car's box with the person's so they move simultaneously.
        let mut s = Sketcher::demo();
        let person = s
            .create_object(ObjectClass::Person, Point2::new(200.0, 300.0))
            .unwrap();
        let car = s
            .create_object(ObjectClass::Car, Point2::new(500.0, 80.0))
            .unwrap();
        s.set_mode(MouseMode::Drag);
        let p_seg = s
            .drag_object_along(person, &pts(&[(400.0, 300.0), (600.0, 300.0)]))
            .unwrap();
        let c_seg = s
            .drag_object_along(car, &pts(&[(500.0, 250.0), (500.0, 450.0)]))
            .unwrap();
        // Both lanes start at 0 independently (different objects), so give
        // the car's segment a later start first to mimic sequential drawing.
        s.shift_segment(c_seg, 50).unwrap();
        assert_ne!(
            s.segment(c_seg).unwrap().start_tick,
            s.segment(p_seg).unwrap().start_tick
        );
        s.align_segments(c_seg, p_seg).unwrap();
        assert_eq!(
            s.segment(c_seg).unwrap().start_tick,
            s.segment(p_seg).unwrap().start_tick
        );
    }

    #[test]
    fn simplify_segment_removes_jitter_keeps_shape() {
        let (mut s, car) = sketcher_with_car();
        s.set_mode(MouseMode::Drag);
        // A noisy horizontal drag.
        let noisy: Vec<Point2> = (0..60)
            .map(|i| {
                Point2::new(
                    150.0 + i as f32 * 10.0,
                    300.0 + if i % 2 == 0 { 2.0 } else { -2.0 },
                )
            })
            .collect();
        let seg = s.drag_object_along(car, &noisy).unwrap();
        let before = s.segment(seg).unwrap().path.len();
        s.simplify_segment(seg, 5.0).unwrap();
        let after = s.segment(seg).unwrap().path.len();
        assert!(after < before / 4, "{before} -> {after}");
        // Duration (panel box) unchanged; compile still spans the same ticks.
        assert_eq!(s.segment(seg).unwrap().ticks, 61);
        let clip = s.compile().unwrap();
        assert!(clip.objects[0].displacement() > 500.0);
    }

    #[test]
    fn compile_produces_moving_clip() {
        let (mut s, car) = sketcher_with_car();
        s.set_mode(MouseMode::Drag);
        s.drag_object_along(
            car,
            &pts(&[
                (200.0, 450.0),
                (400.0, 450.0),
                (600.0, 450.0),
                (640.0, 300.0),
                (650.0, 100.0),
            ]),
        )
        .unwrap();
        let clip = s.compile().unwrap();
        assert_eq!(clip.num_objects(), 1);
        assert_eq!(clip.classes(), vec![ObjectClass::Car]);
        let traj = &clip.objects[0];
        assert!(traj.len() >= 5);
        assert!(traj.displacement() > 100.0);
    }

    #[test]
    fn compile_empty_query_is_error() {
        let (s, _) = sketcher_with_car();
        assert_eq!(s.compile().unwrap_err(), SketchError::EmptyQuery);
    }

    #[test]
    fn compile_holds_position_between_segments() {
        let (mut s, car) = sketcher_with_car();
        s.set_mode(MouseMode::Drag);
        let a = s
            .drag_object_along(car, &pts(&[(200.0, 300.0), (300.0, 300.0)]))
            .unwrap();
        let b = s
            .drag_object_along(car, &pts(&[(300.0, 300.0), (300.0, 100.0)]))
            .unwrap();
        // Insert a gap between the two segments.
        let gap_start = s.segment(a).unwrap().end_tick() + 10;
        s.shift_segment(b, gap_start).unwrap();
        let clip = s.compile().unwrap();
        let traj = &clip.objects[0];
        // During the gap the object sits at the end of segment a.
        let mid_gap = s.segment(a).unwrap().end_tick() + 5;
        let bb = traj.bbox_at(mid_gap).unwrap();
        assert!((bb.cx - 300.0).abs() < 1e-3);
        assert!((bb.cy - 300.0).abs() < 1e-3);
    }

    #[test]
    fn stretch_slows_down_motion_in_compiled_clip() {
        let (mut s1, car1) = sketcher_with_car();
        s1.set_mode(MouseMode::Drag);
        let path = pts(&[(200.0, 300.0), (400.0, 300.0), (600.0, 300.0)]);
        let seg1 = s1.drag_object_along(car1, &path).unwrap();
        s1.stretch_segment(seg1, 10).unwrap();
        let fast = s1.compile().unwrap();

        let (mut s2, car2) = sketcher_with_car();
        s2.set_mode(MouseMode::Drag);
        let seg2 = s2.drag_object_along(car2, &path).unwrap();
        s2.stretch_segment(seg2, 40).unwrap();
        let slow = s2.compile().unwrap();

        // Same spatial path, different durations.
        assert!(slow.span() > fast.span() * 3);
        let v_fast = fast.objects[0].velocities()[0].norm();
        let v_slow = slow.objects[0].velocities()[0].norm();
        assert!(v_fast > v_slow * 2.0);
    }

    #[test]
    fn replay_matches_compiled_clip() {
        let (mut s, car) = sketcher_with_car();
        s.set_mode(MouseMode::Drag);
        s.drag_object_along(car, &pts(&[(200.0, 300.0), (400.0, 300.0)]))
            .unwrap();
        let frames = s.replay().unwrap();
        let clip = s.compile().unwrap();
        assert_eq!(frames.len() as u32, clip.span());
        assert_eq!(frames[0][0].0, car);
    }

    #[test]
    fn stationary_context_objects_appear_in_clip() {
        let mut s = Sketcher::demo();
        let car = s
            .create_object(ObjectClass::Car, Point2::new(100.0, 300.0))
            .unwrap();
        let _hydrant = s
            .create_object(ObjectClass::FireHydrant, Point2::new(700.0, 200.0))
            .unwrap();
        s.set_mode(MouseMode::Drag);
        s.drag_object_along(car, &pts(&[(200.0, 300.0), (400.0, 300.0)]))
            .unwrap();
        let clip = s.compile().unwrap();
        assert_eq!(clip.num_objects(), 2);
        let hydrant_traj = clip
            .objects
            .iter()
            .find(|t| t.class == ObjectClass::FireHydrant)
            .unwrap();
        assert!(hydrant_traj.displacement() < 1e-3);
    }
}
