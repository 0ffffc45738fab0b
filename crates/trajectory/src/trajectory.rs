//! Per-object bounding box trajectories.
//!
//! A [`Trajectory`] is one object's time-stamped sequence of bounding boxes,
//! the output of the tracker preprocessing step and the building block of
//! both query clips and video clips.

use crate::bbox::BBox;
use crate::geom::Point2;
use crate::object::{ObjectClass, TrackId};
use serde::{DeError, Deserialize, Deserializer, Serialize};

/// A single observation of an object at a frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrajPoint {
    /// Frame index within the source video (monotonically increasing).
    pub frame: u32,
    /// The observed bounding box at that frame.
    pub bbox: BBox,
}

impl TrajPoint {
    /// Creates an observation.
    pub fn new(frame: u32, bbox: BBox) -> Self {
        TrajPoint { frame, bbox }
    }
}

/// One object's bounding box trajectory.
///
/// Invariant: points are sorted by frame with strictly increasing frame
/// indices. Constructors enforce this, and so does decoding.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Trajectory {
    /// Track identifier unique within the source video.
    pub id: TrackId,
    /// Object category assigned by the tracker (or the sketcher).
    pub class: ObjectClass,
    points: Vec<TrajPoint>,
}

/// Hand-written over a derived mirror: a trajectory arrives in query
/// lines and video files, and one whose frames do not strictly increase
/// must be an error here, not a span that underflows downstream.
impl Deserialize for Trajectory {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        #[derive(Deserialize)]
        struct Trajectory {
            id: TrackId,
            class: ObjectClass,
            points: Vec<TrajPoint>,
        }
        let Trajectory { id, class, points } = Trajectory::deserialize(de)?;
        if let Some(w) = points.windows(2).find(|w| w[0].frame >= w[1].frame) {
            return Err(DeError(format!(
                "trajectory {id}: frame {} follows frame {}; frames must strictly increase",
                w[1].frame, w[0].frame
            )));
        }
        Ok(Self { id, class, points })
    }
}

impl Trajectory {
    /// Creates an empty trajectory.
    pub fn new(id: TrackId, class: ObjectClass) -> Self {
        Trajectory {
            id,
            class,
            points: Vec::new(),
        }
    }

    /// Creates a trajectory from points, sorting them and dropping duplicate
    /// frames (keeping the last observation for a frame).
    pub fn from_points(id: TrackId, class: ObjectClass, mut pts: Vec<TrajPoint>) -> Self {
        pts.sort_by_key(|p| p.frame);
        pts.dedup_by(|later, earlier| {
            if later.frame == earlier.frame {
                // keep the later observation's bbox
                earlier.bbox = later.bbox;
                true
            } else {
                false
            }
        });
        Trajectory {
            id,
            class,
            points: pts,
        }
    }

    /// Appends an observation; panics in debug builds if frames go backwards.
    pub fn push(&mut self, frame: u32, bbox: BBox) {
        debug_assert!(
            self.points.last().is_none_or(|p| p.frame < frame),
            "frames must be strictly increasing (got {frame} after {:?})",
            self.points.last().map(|p| p.frame)
        );
        self.points.push(TrajPoint::new(frame, bbox));
    }

    /// The underlying observations, sorted by frame.
    #[inline]
    pub fn points(&self) -> &[TrajPoint] {
        &self.points
    }

    /// Number of observations.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trajectory has no observations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// First frame index, if any.
    pub fn start_frame(&self) -> Option<u32> {
        self.points.first().map(|p| p.frame)
    }

    /// Last frame index, if any.
    pub fn end_frame(&self) -> Option<u32> {
        self.points.last().map(|p| p.frame)
    }

    /// Number of frames spanned (inclusive), counting gaps.
    pub fn span(&self) -> u32 {
        match (self.start_frame(), self.end_frame()) {
            (Some(s), Some(e)) => e - s + 1,
            _ => 0,
        }
    }

    /// Center path of the trajectory.
    pub fn centers(&self) -> Vec<Point2> {
        self.points.iter().map(|p| p.bbox.center()).collect()
    }

    /// The bounding box observed at `frame`, interpolating linearly across
    /// gaps. Returns `None` outside the trajectory's span.
    pub fn bbox_at(&self, frame: u32) -> Option<BBox> {
        if self.points.is_empty() {
            return None;
        }
        match self.points.binary_search_by_key(&frame, |p| p.frame) {
            Ok(i) => Some(self.points[i].bbox),
            Err(i) => {
                if i == 0 || i == self.points.len() {
                    None
                } else {
                    let a = &self.points[i - 1];
                    let b = &self.points[i];
                    let t = (frame - a.frame) as f32 / (b.frame - a.frame) as f32;
                    Some(a.bbox.lerp(&b.bbox, t))
                }
            }
        }
    }

    /// [`Trajectory::bbox_at`] for every frame of `frames`, in one cursor
    /// walk over the points instead of a binary search per frame (the
    /// same boxes, bit for bit: the same `lerp` at the same `t`).
    pub fn bboxes_over(
        &self,
        frames: std::ops::RangeInclusive<u32>,
    ) -> impl Iterator<Item = Option<BBox>> + '_ {
        let points = &self.points;
        // First point at or after the frame being read.
        let mut next = points.partition_point(|p| p.frame < *frames.start());
        frames.map(move |frame| {
            while points.get(next).is_some_and(|p| p.frame < frame) {
                next += 1;
            }
            let b = points.get(next)?;
            if b.frame == frame {
                return Some(b.bbox);
            }
            let a = &points[next.checked_sub(1)?];
            let t = (frame - a.frame) as f32 / (b.frame - a.frame) as f32;
            Some(a.bbox.lerp(&b.bbox, t))
        })
    }

    /// The observations inside `[start, end]` (inclusive; empty when
    /// `end < start`): both bounds by binary search on the sorted frames.
    /// Empty exactly when [`window`](Self::window) over the same range
    /// would be, so a caller can tell without building it.
    pub fn points_in(&self, start: u32, end: u32) -> &[TrajPoint] {
        let lo = self.points.partition_point(|p| p.frame < start);
        let hi = self.points.partition_point(|p| p.frame <= end);
        &self.points[lo..hi.max(lo)]
    }

    /// Extracts the sub-trajectory overlapping `[start, end]` (inclusive),
    /// keeping original frame numbers.
    pub fn slice(&self, start: u32, end: u32) -> Trajectory {
        Trajectory {
            id: self.id,
            class: self.class,
            points: self.points_in(start, end).to_vec(),
        }
    }

    /// Extracts the sub-trajectory overlapping `[start, end]` (inclusive)
    /// with frames counted from `start` — rebased against the *window*,
    /// not the first observation, so objects windowed together keep their
    /// relative timing. This is the one slicer behind every candidate
    /// clip of a scan.
    pub fn window(&self, start: u32, end: u32) -> Trajectory {
        let points = self
            .points_in(start, end)
            .iter()
            .map(|p| TrajPoint::new(p.frame - start, p.bbox))
            .collect();
        Trajectory {
            id: self.id,
            class: self.class,
            points,
        }
    }

    /// Shifts all frame numbers so the trajectory starts at `new_start`.
    pub fn rebase(&self, new_start: u32) -> Trajectory {
        let Some(s) = self.start_frame() else {
            return self.clone();
        };
        let pts = self
            .points
            .iter()
            .map(|p| TrajPoint::new(p.frame - s + new_start, p.bbox))
            .collect();
        Trajectory {
            id: self.id,
            class: self.class,
            points: pts,
        }
    }

    /// Total path length of the box centers.
    pub fn path_length(&self) -> f32 {
        self.points
            .windows(2)
            .map(|w| w[0].bbox.center().distance(&w[1].bbox.center()))
            .sum()
    }

    /// Net displacement from first to last center.
    pub fn displacement(&self) -> f32 {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => a.bbox.center().distance(&b.bbox.center()),
            _ => 0.0,
        }
    }

    /// Per-step velocity vectors (divided by frame gap so units are
    /// pixels/frame even across gaps). Length is `len() - 1`.
    pub fn velocities(&self) -> Vec<Point2> {
        self.points
            .windows(2)
            .map(|w| {
                let dt = (w[1].frame - w[0].frame).max(1) as f32;
                (w[1].bbox.center() - w[0].bbox.center()) * (1.0 / dt)
            })
            .collect()
    }

    /// Per-step headings in radians; steps with negligible motion inherit
    /// the previous heading (or 0 at the start).
    pub fn headings(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.points.len().saturating_sub(1));
        let mut last = 0.0f32;
        for v in self.velocities() {
            if v.norm() > 1e-4 {
                last = v.angle();
            }
            out.push(last);
        }
        out
    }

    /// Signed total turning (sum of heading changes). Positive is
    /// counter-clockwise in screen coordinates where y grows downward the
    /// sign flips — callers interpret the convention consistently.
    pub fn total_turning(&self) -> f32 {
        let hs = self.headings();
        hs.windows(2)
            .map(|w| crate::geom::wrap_angle(w[1] - w[0]))
            .sum()
    }

    /// Largest frame gap between consecutive observations (1 = no gaps).
    pub fn max_gap(&self) -> u32 {
        self.points
            .windows(2)
            .map(|w| w[1].frame - w[0].frame)
            .max()
            .unwrap_or(0)
    }

    /// Fills frame gaps by linear interpolation so every frame in the span
    /// has an observation.
    pub fn fill_gaps(&self) -> Trajectory {
        let Some(start) = self.start_frame() else {
            return self.clone();
        };
        let end = self.end_frame().unwrap();
        let mut pts = Vec::with_capacity((end - start + 1) as usize);
        for f in start..=end {
            // bbox_at is total within the span
            pts.push(TrajPoint::new(f, self.bbox_at(f).unwrap()));
        }
        Trajectory {
            id: self.id,
            class: self.class,
            points: pts,
        }
    }

    /// Moving-average smoothing of centers and extents with window
    /// `2*radius + 1`. Frames are preserved.
    pub fn smoothed(&self, radius: usize) -> Trajectory {
        if radius == 0 || self.points.len() < 3 {
            return self.clone();
        }
        let n = self.points.len();
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(radius);
            let hi = (i + radius + 1).min(n);
            let k = (hi - lo) as f32;
            let mut cx = 0.0;
            let mut cy = 0.0;
            let mut w = 0.0;
            let mut h = 0.0;
            for p in &self.points[lo..hi] {
                cx += p.bbox.cx;
                cy += p.bbox.cy;
                w += p.bbox.w;
                h += p.bbox.h;
            }
            pts.push(TrajPoint::new(
                self.points[i].frame,
                BBox::new(cx / k, cy / k, w / k, h / k),
            ));
        }
        Trajectory {
            id: self.id,
            class: self.class,
            points: pts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(frames: &[(u32, f32, f32)]) -> Trajectory {
        let pts = frames
            .iter()
            .map(|&(f, x, y)| TrajPoint::new(f, BBox::new(x, y, 2.0, 2.0)))
            .collect();
        Trajectory::from_points(1, ObjectClass::Car, pts)
    }

    #[test]
    fn from_points_sorts_and_dedups() {
        let t = Trajectory::from_points(
            1,
            ObjectClass::Car,
            vec![
                TrajPoint::new(3, BBox::new(3.0, 0.0, 1.0, 1.0)),
                TrajPoint::new(1, BBox::new(1.0, 0.0, 1.0, 1.0)),
                TrajPoint::new(3, BBox::new(9.0, 0.0, 1.0, 1.0)),
            ],
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.points()[0].frame, 1);
        assert_eq!(t.points()[1].frame, 3);
        // last observation for frame 3 wins
        assert_eq!(t.points()[1].bbox.cx, 9.0);
    }

    #[test]
    fn bboxes_over_is_bbox_at_per_frame() {
        let t = Trajectory::from_points(
            1,
            ObjectClass::Car,
            [(3u32, 1.0f32), (4, 2.5), (9, -7.25), (10, 0.1), (17, 3.3)]
                .map(|(f, x)| TrajPoint::new(f, BBox::new(x, x * 0.7, 2.0 + x.abs(), 3.0)))
                .to_vec(),
        );
        for (start, end) in [(0, 25), (3, 17), (5, 5), (9, 16), (17, 30), (20, 19)] {
            let walked: Vec<Option<BBox>> = t.bboxes_over(start..=end).collect();
            let looked_up: Vec<Option<BBox>> = (start..=end).map(|f| t.bbox_at(f)).collect();
            assert_eq!(walked, looked_up, "{start}..={end}");
        }
        assert!(Trajectory::new(1, ObjectClass::Car)
            .bboxes_over(0..=4)
            .all(|b| b.is_none()));
    }

    #[test]
    fn span_counts_gaps() {
        let t = traj(&[(10, 0.0, 0.0), (15, 5.0, 0.0)]);
        assert_eq!(t.span(), 6);
        assert_eq!(t.max_gap(), 5);
    }

    #[test]
    fn bbox_at_exact_and_interpolated() {
        let t = traj(&[(0, 0.0, 0.0), (10, 10.0, 20.0)]);
        assert_eq!(t.bbox_at(0).unwrap().cx, 0.0);
        let mid = t.bbox_at(5).unwrap();
        assert!((mid.cx - 5.0).abs() < 1e-6);
        assert!((mid.cy - 10.0).abs() < 1e-6);
        assert!(t.bbox_at(11).is_none());
    }

    #[test]
    fn fill_gaps_produces_dense_track() {
        let t = traj(&[(0, 0.0, 0.0), (4, 4.0, 0.0)]);
        let d = t.fill_gaps();
        assert_eq!(d.len(), 5);
        assert_eq!(d.max_gap(), 1);
        assert!((d.bbox_at(2).unwrap().cx - 2.0).abs() < 1e-6);
    }

    #[test]
    fn slice_keeps_frames_rebase_shifts() {
        let t = traj(&[(5, 0.0, 0.0), (6, 1.0, 0.0), (7, 2.0, 0.0), (8, 3.0, 0.0)]);
        let s = t.slice(6, 7);
        assert_eq!(s.len(), 2);
        assert_eq!(s.start_frame(), Some(6));
        let r = s.rebase(0);
        assert_eq!(r.start_frame(), Some(0));
        assert_eq!(r.end_frame(), Some(1));
    }

    #[test]
    fn window_rebases_against_the_window_start() {
        let t = traj(&[(5, 0.0, 0.0), (6, 1.0, 0.0), (9, 2.0, 0.0), (12, 3.0, 0.0)]);
        let w = t.window(4, 9);
        let frames: Vec<u32> = w.points().iter().map(|p| p.frame).collect();
        assert_eq!(frames, [1, 2, 5]);
        assert_eq!((w.id, w.class), (t.id, t.class));
        assert_eq!(w.points()[2].bbox, t.points()[2].bbox);
        assert!(t.window(7, 8).is_empty()); // inside a gap
        assert!(t.window(13, 20).is_empty());
        assert!(t.window(9, 6).is_empty()); // inverted bounds
        assert_eq!(t.window(0, u32::MAX).len(), 4);
    }

    #[test]
    fn path_length_vs_displacement() {
        // Right 10 then back left 10: path 20, displacement 0.
        let t = traj(&[(0, 0.0, 0.0), (1, 10.0, 0.0), (2, 0.0, 0.0)]);
        assert!((t.path_length() - 20.0).abs() < 1e-5);
        assert!(t.displacement() < 1e-6);
    }

    #[test]
    fn velocities_account_for_gaps() {
        let t = traj(&[(0, 0.0, 0.0), (4, 8.0, 0.0)]);
        let v = t.velocities();
        assert_eq!(v.len(), 1);
        assert!((v[0].x - 2.0).abs() < 1e-6);
    }

    #[test]
    fn total_turning_quarter_turn() {
        // Move +x then +y: one 90 degree heading change.
        let t = traj(&[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 1.0)]);
        assert!((t.total_turning().abs() - std::f32::consts::FRAC_PI_2).abs() < 1e-4);
    }

    #[test]
    fn headings_inherit_on_stationary_steps() {
        let t = traj(&[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 0.0)]);
        let h = t.headings();
        assert_eq!(h.len(), 2);
        assert!((h[0] - 0.0).abs() < 1e-6);
        assert!((h[1] - 0.0).abs() < 1e-6);
    }

    #[test]
    fn smoothing_reduces_jitter() {
        let mut pts = Vec::new();
        for f in 0..20u32 {
            let jitter = if f % 2 == 0 { 1.0 } else { -1.0 };
            pts.push(TrajPoint::new(f, BBox::new(f as f32, jitter, 2.0, 2.0)));
        }
        let t = Trajectory::from_points(1, ObjectClass::Car, pts);
        let s = t.smoothed(2);
        let max_y = s
            .points()
            .iter()
            .map(|p| p.bbox.cy.abs())
            .fold(0.0f32, f32::max);
        assert!(max_y < 0.5, "smoothed jitter should shrink, got {max_y}");
        assert_eq!(s.len(), t.len());
    }

    #[test]
    fn empty_trajectory_is_safe() {
        let t = Trajectory::new(1, ObjectClass::Person);
        assert!(t.is_empty());
        assert_eq!(t.span(), 0);
        assert_eq!(t.bbox_at(0), None);
        assert_eq!(t.path_length(), 0.0);
        assert!(t.fill_gaps().is_empty());
    }
}
