//! Multi-object clips — the unit of comparison in SketchQL.
//!
//! Both the user's visual query (compiled by the sketcher) and every
//! candidate video window considered by the Matcher are [`Clip`]s: a set of
//! object trajectories over a common frame range, plus the frame geometry
//! they were observed in.

use crate::bbox::BBox;
use crate::object::ObjectClass;
use crate::trajectory::Trajectory;
use serde::{Deserialize, Serialize};

/// A multi-object bounding box clip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clip {
    /// Frame width of the coordinate space the boxes live in.
    pub frame_width: f32,
    /// Frame height of the coordinate space the boxes live in.
    pub frame_height: f32,
    /// The participating object trajectories. Order is significant for
    /// query/candidate correspondence: object `i` of the query is compared
    /// against object `i` of the candidate.
    pub objects: Vec<Trajectory>,
}

impl Clip {
    /// Creates a clip from trajectories observed in a `w x h` frame.
    pub fn new(frame_width: f32, frame_height: f32, objects: Vec<Trajectory>) -> Self {
        Clip {
            frame_width,
            frame_height,
            objects,
        }
    }

    /// Number of objects.
    #[inline]
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Whether the clip has no objects or all trajectories are empty.
    pub fn is_empty(&self) -> bool {
        self.objects.iter().all(|t| t.is_empty())
    }

    /// Earliest observed frame across objects.
    pub fn start_frame(&self) -> Option<u32> {
        self.objects.iter().filter_map(|t| t.start_frame()).min()
    }

    /// Latest observed frame across objects.
    pub fn end_frame(&self) -> Option<u32> {
        self.objects.iter().filter_map(|t| t.end_frame()).max()
    }

    /// Frames spanned, counting gaps.
    pub fn span(&self) -> u32 {
        match (self.start_frame(), self.end_frame()) {
            (Some(s), Some(e)) => e - s + 1,
            _ => 0,
        }
    }

    /// The classes of the objects, in order.
    pub fn classes(&self) -> Vec<ObjectClass> {
        self.objects.iter().map(|t| t.class).collect()
    }

    /// Restricts every trajectory to `[start, end]` and rebases frames to 0.
    pub fn window(&self, start: u32, end: u32) -> Clip {
        // Each track rebases against the *window* start, so cross-object
        // timing inside the window is preserved.
        let objects = self.objects.iter().map(|t| t.window(start, end)).collect();
        Clip {
            frame_width: self.frame_width,
            frame_height: self.frame_height,
            objects,
        }
    }

    /// The tight bounds covering every box in the clip, or `None` if empty.
    pub fn bounds(&self) -> Option<BBox> {
        let mut acc: Option<BBox> = None;
        for t in &self.objects {
            for p in t.points() {
                acc = Some(match acc {
                    Some(b) => b.union_bounds(&p.bbox),
                    None => p.bbox,
                });
            }
        }
        acc
    }

    /// Canonical normalization used before computing similarity.
    ///
    /// Translates and uniformly scales all boxes so the clip's tight bounds
    /// map into the unit square `[0,1]^2`, centered. This is what gives the
    /// encoder (and the classical baselines) invariance to *where* on screen
    /// an event happens and *how large* it appears — the paper's motivating
    /// examples (near vs far cars, Figure 1) differ exactly in those
    /// nuisances.
    pub fn normalized(&self) -> Clip {
        let Some(b) = self.bounds() else {
            return self.clone();
        };
        let scale_src = b.w.max(b.h).max(1e-6);
        let s = 1.0 / scale_src;
        let objects = self
            .objects
            .iter()
            .map(|t| {
                let pts = t
                    .points()
                    .iter()
                    .map(|p| {
                        let bb = p.bbox;
                        let cx = 0.5 + (bb.cx - b.cx) * s;
                        let cy = 0.5 + (bb.cy - b.cy) * s;
                        crate::trajectory::TrajPoint::new(
                            p.frame,
                            BBox::new(cx, cy, bb.w * s, bb.h * s),
                        )
                    })
                    .collect();
                Trajectory::from_points(t.id, t.class, pts)
            })
            .collect();
        Clip {
            frame_width: 1.0,
            frame_height: 1.0,
            objects,
        }
    }

    /// Resamples every object to exactly `n` evenly spaced time steps over
    /// the clip's span (gap-filled, shared timeline), producing a dense clip
    /// with frames `0..n`. This is the fixed-length form consumed by the
    /// encoder and by aligned distance baselines.
    pub fn resampled(&self, n: usize) -> Clip {
        assert!(n >= 2, "resampling needs at least 2 steps");
        let (Some(start), Some(end)) = (self.start_frame(), self.end_frame()) else {
            return self.clone();
        };
        let span = (end - start) as f32;
        let objects = self
            .objects
            .iter()
            .map(|t| {
                let mut pts = Vec::with_capacity(n);
                if t.is_empty() {
                    return Trajectory::from_points(t.id, t.class, pts);
                }
                let ts = t.start_frame().unwrap() as f32;
                let te = t.end_frame().unwrap() as f32;
                for i in 0..n {
                    let f = if span <= f32::EPSILON {
                        start as f32
                    } else {
                        start as f32 + span * (i as f32 / (n - 1) as f32)
                    };
                    // Clamp the sampling instant into this object's own
                    // lifetime so objects that appear late / leave early
                    // hold their first/last pose instead of vanishing.
                    let fc = f.clamp(ts, te);
                    let lo = fc.floor() as u32;
                    let hi = fc.ceil() as u32;
                    let bb = if lo == hi {
                        t.bbox_at(lo).unwrap()
                    } else {
                        let a = t.bbox_at(lo).unwrap();
                        let b = t.bbox_at(hi).unwrap();
                        a.lerp(&b, fc - lo as f32)
                    };
                    pts.push(crate::trajectory::TrajPoint::new(i as u32, bb));
                }
                Trajectory::from_points(t.id, t.class, pts)
            })
            .collect();
        Clip {
            frame_width: self.frame_width,
            frame_height: self.frame_height,
            objects,
        }
    }

    /// Convenience: normalize then resample — the canonical encoder input.
    pub fn canonical(&self, n: usize) -> Clip {
        self.normalized().resampled(n)
    }

    /// The horizontally mirrored clip (x flipped about the frame center).
    ///
    /// Mirroring flips motion chirality — a left turn becomes a right turn —
    /// while preserving every other statistic, which makes mirrored clips
    /// ideal *hard negatives* for contrastive training.
    pub fn mirrored_x(&self) -> Clip {
        let objects = self
            .objects
            .iter()
            .map(|t| {
                let pts = t
                    .points()
                    .iter()
                    .map(|p| {
                        let b = p.bbox;
                        crate::trajectory::TrajPoint::new(
                            p.frame,
                            BBox::new(self.frame_width - b.cx, b.cy, b.w, b.h),
                        )
                    })
                    .collect();
                Trajectory::from_points(t.id, t.class, pts)
            })
            .collect();
        Clip {
            frame_width: self.frame_width,
            frame_height: self.frame_height,
            objects,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::TrajPoint;

    fn line_traj(
        id: u64,
        class: ObjectClass,
        frames: std::ops::Range<u32>,
        step: f32,
    ) -> Trajectory {
        let pts = frames
            .map(|f| TrajPoint::new(f, BBox::new(f as f32 * step, 0.0, 4.0, 4.0)))
            .collect();
        Trajectory::from_points(id, class, pts)
    }

    fn sample_clip() -> Clip {
        Clip::new(
            100.0,
            100.0,
            vec![
                line_traj(1, ObjectClass::Car, 0..10, 5.0),
                line_traj(2, ObjectClass::Person, 2..8, 1.0),
            ],
        )
    }

    #[test]
    fn span_and_frames() {
        let c = sample_clip();
        assert_eq!(c.start_frame(), Some(0));
        assert_eq!(c.end_frame(), Some(9));
        assert_eq!(c.span(), 10);
        assert_eq!(c.num_objects(), 2);
    }

    #[test]
    fn classes_in_order() {
        let c = sample_clip();
        assert_eq!(c.classes(), vec![ObjectClass::Car, ObjectClass::Person]);
    }

    #[test]
    fn window_preserves_cross_object_timing() {
        let c = sample_clip();
        let w = c.window(2, 7);
        // Both objects observed in [2,7]; after rebase, car starts at 0 and
        // person also starts at 0 (person's first frame was 2).
        assert_eq!(w.objects[0].start_frame(), Some(0));
        assert_eq!(w.objects[1].start_frame(), Some(0));
        assert_eq!(w.end_frame(), Some(5));
    }

    #[test]
    fn bounds_covers_everything() {
        let c = sample_clip();
        let b = c.bounds().unwrap();
        // Car travels cx 0..45 with w=4 → x in [-2, 47].
        assert!((b.x1() - -2.0).abs() < 1e-5);
        assert!((b.x2() - 47.0).abs() < 1e-5);
    }

    #[test]
    fn normalized_fits_unit_square() {
        let c = sample_clip().normalized();
        let b = c.bounds().unwrap();
        assert!(b.w <= 1.0 + 1e-5);
        assert!(b.h <= 1.0 + 1e-5);
        // Centered around 0.5.
        assert!((b.cx - 0.5).abs() < 1e-5);
        assert!((b.cy - 0.5).abs() < 1e-5);
    }

    #[test]
    fn normalization_is_translation_and_scale_invariant() {
        let c = sample_clip();
        // Translate + scale the whole clip.
        let moved = Clip::new(
            1000.0,
            1000.0,
            c.objects
                .iter()
                .map(|t| {
                    let pts = t
                        .points()
                        .iter()
                        .map(|p| {
                            TrajPoint::new(
                                p.frame,
                                p.bbox
                                    .scaled(3.0)
                                    .translated(crate::geom::Point2::new(200.0, 100.0)),
                            )
                        })
                        .collect();
                    Trajectory::from_points(t.id, t.class, pts)
                })
                .collect(),
        );
        let a = c.normalized();
        let b = moved.normalized();
        for (ta, tb) in a.objects.iter().zip(&b.objects) {
            for (pa, pb) in ta.points().iter().zip(tb.points()) {
                assert!((pa.bbox.cx - pb.bbox.cx).abs() < 1e-4);
                assert!((pa.bbox.cy - pb.bbox.cy).abs() < 1e-4);
                assert!((pa.bbox.w - pb.bbox.w).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn resampled_has_fixed_length() {
        let c = sample_clip().resampled(16);
        for t in &c.objects {
            assert_eq!(t.len(), 16);
            assert_eq!(t.start_frame(), Some(0));
            assert_eq!(t.end_frame(), Some(15));
        }
    }

    #[test]
    fn resample_holds_pose_outside_lifetime() {
        let c = sample_clip().resampled(10);
        // Person lives frames 2..=7 in a 0..=9 clip: its first resampled
        // boxes should equal its first real box.
        let person = &c.objects[1];
        let first = person.points()[0].bbox;
        assert!((first.cx - 2.0).abs() < 1e-4);
    }

    #[test]
    fn resample_single_frame_clip() {
        let t = Trajectory::from_points(
            1,
            ObjectClass::Car,
            vec![TrajPoint::new(5, BBox::new(10.0, 10.0, 2.0, 2.0))],
        );
        let c = Clip::new(100.0, 100.0, vec![t]).resampled(4);
        assert_eq!(c.objects[0].len(), 4);
        for p in c.objects[0].points() {
            assert!((p.bbox.cx - 10.0).abs() < 1e-6);
        }
    }

    #[test]
    fn mirror_flips_x_and_chirality() {
        let c = sample_clip();
        let m = c.mirrored_x();
        // Double mirror is identity.
        let mm = m.mirrored_x();
        for (a, b) in c.objects.iter().zip(&mm.objects) {
            for (pa, pb) in a.points().iter().zip(b.points()) {
                assert!((pa.bbox.cx - pb.bbox.cx).abs() < 1e-4);
            }
        }
        // Turning sign flips.
        let turny = Trajectory::from_points(
            1,
            ObjectClass::Car,
            vec![
                TrajPoint::new(0, BBox::new(10.0, 50.0, 4.0, 4.0)),
                TrajPoint::new(1, BBox::new(30.0, 50.0, 4.0, 4.0)),
                TrajPoint::new(2, BBox::new(30.0, 30.0, 4.0, 4.0)),
            ],
        );
        let tc = Clip::new(100.0, 100.0, vec![turny]);
        let t_orig = tc.objects[0].total_turning();
        let t_mirr = tc.mirrored_x().objects[0].total_turning();
        assert!((t_orig + t_mirr).abs() < 1e-4, "{t_orig} vs {t_mirr}");
    }

    #[test]
    fn empty_clip_is_safe() {
        let c = Clip::new(10.0, 10.0, vec![]);
        assert!(c.is_empty());
        assert_eq!(c.bounds(), None);
        assert_eq!(c.span(), 0);
        let n = c.normalized();
        assert!(n.is_empty());
    }

    #[test]
    fn canonical_pipeline() {
        let c = sample_clip().canonical(8);
        assert_eq!(c.objects[0].len(), 8);
        let b = c.bounds().unwrap();
        assert!(b.x1() >= -1e-5 && b.x2() <= 1.0 + 1e-5);
    }
}
