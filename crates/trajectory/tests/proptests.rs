//! Property-based tests for the trajectory substrate's core invariants.

use proptest::prelude::*;
use sketchql_trajectory::distance::{self, DistanceKind};
use sketchql_trajectory::{BBox, Clip, ObjectClass, Point2, TrajPoint, Trajectory};

fn arb_point() -> impl Strategy<Value = Point2> {
    (-100.0f32..100.0, -100.0f32..100.0).prop_map(|(x, y)| Point2::new(x, y))
}

fn arb_path(max_len: usize) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(arb_point(), 1..max_len)
}

fn arb_bbox() -> impl Strategy<Value = BBox> {
    (-50.0f32..50.0, -50.0f32..50.0, 0.5f32..20.0, 0.5f32..20.0)
        .prop_map(|(cx, cy, w, h)| BBox::new(cx, cy, w, h))
}

fn arb_trajectory() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec(arb_bbox(), 2..40).prop_map(|boxes| {
        let pts = boxes
            .into_iter()
            .enumerate()
            .map(|(i, b)| TrajPoint::new(i as u32 * 2, b))
            .collect();
        Trajectory::from_points(7, ObjectClass::Car, pts)
    })
}

/// A trajectory with gaps: strictly increasing frames, 1 to 6 apart.
fn arb_gappy_trajectory() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((1u32..7, arb_bbox()), 0..40).prop_map(|steps| {
        let mut frame = 0;
        let pts = steps
            .into_iter()
            .map(|(gap, b)| {
                frame += gap;
                TrajPoint::new(frame, b)
            })
            .collect();
        Trajectory::from_points(7, ObjectClass::Car, pts)
    })
}

proptest! {
    #[test]
    fn window_and_slice_equal_the_filter_form(
        t in arb_gappy_trajectory(),
        start in 0u32..260,
        len in 0u32..260,
        inverted in 0u32..8,
    ) {
        // Mostly `start <= end`; one case in eight has the bounds inverted.
        let (start, end) = if inverted == 0 { (start + len, start) } else { (start, start + len) };
        let inside = |p: &&TrajPoint| p.frame >= start && p.frame <= end;
        let kept: Vec<TrajPoint> = t.points().iter().filter(inside).copied().collect();
        prop_assert_eq!(t.slice(start, end), Trajectory::from_points(t.id, t.class, kept.clone()));
        let rebased = kept.iter().map(|p| TrajPoint::new(p.frame - start, p.bbox)).collect();
        prop_assert_eq!(t.window(start, end), Trajectory::from_points(t.id, t.class, rebased));
        let clip = Clip::new(100.0, 100.0, vec![t.clone(), t.slice(0, 20)]);
        let windowed = clip.window(start, end);
        prop_assert_eq!(&windowed.objects[0], &t.window(start, end));
        prop_assert_eq!(&windowed.objects[1], &t.slice(0, 20).window(start, end));
    }

    #[test]
    fn iou_in_unit_interval(a in arb_bbox(), b in arb_bbox()) {
        let v = a.iou(&b);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&v));
        prop_assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-6);
    }

    #[test]
    fn iou_self_is_one(a in arb_bbox()) {
        // f32 edge subtraction loses ~1e-5 relative precision for small
        // boxes centered far from the origin.
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn union_bounds_contains_both(a in arb_bbox(), b in arb_bbox()) {
        let u = a.union_bounds(&b);
        prop_assert!(u.x1() <= a.x1() + 1e-4 && u.x2() >= a.x2() - 1e-4);
        prop_assert!(u.y1() <= b.y1() + 1e-4 && u.y2() >= b.y2() - 1e-4);
        prop_assert!(u.area() + 1e-4 >= a.area().max(b.area()));
    }

    #[test]
    fn distances_nonnegative_and_symmetric(a in arb_path(24), b in arb_path(24)) {
        for &k in DistanceKind::ALL {
            // Euclidean variants require equal lengths; skip mismatches.
            if matches!(k, DistanceKind::Euclidean | DistanceKind::EuclideanVelocity)
                && a.len() != b.len()
            {
                continue;
            }
            let d = distance::path_distance(k, &a, &b);
            prop_assert!(d >= -1e-6, "{k:?} negative: {d}");
            let r = distance::path_distance(k, &b, &a);
            prop_assert!((d - r).abs() < 1e-3 * (1.0 + d.abs()), "{k:?} asym {d} vs {r}");
        }
    }

    #[test]
    fn distance_identity(a in arb_path(24)) {
        for &k in DistanceKind::ALL {
            let d = distance::path_distance(k, &a, &a);
            prop_assert!(d.abs() < 1e-4, "{k:?} self-distance {d}");
        }
    }

    #[test]
    fn dtw_triangle_like_bound(a in arb_path(12), b in arb_path(12)) {
        // DTW is not a metric, but it is bounded above by the max pairwise
        // point distance (every matched pair costs at most that).
        let max_pair = a.iter()
            .flat_map(|p| b.iter().map(move |q| p.distance(q)))
            .fold(0.0f32, f32::max);
        let d = distance::dtw(&a, &b);
        prop_assert!(d <= max_pair + 1e-4);
    }

    #[test]
    fn frechet_upper_bounds_hausdorff(a in arb_path(12), b in arb_path(12)) {
        prop_assert!(distance::frechet(&a, &b) + 1e-4 >= distance::hausdorff(&a, &b));
    }

    #[test]
    fn trajectory_fill_gaps_dense_and_endpoint_preserving(t in arb_trajectory()) {
        let d = t.fill_gaps();
        prop_assert_eq!(d.len() as u32, t.span());
        prop_assert!(d.max_gap() <= 1);
        prop_assert_eq!(d.points().first().unwrap().bbox, t.points().first().unwrap().bbox);
        prop_assert_eq!(d.points().last().unwrap().bbox, t.points().last().unwrap().bbox);
    }

    #[test]
    fn clip_normalization_idempotent(t in arb_trajectory()) {
        let c = Clip::new(200.0, 200.0, vec![t]);
        let n1 = c.normalized();
        let n2 = n1.normalized();
        for (a, b) in n1.objects[0].points().iter().zip(n2.objects[0].points()) {
            prop_assert!((a.bbox.cx - b.bbox.cx).abs() < 1e-4);
            prop_assert!((a.bbox.cy - b.bbox.cy).abs() < 1e-4);
            prop_assert!((a.bbox.w - b.bbox.w).abs() < 1e-4);
            prop_assert!((a.bbox.h - b.bbox.h).abs() < 1e-4);
        }
    }

    #[test]
    fn resample_is_fixed_length_and_in_span(t in arb_trajectory(), n in 2usize..64) {
        let c = Clip::new(200.0, 200.0, vec![t]).resampled(n);
        prop_assert_eq!(c.objects[0].len(), n);
        prop_assert_eq!(c.objects[0].start_frame(), Some(0));
        prop_assert_eq!(c.objects[0].end_frame(), Some(n as u32 - 1));
    }

    #[test]
    fn feature_extraction_never_panics_and_is_finite(t in arb_trajectory(), n in 4usize..48) {
        let c = Clip::new(200.0, 200.0, vec![t]);
        let f = sketchql_trajectory::extract_features(&c, n).unwrap();
        prop_assert_eq!(f.data.len(), n * sketchql_trajectory::TOKEN_DIM);
        for v in &f.data {
            prop_assert!(v.is_finite());
        }
    }

    #[test]
    fn clip_distance_scale_invariant(t in arb_trajectory(), s in 0.5f32..5.0) {
        // Skip nearly-stationary trajectories where normalization blows up
        // residual jitter.
        prop_assume!(t.displacement() > 1.0);
        let a = Clip::new(200.0, 200.0, vec![t.clone()]);
        let scaled = Clip::new(
            1000.0,
            1000.0,
            vec![Trajectory::from_points(
                t.id,
                t.class,
                t.points().iter().map(|p| TrajPoint::new(p.frame, p.bbox.scaled(s))).collect(),
            )],
        );
        let d = distance::clip_distance(DistanceKind::Euclidean, &a, &scaled);
        prop_assert!(d < 1e-3, "scale should be normalized away, got {d}");
    }
}
