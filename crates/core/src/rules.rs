//! Rule-based (SQL-style) moment queries — the baseline interface family
//! the paper contrasts with.
//!
//! §1 of the demo paper: SQL-based interfaces "support rule-based selection
//! of clips using SQL-like syntax ... built upon low-level primitives
//! extracted by pre-trained models", and their weakness is that
//! "translating a semantically meaningful event (e.g., left turns) into
//! SQL-like rules on top of low-level primitives (e.g., location and angle
//! of bounding boxes) can be challenging."
//!
//! This module implements that interface faithfully so experiments can
//! compare it against sketching: a [`Predicate`] algebra over per-track
//! motion primitives (displacement, speed, signed turning, stops, path
//! wiggle), multi-object [`Relation`]s (perpendicularity, proximity,
//! relative speed), a sliding-window evaluator ([`evaluate_rule`], which
//! walks the matcher's own window grid, candidate combinations and
//! NMS + top-k and supplies only the scoring), and the set of
//! [`expert_rule`]s an expert user would hand-write for each event kind of
//! the evaluation workload.

use serde::{Deserialize, Serialize};
use sketchql_trajectory::{wrap_angle, ObjectClass, Trajectory};

use crate::grid;
use crate::index::VideoIndex;
use crate::matcher::{for_each_distinct_combo, nms_top_k, RetrievedMoment};

/// Motion statistics of one track restricted to a window — the "low-level
/// primitives" rules are written over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionStats {
    /// Number of observations in the window.
    pub observations: usize,
    /// Net displacement (pixels), start to end.
    pub displacement: f32,
    /// Total path length (pixels).
    pub path_length: f32,
    /// Mean box diagonal (pixels), the scale unit for thresholds.
    pub box_scale: f32,
    /// Mean speed (pixels/frame).
    pub mean_speed: f32,
    /// Signed total turning (radians, screen coords: y grows downward, so
    /// a vehicle's left turn is negative).
    pub net_turning: f32,
    /// Sum of absolute turning (radians).
    pub total_abs_turning: f32,
    /// Longest stationary stretch (frames with speed below 5% of the box
    /// scale per frame).
    pub longest_stop: u32,
    /// Mean heading (radians) over moving steps.
    pub mean_heading: f32,
}

/// Computes motion statistics of a track within `[start, end]`.
pub fn motion_stats(track: &Trajectory, start: u32, end: u32) -> MotionStats {
    let w = track.slice(start, end);
    let pts = w.points();
    let n = pts.len();
    if n < 2 {
        return MotionStats {
            observations: n,
            displacement: 0.0,
            path_length: 0.0,
            box_scale: pts
                .first()
                .map_or(1.0, |p| (p.bbox.w * p.bbox.w + p.bbox.h * p.bbox.h).sqrt()),
            mean_speed: 0.0,
            net_turning: 0.0,
            total_abs_turning: 0.0,
            longest_stop: 0,
            mean_heading: 0.0,
        };
    }
    // Use a lightly smoothed copy so camera shake does not masquerade as
    // turning — the same trap the paper ascribes to rule authoring.
    let sm = w.smoothed(2);
    let box_scale = (pts
        .iter()
        .map(|p| p.bbox.w * p.bbox.w + p.bbox.h * p.bbox.h)
        .sum::<f32>()
        / n as f32)
        .sqrt()
        .max(1.0);
    let vels = sm.velocities();
    let stop_thresh = 0.05 * box_scale;
    let mut longest_stop = 0u32;
    let mut current_stop = 0u32;
    for v in &vels {
        if v.norm() < stop_thresh {
            current_stop += 1;
            longest_stop = longest_stop.max(current_stop);
        } else {
            current_stop = 0;
        }
    }
    // Headings only over moving steps; turning from their differences.
    let mut headings = Vec::new();
    for v in &vels {
        if v.norm() >= stop_thresh {
            headings.push(v.angle());
        }
    }
    let mut net_turning = 0.0;
    let mut total_abs = 0.0;
    for pair in headings.windows(2) {
        let d = wrap_angle(pair[1] - pair[0]);
        net_turning += d;
        total_abs += d.abs();
    }
    let mean_heading = if headings.is_empty() {
        0.0
    } else {
        // Circular mean.
        let (s, c) = headings
            .iter()
            .fold((0.0f32, 0.0f32), |(s, c), h| (s + h.sin(), c + h.cos()));
        s.atan2(c)
    };
    MotionStats {
        observations: n,
        displacement: sm.displacement(),
        path_length: sm.path_length(),
        box_scale,
        mean_speed: sm.path_length() / (n - 1) as f32,
        net_turning,
        total_abs_turning: total_abs,
        longest_stop,
        mean_heading,
    }
}

/// A predicate over one object's window statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// Net displacement of at least `x` box-scale units.
    MinDisplacement(f32),
    /// Net displacement of at most `x` box-scale units.
    MaxDisplacement(f32),
    /// Signed net turning within `[min, max]` degrees (screen convention:
    /// a vehicle's left turn is negative).
    NetTurningDeg {
        /// Lower bound (degrees).
        min: f32,
        /// Upper bound (degrees).
        max: f32,
    },
    /// Total absolute turning of at least `deg` degrees.
    MinTotalTurningDeg(f32),
    /// Contains a stop of at least this many frames.
    StopsAtLeast(u32),
    /// Contains no stop longer than this many frames.
    StopsAtMost(u32),
    /// Path-length / displacement ratio within `[min, max]` (1 = straight;
    /// large = wandering).
    WiggleRatio {
        /// Lower bound.
        min: f32,
        /// Upper bound.
        max: f32,
    },
    /// Negation.
    Not(Box<Predicate>),
    /// Conjunction.
    All(Vec<Predicate>),
    /// Disjunction.
    Any(Vec<Predicate>),
}

impl Predicate {
    /// Evaluates the predicate against window statistics.
    pub fn eval(&self, s: &MotionStats) -> bool {
        match self {
            Predicate::MinDisplacement(x) => s.displacement >= x * s.box_scale,
            Predicate::MaxDisplacement(x) => s.displacement <= x * s.box_scale,
            Predicate::NetTurningDeg { min, max } => {
                let deg = s.net_turning.to_degrees();
                deg >= *min && deg <= *max
            }
            Predicate::MinTotalTurningDeg(deg) => s.total_abs_turning.to_degrees() >= *deg,
            Predicate::StopsAtLeast(frames) => s.longest_stop >= *frames,
            Predicate::StopsAtMost(frames) => s.longest_stop <= *frames,
            Predicate::WiggleRatio { min, max } => {
                if s.displacement <= f32::EPSILON {
                    return false;
                }
                let r = s.path_length / s.displacement;
                r >= *min && r <= *max
            }
            Predicate::Not(p) => !p.eval(s),
            Predicate::All(ps) => ps.iter().all(|p| p.eval(s)),
            Predicate::Any(ps) => ps.iter().any(|p| p.eval(s)),
        }
    }

    /// Number of atomic predicates (for soft scoring).
    fn atoms(&self) -> usize {
        match self {
            Predicate::Not(p) => p.atoms(),
            Predicate::All(ps) | Predicate::Any(ps) => ps.iter().map(Predicate::atoms).sum(),
            _ => 1,
        }
    }

    /// Number of satisfied atomic predicates (soft score numerator). For
    /// `Any`, the best branch counts fully.
    fn satisfied(&self, s: &MotionStats) -> usize {
        match self {
            Predicate::Not(p) => {
                if !p.eval(s) {
                    p.atoms()
                } else {
                    0
                }
            }
            Predicate::All(ps) => ps.iter().map(|p| p.satisfied(s)).sum(),
            Predicate::Any(ps) => ps.iter().map(|p| p.satisfied(s)).max().unwrap_or(0),
            _ => {
                if self.eval(s) {
                    1
                } else {
                    0
                }
            }
        }
    }
}

/// A constraint between two objects of a multi-object rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Relation {
    /// Mean headings differ by 90° ± `tol_deg`.
    Perpendicular {
        /// First object slot.
        a: usize,
        /// Second object slot.
        b: usize,
        /// Tolerance (degrees).
        tol_deg: f32,
    },
    /// Mean headings differ by at most `tol_deg`.
    SameDirection {
        /// First object slot.
        a: usize,
        /// Second object slot.
        b: usize,
        /// Tolerance (degrees).
        tol_deg: f32,
    },
    /// Object `a`'s path length is at least `factor` times object `b`'s.
    FasterThan {
        /// Faster object slot.
        a: usize,
        /// Slower object slot.
        b: usize,
        /// Required path-length ratio.
        factor: f32,
    },
    /// The objects' centers come within `x` box-scale units at some frame.
    ComesWithin {
        /// First object slot.
        a: usize,
        /// Second object slot.
        b: usize,
        /// Distance bound in units of the mean box scale.
        scale_units: f32,
    },
}

impl Relation {
    fn eval(&self, tracks: &[&Trajectory], stats: &[MotionStats], start: u32, end: u32) -> bool {
        match *self {
            Relation::Perpendicular { a, b, tol_deg } => {
                let d = wrap_angle(stats[a].mean_heading - stats[b].mean_heading)
                    .abs()
                    .to_degrees();
                (d - 90.0).abs() <= tol_deg
            }
            Relation::SameDirection { a, b, tol_deg } => {
                wrap_angle(stats[a].mean_heading - stats[b].mean_heading)
                    .abs()
                    .to_degrees()
                    <= tol_deg
            }
            Relation::FasterThan { a, b, factor } => {
                stats[a].path_length >= stats[b].path_length * factor
            }
            Relation::ComesWithin { a, b, scale_units } => {
                let scale = 0.5 * (stats[a].box_scale + stats[b].box_scale);
                let mut f = start;
                while f <= end {
                    if let (Some(ba), Some(bb)) = (tracks[a].bbox_at(f), tracks[b].bbox_at(f)) {
                        if ba.center().distance(&bb.center()) <= scale_units * scale {
                            return true;
                        }
                    }
                    f += 2; // stride 2: proximity does not need every frame
                }
                false
            }
        }
    }
}

/// A full rule query: per-object class + predicates, plus cross-object
/// relations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleQuery {
    /// Per-object constraints, one entry per object slot.
    pub objects: Vec<(ObjectClass, Predicate)>,
    /// Cross-object constraints.
    pub relations: Vec<Relation>,
    /// Window length in frames the rule expects the event to span.
    pub window: u32,
}

/// Evaluates a rule query over an indexed video, returning its `top_k`
/// ranked moments. The score of a moment is the fraction of satisfied
/// atomic predicates and relations (1.0 = rule fully satisfied), so
/// partially matching windows still rank.
///
/// The search skeleton is the matcher's: the same window grid, track
/// eligibility, distinct-combination walk and NMS + top-k — only the
/// scoring of a bound combination is the rule's own.
pub fn evaluate_rule(index: &VideoIndex, rule: &RuleQuery, top_k: usize) -> Vec<RetrievedMoment> {
    if rule.objects.is_empty() {
        return Vec::new();
    }
    let len = rule.window.clamp(8, index.frames.max(8));
    let total_atoms: usize =
        rule.objects.iter().map(|(_, p)| p.atoms()).sum::<usize>() + rule.relations.len();

    let mut scored = Vec::new();
    for (start, end, min_overlap) in grid::windows(len, index.frames, None) {
        let per_slot: Vec<Vec<&Trajectory>> = rule
            .objects
            .iter()
            .map(|(class, _)| index.tracks_in_window(*class, start, end, min_overlap))
            .collect();
        if per_slot.iter().any(Vec::is_empty) {
            continue;
        }
        let mut best: Option<RetrievedMoment> = None;
        for_each_distinct_combo(&per_slot, |combo, ids| {
            let tracks: Vec<&Trajectory> = combo
                .iter()
                .enumerate()
                .map(|(s, &i)| per_slot[s][i])
                .collect();
            let stats: Vec<MotionStats> =
                tracks.iter().map(|t| motion_stats(t, start, end)).collect();
            let mut satisfied = 0usize;
            for ((_, pred), st) in rule.objects.iter().zip(&stats) {
                satisfied += pred.satisfied(st);
            }
            for rel in &rule.relations {
                if rel.eval(&tracks, &stats, start, end) {
                    satisfied += 1;
                }
            }
            let score = satisfied as f32 / total_atoms.max(1) as f32;
            if best.as_ref().is_none_or(|b| score > b.score) {
                best = Some(RetrievedMoment {
                    start,
                    end,
                    score,
                    track_ids: ids.to_vec(),
                });
            }
        });
        scored.extend(best);
    }
    nms_top_k(scored, top_k)
}

/// The rule an expert user would hand-write for each evaluation event.
///
/// These took genuine tuning to author (thresholds on turning angles, stop
/// lengths, wiggle ratios...) — which is precisely the paper's argument
/// for sketching instead.
pub fn expert_rule(kind: sketchql_datasets::EventKind) -> RuleQuery {
    use sketchql_datasets::EventKind as E;
    let car = ObjectClass::Car;
    let person = ObjectClass::Person;
    match kind {
        E::LeftTurn => RuleQuery {
            objects: vec![(
                car,
                Predicate::All(vec![
                    // Screen convention: left turns sweep negative angles.
                    Predicate::NetTurningDeg {
                        min: -150.0,
                        max: -40.0,
                    },
                    Predicate::MinDisplacement(2.0),
                    Predicate::StopsAtMost(20),
                ]),
            )],
            relations: vec![],
            window: 90,
        },
        E::RightTurn => RuleQuery {
            objects: vec![(
                car,
                Predicate::All(vec![
                    Predicate::NetTurningDeg {
                        min: 40.0,
                        max: 150.0,
                    },
                    Predicate::MinDisplacement(2.0),
                    Predicate::StopsAtMost(20),
                ]),
            )],
            relations: vec![],
            window: 90,
        },
        E::UTurn => RuleQuery {
            objects: vec![(
                car,
                Predicate::All(vec![
                    Predicate::Any(vec![
                        Predicate::NetTurningDeg {
                            min: -230.0,
                            max: -150.0,
                        },
                        Predicate::NetTurningDeg {
                            min: 150.0,
                            max: 230.0,
                        },
                    ]),
                    Predicate::MinDisplacement(1.0),
                ]),
            )],
            relations: vec![],
            window: 95,
        },
        E::StopAndGo => RuleQuery {
            objects: vec![(
                car,
                Predicate::All(vec![
                    Predicate::StopsAtLeast(15),
                    Predicate::MinDisplacement(2.0),
                    Predicate::NetTurningDeg {
                        min: -35.0,
                        max: 35.0,
                    },
                ]),
            )],
            relations: vec![],
            window: 90,
        },
        E::LaneChange => RuleQuery {
            objects: vec![(
                car,
                Predicate::All(vec![
                    Predicate::NetTurningDeg {
                        min: -25.0,
                        max: 25.0,
                    },
                    Predicate::MinTotalTurningDeg(40.0),
                    Predicate::MinDisplacement(2.5),
                    Predicate::StopsAtMost(10),
                    Predicate::WiggleRatio {
                        min: 1.0,
                        max: 1.15,
                    },
                ]),
            )],
            relations: vec![],
            window: 80,
        },
        E::PerpendicularCrossing => RuleQuery {
            objects: vec![
                (
                    car,
                    Predicate::All(vec![
                        Predicate::MinDisplacement(2.0),
                        Predicate::NetTurningDeg {
                            min: -30.0,
                            max: 30.0,
                        },
                    ]),
                ),
                (person, Predicate::MinDisplacement(1.0)),
            ],
            relations: vec![
                Relation::Perpendicular {
                    a: 0,
                    b: 1,
                    tol_deg: 30.0,
                },
                Relation::ComesWithin {
                    a: 0,
                    b: 1,
                    scale_units: 4.0,
                },
            ],
            window: 80,
        },
        E::Overtake => RuleQuery {
            objects: vec![
                (car, Predicate::MinDisplacement(3.0)),
                (car, Predicate::MinDisplacement(1.0)),
            ],
            relations: vec![
                Relation::SameDirection {
                    a: 0,
                    b: 1,
                    tol_deg: 25.0,
                },
                Relation::FasterThan {
                    a: 0,
                    b: 1,
                    factor: 1.5,
                },
                Relation::ComesWithin {
                    a: 0,
                    b: 1,
                    scale_units: 4.0,
                },
            ],
            window: 80,
        },
        E::Loiter => RuleQuery {
            objects: vec![(
                person,
                Predicate::All(vec![
                    Predicate::MaxDisplacement(3.0),
                    Predicate::WiggleRatio {
                        min: 1.4,
                        max: 50.0,
                    },
                    Predicate::StopsAtLeast(5),
                ]),
            )],
            relations: vec![],
            window: 75,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchql_datasets::EventKind;
    use sketchql_trajectory::{BBox, Clip, TrajPoint};

    fn straight_track(id: u64) -> Trajectory {
        Trajectory::from_points(
            id,
            ObjectClass::Car,
            (0..90)
                .map(|f| TrajPoint::new(f, BBox::new(100.0 + f as f32 * 5.0, 300.0, 60.0, 35.0)))
                .collect(),
        )
    }

    fn left_turn_track(id: u64) -> Trajectory {
        // Screen: right then up (y decreasing) — a vehicle's left turn.
        let mut pts = Vec::new();
        for f in 0..45u32 {
            pts.push(TrajPoint::new(
                f,
                BBox::new(100.0 + f as f32 * 6.0, 400.0, 60.0, 35.0),
            ));
        }
        for f in 45..90u32 {
            pts.push(TrajPoint::new(
                f,
                BBox::new(370.0, 400.0 - (f - 44) as f32 * 6.0, 40.0, 45.0),
            ));
        }
        Trajectory::from_points(id, ObjectClass::Car, pts)
    }

    #[test]
    fn motion_stats_straight_line() {
        let t = straight_track(1);
        let s = motion_stats(&t, 0, 89);
        assert_eq!(s.observations, 90);
        // Smoothing pulls the endpoints slightly inward.
        assert!((s.displacement - 445.0).abs() < 15.0);
        assert!(
            (s.path_length - s.displacement).abs() < 5.0,
            "straight path"
        );
        assert!(s.net_turning.abs() < 0.15);
        // Endpoint smoothing can register a frame or two of near-zero
        // velocity; no real stop exists.
        assert!(s.longest_stop <= 3, "longest stop {}", s.longest_stop);
    }

    #[test]
    fn motion_stats_detects_left_turn_sign() {
        let t = left_turn_track(1);
        let s = motion_stats(&t, 0, 89);
        let deg = s.net_turning.to_degrees();
        assert!(
            (-150.0..=-40.0).contains(&deg),
            "screen left turn should be ~-90°, got {deg}"
        );
    }

    #[test]
    fn motion_stats_detects_stops() {
        let mut pts = Vec::new();
        for f in 0..30u32 {
            pts.push(TrajPoint::new(
                f,
                BBox::new(f as f32 * 5.0, 300.0, 60.0, 35.0),
            ));
        }
        for f in 30..60u32 {
            pts.push(TrajPoint::new(f, BBox::new(145.0, 300.0, 60.0, 35.0)));
        }
        for f in 60..90u32 {
            pts.push(TrajPoint::new(
                f,
                BBox::new(145.0 + (f - 59) as f32 * 5.0, 300.0, 60.0, 35.0),
            ));
        }
        let t = Trajectory::from_points(1, ObjectClass::Car, pts);
        let s = motion_stats(&t, 0, 89);
        assert!(
            s.longest_stop >= 20,
            "stop of ~30 frames, got {}",
            s.longest_stop
        );
    }

    #[test]
    fn predicates_evaluate_and_count_atoms() {
        let s = motion_stats(&straight_track(1), 0, 89);
        let p = Predicate::All(vec![
            Predicate::MinDisplacement(2.0),
            Predicate::NetTurningDeg {
                min: -30.0,
                max: 30.0,
            },
            Predicate::Not(Box::new(Predicate::StopsAtLeast(10))),
        ]);
        assert!(p.eval(&s));
        assert_eq!(p.atoms(), 3);
        assert_eq!(p.satisfied(&s), 3);
        let bad = Predicate::All(vec![
            Predicate::MinDisplacement(2.0),
            Predicate::StopsAtLeast(10),
        ]);
        assert!(!bad.eval(&s));
        assert_eq!(bad.satisfied(&s), 1);
    }

    #[test]
    fn left_turn_rule_selects_turner_not_straight() {
        let clip = Clip::new(1280.0, 720.0, vec![left_turn_track(1), straight_track(2)]);
        let idx = VideoIndex::from_clip("r", &clip, 90, 30.0);
        let results = evaluate_rule(&idx, &expert_rule(EventKind::LeftTurn), 10);
        assert!(!results.is_empty());
        assert_eq!(results[0].track_ids, vec![1]);
        assert!(
            results[0].score > 0.99,
            "full rule match, got {}",
            results[0].score
        );
    }

    #[test]
    fn right_turn_rule_rejects_left_turner() {
        let clip = Clip::new(1280.0, 720.0, vec![left_turn_track(1)]);
        let idx = VideoIndex::from_clip("r", &clip, 90, 30.0);
        let results = evaluate_rule(&idx, &expert_rule(EventKind::RightTurn), 10);
        // Partial scores allowed, but nothing should fully satisfy.
        for m in &results {
            assert!(m.score < 0.99, "{m:?}");
        }
    }

    #[test]
    fn perpendicular_rule_needs_both_objects() {
        // Car horizontal, person vertical, crossing mid-window.
        let car = straight_track(1);
        let person = Trajectory::from_points(
            2,
            ObjectClass::Person,
            (0..90)
                .map(|f| TrajPoint::new(f, BBox::new(325.0, 100.0 + f as f32 * 4.5, 20.0, 50.0)))
                .collect(),
        );
        let clip = Clip::new(1280.0, 720.0, vec![car, person]);
        let idx = VideoIndex::from_clip("r", &clip, 90, 30.0);
        let results = evaluate_rule(&idx, &expert_rule(EventKind::PerpendicularCrossing), 10);
        assert!(!results.is_empty());
        let top = &results[0];
        assert_eq!(top.track_ids.len(), 2);
        assert!(top.score > 0.99, "{top:?}");
    }

    #[test]
    fn all_expert_rules_are_wellformed() {
        for &kind in EventKind::ALL {
            let rule = expert_rule(kind);
            assert_eq!(rule.objects.len(), kind.num_objects(), "{kind}");
            assert!(rule.window >= 16);
            for (class, pred) in &rule.objects {
                assert!(kind.participant_classes().contains(class));
                assert!(pred.atoms() >= 1);
            }
        }
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = VideoIndex::from_clip("e", &Clip::new(10.0, 10.0, vec![]), 0, 30.0);
        assert!(evaluate_rule(&idx, &expert_rule(EventKind::LeftTurn), 10).is_empty());
    }
}
