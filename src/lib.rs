//! Shared pieces of the SketchQL examples, integration tests and the
//! experiment harness: a cached demo model, the canonical demo videos, the
//! demo's two sketches (Q1, Q2), and the two retrieval criteria — time
//! spans ([`evaluate`]) and right objects ([`judge_top_k`]).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::prelude::*;
use sketchql::{ObjectId, RetrievedMoment, SegmentId, VideoIndex};
use sketchql_datasets::{
    evaluate_retrieval, generate_video, EventAnnotation, PredictedMoment, RetrievalReport,
    SceneFamily, SyntheticVideo, VideoConfig, TIOU_THRESH,
};
use sketchql_trajectory::{TrackId, Trajectory};
use std::path::PathBuf;

/// Loads (or trains and caches) the small demo model shared by examples
/// and experiments, under `$SKETCHQL_CACHE` (default
/// `target/sketchql-cache`).
pub fn demo_model() -> TrainedModel {
    let dir = std::env::var_os("SKETCHQL_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/sketchql-cache"));
    TrainedModel::load_or_train(&dir.join("model_default.json"), TrainingConfig::default())
}

/// Generates the canonical demo surveillance video for a family and seed:
/// two occurrences of every event kind plus distractor traffic.
pub fn demo_video(family: SceneFamily, seed: u64) -> SyntheticVideo {
    let cfg = VideoConfig::standard(family);
    generate_video(cfg, seed, &mut StdRng::seed_from_u64(seed))
}

/// Q1 (Figure 3): one car dragged through a left turn, its segment
/// stretched to 70 ticks. Returns the canvas, the car and its segment.
pub fn q1_sketch() -> (Sketcher, ObjectId, SegmentId) {
    let mut sketch = Sketcher::demo();
    let car = sketch
        .create_object(ObjectClass::Car, Point2::new(150.0, 450.0))
        .unwrap();
    sketch.set_mode(MouseMode::Drag);
    let path = [
        (280.0, 450.0),
        (430.0, 448.0),
        (570.0, 438.0),
        (640.0, 390.0),
        (658.0, 300.0),
        (662.0, 190.0),
        (664.0, 100.0),
    ];
    let seg = sketch.drag_object_along(car, &points(&path)).unwrap();
    sketch.stretch_segment(seg, 70).unwrap();
    (sketch, car, seg)
}

/// Q2 (Figure 4) as drawn, before the panel edit: a person dragged
/// across, then a car dragged down, each stretched to 80 ticks, the car's
/// box starting where the person's ends. Returns the canvas and the
/// person's and the car's segments; `align_segments(car, person)` is the
/// figure's synchronization.
pub fn q2_sketch() -> (Sketcher, SegmentId, SegmentId) {
    let mut sketch = Sketcher::demo();
    let person = sketch
        .create_object(ObjectClass::Person, Point2::new(200.0, 300.0))
        .unwrap();
    let car = sketch
        .create_object(ObjectClass::Car, Point2::new(500.0, 80.0))
        .unwrap();
    sketch.set_mode(MouseMode::Drag);
    let across = [
        (330.0, 300.0),
        (470.0, 300.0),
        (610.0, 300.0),
        (760.0, 300.0),
    ];
    let down = [
        (500.0, 190.0),
        (500.0, 300.0),
        (500.0, 410.0),
        (500.0, 520.0),
    ];
    let p_seg = sketch.drag_object_along(person, &points(&across)).unwrap();
    let c_seg = sketch.drag_object_along(car, &points(&down)).unwrap();
    sketch.stretch_segment(p_seg, 80).unwrap();
    sketch.stretch_segment(c_seg, 80).unwrap();
    let after = sketch.segment(p_seg).unwrap().end_tick();
    sketch.shift_segment(c_seg, after).unwrap();
    (sketch, p_seg, c_seg)
}

fn points(xy: &[(f32, f32)]) -> Vec<Point2> {
    xy.iter().map(|&(x, y)| Point2::new(x, y)).collect()
}

/// Scores ranked moments against the truth on time spans alone.
pub fn evaluate(moments: &[RetrievedMoment], truth: &[&EventAnnotation]) -> RetrievalReport {
    let preds: Vec<PredictedMoment> = moments
        .iter()
        .map(|m| PredictedMoment {
            start: m.start,
            end: m.end,
            score: m.score,
        })
        .collect();
    evaluate_retrieval(&preds, truth)
}

/// Mean box IoU a moment's tracks need with a truth event's objects over
/// the event's span to count as binding the right objects — the
/// spatio-temporal criterion of *Sketch-based Video Object Localization*.
pub const RIGHT_OBJECT_IOU: f32 = 0.5;

/// One top-k moment judged on both criteria.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judged {
    /// The truth event it matched (an index into the judged `truth`).
    pub event: usize,
    /// Its temporal IoU with that event.
    pub tiou: f32,
    /// The least, over the event's objects, of the best mean per-frame
    /// box IoU any of the moment's tracks has with that object over the
    /// event's span.
    pub box_iou: f32,
}

impl Judged {
    /// Whether the moment binds the event's objects.
    pub fn right_object(&self) -> bool {
        self.box_iou >= RIGHT_OBJECT_IOU
    }
}

/// Judges the top `truth.len()` of `moments` (ranked best first) as
/// [`evaluate_retrieval`] matches them: each takes the unmatched truth
/// event it overlaps best at temporal IoU >= [`TIOU_THRESH`], or `None`.
/// `index` holds the moments' tracks and `video` the truth objects.
pub fn judge_top_k(
    index: &VideoIndex,
    video: &SyntheticVideo,
    truth: &[&EventAnnotation],
    moments: &[RetrievedMoment],
) -> Vec<Option<Judged>> {
    let mut matched = vec![false; truth.len()];
    let track = |id: TrackId| index.tracks.iter().find(|t| t.id == id);
    moments
        .iter()
        .take(truth.len())
        .map(|m| {
            let (event, tiou) = truth
                .iter()
                .enumerate()
                .filter(|&(i, _)| !matched[i])
                .map(|(i, t)| (i, t.temporal_iou(m.start, m.end)))
                .filter(|&(_, tiou)| tiou >= TIOU_THRESH)
                .max_by(|a, b| a.1.total_cmp(&b.1))?;
            matched[event] = true;
            let t = truth[event];
            let box_iou = t
                .object_ids
                .iter()
                .map(|&o| {
                    let object = &video.truth.objects[o as usize];
                    m.track_ids
                        .iter()
                        .filter_map(|&id| track(id))
                        .map(|tr| mean_box_iou(tr, object, t.start, t.end))
                        .fold(0.0, f32::max)
                })
                .fold(f32::INFINITY, f32::min);
            Some(Judged {
                event,
                tiou,
                box_iou,
            })
        })
        .collect()
}

/// Mean per-frame box IoU of `track` with `truth` over the frames of
/// `start..=end` where `truth` is visible; a frame `track` misses counts 0.
fn mean_box_iou(track: &Trajectory, truth: &Trajectory, start: u32, end: u32) -> f32 {
    let (sum, frames) = (start..=end)
        .filter_map(|f| Some((truth.bbox_at(f)?, track.bbox_at(f))))
        .fold((0.0, 0u32), |(sum, n), (want, got)| {
            (sum + got.map_or(0.0, |b| b.iou(&want)), n + 1)
        });
    if frames == 0 {
        0.0
    } else {
        sum / frames as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_video_is_deterministic() {
        let a = demo_video(SceneFamily::ParkingLot, 3);
        let b = demo_video(SceneFamily::ParkingLot, 3);
        assert_eq!(a.events, b.events);
        assert_eq!(a.name, "parking_lot_3");
    }

    #[test]
    fn q2_panel_sync_overlaps_the_two_motions() {
        let (mut sketch, person, car) = q2_sketch();
        let drawn = sketch.compile().unwrap();
        sketch.align_segments(car, person).unwrap();
        let synced = sketch.compile().unwrap();
        assert_eq!(drawn.span(), 160, "drawn one after the other");
        assert_eq!(synced.span(), 80, "synchronized");
    }

    #[test]
    fn a_moment_binds_its_event_only_through_the_events_own_track() {
        let video = demo_video(SceneFamily::UrbanIntersection, 5);
        let index = VideoIndex::from_truth(&video);
        let truth = video.events_of(sketchql_datasets::EventKind::LeftTurn);
        let event = truth[1];
        let car = event.object_ids[0];
        let other = index.tracks.iter().find(|t| t.id != car).unwrap().id;
        let moment = |track| RetrievedMoment {
            start: event.start,
            end: event.end,
            score: 1.0,
            track_ids: vec![track],
        };
        let judged = judge_top_k(&index, &video, &truth, &[moment(car), moment(other)]);
        assert_eq!(
            judged[0].map(|j| (j.event, j.tiou, j.box_iou)),
            Some((1, 1.0, 1.0))
        );
        // The second moment overlaps no unmatched event: truth 0 is elsewhere.
        assert_eq!(judged[1], None);
        let wrong = judge_top_k(&index, &video, &truth[1..], &[moment(other)]);
        assert!(!wrong[0].unwrap().right_object(), "{wrong:?}");
    }
}
