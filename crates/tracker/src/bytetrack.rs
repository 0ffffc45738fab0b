//! ByteTrack-style multi-object tracking.
//!
//! ByteTrack's core insight ("associating every detection box", ECCV 2022,
//! reference [13] of the demo paper) is a **two-stage** association: match
//! high-confidence detections to tracks first, then try to rescue the
//! remaining tracks with *low*-confidence detections (usually occluded or
//! blurred objects that a score threshold would have discarded). Tracks
//! coast on a constant-velocity Kalman filter while unmatched.

use serde::{Deserialize, Serialize};
use sketchql_telemetry::{self as telemetry, names};
#[cfg(test)]
use sketchql_trajectory::BBox;
use sketchql_trajectory::{ObjectClass, TrackId, TrajPoint, Trajectory};

use crate::detection::Detection;
use crate::hungarian::assign;
use crate::kalman::KalmanBoxTracker;

/// Tracker thresholds. Defaults follow the ByteTrack paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackerConfig {
    /// Detections scoring at least this go to the first association stage.
    pub high_thresh: f32,
    /// Detections scoring at least this (but below `high_thresh`) go to the
    /// rescue stage; anything lower is discarded.
    pub low_thresh: f32,
    /// Maximum `1 - IoU` cost accepted in the first stage.
    pub match_thresh: f32,
    /// Maximum `1 - IoU` cost accepted in the rescue stage (stricter).
    pub rescue_thresh: f32,
    /// Minimum score to *start* a new track.
    pub init_thresh: f32,
    /// Frames a track may coast unmatched before being dropped.
    pub max_lost: u32,
    /// Consecutive hits before a tentative track is confirmed.
    pub min_hits: u32,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            high_thresh: 0.6,
            low_thresh: 0.1,
            match_thresh: 0.8,
            rescue_thresh: 0.5,
            init_thresh: 0.7,
            max_lost: 30,
            min_hits: 3,
        }
    }
}

/// Lifecycle state of a track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrackState {
    /// Recently born, not yet confirmed.
    Tentative,
    /// Confirmed and matched recently.
    Confirmed,
    /// Confirmed but coasting without a match.
    Lost,
}

/// One object track.
#[derive(Debug, Clone)]
pub struct Track {
    /// Stable identifier.
    pub id: TrackId,
    /// Object class (from the first matched detection).
    pub class: ObjectClass,
    /// Lifecycle state.
    pub state: TrackState,
    kf: KalmanBoxTracker,
    hits: u32,
    lost_frames: u32,
    points: Vec<TrajPoint>,
}

impl Track {
    fn new(id: TrackId, det: &Detection, frame: u32) -> Self {
        Track {
            id,
            class: det.class,
            state: TrackState::Tentative,
            kf: KalmanBoxTracker::new(&det.bbox),
            hits: 1,
            lost_frames: 0,
            points: vec![TrajPoint::new(frame, det.bbox)],
        }
    }

    fn predict(&mut self) {
        self.kf.predict();
    }

    fn mark_matched(&mut self, det: &Detection, frame: u32, min_hits: u32) {
        self.kf.update(&det.bbox);
        self.hits += 1;
        self.lost_frames = 0;
        if self.hits >= min_hits {
            self.state = TrackState::Confirmed;
        }
        self.points.push(TrajPoint::new(frame, self.kf.bbox()));
    }

    fn mark_missed(&mut self) {
        self.lost_frames += 1;
        if self.state == TrackState::Confirmed {
            self.state = TrackState::Lost;
        }
    }

    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the track has no observations (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Converts the track into a trajectory.
    pub fn to_trajectory(&self) -> Trajectory {
        Trajectory::from_points(self.id, self.class, self.points.clone())
    }
}

/// The ByteTrack multi-object tracker.
#[derive(Debug, Clone)]
pub struct ByteTracker {
    /// Tracker thresholds.
    pub config: TrackerConfig,
    active: Vec<Track>,
    finished: Vec<Track>,
    next_id: TrackId,
    frame: u32,
}

impl ByteTracker {
    /// Creates a tracker.
    pub fn new(config: TrackerConfig) -> Self {
        ByteTracker {
            config,
            active: Vec::new(),
            finished: Vec::new(),
            next_id: 1,
            frame: 0,
        }
    }

    /// Current frame index (number of `step` calls so far).
    pub fn frame(&self) -> u32 {
        self.frame
    }

    /// Currently active tracks.
    pub fn active_tracks(&self) -> &[Track] {
        &self.active
    }

    fn iou_cost(tracks: &[&Track], dets: &[&Detection]) -> Vec<Vec<f32>> {
        tracks
            .iter()
            .map(|t| {
                let tb = t.kf.bbox();
                dets.iter()
                    .map(|d| {
                        if t.class != d.class {
                            // Class gate: never associate across classes.
                            f32::INFINITY
                        } else {
                            1.0 - tb.iou(&d.bbox)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Processes one frame of detections.
    pub fn step(&mut self, detections: &[Detection]) {
        let frame = self.frame;
        self.frame += 1;
        let cfg = self.config;

        for t in &mut self.active {
            t.predict();
        }

        let high: Vec<&Detection> = detections
            .iter()
            .filter(|d| d.score >= cfg.high_thresh)
            .collect();
        let low: Vec<&Detection> = detections
            .iter()
            .filter(|d| d.score >= cfg.low_thresh && d.score < cfg.high_thresh)
            .collect();

        // --- Stage 1: all tracks vs high-confidence detections.
        let track_idx: Vec<usize> = (0..self.active.len()).collect();
        let track_refs: Vec<&Track> = self.active.iter().collect();
        let cost = Self::iou_cost(&track_refs, &high);
        let (pairs, unmatched_tracks, _) = assign(&cost, cfg.match_thresh);
        // Recompute unmatched detections from the pairs: `assign` cannot
        // report columns when the cost matrix has zero rows (no tracks yet).
        let mut det_matched = vec![false; high.len()];
        for &(_, di) in &pairs {
            det_matched[di] = true;
        }
        let unmatched_high: Vec<usize> = (0..high.len()).filter(|&d| !det_matched[d]).collect();

        let mut matched_track_flags = vec![false; self.active.len()];
        for &(ti, di) in &pairs {
            let t = &mut self.active[track_idx[ti]];
            t.state = if t.hits + 1 >= cfg.min_hits {
                TrackState::Confirmed
            } else {
                t.state
            };
            t.mark_matched(high[di], frame, cfg.min_hits);
            matched_track_flags[track_idx[ti]] = true;
        }

        // --- Stage 2: rescue remaining (previously confirmed) tracks with
        // low-confidence detections.
        let rescue_idx: Vec<usize> = unmatched_tracks
            .iter()
            .map(|&ti| track_idx[ti])
            .filter(|&i| self.active[i].state != TrackState::Tentative)
            .collect();
        let rescue_refs: Vec<&Track> = rescue_idx.iter().map(|&i| &self.active[i]).collect();
        let cost2 = Self::iou_cost(&rescue_refs, &low);
        let (pairs2, _, _) = assign(&cost2, cfg.rescue_thresh);
        for &(ti, di) in &pairs2 {
            let t = &mut self.active[rescue_idx[ti]];
            t.mark_matched(low[di], frame, cfg.min_hits);
            matched_track_flags[rescue_idx[ti]] = true;
        }

        // --- Miss handling.
        for (i, t) in self.active.iter_mut().enumerate() {
            if !matched_track_flags[i] {
                t.mark_missed();
            }
        }

        // --- Births: unmatched high detections with strong scores.
        for &di in &unmatched_high {
            let d = high[di];
            if d.score >= cfg.init_thresh {
                self.active.push(Track::new(self.next_id, d, frame));
                self.next_id += 1;
            }
        }

        // --- Deaths: tentative tracks that missed, and lost tracks past
        // the coast budget.
        let max_lost = cfg.max_lost;
        let mut keep = Vec::with_capacity(self.active.len());
        for t in self.active.drain(..) {
            let dead = match t.state {
                TrackState::Tentative => t.lost_frames > 0,
                _ => t.lost_frames > max_lost,
            };
            if dead {
                if t.state != TrackState::Tentative {
                    self.finished.push(t);
                }
            } else {
                keep.push(t);
            }
        }
        self.active = keep;
    }

    /// Flushes all tracks and returns every (confirmed) trajectory with at
    /// least `min_len` observations, sorted by track id.
    pub fn into_trajectories(mut self, min_len: usize) -> Vec<Trajectory> {
        for t in self.active.drain(..) {
            if t.state != TrackState::Tentative {
                self.finished.push(t);
            }
        }
        let mut out: Vec<Trajectory> = self
            .finished
            .iter()
            .filter(|t| t.len() >= min_len)
            .map(Track::to_trajectory)
            .collect();
        out.sort_by_key(|t| t.id);
        out
    }
}

/// Convenience: runs the tracker over per-frame detection lists.
pub fn track_detections(
    frames: &[Vec<Detection>],
    config: TrackerConfig,
    min_len: usize,
) -> Vec<Trajectory> {
    // One span for the whole association loop: per-frame spans would
    // swamp the span buffer on long videos without adding signal.
    let _span = telemetry::span(names::TRACKER_ASSOCIATE);
    let mut tracker = ByteTracker::new(config);
    for dets in frames {
        tracker.step(dets);
    }
    tracker.into_trajectories(min_len)
}

/// A tracked bounding box with no jitter, used in tests.
#[cfg(test)]
fn det(cx: f32, cy: f32, score: f32) -> Detection {
    Detection {
        bbox: BBox::new(cx, cy, 40.0, 20.0),
        class: ObjectClass::Car,
        score,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_object_yields_single_track() {
        let frames: Vec<Vec<Detection>> = (0..30)
            .map(|f| vec![det(f as f32 * 4.0, 100.0, 0.9)])
            .collect();
        let tracks = track_detections(&frames, TrackerConfig::default(), 5);
        assert_eq!(tracks.len(), 1);
        assert!(tracks[0].len() >= 28);
        assert_eq!(tracks[0].class, ObjectClass::Car);
    }

    #[test]
    fn two_crossing_objects_keep_identities() {
        // Objects far apart vertically, moving horizontally in opposite
        // directions — never overlapping.
        let frames: Vec<Vec<Detection>> = (0..40)
            .map(|f| {
                vec![
                    det(f as f32 * 5.0, 100.0, 0.9),
                    det(400.0 - f as f32 * 5.0, 400.0, 0.9),
                ]
            })
            .collect();
        let tracks = track_detections(&frames, TrackerConfig::default(), 10);
        assert_eq!(tracks.len(), 2);
        // Each track is monotone in x (no identity mixing).
        for t in &tracks {
            let xs: Vec<f32> = t.centers().iter().map(|p| p.x).collect();
            let inc = xs.windows(2).all(|w| w[1] >= w[0] - 1.0);
            let dec = xs.windows(2).all(|w| w[1] <= w[0] + 1.0);
            assert!(inc || dec, "track mixes directions: {xs:?}");
        }
    }

    #[test]
    fn gap_is_bridged_by_coasting() {
        // Detection missing for 8 frames mid-track.
        let mut frames = Vec::new();
        for f in 0..60 {
            if (25..33).contains(&f) {
                frames.push(vec![]);
            } else {
                frames.push(vec![det(f as f32 * 4.0, 100.0, 0.9)]);
            }
        }
        let tracks = track_detections(&frames, TrackerConfig::default(), 10);
        assert_eq!(tracks.len(), 1, "coasting should bridge the gap");
        assert!(tracks[0].span() >= 55);
    }

    #[test]
    fn low_confidence_rescue_keeps_track_alive() {
        // Scores drop below high_thresh for a stretch (simulated occlusion);
        // plain thresholding would fragment, ByteTrack rescues.
        let frames: Vec<Vec<Detection>> = (0..60)
            .map(|f| {
                let score = if (20..40).contains(&f) { 0.3 } else { 0.9 };
                vec![det(f as f32 * 4.0, 100.0, score)]
            })
            .collect();
        let tracks = track_detections(&frames, TrackerConfig::default(), 10);
        assert_eq!(tracks.len(), 1);
        // Rescue stage used those low-conf boxes: the track keeps growing
        // through the occlusion window.
        assert!(tracks[0].len() > 50, "len {}", tracks[0].len());
    }

    #[test]
    fn low_scores_never_start_tracks() {
        let frames: Vec<Vec<Detection>> = (0..30)
            .map(|f| vec![det(f as f32 * 4.0, 100.0, 0.3)])
            .collect();
        let tracks = track_detections(&frames, TrackerConfig::default(), 2);
        assert!(
            tracks.is_empty(),
            "low-conf detections must not create tracks"
        );
    }

    #[test]
    fn isolated_false_positive_does_not_survive() {
        let mut frames: Vec<Vec<Detection>> = (0..30)
            .map(|f| vec![det(f as f32 * 4.0, 100.0, 0.9)])
            .collect();
        // One-frame false positive far away.
        frames[10].push(det(900.0, 600.0, 0.95));
        let tracks = track_detections(&frames, TrackerConfig::default(), 5);
        assert_eq!(tracks.len(), 1, "tentative 1-frame track must be culled");
    }

    #[test]
    fn class_gate_prevents_cross_class_association() {
        // A car track and a person detection at the same place.
        let mut frames: Vec<Vec<Detection>> = Vec::new();
        for f in 0..20 {
            frames.push(vec![det(f as f32 * 4.0, 100.0, 0.9)]);
        }
        for f in 20..40 {
            frames.push(vec![Detection {
                bbox: BBox::new(f as f32 * 4.0, 100.0, 40.0, 20.0),
                class: ObjectClass::Person,
                score: 0.9,
            }]);
        }
        let tracks = track_detections(&frames, TrackerConfig::default(), 5);
        assert_eq!(tracks.len(), 2, "class switch must break the track");
        assert!(tracks.iter().any(|t| t.class == ObjectClass::Car));
        assert!(tracks.iter().any(|t| t.class == ObjectClass::Person));
    }

    #[test]
    fn long_disappearance_splits_track() {
        let mut frames = Vec::new();
        for f in 0..30 {
            frames.push(vec![det(f as f32 * 2.0, 100.0, 0.9)]);
        }
        for _ in 0..80 {
            frames.push(vec![]);
        }
        for f in 0..30 {
            frames.push(vec![det(f as f32 * 2.0, 100.0, 0.9)]);
        }
        let tracks = track_detections(&frames, TrackerConfig::default(), 5);
        assert_eq!(
            tracks.len(),
            2,
            "80-frame gap exceeds max_lost → two tracks"
        );
    }

    #[test]
    fn min_len_filter_applies() {
        let frames: Vec<Vec<Detection>> = (0..6)
            .map(|f| vec![det(f as f32 * 4.0, 100.0, 0.9)])
            .collect();
        let tracks = track_detections(&frames, TrackerConfig::default(), 100);
        assert!(tracks.is_empty());
    }

    #[test]
    fn tracker_state_machine_confirms_after_min_hits() {
        let mut tracker = ByteTracker::new(TrackerConfig::default());
        tracker.step(&[det(0.0, 0.0, 0.9)]);
        assert_eq!(tracker.active_tracks()[0].state, TrackState::Tentative);
        tracker.step(&[det(4.0, 0.0, 0.9)]);
        tracker.step(&[det(8.0, 0.0, 0.9)]);
        assert_eq!(tracker.active_tracks()[0].state, TrackState::Confirmed);
        // Miss one frame: confirmed → lost.
        tracker.step(&[]);
        assert_eq!(tracker.active_tracks()[0].state, TrackState::Lost);
        // Reappear: lost → confirmed again.
        tracker.step(&[det(16.0, 0.0, 0.9)]);
        assert_eq!(tracker.active_tracks()[0].state, TrackState::Confirmed);
    }
}
