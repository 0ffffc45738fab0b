//! Video preprocessing: from raw video (ground-truth bbox streams standing
//! in for decoded frames) to an indexed set of object trajectories.
//!
//! This is SketchQL's "initialization" step after "Upload Dataset" (§3.1
//! Step 1): run the detector + tracker once per video and keep the tracked
//! trajectories for all subsequent queries.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql_datasets::SyntheticVideo;
use sketchql_telemetry::{self as telemetry, names};
use sketchql_tracker::{track_detections, DetectorConfig, DetectorSim, TrackerConfig};
use sketchql_trajectory::{Clip, ObjectClass, Trajectory};
use std::sync::{Arc, OnceLock};

use crate::embed_cache::{MemoStats, SegmentMemo};

/// Minimum length (observations) for a track to enter the index.
pub const MIN_TRACK_LEN: usize = 8;

/// Preprocessed form of one video: its tracked object trajectories.
///
/// Immutable once built: [`index_fingerprint`](crate::index_fingerprint)
/// hashes the contents the first time it is asked and answers from
/// that value afterwards, and the scans that run fill a memo of
/// candidate-segment embeddings keyed on track ids and frame ranges, so
/// changed contents need a new `VideoIndex` (build one), not an edited
/// field.
#[derive(Debug, Clone)]
pub struct VideoIndex {
    /// Dataset name.
    pub name: String,
    /// Tracked trajectories (tracker output, not ground truth).
    pub tracks: Vec<Trajectory>,
    /// Total frames in the video.
    pub frames: u32,
    /// Frame width.
    pub frame_width: f32,
    /// Frame height.
    pub frame_height: f32,
    /// Frames per second.
    pub fps: f32,
    /// The index fingerprint, once something asked for it. Lazy because
    /// [`VideoIndex::build_with_postprocess`] rewrites `tracks` after
    /// [`VideoIndex::build`] returns; a clone carries it along.
    pub(crate) fingerprint: OnceLock<u64>,
    /// Candidate-segment embeddings the scans over this index have
    /// computed, per model (see [`embed_cache`](crate::embed_cache)).
    /// Derived like the fingerprint — empty in a freshly built index —
    /// and shared by clones.
    pub(crate) memo: Arc<SegmentMemo>,
}

impl VideoIndex {
    /// Builds an index by running the (simulated) detector and the
    /// ByteTrack tracker over a video — the realistic preprocessing path.
    pub fn build(
        video: &SyntheticVideo,
        detector: DetectorConfig,
        tracker: TrackerConfig,
        seed: u64,
    ) -> Self {
        let _span = telemetry::span(names::INDEX_BUILD);
        let mut rng = StdRng::seed_from_u64(seed);
        let sim = DetectorSim::new(detector);
        let det_frames = sim.detect_clip(&video.truth, video.frames, &mut rng);
        let tracks = track_detections(&det_frames, tracker, MIN_TRACK_LEN);
        telemetry::counter(names::FRAMES_PREPROCESSED).add(video.frames as u64);
        telemetry::counter(names::TRACKS_BUILT).add(tracks.len() as u64);
        VideoIndex {
            name: video.name.clone(),
            tracks,
            frames: video.frames,
            frame_width: video.truth.frame_width,
            frame_height: video.truth.frame_height,
            fps: video.fps,
            fingerprint: OnceLock::new(),
            memo: Arc::default(),
        }
    }

    /// Like [`VideoIndex::build`], additionally applying the tracker
    /// post-processing passes (fragment stitching + gap interpolation) —
    /// recovers single trajectories across long occlusions at a small risk
    /// of over-merging.
    pub fn build_with_postprocess(
        video: &SyntheticVideo,
        detector: DetectorConfig,
        tracker: TrackerConfig,
        stitch: sketchql_tracker::StitchConfig,
        seed: u64,
    ) -> Self {
        let mut idx = VideoIndex::build(video, detector, tracker, seed);
        idx.tracks = sketchql_tracker::stitch_fragments(&idx.tracks, &stitch);
        idx.tracks = sketchql_tracker::interpolate_tracks(&idx.tracks);
        idx
    }

    /// Builds an index directly from ground-truth trajectories (perfect
    /// tracking) — the oracle-preprocessing ablation.
    pub fn from_truth(video: &SyntheticVideo) -> Self {
        VideoIndex {
            name: video.name.clone(),
            tracks: video
                .truth
                .objects
                .iter()
                .filter(|t| t.len() >= MIN_TRACK_LEN)
                .cloned()
                .collect(),
            frames: video.frames,
            frame_width: video.truth.frame_width,
            frame_height: video.truth.frame_height,
            fps: video.fps,
            fingerprint: OnceLock::new(),
            memo: Arc::default(),
        }
    }

    /// Wraps an arbitrary tracked clip (e.g. for unit tests).
    pub fn from_clip(name: &str, clip: &Clip, frames: u32, fps: f32) -> Self {
        VideoIndex {
            name: name.to_string(),
            tracks: clip.objects.clone(),
            frames,
            frame_width: clip.frame_width,
            frame_height: clip.frame_height,
            fps,
            fingerprint: OnceLock::new(),
            memo: Arc::default(),
        }
    }

    /// What this index's embedding memo holds right now: segments,
    /// payload bytes, and how often it was emptied at its budget.
    pub fn embed_memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// This index with its (empty) memo bounded by `budget` bytes, so a
    /// test can force a reset with a handful of segments.
    #[cfg(test)]
    pub(crate) fn with_memo_budget(mut self, budget: usize) -> Self {
        self.memo = Arc::new(SegmentMemo::with_budget(budget));
        self
    }

    /// Tracks whose class is accepted by `query_class` (`Any` accepts all)
    /// and that overlap the frame window `[start, end]` for at least
    /// `min_overlap` frames.
    pub fn tracks_in_window(
        &self,
        query_class: ObjectClass,
        start: u32,
        end: u32,
        min_overlap: u32,
    ) -> Vec<&Trajectory> {
        self.tracks
            .iter()
            .filter(|t| query_class.matches(&t.class))
            .filter(|t| overlap_frames(t, start, end) >= min_overlap.max(1))
            .collect()
    }
}

/// How many frames of the window `[start, end]` fall inside `t`'s frame
/// range (0 when they are disjoint or the track is empty) — the one
/// overlap rule: [`VideoIndex::tracks_in_window`] admits a track on it,
/// and the store planner re-applies it to stored rows.
pub(crate) fn overlap_frames(t: &Trajectory, start: u32, end: u32) -> u32 {
    let (Some(s), Some(e)) = (t.start_frame(), t.end_frame()) else {
        return 0;
    };
    let (lo, hi) = (s.max(start), e.min(end));
    if hi >= lo {
        hi - lo + 1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchql_datasets::{generate_video, SceneFamily, VideoConfig};
    use sketchql_tracker::evaluate_tracking;
    use sketchql_trajectory::{BBox, TrajPoint};

    fn small_video() -> SyntheticVideo {
        let cfg = VideoConfig {
            family: SceneFamily::UrbanIntersection,
            events_per_kind: 1,
            distractors: 2,
            fps: 30.0,
        };
        generate_video(cfg, 42, &mut StdRng::seed_from_u64(42))
    }

    #[test]
    fn from_truth_preserves_long_tracks() {
        let v = small_video();
        let idx = VideoIndex::from_truth(&v);
        let long_truth = v
            .truth
            .objects
            .iter()
            .filter(|t| t.len() >= MIN_TRACK_LEN)
            .count();
        assert_eq!(idx.tracks.len(), long_truth);
        assert_eq!(idx.frames, v.frames);
    }

    #[test]
    fn build_produces_usable_tracks() {
        let v = small_video();
        let idx = VideoIndex::build(&v, DetectorConfig::default(), TrackerConfig::default(), 7);
        assert!(!idx.tracks.is_empty());
        let report = evaluate_tracking(&v.truth, &idx.tracks);
        assert!(
            report.coverage > 0.5,
            "tracker coverage too low: {:?}",
            report
        );
        assert!(
            report.precision > 0.6,
            "tracker precision too low: {:?}",
            report
        );
    }

    #[test]
    fn build_with_perfect_detector_nearly_matches_truth() {
        let v = small_video();
        let idx = VideoIndex::build(&v, DetectorConfig::perfect(), TrackerConfig::default(), 7);
        let report = evaluate_tracking(&v.truth, &idx.tracks);
        assert!(report.coverage > 0.8, "coverage {:?}", report);
    }

    #[test]
    fn postprocess_never_increases_track_count() {
        let v = small_video();
        let plain = VideoIndex::build(
            &v,
            DetectorConfig::at_noise_level(2.0),
            TrackerConfig::default(),
            7,
        );
        let post = VideoIndex::build_with_postprocess(
            &v,
            DetectorConfig::at_noise_level(2.0),
            TrackerConfig::default(),
            sketchql_tracker::StitchConfig::default(),
            7,
        );
        assert!(post.tracks.len() <= plain.tracks.len());
        // Post-processed tracks are gap-free.
        for t in &post.tracks {
            assert!(t.max_gap() <= 1, "track {} has gap {}", t.id, t.max_gap());
        }
        // Still decent tracking quality.
        let r = evaluate_tracking(&v.truth, &post.tracks);
        assert!(r.coverage > 0.4, "{r:?}");
    }

    #[test]
    fn tracks_in_window_filters_class_and_overlap() {
        let car = Trajectory::from_points(
            1,
            ObjectClass::Car,
            (0..50)
                .map(|f| TrajPoint::new(f, BBox::new(f as f32, 0.0, 10.0, 10.0)))
                .collect(),
        );
        let person = Trajectory::from_points(
            2,
            ObjectClass::Person,
            (100..150)
                .map(|f| TrajPoint::new(f, BBox::new(f as f32, 0.0, 5.0, 10.0)))
                .collect(),
        );
        let clip = Clip::new(640.0, 480.0, vec![car, person]);
        let idx = VideoIndex::from_clip("t", &clip, 150, 30.0);

        let cars = idx.tracks_in_window(ObjectClass::Car, 0, 40, 20);
        assert_eq!(cars.len(), 1);
        let people_early = idx.tracks_in_window(ObjectClass::Person, 0, 40, 10);
        assert!(people_early.is_empty());
        let any_late = idx.tracks_in_window(ObjectClass::Any, 110, 140, 10);
        assert_eq!(any_late.len(), 1);
        let any_all = idx.tracks_in_window(ObjectClass::Any, 0, 149, 10);
        assert_eq!(any_all.len(), 2);
        // Overlap threshold enforced.
        let strict = idx.tracks_in_window(ObjectClass::Car, 45, 60, 10);
        assert!(strict.is_empty());
    }
}
