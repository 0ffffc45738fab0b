//! Seeded input generation. Everything the program under test receives
//! is made here from `--seed`; the program never sees the seed or the
//! workload name, only the tracks, sketches and request schedules.
//!
//! What the seed varies: the detector's noise (so the tracked
//! trajectories differ), the order of the mix and the arrival jitter.
//! What it does not vary: the ground-truth scene behind each video and
//! what is in the mix — which sketches, which of them stretched, on which
//! dataset. Scene content moves a scan's cost by ±25% from one scene to
//! the next and a sketch's stretch by as much again, which would bury
//! every regression bound; the run-to-run spread the bounds are set from
//! must come from the machine, not from the dice.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sketchql::training::{train, TrainedModel, TrainingConfig};
use sketchql::VideoIndex;
use sketchql_datasets::{
    canonical_sketch, extend_video, generate_video, query_clip, sample_path, EventKind,
    ExtendConfig, SceneFamily, SyntheticVideo, VideoConfig, CANVAS_H, CANVAS_W,
};
use sketchql_tracker::{DetectorConfig, TrackerConfig};
use sketchql_trajectory::{BBox, Clip, TrajPoint, Trajectory};

/// Scene seeds of the two `scan` datasets (one event per kind each).
pub const SCAN_SCENES: [(&str, u64); 2] = [("alpha", 42), ("beta", 43)];
/// Scene seed of the stored video (`sharded`, `ingest`, `live`).
pub const STORE_SCENE: u64 = 47;
/// Dataset name of the stored video.
pub const STORE_DATASET: &str = "city";
/// The single-object events a store serves; their spans fix its grid.
pub const STORE_KINDS: [EventKind; 4] = [
    EventKind::LeftTurn,
    EventKind::StopAndGo,
    EventKind::LaneChange,
    EventKind::UTurn,
];
/// Trajectory-panel stretch factors applied to half of the sketches.
pub const STRETCH: [f32; 2] = [0.8, 1.25];

/// The quickly-trained model of the repository's benches
/// (`sketchql_bench::bench_model`), repeated here so that the benchmark
/// does not change when `crates/bench` does.
pub fn model() -> TrainedModel {
    let mut cfg = TrainingConfig::small();
    cfg.steps = 5;
    train(cfg)
}

/// The fixture video of the repository's benches
/// (`sketchql_bench::bench_video`).
pub fn scene(events_per_kind: usize, seed: u64) -> SyntheticVideo {
    let cfg = VideoConfig {
        family: SceneFamily::UrbanIntersection,
        events_per_kind,
        distractors: 8,
        fps: 30.0,
    };
    generate_video(cfg, seed, &mut StdRng::seed_from_u64(seed))
}

/// One streamed continuation of `base` (all eight events once more).
pub fn continuation(base: &SyntheticVideo, seed: u64) -> SyntheticVideo {
    let cfg = ExtendConfig {
        events_per_kind: 1,
        distractors: 4,
    };
    extend_video(base, cfg, &mut StdRng::seed_from_u64(seed))
}

/// Detector + ByteTrack over `video`: the realistic preprocessing path.
pub fn track(video: &SyntheticVideo, detector_seed: u64) -> VideoIndex {
    VideoIndex::build(
        video,
        DetectorConfig::default(),
        TrackerConfig::default(),
        detector_seed,
    )
}

/// The sketch a user draws for `kind`, with every stroke's duration
/// scaled by `stretch` in the trajectory panel. `None` is the canonical
/// sketch, compiled by the repository's own [`query_clip`].
pub fn sketch(kind: EventKind, stretch: Option<f32>) -> Clip {
    let Some(factor) = stretch else {
        return query_clip(kind);
    };
    // `query_clip`'s compilation, over stretched tick spans.
    let drawn = canonical_sketch(kind);
    let scale = |ticks: u32| (ticks as f32 * factor).round() as u32;
    let objects = drawn
        .objects
        .iter()
        .enumerate()
        .map(|(i, obj)| {
            let mut points = Vec::new();
            for stroke in &obj.strokes {
                let n = scale(stroke.ticks).max(1);
                for t in 0..n {
                    let frac = t as f32 / n.max(2).saturating_sub(1) as f32;
                    let pos = sample_path(&stroke.path, frac);
                    points.push(TrajPoint::new(
                        scale(stroke.start_tick) + t,
                        BBox::new(pos.x, pos.y, obj.size.0, obj.size.1),
                    ));
                }
            }
            Trajectory::from_points(i as u64, obj.class, points)
        })
        .collect();
    Clip::new(CANVAS_W, CANVAS_H, objects)
}

/// The seeded random stream: one per run, split by purpose so that
/// adding a draw in one place does not shift every other input.
pub struct Seeds(u64);

impl Seeds {
    pub fn new(seed: u64) -> Self {
        Seeds(seed)
    }

    /// An independent generator for `purpose`.
    pub fn stream(&self, purpose: &str) -> StdRng {
        let mut h = Fnv::new();
        h.u64(self.0);
        h.bytes(purpose.as_bytes());
        StdRng::seed_from_u64(h.finish())
    }

    /// The detector-noise seed of `dataset`'s video.
    pub fn detector(&self, dataset: &str) -> u64 {
        self.stream(&format!("detector.{dataset}"))
            .gen_range(0..u64::MAX)
    }
}

/// Fisher–Yates.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// One request of a round: which dataset, which sketch, and when it is
/// due (seconds from the round's start; `0.0` in a closed loop).
#[derive(Debug, Clone)]
pub struct Job {
    pub dataset: usize,
    pub sketch: usize,
    pub due_s: f64,
}

/// Evenly spaced arrivals at `rate` per second, each moved by up to a
/// quarter of the gap either way. Evenly spaced rather than Poisson:
/// with a few dozen requests in a run, Poisson bunching would decide the
/// median, not the system.
pub fn arrivals(n: usize, rate: f64, rng: &mut StdRng) -> Vec<f64> {
    let gap = 1.0 / rate;
    (0..n)
        .map(|i| (i as f64 + 0.5 + rng.gen_range(-0.25..0.25)) * gap)
        .collect()
}

/// FNV-1a over the generated inputs; printed by every run so that two
/// runs can be shown to have measured the same thing.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn trajectory(&mut self, t: &Trajectory) {
        self.u64(t.id);
        self.u64(t.len() as u64);
        for p in t.points() {
            self.u64(p.frame as u64);
            for v in [p.bbox.cx, p.bbox.cy, p.bbox.w, p.bbox.h] {
                self.u64(v.to_bits() as u64);
            }
        }
    }

    pub fn clip(&mut self, clip: &Clip) {
        self.u64(clip.num_objects() as u64);
        clip.objects.iter().for_each(|t| self.trajectory(t));
    }

    pub fn index(&mut self, index: &VideoIndex) {
        self.u64(index.frames as u64);
        index.tracks.iter().for_each(|t| self.trajectory(t));
    }

    pub fn jobs(&mut self, jobs: &[Job]) {
        for j in jobs {
            self.u64(j.dataset as u64);
            self.u64(j.sketch as u64);
            self.f64(j.due_s);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unstretched_compilation_is_the_repositorys() {
        for &kind in EventKind::ALL {
            assert_eq!(sketch(kind, Some(1.0)), query_clip(kind), "{kind:?}");
        }
    }

    #[test]
    fn stretching_changes_the_span() {
        let canonical = sketch(EventKind::LeftTurn, None).span();
        assert!(sketch(EventKind::LeftTurn, Some(0.8)).span() < canonical);
        assert!(sketch(EventKind::LeftTurn, Some(1.25)).span() > canonical);
    }

    #[test]
    fn streams_are_independent_and_repeatable() {
        let s = Seeds::new(9);
        assert_eq!(s.detector("a"), Seeds::new(9).detector("a"));
        assert_ne!(s.detector("a"), s.detector("b"));
        assert_ne!(s.detector("a"), Seeds::new(10).detector("a"));
    }
}
