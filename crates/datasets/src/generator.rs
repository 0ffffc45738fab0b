//! Synthetic surveillance-video generation.
//!
//! Stands in for the real-world traffic surveillance dataset (VIRAT,
//! reference \[7\]) the demonstration runs on. A generated "video" is a long
//! ground-truth bounding box stream recorded by one fixed (possibly shaky)
//! camera over a world containing scheduled ground-truth events and
//! distractor traffic, plus the frame-accurate event annotations needed to
//! score retrieval.

use rand::Rng;
use serde::{Deserialize, Serialize};
use sketchql_simulator::{Camera, CameraRig, Scene3D, ShakeConfig};
use sketchql_trajectory::{Clip, Point2, Point3, TrackId};

use crate::events::{distractor_script, EventKind};

/// A family of scenes with a characteristic camera geometry and event mix;
/// the zero-shot experiment (T2) evaluates across families the encoder
/// never saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SceneFamily {
    /// Elevated intersection camera, car-heavy traffic, long sightlines.
    UrbanIntersection,
    /// Close, low parking-lot camera; slow cars and pedestrians.
    ParkingLot,
    /// Pedestrian plaza: mostly people, few vehicles, near-overhead view.
    Plaza,
}

impl SceneFamily {
    /// All families, in a stable order.
    pub const ALL: &'static [SceneFamily] = &[
        SceneFamily::UrbanIntersection,
        SceneFamily::ParkingLot,
        SceneFamily::Plaza,
    ];

    /// Machine-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            SceneFamily::UrbanIntersection => "urban_intersection",
            SceneFamily::ParkingLot => "parking_lot",
            SceneFamily::Plaza => "plaza",
        }
    }

    /// Camera distance bounds from the scene center (meters).
    fn camera_distance(&self) -> (f32, f32) {
        match self {
            SceneFamily::UrbanIntersection => (45.0, 80.0),
            SceneFamily::ParkingLot => (22.0, 40.0),
            SceneFamily::Plaza => (30.0, 55.0),
        }
    }

    /// Camera shake magnitude for the family.
    fn shake(&self) -> ShakeConfig {
        match self {
            SceneFamily::UrbanIntersection => ShakeConfig {
                sigma: 0.0015,
                reversion: 0.15,
            },
            SceneFamily::ParkingLot => ShakeConfig {
                sigma: 0.001,
                reversion: 0.2,
            },
            SceneFamily::Plaza => ShakeConfig {
                sigma: 0.003,
                reversion: 0.1,
            },
        }
    }
}

/// Parameters of one synthetic video.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VideoConfig {
    /// Scene family.
    pub family: SceneFamily,
    /// Number of ground-truth events embedded per kind requested.
    pub events_per_kind: usize,
    /// Which event kinds to embed. `None` in [`VideoConfig::standard`] means
    /// all kinds.
    pub distractors: usize,
    /// Recording frame rate.
    pub fps: f32,
}

impl VideoConfig {
    /// A standard evaluation video: 2 occurrences of every event kind plus
    /// 10 distractors at 30 fps.
    pub fn standard(family: SceneFamily) -> Self {
        VideoConfig {
            family,
            events_per_kind: 2,
            distractors: 10,
            fps: 30.0,
        }
    }
}

/// Frame-accurate annotation of one embedded event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventAnnotation {
    /// What kind of event this is.
    pub kind: EventKind,
    /// First frame of the event's motion.
    pub start: u32,
    /// Last frame of the event's motion (inclusive).
    pub end: u32,
    /// Ground-truth track ids of the participants (indices into the truth
    /// clip's object list), in participant order.
    pub object_ids: Vec<TrackId>,
}

impl EventAnnotation {
    /// Temporal intersection-over-union with a predicted frame range.
    pub fn temporal_iou(&self, start: u32, end: u32) -> f32 {
        let inter_start = self.start.max(start);
        let inter_end = self.end.min(end);
        if inter_end < inter_start {
            return 0.0;
        }
        let inter = (inter_end - inter_start + 1) as f32;
        let union = (self.end - self.start + 1) as f32 + (end - start + 1) as f32 - inter;
        inter / union
    }
}

/// A generated video: ground-truth bbox stream plus annotations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticVideo {
    /// Human-readable name (family + seed).
    pub name: String,
    /// The family the video was drawn from.
    pub family: SceneFamily,
    /// Ground-truth per-object trajectories as seen by the fixed camera.
    pub truth: Clip,
    /// Embedded event annotations.
    pub events: Vec<EventAnnotation>,
    /// Frames per second.
    pub fps: f32,
    /// Total number of frames.
    pub frames: u32,
}

impl SyntheticVideo {
    /// Annotations of one event kind.
    pub fn events_of(&self, kind: EventKind) -> Vec<&EventAnnotation> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }
}

/// Generates one synthetic video.
///
/// Events are scheduled sequentially with random gaps so they rarely
/// overlap in time, placed at random world offsets, and recorded together
/// with wandering distractors through one fixed camera rig.
pub fn generate_video<R: Rng>(config: VideoConfig, seed_label: u64, rng: &mut R) -> SyntheticVideo {
    let mut scene = Scene3D::new(config.fps);
    let mut annotations = Vec::new();
    let mut cursor: u32 = rng.gen_range(10..40);

    // Schedule events round-robin over kinds so kinds interleave in time.
    for round in 0..config.events_per_kind {
        for &kind in EventKind::ALL {
            let center = Point2::new(rng.gen_range(-20.0..20.0), rng.gen_range(-20.0..20.0));
            let participants = kind.instantiate(center, rng);
            let mut ids = Vec::with_capacity(participants.len());
            let mut max_total = 0u32;
            for (agent, script) in participants {
                let entry = cursor + script.start_frame;
                let script = script.starting_at(entry);
                max_total = max_total.max(script.total_frames());
                ids.push(scene.objects.len() as TrackId);
                scene = scene.with_object(agent, script);
            }
            annotations.push(EventAnnotation {
                kind,
                start: cursor,
                end: max_total.saturating_sub(1),
                object_ids: ids,
            });
            cursor = max_total + rng.gen_range(15..60);
            let _ = round;
        }
    }

    // Distractors live through the whole video at random entrances.
    let duration_hint = cursor + 30;
    for _ in 0..config.distractors {
        let (agent, script) = distractor_script(Point2::ZERO, rng);
        let start = rng.gen_range(0..duration_hint.saturating_sub(60).max(1));
        scene = scene.with_object(agent, script.starting_at(start));
    }

    // One fixed camera per video, aimed at the action's centroid.
    let (dmin, dmax) = config.family.camera_distance();
    let camera = Camera::sample_around(scene_center_on_ground(&scene), dmin, dmax, rng);
    let mut rig = CameraRig::new(camera, config.family.shake());
    let truth = scene.record(&mut rig, rng);
    let frames = scene.duration_frames();

    SyntheticVideo {
        name: format!("{}_{}", config.family.name(), seed_label),
        family: config.family,
        truth,
        events: annotations,
        fps: config.fps,
        frames,
    }
}

fn scene_center_on_ground(scene: &Scene3D) -> Point3 {
    let c = scene.center();
    Point3::new(c.x, c.y, 0.0)
}

/// Parameters of one streamed continuation segment (see
/// [`extend_video`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExtendConfig {
    /// Ground-truth events embedded per kind in the new segment.
    pub events_per_kind: usize,
    /// Wandering distractors added to the new segment.
    pub distractors: usize,
}

/// Extends a video with a freshly scheduled continuation segment — the
/// streaming ground truth live ingest consumes.
///
/// The continuation is a **pure extension**: every frame the base video
/// already covered is untouched (base trajectories are carried over
/// verbatim, and every new object's first visible frame is at or after
/// `base.frames`), which is exactly the contract `append_frames`
/// requires. To guarantee it, the new segment is scheduled and recorded
/// on its own *local* timeline — recording a delayed script inside a
/// combined scene would make pre-entry objects visible (holding their
/// first pose) in old frames — then shifted onto the global timeline:
/// new track ids continue after the base's, frame stamps are offset by
/// `base.frames`, and annotations shift with them.
pub fn extend_video<R: Rng>(
    base: &SyntheticVideo,
    config: ExtendConfig,
    rng: &mut R,
) -> SyntheticVideo {
    let mut scene = Scene3D::new(base.fps);
    let mut annotations = Vec::new();
    let base_objects = base.truth.num_objects() as TrackId;
    let mut cursor: u32 = rng.gen_range(10..40);

    for round in 0..config.events_per_kind {
        for &kind in EventKind::ALL {
            let center = Point2::new(rng.gen_range(-20.0..20.0), rng.gen_range(-20.0..20.0));
            let participants = kind.instantiate(center, rng);
            let mut ids = Vec::with_capacity(participants.len());
            let mut max_total = 0u32;
            for (agent, script) in participants {
                let entry = cursor + script.start_frame;
                let script = script.starting_at(entry);
                max_total = max_total.max(script.total_frames());
                ids.push(base_objects + scene.objects.len() as TrackId);
                scene = scene.with_object(agent, script);
            }
            annotations.push(EventAnnotation {
                kind,
                start: base.frames + cursor,
                end: base.frames + max_total.saturating_sub(1),
                object_ids: ids,
            });
            cursor = max_total + rng.gen_range(15..60);
            let _ = round;
        }
    }

    let duration_hint = cursor + 30;
    for _ in 0..config.distractors {
        let (agent, script) = distractor_script(Point2::ZERO, rng);
        let start = rng.gen_range(0..duration_hint.saturating_sub(60).max(1));
        scene = scene.with_object(agent, script.starting_at(start));
    }

    // A fresh camera draw from the same family geometry (the base's
    // camera parameters are not persisted; only the frame geometry must
    // match, and it does — all family cameras share the image size).
    let (dmin, dmax) = base.family.camera_distance();
    let camera = Camera::sample_around(scene_center_on_ground(&scene), dmin, dmax, rng);
    let mut rig = CameraRig::new(camera, base.family.shake());
    let recorded = scene.record_offset(&mut rig, rng, base.frames);
    let new_frames = base.frames + scene.duration_frames();

    // Splice: base trajectories verbatim (same ids, same order — the
    // index prefix is bit-identical), continuation ids shifted after.
    let mut objects: Vec<_> = base.truth.objects.clone();
    for (i, t) in recorded.objects.iter().enumerate() {
        objects.push(sketchql_trajectory::Trajectory::from_points(
            base_objects + i as TrackId,
            t.class,
            t.points().to_vec(),
        ));
    }
    let mut events = base.events.clone();
    events.extend(annotations);
    SyntheticVideo {
        name: base.name.clone(),
        family: base.family,
        truth: Clip::new(base.truth.frame_width, base.truth.frame_height, objects),
        events,
        fps: base.fps,
        frames: new_frames,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_config() -> VideoConfig {
        VideoConfig {
            family: SceneFamily::UrbanIntersection,
            events_per_kind: 1,
            distractors: 4,
            fps: 30.0,
        }
    }

    #[test]
    fn video_contains_all_event_kinds() {
        let mut rng = StdRng::seed_from_u64(1);
        let v = generate_video(quick_config(), 1, &mut rng);
        for &k in EventKind::ALL {
            assert_eq!(v.events_of(k).len(), 1, "{k}");
        }
        assert_eq!(v.events.len(), EventKind::ALL.len());
    }

    #[test]
    fn annotations_are_within_video_and_ordered() {
        let mut rng = StdRng::seed_from_u64(2);
        let v = generate_video(quick_config(), 2, &mut rng);
        for e in &v.events {
            assert!(e.start < e.end);
            assert!(e.end <= v.frames);
        }
        // Round-robin scheduling: starts are increasing.
        let starts: Vec<u32> = v.events.iter().map(|e| e.start).collect();
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "{starts:?}");
    }

    #[test]
    fn annotated_objects_exist_and_match_classes() {
        let mut rng = StdRng::seed_from_u64(3);
        let v = generate_video(quick_config(), 3, &mut rng);
        for e in &v.events {
            let classes = e.kind.participant_classes();
            assert_eq!(e.object_ids.len(), classes.len());
            for (&id, class) in e.object_ids.iter().zip(classes) {
                let t = &v.truth.objects[id as usize];
                assert_eq!(t.class, class, "{:?}", e.kind);
            }
        }
    }

    #[test]
    fn annotated_objects_move_during_their_event() {
        let mut rng = StdRng::seed_from_u64(4);
        let v = generate_video(quick_config(), 4, &mut rng);
        let mut moved = 0;
        let mut total = 0;
        for e in &v.events {
            for &id in &e.object_ids {
                total += 1;
                let t = v.truth.objects[id as usize].slice(e.start, e.end);
                if t.len() > 5 && t.displacement() > 5.0 {
                    moved += 1;
                }
            }
        }
        // Most participants should be visible and moving on screen (a few
        // may leave the frame for part of their event).
        assert!(
            moved * 10 >= total * 7,
            "only {moved}/{total} event objects moved on screen"
        );
    }

    #[test]
    fn distractors_present() {
        let mut rng = StdRng::seed_from_u64(5);
        let v = generate_video(quick_config(), 5, &mut rng);
        let n_event_objs: usize = v.events.iter().map(|e| e.object_ids.len()).sum();
        assert_eq!(v.truth.num_objects(), n_event_objs + 4);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_video(quick_config(), 7, &mut StdRng::seed_from_u64(7));
        let b = generate_video(quick_config(), 7, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn families_differ_in_camera_geometry() {
        let (a, b) = (
            SceneFamily::UrbanIntersection.camera_distance(),
            SceneFamily::ParkingLot.camera_distance(),
        );
        assert!(a.0 > b.1 * 0.5, "families should be distinguishable");
        assert_ne!(a, b);
    }

    #[test]
    fn extension_is_pure_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(21);
        let base = generate_video(quick_config(), 21, &mut rng);
        let cfg = ExtendConfig {
            events_per_kind: 1,
            distractors: 2,
        };
        let a = extend_video(&base, cfg, &mut StdRng::seed_from_u64(22));
        let b = extend_video(&base, cfg, &mut StdRng::seed_from_u64(22));
        assert_eq!(a.truth, b.truth, "extension must be deterministic");
        assert_eq!(a.events, b.events);

        // Pure extension: the base prefix is carried over bit-for-bit…
        assert!(a.frames > base.frames);
        assert_eq!(a.name, base.name);
        assert_eq!(
            &a.truth.objects[..base.truth.num_objects()],
            &base.truth.objects[..]
        );
        assert_eq!(&a.events[..base.events.len()], &base.events[..]);
        // …and nothing new touches an old frame.
        for t in &a.truth.objects[base.truth.num_objects()..] {
            assert!(
                t.start_frame().is_none_or(|s| s >= base.frames),
                "continuation object visible at frame {:?} before the splice",
                t.start_frame()
            );
        }
        for e in &a.events[base.events.len()..] {
            assert!(e.start >= base.frames && e.end <= a.frames);
            for &id in &e.object_ids {
                assert!((id as usize) < a.truth.num_objects());
            }
        }
    }

    #[test]
    fn repeated_extension_keeps_extending() {
        let mut rng = StdRng::seed_from_u64(23);
        let base = generate_video(quick_config(), 23, &mut rng);
        let cfg = ExtendConfig {
            events_per_kind: 1,
            distractors: 1,
        };
        let once = extend_video(&base, cfg, &mut StdRng::seed_from_u64(24));
        let twice = extend_video(&once, cfg, &mut StdRng::seed_from_u64(25));
        assert!(twice.frames > once.frames);
        assert_eq!(
            &twice.truth.objects[..once.truth.num_objects()],
            &once.truth.objects[..]
        );
        for &kind in EventKind::ALL {
            assert_eq!(twice.events_of(kind).len(), 3, "{kind}");
        }
    }

    #[test]
    fn temporal_iou_cases() {
        let e = EventAnnotation {
            kind: EventKind::LeftTurn,
            start: 100,
            end: 199,
            object_ids: vec![0],
        };
        assert!((e.temporal_iou(100, 199) - 1.0).abs() < 1e-6);
        assert_eq!(e.temporal_iou(300, 400), 0.0);
        // Half overlap: [150, 249] ∩ [100,199] = 50 frames; union 150.
        let i = e.temporal_iou(150, 249);
        assert!((i - 50.0 / 150.0).abs() < 1e-5);
    }
}
