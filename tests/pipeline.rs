//! Cross-crate integration: simulator → detector → tracker → index →
//! matcher, without the learned model (classical similarity), verifying the
//! full preprocessing and search machinery end to end.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::{ClassicalSimilarity, Matcher, VideoIndex};
use sketchql_datasets::{generate_video, query_clip, EventKind, SceneFamily, VideoConfig};
use sketchql_tracker::{evaluate_tracking, DetectorConfig, TrackerConfig};
use sketchql_trajectory::DistanceKind;

fn video(seed: u64) -> sketchql_datasets::SyntheticVideo {
    let cfg = VideoConfig {
        family: SceneFamily::UrbanIntersection,
        events_per_kind: 1,
        distractors: 3,
        fps: 30.0,
    };
    generate_video(cfg, seed, &mut StdRng::seed_from_u64(seed))
}

#[test]
fn tracker_reconstructs_synthetic_video() {
    let v = video(11);
    let idx = VideoIndex::build(&v, DetectorConfig::default(), TrackerConfig::default(), 1);
    let report = evaluate_tracking(&v.truth, &idx.tracks);
    assert!(report.coverage > 0.5, "coverage {report:?}");
    assert!(report.precision > 0.6, "precision {report:?}");
    // Fragmentation should be modest: fewer than 3 extra tracks per object.
    assert!(
        report.fragmentation < v.truth.num_objects() * 3,
        "{report:?}"
    );
}

#[test]
fn classical_matcher_retrieves_left_turns_from_tracked_video() {
    let v = video(12);
    // Oracle tracks isolate the matcher from tracking noise in this test.
    let idx = VideoIndex::from_truth(&v);
    let matcher = Matcher::new(ClassicalSimilarity::new(DistanceKind::Dtw));
    let query = query_clip(EventKind::LeftTurn);
    let results = matcher.search(&idx, &query).unwrap();
    assert!(!results.is_empty());
    let r = sketchql_suite::evaluate(&results, &v.events_of(EventKind::LeftTurn));
    assert!(
        r.recall > 0.0,
        "at least one left turn should be recovered: {r:?}"
    );
}

#[test]
fn retrieval_survives_realistic_tracking_noise() {
    let v = video(13);
    let idx = VideoIndex::build(&v, DetectorConfig::default(), TrackerConfig::default(), 3);
    let matcher = Matcher::new(ClassicalSimilarity::new(DistanceKind::Dtw));
    let query = query_clip(EventKind::LeftTurn);
    let results = matcher.search(&idx, &query).unwrap();
    assert!(
        !results.is_empty(),
        "search over tracked (noisy) index must return moments"
    );
    for m in &results {
        assert!(m.end <= v.frames);
        assert!((0.0..=1.0).contains(&m.score));
    }
}

#[test]
fn multi_object_query_requires_both_classes() {
    let v = video(14);
    let idx = VideoIndex::from_truth(&v);
    let matcher = Matcher::new(ClassicalSimilarity::new(DistanceKind::Euclidean));
    let query = query_clip(EventKind::PerpendicularCrossing);
    let results = matcher.search(&idx, &query).unwrap();
    for m in &results {
        assert_eq!(m.track_ids.len(), 2);
        let classes: Vec<_> = m
            .track_ids
            .iter()
            .map(|id| idx.tracks.iter().find(|t| t.id == *id).unwrap().class)
            .collect();
        assert_eq!(
            classes,
            vec![
                sketchql_trajectory::ObjectClass::Car,
                sketchql_trajectory::ObjectClass::Person
            ]
        );
    }
}

#[test]
fn all_canonical_queries_execute_on_all_families() {
    for family in SceneFamily::ALL {
        let cfg = VideoConfig {
            family: *family,
            events_per_kind: 1,
            distractors: 2,
            fps: 30.0,
        };
        let v = generate_video(cfg, 21, &mut StdRng::seed_from_u64(21));
        let idx = VideoIndex::from_truth(&v);
        let matcher = Matcher::new(ClassicalSimilarity::new(DistanceKind::Dtw));
        for &kind in EventKind::ALL {
            let query = query_clip(kind);
            // Must not panic and must return valid moments.
            let results = matcher.search(&idx, &query).unwrap();
            for m in &results {
                assert!(m.start <= m.end);
            }
        }
    }
}
