//! The `Matcher::search_batch` front — one solo scan per query, in
//! order, under one token: a batch under a tripped token embeds nothing,
//! and a batch pays for the encoder once, whatever the number of queries,
//! because each member finds the windows the ones before it scanned in
//! the index's memo.
//!
//! These tests read process-global counters, so they live in their own
//! binary and take a lock: nothing else may embed while they measure.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::cancel::{CancelReason, CancelToken};
use sketchql::matcher::{MatchError, Matcher, MatcherConfig};
use sketchql::similarity::LearnedSimilarity;
use sketchql::training::{train, TrainingConfig};
use sketchql::VideoIndex;
use sketchql_datasets::{generate_video, query_clip, EventKind, SceneFamily, VideoConfig};
use sketchql_telemetry::{self as telemetry, names};
use sketchql_trajectory::{BBox, Clip, ObjectClass, TrajPoint, Trajectory};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn matcher() -> Matcher<LearnedSimilarity> {
    let mut cfg = TrainingConfig::tiny();
    cfg.steps = 8;
    Matcher::with_config(train(cfg).similarity(), MatcherConfig::default())
}

fn test_index(seed: u64) -> VideoIndex {
    let cfg = VideoConfig {
        family: SceneFamily::UrbanIntersection,
        events_per_kind: 1,
        distractors: 2,
        fps: 30.0,
    };
    VideoIndex::from_truth(&generate_video(cfg, seed, &mut StdRng::seed_from_u64(seed)))
}

#[test]
fn a_batch_nobody_waits_for_embeds_nothing() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let m = matcher();
    let index = test_index(42);
    let q = query_clip(EventKind::LeftTurn);
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let expired = CancelToken::with_deadline_at(Instant::now() - Duration::from_millis(1));
    let before = telemetry::counter(names::EMBEDDINGS_COMPUTED).get();
    for (token, reason) in [
        (&cancelled, CancelReason::Cancelled),
        (&expired, CancelReason::DeadlineExceeded),
    ] {
        assert_eq!(
            m.search_batch(&index, &[&q, &q], token),
            vec![Err(MatchError::Cancelled(reason)); 2]
        );
    }
    assert_eq!(
        telemetry::counter(names::EMBEDDINGS_COMPUTED).get(),
        before,
        "neither a query nor a candidate may be embedded for a dead batch"
    );
}

/// A batch pays for the encoder once: candidate embeddings depend on the
/// index and the window grid, not on the sketch, so four equal-span
/// sketches in one batch embed what one of them embeds alone plus their
/// own three queries — with every reply byte-identical to solo.
#[test]
fn equal_span_members_share_one_encoder_pass() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let m = matcher();
    let index = test_index(44);
    let straight = {
        let pts = (0..90)
            .map(|f| TrajPoint::new(f, BBox::new(100.0 + f as f32 * 6.0, 300.0, 80.0, 45.0)))
            .collect();
        let car = Trajectory::from_points(0, ObjectClass::Car, pts);
        Clip::new(1000.0, 600.0, vec![car])
    };
    let queries = [
        query_clip(EventKind::LeftTurn),
        query_clip(EventKind::RightTurn),
        query_clip(EventKind::StopAndGo),
        straight,
    ];
    for q in &queries {
        assert_eq!(
            (q.span(), q.classes()),
            (queries[0].span(), queries[0].classes()),
            "test premise: one window grid, one candidate set"
        );
    }

    let embedded = || telemetry::counter(names::EMBEDDINGS_COMPUTED).get();
    let before = embedded();
    let first = m.search(&index, &queries[0]).unwrap();
    let solo_embeds = embedded() - before;
    assert!(!first.is_empty() && solo_embeds > 1);
    let mut solo = vec![first];
    solo.extend(queries[1..].iter().map(|q| m.search(&index, q).unwrap()));

    let members: Vec<&Clip> = queries.iter().collect();
    let before = embedded();
    let batch = m.search_batch(&index, &members, &CancelToken::none());
    let batch_embeds = embedded() - before;
    assert!(
        batch_embeds <= solo_embeds + 3,
        "four batch members embedded {batch_embeds} clips; one alone embeds {solo_embeds}"
    );
    for (got, want) in batch.into_iter().zip(solo) {
        assert_eq!(got.unwrap(), want, "batch reply diverged from solo");
    }
}
