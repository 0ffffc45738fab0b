//! Per-member cancellation in the one scan: each member of a batch runs
//! under its own token, so one member's tripped token is reported in
//! its own slot while its peers come back byte-identical to solo
//! searches; the shared encoder pass runs only while somebody is still
//! waiting for it; the store planner sends all of its unserved
//! members through one fused scan; and a fused scan pays for the
//! encoder once, whatever the number of members.
//!
//! These tests read process-global counters, so they live in their own
//! binary and take a lock: nothing else may embed while they measure.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::cancel::{CancelReason, CancelToken};
use sketchql::matcher::{MatchError, Matcher, MatcherConfig};
use sketchql::similarity::LearnedSimilarity;
use sketchql::training::{train, TrainingConfig};
use sketchql::vshard::ingest_sharded;
use sketchql::vstore::IngestConfig;
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
fn a_cancelled_member_does_not_disturb_a_live_one() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let m = matcher();
    let index = test_index(41);
    let (qa, qb) = (
        query_clip(EventKind::LeftTurn),
        query_clip(EventKind::UTurn),
    );
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let live = CancelToken::new();
    let mut results = m.search_stored(&index, None, &[(&qa, &cancelled), (&qb, &live)], None);
    let b = results.pop().unwrap().unwrap();
    let a = results.pop().unwrap();
    assert_eq!(a, Err(MatchError::Cancelled(CancelReason::Cancelled)));
    assert!(!b.from_store);
    assert!(!b.moments.is_empty());
    assert_eq!(b.moments, m.search(&index, &qb).unwrap());
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
    let results = m.search_stored(&index, None, &[(&q, &cancelled), (&q, &expired)], None);
    assert_eq!(
        results,
        vec![
            Err(MatchError::Cancelled(CancelReason::Cancelled)),
            Err(MatchError::Cancelled(CancelReason::DeadlineExceeded)),
        ]
    );
    assert_eq!(
        telemetry::counter(names::EMBEDDINGS_COMPUTED).get(),
        before,
        "neither a query nor a candidate may be embedded for a dead batch"
    );
}

#[test]
fn unserved_members_of_a_stored_dataset_share_one_scan() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let m = matcher();
    let index = test_index(43);
    // Stores hold single-track rows, so none of these can be served.
    let queries = [
        query_clip(EventKind::PerpendicularCrossing),
        query_clip(EventKind::Overtake),
        query_clip(EventKind::PerpendicularCrossing),
    ];
    let dir = std::env::temp_dir().join(format!("skql-scan-members-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let spans: Vec<u32> = queries.iter().map(|q| q.span()).collect();
    let cfg = IngestConfig::from_matcher(&m.config, &spans);
    let set = ingest_sharded(&m.sim, &index, "v", &cfg, 40, &dir, &|_| {}).unwrap();
    let solo: Vec<_> = queries
        .iter()
        .map(|q| m.search(&index, q).unwrap())
        .collect();

    // A degenerate member is settled before the store is consulted:
    // not served, and not a fallback either.
    let empty = Clip::new(640.0, 480.0, vec![]);
    let none = CancelToken::none();
    let mut members: Vec<_> = queries.iter().map(|q| (q, &none)).collect();
    members.push((&empty, &none));
    let fallbacks = telemetry::counter(names::STORE_FALLBACKS).get();
    let hits = telemetry::counter(names::EMBED_CACHE_HITS).get();
    let mut results = m.search_stored(&index, Some(&set), &members, None);
    let settled = results.pop().unwrap().unwrap();
    assert!(settled.moments.is_empty() && !settled.from_store && !settled.fallback);
    for (got, want) in results.into_iter().zip(solo) {
        let got = got.unwrap();
        assert!(!got.from_store && got.fallback);
        assert!(!want.is_empty());
        assert_eq!(got.moments, want, "fused fallback diverged from solo");
    }
    assert_eq!(
        telemetry::counter(names::STORE_FALLBACKS).get() - fallbacks,
        3
    );
    assert!(
        telemetry::counter(names::EMBED_CACHE_HITS).get() > hits,
        "the repeated member must find its segments already interned"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Fusion pays for the encoder once: candidate embeddings depend on the
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
    let fused = m.search_batch(&index, &members, &CancelToken::none());
    let fused_embeds = embedded() - before;
    assert!(
        fused_embeds <= solo_embeds + 3,
        "four fused members embedded {fused_embeds} clips; one alone embeds {solo_embeds}"
    );
    for (got, want) in fused.into_iter().zip(solo) {
        assert_eq!(got.unwrap(), want, "fused reply diverged from solo");
    }
}
