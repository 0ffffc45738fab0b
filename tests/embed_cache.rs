//! The embedding scan — candidates resolved against the index's segment
//! memo, the rest embedded in batches and published — is an
//! optimization, not a behavior change: for any thread count, any batch
//! composition and whatever the memo holds (nothing, everything, another
//! model's rows, the leftovers of a cancelled pass) it must return
//! byte-identical results to the direct (per-candidate, sequential)
//! scan. Possible because every encoder op is row/block-local, so batched
//! forwards reproduce `embed()` exactly in f32 — see DESIGN.md §7.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::telemetry::{names, QueryTrace, TraceContext};
use sketchql::training::{train, TrainingConfig};
use sketchql::{
    CancelReason, CancelToken, LearnedSimilarity, MatchError, Matcher, MatcherConfig,
    PreparedQuery, Similarity, SimilarityError, VideoIndex,
};
use sketchql_datasets::{generate_video, query_clip, EventKind, SceneFamily, VideoConfig};
use sketchql_trajectory::{BBox, Clip, ObjectClass, TrajPoint, Trajectory};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The learned similarity with `embedding_identity()` left at its `None`
/// default, so the Matcher scores every candidate through `score` on
/// its direct scan and never consults the index's memo: the reference
/// the embedding scan is compared against, cold or warm.
struct PerCandidate(LearnedSimilarity);

impl Similarity for PerCandidate {
    fn name(&self) -> String {
        self.0.name()
    }

    fn prepare(&self, query: &Clip) -> Result<PreparedQuery, SimilarityError> {
        self.0.prepare(query)
    }

    fn score(&self, prepared: &PreparedQuery, candidate: &Clip) -> f32 {
        self.0.score(prepared, candidate)
    }
}

fn tiny_model() -> sketchql::TrainedModel {
    let mut cfg = TrainingConfig::tiny();
    cfg.steps = 2;
    train(cfg)
}

/// A freshly built index (nothing remembered) of the same small video.
fn fresh_index() -> VideoIndex {
    let cfg = VideoConfig {
        family: SceneFamily::UrbanIntersection,
        events_per_kind: 1,
        distractors: 3,
        fps: 30.0,
    };
    VideoIndex::from_truth(&generate_video(cfg, 31, &mut StdRng::seed_from_u64(31)))
}

/// Runs `work` on this thread under a fresh trace; returns its result
/// and the finished trace (counts are per trace, so no lock is needed).
fn traced<T>(work: impl FnOnce() -> T) -> (T, Arc<QueryTrace>) {
    let trace = TraceContext::new();
    let out = {
        let _entered = trace.enter();
        work()
    };
    (out, trace.finalize().unwrap())
}

#[test]
fn cached_search_matches_uncached_exactly() {
    let model = tiny_model();
    let idx = fresh_index();

    // Single-object and multi-object (combinatorial) queries.
    for &kind in &[EventKind::LeftTurn, EventKind::PerpendicularCrossing] {
        let query = query_clip(kind);
        let baseline = Matcher::new(PerCandidate(model.similarity()))
            .search(&idx, &query)
            .unwrap();
        assert!(!baseline.is_empty(), "{kind:?} must retrieve moments");

        for threads in [1usize, 4] {
            let cached = Matcher::with_config(
                model.similarity(),
                MatcherConfig {
                    threads,
                    ..Default::default()
                },
            )
            .search(&idx, &query)
            .unwrap();
            // `RetrievedMoment` compares `score: f32` with `==`, so this
            // asserts bit-identical scores, not approximate agreement.
            assert_eq!(cached, baseline, "{kind:?} with {threads} threads");
        }
    }
}

/// Cold, warm, through a second `Matcher` of the same model, and through
/// `search_batch` in either member order: one answer, the referee's —
/// single- and two-object sketches, one and two embedding threads.
#[test]
fn cold_warm_and_fresh_matcher_agree_with_the_per_candidate_scan() {
    let model = tiny_model();
    let queries = [
        query_clip(EventKind::LeftTurn),
        query_clip(EventKind::PerpendicularCrossing),
    ];
    let referee = Matcher::new(PerCandidate(model.similarity()));
    let want: Vec<_> = queries
        .iter()
        .map(|q| referee.search(&fresh_index(), q).unwrap())
        .collect();
    assert!(want.iter().all(|w| !w.is_empty()));

    for threads in [1usize, 2] {
        let config = MatcherConfig {
            threads,
            ..Default::default()
        };
        let matcher = Matcher::with_config(model.similarity(), config.clone());
        let idx = fresh_index();
        for (q, want) in queries.iter().zip(&want) {
            let (cold, trace) = traced(|| matcher.search(&idx, q).unwrap());
            assert_eq!(trace.count(names::EMBED_CACHE_HITS), 0, "first of its span");
            let (warm, trace) = traced(|| matcher.search(&idx, q).unwrap());
            assert_eq!(trace.count(names::EMBED_CACHE_MISSES), 0);
            // A throw-away matcher finds the rows by the model's
            // fingerprint, not by who computed them.
            let other = Matcher::with_config(model.similarity(), config.clone());
            let (fresh, trace) = traced(|| other.search(&idx, q).unwrap());
            assert_eq!(trace.count(names::EMBED_CACHE_MISSES), 0);
            for got in [&cold, &warm, &fresh] {
                assert_eq!(got, want, "{threads} threads");
            }
        }
        // Batched, on the warm index and on a cold one, in both orders.
        for idx in [idx, fresh_index()] {
            for order in [[0usize, 1], [1, 0]] {
                let members: Vec<_> = order.iter().map(|&i| &queries[i]).collect();
                let got = matcher.search_batch(&idx, &members, &CancelToken::none());
                for (got, &i) in got.into_iter().zip(&order) {
                    assert_eq!(got.unwrap(), want[i], "{threads} threads, order {order:?}");
                }
            }
        }
    }
}

/// Two models over one index: each finds only its own rows. The second
/// model's first search pays exactly what it pays on an index nobody
/// scanned, and answers the same.
#[test]
fn two_models_over_one_index_never_read_each_others_rows() {
    let a = Matcher::new(tiny_model().similarity());
    let b = {
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 3;
        Matcher::new(train(cfg).similarity())
    };
    let q = query_clip(EventKind::LeftTurn);
    let (b_alone, alone) = traced(|| b.search(&fresh_index(), &q).unwrap());
    let a_alone = a.search(&fresh_index(), &q).unwrap();
    assert_ne!(a_alone, b_alone, "fixture needs two different models");

    let idx = fresh_index();
    assert_eq!(a.search(&idx, &q).unwrap(), a_alone);
    let (b_after_a, after) = traced(|| b.search(&idx, &q).unwrap());
    assert_eq!(b_after_a, b_alone);
    for name in [names::EMBEDDINGS_COMPUTED, names::EMBED_CACHE_MISSES] {
        assert_eq!(after.count(name), alone.count(name), "{name}");
    }
    assert_eq!(after.count(names::EMBED_CACHE_HITS), 0);
    // Both stay remembered side by side.
    let (a_again, trace) = traced(|| a.search(&idx, &q).unwrap());
    assert_eq!(a_again, a_alone);
    assert_eq!(trace.count(names::EMBED_CACHE_MISSES), 0);
    let (b_again, trace) = traced(|| b.search(&idx, &q).unwrap());
    assert_eq!(b_again, b_alone);
    assert_eq!(trace.count(names::EMBED_CACHE_MISSES), 0);
}

/// Four threads, one index, overlapping sketches (two share a window
/// grid, one is two-object), started together round after round: every
/// answer equals the sequential one, and nobody deadlocks — a racing
/// miss is embedded twice, it never waits.
#[test]
fn concurrent_scans_of_one_index_agree_with_sequential_ones() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 3;
    let matcher = Matcher::new(tiny_model().similarity());
    let queries = [
        query_clip(EventKind::LeftTurn),
        query_clip(EventKind::RightTurn),
        query_clip(EventKind::UTurn),
        query_clip(EventKind::PerpendicularCrossing),
    ];
    let want: Vec<_> = queries
        .iter()
        .map(|q| matcher.search(&fresh_index(), q).unwrap())
        .collect();

    let idx = fresh_index();
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (matcher, idx, barrier, queries, want) =
                (&matcher, &idx, &barrier, &queries, &want);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    barrier.wait();
                    // Each thread starts on a different sketch, so the
                    // first round races cold misses on shared segments.
                    for k in 0..queries.len() {
                        let i = (t + k) % queries.len();
                        let got = matcher.search(idx, &queries[i]).unwrap();
                        assert_eq!(got, want[i], "thread {t} round {round} sketch {i}");
                    }
                }
            });
        }
    });
    let (_, trace) = traced(|| matcher.search(&idx, &queries[3]).unwrap());
    assert_eq!(
        trace.count(names::EMBED_CACHE_MISSES),
        0,
        "all of it remembered"
    );
}

/// The memo's unit is the window *as one query shape sees it*: the same
/// frame range under another class list, or under another cap on
/// combinations, holds other candidates, so it is another key. A `Car`
/// and an `Any` sketch of one span, and two matchers that differ only in
/// `max_combos_per_window`, share one index here — cold and warm, in
/// both orders — and each answers exactly what its own direct scan does.
#[test]
fn window_keys_keep_class_lists_and_combination_caps_apart() {
    let model = tiny_model();
    let car = query_clip(EventKind::LeftTurn);
    let any = Clip::new(
        car.frame_width,
        car.frame_height,
        vec![Trajectory::from_points(
            car.objects[0].id,
            ObjectClass::Any,
            car.objects[0].points().to_vec(),
        )],
    );
    let capped = MatcherConfig {
        max_combos_per_window: 1,
        ..Default::default()
    };
    let sketches = [
        (MatcherConfig::default(), &car),
        (MatcherConfig::default(), &any),
        (capped, &car),
    ];
    let want: Vec<_> = sketches
        .iter()
        .map(|(config, q)| {
            Matcher::with_config(PerCandidate(model.similarity()), config.clone())
                .search(&fresh_index(), q)
                .unwrap()
        })
        .collect();
    assert_ne!(want[0], want[1], "fixture: `Any` must bind other tracks");
    assert_ne!(want[0], want[2], "fixture: the cap must change answers");

    for pair in [[0usize, 1], [1, 0], [0, 2], [2, 0]] {
        let idx = fresh_index();
        for round in ["cold", "warm"] {
            for &i in &pair {
                let (config, q) = &sketches[i];
                let matcher = Matcher::with_config(model.similarity(), config.clone());
                let (got, trace) = traced(|| matcher.search(&idx, q).unwrap());
                assert_eq!(got, want[i], "sketch {i} {round}, order {pair:?}");
                if round == "warm" {
                    assert_eq!(trace.count(names::EMBED_CACHE_MISSES), 0, "sketch {i}");
                }
            }
        }
    }
}

/// The learned similarity, tripping `token` once its encoder has been
/// handed `after` candidate batches — a deadline that expires mid-embed.
struct TripsMidEmbed {
    inner: LearnedSimilarity,
    token: CancelToken,
    after: AtomicUsize,
}

impl Similarity for TripsMidEmbed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn prepare(&self, query: &Clip) -> Result<PreparedQuery, SimilarityError> {
        self.inner.prepare(query)
    }

    fn score(&self, prepared: &PreparedQuery, candidate: &Clip) -> f32 {
        self.inner.score(prepared, candidate)
    }

    fn embedding_identity(&self) -> Option<u64> {
        self.inner.embedding_identity()
    }

    fn embed_candidates(&self, clips: &[Clip]) -> Vec<Option<Vec<f32>>> {
        if self.after.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.token.cancel();
        }
        self.inner.embed_candidates(clips)
    }

    fn score_embedding(&self, prepared: &PreparedQuery, embedding: Option<&[f32]>) -> f32 {
        self.inner.score_embedding(prepared, embedding)
    }
}

/// A pass abandoned half-way publishes nothing: the index remembers no
/// more than before, and the next search — same model, same index —
/// pays the whole count and answers bit-identically.
#[test]
fn a_token_tripped_mid_embed_leaves_the_memo_consistent() {
    let model = tiny_model();
    let q = query_clip(EventKind::LeftTurn);
    let matcher = Matcher::new(model.similarity());
    let (want, alone) = traced(|| matcher.search(&fresh_index(), &q).unwrap());
    assert!(
        alone.count(names::EMBED_CACHE_MISSES) > 2 * 64,
        "fixture needs a pass of several encoder batches"
    );

    let idx = fresh_index();
    let token = CancelToken::new();
    let tripping = Matcher::new(TripsMidEmbed {
        inner: model.similarity(),
        token: token.clone(),
        after: AtomicUsize::new(2),
    });
    let (got, abandoned) = traced(|| tripping.search_with_cancel(&idx, &q, &token));
    assert_eq!(got, Err(MatchError::Cancelled(CancelReason::Cancelled)));
    let paid = abandoned.count(names::EMBEDDINGS_COMPUTED);
    assert!(
        paid > 1 && paid < alone.count(names::EMBEDDINGS_COMPUTED),
        "the pass must stop part-way ({paid} rows)"
    );
    assert_eq!(idx.embed_memo_stats().segments, 0, "no partial publish");

    let (after, trace) = traced(|| matcher.search(&idx, &q).unwrap());
    assert_eq!(after, want);
    assert_eq!(
        trace.count(names::EMBEDDINGS_COMPUTED),
        alone.count(names::EMBEDDINGS_COMPUTED)
    );
    assert_eq!(matcher.search(&idx, &q).unwrap(), want, "and warm");
}

/// When two window scales clamp to grids that share a tail-truncated
/// segment, the second lookup must be a hit instead of a second
/// embedding — within one cold scan, before anything is remembered.
#[test]
fn overlapping_clamped_windows_hit_the_cache() {
    let model = tiny_model();
    // Scales 1.0 and 1.125 of a 16-frame query give 16- and 18-frame
    // windows; both grids end with the truncated segment (84, 99) over a
    // 100-frame video, so exactly one candidate repeats.
    let matcher = Matcher::with_config(
        model.similarity(),
        MatcherConfig {
            window_scales: vec![1.0, 1.125],
            ..Default::default()
        },
    );
    let pts = (0..100)
        .map(|f| TrajPoint::new(f, BBox::new(50.0 + f as f32 * 8.0, 360.0, 60.0, 35.0)))
        .collect();
    let clip = Clip::new(
        1280.0,
        720.0,
        vec![Trajectory::from_points(1, ObjectClass::Car, pts)],
    );
    let idx = VideoIndex::from_clip("cache_hits", &clip, 100, 30.0);
    let q_pts = (0..16)
        .map(|i| TrajPoint::new(i, BBox::new(100.0 + i as f32 * 10.0, 400.0, 80.0, 45.0)))
        .collect();
    let query = Clip::new(
        1000.0,
        600.0,
        vec![Trajectory::from_points(0, ObjectClass::Car, q_pts)],
    );

    let trace = TraceContext::new();
    let results = {
        let _entered = trace.enter();
        matcher.search(&idx, &query).unwrap()
    };
    let report = trace.finalize().unwrap();
    assert!(!results.is_empty());

    // 22 windows on the 16-grid + 22 on the 18-grid, sharing one segment.
    assert_eq!(report.count(names::EMBED_CACHE_HITS), 1);
    assert_eq!(report.count(names::EMBED_CACHE_MISSES), 43);
    let rate = report.embed_cache_hit_rate().unwrap();
    assert!(rate > 0.0 && rate < 1.0, "hit rate {rate}");
    // The repeated segment was embedded once: query + unique candidates.
    assert_eq!(report.count(names::EMBEDDINGS_COMPUTED), 43 + 1);
}
