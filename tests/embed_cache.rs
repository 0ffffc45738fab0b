//! The interned + batched matcher path is an optimization, not a behavior
//! change: for any thread count it must return byte-identical results to
//! the direct (per-candidate, sequential) scan. Possible because every
//! encoder op is row/block-local, so batched forwards reproduce `embed()`
//! exactly in f32 — see DESIGN.md §7.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::telemetry::{names, TraceContext};
use sketchql::training::{train, TrainingConfig};
use sketchql::{
    LearnedSimilarity, Matcher, MatcherConfig, PreparedQuery, Similarity, SimilarityError,
    VideoIndex,
};
use sketchql_datasets::{generate_video, query_clip, EventKind, SceneFamily, VideoConfig};
use sketchql_trajectory::{BBox, Clip, ObjectClass, TrajPoint, Trajectory};

/// The learned similarity with `uses_embeddings()` left at its `false`
/// default, so the Matcher scores every candidate through `score` on
/// its direct scan: the reference the interned path is compared against.
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

#[test]
fn cached_search_matches_uncached_exactly() {
    let model = tiny_model();
    let cfg = VideoConfig {
        family: SceneFamily::UrbanIntersection,
        events_per_kind: 1,
        distractors: 3,
        fps: 30.0,
    };
    let v = generate_video(cfg, 31, &mut StdRng::seed_from_u64(31));
    let idx = VideoIndex::from_truth(&v);

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

/// When two window scales clamp to grids that share a tail-truncated
/// segment, the second lookup must hit the cache instead of re-embedding.
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
