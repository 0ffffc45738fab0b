//! T5 — full query latency: sliding-window search over videos of
//! increasing length, learned similarity vs the DTW baseline.
//!
//! Doubles as the telemetry-overhead check: build once with default
//! features and once with `--no-default-features`, then compare the
//! `matcher_search/learned/*` medians (`scripts/bench_overhead.sh`
//! automates this; the acceptance bar is <2% overhead).

use sketchql::{ClassicalSimilarity, Matcher, MatcherConfig, VideoIndex};
use sketchql_bench::harness::Harness;
use sketchql_bench::{bench_model, bench_video};
use sketchql_datasets::{query_clip, EventKind};
use sketchql_trajectory::DistanceKind;
use std::hint::black_box;

fn bench_matcher(h: &mut Harness) {
    let model = bench_model();
    let query = query_clip(EventKind::LeftTurn);

    let mut group = h.group("matcher_search");
    group.sample_size(10);
    for events_per_kind in [1usize, 2] {
        let video = bench_video(events_per_kind, 42);
        let idx = VideoIndex::from_truth(&video);
        group.bench(format!("learned/{}", idx.frames), |b| {
            let m = Matcher::new(model.similarity());
            b.iter(|| black_box(m.search(&idx, black_box(&query)).unwrap()))
        });
        group.bench(format!("dtw/{}", idx.frames), |b| {
            let m = Matcher::new(ClassicalSimilarity::new(DistanceKind::Dtw));
            b.iter(|| black_box(m.search(&idx, black_box(&query)).unwrap()))
        });
    }
    group.finish();

    // Per-search embedding cache + batched encoder forwards vs one
    // forward per candidate, on the same multi-scale learned scan
    // (`scripts/bench_matcher.sh` compares these two ids).
    let video = bench_video(1, 46);
    let idx = VideoIndex::from_truth(&video);
    let mut group = h.group("matcher_embed_cache");
    group.sample_size(10);
    group.bench("uncached", |b| {
        let m = Matcher::with_config(
            model.similarity(),
            MatcherConfig {
                embed_cache: false,
                ..Default::default()
            },
        );
        b.iter(|| black_box(m.search(&idx, black_box(&query)).unwrap()))
    });
    group.bench("cached", |b| {
        let m = Matcher::with_config(
            model.similarity(),
            MatcherConfig {
                embed_cache: true,
                ..Default::default()
            },
        );
        b.iter(|| black_box(m.search(&idx, black_box(&query)).unwrap()))
    });
    group.finish();

    // Multi-object query (Q2): combinatorial candidate generation.
    let mut group = h.group("matcher_search_multiobject");
    group.sample_size(10);
    let video = bench_video(1, 43);
    let idx = VideoIndex::from_truth(&video);
    let q2 = query_clip(EventKind::PerpendicularCrossing);
    group.bench("learned_q2", |b| {
        let m = Matcher::new(model.similarity());
        b.iter(|| black_box(m.search(&idx, black_box(&q2)).unwrap()))
    });
    group.finish();
}

fn bench_rules(h: &mut Harness) {
    let video = bench_video(1, 45);
    let idx = VideoIndex::from_truth(&video);
    let rule = sketchql::expert_rule(sketchql_datasets::EventKind::LeftTurn);
    let cfg = sketchql::RuleSearchConfig::default();
    let mut group = h.group("rules_baseline");
    group.sample_size(20);
    group.bench("left_turn_rule_eval", |b| {
        b.iter(|| black_box(sketchql::evaluate_rule(&idx, &rule, &cfg)))
    });
    group.finish();
}

fn main() {
    println!(
        "# matcher benches (telemetry feature: {})",
        if cfg!(feature = "telemetry") {
            "on"
        } else {
            "off"
        }
    );
    // Run with the full observability load-out the server carries in
    // production — counting allocator (linked via the telemetry crate)
    // plus the continuous sampling profiler — so the overhead gate in
    // `scripts/bench_overhead.sh` measures the whole stack, not just
    // counters.
    if sketchql::telemetry::is_enabled() {
        sketchql::telemetry::start_continuous_profiler(19);
    }
    let mut h = Harness::from_env();
    bench_matcher(&mut h);
    bench_rules(&mut h);
}
