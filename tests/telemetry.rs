//! Telemetry counter correctness: one query over a fully-known synthetic
//! video must produce exactly the analytically expected counter values.

use sketchql::telemetry::{self, names, QueryTrace, TraceContext};
use sketchql::training::{train, TrainingConfig};
use sketchql::{Matcher, MatcherConfig, VideoIndex};
use sketchql_trajectory::{BBox, Clip, ObjectClass, TrajPoint, Trajectory};
use std::sync::Arc;

/// Runs `work` on this thread inside a fresh trace labelled `label`;
/// returns its result and the finished trace. Counts are attributed
/// per trace, so these tests need no lock against each other.
fn traced<T>(label: &str, work: impl FnOnce() -> T) -> (T, Arc<QueryTrace>) {
    let ctx = TraceContext::new();
    ctx.set_label(label);
    let out = {
        let _entered = ctx.enter();
        work()
    };
    (out, ctx.finalize().expect("finalized once, here"))
}

const FRAMES: u32 = 100;
const QUERY_SPAN: u32 = 40;

/// One car covering every frame: every enumerated window has exactly one
/// candidate object combination.
fn single_track_index() -> VideoIndex {
    lanes_index(1, FRAMES)
}

/// `cars` cars covering all `frames`, one lane each: a single-object scan
/// over it has `cars` candidates per window (up to the combination cap).
fn lanes_index(cars: u64, frames: u32) -> VideoIndex {
    let tracks = (0..cars)
        .map(|lane| {
            let y = 360.0 + lane as f32 * 4.0;
            let pts = (0..frames)
                .map(|f| TrajPoint::new(f, BBox::new(50.0 + f as f32 * 8.0, y, 60.0, 35.0)))
                .collect();
            Trajectory::from_points(lane + 1, ObjectClass::Car, pts)
        })
        .collect();
    let clip = Clip::new(1280.0, 720.0, tracks);
    VideoIndex::from_clip("analytic", &clip, frames, 30.0)
}

fn query() -> Clip {
    let pts = (0..QUERY_SPAN)
        .map(|i| TrajPoint::new(i, BBox::new(100.0 + i as f32 * 10.0, 400.0, 80.0, 45.0)))
        .collect();
    Clip::new(
        1000.0,
        600.0,
        vec![Trajectory::from_points(0, ObjectClass::Car, pts)],
    )
}

/// Closed-form window count: per scale, `window = max(round_down(q_span *
/// scale), min_window)`; scales whose window exceeds the video are skipped;
/// start positions advance by `stride = max(round_down(window * stride_frac),
/// 1)` until a window reaches the final frame, giving
/// `ceil((frames - window) / stride) + 1` windows. Assumes every scale maps
/// to a distinct window length (true for the default config at
/// `QUERY_SPAN = 40`); the matcher deduplicates clamped scales otherwise.
fn expected_windows(cfg: &MatcherConfig, q_span: u32, frames: u32) -> u64 {
    let mut count = 0u64;
    for &scale in &cfg.window_scales {
        let window = ((q_span as f32 * scale) as u32).max(cfg.min_window);
        if window > frames {
            continue;
        }
        let stride = ((window as f32 * cfg.stride_frac) as u32).max(1);
        count += ((frames - window) as u64).div_ceil(stride as u64) + 1;
    }
    count
}

#[test]
fn counters_match_analytic_expectations() {
    let mut cfg = TrainingConfig::tiny();
    cfg.steps = 2;
    let matcher = Matcher::new(train(cfg).similarity());
    let idx = single_track_index();
    let q = query();
    assert_eq!(q.span(), QUERY_SPAN);
    assert_eq!(idx.frames, FRAMES);

    let (results, report) = traced("analytic/car_query", || matcher.search(&idx, &q).unwrap());

    assert!(!results.is_empty());
    assert_eq!(report.label, "analytic/car_query");

    let expected = expected_windows(&matcher.config, QUERY_SPAN, FRAMES);
    assert!(expected > 0);
    assert_eq!(report.count(names::WINDOWS_ENUMERATED), expected);
    // The single full-coverage track gives one combination per window, so
    // every window is scored exactly once and none are pruned.
    assert_eq!(report.count(names::SIMILARITY_EVALS), expected);
    assert_eq!(report.count(names::WINDOWS_PRUNED), 0);
    // One embedding per scored candidate plus one for the query itself.
    // (The index is fresh, so its embedding memo is cold, and the window
    // scales here map to distinct lengths, so the scan sees only
    // distinct segments: every look-up misses.)
    assert_eq!(report.count(names::EMBEDDINGS_COMPUTED), expected + 1);
    assert_eq!(report.count(names::EMBED_CACHE_MISSES), expected);
    assert_eq!(report.count(names::EMBED_CACHE_HITS), 0);
    assert_eq!(report.embed_cache_hit_rate(), Some(0.0));
    // The index was pre-built outside the trace.
    assert_eq!(report.count(names::FRAMES_PREPROCESSED), 0);
    assert_eq!(report.count(names::TRACKS_BUILT), 0);

    // Asked again, the index remembers every segment: the same windows
    // and evaluations, one embedding (the query's own), no miss.
    let (again, report) = traced("analytic/car_query", || matcher.search(&idx, &q).unwrap());
    assert_eq!(again, results);
    assert_eq!(report.count(names::WINDOWS_ENUMERATED), expected);
    assert_eq!(report.count(names::SIMILARITY_EVALS), expected);
    assert_eq!(report.count(names::EMBEDDINGS_COMPUTED), 1);
    assert_eq!(report.count(names::EMBED_CACHE_MISSES), 0);
    assert_eq!(report.count(names::EMBED_CACHE_HITS), expected);
    assert_eq!(report.embed_cache_hit_rate(), Some(1.0));
    assert_eq!(idx.embed_memo_stats().segments, expected);
}

/// Per-query counts are exact under concurrency: two threads run two
/// different queries at the same moment, round after round, each under
/// its own trace, and every trace reads exactly what the same query
/// reads when it runs alone. (A difference of process-wide counters
/// around each query would hand each the other's windows.)
#[test]
fn concurrent_queries_count_only_their_own_work() {
    const ROUNDS: usize = 4;
    const COUNTED: [&str; 3] = [
        names::WINDOWS_ENUMERATED,
        names::EMBEDDINGS_COMPUTED,
        names::SIMILARITY_EVALS,
    ];
    let mut cfg = TrainingConfig::tiny();
    cfg.steps = 2;
    let matcher = Matcher::new(train(cfg).similarity());
    let short = Clip::new(
        1000.0,
        600.0,
        vec![query().objects[0].slice(0, QUERY_SPAN / 2)],
    );
    let queries = [query(), short];
    // A fresh index per search: an index remembers the segment
    // embeddings its scans computed, and every run here must pay what
    // the query pays alone.
    let counts_of = |q: &Clip| {
        let idx = single_track_index();
        let (_, trace) = traced("concurrent", || matcher.search(&idx, q).unwrap());
        COUNTED.map(|name| trace.count(name))
    };
    let alone = [counts_of(&queries[0]), counts_of(&queries[1])];
    assert_ne!(alone[0], alone[1], "fixture needs two different queries");
    assert!(alone.iter().flatten().all(|&n| n > 0));

    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for (q, want) in queries.iter().zip(alone) {
            let (barrier, counts_of) = (&barrier, &counts_of);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    barrier.wait();
                    assert_eq!(counts_of(q), want, "round {round}");
                }
            });
        }
    });
}

/// Regression: scales `0.75` and `1.0` of a 16-frame query both clamp to
/// `min_window = 16`; enumeration must emit that window grid once, not
/// once per scale (the duplicate-window bug doubled both the counter and
/// the scoring work).
#[test]
fn clamped_scales_enumerate_each_window_once() {
    let matcher = Matcher::new(sketchql::ClassicalSimilarity::new(
        sketchql_trajectory::DistanceKind::Dtw,
    ));
    let idx = single_track_index();
    let pts = (0..16)
        .map(|i| TrajPoint::new(i, BBox::new(100.0 + i as f32 * 10.0, 400.0, 80.0, 45.0)))
        .collect();
    let q = Clip::new(
        1000.0,
        600.0,
        vec![Trajectory::from_points(0, ObjectClass::Car, pts)],
    );
    assert_eq!(q.span(), 16);

    let (results, report) = traced("analytic/clamped_scales", || {
        matcher.search(&idx, &q).unwrap()
    });
    assert!(!results.is_empty());

    // Deduplicated grids: 16-frame windows (stride 4, starts 0..=84) give
    // 22, 24-frame windows (stride 6) give ceil(76/6) + 1 = 14.
    let expected = 22 + 14;
    assert_eq!(report.count(names::WINDOWS_ENUMERATED), expected);
    // One candidate combination per window: scoring work shrinks with it.
    assert_eq!(report.count(names::SIMILARITY_EVALS), expected);
}

/// The bar is 90% of the traced wall time, and the untraced gaps (trace
/// creation to the first span, the last span to finalization) are a few
/// microseconds. One deschedule inside a gap is what can break the bar,
/// and on an oversubscribed box a deschedule lasts ~10 ms, so the traced
/// query is a cold scan long enough (~9 400 encoder rows, ~170 ms in a
/// debug build on 2 cores) that no single deschedule reaches 10% of it.
#[test]
fn stage_spans_cover_the_query() {
    let mut cfg = TrainingConfig::tiny();
    cfg.steps = 2;
    let matcher = Matcher::new(train(cfg).similarity());
    let idx = lanes_index(64, 5 * FRAMES);
    let q = query();

    let (_, report) = traced("analytic/stages", || matcher.search(&idx, &q).unwrap());

    assert!(report.total_nanos > 0);
    let stages = report.stages();
    assert!(
        stages
            .iter()
            .any(|(name, _)| *name == "sketchql.matcher.search"),
        "depth-0 stages: {stages:?}"
    );
    // The stage spans account for (nearly) all of the traced wall time.
    let sum = report.stage_nanos_sum();
    assert!(sum <= report.total_nanos);
    assert!(
        sum as f64 >= report.total_nanos as f64 * 0.9,
        "stage sum {sum} vs total {}",
        report.total_nanos
    );
}

#[test]
fn report_exports_are_well_formed() {
    let idx = single_track_index();
    let matcher = Matcher::new(sketchql::ClassicalSimilarity::new(
        sketchql_trajectory::DistanceKind::Dtw,
    ));
    let (_, report) = traced("analytic/export", || {
        matcher.search(&idx, &query()).unwrap()
    });

    let json = report.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"label\":\"analytic/export\""));
    assert!(json.contains("\"sketchql.matcher.windows_enumerated\""));

    let table = report.render_table();
    assert!(table.contains("query report: analytic/export"));
    assert!(table.contains("sketchql.matcher.windows_enumerated"));

    // Registry-level exports are valid regardless of feature state.
    let snap = telemetry::snapshot_json();
    assert!(snap.starts_with('{') && snap.ends_with('}'));
    let prom = telemetry::snapshot_prometheus();
    assert!(prom.contains("# TYPE"));
}
