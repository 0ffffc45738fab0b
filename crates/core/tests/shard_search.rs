//! Store correctness: the shard grids must partition the matcher's
//! window grid exactly (no boundary duplicates or gaps), store-backed
//! search must report bit-identical scores to the full scan however the
//! set is sharded and batched, shards must verify lazily and once
//! (residency follows probes), a set that cannot serve a query must fall back to
//! the scan, and a corrupt shard must fail loudly while queries fall
//! back.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::cancel::{CancelReason, CancelToken};
use sketchql::matcher::{MatchError, Matcher, MatcherConfig};
use sketchql::similarity::LearnedSimilarity;
use sketchql::training::{train, TrainingConfig};
use sketchql::vshard::{
    enumerate_store_rows, ingest_sharded, load_store_tier_dir, IngestProgress, ShardSet,
};
use sketchql::vstore::{index_fingerprint, model_fingerprint, IngestConfig};
use sketchql::VideoIndex;
use sketchql_datasets::{
    generate_video, query_clip, EventKind, SceneFamily, SyntheticVideo, VideoConfig,
};
use sketchql_telemetry::names;
use sketchql_tracker::{DetectorConfig, StitchConfig, TrackerConfig};
use sketchql_trajectory::{Clip, Trajectory};
use std::path::PathBuf;

fn model_with_steps(steps: usize) -> sketchql::training::TrainedModel {
    let mut cfg = TrainingConfig::tiny();
    cfg.steps = steps;
    train(cfg)
}

fn tiny_model() -> sketchql::training::TrainedModel {
    model_with_steps(8)
}

fn test_video(seed: u64) -> SyntheticVideo {
    let cfg = VideoConfig {
        family: SceneFamily::UrbanIntersection,
        events_per_kind: 1,
        distractors: 2,
        fps: 30.0,
    };
    generate_video(cfg, seed, &mut StdRng::seed_from_u64(seed))
}

fn test_index(seed: u64) -> VideoIndex {
    VideoIndex::from_truth(&test_video(seed))
}

fn matcher(model: &sketchql::training::TrainedModel) -> Matcher<LearnedSimilarity> {
    Matcher::with_config(model.similarity(), MatcherConfig::default())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skql-shard-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one search under its own trace and returns the result beside
/// the counters that search moved: the store-path counters are
/// process-wide and this file's tests run side by side, so exact counts
/// are read from a trace only this search enters.
fn traced<T>(search: impl FnOnce() -> T) -> (T, std::sync::Arc<sketchql_telemetry::QueryTrace>) {
    let trace = sketchql_telemetry::TraceContext::new();
    let out = {
        let _entered = trace.enter();
        search()
    };
    (out, trace.finalize().unwrap())
}

/// Asserts `trace` holds one store fallback, counted under `reason`
/// alone, and no store hit.
fn assert_fell_back_for(trace: &sketchql_telemetry::QueryTrace, reason: &str) {
    use sketchql_telemetry::names;
    let store_counts: Vec<_> = trace
        .counts
        .iter()
        .filter(|(name, _)| name.starts_with("sketchql.store."))
        .collect();
    assert_eq!(
        store_counts,
        [&(reason, 1), &(names::STORE_FALLBACKS, 1)],
        "expected one fallback for {reason}"
    );
}

/// Ingests `index` into `dir` for the window grid `spans` need, probing
/// exhaustively so answers must equal the scan, not merely recall well.
fn exhaustive_set(
    m: &Matcher<LearnedSimilarity>,
    index: &VideoIndex,
    spans: &[u32],
    shard_frames: u32,
    dir: &std::path::Path,
) -> ShardSet {
    let cfg = IngestConfig::from_matcher(&m.config, spans);
    let mut set = ingest_sharded(&m.sim, index, "v", &cfg, shard_frames, dir, &|_| {}).unwrap();
    set.nprobe = set.nlist();
    set
}

/// The union of every shard range's enumeration must reproduce the
/// unrestricted enumeration exactly: same rows, same multiplicity, no
/// window lost or duplicated at any shard boundary. Exercises several
/// shard widths, including ones that land boundaries mid-stride and a
/// width larger than the video.
#[test]
fn shard_grids_partition_the_whole_grid() {
    let index = test_index(31);
    let config = IngestConfig::from_matcher(&MatcherConfig::default(), &[40, 64]);
    let (whole_rows, whole_clips) = enumerate_store_rows(&index, &config, None);
    assert!(!whole_rows.is_empty(), "grid enumeration came up empty");

    for shard_frames in [1u32, 7, 33, 64, 100, index.frames, index.frames * 2] {
        let mut union = Vec::new();
        let mut lo = 0u32;
        while lo < index.frames {
            let hi = lo.saturating_add(shard_frames - 1).min(index.frames - 1);
            let (rows, clips) = enumerate_store_rows(&index, &config, Some((lo, hi)));
            for row in &rows {
                assert!(
                    (lo..=hi).contains(&row.start),
                    "shard [{lo}, {hi}] emitted a window starting at {} it does not own",
                    row.start
                );
            }
            assert_eq!(rows.len(), clips.len());
            union.extend(rows);
            lo = hi + 1;
        }
        let key = |r: &sketchql_store::StoreRow| (r.track_id, r.start, r.end);
        let mut got: Vec<_> = union.iter().map(key).collect();
        let mut want: Vec<_> = whole_rows.iter().map(key).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(
            got, want,
            "shard width {shard_frames}: union of shard grids != whole grid"
        );
    }
    // One clip per row, aligned: what ingest embeds.
    assert_eq!(whole_rows.len(), whole_clips.len());
}

/// End-to-end bit-identity: with exhaustive probing the store path and
/// the full scan must report the same moments with bit-identical
/// scores — across 1, 3, and many shards, and across a disk round trip
/// (simulated server restart).
#[test]
fn sharded_search_matches_scan_exactly() {
    let model = tiny_model();
    let index = test_index(32);
    let m = matcher(&model);
    let query = query_clip(EventKind::LeftTurn);
    let scan = m.search(&index, &query).unwrap();
    assert!(!scan.is_empty(), "scan found nothing to compare against");

    for shard_frames in [index.frames, index.frames / 3 + 1, 25] {
        let dir = temp_dir(&format!("exact-{shard_frames}"));
        let set = exhaustive_set(&m, &index, &[query.span()], shard_frames, &dir);
        let via_shards = m
            .search_with_shards(&index, &set, &query, &CancelToken::none())
            .unwrap();
        assert!(via_shards.from_store, "{shard_frames}: fell back");
        assert!(via_shards.probed > 0);
        assert_eq!(
            via_shards.moments, scan,
            "{shard_frames}-frame shards diverged from scan"
        );
        for (a, b) in via_shards.moments.iter().zip(&scan) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }

        // Reopen from disk — the restart path — and re-check.
        drop(set);
        let mut reopened = ShardSet::open(&dir).unwrap();
        reopened.nprobe = reopened.nlist();
        assert_eq!(reopened.resident_shards(), 0, "attach must not load shards");
        let again = m
            .search_with_shards(&index, &reopened, &query, &CancelToken::none())
            .unwrap();
        assert!(again.from_store);
        assert_eq!(again.moments, scan, "reopened shard set diverged");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A set built by another model must refuse to serve (the vectors would
/// score differently) and the query must come back from the scan.
#[test]
fn model_mismatch_falls_back_to_scan() {
    let model = tiny_model();
    let index = test_index(13);
    let m = matcher(&model);
    let query = query_clip(EventKind::LeftTurn);
    let dir = temp_dir("model-mismatch");
    let set = exhaustive_set(&m, &index, &[query.span()], index.frames, &dir);

    // A model trained two more steps embeds differently; its fingerprint
    // must differ.
    let m2 = matcher(&model_with_steps(10));
    assert_ne!(model_fingerprint(&m.sim), model_fingerprint(&m2.sim));
    let (r, trace) = traced(|| {
        m2.search_with_shards(&index, &set, &query, &CancelToken::none())
            .unwrap()
    });
    assert!(!r.from_store, "mismatched model must fall back");
    assert_fell_back_for(&trace, names::STORE_FALLBACK_MODEL_FINGERPRINT);
    assert_eq!(r.moments, m2.search(&index, &query).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// Different video contents, a different matcher stride, and a query
/// whose window lengths were never ingested all fall back.
#[test]
fn index_mismatch_and_config_mismatch_fall_back() {
    let model = tiny_model();
    let index = test_index(14);
    let m = matcher(&model);
    let query = query_clip(EventKind::LeftTurn);
    let dir = temp_dir("config-mismatch");
    let set = exhaustive_set(&m, &index, &[query.span()], index.frames, &dir);
    let none = CancelToken::none();

    let other_index = test_index(15);
    assert_ne!(index_fingerprint(&index), index_fingerprint(&other_index));
    let (r, trace) = traced(|| {
        m.search_with_shards(&other_index, &set, &query, &none)
            .unwrap()
    });
    assert!(!r.from_store);
    assert_fell_back_for(&trace, names::STORE_FALLBACK_INDEX_FINGERPRINT);

    let mut strided = matcher(&model);
    strided.config.stride_frac = 0.5;
    let (r, trace) = traced(|| {
        strided
            .search_with_shards(&index, &set, &query, &none)
            .unwrap()
    });
    assert!(!r.from_store);
    assert_fell_back_for(&trace, names::STORE_FALLBACK_WINDOW_GRID);

    let unseen = query_clip(EventKind::UTurn);
    if IngestConfig::from_matcher(&m.config, &[unseen.span()]).window_lens
        != set.manifest().window_lens
    {
        let (r, trace) = traced(|| m.search_with_shards(&index, &set, &unseen, &none).unwrap());
        assert!(!r.from_store);
        assert_fell_back_for(&trace, names::STORE_FALLBACK_WINDOW_GRID);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An index equal to `index` in every field, built afresh — so its
/// fingerprint is hashed from the contents, not carried over.
fn rebuilt(index: &VideoIndex) -> VideoIndex {
    let clip = Clip::new(index.frame_width, index.frame_height, index.tracks.clone());
    VideoIndex::from_clip(&index.name, &clip, index.frames, index.fps)
}

/// Fingerprints are cached identities, so the cache must never stand in
/// for contents it was not hashed from: one bbox coordinate or one
/// weight apart is a different identity, and the set built from the
/// originals refuses both and the scan answers.
#[test]
fn one_coordinate_or_one_weight_apart_is_refused() {
    let model = tiny_model();
    let index = test_index(20);
    let m = matcher(&model);
    let query = query_clip(EventKind::LeftTurn);
    let dir = temp_dir("one-apart");
    let set = exhaustive_set(&m, &index, &[query.span()], index.frames, &dir);
    let none = CancelToken::none();
    // Both fingerprints are cached by now; the set serves its own pair.
    let served = m.search_with_shards(&index, &set, &query, &none).unwrap();
    assert!(served.from_store && !served.fallback);

    let mut nudged = rebuilt(&index);
    let track = &index.tracks[0];
    let mut points = track.points().to_vec();
    points[3].bbox.cx += 0.5;
    nudged.tracks[0] = Trajectory::from_points(track.id, track.class, points);
    assert!(!set.matches_index(&nudged));
    let r = m.search_with_shards(&nudged, &set, &query, &none).unwrap();
    assert!(!r.from_store && r.fallback, "a nudged index must fall back");
    assert_eq!(r.moments, m.search(&nudged, &query).unwrap());

    let mut weights = model.store.clone();
    let name = weights.names().into_iter().next().unwrap();
    weights.get_mut(&name).data[0] += 1e-3;
    let tweaked = Matcher::with_config(
        LearnedSimilarity::new(model.encoder.clone(), weights),
        MatcherConfig::default(),
    );
    assert!(!set.matches_model(&tweaked.sim));
    let r = tweaked
        .search_with_shards(&index, &set, &query, &none)
        .unwrap();
    assert!(
        !r.from_store && r.fallback,
        "a tweaked model must fall back"
    );
    assert_eq!(r.moments, tweaked.search(&index, &query).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// However a `VideoIndex` came to be — cloned (carrying the cached
/// value), read back from JSON, or post-processed after `build` — its
/// fingerprint is the hash of the contents it holds now.
#[test]
fn cached_index_fingerprint_equals_a_fresh_hash() {
    let index = test_index(21);
    let fp = index_fingerprint(&index);
    assert_eq!(fp, index_fingerprint(&rebuilt(&index)));
    assert_eq!(fp, index_fingerprint(&index.clone()));
    let json = serde_json::to_string(&index).unwrap();
    let back: VideoIndex = serde_json::from_str(&json).unwrap();
    assert_eq!(fp, index_fingerprint(&back));

    let video = test_video(42);
    let (detector, tracker) = (
        DetectorConfig::at_noise_level(2.0),
        TrackerConfig::default(),
    );
    let plain = VideoIndex::build(&video, detector, tracker, 7);
    let post =
        VideoIndex::build_with_postprocess(&video, detector, tracker, StitchConfig::default(), 7);
    assert_ne!(
        plain.tracks, post.tracks,
        "fixture: post-processing changed nothing"
    );
    assert_eq!(index_fingerprint(&post), index_fingerprint(&rebuilt(&post)));
    assert_ne!(index_fingerprint(&post), index_fingerprint(&plain));
}

/// The cache's one rule — build a new index, do not edit one — is
/// policed by every debug-build store search.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "index edited after its fingerprint was cached")]
fn editing_a_fingerprinted_index_is_caught_in_debug() {
    let model = tiny_model();
    let index = test_index(23);
    let m = matcher(&model);
    let query = query_clip(EventKind::LeftTurn);
    let dir = temp_dir("edited");
    let set = exhaustive_set(&m, &index, &[query.span()], index.frames, &dir);
    let mut edited = index.clone();
    edited.tracks.pop();
    let _ = m.search_with_shards(&edited, &set, &query, &CancelToken::none());
}

/// The embedding memo lives under the same rule, and clones share it:
/// every debug-build scan pins the index's identity and checks it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "index edited after its fingerprint was cached")]
fn editing_a_scanned_index_is_caught_in_debug() {
    let model = tiny_model();
    let index = test_index(23);
    let m = matcher(&model);
    let query = query_clip(EventKind::LeftTurn);
    m.search(&index, &query).unwrap();
    let mut edited = index.clone();
    edited.tracks.pop();
    let _ = m.search(&edited, &query);
}

/// The index cache files a session writes hold the six data fields in
/// declaration order and nothing else — what the derived serializer
/// wrote before the fingerprint cell existed — whether or not the
/// fingerprint has been computed; and such a file still loads.
#[test]
fn persisted_index_json_never_carries_the_fingerprint() {
    #[derive(serde::Serialize)]
    struct Derived {
        name: String,
        tracks: Vec<Trajectory>,
        frames: u32,
        frame_width: f32,
        frame_height: f32,
        fps: f32,
    }
    let index = test_index(22);
    let want = serde_json::to_string(&Derived {
        name: index.name.clone(),
        tracks: index.tracks.clone(),
        frames: index.frames,
        frame_width: index.frame_width,
        frame_height: index.frame_height,
        fps: index.fps,
    })
    .unwrap();
    assert_eq!(serde_json::to_string(&index).unwrap(), want);
    index_fingerprint(&index);
    assert_eq!(serde_json::to_string(&index).unwrap(), want);
    let back: VideoIndex = serde_json::from_str(&want).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), want);
}

/// Stores hold single-track rows, so a multi-object query scans.
#[test]
fn multi_object_query_falls_back() {
    let model = tiny_model();
    let index = test_index(16);
    let m = matcher(&model);
    let query = query_clip(EventKind::PerpendicularCrossing);
    assert!(query.num_objects() > 1);
    let dir = temp_dir("multi-object");
    let set = exhaustive_set(&m, &index, &[query.span()], index.frames, &dir);
    let (r, trace) = traced(|| {
        m.search_with_shards(&index, &set, &query, &CancelToken::none())
            .unwrap()
    });
    assert!(!r.from_store, "multi-object queries must fall back");
    assert_fell_back_for(&trace, names::STORE_FALLBACK_MULTI_OBJECT);
    assert_eq!(r.moments, m.search(&index, &query).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancelled_store_search_reports_cancelled() {
    let model = tiny_model();
    let index = test_index(18);
    let m = matcher(&model);
    let query = query_clip(EventKind::LeftTurn);
    let dir = temp_dir("cancelled");
    let set = exhaustive_set(&m, &index, &[query.span()], index.frames, &dir);
    let cancel = CancelToken::new();
    cancel.cancel();
    let err = m
        .search_with_shards(&index, &set, &query, &cancel)
        .unwrap_err();
    assert_eq!(err, MatchError::Cancelled(CancelReason::Cancelled));
    std::fs::remove_dir_all(&dir).ok();
}

/// An epoch-scoped query that falls back to the scan (here: the set was
/// built by another model) must return exactly what a store-served
/// scoped query returns: both drop windows ending before `min_end`
/// *before* ranking, so `top_k` applies within the scope and an epoch
/// whose windows rank below older ones still delivers its matches.
#[test]
fn scoped_fallback_equals_scoped_store_search() {
    let index = test_index(19);
    let query = query_clip(EventKind::LeftTurn);
    let mut m = matcher(&tiny_model());
    // A small top-k makes a post-rank filter visibly lossy.
    m.config.top_k = 2;
    let other = matcher(&model_with_steps(10));
    let served_dir = temp_dir("scoped-served");
    let stale_dir = temp_dir("scoped-stale");
    let served = exhaustive_set(&m, &index, &[query.span()], 40, &served_dir);
    let stale = exhaustive_set(&other, &index, &[query.span()], 40, &stale_dir);
    let none = CancelToken::none();

    let mut scoped_out_a_global_hit = false;
    let global = m.search(&index, &query).unwrap();
    for min_end in [0, index.frames / 3, index.frames / 2, index.frames - 1] {
        let want = m
            .search_with_shards_scoped(&index, &served, &query, &none, Some(min_end))
            .unwrap();
        assert!(want.from_store);
        let got = m
            .search_with_shards_scoped(&index, &stale, &query, &none, Some(min_end))
            .unwrap();
        assert!(!got.from_store, "a stale set must fall back");
        assert_eq!(got.moments, want.moments, "min_end {min_end}");
        for (a, b) in got.moments.iter().zip(&want.moments) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        let post_filtered = global.iter().filter(|r| r.end >= min_end).count();
        scoped_out_a_global_hit |= post_filtered < got.moments.len();
    }
    assert!(
        scoped_out_a_global_hit,
        "fixture never exercised the case a post-rank filter loses"
    );
    std::fs::remove_dir_all(&served_dir).ok();
    std::fs::remove_dir_all(&stale_dir).ok();
}

/// Residency follows probes: attach loads nothing, a narrow probe
/// loads only the shards owning rows under the probed centroids, and
/// manifest row counts let empty shards be skipped without a read.
#[test]
fn shards_load_lazily_and_only_when_probed() {
    let model = tiny_model();
    let index = test_index(34);
    let m = matcher(&model);
    let query = query_clip(EventKind::LeftTurn);
    let ingest_cfg = IngestConfig::from_matcher(&m.config, &[query.span()]);
    let dir = temp_dir("lazy");
    // Narrow shards so the set has several; narrow probe so a query
    // visits a strict subset of centroids.
    let set = ingest_sharded(&m.sim, &index, "v", &ingest_cfg, 20, &dir, &|_| {}).unwrap();
    drop(set);
    let mut set = ShardSet::open(&dir).unwrap();
    assert!(set.shard_count() > 2, "fixture needs several shards");
    assert_eq!(set.resident_shards(), 0);
    set.nprobe = 1;

    let r = m
        .search_with_shards(&index, &set, &query, &CancelToken::none())
        .unwrap();
    assert!(r.from_store);
    // A narrow probe may omit moments, but anything it reports must carry
    // the exact scan score for that (window, track) pair.
    let scan = m.search(&index, &query).unwrap();
    for a in &r.moments {
        if let Some(b) = scan
            .iter()
            .find(|b| (b.start, b.end, &b.track_ids) == (a.start, a.end, &a.track_ids))
        {
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "score drifted: {a:?}");
        }
    }
    let after_one = set.resident_shards();
    assert!(
        after_one <= set.shard_count(),
        "resident {} of {}",
        after_one,
        set.shard_count()
    );
    // Exhaustive probing afterwards may only grow residency.
    set.nprobe = set.nlist();
    m.search_with_shards(&index, &set, &query, &CancelToken::none())
        .unwrap();
    assert!(set.resident_shards() >= after_one);
    std::fs::remove_dir_all(&dir).ok();
}

/// Verification runs once per shard however many first probes race for
/// it: 8 threads probe one cold set exhaustively at the same moment, each
/// shard owning rows is checksummed and decoded by exactly one of them,
/// and every reply is bit-identical to a solo probe of a fresh attach.
#[test]
fn concurrent_first_probes_verify_each_shard_once() {
    use sketchql_telemetry::{counter, TraceContext};
    const THREADS: usize = 8;
    let model = tiny_model();
    let index = test_index(38);
    let m = matcher(&model);
    let query = query_clip(EventKind::LeftTurn);
    let dir = temp_dir("once");
    let solo = exhaustive_set(&m, &index, &[query.span()], 20, &dir);
    let want = m
        .search_with_shards(&index, &solo, &query, &CancelToken::none())
        .unwrap();
    assert!(want.from_store);
    drop(solo);

    let mut set = ShardSet::open(&dir).unwrap();
    set.nprobe = set.nlist();
    assert!(set.shard_count() > 2, "fixture needs several shards");
    assert_eq!(set.resident_shards(), 0, "attach must not load any shard");
    // A frame range no window starts in (the video's last frames) holds
    // no rows and is skipped, never verified.
    let owning = set.manifest().shards.iter().filter(|s| s.rows > 0).count();
    let loads_before = counter(names::SHARD_LOADS).get();
    // `sketchql.shard.loads` is process-wide and this file's tests run
    // side by side, so the exact count is taken from the load spans of a
    // trace only these threads enter (one span beside every count).
    let trace = TraceContext::new();
    let start = std::sync::Barrier::new(THREADS);
    let replies: Vec<_> = std::thread::scope(|s| {
        let probes: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let _entered = trace.enter();
                    start.wait();
                    m.search_with_shards(&index, &set, &query, &CancelToken::none())
                        .unwrap()
                })
            })
            .collect();
        probes.into_iter().map(|p| p.join().unwrap()).collect()
    });
    let spans = trace.finalize().unwrap().spans.clone();
    let loads = spans.iter().filter(|s| s.name == names::SHARD_LOAD);
    assert_eq!(loads.count(), owning, "a shard was verified twice");
    assert!(counter(names::SHARD_LOADS).get() - loads_before >= owning as u64);
    assert_eq!(set.resident_shards(), owning);
    for got in &replies {
        assert!(got.from_store);
        assert_eq!(got.moments, want.moments);
        for (a, b) in got.moments.iter().zip(&want.moments) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt shard is detected at first probe (the deferred checksum),
/// named loudly by `verify`, and queries fall back to the scan rather
/// than serving partial results. The failure is recorded once per
/// attach: later queries and `verify` calls meet the sticky error, not
/// the file.
#[test]
fn corrupt_shard_fails_loudly_and_queries_fall_back() {
    let model = tiny_model();
    let index = test_index(35);
    let m = matcher(&model);
    let query = query_clip(EventKind::LeftTurn);
    let ingest_cfg = IngestConfig::from_matcher(&m.config, &[query.span()]);
    let dir = temp_dir("corrupt");
    let set = ingest_sharded(&m.sim, &index, "v", &ingest_cfg, 30, &dir, &|_| {}).unwrap();
    let victim = dir.join(&set.manifest().shards[0].file);
    drop(set);

    // Flip one payload byte without changing the length: the header
    // still validates, so attach succeeds — corruption must surface at
    // load time, naming the file.
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    // No other test in this file makes a shard fail to load, so the
    // process-wide counter moves for this attach alone.
    let load_errors = sketchql_telemetry::counter(names::SHARD_LOAD_ERRORS);
    let errors_before = load_errors.get();
    let mut set = ShardSet::open(&dir).unwrap();
    set.nprobe = set.nlist();
    let names_the_victim = |err: sketchql_store::StoreError| {
        let msg = err.to_string();
        assert!(
            msg.contains(victim.file_name().unwrap().to_str().unwrap()),
            "error must name the corrupt shard, got: {msg}"
        );
    };
    names_the_victim(set.verify().unwrap_err());

    let scan = m.search(&index, &query).unwrap();
    for round in 0..2 {
        let (r, trace) = traced(|| {
            m.search_with_shards(&index, &set, &query, &CancelToken::none())
                .unwrap()
        });
        assert!(!r.from_store, "corrupt shard must force scan fallback");
        assert!(r.fallback);
        assert_fell_back_for(&trace, names::STORE_FALLBACK_SHARD_LOAD);
        assert_eq!(r.moments, scan, "round {round}");
    }
    names_the_victim(set.verify().unwrap_err());
    assert_eq!(
        load_errors.get() - errors_before,
        1,
        "the shard was checked again after its error was recorded"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Parallel ingest must be deterministic: 1 worker and 3 workers write
/// byte-identical shard files and manifests — for many shards and for
/// the whole video in one shard, where the workers split one shard's
/// clips.
#[test]
fn parallel_ingest_is_deterministic() {
    let model = tiny_model();
    let index = test_index(36);
    let m = matcher(&model);
    let ingest_cfg = IngestConfig::from_matcher(&m.config, &[48]);
    let mut serial_cfg = ingest_cfg.clone();
    serial_cfg.threads = 1;
    let mut parallel_cfg = ingest_cfg;
    parallel_cfg.threads = 3;

    for shard_frames in [30, index.frames] {
        let dir1 = temp_dir("det-1");
        let dir3 = temp_dir("det-3");
        let written = std::sync::atomic::AtomicUsize::new(0);
        let count = |e| {
            if matches!(e, IngestProgress::ShardWritten { .. }) {
                written.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        };
        ingest_sharded(
            &m.sim,
            &index,
            "v",
            &serial_cfg,
            shard_frames,
            &dir1,
            &|_| {},
        )
        .unwrap();
        ingest_sharded(
            &m.sim,
            &index,
            "v",
            &parallel_cfg,
            shard_frames,
            &dir3,
            &count,
        )
        .unwrap();
        assert!(written.into_inner() > 0, "no progress events");

        let mut names: Vec<String> = std::fs::read_dir(&dir1)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names.len() > 2, shard_frames < index.frames);
        for name in &names {
            let a = std::fs::read(dir1.join(name)).unwrap();
            let b = std::fs::read(dir3.join(name)).unwrap();
            assert_eq!(
                a, b,
                "{shard_frames}-frame shards: {name} differs between 1- and 3-thread ingest"
            );
        }
        std::fs::remove_dir_all(&dir1).ok();
        std::fs::remove_dir_all(&dir3).ok();
    }
}

/// A store directory attaches every shard set in it, keyed by dataset
/// name — and refuses a leftover monolithic `.skstore`, naming the file,
/// rather than silently serving its dataset from the scan.
#[test]
fn store_dir_attaches_sets_and_rejects_a_stray_skstore() {
    let model = tiny_model();
    let index = test_index(37);
    let m = matcher(&model);
    let query = query_clip(EventKind::LeftTurn);
    let ingest_cfg = IngestConfig::from_matcher(&m.config, &[query.span()]);
    let dir = temp_dir("store-dir");
    for (name, shard_frames) in [("whole", index.frames), ("sharded", 25)] {
        let set_dir = dir.join(sketchql::shard_set_dir_name(name));
        ingest_sharded(
            &m.sim,
            &index,
            name,
            &ingest_cfg,
            shard_frames,
            &set_dir,
            &|_| {},
        )
        .unwrap();
    }
    std::fs::write(dir.join("notes.txt"), "not a store").unwrap();

    let mut sets = load_store_tier_dir(&dir).unwrap();
    assert_eq!(
        sets.keys().collect::<Vec<_>>(),
        ["sharded", "whole"],
        "both sets must attach, other files are ignored"
    );
    let scan = m.search(&index, &query).unwrap();
    for (name, set) in sets.iter_mut() {
        set.nprobe = set.nlist();
        let r = m
            .search_with_shards(&index, set, &query, &CancelToken::none())
            .unwrap();
        assert!(r.from_store, "{name} fell back");
        assert_eq!(r.moments, scan, "{name} diverged from scan");
    }

    std::fs::write(dir.join("x.skstore"), b"SKQLSTOR").unwrap();
    let err = load_store_tier_dir(&dir).err().expect("stray .skstore");
    let msg = err.to_string();
    assert!(msg.contains("x.skstore"), "error must name the file: {msg}");
    assert!(msg.contains("ingest"), "error must say what to do: {msg}");
    std::fs::remove_dir_all(&dir).ok();
}
