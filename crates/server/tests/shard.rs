//! Engine integration with persistent embedding stores: warm-load
//! validation, lazy attach (no shard resident until traffic arrives),
//! answers byte-identical to a plain (scan-only) engine, per-query
//! fallback, and the store-effectiveness counters surfaced through
//! `stats()`.
//!
//! The shard gauges are process-wide and most tests here fault shards
//! in or drop sets, so every test takes `GAUGE_LOCK`: while one reads a
//! gauge, no other test of this binary moves it.

mod common;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use sketchql::{ingest_sharded, IngestConfig, MatcherConfig, ShardSet};
use sketchql_datasets::{query_clip, EventKind};
use sketchql_server::{Client, Engine, EngineConfig, QuerySpec, Server};
use sketchql_telemetry::{self as telemetry, names};
use sketchql_trajectory::Clip;

use common::{small_index, tiny_model, two_datasets};

/// Single-object events (multi-object sketches always fall back).
const SINGLE_OBJECT: &[EventKind] = &[
    EventKind::LeftTurn,
    EventKind::StopAndGo,
    EventKind::LaneChange,
];

static GAUGE_LOCK: Mutex<()> = Mutex::new(());

/// Serializes this binary's tests; a failed test does not fail the rest.
fn serial() -> MutexGuard<'static, ()> {
    GAUGE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn spec(dataset: &str, event: EventKind) -> QuerySpec {
    QuerySpec::new(dataset, query_clip(event))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skql-server-shards-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Ingests `index` as dataset "alpha" into `dir`, covering the window
/// grid every `SINGLE_OBJECT` query needs, and reattaches it cold with
/// an exhaustive probe so answers are provably identical to the scan,
/// not merely high-recall.
fn exhaustive_set(
    model: &sketchql::TrainedModel,
    index: &sketchql::VideoIndex,
    shard_frames: u32,
    dir: &std::path::Path,
) -> ShardSet {
    let spans: Vec<u32> = SINGLE_OBJECT
        .iter()
        .map(|&k| query_clip(k).span())
        .collect();
    let cfg = IngestConfig::from_matcher(&MatcherConfig::default(), &spans);
    ingest_sharded(
        &model.similarity(),
        index,
        "alpha",
        &cfg,
        shard_frames,
        dir,
        &|_| {},
    )
    .expect("sharded ingest");
    let mut set = ShardSet::open(dir).expect("reattach shard set");
    set.nprobe = set.nlist();
    set
}

/// One test drives the whole lifecycle so the process-wide residency
/// gauge is observed without interference (the lock keeps every other
/// test of this binary still): for a many-shard and a one-shard set of
/// `alpha`, attach it cold, check nothing is resident, then compare
/// every answer against a plain engine and watch residency rise.
#[test]
fn store_backed_engine_is_lazy_and_matches_plain_engine() {
    let _serial = serial();
    let model = tiny_model();
    let alpha = small_index(11);

    // A plain engine answers from the scan — the reference output.
    let plain = Engine::start(model.clone(), two_datasets(), EngineConfig::default());
    let mut expected = Vec::new();
    for dataset in ["alpha", "beta"] {
        for &event in SINGLE_OBJECT {
            expected.push((
                (dataset, event),
                plain.execute(spec(dataset, event)).unwrap().moments,
            ));
        }
    }
    plain.shutdown();

    for shard_frames in [25, alpha.frames] {
        let dir = temp_dir(&format!("lifecycle-{shard_frames}"));
        // Cold attach: manifest + headers only. Nothing resident yet.
        let set = exhaustive_set(&model, &alpha, shard_frames, &dir);
        assert_eq!(set.shard_count() > 1, shard_frames < alpha.frames);
        assert_eq!(set.resident_shards(), 0, "attach must not load any shard");
        let resident_before = telemetry::gauge(names::SHARD_RESIDENT).get();
        let stores = BTreeMap::from([("alpha".to_string(), set)]);
        let engine = Engine::start_with_stores(
            model.clone(),
            two_datasets(),
            stores,
            EngineConfig::default(),
        );
        assert_eq!(
            engine.stored_datasets(),
            vec!["alpha".to_string()],
            "the set must pass warm validation"
        );
        let infos = engine.datasets();
        assert!(infos.iter().any(|d| d.name == "alpha" && d.stored));
        assert!(infos.iter().any(|d| d.name == "beta" && !d.stored));
        assert_eq!(
            telemetry::gauge(names::SHARD_RESIDENT).get(),
            resident_before,
            "engine startup must not fault in any shard"
        );

        for ((dataset, event), want) in &expected {
            let got = engine.execute(spec(dataset, *event)).unwrap();
            assert_eq!(
                &got.moments, want,
                "{dataset}/{event:?}: store-backed engine diverged from plain engine"
            );
            for (a, b) in got.moments.iter().zip(want) {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
        let stats = engine.stats();
        assert_eq!(
            stats.store_hits,
            SINGLE_OBJECT.len() as u64,
            "every single-object alpha query must be store-served"
        );
        assert_eq!(stats.store_fallbacks, 0);
        assert!(stats.store_probed > 0);
        assert!(
            telemetry::gauge(names::SHARD_RESIDENT).get() > resident_before,
            "traffic must fault shards in"
        );
        engine.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A store built against different video contents fails fingerprint
/// validation at startup and is dropped; its dataset still answers
/// queries through the ordinary scan path.
#[test]
fn mismatched_store_is_dropped_at_startup() {
    let _serial = serial();
    let model = tiny_model();
    let dir = temp_dir("mismatch");
    // Named "alpha" but embedded from a different video.
    let other = small_index(99);
    let set = exhaustive_set(&model, &other, other.frames, &dir);
    let stores = BTreeMap::from([("alpha".to_string(), set)]);
    let engine = Engine::start_with_stores(model, two_datasets(), stores, EngineConfig::default());
    assert!(engine.stored_datasets().is_empty());
    assert!(engine.datasets().iter().all(|d| !d.stored));
    let result = engine.execute(spec("alpha", EventKind::LeftTurn)).unwrap();
    assert!(!result.moments.is_empty());
    assert_eq!(engine.stats().store_hits, 0);
    engine.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A multi-object sketch against a stored dataset is answered correctly
/// by falling back to the scan, and the fallback is counted. Degenerate
/// sketches (empty, shorter than `min_window`) are settled before the
/// store is consulted: neither a hit nor a fallback.
#[test]
fn multi_object_query_on_stored_dataset_falls_back() {
    let _serial = serial();
    let model = tiny_model();
    let dir = temp_dir("multi-object");
    let alpha = small_index(11);
    let set = exhaustive_set(&model, &alpha, alpha.frames, &dir);
    let stores = BTreeMap::from([("alpha".to_string(), set)]);

    let plain = Engine::start(model.clone(), two_datasets(), EngineConfig::default());
    let want = plain
        .execute(spec("alpha", EventKind::PerpendicularCrossing))
        .unwrap()
        .moments;
    plain.shutdown();

    let engine = Engine::start_with_stores(model, two_datasets(), stores, EngineConfig::default());
    let got = engine
        .execute(spec("alpha", EventKind::PerpendicularCrossing))
        .unwrap();
    assert_eq!(got.moments, want);
    let stats = engine.stats();
    assert_eq!(stats.store_fallbacks, 1);
    assert_eq!(stats.store_hits, 0);

    let sketch = query_clip(EventKind::LeftTurn);
    let too_short = Clip::new(
        sketch.frame_width,
        sketch.frame_height,
        vec![sketch.objects[0].slice(0, MatcherConfig::default().min_window - 2)],
    );
    let empty = Clip::new(sketch.frame_width, sketch.frame_height, vec![]);
    for degenerate in [too_short, empty] {
        let got = engine.execute(QuerySpec::new("alpha", degenerate)).unwrap();
        assert!(got.moments.is_empty());
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.store_fallbacks, 1, "a degenerate sketch fell back");
    assert_eq!(stats.store_hits, 0);
    engine.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// "Did it hit the store?" is answered by the query's own trace, over
/// the wire: a served query's counts read one store hit and the rows it
/// probed; a two-object sketch against the same stored dataset reads
/// one fallback under its reason and no hit.
#[test]
fn wire_trace_counts_say_store_hit_or_why_not() {
    let _serial = serial();
    let model = tiny_model();
    let dir = temp_dir("wire-counts");
    let alpha = small_index(11);
    let set = exhaustive_set(&model, &alpha, alpha.frames, &dir);
    let stores = BTreeMap::from([("alpha".to_string(), set)]);
    let engine = Engine::start_with_stores(model, two_datasets(), stores, EngineConfig::default());
    let server = Server::start(engine, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut counts_of = |event: &str| {
        let outcome = client.query_event("alpha", event, None, None).unwrap();
        let mut traces = client.trace(Some(outcome.trace_id), None).unwrap();
        assert_eq!(traces.len(), 1);
        traces.remove(0).counts
    };

    let served = counts_of("left_turn");
    assert_eq!(served.get(names::STORE_HITS), Some(&1));
    assert!(served[names::STORE_PROBED] > 0);
    assert!(served[names::WINDOWS_ENUMERATED] > 0);
    assert!(!served.contains_key(names::STORE_FALLBACKS));

    let fell_back = counts_of("perpendicular_crossing");
    assert_eq!(fell_back.get(names::STORE_FALLBACK_MULTI_OBJECT), Some(&1));
    assert_eq!(fell_back.get(names::STORE_FALLBACKS), Some(&1));
    assert!(!fell_back.contains_key(names::STORE_HITS));
    assert!(fell_back[names::EMBEDDINGS_COMPUTED] > 0);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
