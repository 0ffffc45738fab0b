//! Engine integration with persistent embedding stores: warm-load
//! validation, per-query fallback, and the store-effectiveness counters
//! surfaced through `stats()` and the wire trace. Lazy attach and
//! answers byte-identical to a plain engine are checked in
//! `shard_residency.rs`, a binary of their own, because they read the
//! process-wide residency gauge that every test here moves.

mod common;

use std::collections::BTreeMap;

use sketchql::MIN_WINDOW;
use sketchql_datasets::{query_clip, EventKind};
use sketchql_server::{Client, Engine, EngineConfig, QuerySpec, Server};
use sketchql_telemetry::names;
use sketchql_trajectory::Clip;

use common::{exhaustive_set, shard_temp_dir, small_index, tiny_model, two_datasets};

fn spec(dataset: &str, event: EventKind) -> QuerySpec {
    QuerySpec::new(dataset, query_clip(event))
}

/// A store built against different video contents fails fingerprint
/// validation at startup and is dropped; its dataset still answers
/// queries through the ordinary scan path.
#[test]
fn mismatched_store_is_dropped_at_startup() {
    let model = tiny_model();
    let dir = shard_temp_dir("mismatch");
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
    let model = tiny_model();
    let dir = shard_temp_dir("multi-object");
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
        vec![sketch.objects[0].slice(0, MIN_WINDOW - 2)],
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
    let model = tiny_model();
    let dir = shard_temp_dir("wire-counts");
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

/// Heap allocations a warm served store query may make, as its trace
/// counts them: the query embed, the probe, the finish and the ranking.
/// Measured at 110 on x86-64 over this fixture's 122 windows and 3,060
/// probed rows (222 while every scored window built its track list); the
/// ceiling leaves ~45% headroom, under half an allocation per window, so
/// a new per-window or per-row allocation on the store path fails here.
const STORE_QUERY_ALLOC_CEILING: u64 = 160;

#[test]
fn a_served_store_query_stays_under_its_allocation_ceiling() {
    let model = tiny_model();
    let dir = shard_temp_dir("alloc-ceiling");
    let alpha = small_index(11);
    let set = exhaustive_set(&model, &alpha, alpha.frames, &dir);
    let stores = BTreeMap::from([("alpha".to_string(), set)]);
    let engine = Engine::start_with_stores(model, two_datasets(), stores, EngineConfig::default());
    let server = Server::start(engine, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // The first query also verifies and decodes the shard; the ones after
    // it are the steady state.
    for round in 0..3 {
        let outcome = client
            .query_event("alpha", "left_turn", None, None)
            .unwrap();
        let trace = client
            .trace(Some(outcome.trace_id), None)
            .unwrap()
            .remove(0);
        assert_eq!(trace.counts.get(names::STORE_HITS), Some(&1));
        assert!(
            round == 0 || trace.alloc_count <= STORE_QUERY_ALLOC_CEILING,
            "a warm served store query made {} allocations (ceiling {STORE_QUERY_ALLOC_CEILING})",
            trace.alloc_count
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
