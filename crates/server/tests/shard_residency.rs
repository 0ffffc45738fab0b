//! Lazy attach, checked where nothing else runs: the one test here reads
//! the process-wide `sketchql.shard.resident` gauge, so it has this
//! binary to itself — no other test in the process faults a shard in or
//! drops a set while it reads.

mod common;

use std::collections::BTreeMap;

use sketchql_datasets::{query_clip, EventKind};
use sketchql_server::{Engine, EngineConfig, QuerySpec};
use sketchql_telemetry::{self as telemetry, names};

use common::{
    exhaustive_set, shard_temp_dir, small_index, tiny_model, two_datasets, SINGLE_OBJECT,
};

fn spec(dataset: &str, event: EventKind) -> QuerySpec {
    QuerySpec::new(dataset, query_clip(event))
}

/// One test drives the whole lifecycle so the process-wide residency
/// gauge is observed without interference: for a many-shard and a one-shard set of
/// `alpha`, attach it cold, check nothing is resident, then compare
/// every answer against a plain engine and watch residency rise.
#[test]
fn store_backed_engine_is_lazy_and_matches_plain_engine() {
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
        let dir = shard_temp_dir(&format!("lifecycle-{shard_frames}"));
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
