//! Shared fixtures for the server integration tests: a tiny trained
//! model and small oracle-track datasets, kept deterministic by seeding.

// Each test binary compiles this module afresh and uses its own subset.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::training::{train, TrainedModel, TrainingConfig};
use sketchql::{ingest_sharded, IngestConfig, MatcherConfig, ShardSet, VideoIndex};
use sketchql_datasets::{generate_video, query_clip, EventKind, SceneFamily, VideoConfig};
use sketchql_server::{Engine, EngineConfig, QuerySpec};
use std::time::Duration;

pub fn tiny_model() -> TrainedModel {
    let mut cfg = TrainingConfig::tiny();
    cfg.steps = 10;
    train(cfg)
}

pub fn small_index(seed: u64) -> VideoIndex {
    let cfg = VideoConfig {
        family: SceneFamily::UrbanIntersection,
        events_per_kind: 1,
        distractors: 2,
        fps: 30.0,
    };
    VideoIndex::from_truth(&generate_video(cfg, seed, &mut StdRng::seed_from_u64(seed)))
}

pub fn two_datasets() -> BTreeMap<String, VideoIndex> {
    let mut map = BTreeMap::new();
    map.insert("alpha".to_string(), small_index(11));
    map.insert("beta".to_string(), small_index(12));
    map
}

/// Wall time of one *cold* solo scan: `event` over `beta` on a scratch
/// engine whose `beta` index has never been scanned (an index remembers
/// the segment embeddings of the scans it served, so only a first scan
/// pays the encoder), after a scan of `alpha` has warmed the process.
/// What a test sizes a deadline from when the scan it races runs on a
/// fresh engine.
pub fn cold_scan(model: &TrainedModel, config: EngineConfig, event: EventKind) -> Duration {
    let scratch = Engine::start(model.clone(), two_datasets(), config);
    let alpha = QuerySpec::new("alpha", query_clip(EventKind::LeftTurn));
    scratch.execute(alpha).unwrap();
    let started = std::time::Instant::now();
    let beta = QuerySpec::new("beta", query_clip(event));
    scratch.execute(beta).unwrap();
    let scan = started.elapsed();
    scratch.shutdown();
    scan
}

/// Wall times of `n` solo scans of `beta` on `engine` after one warm-up
/// scan (so all of them find `beta`'s segment embeddings remembered),
/// sorted — what the deadline tests that race the same scan on the same
/// engine size their deadlines from.
pub fn timed_scans(engine: &Engine, n: usize) -> Vec<Duration> {
    let scan = || {
        let started = std::time::Instant::now();
        let spec = QuerySpec::new("beta", query_clip(EventKind::LeftTurn));
        engine.execute(spec).unwrap();
        started.elapsed()
    };
    scan();
    let mut scans: Vec<_> = (0..n).map(|_| scan()).collect();
    scans.sort();
    scans
}

/// Single-object events (multi-object sketches always fall back).
pub const SINGLE_OBJECT: &[EventKind] = &[
    EventKind::LeftTurn,
    EventKind::StopAndGo,
    EventKind::LaneChange,
];

/// A fresh (removed if present) per-process directory for a shard set.
pub fn shard_temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skql-server-shards-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Ingests `index` as dataset "alpha" into `dir`, covering the window
/// grid every `SINGLE_OBJECT` query needs, and reattaches it cold with
/// an exhaustive probe so answers are provably identical to the scan,
/// not merely high-recall.
pub fn exhaustive_set(
    model: &TrainedModel,
    index: &VideoIndex,
    shard_frames: u32,
    dir: &Path,
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
