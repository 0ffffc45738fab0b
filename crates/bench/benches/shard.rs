//! Shard-set bench — cold attach vs a full verify (every shard mapped
//! and checksummed), parallel vs single-thread ingest, and recall
//! parity with the scan (`scripts/bench_shard.sh` gates the numbers).
//!
//! Before timing anything, the bench asserts the hard invariant: with
//! exhaustive probing the store path and the full scan return identical
//! moments with bit-identical scores.
//!
//! Besides the usual `BENCH` lines this prints two `SHARD` lines:
//!
//! ```text
//! SHARD shard_recall sharded_recall_at_10=1.000 queries=4 shards=6
//! SHARD shard_ingest single_thread_ns=123 multi_thread_ns=61 threads=4 cpus=4
//! ```

use sketchql::{
    ingest_sharded, CancelToken, IngestConfig, Matcher, MatcherConfig, RetrievedMoment, ShardSet,
    VideoIndex,
};
use sketchql_bench::harness::Harness;
use sketchql_bench::{bench_model, bench_video};
use sketchql_datasets::{query_clip, EventKind};
use std::hint::black_box;
use std::path::PathBuf;

/// Single-object query kinds (multi-object sketches always fall back).
const QUERIES: &[EventKind] = &[
    EventKind::LeftTurn,
    EventKind::StopAndGo,
    EventKind::LaneChange,
    EventKind::UTurn,
];

fn key(m: &RetrievedMoment) -> (u32, u32, Vec<u64>) {
    (m.start, m.end, m.track_ids.clone())
}

fn recall_at_10(got: &[RetrievedMoment], scan: &[RetrievedMoment]) -> (usize, usize) {
    let top: Vec<_> = scan.iter().take(10).map(key).collect();
    let hits = top
        .iter()
        .filter(|k| got.iter().take(10).any(|m| &key(m) == *k))
        .count();
    (hits, top.len())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skql-bench-shard-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn main() {
    println!(
        "# shard benches (telemetry feature: {})",
        if cfg!(feature = "telemetry") {
            "on"
        } else {
            "off"
        }
    );
    let quick = std::env::var_os("SKETCHQL_BENCH_QUICK").is_some();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = bench_model();
    let video = bench_video(if quick { 1 } else { 2 }, 47);
    let index = VideoIndex::from_truth(&video);
    let m = Matcher::with_config(model.similarity(), MatcherConfig::default());

    let spans: Vec<u32> = QUERIES.iter().map(|&k| query_clip(k).span()).collect();
    let ingest_cfg = IngestConfig::from_matcher(&m.config, &spans);
    // Shard width chosen so the fixture splits into a handful of shards.
    let shard_frames = (index.frames / 6).max(1);

    // Timed ingest: single-thread, then one worker per CPU. Embeddings
    // are deterministic, so both runs write byte-identical sets.
    let work = temp_dir("sets");
    let mut single_cfg = ingest_cfg.clone();
    single_cfg.threads = 1;
    let started = std::time::Instant::now();
    ingest_sharded(
        &m.sim,
        &index,
        "bench",
        &single_cfg,
        shard_frames,
        &work.join("single.skset"),
        &|_| {},
    )
    .expect("single-thread sharded ingest");
    let single_ns = started.elapsed().as_nanos();

    let mut multi_cfg = ingest_cfg.clone();
    multi_cfg.threads = cpus;
    let started = std::time::Instant::now();
    let set = ingest_sharded(
        &m.sim,
        &index,
        "bench",
        &multi_cfg,
        shard_frames,
        &work.join("multi.skset"),
        &|_| {},
    )
    .expect("parallel sharded ingest");
    let multi_ns = started.elapsed().as_nanos();
    let shard_dir = work.join("multi.skset");
    let shards = set.shard_count();
    drop(set);
    println!("SHARD shard_ingest single_thread_ns={single_ns} multi_thread_ns={multi_ns} threads={cpus} cpus={cpus}");

    // Hard invariant first: exhaustive probing makes the store path
    // identical to the scan, moments and score bits alike.
    let mut set = ShardSet::open(&shard_dir).expect("attach shard set");
    set.nprobe = set.nlist();
    let mut hits = 0usize;
    let mut total = 0usize;
    for &kind in QUERIES {
        let query = query_clip(kind);
        let scan = m.search(&index, &query).expect("scan");
        let via_shards = m
            .search_with_shards(&index, &set, &query, &CancelToken::none())
            .expect("sharded search");
        assert!(via_shards.from_store, "{kind:?} fell back");
        assert_eq!(
            via_shards.moments, scan,
            "{kind:?}: sharded path diverged from the scan"
        );
        for (a, b) in via_shards.moments.iter().zip(&scan) {
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "{kind:?}: score bits drifted"
            );
        }
        let (h, t) = recall_at_10(&via_shards.moments, &scan);
        hits += h;
        total += t;
    }
    let recall = hits as f64 / total.max(1) as f64;
    println!(
        "SHARD shard_recall sharded_recall_at_10={recall:.3} queries={} shards={shards}",
        QUERIES.len()
    );
    drop(set);

    // Cold-start comparison: attach reads the manifest and one 64-byte
    // header per shard; a full verify maps and checksums every payload
    // — what an eager attach would cost.
    let mut h = Harness::from_env();
    let mut group = h.group("shard_attach");
    group.sample_size(20);
    group.bench("attach_sharded", |b| {
        b.iter(|| black_box(ShardSet::open(black_box(&shard_dir)).expect("attach")))
    });
    group.bench("attach_and_verify", |b| {
        b.iter(|| {
            let set = ShardSet::open(black_box(&shard_dir)).expect("attach");
            set.verify().expect("verify");
            black_box(set)
        })
    });
    group.finish();

    std::fs::remove_dir_all(&work).ok();
}
