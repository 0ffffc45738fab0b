//! A shard file cut under an attached reader is a typed error, never a
//! crash: a verified shard answers from the memory its set owns, a shard
//! not yet verified fails its first probe as `StoreError::Truncated` and
//! the query falls back to the scan, and the next attach refuses the set.
//!
//! This is its own test binary: it makes a shard fail to load, which
//! moves the process-wide `sketchql.shard.load_errors` counter that
//! `shard_search.rs` reads exactly, and it counts the process's open
//! descriptors, which any test running beside it would move.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::cancel::CancelToken;
use sketchql::matcher::{Matcher, MatcherConfig};
use sketchql::training::{train, TrainingConfig};
use sketchql::vshard::{ingest_sharded, ShardSet};
use sketchql::vstore::IngestConfig;
use sketchql::VideoIndex;
use sketchql_datasets::{generate_video, query_clip, EventKind, SceneFamily, VideoConfig};
use sketchql_store::StoreError;
use sketchql_telemetry::{counter, names, TraceContext};

/// Descriptors this process holds open, where the host lists them.
fn open_fds() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

#[test]
fn truncation_under_an_attached_reader_is_an_error_not_a_crash() {
    let mut cfg = TrainingConfig::tiny();
    cfg.steps = 8;
    let model = train(cfg);
    let video_cfg = VideoConfig {
        family: SceneFamily::UrbanIntersection,
        events_per_kind: 1,
        distractors: 2,
        fps: 30.0,
    };
    let index = VideoIndex::from_truth(&generate_video(
        video_cfg,
        36,
        &mut StdRng::seed_from_u64(36),
    ));
    let m = Matcher::with_config(model.similarity(), MatcherConfig::default());
    let query = query_clip(EventKind::LeftTurn);
    let dir = std::env::temp_dir().join(format!("skql-truncation-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ingest_cfg = IngestConfig::from_matcher(&m.config, &[query.span()]);
    drop(ingest_sharded(&m.sim, &index, "v", &ingest_cfg, 30, &dir, &|_| {}).unwrap());
    let none = CancelToken::none();

    // The reader: attached, then every shard verified. A set holds one
    // descriptor per shard it has not verified, and none after.
    let fds = open_fds();
    let mut warm = ShardSet::open(&dir).unwrap();
    warm.nprobe = warm.nlist();
    assert!(warm.shard_count() > 2, "fixture needs several shards");
    let shards = warm.manifest().shards.clone();
    assert!(
        shards[0].rows > 0,
        "fixture premise: the first shard owns rows"
    );
    if let Some(before) = fds {
        assert_eq!(open_fds(), Some(before + warm.shard_count()));
    }
    let want = m.search_with_shards(&index, &warm, &query, &none).unwrap();
    assert!(want.from_store);
    warm.verify().unwrap();
    if let Some(before) = fds {
        assert_eq!(
            open_fds(),
            Some(before),
            "a verified shard still holds its file"
        );
    }

    // A second reader, attached but never probed.
    let mut cold = ShardSet::open(&dir).unwrap();
    cold.nprobe = cold.nlist();
    assert_eq!(cold.resident_shards(), 0);

    // Cut every shard in place, on the same inode both readers attached.
    for entry in &shards {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(&entry.file))
            .unwrap();
        let len = file.metadata().unwrap().len();
        file.set_len(len / 2).unwrap();
    }

    // The verified reader answers from memory it owns, bit for bit.
    let again = m.search_with_shards(&index, &warm, &query, &none).unwrap();
    assert!(again.from_store);
    assert_eq!(again.moments, want.moments);
    for (a, b) in again.moments.iter().zip(&want.moments) {
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }

    // The cold reader's first probe meets the cut file: one load error,
    // the scan's answer, and a sticky `Truncated` naming the file.
    let load_errors = counter(names::SHARD_LOAD_ERRORS);
    let errors_before = load_errors.get();
    let trace = TraceContext::new();
    let fell_back = {
        let _entered = trace.enter();
        m.search_with_shards(&index, &cold, &query, &none).unwrap()
    };
    let trace = trace.finalize().unwrap();
    assert!(!fell_back.from_store && fell_back.fallback);
    assert_eq!(trace.count(names::STORE_FALLBACK_SHARD_LOAD), 1);
    assert_eq!(trace.count(names::SHARD_LOAD_ERRORS), 1);
    assert_eq!(fell_back.moments, m.search(&index, &query).unwrap());
    assert_eq!(fell_back.moments, want.moments);
    for _ in 0..2 {
        let err = cold.verify().unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
        assert!(err.to_string().contains(&shards[0].file), "{err}");
    }
    assert_eq!(
        load_errors.get() - errors_before,
        1,
        "the cut shard was read again after its error was recorded"
    );

    // The next attach refuses the set from the header check alone.
    let err = ShardSet::open(&dir)
        .err()
        .expect("a cut set must not attach");
    assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
