//! Append-equivalence gate for live ingest: `ingest` followed by any
//! sequence of `append_frames` calls must produce a shard set whose
//! rows, vectors, and query results are byte-identical to one
//! from-scratch sharded ingest of the full dataset — across several
//! split points and shard widths — and epoch-scoped search must agree
//! between the two sets while only reporting windows inside the scope.
//! An append also pays for the frames it adds, not for the set: a short
//! tail behind a long prefix embeds a small fraction of the rows. And a
//! reader attached before the appends keeps the epoch it attached.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::cancel::CancelToken;
use sketchql::matcher::{Matcher, MatcherConfig};
use sketchql::similarity::LearnedSimilarity;
use sketchql::training::{train, TrainingConfig};
use sketchql::vshard::{append_frames, ingest_sharded, ShardSet};
use sketchql::vstore::IngestConfig;
use sketchql::VideoIndex;
use sketchql_datasets::{
    extend_video, generate_video, query_clip, EventKind, ExtendConfig, SceneFamily, SyntheticVideo,
    VideoConfig,
};
use sketchql_store::{LoadedShard, Manifest, StoreError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn tiny_model() -> sketchql::training::TrainedModel {
    let mut cfg = TrainingConfig::tiny();
    cfg.steps = 8;
    train(cfg)
}

fn matcher(model: &sketchql::training::TrainedModel) -> Matcher<LearnedSimilarity> {
    Matcher::with_config(model.similarity(), MatcherConfig::default())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skql-live-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A base video plus four streamed continuations: five stages, four
/// split points. The last continuation is a short tail (no events, one
/// distractor) behind the long prefix the first three built.
fn streaming_stages(seed: u64) -> Vec<SyntheticVideo> {
    let cfg = VideoConfig {
        family: SceneFamily::UrbanIntersection,
        events_per_kind: 1,
        distractors: 2,
        fps: 30.0,
    };
    let base = generate_video(cfg, seed, &mut StdRng::seed_from_u64(seed));
    let ext = ExtendConfig {
        events_per_kind: 1,
        distractors: 1,
    };
    let tail = ExtendConfig {
        events_per_kind: 0,
        distractors: 1,
    };
    let mut stages = vec![base];
    for (k, ext) in (1u64..).zip([ext, ext, ext, tail]) {
        let next = extend_video(
            stages.last().unwrap(),
            ext,
            &mut StdRng::seed_from_u64(seed + k),
        );
        stages.push(next);
    }
    stages
}

/// The files of a directory, by name.
fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// Shard-level byte identity of rows and vectors between two sets over
/// the same video: every shard holds the same rows with bit-identical
/// vectors (only the coarse list assignment may differ — the quantizer
/// is trained per ingest but never retrained on append).
fn assert_same_rows_and_vectors(a: &ShardSet, b: &ShardSet) {
    assert_eq!(a.shard_count(), b.shard_count());
    assert_eq!(a.total_rows(), b.total_rows());
    let open = |set: &ShardSet, e: &sketchql_store::ManifestShard| {
        let sum = sketchql_store::manifest::parse_hex_u64(&e.checksum).unwrap();
        LoadedShard::open(&set.dir().join(&e.file), Some(sum)).unwrap()
    };
    for (ea, eb) in a.manifest().shards.iter().zip(&b.manifest().shards) {
        assert_eq!(
            (ea.frame_start, ea.frame_end),
            (eb.frame_start, eb.frame_end)
        );
        assert_eq!(ea.rows, eb.rows, "shard {} row count differs", ea.shard_id);
        let (sa, sb) = (open(a, ea), open(b, eb));
        for r in 0..ea.rows as usize {
            assert_eq!(sa.row(r), sb.row(r), "shard {} row {r}", ea.shard_id);
            let (va, vb) = (sa.vector(r), sb.vector(r));
            assert_eq!(va.len(), vb.len());
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits(), "shard {} row {r}", ea.shard_id);
            }
        }
    }
}

#[test]
fn append_equals_from_scratch_ingest_across_splits_and_widths() {
    let model = tiny_model();
    let m = matcher(&model);
    let queries = [
        query_clip(EventKind::LeftTurn),
        query_clip(EventKind::StopAndGo),
        query_clip(EventKind::LaneChange),
    ];
    let spans: Vec<u32> = queries.iter().map(|q| q.span()).collect();
    let ingest_cfg = IngestConfig::from_matcher(&m.config, &spans);
    let stages = streaming_stages(41);
    let indexes: Vec<VideoIndex> = stages.iter().map(VideoIndex::from_truth).collect();
    let full = indexes.last().unwrap();

    for shard_frames in [25u32, 60] {
        // Incremental: ingest the base, then commit one append per
        // continuation (four split points).
        let dir_inc = temp_dir(&format!("inc-{shard_frames}"));
        let set = ingest_sharded(
            &m.sim,
            &indexes[0],
            "v",
            &ingest_cfg,
            shard_frames,
            &dir_inc,
            &|_| {},
        )
        .unwrap();
        assert_eq!(set.manifest().epoch, 0);
        drop(set);
        let mut total_reused = 0usize;
        let mut short_appends = 0;
        for (k, index) in indexes.iter().enumerate().skip(1) {
            // The first append also runs on one thread over a copy: the
            // thread count must not change a byte.
            let dir_serial = (k == 1).then(|| {
                let dir = temp_dir(&format!("inc-serial-{shard_frames}"));
                for (name, bytes) in dir_files(&dir_inc) {
                    std::fs::write(dir.join(name), bytes).unwrap();
                }
                append_frames(&m.sim, index, &dir, 1, &|_| {}).unwrap();
                dir
            });
            let out = append_frames(&m.sim, index, &dir_inc, 3, &|_| {}).unwrap();
            if let Some(dir_serial) = dir_serial {
                assert_eq!(
                    dir_files(&dir_inc),
                    dir_files(&dir_serial),
                    "width {shard_frames}: 1- and 3-thread appends wrote different bytes"
                );
                std::fs::remove_dir_all(&dir_serial).ok();
            }
            assert_eq!(out.epoch, k as u64, "epochs advance by one per commit");
            assert_eq!(out.old_frames, indexes[k - 1].frames);
            assert_eq!(out.new_frames, index.frames);
            assert!(out.embedded_rows > 0, "appended frames own new windows");
            assert!(out.rewritten_shards >= 1);
            total_reused += out.reused_rows;
            // An append of at most a tenth of the frames embeds at most
            // a fifth of the rows a re-ingest of the grown set would.
            if (out.new_frames - out.old_frames) * 10 <= out.new_frames {
                short_appends += 1;
                assert!(
                    out.embedded_rows as u64 * 5 <= out.set.total_rows(),
                    "width {shard_frames}: appending frames {}..{} embedded {} of {} rows",
                    out.old_frames,
                    out.new_frames,
                    out.embedded_rows,
                    out.set.total_rows()
                );
            }
            drop(out);
        }
        assert_eq!(short_appends, 1, "test premise: the tail is a short append");
        assert!(
            total_reused > 0,
            "width {shard_frames}: appends never reused a row"
        );

        // From-scratch reference over the final dataset.
        let dir_full = temp_dir(&format!("full-{shard_frames}"));
        ingest_sharded(
            &m.sim,
            full,
            "v",
            &ingest_cfg,
            shard_frames,
            &dir_full,
            &|_| {},
        )
        .unwrap();

        let inc = ShardSet::open(&dir_inc).unwrap();
        let scratch = ShardSet::open(&dir_full).unwrap();

        // (a) Shard-level byte identity of rows and vectors: the
        // incremental grid replays the from-scratch enumeration.
        assert_same_rows_and_vectors(&inc, &scratch);

        // (b) Query-result byte identity under exact re-rank with
        // exhaustive probes, for every query.
        let mut inc = inc;
        let mut scratch = scratch;
        inc.nprobe = inc.nlist();
        scratch.nprobe = scratch.nlist();
        for query in &queries {
            let a = m
                .search_with_shards(full, &inc, query, &CancelToken::none())
                .unwrap();
            let b = m
                .search_with_shards(full, &scratch, query, &CancelToken::none())
                .unwrap();
            assert!(a.from_store && b.from_store);
            assert_eq!(
                a.moments, b.moments,
                "width {shard_frames}: results diverged"
            );
            for (x, y) in a.moments.iter().zip(&b.moments) {
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }

        // (c) Epoch-scoped search agrees between the sets, only reports
        // windows inside the scope, and an unbounded scope is the
        // unscoped query bit-for-bit.
        let query = &queries[0];
        let unscoped = m
            .search_with_shards(full, &inc, query, &CancelToken::none())
            .unwrap();
        let zero = m
            .search_with_shards_scoped(full, &inc, query, &CancelToken::none(), Some(0))
            .unwrap();
        assert_eq!(zero.moments, unscoped.moments);
        for stage in &indexes[..3] {
            let min_end = stage.frames;
            let a = m
                .search_with_shards_scoped(full, &inc, query, &CancelToken::none(), Some(min_end))
                .unwrap();
            let b = m
                .search_with_shards_scoped(
                    full,
                    &scratch,
                    query,
                    &CancelToken::none(),
                    Some(min_end),
                )
                .unwrap();
            assert!(a.from_store && b.from_store);
            assert_eq!(a.moments, b.moments, "scope {min_end} diverged");
            // Note: moment ends may dip slightly below the scope — the
            // ranking pipeline's boundary refinement tightens matched
            // windows after scoping; the scope governs which *windows*
            // are considered, not the refined output range.
        }
        // A scope past the last frame admits no window at all.
        let beyond = m
            .search_with_shards_scoped(
                full,
                &inc,
                query,
                &CancelToken::none(),
                Some(full.frames + 1),
            )
            .unwrap();
        assert!(beyond.moments.is_empty(), "scope beyond the video matched");

        std::fs::remove_dir_all(&dir_inc).ok();
        std::fs::remove_dir_all(&dir_full).ok();
    }
}

/// The CLI's default layout — the whole base video in one shard — then
/// one append of everything after it, on two workers: the rows and
/// vectors equal a from-scratch ingest of the whole video at that shard
/// width on one worker, bit for bit, and so do the answers.
#[test]
fn an_append_onto_a_one_shard_ingest_equals_a_from_scratch_ingest() {
    let model = tiny_model();
    let m = matcher(&model);
    let query = query_clip(EventKind::LeftTurn);
    let mut cfg = IngestConfig::from_matcher(&m.config, &[query.span()]);
    let stages = streaming_stages(43);
    let (base, full) = (
        VideoIndex::from_truth(&stages[0]),
        VideoIndex::from_truth(stages.last().unwrap()),
    );
    let shard_frames = base.frames;

    let dir_inc = temp_dir("one-shard-inc");
    cfg.threads = 2;
    let set = ingest_sharded(&m.sim, &base, "v", &cfg, shard_frames, &dir_inc, &|_| {}).unwrap();
    assert_eq!(set.shard_count(), 1, "test premise: one whole-video shard");
    drop(set);
    let out = append_frames(&m.sim, &full, &dir_inc, 2, &|_| {}).unwrap();
    assert!(out.embedded_rows > 0 && out.reused_rows > 0);
    drop(out);

    let dir_full = temp_dir("one-shard-full");
    cfg.threads = 1;
    ingest_sharded(&m.sim, &full, "v", &cfg, shard_frames, &dir_full, &|_| {}).unwrap();
    let (mut inc, mut scratch) = (
        ShardSet::open(&dir_inc).unwrap(),
        ShardSet::open(&dir_full).unwrap(),
    );
    assert_same_rows_and_vectors(&inc, &scratch);
    inc.nprobe = inc.nlist();
    scratch.nprobe = scratch.nlist();
    let search = |set: &ShardSet| {
        m.search_with_shards(&full, set, &query, &CancelToken::none())
            .unwrap()
    };
    let (a, b) = (search(&inc), search(&scratch));
    assert!(a.from_store && b.from_store);
    assert_eq!(a.moments, b.moments);
    std::fs::remove_dir_all(&dir_inc).ok();
    std::fs::remove_dir_all(&dir_full).ok();
}

#[test]
fn append_guards_provenance_and_is_idempotent() {
    let model = tiny_model();
    let m = matcher(&model);
    let ingest_cfg = IngestConfig::from_matcher(&m.config, &[48]);
    let stages = streaming_stages(51);
    let base = VideoIndex::from_truth(&stages[0]);
    let grown = VideoIndex::from_truth(&stages[1]);
    let dir = temp_dir("guards");
    ingest_sharded(&m.sim, &base, "v", &ingest_cfg, 30, &dir, &|_| {}).unwrap();

    // Re-appending an index the set already covers is a no-op.
    let out = append_frames(&m.sim, &base, &dir, 1, &|_| {}).unwrap();
    assert_eq!(out.epoch, 0);
    assert_eq!(out.rewritten_shards, 0);
    drop(out);

    // A different model must be rejected before any work happens.
    let other = {
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 9;
        train(cfg)
    };
    let om = matcher(&other);
    let Err(err) = append_frames(&om.sim, &grown, &dir, 1, &|_| {}) else {
        panic!("append with a foreign model must fail");
    };
    assert!(err.to_string().contains("model"), "got: {err}");

    // Shrinking the video must be rejected.
    append_frames(&m.sim, &grown, &dir, 1, &|_| {}).unwrap();
    let Err(err) = append_frames(&m.sim, &base, &dir, 1, &|_| {}) else {
        panic!("shrinking append must fail");
    };
    assert!(err.to_string().contains("shrink"), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A set whose manifest records another stride than the window grid's
/// came from outside: an append must refuse it with a typed error
/// before it sweeps, embeds or writes anything.
#[test]
fn append_refuses_a_set_on_another_grid() {
    let model = tiny_model();
    let m = matcher(&model);
    let ingest_cfg = IngestConfig::from_matcher(&m.config, &[48]);
    let stages = streaming_stages(54);
    let base = VideoIndex::from_truth(&stages[0]);
    let grown = VideoIndex::from_truth(&stages[1]);
    let dir = temp_dir("foreign-grid");
    ingest_sharded(&m.sim, &base, "v", &ingest_cfg, 30, &dir, &|_| {}).unwrap();
    let mut manifest = Manifest::load(&dir).unwrap();
    manifest.stride_frac_bits = 0.5f32.to_bits();
    manifest.save(&dir).unwrap();
    // An orphan a sweep would remove: refusing comes before the sweep.
    std::fs::write(dir.join("shard-0001.tmp"), b"torn write").unwrap();
    let before = dir_files(&dir);

    let Err(err) = append_frames(&m.sim, &grown, &dir, 1, &|_| {}) else {
        panic!("append onto another grid must fail");
    };
    assert!(
        matches!(&err, StoreError::BadHeader { detail, .. } if detail.contains("window grid")),
        "got: {err}"
    );
    assert!(
        dir_files(&dir) == before,
        "the refused append touched the set"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A crashed append leaves next-epoch shard files (killed before the
/// manifest commit) and write-then-rename temporaries (killed before a
/// rename). The next append must sweep all of them, and still commit a
/// set that verifies and equals a from-scratch ingest.
#[test]
fn append_sweeps_what_a_crashed_append_left_behind() {
    let model = tiny_model();
    let m = matcher(&model);
    let ingest_cfg = IngestConfig::from_matcher(&m.config, &[48]);
    let stages = streaming_stages(53);
    let base = VideoIndex::from_truth(&stages[0]);
    let grown = VideoIndex::from_truth(&stages[1]);
    let dir = temp_dir("crash");
    ingest_sharded(&m.sim, &base, "v", &ingest_cfg, 30, &dir, &|_| {}).unwrap();

    let orphans = [
        "shard-0009-e0007.skshard",
        "shard-0001.tmp",
        "manifest.json.tmp",
    ];
    for name in orphans {
        std::fs::write(dir.join(name), b"torn write").unwrap();
    }
    append_frames(&m.sim, &grown, &dir, 2, &|_| {}).unwrap();
    for name in orphans {
        assert!(!dir.join(name).exists(), "{name} survived the append");
    }

    let set = ShardSet::open(&dir).unwrap();
    assert_eq!(set.manifest().epoch, 1);
    for shard in &set.manifest().shards {
        assert!(dir.join(&shard.file).is_file(), "{} is gone", shard.file);
    }
    set.verify().unwrap();
    let dir_full = temp_dir("crash-full");
    let scratch = ingest_sharded(&m.sim, &grown, "v", &ingest_cfg, 30, &dir_full, &|_| {}).unwrap();
    assert_same_rows_and_vectors(&set, &scratch);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir_full).ok();
}

/// A reader owns the epoch it attached. It has probed nothing when two
/// appends land behind it — and the second one's sweep unlinks the tail
/// files the first superseded, which this reader's manifest still names.
/// Its maps were taken at attach, so its first probe finds every shard:
/// the query is served from the store with the answer the epoch gave
/// before the appends, not silently handed to the scan.
#[test]
fn a_lazy_reader_keeps_its_epoch_across_two_appends() {
    let model = tiny_model();
    let m = matcher(&model);
    let query = query_clip(EventKind::LeftTurn);
    let ingest_cfg = IngestConfig::from_matcher(&m.config, &[query.span()]);
    let stages = streaming_stages(67);
    let indexes: Vec<VideoIndex> = stages[..3].iter().map(VideoIndex::from_truth).collect();
    let dir = temp_dir("pinned");
    let none = CancelToken::none();

    let mut reference =
        ingest_sharded(&m.sim, &indexes[0], "v", &ingest_cfg, 25, &dir, &|_| {}).unwrap();
    reference.nprobe = reference.nlist();
    let want = m
        .search_with_shards(&indexes[0], &reference, &query, &none)
        .unwrap();
    assert!(want.from_store && !want.moments.is_empty());
    drop(reference);

    let mut old = ShardSet::open(&dir).unwrap();
    old.nprobe = old.nlist();
    assert!(old.shard_count() > 2, "fixture needs several shards");
    assert_eq!(old.resident_shards(), 0, "attach must not load any shard");
    let old_tail = dir.join(&old.manifest().shards.last().unwrap().file);

    append_frames(&m.sim, &indexes[1], &dir, 2, &|_| {}).unwrap();
    append_frames(&m.sim, &indexes[2], &dir, 2, &|_| {}).unwrap();
    assert!(
        !old_tail.exists(),
        "fixture: the second append must sweep epoch 0's superseded tail"
    );

    let got = m
        .search_with_shards(&indexes[0], &old, &query, &none)
        .unwrap();
    assert!(got.from_store, "the old epoch's reader lost a shard");
    assert!(!got.fallback);
    assert_eq!(got.moments, want.moments);
    for (a, b) in got.moments.iter().zip(&want.moments) {
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
    old.verify().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
