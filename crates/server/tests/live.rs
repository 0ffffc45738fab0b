//! Live-monitoring acceptance: a standing query registered before an
//! append receives exactly the matches an offline epoch-scoped query
//! over the appended range returns — no duplicates, no misses, scores
//! bit-identical — across several epochs; the registry survives a
//! restart and catches up on appends committed while the server was
//! down; the wire protocol round-trips the whole flow; and the poller
//! turns an epoch committed behind the engine's back into notifications.

mod common;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::{append_frames, ingest_sharded, IngestConfig, MatcherConfig, ShardSet};
use sketchql_datasets::{
    extend_video, generate_video, query_clip, EventKind, ExtendConfig, SceneFamily, SyntheticVideo,
    VideoConfig,
};
use sketchql_server::{
    Client, ClientError, Engine, EngineConfig, EngineError, ErrorKind, LivePoller, QuerySpec,
    Server, LIVE_CLASS, PROTOCOL_VERSION,
};
use sketchql_trajectory::{Clip, Trajectory};

use common::tiny_model;

/// A base video plus streamed continuations: one ingest epoch per
/// continuation.
fn streaming_stages(seed: u64, continuations: u64) -> Vec<SyntheticVideo> {
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
    let mut stages = vec![base];
    for k in 1..=continuations {
        let next = extend_video(
            stages.last().unwrap(),
            ext,
            &mut StdRng::seed_from_u64(seed + k),
        );
        stages.push(next);
    }
    stages
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skql-live-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ingest_cfg(query: &Clip) -> IngestConfig {
    IngestConfig::from_matcher(&MatcherConfig::default(), &[query.span()])
}

/// Reopens the shard set at `dir` with exhaustive probing so the store
/// path is provably exact (matches the scan bit-for-bit).
fn exhaustive_set(dir: &std::path::Path) -> ShardSet {
    let mut set = ShardSet::open(dir).expect("reopen shard set");
    set.nprobe = set.nlist();
    set
}

/// The acceptance property: for every appended epoch, the standing
/// query's drained notifications equal an offline query scoped to the
/// same range, bit-for-bit.
#[test]
fn standing_query_matches_offline_scoped_query_per_epoch() {
    let model = tiny_model();
    let query = query_clip(EventKind::LeftTurn);
    let stages = streaming_stages(61, 3);
    let indexes: Vec<sketchql::VideoIndex> = stages
        .iter()
        .map(sketchql::VideoIndex::from_truth)
        .collect();
    let dir = temp_dir("epochs");
    ingest_sharded(
        &model.similarity(),
        &indexes[0],
        "alpha",
        &ingest_cfg(&query),
        25,
        &dir,
        &|_| {},
    )
    .unwrap();

    let mut datasets = BTreeMap::new();
    datasets.insert("alpha".to_string(), indexes[0].clone());
    datasets.insert("beta".to_string(), common::small_index(12));
    let mut stores = BTreeMap::new();
    stores.insert("alpha".to_string(), exhaustive_set(&dir));
    let engine =
        Engine::start_with_stores(model.clone(), datasets, stores, EngineConfig::default());

    let reg = engine.register("alpha", query.clone(), None, None).unwrap();
    assert_eq!(reg.watermark, indexes[0].frames);
    // Nothing appended yet: the queue exists but is empty.
    let feed = engine.notifications(reg.id, None).unwrap();
    assert!(feed.matches.is_empty());
    assert_eq!(feed.watermark, indexes[0].frames);

    let mut total = 0usize;
    for (k, index) in indexes.iter().enumerate().skip(1) {
        let prev_frames = indexes[k - 1].frames;
        let out = append_frames(&model.similarity(), index, &dir, 2, &|_| {}).unwrap();
        assert_eq!(out.epoch, k as u64);
        drop(out);
        let reload = engine
            .reload_dataset("alpha", index.clone(), exhaustive_set(&dir))
            .unwrap();
        assert_eq!(reload.epoch, k as u64);
        assert_eq!(reload.frames, index.frames);
        assert_eq!(reload.evaluated, 1, "one registration was due");

        // Offline reference: the same engine, the same snapshot, the
        // same scope — an interactive query over the appended range.
        let offline = engine
            .execute(QuerySpec {
                min_end: Some(prev_frames),
                ..QuerySpec::new("alpha", query.clone())
            })
            .unwrap();
        assert_eq!(reload.delivered, offline.moments.len());

        let feed = engine.notifications(reg.id, None).unwrap();
        assert_eq!(feed.epoch, k as u64);
        assert_eq!(feed.watermark, index.frames);
        assert_eq!(feed.dropped, 0);
        assert_eq!(
            feed.matches.len(),
            offline.moments.len(),
            "epoch {k}: match count diverged from the offline scoped query"
        );
        for (m, r) in feed.matches.iter().zip(&offline.moments) {
            assert_eq!((m.start, m.end), (r.start, r.end), "epoch {k}");
            assert_eq!(m.score.to_bits(), r.score.to_bits(), "epoch {k}");
            assert_eq!(m.track_ids, r.track_ids, "epoch {k}");
            assert_eq!(m.epoch, k as u64);
        }
        total += feed.matches.len();

        // Drained means drained: a second poll returns nothing new.
        let again = engine.notifications(reg.id, None).unwrap();
        assert!(again.matches.is_empty(), "epoch {k}: duplicate delivery");
    }
    assert!(total > 0, "fixture produced no live matches at all");

    // The live admission class was auto-declared at its documented
    // priority and did the evaluations.
    let stats = engine.stats();
    let live = stats
        .classes
        .iter()
        .find(|c| c.name == LIVE_CLASS)
        .expect("live class declared");
    assert_eq!(live.priority, -100);
    assert!(live.completed >= 3, "one evaluation per epoch");

    // A dataset without a store cannot host a standing query, and an
    // unknown name is its own error.
    let Err(EngineError::NotStored(_)) =
        engine.register("beta", query_clip(EventKind::Overtake), None, None)
    else {
        panic!("store-less dataset must not register");
    };
    let Err(EngineError::UnknownDataset(_)) =
        engine.register("gamma", query_clip(EventKind::Overtake), None, None)
    else {
        panic!("unknown dataset must not register");
    };
    // Five objects exceed the encoder's slot budget: such a query would
    // fail on every epoch, so it is refused up front and never saved.
    let t = &query.objects[0];
    let crowd = (0..5)
        .map(|i| Trajectory::from_points(i, t.class, t.points().to_vec()))
        .collect();
    let Err(EngineError::Similarity(_)) =
        engine.register("alpha", Clip::new(1000.0, 600.0, crowd), None, None)
    else {
        panic!("an unembeddable query must not register");
    };
    assert!(
        engine.notifications(reg.id + 1, None).is_none(),
        "the refused query took no registry entry"
    );
    assert!(!engine.unregister(reg.id + 100));
    assert!(engine.unregister(reg.id));
    assert!(
        engine.notifications(reg.id, None).is_none(),
        "gone after unregister"
    );

    engine.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// What an index remembers of its scans leaves with the index: after a
/// reload the engine answers a scanning (two-object) sketch exactly like
/// an engine freshly started on the extended video, and the dataset's
/// memo starts from nothing — there is no invalidation to get wrong.
#[test]
fn a_reloaded_dataset_answers_like_a_freshly_started_engine() {
    let model = tiny_model();
    let stages = streaming_stages(67, 1);
    let dir = temp_dir("reload-memo");
    let cfg = ingest_cfg(&query_clip(EventKind::LeftTurn));
    let base = sketchql::VideoIndex::from_truth(&stages[0]);
    ingest_sharded(&model.similarity(), &base, "alpha", &cfg, 25, &dir, &|_| {}).unwrap();
    let start = |index: sketchql::VideoIndex| {
        let datasets = BTreeMap::from([("alpha".to_string(), index)]);
        let stores = BTreeMap::from([("alpha".to_string(), exhaustive_set(&dir))]);
        Engine::start_with_stores(model.clone(), datasets, stores, EngineConfig::default())
    };
    let memo_segments = |engine: &Engine| engine.stats().datasets[0].memo_segments;
    let crossing = || QuerySpec::new("alpha", query_clip(EventKind::PerpendicularCrossing));

    let engine = start(base);
    let before = engine.execute(crossing()).unwrap();
    let remembered = memo_segments(&engine);
    assert!(remembered > 0, "two-object sketches scan");
    assert_eq!(engine.execute(crossing()).unwrap().moments, before.moments);
    assert_eq!(
        memo_segments(&engine),
        remembered,
        "the second scan added nothing"
    );

    let extended = || sketchql::VideoIndex::from_truth(&stages[1]);
    drop(append_frames(&model.similarity(), &extended(), &dir, 2, &|_| {}).unwrap());
    engine
        .reload_dataset("alpha", extended(), exhaustive_set(&dir))
        .unwrap();
    assert_eq!(memo_segments(&engine), 0, "a new index remembers nothing");
    let after = engine.execute(crossing()).unwrap();

    let fresh = start(extended());
    let want = fresh.execute(crossing()).unwrap();
    assert_eq!(after.moments, want.moments);
    assert_ne!(
        after.moments, before.moments,
        "fixture: the appended frames matter"
    );
    assert_eq!(memo_segments(&engine), memo_segments(&fresh));
    assert!(
        memo_segments(&engine) > remembered,
        "a longer video, more segments"
    );

    engine.shutdown();
    fresh.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Registrations survive a restart through the durable registry, and
/// appends committed while the server was down are evaluated at
/// startup (catch-up), so matches are delayed — never lost.
#[test]
fn registry_survives_restart_and_catches_up() {
    let model = tiny_model();
    let query = query_clip(EventKind::StopAndGo);
    let stages = streaming_stages(71, 1);
    let base = sketchql::VideoIndex::from_truth(&stages[0]);
    let grown = sketchql::VideoIndex::from_truth(&stages[1]);
    let dir = temp_dir("restart");
    let registry = dir.join("registry.json");
    ingest_sharded(
        &model.similarity(),
        &base,
        "alpha",
        &ingest_cfg(&query),
        25,
        &dir.join("set"),
        &|_| {},
    )
    .unwrap();
    let config = EngineConfig {
        registry_path: Some(registry.clone()),
        ..EngineConfig::default()
    };

    let mut datasets = BTreeMap::new();
    datasets.insert("alpha".to_string(), base.clone());
    let mut stores = BTreeMap::new();
    stores.insert("alpha".to_string(), exhaustive_set(&dir.join("set")));
    let engine = Engine::start_with_stores(model.clone(), datasets, stores, config.clone());
    let reg = engine.register("alpha", query.clone(), None, None).unwrap();
    engine.shutdown();
    drop(engine);

    // The append lands while no server is running.
    append_frames(&model.similarity(), &grown, &dir.join("set"), 2, &|_| {}).unwrap();

    // Restart against the grown store: startup catch-up must evaluate
    // the restored registration over the missed range.
    let mut datasets = BTreeMap::new();
    datasets.insert("alpha".to_string(), grown.clone());
    let mut stores = BTreeMap::new();
    stores.insert("alpha".to_string(), exhaustive_set(&dir.join("set")));
    let engine = Engine::start_with_stores(model, datasets, stores, config);
    let offline = engine
        .execute(QuerySpec {
            min_end: Some(base.frames),
            ..QuerySpec::new("alpha", query.clone())
        })
        .unwrap();
    let feed = engine
        .notifications(reg.id, None)
        .expect("registration restored from disk");
    assert_eq!(feed.epoch, 1);
    assert_eq!(feed.watermark, grown.frames);
    assert_eq!(feed.matches.len(), offline.moments.len());
    for (m, r) in feed.matches.iter().zip(&offline.moments) {
        assert_eq!((m.start, m.end), (r.start, r.end));
        assert_eq!(m.score.to_bits(), r.score.to_bits());
    }

    // Fresh ids keep counting past the restored ones.
    let next = engine.register("alpha", query, None, None).unwrap();
    assert!(next.id > reg.id);

    engine.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The whole flow over the wire: register, append + reload, drain,
/// unregister — with the v6 protocol version announced on ping.
#[test]
fn wire_register_and_notifications_round_trip() {
    let model = tiny_model();
    let query = query_clip(EventKind::LaneChange);
    let stages = streaming_stages(81, 1);
    let base = sketchql::VideoIndex::from_truth(&stages[0]);
    let grown = sketchql::VideoIndex::from_truth(&stages[1]);
    let dir = temp_dir("wire");
    ingest_sharded(
        &model.similarity(),
        &base,
        "alpha",
        &ingest_cfg(&query),
        25,
        &dir,
        &|_| {},
    )
    .unwrap();

    let mut datasets = BTreeMap::new();
    datasets.insert("alpha".to_string(), base.clone());
    datasets.insert("beta".to_string(), common::small_index(12));
    let mut stores = BTreeMap::new();
    stores.insert("alpha".to_string(), exhaustive_set(&dir));
    let engine =
        Engine::start_with_stores(model.clone(), datasets, stores, EngineConfig::default());
    let server = Server::start(engine, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);

    // Store-less datasets refuse registration with a BadRequest.
    let err = client
        .register_event("beta", "lane_change", None, None)
        .unwrap_err();
    let ClientError::Server { kind, .. } = err else {
        panic!("expected a server error, got {err}");
    };
    assert_eq!(kind, ErrorKind::BadRequest);

    let reg = client
        .register_event("alpha", "lane_change", None, None)
        .unwrap();
    assert_eq!(reg.watermark, base.frames);

    append_frames(&model.similarity(), &grown, &dir, 2, &|_| {}).unwrap();
    let reload = server
        .engine()
        .reload_dataset("alpha", grown.clone(), exhaustive_set(&dir))
        .unwrap();
    assert_eq!(reload.epoch, 1);

    let offline = server
        .engine()
        .execute(QuerySpec {
            min_end: Some(base.frames),
            ..QuerySpec::new("alpha", query)
        })
        .unwrap();
    let feed = client.notifications(reg.registration_id, None).unwrap();
    assert_eq!(feed.epoch, 1);
    assert_eq!(feed.watermark, grown.frames);
    assert_eq!(feed.matches.len(), offline.moments.len());
    for (m, r) in feed.matches.iter().zip(&offline.moments) {
        assert_eq!((m.start, m.end), (r.start, r.end));
        assert_eq!(m.score.to_bits(), r.score.to_bits());
        assert_eq!(m.epoch, 1);
    }

    client.unregister(reg.registration_id).unwrap();
    let err = client.notifications(reg.registration_id, None).unwrap_err();
    let ClientError::Server { kind, .. } = err else {
        panic!("expected a server error, got {err}");
    };
    assert_eq!(kind, ErrorKind::BadRequest);

    client.shutdown().unwrap();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The loop `serve --live-poll-ms` runs, without the CLI: an append
/// committed behind the engine's back is noticed by the poller, reloaded
/// with the caller's index and set configuration, and delivered to the
/// standing query — the same matches an offline scoped query returns.
#[test]
fn poller_turns_an_appended_epoch_into_notifications() {
    let model = tiny_model();
    let query = query_clip(EventKind::LeftTurn);
    let stages = streaming_stages(91, 1);
    let base = sketchql::VideoIndex::from_truth(&stages[0]);
    let grown = sketchql::VideoIndex::from_truth(&stages[1]);
    let dir = temp_dir("poller");
    let sim = model.similarity();
    ingest_sharded(&sim, &base, "alpha", &ingest_cfg(&query), 25, &dir, &|_| {}).unwrap();

    let mut datasets = BTreeMap::new();
    datasets.insert("alpha".to_string(), base.clone());
    let mut stores = BTreeMap::new();
    stores.insert("alpha".to_string(), exhaustive_set(&dir));
    let engine = Arc::new(Engine::start_with_stores(
        model,
        datasets,
        stores,
        EngineConfig::default(),
    ));
    let rebuilt = grown.clone();
    let poller = LivePoller::spawn(
        Arc::clone(&engine),
        vec![("alpha".to_string(), dir.clone(), 0)],
        Duration::from_millis(20),
        move |_| Ok(rebuilt.clone()),
        Some(usize::MAX), // clamped to the set's list count: exhaustive
    )
    .unwrap();
    let reg = engine.register("alpha", query.clone(), None, None).unwrap();

    append_frames(&sim, &grown, &dir, 2, &|_| {}).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let feed = loop {
        let feed = engine.notifications(reg.id, None).unwrap();
        if feed.epoch == 1 {
            break feed;
        }
        assert!(Instant::now() < deadline, "the poller never reloaded");
        std::thread::sleep(Duration::from_millis(10));
    };
    poller.stop();

    assert_eq!(feed.watermark, grown.frames);
    let offline = engine
        .execute(QuerySpec {
            min_end: Some(base.frames),
            ..QuerySpec::new("alpha", query)
        })
        .unwrap();
    assert_eq!(feed.matches.len(), offline.moments.len());
    for (m, r) in feed.matches.iter().zip(&offline.moments) {
        assert_eq!((m.start, m.end), (r.start, r.end));
        assert_eq!(m.score.to_bits(), r.score.to_bits());
    }
    engine.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
