//! The demo contract: the paper's Q1 sketch — a car making a left turn —
//! ranks both ground-truth left turns of its video first, each bound to
//! the truth car, on every serving path: a session scan, the store, the
//! server over the wire, and a standing query over an appended epoch.
//!
//! The model is `TrainingConfig::default()`, trained here once per test
//! binary. It is never loaded from a cache: the cache is keyed on config
//! and recipe version, so a stale model could pass.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::prelude::*;
use sketchql::telemetry::names;
use sketchql::training::{evaluate_pairs, train};
use sketchql::{
    append_frames, ingest_sharded, CancelToken, IngestConfig, Matcher, MatcherConfig,
    RetrievedMoment, ShardSet, VideoIndex,
};
use sketchql_datasets::{
    extend_video, query_clip, EventKind, ExtendConfig, SceneFamily, SyntheticVideo,
};
use sketchql_server::{Client, Engine, EngineConfig, Server};
use sketchql_simulator::{PairGenerator, RandomSceneSampler};
use sketchql_suite::{demo_video, judge_top_k, q1_sketch};

fn model() -> &'static TrainedModel {
    static MODEL: OnceLock<TrainedModel> = OnceLock::new();
    MODEL.get_or_init(|| train(TrainingConfig::default()))
}

/// Q1's session (Figure 3's video, tracked at upload as `traffic`), the
/// compiled sketch, and a shard set ingested from the session's index.
struct Demo {
    session: SketchQL,
    video: SyntheticVideo,
    query: Clip,
    store: PathBuf,
}

impl Demo {
    fn index(&self) -> &VideoIndex {
        self.session.dataset("traffic").unwrap()
    }

    /// An engine serving `traffic` from a copy of the set at `store`.
    fn engine(&self, store: &std::path::Path) -> Engine {
        let datasets = BTreeMap::from([("traffic".to_string(), self.index().clone())]);
        let set = ShardSet::open(store).unwrap();
        let stores = BTreeMap::from([("traffic".to_string(), set)]);
        Engine::start_with_stores(model().clone(), datasets, stores, EngineConfig::default())
    }
}

fn demo() -> &'static Demo {
    static DEMO: OnceLock<Demo> = OnceLock::new();
    DEMO.get_or_init(|| {
        let mut session = SketchQL::new(model().clone());
        let video = demo_video(SceneFamily::UrbanIntersection, 7);
        session.upload_dataset("traffic", &video);
        let query = q1_sketch().0.compile().unwrap();
        let store = fresh_dir("set");
        let index = session.dataset("traffic").unwrap();
        let lens = IngestConfig::from_matcher(&MatcherConfig::default(), &[query.span()]);
        ingest_sharded(
            &model().similarity(),
            index,
            "traffic",
            &lens,
            512,
            &store,
            &|_| {},
        )
        .unwrap();
        Demo {
            session,
            video,
            query,
            store,
        }
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("demo-contract-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Q1's contract on `moments` (best first): its two left turns in
/// `video` from frame `from` on are the top 2, each at temporal IoU >=
/// 0.5 and bound to the truth car (`sketchql_suite::RIGHT_OBJECT_IOU`).
fn assert_contract(
    path: &str,
    index: &VideoIndex,
    video: &SyntheticVideo,
    from: u32,
    moments: &[RetrievedMoment],
) {
    let mut truth = video.events_of(EventKind::LeftTurn);
    truth.retain(|t| t.start >= from);
    assert_eq!(truth.len(), 2, "{path}: the fixture holds two left turns");
    let judged = judge_top_k(index, video, &truth, moments);
    assert_eq!(judged.len(), 2, "{path}: fewer than 2 moments: {moments:?}");
    for (rank, (m, j)) in moments.iter().zip(judged).enumerate() {
        let rank = rank + 1;
        let j = j.unwrap_or_else(|| panic!("{path}: #{rank} {m:?} is no left turn of {truth:?}"));
        assert!(j.tiou >= 0.5, "{path}: #{rank} {m:?} tIoU {}", j.tiou);
        assert!(
            j.right_object(),
            "{path}: #{rank} {m:?} has box IoU {:.2} with truth car {:?}",
            j.box_iou,
            truth[j.event].object_ids
        );
    }
}

#[test]
fn q1_finds_both_left_turns_on_the_truth_car_in_a_session_scan() {
    let demo = demo();
    let moments = demo.session.run_sketch("traffic", &q1_sketch().0).unwrap();
    assert_contract("session scan", demo.index(), &demo.video, 0, &moments);
}

#[test]
fn q1_finds_both_left_turns_on_the_truth_car_in_the_stored_set() {
    let demo = demo();
    let set = ShardSet::open(&demo.store).unwrap();
    let matcher = Matcher::new(model().similarity());
    let cancel = CancelToken::none();
    let search = matcher
        .search_stored(demo.index(), Some(&set), &demo.query, &cancel, None)
        .unwrap();
    assert!(search.from_store, "the set must serve Q1: {search:?}");
    assert_contract("store", demo.index(), &demo.video, 0, &search.moments);
}

#[test]
fn q1_finds_both_left_turns_on_the_truth_car_over_the_wire() {
    let demo = demo();
    let server = Server::start(demo.engine(&demo.store), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let outcome = client
        .query_clip("traffic", demo.query.clone(), None, None)
        .unwrap();
    let counts = client.trace(Some(outcome.trace_id), None).unwrap()[0]
        .counts
        .clone();
    assert_eq!(counts.get(names::STORE_HITS), Some(&1), "{counts:?}");
    assert_contract("wire", demo.index(), &demo.video, 0, &outcome.moments);
    server.shutdown();
}

#[test]
fn a_standing_q1_finds_both_left_turns_of_an_appended_epoch() {
    let demo = demo();
    let store = fresh_dir("live");
    for file in std::fs::read_dir(&demo.store).unwrap() {
        let file = file.unwrap().path();
        std::fs::copy(&file, store.join(file.file_name().unwrap())).unwrap();
    }
    let engine = demo.engine(&store);
    let registration = engine
        .register("traffic", demo.query.clone(), None, None)
        .unwrap();

    // The next segment of the same camera's stream: two more of every
    // event kind, tracked the way the session tracked the first.
    let ext = ExtendConfig {
        events_per_kind: 2,
        distractors: 10,
    };
    let grown = extend_video(&demo.video, ext, &mut StdRng::seed_from_u64(8));
    let mut session = SketchQL::new(model().clone());
    session.upload_dataset("traffic", &grown);
    let index = session.dataset("traffic").unwrap();
    append_frames(&model().similarity(), index, &store, 2, &|_| {}).unwrap();
    let set = ShardSet::open(&store).unwrap();
    engine
        .reload_dataset("traffic", index.clone(), set)
        .unwrap();

    let feed = engine.notifications(registration.id, None).unwrap();
    let mut moments: Vec<RetrievedMoment> = feed
        .matches
        .into_iter()
        .map(|m| RetrievedMoment {
            start: m.start,
            end: m.end,
            score: m.score,
            track_ids: m.track_ids,
        })
        .collect();
    moments.sort_by(|a, b| b.score.total_cmp(&a.score));
    assert_contract("standing query", index, &grown, demo.video.frames, &moments);
    engine.shutdown();
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn contrastive_training_produces_view_invariance() {
    let model = model();
    let generator = PairGenerator::new(
        RandomSceneSampler::new(model.config.sampler),
        model.config.pairgen,
    );
    let eval = evaluate_pairs(model, &generator, 16, 4242);
    // Two camera views of the same 3D event must embed closer than views
    // of different events — the zero-shot property the paper trains for.
    assert!(
        eval.mean_positive > eval.mean_negative + 0.05,
        "positive pairs should be clearly closer: {eval:?}"
    );
    // Chance is 1/16 = 0.0625; the default recipe reaches ~0.5-0.7 (see
    // experiments T2).
    assert!(
        eval.top1_accuracy > 0.15,
        "top-1 view retrieval should beat chance (1/16): {eval:?}"
    );
}

#[test]
fn feedback_loop_runs_end_to_end() {
    let mut sq = SketchQL::new(model().clone());
    let video = demo_video(SceneFamily::ParkingLot, 79);
    sq.upload_dataset("lot", &video);
    let query = query_clip(EventKind::RightTurn);
    let results = sq.run_query("lot", &query).unwrap();
    assert!(results.len() >= 2);

    let truth = video.events_of(EventKind::RightTurn);
    let feedback: Vec<Feedback> = results
        .iter()
        .take(4)
        .map(|m| Feedback {
            clip: sq.moment_clip("lot", m).unwrap(),
            relevant: truth.iter().any(|t| t.temporal_iou(m.start, m.end) >= 0.3),
        })
        .collect();
    let cfg = TunerConfig {
        epochs: 2,
        ..Default::default()
    };
    sq.apply_feedback(&query, &feedback, &cfg);
    // The session still answers queries after tuning.
    let again = sq.run_query("lot", &query).unwrap();
    for m in &again {
        assert!((0.0..=1.0).contains(&m.score));
    }
}

#[test]
fn learned_similarity_is_view_consistent_on_canonical_queries() {
    // The same canonical query embedded twice gives identical scores, and
    // scoring is symmetric enough that self-similarity is maximal.
    let sim = model().similarity();
    for &kind in EventKind::ALL {
        let q = query_clip(kind);
        let e1 = sim.embed(&q).unwrap();
        let e2 = sim.embed(&q).unwrap();
        assert_eq!(e1, e2, "{kind}: embedding must be deterministic");
        let s = sketchql_nn::cosine_similarity(&e1, &e2);
        assert!((s - 1.0).abs() < 1e-5);
    }
}
