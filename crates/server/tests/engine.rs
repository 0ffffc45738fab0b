//! Engine-level integration tests: admission control, deadlines,
//! graceful shutdown, and concurrent-vs-sequential byte identity.

mod common;

use std::sync::Arc;
use std::time::Duration;

use sketchql::{CancelToken, Matcher, MatcherConfig, VideoIndex};
use sketchql_datasets::{query_clip, EventKind};
use sketchql_server::{Engine, EngineConfig, EngineError, QuerySpec};
use sketchql_trajectory::{BBox, Clip, ObjectClass, TrajPoint, Trajectory};

use common::{cold_scan, timed_scans, tiny_model, two_datasets};

/// Every (dataset, event) pair the identity tests query.
const EVENTS: &[EventKind] = &[
    EventKind::LeftTurn,
    EventKind::RightTurn,
    EventKind::UTurn,
    EventKind::StopAndGo,
];

fn spec(dataset: &str, event: EventKind) -> QuerySpec {
    QuerySpec::new(dataset, query_clip(event))
}

/// The acceptance property: eight client threads hammering an 8-worker
/// engine (with shared-scan fusion active) get byte-identical answers to
/// a 1-worker engine executing the same queries one at a time. The
/// workers share each dataset's embedding memo: every thread asks every
/// sketch, so the first laps race cold misses on shared segments (left
/// and right turn have one window grid) and the later ones read what
/// other workers published — neither changes a bit, and nothing waits.
#[test]
fn eight_worker_engine_matches_single_worker_byte_for_byte() {
    let model = tiny_model();
    let serial = Engine::start(
        model.clone(),
        two_datasets(),
        EngineConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let mut expected = Vec::new();
    for dataset in ["alpha", "beta"] {
        for &event in EVENTS {
            let result = serial.execute(spec(dataset, event)).unwrap();
            assert_eq!(result.batch_size, 1, "1-worker engine must not fuse");
            expected.push(((dataset, event), result.moments));
        }
    }
    let serial_datasets = serial.stats().datasets;
    serial.shutdown();

    let concurrent = Arc::new(Engine::start(
        model,
        two_datasets(),
        EngineConfig {
            workers: 8,
            ..Default::default()
        },
    ));
    let per_thread: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let engine = Arc::clone(&concurrent);
                let expected = &expected;
                scope.spawn(move || {
                    // Each thread walks the query list at a different
                    // rotation so different queries overlap in time.
                    (0..expected.len())
                        .map(|i| {
                            let (dataset, event) = expected[(i + t) % expected.len()].0;
                            (
                                (dataset, event),
                                engine.execute(spec(dataset, event)).unwrap().moments,
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for results in per_thread {
        for (key, moments) in results {
            let (_, want) = expected.iter().find(|(k, _)| *k == key).unwrap();
            assert_eq!(
                &moments, want,
                "concurrent result for {key:?} diverged from the serial engine"
            );
        }
    }
    // What the workers remembered is reported per dataset.
    let serial_memo: Vec<_> = serial_datasets.iter().map(|d| d.memo_segments).collect();
    for (d, want) in concurrent.stats().datasets.iter().zip(serial_memo) {
        assert_eq!(
            d.memo_segments, want,
            "{}: same sketches, same segments",
            d.name
        );
        assert!(d.memo_bytes > 0 && d.memo_resets == 0, "{d:?}");
    }
    concurrent.shutdown();
}

/// A zero-depth queue rejects every submission with `Overloaded` —
/// admission is checked before anything is enqueued.
#[test]
fn zero_depth_queue_rejects_everything() {
    let engine = Engine::start(
        tiny_model(),
        two_datasets(),
        EngineConfig {
            workers: 1,
            queue_depth: 0,
            ..Default::default()
        },
    );
    let err = engine
        .submit(spec("alpha", EventKind::LeftTurn))
        .unwrap_err();
    assert_eq!(err, EngineError::Overloaded { queue_depth: 0 });
    assert_eq!(engine.stats().rejected_overload, 1);
}

/// Overload sheds load instead of queueing without bound: burst-submitting
/// far more queries than the queue holds yields explicit `Overloaded`
/// rejections, while every admitted query still completes.
#[test]
fn burst_past_queue_depth_is_shed_not_buffered() {
    let engine = Engine::start(
        tiny_model(),
        two_datasets(),
        EngineConfig {
            workers: 1,
            queue_depth: 2,
            ..Default::default()
        },
    );
    let mut admitted = Vec::new();
    let mut overloaded = 0;
    for _ in 0..40 {
        match engine.submit(spec("alpha", EventKind::LeftTurn)) {
            Ok(handle) => admitted.push(handle),
            Err(EngineError::Overloaded { queue_depth }) => {
                assert_eq!(queue_depth, 2);
                overloaded += 1;
            }
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    }
    assert!(
        overloaded > 0,
        "a 40-query burst into a depth-2 queue must hit the admission bound"
    );
    for handle in admitted {
        handle.wait().expect("admitted queries must complete");
    }
    let stats = engine.stats();
    assert_eq!(stats.rejected_overload, overloaded);
    assert_eq!(stats.completed + stats.rejected_overload, 40);
    engine.shutdown();
}

/// An already-expired deadline is answered `DeadlineExceeded` from the
/// queue without running the search.
#[test]
fn expired_deadline_is_reported_without_running() {
    let engine = Engine::start(tiny_model(), two_datasets(), EngineConfig::default());
    let mut q = spec("alpha", EventKind::LeftTurn);
    q.deadline = Some(Duration::ZERO);
    assert_eq!(engine.execute(q), Err(EngineError::DeadlineExceeded));
    let stats = engine.stats();
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.completed, 0);
}

/// `EngineConfig::default_deadline` applies to queries without their own.
#[test]
fn default_deadline_applies_when_query_has_none() {
    let engine = Engine::start(
        tiny_model(),
        two_datasets(),
        EngineConfig {
            workers: 1,
            default_deadline: Some(Duration::ZERO),
            ..Default::default()
        },
    );
    assert_eq!(
        engine.execute(spec("alpha", EventKind::LeftTurn)),
        Err(EngineError::DeadlineExceeded)
    );
}

/// Cancelling through the handle answers `Cancelled`.
#[test]
fn handle_cancel_is_reported() {
    let engine = Engine::start(
        tiny_model(),
        two_datasets(),
        EngineConfig {
            workers: 1,
            ..Default::default()
        },
    );
    // Occupy the single worker so the second query sits in the queue
    // long enough for the cancel to land before it finishes.
    let busy = engine.submit(spec("alpha", EventKind::LeftTurn)).unwrap();
    let victim = engine.submit(spec("alpha", EventKind::RightTurn)).unwrap();
    victim.cancel();
    assert_eq!(victim.wait(), Err(EngineError::Cancelled));
    busy.wait().unwrap();
}

/// The waiter and the worker race for every answer when the deadline
/// sits at the median scan time: whichever wins, the handle hears
/// exactly one answer, and it is the one the engine counted.
#[test]
fn deadline_at_the_scan_time_is_answered_and_counted_once() {
    let engine = Engine::start(
        tiny_model(),
        two_datasets(),
        EngineConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let deadline = timed_scans(&engine, 5)[2];
    let before = engine.stats();
    let (mut completed, mut timed_out) = (0, 0);
    for _ in 0..50 {
        let mut q = spec("beta", EventKind::LeftTurn);
        q.deadline = Some(deadline);
        match engine.submit(q).unwrap().wait() {
            Ok(_) => completed += 1,
            Err(EngineError::DeadlineExceeded) => timed_out += 1,
            Err(other) => panic!("unexpected answer: {other:?}"),
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.accepted - before.accepted, 50);
    assert_eq!(stats.completed - before.completed, completed);
    assert_eq!(stats.timed_out - before.timed_out, timed_out);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.timed_out + stats.failed,
        "every admitted query is tallied exactly once"
    );
    engine.shutdown();
}

/// Nobody has to be waiting for a deadline to count: a handle dropped
/// without `wait` whose deadline trips mid-scan is answered by the
/// worker and lands in `timed_out` exactly once.
#[test]
fn dropped_handle_still_times_out_exactly_once() {
    let config = || EngineConfig {
        workers: 1,
        ..Default::default()
    };
    // The doomed scan is the first of its dataset, so it runs cold (its
    // index remembers nothing yet): size its deadline from a cold scan.
    let model = tiny_model();
    let scan = cold_scan(&model, config(), EventKind::LeftTurn);
    let engine = Engine::start(model, two_datasets(), config());
    let before = engine.stats();
    let mut q = spec("beta", EventKind::LeftTurn);
    q.deadline = Some(scan / 3);
    drop(engine.submit(q).unwrap());
    // The next query queues behind the doomed scan, so by the time it
    // is answered the worker has finished with the dropped one.
    engine.execute(spec("beta", EventKind::UTurn)).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.timed_out - before.timed_out, 1);
    assert_eq!(stats.completed - before.completed, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.timed_out + stats.failed
    );
    engine.shutdown();
}

/// Unknown datasets are rejected at submit, before consuming a queue slot.
#[test]
fn unknown_dataset_rejected_at_submit() {
    let engine = Engine::start(tiny_model(), two_datasets(), EngineConfig::default());
    assert_eq!(
        engine.execute(spec("nope", EventKind::LeftTurn)),
        Err(EngineError::UnknownDataset("nope".into()))
    );
    assert_eq!(engine.stats().accepted, 0);
}

/// A per-query `top_k` returns exactly the prefix of the full ranking
/// (NMS keeps a greedy prefix, so truncation equals a smaller-k search).
#[test]
fn per_query_top_k_is_a_prefix_of_the_full_ranking() {
    let engine = Engine::start(tiny_model(), two_datasets(), EngineConfig::default());
    let full = engine.execute(spec("alpha", EventKind::LeftTurn)).unwrap();
    assert!(
        full.moments.len() >= 3,
        "fixture should retrieve >= 3 moments"
    );
    let mut q = spec("alpha", EventKind::LeftTurn);
    q.top_k = Some(3);
    let truncated = engine.execute(q).unwrap();
    assert_eq!(truncated.moments, full.moments[..3]);
}

/// Shutdown drains: every query admitted before shutdown is answered,
/// and submissions afterwards are refused.
#[test]
fn shutdown_drains_admitted_queries() {
    let engine = Engine::start(
        tiny_model(),
        two_datasets(),
        EngineConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let dataset = if i % 2 == 0 { "alpha" } else { "beta" };
            engine
                .submit(spec(dataset, EVENTS[i % EVENTS.len()]))
                .unwrap()
        })
        .collect();
    engine.shutdown();
    for handle in handles {
        handle.wait().expect("admitted queries must be drained");
    }
    assert_eq!(
        engine
            .submit(spec("alpha", EventKind::LeftTurn))
            .unwrap_err(),
        EngineError::ShuttingDown
    );
    assert_eq!(engine.stats().completed, 6);
}

/// An epoch-scoped query on a dataset with no store attached (a
/// hand-built scoped `QuerySpec`, or a durable registration caught up
/// without its store) ranks *within* its scope: windows ending before
/// `min_end` are dropped before scoring, so better-scoring older windows
/// cannot crowd the scope's own matches out of the top-k.
#[test]
fn scoped_query_on_a_scan_only_dataset_ranks_within_the_scope() {
    let query = query_clip(EventKind::LeftTurn);
    let span = query.span();
    let stride = span / 4;
    // Two early tracks replay the sketch exactly, one window stride
    // apart, so each is the perfect match of its own window; a late
    // track only drives straight.
    let replay = |id: u64, at: u32| {
        let pts = query.objects[0]
            .points()
            .iter()
            .map(|p| TrajPoint::new(p.frame + at, p.bbox))
            .collect();
        Trajectory::from_points(id, ObjectClass::Car, pts)
    };
    let late = 4 * span;
    let straight = Trajectory::from_points(
        3,
        ObjectClass::Car,
        (0..span)
            .map(|f| {
                TrajPoint::new(
                    late + f,
                    BBox::new(50.0 + f as f32 * 4.0, 300.0, 60.0, 35.0),
                )
            })
            .collect(),
    );
    let clip = Clip::new(
        query.frame_width,
        query.frame_height,
        vec![replay(1, 0), replay(2, stride), straight],
    );
    let index = VideoIndex::from_clip("scoped", &clip, 6 * span, 30.0);
    let min_end = 3 * span;

    let model = tiny_model();
    let matcher = MatcherConfig {
        top_k: 2,
        ..Default::default()
    };
    let engine = Engine::start(
        model.clone(),
        [("scoped".to_string(), index.clone())].into(),
        EngineConfig {
            workers: 1,
            matcher: matcher.clone(),
            ..Default::default()
        },
    );
    // Premise: the global top-k lies entirely before the scope.
    let global = engine
        .execute(QuerySpec::new("scoped", query.clone()))
        .unwrap();
    assert_eq!(global.moments.len(), 2);
    assert!(global.moments.iter().all(|m| m.end < min_end));

    let mut scoped = QuerySpec::new("scoped", query.clone());
    scoped.min_end = Some(min_end);
    let reply = engine.execute(scoped).unwrap().moments;
    assert!(!reply.is_empty(), "the scope's own windows must be ranked");
    assert!(reply.iter().all(|m| m.track_ids == [3]));
    let want = Matcher::with_config(model.similarity(), matcher)
        .search_stored(
            &index,
            None,
            &[(&query, &CancelToken::none())],
            Some(min_end),
        )
        .pop()
        .unwrap()
        .unwrap();
    assert_eq!(reply, want.moments);
    engine.shutdown();
}
