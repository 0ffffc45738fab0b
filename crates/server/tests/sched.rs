//! Scheduler integration tests: in-flight and queued deadlines honoured
//! on time, the submit/shutdown race, and worker-panic containment. The
//! queue order itself is pinned by the engine's unit tests.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sketchql_datasets::{query_clip, EventKind};
use sketchql_server::{Engine, EngineConfig, EngineError, QuerySpec};

use common::{cold_scan, small_index, tiny_model, two_datasets};

fn spec(dataset: &str, event: EventKind) -> QuerySpec {
    QuerySpec::new(dataset, query_clip(event))
}

/// A deadline that expires mid-search is honoured when it expires, not
/// when the search ends: a cold query on the only worker, on a third of
/// a cold scan's deadline, hears `DeadlineExceeded` from its own waiter
/// well before that scan could finish. The search stops on the tripped
/// token, the timeout is counted once, and the worker serves the next
/// query.
#[test]
fn in_flight_query_is_answered_at_its_deadline() {
    let config = || EngineConfig {
        workers: 1,
        ..Default::default()
    };
    // Measure one cold solo scan on a scratch engine to size the
    // deadline: the query below runs cold too, on a fresh engine.
    let model = tiny_model();
    let scan = cold_scan(&model, config(), EventKind::RightTurn);

    let engine = Engine::start(model, two_datasets(), config());
    let mut tight = spec("beta", EventKind::RightTurn);
    tight.deadline = Some(scan / 3);
    let submitted = Instant::now();
    let tight = engine.submit(tight).unwrap();
    // The query must have left the queue: its deadline trips in flight.
    let give_up = submitted + Duration::from_secs(10);
    while engine.stats().in_flight != 1 && engine.stats().timed_out == 0 {
        assert!(Instant::now() < give_up, "the query never started");
        std::thread::sleep(Duration::from_micros(100));
    }
    assert_eq!(
        engine.stats().queued,
        0,
        "test premise: the query is in flight"
    );
    assert_eq!(tight.wait(), Err(EngineError::DeadlineExceeded));
    let heard = submitted.elapsed();
    assert!(
        heard < scan * 2 / 3,
        "an in-flight deadline of {:?} was answered after {heard:?} — a cold \
         scan takes {scan:?}",
        scan / 3
    );

    engine
        .execute(spec("alpha", EventKind::UTurn))
        .expect("the worker serves the next query");
    let stats = engine.stats();
    assert_eq!(
        (stats.accepted, stats.completed, stats.timed_out),
        (2, 1, 1),
        "the timeout is counted once"
    );
    assert_eq!((stats.queued, stats.in_flight), (0, 0));
    engine.shutdown();
}

/// A deadline that expires in the queue is honoured when it expires,
/// not when the backlog clears: with the only worker mid-scan, a query
/// queued behind it on a tenth of a scan's deadline hears
/// `DeadlineExceeded` from its own waiter long before that scan ends.
/// The worker discards the expired job when it reaches it and keeps
/// serving.
#[test]
fn queued_query_is_answered_at_its_deadline() {
    let config = || EngineConfig {
        workers: 1,
        ..Default::default()
    };
    // Measure one cold solo scan on a scratch engine to size the
    // deadline: the blocker below runs cold too.
    let model = tiny_model();
    let scan = cold_scan(&model, config(), EventKind::RightTurn);

    let engine = Engine::start(model, two_datasets(), config());
    let blocker = engine.submit(spec("beta", EventKind::RightTurn)).unwrap();
    // The victim must find the worker busy, so that it waits in the
    // queue behind the blocker's scan.
    let give_up = Instant::now() + Duration::from_secs(10);
    while engine.stats().in_flight != 1 {
        assert!(Instant::now() < give_up, "the blocker never started");
        std::thread::sleep(Duration::from_micros(100));
    }
    let mut victim = spec("beta", EventKind::LeftTurn);
    victim.deadline = Some(scan / 10);
    let submitted = Instant::now();
    let victim = engine.submit(victim).unwrap();
    assert_eq!(victim.wait(), Err(EngineError::DeadlineExceeded));
    let heard = submitted.elapsed();
    assert!(
        heard < scan / 2,
        "a queued deadline of {:?} was answered after {heard:?} — the scan \
         it was queued behind takes {scan:?}",
        scan / 10
    );

    blocker.wait().expect("the blocker is unaffected");
    engine.execute(spec("beta", EventKind::UTurn)).unwrap();
    let stats = engine.stats();
    assert_eq!(
        (stats.accepted, stats.completed, stats.timed_out),
        (3, 2, 1),
        "the expired job is counted once and never runs"
    );
    assert_eq!(stats.queued, 0);
    engine.shutdown();
}

/// Submit racing shutdown never leaves a `QueryHandle::wait()` hanging:
/// every submission either errs at admission or is drained/answered.
#[test]
fn submit_shutdown_race_always_answers() {
    for round in 0..20 {
        let engine = Arc::new(Engine::start(
            tiny_model(),
            two_datasets(),
            EngineConfig {
                workers: 2,
                ..Default::default()
            },
        ));
        std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..4)
                .map(|t| {
                    let engine = Arc::clone(&engine);
                    scope.spawn(move || {
                        let mut outcomes = Vec::new();
                        for i in 0..10 {
                            let mut q = spec(
                                if (t + i) % 2 == 0 { "alpha" } else { "beta" },
                                EventKind::LeftTurn,
                            );
                            // Mostly pre-expired deadlines so a round is
                            // cheap; a couple of real scans keep workers
                            // busy across the shutdown.
                            if i % 5 != 0 {
                                q.deadline = Some(Duration::ZERO);
                            }
                            match engine.submit(q) {
                                Ok(handle) => outcomes.push(handle.wait()),
                                Err(e) => outcomes.push(Err(e)),
                            }
                        }
                        outcomes
                    })
                })
                .collect();
            // Shut down while submissions are in flight.
            if round % 2 == 0 {
                std::thread::sleep(Duration::from_millis(round / 2));
            }
            engine.shutdown();
            for s in submitters {
                for outcome in s.join().expect("no submitter may hang or panic") {
                    match outcome {
                        Ok(_)
                        | Err(EngineError::ShuttingDown)
                        | Err(EngineError::DeadlineExceeded)
                        | Err(EngineError::Overloaded { .. }) => {}
                        Err(other) => panic!("unexpected outcome: {other:?}"),
                    }
                }
            }
        });
    }
}

/// A worker panic mid-query is contained: the query is answered
/// `WorkerLost` (not left hanging), `in_flight` returns to zero, and
/// the pool keeps serving other datasets.
#[test]
fn worker_panic_answers_members_and_restores_in_flight() {
    if !cfg!(debug_assertions) {
        // The fault-injection hook compiles out of release builds.
        return;
    }
    let mut datasets = BTreeMap::new();
    datasets.insert("doomed".to_string(), small_index(31));
    datasets.insert("steady".to_string(), small_index(32));
    let engine = Engine::start(
        tiny_model(),
        datasets,
        EngineConfig {
            workers: 2,
            ..Default::default()
        },
    );
    // The injection hook matches on dataset name, so a unique name keeps
    // the env var inert for every other (possibly concurrent) test.
    std::env::set_var("SKETCHQL_TEST_PANIC_DATASET", "doomed");
    let doomed = engine.submit(spec("doomed", EventKind::LeftTurn)).unwrap();
    assert_eq!(doomed.wait(), Err(EngineError::WorkerLost));
    std::env::remove_var("SKETCHQL_TEST_PANIC_DATASET");

    let stats = engine.stats();
    assert_eq!(stats.in_flight, 0, "panic must not leak in_flight");
    assert_eq!(stats.failed, 1);
    // The pool survives: both datasets still answer.
    engine.execute(spec("steady", EventKind::UTurn)).unwrap();
    engine.execute(spec("doomed", EventKind::UTurn)).unwrap();
    engine.shutdown();
}
