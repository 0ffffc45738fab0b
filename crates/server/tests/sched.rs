//! Scheduler-policy integration tests: admission classes (quotas, rate
//! limits), starvation protection, an interactive query overtaking a
//! bulk backlog, in-flight and queued deadlines honoured on time, the
//! submit/shutdown race, and worker-panic containment.

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sketchql_datasets::{query_clip, EventKind};
use sketchql_server::{
    ClassConfig, Engine, EngineConfig, EngineError, QuerySpec, SchedPolicy, DEFAULT_CLASS,
};

use common::{cold_scan, small_index, tiny_model, two_datasets};

fn spec(dataset: &str, event: EventKind) -> QuerySpec {
    QuerySpec::new(dataset, query_clip(event))
}

fn classed(dataset: &str, event: EventKind, class: &str) -> QuerySpec {
    let mut q = spec(dataset, event);
    q.class = Some(class.to_string());
    q
}

/// Two classes at wildly unequal offered load both make progress: the
/// heavy class is bounded by its queue quota (sheds as `Overloaded`),
/// so the light class's queries are never crowded out of the queue.
#[test]
fn unequal_load_classes_both_progress() {
    let mut classes = BTreeMap::new();
    classes.insert(
        "heavy".to_string(),
        ClassConfig {
            queue_quota: 2,
            ..Default::default()
        },
    );
    classes.insert("light".to_string(), ClassConfig::default());
    let engine = Arc::new(Engine::start(
        tiny_model(),
        two_datasets(),
        EngineConfig {
            workers: 1,
            queue_depth: 64,
            sched: SchedPolicy {
                classes,
                ..Default::default()
            },
            ..Default::default()
        },
    ));

    let stop = Arc::new(AtomicBool::new(false));
    let (light_done, heavy_shed) = std::thread::scope(|scope| {
        // The heavy class floods: far more offered load than one worker
        // clears, but at most 2 of its queries may wait at once.
        let flood = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut shed = 0u64;
                let mut handles = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    match engine.submit(classed("alpha", EventKind::LeftTurn, "heavy")) {
                        Ok(h) => handles.push(h),
                        Err(EngineError::Overloaded { queue_depth }) => {
                            assert_eq!(queue_depth, 2, "quota, not the global bound");
                            shed += 1;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(other) => panic!("unexpected rejection: {other:?}"),
                    }
                }
                for h in handles {
                    let _ = h.wait();
                }
                shed
            })
        };
        // The light class trickles through the same single worker.
        let mut light_done = 0u64;
        for _ in 0..4 {
            engine
                .execute(classed("beta", EventKind::UTurn, "light"))
                .expect("light-class query must complete under heavy-class flood");
            light_done += 1;
        }
        stop.store(true, Ordering::Relaxed);
        (light_done, flood.join().unwrap())
    });
    assert_eq!(light_done, 4);
    assert!(
        heavy_shed > 0,
        "the flood must hit the heavy class's queue quota"
    );
    let stats = engine.stats();
    let heavy = stats.classes.iter().find(|c| c.name == "heavy").unwrap();
    let light = stats.classes.iter().find(|c| c.name == "light").unwrap();
    assert!(heavy.completed > 0, "heavy class must still make progress");
    assert_eq!(light.completed, 4);
    assert!(heavy.shed >= heavy_shed, "quota rejections count as shed");
    engine.shutdown();
}

/// Starvation protection: a continuously re-filled high-priority stream
/// must not hold a low-priority query past its aging bound. With
/// `aging_ms = 5`, ~5 ms of queue wait buys +1 effective priority, so a
/// base gap of 3 closes after ~15 ms of waiting.
#[test]
fn aging_promotes_past_a_high_priority_stream() {
    let mut classes = BTreeMap::new();
    classes.insert(
        "vip".to_string(),
        ClassConfig {
            priority: 3,
            ..Default::default()
        },
    );
    let engine = Arc::new(Engine::start(
        tiny_model(),
        two_datasets(),
        EngineConfig {
            workers: 1,
            queue_depth: 64,
            sched: SchedPolicy {
                classes,
                aging_ms: 5,
            },
            ..Default::default()
        },
    ));

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        // Two feeders keep high-priority work queued at all times; a
        // bounded iteration count is the backstop if the low-priority
        // query somehow never completes.
        let feeders: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut handles = Vec::new();
                    for _ in 0..500 {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Ok(h) = engine.submit(classed("alpha", EventKind::LeftTurn, "vip")) {
                            handles.push(h);
                        }
                        // Keep a few queued, not thousands.
                        while handles.len() > 4 {
                            let _ = handles.remove(0).wait();
                        }
                    }
                    for h in handles {
                        let _ = h.wait();
                    }
                })
            })
            .collect();
        // Let the stream establish itself, then submit one default-class
        // (priority 0) query and insist it completes.
        std::thread::sleep(Duration::from_millis(20));
        let started = Instant::now();
        engine
            .execute(spec("beta", EventKind::UTurn))
            .expect("aged low-priority query must run despite the vip stream");
        let waited = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        for f in feeders {
            f.join().unwrap();
        }
        // Not a tight bound (scan time dominates), but it must not have
        // waited for the entire 2x500-query stream to drain.
        assert!(
            waited < Duration::from_secs(30),
            "low-priority query took {waited:?}"
        );
    });
    engine.shutdown();
}

/// A class with a 1-query burst at 1 query/sec sheds the second
/// immediate submission with `RateLimited` (a distinct error from
/// queue-quota `Overloaded`).
#[test]
fn token_bucket_rejects_burst_past_capacity() {
    let mut classes = BTreeMap::new();
    classes.insert(
        "metered".to_string(),
        ClassConfig {
            rate_per_sec: 1.0,
            burst: 1.0,
            ..Default::default()
        },
    );
    let engine = Engine::start(
        tiny_model(),
        two_datasets(),
        EngineConfig {
            workers: 1,
            sched: SchedPolicy {
                classes,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let first = engine
        .submit(classed("alpha", EventKind::LeftTurn, "metered"))
        .expect("burst capacity admits the first query");
    let err = engine
        .submit(classed("alpha", EventKind::RightTurn, "metered"))
        .unwrap_err();
    assert_eq!(
        err,
        EngineError::RateLimited {
            class: "metered".into()
        }
    );
    // An unmetered class is unaffected.
    engine
        .execute(classed("beta", EventKind::UTurn, "other"))
        .expect("rate limit must not leak across classes");
    first.wait().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.rate_limited, 1);
    let metered = stats.classes.iter().find(|c| c.name == "metered").unwrap();
    assert_eq!(metered.rate_limited, 1);
    // Undeclared classes fold into the default class.
    assert!(stats.classes.iter().any(|c| c.name == DEFAULT_CLASS));
    engine.shutdown();
}

/// The scheduling contract in one queue: an interactive query (high
/// priority, with a deadline) submitted behind a backlog of bulk
/// queries runs ahead of that backlog, and reordering changes no
/// answer — every reply equals the same query on a fresh engine.
#[test]
fn interactive_query_overtakes_a_bulk_backlog() {
    let config = || EngineConfig {
        workers: 1,
        ..Default::default()
    };
    let model = tiny_model();
    let engine = Engine::start(model.clone(), two_datasets(), config());
    // The blocker holds the only worker while the rest queue up: six
    // bulk queries first, the interactive one last.
    const BULK_EVENTS: [EventKind; 3] =
        [EventKind::LeftTurn, EventKind::RightTurn, EventKind::UTurn];
    let mut specs = vec![spec("alpha", EventKind::LaneChange)];
    specs.extend((0..6).map(|i| classed("alpha", BULK_EVENTS[i % 3], "bulk")));
    let mut tight = spec("beta", EventKind::LeftTurn);
    tight.priority = Some(10);
    tight.deadline = Some(Duration::from_secs(60));
    specs.push(tight);
    let handles: Vec<_> = specs
        .iter()
        .map(|q| engine.submit(q.clone()).unwrap())
        .collect();

    // One waiter per handle stamps when its reply arrived.
    let replies: Vec<_> = std::thread::scope(|scope| {
        let waiters: Vec<_> = handles
            .into_iter()
            .map(|h| scope.spawn(move || (h.wait().unwrap().moments, Instant::now())))
            .collect();
        waiters.into_iter().map(|w| w.join().unwrap()).collect()
    });
    engine.shutdown();

    let tight_at = replies[7].1;
    let overtaken = replies[1..7]
        .iter()
        .filter(|(_, at)| *at > tight_at)
        .count();
    assert!(
        overtaken >= 5,
        "the interactive query must finish before the bulk backlog queued \
         ahead of it (overtook {overtaken} of 6)"
    );
    let fresh = Engine::start(model, two_datasets(), config());
    for (q, (moments, _)) in specs.iter().zip(&replies) {
        assert_eq!(
            &fresh.execute(q.clone()).unwrap().moments,
            moments,
            "reordering changed the answer of a {:?} query",
            q.class
        );
    }
    fresh.shutdown();
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
    // The victim must find the worker busy: were both still queued, EDF
    // would dequeue the deadlined query first and nothing would wait.
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
