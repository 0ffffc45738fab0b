//! The "one tally" contract: every traffic event moves the engine's
//! atomics and the process-wide `sketchql.server.*` counters in one
//! place, so over any stretch of traffic each registry delta equals the
//! matching `EngineStats` / `ClassStats` sum across the engines that
//! served it.
//!
//! The registry is process-global, so this test has its own binary and
//! is its only test: nothing else may move the counters it reads.

mod common;

use std::collections::BTreeMap;
use std::time::Duration;

use sketchql_datasets::{query_clip, EventKind};
use sketchql_server::{
    ClassConfig, ClassStats, Engine, EngineConfig, EngineError, EngineStats, QuerySpec, SchedPolicy,
};
use sketchql_telemetry::{self as telemetry, names};
use sketchql_trajectory::{Clip, Trajectory};

use common::{tiny_model, two_datasets};

/// The engine-wide series the test reads.
const TOTALS: &[&str] = &[
    names::SERVER_ACCEPTED,
    names::SERVER_COMPLETED,
    names::SERVER_TIMED_OUT,
    names::SERVER_FAILED,
    names::SERVER_SHED_QUEUE_FULL,
    names::SERVER_SHED_SHUTDOWN,
    names::SERVER_SHED_DEADLINE_QUEUE,
    names::SERVER_SHED_CANCELLED,
];
/// Every class of the engines below: declared, default and live.
const CLASSES: &[&str] = &["default", "limited", "live"];

/// A `ClassStats` counter field.
type ClassField = fn(&ClassStats) -> u64;

/// Each per-class family beside the `ClassStats` field it mirrors.
const CLASS_FIELDS: [(&str, ClassField); 3] = [
    ("completed", |s| s.completed),
    ("rate_limited", |s| s.rate_limited),
    ("shed", |s| s.shed),
];

/// Every counter the test reads, by name.
fn registry() -> BTreeMap<String, u64> {
    let class_names = CLASSES.iter().flat_map(|c| {
        CLASS_FIELDS
            .iter()
            .map(|(m, _)| names::server_class_metric(c, m))
    });
    TOTALS
        .iter()
        .map(|n| n.to_string())
        .chain(class_names)
        .map(|n| {
            let v = telemetry::counter(&n).get();
            (n, v)
        })
        .collect()
}

fn spec(dataset: &str, event: EventKind) -> QuerySpec {
    QuerySpec::new(dataset, query_clip(event))
}

/// A sketch the encoder rejects: more objects than it has slots for.
fn crowd() -> QuerySpec {
    let base = query_clip(EventKind::LeftTurn);
    let t = &base.objects[0];
    let objects = (0..5)
        .map(|i| Trajectory::from_points(i, t.class, t.points().to_vec()))
        .collect();
    QuerySpec::new("alpha", Clip::new(1000.0, 600.0, objects))
}

/// Drives one engine through every outcome it can be asked for
/// deterministically, then shuts it down so every worker-side count
/// (a queue expiry) has landed.
fn drive_every_outcome() -> EngineStats {
    let mut classes = BTreeMap::new();
    // One token, refilled never within the test: the second query of the
    // class is rate limited.
    let limited = ClassConfig {
        rate_per_sec: 0.001,
        burst: 1.0,
        ..Default::default()
    };
    classes.insert("limited".to_string(), limited);
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

    engine.execute(spec("alpha", EventKind::LeftTurn)).unwrap();

    let mut rated = spec("beta", EventKind::UTurn);
    rated.class = Some("limited".to_string());
    engine.execute(rated.clone()).unwrap();
    assert!(matches!(
        engine.submit(rated),
        Err(EngineError::RateLimited { .. })
    ));

    let mut expired = spec("alpha", EventKind::RightTurn);
    expired.deadline = Some(Duration::ZERO);
    assert_eq!(engine.execute(expired), Err(EngineError::DeadlineExceeded));

    // The single worker is busy with the first query while the second
    // waits behind it, so the cancel lands before it could run.
    let busy = engine.submit(spec("beta", EventKind::LeftTurn)).unwrap();
    let victim = engine.submit(spec("beta", EventKind::RightTurn)).unwrap();
    victim.cancel();
    assert_eq!(victim.wait(), Err(EngineError::Cancelled));
    busy.wait().unwrap();

    assert!(matches!(
        engine.execute(crowd()),
        Err(EngineError::Similarity(_))
    ));

    engine.shutdown();
    assert_eq!(
        engine
            .submit(spec("alpha", EventKind::LeftTurn))
            .unwrap_err(),
        EngineError::ShuttingDown
    );
    engine.stats()
}

/// A zero-depth queue: every submission is shed as queue-full.
fn drive_queue_full() -> EngineStats {
    let engine = Engine::start(
        tiny_model(),
        two_datasets(),
        EngineConfig {
            workers: 1,
            queue_depth: 0,
            ..Default::default()
        },
    );
    assert!(matches!(
        engine.submit(spec("alpha", EventKind::LeftTurn)),
        Err(EngineError::Overloaded { .. })
    ));
    engine.shutdown();
    engine.stats()
}

#[test]
fn registry_deltas_equal_engine_stats_sums() {
    let before = registry();
    let engines = [drive_every_outcome(), drive_queue_full()];
    let after = registry();
    let delta = |name: &str| after[name] - before[name];
    let sum = |f: fn(&EngineStats) -> u64| engines.iter().map(f).sum::<u64>();
    let class_sum = |class: &str, f: ClassField| {
        engines
            .iter()
            .flat_map(|s| s.classes.iter().filter(|c| c.name == class).map(f))
            .sum::<u64>()
    };

    // Every outcome was driven at least once, so no equality below holds
    // by being 0 = 0.
    assert_eq!(sum(|s| s.timed_out), 1);
    assert_eq!(sum(|s| s.failed), 2, "one cancel, one rejected sketch");
    assert_eq!(sum(|s| s.rejected_overload), 1);
    assert_eq!(sum(|s| s.rate_limited), 1);
    assert!(sum(|s| s.completed) >= 3);

    assert_eq!(delta(names::SERVER_ACCEPTED), sum(|s| s.accepted));
    assert_eq!(delta(names::SERVER_COMPLETED), sum(|s| s.completed));
    assert_eq!(delta(names::SERVER_TIMED_OUT), sum(|s| s.timed_out));
    assert_eq!(delta(names::SERVER_FAILED), sum(|s| s.failed));
    assert_eq!(
        delta(names::SERVER_SHED_QUEUE_FULL),
        sum(|s| s.rejected_overload)
    );
    // A class shed is queue-full or shutdown; nothing admitted was left
    // for the shutdown drain, which would count as failed besides.
    let class_shed: u64 = CLASSES.iter().map(|c| class_sum(c, |s| s.shed)).sum();
    assert_eq!(
        delta(names::SERVER_SHED_SHUTDOWN),
        class_shed - sum(|s| s.rejected_overload)
    );
    assert_eq!(delta(names::SERVER_SHED_SHUTDOWN), 1);
    // Neither has an `EngineStats` field of its own: each is a subset
    // of one, and the test drove exactly one of each.
    assert_eq!(delta(names::SERVER_SHED_DEADLINE_QUEUE), 1);
    assert_eq!(delta(names::SERVER_SHED_CANCELLED), 1);

    for class in CLASSES {
        for (metric, field) in CLASS_FIELDS {
            let name = names::server_class_metric(class, metric);
            assert_eq!(delta(&name), class_sum(class, field), "{name}");
        }
    }
}
