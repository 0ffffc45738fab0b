//! Resource attribution (counting allocator + CPU scopes) and the
//! profile folded from traces.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sketchql_telemetry as tel;
use sketchql_telemetry::names;

/// Spins the CPU for roughly `wall` without sleeping.
fn busy(wall: Duration) -> u64 {
    let start = Instant::now();
    let mut acc = 0u64;
    while start.elapsed() < wall {
        for i in 0..10_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
    }
    acc
}

/// Touching a registered metric allocates nothing: the registry is
/// looked up by `&str`, and only a first registration builds a key.
#[test]
fn metric_lookups_do_not_allocate_after_registration() {
    const BOUNDS: &[f64] = &[1.0, 10.0];
    let touch = || {
        tel::counter("resource.lookup.counter").inc();
        tel::gauge("resource.lookup.gauge").set(1.0);
        tel::histogram("resource.lookup.histogram", BOUNDS).observe(2.0);
    };
    touch();
    let before = tel::thread_allocated();
    for _ in 0..100 {
        touch();
    }
    let after = tel::thread_allocated();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "(bytes, allocations) across 100 look-ups of each kind"
    );
}

/// A known allocation pattern inside an attribution scope lands on that
/// trace — and only allocations inside the scope count (differential
/// against a second trace with a much smaller pattern).
#[test]
fn allocations_inside_a_scope_attribute_to_the_right_trace() {
    const BIG: usize = 1 << 20;
    const SMALL: usize = 1 << 14;

    let heavy = tel::TraceContext::new();
    heavy.set_label("resource/heavy");
    {
        let _g = heavy.enter();
        let block: Vec<u8> = vec![1; BIG];
        std::hint::black_box(&block);
    }
    // Allocations outside any scope must not attribute anywhere.
    let noise: Vec<u8> = vec![2; 4 * BIG];
    std::hint::black_box(&noise);

    let light = tel::TraceContext::new();
    light.set_label("resource/light");
    {
        let _g = light.enter();
        let block: Vec<u8> = vec![3; SMALL];
        std::hint::black_box(&block);
    }

    let heavy = heavy.finalize().expect("first finalize wins");
    let light = light.finalize().expect("first finalize wins");

    assert!(
        heavy.alloc_bytes >= BIG as u64,
        "heavy scope must see its 1 MiB block (saw {})",
        heavy.alloc_bytes
    );
    assert!(
        heavy.alloc_bytes < 3 * BIG as u64,
        "the out-of-scope 4 MiB noise must not attribute (saw {})",
        heavy.alloc_bytes
    );
    assert!(heavy.alloc_count >= 1);
    assert!(
        light.alloc_bytes >= SMALL as u64 && light.alloc_bytes < BIG as u64 / 2,
        "light scope sees only its own traffic (saw {})",
        light.alloc_bytes
    );
}

/// A helper thread that re-enters the traces its parent had entered
/// (the `TraceContext::entered` hand-off the matcher's worker pools
/// use) attributes its allocations to the same trace.
#[test]
fn helper_threads_attribute_through_the_entered_handoff() {
    const BLOCK: usize = 1 << 20;
    let ctx = tel::TraceContext::new();
    ctx.set_label("resource/handoff");
    {
        let _g = ctx.enter();
        let inherited = tel::TraceContext::entered();
        assert_eq!(inherited.len(), 1, "parent scope is live");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _guards: Vec<_> = inherited.iter().map(|t| t.enter()).collect();
                let block: Vec<u8> = vec![7; BLOCK];
                std::hint::black_box(&block);
            });
        });
    }
    let trace = ctx.finalize().unwrap();
    assert!(
        trace.alloc_bytes >= BLOCK as u64,
        "helper-thread traffic must land on the parent trace (saw {})",
        trace.alloc_bytes
    );
}

/// CPU burned inside a scope shows up as `cpu_nanos` on the trace, and
/// flows into the `sketchql.resource.*` series at finalization.
#[test]
fn cpu_inside_a_scope_attributes_to_the_trace() {
    let before = tel::counter(names::RESOURCE_CPU_NANOS).get();
    let ctx = tel::TraceContext::new();
    ctx.set_label("resource/spin");
    {
        let _g = ctx.enter();
        busy(Duration::from_millis(30));
    }
    let trace = ctx.finalize().unwrap();
    // A 30 ms spin must register well over 5 ms of CPU even on a loaded
    // machine (and the wall-clock fallback would report ~30 ms).
    assert!(
        trace.cpu_nanos >= 5_000_000,
        "spin must attribute CPU (saw {} ns)",
        trace.cpu_nanos
    );
    assert!(
        tel::counter(names::RESOURCE_CPU_NANOS).get() >= before + trace.cpu_nanos,
        "finalization feeds the resource counter"
    );
}

/// `fold_traces` rebuilds each span's stack from one trace: the
/// entering thread's nesting, a scoped helper's own depth-0 and depth-1
/// spans, and a `record_span` queue wait, each weighted by self time.
#[test]
fn trace_fold_weights_each_stack_by_self_time() {
    const HELPER: &str = "test.fold.helper";
    const HELPER_CHILD: &str = "test.fold.helper_child";
    let ctx = tel::TraceContext::new();
    ctx.set_label("fold test;one");
    let queued = Instant::now();
    std::thread::sleep(Duration::from_millis(2));
    ctx.record_span(
        names::SERVER_QUEUE_WAIT,
        0,
        queued,
        queued.elapsed().as_nanos() as u64,
    );
    {
        let _entered = ctx.enter();
        let _outer = tel::span(names::MATCHER_SEARCH);
        busy(Duration::from_millis(2));
        {
            let _inner = tel::span(names::MATCHER_SCAN);
            busy(Duration::from_millis(2));
            let inherited = tel::TraceContext::entered();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _guards: Vec<_> = inherited.iter().map(|t| t.enter()).collect();
                    let _own = tel::span(HELPER);
                    busy(Duration::from_millis(2));
                    let _child = tel::span(HELPER_CHILD);
                    busy(Duration::from_millis(2));
                });
            });
        }
    }
    let trace = ctx.finalize().unwrap();
    let nanos = |name: &str| {
        let spans: Vec<u64> = trace
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos)
            .collect();
        assert_eq!(spans.len(), 1, "{name} recorded once");
        spans[0]
    };

    let folded = tel::fold_traces(std::slice::from_ref(&trace));
    let lines: Vec<(&str, u64)> = folded
        .lines()
        .map(|line| {
            let (key, weight) = line.rsplit_once(' ').unwrap();
            (key, weight.parse().unwrap())
        })
        .collect();
    let weights: BTreeMap<&str, u64> = lines.iter().copied().collect();
    let weight = |key: String| {
        *weights
            .get(key.as_str())
            .unwrap_or_else(|| panic!("no line {key}:\n{folded}"))
    };
    let root = "fold_test_one";
    let (search, scan) = (names::MATCHER_SEARCH, names::MATCHER_SCAN);
    assert_eq!(
        weight(format!("{root};{search}")),
        nanos(search) - nanos(scan),
        "outer self time excludes its child"
    );
    assert_eq!(weight(format!("{root};{search};{scan}")), nanos(scan));
    assert_eq!(
        weight(format!("{root};{HELPER}")),
        nanos(HELPER) - nanos(HELPER_CHILD)
    );
    assert_eq!(
        weight(format!("{root};{HELPER};{HELPER_CHILD}")),
        nanos(HELPER_CHILD),
        "the helper's child folds under the helper's own span:\n{folded}"
    );
    assert_eq!(
        weight(format!("{root};{}", names::SERVER_QUEUE_WAIT)),
        nanos(names::SERVER_QUEUE_WAIT)
    );
    assert_eq!(weights.len(), 5, "one line per stack:\n{folded}");
    let depth0: u64 = trace
        .spans
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| s.nanos)
        .sum();
    assert_eq!(
        weights.values().sum::<u64>(),
        depth0,
        "the lines sum to the depth-0 spans"
    );
    assert!(lines.windows(2).all(|w| w[0].1 >= w[1].1), "busiest first");
    let doubled: String = lines
        .iter()
        .map(|(k, w)| format!("{k} {}\n", 2 * w))
        .collect();
    assert_eq!(
        tel::fold_traces(&[trace.clone(), trace]),
        doubled,
        "lines sum by key across traces"
    );
}
