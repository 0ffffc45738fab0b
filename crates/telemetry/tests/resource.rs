//! Resource attribution (counting allocator + CPU scopes) and the
//! cooperative sampling profiler.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// The sampling profiler folds a live span stack into
/// flamegraph-compatible lines naming the stage.
#[test]
fn profiler_folds_live_span_stacks() {
    let stop = Arc::new(AtomicBool::new(false));
    let worker_stop = Arc::clone(&stop);
    let worker = std::thread::Builder::new()
        .name("prof-worker".to_string())
        .spawn(move || {
            let _outer = tel::span(names::MATCHER_SEARCH);
            let _inner = tel::span(names::MATCHER_SCAN);
            while !worker_stop.load(Ordering::Relaxed) {
                busy(Duration::from_millis(5));
            }
        })
        .unwrap();

    let report = tel::collect_profile(Duration::from_millis(400), 97);
    stop.store(true, Ordering::Relaxed);
    worker.join().unwrap();

    assert!(report.samples > 0, "sampler must have observed threads");
    let folded = report.folded();
    let scan_line = folded
        .lines()
        .find(|l| l.contains(names::MATCHER_SCAN))
        .unwrap_or_else(|| panic!("folded output names the scan stage:\n{folded}"));
    assert!(
        scan_line.starts_with("prof-worker;"),
        "stack is rooted at the thread name: {scan_line}"
    );
    assert!(
        scan_line.contains(&format!(
            "{};{}",
            names::MATCHER_SEARCH,
            names::MATCHER_SCAN
        )),
        "nesting order is outer;inner: {scan_line}"
    );
    let entry = &report.entries[scan_line.rsplit_once(' ').unwrap().0];
    assert!(
        entry.cpu_nanos > 0 || tel::tid_cpu_nanos(tel::current_tid()).is_none(),
        "a spinning thread accrues CPU weight where per-tid CPU exists"
    );
}
