//! Integration tests for the tracing layer: trace-scoped span
//! attribution, flight-recorder retention, slow-query logging, and the
//! stage-union math behind stage percentages.

use sketchql_telemetry as tel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Two queries racing on separate threads must each end up with exactly
/// their own spans — the regression test for the cross-query attribution
/// bug where any worker could steal another query's spans out of the
/// shared thread-local buffer.
#[test]
fn concurrent_queries_keep_their_own_spans() {
    const NAMES: [&str; 2] = ["test.attr.left", "test.attr.right"];
    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = (0..2)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let ctx = tel::TraceContext::new();
                let guard = ctx.enter();
                barrier.wait(); // both queries in flight at once
                {
                    let _span = tel::span(NAMES[i]);
                    std::hint::black_box(0u64);
                }
                barrier.wait(); // neither finalizes before both spans landed
                drop(guard);
                (i, ctx.id(), ctx.finalize())
            })
        })
        .collect();
    for handle in handles {
        let (i, id, trace) = handle.join().unwrap();
        let trace = trace.expect("first finalize returns the trace");
        assert_eq!(trace.trace_id, id);
        assert_eq!(
            trace.spans.len(),
            1,
            "trace {i} must hold exactly its own span, got {:?}",
            trace.spans
        );
        assert_eq!(trace.spans[0].name, NAMES[i]);
    }
}

/// A thread that entered several traces delivers each completed span
/// to all of them.
#[test]
fn fused_entry_delivers_shared_spans_to_every_member() {
    let a = tel::TraceContext::new();
    let b = tel::TraceContext::new();
    let guard_a = a.enter();
    let guard_b = b.enter();
    {
        let _shared = tel::span("test.fused.scan");
        std::hint::black_box(0u64);
    }
    drop(guard_b);
    drop(guard_a);
    let trace_a = a.finalize();
    let trace_b = b.finalize();
    for trace in [trace_a.unwrap(), trace_b.unwrap()] {
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "test.fused.scan");
    }
}

/// Counts travel the same road as spans: what a thread adds to a
/// counter while it has several traces entered is attributed to every
/// one of them, and a count made outside any trace is nobody's.
#[test]
fn fused_entry_attributes_shared_counts_to_every_member() {
    let shared = tel::counter("test.fused.count");
    let a = tel::TraceContext::new();
    let b = tel::TraceContext::new();
    shared.add(100); // before either trace is entered
    let guard_a = a.enter();
    shared.add(1); // a alone
    let guard_b = b.enter();
    shared.add(7); // the fused stretch
    drop(guard_b);
    drop(guard_a);
    shared.add(100);
    assert_eq!(a.finalize().unwrap().count("test.fused.count"), 8);
    assert_eq!(b.finalize().unwrap().count("test.fused.count"), 7);
}

/// A helper thread that enters the traces its spawner captured with
/// `TraceContext::entered()` attributes its counts to the same query —
/// the hand-off the parallel encoder pass and the direct scan make.
#[test]
fn helper_threads_attribute_their_counts_to_the_spawning_query() {
    let work = tel::counter("test.helper.count");
    let ctx = tel::TraceContext::new();
    {
        let _entered = ctx.enter();
        work.add(1);
        let entered = tel::TraceContext::entered();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _attribution: Vec<_> = entered.iter().map(|t| t.enter()).collect();
                    work.add(10);
                });
            }
            // A helper that never enters counts for the process only.
            scope.spawn(|| work.add(1000));
        });
    }
    assert_eq!(ctx.finalize().unwrap().count("test.helper.count"), 31);
}

/// `stage_nanos_sum` is the union of the depth-0 intervals: exact
/// duplicates collapse, partial overlaps merge, and nested (depth > 0)
/// spans are ignored — so stage coverage can never exceed 100% of the
/// wall clock.
#[test]
fn stage_sum_is_an_interval_union_not_a_plain_sum() {
    let ms = 1_000_000u64;
    let span = |name: &'static str, depth: usize, start: u64, nanos: u64| tel::SpanRecord {
        name,
        depth,
        start_nanos: start,
        nanos,
    };
    let report = tel::QueryTrace {
        label: "union/check".into(),
        total_nanos: 10 * ms,
        spans: vec![
            span("test.union.a", 0, 0, 2 * ms),
            span("test.union.dup", 0, 0, 2 * ms), // duplicate interval
            span("test.union.b", 0, ms, 2 * ms),  // overlaps a by 1 ms
            span("test.union.nested", 1, 0, 50 * ms), // nested: ignored
        ],
        ..Default::default()
    };
    // a ∪ dup ∪ b = [0, 3 ms); the nested 50 ms span must not count.
    assert_eq!(report.stage_nanos_sum(), 3 * ms);
    assert!(report.stage_nanos_sum() <= report.total_nanos);

    // Disjoint intervals still add up exactly.
    let disjoint = tel::QueryTrace {
        total_nanos: 10 * ms,
        spans: vec![
            span("test.union.a", 0, 0, 2 * ms),
            span("test.union.b", 0, 5 * ms, 3 * ms),
        ],
        ..Default::default()
    };
    assert_eq!(disjoint.stage_nanos_sum(), 5 * ms);
}

/// The same property through the live path: a trace fed overlapping
/// depth-0 spans (as two threads inside one trace produce) reports a
/// stage union no larger than its wall clock.
#[test]
fn recorder_stage_percentages_cannot_exceed_total() {
    let ctx = tel::TraceContext::new();
    let t0 = Instant::now();
    ctx.record_span("test.pct.a", 0, t0, 2_000_000);
    ctx.record_span("test.pct.dup", 0, t0, 2_000_000);
    {
        let _entered = ctx.enter();
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = ctx.finalize().unwrap();
    assert_eq!(report.stage_nanos_sum(), 2_000_000);
    assert!(report.stage_nanos_sum() <= report.total_nanos);
}

/// Ring-buffer semantics of a private [`tel::FlightRecorder`]: oldest
/// entries evicted, `recent` newest-first, `find` by id.
#[test]
fn flight_recorder_retains_the_newest_traces() {
    let recorder = tel::FlightRecorder::with_capacity(4);
    assert_eq!(recorder.capacity(), 4);
    for id in 1..=10u64 {
        recorder.record(Arc::new(tel::QueryTrace {
            trace_id: id,
            label: format!("q{id}"),
            outcome: tel::TraceOutcome::Completed,
            start_nanos: id,
            total_nanos: 1,
            ..Default::default()
        }));
    }
    assert_eq!(recorder.recorded(), 10);
    let recent: Vec<u64> = recorder.recent(10).iter().map(|t| t.trace_id).collect();
    assert_eq!(recent, vec![10, 9, 8, 7], "newest first, capacity-capped");
    assert!(recorder.find(3).is_none(), "evicted by the ring");
    assert_eq!(recorder.find(9).map(|t| t.trace_id), Some(9));
    assert_eq!(recorder.recent(2).len(), 2);
}

/// Eight threads hammering a counter, a histogram, and the trace
/// machinery at once: totals must be exact and every finalized trace
/// must land in the ring exactly once with exactly its own span.
#[test]
fn stress_counters_histograms_and_ring_from_eight_threads() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 200;
    let ring = Arc::new(tel::FlightRecorder::with_capacity(THREADS * PER_THREAD));
    let ids = Arc::new(Mutex::new(Vec::<u64>::new()));
    let misattributed = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let ring = Arc::clone(&ring);
            let ids = Arc::clone(&ids);
            let misattributed = Arc::clone(&misattributed);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    tel::counter("test.stress.ops").inc();
                    tel::histogram("test.stress.lat", &[1.0, 10.0]).observe(i as f64);
                    let ctx = tel::TraceContext::new();
                    {
                        let _guard = ctx.enter();
                        let _span = tel::span("test.stress.work");
                    }
                    if let Some(trace) = ctx.finalize() {
                        if trace.spans.len() != 1 || trace.spans[0].name != "test.stress.work" {
                            misattributed.fetch_add(1, Ordering::Relaxed);
                        }
                        ids.lock().unwrap().push(trace.trace_id);
                        ring.record(trace);
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(tel::counter("test.stress.ops").get(), total);
    assert_eq!(
        tel::histogram("test.stress.lat", &[1.0, 10.0]).count(),
        total
    );
    assert_eq!(misattributed.load(Ordering::Relaxed), 0);
    assert_eq!(ring.recorded(), total);
    // No lost or duplicated trace records: the ring holds every id
    // exactly once.
    let mut expected = ids.lock().unwrap().clone();
    let mut held: Vec<u64> = ring
        .recent(THREADS * PER_THREAD)
        .iter()
        .map(|t| t.trace_id)
        .collect();
    expected.sort_unstable();
    held.sort_unstable();
    assert_eq!(held.len(), THREADS * PER_THREAD);
    assert_eq!(held, expected);
}

/// A writer that appends into a shared buffer, so the test can read back
/// what the slow-query log wrote.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The slow-query log records queries over the threshold and *all*
/// abnormal outcomes (shed, cancelled, …) regardless of duration; fast
/// completed queries stay out. The sink is process-global, so every
/// assertion filters by this test's own trace ids. This is the only
/// test in the binary that configures the sink.
#[test]
fn slow_query_log_captures_slow_and_shed_queries() {
    let buf = Arc::new(Mutex::new(Vec::new()));
    // Huge threshold: only abnormal outcomes (and nothing by duration).
    tel::configure_slow_query_log(
        Box::new(SharedBuf(Arc::clone(&buf))),
        Duration::from_secs(3600),
    );

    let shed = tel::TraceContext::new();
    shed.set_label("slowlog/shed");
    shed.set_outcome(tel::TraceOutcome::Shed);
    let shed_id = shed.id();
    drop(shed); // Drop safety net must finalize and log it

    let fast = tel::TraceContext::new();
    fast.set_label("slowlog/fast");
    let fast_id = fast.id();
    fast.finalize();

    // Threshold zero: now even a fast completed query qualifies.
    tel::configure_slow_query_log(Box::new(SharedBuf(Arc::clone(&buf))), Duration::ZERO);
    let slow = tel::TraceContext::new();
    slow.set_label("slowlog/slow");
    let slow_id = slow.id();
    std::thread::sleep(Duration::from_millis(2));
    slow.finalize();

    tel::disable_slow_query_log();
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    assert!(
        text.contains(&tel::format_trace_id(shed_id)),
        "shed query must be logged despite the huge threshold: {text}"
    );
    assert!(
        !text.contains(&tel::format_trace_id(fast_id)),
        "fast completed query must not be logged under a huge threshold"
    );
    assert!(
        text.contains(&tel::format_trace_id(slow_id)),
        "over-threshold query must be logged"
    );
    // Every line the sink wrote is standalone valid JSON.
    for line in text.lines() {
        let parsed: serde::Value = serde_json::from_str(line).expect("slow log line is JSON");
        assert!(matches!(parsed, serde::Value::Obj(_)));
    }
}

/// `QueryTrace::to_json` round-trips through the JSON parser and the
/// waterfall view sorts spans by their offset into the query.
#[test]
fn finalized_traces_export_ordered_waterfalls() {
    let trace = tel::QueryTrace {
        trace_id: 0xabc,
        label: "wf/check".into(),
        outcome: tel::TraceOutcome::DeadlineExceeded,
        start_nanos: 100,
        total_nanos: 5_000,
        alloc_bytes: 4_096,
        alloc_count: 7,
        cpu_nanos: 3_000,
        counts: vec![("test.wf.rows", 9)],
        spans: vec![
            tel::SpanRecord {
                name: "test.wf.late",
                depth: 0,
                start_nanos: 2_100,
                nanos: 500,
            },
            tel::SpanRecord {
                name: "test.wf.early",
                depth: 0,
                start_nanos: 150,
                nanos: 1_000,
            },
        ],
    };
    let rows = trace.waterfall();
    assert_eq!(rows[0], ("test.wf.early", 0, 50, 1_000));
    assert_eq!(rows[1], ("test.wf.late", 0, 2_000, 500));

    let json = trace.to_json();
    let parsed: serde::Value = serde_json::from_str(&json).expect("trace JSON parses");
    let serde::Value::Obj(fields) = parsed else {
        panic!("trace JSON must be an object");
    };
    let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
    assert_eq!(
        get("trace_id"),
        Some(serde::Value::Str("000000000abc".into()))
    );
    assert_eq!(
        get("outcome"),
        Some(serde::Value::Str("deadline_exceeded".into()))
    );
    assert_eq!(get("batch_size"), None, "a trace is one query's work");
    assert_eq!(
        get("counts"),
        Some(serde::Value::Obj(vec![(
            "test.wf.rows".into(),
            serde::Value::Num(9.0)
        )]))
    );
    assert!(matches!(get("spans"), Some(serde::Value::Arr(a)) if a.len() == 2));
}

/// Trace ids: 48-bit, never zero, printable and parseable both ways.
#[test]
fn trace_ids_mint_format_and_parse() {
    for _ in 0..64 {
        let id = tel::mint_trace_id();
        assert_ne!(id, 0);
        assert!(id < (1u64 << 48));
        let text = tel::format_trace_id(id);
        assert_eq!(text.len(), 12);
        assert_eq!(tel::parse_trace_id(&text), Some(id));
        assert_eq!(tel::parse_trace_id(&format!("0x{text}")), Some(id));
    }
    assert_eq!(tel::parse_trace_id("0"), None);
    assert_eq!(tel::parse_trace_id("not-hex"), None);
    assert_eq!(tel::parse_trace_id(""), None);
}
