//! End-to-end tracing tests: a query over the wire leaves one coherent
//! span tree fetchable through the `Trace` request, shed queries still
//! reach the flight recorder, and the standalone scrape listener serves
//! Prometheus text.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use sketchql_datasets::{query_clip, EventKind};
use sketchql_server::{Client, Engine, EngineConfig, MetricsListener, QuerySpec, Server};
use sketchql_telemetry as tel;

use common::{tiny_model, two_datasets};

fn start_server(workers: usize) -> Server {
    let engine = Engine::start(
        tiny_model(),
        two_datasets(),
        EngineConfig {
            workers,
            ..Default::default()
        },
    );
    Server::start(engine, "127.0.0.1:0").expect("bind ephemeral port")
}

/// The tentpole, end to end: the client mints a trace id, the query runs
/// over the wire, and the `Trace` request returns one span tree under
/// that id covering queue wait, execution, the matcher stages, and
/// response serialization.
#[test]
fn wire_query_yields_a_fetchable_span_tree() {
    let server = start_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let outcome = client
        .query_event("alpha", "left_turn", Some(5), None)
        .unwrap();
    assert_ne!(outcome.trace_id, 0, "server must echo a trace id");

    let traces = client.trace(Some(outcome.trace_id), None).unwrap();
    assert_eq!(traces.len(), 1, "exactly one trace under the client's id");
    let trace = &traces[0];
    assert_eq!(trace.trace_id, outcome.trace_id);
    assert_eq!(trace.label, "alpha");
    assert_eq!(trace.outcome, "completed");
    assert!(trace.batch_size >= 1);
    assert!(trace.total_nanos > 0);

    // The span tree covers the whole query path.
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    for required in [
        tel::names::SERVER_QUEUE_WAIT,
        tel::names::SERVER_EXECUTE,
        tel::names::MATCHER_SEARCH,
        tel::names::MATCHER_PREPARE,
        tel::names::MATCHER_SCAN,
        tel::names::MATCHER_EMBED,
        tel::names::MATCHER_RANK,
        tel::names::SERVER_SERIALIZE,
    ] {
        assert!(
            names.contains(&required),
            "missing span {required}: {names:?}"
        );
    }
    // Stage structure: matcher stages nest under the worker's execute
    // span, and every span fits inside the trace.
    let execute = trace
        .spans
        .iter()
        .find(|s| s.name == tel::names::SERVER_EXECUTE)
        .unwrap();
    assert_eq!(execute.depth, 0);
    let search = trace
        .spans
        .iter()
        .find(|s| s.name == tel::names::MATCHER_SEARCH)
        .unwrap();
    assert!(search.depth > execute.depth);
    for span in &trace.spans {
        assert!(
            span.start_nanos + span.nanos <= trace.total_nanos + trace.total_nanos / 10,
            "span {} [{}, +{}] escapes the trace ({} ns total)",
            span.name,
            span.start_nanos,
            span.nanos,
            trace.total_nanos
        );
    }

    // The depth-0 stages (queue wait, execute, serialize) tile the
    // query: their union accounts for nearly all of the wall clock. The
    // strict budget is 5%; allow more slack here because parallel test
    // binaries can preempt the worker between stages.
    let mut intervals: Vec<(u64, u64)> = trace
        .spans
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| (s.start_nanos, s.start_nanos + s.nanos))
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = 0u64;
    for (start, end) in intervals {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    assert!(
        covered <= trace.total_nanos,
        "stage union {covered} exceeds wall clock {}",
        trace.total_nanos
    );
    assert!(
        covered as f64 >= 0.75 * trace.total_nanos as f64,
        "stage union {covered} covers too little of the {} ns wall clock",
        trace.total_nanos
    );

    // The same trace also shows up in a recent-traces listing.
    let recent = client.trace(None, Some(64)).unwrap();
    assert!(recent.iter().any(|t| t.trace_id == outcome.trace_id));

    // And the wire metrics snapshot carries the new series.
    let prom = client.metrics_text().unwrap();
    assert!(prom.contains("sketchql_server_queue_wait_ms_bucket"));
    assert!(prom.contains("sketchql_server_fused_batch_size"));
    assert!(prom.contains("sketchql_server_queue_depth"));

    server.shutdown();
}

/// A query shed at admission (queue full) still finalizes its trace —
/// the flight recorder keeps evidence of queries that never ran.
#[test]
fn shed_queries_leave_a_trace_with_a_shed_outcome() {
    let engine = Engine::start(
        tiny_model(),
        two_datasets(),
        EngineConfig {
            workers: 1,
            queue_depth: 0,
            ..Default::default()
        },
    );
    let shed_id = tel::mint_trace_id();
    let mut spec = QuerySpec::new("alpha", query_clip(EventKind::LeftTurn));
    spec.trace = Some(shed_id);
    let err = engine.execute(spec);
    assert!(err.is_err(), "zero-depth queue must shed the query");
    let trace = tel::flight_recorder()
        .find(shed_id)
        .expect("shed query must still reach the flight recorder");
    assert_eq!(trace.outcome, tel::TraceOutcome::Shed);
    assert_eq!(trace.label, "alpha");
    engine.shutdown();
}

/// The standalone scrape listener answers plain HTTP with the full
/// Prometheus exposition, independent of the wire server.
#[test]
fn scrape_listener_serves_prometheus_text() {
    // Touch a metric so the exposition is non-empty even if this test
    // runs before any query-driven test.
    tel::counter("test.scrape.touch").inc();

    let listener = MetricsListener::start("127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .unwrap();
    stream.flush().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    listener.shutdown();

    assert!(
        response.starts_with("HTTP/1.0 200 OK"),
        "unexpected status line: {response:?}"
    );
    assert!(response.contains("Content-Type: text/plain"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("");
    assert!(body.contains("test_scrape_touch"));
}
