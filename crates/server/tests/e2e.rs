//! End-to-end wire tests: a real TCP server on an ephemeral port, real
//! clients, graceful shutdown.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sketchql_datasets::{query_clip, EventKind};
use sketchql_server::{
    Client, ClientError, Engine, EngineConfig, ErrorKind, QuerySpec, Response, Server,
    MAX_REQUEST_BYTES, PROTOCOL_VERSION,
};

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

#[test]
fn ping_list_query_shutdown_round_trip() {
    let server = start_server(2);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);

    let datasets = client.list_datasets().unwrap();
    assert_eq!(
        datasets.iter().map(|d| d.name.as_str()).collect::<Vec<_>>(),
        vec!["alpha", "beta"],
    );
    assert!(datasets.iter().all(|d| d.frames > 0 && d.tracks > 0));

    // Wire answers are byte-identical to in-process execution: floats
    // serialize via shortest round-trip formatting, so nothing is lost.
    let direct = server
        .engine()
        .execute(QuerySpec {
            top_k: Some(5),
            ..QuerySpec::new("alpha", query_clip(EventKind::LeftTurn))
        })
        .unwrap();
    let outcome = client
        .query_event("alpha", "left_turn", Some(5), None)
        .unwrap();
    assert!(!outcome.moments.is_empty());
    assert_eq!(outcome.moments, direct.moments);

    let stats = client.stats().unwrap();
    assert_eq!(stats.workers, 2);
    assert!(stats.completed >= 2);

    client.shutdown().unwrap();
    server.wait_for_shutdown_request();
    server.shutdown();
}

#[test]
fn error_responses_keep_the_connection_usable() {
    let server = start_server(1);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let err = client
        .query_event("alpha", "moonwalk", None, None)
        .unwrap_err();
    assert!(matches!(
        err,
        ClientError::Server {
            kind: ErrorKind::UnknownEvent,
            ..
        }
    ));

    let err = client
        .query_event("nope", "left_turn", None, None)
        .unwrap_err();
    assert!(matches!(
        err,
        ClientError::Server {
            kind: ErrorKind::UnknownDataset,
            ..
        }
    ));

    // The same connection still answers real queries afterwards.
    let outcome = client.query_event("beta", "u_turn", Some(3), None).unwrap();
    assert!(outcome.moments.len() <= 3);

    server.shutdown();
}

/// A closed loop — each request waits for the previous reply — must not
/// pay a Nagle / delayed-ACK stall per round trip: every line is one
/// write on a no-delay socket, on both ends. With the reply split in
/// two writes these 250 round trips took ~11 s (44 ms each).
#[test]
fn closed_loop_round_trips_do_not_stall_on_the_wire() {
    use sketchql::{ingest_sharded, IngestConfig, MatcherConfig};

    let model = tiny_model();
    let datasets = two_datasets();
    let sketch = query_clip(EventKind::LeftTurn);
    let dir = std::env::temp_dir().join(format!("skql-e2e-wire-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let set = ingest_sharded(
        &model.similarity(),
        &datasets["alpha"],
        "alpha",
        &IngestConfig::from_matcher(&MatcherConfig::default(), &[sketch.span()]),
        datasets["alpha"].frames,
        &dir,
        &|_| {},
    )
    .unwrap();
    let stores = std::collections::BTreeMap::from([("alpha".to_string(), set)]);
    let engine = Engine::start_with_stores(model, datasets, stores, EngineConfig::default());
    let server = Server::start(engine, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Fault the shard in before the clock starts.
    client
        .query_event("alpha", "left_turn", None, None)
        .unwrap();

    let started = Instant::now();
    for _ in 0..200 {
        client.ping().unwrap();
    }
    for _ in 0..50 {
        let outcome = client
            .query_event("alpha", "left_turn", None, None)
            .unwrap();
        assert!(!outcome.moments.is_empty());
    }
    let took = started.elapsed();
    assert_eq!(server.engine().stats().store_hits, 51, "not store-served");
    assert!(
        took < Duration::from_secs(2),
        "250 closed-loop round trips took {took:?}"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes one raw request line and reads the one response line back.
fn raw_round_trip(stream: &mut TcpStream, line: &str) -> Response {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    serde_json::from_str(reply.trim()).unwrap()
}

#[test]
fn garbage_line_gets_bad_request_not_a_hangup() {
    let server = start_server(1);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    assert!(matches!(
        raw_round_trip(&mut stream, "this is not json"),
        Response::Error {
            kind: ErrorKind::BadRequest,
            ..
        }
    ));

    // Connection survives: a valid request on the same socket works.
    assert_eq!(
        raw_round_trip(&mut stream, "\"Ping\""),
        Response::Pong {
            version: PROTOCOL_VERSION
        }
    );
    server.shutdown();
}

/// Requests carry every field of their variant: a `Query` that leaves
/// one out is a bad request naming the field, not a silent default.
#[test]
fn query_missing_a_field_is_a_bad_request_naming_it() {
    let server = start_server(1);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let no_trace_id = "{\"Query\":{\"dataset\":\"alpha\",\"event\":\"left_turn\",\"clip\":null,\
                       \"top_k\":3,\"deadline_ms\":null}}";
    let Response::Error { kind, message } = raw_round_trip(&mut stream, no_trace_id) else {
        panic!("a Query without `trace_id` must be refused");
    };
    assert_eq!(kind, ErrorKind::BadRequest);
    assert!(message.contains("\"trace_id\""), "message was {message:?}");

    assert_eq!(
        raw_round_trip(&mut stream, "\"Ping\""),
        Response::Pong {
            version: PROTOCOL_VERSION
        }
    );
    server.shutdown();
}

/// A client that never sends a newline cannot grow the server's line
/// buffer without bound: past `MAX_REQUEST_BYTES` it is told so once
/// and disconnected, and the server keeps serving everyone else.
#[test]
fn oversized_request_line_is_rejected_and_the_server_stays_healthy() {
    // The cap leaves generous room for the largest legitimate line, a
    // `Query` carrying an inline clip.
    let largest = EventKind::ALL
        .iter()
        .map(|&kind| {
            let req = sketchql_server::Request::Query {
                dataset: "alpha".into(),
                event: None,
                clip: Some(query_clip(kind)),
                top_k: None,
                deadline_ms: None,
                trace_id: None,
            };
            serde_json::to_string(&req).unwrap().len()
        })
        .max()
        .unwrap();
    assert!(MAX_REQUEST_BYTES >= 4 * largest, "largest query {largest}");

    let server = start_server(1);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // The server hangs up part-way through; a failed write is expected.
    let chunk = vec![b'x'; 64 * 1024];
    for _ in 0..(2 * MAX_REQUEST_BYTES / chunk.len()) {
        if stream.write_all(&chunk).is_err() {
            break;
        }
    }
    // Either the error line arrives, or the reset that follows a close
    // with unread input swallowed it; the connection must end either way.
    let mut reply = String::new();
    if let Err(e) = stream.read_to_string(&mut reply) {
        assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "the server kept the connection open"
        );
    }
    if !reply.is_empty() {
        let Response::Error { kind, message } = serde_json::from_str(reply.trim()).unwrap() else {
            panic!("expected an error line, got {reply:?}");
        };
        assert_eq!(kind, ErrorKind::BadRequest);
        assert!(message.contains("exceeds"), "message was {message:?}");
    }

    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);
    server.shutdown();
}

/// A line well under `MAX_REQUEST_BYTES` can still nest deeper than any
/// request does: 100 000 `[`s once overflowed the connection thread's
/// stack and took the whole process down. Now it is a bad request (or a
/// closed connection), and the server keeps serving.
#[test]
fn a_deeply_nested_line_is_refused_without_killing_the_server() {
    let server = start_server(1);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let line = "[".repeat(100_000);
    assert!(line.len() < MAX_REQUEST_BYTES);
    if stream.write_all(format!("{line}\n").as_bytes()).is_ok() {
        let mut reply = String::new();
        let read = BufReader::new(stream.try_clone().unwrap()).read_line(&mut reply);
        if read.is_ok_and(|n| n > 0) {
            let response: Response = serde_json::from_str(reply.trim()).unwrap();
            assert!(
                matches!(
                    response,
                    Response::Error {
                        kind: ErrorKind::BadRequest,
                        ..
                    }
                ),
                "expected a bad request, got {response:?}"
            );
        }
    }

    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);
    server.shutdown();
}

#[test]
fn concurrent_wire_clients_get_identical_answers() {
    let server = start_server(4);
    let addr = server.local_addr();

    let mut reference = Client::connect(addr).unwrap();
    let expected = reference
        .query_event("alpha", "left_turn", None, None)
        .unwrap()
        .moments;

    let all: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client
                        .query_event("alpha", "left_turn", None, None)
                        .unwrap()
                        .moments
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for moments in all {
        assert_eq!(moments, expected, "wire client diverged");
    }
    server.shutdown();
}
