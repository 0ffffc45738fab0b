//! The wire protocol: line-delimited JSON over TCP.
//!
//! One request per line, one response line per request, in order. A
//! line is one `write` on a socket with `TCP_NODELAY` set, on both
//! ends (`write_line`): a closed loop waits for every reply before
//! sending again, so a line split across two small segments is parked
//! by Nagle's algorithm until the peer's delayed ACK (~40 ms). Both
//! sides are plain externally-tagged serde enums, so a session looks
//! like:
//!
//! ```text
//! → "Ping"
//! ← {"Pong":{"version":6}}
//! → {"Query":{"dataset":"traffic","event":"left_turn","clip":null,"top_k":5,"deadline_ms":2000,"trace_id":181696028373}}
//! ← {"Moments":{"moments":[...],"queue_wait_ms":0,"execute_ms":41,"batch_size":1,"trace_id":181696028373}}
//! → {"Trace":{"trace_id":181696028373,"limit":null}}
//! ← {"Traces":{"traces":[{"trace_id":181696028373,"label":"traffic","outcome":"completed","batch_size":1,"total_nanos":1234567,"alloc_bytes":52480,"alloc_count":120,"cpu_nanos":1100000,"counts":{"sketchql.store.hits":1,"sketchql.store.rows_probed":266,...},"spans":[...]}]}}
//! ```
//!
//! Both directions use the derived (de)serializers: a request carries
//! every field of its variant (absent options are `null`; a missing
//! field is a parse error naming it), and unknown fields are ignored.
//! A reply with a body of its own is one struct from the server to
//! the client's caller: `Moments`, `Profile`, `Registered` and
//! `Notifications` are newtype variants, and a one-field tuple variant
//! serializes as `{"Tag": <inner>}` — the bytes of a struct variant
//! with the inner struct's fields.
//! A request the server cannot parse is answered with
//! [`Response::Error`] of kind [`ErrorKind::BadRequest`] — the
//! connection stays usable.
//!
//! [`Request::Query`] names its sketch either by `event` (a canonical
//! event query from the datasets crate, e.g. `"left_turn"`) or by an
//! inline `clip` (a full compiled sketch). Exactly one must be non-null;
//! `clip` wins if both are.
//!
//! Trace ids are 48-bit integers (see
//! [`sketchql_telemetry::mint_trace_id`]) so they survive JSON numbers
//! stored as `f64`.

use std::collections::BTreeMap;
use std::io::Write;

use serde::{Deserialize, Serialize};
use sketchql::RetrievedMoment;
use sketchql_trajectory::Clip;

use crate::engine::{DatasetInfo, EngineError, EngineStats, QueryResult};
use crate::live::LiveNotifications;

/// Bumped on incompatible wire changes; echoed by [`Response::Pong`].
/// Compatibility is kept with the current and the previous version
/// only. Version 6 added the `Register`/`Unregister`/`Notifications`
/// requests and their responses; a version-5 client sends every
/// `Query` field, never sends the new requests and never provokes the
/// new responses, so it still round-trips. The `class` and `priority`
/// fields v5 and v6 clients put on a `Query` line are ignored like any
/// unknown field, and the Stats reply still carries the `rate_limited`
/// (always 0) and `classes` (always empty) fields they parse.
pub const PROTOCOL_VERSION: u32 = 6;

/// Sends one protocol line: `json` and its terminating `\n` in a single
/// `write_all`. Every line either end sends goes through here; the
/// socket must have `TCP_NODELAY` set (see the module docs).
pub(crate) fn write_line(writer: &mut impl Write, mut json: String) -> std::io::Result<()> {
    json.push('\n');
    writer.write_all(json.as_bytes())
}

/// A client request: one JSON value per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// List loaded datasets.
    ListDatasets,
    /// Engine queue/traffic statistics.
    Stats,
    /// Execute a moment query.
    Query {
        /// Dataset to search.
        dataset: String,
        /// Canonical event query name (e.g. `"left_turn"`), or null.
        event: Option<String>,
        /// Inline query clip, or null. Takes precedence over `event`.
        clip: Option<Clip>,
        /// Truncate results to this many moments, or null for the
        /// server's configured top-k.
        top_k: Option<usize>,
        /// Per-query deadline in milliseconds, or null for the server's
        /// default policy.
        deadline_ms: Option<u64>,
        /// Client-minted trace id (48-bit, nonzero), or null to let the
        /// server mint one.
        trace_id: Option<u64>,
    },
    /// Fetch query traces from the server's flight recorder.
    Trace {
        /// A specific trace id, or null for the most recent traces.
        trace_id: Option<u64>,
        /// At most this many traces (server default when null).
        limit: Option<usize>,
    },
    /// Fetch the full metric registry in Prometheus text format.
    Metrics,
    /// Collect a folded-stack profile from the sampling profiler.
    Profile {
        /// Sample for this many seconds (blocking this connection), or
        /// null/0 for a snapshot of the server's continuous profiler.
        /// The server caps the window (60 s).
        seconds: Option<u64>,
        /// Sampling rate in Hz, or null for the server default.
        hz: Option<u64>,
    },
    /// Register a standing query: evaluated against every ingest epoch
    /// appended to the dataset after registration, with matches queued
    /// for [`Request::Notifications`].
    Register {
        /// Dataset to monitor (must have an embedding store attached).
        dataset: String,
        /// Canonical event query name, or null (same rules as `Query`).
        event: Option<String>,
        /// Inline query clip, or null. Takes precedence over `event`.
        clip: Option<Clip>,
        /// Drop matches scoring below this, or null to keep all.
        min_score: Option<f32>,
        /// Per-epoch result cap, or null for the server default.
        top_k: Option<usize>,
    },
    /// Remove a standing query; pending notifications are discarded.
    Unregister {
        /// The id [`Response::Registered`] handed back.
        registration_id: u64,
    },
    /// Drain queued matches for a standing query (oldest first).
    Notifications {
        /// The id [`Response::Registered`] handed back.
        registration_id: u64,
        /// Drain at most this many matches, or null for all.
        max: Option<usize>,
    },
    /// Ask the server process to shut down gracefully.
    Shutdown,
}

/// One span of a wire-fetched trace (see [`WireTrace`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSpan {
    /// Span name, e.g. `sketchql.matcher.scan`.
    pub name: String,
    /// Nesting depth (0 = top-level stage).
    pub depth: usize,
    /// Span start, nanoseconds after the trace started.
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub nanos: u64,
}

/// One query trace as served by [`Request::Trace`]: the flight
/// recorder's `QueryTrace` with span starts rebased to the trace start
/// (the process epoch means nothing off-host).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireTrace {
    /// The 48-bit trace id.
    pub trace_id: u64,
    /// Label, usually `dataset/query`.
    pub label: String,
    /// Outcome name: `completed`, `deadline_exceeded`, `cancelled`,
    /// `shed`, or `failed`.
    pub outcome: String,
    /// Always 1: a trace records exactly one query's work. Kept on the
    /// wire because v5 and v6 clients parse it.
    pub batch_size: usize,
    /// Wall time from admission to finalization, nanoseconds.
    pub total_nanos: u64,
    /// Heap bytes attributed to the query.
    pub alloc_bytes: u64,
    /// Heap allocations attributed to the query.
    pub alloc_count: u64,
    /// CPU nanoseconds attributed to the query.
    pub cpu_nanos: u64,
    /// The counters the query moved, by name — e.g.
    /// `sketchql.store.hits`, `sketchql.store.rows_probed`,
    /// `sketchql.store.fallback.<reason>`. Added without a version bump:
    /// a client that predates it ignores the unknown field.
    pub counts: BTreeMap<String, u64>,
    /// Spans sorted by start offset.
    pub spans: Vec<WireSpan>,
}

impl WireTrace {
    /// Converts a flight-recorder trace for the wire.
    pub fn from_query_trace(t: &sketchql_telemetry::QueryTrace) -> WireTrace {
        WireTrace {
            trace_id: t.trace_id,
            label: t.label.clone(),
            outcome: t.outcome.as_str().to_string(),
            batch_size: 1,
            total_nanos: t.total_nanos,
            alloc_bytes: t.alloc_bytes,
            alloc_count: t.alloc_count,
            cpu_nanos: t.cpu_nanos,
            counts: t
                .counts
                .iter()
                .map(|&(name, n)| (name.to_string(), n))
                .collect(),
            spans: t
                .waterfall()
                .into_iter()
                .map(|(name, depth, start_nanos, nanos)| WireSpan {
                    name: name.to_string(),
                    depth,
                    start_nanos,
                    nanos,
                })
                .collect(),
        }
    }
}

/// A successful query, as [`Response::Moments`] carries it and
/// [`Client`](crate::Client) hands it to its caller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// Retrieved moments, best first.
    pub moments: Vec<RetrievedMoment>,
    /// Milliseconds the query waited for a worker.
    pub queue_wait_ms: u64,
    /// Milliseconds the search took.
    pub execute_ms: u64,
    /// Always 1: every query executes alone. Kept on the wire because
    /// v5 and v6 clients parse it.
    pub batch_size: usize,
    /// The trace id the query ran under (the client-minted id if it sent
    /// one, echoed by the server); fetch the span tree with
    /// [`Request::Trace`] / [`Client::trace`](crate::Client::trace).
    pub trace_id: u64,
}

impl From<QueryResult> for QueryOutcome {
    fn from(r: QueryResult) -> Self {
        QueryOutcome {
            moments: r.moments,
            queue_wait_ms: r.queue_wait.as_millis() as u64,
            execute_ms: r.execute.as_millis() as u64,
            batch_size: r.batch_size,
            trace_id: r.trace.id(),
        }
    }
}

/// A server CPU profile, as [`Response::Profile`] carries it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileOutcome {
    /// Folded stacks, one `thread;span;...;span count` line each —
    /// feed directly to `flamegraph.pl` / `inferno-flamegraph`. Empty
    /// when the continuous profiler is off and a snapshot was requested.
    pub folded: String,
    /// Total per-thread samples behind the profile.
    pub samples: u64,
    /// Wall milliseconds the profile covers.
    pub duration_ms: u64,
}

/// A standing-query registration, as [`Response::Registered`] carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Registered {
    /// Handle for `Unregister` / `Notifications`.
    pub registration_id: u64,
    /// Frame the standing query starts watching from: frames already
    /// ingested are *not* re-reported, only epochs appended after this
    /// point produce notifications.
    pub watermark: u32,
}

/// A server response: one JSON value per line, matching request order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Answer to [`Request::ListDatasets`].
    Datasets {
        /// Loaded datasets in name order.
        datasets: Vec<DatasetInfo>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Engine statistics snapshot.
        stats: EngineStats,
    },
    /// Successful answer to [`Request::Query`].
    Moments(QueryOutcome),
    /// Answer to [`Request::Trace`].
    Traces {
        /// Matching traces, newest first.
        traces: Vec<WireTrace>,
    },
    /// Answer to [`Request::Metrics`].
    MetricsText {
        /// The metric registry in Prometheus text exposition format.
        prometheus: String,
    },
    /// Answer to [`Request::Profile`].
    Profile(ProfileOutcome),
    /// Answer to [`Request::Register`].
    Registered(Registered),
    /// Answer to [`Request::Unregister`].
    Unregistered {
        /// The id that was removed.
        registration_id: u64,
    },
    /// Answer to [`Request::Notifications`]: one drain of the standing
    /// query's queue (at-most-once delivery).
    Notifications(LiveNotifications),
    /// Answer to [`Request::Shutdown`]; the server stops accepting work.
    ShutdownAck,
    /// Any request that could not be served.
    Error {
        /// Machine-readable error class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

/// Machine-readable error classes for [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// Admission queue full; retry with backoff.
    Overloaded,
    /// Server is shutting down.
    ShuttingDown,
    /// The query's deadline passed before it finished.
    DeadlineExceeded,
    /// The query was cancelled.
    Cancelled,
    /// No dataset with that name is loaded.
    UnknownDataset,
    /// The `event` name is not in the query catalogue.
    UnknownEvent,
    /// The request line did not parse or was self-contradictory.
    BadRequest,
    /// Unexpected server-side failure.
    Internal,
}

impl Response {
    /// Maps an engine rejection/failure onto its wire representation.
    pub fn from_engine_error(e: &EngineError) -> Response {
        let kind = match e {
            EngineError::Overloaded { .. } => ErrorKind::Overloaded,
            EngineError::ShuttingDown => ErrorKind::ShuttingDown,
            EngineError::UnknownDataset(_) => ErrorKind::UnknownDataset,
            EngineError::DeadlineExceeded => ErrorKind::DeadlineExceeded,
            EngineError::Cancelled => ErrorKind::Cancelled,
            EngineError::Similarity(_) => ErrorKind::BadRequest,
            EngineError::NotStored(_) => ErrorKind::BadRequest,
            EngineError::StoreMismatch(_) => ErrorKind::Internal,
            EngineError::WorkerLost => ErrorKind::Internal,
        };
        Response::Error {
            kind,
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
#[path = "../../../tests/support/mutants.rs"]
mod mutants;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every request variant, as the round-trip and mutation tests send it.
    fn golden_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::ListDatasets,
            Request::Stats,
            Request::Query {
                dataset: "traffic".into(),
                event: Some("left_turn".into()),
                clip: None,
                top_k: Some(5),
                deadline_ms: None,
                trace_id: Some(0x00ab_cdef_0123),
            },
            Request::Trace {
                trace_id: Some(42),
                limit: None,
            },
            Request::Trace {
                trace_id: None,
                limit: Some(8),
            },
            Request::Profile {
                seconds: Some(2),
                hz: Some(97),
            },
            Request::Profile {
                seconds: None,
                hz: None,
            },
            Request::Metrics,
            Request::Register {
                dataset: "traffic".into(),
                event: Some("left_turn".into()),
                clip: None,
                min_score: Some(0.5),
                top_k: Some(3),
            },
            Request::Unregister { registration_id: 7 },
            Request::Notifications {
                registration_id: 7,
                max: Some(16),
            },
            Request::Notifications {
                registration_id: 8,
                max: None,
            },
            Request::Shutdown,
        ]
    }

    #[test]
    fn requests_round_trip_through_json() {
        for req in golden_requests() {
            let line = serde_json::to_string(&req).unwrap();
            assert!(!line.contains('\n'), "wire lines must be single-line");
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, req);
        }
    }

    /// The four replies that are one struct end to end, each beside the
    /// exact line the struct-variant `Response` of the previous commit
    /// (fields spelled out in the enum) put on the wire for it.
    fn body_replies() -> Vec<(Response, &'static str)> {
        vec![
            (
                Response::Moments(QueryOutcome {
                    moments: vec![RetrievedMoment {
                        start: 10,
                        end: 90,
                        score: 0.625,
                        track_ids: vec![3],
                    }],
                    queue_wait_ms: 0,
                    execute_ms: 41,
                    batch_size: 2,
                    trace_id: 0x00ab_cdef_0123,
                }),
                r#"{"Moments":{"moments":[{"start":10,"end":90,"score":0.625,"track_ids":[3]}],"queue_wait_ms":0,"execute_ms":41,"batch_size":2,"trace_id":737894400291}}"#,
            ),
            (
                Response::Profile(ProfileOutcome {
                    folded: "worker-0;sketchql.server.execute;sketchql.matcher.scan 41\n".into(),
                    samples: 120,
                    duration_ms: 2_000,
                }),
                r#"{"Profile":{"folded":"worker-0;sketchql.server.execute;sketchql.matcher.scan 41\n","samples":120,"duration_ms":2000}}"#,
            ),
            (
                Response::Registered(Registered {
                    registration_id: 3,
                    watermark: 900,
                }),
                r#"{"Registered":{"registration_id":3,"watermark":900}}"#,
            ),
            (
                Response::Notifications(LiveNotifications {
                    registration_id: 3,
                    epoch: 2,
                    watermark: 1100,
                    dropped: 1,
                    matches: vec![crate::live::LiveMatch {
                        start: 930,
                        end: 1010,
                        score: 0.75,
                        track_ids: vec![4, 9],
                        epoch: 2,
                    }],
                }),
                r#"{"Notifications":{"registration_id":3,"epoch":2,"watermark":1100,"dropped":1,"matches":[{"start":930,"end":1010,"score":0.75,"track_ids":[4,9],"epoch":2}]}}"#,
            ),
        ]
    }

    /// Golden lines: the newtype variants serialize to, and parse from,
    /// byte-for-byte what the struct variants they replaced did — which
    /// is why `PROTOCOL_VERSION` did not move.
    #[test]
    fn reply_structs_keep_their_wire_bytes() {
        for (resp, golden) in body_replies() {
            assert_eq!(serde_json::to_string(&resp).unwrap(), golden);
            assert_eq!(serde_json::from_str::<Response>(golden).unwrap(), resp);
        }
    }

    /// Every response variant, as the round-trip and mutation tests send
    /// it.
    fn golden_responses() -> Vec<Response> {
        let mut resps = vec![
            Response::Pong {
                version: PROTOCOL_VERSION,
            },
            Response::Datasets {
                datasets: vec![DatasetInfo {
                    name: "traffic".into(),
                    frames: 900,
                    tracks: 12,
                    stored: true,
                }],
            },
            Response::Traces {
                traces: vec![WireTrace {
                    trace_id: 7,
                    label: "traffic/left_turn".into(),
                    outcome: "completed".into(),
                    batch_size: 1,
                    total_nanos: 1_234_567,
                    alloc_bytes: 52_480,
                    alloc_count: 120,
                    cpu_nanos: 1_100_000,
                    counts: BTreeMap::from([
                        ("sketchql.store.hits".to_string(), 1),
                        ("sketchql.store.rows_probed".to_string(), 266),
                    ]),
                    spans: vec![WireSpan {
                        name: "sketchql.server.queue_wait".into(),
                        depth: 0,
                        start_nanos: 0,
                        nanos: 2_000,
                    }],
                }],
            },
            Response::MetricsText {
                prometheus: "# TYPE x counter\nx 1\n".into(),
            },
            Response::Unregistered { registration_id: 3 },
            Response::ShutdownAck,
            Response::Error {
                kind: ErrorKind::Overloaded,
                message: "overloaded".into(),
            },
        ];
        resps.extend(body_replies().into_iter().map(|(resp, _)| resp));
        resps
    }

    #[test]
    fn responses_round_trip_through_json() {
        for resp in golden_responses() {
            let line = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, resp);
        }
    }

    /// A trace reply's exact line, and proof that `counts` is additive:
    /// a client built before the field existed (a mirror struct without
    /// it) parses the same line, which is why `PROTOCOL_VERSION` stayed.
    #[test]
    fn trace_reply_keeps_its_wire_bytes_and_counts_are_additive() {
        let trace = WireTrace {
            trace_id: 7,
            label: "traffic".into(),
            outcome: "completed".into(),
            batch_size: 1,
            total_nanos: 1_234_567,
            alloc_bytes: 52_480,
            alloc_count: 120,
            cpu_nanos: 1_100_000,
            counts: BTreeMap::from([
                ("sketchql.store.hits".to_string(), 1),
                ("sketchql.store.rows_probed".to_string(), 266),
            ]),
            spans: vec![WireSpan {
                name: "sketchql.server.queue_wait".into(),
                depth: 0,
                start_nanos: 0,
                nanos: 2_000,
            }],
        };
        let golden = TRACE_LINE;
        assert_eq!(serde_json::to_string(&trace).unwrap(), golden);
        assert_eq!(serde_json::from_str::<WireTrace>(golden).unwrap(), trace);

        #[derive(Debug, Deserialize)]
        struct PreCountsTrace {
            trace_id: u64,
            cpu_nanos: u64,
            spans: Vec<WireSpan>,
        }
        let old: PreCountsTrace = serde_json::from_str(golden).unwrap();
        assert_eq!((old.trace_id, old.cpu_nanos), (7, 1_100_000));
        assert_eq!(old.spans, trace.spans);
    }

    /// Garbage never panics the decoder. Beyond two hand-written lines,
    /// every golden line of this module — each request and response
    /// variant, the v5 query, the trace reply — is truncated at every
    /// byte and then mutated 10 000 times by a seeded generator
    /// (`tests/support/mutants.rs`). Every mutant must decode as both a
    /// `Request` and a `Response` to `Ok` or `Err`.
    #[test]
    fn garbage_line_is_a_parse_error_not_a_panic() {
        assert!(serde_json::from_str::<Request>("{\"nope\"").is_err());
        assert!(serde_json::from_str::<Request>("{\"Frobnicate\":{}}").is_err());

        let mut lines: Vec<String> = golden_requests()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .chain(
                golden_responses()
                    .iter()
                    .map(|r| serde_json::to_string(r).unwrap()),
            )
            .collect();
        lines.extend([V5_QUERY_LINE, TRACE_LINE].map(String::from));
        for (seed, line) in (0x5eed..).zip(&lines) {
            super::mutants::never_panics(line.as_bytes(), 10_000, seed, |bytes| {
                let line = String::from_utf8_lossy(bytes);
                let _ = serde_json::from_str::<Request>(&line);
                let _ = serde_json::from_str::<Response>(&line);
            });
        }
    }

    /// The exact bytes a protocol-version-5 client puts on the wire.
    const V5_QUERY_LINE: &str = "{\"Query\":{\"dataset\":\"traffic\",\"event\":\"left_turn\",\
                                 \"clip\":null,\"top_k\":5,\"deadline_ms\":2000,\
                                 \"trace_id\":42,\"class\":\"batch\",\"priority\":-5}}";

    /// A trace reply's exact line.
    const TRACE_LINE: &str = r#"{"trace_id":7,"label":"traffic","outcome":"completed","batch_size":1,"total_nanos":1234567,"alloc_bytes":52480,"alloc_count":120,"cpu_nanos":1100000,"counts":{"sketchql.store.hits":1,"sketchql.store.rows_probed":266},"spans":[{"name":"sketchql.server.queue_wait","depth":0,"start_nanos":0,"nanos":2000}]}"#;

    /// A v5 query line still parses under this v6 server — the live
    /// bump adds request variants but changes nothing about existing
    /// ones, and the line's `class` and `priority` are ignored as
    /// unknown fields.
    #[test]
    fn v5_query_still_parses_under_v6() {
        let req: Request = serde_json::from_str(V5_QUERY_LINE).unwrap();
        assert_eq!(
            req,
            Request::Query {
                dataset: "traffic".into(),
                event: Some("left_turn".into()),
                clip: None,
                top_k: Some(5),
                deadline_ms: Some(2000),
                trace_id: Some(42),
            }
        );
    }

    /// A v6 client parses this server's Stats reply with its own derived
    /// struct: the reply still carries `rate_limited` and `classes`, now
    /// always 0 and empty.
    #[test]
    fn stats_reply_parses_under_a_v6_shaped_client() {
        // A v6 client's class row; the reply carries none, so no field
        // of it is ever read.
        #[allow(dead_code)]
        #[derive(Debug, Deserialize)]
        struct V6ClassStats {
            name: String,
            priority: i32,
            queued: usize,
        }
        #[derive(Debug, Deserialize)]
        struct V6Stats {
            completed: u64,
            rate_limited: u64,
            classes: Vec<V6ClassStats>,
        }
        #[derive(Debug, Deserialize)]
        enum V6Response {
            Stats { stats: V6Stats },
        }

        let stats = EngineStats {
            workers: 2,
            queued: 0,
            in_flight: 0,
            accepted: 3,
            completed: 3,
            rejected_overload: 0,
            timed_out: 0,
            failed: 0,
            store_hits: 0,
            store_fallbacks: 0,
            store_probed: 0,
            rate_limited: 0,
            datasets: Vec::new(),
            classes: Vec::new(),
        };
        let line = serde_json::to_string(&Response::Stats { stats }).unwrap();
        let V6Response::Stats { stats } = serde_json::from_str(&line).unwrap();
        assert_eq!((stats.completed, stats.rate_limited), (3, 0));
        assert!(stats.classes.is_empty());
    }

    /// A v5 client deserializes v6 responses with its derived enum: the
    /// new variants only ever answer the new requests, so a v5-shaped
    /// mirror enum (no live variants) still parses everything a v5
    /// client can provoke.
    #[test]
    fn v6_responses_parse_under_a_v5_shaped_client() {
        #[derive(Debug, PartialEq, Deserialize)]
        enum V5Response {
            Pong { version: u32 },
            ShutdownAck,
        }

        let pong = serde_json::to_string(&Response::Pong {
            version: PROTOCOL_VERSION,
        })
        .unwrap();
        let back: V5Response = serde_json::from_str(&pong).unwrap();
        assert_eq!(back, V5Response::Pong { version: 6 });

        let ack = serde_json::to_string(&Response::ShutdownAck).unwrap();
        let back: V5Response = serde_json::from_str(&ack).unwrap();
        assert_eq!(back, V5Response::ShutdownAck);
    }

    /// Trace ids are minted at 48 bits so they survive the JSON number
    /// model (f64, exact to 2^53).
    #[test]
    fn trace_ids_survive_json_numbers() {
        for _ in 0..64 {
            let id = sketchql_telemetry::mint_trace_id();
            assert!(id != 0 && id < (1 << 48));
            let req = Request::Trace {
                trace_id: Some(id),
                limit: None,
            };
            let line = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, req);
        }
    }
}
