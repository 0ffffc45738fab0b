//! The TCP front end: blocking accept loop, one thread per connection.
//!
//! Built on `std::net` only — no async runtime. Each connection reads
//! line-delimited [`Request`]s and writes one [`Response`] line per
//! request; query execution happens inline on the connection thread via
//! [`Engine::execute`], so backpressure is the engine's admission queue,
//! not socket buffering.
//!
//! Shutdown is cooperative. A wire [`Request::Shutdown`] (or
//! [`Server::request_shutdown`]) flips the running flag and wakes
//! [`Server::wait_for_shutdown_request`]; the owner then calls
//! [`Server::shutdown`], which unblocks the accept loop by connecting to
//! itself, joins the connection threads (they poll the flag on a short
//! read timeout), and finally drains the engine — every already-admitted
//! query is answered before the process exits.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind as IoErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sketchql_datasets::{query_clip, EventKind};
use sketchql_telemetry::{self as telemetry, names, TraceContext};

use crate::engine::{Engine, QuerySpec};
use crate::protocol::{write_line, ErrorKind, Request, Response, WireTrace, PROTOCOL_VERSION};

/// How often an idle connection thread re-checks the running flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Longest request line a connection may send. The largest legitimate
/// line is a `Query` carrying an inline clip (tens of kilobytes); a
/// client that streams past the cap without a newline is answered
/// `BadRequest` once and disconnected instead of growing the line
/// buffer without bound.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Traces returned by a `Trace` request that names no id and no limit.
const DEFAULT_TRACE_LIMIT: usize = 16;

/// Longest on-demand profiling window a `Profile` request may ask for.
/// The collection blocks the requesting connection thread, so the cap
/// keeps a stray request from pinning a thread for minutes.
const MAX_PROFILE_SECONDS: u64 = 60;

/// Sampling rate used when a `Profile` request names none.
const DEFAULT_PROFILE_HZ: u64 = 97;

/// A running TCP server wrapping an [`Engine`].
pub struct Server {
    engine: Arc<Engine>,
    local_addr: SocketAddr,
    running: Arc<AtomicBool>,
    shutdown_signal: Arc<(Mutex<bool>, Condvar)>,
    accept_thread: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections against `engine`.
    pub fn start(engine: Engine, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let engine = Arc::new(engine);
        let running = Arc::new(AtomicBool::new(true));
        let shutdown_signal = Arc::new((Mutex::new(false), Condvar::new()));
        let connections = Arc::new(Mutex::new(Vec::new()));

        let accept_thread = {
            let engine = Arc::clone(&engine);
            let running = Arc::clone(&running);
            let shutdown_signal = Arc::clone(&shutdown_signal);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("sketchql-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if !running.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        telemetry::counter(names::SERVER_CONNECTIONS).inc();
                        let engine = Arc::clone(&engine);
                        let running = Arc::clone(&running);
                        let shutdown_signal = Arc::clone(&shutdown_signal);
                        let handle = std::thread::Builder::new()
                            .name("sketchql-conn".into())
                            .spawn(move || {
                                handle_connection(stream, &engine, &running, &shutdown_signal)
                            });
                        if let Ok(handle) = handle {
                            // Reap on accept, so the list tracks open
                            // connections, not every connection ever made.
                            let mut connections = connections.lock().unwrap();
                            connections.retain(|h: &JoinHandle<()>| !h.is_finished());
                            connections.push(handle);
                        }
                    }
                })?
        };

        Ok(Server {
            engine,
            local_addr,
            running,
            shutdown_signal,
            accept_thread: Some(accept_thread),
            connections,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine behind this server.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// A shared handle to the engine, for owner-side threads that
    /// outlive borrows of the server — e.g. a live-ingest poller that
    /// calls [`Engine::reload_dataset`] while the accept loop runs.
    pub fn engine_handle(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// Blocks until a shutdown is requested (over the wire or via
    /// [`Server::request_shutdown`]). The caller should then call
    /// [`Server::shutdown`].
    pub fn wait_for_shutdown_request(&self) {
        let (flag, condvar) = &*self.shutdown_signal;
        let mut requested = flag.lock().unwrap();
        while !*requested {
            requested = condvar.wait(requested).unwrap();
        }
    }

    /// Requests shutdown from the owning process (equivalent to a wire
    /// [`Request::Shutdown`]).
    pub fn request_shutdown(&self) {
        signal_shutdown(&self.running, &self.shutdown_signal);
    }

    /// Stops accepting, joins every connection thread, and drains the
    /// engine. Admitted queries are answered before this returns.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        // The accept loop blocks in `accept`; a throwaway connection
        // wakes it so it can observe the cleared running flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = self.connections.lock().unwrap().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        self.engine.shutdown();
    }
}

/// Flips the running flag and wakes `wait_for_shutdown_request`.
fn signal_shutdown(running: &AtomicBool, signal: &(Mutex<bool>, Condvar)) {
    running.store(false, Ordering::SeqCst);
    let (flag, condvar) = signal;
    *flag.lock().unwrap() = true;
    condvar.notify_all();
}

/// One connection: read request lines, answer each, until EOF,
/// shutdown, or a line longer than [`MAX_REQUEST_BYTES`]. A read timeout
/// keeps idle connections responsive to the running flag;
/// partially-read lines survive the timeout because `read_line` appends.
fn handle_connection(
    stream: TcpStream,
    engine: &Engine,
    running: &AtomicBool,
    shutdown_signal: &(Mutex<bool>, Condvar),
) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    // Replies are single small writes a closed-loop client is waiting
    // on; without this Nagle holds each one for the peer's delayed ACK.
    // Best effort, as in `Client::connect`: a socket that refuses the
    // option still answers, only slower.
    stream.set_nodelay(true).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        // One byte past the cap is enough to tell "too long" from "fits".
        let budget = (MAX_REQUEST_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(budget).read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.len() > MAX_REQUEST_BYTES => {
                let _ = write_response(
                    &mut writer,
                    &Response::Error {
                        kind: ErrorKind::BadRequest,
                        message: format!("request exceeds {MAX_REQUEST_BYTES} bytes"),
                    },
                );
                break;
            }
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    telemetry::counter(names::SERVER_REQUESTS).inc();
                    let (response, stop, trace) =
                        handle_request(trimmed, engine, running, shutdown_signal);
                    // Serialization + write happen inside the query's
                    // trace so the span tree covers the response too;
                    // the trace is then complete and finalized into the
                    // flight recorder (and slow-query log).
                    let write_ok = {
                        let _trace_guard = trace.as_ref().map(|t| t.enter());
                        let _serialize_span = trace
                            .as_ref()
                            .map(|_| telemetry::span(names::SERVER_SERIALIZE));
                        write_response(&mut writer, &response)
                    };
                    if let Some(trace) = trace {
                        trace.finalize();
                    }
                    if !write_ok || stop {
                        break;
                    }
                }
                line.clear();
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock || e.kind() == IoErrorKind::TimedOut => {
                if !running.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Writes one response line; `false` if the peer is gone.
fn write_response(writer: &mut TcpStream, response: &Response) -> bool {
    serde_json::to_string(response).is_ok_and(|json| write_line(writer, json).is_ok())
}

/// Serves one parsed request line. The bool asks the connection loop to
/// close after writing the response; the [`TraceContext`] (queries
/// only) lets the loop time serialization inside the trace before
/// finalizing it.
fn handle_request(
    line: &str,
    engine: &Engine,
    running: &AtomicBool,
    shutdown_signal: &(Mutex<bool>, Condvar),
) -> (Response, bool, Option<TraceContext>) {
    let request: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            return (
                Response::Error {
                    kind: ErrorKind::BadRequest,
                    message: format!("unparseable request: {e}"),
                },
                false,
                None,
            )
        }
    };
    match request {
        Request::Ping => (
            Response::Pong {
                version: PROTOCOL_VERSION,
            },
            false,
            None,
        ),
        Request::ListDatasets => (
            Response::Datasets {
                datasets: engine.datasets(),
            },
            false,
            None,
        ),
        Request::Stats => (
            Response::Stats {
                stats: engine.stats(),
            },
            false,
            None,
        ),
        Request::Trace { trace_id, limit } => {
            let recorder = telemetry::flight_recorder();
            let traces: Vec<WireTrace> = match trace_id {
                Some(id) => recorder
                    .find(id)
                    .iter()
                    .map(|t| WireTrace::from_query_trace(t))
                    .collect(),
                None => recorder
                    .recent(limit.unwrap_or(DEFAULT_TRACE_LIMIT))
                    .iter()
                    .map(|t| WireTrace::from_query_trace(t))
                    .collect(),
            };
            (Response::Traces { traces }, false, None)
        }
        Request::Metrics => (
            Response::MetricsText {
                prometheus: telemetry::snapshot_prometheus(),
            },
            false,
            None,
        ),
        Request::Profile { seconds, hz } => {
            // seconds = 0 (or absent) answers from the continuous
            // profiler's running aggregate without blocking; a positive
            // window collects fresh samples on this connection thread.
            let report = match seconds.unwrap_or(0).min(MAX_PROFILE_SECONDS) {
                0 => telemetry::continuous_profile_snapshot().unwrap_or_default(),
                secs => telemetry::collect_profile(
                    Duration::from_secs(secs),
                    hz.unwrap_or(DEFAULT_PROFILE_HZ).min(1000) as u32,
                ),
            };
            (
                Response::Profile {
                    folded: report.folded(),
                    samples: report.samples,
                    duration_ms: report.duration_nanos / 1_000_000,
                },
                false,
                None,
            )
        }
        Request::Query {
            dataset,
            event,
            clip,
            top_k,
            deadline_ms,
            trace_id,
            class,
            priority,
        } => {
            if !running.load(Ordering::SeqCst) {
                return (
                    Response::Error {
                        kind: ErrorKind::ShuttingDown,
                        message: "server is shutting down".into(),
                    },
                    false,
                    None,
                );
            }
            let query = match resolve_sketch(clip, event) {
                Ok(clip) => clip,
                Err(response) => return (*response, false, None),
            };
            let spec = QuerySpec {
                dataset,
                query,
                top_k,
                deadline: deadline_ms.map(Duration::from_millis),
                trace: trace_id.filter(|id| *id != 0),
                class,
                priority,
                min_end: None,
            };
            match engine.execute(spec) {
                Ok(result) => {
                    let trace = result.trace.clone();
                    (
                        Response::Moments {
                            moments: result.moments,
                            queue_wait_ms: result.queue_wait.as_millis() as u64,
                            execute_ms: result.execute.as_millis() as u64,
                            batch_size: result.batch_size,
                            trace_id: trace.id(),
                        },
                        false,
                        Some(trace),
                    )
                }
                Err(e) => (Response::from_engine_error(&e), false, None),
            }
        }
        Request::Register {
            dataset,
            event,
            clip,
            min_score,
            top_k,
        } => {
            if !running.load(Ordering::SeqCst) {
                return (
                    Response::Error {
                        kind: ErrorKind::ShuttingDown,
                        message: "server is shutting down".into(),
                    },
                    false,
                    None,
                );
            }
            let query = match resolve_sketch(clip, event) {
                Ok(clip) => clip,
                Err(response) => return (*response, false, None),
            };
            let response = match engine.register(&dataset, query, min_score, top_k) {
                Ok(reg) => Response::Registered {
                    registration_id: reg.id,
                    watermark: reg.watermark,
                },
                Err(e) => Response::from_engine_error(&e),
            };
            (response, false, None)
        }
        Request::Unregister { registration_id } => {
            let response = if engine.unregister(registration_id) {
                Response::Unregistered { registration_id }
            } else {
                Response::Error {
                    kind: ErrorKind::BadRequest,
                    message: format!("unknown registration id {registration_id}"),
                }
            };
            (response, false, None)
        }
        Request::Notifications {
            registration_id,
            max,
        } => {
            let response = match engine.notifications(registration_id, max) {
                Some(n) => Response::Notifications {
                    registration_id: n.registration_id,
                    epoch: n.epoch,
                    watermark: n.watermark,
                    dropped: n.dropped,
                    matches: n.matches,
                },
                None => Response::Error {
                    kind: ErrorKind::BadRequest,
                    message: format!("unknown registration id {registration_id}"),
                },
            };
            (response, false, None)
        }
        Request::Shutdown => {
            signal_shutdown(running, shutdown_signal);
            (Response::ShutdownAck, true, None)
        }
    }
}

/// Resolves a request's `clip`/`event` pair into the sketch to run,
/// with the same precedence `Query` has always used: an inline clip
/// wins, otherwise the event name is looked up in the catalogue, and
/// naming neither is a bad request.
fn resolve_sketch(
    clip: Option<sketchql_trajectory::Clip>,
    event: Option<String>,
) -> Result<sketchql_trajectory::Clip, Box<Response>> {
    match (clip, event) {
        (Some(clip), _) => Ok(clip),
        (None, Some(name)) => match EventKind::ALL.iter().find(|k| k.name() == name) {
            Some(kind) => Ok(query_clip(*kind)),
            None => Err(Box::new(Response::Error {
                kind: ErrorKind::UnknownEvent,
                message: format!("unknown event {name:?}"),
            })),
        },
        (None, None) => Err(Box::new(Response::Error {
            kind: ErrorKind::BadRequest,
            message: "query needs an event name or an inline clip".into(),
        })),
    }
}

/// Loads named [`VideoIndex`]es for [`Engine::start`] from `(name, index)`
/// pairs, rejecting duplicate names.
pub fn named_datasets<I>(pairs: I) -> Result<BTreeMap<String, sketchql::VideoIndex>, String>
where
    I: IntoIterator<Item = (String, sketchql::VideoIndex)>,
{
    let mut map = BTreeMap::new();
    for (name, index) in pairs {
        if map.insert(name.clone(), index).is_some() {
            return Err(format!("duplicate dataset name {name:?}"));
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, EngineConfig};
    use sketchql::training::{train, TrainingConfig};
    use std::time::Instant;

    /// A long-lived server tracks the connections that are open, not
    /// one join handle per connection ever made.
    #[test]
    fn finished_connections_are_reaped_on_accept() {
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 1;
        let engine = Engine::start(train(cfg), BTreeMap::new(), EngineConfig::default());
        let server = Server::start(engine, "127.0.0.1:0").unwrap();
        let knock = || {
            Client::connect(server.local_addr())
                .unwrap()
                .ping()
                .unwrap();
            server.connections.lock().unwrap().len()
        };
        let peak = (0..200).map(|_| knock()).max().unwrap();
        assert!(peak < 100, "{peak} handles tracked for 200 connections");
        // A closed connection's thread exits on its own schedule and is
        // reaped by the next accept: knock until the list has settled
        // at the knocking connection plus at most one straggler.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let tracked = knock();
            if tracked <= 2 {
                break;
            }
            assert!(Instant::now() < deadline, "{tracked} handles still tracked");
        }
        server.shutdown();
    }
}
