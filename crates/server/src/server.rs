//! The TCP front end: blocking accept loop, one thread per connection.
//!
//! Built on `std::net` only — no async runtime. Each connection reads
//! line-delimited [`Request`]s and writes one [`Response`] line per
//! request; query execution happens inline on the connection thread via
//! [`Engine::execute`], so backpressure is the engine's admission queue,
//! not socket buffering.
//!
//! Shutdown is cooperative. A wire [`Request::Shutdown`] (or
//! [`Server::request_shutdown`]) raises the server's one shutdown flag
//! and wakes [`Server::wait_for_shutdown_request`]; the owner then calls
//! [`Server::shutdown`], which unblocks the accept loop by connecting to
//! itself, joins the connection threads (they poll the flag on a short
//! read timeout), and finally drains the engine — every already-admitted
//! query is answered before the process exits.

use std::io::{BufRead, BufReader, ErrorKind as IoErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sketchql_datasets::{query_clip, EventKind};
use sketchql_telemetry::{self as telemetry, names, TraceContext};

use crate::engine::{Engine, QuerySpec};
use crate::protocol::{
    write_line, ErrorKind, ProfileOutcome, Registered, Request, Response, WireTrace,
    PROTOCOL_VERSION,
};

/// How often an idle connection thread re-checks the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Longest request line a connection may send. The largest legitimate
/// line is a `Query` carrying an inline clip (tens of kilobytes); a
/// client that streams past the cap without a newline is answered
/// `BadRequest` once and disconnected instead of growing the line
/// buffer without bound.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Most connections served at once (each holds a thread). A connection
/// accepted past the cap is answered one [`ErrorKind::Overloaded`]
/// error line and closed, so a flood of sockets costs the server a
/// bounded number of threads.
pub const MAX_CONNECTIONS: usize = 512;

/// Traces returned by a `Trace` request that names no id and no limit.
const DEFAULT_TRACE_LIMIT: usize = 16;

/// The server's one shutdown flag: connection threads and the accept
/// loop poll it, [`Server::wait_for_shutdown_request`] sleeps on it.
#[derive(Default)]
struct Shutdown {
    requested: Mutex<bool>,
    wake: Condvar,
}

impl Shutdown {
    fn request(&self) {
        *self.requested.lock().unwrap() = true;
        self.wake.notify_all();
    }

    fn requested(&self) -> bool {
        *self.requested.lock().unwrap()
    }

    fn wait(&self) {
        let mut requested = self.requested.lock().unwrap();
        while !*requested {
            requested = self.wake.wait(requested).unwrap();
        }
    }
}

/// A running TCP server wrapping an [`Engine`].
pub struct Server {
    engine: Arc<Engine>,
    local_addr: SocketAddr,
    shutdown: Arc<Shutdown>,
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
        let shutdown = Arc::new(Shutdown::default());
        let connections = Arc::new(Mutex::new(Vec::new()));

        let accept_thread = {
            let engine = Arc::clone(&engine);
            let shutdown = Arc::clone(&shutdown);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("sketchql-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.requested() {
                            break;
                        }
                        let Ok(mut stream) = stream else { continue };
                        // Reap on accept, so the list tracks open
                        // connections, not every connection ever made.
                        let mut connections = connections.lock().unwrap();
                        connections.retain(|h: &JoinHandle<()>| !h.is_finished());
                        if connections.len() >= MAX_CONNECTIONS {
                            let message = format!("{MAX_CONNECTIONS} connections already open");
                            let _ =
                                write_response(&mut stream, &error(ErrorKind::Overloaded, message));
                            continue; // dropping the stream closes it
                        }
                        let engine = Arc::clone(&engine);
                        let shutdown = Arc::clone(&shutdown);
                        let handle = std::thread::Builder::new()
                            .name("sketchql-conn".into())
                            .spawn(move || handle_connection(stream, &engine, &shutdown));
                        if let Ok(handle) = handle {
                            connections.push(handle);
                        }
                    }
                })?
        };

        Ok(Server {
            engine,
            local_addr,
            shutdown,
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
        self.shutdown.wait();
    }

    /// Requests shutdown from the owning process (equivalent to a wire
    /// [`Request::Shutdown`]).
    pub fn request_shutdown(&self) {
        self.shutdown.request();
    }

    /// Stops accepting, joins every connection thread, and drains the
    /// engine. Admitted queries are answered before this returns.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        // The accept loop blocks in `accept`; a throwaway connection
        // wakes it so it can observe the raised flag.
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

/// One connection: read request lines, answer each, until EOF,
/// shutdown, or a line longer than [`MAX_REQUEST_BYTES`]. A read timeout
/// keeps idle connections responsive to the shutdown flag;
/// partially-read lines survive the timeout because `read_line` appends.
fn handle_connection(stream: TcpStream, engine: &Engine, shutdown: &Shutdown) {
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
                let message = format!("request exceeds {MAX_REQUEST_BYTES} bytes");
                let _ = write_response(&mut writer, &error(ErrorKind::BadRequest, message));
                break;
            }
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    telemetry::counter(names::SERVER_REQUESTS).inc();
                    let (response, trace) = handle_request(trimmed, engine, shutdown);
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
                    // The acknowledged shutdown is the one reply the
                    // connection closes after.
                    if !write_ok || matches!(response, Response::ShutdownAck) {
                        break;
                    }
                }
                line.clear();
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock || e.kind() == IoErrorKind::TimedOut => {
                if shutdown.requested() {
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

fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error {
        kind,
        message: message.into(),
    }
}

/// Serves one parsed request line. The [`TraceContext`] (successful
/// queries only) lets the connection loop time serialization inside the
/// trace before finalizing it.
fn handle_request(
    line: &str,
    engine: &Engine,
    shutdown: &Shutdown,
) -> (Response, Option<TraceContext>) {
    let request: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            let message = format!("unparseable request: {e}");
            return (error(ErrorKind::BadRequest, message), None);
        }
    };
    // Requests that would start new work are refused once shutdown is
    // requested; everything else is still answered while draining.
    let starts_work = matches!(request, Request::Query { .. } | Request::Register { .. });
    if starts_work && shutdown.requested() {
        let refused = error(ErrorKind::ShuttingDown, "server is shutting down");
        return (refused, None);
    }
    let unknown_registration = |id: u64| {
        let message = format!("unknown registration id {id}");
        error(ErrorKind::BadRequest, message)
    };
    let response = match request {
        Request::Ping => Response::Pong {
            version: PROTOCOL_VERSION,
        },
        Request::ListDatasets => Response::Datasets {
            datasets: engine.datasets(),
        },
        Request::Stats => Response::Stats {
            stats: engine.stats(),
        },
        Request::Trace { trace_id, limit } => {
            let recorder = telemetry::flight_recorder();
            let found = match trace_id {
                Some(id) => recorder.find(id).into_iter().collect(),
                None => recorder.recent(limit.unwrap_or(DEFAULT_TRACE_LIMIT)),
            };
            let traces = found
                .iter()
                .map(|t| WireTrace::from_query_trace(t))
                .collect();
            Response::Traces { traces }
        }
        Request::Metrics => Response::MetricsText {
            prometheus: telemetry::snapshot_prometheus(),
        },
        Request::Profile { .. } => {
            // Folded from every trace the flight recorder retains; the
            // request's `seconds` / `hz` are ignored (see its doc).
            let recorder = telemetry::flight_recorder();
            let traces = recorder.recent(recorder.capacity());
            Response::Profile(ProfileOutcome {
                folded: telemetry::fold_traces(&traces),
                samples: traces.len() as u64,
                duration_ms: traces.iter().map(|t| t.total_nanos).sum::<u64>() / 1_000_000,
            })
        }
        Request::Query {
            dataset,
            event,
            clip,
            top_k,
            deadline_ms,
            trace_id,
        } => {
            let query = match resolve_sketch(clip, event) {
                Ok(clip) => clip,
                Err(response) => return (*response, None),
            };
            let spec = QuerySpec {
                dataset,
                query,
                top_k,
                deadline: deadline_ms.map(Duration::from_millis),
                trace: trace_id.filter(|id| *id != 0),
                min_end: None,
            };
            return match engine.execute(spec) {
                Ok(result) => {
                    let trace = result.trace.clone();
                    (Response::Moments(result.into()), Some(trace))
                }
                Err(e) => (Response::from_engine_error(&e), None),
            };
        }
        Request::Register {
            dataset,
            event,
            clip,
            min_score,
            top_k,
        } => {
            let query = match resolve_sketch(clip, event) {
                Ok(clip) => clip,
                Err(response) => return (*response, None),
            };
            match engine.register(&dataset, query, min_score, top_k) {
                Ok(reg) => Response::Registered(Registered {
                    registration_id: reg.id,
                    watermark: reg.watermark,
                }),
                Err(e) => Response::from_engine_error(&e),
            }
        }
        Request::Unregister { registration_id } => {
            if engine.unregister(registration_id) {
                Response::Unregistered { registration_id }
            } else {
                unknown_registration(registration_id)
            }
        }
        Request::Notifications {
            registration_id,
            max,
        } => match engine.notifications(registration_id, max) {
            Some(drained) => Response::Notifications(drained),
            None => unknown_registration(registration_id),
        },
        Request::Shutdown => {
            shutdown.request();
            Response::ShutdownAck
        }
    };
    (response, None)
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
            None => Err(Box::new(error(
                ErrorKind::UnknownEvent,
                format!("unknown event {name:?}"),
            ))),
        },
        (None, None) => Err(Box::new(error(
            ErrorKind::BadRequest,
            "query needs an event name or an inline clip",
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, EngineConfig};
    use sketchql::training::{train, TrainingConfig};
    use std::collections::BTreeMap;
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

    /// The connection cap: with [`MAX_CONNECTIONS`] idle sockets held,
    /// the next connection is answered one typed `Overloaded` line and
    /// closed; once some of the held sockets go, new ones are served.
    #[test]
    fn a_connection_past_the_cap_is_refused_with_a_typed_reply() {
        use std::io::BufRead;
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 1;
        let engine = Engine::start(train(cfg), BTreeMap::new(), EngineConfig::default());
        let server = Server::start(engine, "127.0.0.1:0").unwrap();
        let mut held: Vec<Client> = (0..MAX_CONNECTIONS)
            .map(|_| Client::connect(server.local_addr()).unwrap())
            .collect();
        // A ping round trip proves the last held connection has its thread.
        held.last_mut().unwrap().ping().unwrap();

        let refused = TcpStream::connect(server.local_addr()).unwrap();
        let mut lines = BufReader::new(refused).lines();
        let reply: Response = serde_json::from_str(&lines.next().unwrap().unwrap()).unwrap();
        assert!(
            matches!(
                reply,
                Response::Error {
                    kind: ErrorKind::Overloaded,
                    ..
                }
            ),
            "{reply:?}"
        );
        assert!(lines.next().is_none(), "the refused socket must be closed");

        // A dropped socket's thread exits on its own schedule: retry
        // until the accept loop has reaped one.
        held.truncate(MAX_CONNECTIONS - 8);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Client::connect(server.local_addr())
            .and_then(|mut c| c.ping())
            .is_err()
        {
            assert!(Instant::now() < deadline, "no slot freed after 8 hang-ups");
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(held);
        server.shutdown();
    }
}
