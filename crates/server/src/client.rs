//! A blocking wire-protocol client.
//!
//! Thin by design: [`Client::request`] writes one request line and reads
//! one response line; the typed helpers ([`Client::ping`],
//! [`Client::query_event`], …) wrap it and turn server-side
//! [`Response::Error`]s into [`ClientError::Server`].

use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use sketchql_telemetry::mint_trace_id;
use sketchql_trajectory::Clip;

use crate::engine::{DatasetInfo, EngineStats};
use crate::live::LiveNotifications;
use crate::protocol::{
    write_line, ErrorKind, ProfileOutcome, QueryOutcome, Registered, Request, Response, WireTrace,
};

/// Client-side failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, server hung up).
    Io(String),
    /// The server answered something the protocol does not allow here.
    Protocol(String),
    /// The server answered an explicit error.
    Server {
        /// Machine-readable error class.
        kind: ErrorKind,
        /// Human-readable detail from the server.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "io error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { kind, message } => {
                write!(f, "server error ({kind:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// One TCP connection to a SketchQL server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7878"`).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let json = serde_json::to_string(request)
            .map_err(|e| ClientError::Protocol(format!("encode: {e}")))?;
        write_line(&mut self.writer, json)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io("server closed the connection".into()));
        }
        serde_json::from_str(line.trim())
            .map_err(|e| ClientError::Protocol(format!("decode {:?}: {e}", line.trim())))
    }

    /// Pings the server; returns its protocol version.
    pub fn ping(&mut self) -> Result<u32, ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong { version } => Ok(version),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Lists the server's loaded datasets.
    pub fn list_datasets(&mut self) -> Result<Vec<DatasetInfo>, ClientError> {
        match self.request(&Request::ListDatasets)? {
            Response::Datasets { datasets } => Ok(datasets),
            other => Err(unexpected("Datasets", &other)),
        }
    }

    /// Fetches the engine's statistics snapshot.
    pub fn stats(&mut self) -> Result<EngineStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Runs a canonical event query (e.g. `"left_turn"`) on `dataset`.
    /// The client mints the trace id, so the query is traceable
    /// end-to-end under an id the caller knew *before* the server saw
    /// the query (see [`QueryOutcome::trace_id`]).
    pub fn query_event(
        &mut self,
        dataset: &str,
        event: &str,
        top_k: Option<usize>,
        deadline: Option<Duration>,
    ) -> Result<QueryOutcome, ClientError> {
        self.query_event_with(
            dataset,
            event,
            &QueryOptions {
                top_k,
                deadline,
                ..QueryOptions::default()
            },
        )
    }

    /// Like [`Client::query_event`], with the full option set
    /// (including a caller-minted trace id).
    pub fn query_event_with(
        &mut self,
        dataset: &str,
        event: &str,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome, ClientError> {
        self.run_query(dataset, Some(event), None, opts)
    }

    /// Runs an inline sketch clip on `dataset`.
    pub fn query_clip(
        &mut self,
        dataset: &str,
        clip: Clip,
        top_k: Option<usize>,
        deadline: Option<Duration>,
    ) -> Result<QueryOutcome, ClientError> {
        self.query_clip_with(
            dataset,
            clip,
            &QueryOptions {
                top_k,
                deadline,
                ..QueryOptions::default()
            },
        )
    }

    /// Like [`Client::query_clip`], with the full option set.
    pub fn query_clip_with(
        &mut self,
        dataset: &str,
        clip: Clip,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome, ClientError> {
        self.run_query(dataset, None, Some(clip), opts)
    }

    fn run_query(
        &mut self,
        dataset: &str,
        event: Option<&str>,
        clip: Option<Clip>,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome, ClientError> {
        let request = Request::Query {
            dataset: dataset.to_string(),
            event: event.map(str::to_string),
            clip,
            top_k: opts.top_k,
            deadline_ms: opts.deadline.map(|d| d.as_millis() as u64),
            trace_id: Some(opts.trace_id.unwrap_or_else(mint_trace_id)),
        };
        match self.request(&request)? {
            Response::Moments(outcome) => Ok(outcome),
            other => Err(unexpected("Moments", &other)),
        }
    }

    /// Fetches traces from the server's flight recorder: a specific id,
    /// or the most recent `limit` traces (server default when `None`).
    pub fn trace(
        &mut self,
        trace_id: Option<u64>,
        limit: Option<usize>,
    ) -> Result<Vec<WireTrace>, ClientError> {
        match self.request(&Request::Trace { trace_id, limit })? {
            Response::Traces { traces } => Ok(traces),
            other => Err(unexpected("Traces", &other)),
        }
    }

    /// Fetches a CPU profile in folded-stack (flamegraph) format.
    /// `seconds = None` (or 0) answers instantly from the server's
    /// continuous profiler; a positive window samples fresh for that
    /// long (server-capped at 60 s) at `hz` (server default when
    /// `None`). Note a fresh window blocks this connection until the
    /// window closes.
    pub fn profile(
        &mut self,
        seconds: Option<u64>,
        hz: Option<u64>,
    ) -> Result<ProfileOutcome, ClientError> {
        match self.request(&Request::Profile { seconds, hz })? {
            Response::Profile(profile) => Ok(profile),
            other => Err(unexpected("Profile", &other)),
        }
    }

    /// Registers a standing query for a canonical event (e.g.
    /// `"left_turn"`): the server evaluates it against every ingest
    /// epoch appended to `dataset` from now on and queues the matches
    /// for [`Client::notifications`].
    pub fn register_event(
        &mut self,
        dataset: &str,
        event: &str,
        min_score: Option<f32>,
        top_k: Option<usize>,
    ) -> Result<Registered, ClientError> {
        let request = Request::Register {
            dataset: dataset.to_string(),
            event: Some(event.to_string()),
            clip: None,
            min_score,
            top_k,
        };
        match self.request(&request)? {
            Response::Registered(registered) => Ok(registered),
            other => Err(unexpected("Registered", &other)),
        }
    }

    /// Removes a standing query; pending notifications are discarded.
    pub fn unregister(&mut self, registration_id: u64) -> Result<(), ClientError> {
        match self.request(&Request::Unregister { registration_id })? {
            Response::Unregistered { .. } => Ok(()),
            other => Err(unexpected("Unregistered", &other)),
        }
    }

    /// Drains queued matches for a standing query, oldest first — at
    /// most `max` of them (all when `None`). Drained matches are gone
    /// from the server; delivery is at-most-once.
    pub fn notifications(
        &mut self,
        registration_id: u64,
        max: Option<usize>,
    ) -> Result<LiveNotifications, ClientError> {
        match self.request(&Request::Notifications {
            registration_id,
            max,
        })? {
            Response::Notifications(drained) => Ok(drained),
            other => Err(unexpected("Notifications", &other)),
        }
    }

    /// Fetches the server's metric registry in Prometheus text format.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::MetricsText { prometheus } => Ok(prometheus),
            other => Err(unexpected("MetricsText", &other)),
        }
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected("ShutdownAck", &other)),
        }
    }
}

/// Optional knobs for [`Client::query_event_with`] /
/// [`Client::query_clip_with`]. `Default` leaves every decision to the
/// server: its configured top-k and no deadline; the trace id is minted
/// by the client.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryOptions {
    /// Truncate results to this many moments.
    pub top_k: Option<usize>,
    /// Per-query deadline.
    pub deadline: Option<Duration>,
    /// Caller-minted 48-bit trace id (minted for you when `None`).
    pub trace_id: Option<u64>,
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    match got {
        Response::Error { kind, message } => ClientError::Server {
            kind: *kind,
            message: message.clone(),
        },
        other => ClientError::Protocol(format!("expected {wanted}, got {other:?}")),
    }
}
