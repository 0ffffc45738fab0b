//! # sketchql-server
//!
//! A concurrent query service wrapping the SketchQL matcher: a fixed
//! worker pool behind a bounded admission queue ([`Engine`]), per-query
//! deadlines with cooperative cancellation, and a line-delimited JSON
//! wire protocol over plain TCP ([`Server`] / [`Client`]) — `std::net`
//! and `std::thread` only, no async runtime.
//!
//! ```no_run
//! use std::collections::BTreeMap;
//! use sketchql::{TrainedModel, VideoIndex};
//! use sketchql_server::{Engine, EngineConfig, QuerySpec, Server, Client};
//!
//! # let model: TrainedModel = unimplemented!();
//! # let index: VideoIndex = unimplemented!();
//! let mut datasets = BTreeMap::new();
//! datasets.insert("traffic".to_string(), index);
//! let engine = Engine::start(model, datasets, EngineConfig::default());
//!
//! // In-process:
//! let query = sketchql_datasets::query_clip(sketchql_datasets::EventKind::LeftTurn);
//! let result = engine.execute(QuerySpec::new("traffic", query)).unwrap();
//!
//! // Over the wire:
//! let server = Server::start(engine, "127.0.0.1:0").unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let outcome = client.query_event("traffic", "left_turn", Some(5), None).unwrap();
//! client.shutdown().unwrap();
//! server.shutdown();
//! # let _ = (result, outcome);
//! ```
//!
//! Design properties (see each module's docs):
//!
//! - **Load shedding, not queue growth**: admission beyond
//!   [`EngineConfig::queue_depth`] fails fast with
//!   [`EngineError::Overloaded`].
//! - **Deadlines end work, not just waits**: an expired
//!   [`CancelToken`](sketchql::CancelToken) stops the sliding-window scan
//!   between windows and encoder batches.
//! - **One query, one execution**: a worker runs each query alone under
//!   its own token and trace; what concurrent queries share is each
//!   index's window memo, so a window grid any query scanned costs the
//!   next one look-ups, not encoder rows.
//! - **Graceful drain**: shutdown answers every admitted query before
//!   returning.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod engine;
pub mod live;
pub mod protocol;
pub mod scrape;
pub mod server;

pub use client::{Client, ClientError, QueryOptions};
pub use engine::{
    ClassConfig, ClassStats, DatasetInfo, DatasetTraffic, Engine, EngineConfig, EngineError,
    EngineStats, QueryHandle, QueryResult, QuerySpec, SchedPolicy, DEFAULT_CLASS,
};
pub use live::{
    LiveMatch, LiveNotifications, LivePoller, LiveRegistration, LiveReload, LIVE_CLASS,
    NOTIFY_QUEUE_CAP,
};
pub use protocol::{
    ErrorKind, ProfileOutcome, QueryOutcome, Registered, Request, Response, WireSpan, WireTrace,
    PROTOCOL_VERSION,
};
pub use scrape::MetricsListener;
pub use server::{Server, MAX_CONNECTIONS, MAX_REQUEST_BYTES};
