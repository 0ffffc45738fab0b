//! The slow-query log: JSON lines for queries worth a second look.
//!
//! Once configured, every finalized trace whose wall time exceeds the
//! threshold — or that ended any way other than
//! [`TraceOutcome::Completed`](crate::TraceOutcome::Completed) (shed,
//! cancelled, deadline-exceeded, failed) — is written as one JSON line
//! carrying the full stage waterfall (see
//! [`QueryTrace::to_json`](crate::QueryTrace::to_json) for the shape).
//! Unconfigured (the default), nothing is written.
//!
//! File-backed sinks can cap their size: past `max_bytes` the file
//! rotates to `<path>.1` (keeping exactly one predecessor, so the disk
//! footprint is bounded at roughly twice the cap) and a fresh file
//! starts at `<path>`.
//!
//! The sink is process-global: the server configures it once at
//! startup (`serve --slow-query-ms N [--slow-query-log PATH
//! [--slow-query-log-max-bytes N]]`).

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::flight::QueryTrace;
use crate::trace::TraceOutcome;

enum SinkWriter {
    /// An arbitrary stream (stderr, a test buffer): never rotated.
    Stream(Box<dyn Write + Send>),
    /// A file we own the path of, optionally size-capped.
    File {
        file: File,
        path: PathBuf,
        max_bytes: Option<u64>,
        written: u64,
    },
}

struct SlowLogSink {
    threshold_nanos: u64,
    writer: SinkWriter,
}

impl SlowLogSink {
    fn write_line(&mut self, line: &str) {
        match &mut self.writer {
            SinkWriter::Stream(w) => {
                let _ = writeln!(w, "{line}");
                let _ = w.flush();
            }
            SinkWriter::File {
                file,
                path,
                max_bytes,
                written,
            } => {
                let line_bytes = line.len() as u64 + 1;
                if let Some(cap) = *max_bytes {
                    if *written > 0 && *written + line_bytes > cap.max(1) {
                        // Rotate: current file becomes <path>.1 (clobbering
                        // the previous predecessor), then start fresh.
                        let _ = file.flush();
                        let mut rotated = path.clone().into_os_string();
                        rotated.push(".1");
                        let _ = std::fs::rename(&*path, PathBuf::from(rotated));
                        if let Ok(fresh) = File::create(&*path) {
                            *file = fresh;
                            *written = 0;
                        }
                    }
                }
                let _ = writeln!(file, "{line}");
                let _ = file.flush();
                *written += line_bytes;
            }
        }
    }
}

fn sink() -> &'static Mutex<Option<SlowLogSink>> {
    static SINK: OnceLock<Mutex<Option<SlowLogSink>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Routes the slow-query log to `writer`, logging queries slower than
/// `threshold` (and all queries that did not complete normally,
/// regardless of duration). Replaces any previous sink. Stream sinks
/// never rotate; use [`configure_slow_query_log_path_capped`] for a
/// size-capped file.
pub fn configure_slow_query_log(writer: Box<dyn Write + Send>, threshold: Duration) {
    *sink().lock().unwrap() = Some(SlowLogSink {
        threshold_nanos: threshold.as_nanos() as u64,
        writer: SinkWriter::Stream(writer),
    });
}

/// Routes the slow-query log to a file (created or appended to). With
/// `max_bytes` set, the file rotates to `<path>.1` once a write would
/// push it past the cap, keeping exactly one predecessor.
pub fn configure_slow_query_log_path_capped(
    path: &Path,
    threshold: Duration,
    max_bytes: Option<u64>,
) -> io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let written = file.metadata().map(|m| m.len()).unwrap_or(0);
    *sink().lock().unwrap() = Some(SlowLogSink {
        threshold_nanos: threshold.as_nanos() as u64,
        writer: SinkWriter::File {
            file,
            path: path.to_path_buf(),
            max_bytes,
            written,
        },
    });
    Ok(())
}

/// Turns the slow-query log off (flushing and dropping the sink).
pub fn disable_slow_query_log() {
    if let Some(mut old) = sink().lock().unwrap().take() {
        match &mut old.writer {
            SinkWriter::Stream(w) => {
                let _ = w.flush();
            }
            SinkWriter::File { file, .. } => {
                let _ = file.flush();
            }
        }
    }
}

/// Offers a finalized trace to the log; writes one JSON line if the
/// trace qualifies. Called from trace finalization.
pub(crate) fn observe_trace(trace: &QueryTrace) {
    let mut guard = sink().lock().unwrap();
    let Some(slow) = guard.as_mut() else {
        return;
    };
    let qualifies =
        trace.total_nanos > slow.threshold_nanos || trace.outcome != TraceOutcome::Completed;
    if qualifies {
        slow.write_line(&trace.to_json());
    }
}
