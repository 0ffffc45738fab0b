//! Exporters: JSON snapshot, Prometheus text format, and the JSON line
//! and human-readable table of one query's trace.

use crate::flight::QueryTrace;
use crate::metrics::MetricsSnapshot;
use crate::trace::format_trace_id;
use std::fmt::Write;

/// Serializes the full metric registry as a JSON object:
/// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
pub fn snapshot_json() -> String {
    let snap = MetricsSnapshot::capture();
    let mut out = String::new();
    out.push_str("{\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(name), v);
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(name), json_number(*v));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{{\"buckets\":[", json_string(name));
        for (j, (bound, count)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", json_number(*bound), count);
        }
        let _ = write!(
            out,
            "],\"sum\":{},\"count\":{}}}",
            json_number(h.sum),
            h.count
        );
    }
    out.push_str("}}");
    out
}

/// One-line `# HELP` text for a metric family, keyed by the dotted
/// (unsanitized) name. Families without a curated line get a generic
/// one so the exposition is still well-formed.
fn prom_help(name: &str) -> &'static str {
    use crate::names;
    match name {
        names::RESOURCE_CPU_NANOS => "CPU nanoseconds attributed to finalized query traces.",
        names::SERVER_QUEUE_DEPTH => "Queries waiting in the admission queue.",
        names::SERVER_QUEUE_WAIT_MS => "Milliseconds queries waited in the admission queue.",
        names::SERVER_EXECUTE_MS => "Milliseconds queries spent executing on a worker.",
        names::SERVER_DEADLINE_MARGIN_MS => {
            "Milliseconds between query completion and its deadline (negative = late)."
        }
        names::EMBED_MEMO_BYTES => "Payload bytes held by per-index embedding memos.",
        names::EMBED_MEMO_SEGMENTS => "Segments remembered by per-index embedding memos.",
        names::EMBED_MEMO_RESETS => "Embedding memos emptied on passing their byte budget.",
        names::SHARD_RESIDENT => "Shards currently resident across attached shard sets.",
        names::SHARD_LOADS => "Shard files read and verified on first probe.",
        names::SHARD_LOAD_ERRORS => "Shard loads that failed (corrupt or unreadable shards).",
        names::SHARD_PROBES => "Shards consulted (loaded and gathered) by probes.",
        _ => "SketchQL metric; see the names module in crates/telemetry.",
    }
}

/// Serializes the full metric registry in Prometheus text exposition
/// format. Dotted metric names are sanitized to underscores; each
/// family gets one `# HELP` and one `# TYPE` line; histogram buckets
/// use cumulative `le` labels, ending with `le="+Inf"`.
pub fn snapshot_prometheus() -> String {
    let snap = MetricsSnapshot::capture();
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let help = prom_help(name);
        let name = prom_name(name);
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, v) in &snap.gauges {
        let help = prom_help(name);
        let name = prom_name(name);
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", prom_number(*v));
    }
    for (name, h) in &snap.histograms {
        let help = prom_help(name);
        let name = prom_name(name);
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (bound, count) in &h.buckets {
            let le = if bound.is_infinite() {
                "+Inf".to_string()
            } else {
                prom_number(*bound)
            };
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {count}");
        }
        let _ = writeln!(out, "{name}_sum {}", prom_number(h.sum));
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out
}

impl QueryTrace {
    /// Serializes this trace as one JSON object — the slow-query log
    /// line format. Span `start` offsets are nanoseconds relative to
    /// the trace start, so each line is a self-contained waterfall:
    ///
    /// ```json
    /// {"trace_id":"00a1b2c3d4e5","label":"traffic/left_turn",
    ///  "outcome":"completed","total_nanos":1234567,
    ///  "alloc_bytes":52480,"alloc_count":120,"cpu_nanos":1100000,
    ///  "counts":{"sketchql.store.hits":1,"sketchql.store.rows_probed":266},
    ///  "spans":[{"name":"sketchql.server.queue_wait","depth":0,
    ///            "start_nanos":0,"nanos":2000}, ...]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"trace_id\":{},\"label\":{},\"outcome\":{},\"total_nanos\":{}",
            json_string(&format_trace_id(self.trace_id)),
            json_string(&self.label),
            json_string(self.outcome.as_str()),
            self.total_nanos
        );
        let _ = write!(
            out,
            ",\"alloc_bytes\":{},\"alloc_count\":{},\"cpu_nanos\":{}",
            self.alloc_bytes, self.alloc_count, self.cpu_nanos
        );
        out.push_str(",\"counts\":{");
        for (i, (name, v)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), v);
        }
        out.push_str("},\"spans\":[");
        for (i, (name, depth, offset, nanos)) in self.waterfall().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"depth\":{},\"start_nanos\":{},\"nanos\":{}}}",
                json_string(name),
                depth,
                offset,
                nanos
            );
        }
        out.push_str("]}");
        out
    }

    /// Renders this trace as an aligned, human-readable table: wall,
    /// CPU and heap totals, the depth-0 stages with their share of the
    /// wall clock, and every counter the query moved.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "query report: {}", self.label);
        let _ = writeln!(out, "  trace id: {}", format_trace_id(self.trace_id));
        let _ = writeln!(
            out,
            "  total wall time: {:.3} ms",
            self.total_nanos as f64 / 1e6
        );
        let pct_of_total = |nanos: u64| {
            if self.total_nanos > 0 {
                100.0 * nanos as f64 / self.total_nanos as f64
            } else {
                0.0
            }
        };
        if self.cpu_nanos > 0 {
            let _ = writeln!(
                out,
                "  cpu time: {:.3} ms ({:.0}% of wall)",
                self.cpu_nanos as f64 / 1e6,
                pct_of_total(self.cpu_nanos)
            );
        }
        if self.alloc_count > 0 {
            let _ = writeln!(
                out,
                "  allocated: {:.1} KiB in {} allocations",
                self.alloc_bytes as f64 / 1024.0,
                self.alloc_count
            );
        }
        let stages = self.stages();
        if !stages.is_empty() {
            let _ = writeln!(out, "  stages:");
            let width = stages.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, nanos) in &stages {
                let ms = *nanos as f64 / 1e6;
                let pct = pct_of_total(*nanos);
                let _ = writeln!(out, "    {name:<width$}  {ms:>10.3} ms  {pct:>5.1}%");
            }
        }
        if !self.counts.is_empty() {
            let _ = writeln!(out, "  counters:");
            let width = self.counts.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, v) in &self.counts {
                let _ = writeln!(out, "    {name:<width$}  {v:>12}");
            }
        }
        if let Some(rate) = self.embed_cache_hit_rate() {
            let _ = writeln!(out, "  embed cache hit rate: {:.1}%", rate * 100.0);
        }
        out
    }
}

/// Escapes a string as a JSON string literal (with quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

/// Formats an `f64` for Prometheus text format.
fn prom_number(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:?}")
    }
}

/// Sanitizes a dotted metric name for Prometheus.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}
