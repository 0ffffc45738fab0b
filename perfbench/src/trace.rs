//! The benchmark's own span recorder. Spans are recorded around calls
//! into the layers, from outside; nothing inside the program under test
//! is instrumented. Kept in memory, written out once at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a root; spans of one
/// request share `request`.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

/// Collects spans when `on`; when off, [`Recorder::span`] only times.
pub struct Recorder {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh request identifier.
    pub fn request(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` (handing it the new span's id, for its children), records
    /// the interval, and returns `f`'s result with the elapsed
    /// milliseconds.
    pub fn span<T>(
        &self,
        name: &str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = if self.on { self.request() } else { 0 };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.record(id, name, parent, request, start, end);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Records an interval that was not timed here: a stage the server
    /// reports in its reply, placed inside the request's span.
    pub fn placed(&self, name: &str, parent: u64, request: u64, start: Instant, end: Instant) {
        let id = if self.on { self.request() } else { 0 };
        self.record(id, name, parent, request, start, end);
    }

    fn record(&self, id: u64, name: &str, parent: u64, request: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans
            .lock()
            .expect("no thread panics while recording a span")
            .push(Span {
                id,
                parent,
                request,
                name: name.to_string(),
                start_us: us(start),
                end_us: us(end),
            });
    }

    /// Per span name: count, total milliseconds, and self milliseconds
    /// (the span's duration minus the part its children cover).
    pub fn table(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let spans = self
            .spans
            .lock()
            .expect("no thread panics while recording a span");
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
        let mut table: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children
                .get_mut(&s.id)
                .map_or(0.0, |c| covered_us(c, s.start_us, s.end_us));
            let row = table.entry(s.name.clone()).or_default();
            row.0 += 1;
            row.1 += (s.end_us - s.start_us) / 1e3;
            row.2 += (s.end_us - s.start_us - covered) / 1e3;
        }
        table
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self
            .spans
            .lock()
            .expect("no thread panics while recording a span");
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id, s.parent, s.request, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_us(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut edge) = (0.0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(edge), end.min(hi));
        if end > start {
            total += end - start;
            edge = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_the_union_of_children() {
        let rec = Recorder::new(true);
        rec.span("parent", 0, 1, |id| {
            let t0 = Instant::now();
            std::thread::sleep(std::time::Duration::from_millis(20));
            let t1 = Instant::now();
            // Two overlapping children cover the same 20 ms once.
            rec.placed("child", id, 1, t0, t1);
            rec.placed("child", id, 1, t0, t1);
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let table = rec.table();
        let (count, total, own) = table["parent"];
        assert_eq!(count, 1);
        assert!(total >= 30.0, "total {total}");
        assert!((total - own - 20.0).abs() < 5.0, "self {own} of {total}");
        assert_eq!(table["child"].0, 2);
    }

    #[test]
    fn a_recorder_that_is_off_times_but_keeps_nothing() {
        let rec = Recorder::new(false);
        let (out, ms) = rec.span("x", 0, 0, |_| 7);
        assert_eq!(out, 7);
        assert!(ms >= 0.0);
        assert!(rec.table().is_empty());
    }
}
