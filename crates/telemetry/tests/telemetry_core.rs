//! Unit-style tests for the telemetry crate, run as an integration test
//! so metrics registered here don't leak into other tests' snapshots.

use sketchql_telemetry as tel;
use std::sync::Arc;

/// Runs `work` on this thread inside a fresh trace labelled `label` and
/// returns the finished trace: the three lines every caller writes.
fn traced(label: &str, work: impl FnOnce()) -> Arc<tel::QueryTrace> {
    let ctx = tel::TraceContext::new();
    ctx.set_label(label);
    {
        let _entered = ctx.enter();
        work();
    }
    ctx.finalize().expect("first finalize returns the trace")
}

#[test]
fn counters_accumulate_and_reset() {
    let c = tel::counter("test.counters.accumulate");
    let before = c.get();
    c.inc();
    c.add(4);
    assert_eq!(c.get(), before + 5);
}

#[test]
fn gauges_hold_last_value() {
    let g = tel::gauge("test.gauges.hold");
    g.set(2.5);
    assert_eq!(g.get(), 2.5);
    g.set(-1.0);
    assert_eq!(g.get(), -1.0);
}

#[test]
fn histograms_bucket_cumulatively() {
    let h = tel::histogram("test.histograms.buckets", &[1.0, 2.0, 4.0]);
    for v in [0.5, 1.5, 1.6, 3.0, 100.0] {
        h.observe(v);
    }
    assert_eq!(h.count(), 5);
    assert!((h.sum() - 106.6).abs() < 1e-9);
    let buckets = h.cumulative_buckets();
    assert_eq!(buckets.len(), 4);
    assert_eq!(buckets[0], (1.0, 1));
    assert_eq!(buckets[1], (2.0, 3));
    assert_eq!(buckets[2], (4.0, 4));
    assert_eq!(buckets[3].1, 5);
    assert!(buckets[3].0.is_infinite());
}

#[test]
fn spans_nest_by_depth() {
    let trace = traced("spans/nest", || {
        let _outer = tel::span("test.spans.outer");
        {
            let _inner = tel::span("test.spans.inner");
            std::hint::black_box(0u64);
        }
    });
    let spans = &trace.spans;
    assert_eq!(spans.len(), 2);
    // Completion order: inner finishes first, at depth 1.
    assert_eq!(spans[0].name, "test.spans.inner");
    assert_eq!(spans[0].depth, 1);
    assert_eq!(spans[1].name, "test.spans.outer");
    assert_eq!(spans[1].depth, 0);
    assert!(spans[1].nanos >= spans[0].nanos);
}

#[test]
fn recorder_reports_counter_deltas_and_stages() {
    let report = traced("unit/query", || {
        tel::counter(tel::names::WINDOWS_ENUMERATED).add(7);
        tel::counter(tel::names::SIMILARITY_EVALS).add(3);
        let _stage = tel::span(tel::names::MATCHER_SCAN);
        std::hint::black_box(0u64);
    });
    assert_eq!(report.label, "unit/query");
    assert_eq!(report.count(tel::names::WINDOWS_ENUMERATED), 7);
    assert_eq!(report.count(tel::names::SIMILARITY_EVALS), 3);
    // Only the counters that moved, in name order.
    assert_eq!(
        report.counts,
        [
            (tel::names::WINDOWS_ENUMERATED, 7),
            (tel::names::SIMILARITY_EVALS, 3)
        ]
    );
    assert_eq!(report.count(tel::names::EMBEDDINGS_COMPUTED), 0);
    assert_eq!(report.stages().len(), 1);
    assert_eq!(report.stages()[0].0, tel::names::MATCHER_SCAN);
    assert!(report.stage_nanos_sum() > 0);
}

#[test]
fn recorder_isolates_consecutive_queries() {
    let embeds = tel::counter(tel::names::EMBEDDINGS_COMPUTED);
    let r1 = traced("q1", || embeds.add(10));
    embeds.add(100); // between queries: nobody's
    let r2 = traced("q2", || embeds.add(2));
    assert_eq!(r1.count(tel::names::EMBEDDINGS_COMPUTED), 10);
    assert_eq!(r2.count(tel::names::EMBEDDINGS_COMPUTED), 2);
}

#[test]
fn json_exports_parse() {
    tel::counter("test.export.hits").add(3);
    tel::gauge("test.export.level").set(0.5);
    tel::histogram("test.export.lat", &[0.1, 1.0]).observe(0.2);

    let snap = tel::snapshot_json();
    let parsed: serde::Value =
        serde_json::from_str(&snap).expect("snapshot_json must be valid JSON");
    let serde::Value::Obj(fields) = &parsed else {
        panic!("snapshot must be a JSON object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["counters", "gauges", "histograms"]);

    let report = traced("json/check", || {
        tel::counter(tel::names::WINDOWS_ENUMERATED).inc();
        let _stage = tel::span(tel::names::MATCHER_SCAN);
    });
    let parsed: serde::Value =
        serde_json::from_str(&report.to_json()).expect("QueryTrace::to_json must be valid JSON");
    let serde::Value::Obj(fields) = parsed else {
        panic!("a trace must be a JSON object");
    };
    let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
    assert_eq!(get("label"), Some(serde::Value::Str("json/check".into())));
    assert_eq!(
        get("counts"),
        Some(serde::Value::Obj(vec![(
            tel::names::WINDOWS_ENUMERATED.to_string(),
            serde::Value::Num(1.0)
        )]))
    );
    assert!(matches!(get("spans"), Some(serde::Value::Arr(a)) if a.len() == 1));
}

#[test]
fn prometheus_export_is_well_formed() {
    tel::counter("test.prom.hits").add(2);
    tel::histogram("test.prom.lat", &[0.5]).observe(0.1);
    let text = tel::snapshot_prometheus();
    assert!(text.contains("# TYPE test_prom_hits counter"));
    assert!(text.lines().any(|l| l.starts_with("test_prom_hits ")));
    assert!(text.contains("test_prom_lat_bucket{le=\"+Inf\"}"));
    assert!(text.contains("test_prom_lat_sum"));
    assert!(text.contains("test_prom_lat_count"));
    for line in text.lines() {
        assert!(
            line.starts_with('#')
                || line
                    .split_once(' ')
                    .is_some_and(|(name, val)| !name.is_empty() && !val.is_empty()),
            "malformed exposition line: {line:?}"
        );
    }
}

#[test]
fn table_renderer_includes_stages_and_counters() {
    let report = traced("table/check", || {
        {
            let _s = tel::span(tel::names::MATCHER_PREPARE);
            std::hint::black_box(0u64);
        }
        tel::counter(tel::names::WINDOWS_PRUNED).add(5);
        tel::counter(tel::names::EMBED_CACHE_HITS).add(1);
        tel::counter(tel::names::EMBED_CACHE_MISSES).add(3);
    });
    let table = report.render_table();
    assert!(table.contains("query report: table/check"));
    assert!(table.contains(&tel::format_trace_id(report.trace_id)));
    assert!(table.contains(tel::names::WINDOWS_PRUNED));
    assert!(table.contains(tel::names::MATCHER_PREPARE));
    assert!(table.contains("embed cache hit rate: 25.0%"), "{table}");
    // A counter the query never touched has no row.
    assert!(!table.contains(tel::names::STORE_HITS));
}

/// README cites only names that exist: every dotted `sketchql.<a>.<b>`
/// name in it is a `pub const` of the `names` module. An abbreviated
/// `` `.suffix` `` code span names a sibling of the last full name before
/// it in the same paragraph (its last segment swapped for the suffix).
#[test]
fn readme_cites_only_names_that_exist() {
    let consts: std::collections::BTreeSet<&str> = include_str!("../src/lib.rs")
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("pub const "))
        .filter_map(|l| l.split_once(" = \"")?.1.strip_suffix("\";"))
        .collect();
    let is_name_char = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || "_.".contains(c);
    let mut cited = Vec::new();
    let mut last_full = String::new();
    for line in include_str!("../../../README.md").lines() {
        if line.trim().is_empty() {
            last_full.clear();
        }
        // Odd pieces of a backtick split are code spans.
        for (i, piece) in line.split('`').enumerate() {
            if i % 2 == 1 && piece.starts_with('.') && piece[1..].chars().all(is_name_char) {
                if let Some((family, _)) = last_full.rsplit_once('.') {
                    cited.push(format!("{family}{piece}"));
                }
                continue;
            }
            for (at, _) in piece.match_indices("sketchql.") {
                let rest = &piece[at..];
                let end = rest.find(|c| !is_name_char(c)).unwrap_or(rest.len());
                let name = rest[..end].trim_end_matches('.');
                if name.matches('.').count() >= 2 {
                    last_full = name.to_string();
                    cited.push(last_full.clone());
                }
            }
        }
    }
    assert!(cited.len() > 50, "the lint must see README's names");
    let unknown: Vec<&String> = cited
        .iter()
        .filter(|n| !consts.contains(n.as_str()))
        .collect();
    assert!(
        unknown.is_empty(),
        "README cites unknown names: {unknown:?}"
    );
}
