//! Metric-scrape correctness under concurrency, plus a lint of the
//! Prometheus text exposition against the full live registry (server,
//! matcher, and resource series all populated by real traffic).

mod common;

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sketchql::{ingest_sharded, IngestConfig, MatcherConfig};
use sketchql_datasets::query_clip;
use sketchql_server::{Client, Engine, EngineConfig, Server};

use common::{small_index, tiny_model, two_datasets};

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

/// The value of a plain (unlabeled) sample, if present.
fn sample_value(prometheus: &str, name: &str) -> Option<f64> {
    prometheus.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// Scrapes stay parseable and counters stay monotone while queries run
/// concurrently: no torn lines, no half-updated families.
#[test]
fn concurrent_scrapes_during_queries_stay_consistent() {
    let server = start_server(2);
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    // One query completes before the first scrape, so the watched
    // counter is on every scrape and must read positive by the last.
    Client::connect(addr)
        .unwrap()
        .query_event("beta", "u_turn", Some(3), None)
        .unwrap();

    std::thread::scope(|scope| {
        for _ in 0..2 {
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    client.query_event("beta", "u_turn", Some(3), None).unwrap();
                }
            });
        }
        let scrapers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut last_completed = 0.0f64;
                    for _ in 0..10 {
                        let text = client.metrics_text().unwrap();
                        for line in text.lines() {
                            assert!(
                                line.starts_with("# HELP ")
                                    || line.starts_with("# TYPE ")
                                    || line
                                        .split_whitespace()
                                        .last()
                                        .is_some_and(|v| v.parse::<f64>().is_ok()),
                                "unparseable scrape line: {line:?}"
                            );
                        }
                        let completed =
                            sample_value(&text, "sketchql_server_queries_completed").unwrap_or(0.0);
                        assert!(
                            completed >= last_completed,
                            "counter went backwards: {completed} < {last_completed}"
                        );
                        last_completed = completed;
                        std::thread::sleep(std::time::Duration::from_millis(50));
                    }
                    assert!(
                        last_completed > 0.0,
                        "sketchql_server_queries_completed never read positive"
                    );
                })
            })
            .collect();
        // Join by hand and set the stop flag *before* re-raising any
        // scraper panic: an assert inside a scraper must not leave the
        // query threads spinning forever (the scope joins them too).
        let results: Vec<_> = scrapers.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Relaxed);
        for r in results {
            if let Err(panic) = r {
                std::panic::resume_unwind(panic);
            }
        }
    });
    server.shutdown();
}

/// Lints the full exposition after real traffic: legal metric names,
/// exactly one HELP/TYPE per family, no duplicate samples, cumulative
/// (monotone) histogram buckets, and `+Inf` agreeing with `_count`.
/// `alpha` is backed by a sharded store so the `sketchql_shard_*`
/// family is live on the scrape and linted with everything else.
#[test]
fn prometheus_exposition_is_well_formed() {
    let model = tiny_model();
    let alpha = small_index(11);
    let event = "left_turn";
    let dir = std::env::temp_dir().join(format!("skql-scrape-shards-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = IngestConfig::from_matcher(
        &MatcherConfig::default(),
        &[query_clip(sketchql_datasets::EventKind::LeftTurn).span()],
    );
    let mut set = ingest_sharded(
        &model.similarity(),
        &alpha,
        "alpha",
        &cfg,
        25,
        &dir,
        &|_| {},
    )
    .unwrap();
    set.nprobe = set.nlist();
    let mut stores = std::collections::BTreeMap::new();
    stores.insert("alpha".to_string(), set);
    let engine = Engine::start_with_stores(
        model,
        two_datasets(),
        stores,
        EngineConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let server = Server::start(engine, "127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Drive every family: completed queries (latency histograms,
    // resource series, shard loads/probes) and an unknown dataset
    // (error path).
    client.query_event("alpha", event, Some(3), None).unwrap();
    // `beta` has no store: a scan, whose segment embeddings its index
    // remembers from here on.
    client.query_event("beta", event, Some(3), None).unwrap();
    let _ = client.query_event("nope", event, None, None);
    let text = client.metrics_text().unwrap();
    assert!(!text.is_empty());

    let legal_name =
        |n: &str| !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    let mut help_seen = HashSet::new();
    let mut type_seen = HashSet::new();
    let mut samples_seen = HashSet::new();
    // name -> (bucket counts in order, count sample)
    let mut buckets: Vec<(String, Vec<(String, u64)>)> = Vec::new();

    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            assert!(legal_name(name), "illegal family name in {line:?}");
            assert!(help_seen.insert(name.to_string()), "duplicate HELP {name}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut words = rest.split_whitespace();
            let name = words.next().unwrap_or("");
            let kind = words.next().unwrap_or("");
            assert!(legal_name(name), "illegal family name in {line:?}");
            assert!(type_seen.insert(name.to_string()), "duplicate TYPE {name}");
            assert!(
                help_seen.contains(name),
                "TYPE {name} must follow its HELP line"
            );
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown type {kind:?} in {line:?}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value in {line:?}"
        );
        assert!(
            samples_seen.insert(series.to_string()),
            "duplicate sample {series}"
        );
        let bare = series.split('{').next().unwrap();
        assert!(legal_name(bare), "illegal metric name in {line:?}");
        if let Some(family) = bare.strip_suffix("_bucket") {
            let le = series
                .split("le=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .expect("bucket sample carries an le label")
                .to_string();
            let count: u64 = value.parse().expect("bucket counts are integers");
            match buckets.iter_mut().find(|(f, _)| f == family) {
                Some((_, b)) => b.push((le, count)),
                None => buckets.push((family.to_string(), vec![(le, count)])),
            }
        }
    }
    assert_eq!(help_seen, type_seen, "every family has both HELP and TYPE");

    // Queue families: the completed queries above passed through the
    // one admission queue, so its depth gauge, wait histogram and
    // completion counter must all be on the scrape, and no per-class
    // family may be.
    for family in [
        "sketchql_server_queue_depth",
        "sketchql_server_queue_wait_ms_count",
        "sketchql_server_queries_completed",
    ] {
        assert!(
            sample_value(&text, family).is_some(),
            "queue family {family} missing from the exposition"
        );
    }
    assert!(
        !text.contains("sketchql_server_class_"),
        "the exposition still carries a per-class family"
    );

    // Shard-tier families: the store-served alpha query above loaded
    // and probed at least one shard, so residency, load and probe series
    // must all be on the scrape (and have passed the name/HELP/TYPE lint
    // above like any other family).
    for family in [
        "sketchql_shard_resident",
        "sketchql_shard_loads",
        "sketchql_shard_probes",
    ] {
        let v = sample_value(&text, family)
            .unwrap_or_else(|| panic!("shard family {family} missing from the exposition"));
        assert!(v > 0.0, "{family} must be positive after sharded traffic");
    }

    // The scanned dataset's index remembers its segments; the engine
    // totals its datasets' memos into the gauges after every query.
    for family in [
        "sketchql_matcher_embed_memo_bytes",
        "sketchql_matcher_embed_memo_segments",
    ] {
        let v = sample_value(&text, family)
            .unwrap_or_else(|| panic!("memo family {family} missing from the exposition"));
        assert!(v > 0.0, "{family} must be positive after a scan");
    }

    assert!(!buckets.is_empty(), "traffic must populate histograms");
    for (family, b) in &buckets {
        assert!(
            b.windows(2).all(|w| w[0].1 <= w[1].1),
            "{family} buckets must be cumulative: {b:?}"
        );
        let (last_le, last_count) = b.last().unwrap();
        assert_eq!(last_le, "+Inf", "{family} must end with the +Inf bucket");
        let total = sample_value(&text, &format!("{family}_count"))
            .unwrap_or_else(|| panic!("{family}_count sample missing"));
        assert_eq!(
            *last_count, total as u64,
            "{family}: +Inf bucket must equal _count"
        );
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
