//! End-to-end resource attribution and profiling over the wire: a
//! query run through a real TCP server carries attributed CPU and heap
//! traffic on its flight-recorder trace, `Profile` answers folded
//! stacks naming the execution stages, and `Stats` breaks traffic down
//! per dataset.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sketchql_server::{Client, Engine, EngineConfig, Server};
use sketchql_telemetry::names;

use common::{tiny_model, two_datasets};

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

#[test]
fn queries_carry_resource_attribution_end_to_end() {
    let server = start_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let outcome = client
        .query_event("alpha", "left_turn", Some(5), None)
        .unwrap();
    let traces = client.trace(Some(outcome.trace_id), None).unwrap();
    assert_eq!(traces.len(), 1, "the query's trace is in the recorder");
    let trace = &traces[0];
    assert_eq!(trace.outcome, "completed");
    // A full learned scan builds candidate clips and runs the encoder:
    // both CPU and heap traffic must attribute to the trace.
    assert!(
        trace.cpu_nanos > 0,
        "scan CPU must attribute to the query (saw {} ns)",
        trace.cpu_nanos
    );
    assert!(
        trace.alloc_bytes > 0 && trace.alloc_count > 0,
        "scan allocations must attribute to the query (saw {} bytes / {} allocs)",
        trace.alloc_bytes,
        trace.alloc_count
    );

    server.shutdown();
}

#[test]
fn profile_request_names_matcher_stages_under_load() {
    let server = start_server(2);
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    let profile = std::thread::scope(|scope| {
        // Keep the workers busy with real queries for the whole
        // sampling window.
        for _ in 0..2 {
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let _ = client.query_event("alpha", "left_turn", Some(3), None);
                }
            });
        }
        let mut client = Client::connect(addr).unwrap();
        let profile = client.profile(Some(1), Some(199));
        // Release the query threads before unwrapping: a failed profile
        // must not leave them spinning inside the scope forever.
        stop.store(true, Ordering::Relaxed);
        profile.unwrap()
    });

    assert!(profile.samples > 0, "a 1 s window must collect samples");
    assert!(profile.duration_ms >= 900, "the window runs its full span");
    assert!(
        profile.folded.contains(names::MATCHER_SEARCH),
        "folded stacks name the matcher stage:\n{}",
        profile.folded
    );
    assert!(
        profile.folded.contains(names::SERVER_EXECUTE),
        "folded stacks are rooted in the server execute span:\n{}",
        profile.folded
    );

    server.shutdown();
}

#[test]
fn stats_break_down_traffic_per_dataset() {
    let server = start_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();

    for _ in 0..2 {
        client
            .query_event("alpha", "left_turn", Some(3), None)
            .unwrap();
    }
    client.query_event("beta", "u_turn", Some(3), None).unwrap();

    let stats = client.stats().unwrap();
    let by_name = |name: &str| {
        stats
            .datasets
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("stats must list dataset {name}"))
    };
    assert_eq!(by_name("alpha").completed, 2);
    assert_eq!(by_name("beta").completed, 1);
    assert_eq!(by_name("alpha").shed + by_name("beta").shed, 0);
    assert_eq!(
        stats.datasets.len(),
        2,
        "every loaded dataset appears, even idle ones"
    );
    assert_eq!(
        by_name("alpha").completed + by_name("beta").completed,
        stats.completed,
        "per-dataset completions sum to the engine total"
    );

    server.shutdown();
}
