//! End-to-end resource attribution over the wire: a query run through
//! a real TCP server carries attributed CPU and heap traffic on its
//! flight-recorder trace, and `Stats` breaks traffic down per dataset.
//! (`Profile` folds every retained trace, so its test has a binary of
//! its own: `profile.rs`.)

mod common;

use sketchql_server::{Client, Engine, EngineConfig, Server};

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
