//! `Profile` over the wire, checked where nothing else runs: the reply
//! folds every trace the process-wide flight recorder retains, so the
//! one test here has this binary to itself and can count them exactly.

mod common;

use sketchql_server::{Client, Engine, EngineConfig, Server};
use sketchql_telemetry::names;

use common::{tiny_model, two_datasets};

#[test]
fn profile_request_names_matcher_stages_under_load() {
    let engine = Engine::start(
        tiny_model(),
        two_datasets(),
        EngineConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let server = Server::start(engine, "127.0.0.1:0").expect("bind ephemeral port");
    // One connection: each query's trace is finalized before the next
    // request on it is read, so all of them are folded.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let queries = 3;
    for _ in 0..queries {
        client
            .query_event("alpha", "left_turn", Some(3), None)
            .unwrap();
    }
    let profile = client.profile().unwrap();

    assert_eq!(profile.samples, queries, "one sample per query run");
    assert!(
        profile.folded.contains(names::MATCHER_SEARCH),
        "folded stacks name the matcher stage:\n{}",
        profile.folded
    );
    assert!(
        profile
            .folded
            .contains(&format!("alpha;{}", names::SERVER_EXECUTE)),
        "folded stacks are rooted in the server execute span under the dataset:\n{}",
        profile.folded
    );

    server.shutdown();
}
