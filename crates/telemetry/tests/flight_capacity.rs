//! The configurable global flight-recorder capacity. Kept alone in its
//! own integration-test binary: configuration must land before the
//! process-global recorder's first use, so no other test in this
//! process may touch telemetry first.

use std::sync::Arc;

use sketchql_telemetry as tel;

#[test]
fn configured_capacity_applies_before_first_use() {
    assert!(
        tel::configure_flight_capacity(8),
        "configuration before first use must take effect"
    );
    assert_eq!(tel::flight_recorder().capacity(), 8);

    // Once the ring is live it cannot be resized.
    assert!(!tel::configure_flight_capacity(16));
    assert_eq!(tel::flight_recorder().capacity(), 8);

    for id in 1..=12u64 {
        tel::flight_recorder().record(Arc::new(tel::QueryTrace {
            trace_id: id,
            label: format!("cap/{id}"),
            outcome: tel::TraceOutcome::Completed,
            start_nanos: id,
            total_nanos: 1,
            ..Default::default()
        }));
    }
    let recent = tel::flight_recorder().recent(100);
    assert_eq!(recent.len(), 8, "retention capped at the configured size");
    assert_eq!(recent[0].trace_id, 12, "newest first");
    assert!(
        tel::flight_recorder().find(1).is_none(),
        "oldest traces evicted"
    );
}
