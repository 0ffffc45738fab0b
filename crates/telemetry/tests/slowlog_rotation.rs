//! Size-cap rotation of the slow-query log. Alone in its own test
//! binary: the sink is process-global, and any concurrently finalizing
//! trace in the same process would also write into the capped file.

use std::time::Duration;

use sketchql_telemetry as tel;

#[test]
fn slow_query_log_rotates_at_the_size_cap() {
    let dir = std::env::temp_dir().join(format!("sketchql-slowlog-rot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("slow.jsonl");
    let rotated = dir.join("slow.jsonl.1");

    const CAP: u64 = 600;
    tel::configure_slow_query_log_path_capped(&path, Duration::ZERO, Some(CAP)).unwrap();

    // Threshold 0 means every finalized trace qualifies; each line is
    // on the order of 150 bytes, so 20 traces overflow the cap several
    // times over and force at least one rotation.
    for i in 0..20 {
        let ctx = tel::TraceContext::new();
        ctx.set_label(format!("rotation/query-{i}"));
        let _ = ctx.finalize();
    }
    tel::disable_slow_query_log();

    let live = std::fs::metadata(&path).expect("live log exists").len();
    let old = std::fs::metadata(&rotated).expect("rotated predecessor exists");
    assert!(old.len() > 0, "predecessor keeps the rotated-out lines");
    // The cap is checked before each write, so the live file never
    // exceeds the cap by more than one line.
    assert!(
        live <= CAP + 512,
        "live log stays near the cap (was {live} bytes)"
    );
    // Exactly one predecessor is kept: no .2 file ever appears.
    assert!(!dir.join("slow.jsonl.2").exists());

    let _ = std::fs::remove_dir_all(&dir);
}
