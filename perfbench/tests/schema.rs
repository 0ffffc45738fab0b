//! Runs the `--quick` smoke of every workload, untraced and traced, and
//! holds what it prints to `BENCHMARK.json`: every declared workload
//! runs, and every declared metric is emitted exactly once, finite, with
//! the declared unit — and nothing else is.

use std::process::Command;

use serde::Value;

const SEED: &str = "3";

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    let Value::Obj(fields) = value else {
        panic!("expected an object holding {key:?}, got {value:?}");
    };
    fields
        .iter()
        .find_map(|(k, v)| (k == key).then_some(v))
        .unwrap_or_else(|| panic!("no field {key:?} in {value:?}"))
}

fn text(value: &Value) -> &str {
    let Value::Str(s) = value else {
        panic!("expected a string, got {value:?}");
    };
    s
}

fn items(value: &Value) -> &[Value] {
    let Value::Arr(items) = value else {
        panic!("expected an array, got {value:?}");
    };
    items
}

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&json).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric declared under `key`.
fn declared(benchmark: &Value, key: &str) -> Vec<(String, String)> {
    items(field(benchmark, key))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

/// Standard output of one quick run.
fn run(workload: &str, seed: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_sketchql-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--trace",
            trace,
            "--quick",
        ])
        .output()
        .expect("start the benchmark");
    let stdout = String::from_utf8(output.stdout).expect("the benchmark prints UTF-8");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

#[test]
fn every_declared_workload_emits_exactly_the_declared_metrics() {
    let benchmark = benchmark();
    let workloads: Vec<&str> = items(field(&benchmark, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert_eq!(workloads, ["scan", "sharded", "ingest", "live"]);
    for workload in workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let stdout = run(workload, SEED, trace);
            let last = stdout.lines().last().expect("the run printed something");
            let result: Value = serde_json::from_str(last).expect("the last line is JSON");
            let Value::Obj(keys) = &result else {
                panic!("the last line is not an object: {last}");
            };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                field(&result, "correct"),
                &Value::Bool(true),
                "{workload}: {stdout}"
            );
            assert_eq!(field(&result, "failed"), &Value::Num(0.0));

            let Value::Obj(emitted) = field(&result, "metrics") else {
                panic!("metrics is not an object: {last}");
            };
            let wanted = declared(&benchmark, key);
            for (name, unit) in &wanted {
                let found: Vec<_> = emitted.iter().filter(|(k, _)| k == name).collect();
                assert_eq!(
                    found.len(),
                    1,
                    "{workload} --trace {trace}: {name} emitted {} times",
                    found.len()
                );
                let metric = &found[0].1;
                assert_eq!(
                    text(field(metric, "unit")),
                    unit,
                    "{workload}: unit of {name}"
                );
                let Value::Num(value) = field(metric, "value") else {
                    panic!("{workload}: {name} is not a number: {metric:?}");
                };
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
            assert_eq!(
                emitted.len(),
                wanted.len(),
                "{workload} --trace {trace} emits undeclared metrics"
            );
        }
    }
}

/// The `input_hash` a run records.
fn input_hash(stdout: &str) -> String {
    let record = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# run "))
        .expect("the run records itself");
    let record: Value = serde_json::from_str(record).expect("the run record is JSON");
    text(field(&record, "input_hash")).to_string()
}

#[test]
fn the_seed_and_nothing_else_decides_the_inputs() {
    let first = input_hash(&run("ingest", SEED, "0"));
    assert_eq!(
        first,
        input_hash(&run("ingest", SEED, "0")),
        "same seed, different inputs"
    );
    assert_ne!(
        first,
        input_hash(&run("ingest", "4", "0")),
        "different seed, same inputs"
    );
}
