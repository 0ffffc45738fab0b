//! The repository's benchmark. One run measures one workload:
//!
//! ```text
//! sketchql-perfbench --workload <scan|sharded|ingest|live> --seed <n> \
//!     --seconds <n> --trace <0|1> [--quick] [--repeat <n>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger (and writes the span file); the last line of standard output is
//! the one JSON object the driver reads. See `README.md` beside this
//! package for what each metric means and how to read a run.

mod fixture;
mod gen;
mod ledger;
mod load;
mod measure;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use fixture::Ctx;
use measure::{median, percentile};
use workloads::{Outcome, Pair};

/// A named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        quick: false,
        repeat: 0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)? as f64,
            "--trace" => args.trace = number(value()?)? != 0,
            "--repeat" => args.repeat = number(value()?)? as usize,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if args.seconds == 0.0 {
        // The length BENCHMARK.json declares, or a smoke's.
        args.seconds = if args.quick { 2.0 } else { 20.0 };
    }
    Ok(args)
}

/// Reduces a run's samples to the end-to-end metrics of BENCHMARK.json,
/// from column `which` of each pair: `0` as taken, `1` at reference
/// speed. Every one is a median, over rounds, cycles, epochs or requests.
fn end_to_end(out: &Outcome, which: usize) -> Vec<Metric> {
    let column = |pairs: &[Pair]| median(&pairs.iter().map(|p| p[which]).collect::<Vec<_>>());
    vec![
        Metric::new("setup_s", out.setup_s[which], "s"),
        Metric::new("latency_p50_ms", column(&out.latency_ms), "ms"),
        Metric::new("throughput_per_s", column(&out.throughput), "1/s"),
        Metric::new("cpu_ms_per_op", column(&out.cpu_ms_per_op), "ms"),
        Metric::new("peak_rss_mb", measure::peak_rss_mb(), "MB"),
    ]
}

pub fn run_workload(ctx: &Ctx, workload: &str) -> Outcome {
    match workload {
        "scan" => workloads::scan::run(ctx),
        "sharded" => workloads::sharded::run(ctx),
        "ingest" => workloads::ingest::run(ctx),
        "live" => workloads::live::run(ctx),
        _ => unreachable!("workload names are checked at parsing"),
    }
}

/// Where stores and traces go: under the build's target directory.
fn bench_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("bench")
}

/// The checked-out commit, where there is a checkout to ask.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn run_once(args: &Args) -> ExitCode {
    let nproc = measure::nproc();
    let run_started = std::time::Instant::now();
    let (yardstick, yardstick_threads) = measure::Yardstick::start(nproc);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        // Several set-ups, so that `setup_s` is a median.
        setups: if args.quick { 1 } else { 3 },
        nproc,
        workdir: bench_dir().join(format!("{}-{}", args.workload, std::process::id())),
        rec: std::sync::Arc::new(trace::Recorder::new(args.trace)),
        yardstick,
    };
    std::fs::create_dir_all(&ctx.workdir).expect("create the run's scratch directory");

    let (out, metrics) = if args.trace {
        let (out, metrics) = ledger::run(&ctx, &args.workload);
        let path = bench_dir().join(format!("{}.trace.jsonl", args.workload));
        ctx.rec.write(&path).expect("write the span file");
        println!("# spans written to {}", path.display());
        println!(
            "# {:<28} {:>7} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (count, total, own)) in ctx.rec.table() {
            println!("# {name:<28} {count:>7} {total:>12.2} {own:>12.2}");
        }
        (out, metrics)
    } else {
        let out = run_workload(&ctx, &args.workload);
        // What the clock read, for the record; the metrics proper are
        // the same samples at reference speed.
        for m in end_to_end(&out, 0) {
            println!("RAW {} {} {}", m.name, m.value, m.unit);
        }
        let metrics = end_to_end(&out, 1);
        (out, metrics)
    };

    ctx.yardstick.stop();
    for thread in yardstick_threads {
        thread.join().expect("a yardstick thread ends");
    }
    let slowdown = ctx
        .yardstick
        .slowdown(run_started, std::time::Instant::now());
    println!(
        "# run {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"nproc\": {nproc}, \"commit\": \"{}\", \"yardstick_slowdown\": {slowdown:.4}, \"input_hash\": \"{:016x}\", \"phases\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.quick,
        commit(),
        out.input_hash,
        out.phases
    );
    if !args.trace {
        let latency: Vec<f64> = out.latency_ms.iter().map(|p| p[0]).collect();
        println!(
            "# tails as taken: latency p95 {:.3} ms, p99 {:.3} ms over {} operations; generator late p99 {:.3} ms",
            percentile(&latency, 0.95),
            percentile(&latency, 0.99),
            latency.len(),
            percentile(&out.late_ms, 0.99),
        );
    }
    for m in &metrics {
        println!("METRIC {} {} {}", m.name, m.value, m.unit);
    }
    // On both streams: whoever runs this may keep only one of them.
    for problem in &out.problems {
        println!("# FAILED: {problem}");
        eprintln!("FAILED: {problem}");
    }
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        eprintln!("FAILED: metric {} is {}", m.name, m.value);
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = out.failed == 0 && finite;
    if correct {
        std::fs::remove_dir_all(&ctx.workdir).ok();
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--repeat n`: runs this program `n` times, on seeds `seed`, `seed + 1`,
/// … as the driver does, and prints, per metric, the median, the quartiles and their distance as a
/// share of the median — the figure each bound in BENCHMARK.json must
/// stay well above.
fn run_repeated(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this program");
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    for i in 0..args.repeat {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", &args.workload])
            .args(["--seed", &(args.seed + i as u64).to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let output = cmd.output().expect("run this program again");
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            println!("{stdout}");
            eprintln!("run {} of {} failed", i + 1, args.repeat);
            return ExitCode::FAILURE;
        }
        for line in stdout.lines() {
            let mut fields = line.split_whitespace();
            let (Some(kind @ ("METRIC" | "RAW")), Some(name), Some(value), Some(unit)) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                continue;
            };
            let name = if kind == "RAW" {
                format!("{name} as taken")
            } else {
                name.to_string()
            };
            let value: f64 = value.parse().expect("a METRIC line carries a number");
            match series.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, _, values)) => values.push(value),
                None => series.push((name, unit.to_string(), vec![value])),
            }
        }
        eprintln!("run {} of {} done", i + 1, args.repeat);
    }
    println!(
        "# {} x{} seeds {}.. seconds {} nproc {} commit {}",
        args.workload,
        args.repeat,
        args.seed,
        args.seconds,
        measure::nproc(),
        commit()
    );
    println!("| metric | unit | median | q1 | q3 | (q3-q1)/median |");
    println!("|---|---|---|---|---|---|");
    for (name, unit, values) in &series {
        let [q1, q2, q3] = measure::quartiles(values);
        println!(
            "| {name} | {unit} | {q2:.4} | {q1:.4} | {q3:.4} | {:.4} |",
            (q3 - q1) / q2
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.repeat > 0 {
        run_repeated(&args)
    } else {
        run_once(&args)
    }
}
