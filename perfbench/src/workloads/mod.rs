//! The four workloads. Each sets up, measures for `--seconds`, checks
//! what the program answered, and hands back raw samples; `main` turns
//! them into the metrics `BENCHMARK.json` names.

pub mod ingest;
pub mod live;
pub mod scan;
pub mod sharded;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use sketchql::{Matcher, RetrievedMoment, VideoIndex};
use sketchql_server::{Client, Server};

use crate::fixture::Ctx;
use crate::gen::Job;
use crate::load::{self, Inputs};
use crate::measure::{at_reference_speed, cpu_at_reference_speed};

pub const NAMES: [&str; 4] = ["scan", "sharded", "ingest", "live"];

/// A measurement as taken, and as it would have read on a quiet
/// reference box (see `measure::at_reference_speed`).
pub type Pair = [f64; 2];

/// What one run measured, before it is reduced to metrics.
#[derive(Default)]
pub struct Outcome {
    /// FNV hash of every generated input.
    pub input_hash: u64,
    /// Phase sizes, for the run record.
    pub phases: String,
    pub setup_s: Pair,
    /// Operations attempted and failed: requests, ingest cycles, append
    /// epochs and output checks alike.
    pub attempted: u64,
    pub failed: u64,
    /// Why, one line per failure (the first few).
    pub problems: Vec<String>,
    /// Time a user waited for one operation of the workload: a query's
    /// answer, or a video becoming queryable.
    pub latency_ms: Vec<Pair>,
    /// How late each open-loop request was sent.
    pub late_ms: Vec<f64>,
    /// Work per second, one value per round, cycle or epoch.
    pub throughput: Vec<Pair>,
    /// Process CPU milliseconds per unit of that work, likewise.
    pub cpu_ms_per_op: Vec<Pair>,
}

impl Outcome {
    /// Takes over the operations and checks another outcome counted.
    pub fn absorb_checks(&mut self, other: &mut Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.append(&mut other.problems);
    }

    /// Counts one attempted operation or check; `Err` fails it.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = result {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(problem);
            }
        }
    }
}

/// Whether to stop after `done` rounds (or cycles) since `started`: at
/// the boundary nearest to the requested length, or after one round of a
/// `--quick` smoke.
pub fn time_is_up(ctx: &Ctx, started: Instant, done: u32) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    ctx.quick || elapsed + 0.5 * elapsed / done as f64 >= ctx.seconds
}

/// One answered query: which dataset and sketch, and the moments.
pub type Answer = (usize, usize, Vec<RetrievedMoment>);

/// Alternates closed-loop and open-loop rounds until `ctx.seconds` have
/// been measured. Every round replays the same jobs, so rounds are
/// replicas: a metric is the median over rounds (or over all open-loop
/// requests), which a few slow seconds on a shared machine do not move.
pub fn serve_rounds(
    ctx: &Ctx,
    conns: &mut [Client],
    inputs: &Inputs,
    closed: &[Job],
    open: &[Job],
    out: &mut Outcome,
) -> Vec<Answer> {
    assert!(conns.len() <= ctx.nproc, "more connections than cores");
    // One untimed request per connection: the server spawns the
    // connection's thread and the datasets' pages are touched.
    let warm_up = &closed[closed.len().saturating_sub(conns.len())..];
    load::round(ctx, "round.warm_up", conns, inputs, warm_up, false);
    let mut answers = Vec::new();
    let started = Instant::now();
    let mut rounds = 0u32;
    loop {
        for (name, jobs, is_open) in [("round.closed", closed, false), ("round.open", open, true)] {
            let round = load::round(ctx, name, conns, inputs, jobs, is_open);
            let n = jobs.len() as f64;
            let slowdown = ctx.yardstick.slowdown(round.started, round.ended);
            let cpu_per_op = round.cpu_ms / n;
            if !is_open {
                let fair_wall_ms = at_reference_speed(round.wall_ms, round.cpu_ms, slowdown);
                out.throughput
                    .push([n / (round.wall_ms / 1e3), n / (fair_wall_ms / 1e3)]);
                out.cpu_ms_per_op
                    .push([cpu_per_op, cpu_at_reference_speed(cpu_per_op, slowdown)]);
            }
            for reply in round.replies {
                let job = &jobs[reply.job];
                match reply.moments {
                    Ok(moments) => {
                        out.check(Ok(()));
                        if is_open {
                            let fair = at_reference_speed(reply.latency_ms, cpu_per_op, slowdown);
                            out.latency_ms.push([reply.latency_ms, fair]);
                            out.late_ms.push(reply.late_ms);
                        }
                        answers.push((job.dataset, job.sketch, moments));
                    }
                    Err(e) => out.check(Err(format!("{name} request failed: {e}"))),
                }
            }
        }
        rounds += 1;
        if time_is_up(ctx, started, rounds) {
            break;
        }
    }
    out.phases = format!(
        "{rounds} rounds of {} closed-loop + {} open-loop requests on {} connections",
        closed.len(),
        open.len(),
        conns.len()
    );
    answers
}

/// The engine's own tally must agree that nothing failed or was shed.
pub fn check_engine_tally(server: &Server, out: &mut Outcome) {
    let stats = server.engine().stats();
    let bad = stats.failed + stats.timed_out + stats.rejected_overload + stats.rate_limited;
    out.check(if bad == 0 {
        Ok(())
    } else {
        Err(format!(
            "engine reports {bad} failed, timed-out or shed queries"
        ))
    });
}

/// `Matcher::search` for every `(index, sketch)` pair in `wanted`, on
/// `threads` threads that each take the next pair not yet scanned.
pub fn scan_reference(
    matcher: &Matcher<sketchql::LearnedSimilarity>,
    indexes: &[&VideoIndex],
    inputs: &Inputs,
    wanted: &[(usize, usize)],
    threads: usize,
) -> Vec<Vec<RetrievedMoment>> {
    let next = AtomicUsize::new(0);
    let mut found: Vec<(usize, Vec<RetrievedMoment>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut found = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(d, s)) = wanted.get(i) else { break };
                        let moments = matcher
                            .search(indexes[d], &inputs.sketches[s])
                            .expect("reference scan of a generated sketch");
                        found.push((i, moments));
                    }
                    found
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    found.sort_by_key(|(i, _)| *i);
    found.into_iter().map(|(_, m)| m).collect()
}

/// Bit-exact equality of two ranked lists (scores compared as bits).
pub fn same_moments(a: &[RetrievedMoment], b: &[RetrievedMoment]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.start, x.end, &x.track_ids) == (y.start, y.end, &y.track_ids)
                && x.score.to_bits() == y.score.to_bits()
        })
}
