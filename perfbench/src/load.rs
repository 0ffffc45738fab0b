//! The load generator: closed-loop and open-loop rounds over the real
//! `Client` socket path, one generator thread per connection.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sketchql::RetrievedMoment;
use sketchql_server::Client;
use sketchql_trajectory::Clip;

use crate::fixture::Ctx;
use crate::gen::Job;
use crate::trace::Recorder;

/// What the program receives: dataset names and sketch clips, addressed
/// by the jobs of a round.
pub struct Inputs {
    pub datasets: Vec<String>,
    pub sketches: Vec<Clip>,
}

/// One answered (or failed) request.
pub struct Reply {
    /// Index into the round's job list.
    pub job: usize,
    /// Closed loop: send → reply parsed. Open loop: due time → reply
    /// parsed, so a stall is charged to every request it delays.
    pub latency_ms: f64,
    /// Open loop: how long after its due time the request was sent.
    pub late_ms: f64,
    pub moments: Result<Vec<RetrievedMoment>, String>,
}

/// One round's measurements.
pub struct Round {
    pub wall_ms: f64,
    /// Process CPU time spent meanwhile.
    pub cpu_ms: f64,
    /// When the round ran, for the yardstick.
    pub started: Instant,
    pub ended: Instant,
    pub replies: Vec<Reply>,
}

/// Sends `jobs` over `conns`, one generator thread per connection, each
/// taking the next unsent job. `open` waits for each job's due time and
/// times it from there; otherwise every connection sends as soon as its
/// previous reply is parsed.
pub fn round(
    ctx: &Ctx,
    name: &str,
    conns: &mut [Client],
    inputs: &Inputs,
    jobs: &[Job],
    open: bool,
) -> Round {
    let rec: &Recorder = &ctx.rec;
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let cpu_before = ctx.yardstick.process_cpu_ms();
    let (per_conn, wall_ms) = rec.span(name, 0, 0, |round_span| {
        let origin = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|client| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut replies = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(i) else { break };
                            let due = origin + Duration::from_secs_f64(job.due_s);
                            if open {
                                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                            }
                            replies.push(send(rec, round_span, client, inputs, i, job, due, open));
                        }
                        replies
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("generator thread panicked"))
                .collect::<Vec<Reply>>()
        })
    });
    let cpu_ms = ctx.yardstick.process_cpu_ms() - cpu_before;
    Round {
        wall_ms,
        cpu_ms,
        started,
        ended: Instant::now(),
        replies: per_conn,
    }
}

#[allow(clippy::too_many_arguments)]
fn send(
    rec: &Recorder,
    round_span: u64,
    client: &mut Client,
    inputs: &Inputs,
    i: usize,
    job: &Job,
    due: Instant,
    open: bool,
) -> Reply {
    let request = rec.request();
    let clip = inputs.sketches[job.sketch].clone();
    let sent = Instant::now();
    let mut span_id = 0;
    let (outcome, _) = rec.span("client.query_clip", round_span, request, |id| {
        span_id = id;
        client.query_clip(&inputs.datasets[job.dataset], clip, None, None)
    });
    let done = Instant::now();
    if let Ok(reply) = &outcome {
        // The reply says how long the query waited and ran inside the
        // server, not when: the two stages are placed back to back at
        // the end of the request's span. What is left is the wire.
        let execute = done - Duration::from_millis(reply.execute_ms).min(done - sent);
        let wait = execute - Duration::from_millis(reply.queue_wait_ms).min(execute - sent);
        rec.placed("server.queue_wait", span_id, request, wait, execute);
        rec.placed("server.execute", span_id, request, execute, done);
    }
    let from = if open { due } else { sent };
    Reply {
        job: i,
        latency_ms: (done - from).as_secs_f64() * 1e3,
        late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
        moments: outcome.map(|o| o.moments).map_err(|e| e.to_string()),
    }
}
