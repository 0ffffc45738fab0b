//! `live`: reads beside writes on one shard set. An appender commits
//! streamed continuations (append → reload → drain the standing queries'
//! notifications) while a reader asks the store's sketches in an open
//! loop. Appends take CPU from queries and every reload hands readers a
//! cold shard set, so a gain for one side that costs the other shows
//! here and nowhere else.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sketchql::{append_frames, CancelToken, Matcher, RetrievedMoment, ShardSet, StoreTier};
use sketchql_datasets::SyntheticVideo;
use sketchql_server::Engine;

use super::sharded::{check_against_scan, inputs, mix};
use super::{check_engine_tally, same_moments, Outcome};
use crate::fixture::{self, Ctx, Stored};
use crate::gen::{self, Fnv, Job, Seeds, STORE_DATASET, STORE_KINDS, STORE_SCENE};
use crate::load::{self, Inputs};
use crate::measure::{at_reference_speed, cpu_at_reference_speed};

/// Events per kind in the base video (~1k frames); each epoch appends
/// about as much again.
const BASE_EVENTS_PER_KIND: usize = 1;
/// Append epochs per run.
const EPOCHS: usize = 3;
/// The reader's arrival rate, requests per second, on one connection,
/// and the requests per round: the yardstick is read between rounds.
const READ_RATE: f64 = 10.0;
const READS_PER_ROUND: usize = 10;

/// One committed epoch, as the appender saw it.
pub struct Epoch {
    pub appended_frames: u32,
    pub append_ms: f64,
    pub reload_ms: f64,
    /// `append_frames` returned → every registration drained.
    pub notify_ms: f64,
    pub cpu_ms: f64,
    /// The yardstick's reading around the epoch.
    pub slowdown: f64,
    pub embedded_rows: usize,
    pub reused_rows: usize,
    pub rewritten_shards: usize,
    pub dropped: u64,
}

/// The base video and `epochs` continuations of it, each a pure
/// extension of the one before.
pub fn stages(epochs: usize) -> Vec<SyntheticVideo> {
    let mut stages = vec![gen::scene(BASE_EVENTS_PER_KIND, STORE_SCENE)];
    for k in 1..=epochs {
        let next = gen::continuation(&stages[k - 1], STORE_SCENE + k as u64);
        stages.push(next);
    }
    stages
}

/// Commits `grown` as the next epoch of the served shard set and checks
/// what the standing queries were told against the library's own
/// epoch-scoped search. Returns the epoch's timings and what a reader
/// must be answered from now on, or `None` (with the failure counted in
/// `out`) when the append itself failed.
#[allow(clippy::too_many_arguments)]
pub fn commit_epoch(
    ctx: &Ctx,
    engine: &Engine,
    matcher: &Matcher<sketchql::LearnedSimilarity>,
    store_dir: &std::path::Path,
    inputs: &Inputs,
    registrations: &[u64],
    old_frames: u32,
    grown: &sketchql::VideoIndex,
    out: &mut Outcome,
) -> Option<(Epoch, Vec<Vec<RetrievedMoment>>)> {
    let rec = &ctx.rec;
    let shard_dir = fixture::shard_dir(store_dir);
    let request = rec.request();
    let started = Instant::now();
    let cpu_before = ctx.yardstick.process_cpu_ms();
    let mut epoch = None;
    let mut feeds = Vec::new();
    rec.span("epoch.commit", 0, request, |span| {
        let (appended, append_ms) = rec.span("core.append_frames", span, request, |_| {
            append_frames(&matcher.sim, grown, &shard_dir, 1, &|_| {})
        });
        let appended = match appended {
            Ok(appended) => appended,
            Err(e) => return out.check(Err(format!("append_frames failed: {e}"))),
        };
        let returned = Instant::now();
        let (embedded_rows, reused_rows, rewritten_shards) = (
            appended.embedded_rows,
            appended.reused_rows,
            appended.rewritten_shards,
        );
        let number = appended.epoch;
        let (reloaded, reload_ms) = rec.span("server.reload_dataset", span, request, |_| {
            engine.reload_dataset(
                STORE_DATASET,
                grown.clone(),
                StoreTier::Sharded(appended.set),
            )
        });
        out.check(
            reloaded
                .map(|_| ())
                .map_err(|e| format!("reload_dataset failed: {e}")),
        );
        rec.span("server.notifications", span, request, |_| {
            feeds = registrations
                .iter()
                .map(|&id| engine.notifications(id, None))
                .collect();
        });
        epoch = Some((
            number,
            Epoch {
                appended_frames: grown.frames - old_frames,
                append_ms,
                reload_ms,
                notify_ms: returned.elapsed().as_secs_f64() * 1e3,
                cpu_ms: ctx.yardstick.process_cpu_ms() - cpu_before,
                slowdown: ctx.yardstick.slowdown(started, Instant::now()),
                embedded_rows,
                reused_rows,
                rewritten_shards,
                dropped: 0,
            },
        ));
    });
    let (number, mut epoch) = epoch?;

    // The standing queries against the library, over a fresh attachment
    // of the epoch just committed: the same matches, once, none dropped.
    let set = ShardSet::open(&shard_dir).expect("attach the epoch just committed");
    for ((feed, &id), sketch) in feeds.iter().zip(registrations).zip(&inputs.sketches) {
        let offline = matcher
            .search_with_shards_scoped(grown, &set, sketch, &CancelToken::none(), Some(old_frames))
            .expect("epoch-scoped search of a canonical sketch");
        out.check(match feed {
            None => Err(format!("registration {id} is gone")),
            Some(feed) => {
                epoch.dropped += feed.dropped;
                let delivered = feed.matches.len() == offline.moments.len()
                    && feed.matches.iter().zip(&offline.moments).all(|(m, r)| {
                        (m.start, m.end, &m.track_ids, m.epoch)
                            == (r.start, r.end, &r.track_ids, number)
                            && m.score.to_bits() == r.score.to_bits()
                    });
                let again = engine
                    .notifications(id, None)
                    .map_or(0, |f| f.matches.len());
                if !delivered {
                    Err(format!(
                        "epoch {number}: standing matches differ from the scoped search"
                    ))
                } else if feed.dropped > 0 || again > 0 {
                    Err(format!(
                        "epoch {number}: {} dropped, {again} delivered twice",
                        feed.dropped
                    ))
                } else {
                    Ok(())
                }
            }
        });
    }
    let answers = inputs
        .sketches
        .iter()
        .map(|sketch| {
            matcher
                .search_with_shards(grown, &set, sketch, &CancelToken::none())
                .expect("store search of a canonical sketch")
                .moments
        })
        .collect();
    Some((epoch, answers))
}

/// Registers the store's four sketches as standing queries.
pub fn register_all(engine: &Engine, inputs: &Inputs) -> Vec<u64> {
    inputs
        .sketches
        .iter()
        .map(|sketch| {
            engine
                .register(STORE_DATASET, sketch.clone(), None, None)
                .expect("register a standing query on a stored dataset")
                .id
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    // One reader and one appender, whatever the core count: on a single
    // core they share it, and the run says so rather than refusing.
    if ctx.nproc < 2 {
        println!("# live: reader and appender share one core");
    }
    let seeds = Seeds::new(ctx.seed);
    let mut out = Outcome::default();
    let inputs = inputs();
    let epochs = if ctx.quick { 1 } else { EPOCHS };
    let rounds = (ctx.seconds * READ_RATE / READS_PER_ROUND as f64).ceil() as usize;
    let mut rng = seeds.stream("live.mix");
    let schedule: Vec<Vec<Job>> = (0..rounds)
        .map(|_| {
            mix(
                READS_PER_ROUND,
                gen::arrivals(READS_PER_ROUND, READ_RATE, &mut rng),
                &mut rng,
            )
        })
        .collect();

    let detector = seeds.detector(STORE_DATASET);
    let ((stored, grown, mut served), setup_s) = fixture::set_up(
        ctx,
        || {
            let stored = Stored::build(ctx, "store", BASE_EVENTS_PER_KIND, detector);
            let grown: Vec<_> = stages(epochs)[1..]
                .iter()
                .map(|video| gen::track(video, detector))
                .collect();
            let served = stored.serve(ctx, 1);
            (stored, grown, served)
        },
        |(_, _, served)| served.stop(),
    );
    out.setup_s = setup_s;

    let mut hash = Fnv::new();
    hash.index(&stored.index);
    grown.iter().for_each(|i| hash.index(i));
    inputs.sketches.iter().for_each(|s| hash.clip(s));
    schedule.iter().for_each(|round| hash.jobs(round));
    out.input_hash = hash.finish();

    let matcher = Matcher::with_config(stored.model.similarity(), fixture::matcher_config());
    let engine: Arc<Engine> = served.server.engine_handle();
    let registrations = register_all(&engine, &inputs);
    let base_set = ShardSet::open(&fixture::shard_dir(&stored.store_dir)).expect("attach the base");
    // What a reader may be answered: the store path's result at the base
    // or after any committed epoch.
    let mut accepted: Vec<Vec<Vec<RetrievedMoment>>> = vec![inputs
        .sketches
        .iter()
        .map(|s| {
            matcher
                .search_with_shards(&stored.index, &base_set, s, &CancelToken::none())
                .expect("store search of a canonical sketch")
                .moments
        })
        .collect()];
    drop(base_set);
    load::round(
        ctx,
        "round.warm_up",
        &mut served.conns,
        &inputs,
        &schedule[0][..1],
        false,
    );

    let mut committed = Vec::new();
    let mut appender_out = Outcome::default();
    let origin = Instant::now();
    let reads_done = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            schedule
                .iter()
                .map(|jobs| load::round(ctx, "round.open", &mut served.conns, &inputs, jobs, true))
                .collect::<Vec<_>>()
        });
        let mut frames = stored.index.frames;
        for (k, index) in grown.iter().enumerate() {
            let due = ctx.seconds * (k + 1) as f64 / (epochs + 1) as f64;
            std::thread::sleep(
                (origin + Duration::from_secs_f64(due)).saturating_duration_since(Instant::now()),
            );
            let Some((epoch, answers)) = commit_epoch(
                ctx,
                &engine,
                &matcher,
                &stored.store_dir,
                &inputs,
                &registrations,
                frames,
                index,
                &mut appender_out,
            ) else {
                break;
            };
            frames = index.frames;
            committed.push(epoch);
            accepted.push(answers);
        }
        reader.join().expect("reader thread panicked")
    });
    out.absorb_checks(&mut appender_out);

    for epoch in &committed {
        let frames = epoch.appended_frames as f64;
        let commit_ms = epoch.append_ms + epoch.reload_ms;
        let fair_ms = at_reference_speed(commit_ms, epoch.cpu_ms, epoch.slowdown);
        out.throughput
            .push([frames / (commit_ms / 1e3), frames / (fair_ms / 1e3)]);
        let cpu_per_frame = epoch.cpu_ms / frames;
        out.cpu_ms_per_op.push([
            cpu_per_frame,
            cpu_at_reference_speed(cpu_per_frame, epoch.slowdown),
        ]);
    }
    let reads = rounds * READS_PER_ROUND;
    for (jobs, round) in schedule.iter().zip(reads_done) {
        let cpu_per_read = round.cpu_ms / jobs.len() as f64;
        let slowdown = ctx.yardstick.slowdown(round.started, round.ended);
        for reply in round.replies {
            let sketch = jobs[reply.job].sketch;
            if reply.moments.is_ok() {
                let fair = at_reference_speed(reply.latency_ms, cpu_per_read, slowdown);
                out.latency_ms.push([reply.latency_ms, fair]);
                out.late_ms.push(reply.late_ms);
            }
            out.check(match reply.moments {
                Err(e) => Err(format!("read failed: {e}")),
                Ok(moments) => {
                    if accepted
                        .iter()
                        .any(|epoch| same_moments(&moments, &epoch[sketch]))
                    {
                        Ok(())
                    } else {
                        Err(format!(
                            "read of {:?} matches the store path at no epoch",
                            STORE_KINDS[sketch]
                        ))
                    }
                }
            });
        }
    }
    out.phases = format!(
        "{reads} reads at {READ_RATE}/s in rounds of {READS_PER_ROUND} on 1 connection beside {epochs} append epochs (1 thread) \
         growing {} to {} frames",
        stored.index.frames,
        grown.last().map_or(stored.index.frames, |i| i.frames)
    );
    let stats = engine.stats();
    out.check(if stats.store_fallbacks == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} queries were not served from the store",
            stats.store_fallbacks
        ))
    });
    check_engine_tally(&served.server, &mut out);
    if let (Some(index), Some(last)) = (grown.last(), accepted.last()) {
        check_against_scan(ctx, &matcher, index, &inputs, last, &mut out);
    }
    served.stop();
    out
}
