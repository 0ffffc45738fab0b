//! `sketchql-cli` — a command-line front end for the SketchQL library.
//!
//! ```text
//! sketchql-cli generate --family urban_intersection --seed 7 --out video.json
//! sketchql-cli train --out model.json [--steps 600]
//! sketchql-cli query --video video.json --model model.json --event left_turn [--baseline dtw] [--top-k 5] [--oracle-tracks] [--stats]
//! sketchql-cli ingest --video video.json --model model.json --dataset traffic --store-dir stores
//! sketchql-cli append --video grown.json --model model.json --dataset traffic --store-dir stores
//! sketchql-cli stats --video video.json --model model.json --event left_turn [--format json|prometheus]
//! sketchql-cli render --video video.json --start 100 --end 199
//! sketchql-cli info --video video.json
//! sketchql-cli serve --model model.json --videos traffic=video.json [--store-dir stores] [--addr 127.0.0.1:7878] [--workers 4]
//! sketchql-cli client --addr 127.0.0.1:7878 --action query --dataset traffic --event left_turn
//! sketchql-cli register --addr 127.0.0.1:7878 --dataset traffic --event left_turn
//! sketchql-cli watch --addr 127.0.0.1:7878 --registration-id 1
//! ```
//!
//! Videos and models are JSON artifacts so pipelines can be scripted and
//! inspected; embedding stores are `.skset/` shard-set directories (the
//! `sketchql-store` crate's format), written once by `ingest`, grown by
//! `append`, and served without re-embedding by `serve --store-dir` /
//! `query --store-dir`.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::telemetry::{self, QueryTrace, TraceContext};
use sketchql::training::{train_with_callback, training_threads, TrainedModel, TrainingConfig};
use sketchql::{
    append_frames, ingest_sharded, load_store_tier_dir, shard_set_dir_name, CancelToken,
    ClassicalSimilarity, IngestConfig, IngestProgress, Matcher, MatcherConfig, RetrievedMoment,
    ShardSet, VideoIndex,
};
use sketchql_datasets::{
    extend_video, generate_video, query_clip, EventKind, ExtendConfig, SceneFamily, SyntheticVideo,
    VideoConfig,
};
use sketchql_server::{
    Client, Engine, EngineConfig, LivePoller, MetricsListener, QueryOptions, Server,
};
use sketchql_tracker::{DetectorConfig, TrackerConfig};
use sketchql_trajectory::{render_storyboard, DistanceKind};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    let result = match COMMANDS.iter().find(|(name, ..)| name == cmd) {
        Some((_, run, known)) => check_flags(cmd, known, &flags).and_then(|()| run(&flags)),
        None if matches!(cmd.as_str(), "help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(())
        }
        None => Err(format!("unknown command {cmd:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type Command = (
    &'static str,
    fn(&HashMap<String, String>) -> Result<(), String>,
    &'static [&'static str],
);

/// Every subcommand: its name, its handler, and the flags the handler
/// reads. `main` rejects a flag outside its command's list, so a typo
/// or a removed flag fails loudly instead of running the defaults.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("generate", cmd_generate, &["out", "family", "seed", "events", "distractors", "extend"]),
    ("train", cmd_train, &["out", "steps", "seed"]),
    ("query", cmd_query, &[
        "video", "event", "model", "baseline", "rules", "top-k", "oracle-tracks", "stats",
        "store-dir", "nprobe",
    ]),
    ("stats", cmd_stats, &[
        "video", "event", "model", "baseline", "rules", "top-k", "oracle-tracks", "store-dir",
        "nprobe", "format",
    ]),
    ("ingest", cmd_ingest, &[
        "video", "model", "dataset", "store-dir", "events", "threads", "oracle-tracks", "verify",
        "shard-frames",
    ]),
    ("append", cmd_append, &[
        "video", "model", "dataset", "store-dir", "threads", "oracle-tracks", "verify",
    ]),
    ("render", cmd_render, &["video", "start", "end"]),
    ("info", cmd_info, &["video", "model"]),
    ("serve", cmd_serve, &[
        "model", "videos", "store-dir", "nprobe", "addr", "workers", "queue-depth", "deadline-ms",
        "top-k", "oracle-tracks", "metrics-addr", "slow-query-ms",
        "slow-query-log", "slow-query-log-max-bytes", "flight-traces", "registry", "live-poll-ms",
    ]),
    ("client", cmd_client, &[
        "addr", "action", "dataset", "event", "top-k", "deadline-ms", "trace-id", "limit",
        "interval-ms", "iterations",
    ]),
    ("register", cmd_register, &["addr", "dataset", "event", "min-score", "top-k"]),
    ("watch", cmd_watch, &["addr", "registration-id", "interval-ms", "iterations", "max"]),
];

/// Errors on the flags `cmd` does not read, naming each and the command.
fn check_flags(cmd: &str, known: &[&str], flags: &HashMap<String, String>) -> Result<(), String> {
    let mut unknown: Vec<&str> = flags
        .keys()
        .map(String::as_str)
        .filter(|name| !known.contains(name))
        .collect();
    if unknown.is_empty() {
        return Ok(());
    }
    unknown.sort_unstable();
    Err(format!(
        "`{cmd}` does not take --{} (see `sketchql-cli help`)",
        unknown.join(", --")
    ))
}

const USAGE: &str = "\
sketchql-cli — zero-shot video moment querying with sketches

commands:
  generate --out <file> [--family <name>] [--seed <n>] [--events <n>] [--distractors <n>]
           [--extend <base-video>] stream a continuation: the base's
           frames carry over verbatim, new events play out after them
  train    --out <file> [--steps <n>] [--seed <n>]
  query    --video <file> --event <kind> [--model <file>] [--baseline <dtw|frechet|...>]
           [--rules] [--top-k <n>] [--oracle-tracks] [--stats]
           [--store-dir <dir>] [--nprobe <n>]
  ingest   --video <file> --model <file> [--dataset <name>] [--store-dir <dir>]
           [--events <a,b,...>] [--threads <n>] [--oracle-tracks] [--verify]
           precompute window embeddings into <dir>/<dataset>.skset/
           (shards + manifest); serving opens each shard at attach and
           reads and verifies it at its first probe; --verify re-opens
           the written output and checks every checksum
           [--shard-frames <n>] frame-range width of each shard, embedded
           in parallel (default: the whole video in one shard)
  append   --video <file> --model <file> --dataset <name> [--store-dir <dir>]
           [--threads <n>] [--oracle-tracks] [--verify]
           commit a live ingest epoch: embed only the windows the new
           frames of <file> own and rewrite the tail shard(s) of
           <dir>/<dataset>.skset/ — the result is byte-identical to a
           from-scratch ingest of the grown video, published by one
           atomic manifest rename
  stats    same flags as query (bar --stats); runs it quietly and dumps
           the metric registry [--format <json|prometheus>]
  render   --video <file> [--start <frame>] [--end <frame>]
  info     --video <file> | --model <file>
  serve    --model <file> --videos <name=file,name=file,...>
           [--store-dir <dir>] [--nprobe <n>]
           [--addr 127.0.0.1:7878] [--workers <n>] [--queue-depth <n>]
           [--deadline-ms <n>] [--top-k <n>] [--oracle-tracks]
           [--metrics-addr <host:port>] prometheus scrape endpoint
           [--slow-query-ms <n>] [--slow-query-log <file>] JSON-lines slow log
           [--slow-query-log-max-bytes <n>] rotate the slow log at this size
           [--flight-traces <n>] flight-recorder capacity (default 256):
           also the queries a profile folds
           [--registry <file>] persist standing queries across restarts
           [--live-poll-ms <n>] poll stores for appended epochs
           and evaluate standing queries against each new epoch
  client   --addr <host:port>
           --action <ping|list|stats|query|trace|metrics|profile|top|shutdown>
           [--dataset <name>] [--event <kind>] [--top-k <n>] [--deadline-ms <n>]
           [--trace-id <hex>] [--limit <n>] for --action trace
           (profile folds the flight recorder's traces by self time)
           [--interval-ms <n>] [--iterations <n>] for --action top
  register --addr <host:port> --dataset <name> --event <kind>
           [--min-score <f>] [--top-k <n>]
           register a standing query; prints the registration id
  watch    --addr <host:port> --registration-id <n>
           [--interval-ms <n>] [--iterations <n>] [--max <n>]
           poll a standing query's notifications and print matches as
           ingest epochs land (0 iterations = until interrupted)

families: urban_intersection, parking_lot, plaza
events:   left_turn right_turn u_turn stop_and_go lane_change
          perpendicular_crossing overtake loiter";

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                i += 1;
                args[i].clone()
            } else {
                "true".to_string()
            };
            flags.insert(name.to_string(), value);
        }
        i += 1;
    }
    flags
}

fn req<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

/// An optional numeric flag: `None` when absent, an error naming the
/// flag when present but unparseable.
fn opt_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
) -> Result<Option<T>, String> {
    let parse = |v: &String| {
        v.parse()
            .map_err(|_| format!("--{name}: cannot parse {v:?}"))
    };
    flags.get(name).map(parse).transpose()
}

fn num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    Ok(opt_num(flags, name)?.unwrap_or(default))
}

fn parse_family(name: &str) -> Result<SceneFamily, String> {
    SceneFamily::ALL
        .iter()
        .copied()
        .find(|f| f.name() == name)
        .ok_or_else(|| format!("unknown family {name:?}"))
}

fn parse_event(name: &str) -> Result<EventKind, String> {
    EventKind::ALL
        .iter()
        .copied()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown event {name:?}"))
}

fn load_video(path: &str) -> Result<SyntheticVideo, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&data).map_err(|e| format!("{path}: {e}"))
}

fn build_index(video: &SyntheticVideo, oracle: bool) -> VideoIndex {
    if oracle {
        VideoIndex::from_truth(video)
    } else {
        VideoIndex::build(
            video,
            DetectorConfig::default(),
            TrackerConfig::default(),
            1,
        )
    }
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = req(flags, "out")?;
    let seed: u64 = num(flags, "seed", 1)?;
    let events = num(flags, "events", 2)?;
    let distractors = num(flags, "distractors", 10)?;
    let video = if let Some(base_path) = flags.get("extend") {
        // Streamed continuation: the base video's frames are carried
        // over verbatim (the contract `append` relies on), new events
        // and distractors play out after them.
        let base = load_video(base_path)?;
        let cfg = ExtendConfig {
            events_per_kind: events,
            distractors,
        };
        extend_video(&base, cfg, &mut StdRng::seed_from_u64(seed))
    } else {
        let family = parse_family(
            flags
                .get("family")
                .map_or("urban_intersection", String::as_str),
        )?;
        let cfg = VideoConfig {
            family,
            events_per_kind: events,
            distractors,
            fps: 30.0,
        };
        generate_video(cfg, seed, &mut StdRng::seed_from_u64(seed))
    };
    let json = serde_json::to_string(&video).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} frames, {} objects, {} annotated events",
        video.frames,
        video.truth.num_objects(),
        video.events.len()
    );
    Ok(())
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = req(flags, "out")?;
    let mut cfg = TrainingConfig::small();
    cfg.steps = num(flags, "steps", cfg.steps)?;
    cfg.seed = num(flags, "seed", cfg.seed)?;
    println!(
        "training encoder (d_model {}, {} layers) for {} steps...",
        cfg.encoder.d_model, cfg.encoder.layers, cfg.steps
    );
    let every = (cfg.steps / 10).max(1);
    let trace = TraceContext::new();
    let start = std::time::Instant::now();
    let model = {
        let _entered = trace.enter();
        train_with_callback(cfg, |step, loss| {
            if step % every == 0 {
                println!("  step {step:>5}  loss {loss:.3}");
            }
        })
    };
    let elapsed = start.elapsed().as_secs_f64();
    let trace = trace
        .finalize()
        .ok_or("the training trace was finalized twice")?;
    model.save(Path::new(out)).map_err(|e| e.to_string())?;
    println!("wrote {out} ({} parameters)", model.store.num_scalars());
    let steps = model.config.steps;
    println!(
        "trained {steps} steps in {elapsed:.1} s ({:.1} steps/s) on {} threads",
        steps as f64 / elapsed.max(1e-9),
        training_threads()
    );
    println!("{}", step_phases(&trace, steps));
    Ok(())
}

/// Where a training step's wall time went, from the run's trace: the mean
/// milliseconds per step in each `sketchql.training.step.*` span, and
/// what no phase covers.
fn step_phases(trace: &QueryTrace, steps: usize) -> String {
    use telemetry::names;
    let phases = [
        ("sampling", names::TRAINING_STEP_SAMPLE),
        ("forward", names::TRAINING_STEP_FORWARD),
        ("backward", names::TRAINING_STEP_BACKWARD),
        ("fold", names::TRAINING_STEP_FOLD),
        ("adam", names::TRAINING_STEP_ADAM),
    ];
    let per_step = |nanos: u64| nanos as f64 / 1e6 / steps.max(1) as f64;
    let mut covered = 0;
    let mut line = String::from("per step:");
    for (label, name) in phases {
        let nanos: u64 = trace
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos)
            .sum();
        covered += nanos;
        line += &format!(" {label} {:.2} ms,", per_step(nanos));
    }
    let run: u64 = trace
        .spans
        .iter()
        .filter(|s| s.name == names::TRAINING_RUN)
        .map(|s| s.nanos)
        .sum();
    line + &format!(" other {:.2} ms", per_step(run.saturating_sub(covered)))
}

/// The `query`/`stats` pipeline: load the video, build an index, and run
/// the selected matcher. The whole run happens inside one trace, so the
/// caller gets the query's [`QueryTrace`] alongside the results.
fn execute_query(
    flags: &HashMap<String, String>,
    quiet: bool,
) -> Result<
    (
        SyntheticVideo,
        EventKind,
        Vec<RetrievedMoment>,
        Arc<QueryTrace>,
    ),
    String,
> {
    let video = load_video(req(flags, "video")?)?;
    let kind = parse_event(req(flags, "event")?)?;
    let top_k: usize = num(flags, "top-k", 5)?;
    let query = query_clip(kind);

    let trace = TraceContext::new();
    trace.set_label(format!("{}/{}", video.name, kind.name()));
    let entered = trace.enter();
    let index = build_index(&video, flags.contains_key("oracle-tracks"));
    if !quiet {
        println!(
            "index: {} tracks over {} frames ({})",
            index.tracks.len(),
            index.frames,
            if flags.contains_key("oracle-tracks") {
                "oracle"
            } else {
                "detector+bytetrack"
            }
        );
    }

    let results = if flags.contains_key("rules") {
        sketchql::evaluate_rule(&index, &sketchql::expert_rule(kind), top_k)
    } else if let Some(baseline) = flags.get("baseline") {
        let kind = DistanceKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == baseline)
            .ok_or_else(|| format!("unknown baseline {baseline:?}"))?;
        let mut m = Matcher::new(ClassicalSimilarity::new(kind));
        m.config.top_k = top_k;
        m.search(&index, &query).map_err(|e| e.to_string())?
    } else {
        let model_path = req(flags, "model")?;
        let model = TrainedModel::load(Path::new(model_path)).map_err(|e| e.to_string())?;
        let mut m = Matcher::new(model.similarity());
        m.config.top_k = top_k;
        m.config.threads = 4;
        // Index-backed path: pick the attached shard set whose model and
        // video fingerprints match what we just built. Attach validates
        // headers/manifests only; payloads load on probe.
        let set = match flags.get("store-dir") {
            None => None,
            Some(dir) => {
                let sets =
                    load_store_tier_dir(Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
                let mut set = sets
                    .into_values()
                    .find(|s| s.matches_model(&m.sim) && s.matches_index(&index))
                    .ok_or_else(|| format!("{dir}: no store matches this video and model"))?;
                if let Some(np) = opt_num(flags, "nprobe")? {
                    set.nprobe = np;
                }
                Some(set)
            }
        };
        let search = m
            .search_stored(&index, set.as_ref(), &query, &CancelToken::none(), None)
            .map_err(|e| e.to_string())?;
        if let (Some(set), false) = (&set, quiet) {
            if search.from_store {
                println!(
                    "store: index-backed ({} of {} vectors probed, {} shard(s))",
                    search.probed,
                    set.total_rows(),
                    set.shard_count()
                );
            } else {
                println!("store: cannot serve this query; fell back to full scan");
            }
        }
        search.moments
    };
    drop(entered);
    let report = trace.finalize().expect("finalized once, here");

    Ok((video, kind, results, report))
}

fn cmd_query(flags: &HashMap<String, String>) -> Result<(), String> {
    let (video, kind, results, report) = execute_query(flags, false)?;

    let truth = video.events_of(kind);
    println!("\n#  frames            score   ground truth?");
    for (i, m) in results.iter().enumerate() {
        let hit = truth.iter().any(|t| t.temporal_iou(m.start, m.end) >= 0.3);
        println!(
            "{:<2} {:>6}..{:<7} {:.3}   {}",
            i + 1,
            m.start,
            m.end,
            m.score,
            if hit {
                format!("YES ({})", kind.name())
            } else {
                "-".into()
            }
        );
    }
    if flags.contains_key("stats") {
        println!();
        print!("{}", report.render_table());
    }
    Ok(())
}

/// What `ingest` and `append` both start from: the tracked video, the
/// model, and where the dataset's shard set lives.
struct StoreJob {
    model: TrainedModel,
    dataset: String,
    set_dir: std::path::PathBuf,
    index: VideoIndex,
    threads: usize,
}

fn store_job(flags: &HashMap<String, String>) -> Result<StoreJob, String> {
    let video = load_video(req(flags, "video")?)?;
    let model = TrainedModel::load(Path::new(req(flags, "model")?)).map_err(|e| e.to_string())?;
    let dataset = flags
        .get("dataset")
        .cloned()
        .unwrap_or_else(|| video.name.clone());
    let dir = Path::new(flags.get("store-dir").map_or("stores", String::as_str));
    let set_dir = dir.join(shard_set_dir_name(&dataset));
    let threads = num(flags, "threads", 4)?;
    let index = build_index(&video, flags.contains_key("oracle-tracks"));
    println!(
        "index: {} tracks over {} frames",
        index.tracks.len(),
        index.frames
    );
    Ok(StoreJob {
        model,
        dataset,
        set_dir,
        index,
        threads,
    })
}

fn print_progress(e: IngestProgress) {
    match e {
        IngestProgress::Enumerated { windows, shards } => {
            println!("progress: enumerated {windows} windows across {shards} shard(s)");
        }
        IngestProgress::ShardEmbedded {
            shard_id,
            done,
            total,
        } => {
            println!("progress: {done}/{total} windows embedded (shard {shard_id} done)");
        }
        IngestProgress::ShardWritten { shard_id, rows } => {
            println!("progress: shard {shard_id} written ({rows} rows)");
        }
    }
}

/// `--verify`: reopen the set from disk and check every shard.
fn verify_if_asked(flags: &HashMap<String, String>, set_dir: &Path) -> Result<(), String> {
    if flags.contains_key("verify") {
        let reopened = ShardSet::open(set_dir).map_err(|e| e.to_string())?;
        reopened.verify().map_err(|e| e.to_string())?;
        println!(
            "verify: manifest and {} shard checksum(s) ok",
            reopened.shard_count()
        );
    }
    Ok(())
}

/// Offline ingest: embed every sliding window of a video once and
/// persist the vectors (plus the window grid and fingerprints) as a
/// `.skset/` shard set that `serve --store-dir` and `query --store-dir`
/// can answer from without re-embedding, and `append` can grow.
fn cmd_ingest(flags: &HashMap<String, String>) -> Result<(), String> {
    let kinds: Vec<EventKind> = match flags.get("events") {
        // Default to the full canonical catalogue so the store serves
        // any event query at the default matcher window grid.
        None => EventKind::ALL.to_vec(),
        Some(list) => list.split(',').map(parse_event).collect::<Result<_, _>>()?,
    };
    let spans: Vec<u32> = kinds.iter().map(|&k| query_clip(k).span()).collect();
    let job = store_job(flags)?;
    let mut cfg = IngestConfig::from_matcher(&MatcherConfig::default(), &spans);
    cfg.threads = job.threads;
    let started = std::time::Instant::now();

    // One `.skshard` file per frame range plus a manifest. Without the
    // flag the whole video is one shard.
    let shard_frames: u32 = num(flags, "shard-frames", job.index.frames.max(1))?;
    if shard_frames == 0 {
        return Err("--shard-frames: must be at least 1".into());
    }
    let set = ingest_sharded(
        &job.model.similarity(),
        &job.index,
        &job.dataset,
        &cfg,
        shard_frames,
        &job.set_dir,
        &print_progress,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "embedded {} windows into {} shard(s) (window lengths {:?}, {} quantizer lists, \
         {} threads) in {:.1}s",
        set.total_rows(),
        set.shard_count(),
        cfg.window_lens,
        set.nlist(),
        cfg.threads.max(1),
        started.elapsed().as_secs_f64()
    );
    verify_if_asked(flags, &job.set_dir)?;
    println!(
        "wrote store for dataset {:?} into {}",
        job.dataset,
        job.set_dir.display()
    );
    Ok(())
}

/// Live ingest: commit the frames `--video` has grown by since the
/// last ingest/append of `<store-dir>/<dataset>.skset/` as one new
/// epoch. Only windows owned by the new frames are embedded; the
/// result is byte-identical to a from-scratch ingest of the
/// grown video (the append-equivalence gate in `crates/core/tests`).
fn cmd_append(flags: &HashMap<String, String>) -> Result<(), String> {
    let job = store_job(flags)?;
    if !job.set_dir.is_dir() {
        return Err(format!(
            "{}: no store for dataset {:?} (run ingest first)",
            job.set_dir.display(),
            job.dataset
        ));
    }
    let started = std::time::Instant::now();
    let out = append_frames(
        &job.model.similarity(),
        &job.index,
        &job.set_dir,
        job.threads,
        &print_progress,
    )
    .map_err(|e| e.to_string())?;
    if out.new_frames == out.old_frames {
        println!(
            "nothing to append: the store already covers {} frames (epoch {})",
            out.old_frames, out.epoch
        );
        return Ok(());
    }
    println!(
        "appended frames {}..{} as epoch {}: {} windows embedded, {} reused, \
         {} shard(s) rewritten in {:.1}s",
        out.old_frames,
        out.new_frames,
        out.epoch,
        out.embedded_rows,
        out.reused_rows,
        out.rewritten_shards,
        started.elapsed().as_secs_f64()
    );
    verify_if_asked(flags, &job.set_dir)
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let (_, _, _, report) = execute_query(flags, true)?;
    match flags.get("format").map_or("json", String::as_str) {
        "json" => {
            println!(
                "{{\"report\":{},\"registry\":{}}}",
                report.to_json(),
                telemetry::snapshot_json()
            );
        }
        "prometheus" => print!("{}", telemetry::snapshot_prometheus()),
        other => {
            return Err(format!(
                "--format: expected json or prometheus, got {other:?}"
            ))
        }
    }
    Ok(())
}

fn cmd_render(flags: &HashMap<String, String>) -> Result<(), String> {
    let video = load_video(req(flags, "video")?)?;
    let start: u32 = num(flags, "start", 0)?;
    let end: u32 = num(
        flags,
        "end",
        (start + 120).min(video.frames.saturating_sub(1)),
    )?;
    let clip = video.truth.window(start, end);
    // Drop empty trajectories for readability.
    let visible: Vec<_> = clip
        .objects
        .iter()
        .filter(|t| t.len() >= 2)
        .cloned()
        .collect();
    let clip = sketchql_trajectory::Clip::new(clip.frame_width, clip.frame_height, visible);
    println!("frames {start}..{end} of {}:", video.name);
    println!("{}", render_storyboard(&clip, 100, 30));
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(vp) = flags.get("video") {
        let video = load_video(vp)?;
        println!("video {}", video.name);
        println!("  family  {}", video.family.name());
        println!(
            "  frames  {} ({:.1}s @ {} fps)",
            video.frames,
            video.frames as f32 / video.fps,
            video.fps
        );
        println!("  objects {}", video.truth.num_objects());
        println!("  events:");
        for e in &video.events {
            println!(
                "    {:<24} {:>6}..{:<6} objects {:?}",
                e.kind.name(),
                e.start,
                e.end,
                e.object_ids
            );
        }
        return Ok(());
    }
    if let Some(mp) = flags.get("model") {
        let model = TrainedModel::load(Path::new(mp)).map_err(|e| e.to_string())?;
        println!("model {mp}");
        println!("  params      {}", model.store.num_scalars());
        println!("  d_model     {}", model.config.encoder.d_model);
        println!("  layers      {}", model.config.encoder.layers);
        println!("  steps       {}", model.config.steps);
        println!(
            "  final loss  {:.3}",
            model.loss_history.last().copied().unwrap_or(f32::NAN)
        );
        return Ok(());
    }
    Err("info needs --video or --model".into())
}

/// Starts the query service and blocks until a wire `Shutdown` request
/// arrives, then drains every admitted query before exiting.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    // The flight recorder freezes its capacity on first use, so the
    // flag must be applied before anything records a trace.
    if let Some(n) = opt_num::<usize>(flags, "flight-traces")? {
        if telemetry::configure_flight_capacity(n) {
            println!("flight recorder: keeping the last {n} traces");
        } else {
            eprintln!("warning: flight recorder already in use; --flight-traces ignored");
        }
    }
    let model = TrainedModel::load(Path::new(req(flags, "model")?)).map_err(|e| e.to_string())?;
    let oracle = flags.contains_key("oracle-tracks");
    let mut datasets = std::collections::BTreeMap::new();
    let mut video_paths = std::collections::BTreeMap::new();
    for spec in req(flags, "videos")?.split(',') {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("--videos: expected name=file, got {spec:?}"))?;
        let video = load_video(path)?;
        let index = build_index(&video, oracle);
        println!(
            "loaded {name}: {} tracks over {} frames",
            index.tracks.len(),
            index.frames
        );
        if datasets.insert(name.to_string(), index).is_some() {
            return Err(format!("--videos: duplicate dataset name {name:?}"));
        }
        video_paths.insert(name.to_string(), path.to_string());
    }
    if datasets.is_empty() {
        return Err("--videos: no datasets given".into());
    }

    let mut matcher = sketchql::MatcherConfig::default();
    matcher.top_k = num(flags, "top-k", matcher.top_k)?;
    let config = EngineConfig {
        workers: num(flags, "workers", 4)?,
        queue_depth: num(flags, "queue-depth", 64)?,
        default_deadline: opt_num(flags, "deadline-ms")?.map(Duration::from_millis),
        matcher,
        registry_path: flags.get("registry").map(std::path::PathBuf::from),
    };
    if let Some(path) = &config.registry_path {
        println!("standing-query registry: {}", path.display());
    }
    // Attach ingested embedding stores (`.skset/` directories). Attach
    // opens every shard and validates manifests and shard headers only —
    // payloads and their checksums are deferred to first probe, so
    // startup cost does not scale with store size.
    // Engine::start_with_stores validates fingerprints and silently
    // drops mismatches, so a stale store degrades that dataset to the
    // scan path instead of failing.
    let attach_started = std::time::Instant::now();
    let nprobe: Option<usize> = opt_num(flags, "nprobe")?;
    let mut stores = match flags.get("store-dir") {
        Some(dir) => load_store_tier_dir(Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?,
        None => std::collections::BTreeMap::new(),
    };
    if let Some(np) = nprobe {
        stores.values_mut().for_each(|set| set.nprobe = np);
    }
    if !stores.is_empty() {
        let shards: usize = stores.values().map(|s| s.shard_count()).sum();
        println!(
            "store: attached {} store(s) ({} shard(s)) in {:.1} ms; payloads load lazily",
            stores.len(),
            shards,
            attach_started.elapsed().as_secs_f64() * 1e3
        );
    }
    let loaded: Vec<String> = stores.keys().cloned().collect();

    // Stores can grow behind the server's back (the `append`
    // command commits new epochs in place); with --live-poll-ms the
    // server watches each set's manifest and turns every new epoch
    // into a live reload + standing-query evaluation.
    let live_poll: u64 = num(flags, "live-poll-ms", 0)?;
    let live_sources: Vec<(String, std::path::PathBuf, u64)> = match flags.get("store-dir") {
        Some(dir) if live_poll > 0 => stores
            .iter()
            .filter(|(name, _)| video_paths.contains_key(*name))
            .map(|(name, set)| {
                let set_dir = Path::new(dir).join(shard_set_dir_name(name));
                (name.clone(), set_dir, set.manifest().epoch)
            })
            .collect(),
        _ => Vec::new(),
    };

    // Observability side channels: a JSON-lines slow-query log (also
    // records shed/cancelled/timed-out queries regardless of duration)
    // and a plaintext Prometheus scrape endpoint.
    if flags.contains_key("slow-query-ms") || flags.contains_key("slow-query-log") {
        let threshold = Duration::from_millis(num(flags, "slow-query-ms", 0)?);
        let path = flags
            .get("slow-query-log")
            .map_or("sketchql-slow.jsonl", String::as_str);
        let max_bytes = opt_num::<u64>(flags, "slow-query-log-max-bytes")?;
        telemetry::configure_slow_query_log_path_capped(Path::new(path), threshold, max_bytes)
            .map_err(|e| format!("--slow-query-log {path}: {e}"))?;
        match max_bytes {
            Some(cap) => println!(
                "slow-query log: {} (threshold {} ms, rotating at {} bytes)",
                path,
                threshold.as_millis(),
                cap
            ),
            None => println!(
                "slow-query log: {} (threshold {} ms)",
                path,
                threshold.as_millis()
            ),
        }
    }
    let metrics = flags
        .get("metrics-addr")
        .map(|addr| MetricsListener::start(addr).map_err(|e| format!("bind metrics {addr}: {e}")))
        .transpose()?;
    if let Some(listener) = &metrics {
        println!("metrics scrape endpoint on {}", listener.local_addr());
    }

    let addr = flags.get("addr").map_or("127.0.0.1:7878", String::as_str);
    let engine = Engine::start_with_stores(model, datasets, stores, config);
    let stored = engine.stored_datasets();
    for name in &loaded {
        if stored.contains(name) {
            println!("store: dataset {name:?} is index-backed");
        } else {
            println!("store: dataset {name:?} store mismatched or unknown; using scan path");
        }
    }
    let server = Server::start(engine, addr).map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "serving on {} ({} workers, queue depth {})",
        server.local_addr(),
        server.engine().config().workers,
        server.engine().config().queue_depth
    );
    let poller = if live_sources.is_empty() {
        None
    } else {
        println!(
            "live ingest poller: checking {} store(s) every {} ms",
            live_sources.len(),
            live_poll
        );
        let rebuild_index = move |name: &str| {
            let path = &video_paths[name];
            let video = load_video(path).map_err(|_| format!("{path} is unreadable"))?;
            Ok(build_index(&video, oracle))
        };
        let poller = LivePoller::spawn(
            server.engine_handle(),
            live_sources,
            Duration::from_millis(live_poll),
            rebuild_index,
            nprobe,
        )
        .map_err(|e| format!("spawn live poller: {e}"))?;
        Some(poller)
    };

    server.wait_for_shutdown_request();
    println!("shutdown requested; draining...");
    if let Some(poller) = poller {
        poller.stop();
    }
    server.shutdown();
    if let Some(listener) = metrics {
        listener.shutdown();
    }
    telemetry::disable_slow_query_log();
    println!("server stopped");
    Ok(())
}

/// One wire request against a running server.
fn cmd_client(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = req(flags, "addr")?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    match req(flags, "action")? {
        "ping" => {
            let version = client.ping().map_err(|e| e.to_string())?;
            println!("pong (protocol v{version})");
        }
        "list" => {
            for d in client.list_datasets().map_err(|e| e.to_string())? {
                println!(
                    "{:<24} {:>7} frames {:>5} tracks  {}",
                    d.name,
                    d.frames,
                    d.tracks,
                    if d.stored { "store" } else { "scan" }
                );
            }
        }
        "stats" => {
            let s = client.stats().map_err(|e| e.to_string())?;
            println!("workers            {}", s.workers);
            println!("queued             {}", s.queued);
            println!("in flight          {}", s.in_flight);
            println!("accepted           {}", s.accepted);
            println!("completed          {}", s.completed);
            println!("rejected overload  {}", s.rejected_overload);
            println!("timed out          {}", s.timed_out);
            println!("failed             {}", s.failed);
            println!("store hits         {}", s.store_hits);
            println!("store fallbacks    {}", s.store_fallbacks);
            println!("store rows probed  {}", s.store_probed);
        }
        "query" => {
            let dataset = req(flags, "dataset")?;
            let event = req(flags, "event")?;
            let top_k = opt_num::<usize>(flags, "top-k")?;
            let deadline = opt_num(flags, "deadline-ms")?.map(Duration::from_millis);
            let opts = QueryOptions {
                top_k,
                deadline,
                trace_id: None,
            };
            let outcome = client
                .query_event_with(dataset, event, &opts)
                .map_err(|e| e.to_string())?;
            println!(
                "{} moments (waited {} ms, ran {} ms, trace {})",
                outcome.moments.len(),
                outcome.queue_wait_ms,
                outcome.execute_ms,
                telemetry::format_trace_id(outcome.trace_id)
            );
            println!("#  frames            score");
            for (i, m) in outcome.moments.iter().enumerate() {
                println!("{:<2} {:>6}..{:<7} {:.3}", i + 1, m.start, m.end, m.score);
            }
        }
        "trace" => {
            let trace_id = flags
                .get("trace-id")
                .map(|v| {
                    telemetry::parse_trace_id(v)
                        .ok_or_else(|| format!("--trace-id: cannot parse {v:?} as a hex id"))
                })
                .transpose()?;
            let limit = opt_num::<usize>(flags, "limit")?;
            let traces = client.trace(trace_id, limit).map_err(|e| e.to_string())?;
            if traces.is_empty() {
                println!("no matching traces in the flight recorder");
            }
            for trace in &traces {
                print_waterfall(trace);
            }
        }
        "metrics" => {
            print!("{}", client.metrics_text().map_err(|e| e.to_string())?);
        }
        "profile" => {
            let profile = client.profile().map_err(|e| e.to_string())?;
            // Summary on stderr so stdout pipes clean into
            // `flamegraph.pl` / `inferno-flamegraph`.
            eprintln!(
                "{} traces, {:.1} s of query wall time, weighted by self time",
                profile.samples,
                profile.duration_ms as f64 / 1e3
            );
            if profile.samples == 0 {
                eprintln!("hint: the flight recorder holds no trace yet; run a query first");
            }
            print!("{}", profile.folded);
        }
        "top" => {
            let interval = Duration::from_millis(num(flags, "interval-ms", 2000)?);
            let iterations: u64 = num(flags, "iterations", 0)?;
            run_top(&mut client, interval, iterations)?;
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("server acknowledged shutdown");
        }
        other => {
            return Err(format!(
                "--action: expected ping|list|stats|query|trace|metrics|profile|top|shutdown, \
                 got {other:?}"
            ))
        }
    }
    Ok(())
}

/// Registers a standing query over the wire and prints the handle to
/// poll it with.
fn cmd_register(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = req(flags, "addr")?;
    let dataset = req(flags, "dataset")?;
    let event = req(flags, "event")?;
    parse_event(event)?; // fail locally with the catalogue message
    let min_score = opt_num::<f32>(flags, "min-score")?;
    let top_k = opt_num::<usize>(flags, "top-k")?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let reg = client
        .register_event(dataset, event, min_score, top_k)
        .map_err(|e| e.to_string())?;
    println!(
        "registered standing query {} on {dataset:?} ({event}); \
         watching appends past frame {}",
        reg.registration_id, reg.watermark
    );
    println!(
        "poll it with: sketchql-cli watch --addr {addr} --registration-id {}",
        reg.registration_id
    );
    Ok(())
}

/// Polls a standing query's notification queue, printing matches as
/// ingest epochs land.
fn cmd_watch(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = req(flags, "addr")?;
    let id: u64 = req(flags, "registration-id")?
        .parse()
        .map_err(|_| "--registration-id: cannot parse".to_string())?;
    let interval = Duration::from_millis(num(flags, "interval-ms", 1000)?);
    let iterations: u64 = num(flags, "iterations", 0)?;
    let max = opt_num::<usize>(flags, "max")?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut round = 0u64;
    let mut last_watermark: Option<u32> = None;
    let mut dropped = 0u64;
    loop {
        let feed = client.notifications(id, max).map_err(|e| e.to_string())?;
        if feed.matches.is_empty() {
            // Heartbeat only when the evaluated range moved.
            if last_watermark.is_some_and(|w| w != feed.watermark) {
                println!(
                    "epoch {:>4}  evaluated through frame {} (no new matches)",
                    feed.epoch, feed.watermark
                );
            }
        }
        for m in &feed.matches {
            println!(
                "epoch {:>4}  frames {:>6}..{:<7} score {:.3}  tracks {:?}",
                m.epoch, m.start, m.end, m.score, m.track_ids
            );
        }
        if feed.dropped > dropped {
            eprintln!(
                "warning: {} match(es) shed to queue overflow since registration",
                feed.dropped
            );
            dropped = feed.dropped;
        }
        last_watermark = Some(feed.watermark);
        round += 1;
        if iterations > 0 && round >= iterations {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// Renders one flight-recorder trace as an indented stage waterfall:
/// spans in start order, indented by nesting depth, with each span's
/// offset into the query and its duration. A resource line (attributed
/// CPU and heap traffic) follows the header when the server recorded
/// any, and the counters the query moved — store hit or fallback
/// reason, rows probed, windows, embeddings — follow the spans.
fn print_waterfall(trace: &sketchql_server::WireTrace) {
    println!(
        "trace {}  [{}]  outcome {}  total {:.3} ms",
        telemetry::format_trace_id(trace.trace_id),
        trace.label,
        trace.outcome,
        trace.total_nanos as f64 / 1e6
    );
    if trace.cpu_nanos > 0 || trace.alloc_count > 0 {
        println!(
            "  cpu {:.3} ms  allocated {} in {} allocations",
            trace.cpu_nanos as f64 / 1e6,
            fmt_bytes(trace.alloc_bytes),
            trace.alloc_count
        );
    }
    for span in &trace.spans {
        println!(
            "  {:>10.3} ms  +{:>10.3} ms  {}{}",
            span.start_nanos as f64 / 1e6,
            span.nanos as f64 / 1e6,
            "  ".repeat(span.depth),
            span.name
        );
    }
    if !trace.counts.is_empty() {
        println!("  counts:");
        for (name, n) in &trace.counts {
            println!("    {name} {n}");
        }
        let count = |name: &str| trace.counts.get(name).copied().unwrap_or(0);
        let hits = count(telemetry::names::EMBED_CACHE_HITS);
        let lookups = hits + count(telemetry::names::EMBED_CACHE_MISSES);
        if lookups > 0 {
            let rate = 100.0 * hits as f64 / lookups as f64;
            println!("  embed cache hit rate: {rate:.1}%");
        }
    }
}

/// Human-readable byte count (KiB/MiB/GiB with one decimal).
fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [(&str, f64); 3] = [
        ("GiB", (1u64 << 30) as f64),
        ("MiB", (1u64 << 20) as f64),
        ("KiB", (1u64 << 10) as f64),
    ];
    for (unit, div) in UNITS {
        if bytes as f64 >= div {
            return format!("{:.1} {unit}", bytes as f64 / div);
        }
    }
    format!("{bytes} B")
}

/// One snapshot the `top` loop diffs against: monotone totals from
/// `Stats` plus the cumulative execute-latency buckets from `Metrics`.
struct TopSample {
    stats: sketchql_server::EngineStats,
    execute_buckets: Vec<(f64, u64)>,
    at: std::time::Instant,
}

fn top_sample(client: &mut Client) -> Result<TopSample, String> {
    let stats = client.stats().map_err(|e| e.to_string())?;
    let prometheus = client.metrics_text().map_err(|e| e.to_string())?;
    Ok(TopSample {
        stats,
        execute_buckets: parse_execute_buckets(&prometheus),
        at: std::time::Instant::now(),
    })
}

/// Pulls the cumulative `le` buckets of the execute-latency histogram
/// out of a Prometheus text exposition.
fn parse_execute_buckets(prometheus: &str) -> Vec<(f64, u64)> {
    let mut out = Vec::new();
    for line in prometheus.lines() {
        let Some(rest) = line.strip_prefix("sketchql_server_execute_ms_bucket{le=\"") else {
            continue;
        };
        let Some((le, count)) = rest.split_once("\"} ") else {
            continue;
        };
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            match le.parse() {
                Ok(b) => b,
                Err(_) => continue,
            }
        };
        if let Ok(count) = count.trim().parse::<u64>() {
            out.push((bound, count));
        }
    }
    out
}

/// Diffs two cumulative histogram scrapes into the window's own
/// cumulative buckets (a diff of cumulative counts is itself
/// cumulative). `None` when the window saw zero traffic — including a
/// counter reset after a server restart — so callers never feed an
/// all-zero histogram into percentile interpolation.
fn bucket_window_delta(prev: &[(f64, u64)], cur: &[(f64, u64)]) -> Option<Vec<(f64, u64)>> {
    let window: Vec<(f64, u64)> = cur
        .iter()
        .map(|&(bound, count)| {
            let before = prev
                .iter()
                .find(|(b, _)| *b == bound)
                .map_or(0, |(_, c)| *c);
            (bound, count.saturating_sub(before))
        })
        .collect();
    match window.last() {
        Some(&(_, total)) if total > 0 => Some(window),
        _ => None,
    }
}

/// Estimates the `q`-quantile (0..1) from cumulative histogram buckets
/// by linear interpolation inside the bucket the target rank lands in.
/// `None` when the buckets are empty. The open `+Inf` bucket reports
/// its lower bound (the true value is unbounded).
fn percentile_from_buckets(buckets: &[(f64, u64)], q: f64) -> Option<f64> {
    let total = buckets.last()?.1;
    if total == 0 {
        return None;
    }
    let target = (total as f64 * q).max(1.0);
    let mut prev_bound = 0.0;
    let mut prev_count = 0u64;
    for &(bound, count) in buckets {
        if count as f64 >= target {
            if bound.is_infinite() {
                return Some(prev_bound);
            }
            let in_bucket = (count - prev_count) as f64;
            let frac = if in_bucket > 0.0 {
                (target - prev_count as f64) / in_bucket
            } else {
                1.0
            };
            return Some(prev_bound + frac * (bound - prev_bound));
        }
        prev_bound = bound;
        prev_count = count;
    }
    None
}

/// The live top view: polls `Stats`, `Metrics`, and recent traces every
/// `interval`, rendering throughput (from counter deltas), queue state,
/// execute-latency percentiles (from histogram bucket deltas), the
/// per-dataset traffic breakdown, and the most CPU-hungry recent
/// traces. Refreshes in place on a terminal; appends blocks when piped.
/// `iterations == 0` runs until interrupted.
fn run_top(client: &mut Client, interval: Duration, iterations: u64) -> Result<(), String> {
    use std::io::IsTerminal;
    let live_terminal = std::io::stdout().is_terminal();
    let mut prev = top_sample(client)?;
    let mut round = 0u64;
    loop {
        std::thread::sleep(interval);
        let cur = top_sample(client)?;
        let traces = client.trace(None, Some(16)).map_err(|e| e.to_string())?;
        if live_terminal {
            // Clear and home so the view refreshes in place.
            print!("\x1b[2J\x1b[H");
        }
        render_top(&prev, &cur, &traces);
        prev = cur;
        round += 1;
        if iterations > 0 && round >= iterations {
            return Ok(());
        }
    }
}

fn render_top(prev: &TopSample, cur: &TopSample, traces: &[sketchql_server::WireTrace]) {
    let secs = cur.at.duration_since(prev.at).as_secs_f64().max(1e-9);
    let rate = |now: u64, before: u64| now.saturating_sub(before) as f64 / secs;
    let s = &cur.stats;
    let p = &prev.stats;
    let shed = s.rejected_overload + s.timed_out + s.failed;
    let shed_prev = p.rejected_overload + p.timed_out + p.failed;
    println!("sketchql top — {:.1}s window, {} workers", secs, s.workers);
    println!(
        "queries   {:>7.1}/s completed   {:>6.1}/s shed+failed   totals: {} ok / {} rejected / {} timed out / {} failed",
        rate(s.completed, p.completed),
        rate(shed, shed_prev),
        s.completed,
        s.rejected_overload,
        s.timed_out,
        s.failed
    );
    println!(
        "queue     {} waiting, {} in flight   store: {} hits / {} fallbacks / {} rows probed",
        s.queued, s.in_flight, s.store_hits, s.store_fallbacks, s.store_probed
    );

    // Latency percentiles over just this window. An idle scrape
    // interval produces no window at all rather than NaN percentiles.
    let percentiles =
        bucket_window_delta(&prev.execute_buckets, &cur.execute_buckets).and_then(|window| {
            Some((
                percentile_from_buckets(&window, 0.50)?,
                percentile_from_buckets(&window, 0.99)?,
            ))
        });
    match percentiles {
        Some((p50, p99)) => {
            println!("execute   p50 {p50:.1} ms   p99 {p99:.1} ms (this window)")
        }
        None => println!("execute   no queries finished in this window"),
    }

    if !s.datasets.is_empty() {
        println!();
        // `memo` is what the dataset's index remembers of its scans'
        // segment embeddings; a scan that finds them there pays no
        // encoder pass, and one that follows a reset runs cold.
        println!(
            "{:<20} {:>9} {:>10} {:>8} {:>10} {:>6} {:>10} {:>9} {:>6}",
            "dataset",
            "qps",
            "completed",
            "failed",
            "timed_out",
            "shed",
            "memo",
            "segments",
            "resets"
        );
        for d in &s.datasets {
            let before = p.datasets.iter().find(|b| b.name == d.name);
            let qps = rate(d.completed, before.map_or(0, |b| b.completed));
            println!(
                "{:<20} {:>8.1}/s {:>10} {:>8} {:>10} {:>6} {:>10} {:>9} {:>6}",
                d.name,
                qps,
                d.completed,
                d.failed,
                d.timed_out,
                d.shed,
                fmt_bytes(d.memo_bytes),
                d.memo_segments,
                d.memo_resets
            );
        }
    }

    let mut by_cpu: Vec<&sketchql_server::WireTrace> = traces.iter().collect();
    by_cpu.sort_by_key(|t| std::cmp::Reverse(t.cpu_nanos));
    let heavy: Vec<_> = by_cpu
        .into_iter()
        .filter(|t| t.cpu_nanos > 0)
        .take(5)
        .collect();
    if !heavy.is_empty() {
        println!();
        println!("recent traces by attributed cpu:");
        for t in heavy {
            println!(
                "  {}  {:<20} {:<18} cpu {:>9.3} ms  alloc {:>10}  wall {:>9.3} ms",
                telemetry::format_trace_id(t.trace_id),
                t.label,
                t.outcome,
                t.cpu_nanos as f64 / 1e6,
                fmt_bytes(t.alloc_bytes),
                t.total_nanos as f64 / 1e6
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{
        bucket_window_delta, check_flags, parse_execute_buckets, parse_flags,
        percentile_from_buckets, COMMANDS, USAGE,
    };
    use std::collections::{BTreeMap, BTreeSet};

    /// What `main` does with `cmd`'s arguments before dispatching.
    fn checked(cmd: &str, args: &[&str]) -> Result<(), String> {
        let (_, _, known) = COMMANDS.iter().find(|(name, ..)| *name == cmd).unwrap();
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        check_flags(cmd, known, &parse_flags(&args))
    }

    #[test]
    fn a_mistyped_flag_is_rejected_by_name() {
        let err = checked("query", &["--video", "v.json", "--nprob", "2"]).unwrap_err();
        assert!(err.contains("--nprob") && err.contains("`query`"), "{err}");
        checked("query", &["--video", "v.json", "--nprobe", "2", "--stats"]).unwrap();
        // A flag another command reads is still unknown to this one.
        let err = checked("append", &["--shard-frames", "64", "--bogus"]).unwrap_err();
        assert!(err.contains("--bogus, --shard-frames"), "{err}");
    }

    #[test]
    fn removed_flags_are_rejected() {
        let err = checked("serve", &["--model", "m.json", "--sched", "fifo"]).unwrap_err();
        assert!(err.contains("--sched") && err.contains("`serve`"), "{err}");
        let err = checked("client", &["--action", "profile", "--seconds", "5"]).unwrap_err();
        assert!(
            err.contains("--seconds") && err.contains("`client`"),
            "{err}"
        );
        let err = checked("query", &["--event", "left_turn", "--no-embed-cache"]).unwrap_err();
        assert!(
            err.contains("--no-embed-cache") && err.contains("`query`"),
            "{err}"
        );
    }

    /// USAGE documents exactly the flags the table accepts: a flag can
    /// be neither advertised but rejected nor accepted but hidden.
    #[test]
    fn usage_documents_exactly_the_accepted_flags() {
        let commands = USAGE.split_once("commands:\n").unwrap().1;
        let commands = commands.split_once("\n\nfamilies:").unwrap().0;
        // A command's paragraph starts at a two-space indent and
        // continues on deeper-indented lines.
        let mut documented: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut current = "";
        for line in commands.lines() {
            if let Some(head) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
                current = head.split_whitespace().next().unwrap();
            }
            let flags = documented.entry(current).or_default();
            for (at, _) in line.match_indices("--") {
                let name = &line[at + 2..];
                let end = name
                    .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .unwrap_or(name.len());
                flags.insert(&name[..end]);
            }
        }
        // `stats` is documented as "query's flags bar --stats".
        let mut stats = documented["query"].clone();
        stats.remove("stats");
        stats.insert("format");
        documented.insert("stats", stats);

        assert_eq!(documented.len(), COMMANDS.len());
        for (cmd, _, known) in COMMANDS {
            let known: BTreeSet<&str> = known.iter().copied().collect();
            assert_eq!(documented[cmd], known, "`{cmd}`");
        }
    }

    #[test]
    fn zero_traffic_window_yields_no_percentiles() {
        let prev = vec![(1.0, 40), (10.0, 90), (f64::INFINITY, 100)];
        let cur = prev.clone(); // nothing finished between scrapes
        assert!(bucket_window_delta(&prev, &cur).is_none());
        assert_eq!(percentile_from_buckets(&[], 0.5), None);
        assert_eq!(
            percentile_from_buckets(&[(1.0, 0), (f64::INFINITY, 0)], 0.5),
            None
        );
    }

    #[test]
    fn counter_reset_between_scrapes_reads_as_idle_not_underflow() {
        // The server restarted mid-watch: cumulative counts went down.
        let prev = vec![(1.0, 50), (f64::INFINITY, 80)];
        let cur = vec![(1.0, 3), (f64::INFINITY, 4)];
        assert!(bucket_window_delta(&prev, &cur).is_none());
    }

    #[test]
    fn window_percentiles_interpolate_and_stay_finite() {
        let prev = vec![(1.0, 5), (10.0, 5), (f64::INFINITY, 5)];
        let cur = vec![(1.0, 15), (10.0, 105), (f64::INFINITY, 105)];
        let window = bucket_window_delta(&prev, &cur).expect("traffic in window");
        assert_eq!(window, vec![(1.0, 10), (10.0, 100), (f64::INFINITY, 100)]);

        // Rank 50 of 100 lands in the 1..10 bucket holding 90 samples:
        // 1 + (50 - 10) / 90 * 9.
        let p50 = percentile_from_buckets(&window, 0.50).expect("p50");
        assert!(p50.is_finite(), "p50 = {p50}");
        assert!(
            (p50 - (1.0 + 40.0 / 90.0 * 9.0)).abs() < 1e-9,
            "p50 = {p50}"
        );

        // The open +Inf bucket never reports an unbounded value.
        let p99 = percentile_from_buckets(&window, 0.99).expect("p99");
        assert!(p99.is_finite() && p99 <= 10.0, "p99 = {p99}");

        // A store-served window: 100 queries at ~0.3 ms resolve inside
        // the sub-millisecond buckets instead of smearing over 0..1.
        let served = vec![
            (0.05, 0),
            (0.1, 0),
            (0.25, 10),
            (0.5, 98),
            (1.0, 100),
            (f64::INFINITY, 100),
        ];
        let p50 = percentile_from_buckets(&served, 0.50).expect("p50");
        assert!(
            (p50 - (0.25 + 40.0 / 88.0 * 0.25)).abs() < 1e-9,
            "p50 = {p50}"
        );
        let p99 = percentile_from_buckets(&served, 0.99).expect("p99");
        assert!((p99 - 0.75).abs() < 1e-9, "p99 = {p99}");
    }

    #[test]
    fn prometheus_buckets_parse_in_order() {
        let text = "\
# HELP sketchql_server_execute_ms execute latency
# TYPE sketchql_server_execute_ms histogram
sketchql_server_execute_ms_bucket{le=\"1\"} 2
sketchql_server_execute_ms_bucket{le=\"10\"} 7
sketchql_server_execute_ms_bucket{le=\"+Inf\"} 9
sketchql_server_execute_ms_sum 44.5
sketchql_server_execute_ms_count 9
";
        assert_eq!(
            parse_execute_buckets(text),
            vec![(1.0, 2), (10.0, 7), (f64::INFINITY, 9)]
        );
    }
}
