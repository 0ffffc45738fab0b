//! What a run sets up before its first timed operation: model, tracked
//! videos, stores on disk, the server and its connections.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sketchql::{
    ingest_sharded, load_store_tier_dir, shard_set_dir_name, IngestConfig, LearnedSimilarity,
    MatcherConfig, ShardSet, TrainedModel, VideoIndex,
};
use sketchql_datasets::SyntheticVideo;
use sketchql_server::{Client, Engine, EngineConfig, Server};

use crate::gen::{self, STORE_DATASET, STORE_KINDS};
use crate::measure::{at_reference_speed, median, Yardstick};
use crate::trace::Recorder;
use crate::workloads::Pair;

/// Frames per shard: the ~1.9k-frame stored video splits into four.
pub const SHARD_FRAMES: u32 = 512;

/// Seconds of set-up a run times before it takes the median (see
/// [`set_up`]).
const SETUP_SAMPLE_S: f64 = 3.0;

/// One run's settings and its recorder.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// The `--quick` smoke: one round of everything, thinned probes.
    pub quick: bool,
    /// Set-ups per run, at least (see [`set_up`]); `setup_s` is their
    /// median.
    pub setups: usize,
    pub nproc: usize,
    /// Scratch space of this run, removed when it succeeds.
    pub workdir: PathBuf,
    pub rec: Arc<Recorder>,
    /// Machine speed, sampled throughout the run.
    pub yardstick: Arc<Yardstick>,
}

impl Ctx {
    /// A fresh, empty directory under the run's scratch space.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.workdir.join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }
}

/// Sets up `ctx.setups` times — and, where a set-up takes well under a
/// second, up to three times as often, until [`SETUP_SAMPLE_S`] seconds
/// of set-up have been timed: the median of three half-second set-ups
/// moved by a third from run to run. Keeps the last fixture and returns
/// it with the median set-up time in seconds, as taken and at reference
/// speed. The fixtures not kept are handed to `tear_down`, outside the
/// timed part.
pub fn set_up<T>(
    ctx: &Ctx,
    mut build: impl FnMut() -> T,
    mut tear_down: impl FnMut(T),
) -> (T, Pair) {
    let (mut raw, mut fair): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut last = None;
    // A smoke and the ledger's replays set up once and leave it at that.
    let (at_least, at_most) = match ctx.setups {
        0 | 1 => (1, 1),
        n => (n, 3 * n),
    };
    while raw.len() < at_least
        || (raw.len() < at_most && raw.iter().sum::<f64>() < SETUP_SAMPLE_S)
    {
        if let Some(previous) = last.take() {
            tear_down(previous);
        }
        let (started, cpu_before) = (Instant::now(), ctx.yardstick.process_cpu_ms());
        last = Some(build());
        let (wall_ms, cpu_ms) = (
            started.elapsed().as_secs_f64() * 1e3,
            ctx.yardstick.process_cpu_ms() - cpu_before,
        );
        let slowdown = ctx.yardstick.slowdown(started, Instant::now());
        raw.push(wall_ms / 1e3);
        fair.push(at_reference_speed(wall_ms, cpu_ms, slowdown) / 1e3);
    }
    (
        last.expect("at least one set-up"),
        [median(&raw), median(&fair)],
    )
}

/// The matcher every path uses: the repository's defaults (one thread).
pub fn matcher_config() -> MatcherConfig {
    MatcherConfig::default()
}

/// The engine every run serves from: one worker per core, otherwise the
/// defaults `sketchql-cli serve` starts with.
pub fn engine_config(nproc: usize) -> EngineConfig {
    EngineConfig {
        workers: nproc,
        matcher: matcher_config(),
        ..EngineConfig::default()
    }
}

/// The store's window grid: every window length the matcher would ask
/// for, for the spans of the four single-object sketches.
pub fn ingest_config(threads: usize) -> IngestConfig {
    let spans: Vec<u32> = STORE_KINDS
        .iter()
        .map(|&k| gen::sketch(k, None).span())
        .collect();
    let mut cfg = IngestConfig::from_matcher(&matcher_config(), &spans);
    cfg.threads = threads;
    cfg
}

/// Where `STORE_DATASET`'s shard set lives inside a store directory.
pub fn shard_dir(store_dir: &Path) -> PathBuf {
    store_dir.join(shard_set_dir_name(STORE_DATASET))
}

/// Ingests `index` into `store_dir` with `threads` embedding workers.
pub fn ingest(
    sim: &LearnedSimilarity,
    index: &VideoIndex,
    store_dir: &Path,
    threads: usize,
) -> ShardSet {
    ingest_sharded(
        sim,
        index,
        STORE_DATASET,
        &ingest_config(threads),
        SHARD_FRAMES,
        &shard_dir(store_dir),
        &|_| {},
    )
    .expect("sharded ingest of a generated video")
}

/// Starts the server the way `sketchql-cli serve` does: one engine
/// worker per core, stores attached lazily from `store_dir`.
fn serve(
    model: TrainedModel,
    datasets: BTreeMap<String, VideoIndex>,
    store_dir: Option<&Path>,
    nproc: usize,
) -> Server {
    let stores = store_dir.map_or_else(BTreeMap::new, |dir| {
        load_store_tier_dir(dir).expect("attach the store that was just written")
    });
    let engine = Engine::start_with_stores(model, datasets, stores, engine_config(nproc));
    Server::start(engine, "127.0.0.1:0").expect("bind a loopback port")
}

/// A running server and the generator's connections to it.
pub struct Served {
    pub server: Server,
    pub conns: Vec<Client>,
}

impl Served {
    /// Serves `datasets` (see [`serve`]) and opens `conns` connections.
    pub fn start(
        model: TrainedModel,
        datasets: BTreeMap<String, VideoIndex>,
        store_dir: Option<&Path>,
        nproc: usize,
        conns: usize,
    ) -> Served {
        let server = serve(model, datasets, store_dir, nproc);
        let conns = (0..conns)
            .map(|_| Client::connect(server.local_addr()).expect("connect to the loopback server"))
            .collect();
        Served { server, conns }
    }

    /// Closes the connections, then drains and joins the server.
    pub fn stop(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

/// The stored video of `sharded`, `ingest` and `live`, tracked and
/// ingested with one embedding worker per core.
pub struct Stored {
    pub model: TrainedModel,
    pub video: SyntheticVideo,
    pub index: VideoIndex,
    /// Holds `STORE_DATASET`'s shard set (see [`shard_dir`]).
    pub store_dir: PathBuf,
}

impl Stored {
    /// Generates, tracks and ingests an `events_per_kind`-sized scene
    /// into a fresh directory `name` of the run's scratch space.
    pub fn build(ctx: &Ctx, name: &str, events_per_kind: usize, detector_seed: u64) -> Stored {
        let model = gen::model();
        let video = gen::scene(events_per_kind, gen::STORE_SCENE);
        let index = gen::track(&video, detector_seed);
        let store_dir = ctx.fresh_dir(name);
        ingest(&model.similarity(), &index, &store_dir, ctx.nproc);
        Stored {
            model,
            video,
            index,
            store_dir,
        }
    }

    /// Serves the stored video over `conns` connections.
    pub fn serve(&self, ctx: &Ctx, conns: usize) -> Served {
        let datasets = BTreeMap::from([(STORE_DATASET.to_string(), self.index.clone())]);
        Served::start(
            self.model.clone(),
            datasets,
            Some(&self.store_dir),
            ctx.nproc,
            conns,
        )
    }
}
