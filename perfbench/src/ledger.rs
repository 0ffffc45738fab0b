//! The per-layer ledger (`--trace 1`): every layer timed from outside,
//! by calls into its public functions, on the fixtures the workloads
//! use. Every traced run measures the whole ledger, whichever workload
//! it was asked for, so that each per-layer metric of `BENCHMARK.json`
//! is a measurement in every run; what differs by workload is the
//! traced replay of the workload itself (its spans, its tails and the
//! cost of tracing it).
//!
//! End-to-end metrics never come from here: tracing perturbs, and the
//! probes share the process with each other.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sketchql::telemetry::{counter, names};
use sketchql::{
    embed_clips_parallel, enumerate_store_rows, index_fingerprint, model_fingerprint, CancelToken,
    Matcher, ShardSet, VideoIndex,
};
use sketchql_datasets::EventKind;
use sketchql_nn::{kernels, Tensor};
use sketchql_server::{Engine, EngineError, QuerySpec};
use sketchql_trajectory::features::extract_features;

use crate::fixture::{self, Ctx, Stored};
use crate::gen::{self, Seeds, SCAN_SCENES, STORE_DATASET, STORE_SCENE};
use crate::load;
use crate::measure::{median, percentile};
use crate::trace::Recorder;
use crate::workloads::{self, live, sharded, Outcome};
use crate::Metric;

/// The ledger being filled in.
struct Ledger<'a> {
    ctx: &'a Ctx,
    /// Probe repetitions are divided by this under `--quick`.
    thin: usize,
    metrics: Vec<Metric>,
    out: Outcome,
    /// Lateness of every open-loop send of this run.
    late_ms: Vec<f64>,
}

impl Ledger<'_> {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn reps(&self, n: usize) -> usize {
        (n / self.thin).max(1)
    }

    /// Times `f` `n` times under a span named `name`; the median in
    /// milliseconds.
    fn timed<T>(&self, name: &str, n: usize, mut f: impl FnMut() -> T) -> f64 {
        let times: Vec<f64> = (0..self.reps(n))
            .map(|_| self.ctx.rec.span(name, 0, 0, |_| black_box(f())).1)
            .collect();
        median(&times)
    }
}

pub fn run(ctx: &Ctx, workload: &str) -> (Outcome, Vec<Metric>) {
    let started = Instant::now();
    let mut ledger = Ledger {
        ctx,
        thin: if ctx.quick { 8 } else { 1 },
        metrics: Vec::new(),
        out: Outcome::default(),
        late_ms: Vec::new(),
    };
    replay_workload(&mut ledger, workload);

    let seeds = Seeds::new(ctx.seed);
    let detector = seeds.detector(STORE_DATASET);
    let stored = Stored::build(ctx, "ledger", sharded::EVENTS_PER_KIND, detector);
    let matcher = Matcher::with_config(stored.model.similarity(), fixture::matcher_config());
    let scan_indexes: Vec<VideoIndex> = SCAN_SCENES
        .iter()
        .map(|&(name, scene)| gen::track(&gen::scene(1, scene), seeds.detector(name)))
        .collect();

    probe_tracker_and_encoder(&mut ledger, &stored, &matcher);
    probe_scan(&mut ledger, &matcher, &scan_indexes[0]);
    probe_ingest(&mut ledger, &stored, &matcher);
    probe_store_search(&mut ledger, &stored, &matcher);
    probe_engine_under_overload(&mut ledger, &stored, scan_indexes);
    probe_server_and_live(&mut ledger, &stored, &matcher);

    let late = percentile(&ledger.late_ms, 0.99);
    ledger.put("bench.generator_late_p99_ms", late, "ms");
    let slowdown = ctx.yardstick.slowdown(started, Instant::now());
    ledger.put("bench.yardstick_slowdown", slowdown, "ratio");
    (ledger.out, ledger.metrics)
}

/// The workload itself, twice at half length: untraced, then with the
/// recorder on. The second run leaves the workload's spans in the trace;
/// the ratio of the two medians is what tracing costs.
fn replay_workload(ledger: &mut Ledger, workload: &str) {
    let ctx = ledger.ctx;
    let half = |rec: Arc<Recorder>, dir: &str| Ctx {
        seed: ctx.seed,
        seconds: ctx.seconds / 2.0,
        quick: ctx.quick,
        setups: 1,
        nproc: ctx.nproc,
        workdir: ctx.workdir.join(dir),
        rec,
        yardstick: Arc::clone(&ctx.yardstick),
    };
    let untraced = crate::run_workload(&half(Arc::new(Recorder::new(false)), "untraced"), workload);
    let traced = crate::run_workload(&half(Arc::clone(&ctx.rec), "traced"), workload);

    // The ledger reports what the clock read: nothing here is gated,
    // and `bench.yardstick_slowdown` says how far to trust a time.
    let taken = |run: &Outcome| run.latency_ms.iter().map(|p| p[0]).collect::<Vec<f64>>();
    ledger.put("latency_p95_ms", percentile(&taken(&untraced), 0.95), "ms");
    ledger.put("latency_p99_ms", percentile(&taken(&untraced), 0.99), "ms");
    // At reference speed, so that a change of machine speed between the
    // two halves is not mistaken for the recorder's cost.
    let fair = |run: &Outcome| median(&run.latency_ms.iter().map(|p| p[1]).collect::<Vec<f64>>());
    ledger.put(
        "bench.trace_overhead_ratio",
        fair(&traced) / fair(&untraced),
        "ratio",
    );
    ledger.late_ms.extend(&traced.late_ms);
    ledger.out.input_hash = traced.input_hash;
    ledger.out.phases = format!("at half length, untraced then traced: {}", traced.phases);
    for mut run in [untraced, traced] {
        ledger.out.absorb_checks(&mut run);
    }
}

/// `tracker`, `trajectory` and `nn`: the detector + tracker pass, feature
/// extraction per window clip, and the encoder as a bulk writer (batches
/// of 64), as a per-query reader (one clip), and as a kernel.
fn probe_tracker_and_encoder(
    ledger: &mut Ledger,
    stored: &Stored,
    matcher: &Matcher<sketchql::LearnedSimilarity>,
) {
    let seed = Seeds::new(ledger.ctx.seed).detector(STORE_DATASET);
    let track_ms = ledger.timed("core.VideoIndex::build", 3, || {
        gen::track(&stored.video, seed)
    });
    ledger.put(
        "tracker.frames_per_s",
        stored.video.frames as f64 / (track_ms / 1e3),
        "1/s",
    );

    let (_, clips) = enumerate_store_rows(&stored.index, &fixture::ingest_config(1), None);
    let clips = &clips[..clips.len().min(ledger.reps(2048))];
    let config = &matcher.sim.encoder.config;
    let mut tensors = Vec::new();
    let (_, features_ms) = ledger
        .ctx
        .rec
        .span("trajectory.extract_features", 0, 0, |_| {
            for clip in clips {
                let f = extract_features(clip, config.steps).expect("features of a window clip");
                tensors.push(Tensor::from_vec(
                    config.steps,
                    f.data.len() / config.steps,
                    f.data,
                ));
            }
        });
    ledger.put(
        "trajectory.extract_features_us",
        features_ms * 1e3 / clips.len() as f64,
        "us",
    );

    let (encoder, weights) = (&matcher.sim.encoder, &matcher.sim.store);
    let batches: Vec<f64> = tensors
        .chunks_exact(64)
        .map(|chunk| {
            let refs: Vec<&Tensor> = chunk.iter().collect();
            let span = ledger.ctx.rec.span("nn.embed_batch", 0, 0, |_| {
                black_box(encoder.embed_batch(weights, &refs))
            });
            span.1 * 1e3 / 64.0
        })
        .collect();
    ledger.put("nn.embed_batch_us_per_row", median(&batches), "us");
    let singles: Vec<f64> = tensors[..64.min(tensors.len())]
        .iter()
        .map(|t| {
            ledger
                .ctx
                .rec
                .span("nn.embed", 0, 0, |_| black_box(encoder.embed(weights, t)))
                .1
                * 1e3
        })
        .collect();
    ledger.put("nn.embed_single_us", median(&singles), "us");

    // The widest projection of a 64-clip batch: (64·steps × d_model) by
    // (d_model × ff_hidden). Operations are counted from the shapes.
    let a = Tensor::full(64 * config.steps, config.d_model, 0.5);
    let b = Tensor::full(config.d_model, config.ff_hidden, 0.25);
    let calls = ledger.reps(400);
    let (_, matmul_ms) = ledger.ctx.rec.span("nn.kernels::matmul", 0, 0, |_| {
        for _ in 0..calls {
            black_box(kernels::matmul(black_box(&a), black_box(&b)));
        }
    });
    let operations = 2.0 * (a.rows * a.cols * b.cols * calls) as f64;
    ledger.put(
        "nn.matmul_gflops",
        operations / (matmul_ms / 1e3) / 1e9,
        "GFLOP/s",
    );
}

/// `core` on the scan path: one sketch at a time, in process, with the
/// library's own counters read around it.
fn probe_scan(
    ledger: &mut Ledger,
    matcher: &Matcher<sketchql::LearnedSimilarity>,
    index: &VideoIndex,
) {
    let single = gen::sketch(EventKind::LeftTurn, None);
    let pair = gen::sketch(EventKind::PerpendicularCrossing, None);
    let read = |name: &str| counter(name).get() as f64;
    let (windows, embeddings) = (
        read(names::WINDOWS_ENUMERATED),
        read(names::EMBEDDINGS_COMPUTED),
    );
    let scans = ledger.reps(3);
    let single_ms = ledger.timed("core.Matcher::search", 3, || matcher.search(index, &single));
    ledger.put("core.scan_single_ms", single_ms, "ms");
    let per_scan = |before: f64, name: &str| (read(name) - before) / scans as f64;
    ledger.put(
        "core.windows_per_query",
        per_scan(windows, names::WINDOWS_ENUMERATED),
        "count",
    );
    ledger.put(
        "core.embeddings_per_query",
        per_scan(embeddings, names::EMBEDDINGS_COMPUTED),
        "count",
    );
    let pair_ms = ledger.timed("core.Matcher::search", 2, || matcher.search(index, &pair));
    ledger.put("core.scan_pair_ms", pair_ms, "ms");

    // Four popular sketches fused into one scan: how many candidate
    // segments the shared embedding cache saved.
    let popular: Vec<_> = gen::STORE_KINDS
        .iter()
        .map(|&k| gen::sketch(k, None))
        .collect();
    let refs: Vec<_> = popular.iter().collect();
    let (hits, misses) = (
        read(names::EMBED_CACHE_HITS),
        read(names::EMBED_CACHE_MISSES),
    );
    ledger
        .ctx
        .rec
        .span("core.Matcher::search_batch", 0, 0, |_| {
            black_box(matcher.search_batch(index, &refs, &CancelToken::none()))
        });
    let (hits, misses) = (
        read(names::EMBED_CACHE_HITS) - hits,
        read(names::EMBED_CACHE_MISSES) - misses,
    );
    ledger.put(
        "core.embed_cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
}

/// `core` and `store` as a bulk writer: enumeration, the embedding pass
/// alone, and the whole ingest with one embedding worker and with one
/// per core. What the whole takes beyond enumeration and embedding is
/// quantizer training and shard writes, named as a residual.
fn probe_ingest(
    ledger: &mut Ledger,
    stored: &Stored,
    matcher: &Matcher<sketchql::LearnedSimilarity>,
) {
    let ctx = ledger.ctx;
    let config = fixture::ingest_config(1);
    let ((rows, clips), enumerate_ms) = ctx.rec.span("core.enumerate_store_rows", 0, 0, |_| {
        enumerate_store_rows(&stored.index, &config, None)
    });
    ledger.put(
        "core.enumerate_rows_per_s",
        rows.len() as f64 / (enumerate_ms / 1e3),
        "1/s",
    );
    let (_, embed_ms) = ctx.rec.span("core.embed_clips_parallel", 0, 0, |_| {
        black_box(embed_clips_parallel(&matcher.sim, &clips, 1))
    });
    let ingest_ms = |threads: usize| {
        let dir = ctx.fresh_dir(&format!("ledger-ingest-{threads}"));
        let span = ctx.rec.span("core.ingest_sharded", 0, 0, |_| {
            fixture::ingest(&matcher.sim, &stored.index, &dir, threads)
        });
        (span.1, dir)
    };
    let (single_ms, single_dir) = ingest_ms(1);
    let (pooled_ms, _) = ingest_ms(ctx.nproc);
    ledger.put(
        "core.ingest_rows_per_s_t1",
        rows.len() as f64 / (single_ms / 1e3),
        "1/s",
    );
    ledger.put(
        "core.ingest_parallel_speedup",
        single_ms / pooled_ms,
        "ratio",
    );
    ledger.put(
        "store.train_write_residual_ms",
        single_ms - enumerate_ms - embed_ms,
        "ms",
    );

    let shard_dir = fixture::shard_dir(&single_dir);
    let bytes: u64 = std::fs::read_dir(&shard_dir)
        .expect("list the shard set just written")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    ledger.put(
        "store_bytes_per_window",
        bytes as f64 / rows.len() as f64,
        "B",
    );
    let verify_ms = ledger.timed("core.ShardSet::verify", 5, || {
        ShardSet::open(&shard_dir)
            .and_then(|set| set.verify())
            .expect("a fresh shard set verifies")
    });
    ledger.put(
        "core.shard_verify_mb_per_s",
        bytes as f64 / 1e6 / (verify_ms / 1e3),
        "MB/s",
    );
}

/// `core` and `store` on the store path: attach, the first answer of a
/// cold attachment, and a warm search replayed stage by stage — embed,
/// centroid rank, gather — so that what the search does besides them
/// (fingerprints, re-rank, NMS) is its self time.
fn probe_store_search(
    ledger: &mut Ledger,
    stored: &Stored,
    matcher: &Matcher<sketchql::LearnedSimilarity>,
) {
    let rec = &ledger.ctx.rec;
    let shard_dir = fixture::shard_dir(&stored.store_dir);
    let inputs = sharded::inputs();
    let none = CancelToken::none();
    let attach_ms = ledger.timed("core.ShardSet::open", 10, || ShardSet::open(&shard_dir));
    ledger.put("core.shardset_attach_us", attach_ms * 1e3, "us");
    let cold_ms = ledger.timed("core.cold_first_query", 10, || {
        let set = ShardSet::open(&shard_dir).expect("attach the shard set");
        matcher.search_with_shards(&stored.index, &set, &inputs.sketches[0], &none)
    });
    ledger.put("core.cold_first_query_ms", cold_ms, "ms");

    let set = ShardSet::open(&shard_dir).expect("attach the shard set");
    let mut stage: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut probed = Vec::new();
    let mut answers = Vec::new();
    for sketch in &inputs.sketches {
        for rep in 0..ledger.reps(10) {
            let request = rec.request();
            let (mut span, mut started) = (0, Instant::now());
            let (found, total) = rec.span("core.search_with_shards", 0, request, |id| {
                (span, started) = (id, Instant::now());
                matcher
                    .search_with_shards(&stored.index, &set, sketch, &none)
                    .expect("store search of a canonical sketch")
            });
            // The search's stages again, one at a time. Each is placed
            // inside the span of the search just timed, back to back
            // from its start, so that the span's self time is what the
            // search does besides them.
            let mut replayed = Duration::ZERO;
            let mut replay = |name: &'static str, f: &mut dyn FnMut()| {
                let begun = Instant::now();
                f();
                let took = begun.elapsed();
                rec.placed(
                    name,
                    span,
                    request,
                    started + replayed,
                    started + replayed + took,
                );
                replayed += took;
                stage
                    .entry(name)
                    .or_default()
                    .push(took.as_secs_f64() * 1e3);
            };
            let (mut embedding, mut ranked) = (Vec::new(), Vec::new());
            replay("core.try_embed", &mut || {
                embedding = matcher
                    .sim
                    .try_embed(sketch)
                    .expect("embed a canonical sketch");
            });
            replay("store.quantizer.rank", &mut || {
                ranked = set.quantizer().rank(&embedding)
            });
            replay("core.ShardSet::gather", &mut || {
                let probe = &ranked[..set.nprobe.clamp(1, ranked.len())];
                black_box(set.gather(probe).map(|g| g.len()).ok());
            });
            let replayed = replayed.as_secs_f64() * 1e3;
            let (_, fingerprint_ms) = rec.span("core.fingerprints", 0, request, |_| {
                black_box((
                    model_fingerprint(&matcher.sim),
                    index_fingerprint(&stored.index),
                ))
            });
            stage.entry("fingerprint").or_default().push(fingerprint_ms);
            stage.entry("total").or_default().push(total);
            stage.entry("self").or_default().push(total - replayed);
            probed.push(found.probed as f64);
            if rep == 0 {
                answers.push(found.moments);
            }
        }
    }
    let embeddings: Vec<Vec<f32>> = inputs
        .sketches
        .iter()
        .map(|s| matcher.sim.try_embed(s).expect("embed a canonical sketch"))
        .collect();
    let refs: Vec<&[f32]> = embeddings.iter().map(Vec::as_slice).collect();
    let batch_ms = ledger.timed("store.quantizer.rank_batch", 20, || {
        set.quantizer().rank_batch(&refs)
    });

    ledger.put(
        "core.fingerprint_us",
        median(&stage["fingerprint"]) * 1e3,
        "us",
    );
    ledger.put(
        "store.quantizer_rank_us",
        median(&stage["store.quantizer.rank"]) * 1e3,
        "us",
    );
    ledger.put(
        "store.rank_batch_us_per_query",
        batch_ms * 1e3 / refs.len() as f64,
        "us",
    );
    ledger.put(
        "core.shardset_gather_us",
        median(&stage["core.ShardSet::gather"]) * 1e3,
        "us",
    );
    ledger.put(
        "core.rows_probed_per_query",
        probed.iter().sum::<f64>() / probed.len() as f64,
        "count",
    );
    ledger.put("core.store_search_ms", median(&stage["total"]), "ms");
    ledger.put("core.store_search_self_ms", median(&stage["self"]), "ms");
    let recall = sharded::check_against_scan(
        ledger.ctx,
        matcher,
        &stored.index,
        &inputs,
        &answers,
        &mut ledger.out,
    );
    ledger.put("recall_at_10", recall, "ratio");
}

/// `server` admission and fusion: the `scan` mix submitted to the engine
/// from one thread, on a schedule at one and a half times the rate a
/// closed loop completes, so that a queue forms and workers fuse.
fn probe_engine_under_overload(ledger: &mut Ledger, stored: &Stored, indexes: Vec<VideoIndex>) {
    let ctx = ledger.ctx;
    let names: Vec<String> = SCAN_SCENES
        .iter()
        .map(|(name, _)| name.to_string())
        .collect();
    let datasets: BTreeMap<_, _> = names.iter().cloned().zip(indexes).collect();
    let engine = Engine::start(
        stored.model.clone(),
        datasets,
        fixture::engine_config(ctx.nproc),
    );
    // A round of the mix: every sketch once, alternating datasets, the
    // two-object sketches first (see `workloads::scan`).
    let mut kinds: Vec<EventKind> = EventKind::ALL.to_vec();
    kinds.sort_by_key(|k| std::cmp::Reverse(k.num_objects()));
    let specs: Vec<QuerySpec> = kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| QuerySpec::new(names[i % names.len()].clone(), gen::sketch(kind, None)))
        .collect();

    let next = std::sync::atomic::AtomicUsize::new(0);
    let (_, closed_ms) = ctx.rec.span("probe.engine_closed_loop", 0, 0, |_| {
        std::thread::scope(|scope| {
            for _ in 0..ctx.nproc {
                scope.spawn(|| {
                    while let Some(spec) =
                        specs.get(next.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
                    {
                        engine
                            .execute(spec.clone())
                            .expect("closed-loop query of the scan mix");
                    }
                });
            }
        });
    });
    let rate = 1.5 * specs.len() as f64 / (closed_ms / 1e3);

    let offered = ledger.reps(2 * specs.len()).max(2);
    let mut rng = Seeds::new(ctx.seed).stream("ledger.overload");
    let due = gen::arrivals(offered, rate, &mut rng);
    let origin = Instant::now();
    let mut handles = Vec::new();
    let mut shed = 0usize;
    for (i, due_s) in due.iter().enumerate() {
        let due = origin + Duration::from_secs_f64(*due_s);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        ledger.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        match engine.submit(specs[i % specs.len()].clone()) {
            Ok(handle) => handles.push(handle),
            Err(EngineError::Overloaded { .. }) => shed += 1,
            Err(e) => ledger.out.check(Err(format!("overload probe: {e}"))),
        }
    }
    let (mut waits, mut batches) = (Vec::new(), Vec::new());
    for handle in handles {
        match handle.wait() {
            Ok(result) => {
                ledger.out.check(Ok(()));
                waits.push(result.queue_wait.as_secs_f64() * 1e3);
                batches.push(result.batch_size as f64);
            }
            Err(e) => ledger.out.check(Err(format!("overload probe: {e}"))),
        }
    }
    engine.shutdown();
    ledger.put("server.queue_wait_p95_ms", percentile(&waits, 0.95), "ms");
    ledger.put(
        "server.batch_size_mean",
        batches.iter().sum::<f64>() / batches.len().max(1) as f64,
        "count",
    );
    ledger.put("server.shed_ratio", shed as f64 / offered as f64, "ratio");
}

/// `server` over the socket, on the stored video: round trips, what the
/// wire adds to an engine call, the highest of five fixed rates that
/// keeps its latency limit, and one live epoch end to end.
fn probe_server_and_live(
    ledger: &mut Ledger,
    stored: &Stored,
    matcher: &Matcher<sketchql::LearnedSimilarity>,
) {
    let ctx = ledger.ctx;
    let inputs = sharded::inputs();
    let mut served = stored.serve(ctx, ctx.nproc);
    let engine = served.server.engine_handle();
    let mut rng = Seeds::new(ctx.seed).stream("ledger.server");

    let pings: Vec<f64> = (0..ledger.reps(48))
        .map(|_| {
            let span = ctx
                .rec
                .span("client.ping", 0, 0, |_| served.conns[0].ping());
            ledger
                .out
                .check(span.0.map(|_| ()).map_err(|e| format!("ping: {e}")));
            span.1 * 1e3
        })
        .collect();
    ledger.put("server.ping_rtt_us", median(&pings), "us");

    let calls = ledger.reps(40);
    let direct: Vec<f64> = (0..calls)
        .map(|i| {
            let spec = QuerySpec::new(
                STORE_DATASET,
                inputs.sketches[i % inputs.sketches.len()].clone(),
            );
            let span = ctx
                .rec
                .span("server.Engine::execute", 0, 0, |_| engine.execute(spec));
            ledger
                .out
                .check(span.0.map(|_| ()).map_err(|e| format!("engine call: {e}")));
            span.1
        })
        .collect();
    ledger.put("server.engine_direct_ms", median(&direct), "ms");
    let jobs = sharded::mix(calls, vec![0.0; calls], &mut rng);
    let closed = load::round(
        ctx,
        "probe.wire_closed_loop",
        &mut served.conns[..1],
        &inputs,
        &jobs,
        false,
    );
    let over_wire: Vec<f64> = closed.replies.iter().map(|r| r.latency_ms).collect();
    ledger.put(
        "server.wire_overhead_ms",
        median(&over_wire) - median(&direct),
        "ms",
    );

    // Five fixed arrival rates. A rate holds when its p95 stays within
    // twice the lowest rate's and the generator does not fall behind.
    let mut limit = f64::NAN;
    let mut highest = 0.0;
    for rate in [10.0, 20.0, 30.0, 40.0, 50.0] {
        let n = ledger.reps((rate * 2.0) as usize).max(4);
        let jobs = sharded::mix(n, gen::arrivals(n, rate, &mut rng), &mut rng);
        let round = load::round(
            ctx,
            "probe.fixed_rate",
            &mut served.conns,
            &inputs,
            &jobs,
            true,
        );
        let failed = round.replies.iter().filter(|r| r.moments.is_err()).count();
        ledger.out.check(if failed == 0 {
            Ok(())
        } else {
            Err(format!("{failed} requests failed at {rate}/s"))
        });
        let latency: Vec<f64> = round.replies.iter().map(|r| r.latency_ms).collect();
        let p95 = percentile(&latency, 0.95);
        if limit.is_nan() {
            limit = 2.0 * p95;
        }
        // Falling behind: the last third of the requests, in the order
        // they were due, was sent later than the first third by more
        // than one gap.
        let mut late: Vec<(usize, f64)> =
            round.replies.iter().map(|r| (r.job, r.late_ms)).collect();
        late.sort_by_key(|(job, _)| *job);
        let late: Vec<f64> = late.into_iter().map(|(_, ms)| ms).collect();
        let third = (late.len() / 3).max(1);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let behind = mean(&late[late.len() - third..]) - mean(&late[..third]) > 1e3 / rate;
        // A rate that does not hold sends late by design; only the rates
        // that hold say anything about the generator.
        if p95 <= limit && !behind && failed == 0 {
            highest = rate;
            ledger.late_ms.extend(late);
        }
    }
    ledger.put("server.max_rate_qps", highest, "1/s");

    // One live epoch: register, append, reload, drain.
    let registrations = live::register_all(&engine, &inputs);
    let grown = gen::track(
        &gen::continuation(&stored.video, STORE_SCENE + 1),
        Seeds::new(ctx.seed).detector(STORE_DATASET),
    );
    let Some((epoch, _)) = live::commit_epoch(
        ctx,
        &engine,
        matcher,
        &stored.store_dir,
        &inputs,
        &registrations,
        stored.index.frames,
        &grown,
        &mut ledger.out,
    ) else {
        // Counted as failed already: the run ends without the epoch's
        // metrics.
        return served.stop();
    };
    ledger.put(
        "core.append_embedded_rows",
        epoch.embedded_rows as f64,
        "count",
    );
    ledger.put("core.append_reused_rows", epoch.reused_rows as f64, "count");
    ledger.put(
        "core.append_rewritten_shards",
        epoch.rewritten_shards as f64,
        "count",
    );
    ledger.put(
        "core.append_us_per_embedded_row",
        epoch.append_ms * 1e3 / epoch.embedded_rows.max(1) as f64,
        "us",
    );
    ledger.put("server.reload_eval_ms", epoch.reload_ms, "ms");
    ledger.put("server.live_dropped", epoch.dropped as f64, "count");
    ledger.put("epoch_to_notify_ms", epoch.notify_ms, "ms");
    workloads::check_engine_tally(&served.server, &mut ledger.out);
    served.stop();
}
