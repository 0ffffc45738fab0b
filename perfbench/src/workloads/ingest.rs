//! `ingest`: a video made queryable from raw detections — detector and
//! tracker, window enumeration, bulk `embed_batch`, quantizer training,
//! shard writes, then a cold attach and a full verify. The only workload
//! where those are on the blocking path.

use std::path::Path;
use std::time::Instant;

use sketchql::ShardSet;

use super::sharded::EVENTS_PER_KIND;
use super::{time_is_up, Outcome};
use crate::fixture::{self, Ctx};
use crate::gen::{self, Fnv, Seeds, STORE_DATASET, STORE_SCENE};
use crate::measure::{at_reference_speed, cpu_at_reference_speed};

pub fn run(ctx: &Ctx) -> Outcome {
    let seeds = Seeds::new(ctx.seed);
    let mut out = Outcome::default();
    let detector = seeds.detector(STORE_DATASET);
    let ((model, video), setup_s) = fixture::set_up(
        ctx,
        || (gen::model(), gen::scene(EVENTS_PER_KIND, STORE_SCENE)),
        drop,
    );
    out.setup_s = setup_s;
    let sim = model.similarity();
    let rec = &ctx.rec;

    let store_dir = ctx.fresh_dir("cycle");
    let started = Instant::now();
    let mut cycles = 0u32;
    loop {
        std::fs::remove_dir_all(fixture::shard_dir(&store_dir)).ok();
        let request = rec.request();
        let cycle_started = Instant::now();
        let cpu_before = ctx.yardstick.process_cpu_ms();
        let (verified, cycle_ms) = rec.span("cycle.make_queryable", 0, request, |cycle| {
            let (index, _) = rec.span("core.VideoIndex::build", cycle, request, |_| {
                gen::track(&video, detector)
            });
            if cycles == 0 {
                let mut hash = Fnv::new();
                hash.index(&index);
                out.input_hash = hash.finish();
            }
            rec.span("core.ingest_sharded", cycle, request, |_| {
                fixture::ingest(&sim, &index, &store_dir, ctx.nproc)
            });
            let (set, _) = rec.span("core.ShardSet::open", cycle, request, |_| {
                ShardSet::open(&fixture::shard_dir(&store_dir))
            });
            rec.span("core.ShardSet::verify", cycle, request, |_| {
                set.map_err(|e| e.to_string())
                    .and_then(|set| set.verify().map_err(|e| e.to_string()))
            })
            .0
        });
        let cpu_ms = ctx.yardstick.process_cpu_ms() - cpu_before;
        let slowdown = ctx.yardstick.slowdown(cycle_started, Instant::now());
        let frames = video.frames as f64;
        out.check(verified.map_err(|e| format!("fresh shard set does not verify: {e}")));
        let fair_ms = at_reference_speed(cycle_ms, cpu_ms, slowdown);
        out.latency_ms.push([cycle_ms, fair_ms]);
        out.throughput
            .push([frames / (cycle_ms / 1e3), frames / (fair_ms / 1e3)]);
        out.cpu_ms_per_op.push([
            cpu_ms / frames,
            cpu_at_reference_speed(cpu_ms / frames, slowdown),
        ]);
        cycles += 1;
        if time_is_up(ctx, started, cycles) {
            break;
        }
    }
    out.phases = format!(
        "{cycles} cycles of track + ingest ({} threads) + attach + verify over {} frames",
        ctx.nproc, video.frames
    );

    // One embedding worker must write the same bytes as one per core.
    let single_dir = ctx.fresh_dir("single");
    let index = gen::track(&video, detector);
    fixture::ingest(&sim, &index, &single_dir, 1);
    out.check(same_files(
        &fixture::shard_dir(&store_dir),
        &fixture::shard_dir(&single_dir),
    ));
    out
}

/// Every file of `a` is in `b` with the same bytes, and `b` has no more.
fn same_files(a: &Path, b: &Path) -> Result<(), String> {
    let names = |dir: &Path| -> Result<Vec<std::ffi::OsString>, String> {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.file_name()))
            .collect();
        names.sort();
        Ok(names)
    };
    let (in_a, in_b) = (names(a)?, names(b)?);
    if in_a != in_b {
        return Err(format!(
            "shard sets hold different files: {in_a:?} vs {in_b:?}"
        ));
    }
    for name in in_a {
        let read = |dir: &Path| std::fs::read(dir.join(&name)).map_err(|e| e.to_string());
        if read(a)? != read(b)? {
            return Err(format!(
                "{} differs between one embedding worker and one per core",
                Path::new(&name).display()
            ));
        }
    }
    Ok(())
}
