//! `sharded`: the four single-object sketches over a lazily attached
//! shard set. The encoder embeds one clip per query, so centroid rank,
//! gather, re-rank, per-query fingerprinting and the wire dominate — the
//! mirror image of `scan`.

use sketchql::{CancelToken, Matcher, RetrievedMoment, ShardSet};

use super::{check_engine_tally, same_moments, scan_reference, serve_rounds, Outcome};
use crate::fixture::{self, Ctx, Stored};
use crate::gen::{self, Fnv, Job, Seeds, STORE_DATASET, STORE_KINDS};
use crate::load::Inputs;

/// Events per kind in the stored video (~1.9k frames, ~21k windows).
pub const EVENTS_PER_KIND: usize = 2;
/// Requests per closed-loop round.
const CLOSED_JOBS: usize = 60;
/// Open-loop arrival rate, requests per second (under half of what two
/// connections complete in a closed loop) and requests per round.
const OPEN_RATE: f64 = 20.0;
const OPEN_JOBS: usize = 40;

/// The four sketches a store serves, canonical: a stretched sketch asks
/// for window lengths the store's grid does not hold.
pub fn inputs() -> Inputs {
    Inputs {
        datasets: vec![STORE_DATASET.to_string()],
        sketches: STORE_KINDS.iter().map(|&k| gen::sketch(k, None)).collect(),
    }
}

/// `n` jobs asking the store's sketches equally often, in seeded order.
pub fn mix(n: usize, due: Vec<f64>, rng: &mut rand::rngs::StdRng) -> Vec<Job> {
    let mut sketches: Vec<usize> = (0..n).map(|i| i % STORE_KINDS.len()).collect();
    gen::shuffle(&mut sketches, rng);
    sketches
        .into_iter()
        .zip(due)
        .map(|(sketch, due_s)| Job {
            dataset: 0,
            sketch,
            due_s,
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let seeds = Seeds::new(ctx.seed);
    let mut out = Outcome::default();
    let inputs = inputs();
    let mut rng = seeds.stream("sharded.mix");
    let closed = mix(CLOSED_JOBS, vec![0.0; CLOSED_JOBS], &mut rng);
    let open = mix(
        OPEN_JOBS,
        gen::arrivals(OPEN_JOBS, OPEN_RATE, &mut rng),
        &mut rng,
    );

    let detector = seeds.detector(STORE_DATASET);
    let ((stored, mut served), setup_s) = fixture::set_up(
        ctx,
        || {
            let stored = Stored::build(ctx, "store", EVENTS_PER_KIND, detector);
            let served = stored.serve(ctx, ctx.nproc);
            (stored, served)
        },
        |(_, served)| served.stop(),
    );
    out.setup_s = setup_s;

    let mut hash = Fnv::new();
    hash.index(&stored.index);
    inputs.sketches.iter().for_each(|s| hash.clip(s));
    hash.jobs(&closed);
    hash.jobs(&open);
    out.input_hash = hash.finish();

    // What the program must answer: the library's own store path over a
    // second attachment of the same shard set.
    let matcher = Matcher::with_config(stored.model.similarity(), fixture::matcher_config());
    let set = ShardSet::open(&fixture::shard_dir(&stored.store_dir)).expect("attach the shard set");
    let expected: Vec<Vec<RetrievedMoment>> = inputs
        .sketches
        .iter()
        .map(|sketch| {
            let found = matcher
                .search_with_shards(&stored.index, &set, sketch, &CancelToken::none())
                .expect("store search of a canonical sketch");
            out.check(if found.from_store {
                Ok(())
            } else {
                Err("a canonical sketch fell back to the scan".to_string())
            });
            found.moments
        })
        .collect();

    let answers = serve_rounds(ctx, &mut served.conns, &inputs, &closed, &open, &mut out);

    for (_, sketch, moments) in &answers {
        out.check(if same_moments(moments, &expected[*sketch]) {
            Ok(())
        } else {
            Err(format!(
                "reply for {:?} differs from search_with_shards",
                STORE_KINDS[*sketch]
            ))
        });
    }
    let stats = served.server.engine().stats();
    out.check(
        if stats.store_fallbacks == 0 && stats.store_hits >= answers.len() as u64 {
            Ok(())
        } else {
            Err(format!(
                "{} of {} queries were not served from the store",
                stats.store_fallbacks,
                answers.len()
            ))
        },
    );
    check_engine_tally(&served.server, &mut out);
    check_against_scan(ctx, &matcher, &stored.index, &inputs, &expected, &mut out);
    served.stop();
    out
}

/// The store path against the full scan: a moment both return carries
/// the same score bit for bit, and at least three quarters of the scan's
/// ten best are among the store's ten best. Returns recall@10.
pub fn check_against_scan(
    ctx: &Ctx,
    matcher: &Matcher<sketchql::LearnedSimilarity>,
    index: &sketchql::VideoIndex,
    inputs: &Inputs,
    stored: &[Vec<RetrievedMoment>],
    out: &mut Outcome,
) -> f64 {
    let wanted: Vec<(usize, usize)> = (0..inputs.sketches.len()).map(|s| (0, s)).collect();
    let scanned = scan_reference(matcher, &[index], inputs, &wanted, ctx.nproc);
    let same = |a: &RetrievedMoment, b: &RetrievedMoment| {
        (a.start, a.end, &a.track_ids) == (b.start, b.end, &b.track_ids)
    };
    let (mut hits, mut total) = (0usize, 0usize);
    for (sketch, (store, scan)) in stored.iter().zip(&scanned).enumerate() {
        let drifted = store
            .iter()
            .filter_map(|m| scan.iter().find(|s| same(m, s)).map(|s| (m, s)))
            .any(|(m, s)| m.score.to_bits() != s.score.to_bits());
        out.check(if drifted {
            Err(format!(
                "{:?}: store score differs from the scan's",
                STORE_KINDS[sketch]
            ))
        } else {
            Ok(())
        });
        total += scan.len().min(10);
        hits += scan
            .iter()
            .take(10)
            .filter(|s| store.iter().take(10).any(|m| same(m, s)))
            .count();
    }
    let recall = hits as f64 / total.max(1) as f64;
    println!("# recall@10 of the store path: {hits} of {total}");
    // Recall moves with the detector's noise: 38 to 40 of 40 over a
    // hundred seeds. The gate is for a store that answers something else
    // altogether; the figure itself is the ledger's `recall_at_10`.
    out.check(if recall >= 0.75 {
        Ok(())
    } else {
        Err(format!("recall@10 of the store path is {recall:.3}"))
    });
    recall
}
