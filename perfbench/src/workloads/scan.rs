//! `scan`: sketches over two datasets with no store, so every query is
//! the paper's Matcher — window enumeration, feature extraction, batched
//! encoder passes and the server's fused scans do the work.

use std::collections::BTreeMap;

use rand::Rng;
use sketchql::Matcher;
use sketchql_datasets::EventKind;

use super::{check_engine_tally, same_moments, scan_reference, serve_rounds, Outcome};
use crate::fixture::{self, Ctx, Served};
use crate::gen::{self, Fnv, Job, Seeds, SCAN_SCENES, STRETCH};
use crate::load::Inputs;

/// Open-loop arrival rate, requests per second: about half of what two
/// engine workers complete in a closed loop.
const OPEN_RATE: f64 = 2.0;

pub fn run(ctx: &Ctx) -> Outcome {
    let seeds = Seeds::new(ctx.seed);
    let mut out = Outcome::default();

    // Half of the eight sketches are stretched in the trajectory panel, so
    // spans and window grids differ and fused scans share less: both
    // two-object sketches and two of the six single-object ones, one of
    // each at either factor. Which ones is fixed, and so is the dataset
    // each is asked on (each arity split evenly): the seed orders and
    // times the mix, it does not change what is in it, so that runs on
    // different seeds cost the same and can be compared.
    let stretch_of = |kind: EventKind| match kind {
        EventKind::PerpendicularCrossing | EventKind::RightTurn => Some(STRETCH[0]),
        EventKind::Overtake | EventKind::StopAndGo => Some(STRETCH[1]),
        _ => None,
    };
    let inputs = Inputs {
        datasets: SCAN_SCENES
            .iter()
            .map(|(name, _)| name.to_string())
            .collect(),
        sketches: EventKind::ALL
            .iter()
            .map(|&kind| gen::sketch(kind, stretch_of(kind)))
            .collect(),
    };
    let (mut singles, pairs): (Vec<usize>, Vec<usize>) =
        (0..EventKind::ALL.len()).partition(|&i| EventKind::ALL[i].num_objects() == 1);
    let job = |sketch: usize, due_s: f64| Job {
        dataset: sketch % SCAN_SCENES.len(),
        sketch,
        due_s,
    };

    // A round asks every sketch once: six single-object sketches and two
    // two-object ones (75% / 25%). The closed loop sends the two-object
    // sketches first: they run seven times longer, and a long query drawn
    // last would leave a core idle and make the round measure its own
    // tail instead of capacity. The open loop sends them half a round
    // apart.
    let mut rng = seeds.stream("scan.mix");
    gen::shuffle(&mut singles, &mut rng);
    let closed: Vec<Job> = pairs.iter().chain(&singles).map(|&s| job(s, 0.0)).collect();
    gen::shuffle(&mut singles, &mut rng);
    let mut order = singles.clone();
    let first = rng.gen_range(0..EventKind::ALL.len() / 2);
    order.insert(first, pairs[0]);
    order.insert(first + EventKind::ALL.len() / 2, pairs[1]);
    let open: Vec<Job> = gen::arrivals(order.len(), OPEN_RATE, &mut rng)
        .into_iter()
        .zip(&order)
        .map(|(due_s, &sketch)| job(sketch, due_s))
        .collect();

    let detector_seeds = SCAN_SCENES.map(|(name, _)| seeds.detector(name));
    let ((model, indexes, mut served), setup_s) = fixture::set_up(
        ctx,
        || {
            let model = gen::model();
            let indexes: Vec<_> = SCAN_SCENES
                .iter()
                .zip(detector_seeds)
                .map(|(&(_, scene), detector)| gen::track(&gen::scene(1, scene), detector))
                .collect();
            let datasets: BTreeMap<_, _> = inputs
                .datasets
                .iter()
                .cloned()
                .zip(indexes.clone())
                .collect();
            let served = Served::start(model.clone(), datasets, None, ctx.nproc, ctx.nproc);
            (model, indexes, served)
        },
        |(_, _, served)| served.stop(),
    );
    out.setup_s = setup_s;

    let mut hash = Fnv::new();
    indexes.iter().for_each(|i| hash.index(i));
    inputs.sketches.iter().for_each(|s| hash.clip(s));
    hash.jobs(&closed);
    hash.jobs(&open);
    out.input_hash = hash.finish();

    // What the program must answer, from the library directly.
    let matcher = Matcher::with_config(model.similarity(), fixture::matcher_config());
    let wanted: Vec<(usize, usize)> = closed.iter().map(|j| (j.dataset, j.sketch)).collect();
    let index_refs: Vec<_> = indexes.iter().collect();
    let expected = scan_reference(&matcher, &index_refs, &inputs, &wanted, ctx.nproc);

    let answers = serve_rounds(ctx, &mut served.conns, &inputs, &closed, &open, &mut out);

    for (dataset, sketch, moments) in &answers {
        let at = wanted
            .iter()
            .position(|w| w == &(*dataset, *sketch))
            .expect("every sketch is in the closed round");
        out.check(if same_moments(moments, &expected[at]) {
            Ok(())
        } else {
            Err(format!(
                "reply for {:?} on {} differs from Matcher::search",
                EventKind::ALL[*sketch],
                inputs.datasets[*dataset]
            ))
        });
    }
    check_engine_tally(&served.server, &mut out);
    served.stop();
    out
}
