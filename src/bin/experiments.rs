//! Experiment harness: regenerates every figure/scenario of the demo paper
//! and the research-paper-shaped evaluation tables (see DESIGN.md §4 and
//! EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release --bin experiments -- all
//! cargo run --release --bin experiments -- f1 t1 t5
//! ```
//!
//! Experiments: `f1 q1 q2 t1 t2 t3 t4 t5 a1` (or `all`).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::prelude::*;
use sketchql::training::{evaluate_pairs, train};
use sketchql::{ClassicalSimilarity, Matcher, Predicate, RetrievedMoment, Similarity, VideoIndex};
use sketchql_datasets::{
    generate_video, query_clip, EventAnnotation, EventKind, SceneFamily, SyntheticVideo,
    VideoConfig,
};
use sketchql_nn::Pooling;
use sketchql_simulator::{
    Camera, CameraRig, PairGenerator, RandomSceneSampler, Scene3D, ShakeConfig,
};
use sketchql_suite::{evaluate, Judged, RIGHT_OBJECT_IOU};
use sketchql_tracker::{DetectorConfig, TrackerConfig};
use sketchql_trajectory::{Clip, DistanceKind, Point3};
use std::time::Instant;

/// An experiment's command-line name and the function that prints it.
type Experiment = (&'static str, fn());

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 9] = [
    ("f1", exp_f1),
    ("q1", exp_q1),
    ("q2", exp_q2),
    ("t1", exp_t1),
    ("t2", exp_t2),
    ("t3", exp_t3),
    ("t4", exp_t4),
    ("t5", exp_t5),
    ("a1", exp_a1),
];

/// The experiments `args` name, in run order (all of them for no
/// argument or `all`); an unknown name is an error listing the valid ones.
fn parse(args: &[String]) -> Result<Vec<Experiment>, String> {
    let known = |a: &String| a == "all" || EXPERIMENTS.iter().any(|(name, _)| a == name);
    if let Some(unknown) = args.iter().find(|a| !known(a)) {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown experiment {unknown:?}; expected {} or all",
            names.join(" ")
        ));
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    Ok(EXPERIMENTS
        .into_iter()
        .filter(|(name, _)| all || args.iter().any(|a| a == name))
        .collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    println!("SketchQL experiment harness");
    println!("===========================\n");
    for (_, run) in chosen {
        run();
    }
}

// ---------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------

/// The classical baselines compared in the tables.
fn baseline_kinds() -> Vec<DistanceKind> {
    vec![
        DistanceKind::Euclidean,
        DistanceKind::EuclideanVelocity,
        DistanceKind::Dtw,
        DistanceKind::Frechet,
        DistanceKind::Hausdorff,
        DistanceKind::Lcss,
        DistanceKind::Erp,
    ]
}

fn search_with(
    model: &TrainedModel,
    method: Option<DistanceKind>,
    index: &VideoIndex,
    query: &Clip,
) -> Vec<RetrievedMoment> {
    match method {
        None => Matcher::new(model.similarity())
            .search(index, query)
            .expect("experiment queries embed"),
        Some(kind) => Matcher::new(ClassicalSimilarity::new(kind))
            .search(index, query)
            .expect("classical prepare is infallible"),
    }
}

/// The methods compared in T1/T3: the learned similarity, the classical
/// trajectory distances, and the hand-written expert rules.
enum Method {
    Learned,
    Classical(DistanceKind),
    ExpertRules,
}

impl Method {
    fn name(&self) -> String {
        match self {
            Method::Learned => "sketchql".into(),
            Method::Classical(k) => k.name().into(),
            Method::ExpertRules => "rules".into(),
        }
    }

    fn search(
        &self,
        model: &TrainedModel,
        index: &VideoIndex,
        kind: EventKind,
    ) -> Vec<RetrievedMoment> {
        match self {
            Method::Learned => search_with(model, None, index, &query_clip(kind)),
            Method::Classical(k) => search_with(model, Some(*k), index, &query_clip(kind)),
            Method::ExpertRules => sketchql::evaluate_rule(
                index,
                &sketchql::expert_rule(kind),
                sketchql::MatcherConfig::default().top_k,
            ),
        }
    }
}

// ---------------------------------------------------------------------
// F1 — Figure 1: diverse left-turn behaviours under one query
// ---------------------------------------------------------------------

/// Records one isolated left-turn (or control) clip from a camera at the
/// requested distance.
fn isolated_event_clip(kind: EventKind, cam_dist: f32, angle_deg: Option<f32>, seed: u64) -> Clip {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scene = Scene3D::new(30.0);
    let center = sketchql_trajectory::Point2::ZERO;
    let participants = match (kind, angle_deg) {
        (EventKind::LeftTurn, Some(deg)) => {
            use rand::Rng;
            let heading = rng.gen_range(0.0..std::f32::consts::TAU);
            vec![(
                sketchql_simulator::Agent::sample(sketchql_trajectory::ObjectClass::Car, &mut rng),
                sketchql_simulator::templates::left_turn(
                    center - sketchql_trajectory::Point2::new(heading.cos(), heading.sin()) * 10.0,
                    heading,
                    8.0,
                    deg.to_radians(),
                ),
            )]
        }
        _ => kind.instantiate(center, &mut rng),
    };
    for (agent, script) in participants {
        scene = scene.with_object(agent, script);
    }
    // Keep resampling azimuth until every object stays visible.
    loop {
        let cam = Camera::sample_around(Point3::ZERO, cam_dist * 0.95, cam_dist * 1.05, &mut rng);
        let mut rig = CameraRig::new(cam, ShakeConfig::default());
        let clip = scene.record(&mut rig, &mut rng);
        if clip.objects.iter().all(|t| t.len() >= 20) {
            return clip;
        }
    }
}

fn exp_f1() {
    println!("F1. Figure-1 reproduction: one left-turn sketch vs diverse left-turn variants");
    println!("------------------------------------------------------------------------------");
    println!("Variants: near/far camera x acute/right/obtuse turn angle, random headings.");
    println!("Controls: right turns and stop-and-go (must score lower).\n");

    let model = sketchql_suite::demo_model();
    let learned = model.similarity();
    let query = query_clip(EventKind::LeftTurn);
    let q_learned = learned.prepare(&query).expect("query embeds");
    let dtw = ClassicalSimilarity::new(DistanceKind::Dtw);
    let q_dtw = dtw
        .prepare(&query)
        .expect("classical prepare is infallible");

    let buckets: Vec<(&str, f32, Option<f32>)> = vec![
        ("near + acute (55°)", 28.0, Some(55.0)),
        ("near + right (90°)", 28.0, Some(90.0)),
        ("near + obtuse (125°)", 28.0, Some(125.0)),
        ("far  + acute (55°)", 65.0, Some(55.0)),
        ("far  + right (90°)", 65.0, Some(90.0)),
        ("far  + obtuse (125°)", 65.0, Some(125.0)),
    ];
    let controls: Vec<(&str, EventKind)> = vec![
        ("control: right turn", EventKind::RightTurn),
        ("control: stop-and-go", EventKind::StopAndGo),
    ];
    const REPS: u64 = 8;

    println!("{:<22} | {:>10} | {:>10}", "variant", "sketchql", "dtw");
    println!("{}", "-".repeat(50));
    let mut lt_learned = Vec::new();
    let mut lt_dtw = Vec::new();
    for (label, dist, angle) in &buckets {
        let mut s_l = 0.0;
        let mut s_d = 0.0;
        for r in 0..REPS {
            let clip = isolated_event_clip(EventKind::LeftTurn, *dist, *angle, 100 + r);
            s_l += learned.score(&q_learned, &clip);
            s_d += dtw.score(&q_dtw, &clip);
        }
        s_l /= REPS as f32;
        s_d /= REPS as f32;
        lt_learned.push(s_l);
        lt_dtw.push(s_d);
        println!("{label:<22} | {s_l:>10.3} | {s_d:>10.3}");
    }
    let mut ctl_learned = Vec::new();
    let mut ctl_dtw = Vec::new();
    for (label, kind) in &controls {
        let mut s_l = 0.0;
        let mut s_d = 0.0;
        for r in 0..REPS {
            let clip = isolated_event_clip(*kind, 40.0, None, 200 + r);
            s_l += learned.score(&q_learned, &clip);
            s_d += dtw.score(&q_dtw, &clip);
        }
        s_l /= REPS as f32;
        s_d /= REPS as f32;
        ctl_learned.push(s_l);
        ctl_dtw.push(s_d);
        println!("{label:<22} | {s_l:>10.3} | {s_d:>10.3}");
    }
    let sep = |pos: &[f32], neg: &[f32]| {
        let p = pos.iter().sum::<f32>() / pos.len() as f32;
        let n = neg.iter().sum::<f32>() / neg.len() as f32;
        p - n
    };
    println!("{}", "-".repeat(50));
    println!(
        "separation (mean left-turn - mean control): sketchql {:+.3}, dtw {:+.3}\n",
        sep(&lt_learned, &ctl_learned),
        sep(&lt_dtw, &ctl_dtw)
    );
}

// ---------------------------------------------------------------------
// Q1 / Q2 — Figures 2-4: scripted demo sessions
// ---------------------------------------------------------------------

fn exp_q1() {
    println!("Q1. End-to-end demo (Figure 3): car making a left turn");
    println!("-------------------------------------------------------");
    let model = sketchql_suite::demo_model();
    let mut sq = SketchQL::new(model);
    let video = sketchql_suite::demo_video(SceneFamily::UrbanIntersection, 7);
    let summary = sq.upload_dataset("traffic", &video);
    println!(
        "Step 1  upload: {} frames, {} tracks",
        summary.frames, summary.num_tracks
    );

    let (sketch, car, seg) = sketchql_suite::q1_sketch();
    println!("Step 2  created Car object #{car}");
    println!("Step 3  dragged a left turn (segment #{seg})");
    println!("Step 4  replayed & stretched the segment to 70 ticks");
    let results = sq.run_sketch("traffic", &sketch).unwrap();
    println!("Step 5  executed: {} moments returned", results.len());
    let views = sq.display("traffic", &results).unwrap();
    let truth = video.events_of(EventKind::LeftTurn);
    println!(
        "Step 6  display (ground truth at {:?}):",
        truth.iter().map(|t| (t.start, t.end)).collect::<Vec<_>>()
    );
    for v in views.iter().take(5) {
        let hit = truth
            .iter()
            .any(|t| t.temporal_iou(results[v.rank - 1].start, results[v.rank - 1].end) >= 0.3);
        println!(
            "        #{:<2} frames {:>5}..{:<5} score {:.3} {}",
            v.rank,
            v.start,
            v.end,
            v.score,
            if hit { "<-- true left turn" } else { "" }
        );
    }
    let report = evaluate(&results, &truth);
    println!(
        "summary  P@{} {:.2}  recall {:.2}  AP {:.2}",
        report.num_truth, report.precision_at_k, report.recall, report.average_precision
    );
    print_right_objects(
        "summary ",
        sq.dataset("traffic").unwrap(),
        &video,
        &truth,
        &results,
    );

    println!("\nQ1's sketch across scene families (tracked input), learned vs DTW:");
    let query = sketch.compile().expect("Q1 compiles");
    for (i, family) in SceneFamily::ALL.iter().enumerate() {
        let video = sketchql_suite::demo_video(*family, 20 + i as u64);
        sq.upload_dataset(&video.name, &video);
        let truth = video.events_of(EventKind::LeftTurn);
        let dtw = ClassicalSimilarity::new(DistanceKind::Dtw);
        for (method, results) in [
            ("sketchql", sq.run_query(&video.name, &query).unwrap()),
            ("dtw", sq.run_query_with(&video.name, &query, dtw).unwrap()),
        ] {
            let r = evaluate(&results, &truth);
            let (right, _) =
                right_objects(sq.dataset(&video.name).unwrap(), &video, &truth, &results);
            println!(
                "  {:<22} {:<9} P@{} {:.2}  recall {:.2}  AP {:.2}  right object P@{} {:.2}",
                video.name,
                method,
                r.num_truth,
                r.precision_at_k,
                r.recall,
                r.average_precision,
                r.num_truth,
                right
            );
        }
    }
    println!();
}

fn exp_q2() {
    println!("Q2. Multi-object demo (Figure 4): car & person moving perpendicularly");
    println!("----------------------------------------------------------------------");
    let model = sketchql_suite::demo_model();
    let mut sq = SketchQL::new(model);
    let video = sketchql_suite::demo_video(SceneFamily::UrbanIntersection, 31);
    sq.upload_dataset("traffic", &video);
    let truth = video.events_of(EventKind::PerpendicularCrossing);
    let run = |sketch: &Sketcher, label: &str| {
        let results = sq.run_sketch("traffic", sketch).unwrap();
        let r = evaluate(&results, &truth);
        println!(
            "{label}: P@{} {:.2}  recall {:.2}",
            r.num_truth, r.precision_at_k, r.recall
        );
        print_right_objects(
            label,
            sq.dataset("traffic").unwrap(),
            &video,
            &truth,
            &results,
        );
    };

    let (mut sketch, p_seg, c_seg) = sketchql_suite::q2_sketch();
    run(&sketch, "before panel sync");
    sketch.align_segments(c_seg, p_seg).unwrap();
    run(&sketch, "after  panel sync");
    println!("(Figure 4's timing edit: synchronization should help or match.)\n");
}

/// Right-object precision at k (k = the truth count) of `results`, and
/// each top-k moment's judgement.
fn right_objects(
    index: &VideoIndex,
    video: &SyntheticVideo,
    truth: &[&EventAnnotation],
    results: &[RetrievedMoment],
) -> (f32, Vec<Option<Judged>>) {
    let judged = sketchql_suite::judge_top_k(index, video, truth, results);
    let right = judged.iter().flatten().filter(|j| j.right_object()).count();
    (right as f32 / truth.len().max(1) as f32, judged)
}

/// Prints `results`' right-object precision and, per top-k moment, the
/// tracks it binds and their box IoU with the truth event it matched.
fn print_right_objects(
    label: &str,
    index: &VideoIndex,
    video: &SyntheticVideo,
    truth: &[&EventAnnotation],
    results: &[RetrievedMoment],
) {
    let (right, judged) = right_objects(index, video, truth, results);
    println!(
        "{label} right object (box IoU >= {RIGHT_OBJECT_IOU} over the truth span): P@{} {right:.2}",
        truth.len()
    );
    for (m, j) in results.iter().zip(&judged) {
        match j {
            Some(j) => println!(
                "        tracks {:?}: box IoU {:.2} with the truth at ({}, {})",
                m.track_ids, j.box_iou, truth[j.event].start, truth[j.event].end
            ),
            None => println!("        tracks {:?}: no truth span", m.track_ids),
        }
    }
}

// ---------------------------------------------------------------------
// T1 — retrieval quality per query, learned vs classical baselines
// ---------------------------------------------------------------------

fn exp_t1() {
    println!("T1. Retrieval quality per query (mean F1 over 3 videos, oracle tracks)");
    println!("------------------------------------------------------------------------");
    let model = sketchql_suite::demo_model();
    let seeds = [101u64, 102, 103];
    let videos: Vec<_> = seeds
        .iter()
        .map(|&s| {
            generate_video(
                VideoConfig::standard(SceneFamily::UrbanIntersection),
                s,
                &mut StdRng::seed_from_u64(s),
            )
        })
        .collect();
    let indexes: Vec<_> = videos.iter().map(VideoIndex::from_truth).collect();

    let mut methods: Vec<Method> = vec![Method::Learned];
    for k in baseline_kinds() {
        methods.push(Method::Classical(k));
    }
    methods.push(Method::ExpertRules);

    print!("{:<24}", "query \\ method (F1)");
    for m in &methods {
        print!(" | {:>10}", m.name());
    }
    println!();
    println!("{}", "-".repeat(24 + methods.len() * 13));

    let mut totals = vec![0.0f32; methods.len()];
    for &kind in EventKind::ALL {
        print!("{:<24}", kind.name());
        for (mi, method) in methods.iter().enumerate() {
            let mut f1 = 0.0;
            for (v, idx) in videos.iter().zip(&indexes) {
                let truth = v.events_of(kind);
                let results = method.search(&model, idx, kind);
                f1 += evaluate(&results, &truth).f1;
            }
            f1 /= videos.len() as f32;
            totals[mi] += f1;
            print!(" | {f1:>10.2}");
        }
        println!();
    }
    println!("{}", "-".repeat(24 + methods.len() * 13));
    print!("{:<24}", "mean");
    for t in &totals {
        print!(" | {:>10.2}", t / EventKind::ALL.len() as f32);
    }
    println!("\n");

    // The rules column's cost: what each expert rule needed hand-tuned,
    // where a sketch is one drag gesture (the paper's §1 comparison).
    println!(
        "{:<24} | {:>10} | {:>10}",
        "expert rule effort", "thresholds", "relations"
    );
    println!("{}", "-".repeat(50));
    for &kind in EventKind::ALL {
        let rule = sketchql::expert_rule(kind);
        let object_thresholds: usize = rule.objects.iter().map(|(_, p)| count_thresholds(p)).sum();
        println!(
            "{:<24} | {:>10} | {:>10}",
            kind.name(),
            object_thresholds + rule.relations.len() * 2,
            rule.relations.len()
        );
    }
    println!();
}

/// Counts the hand-tuned numeric thresholds in a rule predicate.
fn count_thresholds(p: &Predicate) -> usize {
    match p {
        Predicate::Not(inner) => count_thresholds(inner),
        Predicate::All(ps) | Predicate::Any(ps) => ps.iter().map(count_thresholds).sum(),
        Predicate::NetTurningDeg { .. } | Predicate::WiggleRatio { .. } => 2,
        _ => 1,
    }
}

// ---------------------------------------------------------------------
// T2 — zero-shot generalization across unseen scene families
// ---------------------------------------------------------------------

fn exp_t2() {
    println!("T2. Zero-shot generalization: simulator-trained encoder on unseen families");
    println!("---------------------------------------------------------------------------");
    let model = sketchql_suite::demo_model();
    let kinds = [
        EventKind::LeftTurn,
        EventKind::RightTurn,
        EventKind::UTurn,
        EventKind::PerpendicularCrossing,
    ];
    println!(
        "{:<20} | {:>9} | {:>9} | {:>9}",
        "family \\ metric", "P@k", "recall", "AP"
    );
    println!("{}", "-".repeat(58));
    for family in SceneFamily::ALL {
        let mut p = 0.0;
        let mut r = 0.0;
        let mut ap = 0.0;
        let mut n = 0.0;
        for seed in [301u64, 302] {
            let v = generate_video(
                VideoConfig::standard(*family),
                seed,
                &mut StdRng::seed_from_u64(seed),
            );
            let idx = VideoIndex::from_truth(&v);
            for &kind in &kinds {
                let truth = v.events_of(kind);
                let results = search_with(&model, None, &idx, &query_clip(kind));
                let rep = evaluate(&results, &truth);
                p += rep.precision_at_k;
                r += rep.recall;
                ap += rep.average_precision;
                n += 1.0;
            }
        }
        println!(
            "{:<20} | {:>9.2} | {:>9.2} | {:>9.2}",
            family.name(),
            p / n,
            r / n,
            ap / n
        );
    }
    // Held-out simulator pairs: view-retrieval accuracy.
    let generator = PairGenerator::new(
        RandomSceneSampler::new(model.config.sampler),
        model.config.pairgen,
    );
    let eval = evaluate_pairs(&model, &generator, 24, 777);
    println!("{}", "-".repeat(58));
    println!(
        "held-out simulator pairs: mean pos {:.3}, mean neg {:.3}, top-1 {:.2}\n",
        eval.mean_positive, eval.mean_negative, eval.top1_accuracy
    );
}

// ---------------------------------------------------------------------
// T3 — robustness to detector/tracker noise
// ---------------------------------------------------------------------

fn exp_t3() {
    println!("T3. Robustness: retrieval F1 vs preprocessing noise (left-turn query)");
    println!("----------------------------------------------------------------------");
    let model = sketchql_suite::demo_model();
    let video = generate_video(
        VideoConfig::standard(SceneFamily::UrbanIntersection),
        401,
        &mut StdRng::seed_from_u64(401),
    );
    let truth = video.events_of(EventKind::LeftTurn);

    println!(
        "{:<18} | {:>10} | {:>10} | {:>10} | {:>9}",
        "detector noise", "sketchql", "dtw", "rules", "tracks"
    );
    println!("{}", "-".repeat(70));
    for level in [0.0f32, 0.5, 1.0, 2.0, 3.0] {
        let idx = if level == 0.0 {
            VideoIndex::from_truth(&video)
        } else {
            VideoIndex::build(
                &video,
                DetectorConfig::at_noise_level(level),
                TrackerConfig::default(),
                500 + level as u64,
            )
        };
        let f1 = |m: Method| evaluate(&m.search(&model, &idx, EventKind::LeftTurn), &truth).f1;
        println!(
            "{:<18} | {:>10.2} | {:>10.2} | {:>10.2} | {:>9}",
            format!("level {level:.1}"),
            f1(Method::Learned),
            f1(Method::Classical(DistanceKind::Dtw)),
            f1(Method::ExpertRules),
            idx.tracks.len()
        );
    }
    println!("(level 0 = oracle tracks; higher levels add jitter, misses, false positives)\n");
}

// ---------------------------------------------------------------------
// T4 — Tuner gains from user feedback
// ---------------------------------------------------------------------

fn exp_t4() {
    println!("T4. Tuner: retrieval before/after feedback (hard queries)");
    println!("----------------------------------------------------------");
    let kinds = [EventKind::UTurn, EventKind::LaneChange, EventKind::Overtake];
    println!(
        "{:<24} | {:>10} | {:>10} | {:>10}",
        "query", "zero-shot", "reranked", "fine-tuned"
    );
    println!("{}", "-".repeat(64));
    for (i, &kind) in kinds.iter().enumerate() {
        let model = sketchql_suite::demo_model();
        let mut sq = SketchQL::new(model);
        let video = sketchql_suite::demo_video(SceneFamily::UrbanIntersection, 600 + i as u64);
        sq.upload_index("v", VideoIndex::from_truth(&video));
        let truth = video.events_of(kind);
        let query = query_clip(kind);

        let zero = sq.run_query("v", &query).unwrap();
        let ap_zero = evaluate(&zero, &truth).average_precision;

        // Simulated user labels the top-6.
        let feedback: Vec<Feedback> = zero
            .iter()
            .take(6)
            .map(|m| Feedback {
                clip: sq.moment_clip("v", m).unwrap(),
                relevant: truth.iter().any(|t| t.temporal_iou(m.start, m.end) >= 0.3),
            })
            .collect();
        let cfg = TunerConfig::default();

        // Prototype re-ranking.
        let reranker = sq.feedback_reranker(&feedback, &cfg);
        let mut reranked = zero.clone();
        for m in &mut reranked {
            if let Some(e) = sq
                .moment_clip("v", m)
                .ok()
                .and_then(|c| sq.model().embed(&c))
            {
                m.score = reranker.adjust(m.score, &e);
            }
        }
        reranked.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
        let ap_rerank = evaluate(&reranked, &truth).average_precision;

        // Fine-tuning.
        sq.apply_feedback(&query, &feedback, &cfg);
        let tuned = sq.run_query("v", &query).unwrap();
        let ap_tuned = evaluate(&tuned, &truth).average_precision;

        println!(
            "{:<24} | {:>10.2} | {:>10.2} | {:>10.2}",
            kind.name(),
            ap_zero,
            ap_rerank,
            ap_tuned
        );
    }
    println!("(metric: average precision; feedback = labels on the top-6 zero-shot results)\n");
}

// ---------------------------------------------------------------------
// T5 — latency / throughput
// ---------------------------------------------------------------------

fn exp_t5() {
    println!("T5. Latency (wall clock, this machine; see also `perfbench/`)");
    println!("----------------------------------------------------------------");
    let model = sketchql_suite::demo_model();

    // Preprocessing time vs video length.
    println!("{:<34} | {:>8} | {:>9}", "preprocessing", "frames", "time");
    println!("{}", "-".repeat(58));
    for events_per_kind in [1usize, 2, 4] {
        let cfg = VideoConfig {
            family: SceneFamily::UrbanIntersection,
            events_per_kind,
            distractors: 8,
            fps: 30.0,
        };
        let v = generate_video(
            cfg,
            700 + events_per_kind as u64,
            &mut StdRng::seed_from_u64(700),
        );
        let t0 = Instant::now();
        let idx = VideoIndex::build(&v, DetectorConfig::default(), TrackerConfig::default(), 1);
        let dt = t0.elapsed();
        println!(
            "{:<34} | {:>8} | {:>8.0}ms",
            format!("detector+tracker ({} tracks)", idx.tracks.len()),
            v.frames,
            dt.as_secs_f64() * 1000.0
        );
    }

    // Query latency: learned vs baselines on the same index.
    let video = generate_video(
        VideoConfig::standard(SceneFamily::UrbanIntersection),
        777,
        &mut StdRng::seed_from_u64(777),
    );
    let idx = VideoIndex::from_truth(&video);
    let query = query_clip(EventKind::LeftTurn);
    println!(
        "\n{:<34} | {:>8} | {:>9}",
        "query execution", "frames", "time"
    );
    println!("{}", "-".repeat(58));
    let mut methods: Vec<(String, Option<DistanceKind>)> =
        vec![("sketchql (learned)".into(), None)];
    for k in baseline_kinds() {
        methods.push((k.name().into(), Some(k)));
    }
    for (name, method) in &methods {
        let t0 = Instant::now();
        let results = search_with(&model, *method, &idx, &query);
        let dt = t0.elapsed();
        println!(
            "{:<34} | {:>8} | {:>8.1}ms   ({} moments)",
            name,
            idx.frames,
            dt.as_secs_f64() * 1000.0,
            results.len()
        );
    }
    // The learned search parallelizes over windows.
    {
        let m = Matcher::with_config(
            model.similarity(),
            sketchql::MatcherConfig {
                threads: 4,
                ..Default::default()
            },
        );
        let t0 = Instant::now();
        let results = m.search(&idx, &query).expect("experiment queries embed");
        let dt = t0.elapsed();
        println!(
            "{:<34} | {:>8} | {:>8.1}ms   ({} moments)",
            "sketchql (learned, 4 threads)",
            idx.frames,
            dt.as_secs_f64() * 1000.0,
            results.len()
        );
    }

    // The embedding store: ingest the window embeddings once, then
    // answer single-object queries by probe + exact re-rank.
    let m = Matcher::new(model.similarity());
    let mut cfg = sketchql::IngestConfig::from_matcher(&m.config, &[query.span()]);
    cfg.threads = 4;
    let dir = std::env::temp_dir().join(format!("sketchql-exp-t5-{}", std::process::id()));
    let t0 = Instant::now();
    let set = sketchql::ingest_sharded(&m.sim, &idx, "t5", &cfg, idx.frames, &dir, &|_| {})
        .expect("ingest into a temp dir");
    let build_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let t0 = Instant::now();
    let served = m
        .search_with_shards(&idx, &set, &query, &sketchql::CancelToken::none())
        .expect("experiment queries embed");
    let query_ms = t0.elapsed().as_secs_f64() * 1000.0;
    println!(
        "\nembedding store: ingest {:.0}ms ({} windows), per-query {:.1}ms ({} moments, {} rows probed)",
        build_ms,
        set.total_rows(),
        query_ms,
        served.moments.len(),
        served.probed
    );
    std::fs::remove_dir_all(&dir).ok();

    // Encoder embedding throughput.
    let sim = model.similarity();
    let clip = isolated_event_clip(EventKind::LeftTurn, 40.0, Some(90.0), 900);
    let t0 = Instant::now();
    let n = 500;
    for _ in 0..n {
        let _ = sim.embed(&clip);
    }
    let dt = t0.elapsed();
    println!(
        "\nencoder throughput: {:.0} clip embeddings/s ({:.2} ms each)\n",
        n as f64 / dt.as_secs_f64(),
        dt.as_secs_f64() * 1000.0 / n as f64
    );
}

// ---------------------------------------------------------------------
// A1 — design ablations
// ---------------------------------------------------------------------

fn exp_a1() {
    println!("A1. Ablations: encoder and simulator design choices");
    println!("----------------------------------------------------");
    println!("Metric: held-out pair separation (pos - neg) and top-1 view retrieval");
    println!("accuracy after identical short training runs.\n");

    let base = TrainingConfig::small();
    let variant = |edit: fn(&mut TrainingConfig)| {
        let mut c = base.clone();
        c.steps = 120;
        edit(&mut c);
        c
    };
    let variants: Vec<(&str, TrainingConfig)> = vec![
        ("full model", variant(|_| {})),
        (
            "no positional encoding",
            variant(|c| c.encoder.positional = false),
        ),
        (
            "last-token pooling",
            variant(|c| c.encoder.pooling = Pooling::Last),
        ),
        ("1 encoder layer", variant(|c| c.encoder.layers = 1)),
        (
            "single-camera positives",
            variant(|c| c.pairgen.same_camera = true),
        ),
        (
            "no temporal stretch",
            variant(|c| c.pairgen.stretch_prob = 0.0),
        ),
        ("no sketchify", variant(|c| c.pairgen.sketchify_prob = 0.0)),
        (
            "no mirror negatives",
            variant(|c| c.mirror_negatives = false),
        ),
        ("no padding", variant(|c| c.pairgen.pad_prob = 0.0)),
    ];

    println!(
        "{:<26} | {:>9} | {:>9} | {:>9} | {:>9} | {:>10}",
        "variant", "pos", "neg", "sep", "top-1", "sketch-sep"
    );
    println!("{}", "-".repeat(87));
    // Held-out evaluation always uses the *full* multi-camera generator:
    // that is the deployment condition (arbitrary viewpoints).
    let eval_gen = PairGenerator::new(RandomSceneSampler::new(base.sampler), base.pairgen);
    for (name, cfg) in variants {
        let model = train(cfg);
        let e = evaluate_pairs(&model, &eval_gen, 20, 424242);
        println!(
            "{:<26} | {:>9.3} | {:>9.3} | {:>9.3} | {:>9.2} | {:>10.3}",
            name,
            e.mean_positive,
            e.mean_negative,
            e.mean_positive - e.mean_negative,
            e.top1_accuracy,
            sketch_sep(&model)
        );
    }
    println!("\n(Expected shape: the full model separates views best; single-camera");
    println!(" training loses viewpoint invariance — the paper's key data recipe.)");
    println!("(sketch-sep: how often a single-object sketch scores an isolated clip");
    println!(" of its own kind above one of another kind; DESIGN.md §4.5.)\n");
}

/// `sketch-sep`: under the canonical sketch of each of four single-object
/// kinds, the pairwise win rate of six isolated clips of that kind over
/// six of each other kind (1.0 = every sketch always ranks its own event
/// first) — the statistic that chose `TrainingConfig::default()`.
fn sketch_sep(model: &TrainedModel) -> f32 {
    let kinds = [
        EventKind::LeftTurn,
        EventKind::RightTurn,
        EventKind::UTurn,
        EventKind::StopAndGo,
    ];
    let sim = model.similarity();
    let clips: Vec<Vec<Clip>> = kinds
        .iter()
        .map(|&k| {
            (0..6u64)
                .map(|r| isolated_event_clip(k, 45.0, None, 1000 + r * 17 + k as u64 * 3))
                .collect()
        })
        .collect();
    let (mut wins, mut total) = (0usize, 0usize);
    for (qi, &qk) in kinds.iter().enumerate() {
        let prep = sim.prepare(&query_clip(qk)).expect("sketch queries embed");
        let scores: Vec<Vec<f32>> = clips
            .iter()
            .map(|row| row.iter().map(|c| sim.score(&prep, c)).collect())
            .collect();
        for row in scores
            .iter()
            .enumerate()
            .filter(|&(ci, _)| ci != qi)
            .map(|(_, r)| r)
        {
            for &pos in &scores[qi] {
                wins += row.iter().filter(|&&neg| pos > neg).count();
                total += row.len();
            }
        }
    }
    wins as f32 / total as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).map(|chosen| chosen.iter().map(|(name, _)| *name).collect())
    }

    #[test]
    fn names_run_in_table_order_and_an_unknown_name_is_refused() {
        let every = ["f1", "q1", "q2", "t1", "t2", "t3", "t4", "t5", "a1"];
        assert_eq!(names(&[]).unwrap(), every);
        assert_eq!(names(&["t1", "all"]).unwrap(), every);
        assert_eq!(names(&["t1", "q1"]).unwrap(), ["q1", "t1"]);
        for wrong in ["q3", "probe", "Q1", ""] {
            let err = names(&["q1", wrong]).unwrap_err();
            assert!(err.contains(&format!("{wrong:?}")), "{err}");
            assert!(err.contains("f1 q1 q2 t1 t2 t3 t4 t5 a1 or all"), "{err}");
        }
    }
}
