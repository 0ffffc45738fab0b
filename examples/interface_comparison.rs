//! The paper's motivating comparison (§1): three ways to ask for the same
//! events — a hand-written rule over low-level primitives (the SQL-style
//! interface), a classical trajectory distance, and a SketchQL sketch —
//! on the same videos.
//!
//! The point the demo paper makes: rules *can* work but demand expert
//! effort per query (count the tuned thresholds below), while a sketch is
//! one drag gesture and generalizes zero-shot.
//!
//! ```text
//! cargo run --release --example interface_comparison
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::{
    evaluate_rule, expert_rule, ClassicalSimilarity, Matcher, MatcherConfig, Predicate, VideoIndex,
};
use sketchql_datasets::{
    evaluate_retrieval, generate_video, query_clip, EventKind, PredictedMoment, SceneFamily,
    VideoConfig,
};
use sketchql_trajectory::DistanceKind;

/// Counts the hand-tuned numeric thresholds in a rule (specification
/// effort proxy).
fn count_thresholds(p: &Predicate) -> usize {
    match p {
        Predicate::Not(inner) => count_thresholds(inner),
        Predicate::All(ps) | Predicate::Any(ps) => ps.iter().map(count_thresholds).sum(),
        Predicate::NetTurningDeg { .. } | Predicate::WiggleRatio { .. } => 2,
        _ => 1,
    }
}

fn main() {
    let model = sketchql_suite::demo_model();
    let videos: Vec<_> = [501u64, 502]
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

    println!(
        "{:<24} | {:>8} | {:>8} | {:>8} | rule spec effort",
        "query", "sketch", "dtw", "rules"
    );
    println!("{}", "-".repeat(80));
    for &kind in EventKind::ALL {
        let query = query_clip(kind);
        let rule = expert_rule(kind);
        let mut ap = [0.0f32; 3];
        for (v, idx) in videos.iter().zip(&indexes) {
            let truth = v.events_of(kind);
            let eval = |results: &[sketchql::RetrievedMoment]| {
                let preds: Vec<PredictedMoment> = results
                    .iter()
                    .map(|m| PredictedMoment {
                        start: m.start,
                        end: m.end,
                        score: m.score,
                    })
                    .collect();
                evaluate_retrieval(&preds, &truth).average_precision
            };
            ap[0] += eval(
                &Matcher::new(model.similarity())
                    .search(idx, &query)
                    .expect("event queries embed"),
            );
            ap[1] += eval(
                &Matcher::new(ClassicalSimilarity::new(DistanceKind::Dtw))
                    .search(idx, &query)
                    .expect("classical prepare is infallible"),
            );
            ap[2] += eval(&evaluate_rule(idx, &rule, MatcherConfig::default().top_k));
        }
        let n = videos.len() as f32;
        let thresholds: usize = rule
            .objects
            .iter()
            .map(|(_, p)| count_thresholds(p))
            .sum::<usize>()
            + rule.relations.len() * 2;
        println!(
            "{:<24} | {:>8.2} | {:>8.2} | {:>8.2} | {} tuned thresholds, {} relations",
            kind.name(),
            ap[0] / n,
            ap[1] / n,
            ap[2] / n,
            thresholds,
            rule.relations.len()
        );
    }
    println!("\n(metric: average precision over 2 videos, oracle tracks. A sketch is one");
    println!(" gesture; every rule needed its thresholds hand-tuned per event kind.)");
}
