//! The optional Tuner (§2.2): improving retrieval with explicit user
//! feedback.
//!
//! Runs a hard query (U-turn, which shares a prefix with left turns), lets
//! a simulated user label the top results against ground truth, and shows
//! retrieval quality before and after (a) prototype re-ranking and
//! (b) triplet fine-tuning.
//!
//! ```text
//! cargo run --release --example tuner_feedback
//! ```

use sketchql::prelude::*;
use sketchql_datasets::{evaluate_retrieval, query_clip, EventKind, PredictedMoment, SceneFamily};

fn report(
    results: &[sketchql::RetrievedMoment],
    truth: &[&sketchql_datasets::EventAnnotation],
    label: &str,
) {
    let preds: Vec<PredictedMoment> = results
        .iter()
        .map(|m| PredictedMoment {
            start: m.start,
            end: m.end,
            score: m.score,
        })
        .collect();
    let r = evaluate_retrieval(&preds, truth);
    println!(
        "  {label:<18} P@{}: {:.2}  recall {:.2}  AP {:.2}",
        r.num_truth, r.precision_at_k, r.recall, r.average_precision
    );
}

fn main() {
    let model = sketchql_suite::demo_model();
    let mut sq = SketchQL::new(model);
    let video = sketchql_suite::demo_video(SceneFamily::UrbanIntersection, 55);
    sq.upload_dataset("traffic", &video);
    let truth = video.events_of(EventKind::UTurn);
    println!(
        "Query: U-turn. {} ground-truth events at {:?}\n",
        truth.len(),
        truth.iter().map(|t| (t.start, t.end)).collect::<Vec<_>>()
    );

    let query = query_clip(EventKind::UTurn);
    let results = sq.run_query("traffic", &query).unwrap();
    println!("Zero-shot retrieval:");
    report(&results, &truth, "zero-shot");

    // The simulated user inspects the top 6 results and labels each by
    // whether it truly overlaps a U-turn (what a person would do in the
    // result window).
    let mut feedback = Vec::new();
    for m in results.iter().take(6) {
        let relevant = truth.iter().any(|t| t.temporal_iou(m.start, m.end) >= 0.3);
        let clip = sq.moment_clip("traffic", m).unwrap();
        feedback.push(Feedback { clip, relevant });
    }
    let n_pos = feedback.iter().filter(|f| f.relevant).count();
    println!(
        "\nUser feedback on top-6: {} relevant, {} not relevant",
        n_pos,
        feedback.len() - n_pos
    );

    // (a) Training-free prototype re-ranking of the existing result list.
    let cfg = TunerConfig::default();
    let reranker = sq.feedback_reranker(&feedback, &cfg);
    let mut reranked: Vec<_> = results.clone();
    for m in &mut reranked {
        if let Some(e) = sq
            .moment_clip("traffic", m)
            .ok()
            .and_then(|c| sq.model().embed(&c))
        {
            m.score = reranker.adjust(m.score, &e);
        }
    }
    reranked.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
    println!("\nAfter prototype re-ranking:");
    report(&reranked, &truth, "reranked");

    // (b) Triplet fine-tuning of the encoder itself, then re-querying.
    let used = sq.apply_feedback(&query, &feedback, &cfg);
    let retried = sq.run_query("traffic", &query).unwrap();
    println!("\nAfter fine-tuning on {used} feedback items (fresh query):");
    report(&retried, &truth, "fine-tuned");
}
