//! Shared helpers for the SketchQL examples, integration tests, and the
//! experiment harness: a cached demo model and canonical demo videos, so
//! every binary does not retrain/regenerate from scratch.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::training::{TrainedModel, TrainingConfig};
use sketchql_datasets::{generate_video, SceneFamily, SyntheticVideo, VideoConfig};
use std::path::PathBuf;

/// Directory used to cache trained models and other artifacts.
pub fn cache_dir() -> PathBuf {
    std::env::var_os("SKETCHQL_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/sketchql-cache"))
}

/// Loads (or trains and caches) the small demo model shared by examples
/// and experiments.
pub fn demo_model() -> TrainedModel {
    let path = cache_dir().join("model_default.json");
    TrainedModel::load_or_train(&path, TrainingConfig::default())
}

/// Generates the canonical demo surveillance video for a family and seed:
/// two occurrences of every event kind plus distractor traffic.
pub fn demo_video(family: SceneFamily, seed: u64) -> SyntheticVideo {
    let cfg = VideoConfig::standard(family);
    generate_video(cfg, seed, &mut StdRng::seed_from_u64(seed))
}

/// Formats one fixed-width table row (experiment output).
pub fn fmt_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}", w = w))
        .collect::<Vec<_>>()
        .join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_video_is_deterministic() {
        let a = demo_video(SceneFamily::ParkingLot, 3);
        let b = demo_video(SceneFamily::ParkingLot, 3);
        assert_eq!(a.events, b.events);
        assert_eq!(a.name, "parking_lot_3");
    }

    #[test]
    fn fmt_row_pads() {
        let r = fmt_row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "a   | bb  ");
    }
}
