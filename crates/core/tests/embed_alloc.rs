//! `TrajectoryEncoder::embed_batch` at the encoders that ship: equal to
//! the tape forward, and — once a thread has embedded its largest batch —
//! allocating only the vectors it returns, whatever the batch size.
//!
//! The allocation counts come from the telemetry crate's counting global
//! allocator, which `sketchql-nn` does not link; that is why this test
//! lives here. The counters are per thread and each test runs on its own
//! thread, so nothing else is counted.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::training::TrainingConfig;
use sketchql_nn::{EncoderConfig, Graph, ParamStore, Tensor, TrajectoryEncoder};
use sketchql_telemetry::thread_allocated;
use sketchql_trajectory::features::{SLOT_DIM, TOKEN_DIM};

/// Features as the extractor writes them for a clip of `objects`
/// objects: that many slots occupied, the rest of each row exactly zero.
fn features(rng: &mut StdRng, steps: usize, objects: usize) -> Tensor {
    let mut t = Tensor::xavier(steps, TOKEN_DIM, rng);
    for row in 0..steps {
        t.row_mut(row)[SLOT_DIM * objects..].fill(0.0);
    }
    t
}

/// Training's path: the tape `forward`, which no inference change touches.
fn tape_embed(encoder: &TrajectoryEncoder, store: &ParamStore, features: &Tensor) -> Vec<f32> {
    let mut g = Graph::new(store);
    let f = g.input(features.clone());
    let e = encoder.forward(&mut g, f);
    g.tape.value(e).data.clone()
}

#[test]
fn steady_state_embed_batch_allocates_only_what_it_returns() {
    let mut rng = StdRng::seed_from_u64(19);
    for config in [
        TrainingConfig::default().encoder,
        EncoderConfig::default(),
        TrainingConfig::tiny().encoder,
    ] {
        let mut store = ParamStore::new();
        let encoder = TrajectoryEncoder::new(&mut store, &mut rng, "enc", config.clone());
        let clips: Vec<Tensor> = (0..64)
            .map(|i| features(&mut rng, config.steps, 1 + i % 2))
            .collect();
        let refs: Vec<&Tensor> = clips.iter().collect();
        let want: Vec<Vec<f32>> = clips
            .iter()
            .map(|f| tape_embed(&encoder, &store, f))
            .collect();

        // The first call sizes this thread's workspace.
        assert_eq!(encoder.embed_batch(&store, &refs), want);
        // A scan's ragged last batch, the full batch after it, a lone
        // query embed, and the full batch again.
        for n in [53, 64, 1, 64] {
            let (bytes, count) = thread_allocated();
            let got = encoder.embed_batch(&store, &refs[..n]);
            let (bytes_after, count_after) = thread_allocated();
            let returned = n * std::mem::size_of::<Vec<f32>>() + n * config.embed_dim * 4;
            assert_eq!(
                (count_after - count, bytes_after - bytes),
                (n as u64 + 1, returned as u64),
                "d_model {} batch {n}: one allocation per returned vector plus the outer one",
                config.d_model
            );
            assert_eq!(got, want[..n], "d_model {} batch {n}", config.d_model);
        }
    }
}
