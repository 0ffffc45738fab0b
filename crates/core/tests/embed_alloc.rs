//! `TrajectoryEncoder::embed_batch` at the encoders that ship: equal to
//! the bits the encoder's first forward (a reverse-mode tape, since
//! deleted) computed, and — once a thread has embedded its largest batch —
//! allocating only the vectors it returns, whatever the batch size. And
//! training's per-clip backward: once warm, allocating only the gradient
//! it returns.
//!
//! And the scan above it: once an index remembers a sketch's windows, a
//! scan of them allocates a constant per query, nothing per window.
//!
//! The allocation counts come from the telemetry crate's counting global
//! allocator, which `sketchql-nn` does not link; that is why this test
//! lives here. The counters are per thread and each test runs on its own
//! thread, so nothing else is counted.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql::training::TrainingConfig;
use sketchql::{LearnedSimilarity, Matcher, VideoIndex};
use sketchql_nn::{EncoderConfig, KeptForward, ParamStore, Tensor, TrajectoryEncoder};
use sketchql_store::Fnv64;
use sketchql_telemetry::{names, thread_allocated, TraceContext};
use sketchql_trajectory::features::{SLOT_DIM, TOKEN_DIM};
use sketchql_trajectory::{BBox, Clip, ObjectClass, TrajPoint, Trajectory};

/// Features as the extractor writes them for a clip of `objects`
/// objects: that many slots occupied, the rest of each row exactly zero.
fn features(rng: &mut StdRng, steps: usize, objects: usize) -> Tensor {
    let mut t = Tensor::xavier(steps, TOKEN_DIM, rng);
    for row in 0..steps {
        t.row_mut(row)[SLOT_DIM * objects..].fill(0.0);
    }
    t
}

/// FNV-64 over the bit patterns of every embedding, in order.
fn embedding_hash(embeddings: &[Vec<f32>]) -> u64 {
    let mut h = Fnv64::new();
    for &v in embeddings.iter().flatten() {
        h.write_f32(v);
    }
    h.finish()
}

/// `embedding_hash` of the 64 clips' embeddings, per encoder, captured
/// from the tape forward.
const EMBEDDINGS: [u64; 3] = [
    0x0748_9281_21bb_c632,
    0x9bad_00ad_71de_9083,
    0x3186_39cb_75a4_cb4d,
];

#[test]
fn steady_state_embed_batch_allocates_only_what_it_returns() {
    let mut rng = StdRng::seed_from_u64(19);
    for (config, pinned) in [
        TrainingConfig::default().encoder,
        EncoderConfig::default(),
        TrainingConfig::tiny().encoder,
    ]
    .into_iter()
    .zip(EMBEDDINGS)
    {
        let mut store = ParamStore::new();
        let encoder = TrajectoryEncoder::new(&mut store, &mut rng, "enc", config.clone());
        let clips: Vec<Tensor> = (0..64)
            .map(|i| features(&mut rng, config.steps, 1 + i % 2))
            .collect();
        let refs: Vec<&Tensor> = clips.iter().collect();
        // The first call sizes this thread's workspace.
        let want = encoder.embed_batch(&store, &refs);
        assert_eq!(embedding_hash(&want), pinned, "d_model {}", config.d_model);
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

/// Training's per-clip passes at the encoders that ship: once a thread
/// has differentiated one clip, `forward_kept` into a kept buffer
/// allocates nothing and `backward` only the flat gradient it returns
/// (plus at most a small constant), whichever clip comes next.
#[test]
fn a_warm_backward_allocates_only_the_gradient_it_returns() {
    const SLACK_ALLOCATIONS: u64 = 2;
    const SLACK_BYTES: u64 = 1024;
    let mut rng = StdRng::seed_from_u64(23);
    for config in [
        TrainingConfig::default().encoder,
        EncoderConfig::default(),
        TrainingConfig::tiny().encoder,
    ] {
        let mut store = ParamStore::new();
        let encoder = TrajectoryEncoder::new(&mut store, &mut rng, "enc", config.clone());
        let clips: Vec<Tensor> = (0..4)
            .map(|i| features(&mut rng, config.steps, 1 + i % 2))
            .collect();
        let seed = Tensor::xavier(1, config.embed_dim, &mut rng);
        let mut kept = KeptForward::new();
        // The first clip sizes this thread's buffers and `kept`.
        encoder.forward_kept(&store, &clips[0], &mut kept);
        let _ = encoder.backward(&store, &clips[0], &kept, &seed);
        for clip in &clips[1..] {
            let before = thread_allocated();
            encoder.forward_kept(&store, clip, &mut kept);
            let after = thread_allocated();
            assert_eq!(
                after, before,
                "d_model {}: a warm forward_kept",
                config.d_model
            );
            let grads = encoder.backward(&store, clip, &kept, &seed);
            let (bytes, count) = thread_allocated();
            let returned = (grads.len() * 4) as u64;
            assert_eq!(grads.len(), store.num_scalars());
            assert!(
                count - after.1 <= 1 + SLACK_ALLOCATIONS
                    && bytes - after.0 <= returned + SLACK_BYTES,
                "d_model {}: a warm backward made {} allocations of {} bytes, returning {returned}",
                config.d_model,
                count - after.1,
                bytes - after.0
            );
        }
    }
}

/// The first search after a cold one is already fully warm: the scan's
/// encoder pass published its windows, so each window now costs one
/// memo look-up and an in-place scoring of its rows — no eligible-track
/// list per slot, no segment key or copied row per candidate, and no
/// moment per window (a window's best keeps its track ids in a fixed-size
/// key; only the moments ranking keeps are built). What is left to
/// allocate is a constant per query: the query's own embedding, the
/// window list, the lane scratch, the ranking and the refinement of the
/// `top_k` moments kept (55 allocations when measured). The ceiling sits
/// below the window count, so even one allocation per window fails it.
#[test]
fn a_fully_warm_scan_allocates_per_query_not_per_window() {
    const PER_QUERY: u64 = 64;
    const TRACKS: u64 = 32;
    const FRAMES: u32 = 300;
    let tracks = (0..TRACKS)
        .map(|id| {
            let pts = (0..FRAMES)
                .map(|f| {
                    let (x, y) = (40.0 + f as f32 * 3.5, 60.0 + id as f32 * 18.0);
                    TrajPoint::new(
                        f,
                        BBox::new(x, y + (f as f32 * 0.05 * id as f32), 50.0, 30.0),
                    )
                })
                .collect();
            Trajectory::from_points(id + 1, ObjectClass::Car, pts)
        })
        .collect();
    let index = VideoIndex::from_clip("crowd", &Clip::new(1280.0, 720.0, tracks), FRAMES, 30.0);
    let q_pts = (0..40)
        .map(|i| TrajPoint::new(i, BBox::new(100.0 + i as f32 * 10.0, 400.0, 80.0, 45.0)))
        .collect();
    let query = Clip::new(
        1000.0,
        600.0,
        vec![Trajectory::from_points(0, ObjectClass::Car, q_pts)],
    );
    let mut store = ParamStore::new();
    let config = TrainingConfig::tiny().encoder;
    let encoder = TrajectoryEncoder::new(&mut store, &mut StdRng::seed_from_u64(3), "enc", config);
    let matcher = Matcher::new(LearnedSimilarity::new(encoder, store));

    let cold = matcher.search(&index, &query).unwrap();
    let trace = TraceContext::new();
    let (warm, allocations) = {
        let _entered = trace.enter();
        let (_, before) = thread_allocated();
        let warm = matcher.search(&index, &query).unwrap();
        let (_, after) = thread_allocated();
        (warm, after - before)
    };
    let trace = trace.finalize().unwrap();
    assert_eq!(warm, cold);
    assert_eq!(trace.count(names::EMBED_CACHE_MISSES), 0, "fully warm");
    assert_eq!(
        trace.count(names::EMBEDDINGS_COMPUTED),
        1,
        "the query's own"
    );
    let windows = trace.count(names::WINDOWS_ENUMERATED);
    let candidates = trace.count(names::SIMILARITY_EVALS);
    assert_eq!(candidates, TRACKS * windows, "every track in every window");
    assert_eq!(trace.count(names::EMBED_CACHE_HITS), candidates);
    assert!(
        windows > PER_QUERY,
        "the ceiling must sit below the window count"
    );
    assert!(
        allocations <= PER_QUERY,
        "{allocations} allocations for {windows} windows / {candidates} candidates"
    );
}
