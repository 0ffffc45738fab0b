//! Shard-tier format properties: manifest JSON round trips losslessly
//! (bit-exact floats, full-range u64 fingerprints), shard files round
//! trip through the owning loader, and any truncation of a
//! shard file is rejected at open.

use proptest::prelude::*;
use sketchql_store::{
    hex_u64, LoadedShard, Manifest, ManifestShard, ShardData, StoreError, StoreRow,
    MANIFEST_VERSION,
};
use sketchql_trajectory::ObjectClass;
use std::path::PathBuf;

fn temp_path(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "skql-shardfmt-{tag}-{}-{case}.bin",
        std::process::id()
    ))
}

/// An arbitrary manifest whose scalar fields sweep the full value
/// ranges JSON is worst at: u64 fingerprints above 2^53 (stored as
/// hex) and arbitrary f32 bit patterns (stored as bit patterns).
fn arb_manifest() -> impl Strategy<Value = Manifest> {
    // Per-shard (frame width, rows, checksum); coverage is built
    // contiguously from 0 because `validate` demands a gap-free
    // partition of the frame axis.
    let shard = (1u32..2000, 0u32..1000, any::<u64>());
    (
        (
            prop::collection::vec(b'a'..=b'z', 0..10),
            any::<u64>(),
            any::<u64>(),
            // Epochs count manifest commits one by one, so they stay
            // far below the 2^53 integer ceiling of their JSON float.
            0u64..1_000_000,
        ),
        (
            prop::collection::vec(any::<u32>(), 5),
            prop::collection::vec(1u32..500, 1..4),
            1u32..5,
            prop::collection::vec(any::<u32>(), 0..8),
            prop::collection::vec(shard, 1..4),
        ),
    )
        .prop_map(
            |((name, model_fp, index_fp, epoch), (bits, lens, dim, centroids, shards))| {
                let nlist = (centroids.len() / dim as usize).max(1) as u32;
                let centroid_bits: Vec<u32> = if centroids.is_empty() {
                    vec![0; (nlist * dim) as usize]
                } else {
                    centroids
                        .iter()
                        .cycle()
                        .take((nlist * dim) as usize)
                        .copied()
                        .collect()
                };
                let shard_frames = shards.iter().map(|&(w, _, _)| w).max().unwrap_or(1);
                let mut next_start = 0u32;
                let shards: Vec<ManifestShard> = shards
                    .into_iter()
                    .enumerate()
                    .map(|(i, (width, rows, checksum))| {
                        let frame_start = next_start;
                        let frame_end = frame_start + width - 1;
                        next_start = frame_end + 1;
                        ManifestShard {
                            file: format!("shard-{i:04}.skshard"),
                            shard_id: i as u32,
                            frame_start,
                            frame_end,
                            rows,
                            checksum: hex_u64(checksum),
                            list_rows: {
                                let mut l = vec![0u32; nlist as usize];
                                l[0] = rows;
                                l
                            },
                        }
                    })
                    .collect();
                Manifest {
                    version: MANIFEST_VERSION,
                    epoch,
                    dataset: String::from_utf8(name).unwrap(),
                    model_fingerprint: hex_u64(model_fp),
                    index_fingerprint: hex_u64(index_fp),
                    frames: next_start,
                    fps_bits: bits[0],
                    frame_width_bits: bits[1],
                    frame_height_bits: bits[2],
                    stride_frac_bits: bits[3],
                    min_overlap_frac_bits: bits[4],
                    window_lens: lens,
                    dim,
                    shard_frames,
                    nlist,
                    centroid_bits,
                    shards,
                }
            },
        )
}

/// An arbitrary shard: random rows, vectors with hostile float bit
/// patterns, and a posting-list partition of the rows.
fn arb_shard() -> impl Strategy<Value = ShardData> {
    let row = (any::<u64>(), any::<u8>(), 0u32..500, 0u32..100);
    (
        prop::collection::vec(row, 0..12),
        prop::collection::vec(-1.0e3f32..1.0e3, 3),
        1usize..4,
    )
        .prop_map(|(rows, seed, nlist)| {
            let dim = 3;
            let n = rows.len();
            let rows: Vec<StoreRow> = rows
                .into_iter()
                .map(|(id, class_pick, start, span)| StoreRow {
                    track_id: id,
                    class: if class_pick == 0 {
                        ObjectClass::Any
                    } else {
                        ObjectClass::CONCRETE[class_pick as usize % ObjectClass::CONCRETE.len()]
                    },
                    start,
                    end: start + span,
                })
                .collect();
            let mut vectors = Vec::with_capacity(n * dim);
            for r in 0..n {
                vectors.push(-0.0);
                vectors.push(f32::MIN_POSITIVE / 2.0); // subnormal
                vectors.push(seed[r % seed.len()]);
            }
            let mut lists = vec![Vec::new(); nlist];
            for r in 0..n {
                lists[r % nlist].push(r as u32);
            }
            ShardData {
                shard_id: 7,
                frame_start: 0,
                frame_end: 599,
                dim,
                rows,
                vectors,
                lists,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Manifest → JSON → manifest is the identity, bit for bit: hex
    /// fingerprints survive above 2^53 and float bit patterns (NaN
    /// payloads included) survive the text round trip.
    #[test]
    fn manifest_round_trips_through_json(manifest in arb_manifest()) {
        let json = manifest.to_json();
        let back = Manifest::from_json(std::path::Path::new("prop.json"), &json)
            .expect("serialized manifest must parse");
        prop_assert_eq!(&back, &manifest);
        // And the round trip is a fixed point: re-serializing yields
        // the same document.
        prop_assert_eq!(back.to_json(), json);
    }

    /// Shard save → open reproduces every row, vector bit, and
    /// posting list exactly.
    #[test]
    fn shard_round_trips_through_disk(shard in arb_shard(), case in any::<u64>()) {
        let path = temp_path("rt", case);
        let checksum = shard.save(&path).expect("save shard");
        let loaded = LoadedShard::open(&path, Some(checksum)).expect("open shard");
        prop_assert_eq!(loaded.len(), shard.rows.len());
        for (i, row) in shard.rows.iter().enumerate() {
            prop_assert_eq!(&loaded.row(i), row);
            let dim = shard.dim;
            let want = &shard.vectors[i * dim..(i + 1) * dim];
            let got = loaded.vector(i);
            prop_assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(want) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        for (c, list) in shard.lists.iter().enumerate() {
            prop_assert_eq!(loaded.list(c), &list[..]);
        }
        drop(loaded);
        std::fs::remove_file(&path).ok();
    }

    /// Every proper prefix of a shard file fails to open — truncation
    /// can never be read as a shorter valid shard.
    #[test]
    fn truncated_shard_is_rejected(shard in arb_shard(), frac in 0.0f64..1.0, case in any::<u64>()) {
        let path = temp_path("trunc", case);
        shard.save(&path).expect("save shard");
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() as f64) * frac) as usize; // always < len
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = LoadedShard::open(&path, None).expect_err("truncated shard must not open");
        prop_assert!(matches!(
            err,
            StoreError::Truncated { .. } | StoreError::BadHeader { .. }
        ));
        std::fs::remove_file(&path).ok();
    }
}
