//! The coarse quantizer of a shard set: spherical k-means centroids.
//!
//! k-means partitions the stored vectors into `nlist` posting lists
//! (kept inside each shard, expressed against one shared centroid
//! table). A query ranks the centroids by alignment and gathers the
//! rows under the `nprobe` best, which the caller re-ranks with the
//! exact cosine — so probing trades recall for speed, but never changes
//! the *score* of any row it returns.
//!
//! Everything here is deterministic: initialization is seeded (a
//! splitmix64 stream over `SEED`), ties break toward the lower
//! centroid index, and no wall-clock or thread-order dependence exists
//! anywhere, so the same vectors and `nlist` always train the same
//! centroids.

/// k-means refinement rounds.
const ITERS: usize = 8;

/// Seed of the centroid initialization: "SKETCHQL" in ASCII.
const SEED: u64 = 0x534b_4554_4348_514c;

/// The k-means refinement loop behind [`CoarseQuantizer::train`]: seeded
/// distinct-row initialization, then `ITERS` rounds of assign +
/// renormalized-mean update with deterministic empty-cluster reseeding.
/// `unit` must already be row-normalized.
fn train_centroids(unit: &[f32], dim: usize, nlist: usize) -> Vec<f32> {
    let n = unit.len() / dim;
    // Seeded distinct-row initialization.
    let mut rng = SplitMix64::new(SEED);
    let mut chosen: Vec<usize> = Vec::with_capacity(nlist);
    while chosen.len() < nlist {
        let r = (rng.next() % n as u64) as usize;
        if !chosen.contains(&r) {
            chosen.push(r);
        }
    }
    let mut centroids = Vec::with_capacity(nlist * dim);
    for &r in &chosen {
        centroids.extend_from_slice(&unit[r * dim..(r + 1) * dim]);
    }

    let mut assign = vec![0usize; n];
    let mut lanes = Vec::new();
    for _ in 0..ITERS {
        // Assign each row to its most-aligned centroid.
        lay_out_lanes(&centroids, dim, &mut lanes);
        for (i, row) in unit.chunks(dim).enumerate() {
            assign[i] = nearest(&lanes, dim, nlist, row, None).0;
        }
        // Recompute centroids as renormalized means.
        let mut sums = vec![0.0f32; nlist * dim];
        let mut counts = vec![0usize; nlist];
        for (i, row) in unit.chunks(dim).enumerate() {
            let c = assign[i];
            counts[c] += 1;
            for (s, &v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(row) {
                *s += v;
            }
        }
        for c in 0..nlist {
            if counts[c] == 0 {
                // Reseed an empty cluster with the row least aligned
                // to its current centroid (the worst-represented
                // vector), deterministically.
                let mut worst = (0usize, f32::INFINITY);
                for (i, row) in unit.chunks(dim).enumerate() {
                    let a = assign[i];
                    let d = dot(&centroids[a * dim..(a + 1) * dim], row);
                    if d < worst.1 {
                        worst = (i, d);
                    }
                }
                centroids[c * dim..(c + 1) * dim]
                    .copy_from_slice(&unit[worst.0 * dim..(worst.0 + 1) * dim]);
                continue;
            }
            let inv = 1.0 / counts[c] as f32;
            for (dst, &s) in centroids[c * dim..(c + 1) * dim]
                .iter_mut()
                .zip(&sums[c * dim..(c + 1) * dim])
            {
                *dst = s * inv;
            }
            normalize(&mut centroids[c * dim..(c + 1) * dim]);
        }
    }
    centroids
}

/// The shared coarse quantizer of a shard set: k-means centroids
/// without per-row posting lists — those live inside each shard,
/// expressed against this one centroid table. Training once over a
/// sample of the whole dataset (rather than per shard) is what lets a
/// query rank centroids a single time and fan out to shards, and what
/// makes per-shard posting lists comparable across shards.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseQuantizer {
    dim: usize,
    centroids: Vec<f32>,
    /// `centroids` laid out for [`nearest`] ([`lay_out_lanes`]).
    lanes: Vec<Lanes>,
}

impl CoarseQuantizer {
    /// Trains `nlist` centroids (clamped to `[1, n]`) over `vectors`
    /// (row-major, `n = len / dim` rows): rows are unit-normalized once
    /// so assignment by dot product is assignment by cosine, then
    /// refined by `train_centroids`.
    ///
    /// # Panics
    /// If `dim == 0` while `vectors` is non-empty, or `vectors.len()` is
    /// not a multiple of `dim`.
    pub fn train(vectors: &[f32], dim: usize, nlist: usize) -> Self {
        if vectors.is_empty() {
            return CoarseQuantizer::from_centroids(Vec::new(), dim);
        }
        assert!(dim > 0, "dim must be positive for non-empty vectors");
        assert_eq!(vectors.len() % dim, 0, "vectors not a multiple of dim");
        let nlist = nlist.clamp(1, vectors.len() / dim);
        let mut unit = vectors.to_vec();
        for row in unit.chunks_mut(dim) {
            normalize(row);
        }
        CoarseQuantizer::from_centroids(train_centroids(&unit, dim, nlist), dim)
    }

    /// Rebuilds a quantizer from persisted centroids (the manifest
    /// stores them by bit pattern, so this is bit-identical to the
    /// trained original).
    ///
    /// # Panics
    /// If `centroids.len()` is not a multiple of `dim` (for non-empty
    /// tables).
    pub fn from_centroids(centroids: Vec<f32>, dim: usize) -> Self {
        let mut lanes = Vec::new();
        if !centroids.is_empty() {
            assert!(dim > 0, "dim must be positive for non-empty centroids");
            assert_eq!(centroids.len() % dim, 0, "centroids not a multiple of dim");
            lay_out_lanes(&centroids, dim, &mut lanes);
        }
        CoarseQuantizer {
            dim,
            centroids,
            lanes,
        }
    }

    /// Number of centroids.
    pub fn nlist(&self) -> usize {
        self.centroids.len().checked_div(self.dim).unwrap_or(0)
    }

    /// The centroid table, row-major `nlist × dim`.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// The centroid a data row belongs to (most aligned; ties toward
    /// the lower index). `0` for an empty quantizer.
    pub fn assign(&self, row: &[f32]) -> usize {
        if self.centroids.is_empty() {
            return 0;
        }
        let norm = dot(row, row).sqrt();
        let unit = (norm > 0.0 && norm.is_finite()).then_some(norm);
        nearest(&self.lanes, self.dim, self.nlist(), row, unit).0
    }

    /// Every centroid index ranked by alignment with `query`
    /// (descending; ties toward the lower index). Callers take the
    /// first `nprobe`.
    pub fn rank(&self, query: &[f32]) -> Vec<usize> {
        if self.centroids.is_empty() {
            return Vec::new();
        }
        let mut q = query.to_vec();
        normalize(&mut q);
        let mut ranked: Vec<(usize, f32)> = self
            .centroids
            .chunks(self.dim)
            .enumerate()
            .map(|(c, cent)| (c, dot(cent, &q)))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        ranked.into_iter().map(|(c, _)| c).collect()
    }

    /// [`CoarseQuantizer::rank`] of each of `queries`. Kept only because
    /// the frozen benchmark ledger calls it.
    pub fn rank_batch(&self, queries: &[&[f32]]) -> Vec<Vec<usize>> {
        queries.iter().map(|q| self.rank(q)).collect()
    }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn normalize(v: &mut [f32]) {
    let norm = dot(v, v).sqrt();
    if norm > 0.0 && norm.is_finite() {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Centroids [`nearest`] scores side by side.
const LANES: usize = 8;

/// One dimension of a block of [`LANES`] centroids.
type Lanes = [f32; LANES];

/// `centroids` (`dim` wide, row-major) as blocks of [`LANES`] stored
/// dimension-major into `out`: block `b`'s `dim` entries start at
/// `out[b * dim]`, entry `d` holding dimension `d` of centroids
/// `8b..8b + 8`. The last block's missing centroids are zeros.
fn lay_out_lanes(centroids: &[f32], dim: usize, out: &mut Vec<Lanes>) {
    let blocks = (centroids.len() / dim).div_ceil(LANES);
    out.clear();
    out.resize(blocks * dim, [0.0; LANES]);
    for (c, centroid) in centroids.chunks(dim).enumerate() {
        let block = &mut out[c / LANES * dim..][..dim];
        for (lanes, &v) in block.iter_mut().zip(centroid) {
            lanes[c % LANES] = v;
        }
    }
}

/// Index (and alignment) of the centroid most aligned with `row` — or,
/// with `norm`, with `row / norm` — among the first `nlist` `dim`-wide
/// centroids of `lanes` ([`lay_out_lanes`]); ties break toward the lower
/// index. Each lane sums its centroid's products in dimension order from
/// `-0.0`, so every alignment is `dot(centroid, row)`'s bits; the eight
/// lanes' sums just stop waiting on each other.
fn nearest(
    lanes: &[Lanes],
    dim: usize,
    nlist: usize,
    row: &[f32],
    norm: Option<f32>,
) -> (usize, f32) {
    let mut best = (0usize, f32::NEG_INFINITY);
    for (b, block) in lanes.chunks_exact(dim).enumerate() {
        let mut acc = [-0.0f32; LANES];
        for (cents, &x) in block.iter().zip(row) {
            let x = match norm {
                Some(norm) => x / norm,
                None => x,
            };
            for (a, &c) in acc.iter_mut().zip(cents) {
                *a += c * x;
            }
        }
        for (l, &d) in acc.iter().enumerate().take(nlist - b * LANES) {
            if d > best.1 {
                best = (b * LANES + l, d);
            }
        }
    }
    best
}

/// splitmix64 — tiny, seedable, good-enough stream for centroid picks.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toy_vectors() -> (Vec<f32>, usize) {
        // Three well-separated directions in 2D, several points each.
        let dirs: [(f32, f32); 3] = [(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)];
        let mut v = Vec::new();
        for &(x, y) in &dirs {
            for k in 0..5 {
                let jitter = 0.01 * k as f32;
                v.push(x + jitter);
                v.push(y - jitter);
            }
        }
        (v, 2)
    }

    fn toy_quantizer() -> CoarseQuantizer {
        let (v, dim) = toy_vectors();
        CoarseQuantizer::train(&v, dim, 3)
    }

    #[test]
    fn training_is_deterministic() {
        assert_eq!(toy_quantizer(), toy_quantizer());
    }

    #[test]
    fn rank_puts_the_assigned_centroid_first() {
        // Each well-separated cluster gets its own centroid, and a
        // query on a cluster's direction ranks that centroid first.
        let (v, dim) = toy_vectors();
        let q = toy_quantizer();
        let assigned: Vec<usize> = v.chunks(dim).map(|row| q.assign(row)).collect();
        for cluster in assigned.chunks(5) {
            assert!(cluster.iter().all(|&c| c == cluster[0]), "{assigned:?}");
        }
        assert_ne!(assigned[0], assigned[5]);
        assert_ne!(assigned[5], assigned[10]);
        for query in [[1.0f32, 0.0], [0.0, 1.0], [-0.6, -0.6]] {
            let ranked = q.rank(&query);
            assert_eq!(ranked.len(), 3);
            assert_eq!(ranked[0], q.assign(&query));
        }
    }

    #[test]
    fn quantizer_rank_batch_matches_solo_ranks() {
        let q = toy_quantizer();
        let queries: Vec<Vec<f32>> = vec![
            vec![1.0, 0.0],
            vec![0.0, -1.0],
            vec![0.4, 0.4],
            vec![0.0, 0.0],
        ];
        let refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let batched = q.rank_batch(&refs);
        for (query, got) in queries.iter().zip(&batched) {
            assert_eq!(got, &q.rank(query));
        }
    }

    /// The scalar form the lane scorer replaced: each centroid's `dot`
    /// in turn, the first strictly better one winning.
    fn nearest_scalar(centroids: &[f32], dim: usize, row: &[f32]) -> (usize, f32) {
        let mut best = (0usize, f32::NEG_INFINITY);
        for (c, cent) in centroids.chunks(dim).enumerate() {
            let d = dot(cent, row);
            if d > best.1 {
                best = (c, d);
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The lane scorer against the scalar one, alignment bits
        /// included, through `assign` too (which normalizes without a
        /// copy): `nlist` of every remainder mod 8, rows that tie exactly
        /// (a centroid listed twice, so the lower index must win), all-zero
        /// rows and centroids, and `±0.0` and large values.
        #[test]
        fn lane_nearest_is_the_scalar_nearest(
            dim in 1usize..20,
            nlist in 1usize..27,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let value = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..10) {
                0 => 0.0,
                1 => -0.0,
                2 => rng.gen_range(-1e30f32..1e30),
                _ => rng.gen_range(-1.0f32..1.0),
            };
            let mut centroids: Vec<f32> = (0..nlist * dim).map(|_| value(&mut rng)).collect();
            if nlist > 2 {
                // An exact tie: centroid 2 repeats centroid 0.
                let first = centroids[..dim].to_vec();
                centroids[2 * dim..3 * dim].copy_from_slice(&first);
            }
            if nlist > 3 {
                centroids[3 * dim..4 * dim].fill(0.0);
            }
            let q = CoarseQuantizer::from_centroids(centroids.clone(), dim);
            let mut rows: Vec<Vec<f32>> = (0..12)
                .map(|_| (0..dim).map(|_| value(&mut rng)).collect())
                .collect();
            rows.push(vec![0.0; dim]);
            rows.push(centroids[..dim].to_vec());
            for row in rows {
                let want = nearest_scalar(&centroids, dim, &row);
                let got = nearest(&q.lanes, dim, nlist, &row, None);
                prop_assert_eq!(got.0, want.0);
                prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
                let mut unit = row.clone();
                normalize(&mut unit);
                prop_assert_eq!(q.assign(&row), nearest_scalar(&centroids, dim, &unit).0);
            }
        }
    }

    #[test]
    fn empty_quantizer_is_inert() {
        let q = CoarseQuantizer::train(&[], 0, 1);
        assert_eq!(q.nlist(), 0);
        assert!(q.rank(&[1.0]).is_empty());
        assert_eq!(q.assign(&[1.0]), 0);
        let one: Vec<f32> = vec![1.0];
        assert_eq!(q.rank_batch(&[&one]), vec![Vec::<usize>::new()]);
    }
}
