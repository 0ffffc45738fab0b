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
//! splitmix64 stream over `AnnConfig::seed`), ties break toward the
//! lower centroid index, and no wall-clock or thread-order dependence
//! exists anywhere, so the same vectors + config always train the same
//! centroids.

/// Configuration for [`CoarseQuantizer::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnConfig {
    /// Number of inverted lists (k-means centroids). `0` picks
    /// `ceil(sqrt(n))`, clamped to `[1, n]`.
    pub nlist: usize,
    /// Default number of lists a query probes (callers may override per
    /// probe call).
    pub nprobe: usize,
    /// k-means refinement iterations.
    pub iters: usize,
    /// Seed for deterministic centroid initialization.
    pub seed: u64,
}

impl Default for AnnConfig {
    fn default() -> Self {
        AnnConfig {
            nlist: 0,
            nprobe: 8,
            iters: 8,
            seed: 0x534b_4554_4348_514c, // "SKETCHQL" in ASCII
        }
    }
}

/// The k-means refinement loop behind [`CoarseQuantizer::train`]: seeded
/// distinct-row initialization, then `iters` rounds of assign +
/// renormalized-mean update with deterministic empty-cluster reseeding.
/// `unit` must already be row-normalized.
fn train_centroids(unit: &[f32], dim: usize, nlist: usize, iters: usize, seed: u64) -> Vec<f32> {
    let n = unit.len() / dim;
    // Seeded distinct-row initialization.
    let mut rng = SplitMix64::new(seed);
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
    for _ in 0..iters.max(1) {
        // Assign each row to its most-aligned centroid.
        for (i, row) in unit.chunks(dim).enumerate() {
            assign[i] = nearest(&centroids, dim, row).0;
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
}

impl CoarseQuantizer {
    /// Trains centroids over `vectors` (row-major, `len / dim` rows):
    /// rows are unit-normalized once so assignment by dot product is
    /// assignment by cosine, then refined by `train_centroids`.
    ///
    /// # Panics
    /// If `dim == 0` while `vectors` is non-empty, or `vectors.len()` is
    /// not a multiple of `dim`.
    pub fn train(vectors: &[f32], dim: usize, cfg: &AnnConfig) -> Self {
        if vectors.is_empty() {
            return CoarseQuantizer {
                dim,
                centroids: Vec::new(),
            };
        }
        assert!(dim > 0, "dim must be positive for non-empty vectors");
        assert_eq!(vectors.len() % dim, 0, "vectors not a multiple of dim");
        let n = vectors.len() / dim;
        let nlist = if cfg.nlist == 0 {
            (n as f64).sqrt().ceil() as usize
        } else {
            cfg.nlist
        }
        .clamp(1, n);
        let mut unit = vectors.to_vec();
        for row in unit.chunks_mut(dim) {
            normalize(row);
        }
        CoarseQuantizer {
            dim,
            centroids: train_centroids(&unit, dim, nlist, cfg.iters, cfg.seed),
        }
    }

    /// Rebuilds a quantizer from persisted centroids (the manifest
    /// stores them by bit pattern, so this is bit-identical to the
    /// trained original).
    ///
    /// # Panics
    /// If `centroids.len()` is not a multiple of `dim` (for non-empty
    /// tables).
    pub fn from_centroids(centroids: Vec<f32>, dim: usize) -> Self {
        if !centroids.is_empty() {
            assert!(dim > 0, "dim must be positive for non-empty centroids");
            assert_eq!(centroids.len() % dim, 0, "centroids not a multiple of dim");
        }
        CoarseQuantizer { dim, centroids }
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
        let mut r = row.to_vec();
        normalize(&mut r);
        nearest(&self.centroids, self.dim, &r).0
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

/// Index (and alignment) of the centroid most aligned with `row`; ties
/// break toward the lower index.
fn nearest(centroids: &[f32], dim: usize, row: &[f32]) -> (usize, f32) {
    let mut best = (0usize, f32::NEG_INFINITY);
    for (c, cent) in centroids.chunks(dim).enumerate() {
        let d = dot(cent, row);
        if d > best.1 {
            best = (c, d);
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
        CoarseQuantizer::train(
            &v,
            dim,
            &AnnConfig {
                nlist: 3,
                ..AnnConfig::default()
            },
        )
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

    #[test]
    fn empty_quantizer_is_inert() {
        let q = CoarseQuantizer::train(&[], 0, &AnnConfig::default());
        assert_eq!(q.nlist(), 0);
        assert!(q.rank(&[1.0]).is_empty());
        assert_eq!(q.assign(&[1.0]), 0);
        let one: Vec<f32> = vec![1.0];
        assert_eq!(q.rank_batch(&[&one]), vec![Vec::<usize>::new()]);
    }
}
