//! # sketchql-store
//!
//! The persistent embedding store behind SketchQL's index-backed search
//! path. The learned similarity embeds candidate clips independently of
//! the query (similarity is the cosine of separately-computed
//! embeddings), so candidate-window embeddings are query-agnostic: they
//! can be computed once at ingest time, persisted, and served to every
//! future query instead of being recomputed per search and thrown away at
//! process exit.
//!
//! One on-disk representation, the shard set (`<dataset>.skset/`):
//!
//! - [`manifest`]: the versioned JSON [`Manifest`] — dataset provenance
//!   and window grid, the shared coarse-quantizer centroids, and one
//!   entry per shard (file, frame range, checksum, rows per centroid).
//!   It is all a server parses to attach a dataset.
//! - [`shard`]: the checksummed binary columnar shard file ([`ShardData`]
//!   to write, [`LoadedShard`] to read: attach checks the header through
//!   an open file, verification reads the file once into owned columns).
//!   A whole video in one shard is simply a one-shard set.
//! - [`ann`]: the k-means [`CoarseQuantizer`] whose centroids partition
//!   the vectors into posting lists. Probing narrows the candidate set;
//!   callers re-rank the probed rows with the *exact* cosine, so any
//!   moment the index-backed path reports scores bit-identically to the
//!   full-scan path.
//! - [`format`](mod@format): the types every file shares — the typed
//!   [`StoreError`], [`StoreRow`], and the class-code table.
//!
//! The ingest pipeline itself (sliding-window enumeration + batched
//! embedding) lives in the core crate, which owns the window semantics;
//! this crate only persists and retrieves what ingest produces.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ann;
pub mod format;
pub mod manifest;
pub mod shard;

pub use ann::CoarseQuantizer;
pub use format::{StoreError, StoreRow};
pub use manifest::{
    hex_u64, parse_hex_u64, Manifest, ManifestShard, MANIFEST_FILE, MANIFEST_VERSION, SHARD_SET_EXT,
};
pub use shard::{LoadedShard, ShardData, ShardHeader, SHARD_EXT, SHARD_MAGIC, SHARD_VERSION};

/// Incremental FNV-1a 64-bit hasher.
///
/// Used both for the shard file checksum and (by the core crate) for the
/// model / index fingerprints recorded in the [`Manifest`]. FNV-1a is not
/// cryptographic; it guards against truncation, bit rot, and accidental
/// mismatches, not adversaries.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds an `f32` by bit pattern, so the hash is exact (no rounding).
    pub fn write_f32(&mut self, v: f32) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Reference values for the canonical FNV-1a 64 test strings.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = Fnv64::new();
        b.write_u32(2);
        b.write_u32(1);
        assert_ne!(a.finish(), b.finish());
    }
}

#[cfg(test)]
#[path = "../../../tests/support/mutants.rs"]
mod mutants;
