//! The shard-set manifest: one versioned JSON document tying a
//! directory of shards into a queryable store.
//!
//! The manifest is the only thing a server must parse to *attach* a
//! sharded dataset: it carries the dataset identity and ingest
//! configuration (fingerprints, video dimensions, the window grid), the
//! shared coarse-quantizer centroids, and one entry per shard — file
//! name, frame range, row count, checksum, and the number of rows each
//! shard holds per centroid. That last column is what
//! makes lazy probing cheap: a query ranks the shared centroids once
//! and skips (never maps, never loads) any shard with zero rows across
//! the probed lists.
//!
//! Exactness: JSON numbers travel as `f64`, which cannot represent a
//! full `u64` (fingerprints, checksums) and would round-trip `f32`
//! configuration through decimal. The manifest therefore stores 64-bit
//! hashes as fixed-width hex strings and every float by its `u32` bit
//! pattern, so a round trip is bit-identical — the same guarantee the
//! binary formats make.

use serde::{Deserialize, Serialize};
use std::path::Path;

use crate::StoreError;

/// Current manifest schema version.
pub const MANIFEST_VERSION: u32 = 1;

/// File name of the manifest inside a shard-set directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Extension carried by shard-set directories (`<dataset>.skset/`).
pub const SHARD_SET_EXT: &str = "skset";

/// One shard's entry in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestShard {
    /// Shard file name, relative to the shard-set directory.
    pub file: String,
    /// Position of this shard in the set (== index in `shards`).
    pub shard_id: u32,
    /// First frame this shard owns (inclusive).
    pub frame_start: u32,
    /// Last frame this shard owns (inclusive).
    pub frame_end: u32,
    /// Window rows stored in the shard.
    pub rows: u32,
    /// The shard file's trailing FNV-1a-64 checksum, as 16 hex digits.
    pub checksum: String,
    /// Rows this shard holds per shared-quantizer centroid
    /// (`list_rows[c]`, length == the set's `nlist`). Sums to `rows`.
    pub list_rows: Vec<u32>,
}

/// The shard-set manifest (see module docs for the exactness rules).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Ingest epoch: 0 for a from-scratch ingest, incremented by one on
    /// every committed `append_frames`. Readers detect a live append by
    /// watching this value (together with `frames`) change under the
    /// atomic manifest rename. Manifests written before epochs existed
    /// parse as epoch 0.
    pub epoch: u64,
    /// Dataset name the windows were cut from.
    pub dataset: String,
    /// Model fingerprint as 16 hex digits (see the core crate's
    /// `model_fingerprint`).
    pub model_fingerprint: String,
    /// Video-index fingerprint as 16 hex digits.
    pub index_fingerprint: String,
    /// Frames in the source video.
    pub frames: u32,
    /// `fps` by bit pattern.
    pub fps_bits: u32,
    /// `frame_width` by bit pattern.
    pub frame_width_bits: u32,
    /// `frame_height` by bit pattern.
    pub frame_height_bits: u32,
    /// Ingest `stride_frac` by bit pattern.
    pub stride_frac_bits: u32,
    /// Ingest `min_overlap_frac` by bit pattern.
    pub min_overlap_frac_bits: u32,
    /// Window lengths (frames) enumerated at ingest, sorted.
    pub window_lens: Vec<u32>,
    /// Embedding dimensionality.
    pub dim: u32,
    /// Frames per shard used at ingest (the last shard may own fewer).
    pub shard_frames: u32,
    /// Shared coarse-quantizer lists (== centroids).
    pub nlist: u32,
    /// Shared quantizer centroids, row-major `nlist × dim`, each `f32`
    /// by bit pattern.
    pub centroid_bits: Vec<u32>,
    /// One entry per shard, ordered by `shard_id`.
    pub shards: Vec<ManifestShard>,
}

/// Formats a `u64` as the fixed-width hex the manifest stores.
pub fn hex_u64(v: u64) -> String {
    format!("{v:016x}")
}

/// Parses a manifest hex field back to `u64`.
pub fn parse_hex_u64(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

impl Manifest {
    /// The model fingerprint, decoded.
    pub fn model_fp(&self) -> Option<u64> {
        parse_hex_u64(&self.model_fingerprint)
    }

    /// The index fingerprint, decoded.
    pub fn index_fp(&self) -> Option<u64> {
        parse_hex_u64(&self.index_fingerprint)
    }

    /// Shared quantizer centroids, decoded to floats.
    pub fn centroids(&self) -> Vec<f32> {
        self.centroid_bits
            .iter()
            .map(|&b| f32::from_bits(b))
            .collect()
    }

    /// Total rows across all shards.
    pub fn total_rows(&self) -> u64 {
        self.shards.iter().map(|s| u64::from(s.rows)).sum()
    }

    /// Structural validation: version, hex fields, centroid table shape,
    /// per-shard list columns, and contiguous frame coverage. `path`
    /// labels errors.
    pub fn validate(&self, path: &Path) -> Result<(), StoreError> {
        let bad = |detail: String| StoreError::BadHeader {
            path: path.to_path_buf(),
            detail,
        };
        if self.version != MANIFEST_VERSION {
            return Err(StoreError::UnsupportedVersion {
                path: path.to_path_buf(),
                found: self.version,
            });
        }
        if self.model_fp().is_none() || self.index_fp().is_none() {
            return Err(bad("fingerprint is not 16 hex digits".into()));
        }
        if self.centroid_bits.len() != self.nlist as usize * self.dim as usize {
            return Err(bad(format!(
                "centroid table has {} values, expected nlist {} × dim {}",
                self.centroid_bits.len(),
                self.nlist,
                self.dim
            )));
        }
        if self.shard_frames == 0 && self.frames > 0 {
            return Err(bad("shard_frames is zero".into()));
        }
        let mut next_frame = 0u32;
        for (i, s) in self.shards.iter().enumerate() {
            if s.shard_id as usize != i {
                return Err(bad(format!(
                    "shard entry {i} carries shard_id {}",
                    s.shard_id
                )));
            }
            if s.list_rows.len() != self.nlist as usize {
                return Err(bad(format!(
                    "shard {i} has {} list counts, expected nlist {}",
                    s.list_rows.len(),
                    self.nlist
                )));
            }
            if s.list_rows.iter().map(|&r| u64::from(r)).sum::<u64>() != u64::from(s.rows) {
                return Err(bad(format!(
                    "shard {i} list counts do not sum to its {} rows",
                    s.rows
                )));
            }
            if parse_hex_u64(&s.checksum).is_none() {
                return Err(bad(format!("shard {i} checksum is not 16 hex digits")));
            }
            if s.frame_start != next_frame || s.frame_end < s.frame_start {
                return Err(bad(format!(
                    "shard {i} covers frames {}..={} (expected to start at {next_frame})",
                    s.frame_start, s.frame_end
                )));
            }
            next_frame = s.frame_end.checked_add(1).ok_or_else(|| {
                bad(format!(
                    "shard {i} ends past the last frame a manifest can count"
                ))
            })?;
        }
        if self.frames > 0 && next_frame != self.frames {
            return Err(bad(format!(
                "shards cover frames 0..{next_frame} but the video has {}",
                self.frames
            )));
        }
        Ok(())
    }

    /// Serializes to the manifest JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("manifest structs always serialize")
    }

    /// Parses and validates a manifest document; `path` labels errors.
    ///
    /// Fields added after the format shipped (`epoch`) are defaulted
    /// when absent so manifests written by older builds keep parsing;
    /// a manifest declaring a *newer* `version` is still rejected with
    /// [`StoreError::UnsupportedVersion`] by `validate`.
    pub fn from_json(path: &Path, json: &str) -> Result<Self, StoreError> {
        let bad = |detail: String| StoreError::BadHeader {
            path: path.to_path_buf(),
            detail,
        };
        let mut value: serde::Value =
            serde_json::from_str(json).map_err(|e| bad(format!("manifest parse error: {e}")))?;
        if let serde::Value::Obj(fields) = &mut value {
            if !fields.iter().any(|(k, _)| k == "epoch") {
                fields.push(("epoch".to_string(), serde::Value::Num(0.0)));
            }
        }
        let manifest =
            Manifest::from_value(&value).map_err(|e| bad(format!("manifest parse error: {e}")))?;
        manifest.validate(path)?;
        Ok(manifest)
    }

    /// Writes the manifest into `dir` (atomically: temp file + rename).
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        let path = dir.join(MANIFEST_FILE);
        let io = |source| StoreError::Io {
            path: path.clone(),
            source,
        };
        std::fs::create_dir_all(dir).map_err(io)?;
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json()).map_err(io)?;
        std::fs::rename(&tmp, &path).map_err(io)
    }

    /// Reads and validates the manifest of a shard-set directory.
    pub fn load(dir: &Path) -> Result<Self, StoreError> {
        let path = dir.join(MANIFEST_FILE);
        let json = std::fs::read_to_string(&path).map_err(|source| StoreError::Io {
            path: path.clone(),
            source,
        })?;
        Self::from_json(&path, &json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            epoch: 3,
            dataset: "traffic/one".into(),
            model_fingerprint: hex_u64(0xdead_beef_0123_4567),
            index_fingerprint: hex_u64(u64::MAX - 3),
            frames: 300,
            fps_bits: 30.0f32.to_bits(),
            frame_width_bits: 1280.0f32.to_bits(),
            frame_height_bits: 720.0f32.to_bits(),
            stride_frac_bits: 0.25f32.to_bits(),
            min_overlap_frac_bits: 0.5f32.to_bits(),
            window_lens: vec![67, 90],
            dim: 2,
            shard_frames: 150,
            nlist: 2,
            centroid_bits: vec![
                1.0f32.to_bits(),
                0.0f32.to_bits(),
                (-0.0f32).to_bits(),
                f32::MIN_POSITIVE.to_bits(),
            ],
            shards: vec![
                ManifestShard {
                    file: "shard-0000.skshard".into(),
                    shard_id: 0,
                    frame_start: 0,
                    frame_end: 149,
                    rows: 3,
                    checksum: hex_u64(0x0123_4567_89ab_cdef),
                    list_rows: vec![1, 2],
                },
                ManifestShard {
                    file: "shard-0001.skshard".into(),
                    shard_id: 1,
                    frame_start: 150,
                    frame_end: 299,
                    rows: 0,
                    checksum: hex_u64(u64::MAX),
                    list_rows: vec![0, 0],
                },
            ],
        }
    }

    #[test]
    fn round_trip_preserves_every_bit() {
        let m = sample();
        let back = Manifest::from_json(Path::new("mem"), &m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.model_fp(), Some(0xdead_beef_0123_4567));
        assert_eq!(back.index_fp(), Some(u64::MAX - 3));
        // Bit-exact floats, including negative zero and subnormals.
        assert_eq!(back.centroids()[2].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn u64_extremes_survive_json() {
        // The whole reason fingerprints are hex strings: f64 JSON numbers
        // lose bits above 2^53.
        for v in [u64::MAX, u64::MAX - 1, (1 << 53) + 1, 0] {
            assert_eq!(parse_hex_u64(&hex_u64(v)), Some(v));
        }
        assert_eq!(parse_hex_u64("zz"), None);
        assert_eq!(parse_hex_u64(""), None);
    }

    #[test]
    fn pre_epoch_manifest_parses_as_epoch_zero() {
        // A manifest written before the epoch field existed: strip the
        // key from a serialized document and re-parse.
        let m = sample();
        let json = m.to_json();
        let stripped = {
            let mut v: serde::Value = serde_json::from_str(&json).unwrap();
            if let serde::Value::Obj(fields) = &mut v {
                fields.retain(|(k, _)| k != "epoch");
            }
            serde_json::to_string(&v).unwrap()
        };
        assert!(!stripped.contains("epoch"));
        let back = Manifest::from_json(Path::new("mem"), &stripped).unwrap();
        assert_eq!(back.epoch, 0);
        assert_eq!(back.shards, m.shards);
    }

    #[test]
    fn newer_manifest_version_is_a_typed_error() {
        // Version skew must surface as UnsupportedVersion (typed, with
        // the declared version), not a parse panic or a silent misread.
        let mut m = sample();
        m.version = MANIFEST_VERSION + 1;
        let json = m.to_json();
        match Manifest::from_json(Path::new("mem"), &json) {
            Err(StoreError::UnsupportedVersion { found, .. }) => {
                assert_eq!(found, MANIFEST_VERSION + 1);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("skql-manifest-{}", std::process::id()));
        let m = sample();
        m.save(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validation_rejects_structural_damage() {
        let path = Path::new("m");
        let mut m = sample();
        m.shards[1].frame_start = 151; // gap in coverage
        assert!(m.validate(path).is_err());

        let mut m = sample();
        m.shards[0].list_rows = vec![1]; // wrong nlist width
        assert!(m.validate(path).is_err());

        let mut m = sample();
        m.shards[0].list_rows = vec![1, 5]; // doesn't sum to rows
        assert!(m.validate(path).is_err());

        let mut m = sample();
        m.centroid_bits.pop(); // wrong centroid table shape
        assert!(m.validate(path).is_err());

        let mut m = sample();
        m.model_fingerprint = "nope".into();
        assert!(m.validate(path).is_err());

        let mut m = sample();
        m.version += 1;
        assert!(matches!(
            m.validate(path),
            Err(StoreError::UnsupportedVersion { .. })
        ));
    }

    /// Hostile manifests never panic the loader: the golden manifest cut
    /// at every byte, then 2 000 seeded mutants, each parsed and
    /// validated to `Ok` or `Err`.
    #[test]
    fn damaged_manifest_is_an_error_not_a_panic() {
        // Found by the loop below: a 30-digit `frame_end` saturates to
        // `u32::MAX`, the one end the coverage walk cannot step past.
        let mut m = sample();
        m.shards[1].frame_end = u32::MAX;
        assert!(Manifest::from_json(Path::new("m"), &m.to_json()).is_err());

        let golden = sample().to_json();
        crate::mutants::never_panics(golden.as_bytes(), 2_000, 0x3a11, |bytes| {
            let json = String::from_utf8_lossy(bytes);
            if let Ok(m) = Manifest::from_json(Path::new("m"), &json) {
                m.validate(Path::new("m")).unwrap();
            }
        });
    }
}
