//! The on-disk shard format: one frame-range segment of a shard set.
//!
//! A shard set splits a dataset's window rows into frame-range
//! shards; each shard is a self-contained columnar file carrying its own
//! rows, vectors, posting lists (against the shard set's *shared*
//! coarse quantizer), and trailing checksum. The set-level metadata —
//! dataset identity, fingerprints, quantizer centroids, per-shard
//! checksums — lives in the manifest ([`crate::manifest`]). Reading a
//! shard is two steps: [`LoadedShard::map`] maps the file and checks its
//! fixed-size header and its length (attach: no payload page is touched),
//! and [`LoadedShard::verify`] checksums and decodes the mapped bytes
//! (first probe). A mapping pins the file's inode, so a mapped shard
//! stays readable after its name is unlinked.
//!
//! Layout (all little-endian; floats by bit pattern):
//!
//! ```text
//! magic        8 bytes   "SKQLSHRD"
//! version      u32       SHARD_VERSION
//! shard_id     u32       position in the shard set
//! frame_start  u32       first frame this shard owns (inclusive)
//! frame_end    u32       last frame this shard owns (inclusive)
//! rows         u32       n, number of window rows
//! dim          u32       embedding dimensionality
//! nlist        u32       posting lists (== shared quantizer centroids)
//! pad          zeros     to byte 64
//! track_ids    n × u64                       (8-byte aligned)
//! starts       n × u32
//! ends         n × u32
//! classes      n × u8    (format.rs class-code table)
//! pad          zeros     to a 4-byte boundary
//! list_lens    nlist × u32                   rows per posting list
//! list_rows    n × u32   concatenated posting lists (local row ids)
//! vectors      n × dim × f32                 (4-byte aligned)
//! checksum     u64       FNV-1a 64 over every preceding byte
//! ```
//!
//! Column offsets are a pure function of `(rows, dim, nlist)`, and every
//! multi-byte column starts aligned to its element size, so a
//! little-endian host reads the vector column zero-copy straight out of
//! the mapping. Hosts where that doesn't hold (big-endian, or an owned
//! fallback buffer that happens to be misaligned) decode the column once
//! into an owned buffer — same values, same bits.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sketchql_trajectory::{ObjectClass, TrackId};

use crate::format::{class_code, class_from_code};
use crate::mmap::Mmap;
use crate::{Fnv64, StoreError, StoreRow};

/// Magic bytes opening every shard file.
pub const SHARD_MAGIC: [u8; 8] = *b"SKQLSHRD";

/// Current shard format version; bumped on incompatible layout changes.
pub const SHARD_VERSION: u32 = 1;

/// Extension shard files carry inside a shard-set directory.
pub const SHARD_EXT: &str = "skshard";

/// Bytes of the fixed shard header (magic through padding).
pub const SHARD_HEADER_LEN: usize = 64;

/// The fixed-size shard header: everything attach-time validation needs
/// without touching the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHeader {
    /// Position of this shard in its set.
    pub shard_id: u32,
    /// First frame this shard owns (inclusive).
    pub frame_start: u32,
    /// Last frame this shard owns (inclusive).
    pub frame_end: u32,
    /// Number of window rows stored.
    pub rows: u32,
    /// Embedding dimensionality.
    pub dim: u32,
    /// Number of posting lists (the shard set's shared `nlist`).
    pub nlist: u32,
}

/// Byte offsets of each section, derived from the header alone.
#[derive(Debug, Clone, Copy)]
struct Offsets {
    track_ids: usize,
    starts: usize,
    ends: usize,
    classes: usize,
    list_lens: usize,
    list_rows: usize,
    vectors: usize,
    /// Total file length including the trailing checksum.
    total: usize,
}

impl ShardHeader {
    fn offsets(&self) -> Offsets {
        let n = self.rows as usize;
        let track_ids = SHARD_HEADER_LEN;
        let starts = track_ids + n * 8;
        let ends = starts + n * 4;
        let classes = ends + n * 4;
        let unpadded = classes + n;
        let list_lens = unpadded + (4 - unpadded % 4) % 4;
        let list_rows = list_lens + self.nlist as usize * 4;
        let vectors = list_rows + n * 4;
        let total = vectors + n * self.dim as usize * 4 + 8;
        Offsets {
            track_ids,
            starts,
            ends,
            classes,
            list_lens,
            list_rows,
            vectors,
            total,
        }
    }

    /// Total file length a well-formed shard with this header must have.
    pub fn expected_len(&self) -> usize {
        self.offsets().total
    }

    fn to_bytes(self) -> [u8; SHARD_HEADER_LEN] {
        let mut out = [0u8; SHARD_HEADER_LEN];
        out[..8].copy_from_slice(&SHARD_MAGIC);
        out[8..12].copy_from_slice(&SHARD_VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&self.shard_id.to_le_bytes());
        out[16..20].copy_from_slice(&self.frame_start.to_le_bytes());
        out[20..24].copy_from_slice(&self.frame_end.to_le_bytes());
        out[24..28].copy_from_slice(&self.rows.to_le_bytes());
        out[28..32].copy_from_slice(&self.dim.to_le_bytes());
        out[32..36].copy_from_slice(&self.nlist.to_le_bytes());
        out
    }

    fn from_bytes(path: &Path, bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < SHARD_HEADER_LEN {
            return Err(StoreError::Truncated {
                path: path.to_path_buf(),
                detail: format!(
                    "shard header (need {SHARD_HEADER_LEN} bytes, file has {})",
                    bytes.len()
                ),
            });
        }
        if bytes[..8] != SHARD_MAGIC {
            return Err(StoreError::BadMagic {
                path: path.to_path_buf(),
            });
        }
        let u32_at = |off: usize| {
            u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
        };
        let version = u32_at(8);
        if version != SHARD_VERSION {
            return Err(StoreError::UnsupportedVersion {
                path: path.to_path_buf(),
                found: version,
            });
        }
        let header = ShardHeader {
            shard_id: u32_at(12),
            frame_start: u32_at(16),
            frame_end: u32_at(20),
            rows: u32_at(24),
            dim: u32_at(28),
            nlist: u32_at(32),
        };
        // Column offsets are `usize` sums: a header implying more bytes
        // than an address space holds describes no file, and its sums
        // would overflow.
        let (n, dim) = (u128::from(header.rows), u128::from(header.dim));
        if n * (21 + 4 * dim) + 4 * u128::from(header.nlist) + 75 > isize::MAX as u128 {
            return Err(StoreError::BadHeader {
                path: path.to_path_buf(),
                detail: format!(
                    "{} rows of {} dims cannot be mapped",
                    header.rows, header.dim
                ),
            });
        }
        Ok(header)
    }
}

/// An in-memory shard being built: rows + vectors + posting lists.
/// Serialize with [`ShardData::save`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardData {
    /// Position of this shard in its set.
    pub shard_id: u32,
    /// First frame this shard owns (inclusive).
    pub frame_start: u32,
    /// Last frame this shard owns (inclusive).
    pub frame_end: u32,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Window rows, in enumeration order.
    pub rows: Vec<StoreRow>,
    /// Flat row-major vectors (`rows.len() × dim`).
    pub vectors: Vec<f32>,
    /// Posting lists against the shared quantizer: `lists[c]` holds the
    /// local row ids assigned to centroid `c`. Every row appears exactly
    /// once across all lists.
    pub lists: Vec<Vec<u32>>,
}

impl ShardData {
    fn header(&self) -> ShardHeader {
        ShardHeader {
            shard_id: self.shard_id,
            frame_start: self.frame_start,
            frame_end: self.frame_end,
            rows: self.rows.len() as u32,
            dim: self.dim as u32,
            nlist: self.lists.len() as u32,
        }
    }

    /// Serializes the shard to its binary layout (see module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = self.header();
        let off = header.offsets();
        let mut out = Vec::with_capacity(off.total);
        out.extend_from_slice(&header.to_bytes());
        for r in &self.rows {
            out.extend_from_slice(&r.track_id.to_le_bytes());
        }
        for r in &self.rows {
            out.extend_from_slice(&r.start.to_le_bytes());
        }
        for r in &self.rows {
            out.extend_from_slice(&r.end.to_le_bytes());
        }
        for r in &self.rows {
            out.push(class_code(r.class));
        }
        out.resize(off.list_lens, 0);
        for list in &self.lists {
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
        }
        for list in &self.lists {
            for &row in list {
                out.extend_from_slice(&row.to_le_bytes());
            }
        }
        debug_assert_eq!(out.len(), off.vectors);
        for &v in &self.vectors {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let mut h = Fnv64::new();
        h.write(&out);
        out.extend_from_slice(&h.finish().to_le_bytes());
        debug_assert_eq!(out.len(), off.total);
        out
    }

    /// Writes the shard to `path` (atomically: temp file + rename) and
    /// returns its checksum for the manifest.
    pub fn save(&self, path: &Path) -> Result<u64, StoreError> {
        let io = |source| StoreError::Io {
            path: path.to_path_buf(),
            source,
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(io)?;
            }
        }
        let bytes = self.to_bytes();
        let checksum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)?;
        Ok(checksum)
    }
}

/// A verified shard: the mapping (shared with whoever mapped it at
/// attach) plus decoded metadata columns and posting lists. The vector
/// column stays in the mapping (zero-copy) on little-endian hosts with an
/// aligned base; otherwise it is decoded once into `vectors_owned`.
#[derive(Debug)]
pub struct LoadedShard {
    path: PathBuf,
    map: Arc<Mmap>,
    header: ShardHeader,
    track_ids: Vec<TrackId>,
    classes: Vec<ObjectClass>,
    starts: Vec<u32>,
    ends: Vec<u32>,
    lists: Vec<Vec<u32>>,
    vectors_off: usize,
    vectors_owned: Option<Vec<f32>>,
}

impl LoadedShard {
    /// Step one, attach: maps `path` and validates the 64-byte header
    /// (magic, version) and that the file is exactly as long as the
    /// header implies — from the mapped bytes, touching no payload page.
    /// The file is closed again; the mapping keeps its inode alive. (On a
    /// host without `mmap`, [`Mmap`]'s owned fallback reads the whole file
    /// here instead.)
    pub fn map(path: &Path) -> Result<(Arc<Mmap>, ShardHeader), StoreError> {
        let map = Mmap::open(path).map_err(|source| StoreError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let header = Self::checked_header(path, &map)?;
        Ok((Arc::new(map), header))
    }

    /// The header of a mapped shard whose length is what it implies.
    fn checked_header(path: &Path, map: &Mmap) -> Result<ShardHeader, StoreError> {
        let header = ShardHeader::from_bytes(path, map)?;
        let expected = header.expected_len();
        if map.len() != expected {
            return Err(StoreError::Truncated {
                path: path.to_path_buf(),
                detail: format!(
                    "shard payload (header implies {expected} bytes, file has {})",
                    map.len()
                ),
            });
        }
        Ok(header)
    }

    /// Step two, first probe: verifies the full checksum of a mapped shard
    /// (this is the deferred integrity pass — a flipped byte anywhere in
    /// the file fails here, naming the shard), optionally cross-checks the
    /// checksum recorded in the manifest, and decodes the metadata
    /// columns. `path` only names the shard in errors: the bytes are the
    /// map's, so this works after the file is unlinked.
    pub fn verify(
        path: &Path,
        map: Arc<Mmap>,
        manifest_checksum: Option<u64>,
    ) -> Result<Self, StoreError> {
        let header = Self::checked_header(path, &map)?;
        let off = header.offsets();
        let payload = &map[..off.total - 8];
        let stored = u64::from_le_bytes(map[off.total - 8..].try_into().unwrap());
        let mut h = Fnv64::new();
        h.write(payload);
        let found = h.finish();
        if found != stored {
            return Err(StoreError::ChecksumMismatch {
                path: path.to_path_buf(),
                expected: stored,
                found,
            });
        }
        if let Some(expected) = manifest_checksum {
            if expected != stored {
                return Err(StoreError::BadHeader {
                    path: path.to_path_buf(),
                    detail: format!(
                        "shard checksum {stored:#018x} does not match manifest {expected:#018x}"
                    ),
                });
            }
        }

        let n = header.rows as usize;
        let u32s = |at: usize, count: usize| -> Vec<u32> {
            (0..count)
                .map(|i| {
                    let o = at + i * 4;
                    u32::from_le_bytes(map[o..o + 4].try_into().unwrap())
                })
                .collect()
        };
        let track_ids: Vec<TrackId> = (0..n)
            .map(|i| {
                let o = off.track_ids + i * 8;
                u64::from_le_bytes(map[o..o + 8].try_into().unwrap())
            })
            .collect();
        let starts = u32s(off.starts, n);
        let ends = u32s(off.ends, n);
        let mut classes = Vec::with_capacity(n);
        for i in 0..n {
            let code = map[off.classes + i];
            classes.push(class_from_code(code).ok_or(StoreError::BadClass {
                path: path.to_path_buf(),
                code,
            })?);
        }
        let lens = u32s(off.list_lens, header.nlist as usize);
        let mut lists = Vec::with_capacity(header.nlist as usize);
        let mut cursor = off.list_rows;
        let mut assigned = 0usize;
        for &len in &lens {
            let len = len as usize;
            assigned += len;
            if assigned > n {
                return Err(StoreError::BadHeader {
                    path: path.to_path_buf(),
                    detail: format!("posting lists assign {assigned} rows but shard has {n}"),
                });
            }
            lists.push(u32s(cursor, len));
            cursor += len * 4;
        }
        if assigned != n {
            return Err(StoreError::BadHeader {
                path: path.to_path_buf(),
                detail: format!("posting lists assign {assigned} rows but shard has {n}"),
            });
        }
        for list in &lists {
            if list.iter().any(|&r| r as usize >= n) {
                return Err(StoreError::BadHeader {
                    path: path.to_path_buf(),
                    detail: "posting list references a row beyond the shard".into(),
                });
            }
        }

        // Zero-copy vector column where bit layout allows; decode once
        // otherwise. Either way `vector(i)` returns the same bits.
        let zero_copy = cfg!(target_endian = "little")
            && (map.as_ptr() as usize + off.vectors).is_multiple_of(std::mem::align_of::<f32>());
        let vectors_owned = if zero_copy {
            None
        } else {
            Some(
                (0..n * header.dim as usize)
                    .map(|i| {
                        let o = off.vectors + i * 4;
                        f32::from_bits(u32::from_le_bytes(map[o..o + 4].try_into().unwrap()))
                    })
                    .collect(),
            )
        };

        Ok(LoadedShard {
            path: path.to_path_buf(),
            map,
            header,
            track_ids,
            classes,
            starts,
            ends,
            lists,
            vectors_off: off.vectors,
            vectors_owned,
        })
    }

    /// [`map`](Self::map) then [`verify`](Self::verify): the whole read
    /// in one call, for readers with nothing to defer.
    pub fn open(path: &Path, manifest_checksum: Option<u64>) -> Result<Self, StoreError> {
        let (map, _) = Self::map(path)?;
        Self::verify(path, map, manifest_checksum)
    }

    /// The shard's header.
    pub fn header(&self) -> &ShardHeader {
        &self.header
    }

    /// The file this shard was loaded from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.track_ids.len()
    }

    /// Whether the shard holds no rows.
    pub fn is_empty(&self) -> bool {
        self.track_ids.is_empty()
    }

    /// Metadata of local row `i`.
    pub fn row(&self, i: usize) -> StoreRow {
        StoreRow {
            track_id: self.track_ids[i],
            class: self.classes[i],
            start: self.starts[i],
            end: self.ends[i],
        }
    }

    /// Vector of local row `i`, bit-identical to what was ingested.
    pub fn vector(&self, i: usize) -> &[f32] {
        let dim = self.header.dim as usize;
        match &self.vectors_owned {
            Some(v) => &v[i * dim..(i + 1) * dim],
            None => {
                let start = self.vectors_off + i * dim * 4;
                let bytes = &self.map[start..start + dim * 4];
                // SAFETY: offset alignment was checked at load (the
                // owned fallback handles the misaligned case), the range
                // is in bounds, and f32 has no invalid bit patterns.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const f32, dim) }
            }
        }
    }

    /// Local row ids assigned to centroid `c` (empty when `c` is out of
    /// range — a shard never has rows for a centroid it never saw).
    pub fn list(&self, c: usize) -> &[u32] {
        self.lists.get(c).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_shard() -> ShardData {
        let rows = vec![
            StoreRow {
                track_id: 7,
                class: ObjectClass::Car,
                start: 0,
                end: 89,
            },
            StoreRow {
                track_id: u64::MAX,
                class: ObjectClass::Any,
                start: 30,
                end: 119,
            },
            StoreRow {
                track_id: 9,
                class: ObjectClass::Person,
                start: 60,
                end: 149,
            },
        ];
        ShardData {
            shard_id: 2,
            frame_start: 0,
            frame_end: 149,
            dim: 3,
            rows,
            vectors: vec![
                0.5,
                -1.0,
                f32::MIN_POSITIVE,
                -0.0,
                3.25,
                1.0e-38,
                0.1,
                0.2,
                0.3,
            ],
            lists: vec![vec![1], vec![], vec![0, 2]],
        }
    }

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "skql-shard-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let shard = sample_shard();
        let path = temp_dir().join("rt.skshard");
        let checksum = shard.save(&path).unwrap();

        let (_, header) = LoadedShard::map(&path).unwrap();
        assert_eq!(header.shard_id, 2);
        assert_eq!(header.rows, 3);
        assert_eq!(header.nlist, 3);

        let loaded = LoadedShard::open(&path, Some(checksum)).unwrap();
        assert_eq!(loaded.len(), 3);
        for (i, row) in shard.rows.iter().enumerate() {
            assert_eq!(loaded.row(i), *row);
            let want: Vec<u32> = shard.vectors[i * 3..(i + 1) * 3]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let got: Vec<u32> = loaded.vector(i).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "row {i}");
        }
        for c in 0..3 {
            assert_eq!(loaded.list(c), shard.lists[c].as_slice());
        }
        assert!(loaded.list(99).is_empty());
    }

    #[test]
    fn every_flipped_byte_fails_loudly_with_the_path() {
        let shard = sample_shard();
        let dir = temp_dir();
        let good = shard.to_bytes();
        // Flip every byte of the file, one at a time: each corruption
        // must be rejected (magic/version/size/checksum/class — any
        // loud error will do) and the error must name the shard file.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            let path = dir.join("flip.skshard");
            std::fs::write(&path, &bad).unwrap();
            let err = LoadedShard::open(&path, None)
                .err()
                .unwrap_or_else(|| panic!("flipped byte {i} was accepted"));
            assert!(
                err.to_string().contains("flip.skshard"),
                "error for byte {i} does not name the shard: {err}"
            );
        }
    }

    #[test]
    fn truncation_is_detected_by_header_validation_alone() {
        let shard = sample_shard();
        let bytes = shard.to_bytes();
        let dir = temp_dir();
        let path = dir.join("trunc.skshard");
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        // The attach step alone — map, header, length; the checksum pass
        // that would read the payload never runs.
        let err = LoadedShard::map(&path).unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
        assert!(err.to_string().contains("trunc.skshard"));
    }

    #[test]
    fn manifest_checksum_mismatch_is_rejected() {
        let shard = sample_shard();
        let path = temp_dir().join("manifest.skshard");
        let checksum = shard.save(&path).unwrap();
        let err = LoadedShard::open(&path, Some(checksum ^ 1)).unwrap_err();
        assert!(err.to_string().contains("manifest"), "{err}");
    }

    #[test]
    fn empty_shard_round_trips() {
        let shard = ShardData {
            shard_id: 0,
            frame_start: 0,
            frame_end: 0,
            dim: 4,
            rows: Vec::new(),
            vectors: Vec::new(),
            lists: vec![Vec::new(); 5],
        };
        let path = temp_dir().join("empty.skshard");
        shard.save(&path).unwrap();
        let loaded = LoadedShard::open(&path, None).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.header().nlist, 5);
    }

    #[test]
    fn posting_list_overflow_is_rejected() {
        // A list-length column claiming more rows than the shard has
        // must not pass validation even when the checksum is restamped
        // to be consistent with the damage.
        let shard = sample_shard();
        let mut bytes = shard.to_bytes();
        // list_lens starts after the padded metadata columns: n=3 rows.
        let n = 3usize;
        let unpadded = SHARD_HEADER_LEN + n * 8 + n * 4 + n * 4 + n;
        let list_lens = unpadded + (4 - unpadded % 4) % 4;
        bytes[list_lens..list_lens + 4].copy_from_slice(&3u32.to_le_bytes()); // was 1
        let payload = bytes.len() - 8;
        let mut h = Fnv64::new();
        h.write(&bytes[..payload]);
        let sum = h.finish().to_le_bytes();
        bytes[payload..].copy_from_slice(&sum);
        let path = temp_dir().join("overflow.skshard");
        std::fs::write(&path, &bytes).unwrap();
        let err = LoadedShard::open(&path, None).unwrap_err();
        assert!(err.to_string().contains("posting lists"), "{err}");
    }

    /// Hostile shard files never panic the reader: a written shard cut at
    /// every byte, then 2 000 seeded mutants, each opened and verified to
    /// `Ok` or `Err`.
    #[test]
    fn damaged_shard_is_an_error_not_a_panic() {
        let path = temp_dir().join("mutant.skshard");
        // A header whose rows × dim is past any file's length.
        let mut huge = sample_shard().to_bytes();
        huge[24..32].copy_from_slice(&[0xff; 8]);
        std::fs::write(&path, &huge).unwrap();
        assert!(LoadedShard::open(&path, None).is_err());

        crate::mutants::never_panics(&sample_shard().to_bytes(), 2_000, 0x5a4d, |bytes| {
            std::fs::write(&path, bytes).unwrap();
            let _ = LoadedShard::open(&path, None);
        });
    }
}
