//! Types every store file shares: the typed [`StoreError`], the
//! per-window [`StoreRow`] columns, and the class-code table.
//!
//! Class codes: `0` is [`ObjectClass::Any`]; `1 + i` is
//! `ObjectClass::CONCRETE[i]`. Codes outside that table are rejected at
//! load (`StoreError::BadClass`), so a store written by a future class
//! table never silently mislabels rows.

use sketchql_trajectory::{ObjectClass, TrackId};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Errors reading or writing a store file. Every variant names the file
/// it concerns, so a corrupt store in a directory of many is identifiable
/// from the error alone. Cloning is cheap (the I/O source is shared), so a
/// sticky error can be handed to every caller that asks.
#[derive(Debug, Clone)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io {
        /// File being read or written.
        path: PathBuf,
        /// The originating I/O error.
        source: Arc<std::io::Error>,
    },
    /// The file does not start with its format's magic bytes — not a
    /// store file at all.
    BadMagic {
        /// Offending file.
        path: PathBuf,
    },
    /// The file's format version is not one this build reads (see
    /// `SHARD_VERSION` and `MANIFEST_VERSION`).
    UnsupportedVersion {
        /// Offending file.
        path: PathBuf,
        /// Version found in the header.
        found: u32,
    },
    /// The file ended before the layout said it should (a truncated or
    /// half-written store).
    Truncated {
        /// Offending file.
        path: PathBuf,
        /// What was being read when the bytes ran out.
        detail: String,
    },
    /// The trailing checksum does not match the file contents (bit rot or
    /// a torn write).
    ChecksumMismatch {
        /// Offending file.
        path: PathBuf,
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum computed over the payload actually read.
        found: u64,
    },
    /// A class column byte is outside the known class-code table.
    BadClass {
        /// Offending file.
        path: PathBuf,
        /// The unknown code.
        code: u8,
    },
    /// The header is internally inconsistent (e.g. a non-UTF-8 dataset
    /// name or an implausible column length).
    BadHeader {
        /// Offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
}

impl StoreError {
    /// Wraps an I/O error on `path`, for `map_err`.
    pub(crate) fn io(path: &Path) -> impl Fn(std::io::Error) -> StoreError + Copy + '_ {
        move |source| StoreError::Io {
            path: path.to_path_buf(),
            source: source.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store {}: {source}", path.display())
            }
            StoreError::BadMagic { path } => {
                write!(f, "store {}: not a SketchQL store (bad magic)", path.display())
            }
            StoreError::UnsupportedVersion { path, found } => write!(
                f,
                "store {}: unsupported format version {found}",
                path.display()
            ),
            StoreError::Truncated { path, detail } => {
                write!(f, "store {}: truncated while reading {detail}", path.display())
            }
            StoreError::ChecksumMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "store {}: checksum mismatch (file says {expected:#018x}, payload hashes to {found:#018x})",
                path.display()
            ),
            StoreError::BadClass { path, code } => {
                write!(f, "store {}: unknown object-class code {code}", path.display())
            }
            StoreError::BadHeader { path, detail } => {
                write!(f, "store {}: bad header: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(&**source),
            _ => None,
        }
    }
}

/// One stored window's metadata columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRow {
    /// The track sliced into this window.
    pub track_id: TrackId,
    /// The track's object class.
    pub class: ObjectClass,
    /// First frame of the window (inclusive).
    pub start: u32,
    /// Last frame of the window (inclusive).
    pub end: u32,
}

/// Encodes a class for the class column (see module docs).
pub(crate) fn class_code(c: ObjectClass) -> u8 {
    match ObjectClass::CONCRETE.iter().position(|&k| k == c) {
        Some(i) => (i + 1) as u8,
        None => 0, // Any
    }
}

/// Decodes a class-column byte; `None` for unknown codes.
pub(crate) fn class_from_code(code: u8) -> Option<ObjectClass> {
    match code {
        0 => Some(ObjectClass::Any),
        i => ObjectClass::CONCRETE.get(i as usize - 1).copied(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_concrete_class_round_trips() {
        for (i, &c) in ObjectClass::CONCRETE.iter().enumerate() {
            assert_eq!(class_from_code(class_code(c)), Some(c), "class {i}");
        }
        assert_eq!(
            class_from_code(class_code(ObjectClass::Any)),
            Some(ObjectClass::Any)
        );
        assert_eq!(class_from_code(200), None);
    }
}
