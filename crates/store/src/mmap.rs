//! A minimal read-only memory-map wrapper.
//!
//! Shards are mapped, not read: attaching a sharded store maps every
//! shard and touches only its header page, the kernel pages vector data
//! in on first probe, and — the file descriptor being closed again — the
//! mapping is what keeps an unlinked shard readable. This is the one
//! place in the workspace that calls `mmap` directly — no
//! external crate, just the two libc symbols declared here (the process
//! already links libc on every supported unix target).
//!
//! Safety model: the mapping is `PROT_READ` + `MAP_PRIVATE` over a file
//! we opened, and the length is captured at map time. The [`Mmap`] owns
//! the mapping for its whole lifetime (`munmap` on drop), hands out only
//! `&[u8]`, and is `Send + Sync` because the pages are never written
//! through it. A concurrent writer truncating the file can still fault a
//! reader — the store layout prevents that by writing shards atomically
//! (temp file + rename) and never mutating them in place.
//!
//! Non-unix targets (and empty files, for which `mmap` is ill-defined)
//! fall back to reading the file into an owned buffer; callers see the
//! same `&[u8]` either way. That is the one path such a host has: the
//! whole file is read where a unix host maps it — at attach — and
//! nothing is deferred.

use std::fs::File;
use std::io::Read;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A read-only byte view of a file, memory-mapped where the platform
/// allows and heap-backed otherwise. Deref to `&[u8]`.
#[derive(Debug)]
pub struct Mmap {
    state: State,
}

#[derive(Debug)]
enum State {
    /// A live `mmap` region: base pointer + mapped length.
    #[cfg(unix)]
    Mapped { ptr: *mut u8, len: usize },
    /// Owned fallback (empty files, non-unix targets, or `mmap` failure).
    Owned(Vec<u8>),
}

// SAFETY: the mapping is read-only for its whole lifetime; `&[u8]` views
// of immutable pages are safe to share and send across threads.
#[cfg(unix)]
unsafe impl Send for Mmap {}
// SAFETY: as for `Send`: nothing writes through the pointer, so shared
// `&[u8]` views from several threads never race.
#[cfg(unix)]
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `path` read-only. The returned view is valid for the life of
    /// the `Mmap` even if the `File` used to create it is closed.
    pub fn open(path: &Path) -> std::io::Result<Mmap> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large to map")
        })?;
        if len == 0 {
            return Ok(Mmap {
                state: State::Owned(Vec::new()),
            });
        }
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            // SAFETY: fd is a valid open file descriptor; len is the
            // file's current size and non-zero; PROT_READ + MAP_PRIVATE
            // asks for a read-only private view, so no aliasing with any
            // Rust-visible mutable state is possible.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize != -1 && !ptr.is_null() {
                return Ok(Mmap {
                    state: State::Mapped {
                        ptr: ptr as *mut u8,
                        len,
                    },
                });
            }
            // Fall through to the owned read on mmap failure (e.g. a
            // filesystem that refuses mapping); correctness is identical.
        }
        let mut buf = Vec::with_capacity(len);
        file.read_to_end(&mut buf)?;
        Ok(Mmap {
            state: State::Owned(buf),
        })
    }

    /// The mapped (or read) bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.state {
            #[cfg(unix)]
            // SAFETY: ptr/len came from a successful mmap that lives
            // until drop; pages are read-only.
            State::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            State::Owned(v) => v,
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        match &self.state {
            #[cfg(unix)]
            State::Mapped { len, .. } => *len,
            State::Owned(v) => v.len(),
        }
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the bytes are actually memory-mapped (`false` = owned
    /// fallback). Telemetry uses this to report bytes mapped honestly.
    pub fn is_mapped(&self) -> bool {
        match &self.state {
            #[cfg(unix)]
            State::Mapped { .. } => true,
            State::Owned(_) => false,
        }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let State::Mapped { ptr, len } = self.state {
            // SAFETY: ptr/len are exactly what mmap returned; the region
            // is unmapped once, here, and no view outlives self.
            unsafe {
                sys::munmap(ptr as *mut std::os::raw::c_void, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("skql-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn mapped_bytes_equal_file_contents() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = temp_file("cycle.bin", &data);
        let map = Mmap::open(&path).unwrap();
        assert_eq!(&*map, &data[..]);
        assert_eq!(map.len(), data.len());
        assert!(!map.is_empty());
    }

    #[test]
    fn empty_file_maps_to_empty_view() {
        let path = temp_file("empty.bin", &[]);
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(&*map, &[] as &[u8]);
        assert!(!map.is_mapped());
    }

    #[test]
    fn view_survives_source_file_handle() {
        // Mmap::open's File is dropped before we read; the mapping (or
        // owned buffer) must remain valid.
        let data = b"still readable after close".to_vec();
        let path = temp_file("close.bin", &data);
        let map = Mmap::open(&path).unwrap();
        assert_eq!(&*map, &data[..]);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Mmap::open(Path::new("/definitely/not/here.bin")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn many_maps_drop_cleanly() {
        // Exercise map + unmap in a loop so a leaked mapping (or a bad
        // munmap length) would blow up under any leak checking and keeps
        // the address space bounded.
        let data: Vec<u8> = vec![7u8; 4096 * 3 + 17];
        let path = temp_file("loop.bin", &data);
        for _ in 0..64 {
            let map = Mmap::open(&path).unwrap();
            assert_eq!(map.len(), data.len());
            assert_eq!(map[4096], 7);
        }
    }

    #[cfg(unix)]
    #[test]
    fn unix_maps_are_real_mappings() {
        let path = temp_file("real.bin", &[1, 2, 3, 4]);
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_mapped());
    }
}
