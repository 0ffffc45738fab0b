//! Per-thread CPU-time accounting without the `libc` crate.
//!
//! The calling thread's clock is `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`
//! — nanosecond resolution, one syscall (often a vDSO call). `std`
//! already links the C library on unix targets, so a direct
//! `extern "C"` declaration costs no new dependency. Only the calling
//! thread is ever read: attribution scopes stamp the thread that
//! entered them.
//!
//! On platforms without it, everything degrades to a documented
//! wall-clock fallback: [`CpuStamp`] falls back to `Instant`, so
//! attribution still produces a number (an upper bound — wall time of
//! the scope) instead of zero.

use std::time::Instant;

#[cfg(any(target_os = "linux", target_os = "android"))]
mod imp {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    // Linux's CLOCK_THREAD_CPUTIME_ID; std links libc, so the symbol is
    // already there — no external crate needed.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }

    pub fn thread_cpu_nanos() -> Option<u64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `#[repr(C)]` struct at least as
        // large as the C `struct timespec` on every Linux target, and the
        // call writes nothing but that struct.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            Some((ts.tv_sec as u64).saturating_mul(1_000_000_000) + ts.tv_nsec as u64)
        } else {
            None
        }
    }
}

#[cfg(not(any(target_os = "linux", target_os = "android")))]
mod imp {
    pub fn thread_cpu_nanos() -> Option<u64> {
        None
    }
}

/// CPU nanoseconds consumed by the calling thread so far, or `None`
/// when no thread CPU clock is available on this platform.
pub fn thread_cpu_nanos() -> Option<u64> {
    imp::thread_cpu_nanos()
}

/// A point-in-time CPU reading for the calling thread, used by
/// attribution scopes: take one at scope entry, measure the delta at
/// scope exit with [`nanos_since`]. Falls back to wall clock where no
/// thread CPU clock exists, so the delta is then an upper bound.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CpuStamp {
    Cpu(u64),
    Wall(Instant),
}

pub(crate) fn stamp() -> CpuStamp {
    match thread_cpu_nanos() {
        Some(ns) => CpuStamp::Cpu(ns),
        None => CpuStamp::Wall(Instant::now()),
    }
}

pub(crate) fn nanos_since(stamp: &CpuStamp) -> u64 {
    match stamp {
        CpuStamp::Cpu(base) => thread_cpu_nanos().unwrap_or(*base).saturating_sub(*base),
        CpuStamp::Wall(start) => start.elapsed().as_nanos() as u64,
    }
}
