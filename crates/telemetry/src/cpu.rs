//! Per-thread CPU-time accounting without the `libc` crate.
//!
//! Two sources, in preference order:
//!
//! 1. `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` for the *calling* thread
//!    — nanosecond resolution, one syscall (often a vDSO call). `std`
//!    already links the C library on unix targets, so a direct
//!    `extern "C"` declaration costs no new dependency.
//! 2. `/proc/self/task/<tid>/stat` for *other* threads (the sampling
//!    profiler's watchdog reads every worker's utime+stime) — clock-tick
//!    resolution (10 ms at the universal `USER_HZ = 100`), which is fine
//!    for deltas accumulated over a sampling window.
//!
//! On platforms with neither, everything degrades to a documented
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

    pub fn current_tid() -> u64 {
        // /proc/thread-self is a symlink to <pid>/task/<tid>.
        std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .and_then(|s| s.parse().ok())
            })
            .unwrap_or(0)
    }

    pub fn tid_cpu_nanos(tid: u64) -> Option<u64> {
        let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
        // Fields after the parenthesized comm (which may itself contain
        // spaces or parens): state is overall field 3, utime 14, stime 15.
        let rest = stat.rsplit_once(')')?.1;
        let mut fields = rest.split_whitespace();
        let utime: u64 = fields.nth(11)?.parse().ok()?;
        let stime: u64 = fields.next()?.parse().ok()?;
        // Ticks are USER_HZ, which is 100 on every Linux ABI regardless
        // of the kernel's internal HZ: 10 ms per tick.
        Some((utime + stime).saturating_mul(10_000_000))
    }
}

#[cfg(not(any(target_os = "linux", target_os = "android")))]
mod imp {
    pub fn thread_cpu_nanos() -> Option<u64> {
        None
    }

    pub fn current_tid() -> u64 {
        0
    }

    pub fn tid_cpu_nanos(_tid: u64) -> Option<u64> {
        None
    }
}

/// CPU nanoseconds consumed by the calling thread so far, or `None`
/// when no thread CPU clock is available on this platform.
pub fn thread_cpu_nanos() -> Option<u64> {
    imp::thread_cpu_nanos()
}

/// The calling thread's kernel task id, or 0 when unknown (non-Linux).
pub fn current_tid() -> u64 {
    imp::current_tid()
}

/// CPU nanoseconds consumed by thread `tid` of this process (utime +
/// stime from `/proc/self/task/<tid>/stat`, 10 ms granularity), or
/// `None` if the thread is gone or the platform has no procfs.
pub fn tid_cpu_nanos(tid: u64) -> Option<u64> {
    if tid == 0 {
        return None;
    }
    imp::tid_cpu_nanos(tid)
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
