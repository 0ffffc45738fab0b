//! Order statistics, the process's own counters, and the yardstick that
//! tells how fast the machine is running while a measurement is taken.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `p` quantile of `values` by linear interpolation between order
/// statistics; `NaN` for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's rule).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [1usize, 2, 3].map(|i| {
        if n < 2 {
            return sorted.first().copied().unwrap_or(f64::NAN);
        }
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    })
}

/// CPU time one yardstick kernel takes on a quiet reference box
/// (2 vCPUs, Xeon @ 2.1 GHz, rustc 1.95), milliseconds.
const KERNEL_QUIET_MS: f64 = 0.24;

/// Share of the program's compute that slows as the yardstick does.
/// Fitted on the reference box over a quarter of an hour of alternating
/// quiet and contended phases: a scan, a bulk embedding pass and the
/// tracker slow by 0.75 to 0.9 of the yardstick's slowdown, a store
/// search by 0.45. One value serves all: at the worst contention seen
/// (yardstick 1.65 times slower) it leaves ±8% where the raw times moved
/// by 25% to 55% (see README.md, "Machine speed").
const SENSITIVITY: f64 = 0.65;

/// Pause between two samples.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Tells how much slower than on a quiet reference box a small dense
/// kernel runs, at any time during the run. The box is a shared virtual
/// machine: a neighbour takes part of a core's execution width for
/// milliseconds at a time, more or less often from one minute to the
/// next, and vector-heavy code runs up to 1.9 times slower meanwhile
/// (a dependent scalar chain does not slow at all).
///
/// The kernel is a 64x64 single-precision multiply-accumulate, twelve
/// times over — resident in the first-level cache and as wide as the
/// compiler makes it, like the encoder's kernels. It is the benchmark's
/// own code, so no change to the program can move it. Two kinds of
/// thread run it:
///
/// - One sampler wakes every 20 ms, runs two kernels and records the CPU
///   time they took on its thread's clock (so that being descheduled
///   midway does not lengthen them): about 2% of one core.
/// - One ballast thread per core runs kernels without end in the
///   scheduler's idle class: only while that core has nothing else to
///   do, and any other thread takes the core from it at once. Its
///   kernels are not recorded. It is there because the host parks a
///   core that looks idle and runs whatever wakes next — a 3 ms query
///   as much as the sampler — somewhere slower; with the ballast the
///   cores are in one state whatever the load, and the sampler measures
///   the state the work runs in.
///
/// The CPU time of both is taken off the process's (see
/// [`Yardstick::process_cpu_ms`]).
pub struct Yardstick {
    /// When each sample ended and the CPU milliseconds one kernel took.
    samples: Mutex<Vec<(Instant, f64)>>,
    /// CPU nanoseconds each yardstick thread has used.
    used_ns: Vec<AtomicU64>,
    stop: AtomicBool,
}

impl Yardstick {
    /// Starts the sampler and one ballast thread per core;
    /// [`Yardstick::stop`] ends them.
    pub fn start(cores: usize) -> (Arc<Yardstick>, Vec<JoinHandle<()>>) {
        let yardstick = Arc::new(Yardstick {
            samples: Mutex::new(Vec::new()),
            used_ns: (0..=cores).map(|_| AtomicU64::new(0)).collect(),
            stop: AtomicBool::new(false),
        });
        let threads = (0..=cores)
            .map(|slot| {
                let yardstick = Arc::clone(&yardstick);
                std::thread::Builder::new()
                    .name(if slot == 0 {
                        "yardstick".into()
                    } else {
                        format!("ballast-{slot}")
                    })
                    .spawn(move || yardstick.run(slot))
                    .expect("spawn a yardstick thread")
            })
            .collect();
        (yardstick, threads)
    }

    /// Thread `slot`: the sampler (0) or a ballast thread.
    fn run(&self, slot: usize) {
        let ballast = slot > 0;
        let idle = SchedParam { priority: 0 };
        // SAFETY: `sched_setscheduler` reads one `sched_param` through
        // the pointer, which points to a live one; pid 0 names the
        // calling thread, so no other thread's scheduling changes.
        if ballast && unsafe { sched_setscheduler(0, SCHED_IDLE, &idle) } != 0 {
            // Not allowed the idle class: no ballast rather than one
            // that competes with the program.
            return;
        }
        let b: [f32; N * N] = std::array::from_fn(|i| (i % 7) as f32 * 0.1);
        let c: [f32; N * N] = std::array::from_fn(|i| (i % 5) as f32 * 0.2);
        let kernels = if ballast { 10 } else { 2 };
        while !self.stop.load(Ordering::SeqCst) {
            let before = cpu_clock_ms(THREAD_CPU_CLOCK);
            for _ in 0..kernels {
                let mut a = [0f32; N * N];
                kernel(&mut a, std::hint::black_box(&b), std::hint::black_box(&c));
                std::hint::black_box(&a);
            }
            let after = cpu_clock_ms(THREAD_CPU_CLOCK);
            self.used_ns[slot].store((after * 1e6) as u64, Ordering::Relaxed);
            if !ballast {
                self.samples
                    .lock()
                    .expect("the sampler does not panic")
                    .push((Instant::now(), (after - before) / kernels as f64));
                std::thread::sleep(SAMPLE_EVERY);
            }
        }
    }

    /// Ends the yardstick's threads after their current kernels.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Mean slowdown of the samples taken between `from` and `to`
    /// (`1.0` = a quiet reference box, and where there is none).
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let samples = self.samples.lock().expect("the sampler does not panic");
        let (from, to) = (from - SAMPLE_EVERY, to + SAMPLE_EVERY);
        let during: Vec<f64> = samples
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|(_, ms)| *ms)
            .collect();
        if during.is_empty() {
            return 1.0;
        }
        during.iter().sum::<f64>() / during.len() as f64 / KERNEL_QUIET_MS
    }

    /// User + system CPU time of the process so far without the
    /// yardstick's own, milliseconds.
    pub fn process_cpu_ms(&self) -> f64 {
        let own: u64 = self
            .used_ns
            .iter()
            .map(|ns| ns.load(Ordering::Relaxed))
            .sum();
        cpu_clock_ms(PROCESS_CPU_CLOCK) - own as f64 / 1e6
    }
}

const N: usize = 64;

/// `a += b · c`, twelve times; the array types tell the compiler every
/// index is in range, so the inner loop is vectorised.
#[inline(never)]
fn kernel(a: &mut [f32; N * N], b: &[f32; N * N], c: &[f32; N * N]) {
    for _ in 0..12 {
        for i in 0..N {
            for k in 0..N {
                let x = b[i * N + k];
                for j in 0..N {
                    a[i * N + j] += x * c[k * N + j];
                }
            }
        }
    }
}

/// The factor by which the program's compute is taken to run slower
/// when the yardstick runs `slowdown` times slower.
fn compute_slowdown(slowdown: f64) -> f64 {
    1.0 + SENSITIVITY * (slowdown - 1.0)
}

/// An interval as it would have read on a quiet reference box. Of its
/// `wall_ms`, the part the process spent computing — at most the
/// `cpu_ms` it consumed meanwhile — is rescaled by the compute slowdown;
/// the part it spent waiting on a timer, a sleep or a peer is left as
/// measured.
pub fn at_reference_speed(wall_ms: f64, cpu_ms: f64, slowdown: f64) -> f64 {
    wall_ms - wall_ms.min(cpu_ms) * (1.0 - 1.0 / compute_slowdown(slowdown))
}

/// CPU time as it would have read on a quiet reference box.
pub fn cpu_at_reference_speed(cpu_ms: f64, slowdown: f64) -> f64 {
    cpu_ms / compute_slowdown(slowdown)
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    seconds: i64,
    nanoseconds: i64,
}

/// `struct sched_param`.
#[repr(C)]
struct SchedParam {
    priority: i32,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`, `CLOCK_THREAD_CPUTIME_ID` and
/// `SCHED_IDLE` on Linux.
const PROCESS_CPU_CLOCK: i32 = 2;
const THREAD_CPU_CLOCK: i32 = 3;
const SCHED_IDLE: i32 = 5;

/// A CPU-time clock's reading, milliseconds, at nanosecond resolution
/// (`/proc/self/stat` counts in 10 ms ticks, too coarse for a round of a
/// few hundred milliseconds).
fn cpu_clock_ms(clock: i32) -> f64 {
    let mut time = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points to a live, properly laid out `Timespec`, and has no
    // other effect; the C library std already links provides it.
    let status = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(status, 0, "the CPU clocks are always readable");
    time.seconds as f64 * 1e3 + time.nanoseconds as f64 / 1e6
}

/// Peak resident set size (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 1.0), 3.0);
    }

    #[test]
    fn only_the_computing_part_of_an_interval_is_rescaled() {
        // Yardstick twice as slow: compute is taken to be 1.65 times slower.
        let g = compute_slowdown(2.0);
        assert!((g - 1.65).abs() < 1e-12);
        // All compute: the whole interval shrinks.
        assert!((at_reference_speed(165.0, 400.0, 2.0) - 100.0).abs() < 1e-9);
        // 40 ms of timer around 16.5 ms of compute: only the latter does.
        assert!((at_reference_speed(56.5, 16.5, 2.0) - 50.0).abs() < 1e-9);
        // A quiet machine changes nothing.
        assert_eq!(at_reference_speed(80.0, 80.0, 1.0), 80.0);
        assert_eq!(cpu_at_reference_speed(33.0, 2.0), 20.0);
    }

    #[test]
    fn the_yardstick_reads_about_one_and_stops() {
        let (yardstick, threads) = Yardstick::start(1);
        let from = Instant::now();
        std::thread::sleep(Duration::from_millis(200));
        let slowdown = yardstick.slowdown(from, Instant::now());
        yardstick.stop();
        threads
            .into_iter()
            .for_each(|t| t.join().expect("the yardstick ends"));
        assert!(slowdown > 0.2 && slowdown < 5.0, "yardstick {slowdown}");
        // No kernel ended in an interval: no correction.
        let later = Instant::now() + Duration::from_secs(60);
        assert_eq!(yardstick.slowdown(later, later), 1.0);
    }

    #[test]
    fn process_counters_read() {
        let (yardstick, threads) = Yardstick::start(1);
        let before = yardstick.process_cpu_ms();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let spent = yardstick.process_cpu_ms() - before;
        yardstick.stop();
        threads
            .into_iter()
            .for_each(|t| t.join().expect("the yardstick ends"));
        // This thread's loop, not the yardstick's kernels beside it.
        assert!(spent > 0.0 && spent < 2000.0, "spent {spent} ms");
        assert!(peak_rss_mb() > 0.0);
    }
}
