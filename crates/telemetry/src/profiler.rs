//! A cooperative sampling profiler built on the span stacks the
//! telemetry layer already maintains.
//!
//! Every thread that opens a [`span`](crate::span) (or enters a
//! [`TraceContext`](crate::TraceContext)) registers a shared
//! [`StackSlot`] holding its live span-name stack. A sampler — either
//! the blocking [`collect_profile`] or the background thread started by
//! [`start_continuous_profiler`] — periodically snapshots each slot and
//! folds the stacks into flamegraph-compatible
//! `thread;span;span count` lines ([`ProfileReport::folded`]).
//! Per-thread CPU deltas (from [`crate::cpu`]) ride along so hot stacks
//! can be ranked by CPU burned, not just samples observed.
//!
//! "Cooperative" because nothing is interrupted: the sampler reads what
//! instrumented code already publishes. Uninstrumented stretches show
//! up under the innermost enclosing span (or as `(idle)` when the
//! thread has no span open), which is exactly the resolution the
//! dotted-stage instrumentation provides — and it works on any
//! platform, in release builds, with no signal handlers or unwinding.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;
use std::time::Instant;

/// Aggregated samples for one folded stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Times the stack was observed.
    pub samples: u64,
    /// CPU nanoseconds the owning thread burned across those samples
    /// (tick-granular; 0 where per-tid CPU is unavailable).
    pub cpu_nanos: u64,
}

/// An aggregated profile: folded stack keys (`thread;span;...;span`,
/// innermost span last, `thread;(idle)` for threads with no open span)
/// mapped to sample counts and CPU time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Folded stack key → aggregated samples.
    pub entries: BTreeMap<String, ProfileEntry>,
    /// Total per-thread samples taken (one per registered thread per
    /// sampling tick).
    pub samples: u64,
    /// Wall time the profile covers, nanoseconds.
    pub duration_nanos: u64,
}

impl ProfileReport {
    /// Renders the profile in folded-stack format, one
    /// `stack<space>samples` line per entry, busiest stacks first —
    /// feed directly to `flamegraph.pl` / `inferno-flamegraph`.
    pub fn folded(&self) -> String {
        let mut rows: Vec<(&String, &ProfileEntry)> = self.entries.iter().collect();
        rows.sort_by(|a, b| b.1.samples.cmp(&a.1.samples).then_with(|| a.0.cmp(b.0)));
        let mut out = String::new();
        for (key, entry) in rows {
            out.push_str(key);
            out.push(' ');
            out.push_str(&entry.samples.to_string());
            out.push('\n');
        }
        out
    }

    /// Merges `other` into `self` (summing samples, CPU, and duration).
    pub fn merge(&mut self, other: &ProfileReport) {
        for (key, entry) in &other.entries {
            let slot = self.entries.entry(key.clone()).or_default();
            slot.samples += entry.samples;
            slot.cpu_nanos += entry.cpu_nanos;
        }
        self.samples += other.samples;
        self.duration_nanos += other.duration_nanos;
    }
}

/// One thread's shared profiling state: its name, kernel tid, and live
/// span-name stack. Registered on the thread's first span (or trace
/// entry) and unregistered implicitly when the thread exits (the
/// registry holds `Weak`s; the thread-local owns the only `Arc`).
pub(crate) struct StackSlot {
    name: String,
    tid: u64,
    stack: Mutex<Vec<&'static str>>,
}

fn registry() -> &'static Mutex<Vec<Weak<StackSlot>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<StackSlot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static SLOT: std::cell::RefCell<Option<Arc<StackSlot>>> =
        const { std::cell::RefCell::new(None) };
}

/// Returns the calling thread's slot, registering one on first use.
/// `None` during TLS teardown.
fn with_slot<R>(f: impl FnOnce(&Arc<StackSlot>) -> R) -> Option<R> {
    SLOT.try_with(|cell| {
        let mut cell = cell.borrow_mut();
        let slot = cell.get_or_insert_with(|| {
            let tid = crate::cpu::current_tid();
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| {
                    if tid != 0 {
                        format!("thread-{tid}")
                    } else {
                        "thread".to_string()
                    }
                });
            let slot = Arc::new(StackSlot {
                name,
                tid,
                stack: Mutex::new(Vec::new()),
            });
            registry().lock().unwrap().push(Arc::downgrade(&slot));
            slot
        });
        f(slot)
    })
    .ok()
}

/// Registers the calling thread with the profiler without touching its
/// span stack — pool threads call this (via `TraceContext::enter`) so
/// the sampler sees them even before their first span.
pub(crate) fn ensure_registered() {
    let _ = with_slot(|_| ());
}

/// Pushes a span name onto the calling thread's published stack.
/// Called from [`span`](crate::span); must mirror [`pop_span`].
pub(crate) fn push_span(name: &'static str) {
    let _ = with_slot(|slot| slot.stack.lock().unwrap().push(name));
}

/// Pops the calling thread's published stack (on `SpanGuard` drop).
pub(crate) fn pop_span() {
    let _ = with_slot(|slot| {
        slot.stack.lock().unwrap().pop();
    });
}

/// One sampling tick: fold every registered thread's current stack into
/// `report`, weighting by the CPU each thread burned since its last
/// observation (tracked in `cpu_last`).
fn sample_once(cpu_last: &mut BTreeMap<u64, u64>, report: &mut ProfileReport) {
    let slots: Vec<Arc<StackSlot>> = {
        let mut reg = registry().lock().unwrap();
        reg.retain(|w| w.strong_count() > 0);
        reg.iter().filter_map(Weak::upgrade).collect()
    };
    for slot in slots {
        let stack = slot.stack.lock().unwrap().clone();
        let mut key = slot.name.clone();
        if stack.is_empty() {
            key.push_str(";(idle)");
        } else {
            for name in &stack {
                key.push(';');
                key.push_str(name);
            }
        }
        let cpu_delta = match crate::cpu::tid_cpu_nanos(slot.tid) {
            Some(now) => {
                let prev = cpu_last.insert(slot.tid, now);
                prev.map_or(0, |p| now.saturating_sub(p))
            }
            None => 0,
        };
        let entry = report.entries.entry(key).or_default();
        entry.samples += 1;
        entry.cpu_nanos += cpu_delta;
        report.samples += 1;
    }
}

/// Primes per-tid CPU baselines so the first counted tick measures a
/// real delta instead of each thread's lifetime CPU.
fn prime_cpu(cpu_last: &mut BTreeMap<u64, u64>) {
    let slots: Vec<Arc<StackSlot>> = registry()
        .lock()
        .unwrap()
        .iter()
        .filter_map(Weak::upgrade)
        .collect();
    for slot in slots {
        if let Some(now) = crate::cpu::tid_cpu_nanos(slot.tid) {
            cpu_last.insert(slot.tid, now);
        }
    }
}

/// Samples every registered thread at `hz` (clamped to 1..=1000) for
/// `duration`, blocking the calling thread, and returns the aggregate.
pub fn collect_profile(duration: Duration, hz: u32) -> ProfileReport {
    let hz = hz.clamp(1, 1000);
    let interval = Duration::from_nanos(1_000_000_000 / hz as u64);
    let start = Instant::now();
    let mut cpu_last = BTreeMap::new();
    prime_cpu(&mut cpu_last);
    let mut report = ProfileReport::default();
    while start.elapsed() < duration {
        std::thread::sleep(interval);
        sample_once(&mut cpu_last, &mut report);
    }
    report.duration_nanos = start.elapsed().as_nanos() as u64;
    report
}

fn continuous() -> &'static Mutex<ProfileReport> {
    static CONTINUOUS: OnceLock<Mutex<ProfileReport>> = OnceLock::new();
    CONTINUOUS.get_or_init(|| Mutex::new(ProfileReport::default()))
}

static CONTINUOUS_RUNNING: AtomicBool = AtomicBool::new(false);

/// Starts the process-lifetime continuous profiler: a background thread
/// sampling at `hz` (clamped to 1..=1000) into a global aggregate that
/// [`continuous_profile_snapshot`] reads. Returns `false` (and does
/// nothing) if it is already running.
///
/// Off-beat rates (19, 97, …) avoid aliasing with periodic work.
pub fn start_continuous_profiler(hz: u32) -> bool {
    if CONTINUOUS_RUNNING.swap(true, Ordering::AcqRel) {
        return false;
    }
    let hz = hz.clamp(1, 1000);
    let interval = Duration::from_nanos(1_000_000_000 / hz as u64);
    std::thread::Builder::new()
        .name("sketchql-profiler".to_string())
        .spawn(move || {
            let mut cpu_last = BTreeMap::new();
            prime_cpu(&mut cpu_last);
            let start = Instant::now();
            let mut last_flush = start;
            loop {
                std::thread::sleep(interval);
                let mut tick = ProfileReport::default();
                sample_once(&mut cpu_last, &mut tick);
                let now = Instant::now();
                tick.duration_nanos = now.duration_since(last_flush).as_nanos() as u64;
                last_flush = now;
                continuous().lock().unwrap().merge(&tick);
            }
        })
        .expect("spawn profiler thread");
    true
}

/// A snapshot of the continuous profiler's aggregate since it started,
/// or `None` if [`start_continuous_profiler`] was never called.
pub fn continuous_profile_snapshot() -> Option<ProfileReport> {
    if !CONTINUOUS_RUNNING.load(Ordering::Acquire) {
        return None;
    }
    Some(continuous().lock().unwrap().clone())
}
