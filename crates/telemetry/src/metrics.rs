//! Atomic counters, gauges, and fixed-bucket histograms in a global
//! named registry.
//!
//! Handles returned by [`counter`] / [`gauge`] / [`histogram`] are
//! `&'static`: the registry leaks each metric once on first registration
//! so lookups (which take a mutex) can be hoisted out of hot loops while
//! updates stay single relaxed atomic operations.
//!
//! A counter update also lands in the calling thread's *tally* (one
//! plain `u64` per counter). Nothing reads the tally but a
//! [`TraceGuard`](crate::TraceGuard), which snapshots it on enter and
//! attributes the difference to its trace on drop — the same bracket it
//! puts around the thread's heap and CPU clocks — so a finished
//! [`QueryTrace`](crate::QueryTrace) carries exactly the counts made on
//! its behalf, whatever other queries the process is running.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Monotonically increasing event count, handed out by [`counter`].
pub struct Counter {
    value: AtomicU64,
    /// This counter's index in every thread's tally (registration order).
    slot: usize,
}

thread_local! {
    /// What this thread has added to each counter, by slot. Only ever
    /// grows; trace guards read differences of it.
    static TALLY: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Counter {
    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        // `try_with`: a count made while the thread's locals are being
        // torn down still reaches the registry, just no trace.
        let _ = TALLY.try_with(|t| {
            let mut t = t.borrow_mut();
            if t.len() <= self.slot {
                t.resize(self.slot + 1, 0);
            }
            t[self.slot] += n;
        });
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// The calling thread's tally, for a trace guard to diff against later.
pub(crate) fn thread_tally() -> Vec<u64> {
    TALLY.with(|t| t.borrow().clone())
}

/// Adds what the calling thread has counted since `base` was taken (by
/// [`thread_tally`], on this thread) into `into`, slot by slot.
pub(crate) fn add_tally_since(base: &[u64], into: &mut Vec<u64>) {
    // Runs in a guard's drop: must not panic if the thread is exiting.
    let _ = TALLY.try_with(|t| {
        let t = t.borrow();
        into.resize(into.len().max(t.len()), 0);
        for (slot, now) in t.iter().enumerate() {
            into[slot] += now - base.get(slot).copied().unwrap_or(0);
        }
    });
}

/// The non-zero entries of a by-slot tally as `(name, count)`, name order.
pub(crate) fn named_counts(by_slot: &[u64]) -> Vec<(&'static str, u64)> {
    let counters = registry().counters.lock().unwrap();
    counters
        .iter()
        .filter_map(|(&name, c)| match by_slot.get(c.slot) {
            Some(&n) if n > 0 => Some((name, n)),
            _ => None,
        })
        .collect()
}

/// A value that can go up and down, stored as an `f64`.
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge reading 0.
    pub const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current reading (0.0 until first `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// Fixed-bucket histogram of `f64` observations.
///
/// Buckets are upper-bound style, as in Prometheus: an observation lands
/// in the first bucket whose bound is `>=` the value, or in the implicit
/// `+Inf` bucket past the last bound.
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1 (last is +Inf)
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn with_bounds(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // f64 sum via CAS on the bit pattern.
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Cumulative bucket counts as `(upper_bound, count)` pairs; the final
    /// pair has bound `f64::INFINITY`.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut acc = 0;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum_bits.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

/// Looks `name` up by `&str`; only a first registration allocates (the
/// leaked key and metric), so a hit costs the lock and a map walk.
/// `make` is told how many metrics of the kind were registered before.
fn get_or_register<T>(
    map: &Mutex<BTreeMap<&'static str, &'static T>>,
    name: &str,
    make: impl FnOnce(usize) -> T,
) -> &'static T {
    let mut map = map.lock().unwrap();
    if let Some(&metric) = map.get(name) {
        return metric;
    }
    let metric: &'static T = Box::leak(Box::new(make(map.len())));
    map.insert(Box::leak(name.into()), metric);
    metric
}

/// Returns the named counter, registering it on first use.
pub fn counter(name: &str) -> &'static Counter {
    get_or_register(&registry().counters, name, |slot| Counter {
        value: AtomicU64::new(0),
        slot,
    })
}

/// Returns the named gauge, registering it on first use.
pub fn gauge(name: &str) -> &'static Gauge {
    get_or_register(&registry().gauges, name, |_| Gauge::new())
}

/// Returns the named histogram, registering it with `bounds` on first
/// use (later calls keep the original bounds).
pub fn histogram(name: &str, bounds: &[f64]) -> &'static Histogram {
    get_or_register(&registry().histograms, name, |_| {
        Histogram::with_bounds(bounds)
    })
}

/// Zeroes every registered metric. Intended for tests and benchmarks.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().unwrap().values() {
        c.reset();
    }
    for g in reg.gauges.lock().unwrap().values() {
        g.reset();
    }
    for h in reg.histograms.lock().unwrap().values() {
        h.reset();
    }
}

/// Point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge readings by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Cumulative `(upper_bound, count)` pairs, ending with `+Inf`.
    pub buckets: Vec<(f64, u64)>,
    /// Sum of observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl MetricsSnapshot {
    /// Captures the current registry state.
    pub fn capture() -> Self {
        let reg = registry();
        MetricsSnapshot {
            counters: reg
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: reg
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: reg
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| {
                    (
                        k.to_string(),
                        HistogramSnapshot {
                            buckets: v.cumulative_buckets(),
                            sum: v.sum(),
                            count: v.count(),
                        },
                    )
                })
                .collect(),
        }
    }
}
