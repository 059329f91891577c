//! The instrument registry: counters, gauges, and fixed-bucket histograms.
//!
//! Instruments are keyed by a `'static` name plus a dynamic label and are
//! registered on first use. Handles are `Arc`s: fetch once, record with
//! relaxed atomics forever after. [`Registry::reset`] zeroes values in
//! place, so cached handles survive resets.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins measurement (stored as `f64` bits).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Adjust the gauge by `delta` (negative to decrement). Lock-free
    /// CAS loop over the f64 bits, so concurrent adjusters never lose an
    /// update — the primitive behind level-style gauges (queue depth,
    /// in-flight requests) that `set` cannot maintain across threads.
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// Upper bounds of the default histogram buckets: a 1–2–5 ladder from 1
/// to 10^10, wide enough for nanosecond timings (1 ns – 10 s), cycle
/// counts, and FSM-state counts alike. Values above the last bound land
/// in an overflow bucket whose effective bound is the observed maximum.
pub const DEFAULT_BOUNDS: [u64; 31] = [
    1,
    2,
    5,
    10,
    20,
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// A fixed-bucket histogram over `u64` values.
///
/// Recording is a bucket lookup (binary search over 31 static bounds)
/// plus five relaxed atomic RMWs — no locks, no allocation. Quantiles are
/// answered from the bucket counts: `quantile(q)` returns the smallest
/// bucket upper bound `b` such that at least `ceil(q · count)` recorded
/// values are ≤ `b` (for the overflow bucket, the observed maximum).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>, // one per bound + overflow
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..=DEFAULT_BOUNDS.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket a value falls into (the first bound ≥ value, or
/// the overflow bucket).
pub fn bucket_index(value: u64) -> usize {
    DEFAULT_BOUNDS.partition_point(|&b| b < value)
}

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Upper bound covering quantile `q ∈ [0, 1]`: the smallest bucket
    /// bound `b` with `#(values ≤ b) ≥ ceil(q · count)`. Returns 0 on an
    /// empty histogram; the overflow bucket answers with the recorded
    /// maximum, so the result is always a value that was actually
    /// reachable.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return if i < DEFAULT_BOUNDS.len() {
                    DEFAULT_BOUNDS[i].min(self.max())
                } else {
                    self.max()
                };
            }
        }
        self.max()
    }

    /// Quantile estimate with linear interpolation inside the covering
    /// bucket: where [`Histogram::quantile`] answers with a bucket upper
    /// bound (exact coverage semantics, coarse on a 1-2-5 ladder),
    /// `quantile_interp` assumes values are uniformly distributed within
    /// their bucket and interpolates between the bucket's bounds — the
    /// standard Prometheus-style estimator, and what latency dashboards
    /// want (a p50 of "somewhere around 7.3 ms", not "≤ 10 ms").
    ///
    /// The answer is clamped to the observed `[min, max]`, so it is
    /// always a value that was actually reachable; an empty histogram
    /// answers 0.
    fn quantile_interp(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        // Continuous rank (0-based): the value below which q of the
        // probability mass sits.
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let in_bucket = b.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if (cum + in_bucket) as f64 >= rank {
                let lower = if i == 0 { 0 } else { DEFAULT_BOUNDS[i - 1] };
                let upper = if i < DEFAULT_BOUNDS.len() {
                    DEFAULT_BOUNDS[i]
                } else {
                    // Overflow bucket: its effective upper bound is the
                    // observed maximum.
                    self.max()
                };
                let frac = ((rank - cum as f64) / in_bucket as f64).clamp(0.0, 1.0);
                let est = lower as f64 + frac * (upper.saturating_sub(lower)) as f64;
                return est.clamp(self.min() as f64, self.max() as f64);
            }
            cum += in_bucket;
        }
        self.max() as f64
    }

    /// Per-bucket counts aligned with [`DEFAULT_BOUNDS`] plus the
    /// overflow bucket as the last element.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Instrument name.
    pub name: &'static str,
    /// Instrument label.
    pub label: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Point-in-time value of one gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Instrument name.
    pub name: &'static str,
    /// Instrument label.
    pub label: String,
    /// Value at snapshot time.
    pub value: f64,
}

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: &'static str,
    /// Instrument label.
    pub label: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median estimate, interpolated (see `Histogram::quantile_interp`).
    pub p50: u64,
    /// 90th-percentile estimate, interpolated.
    pub p90: u64,
    /// 95th-percentile estimate, interpolated.
    pub p95: u64,
    /// 99th-percentile estimate, interpolated.
    pub p99: u64,
    /// Non-cumulative `(bucket upper bound, count)` pairs for non-empty
    /// buckets; the overflow bucket reports bound `u64::MAX`.
    pub buckets: Vec<(u64, u64)>,
}

/// Everything the registry holds, sorted by `(name, label)`.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

type Shelf<T> = RwLock<HashMap<&'static str, HashMap<String, Arc<T>>>>;

/// The thread-safe instrument registry.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Shelf<Counter>,
    gauges: Shelf<Gauge>,
    histograms: Shelf<Histogram>,
}

fn fetch<T: Default>(shelf: &Shelf<T>, name: &'static str, label: &str) -> Arc<T> {
    if let Some(found) = shelf
        .read()
        .expect("telemetry registry poisoned")
        .get(name)
        .and_then(|m| m.get(label))
    {
        return Arc::clone(found);
    }
    let mut map = shelf.write().expect("telemetry registry poisoned");
    Arc::clone(
        map.entry(name)
            .or_default()
            .entry(label.to_string())
            .or_default(),
    )
}

impl Registry {
    /// Fetch (registering on first use) a counter.
    pub fn counter(&self, name: &'static str, label: &str) -> Arc<Counter> {
        fetch(&self.counters, name, label)
    }

    /// Fetch (registering on first use) a gauge.
    pub fn gauge(&self, name: &'static str, label: &str) -> Arc<Gauge> {
        fetch(&self.gauges, name, label)
    }

    /// Fetch (registering on first use) a histogram.
    pub fn histogram(&self, name: &'static str, label: &str) -> Arc<Histogram> {
        fetch(&self.histograms, name, label)
    }

    /// Zero every instrument in place. Cached handles stay valid.
    pub fn reset(&self) {
        for m in self.counters.read().expect("poisoned").values() {
            m.values().for_each(|c| c.reset());
        }
        for m in self.gauges.read().expect("poisoned").values() {
            m.values().for_each(|g| g.reset());
        }
        for m in self.histograms.read().expect("poisoned").values() {
            m.values().for_each(|h| h.reset());
        }
    }

    /// Snapshot every instrument, sorted by `(name, label)`.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for (&name, m) in self.counters.read().expect("poisoned").iter() {
            for (label, c) in m {
                snap.counters.push(CounterSnapshot {
                    name,
                    label: label.clone(),
                    value: c.value(),
                });
            }
        }
        for (&name, m) in self.gauges.read().expect("poisoned").iter() {
            for (label, g) in m {
                snap.gauges.push(GaugeSnapshot {
                    name,
                    label: label.clone(),
                    value: g.value(),
                });
            }
        }
        for (&name, m) in self.histograms.read().expect("poisoned").iter() {
            for (label, h) in m {
                let counts = h.bucket_counts();
                let buckets = counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| (DEFAULT_BOUNDS.get(i).copied().unwrap_or(u64::MAX), c))
                    .collect();
                snap.histograms.push(HistogramSnapshot {
                    name,
                    label: label.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    p50: h.quantile_interp(0.5).round() as u64,
                    p90: h.quantile_interp(0.9).round() as u64,
                    p95: h.quantile_interp(0.95).round() as u64,
                    p99: h.quantile_interp(0.99).round() as u64,
                    buckets,
                });
            }
        }
        snap.counters
            .sort_by(|a, b| (a.name, &a.label).cmp(&(b.name, &b.label)));
        snap.gauges
            .sort_by(|a, b| (a.name, &a.label).cmp(&(b.name, &b.label)));
        snap.histograms
            .sort_by(|a, b| (a.name, &a.label).cmp(&(b.name, &b.label)));
        snap
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::default();
        let c = r.counter("m.count", "a");
        c.add(3);
        c.add(4);
        assert_eq!(r.counter("m.count", "a").value(), 7);
        assert_eq!(r.counter("m.count", "b").value(), 0);
        let g = r.gauge("m.gauge", "");
        g.set(-1.5);
        assert_eq!(r.gauge("m.gauge", "").value(), -1.5);
    }

    #[test]
    fn histogram_basic_stats() {
        let h = Histogram::default();
        for v in [1u64, 10, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1111);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 1111.0 / 4.0);
        // Two of four values ≤ 10 → the median bucket bound is 10.
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let h = Histogram::default();
        let big = *DEFAULT_BOUNDS.last().unwrap() + 123;
        h.record(big);
        assert_eq!(h.quantile(0.5), big);
        assert_eq!(h.max(), big);
    }

    #[test]
    fn bucket_index_is_first_bound_geq() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(10_000_000_000), DEFAULT_BOUNDS.len() - 1);
        assert_eq!(bucket_index(10_000_000_001), DEFAULT_BOUNDS.len());
    }

    #[test]
    fn interpolated_quantiles_track_a_uniform_distribution() {
        // Uniform 1..=10_000: the true quantile q sits at ~q·10_000.
        // Interpolation inside 1-2-5 buckets must land within one bucket
        // width of the truth — far tighter than the bucket-bound answer.
        let h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, truth) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let est = h.quantile_interp(q);
            let err = (est - truth).abs() / truth;
            assert!(
                err < 0.05,
                "quantile_interp({q}) = {est}, want ~{truth} (err {err:.3})"
            );
        }
        // Exact at the distribution edges.
        assert_eq!(h.quantile_interp(0.0), 1.0);
        assert_eq!(h.quantile_interp(1.0), 10_000.0);
    }

    #[test]
    fn interpolated_quantiles_on_point_masses_are_exact() {
        // All mass at one value: every quantile is that value (the
        // clamp to [min, max] pins it even mid-bucket).
        let h = Histogram::default();
        for _ in 0..1000 {
            h.record(700);
        }
        for q in [0.01, 0.5, 0.95, 0.99] {
            assert_eq!(h.quantile_interp(q), 700.0, "q={q}");
        }
        // Two point masses 10 and 1000, 90/10 split: p50 lives in the
        // bucket holding 10, p99 in the bucket holding 1000.
        let h = Histogram::default();
        for _ in 0..900 {
            h.record(10);
        }
        for _ in 0..100 {
            h.record(1000);
        }
        assert!(h.quantile_interp(0.5) <= 10.0, "{}", h.quantile_interp(0.5));
        assert!(
            h.quantile_interp(0.99) > 500.0,
            "{}",
            h.quantile_interp(0.99)
        );
        assert!(h.quantile_interp(0.99) <= 1000.0);
    }

    #[test]
    fn interpolated_quantiles_are_monotone_and_bounded() {
        let h = Histogram::default();
        for v in [3u64, 17, 17, 40, 999, 2_000_000, 12_345_678_901] {
            h.record(v);
        }
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let est = h.quantile_interp(q);
            assert!(est >= prev, "not monotone at q={q}: {est} < {prev}");
            assert!(est >= h.min() as f64 && est <= h.max() as f64);
            prev = est;
        }
        // Overflow-bucket values interpolate up to the observed max.
        assert_eq!(h.quantile_interp(1.0), 12_345_678_901.0);
    }

    #[test]
    fn empty_histogram_interp_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_interp(0.5), 0.0);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::default();
        r.counter("z.last", "").add(1);
        r.counter("a.first", "y").add(2);
        r.counter("a.first", "x").add(3);
        let s = r.snapshot();
        let keys: Vec<(&str, &str)> = s
            .counters
            .iter()
            .map(|c| (c.name, c.label.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![("a.first", "x"), ("a.first", "y"), ("z.last", "")]
        );
    }
}
