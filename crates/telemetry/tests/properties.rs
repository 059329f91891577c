//! Property tests of the telemetry instruments: histogram buckets
//! against a brute-force reference, the snapshot's percentile ordering,
//! and exact concurrent
//! counter sums (the "N threads × M increments loses nothing" contract).

use autophase_telemetry::metrics::{bucket_index, DEFAULT_BOUNDS};
use autophase_telemetry::{Counter, Histogram, Registry};
use proptest::prelude::*;
use std::sync::Arc;

/// Values that exercise every bucket regime: small, boundary-adjacent,
/// and overflow (beyond the last bound).
fn values() -> impl Strategy<Value = Vec<u64>> {
    collection::vec(
        prop_oneof![
            0u64..10,
            90u64..110,
            999u64..1_002,
            0u64..100_000,
            9_999_999_990u64..10_000_000_020,
        ],
        1..60,
    )
}

proptest! {
    /// Every value lands in the first bucket whose bound is ≥ it, and the
    /// histogram's bucket counts agree with a brute-force recount.
    #[test]
    fn buckets_match_reference(vs in values()) {
        let h = Histogram::default();
        let mut reference = vec![0u64; DEFAULT_BOUNDS.len() + 1];
        for &v in &vs {
            h.record(v);
            let i = bucket_index(v);
            if i < DEFAULT_BOUNDS.len() {
                prop_assert!(DEFAULT_BOUNDS[i] >= v);
                if i > 0 {
                    prop_assert!(DEFAULT_BOUNDS[i - 1] < v);
                }
            } else {
                prop_assert!(v > *DEFAULT_BOUNDS.last().unwrap());
            }
            reference[i] += 1;
        }
        prop_assert_eq!(h.bucket_counts(), reference);
        prop_assert_eq!(h.count(), vs.len() as u64);
        prop_assert_eq!(h.sum(), vs.iter().sum::<u64>());
        prop_assert_eq!(h.min(), *vs.iter().min().unwrap());
        prop_assert_eq!(h.max(), *vs.iter().max().unwrap());
    }

    /// A snapshot's interpolated percentiles are ordered and reachable:
    /// `p50 ≤ p90 ≤ p95 ≤ p99`, each within the recorded `[min, max]`.
    #[test]
    fn snapshot_percentiles_are_ordered_and_within_min_max(vs in values()) {
        let r = Registry::default();
        let h = r.histogram("prop.values", "");
        for &v in &vs {
            h.record(v);
        }
        let snap = r.snapshot();
        let s = &snap.histograms[0];
        prop_assert_eq!(s.min, *vs.iter().min().unwrap());
        prop_assert_eq!(s.max, *vs.iter().max().unwrap());
        let ps = [s.p50, s.p90, s.p95, s.p99];
        for (i, &p) in ps.iter().enumerate() {
            prop_assert!(
                s.min <= p && p <= s.max,
                "p[{i}] = {p} outside [{}, {}]",
                s.min,
                s.max
            );
        }
        prop_assert!(ps.windows(2).all(|w| w[0] <= w[1]), "out of order: {:?}", ps);
    }
}

/// N threads × M increments sum exactly — no lost updates.
#[test]
fn concurrent_counter_increments_sum_exactly() {
    for (threads, increments) in [(2usize, 10_000u64), (4, 25_000), (8, 50_000)] {
        let c = Arc::new(Counter::default());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..increments {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.value(), threads as u64 * increments);
    }
}

/// Concurrent histogram recording loses no samples and keeps the count,
/// sum, and bucket totals consistent with each other.
#[test]
fn concurrent_histogram_records_sum_exactly() {
    let h = Arc::new(Histogram::default());
    let threads = 8usize;
    let per_thread = 20_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let h = Arc::clone(&h);
            scope.spawn(move || {
                for i in 0..per_thread {
                    h.record((t as u64 * per_thread + i) % 5_000);
                }
            });
        }
    });
    let total = threads as u64 * per_thread;
    assert_eq!(h.count(), total);
    assert_eq!(h.bucket_counts().iter().sum::<u64>(), total);
    // Each residue 0..5000 is hit total/5000 times; the sum is exact.
    assert_eq!(h.sum(), (0..5_000u64).sum::<u64>() * (total / 5_000));
}
