//! The profile memo: what the HLS profiler said about a module.
//!
//! Profiling a module (interpret + schedule + area) dominates the cost of
//! every environment step and search evaluation, and RL training revisits
//! the same module states constantly — every episode re-profiles the pristine program, a
//! sharpening policy replays near-identical pass sequences, two orders
//! that commute meet in one module. [`EvalCache`] memoizes one
//! [`HlsReport`] per reached module so each is profiled at most once per
//! cache, however it was reached. [`crate::compile::Input`]'s miss path
//! is the one place that asks it and counts its misses as samples.
//!
//! # Key
//!
//! The key is the module's **content fingerprint**
//! ([`fingerprint_module`], whose per-function hashes are facts of each
//! function version, so a step that rewrote one function hashes one).
//! Content addressing makes the memo blind to
//! everything but the module: which pass sequence produced it, which
//! worker, which action table, and whether a faulted pass was rolled back
//! on the way (a rolled-back module is bit-identical to its pre-pass
//! state). The value is the profiler's raw report; scores (the one rule
//! of [`crate::compile::score`] is applied after the lookup), rewards
//! and observations are derived downstream, so environments of different
//! configurations share one cache — as long as they profile under one
//! `HlsConfig`, which the key does not carry.
//!
//! # Sharding and eviction
//!
//! Entries live in `2^k` independently locked shards selected by the
//! mixed key, so concurrent workers rarely contend. Each shard is one
//! [`BoundedMap`] of `capacity / shards` entries (two generations, O(1)
//! eviction; DESIGN.md §4f), which also counts the shard's hits, misses
//! and evictions — [`EvalCache::stats`] sums them — and, when telemetry is
//! enabled, feeds the global `evalcache.lookups{hit|miss}` /
//! `evalcache.evictions` counters.

use autophase_hls::profile::HlsReport;
use autophase_ir::fingerprint::mix64 as mix;
pub use autophase_telemetry::CacheStats;
use autophase_telemetry::{lock_recover, BoundedMap, MapCounters};
use std::sync::{Arc, Mutex};

/// The memo's key, at the path it has always had; its home is
/// [`autophase_ir::fingerprint`].
pub use autophase_ir::fingerprint::fingerprint_module;

const COUNTERS: MapCounters = MapCounters {
    hit: ("evalcache.lookups", "hit"),
    miss: ("evalcache.lookups", "miss"),
    evict: ("evalcache.evictions", ""),
};

/// Sharded, thread-safe memo of profiler reports by module content
/// fingerprint. Failed profiles are never inserted.
pub struct EvalCache {
    /// Taken with `lock_recover`: every critical section is one map
    /// operation, which keeps the map valid at each point it could
    /// unwind, so a thread that panics holding a shard does not wedge it.
    shards: Vec<Mutex<BoundedMap<u64, Arc<HlsReport>>>>,
    shard_mask: usize,
}

/// Default total capacity (entries).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Default shard count (power of two).
pub const DEFAULT_SHARDS: usize = 16;

impl Default for EvalCache {
    fn default() -> EvalCache {
        EvalCache::new(DEFAULT_CAPACITY)
    }
}

impl EvalCache {
    /// A cache holding at most `capacity` entries across the default
    /// shard count.
    pub fn new(capacity: usize) -> EvalCache {
        EvalCache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache holding at most `capacity` entries (at least one) across
    /// `shards` shards, rounded up to a power of two and then down to
    /// one the capacity can fill with an entry each.
    pub fn with_shards(capacity: usize, shards: usize) -> EvalCache {
        let capacity = capacity.max(1);
        let fillable = 1 << capacity.ilog2();
        let shards = shards.max(1).next_power_of_two().min(fillable);
        let per_shard = capacity / shards;
        EvalCache {
            shards: (0..shards)
                .map(|_| Mutex::new(BoundedMap::new(per_shard, COUNTERS)))
                .collect(),
            shard_mask: shards - 1,
        }
    }

    fn shard(&self, fp: u64) -> &Mutex<BoundedMap<u64, Arc<HlsReport>>> {
        &self.shards[mix(fp) as usize & self.shard_mask]
    }

    /// The report memoized for the module with content fingerprint `fp`,
    /// counting a hit or a miss.
    pub fn get(&self, fp: u64) -> Option<Arc<HlsReport>> {
        lock_recover(self.shard(fp)).lookup(&fp).cloned()
    }

    /// Insert (or replace) a module's report; a full shard drops its
    /// older generation.
    pub fn insert(&self, fp: u64, report: Arc<HlsReport>) {
        lock_recover(self.shard(fp)).insert(fp, report);
    }

    /// Resident entry count across all shards.
    pub fn len(&self) -> usize {
        self.stats().len
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.stats().hits
    }

    /// Entries displaced by capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.stats().evictions
    }

    /// Snapshot all counters, summed across shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = lock_recover(shard).stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.len += s.len;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(v: u64) -> Arc<HlsReport> {
        Arc::new(HlsReport {
            cycles: v,
            total_states: 0,
            area: autophase_hls::area::AreaReport::default(),
            insts_executed: 0,
            return_value: None,
        })
    }

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let c = EvalCache::new(64);
        let k = 0x0102;
        assert!(c.get(k).is_none());
        c.insert(k, entry(7));
        assert_eq!(c.get(k).unwrap().cycles, 7);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_bounds_size_and_counts() {
        // The second cache asks for more shards than it has entries for:
        // the capacity is the bound, not the shard count.
        for (c, inserts) in [
            (EvalCache::with_shards(8, 1), 50u64),
            (EvalCache::new(8), 100),
        ] {
            for i in 0..inserts {
                c.insert(i, entry(i));
            }
            assert!(c.len() <= 8, "{} resident of {inserts}", c.len());
            assert_eq!(c.evictions(), inserts - c.len() as u64);
            // Whatever survives must still map key → its own value.
            for i in 0..inserts {
                if let Some(e) = c.get(i) {
                    assert_eq!(e.cycles, i);
                }
            }
        }
    }

    #[test]
    fn hit_rate_is_zero_not_nan_with_no_lookups() {
        let c = EvalCache::new(64);
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 0);
        assert_eq!(s.hit_rate(), 0.0);
        assert!(!s.hit_rate().is_nan());
    }

    #[test]
    fn panic_mid_insert_does_not_wedge_the_shard() {
        // Single shard so the poisoned lock is the one every later call
        // takes. Panic while holding the shard's map lock — the worst
        // possible interleaving a panicking compute/worker can produce.
        let c = std::sync::Arc::new(EvalCache::with_shards(64, 1));
        let k = 0x0304;
        c.insert(k, entry(11));
        let c2 = std::sync::Arc::clone(&c);
        let t = std::thread::spawn(move || {
            let _guard = lock_recover(&c2.shards[0]);
            panic!("poison the shard on purpose");
        });
        assert!(t.join().is_err());
        // Every operation must still go through, with the data intact.
        assert_eq!(c.get(k).unwrap().cycles, 11);
        let k2 = 0x0506;
        c.insert(k2, entry(12));
        assert_eq!(c.get(k2).unwrap().cycles, 12);
        assert_eq!(c.stats().len, 2);
    }

    #[test]
    fn a_full_shard_drops_its_older_generation() {
        let c = EvalCache::with_shards(2, 1);
        c.insert(1, entry(1));
        c.insert(2, entry(2));
        c.get(1); // a hit does not promote
        c.insert(3, entry(3));
        assert!(c.get(1).is_none(), "the oldest insert went");
        assert_eq!(c.get(2).unwrap().cycles, 2);
        assert_eq!(c.get(3).unwrap().cycles, 3);
        assert_eq!((c.len(), c.evictions()), (2, 1));
    }
}
