//! Memoized evaluation cache for the HLS profiler.
//!
//! Profiling a module (interpret + schedule + area) dominates the cost of
//! every environment step, and RL training revisits the same
//! `(program, pass prefix)` states constantly — every episode re-profiles
//! the pristine program, and a sharpening policy replays near-identical
//! pass sequences. This cache memoizes one full evaluation per reached
//! module state so each state is profiled at most once per process.
//!
//! # Key derivation
//!
//! A cache key is `(program fingerprint, sequence hash)`:
//!
//! * the **program fingerprint** is [`fingerprint_module`] of the pristine
//!   module (an order-sensitive combine of per-slot function and global
//!   hashes, stable across clones);
//! * the **sequence hash** is an order-sensitive rolling hash over the
//!   Table-1 pass ids applied so far. [`PhaseOrderEnv`](crate::env::
//!   PhaseOrderEnv) pushes a pass id only when the pass reported a
//!   change, so all no-op-padded variants of one effective sequence share
//!   one key — and since no-op passes don't alter the module, every key
//!   still maps to exactly one module state. Full-sequence evaluators
//!   (e.g. the §5.2 multi-action agent) hash the raw sequence instead;
//!   the two key families agree because inserting no-ops anywhere in a
//!   stream never changes the resulting module.
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

use autophase_features::FeatureVector;
use autophase_hls::area::AreaReport;
use autophase_hls::profile::HlsReport;
use autophase_ir::fingerprint::mix64 as mix;
use autophase_ir::Module;
pub use autophase_telemetry::CacheStats;
use autophase_telemetry::{lock_recover, BoundedMap, MapCounters};
use std::sync::Mutex;

/// Fingerprint of a module's current state: an order-sensitive combine of
/// its name, per-slot global fingerprints, and per-slot function
/// fingerprints (see [`autophase_ir::fingerprint`]). Because the value is
/// composed from per-slot hashes, an incremental maintainer
/// ([`ModuleFingerprints`]) can re-hash only dirty slots and arrive at
/// exactly this value.
pub fn fingerprint_module(m: &Module) -> u64 {
    autophase_ir::fingerprint::fingerprint_module(m)
}

/// Incrementally maintained per-slot function fingerprints plus the
/// combined module value.
///
/// [`ModuleFingerprints::update`] re-hashes only the functions a pass
/// dirtied (per the pass layer's `ChangeSet`); structural or global
/// changes route through [`ModuleFingerprints::rebuild`]. The combined
/// value always equals [`fingerprint_module`] of the synced module, so
/// content-addressed caches keyed either way agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleFingerprints {
    name_fp: u64,
    globals_fp: u64,
    per_func: Vec<Option<u64>>,
}

impl ModuleFingerprints {
    /// Hash everything from scratch.
    pub fn new(m: &Module) -> ModuleFingerprints {
        let mut fps = ModuleFingerprints {
            name_fp: 0,
            globals_fp: 0,
            per_func: Vec::new(),
        };
        fps.rebuild(m);
        fps
    }

    /// Re-hash the whole module (structural changes, global mutations,
    /// or first sync).
    pub fn rebuild(&mut self, m: &Module) {
        use autophase_ir::fingerprint::{
            combine_slots, fingerprint_function, fingerprint_global, fnv1a,
        };
        self.name_fp = fnv1a(m.name.as_bytes());
        self.globals_fp = combine_slots(
            0x610B_A150_610B_A150,
            (0..m.global_capacity()).map(|i| {
                m.global_arc(autophase_ir::GlobalId::from_index(i))
                    .map(|g| fingerprint_global(g))
            }),
        );
        self.per_func.clear();
        self.per_func.resize(m.func_capacity(), None);
        for fid in m.func_ids() {
            self.per_func[fid.index()] = Some(fingerprint_function(m.func(fid)));
        }
    }

    /// Re-hash only `dirty` functions. Sound only for non-structural
    /// changes that left globals untouched (the caller falls back to
    /// [`ModuleFingerprints::rebuild`] otherwise).
    pub fn update(&mut self, m: &Module, dirty: &[autophase_ir::FuncId]) {
        use autophase_ir::fingerprint::fingerprint_function;
        for &fid in dirty {
            self.per_func[fid.index()] = Some(fingerprint_function(m.func(fid)));
        }
    }

    /// The fingerprint of one function slot (`None` for empty slots).
    pub fn func_fp(&self, fid: autophase_ir::FuncId) -> Option<u64> {
        self.per_func.get(fid.index()).copied().flatten()
    }

    /// The combined module fingerprint — equal to [`fingerprint_module`]
    /// of the module this state is synced with.
    pub fn value(&self) -> u64 {
        use autophase_ir::fingerprint::combine_slots;
        let funcs_fp = combine_slots(0xF07C_F07C_F07C_F07C, self.per_func.iter().copied());
        mix(self.name_fp ^ mix(self.globals_fp ^ mix(funcs_fp)))
    }
}

/// Order-sensitive rolling hash over an applied pass-id stream.
///
/// `push(a); push(b)` and `push(b); push(a)` yield different values (the
/// state is passed through a non-commutative mix at every step), so
/// `[a, b]` and `[b, a]` never share a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqHash {
    state: u64,
}

impl SeqHash {
    /// The hash of the empty sequence.
    pub fn new() -> SeqHash {
        SeqHash {
            state: 0x5151_5151_5151_5151,
        }
    }

    /// Absorb one applied pass id.
    pub fn push(&mut self, pass_id: usize) {
        self.state = mix(self.state ^ (pass_id as u64).wrapping_add(1));
    }

    /// The current hash value.
    pub fn value(&self) -> u64 {
        self.state
    }

    /// Hash a whole sequence in one call.
    pub fn of(seq: &[usize]) -> u64 {
        let mut h = SeqHash::new();
        for &p in seq {
            h.push(p);
        }
        h.value()
    }
}

impl Default for SeqHash {
    fn default() -> SeqHash {
        SeqHash::new()
    }
}

/// A cache key: which program, and which (effective) pass prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`fingerprint_module`] of the pristine program.
    pub program: u64,
    /// [`SeqHash`] value of the applied pass stream.
    pub seq: u64,
}

/// Everything one profiler run learns about a module state.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// [`fingerprint_module`] of the post-pass module.
    pub module_fingerprint: u64,
    /// Table-2 features of the post-pass module.
    pub features: FeatureVector,
    /// Estimated clock cycles.
    pub cycles: u64,
    /// Resource estimate.
    pub area: AreaReport,
    /// Total FSM states.
    pub total_states: u64,
    /// Dynamic instructions executed while profiling.
    pub insts_executed: u64,
    /// Observable result of the profiled run.
    pub return_value: Option<i64>,
}

impl CacheEntry {
    /// Build an entry from a profiled module and its report.
    pub fn from_report(m: &Module, report: &HlsReport) -> CacheEntry {
        CacheEntry::from_parts(
            fingerprint_module(m),
            autophase_features::extract(m),
            report,
        )
    }

    /// Build an entry from incrementally maintained state — no module
    /// walk at all. `fingerprint` and `features` must be synced with the
    /// module the report was produced from (the incremental evaluator's
    /// invariant, enforced by the differential suite).
    pub fn from_parts(fingerprint: u64, features: FeatureVector, report: &HlsReport) -> CacheEntry {
        CacheEntry {
            module_fingerprint: fingerprint,
            features,
            cycles: report.cycles,
            area: report.area.clone(),
            total_states: report.total_states,
            insts_executed: report.insts_executed,
            return_value: report.return_value,
        }
    }
}

const COUNTERS: MapCounters = MapCounters {
    hit: ("evalcache.lookups", "hit"),
    miss: ("evalcache.lookups", "miss"),
    evict: ("evalcache.evictions", ""),
};

/// Sharded, thread-safe memoization cache for profiler results.
pub struct EvalCache {
    /// Taken with `lock_recover`: every critical section is one map
    /// operation, which keeps the map valid at each point it could
    /// unwind, so a thread that panics holding a shard does not wedge it.
    shards: Vec<Mutex<BoundedMap<CacheKey, CacheEntry>>>,
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

    /// A cache with an explicit shard count (rounded up to a power of
    /// two).
    pub fn with_shards(capacity: usize, shards: usize) -> EvalCache {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = (capacity / shards).max(1);
        EvalCache {
            shards: (0..shards)
                .map(|_| Mutex::new(BoundedMap::new(per_shard, COUNTERS)))
                .collect(),
            shard_mask: shards - 1,
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<BoundedMap<CacheKey, CacheEntry>> {
        let i = mix(key.program ^ mix(key.seq)) as usize & self.shard_mask;
        &self.shards[i]
    }

    /// Look up a key, counting a hit or a miss.
    pub fn get(&self, key: &CacheKey) -> Option<CacheEntry> {
        lock_recover(self.shard(key)).lookup(key).cloned()
    }

    /// Insert (or replace) an entry; a full shard drops its older
    /// generation.
    pub fn insert(&self, key: CacheKey, entry: CacheEntry) {
        lock_recover(self.shard(&key)).insert(key, entry);
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

    fn entry(v: u64) -> CacheEntry {
        CacheEntry {
            module_fingerprint: v,
            features: [0; autophase_features::NUM_FEATURES],
            cycles: v,
            area: AreaReport::default(),
            total_states: 0,
            insts_executed: 0,
            return_value: None,
        }
    }

    #[test]
    fn incremental_fingerprints_match_full() {
        use autophase_passes::changeset::apply_traced;
        let mut m = autophase_benchmarks::suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .unwrap()
            .module;
        let mut fps = ModuleFingerprints::new(&m);
        assert_eq!(fps.value(), fingerprint_module(&m));
        for pass in [38usize, 23, 33, 30, 31, 25, 9, 28] {
            let (changed, cs) = apply_traced(&mut m, pass);
            if !changed {
                continue;
            }
            if cs.needs_full_rebuild() || cs.globals_changed() {
                fps.rebuild(&m);
            } else {
                fps.update(&m, &cs.dirty_funcs);
            }
            assert_eq!(
                fps.value(),
                fingerprint_module(&m),
                "divergence after pass {pass}"
            );
        }
    }

    #[test]
    fn seq_hash_is_order_sensitive() {
        assert_ne!(SeqHash::of(&[1, 2]), SeqHash::of(&[2, 1]));
        assert_ne!(SeqHash::of(&[1]), SeqHash::of(&[1, 1]));
        assert_ne!(SeqHash::of(&[]), SeqHash::of(&[0]));
        assert_eq!(SeqHash::of(&[3, 4, 5]), SeqHash::of(&[3, 4, 5]));
    }

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let c = EvalCache::new(64);
        let k = CacheKey { program: 1, seq: 2 };
        assert!(c.get(&k).is_none());
        c.insert(k, entry(7));
        assert_eq!(c.get(&k).unwrap().cycles, 7);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_bounds_size_and_counts() {
        let c = EvalCache::with_shards(8, 1);
        for i in 0..50u64 {
            c.insert(CacheKey { program: i, seq: i }, entry(i));
        }
        assert!(c.len() <= 8);
        assert_eq!(c.evictions(), 50 - c.len() as u64);
        // Whatever survives must still map key → its own value.
        for i in 0..50u64 {
            if let Some(e) = c.get(&CacheKey { program: i, seq: i }) {
                assert_eq!(e.cycles, i);
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
        let k = CacheKey { program: 3, seq: 4 };
        c.insert(k, entry(11));
        let c2 = std::sync::Arc::clone(&c);
        let t = std::thread::spawn(move || {
            let _guard = lock_recover(&c2.shards[0]);
            panic!("poison the shard on purpose");
        });
        assert!(t.join().is_err());
        // Every operation must still go through, with the data intact.
        assert_eq!(c.get(&k).unwrap().cycles, 11);
        let k2 = CacheKey { program: 5, seq: 6 };
        c.insert(k2, entry(12));
        assert_eq!(c.get(&k2).unwrap().cycles, 12);
        assert_eq!(c.stats().len, 2);
    }

    #[test]
    fn a_full_shard_drops_its_older_generation() {
        let c = EvalCache::with_shards(2, 1);
        let keys: Vec<CacheKey> = (1..=3).map(|p| CacheKey { program: p, seq: 0 }).collect();
        c.insert(keys[0], entry(1));
        c.insert(keys[1], entry(2));
        c.get(&keys[0]); // a hit does not promote
        c.insert(keys[2], entry(3));
        assert!(c.get(&keys[0]).is_none(), "the oldest insert went");
        assert_eq!(c.get(&keys[1]).unwrap().cycles, 2);
        assert_eq!(c.get(&keys[2]).unwrap().cycles, 3);
        assert_eq!((c.len(), c.evictions()), (2, 1));
    }
}
