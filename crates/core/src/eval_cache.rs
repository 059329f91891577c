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
//! * the **program fingerprint** is an FNV-1a hash of the pristine
//!   module's printed IR (stable across clones, order-independent of how
//!   the module was built);
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
//! mixed key, so concurrent workers rarely contend. Each shard holds at
//! most `capacity / shards` entries; inserting into a full shard evicts
//! its least-recently-used entry (a monotone stamp updated on every hit).
//! Hits, misses, and evictions are tracked with per-shard atomic counters
//! — [`EvalCache::stats`] aggregates them, [`EvalCache::shard_stats`]
//! exposes the per-shard breakdown (how evenly keys spread), and when
//! telemetry is enabled every lookup also feeds the global
//! `evalcache.lookups{hit|miss}` / `evalcache.evictions` counters.

use autophase_features::FeatureVector;
use autophase_hls::area::AreaReport;
use autophase_hls::profile::HlsReport;
use autophase_ir::fingerprint::mix64 as mix;
use autophase_ir::Module;
use autophase_telemetry::{self as telemetry, lock_recover};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
        CacheEntry {
            module_fingerprint: fingerprint_module(m),
            features: autophase_features::extract(m),
            cycles: report.cycles,
            area: report.area.clone(),
            total_states: report.total_states,
            insts_executed: report.insts_executed,
            return_value: report.return_value,
        }
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

/// Counter snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Shard {
    /// Taken with `lock_recover`: a thread that panics holding it (e.g.
    /// an injected fault inside a compute callback) leaves the map
    /// intact, since every mutation is a single `HashMap` operation.
    map: Mutex<HashMap<CacheKey, (u64, CacheEntry)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: lock_recover(&self.map).len(),
        }
    }
}

/// Process-wide telemetry handles for cache traffic, cached so the lookup
/// path never takes the registry lock.
struct CacheInstruments {
    hits: Arc<telemetry::Counter>,
    misses: Arc<telemetry::Counter>,
    evictions: Arc<telemetry::Counter>,
}

fn cache_instruments() -> &'static CacheInstruments {
    static CELL: OnceLock<CacheInstruments> = OnceLock::new();
    CELL.get_or_init(|| CacheInstruments {
        hits: telemetry::counter("evalcache.lookups", "hit"),
        misses: telemetry::counter("evalcache.lookups", "miss"),
        evictions: telemetry::counter("evalcache.evictions", ""),
    })
}

/// A shard of the transition memo: `(state key, pass id)` → did the pass
/// report a change? Entries are a couple of words each, so the memo gets
/// a larger per-shard budget than the entry map.
struct TransShard {
    map: Mutex<HashMap<(CacheKey, u16), (u64, bool)>>,
}

/// Sharded, thread-safe memoization cache for profiler results.
pub struct EvalCache {
    shards: Vec<Shard>,
    trans_shards: Vec<TransShard>,
    shard_mask: usize,
    per_shard_cap: usize,
    stamp: AtomicU64,
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
        let per_shard_cap = (capacity / shards).max(1);
        EvalCache {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            trans_shards: (0..shards)
                .map(|_| TransShard {
                    map: Mutex::new(HashMap::new()),
                })
                .collect(),
            shard_mask: shards - 1,
            per_shard_cap,
            stamp: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Shard {
        let i = mix(key.program ^ mix(key.seq)) as usize & self.shard_mask;
        &self.shards[i]
    }

    fn trans_shard(&self, key: &CacheKey) -> &TransShard {
        let i = mix(key.program ^ mix(key.seq)) as usize & self.shard_mask;
        &self.trans_shards[i]
    }

    fn next_stamp(&self) -> u64 {
        self.stamp.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up a key, counting a hit or a miss.
    pub fn get(&self, key: &CacheKey) -> Option<CacheEntry> {
        let shard = self.shard(key);
        let found = {
            let mut map = lock_recover(&shard.map);
            map.get_mut(key).map(|slot| {
                slot.0 = self.stamp.fetch_add(1, Ordering::Relaxed);
                slot.1.clone()
            })
        };
        if found.is_some() {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            if telemetry::enabled() {
                cache_instruments().hits.add(1);
            }
        } else {
            shard.misses.fetch_add(1, Ordering::Relaxed);
            if telemetry::enabled() {
                cache_instruments().misses.add(1);
            }
        }
        found
    }

    /// Look up a key *without* touching the hit/miss counters (the LRU
    /// stamp is still refreshed). For secondary consumers — e.g. serving
    /// an observation's feature vector off an entry the profiler query
    /// just produced — so the counters keep meaning "profiler-query
    /// outcomes" and the bench's hit rate stays interpretable.
    pub fn peek(&self, key: &CacheKey) -> Option<CacheEntry> {
        let mut map = lock_recover(&self.shard(key).map);
        map.get_mut(key).map(|slot| {
            slot.0 = self.stamp.fetch_add(1, Ordering::Relaxed);
            slot.1.clone()
        })
    }

    /// Insert (or refresh) an entry, evicting the shard's LRU entry when
    /// the shard is full.
    pub fn insert(&self, key: CacheKey, entry: CacheEntry) {
        let stamp = self.next_stamp();
        let shard = self.shard(&key);
        let mut map = lock_recover(&shard.map);
        if map.len() >= self.per_shard_cap && !map.contains_key(&key) {
            if let Some(oldest) = map.iter().min_by_key(|(_, (s, _))| *s).map(|(k, _)| *k) {
                map.remove(&oldest);
                shard.evictions.fetch_add(1, Ordering::Relaxed);
                if telemetry::enabled() {
                    cache_instruments().evictions.add(1);
                }
            }
        }
        map.insert(key, (stamp, entry));
    }

    /// Fetch `key`, computing and inserting the entry on a miss. The
    /// computation runs *outside* the shard lock, so a slow profile never
    /// blocks other shard traffic; two racing threads may both compute,
    /// in which case both results are (by determinism of the profiler)
    /// identical and the second insert is a no-op refresh.
    pub fn get_or_insert_with(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> CacheEntry,
    ) -> CacheEntry {
        if let Some(e) = self.get(&key) {
            return e;
        }
        let entry = compute();
        self.insert(key, entry.clone());
        entry
    }

    /// Look up the transition memo: did applying `pass` in the state
    /// named by `key` report a change? `None` means the transition has
    /// never been observed. Passes are deterministic, so a recorded
    /// answer is exact — the environment uses it to skip re-running the
    /// pass on cache-warm steps (lazy module materialization).
    ///
    /// Like [`EvalCache::peek`], this does not touch the hit/miss
    /// counters.
    pub fn transition(&self, key: &CacheKey, pass: usize) -> Option<bool> {
        let tkey = (*key, pass as u16);
        let mut map = lock_recover(&self.trans_shard(key).map);
        map.get_mut(&tkey).map(|slot| {
            slot.0 = self.stamp.fetch_add(1, Ordering::Relaxed);
            slot.1
        })
    }

    /// Record a transition observation (see [`EvalCache::transition`]).
    pub fn record_transition(&self, key: CacheKey, pass: usize, changed: bool) {
        let stamp = self.next_stamp();
        let shard = self.trans_shard(&key);
        let mut map = lock_recover(&shard.map);
        // The memo rides on the entry map's per-shard budget scaled by 8:
        // its entries are ~50x smaller, and evicting one only costs a
        // future pass re-run, never correctness.
        let cap = self.per_shard_cap.saturating_mul(8);
        let tkey = (key, pass as u16);
        if map.len() >= cap && !map.contains_key(&tkey) {
            if let Some(oldest) = map.iter().min_by_key(|(_, (s, _))| *s).map(|(k, _)| *k) {
                map.remove(&oldest);
            }
        }
        map.insert(tkey, (stamp, changed));
    }

    /// Resident entry count across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(&s.map).len()).sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.misses.load(Ordering::Relaxed))
            .sum()
    }

    /// Entries displaced by capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.evictions.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot all counters, aggregated across shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            len: 0,
        };
        for s in self.shard_stats() {
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.len += s.len;
        }
        total
    }

    /// Per-shard counter snapshots, in shard-index order. Shows how evenly
    /// the key mix spreads load (a hot shard means lock contention).
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    /// Export the aggregate counters as telemetry gauges
    /// (`evalcache.hits` / `misses` / `evictions` / `len` /
    /// `hit_rate`). No-op when telemetry is disabled. Call at a run
    /// boundary (end of a bench round, end of training) — the live
    /// `evalcache.lookups{hit|miss}` counters cover the streaming view.
    pub fn publish_telemetry(&self) {
        if !telemetry::enabled() {
            return;
        }
        let s = self.stats();
        telemetry::set_gauge("evalcache.hits", "", s.hits as f64);
        telemetry::set_gauge("evalcache.misses", "", s.misses as f64);
        telemetry::set_gauge("evalcache.evictions", "", s.evictions as f64);
        telemetry::set_gauge("evalcache.len", "", s.len as f64);
        telemetry::set_gauge("evalcache.hit_rate", "", s.hit_rate());
    }

    /// Drop every entry and transition memo (counters are kept).
    pub fn clear(&self) {
        for s in &self.shards {
            lock_recover(&s.map).clear();
        }
        for s in &self.trans_shards {
            lock_recover(&s.map).clear();
        }
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
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn get_or_insert_computes_once() {
        let c = EvalCache::new(64);
        let k = CacheKey { program: 9, seq: 9 };
        let mut calls = 0;
        for _ in 0..3 {
            let e = c.get_or_insert_with(k, || {
                calls += 1;
                entry(5)
            });
            assert_eq!(e.cycles, 5);
        }
        assert_eq!(calls, 1);
        assert_eq!(c.hits(), 2);
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
    fn shard_stats_sum_to_aggregate() {
        let c = EvalCache::with_shards(64, 4);
        for i in 0..40u64 {
            let k = CacheKey {
                program: i,
                seq: i * 3,
            };
            c.get(&k); // miss
            c.insert(k, entry(i));
            c.get(&k); // hit
        }
        let per_shard = c.shard_stats();
        assert_eq!(per_shard.len(), 4);
        let agg = c.stats();
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), agg.hits);
        assert_eq!(per_shard.iter().map(|s| s.misses).sum::<u64>(), agg.misses);
        assert_eq!(
            per_shard.iter().map(|s| s.evictions).sum::<u64>(),
            agg.evictions
        );
        assert_eq!(per_shard.iter().map(|s| s.len).sum::<usize>(), agg.len);
        assert_eq!(agg.hits, 40);
        assert_eq!(agg.misses, 40);
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
            let _guard = lock_recover(&c2.shards[0].map);
            panic!("poison the shard on purpose");
        });
        assert!(t.join().is_err());
        // Every operation must still go through, with the data intact.
        assert_eq!(c.get(&k).unwrap().cycles, 11);
        let k2 = CacheKey { program: 5, seq: 6 };
        c.insert(k2, entry(12));
        assert_eq!(c.peek(&k2).unwrap().cycles, 12);
        assert_eq!(c.len(), 2);
        c.record_transition(k, 7, true);
        assert_eq!(c.transition(&k, 7), Some(true));
        let s = c.stats();
        assert_eq!(s.len, 2);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn lru_keeps_recently_used() {
        let c = EvalCache::with_shards(2, 1);
        let a = CacheKey { program: 1, seq: 0 };
        let b = CacheKey { program: 2, seq: 0 };
        c.insert(a, entry(1));
        c.insert(b, entry(2));
        c.get(&a); // a is now most recent
        c.insert(CacheKey { program: 3, seq: 0 }, entry(3)); // evicts b
        assert!(c.get(&a).is_some());
        assert!(c.get(&b).is_none());
    }
}
