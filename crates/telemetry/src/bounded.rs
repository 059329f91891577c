//! The workspace's one bounded memo map (DESIGN.md §4f, §4n).
//!
//! Every memo in the workspace caches a pure function of its key, so
//! eviction decides only *when* a value is recomputed, never what it is,
//! and the cheapest bound that forgets cold entries is the right one: two
//! generations. Inserts fill `young`; when it holds half the budget it
//! becomes `old` and the previous `old` is dropped whole — O(1) per
//! insert, no per-entry stamp, no scan. Lookups read both generations and
//! write nothing to either (a hit does not promote), and [`BoundedMap::get`]
//! writes nothing at all, so a map behind a read-write lock serves
//! concurrent probes under the read lock without sharing a dirty line.

use crate::metrics::Counter;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// Counter snapshot of one map (or of several, summed field by field).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// [`BoundedMap::lookup`]s that found an entry.
    pub hits: u64,
    /// [`BoundedMap::lookup`]s that found nothing.
    pub misses: u64,
    /// Entries dropped to stay inside the budget.
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

/// The `(name, label)` telemetry counters one map reports its traffic
/// under.
#[derive(Debug, Clone, Copy)]
pub struct MapCounters {
    /// Bumped by a lookup that found its key.
    pub hit: (&'static str, &'static str),
    /// Bumped by a lookup that did not.
    pub miss: (&'static str, &'static str),
    /// Advanced by the number of entries a rotation dropped.
    pub evict: (&'static str, &'static str),
}

impl MapCounters {
    /// `name{hit}`, `name{miss}` and `name{evict}`.
    pub const fn family(name: &'static str) -> MapCounters {
        MapCounters {
            hit: (name, "hit"),
            miss: (name, "miss"),
            evict: (name, "evict"),
        }
    }
}

/// A `HashMap` that stays inside a weight budget by keeping two
/// generations (see the module docs).
#[derive(Debug)]
pub struct BoundedMap<K, V> {
    budget: usize,
    weigh: fn(&K, &V) -> usize,
    young: HashMap<K, V>,
    young_weight: usize,
    old: HashMap<K, V>,
    old_weight: usize,
    /// Hits and misses of [`BoundedMap::lookup`], and evictions.
    counts: [u64; 3],
    names: MapCounters,
    /// `names` resolved to handles on the first event recorded with
    /// telemetry on, so the lookup path never takes the registry lock.
    counters: OnceLock<[Arc<Counter>; 3]>,
}

const HIT: usize = 0;
const MISS: usize = 1;
const EVICT: usize = 2;

impl<K: Hash + Eq, V> BoundedMap<K, V> {
    /// A map holding at most `budget` entries.
    pub fn new(budget: usize, names: MapCounters) -> BoundedMap<K, V> {
        BoundedMap::weighted(budget, |_, _| 1, names)
    }

    /// A map whose entries are charged `weigh(key, value)` each against
    /// `budget` (resident bytes, say).
    pub fn weighted(
        budget: usize,
        weigh: fn(&K, &V) -> usize,
        names: MapCounters,
    ) -> BoundedMap<K, V> {
        BoundedMap {
            budget,
            weigh,
            young: HashMap::new(),
            young_weight: 0,
            old: HashMap::new(),
            old_weight: 0,
            counts: [0; 3],
            names,
            counters: OnceLock::new(),
        }
    }

    fn emit(&self, which: usize, n: u64) {
        if crate::enabled() {
            let counters = self.counters.get_or_init(|| {
                [self.names.hit, self.names.miss, self.names.evict]
                    .map(|(name, label)| crate::counter(name, label))
            });
            counters[which].add(n);
        }
    }

    /// The value last inserted under `key`, if it is still resident. The
    /// outcome reaches the telemetry counters and nothing else: threads
    /// sharing the map write no memory of it. An owner with exclusive
    /// access uses [`BoundedMap::lookup`], which also keeps count.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_if(key, |_| true)
    }

    /// [`BoundedMap::get`] for a value `accept` must also vouch for: a
    /// resident value it refuses reads, and is reported, as a miss. A map
    /// keyed by a digest of its real key checks that key here.
    pub fn get_if<Q>(&self, key: &Q, accept: impl FnOnce(&V) -> bool) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let found = self
            .young
            .get(key)
            .or_else(|| self.old.get(key))
            .filter(|v| accept(v));
        self.emit(if found.is_some() { HIT } else { MISS }, 1);
        found
    }

    /// [`BoundedMap::get`], counted as a hit or a miss in
    /// [`BoundedMap::stats`].
    pub fn lookup<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let found = self.young.get(key).or_else(|| self.old.get(key));
        let which = if found.is_some() { HIT } else { MISS };
        self.counts[which] += 1;
        self.emit(which, 1);
        found
    }

    fn drop_old(&mut self) {
        let dropped = self.old.len() as u64;
        self.old.clear();
        self.old_weight = 0;
        self.counts[EVICT] += dropped;
        self.emit(EVICT, dropped);
    }

    /// Insert or replace `key`. An entry heavier than the whole budget is
    /// not kept; any other is readable once this returns, and stays so at
    /// least until `young` next fills.
    pub fn insert(&mut self, key: K, value: V) {
        // One resident copy per key. `remove` hashes its key even on an
        // empty table.
        if let Some(v) = self.young.remove(&key) {
            self.young_weight -= (self.weigh)(&key, &v);
        } else if !self.old.is_empty() {
            if let Some(v) = self.old.remove(&key) {
                self.old_weight -= (self.weigh)(&key, &v);
            }
        }
        let weight = (self.weigh)(&key, &value);
        if weight > self.budget {
            return;
        }
        // `young` takes the larger half, so a budget of one entry holds one.
        if self.young_weight + weight > self.budget - self.budget / 2 {
            self.drop_old();
            std::mem::swap(&mut self.young, &mut self.old);
            self.old_weight = std::mem::take(&mut self.young_weight);
        }
        // An odd budget, or an entry over half of it, can still overflow.
        if self.old_weight + self.young_weight + weight > self.budget {
            self.drop_old();
        }
        self.young_weight += weight;
        self.young.insert(key, value);
    }

    /// Weight charged to resident entries; never above the budget.
    pub fn weight(&self) -> usize {
        self.young_weight + self.old_weight
    }

    /// Lookup and eviction counts since construction, and the resident
    /// entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counts[HIT],
            misses: self.counts[MISS],
            evictions: self.counts[EVICT],
            len: self.young.len() + self.old.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const NAMES: MapCounters = MapCounters::family("test.bounded");

    /// Values carry their own weight, so one map mixes sizes.
    fn sized(budget: usize) -> BoundedMap<usize, (u64, usize)> {
        BoundedMap::weighted(budget, |_, v| v.1, NAMES)
    }

    proptest! {
        /// Against a plain `HashMap` of the last value inserted per key,
        /// at any budget (one entry, odd, smaller than most entries): the
        /// charged weight never passes the budget; an insert that fits is
        /// readable at once and one that cannot fit is not kept; a probe
        /// answers with its own key's last insert or nothing, counted
        /// (`lookup`) or not (`get`); hits and misses add up to the
        /// lookups; and every kept insert is either resident, replaced by
        /// a later insert of its key, or counted as an eviction.
        #[test]
        fn agrees_with_a_map_model_inside_its_budget(
            budget in 1usize..2_048,
            ops in proptest::collection::vec((0usize..24, 1usize..1_400, 0u64..1_000), 1..200),
        ) {
            let mut map = sized(budget);
            let mut model: HashMap<usize, (u64, usize)> = HashMap::new();
            let (mut lookups, mut kept, mut replaced) = (0u64, 0u64, 0u64);
            for (id, weight, tag) in ops {
                let was_resident = map.lookup(&id).is_some();
                map.insert(id, (tag, weight));
                model.insert(id, (tag, weight));
                let fits = weight <= budget;
                kept += u64::from(fits);
                replaced += u64::from(was_resident);
                prop_assert_eq!(map.lookup(&id), fits.then_some(&(tag, weight)));
                prop_assert!(map.weight() <= budget, "charged {} of {budget}", map.weight());
                lookups += 2;

                let mut resident = 0;
                for probe in 0..24 {
                    lookups += 1;
                    let uncounted = map.get(&probe).copied();
                    let found = map.lookup(&probe);
                    prop_assert_eq!(found, uncounted.as_ref());
                    if found.is_some() {
                        prop_assert_eq!(found, model.get(&probe));
                        resident += 1;
                    }
                }
                let stats = map.stats();
                prop_assert_eq!(stats.len, resident);
                prop_assert_eq!(stats.hits + stats.misses, lookups);
                prop_assert_eq!(stats.len as u64 + replaced + stats.evictions, kept);
            }
        }

        /// Unit weights, even budget: an entry outlives the rotation after
        /// its insert and is gone with the next one, half the budget at a
        /// time, and a hit in between changes nothing.
        #[test]
        fn an_entry_survives_one_rotation_and_not_the_next(half in 1usize..40) {
            let mut map: BoundedMap<usize, usize> = BoundedMap::new(2 * half, NAMES);
            for k in 0..2 * half {
                map.insert(k, k);
            }
            // `young` filled once and rotated; nothing has been dropped.
            for k in 0..2 * half {
                prop_assert_eq!(map.get(&k), Some(&k));
            }
            prop_assert_eq!(map.stats().evictions, 0);
            map.insert(2 * half, 0);
            for k in 0..half {
                prop_assert_eq!(map.get(&k), None);
            }
            for k in half..2 * half {
                prop_assert_eq!(map.get(&k), Some(&k));
            }
            let stats = map.stats();
            prop_assert_eq!((stats.len, stats.evictions), (half + 1, half as u64));
        }
    }

    #[test]
    fn an_entry_over_the_budget_is_not_kept_and_displaces_its_key() {
        let mut map = sized(100);
        map.insert(1, (7, 60));
        map.insert(1, (8, 101));
        assert_eq!(map.get(&1), None, "the stale value went with it");
        assert_eq!((map.weight(), map.stats().len), (0, 0));
        map.insert(2, (9, 100));
        assert_eq!(map.get(&2), Some(&(9, 100)));
    }

    #[test]
    fn a_refused_value_reads_and_reports_as_a_miss() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        let mut map: BoundedMap<u8, &str> = BoundedMap::new(4, MapCounters::family("test.get_if"));
        map.insert(1, "one");
        assert_eq!(map.get_if(&1, |v| *v == "one"), Some(&"one"));
        assert_eq!(map.get_if(&1, |v| *v == "uno"), None);
        assert_eq!(map.get_if(&2, |_| true), None);
        crate::disable();
        let snap = crate::snapshot();
        let counter = |label: &str| {
            let mut family = snap.counters.iter().filter(|c| c.name == "test.get_if");
            family.find(|c| c.label == label).map(|c| c.value)
        };
        assert_eq!((counter("hit"), counter("miss")), (Some(1), Some(2)));
        crate::reset();
    }

    #[test]
    fn traffic_reaches_the_named_counters() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        // A family of its own: the cases above run beside this one.
        let mut map: BoundedMap<u8, u8> = BoundedMap::new(1, MapCounters::family("test.traffic"));
        map.insert(1, 1);
        map.insert(2, 2); // evicts key 1
        assert!(map.lookup(&1).is_none());
        assert!(map.lookup(&2).is_some());
        assert!(map.get(&2).is_some()); // reported, but not counted by `stats`
        crate::disable();
        assert!(map.lookup(&2).is_some()); // counted by `stats`, not reported
        let snap = crate::snapshot();
        let counter = |label: &str| {
            let mut family = snap.counters.iter().filter(|c| c.name == "test.traffic");
            family.find(|c| c.label == label).map(|c| c.value)
        };
        assert_eq!(
            (counter("hit"), counter("miss"), counter("evict")),
            (Some(2), Some(1), Some(1))
        );
        let stats = map.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 1, 1));
        crate::reset();
    }
}
