//! Property tests for the evaluation cache.
//!
//! The cache's correctness story has two legs, each pinned by a
//! property here (that its key — the content fingerprint — tracks the
//! module is `eval_cache.rs::incremental_fingerprints_match_full` and
//! `incremental.rs::eval_tracks_pass_stream`):
//!
//! * **freshness** — a `get` never returns anything but the exact value
//!   last inserted for that key, across any interleaving of inserts and
//!   evictions;
//! * **bounded growth** — capacity is enforced per shard, and evictions
//!   remove whole entries (no partial state).

use autophase_core::eval_cache::EvalCache;
use autophase_hls::profile::HlsReport;
use proptest::prelude::*;
use std::sync::Arc;

fn entry(tag: u64) -> Arc<HlsReport> {
    Arc::new(HlsReport {
        cycles: tag.wrapping_mul(31) ^ 7,
        total_states: tag,
        area: Default::default(),
        insts_executed: tag,
        return_value: Some(tag as i64),
    })
}

/// The payload invariant `entry(tag)` establishes; every value read back
/// from a cache in these tests must satisfy it.
fn check_payload(e: &HlsReport) {
    let tag = e.total_states;
    assert_eq!(e.cycles, tag.wrapping_mul(31) ^ 7);
    assert_eq!(e.insts_executed, tag);
    assert_eq!(e.return_value, Some(tag as i64));
}

/// A key per `(a, b)` pair, distinct for distinct pairs below 2^32.
fn key(a: u64, b: u64) -> u64 {
    (a << 32) | b
}

proptest! {
    /// After an arbitrary series of inserts (with key collisions and
    /// evictions), every surviving key returns exactly the last value
    /// inserted for it — eviction never resurrects stale data.
    #[test]
    fn get_returns_last_insert_despite_evictions(
        ops in proptest::collection::vec((0u64..40, 0u64..6, 0u64..1000), 1..120),
        capacity in 4usize..40,
    ) {
        let cache = EvalCache::with_shards(capacity, 4);
        let mut model = std::collections::HashMap::new();
        for (a, b, tag) in ops {
            let key = key(a, b);
            cache.insert(key, entry(tag));
            model.insert(key, tag);
            if let Some(e) = cache.get(key) {
                // The entry we just inserted must be readable and fresh.
                prop_assert_eq!(e.total_states, tag);
                check_payload(&e);
            } else {
                // Only possible if the insert itself was immediately
                // evicted, which the LRU stamp makes impossible: the
                // newest entry is never the eviction victim.
                prop_assert!(false, "freshly inserted key missing");
            }
        }
        // Whatever survived matches the model exactly.
        for (key, tag) in &model {
            if let Some(e) = cache.get(*key) {
                prop_assert_eq!(e.total_states, *tag);
                check_payload(&e);
            }
        }
        prop_assert!(cache.len() <= capacity.max(4));
    }

    /// Counters are consistent: hits + misses equals lookups, and the
    /// hit rate is their ratio.
    #[test]
    fn counters_add_up(
        keys in proptest::collection::vec((0u64..8, 0u64..8), 1..60),
    ) {
        let cache = EvalCache::new(64);
        let mut lookups = 0u64;
        for &(a, b) in &keys {
            let key = key(a, b);
            lookups += 1;
            if cache.get(key).is_none() {
                cache.insert(key, entry(a ^ b));
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, lookups);
        let rate = stats.hit_rate();
        prop_assert!((0.0..=1.0).contains(&rate));
        if stats.misses == 0 {
            prop_assert_eq!(rate, 1.0);
        }
    }
}

/// Deterministic companion to the proptests: a cache of capacity 1 per
/// shard must still never serve entry A under key B.
#[test]
fn eviction_churn_never_cross_serves() {
    let cache = EvalCache::with_shards(4, 4);
    for round in 0u64..50 {
        for k in 0u64..16 {
            let key = key(k, round);
            cache.insert(key, entry(k.wrapping_mul(1000) + round));
            let e = cache.get(key).expect("just inserted");
            assert_eq!(e.total_states, k.wrapping_mul(1000) + round);
            check_payload(&e);
        }
    }
    assert!(cache.evictions() > 0, "churn should evict");
    assert!(cache.len() <= 4);
}
