//! Eviction behaviour of the environment's profile memo (`EvalCache`,
//! here one shard of two entries) under capacity pressure. It sits on the
//! workspace's two-generation `BoundedMap`: a full memo drops the older
//! half of its inserts, and a hit does not promote (the test names below
//! predate the map and the one cache, and are kept so their ids stay
//! stable).
//!
//! Eviction must be invisible to correctness: an evicted entry costs a
//! recompute, and the recomputed result must be bit-identical to what the
//! memo would have returned. The telemetry eviction counters must advance
//! so capacity pressure is observable in production.

use autophase_core::EvalCache;
use autophase_hls::profile::profile_module;
use autophase_hls::HlsConfig;
use autophase_ir::Module;
use autophase_telemetry as telemetry;
use std::sync::Arc;

fn programs() -> Vec<Module> {
    let mut out: Vec<Module> = autophase_benchmarks::suite()
        .into_iter()
        .map(|b| b.module)
        .collect();
    out.truncate(6);
    assert!(out.len() >= 4, "suite too small for eviction pressure");
    out
}

#[test]
fn profile_memo_evicts_lru_and_recompute_is_bit_identical() {
    let programs = programs();
    let cfg = HlsConfig::default();
    let reports: Vec<_> = programs
        .iter()
        .map(|m| profile_module(m, &cfg).expect("suite programs profile"))
        .collect();
    let fps: Vec<u64> = programs
        .iter()
        .map(autophase_core::eval_cache::fingerprint_module)
        .collect();

    let memo = EvalCache::with_shards(2, 1);
    memo.insert(fps[0], Arc::new(reports[0].clone()));
    memo.insert(fps[1], Arc::new(reports[1].clone()));
    assert_eq!(memo.stats().evictions, 0);

    // A hit does not promote: entry 0 is still the older generation.
    assert!(memo.get(fps[0]).is_some());
    memo.insert(fps[2], Arc::new(reports[2].clone()));
    let stats = memo.stats();
    assert_eq!((stats.evictions, stats.len), (1, 2));
    assert!(memo.get(fps[0]).is_none(), "oldest insert evicted");
    assert!(memo.get(fps[1]).is_some(), "younger insert kept");

    // Recomputing the evicted entry gives a bit-identical report.
    let recomputed = profile_module(&programs[0], &cfg).expect("profiles again");
    assert_eq!(recomputed.cycles, reports[0].cycles);
    assert_eq!(recomputed.total_states, reports[0].total_states);
    assert_eq!(recomputed.insts_executed, reports[0].insts_executed);
    assert_eq!(recomputed.return_value, reports[0].return_value);

    // Re-inserting restores hit service.
    memo.insert(fps[0], Arc::new(recomputed));
    assert_eq!(memo.get(fps[0]).unwrap().cycles, reports[0].cycles);
}

#[test]
fn profile_memo_churn_under_sustained_pressure() {
    let programs = programs();
    let cfg = HlsConfig::default();
    let memo = EvalCache::with_shards(2, 1);
    // Stream all programs through a 2-entry memo several times: every
    // round evicts, and every served value stays correct.
    for round in 0..3 {
        for (i, m) in programs.iter().enumerate() {
            let fp = autophase_core::eval_cache::fingerprint_module(m);
            let expected = profile_module(m, &cfg).expect("profiles");
            let served = match memo.get(fp) {
                Some(hit) => hit,
                None => {
                    let fresh = Arc::new(expected.clone());
                    memo.insert(fp, Arc::clone(&fresh));
                    fresh
                }
            };
            assert_eq!(served.cycles, expected.cycles, "round {round} prog {i}");
            assert!(memo.stats().len <= 2);
        }
    }
    assert!(
        memo.stats().evictions >= programs.len() as u64,
        "sustained pressure must evict (saw {})",
        memo.stats().evictions
    );
}

#[test]
fn eviction_telemetry_counters_advance() {
    telemetry::reset();
    telemetry::enable();

    let pm = EvalCache::with_shards(1, 1);
    let report = Arc::new(autophase_hls::profile::HlsReport {
        cycles: 1,
        total_states: 0,
        area: autophase_hls::area::AreaReport::default(),
        insts_executed: 0,
        return_value: None,
    });
    pm.insert(1, Arc::clone(&report));
    pm.insert(2, Arc::clone(&report)); // evicts fp 1
    pm.insert(3, Arc::clone(&report)); // evicts fp 2
    assert_eq!(pm.stats().evictions, 2);

    telemetry::disable();
    let snap = telemetry::snapshot();
    let counter = |name: &str, label: &str| {
        snap.counters
            .iter()
            .find(|c| c.name == name && c.label == label)
            .map(|c| c.value)
            .unwrap_or(0)
    };
    assert!(
        counter("evalcache.evictions", "") >= 2,
        "profile memo eviction counter must advance"
    );
    telemetry::reset();
}
