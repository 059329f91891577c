//! Eviction behaviour of the environment's two memos — the profile memo
//! (`EvalCache`, here one shard of two entries) and the snapshot memo —
//! under capacity pressure. Both sit on the workspace's two-generation
//! `BoundedMap`: a full memo drops the older half of its inserts, and a
//! hit does not promote (the test names below predate the map and the
//! one cache, and are kept so their ids stay stable).
//!
//! Eviction must be invisible to correctness: an evicted entry costs a
//! recompute, and the recomputed result must be bit-identical to what the
//! memo would have returned. The telemetry eviction counters must advance
//! so capacity pressure is observable in production.

use autophase_core::incremental::{snapshot_memo, IncrementalEval, SnapEntry};
use autophase_core::EvalCache;
use autophase_hls::profile::profile_module;
use autophase_hls::HlsConfig;
use autophase_ir::printer::print_module;
use autophase_ir::Module;
use autophase_passes::changeset::apply_traced;
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
fn snapshot_memo_evicts_lru_and_recompute_is_bit_identical() {
    let program = programs().remove(0);
    // Record transitions for several single-pass sequences.
    let passes: [u16; 3] = [38, 23, 33];
    let mut results: Vec<(u16, String)> = Vec::new();
    let mut memo = snapshot_memo(2);
    for &pass in &passes {
        let mut m = program.clone();
        let (changed, cs) = apply_traced(&mut m, pass as usize);
        let entry = if changed {
            let mut eval = IncrementalEval::new(&program);
            eval.apply(&m, &cs);
            SnapEntry::change(m.clone(), eval)
        } else {
            SnapEntry::noop()
        };
        results.push((pass, print_module(&m)));
        memo.insert((0, vec![pass]), Arc::new(entry));
    }
    // Capacity 2, three inserts: the first key is gone.
    let stats = memo.stats();
    assert_eq!((stats.evictions, stats.len), (1, 2));
    assert!(memo.lookup(&(0, vec![passes[0]])).is_none());

    // Recompute the evicted transition: bit-identical to the recording.
    let mut m = program.clone();
    let (changed, cs) = apply_traced(&mut m, passes[0] as usize);
    assert_eq!(print_module(&m), results[0].1, "recompute diverged");
    let entry = if changed {
        let mut eval = IncrementalEval::new(&program);
        eval.apply(&m, &cs);
        SnapEntry::change(m.clone(), eval)
    } else {
        SnapEntry::noop()
    };
    memo.insert((0, vec![passes[0]]), Arc::new(entry));
    let restored = memo.lookup(&(0, vec![passes[0]])).expect("reinserted");
    if let Some((rm, re)) = restored.state_clone() {
        assert_eq!(print_module(&rm), results[0].1);
        assert_eq!(
            re.module_fp(),
            autophase_core::eval_cache::fingerprint_module(&rm)
        );
    }
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

    let mut sm = snapshot_memo(1);
    sm.insert((0, vec![1]), Arc::new(SnapEntry::noop()));
    sm.insert((0, vec![2]), Arc::new(SnapEntry::noop())); // evicts seq [1]
    assert_eq!(sm.stats().evictions, 1);

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
    assert!(
        counter("core.snap_memo", "evict") >= 1,
        "snapshot memo eviction counter must advance"
    );
    telemetry::reset();
}
