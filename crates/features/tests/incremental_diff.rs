//! Differential testing of the incremental evaluation paths (tier 1).
//!
//! `tests/pass_semantics_diff.rs` (workspace root) proves every Table-1
//! pass preserves semantics and reports its change flag honestly. This
//! suite proves the *incremental* evaluation built on top of those passes
//! is invisible: for every `(program, state, pass)` triple,
//!
//! * the per-function feature decomposition
//!   ([`IncrementalFeatures`]) updated with the pass's derived
//!   `ChangeSet` must equal a from-scratch [`extract`] of the mutated
//!   module, bit for bit;
//! * profiling through the content-addressed per-function schedule cache
//!   ([`ScheduleCache`]) must reproduce the uncached profile exactly —
//!   cycles, FSM states, area, executed instructions, and return value;
//! * the module fingerprint, whose per-function hashes are facts of each
//!   function version, must equal the from-scratch fold of every
//!   function's and global's hash.
//!
//! The corpus is the full benchmark suite plus generated programs (the
//! same seeds as the pass-semantics suite), each in a pristine and a
//! warmed state, crossed with all 45 passes. Any divergence names the
//! program, state, and pass that produced it.

use autophase_features::{extract, IncrementalFeatures};
use autophase_hls::profile::{profile_with_trace, profile_with_trace_cached};
use autophase_hls::{HlsConfig, ScheduleCache};
use autophase_ir::fingerprint::{
    combine_slots, fingerprint_function, fingerprint_global, fingerprint_module, fnv1a, mix64,
};
use autophase_ir::interp::run_main;
use autophase_ir::{FuncId, GlobalId, Module};
use autophase_passes::changeset::{apply_traced, ChangeSet};
use autophase_passes::o3::O3_SEQUENCE;
use autophase_passes::registry::{self, NUM_PASSES};
use autophase_progen::{generate_valid, GenConfig};

const FUEL: u64 = 4_000_000;

/// Generated-program seeds, matching `tests/pass_semantics_diff.rs`.
const CORPUS_SEEDS: [u64; 5] = [11, 94, 233, 1042, 4711];

/// The canonicalizing prefix of the pass-semantics suite's warmed state.
const WARM_PREFIX: [usize; 3] = [23, 33, 10];

/// Benchmark suite + generated corpus, each pristine and warmed.
fn corpus() -> Vec<(String, Module)> {
    let mut corpus: Vec<(String, Module)> = autophase_benchmarks::suite()
        .into_iter()
        .map(|b| (b.name.to_string(), b.module))
        .collect();
    let cfg = GenConfig::default();
    for &s in &CORPUS_SEEDS {
        corpus.push((format!("gen{s}"), generate_valid(&cfg, s)));
    }
    let warmed: Vec<(String, Module)> = corpus
        .iter()
        .map(|(name, m)| {
            let mut w = m.clone();
            for &p in &WARM_PREFIX {
                registry::apply(&mut w, p);
            }
            (format!("{name}+warm"), w)
        })
        .collect();
    corpus.extend(warmed);
    corpus
}

/// Fold one traced pass application into an [`IncrementalFeatures`],
/// routing structural/signature changes to a rebuild — exactly the
/// dispatch the phase-ordering environment performs.
fn sync_features(inc: &mut IncrementalFeatures, m: &Module, cs: &ChangeSet) {
    if cs.needs_full_rebuild() {
        inc.rebuild(m);
    } else {
        inc.update(m, &cs.dirty_funcs);
    }
}

#[test]
fn incremental_features_match_full_extract_for_every_pass() {
    for (label, m0) in corpus() {
        for pass in 0..NUM_PASSES {
            let mut m = m0.clone();
            let mut inc = IncrementalFeatures::new(&m);
            let (changed, cs) = apply_traced(&mut m, pass);
            if changed {
                sync_features(&mut inc, &m, &cs);
            } else {
                assert_eq!(
                    cs,
                    ChangeSet::empty(),
                    "{label}: {} reported no change but a non-empty change set",
                    registry::pass_name(pass)
                );
            }
            assert_eq!(
                inc.total(),
                extract(&m),
                "{label}: incremental features diverged after {}",
                registry::pass_name(pass)
            );
        }
    }
}

#[test]
fn cached_cycles_match_full_profile_for_every_pass() {
    let cfg = HlsConfig::default();
    // One shared cache across the whole sweep: entries produced for one
    // program/pass must never leak wrong results into another (content
    // addressing is what guarantees that).
    let mut cache = ScheduleCache::default();
    for (label, m0) in corpus() {
        for pass in 0..NUM_PASSES {
            let mut m = m0.clone();
            registry::apply(&mut m, pass);
            let trace = run_main(&m, FUEL)
                .unwrap_or_else(|e| panic!("{label}: execution failed after pass {pass}: {e}"));
            let full = profile_with_trace(&m, &cfg, &trace);
            let cached = profile_with_trace_cached(&m, &cfg, &trace, &mut cache);
            assert_eq!(
                full.cycles,
                cached.cycles,
                "{label}: cycles diverged after {}",
                registry::pass_name(pass)
            );
            assert_eq!(
                full.total_states, cached.total_states,
                "{label} pass {pass}"
            );
            assert_eq!(full.area, cached.area, "{label} pass {pass}");
            assert_eq!(
                full.insts_executed, cached.insts_executed,
                "{label} pass {pass}"
            );
            assert_eq!(
                full.return_value, cached.return_value,
                "{label} pass {pass}"
            );
        }
    }
    let (hits, _misses) = cache.stats();
    assert!(hits > 0, "the sweep must reuse schedules across passes");
}

#[test]
fn incremental_features_track_whole_episodes() {
    // Episode-length pass streams (not single passes) keep one
    // decomposition alive across many updates — the accumulated-error
    // shape of bug the single-pass sweep can't catch. Includes structural
    // passes (-inline 25, -partial-inliner 24, -deadargelim 9) to force
    // mid-episode rebuild routing.
    let sequences: [&[usize]; 3] = [
        &[38, 23, 33, 30, 31, 25, 9, 28, 7, 43, 24, 31],
        &[25, 24, 25, 9, 38, 30, 31, 33, 23, 7],
        &[44, 38, 44, 23, 44, 33, 44, 30, 44, 31],
    ];
    for (label, m0) in corpus() {
        for (i, seq) in sequences.iter().enumerate() {
            let mut m = m0.clone();
            let mut inc = IncrementalFeatures::new(&m);
            for &pass in seq.iter() {
                let (changed, cs) = apply_traced(&mut m, pass);
                if changed {
                    sync_features(&mut inc, &m, &cs);
                }
            }
            assert_eq!(
                inc.total(),
                extract(&m),
                "{label}: decomposition drifted over sequence #{i}"
            );
        }
    }
}

/// The module fingerprint hashed from scratch: the fold of every slot's
/// function and global hash, with no fact store in between.
fn fingerprint_from_scratch(m: &Module) -> u64 {
    let globals = combine_slots(
        0x610B_A150_610B_A150,
        (0..m.global_capacity()).map(|i| {
            m.global_arc(GlobalId::from_index(i))
                .map(|g| fingerprint_global(g))
        }),
    );
    let funcs = combine_slots(
        0xF07C_F07C_F07C_F07C,
        (0..m.func_capacity()).map(|i| {
            m.func_arc(FuncId::from_index(i))
                .map(|f| fingerprint_function(f))
        }),
    );
    mix64(fnv1a(m.name.as_bytes()) ^ mix64(globals ^ mix64(funcs)))
}

#[test]
fn fact_backed_fingerprint_matches_the_fold_for_every_pass() {
    // The corpus again after -O3 too: no pass rewrites a global's
    // initializer, -globalopt's constant marking always folds a load as
    // well, and so the one change on this corpus that leaves every
    // function as it was is -globaldce dropping a table -O3 left
    // unreferenced (CHStone's blowfish, among others). The fingerprint
    // must move for it all the same.
    let mut states = corpus();
    let optimized: Vec<(String, Module)> = states
        .iter()
        .map(|(name, m)| {
            let mut o = m.clone();
            for &p in O3_SEQUENCE {
                registry::apply(&mut o, p);
            }
            (format!("{name}+O3"), o)
        })
        .collect();
    states.extend(optimized);
    let mut globals_only = 0;
    for (label, m0) in states {
        let fp0 = fingerprint_module(&m0);
        assert_eq!(
            fp0,
            fingerprint_from_scratch(&m0),
            "{label}: before any pass"
        );
        for pass in 0..NUM_PASSES {
            let mut m = m0.clone();
            let changed = registry::apply(&mut m, pass);
            let fp = fingerprint_module(&m);
            assert_eq!(
                fp,
                fingerprint_from_scratch(&m),
                "{label}: fingerprint diverged after {}",
                registry::pass_name(pass)
            );
            let funcs_clean = m.func_capacity() == m0.func_capacity()
                && m0.func_ids().all(|id| {
                    m.func_exists(id)
                        && fingerprint_function(m.func(id)) == fingerprint_function(m0.func(id))
                });
            if changed && funcs_clean {
                assert_ne!(
                    fp,
                    fp0,
                    "{label}: {} changed only globals",
                    registry::pass_name(pass)
                );
                globals_only += 1;
            }
        }
    }
    assert!(
        globals_only > 0,
        "no pass changed globals alone: the case above went uncovered"
    );
}
