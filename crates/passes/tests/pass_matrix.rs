//! The pass × benchmark matrix: every Table-1 pass, alone and in common
//! pairs, on every CHStone-style kernel — verified and behaviour-checked.

use autophase_benchmarks::suite;
use autophase_ir::interp::run_main;
use autophase_ir::verify::verify_module;
use autophase_ir::Module;
use autophase_passes::registry;
use autophase_progen::{program_batch, GenConfig};
use std::sync::Arc;

const FUEL: u64 = 30_000_000;

#[test]
fn every_pass_safe_on_every_benchmark() {
    for b in suite() {
        let expect = run_main(&b.module, FUEL).unwrap().observable();
        for pass in 0..registry::pass_count() {
            let mut m = b.module.clone();
            registry::apply(&mut m, pass);
            verify_module(&m).unwrap_or_else(|e| {
                panic!("{} on {}: verifier: {e}", registry::pass_name(pass), b.name)
            });
            let got = run_main(&m, FUEL)
                .unwrap_or_else(|e| {
                    panic!("{} on {}: exec: {e}", registry::pass_name(pass), b.name)
                })
                .observable();
            assert_eq!(
                got,
                expect,
                "{} changed {}'s behaviour",
                registry::pass_name(pass),
                b.name
            );
        }
    }
}

#[test]
fn canonical_pipelines_safe_on_every_benchmark() {
    // The orderings the paper's analysis keeps coming back to.
    let pipelines: &[&[usize]] = &[
        &[38, 29, 23, 36, 33],         // mem2reg → simplify → rotate → licm → unroll
        &[43, 38, 30, 31, 7, 28, 32],  // sroa → mem2reg → combine → cfg → gvn → adce → dse
        &[25, 19, 29, 36, 30, 31],     // inline → attrs → simplify → licm → cleanup
        &[21, 13, 16, 23, 33, 31],     // lowerswitch → critedges → lcssa → rotate → unroll
        &[11, 12, 27, 23, 33, 26, 15], // scalarrepl-ssa → lsr → indvars → rotate → unroll → cse
    ];
    for b in suite() {
        let expect = run_main(&b.module, FUEL).unwrap().observable();
        for (k, seq) in pipelines.iter().enumerate() {
            let mut m = b.module.clone();
            registry::apply_sequence(&mut m, seq);
            verify_module(&m).unwrap_or_else(|e| panic!("pipeline {k} on {}: {e}", b.name));
            let got = run_main(&m, FUEL)
                .unwrap_or_else(|e| panic!("pipeline {k} on {}: exec: {e}", b.name))
                .observable();
            assert_eq!(got, expect, "pipeline {k} changed {}'s behaviour", b.name);
        }
    }
}

#[test]
fn mem2reg_then_rotate_reduces_cycles_on_most_benchmarks() {
    use autophase_hls::{profile::profile_module, HlsConfig};
    let hls = HlsConfig::default();
    let mut improved = 0;
    let mut total = 0;
    for b in suite() {
        let before = profile_module(&b.module, &hls).unwrap().cycles;
        let mut m = b.module.clone();
        registry::apply_sequence(&mut m, &[38, 29, 23]);
        let after = profile_module(&m, &hls).unwrap().cycles;
        total += 1;
        if after < before {
            improved += 1;
        }
        assert!(after <= before, "{}: pipeline made it slower", b.name);
    }
    assert!(
        improved * 10 >= total * 8,
        "only {improved}/{total} improved"
    );
}

/// Every slot of `after` that moved off `before`'s allocation, as
/// `(name, content differs)`. A slot added or removed is not listed.
fn moved_slots(before: &Module, after: &Module) -> Vec<(String, bool)> {
    let mut moved = Vec::new();
    for id in before.func_ids() {
        if let (Some(was), Some(now)) = (before.func_arc(id), after.func_arc(id)) {
            if !Arc::ptr_eq(was, now) {
                moved.push((format!("function {}", was.name), **was != **now));
            }
        }
    }
    for id in before.global_ids() {
        if let (Some(was), Some(now)) = (before.global_arc(id), after.global_arc(id)) {
            if !Arc::ptr_eq(was, now) {
                moved.push((format!("global {}", was.name), **was != **now));
            }
        }
    }
    moved
}

/// A pass writes only the functions it changes. Writing a function moves
/// it to a fresh allocation when a snapshot shares it, and drops the facts
/// of its version, so a pass that writes an unchanged function pays a deep
/// copy and a re-analysis for nothing. `ChangeSet::between` still reports
/// such a slot clean: its content compare is the safety net, this is the
/// contract.
#[test]
fn a_pass_writes_only_what_it_changes() {
    let mut programs: Vec<Module> = suite().into_iter().map(|b| b.module).collect();
    programs.extend(program_batch(&GenConfig::default(), 1, 20));
    // Pristine, then after each of -mem2reg, -instcombine, -simplifycfg,
    // -loop-rotate, -loop-simplify and -loop-unroll in turn.
    let prefix = [38, 30, 31, 23, 29, 33];
    for program in programs {
        let mut state = program;
        for step in 0..=prefix.len() {
            if step > 0 {
                registry::apply(&mut state, prefix[step - 1]);
            }
            for pass in 0..registry::NUM_PASSES {
                let mut m = state.clone();
                let changed = registry::apply(&mut m, pass);
                for (slot, differs) in moved_slots(&state, &m) {
                    assert!(
                        changed && differs,
                        "{} after {} prefix passes of {}: {slot} was written, \
                         changed {changed}, content differs {differs}",
                        registry::pass_name(pass),
                        step,
                        state.name,
                    );
                }
            }
        }
    }
}
