//! The pass × benchmark matrix: every Table-1 pass, alone and in common
//! pairs, on every CHStone-style kernel — verified and behaviour-checked.

use autophase_benchmarks::suite;
use autophase_ir::interp::run_main;
use autophase_ir::verify::verify_module;
use autophase_passes::registry;

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
