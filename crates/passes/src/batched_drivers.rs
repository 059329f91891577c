//! The batched drivers of `-loop-rotate`, `-loop-unroll` and
//! `-simplifycfg` against the one-at-a-time drivers they replace: the same
//! printed module on CHStone and generated programs, after orderings that
//! leave them in many shapes.

use crate::registry;
use autophase_core::env::FILTERED_PASSES;
use autophase_ir::printer::print_module;
use autophase_ir::verify::assert_verified;
use autophase_ir::Module;

fn programs() -> Vec<Module> {
    let mut out: Vec<Module> = autophase_benchmarks::suite()
        .into_iter()
        .map(|b| b.module)
        .collect();
    out.extend(autophase_progen::program_batch(
        &Default::default(),
        0x5EED,
        40,
    ));
    out
}

/// Eight seeded prefixes of up to six passes from the serving action
/// space, plus the empty one.
fn prefixes() -> Vec<Vec<usize>> {
    let mut state = 0x00DD_5EED_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    let mut out = vec![vec![]];
    for _ in 0..8 {
        let len = 1 + next() % 6;
        out.push(
            (0..len)
                .map(|_| FILTERED_PASSES[next() % FILTERED_PASSES.len()])
                .collect(),
        );
    }
    out
}

/// `batched` and `reference` on every program after every prefix, each
/// followed by `then`.
fn agree(
    name: &str,
    then: &[usize],
    batched: fn(&mut Module) -> bool,
    reference: fn(&mut Module) -> bool,
) {
    let mut compared = 0;
    for program in programs() {
        for mut prefix in prefixes() {
            prefix.extend_from_slice(then);
            let mut before = program.deep_clone();
            for &pass in &prefix {
                registry::apply(&mut before, pass);
            }
            let (mut a, mut b) = (before.deep_clone(), before);
            let changed = batched(&mut a);
            assert_eq!(changed, reference(&mut b), "{name} after {prefix:?}");
            assert_eq!(
                print_module(&a),
                print_module(&b),
                "{name} after {prefix:?} diverged from the one-at-a-time driver"
            );
            if changed {
                assert_verified(&a);
                compared += 1;
            }
        }
    }
    assert!(compared > 20, "{name} changed only {compared} modules");
}

#[test]
fn loop_rotate_matches_one_at_a_time() {
    agree(
        "-loop-rotate",
        &[],
        crate::loop_rotate::run,
        crate::loop_rotate::run_one_at_a_time,
    );
}

#[test]
fn loop_unroll_matches_one_at_a_time() {
    // Unrolling wants rotated loops: -loop-simplify, -loop-rotate.
    agree(
        "-loop-unroll",
        &[29, 23],
        crate::loop_unroll::run,
        crate::loop_unroll::run_one_at_a_time,
    );
}

#[test]
fn simplifycfg_matches_one_at_a_time() {
    fn reference(m: &mut Module) -> bool {
        crate::util::for_each_function(m, crate::simplifycfg::run_on_function_one_at_a_time)
    }
    agree("-simplifycfg", &[], crate::simplifycfg::run, reference);
}
