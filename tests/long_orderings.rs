//! Long orderings keep every program's answer, checked after every pass.
//!
//! The interpreter is the oracle: a module compiled from a program must
//! return what the program returns. The check runs after each pass that
//! changed the module, not only at the end, because a later pass can fold
//! a wrong value away (a wrong `undef` becomes a constant, and the final
//! module no longer shows where it came from).
//!
//! Orderings: `-O3` repeated four times (its prefixes are `-O3`^k for
//! every k ≤ 4), seeded random orderings of 45–90 Table-1 passes, and
//! `-O3` followed by a seeded random suffix of 45 Table-1 passes (the
//! optimized module is what most passes of a long ordering see).
//! Programs: the nine CHStone benchmarks and a few of the generated batch
//! `program_batch(&GenConfig::default(), 31_337, ·)`. A failure prints one
//! line per broken (program, ordering): the seed (`-` for `-O3`x4,
//! `-O3+<seed>` for a suffix), the ordering and the pass after which the
//! result changed, enough to replay it by hand.

use autophase::hls::HlsConfig;
use autophase::ir::interp::run_main;
use autophase::ir::Module;
use autophase::passes::checked::apply_checked;
use autophase::passes::o3::O3_SEQUENCE;
use autophase::passes::registry::{NUM_PASSES, PASS_NAMES};
use autophase::passes::{FuelBudget, PassId};
use autophase::progen::{generate_valid, GenConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `program_batch`'s base seed and stride: batch program `i` is
/// `generate_valid` at `BATCH_SEED + i * BATCH_STRIDE`.
const BATCH_SEED: u64 = 31_337;
const BATCH_STRIDE: u64 = 7919;

/// Batch programs in the slice: the first three, and two that two rounds
/// of `-O3` once miscompiled through `-loop-deletion`.
const BATCH_INDICES: [u64; 5] = [0, 1, 2, 87, 316];

/// Random orderings per program, and `-O3`-plus-suffix orderings.
const RANDOM_ORDERINGS: u64 = 8;
const O3_SUFFIXES: u64 = 8;

/// Passes in the random suffix after `-O3`.
const SUFFIX_LEN: usize = 45;

fn programs() -> Vec<Module> {
    let mut programs: Vec<Module> = autophase::benchmarks::suite()
        .into_iter()
        .map(|b| b.module)
        .collect();
    programs.extend(
        BATCH_INDICES
            .iter()
            .map(|i| generate_valid(&GenConfig::default(), BATCH_SEED + i * BATCH_STRIDE)),
    );
    programs
}

/// A seeded ordering of 45–90 passes drawn uniformly from Table 1.
fn random_ordering(seed: u64) -> Vec<PassId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(45..=90);
    (0..len).map(|_| rng.gen_range(0..NUM_PASSES)).collect()
}

/// `-O3`, then a seeded suffix of [`SUFFIX_LEN`] passes drawn uniformly
/// from Table 1.
fn o3_then_suffix(seed: u64) -> Vec<PassId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let suffix = (0..SUFFIX_LEN).map(|_| rng.gen_range(0..NUM_PASSES));
    O3_SEQUENCE.iter().copied().chain(suffix).collect()
}

/// Apply `seq` to a copy of `program` pass by pass through the checked
/// layer, running the interpreter after every pass that changed the
/// module. `Err` is the reproducer line of the first pass after which
/// the result differs from the program's.
fn check(program: &Module, seed: &str, seq: &[PassId]) -> Result<(), String> {
    let (fuel, run_fuel) = (FuelBudget::default(), HlsConfig::default().profile_fuel);
    let result = |m: &Module| run_main(m, run_fuel).ok().map(|t| t.return_value);
    let expected = result(program);
    let mut m = program.clone();
    for (step, &pass) in seq.iter().enumerate() {
        if apply_checked(&mut m, pass, &fuel) != Ok(true) {
            continue;
        }
        let got = result(&m);
        if got != expected {
            return Err(format!(
                "{} seed={seed} ordering={seq:?}: after step {step} ({}) returns {got:?}, not {expected:?}",
                program.name, PASS_NAMES[pass]
            ));
        }
    }
    Ok(())
}

#[test]
fn long_orderings_keep_every_result_after_every_pass() {
    let o3_four = O3_SEQUENCE.repeat(4);
    let mut failures = Vec::new();
    for (p, program) in programs().iter().enumerate() {
        failures.extend(check(program, "-", &o3_four).err());
        for k in 0..RANDOM_ORDERINGS {
            let seed = (p as u64) << 8 | k;
            let seq = random_ordering(seed);
            failures.extend(check(program, &seed.to_string(), &seq).err());
        }
        for k in 0..O3_SUFFIXES {
            let seed = (p as u64) << 8 | 0x80 | k;
            let seq = o3_then_suffix(seed);
            failures.extend(check(program, &format!("-O3+{seed}"), &seq).err());
        }
    }
    assert!(
        failures.is_empty(),
        "{} broken orderings:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
