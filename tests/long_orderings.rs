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
//! Programs: the nine CHStone benchmarks, a few of the generated batch
//! `program_batch(&GenConfig::default(), 31_337, ·)`, and five hand-written
//! texts with the shapes neither has: a `switch`, a tail-recursive call, a
//! constant φ feeding a conditional branch, a branch on `x == C` whose
//! arm still uses `x`, and loops exiting on `icmp ne` (the only shape on
//! which `-indvars` rewrites a compare and `-loop-deletion` reads an `ne`
//! bound). Each of `-lowerswitch`, `-tailcallelim`,
//! `-jump-threading` and `-correlated-propagation` must change at least
//! one program of the slice, so the check after every pass covers their
//! rewrites too.
//! A failure prints one line per broken (program, ordering): the seed (`-`
//! for `-O3`x4, `-O3+<seed>` for a suffix), the ordering and the pass after
//! which the result changed, enough to replay it by hand.

use autophase::hls::HlsConfig;
use autophase::ir::interp::run_main;
use autophase::ir::parser::parse_module;
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

/// A loop dispatching on `i % 4` through a `switch`.
const SWITCH_LOOP: &str = "; module switch_loop

; f0
define i32 @main() {
b0:
  br b1
b1:
  %1 = i32 phi [i32 0, b0], [%9, b6]
  %2 = i32 phi [i32 1, b0], [%8, b6]
  %3 = i32 srem %1, i32 4
  switch %3, default b5 [0 -> b2, 1 -> b3, 2 -> b4]
b2:
  %4 = i32 add %2, i32 3
  br b6
b3:
  %5 = i32 mul %2, i32 5
  br b6
b4:
  %6 = i32 xor %2, i32 7
  br b6
b5:
  %7 = i32 sub %2, %1
  br b6
b6:
  %8 = i32 phi [%4, b2], [%5, b3], [%6, b4], [%7, b5]
  %9 = i32 add %1, i32 1
  %10 = i1 icmp slt %9, i32 22
  br %10, b1, b7
b7:
  ret %8
}
";

/// `sum(n, acc) = n == 0 ? acc : sum(n - 1, acc + n)`, a call in tail
/// position.
const TAIL_SUM: &str = "; module tail_sum

; f0
define i32 @sum(i32 %arg0, i32 %arg1) {
b0:
  %0 = i1 icmp eq %arg0, i32 0
  br %0, b1, b2
b1:
  ret %arg1
b2:
  %1 = i32 sub %arg0, i32 1
  %2 = i32 add %arg1, %arg0
  %3 = i32 call @f0(%1, %2)
  ret %3
}

; f1
define i32 @main() {
b0:
  %0 = i32 call @f0(i32 30, i32 7)
  ret %0
}
";

/// A loop whose branch reads a φ that is the constant `true` on one of
/// its two incoming edges.
const CONSTANT_PHI_BRANCH: &str = "; module constant_phi_branch

; f0
define i32 @main() {
b0:
  br b1
b1:
  %1 = i32 phi [i32 0, b0], [%9, b7]
  %2 = i32 phi [i32 2, b0], [%8, b7]
  %3 = i32 and %1, i32 1
  %4 = i1 icmp eq %3, i32 0
  br %4, b2, b3
b2:
  br b4
b3:
  %5 = i1 icmp sgt %1, i32 6
  br b4
b4:
  %6 = i1 phi [i1 1, b2], [%5, b3]
  br %6, b5, b6
b5:
  %7 = i32 add %2, %1
  br b7
b6:
  %10 = i32 mul %2, i32 3
  br b7
b7:
  %8 = i32 phi [%7, b5], [%10, b6]
  %9 = i32 add %1, i32 1
  %11 = i1 icmp slt %9, i32 16
  br %11, b1, b8
b8:
  ret %8
}
";

/// A loop branching on `x == 3` for a loop-variant `x`, whose taken arm
/// uses `x` in an instruction and on its edge into a φ: both uses read 3.
const CORRELATED_BRANCH: &str = "; module correlated_branch

; f0
define i32 @main() {
b0:
  br b1
b1:
  %1 = i32 phi [i32 0, b0], [%9, b4]
  %2 = i32 phi [i32 1, b0], [%8, b4]
  %3 = i32 srem %1, i32 5
  %4 = i1 icmp eq %3, i32 3
  br %4, b2, b3
b2:
  %5 = i32 mul %3, i32 7
  %6 = i32 add %2, %5
  br b4
b3:
  %7 = i32 add %2, %3
  br b4
b4:
  %8 = i32 phi [%6, b2], [%7, b3]
  %11 = i32 phi [%3, b2], [%1, b3]
  %12 = i32 xor %8, %11
  %9 = i32 add %1, i32 1
  %10 = i1 icmp slt %9, i32 23
  br %10, b1, b5
b5:
  ret %12
}
";

/// Two loops that exit on `icmp ne`, a shape the generator never emits: a
/// unit-step one whose `ne` `-indvars` turns into `slt`, then an
/// effect-free one stepping by 2 onto its bound, which `-loop-deletion`
/// removes only because the bound is reachable.
const NE_LOOPS: &str = "; module ne_loops

; f0
define i32 @main() {
b0:
  br b1
b1:
  %1 = i32 phi [i32 0, b0], [%4, b2]
  %2 = i32 phi [i32 1, b0], [%3, b2]
  %5 = i1 icmp ne %1, i32 12
  br %5, b2, b3
b2:
  %6 = i32 mul %2, i32 3
  %3 = i32 xor %6, %1
  %4 = i32 add %1, i32 1
  br b1
b3:
  br b4
b4:
  %7 = i32 phi [i32 0, b3], [%8, b4]
  %8 = i32 add %7, i32 2
  %9 = i1 icmp ne %8, i32 10
  br %9, b4, b5
b5:
  ret %2
}
";

/// The passes whose rewrites only the hand-written texts reach.
const COVERED: [&str; 4] = [
    "-lowerswitch",
    "-tailcallelim",
    "-jump-threading",
    "-correlated-propagation",
];

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
    programs.extend(
        [
            SWITCH_LOOP,
            TAIL_SUM,
            CONSTANT_PHI_BRANCH,
            CORRELATED_BRANCH,
            NE_LOOPS,
        ]
        .map(|text| parse_module(text).expect("a hand-written program parses")),
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
/// module, and count each such pass in `changed`. `Err` is the reproducer
/// line of the first pass after which the result differs from the
/// program's.
fn check(
    program: &Module,
    seed: &str,
    seq: &[PassId],
    changed: &mut [u64; NUM_PASSES],
) -> Result<(), String> {
    let (fuel, run_fuel) = (FuelBudget::default(), HlsConfig::default().profile_fuel);
    let result = |m: &Module| run_main(m, run_fuel).ok().map(|t| t.return_value);
    let expected = result(program);
    let mut m = program.clone();
    for (step, &pass) in seq.iter().enumerate() {
        if apply_checked(&mut m, pass, &fuel) != Ok(true) {
            continue;
        }
        changed[pass] += 1;
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
    let mut changed = [0; NUM_PASSES];
    for (p, program) in programs().iter().enumerate() {
        failures.extend(check(program, "-", &o3_four, &mut changed).err());
        for k in 0..RANDOM_ORDERINGS {
            let seed = (p as u64) << 8 | k;
            let seq = random_ordering(seed);
            failures.extend(check(program, &seed.to_string(), &seq, &mut changed).err());
        }
        for k in 0..O3_SUFFIXES {
            let seed = (p as u64) << 8 | 0x80 | k;
            let seq = o3_then_suffix(seed);
            failures.extend(check(program, &format!("-O3+{seed}"), &seq, &mut changed).err());
        }
    }
    assert!(
        failures.is_empty(),
        "{} broken orderings:\n{}",
        failures.len(),
        failures.join("\n")
    );
    for name in COVERED {
        let pass = PASS_NAMES
            .iter()
            .position(|&n| n == name)
            .expect("a Table-1 pass");
        assert!(changed[pass] > 0, "{name} changed no program of the slice");
    }
}
