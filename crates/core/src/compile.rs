//! One compilation: a program and an ordering in, a module and its cycles
//! out.
//!
//! Every (program, ordering) → cycles number outside the environment's
//! step — Figure 7's searches, Figure 9's and §6.2's one compilation,
//! `tune`, RL-PPO3's whole-sequence steps, the daemon's `-O3` reference —
//! is [`compile`]. The ordering goes through the checked layer pass by
//! pass, so a pass that panics, breaks the verifier or blows the fuel
//! budget is rolled back and skipped, exactly as the environment scores
//! it a no-op; then the result is profiled once.

use autophase_hls::{profile::profile_module, HlsConfig};
use autophase_ir::Module;
use autophase_passes::checked::{apply_sequence_checked, FuelBudget};
use autophase_passes::o3::O3_SEQUENCE;
use autophase_passes::PassId;

/// Objective value reported for a state the profiler could not execute:
/// above any real cycle count, and a quarter of `u64::MAX` so a caller
/// can add a few without overflow.
pub const UNPROFILEABLE_CYCLES: u64 = u64::MAX / 4;

/// The cycle count of `m`, or [`UNPROFILEABLE_CYCLES`].
pub fn cycles_of(m: &Module, hls: &HlsConfig) -> u64 {
    profile_module(m, hls).map_or(UNPROFILEABLE_CYCLES, |r| r.cycles)
}

/// Apply `seq` to a copy of `program` under `fuel` and profile the
/// result: `(optimized module, changing passes that survived, cycles)`.
/// The copy is copy-on-write, so only the functions a pass rewrites are
/// ever duplicated and `program` is never touched.
pub fn compile(
    program: &Module,
    seq: &[PassId],
    fuel: &FuelBudget,
    hls: &HlsConfig,
) -> (Module, Vec<PassId>, u64) {
    let mut m = program.clone();
    let applied = apply_sequence_checked(&mut m, seq, fuel);
    let cycles = cycles_of(&m, hls);
    (m, applied, cycles)
}

/// The cycles of `program` under `seq` (the objective the black-box
/// searchers optimize), at the default fuel budget.
pub fn sequence_cycles(program: &Module, seq: &[PassId], hls: &HlsConfig) -> u64 {
    compile(program, seq, &FuelBudget::default(), hls).2
}

/// The cycles of the unoptimized (`-O0`) program: the empty ordering.
pub fn o0_cycles(program: &Module, hls: &HlsConfig) -> u64 {
    sequence_cycles(program, &[], hls)
}

/// The cycles after the reference `-O3` pipeline.
pub fn o3_cycles(program: &Module, hls: &HlsConfig) -> u64 {
    sequence_cycles(program, O3_SEQUENCE, hls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_passes::checked::FaultKind;
    use autophase_passes::fault::{self, FaultPlan, FaultSpec};

    fn gsm() -> Module {
        autophase_benchmarks::suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .unwrap()
            .module
    }

    /// A pass that faults inside an ordering is rolled back and skipped:
    /// the ordering scores what it scores without that pass, and the
    /// program it was compiled from is untouched.
    #[test]
    fn a_faulting_pass_is_skipped_not_scored() {
        let _g = autophase_telemetry::test_guard();
        autophase_telemetry::quiet_panic_hook();
        let (p, hls) = (gsm(), HlsConfig::default());
        let pristine = autophase_ir::printer::print_module(&p);
        let (seq, without) = ([38usize, 23, 31, 30], [23usize, 31, 30]);
        let plan = fault::PLAN.install(FaultPlan::new(vec![FaultSpec {
            pass: 38,
            nth: 1,
            // This thread's context only: concurrent tests never match it.
            episode: Some(9301),
            kind: FaultKind::Panic,
        }]));
        fault::set_episode(Some(9301));
        let faulted = sequence_cycles(&p, &seq, &hls);
        fault::set_episode(None);
        fault::PLAN.clear();
        assert_eq!(plan.fired(), 1, "the injection reached the evaluator");
        assert_eq!(faulted, sequence_cycles(&p, &without, &hls));
        assert_ne!(faulted, sequence_cycles(&p, &seq, &hls), "-mem2reg matters");
        assert_eq!(autophase_ir::printer::print_module(&p), pristine);
    }
}
