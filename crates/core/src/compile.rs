//! One compilation: a program and an ordering in, a module and its cycles
//! out — and the one rule for what a compiled module scores.
//!
//! Every (program, ordering) → cycles number outside the environment's
//! step — Figure 7's searches, Figure 9's and §6.2's one compilation,
//! `tune`, RL-PPO3's whole-sequence steps, the daemon's `-O3` reference —
//! is [`compile`] or [`Input::compile`]. The ordering goes through the
//! checked layer pass by pass, so a pass that panics, breaks the verifier
//! or blows the fuel budget is rolled back and skipped, exactly as the
//! environment scores it a no-op; then the result is profiled, unless
//! [`Input`]'s memo — keyed by module content, like the environment's
//! [`EvalCache`](crate::eval_cache::EvalCache) — has seen that module. A
//! sample is one such profiler run (DESIGN.md §4b): [`Input::samples`].
//!
//! The profiler runs `main`, so every profile already carries the
//! program's answer. [`score`] is the one scoring rule, shared by these
//! evaluators, the environment's reward and the daemon: a compiled module
//! scores its cycles only if it returns what its input returns. A module
//! that computes something else — a miscompile that deletes work would
//! otherwise read as a speedup — scores [`UNPROFILEABLE_CYCLES`].

use crate::eval_cache::{fingerprint_module, COUNTERS, DEFAULT_CAPACITY};
use autophase_hls::{profile_module, HlsConfig, HlsError, HlsReport};
use autophase_ir::Module;
use autophase_passes::checked::{apply_sequence_checked, FuelBudget};
use autophase_passes::o3::O3_SEQUENCE;
use autophase_passes::PassId;
use autophase_telemetry::{self as telemetry, BoundedMap};
use std::cell::RefCell;

/// Objective value reported for a state the profiler could not execute,
/// or that no longer computes its input's answer: above any real cycle
/// count, and a quarter of `u64::MAX` so a caller can add a few without
/// overflow.
pub const UNPROFILEABLE_CYCLES: u64 = u64::MAX / 4;

/// The one scoring rule: what a module profiled as `report` scores when
/// it was compiled from an input profiled as `input` (`None`: the
/// profiler could not run it). Its cycles when it returns the input's
/// result; otherwise [`UNPROFILEABLE_CYCLES`], and a result that differs
/// is counted in `core.semantic_mismatch`. An input scores its own
/// cycles.
pub fn score(report: Option<&HlsReport>, input: Option<&HlsReport>) -> u64 {
    let (Some(report), Some(input)) = (report, input) else {
        return UNPROFILEABLE_CYCLES;
    };
    if report.return_value == input.return_value {
        return report.cycles;
    }
    telemetry::incr("core.semantic_mismatch", "", 1);
    UNPROFILEABLE_CYCLES
}

/// A program with its own profile: its `-O0` cycles and the answer every
/// compilation of it must keep. Profiled once, it scores any number of
/// orderings without running the input again.
pub struct Input<'a> {
    program: &'a Module,
    hls: &'a HlsConfig,
    /// The profiler's error when it cannot run the input: then nothing
    /// compiled from it has an answer to keep, and nothing scores.
    profile: Result<HlsReport, HlsError>,
    /// Reports by module fingerprint; a failed profile is never cached.
    memo: RefCell<BoundedMap<u64, HlsReport>>,
}

impl<'a> Input<'a> {
    /// Profile `program` under `hls`.
    pub fn new(program: &'a Module, hls: &'a HlsConfig) -> Input<'a> {
        Input {
            profile: profile_module(program, hls),
            program,
            hls,
            memo: RefCell::new(BoundedMap::new(DEFAULT_CAPACITY, COUNTERS)),
        }
    }

    /// The input's own profile, or why the profiler could not run it.
    pub fn report(&self) -> Result<&HlsReport, &HlsError> {
        self.profile.as_ref()
    }

    /// The cycles of the unoptimized (`-O0`) program: the input scores
    /// itself.
    pub fn o0_cycles(&self) -> u64 {
        let input = self.profile.as_ref().ok();
        score(input, input)
    }

    /// Profile `m`, compiled from this input, and [`score`] it: a module
    /// or an input the profiler cannot run reads [`UNPROFILEABLE_CYCLES`].
    /// One module, one profile: no fingerprint, no memo, no sample.
    pub fn score(&self, m: &Module) -> u64 {
        score(
            profile_module(m, self.hls).ok().as_ref(),
            self.profile.as_ref().ok(),
        )
    }

    /// Apply `seq` to a copy of the program under `fuel` and score the
    /// result: `(optimized module, changing passes that survived,
    /// cycles)`. The copy is copy-on-write, so only the functions a pass
    /// rewrites are ever duplicated and the program is never touched.
    pub fn compile(&self, seq: &[PassId], fuel: &FuelBudget) -> (Module, Vec<PassId>, u64) {
        let mut m = self.program.clone();
        let applied = apply_sequence_checked(&mut m, seq, fuel);
        let fp = fingerprint_module(&m);
        let mut memo = self.memo.borrow_mut();
        if memo.lookup(&fp).is_none() {
            if let Ok(report) = profile_module(&m, self.hls) {
                memo.insert(fp, report);
            }
        }
        let cycles = score(memo.get(&fp), self.profile.as_ref().ok());
        (m, applied, cycles)
    }

    /// The cycles of the program under `seq` (the objective the black-box
    /// searchers optimize), at the default fuel budget.
    pub fn cycles(&self, seq: &[PassId]) -> u64 {
        self.compile(seq, &FuelBudget::default()).2
    }

    /// Profiler runs [`Input::compile`] has made: the samples spent.
    pub fn samples(&self) -> u64 {
        self.memo.borrow().stats().misses
    }
}

/// [`Input::compile`] for one ordering of `program`.
pub fn compile(
    program: &Module,
    seq: &[PassId],
    fuel: &FuelBudget,
    hls: &HlsConfig,
) -> (Module, Vec<PassId>, u64) {
    Input::new(program, hls).compile(seq, fuel)
}

/// [`Input::cycles`] for one ordering of `program`.
pub fn sequence_cycles(program: &Module, seq: &[PassId], hls: &HlsConfig) -> u64 {
    Input::new(program, hls).cycles(seq)
}

/// The cycles of the unoptimized (`-O0`) program: one profile.
pub fn o0_cycles(program: &Module, hls: &HlsConfig) -> u64 {
    Input::new(program, hls).o0_cycles()
}

/// The cycles after the reference `-O3` pipeline.
pub fn o3_cycles(program: &Module, hls: &HlsConfig) -> u64 {
    Input::new(program, hls).cycles(O3_SEQUENCE)
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
