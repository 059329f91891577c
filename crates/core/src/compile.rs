//! One evaluator: a program in, any number of its compilations scored —
//! and the one rule for what a compiled module scores.
//!
//! Every (program, module) → cycles number — the environment's resets and
//! steps, Figure 7's searches, Figure 9's and §6.2's one compilation,
//! `tune`, RL-PPO3's whole-sequence steps, the daemon's answer and its
//! `-O3` reference — is an [`Input`]'s. [`Input::compile`] takes an
//! ordering through the checked layer pass by pass, so a pass that
//! panics, breaks the verifier or blows the fuel budget is rolled back and
//! skipped, exactly as the environment scores it a no-op.
//!
//! An `Input` asks the profiler about a module in one place: a lookup in
//! its [`EvalCache`] by the module's content fingerprint and, on a miss,
//! one profiler run. That run is a *sample* (DESIGN.md §4b), counted in
//! [`Input::samples`]; the program's own profile, which [`Input::new`]
//! takes, is the first. Each sample that lowers the best score so far adds
//! a point to the input's anytime curve ([`Input::curve`]).
//!
//! The profiler runs `main`, so every profile already carries the
//! program's answer. [`score`] is the one scoring rule, shared by the
//! evaluator and the daemon: a compiled module scores its cycles only if
//! it returns what its input returns. A module that computes something
//! else — a miscompile that deletes work would otherwise read as a
//! speedup — scores [`UNPROFILEABLE_CYCLES`].

use crate::eval_cache::{fingerprint_module, EvalCache, DEFAULT_CAPACITY};
use autophase_hls::{HlsConfig, HlsError, HlsReport, ScheduleCache};
use autophase_ir::Module;
use autophase_passes::checked::{apply_sequence_checked, FuelBudget};
use autophase_passes::o3::O3_SEQUENCE;
use autophase_passes::PassId;
use autophase_telemetry as telemetry;
use std::sync::Arc;

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

/// A program and the evaluator of everything compiled from it: its own
/// profile (its `-O0` cycles and the answer every compilation must keep),
/// the profile memo, the sample counter and the anytime curve.
pub struct Input {
    program: Module,
    hls: HlsConfig,
    /// Reports by module fingerprint, shared with whoever else profiles
    /// under `hls`. A failed profile is never cached.
    pub(crate) cache: Arc<EvalCache>,
    /// Schedules by function content: a profile schedules only the
    /// functions this input has not profiled in that form before.
    sched: ScheduleCache,
    /// The program's own profile, or why the profiler could not run it:
    /// then nothing compiled from it has an answer to keep, and nothing
    /// scores. `None` only while [`Input::with_cache`] takes it.
    profile: Option<Result<Arc<HlsReport>, HlsError>>,
    samples: u64,
    curve: Vec<(u64, u64)>,
}

impl Input {
    /// Profile `program` under `hls`, with a private profile memo.
    pub fn new(program: &Module, hls: &HlsConfig) -> Input {
        Input::with_cache(program, hls, private_cache())
    }

    /// Profile `program` under `hls`, asking `cache` first: a module any
    /// sharer has profiled costs this input no sample. All sharers must
    /// profile under one `HlsConfig`.
    pub fn with_cache(program: &Module, hls: &HlsConfig, cache: Arc<EvalCache>) -> Input {
        let mut input = Input::unprofiled(program, hls, cache, None);
        let (profile, _) = input.evaluate(program);
        input.profile = Some(profile);
        input
    }

    /// A fresh evaluator of the same program: its own empty memo, no
    /// samples and no curve, with this input's profile of the program as
    /// its answer key. The profile is not taken again, so an evaluator
    /// forked from a shared reference is charged only for what it scores.
    pub fn fork(&self) -> Input {
        let profile = self.profile.clone();
        Input::unprofiled(&self.program, &self.hls, private_cache(), profile)
    }

    fn unprofiled(
        program: &Module,
        hls: &HlsConfig,
        cache: Arc<EvalCache>,
        profile: Option<Result<Arc<HlsReport>, HlsError>>,
    ) -> Input {
        Input {
            program: program.clone(),
            hls: hls.clone(),
            cache,
            sched: ScheduleCache::default(),
            profile,
            samples: 0,
            curve: Vec::new(),
        }
    }

    /// The one miss path: the profiler's report on `m` and its [`score`].
    /// A module in the memo costs nothing; any other is profiled, which is
    /// one sample, and its report memoized unless the profile failed. A
    /// sample that lowers the best score so far is a point of the curve.
    pub(crate) fn evaluate(&mut self, m: &Module) -> (Result<Arc<HlsReport>, HlsError>, u64) {
        let fp = fingerprint_module(m);
        let (report, miss) = match self.cache.get(fp) {
            Some(report) => (Ok(report), false),
            None => {
                self.samples += 1;
                let report = autophase_hls::profile_module_cached(m, &self.hls, &mut self.sched)
                    .map(Arc::new);
                if let Ok(report) = &report {
                    self.cache.insert(fp, Arc::clone(report));
                }
                (report, true)
            }
        };
        // Until it has one, the program's own profile is its answer key.
        let key = self.profile.as_ref().unwrap_or(&report);
        let cycles = score(report.as_deref().ok(), key.as_deref().ok());
        let best = self.curve.last().map_or(UNPROFILEABLE_CYCLES, |&(_, c)| c);
        if miss && cycles < best {
            self.curve.push((self.samples, cycles));
        }
        (report, cycles)
    }

    /// The program this input compiles.
    pub fn program(&self) -> &Module {
        &self.program
    }

    /// The HLS settings every profile of this input is taken under.
    pub fn hls(&self) -> &HlsConfig {
        &self.hls
    }

    /// The input's own profile, or why the profiler could not run it.
    pub fn report(&self) -> Result<&HlsReport, &HlsError> {
        self.profile
            .as_ref()
            .expect("taken by Input::with_cache")
            .as_deref()
    }

    /// The cycles of the unoptimized (`-O0`) program: the input scores
    /// itself.
    pub fn o0_cycles(&self) -> u64 {
        let input = self.report().ok();
        score(input, input)
    }

    /// [`score`] `m`, compiled from this input: a module or an input the
    /// profiler cannot run reads [`UNPROFILEABLE_CYCLES`].
    pub fn score(&mut self, m: &Module) -> u64 {
        self.evaluate(m).1
    }

    /// Apply `seq` to a copy of the program under `fuel` and score the
    /// result: `(optimized module, changing passes that survived,
    /// cycles)`. The copy is copy-on-write, so only the functions a pass
    /// rewrites are ever duplicated and the program is never touched.
    pub fn compile(&mut self, seq: &[PassId], fuel: &FuelBudget) -> (Module, Vec<PassId>, u64) {
        let mut m = self.program.clone();
        let applied = apply_sequence_checked(&mut m, seq, fuel);
        let cycles = self.score(&m);
        (m, applied, cycles)
    }

    /// The cycles of the program under `seq` (the objective the black-box
    /// searchers optimize), at the default fuel budget.
    pub fn cycles(&mut self, seq: &[PassId]) -> u64 {
        self.compile(seq, &FuelBudget::default()).2
    }

    /// Profiler runs this input has made: the samples spent.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The anytime curve: `(samples, best score so far)` at each sample
    /// that lowered the best score, in order. Its last point is the best
    /// score this input has profiled.
    pub fn curve(&self) -> &[(u64, u64)] {
        &self.curve
    }
}

/// A profile memo with one owner, so one shard: nothing contends for it.
pub(crate) fn private_cache() -> Arc<EvalCache> {
    Arc::new(EvalCache::with_shards(DEFAULT_CAPACITY, 1))
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
        let mut input = Input::new(&p, &hls);
        let faulted = input.cycles(&seq);
        fault::set_episode(None);
        fault::PLAN.clear();
        assert_eq!(plan.fired(), 1, "the injection reached the evaluator");
        assert_eq!(faulted, input.cycles(&without));
        assert_ne!(faulted, input.cycles(&seq), "-mem2reg matters");
        assert_eq!(autophase_ir::printer::print_module(&p), pristine);
    }
}
