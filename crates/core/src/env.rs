//! The phase-ordering RL environment (§5.1).
//!
//! An episode is one [`Walk`] of the environment's [`Step`] — the walk the
//! daemon's rollout and Figure 9's inference take — cloned at each reset
//! from the program's pristine walk. The environment adds only what a
//! trainer needs on top: program rotation, the masked no-op of a
//! quarantined pass, the profile and the reward, and the rollback of a
//! step whose result is wrong.
//!
//! The reward is the profiler's cycle delta. Each program is scored by its
//! own [`Input`], built at the program's first episode on the
//! environment's [`EvalCache`]: the reset reads the program's own profile,
//! and every step that changed the module asks its input in
//! [`PhaseOrderEnv::cycles`] — one memo lookup by the module's content
//! fingerprint, one profile and one sample on a miss, and the one scoring
//! rule ([`crate::compile::score`]). A step whose module no longer returns
//! the program's result — another result, or none within the profiler's
//! fuel — is rolled back and paid nothing, like a faulted pass.

use crate::compile::{private_cache, Input, UNPROFILEABLE_CYCLES};
use crate::eval_cache::{fingerprint_module, EvalCache};
use crate::quarantine::Quarantine;
use crate::step::{Step, Walk};
use autophase_features::IncrementalFeatures;
use autophase_hls::HlsConfig;
use autophase_ir::Module;
use autophase_passes::registry;
use autophase_passes::FuelBudget;
use autophase_rl::env::{Environment, StepResult};
use std::sync::Arc;

/// The §4.2 pass subset, at the path it has always had; its home is the
/// action table in [`crate::step`].
pub use crate::step::FILTERED_PASSES;

/// The `-O3` reference, at the path it has always had; its home is
/// [`crate::compile`].
pub use crate::compile::o3_cycles;

/// What the agent observes (§5.1's two input-feature types and their
/// combination; Table 3's "Observation Space" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservationKind {
    /// The Table-2 program features.
    ProgramFeatures,
    /// The histogram of previously applied passes.
    ActionHistory,
    /// Both, concatenated (the generalization setup of §6.2).
    Combined,
}

/// Feature normalization (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureNorm {
    /// Raw counts (the per-program experiments of §6.1).
    Raw,
    /// Technique ①: `log(1+x)`.
    Log,
    /// Technique ②: divide by total instruction count.
    InstCount,
}

/// Reward shaping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewardKind {
    /// `R = c_prev − c_cur` (§5.1).
    Raw,
    /// `sign(Δ)·ln(1+|Δ|)` — "the logarithm of the improvement in cycle
    /// count" used for cross-program training (§6.2).
    Log,
}

/// Environment configuration.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Observation space.
    pub observation: ObservationKind,
    /// Feature normalization.
    pub feature_norm: FeatureNorm,
    /// Reward shaping.
    pub reward: RewardKind,
    /// Episode length (the paper sets the pass length to 45 in §6.1).
    pub episode_len: usize,
    /// Apply the §4 random-forest filter: the impactful passes as the
    /// action table and the important features as the feature block
    /// (Figures 8 and 9's "filtered" against "original").
    pub filtered: bool,
    /// Expose Table 1's `-terminate` pseudo-action (index 45): choosing it
    /// ends the episode immediately. Off by default (the §6.1 runs use
    /// fixed-length episodes).
    pub include_terminate: bool,
    /// HLS settings (200 MHz by default).
    pub hls: HlsConfig,
    /// Resource budget for checked pass applications. Passes are always
    /// applied transactionally ([`autophase_passes::apply_checked`]): one
    /// that panics, breaks the verifier, or blows this budget is rolled
    /// back and scored as a no-op (zero reward) instead of crashing the
    /// training run.
    pub fuel: FuelBudget,
}

impl Default for EnvConfig {
    fn default() -> EnvConfig {
        EnvConfig {
            observation: ObservationKind::ProgramFeatures,
            feature_norm: FeatureNorm::Raw,
            reward: RewardKind::Raw,
            episode_len: 45,
            filtered: false,
            include_terminate: false,
            hls: HlsConfig::default(),
            fuel: FuelBudget::default(),
        }
    }
}

/// The phase-ordering environment over one or more programs.
///
/// Each episode picks the next program (round-robin), resets it to its
/// unoptimized form, and lets the agent apply passes one at a time. The
/// reward of a step is the improvement in the HLS cycle estimate.
pub struct PhaseOrderEnv {
    programs: Vec<Module>,
    cfg: EnvConfig,
    /// The action table and observation recipe `cfg` selects — shared
    /// with the daemon's rollout.
    step: Step,
    /// The episode: module, features and histogram.
    walk: Walk,
    program_cursor: usize,
    steps_taken: usize,
    prev_cycles: u64,
    episode_done: bool,
    /// The profile memo: private until [`PhaseOrderEnv::set_cache`] swaps
    /// in a shared one.
    cache: Arc<EvalCache>,
    /// Each program's evaluator, built at the program's first episode.
    inputs: Vec<Option<Input>>,
    /// Shared repeat-offender table; `None` disables masking.
    quarantine: Option<Arc<Quarantine>>,
    /// Each program's pristine walk, built at its first episode and
    /// cloned into `walk` at every reset: an episode start costs
    /// O(#functions) copies instead of a full extraction.
    pristine: Vec<Option<Walk>>,
    /// Index in `programs` of the episode's program (unlike
    /// `program_cursor`, which already points at the *next* episode's).
    episode_program: usize,
}

impl PhaseOrderEnv {
    /// Create an environment over a set of programs, standing at the
    /// first one's pristine state.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    pub fn new(programs: Vec<Module>, cfg: EnvConfig) -> PhaseOrderEnv {
        assert!(!programs.is_empty(), "need at least one program");
        let step = Step::new(&cfg);
        let walk = Walk::start(&step, programs[0].clone());
        let mut pristine = vec![None; programs.len()];
        pristine[0] = Some(walk.clone());
        PhaseOrderEnv {
            pristine,
            inputs: (0..programs.len()).map(|_| None).collect(),
            programs,
            cfg,
            step,
            walk,
            program_cursor: 0,
            steps_taken: 0,
            prev_cycles: 0,
            episode_done: false,
            cache: private_cache(),
            quarantine: None,
            episode_program: 0,
        }
    }

    /// Single-program convenience constructor.
    pub fn single(program: Module, cfg: EnvConfig) -> PhaseOrderEnv {
        PhaseOrderEnv::new(vec![program], cfg)
    }

    /// Like [`PhaseOrderEnv::new`], sharing `cache` from the start.
    pub fn with_cache(
        programs: Vec<Module>,
        cfg: EnvConfig,
        cache: Arc<EvalCache>,
    ) -> PhaseOrderEnv {
        let mut env = PhaseOrderEnv::new(programs, cfg);
        env.set_cache(cache);
        env
    }

    /// Ask `cache` instead of the private profile memo from now on. A
    /// module any sharer has profiled — by whatever pass sequence, on
    /// whatever worker — is a hit for all of them, so for a sharer
    /// [`PhaseOrderEnv::samples`] counts the profiler runs *it* made, not
    /// the distinct states it visited. Results are bit-identical with any
    /// cache: it only changes how often the profiler runs. All sharers
    /// must profile under one `HlsConfig`.
    pub fn set_cache(&mut self, cache: Arc<EvalCache>) {
        for input in self.inputs.iter_mut().flatten() {
            input.cache = Arc::clone(&cache);
        }
        self.cache = cache;
    }

    /// Attach a shared [`Quarantine`] table. Faulted pass applications are
    /// recorded against the episode's program fingerprint, and a pass that
    /// crosses the fault threshold is masked for that program: choosing it
    /// becomes a guaranteed no-op (zero reward, no apply attempt).
    ///
    /// The table is monotone, so sharing it across workers can only mask
    /// *more* over time — runs that must be bit-identical across worker
    /// counts should not attach one.
    pub fn set_quarantine(&mut self, quarantine: Arc<Quarantine>) {
        self.quarantine = Some(quarantine);
    }

    /// Pass ids of this environment's actions currently masked
    /// (quarantined) for the episode's program, in action order.
    pub fn masked_passes(&self) -> Vec<usize> {
        let Some(q) = &self.quarantine else {
            return Vec::new();
        };
        let actions = self.step.actions();
        let masked = q.masked_among(self.program_fp(), actions);
        actions
            .iter()
            .zip(masked)
            .filter_map(|(&pass, masked)| masked.then_some(pass))
            .collect()
    }

    /// Fingerprint of the episode's pristine program: the quarantine's
    /// key.
    fn program_fp(&self) -> u64 {
        fingerprint_module(&self.programs[self.episode_program])
    }

    /// The action index list (Table-1 ids) this environment exposes.
    /// When `include_terminate` is set the last action is index 45.
    pub fn action_passes(&self) -> Vec<usize> {
        self.step.actions().to_vec()
    }

    /// The episode program's evaluator — built at the program's first
    /// episode, which profiles it through the environment's cache — with
    /// the current state.
    fn evaluator(&mut self) -> (&mut Input, &Module) {
        let idx = self.episode_program;
        let (program, hls, cache) = (&self.programs[idx], &self.cfg.hls, &self.cache);
        let input = self.inputs[idx]
            .get_or_insert_with(|| Input::with_cache(program, hls, Arc::clone(cache)));
        (input, self.walk.module())
    }

    /// The cycle count of the current module state, as the episode
    /// program's [`Input`] scores it: a state the profiler cannot run, or
    /// that returns another result than the program, reads
    /// [`UNPROFILEABLE_CYCLES`].
    pub fn cycles(&mut self) -> u64 {
        let (input, m) = self.evaluator();
        input.evaluate(m).1
    }

    /// Profiler runs so far: the sum of the programs' [`Input::samples`].
    pub fn samples(&self) -> u64 {
        self.inputs.iter().flatten().map(Input::samples).sum()
    }

    /// The evaluator of `programs[program]`, once its first episode has
    /// begun.
    pub fn input(&self, program: usize) -> Option<&Input> {
        self.inputs.get(program)?.as_ref()
    }

    /// Cycle count of the current state as of the last profile — free to
    /// read (no re-profiling).
    pub fn last_cycles(&self) -> u64 {
        self.prev_cycles
    }

    /// The module in its current (partially optimized) state.
    pub fn module(&self) -> &Module {
        self.walk.module()
    }

    /// The per-function feature decomposition. Exposed so invariant
    /// suites (chaos, differential) can assert it stays in lock-step with
    /// the module through faults and rollbacks.
    pub fn incremental_state(&self) -> &IncrementalFeatures {
        self.walk.features()
    }

    fn reward(&self, prev: u64, cur: u64) -> f64 {
        match self.cfg.reward {
            RewardKind::Raw => prev as f64 - cur as f64,
            RewardKind::Log => {
                let d = prev as f64 - cur as f64;
                d.signum() * (1.0 + d.abs()).ln()
            }
        }
    }
}

impl Environment for PhaseOrderEnv {
    fn observation_dim(&self) -> usize {
        self.step.obs_dim()
    }

    fn num_actions(&self) -> usize {
        self.step.num_actions()
    }

    fn reset(&mut self) -> Vec<f64> {
        // Leave any per-episode fault-injection context behind.
        autophase_passes::fault::set_episode(None);
        let idx = self.program_cursor;
        self.episode_program = idx;
        // First episode on this program: pay one full extraction, then
        // every later reset clones the pristine walk (the module's clone
        // is COW: O(#functions) refcount bumps, not a deep copy).
        let (step, program) = (&self.step, &self.programs[idx]);
        self.walk = self.pristine[idx]
            .get_or_insert_with(|| Walk::start(step, program.clone()))
            .clone();
        self.program_cursor = (self.program_cursor + 1) % self.programs.len();
        self.steps_taken = 0;
        self.episode_done = false;
        self.prev_cycles = self.evaluator().0.o0_cycles();
        self.walk.observe(&self.step)
    }

    fn reset_to(&mut self, episode: u64) -> Vec<f64> {
        // Episode-indexed program choice: any worker running episode `i`
        // sees the same program, making parallel collection deterministic.
        self.program_cursor = (episode % self.programs.len() as u64) as usize;
        let obs = self.reset();
        // Enter the episode's injection context after the generic reset
        // (which clears it): an episode runs on one thread, so per-pass
        // apply counts scoped to this context make "the Nth apply of pass
        // P in episode E" independent of worker count and scheduling.
        autophase_passes::fault::set_episode(Some(episode));
        obs
    }

    fn step(&mut self, action: usize) -> StepResult {
        assert!(!self.episode_done, "step() after episode end; call reset()");
        let pass_id = self.step.actions()[action];
        if pass_id == registry::TERMINATE {
            self.episode_done = true;
            return StepResult {
                observation: self.walk.observe(&self.step),
                reward: 0.0,
                done: true,
            };
        }
        let quarantined = self
            .quarantine
            .as_ref()
            .is_some_and(|q| q.is_quarantined(self.program_fp(), pass_id));

        let (mut cur, mut faulted) = (self.prev_cycles, false);
        if quarantined {
            // Masked: a known repeat offender on this program. Scored like
            // a faulted apply — no-op, zero reward — without attempting
            // the pass or polling the injection plan, so the per-episode
            // apply counters do not advance.
            self.walk.skip(action);
        } else {
            // A step that runs its pass can still be undone: its module
            // may turn out to compute another result than the program.
            let before = self.walk.clone();
            match self.walk.step(&self.step, action, &self.cfg.fuel) {
                // A pass that reports "no change" cannot move the cycle
                // count: no re-profiling.
                Ok(false) => {}
                Ok(true) => {
                    cur = self.cycles();
                    if cur == UNPROFILEABLE_CYCLES {
                        // The module no longer computes the program's
                        // answer: a fault like any other. Back to the
                        // pre-step state; every repeat of this transition
                        // lands here again, so every repeat counts.
                        self.walk.undo(before);
                        (faulted, cur) = (true, self.prev_cycles);
                    }
                }
                // Rolled back by the checked layer to the exact pre-pass
                // module, which the walk's features already describe.
                Err(_) => faulted = true,
            }
        }
        if faulted {
            // The module is back at its verified pre-pass state (a pass
            // fault's telemetry is counted by the checked layer, a wrong
            // result's by the scoring rule); here only the offender
            // ledger is updated.
            if let Some(q) = &self.quarantine {
                q.record_fault(self.program_fp(), pass_id);
            }
        }
        self.steps_taken += 1;
        let reward = self.reward(self.prev_cycles, cur);
        self.prev_cycles = cur;
        let done = self.steps_taken >= self.cfg.episode_len;
        self.episode_done = done;
        StepResult {
            observation: self.walk.observe(&self.step),
            reward,
            done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_benchmarks::suite;
    use autophase_features::extract;
    use autophase_hls::profile::profile_module;
    use autophase_rl::env::Environment;

    fn small_program() -> Module {
        suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .unwrap()
            .module
    }

    #[test]
    fn reset_and_step_shapes() {
        let mut env = PhaseOrderEnv::single(small_program(), EnvConfig::default());
        let o = env.reset();
        assert_eq!(o.len(), 56);
        assert_eq!(env.num_actions(), 45);
        let r = env.step(38); // -mem2reg
        assert_eq!(r.observation.len(), 56);
        assert!(!r.done);
    }

    #[test]
    fn mem2reg_gives_positive_reward() {
        let mut env = PhaseOrderEnv::single(small_program(), EnvConfig::default());
        env.reset();
        let r = env.step(38);
        assert!(r.reward > 0.0, "mem2reg reward {}", r.reward);
    }

    #[test]
    fn noop_pass_zero_reward_and_no_sample() {
        let mut env = PhaseOrderEnv::single(small_program(), EnvConfig::default());
        env.reset();
        let s0 = env.samples();
        // -loweratomic (44) is a guaranteed no-op.
        let r = env.step(44);
        assert_eq!(r.reward, 0.0);
        assert_eq!(env.samples(), s0, "no-op must not consume a sample");
    }

    #[test]
    fn terminate_action_ends_episode() {
        let cfg = EnvConfig {
            include_terminate: true,
            episode_len: 10,
            ..EnvConfig::default()
        };
        let mut env = PhaseOrderEnv::single(small_program(), cfg);
        env.reset();
        assert_eq!(env.num_actions(), 46);
        let terminate = env.num_actions() - 1;
        let r = env.step(terminate);
        assert!(r.done);
        assert_eq!(r.reward, 0.0);
    }

    #[test]
    fn episode_terminates_at_length() {
        let cfg = EnvConfig {
            episode_len: 3,
            ..EnvConfig::default()
        };
        let mut env = PhaseOrderEnv::single(small_program(), cfg);
        env.reset();
        assert!(!env.step(3).done);
        assert!(!env.step(3).done);
        assert!(env.step(3).done);
    }

    #[test]
    fn action_history_observation() {
        let cfg = EnvConfig {
            observation: ObservationKind::ActionHistory,
            episode_len: 5,
            ..EnvConfig::default()
        };
        let mut env = PhaseOrderEnv::single(small_program(), cfg);
        let o = env.reset();
        assert_eq!(o.len(), 45);
        assert!(o.iter().all(|&x| x == 0.0));
        let r = env.step(7);
        assert_eq!(r.observation[7], 1.0);
        let r = env.step(7);
        assert_eq!(r.observation[7], 2.0);
    }

    #[test]
    fn combined_and_filtered_dimensions() {
        let cfg = EnvConfig {
            observation: ObservationKind::Combined,
            filtered: true,
            ..EnvConfig::default()
        };
        let mut env = PhaseOrderEnv::single(small_program(), cfg);
        assert_eq!(env.num_actions(), FILTERED_PASSES.len());
        let o = env.reset();
        assert_eq!(
            o.len(),
            autophase_features::FILTERED_FEATURES.len() + FILTERED_PASSES.len()
        );
    }

    #[test]
    fn multi_program_round_robin() {
        let progs: Vec<Module> = suite().into_iter().take(2).map(|b| b.module).collect();
        let names: Vec<String> = progs.iter().map(|m| m.name.clone()).collect();
        let mut env = PhaseOrderEnv::new(progs, EnvConfig::default());
        env.reset();
        let first = env.module().name.clone();
        env.reset();
        let second = env.module().name.clone();
        assert_ne!(first, second);
        assert!(names.contains(&first) && names.contains(&second));
    }

    #[test]
    fn injected_fault_is_a_zero_reward_noop_and_rolls_back() {
        use autophase_passes::fault::{self, FaultPlan, FaultSpec};
        let _g = autophase_telemetry::test_guard();
        autophase_telemetry::quiet_panic_hook();
        // Episode-scoped spec: concurrent tests using plain reset() run in
        // the `None` episode context and can never match it.
        let plan = fault::PLAN.install(FaultPlan::new(vec![FaultSpec {
            pass: 38,
            nth: 1,
            episode: Some(9001),
            kind: autophase_passes::checked::FaultKind::Panic,
        }]));
        let pristine = autophase_ir::printer::print_module(&small_program());
        let mut env = PhaseOrderEnv::single(small_program(), EnvConfig::default());
        env.reset_to(9001);
        let r = env.step(38);
        assert_eq!(r.reward, 0.0, "faulted apply must score as a no-op");
        assert!(!r.done);
        assert_eq!(
            autophase_ir::printer::print_module(env.module()),
            pristine,
            "faulted apply must roll back to the pre-pass module"
        );
        autophase_ir::verify::verify_module(env.module()).unwrap();
        assert_eq!(plan.fired(), 1);
        // The second application of the same pass is past the planned
        // `nth` and goes through cleanly.
        let r = env.step(38);
        assert!(r.reward > 0.0, "post-fault apply works: {}", r.reward);
        fault::PLAN.clear();
    }

    #[test]
    fn injected_fault_bypasses_the_transition_memo() {
        use autophase_passes::fault::{self, FaultPlan, FaultSpec};
        let _g = autophase_telemetry::test_guard();
        autophase_telemetry::quiet_panic_hook();
        let cache = Arc::new(EvalCache::new(64));
        let mut env = PhaseOrderEnv::with_cache(
            vec![small_program()],
            EnvConfig::default(),
            Arc::clone(&cache),
        );
        // Warm the profile memo with a fault-free episode.
        env.reset_to(9010);
        let clean = env.step(38);
        assert!(clean.reward > 0.0);
        // Same state, warm profile memo — the planned fault must still fire.
        let plan = fault::PLAN.install(FaultPlan::new(vec![FaultSpec {
            pass: 38,
            nth: 1,
            episode: Some(9011),
            kind: autophase_passes::checked::FaultKind::CorruptIr,
        }]));
        env.reset_to(9011);
        let r = env.step(38);
        assert_eq!(r.reward, 0.0, "memo hit must not absorb a planned fault");
        assert_eq!(plan.fired(), 1);
        fault::PLAN.clear();
        // The fault left nothing behind: a fresh episode replays
        // the clean transition bit-identically.
        env.reset_to(9012);
        let again = env.step(38);
        assert_eq!(again.reward, clean.reward);
        assert_eq!(again.observation, clean.observation);
    }

    #[test]
    fn quarantine_masks_repeat_offenders() {
        use crate::quarantine::Quarantine;
        use autophase_passes::fault::{self, FaultPlan, FaultSpec};
        let _g = autophase_telemetry::test_guard();
        autophase_telemetry::quiet_panic_hook();
        let specs = [9021u64, 9022]
            .iter()
            .map(|&ep| FaultSpec {
                pass: 38,
                nth: 1,
                episode: Some(ep),
                kind: autophase_passes::checked::FaultKind::Panic,
            })
            .collect();
        let plan = fault::PLAN.install(FaultPlan::new(specs));
        let q = Arc::new(Quarantine::new(2));
        let mut env = PhaseOrderEnv::single(small_program(), EnvConfig::default());
        env.set_quarantine(Arc::clone(&q));
        let fp = crate::eval_cache::fingerprint_module(&small_program());

        env.reset_to(9021);
        assert_eq!(env.step(38).reward, 0.0);
        assert_eq!(q.fault_count(fp, 38), 1);
        assert!(!q.is_quarantined(fp, 38));

        env.reset_to(9022);
        assert_eq!(env.step(38).reward, 0.0);
        assert!(q.is_quarantined(fp, 38), "second fault crosses threshold");
        assert_eq!(env.masked_passes(), vec![38]);

        // Masked now: the pass is not even attempted (no poll, no fault),
        // and the step is a guaranteed no-op.
        env.reset_to(9023);
        let r = env.step(38);
        assert_eq!(r.reward, 0.0);
        assert_eq!(q.fault_count(fp, 38), 2, "masked steps record no fault");
        assert_eq!(plan.fired(), 2);
        fault::PLAN.clear();
    }

    #[test]
    fn organic_fuel_fault_feeds_quarantine_and_skips_the_memo() {
        use crate::quarantine::Quarantine;
        use autophase_passes::fault;
        let _g = autophase_telemetry::test_guard();
        fault::PLAN.clear();
        let cfg = EnvConfig {
            // Any changing pass now overflows the budget: an *organic*
            // fault through the normal (non-injected) checked path.
            fuel: autophase_passes::FuelBudget { max_insts: 1 },
            ..EnvConfig::default()
        };
        let cache = Arc::new(EvalCache::new(64));
        let q = Arc::new(Quarantine::new(2));
        let mut env = PhaseOrderEnv::with_cache(vec![small_program()], cfg, Arc::clone(&cache));
        env.set_quarantine(Arc::clone(&q));
        let fp = crate::eval_cache::fingerprint_module(&small_program());

        // Every faulted apply is counted: the second episode's repeat
        // offense runs the pass again and crosses the threshold.
        env.reset();
        assert_eq!(env.step(38).reward, 0.0);
        assert_eq!(q.fault_count(fp, 38), 1);
        env.reset();
        assert_eq!(env.step(38).reward, 0.0);
        assert_eq!(q.fault_count(fp, 38), 2);
        assert!(q.is_quarantined(fp, 38));
    }

    #[test]
    fn incremental_env_bit_identical_to_full_recompute() {
        // The reference is no env code at all: a plain `Module` walked
        // with `registry::apply`, every observation a fresh `extract`,
        // every cycle count a fresh `profile_module` — across two
        // episodes, the second served from the template and the profile memo.
        let cfg = EnvConfig {
            episode_len: 8,
            ..EnvConfig::default()
        };
        let observe = |m: &Module| extract(m).iter().map(|&x| x as f64).collect::<Vec<f64>>();
        let profile = |m: &Module| profile_module(m, &cfg.hls).unwrap().cycles;
        let mut env = PhaseOrderEnv::single(small_program(), cfg.clone());
        for episode in 0..2 {
            let mut m = small_program();
            assert_eq!(env.reset(), observe(&m), "episode {episode} reset");
            let mut prev = profile(&m);
            assert_eq!(env.last_cycles(), prev, "episode {episode} reset");
            for a in [38usize, 23, 33, 30, 31, 25, 44, 28] {
                let r = env.step(a);
                registry::apply(&mut m, a);
                let cur = profile(&m);
                assert_eq!(r.observation, observe(&m), "episode {episode} pass {a}");
                assert_eq!(
                    r.reward,
                    prev as f64 - cur as f64,
                    "episode {episode} pass {a}"
                );
                prev = cur;
            }
            assert_eq!(env.cycles(), prev, "episode {episode} end");
        }
    }

    #[test]
    fn shared_cache_is_invisible_to_combined_observations() {
        // A shared cache changes only how often the profiler runs: a
        // cached env observes, pays and reads cycles like a private one.
        let programs: Vec<Module> = suite().into_iter().take(2).map(|b| b.module).collect();
        let actions = [38usize, 23, 33, 30, 44, 31, 25, 7];
        let cfg = EnvConfig {
            observation: ObservationKind::Combined,
            episode_len: actions.len(),
            ..EnvConfig::default()
        };
        let cache = Arc::new(EvalCache::default());
        let mut plain = PhaseOrderEnv::new(programs.clone(), cfg.clone());
        let mut cached =
            PhaseOrderEnv::with_cache(programs.clone(), cfg.clone(), Arc::clone(&cache));
        // Three epochs over both programs: cold, then twice warm.
        let mut log = Vec::new();
        for episode in 0..6 {
            let obs = plain.reset();
            assert_eq!(obs, cached.reset(), "episode {episode}");
            log.push((obs, 0.0));
            for &a in &actions {
                let (p, c) = (plain.step(a), cached.step(a));
                assert_eq!(p.observation, c.observation, "episode {episode} pass {a}");
                assert_eq!(p.reward, c.reward, "episode {episode} pass {a}");
                assert_eq!(plain.last_cycles(), cached.last_cycles());
                log.push((p.observation, p.reward));
            }
        }
        // One ledger: being the first on a shared cache costs what owning
        // a private one does, and every miss was a profiler run.
        assert_eq!(cached.samples(), plain.samples());
        assert_eq!(cache.stats().misses, cached.samples());
        // A second env on the warm cache replays all six episodes without
        // running the profiler once.
        let mut second = PhaseOrderEnv::with_cache(programs, cfg, cache);
        let mut replay = Vec::new();
        for _ in 0..6 {
            replay.push((second.reset(), 0.0));
            for &a in &actions {
                let r = second.step(a);
                replay.push((r.observation, r.reward));
            }
        }
        assert_eq!(replay, log);
        assert_eq!(second.samples(), 0);
    }

    #[test]
    fn profile_memo_serves_repeat_states_without_sampling() {
        let mut env = PhaseOrderEnv::single(small_program(), EnvConfig::default());
        env.reset();
        let after_first_reset = env.samples();
        assert!(after_first_reset > 0);
        // Second episode on the same program: the reset-state profile is a
        // content-fingerprint memo hit, not a new profiler run.
        env.reset();
        assert_eq!(
            env.samples(),
            after_first_reset,
            "pristine-state re-profile must be a memo hit"
        );
        // And a step that revisits a previously profiled post-pass state
        // (same pass, fresh episode) is also free.
        let r1 = env.step(38);
        let after_first_step = env.samples();
        env.reset();
        let r2 = env.step(38);
        assert_eq!(env.samples(), after_first_step);
        assert_eq!(r1.reward, r2.reward);
        assert_eq!(r1.observation, r2.observation);
    }

    #[test]
    fn repeat_sequences_replay_without_profiling() {
        // Walking the same action sequence twice: episode two runs every
        // pass again, is bit-identical to the first, and profiles nothing
        // (each state it reaches is a profile-memo hit).
        let cfg = EnvConfig {
            episode_len: 6,
            ..EnvConfig::default()
        };
        let mut env = PhaseOrderEnv::single(small_program(), cfg);
        let actions = [38usize, 23, 33, 30, 44, 31];
        let run = |env: &mut PhaseOrderEnv| {
            let mut log = vec![(env.reset(), 0.0)];
            for &a in &actions {
                let r = env.step(a);
                log.push((r.observation, r.reward));
            }
            log
        };
        let first = run(&mut env);
        let samples = env.samples();
        let second = run(&mut env);
        assert_eq!(first, second);
        assert_eq!(env.samples(), samples, "second walk profiles nothing");
    }

    #[test]
    fn sequence_cycles_matches_env_trajectory() {
        let p = small_program();
        let hls = HlsConfig::default();
        let seq = [38usize, 23, 31];
        let by_fn = Input::new(&p, &hls).cycles(&seq);
        let mut env = PhaseOrderEnv::single(p, EnvConfig::default());
        env.reset();
        for &s in &seq {
            env.step(s);
        }
        let by_env = env.cycles();
        assert_eq!(by_fn, by_env);
    }
}
