//! Policy inference and the greedy serving rollout.
//!
//! [`InferenceEngine`] is a shared handle, not a thread. It holds the one
//! serving policy as an immutable [`Mlp`] handed over by whoever installs
//! it ([`InferenceEngine::swap_policy`]) — its weights are already in the
//! layout the batched forward reads, so installing one transposes
//! nothing. A rollout takes one `Arc` snapshot of it and runs every
//! step's forward ([`Mlp::forward_one`]) on the calling request worker
//! with its own [`BatchWorkspace`] — the way the trainer's rollout
//! workers forward (`autophase_rl::rollout`): shared read-only networks,
//! per-worker scratch. A rollout is therefore served end to end by the
//! policy it started with, a swap never waits for or drops a request, and
//! the only shared write on the request path is one `Arc` clone per
//! rollout. The same rollout, handed a policy that is not installed, is
//! how the learner's replay gate scores a promotion candidate. The
//! batched kernels are bit-identical to [`Mlp::forward`] (pinned by the
//! nn crate's differential suite). Forward time lands in `serve.engine_ns{forward}`
//! (kept out of the `serve.stage_ns` family: a request's forwards are
//! part of its `rollout` stage, not a segment of their own).
//!
//! The rollout itself is the environment's step, not a copy of it: what
//! an action means, what an observation is and how a pass is applied
//! and resynced are [`autophase_core::step`]'s, built from
//! [`serve_env_config`] — the same value a served policy trains under.
//! This file adds what only a daemon needs: which policy answers, the
//! forward, the masked greedy choice, and the experience record.
//!
//! The policy path is fault-isolated end to end: every forward runs
//! under `catch_unwind` (a poisoned network answers with a typed
//! [`PolicyFault`], not a dead handler thread), and the step applies
//! every chosen pass transactionally, the rollout recording offenders in
//! the shared quarantine table so a pass that keeps faulting on a program
//! drops out of that program's action space. Injected faults
//! ([`InferenceEngine::inject_faults`]) and injected panics
//! ([`InferenceEngine::inject_crashes`]) hit the same surface the real
//! ones do, so chaos tests exercise the production degradation path.

use autophase_core::env::{EnvConfig, FeatureNorm, ObservationKind, PhaseOrderEnv, RewardKind};
use autophase_core::step::{Step, Walk};
use autophase_core::Quarantine;
use autophase_ir::Module;
use autophase_nn::mlp::Mlp;
use autophase_nn::{softmax, BatchWorkspace};
use autophase_passes::checked::FuelBudget;
use autophase_rl::online::ExperienceStep;
use autophase_rl::rollout::argmax_masked;
use autophase_rl::serving::ObsLayout;
use autophase_telemetry::{self as telemetry, lock_recover};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Episode length of the serving rollout (and of the training
/// configuration a served checkpoint must come from).
pub const SERVE_EPISODE_LEN: usize = 12;

/// The environment configuration a served policy is trained under, and
/// the single source of the serving configuration: the rollout's step
/// and [`serve_layout`] are both built from it, so the engine reproduces
/// the training-time action table and observation exactly. A checkpoint
/// trained under any other shape is rejected at startup.
pub fn serve_env_config() -> EnvConfig {
    EnvConfig {
        observation: ObservationKind::Combined,
        feature_norm: FeatureNorm::InstCount,
        reward: RewardKind::Log,
        episode_len: SERVE_EPISODE_LEN,
        filtered: true,
        ..EnvConfig::default()
    }
}

/// The dimensions of the serving step as an [`ObsLayout`] — what the
/// engine and the online learner shape-check networks against, so a
/// configuration change that widens one side without the other is
/// caught, not silently misread.
pub fn serve_layout() -> ObsLayout {
    let step = Step::new(&serve_env_config());
    ObsLayout::new(step.feature_dim(), step.num_actions(), step.episode_len())
}

/// Observation width of [`serve_env_config`]: filtered features plus the
/// action histogram.
pub fn serve_obs_dim() -> usize {
    serve_layout().obs_dim()
}

/// Action count of [`serve_env_config`].
pub fn serve_num_actions() -> usize {
    serve_layout().num_actions()
}

/// A sanity environment over `program` in the serving configuration —
/// what a policy meant for the daemon trains on.
pub fn serve_env(programs: Vec<Module>) -> PhaseOrderEnv {
    PhaseOrderEnv::new(programs, serve_env_config())
}

/// Why the policy path could not answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyFault {
    /// A forward pass panicked (or a chaos fault was injected).
    Inference,
}

impl std::fmt::Display for PolicyFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyFault::Inference => write!(f, "policy inference faulted"),
        }
    }
}

impl std::error::Error for PolicyFault {}

/// Engine options: there are none. The type and its place in
/// [`InferenceEngine::start`] remain because the frozen `benchmark/`
/// package compiles against both.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {}

/// What a traced rollout did, beyond the chosen ordering — the
/// per-request aggregates the flight recorder attaches as trace notes
/// (the rollout interleaves inference and pass application, so its
/// inner structure is aggregate counts, not timeline segments).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RolloutReport {
    /// The effective ordering (the passes that changed the module).
    pub applied: Vec<usize>,
    /// Policy forwards this rollout ran.
    pub infer_calls: u32,
    /// Total nanoseconds this request spent inside those forwards.
    pub infer_wait_ns: u64,
    /// Nanoseconds in the checked pass applications (verification
    /// included).
    pub pass_ns: u64,
    /// Nanoseconds resyncing the features after them.
    pub features_ns: u64,
    /// Always 1: every forward runs alone on its request's thread. Kept
    /// because the frozen `benchmark/` package reads it.
    pub infer_batch_max: u32,
    /// Pass applications that faulted (rolled back and quarantined).
    pub pass_faults: u32,
    /// Version of the policy that served this rollout (0 is the boot
    /// checkpoint; published versions count from 1).
    pub policy_version: u64,
    /// The rollout's steps in learner form — what the policy saw, what
    /// it chose, and the log-probability it assigned — ready to stream
    /// into the online trainer as one episode.
    pub steps: Vec<ExperienceStep>,
}

/// A serving policy with its registry version, immutable once built: a
/// swap replaces the `Arc`, never the weights behind it, so a rollout
/// holding an `Arc` of this one keeps its exact network to the end.
pub(crate) struct PolicyEntry {
    pub(crate) version: u64,
    /// The network; the online learner starts its trainer from a clone.
    pub(crate) policy: Mlp,
}

/// Shared handle to the serving policy (see module docs).
pub struct InferenceEngine {
    /// The installed policy; `None` in baseline-only mode. The lock is
    /// held only to clone or replace the `Arc`, never across a forward.
    policy: Option<Mutex<Arc<PolicyEntry>>>,
    /// Armed chaos faults: each pending fault makes one upcoming
    /// inference answer [`PolicyFault::Inference`].
    chaos: AtomicU32,
    /// Armed chaos crashes: each one panics one upcoming forward.
    crash: AtomicU32,
    /// Policy swaps installed over this engine's lifetime.
    swaps: AtomicU64,
}

/// A policy the serving layout refuses: wrong shape or non-finite weights.
#[derive(Debug)]
pub struct ShapeError(pub String);

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "policy shape error: {}", self.0)
    }
}

impl std::error::Error for ShapeError {}

/// Check `policy` against the serving layout (shape and finite weights)
/// and wrap it for serving: boot, swaps and the replay gate's candidate
/// all come through here.
pub(crate) fn policy_entry(policy: Mlp, version: u64) -> Result<Arc<PolicyEntry>, ShapeError> {
    serve_layout()
        .check_policy(&policy)
        .map_err(|e| ShapeError(e.to_string()))?;
    Ok(Arc::new(PolicyEntry { version, policy }))
}

/// Take one armed injection from `armed`, if any is pending. `Relaxed`:
/// a chaos count guards no other data.
pub(crate) fn take_armed(armed: &AtomicU32) -> bool {
    armed
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

impl InferenceEngine {
    /// Serve `policy` as version 0 (the boot checkpoint; published
    /// versions count from 1).
    ///
    /// # Errors
    ///
    /// Rejects a policy whose input/output dimensions do not match the
    /// serving observation layout — a checkpoint from a different
    /// training configuration would silently misread every observation —
    /// and one with a non-finite weight, which would serve NaN logits.
    pub fn start(policy: Mlp, _cfg: EngineConfig) -> Result<InferenceEngine, ShapeError> {
        let entry = policy_entry(policy, 0)
            .map_err(|e| ShapeError(format!("{} (train with serve_env_config())", e.0)))?;
        Ok(InferenceEngine {
            policy: Some(Mutex::new(entry)),
            ..InferenceEngine::start_baseline_only()
        })
    }

    /// An engine with no policy: every inference answers
    /// [`PolicyFault::Inference`] immediately, so every request degrades
    /// to the baseline ordering. This is how the daemon keeps serving
    /// when its checkpoint is quarantined at startup.
    pub fn start_baseline_only() -> InferenceEngine {
        InferenceEngine {
            policy: None,
            chaos: AtomicU32::new(0),
            crash: AtomicU32::new(0),
            swaps: AtomicU64::new(0),
        }
    }

    /// Whether this engine was started without a policy
    /// ([`start_baseline_only`](InferenceEngine::start_baseline_only)).
    pub fn is_baseline_only(&self) -> bool {
        self.policy.is_none()
    }

    /// Arm `n` injected faults: the next `n` inferences answer
    /// [`PolicyFault::Inference`], driving their requests down the
    /// degradation ladder exactly like a real forward-pass panic.
    pub fn inject_faults(&self, n: u32) {
        self.chaos.fetch_add(n, Ordering::Relaxed);
    }

    /// Arm `n` injected crashes: each one raises a real panic inside an
    /// upcoming forward, under the same `catch_unwind` that contains a
    /// genuine one. That inference answers [`PolicyFault::Inference`]
    /// and the next one is served normally.
    pub fn inject_crashes(&self, n: u32) {
        self.crash.fetch_add(n, Ordering::Relaxed);
    }

    /// Hot-swap the serving policy to `policy` (registry `version`).
    /// Rollouts in flight finish on the policy they started with; every
    /// later rollout sees the new one. No request waits on the swap or is
    /// dropped by it.
    ///
    /// # Errors
    ///
    /// Rejects a policy that fails the serving-layout check (shape and
    /// finite weights), and any swap on a baseline-only engine (it has
    /// no policy slot to swap into).
    pub fn swap_policy(&self, policy: Mlp, version: u64) -> Result<(), ShapeError> {
        let Some(slot) = &self.policy else {
            return Err(ShapeError(
                "baseline-only engine has no policy slot to swap".into(),
            ));
        };
        // The layout check runs here, on the swapper's thread and
        // outside the lock.
        let entry = policy_entry(policy, version)?;
        *lock_recover(slot) = entry;
        self.swaps.fetch_add(1, Ordering::Relaxed);
        telemetry::incr("serve.engine", "swap", 1);
        Ok(())
    }

    /// The version currently serving; `None` on a baseline-only engine.
    pub fn active_version(&self) -> Option<u64> {
        self.serving().ok().map(|policy| policy.version)
    }

    /// Policy swaps installed over this engine's lifetime.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Snapshot the installed policy.
    pub(crate) fn serving(&self) -> Result<Arc<PolicyEntry>, PolicyFault> {
        let slot = self.policy.as_ref().ok_or(PolicyFault::Inference)?;
        Ok(Arc::clone(&lock_recover(slot)))
    }

    /// One forward of `policy` over `obs` on the calling thread: logits
    /// over the serving action space, left in `ws`.
    fn forward<'w>(
        &self,
        policy: &PolicyEntry,
        obs: &[f64],
        ws: &'w mut BatchWorkspace,
    ) -> Result<&'w [f64], PolicyFault> {
        let t = telemetry::maybe_now();
        let fault = if take_armed(&self.chaos) {
            Some("injected")
        } else if obs.len() != policy.policy.input_dim() {
            // Answered here rather than by the kernel's length assert:
            // a malformed observation is its caller's fault, not a panic.
            Some("shape")
        } else {
            // A panic faults this inference only: `forward_one` restages
            // the workspace, so a torn state cannot leak into the next.
            catch_unwind(AssertUnwindSafe(|| {
                if take_armed(&self.crash) {
                    std::panic::panic_any(telemetry::INJECTED_PANIC_MSG);
                }
                policy.policy.forward_one(obs, ws);
            }))
            .err()
            .map(|_| "panic")
        };
        telemetry::observe_since("serve.engine_ns", "forward", t);
        match fault {
            Some(kind) => {
                telemetry::incr("serve.policy_fault", kind, 1);
                Err(PolicyFault::Inference)
            }
            None => Ok(ws.logits(0)),
        }
    }

    /// One forward through the active policy: logits over the serving
    /// action space.
    ///
    /// # Errors
    ///
    /// [`PolicyFault`] when the forward pass faulted (or was injected to).
    pub fn infer(&self, obs: Vec<f64>) -> Result<Vec<f64>, PolicyFault> {
        let policy = self.serving()?;
        let mut ws = BatchWorkspace::new();
        Ok(self.forward(&policy, &obs, &mut ws)?.to_vec())
    }

    /// Greedy policy rollout from `m`, which ends holding the result:
    /// [`SERVE_EPISODE_LEN`] steps of argmax actions, each chosen pass
    /// applied transactionally. Faulted applies are recorded in
    /// `quarantine` and skipped; quarantined passes are masked out of the
    /// argmax (the program's masked set is read once per rollout and after
    /// each fault it records: another worker's quarantine shows at the
    /// next rollout). Reports the effective ordering (the changing passes)
    /// and the per-request aggregates a trace records ([`RolloutReport`]).
    /// The whole episode is served by one policy: it is snapshotted once,
    /// before the first step.
    ///
    /// # Errors
    ///
    /// [`PolicyFault`] if any forward pass faults. `m` is then left as it
    /// was passed in, and every caller throws it away: the server
    /// compiles the baseline ordering from the request's module instead,
    /// and the replay gate returns the fault.
    pub fn choose_sequence_report(
        &self,
        m: &mut Module,
        fp: u64,
        quarantine: &Quarantine,
        fuel: &FuelBudget,
    ) -> Result<RolloutReport, PolicyFault> {
        let policy = self.serving()?;
        self.rollout(&policy, m, fp, quarantine, fuel)
    }

    /// The one greedy rollout, run by `policy` — the serving snapshot on
    /// the request path, a candidate or the serving policy in the replay
    /// gate. Same contract as
    /// [`choose_sequence_report`](InferenceEngine::choose_sequence_report).
    pub(crate) fn rollout(
        &self,
        policy: &PolicyEntry,
        m: &mut Module,
        fp: u64,
        quarantine: &Quarantine,
        fuel: &FuelBudget,
    ) -> Result<RolloutReport, PolicyFault> {
        let step = &Step::new(&serve_env_config());
        let mut ws = BatchWorkspace::new();
        let mut walk = Walk::start(step, m.clone());
        let mut report = RolloutReport {
            infer_batch_max: 1,
            policy_version: policy.version,
            ..RolloutReport::default()
        };
        let mut masked = quarantine.masked_among(fp, step.actions());
        for _ in 0..step.episode_len() {
            let obs = walk.observe(step);
            let infer_start = std::time::Instant::now();
            report.infer_calls += 1;
            let logits = self.forward(policy, &obs, &mut ws)?;
            report.infer_wait_ns += infer_start.elapsed().as_nanos() as u64;
            let open = |a: usize| !masked[a];
            // Everything quarantined for this program: nothing left to try.
            let Some(action) = argmax_masked(logits, open) else {
                break;
            };
            // Record the step for the online learner: the behavior
            // log-probability is the softmax mass the serving policy
            // put on the action it (greedily) took.
            let probs = softmax(logits);
            report.steps.push(ExperienceStep {
                obs,
                action,
                logp: probs[action].max(1e-12).ln(),
            });
            let pass = step.actions()[action];
            match walk.step(step, action, fuel) {
                Ok(true) => report.applied.push(pass),
                Ok(false) => {}
                Err(_fault) => {
                    // Rolled back by the step; remember the offender so
                    // repeat faults stop costing attempts.
                    quarantine.record_fault(fp, pass);
                    masked = quarantine.masked_among(fp, step.actions());
                    report.pass_faults += 1;
                    telemetry::incr("serve.rollout", "pass_fault", 1);
                }
            }
        }
        report.pass_ns = walk.pass_ns();
        report.features_ns = walk.features_ns();
        *m = walk.into_module();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_passes::checked::apply_checked;
    use std::time::Duration;

    fn test_policy(seed: u64) -> Mlp {
        Mlp::new(
            &[serve_obs_dim(), 16, serve_num_actions()],
            autophase_nn::mlp::Activation::Tanh,
            seed,
        )
    }

    #[test]
    fn serve_layout_is_the_training_environments_shape() {
        use autophase_rl::env::Environment;
        let env = serve_env(vec![autophase_benchmarks::suite().remove(0).module]);
        let layout = serve_layout();
        assert_eq!(layout.obs_dim(), env.observation_dim());
        assert_eq!(layout.num_actions(), env.num_actions());
        assert_eq!(layout.episode_len(), serve_env_config().episode_len);
    }

    #[test]
    fn rejects_mismatched_checkpoint_shape() {
        let bad = Mlp::new(&[3, 4, 2], autophase_nn::mlp::Activation::Tanh, 1);
        assert!(InferenceEngine::start(bad, EngineConfig::default()).is_err());
    }

    #[test]
    fn concurrent_inference_matches_direct_forward() {
        let policy = test_policy(7);
        let engine =
            Arc::new(InferenceEngine::start(policy.clone(), EngineConfig::default()).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let policy = policy.clone();
                std::thread::spawn(move || {
                    for k in 0..20 {
                        let obs: Vec<f64> = (0..serve_obs_dim())
                            .map(|j| ((i * 31 + k * 7 + j) % 13) as f64 / 13.0)
                            .collect();
                        let got = engine.infer(obs.clone()).unwrap();
                        assert_eq!(got, policy.forward(&obs));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn wrong_width_observation_faults_its_job_not_the_engine() {
        let engine = InferenceEngine::start(test_policy(5), EngineConfig::default()).unwrap();
        assert_eq!(engine.infer(vec![0.0; 3]), Err(PolicyFault::Inference));
        // The engine keeps serving well-formed observations afterwards.
        assert!(engine.infer(vec![0.0; serve_obs_dim()]).is_ok());
    }

    #[test]
    fn hot_swap_changes_answers_without_dropping_requests() {
        let old = test_policy(31);
        let new = test_policy(32);
        let engine =
            Arc::new(InferenceEngine::start(old.clone(), EngineConfig::default()).unwrap());
        let obs: Vec<f64> = (0..serve_obs_dim()).map(|j| (j % 5) as f64 / 5.0).collect();
        assert_eq!(engine.infer(obs.clone()).unwrap(), old.forward(&obs));

        // Hammer inference from several threads across 20 swaps: every
        // single request must get an Ok answer from one of the two
        // policies (never a fault, never a hang).
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let obs = obs.clone();
                let old = old.clone();
                let new = new.clone();
                std::thread::spawn(move || {
                    let mut served = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let got = engine.infer(obs.clone()).expect("swap dropped a request");
                        assert!(
                            got == old.forward(&obs) || got == new.forward(&obs),
                            "answer from neither installed policy"
                        );
                        served += 1;
                    }
                    served
                })
            })
            .collect();
        for i in 0..20 {
            let policy = if i % 2 == 0 { new.clone() } else { old.clone() };
            engine.swap_policy(policy, i + 1).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(total > 0, "workers served during the swap storm");
        assert_eq!(engine.swap_count(), 20);
        assert_eq!(engine.active_version(), Some(20));
        // After the storm every answer comes from the last policy in.
        assert_eq!(engine.infer(obs.clone()).unwrap(), old.forward(&obs));
    }

    #[test]
    fn swap_rejects_wrong_shape_and_baseline_only() {
        let engine = InferenceEngine::start(test_policy(33), EngineConfig::default()).unwrap();
        let bad = Mlp::new(&[3, 4, 2], autophase_nn::mlp::Activation::Tanh, 1);
        assert!(engine.swap_policy(bad, 1).is_err());
        assert_eq!(engine.active_version(), Some(0), "rejected swap is a no-op");

        let baseline = InferenceEngine::start_baseline_only();
        assert!(baseline.swap_policy(test_policy(34), 1).is_err());
        assert!(baseline.active_version().is_none());
    }

    /// Boot and swap are every way a network becomes a serving mirror;
    /// each refuses one NaN weight, and a refused swap is a no-op.
    #[test]
    fn start_swap_and_ab_refuse_a_non_finite_policy() {
        let mut poisoned = test_policy(35);
        let mut params = poisoned.parameters();
        params[0] = f64::NAN;
        poisoned.set_parameters(&params);
        let err = InferenceEngine::start(poisoned.clone(), EngineConfig::default()).err();
        assert!(err.is_some_and(|e| e.0.contains("non-finite")));
        let engine = InferenceEngine::start(test_policy(36), EngineConfig::default()).unwrap();
        assert!(engine.swap_policy(poisoned, 1).is_err());
        assert_eq!(engine.active_version(), Some(0));
        assert_eq!(engine.swap_count(), 0);
    }

    #[test]
    fn rollout_records_experience_steps() {
        let mut m = autophase_benchmarks::suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .expect("gsm present")
            .module;
        let engine = InferenceEngine::start(test_policy(51), EngineConfig::default()).unwrap();
        let fp = autophase_core::eval_cache::fingerprint_module(&m);
        let report = engine
            .choose_sequence_report(&mut m, fp, &Quarantine::default(), &FuelBudget::default())
            .unwrap();
        assert_eq!(report.steps.len(), SERVE_EPISODE_LEN);
        assert_eq!(report.policy_version, 0);
        for step in &report.steps {
            assert_eq!(step.obs.len(), serve_obs_dim());
            assert!(step.action < serve_num_actions());
            assert!(step.logp <= 0.0 && step.logp.is_finite());
        }
    }

    #[test]
    fn a_pass_the_rollout_quarantines_stays_masked() {
        let mut m = autophase_benchmarks::suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .expect("gsm present")
            .module;
        let engine = InferenceEngine::start(test_policy(51), EngineConfig::default()).unwrap();
        let fp = autophase_core::eval_cache::fingerprint_module(&m);
        // Every pass that changes the module outgrows one instruction and
        // faults; one fault quarantines it.
        let quarantine = Quarantine::new(1);
        let report = engine
            .choose_sequence_report(&mut m, fp, &quarantine, &FuelBudget { max_insts: 1 })
            .unwrap();
        assert!(report.pass_faults > 1, "{report:?}");
        assert!(report.applied.is_empty());
        // Each faulting pass faulted once: none was chosen again.
        let actions = Step::new(&serve_env_config()).actions().to_vec();
        let masked: Vec<usize> = actions
            .iter()
            .zip(quarantine.masked_among(fp, &actions))
            .filter_map(|(&pass, masked)| masked.then_some(pass))
            .collect();
        assert_eq!(masked.len(), report.pass_faults as usize);
        for pass in masked {
            assert_eq!(quarantine.fault_count(fp, pass), 1);
        }
    }

    #[test]
    fn injected_faults_surface_and_drain() {
        let engine = InferenceEngine::start(test_policy(3), EngineConfig::default()).unwrap();
        engine.inject_faults(2);
        let obs = vec![0.0; serve_obs_dim()];
        assert_eq!(engine.infer(obs.clone()), Err(PolicyFault::Inference));
        assert_eq!(engine.infer(obs.clone()), Err(PolicyFault::Inference));
        assert!(engine.infer(obs).is_ok(), "faults must drain");
    }

    #[test]
    fn injected_panic_on_the_forward_is_caught_and_the_next_succeeds() {
        telemetry::quiet_panic_hook();
        let policy = test_policy(21);
        let engine = InferenceEngine::start(policy.clone(), EngineConfig::default()).unwrap();
        engine.inject_crashes(1);
        let obs = vec![0.0; serve_obs_dim()];
        // The panic is raised inside the forward and contained there:
        // this inference faults (the calling thread survives) ...
        assert_eq!(engine.infer(obs.clone()), Err(PolicyFault::Inference));
        // ... and the very next one is served by the same handle.
        assert_eq!(engine.infer(obs.clone()).unwrap(), policy.forward(&obs));
    }

    /// A rollout is served end to end by the policy it started with:
    /// whatever version the report names, every step's recorded
    /// log-probability is that one policy's — with swaps landing between
    /// the steps of every episode.
    #[test]
    fn rollout_racing_a_swap_storm_is_served_by_one_policy() {
        use std::sync::atomic::AtomicBool;
        let program = autophase_benchmarks::suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .expect("gsm present")
            .module;
        let fp = autophase_core::eval_cache::fingerprint_module(&program);
        // Version v is served by `pool[v % pool.len()]`; 0 is the boot policy.
        let pool: Vec<Mlp> = (0..5).map(|i| test_policy(60 + i)).collect();
        let engine = InferenceEngine::start(pool[0].clone(), EngineConfig::default()).unwrap();
        let rollouts = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let worker = || {
                scope.spawn(|| {
                    while !stop.load(Ordering::SeqCst) {
                        let report = engine
                            .choose_sequence_report(
                                &mut program.clone(),
                                fp,
                                &Quarantine::default(),
                                &FuelBudget::default(),
                            )
                            .expect("swap dropped a request");
                        let policy = &pool[report.policy_version as usize % pool.len()];
                        assert_eq!(report.steps.len(), SERVE_EPISODE_LEN);
                        for step in &report.steps {
                            let want = softmax(&policy.forward(&step.obs))[step.action]
                                .max(1e-12)
                                .ln();
                            assert_eq!(
                                step.logp.to_bits(),
                                want.to_bits(),
                                "a step of a v{} rollout was served by another policy",
                                report.policy_version
                            );
                        }
                        rollouts.fetch_add(1, Ordering::SeqCst);
                    }
                })
            };
            let workers = [worker(), worker(), worker()];
            // Swap without pause until the workers have finished several
            // rollouts under the storm: every one of those episodes had
            // swaps land between its steps. A worker only finishes before
            // `stop` by failing an assertion; the scope re-raises it.
            let mut version = 0u64;
            while (version < 20 || rollouts.load(Ordering::SeqCst) < 9)
                && !workers.iter().any(|w| w.is_finished())
            {
                version += 1;
                let policy = pool[version as usize % pool.len()].clone();
                engine.swap_policy(policy, version).unwrap();
                std::thread::yield_now();
            }
            stop.store(true, Ordering::SeqCst);
        });
    }

    #[test]
    fn baseline_only_engine_faults_every_inference() {
        let engine = InferenceEngine::start_baseline_only();
        assert!(engine.is_baseline_only());
        assert_eq!(
            engine.infer(vec![0.0; serve_obs_dim()]),
            Err(PolicyFault::Inference)
        );
        // The rollout degrades up front: the first inference faults, so
        // callers fall through to the baseline ordering.
        let mut m = autophase_benchmarks::suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .expect("gsm present")
            .module;
        let fp = autophase_core::eval_cache::fingerprint_module(&m);
        let got = engine.choose_sequence_report(
            &mut m,
            fp,
            &Quarantine::default(),
            &FuelBudget::default(),
        );
        assert_eq!(got, Err(PolicyFault::Inference));
    }

    #[test]
    fn greedy_rollout_improves_a_real_program() {
        let program = autophase_benchmarks::suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .expect("gsm present")
            .module;
        let engine = InferenceEngine::start(test_policy(11), EngineConfig::default()).unwrap();
        let quarantine = Quarantine::default();
        let fuel = FuelBudget::default();
        let fp = autophase_core::eval_cache::fingerprint_module(&program);
        let mut m = program.clone();
        let seq = engine
            .choose_sequence_report(&mut m, fp, &quarantine, &fuel)
            .unwrap()
            .applied;
        // Replaying the returned effective ordering on a fresh copy gives
        // exactly the module the rollout produced.
        let mut replay = program.clone();
        for &p in &seq {
            apply_checked(&mut replay, p, &fuel).unwrap();
        }
        use autophase_ir::printer::print_module;
        assert_eq!(print_module(&replay), print_module(&m));
    }
}
