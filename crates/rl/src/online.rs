//! Incremental PPO over streamed serving experience.
//!
//! The serve daemon's cold path is, step for step, the paper's training
//! loop run live: a greedy rollout produces an ordering, the HLS model
//! profiles it, and the (observations, actions, final cycle count)
//! triple is exactly one training episode. [`OnlineTrainer`] turns that
//! stream back into policy improvement: episodes arrive as
//! [`Experience`] records, accumulate into a PPO batch, and each
//! [`OnlineTrainer::try_update`] runs one incremental
//! [`PpoAgent::update`] over the batched backward — the same
//! optimizer path offline training uses.
//!
//! Updates are armored the way serving demands: the agent is
//! snapshotted before each update, the update runs under
//! `catch_unwind`, and a panic *or* any non-finite parameter afterwards
//! rolls the agent back to the snapshot. A single pathological episode
//! (absurd reward magnitude, say) can therefore never poison the
//! weights that the learner will later publish for promotion.

use crate::actor_critic::with_forward;
use crate::checkpoint::PolicyCheckpoint;
use crate::ppo::{PpoAgent, PpoConfig};
use crate::rollout::{Batch, Transition};
use crate::serving::{LayoutError, ObsLayout};
use autophase_nn::mlp::Mlp;
use autophase_telemetry as telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One step of a serving rollout: what the policy saw and did, plus the
/// behavior log-probability of the action it took (needed by PPO's
/// importance ratio).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperienceStep {
    /// The observation the policy saw (feature block, then histogram).
    pub obs: Vec<f64>,
    /// Index of the chosen action.
    pub action: usize,
    /// Log-probability the serving policy assigned to `action`.
    pub logp: f64,
}

/// One cold-path serving outcome: a full rollout and the cycle counts
/// that score it.
#[derive(Debug, Clone, PartialEq)]
pub struct Experience {
    /// The rollout's steps, in order.
    pub steps: Vec<ExperienceStep>,
    /// Cycle count of the module after the chosen ordering.
    pub cycles: u64,
    /// Cycle count of the unoptimized module.
    pub baseline_cycles: u64,
}

impl Experience {
    /// Terminal reward of the episode: `ln(baseline / cycles)`, the log
    /// of the whole ordering's cycle-count ratio over the unoptimized
    /// module, paid once — positive when the ordering helped. Not the
    /// environment's `RewardKind::Log`, which pays `sign(Δ)·ln(1+|Δ|)` of
    /// the cycle *difference* at every step.
    fn terminal_reward(&self) -> f64 {
        (self.baseline_cycles.max(1) as f64 / self.cycles.max(1) as f64).ln()
    }
}

/// Knobs for the incremental trainer.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Transitions to accumulate before an update is worthwhile.
    pub min_batch: usize,
    /// PPO hyperparameters for the incremental updates; `hidden` shapes
    /// the fresh value network (the policy arrives already built).
    pub ppo: PpoConfig,
}

impl Default for OnlineConfig {
    fn default() -> OnlineConfig {
        OnlineConfig {
            min_batch: 96,
            ppo: PpoConfig::small(),
        }
    }
}

/// What one incremental update did.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateReport {
    /// Transitions consumed by the update.
    pub transitions: usize,
    /// Mean episode return of the consumed batch.
    pub mean_return: f64,
    /// Whether the update was rolled back (panicked or produced
    /// non-finite parameters).
    pub rejected: bool,
}

/// Incremental PPO over streamed [`Experience`] (see module docs).
#[derive(Debug)]
pub struct OnlineTrainer {
    agent: PpoAgent,
    layout: ObsLayout,
    min_batch: usize,
    pending: Vec<Transition>,
    pending_returns: Vec<f64>,
    ingested: u64,
    skipped: u64,
    samples: u64,
    updates: u64,
    rejected: u64,
}

impl OnlineTrainer {
    /// A trainer that continues from `policy` (in the daemon, the one
    /// serving) with a fresh value network over `cfg.ppo.hidden`; `seed`
    /// seeds that network and the updates' shuffles.
    ///
    /// # Errors
    ///
    /// Rejects a policy that fails [`ObsLayout::check_policy`] (wrong
    /// shape or non-finite weights) — a learner must never start from a
    /// state it would itself refuse to publish.
    pub fn new(
        layout: ObsLayout,
        policy: Mlp,
        cfg: &OnlineConfig,
        seed: u64,
    ) -> Result<OnlineTrainer, LayoutError> {
        layout.check_policy(&policy)?;
        let mut agent = PpoAgent::new(layout.obs_dim(), layout.num_actions(), &cfg.ppo, seed);
        agent.policy = policy;
        Ok(OnlineTrainer {
            agent,
            layout,
            min_batch: cfg.min_batch.max(1),
            pending: Vec::new(),
            pending_returns: Vec::new(),
            ingested: 0,
            skipped: 0,
            samples: 0,
            updates: 0,
            rejected: 0,
        })
    }

    /// Feed one serving outcome. The episode becomes PPO transitions:
    /// zero reward on intermediate steps, `Experience::terminal_reward`
    /// on the terminal step, with state values from the *current* value
    /// network. Episodes with no steps or wrong-width observations are
    /// counted and dropped — a layout mismatch here means a buggy
    /// producer, and one bad episode must not abort the learner.
    pub fn ingest(&mut self, exp: &Experience) {
        let ok = !exp.steps.is_empty()
            && exp.steps.iter().all(|s| {
                s.obs.len() == self.layout.obs_dim() && s.action < self.layout.num_actions()
            });
        if !ok {
            self.skipped += 1;
            telemetry::incr("rl.online", "skipped", 1);
            return;
        }
        let reward = exp.terminal_reward();
        let last = exp.steps.len() - 1;
        for (i, step) in exp.steps.iter().enumerate() {
            self.pending.push(Transition {
                obs: step.obs.clone(),
                action: step.action,
                reward: if i == last { reward } else { 0.0 },
                logp: step.logp,
                value: with_forward(&self.agent.value, &step.obs, |v| v[0]),
                done: i == last,
            });
        }
        self.pending_returns.push(reward);
        self.ingested += 1;
    }

    /// Whether enough transitions are pending for an update.
    pub fn ready(&self) -> bool {
        self.pending.len() >= self.min_batch
    }

    /// Run one armored incremental update if [`ready`](Self::ready);
    /// returns what happened. See the module docs for the
    /// snapshot/rollback contract.
    pub fn try_update(&mut self) -> Option<UpdateReport> {
        if !self.ready() {
            return None;
        }
        let batch = Batch {
            transitions: std::mem::take(&mut self.pending),
            episode_returns: std::mem::take(&mut self.pending_returns),
        };
        let transitions = batch.transitions.len();
        let mean_return =
            batch.episode_returns.iter().sum::<f64>() / batch.episode_returns.len().max(1) as f64;
        let snapshot = (self.agent.policy.clone(), self.agent.value.clone());
        let ran = catch_unwind(AssertUnwindSafe(|| self.agent.update(&batch)));
        let poisoned =
            ran.is_err() || !self.agent.policy.is_finite() || !self.agent.value.is_finite();
        if poisoned {
            self.agent.policy = snapshot.0;
            self.agent.value = snapshot.1;
            self.rejected += 1;
            telemetry::incr("rl.online", "rejected", 1);
        } else {
            self.samples += transitions as u64;
            self.updates += 1;
            telemetry::incr("rl.online", "update", 1);
        }
        Some(UpdateReport {
            transitions,
            mean_return,
            rejected: poisoned,
        })
    }

    /// Snapshot the current agent as a publishable checkpoint.
    pub fn checkpoint(&self) -> PolicyCheckpoint {
        PolicyCheckpoint::from_ppo(&self.agent)
    }

    /// Episodes ingested.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Episodes dropped for layout violations.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Transitions consumed by successful updates.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Successful updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Updates rolled back by the armor.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_nn::mlp::Activation;

    fn layout() -> ObsLayout {
        ObsLayout::new(3, 2, 4)
    }

    fn policy(layout: &ObsLayout, seed: u64) -> Mlp {
        let shape = [layout.obs_dim(), 4, layout.num_actions()];
        Mlp::new(&shape, Activation::Tanh, seed)
    }

    fn trainer(min_batch: usize) -> OnlineTrainer {
        let cfg = OnlineConfig {
            min_batch,
            ppo: PpoConfig {
                hidden: vec![4],
                minibatch: 4,
                epochs: 2,
                ..PpoConfig::default()
            },
        };
        OnlineTrainer::new(layout(), policy(&layout(), 9), &cfg, 9).expect("a valid policy")
    }

    fn episode(layout: &ObsLayout, trainer: &OnlineTrainer, salt: u64, cycles: u64) -> Experience {
        let steps = (0..layout.episode_len())
            .map(|i| {
                let obs: Vec<f64> = (0..layout.obs_dim())
                    .map(|j| ((salt + i as u64 * 3 + j as u64) % 7) as f64 / 7.0)
                    .collect();
                let action = (salt as usize + i) % layout.num_actions();
                let probs = trainer.agent.action_probabilities(&obs);
                ExperienceStep {
                    logp: probs[action].max(1e-12).ln(),
                    obs,
                    action,
                }
            })
            .collect();
        Experience {
            steps,
            cycles,
            baseline_cycles: 1000,
        }
    }

    #[test]
    fn accumulates_and_updates() {
        let l = layout();
        let mut t = trainer(8);
        assert!(t.try_update().is_none(), "no data: no update");
        for s in 0..3 {
            let e = episode(&l, &t, s, 700 + s * 50);
            t.ingest(&e);
        }
        assert!(t.ready());
        let report = t.try_update().expect("ready");
        assert!(!report.rejected);
        assert_eq!(report.transitions, 3 * l.episode_len());
        assert_eq!(t.updates(), 1);
        assert_eq!(t.pending.len(), 0);
        assert!(t
            .checkpoint()
            .policy
            .parameters()
            .iter()
            .all(|p| p.is_finite()));
    }

    #[test]
    fn malformed_episodes_are_skipped_not_fatal() {
        let mut t = trainer(4);
        t.ingest(&Experience {
            steps: vec![],
            cycles: 1,
            baseline_cycles: 1,
        });
        t.ingest(&Experience {
            steps: vec![ExperienceStep {
                obs: vec![0.0; 2],
                action: 0,
                logp: 0.0,
            }],
            cycles: 1,
            baseline_cycles: 1,
        });
        assert_eq!(t.skipped(), 2);
        assert_eq!(t.pending.len(), 0);
    }

    #[test]
    fn poisoned_update_rolls_back() {
        let l = layout();
        let mut t = trainer(4);
        let before = t.agent.policy.parameters();
        // A NaN observation drives the forward/backward into NaN; the
        // armor must restore the snapshot instead of keeping the wreck.
        let mut e = episode(&l, &t, 1, 500);
        for s in &mut e.steps {
            s.obs[0] = f64::NAN;
        }
        // Wrong-width guard doesn't catch NaN (width is fine) — the
        // finiteness post-check must.
        t.ingest(&e);
        let report = t.try_update().expect("ready");
        assert!(report.rejected);
        assert_eq!(t.rejected(), 1);
        assert_eq!(t.updates(), 0);
        assert_eq!(t.agent.policy.parameters(), before, "rolled back");
    }

    #[test]
    fn the_constructor_refuses_a_policy_the_layout_refuses() {
        let l = layout();
        let cfg = OnlineConfig::default();
        let good = policy(&l, 3);
        let t = OnlineTrainer::new(l, good.clone(), &cfg, 1).expect("a valid policy");
        assert_eq!(t.checkpoint().policy.parameters(), good.parameters());

        let wide = Mlp::new(&[l.obs_dim() + 1, 4, l.num_actions()], Activation::Tanh, 3);
        assert!(OnlineTrainer::new(l, wide, &cfg, 1).is_err(), "wrong shape");
        let mut poisoned = good;
        let mut p = poisoned.parameters();
        p[0] = f64::NAN;
        poisoned.set_parameters(&p);
        let err = OnlineTrainer::new(l, poisoned, &cfg, 1).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }
}
