//! What the two gradient-trained agents share: the policy/value pair,
//! the collect → update → telemetry loop, and the gradient pass over a
//! batch. [`crate::ppo`] and [`crate::a2c`] add only their configuration,
//! how they collect, and the weight their loss gives a transition.

use crate::rollout::{self, Batch, Transition};
use autophase_nn::{softmax, softmax_into, Activation, BatchWorkspace, GradScratch, Mlp};
use autophase_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;

/// `f` of `net`'s output for one observation, through the batched
/// single-row forward and a workspace this thread keeps, so a per-step
/// caller (greedy inference, the online learner's value estimates)
/// allocates nothing for the forward once warm.
pub(crate) fn with_forward<R>(net: &Mlp, obs: &[f64], f: impl FnOnce(&[f64]) -> R) -> R {
    thread_local! {
        static WS: RefCell<BatchWorkspace> = RefCell::new(BatchWorkspace::new());
    }
    WS.with_borrow_mut(|ws| f(net.forward_one(obs, ws)))
}

/// An actor-critic agent with configuration `C`: a policy network, a
/// value network, and the RNG that samples actions and shuffles batches.
#[derive(Debug, Clone)]
pub struct ActorCritic<C> {
    /// Policy network producing action logits.
    pub policy: Mlp,
    /// Value network producing state-value estimates.
    pub value: Mlp,
    pub(crate) cfg: C,
    pub(crate) rng: StdRng,
}

impl<C> ActorCritic<C> {
    /// Two `tanh` networks over `hidden`, seeded by `seeds`: the policy
    /// network's, the value network's and the RNG's. Each algorithm keeps
    /// the derivation it always had, so its runs replay.
    pub(crate) fn build(
        obs_dim: usize,
        n_actions: usize,
        hidden: &[usize],
        cfg: C,
        [policy_seed, value_seed, rng_seed]: [u64; 3],
    ) -> ActorCritic<C> {
        let sizes = |out: usize| [&[obs_dim][..], hidden, &[out]].concat();
        ActorCritic {
            policy: Mlp::new(&sizes(n_actions), Activation::Tanh, policy_seed),
            value: Mlp::new(&sizes(1), Activation::Tanh, value_seed),
            cfg,
            rng: StdRng::seed_from_u64(rng_seed),
        }
    }

    /// Action probabilities for an observation.
    pub fn action_probabilities(&self, obs: &[f64]) -> Vec<f64> {
        with_forward(&self.policy, obs, softmax)
    }

    /// Greedy action.
    pub fn act_greedy(&self, obs: &[f64]) -> usize {
        with_forward(&self.policy, obs, rollout::argmax)
    }

    /// Run `iterations` of `collect` (given the iteration's index) then
    /// `update`, and return each batch's episode reward mean. Timings and
    /// counts go to `rl.*{label}`; they are recorded, never consulted.
    pub(crate) fn train_loop(
        &mut self,
        label: &str,
        iterations: usize,
        mut collect: impl FnMut(&mut Self, usize) -> Batch,
        update: impl Fn(&mut Self, &Batch),
    ) -> Vec<f64> {
        let train_start = telemetry::maybe_now();
        let mut total_steps = 0u64;
        let mut curve = Vec::with_capacity(iterations);
        for i in 0..iterations {
            let t = telemetry::maybe_now();
            let batch = collect(self, i);
            telemetry::observe_since("rl.collect_ns", label, t);
            let steps = batch.transitions.len() as u64;
            total_steps += steps;
            curve.push(batch.episode_reward_mean());
            telemetry::set_gauge("rl.episode_reward_mean", label, batch.episode_reward_mean());
            let t = telemetry::maybe_now();
            update(self, &batch);
            telemetry::observe_since("rl.update_ns", label, t);
            telemetry::incr("rl.iterations", label, 1);
            telemetry::incr("rl.steps", label, steps);
        }
        if let Some(t) = train_start {
            let secs = t.elapsed().as_secs_f64();
            if secs > 0.0 && telemetry::enabled() {
                telemetry::gauge("rl.steps_per_sec", label).set(total_steps as f64 / secs);
            }
        }
        curve
    }
}

/// The gradient pass of one update over one batch: normalized GAE
/// advantages and returns, and the staging both networks' batched
/// backward needs.
///
/// Each chunk runs one batched forward per network, straight off the
/// networks' own weights; the cached activations feed
/// [`Mlp::backward_batch`], so the per-sample path's two scalar forwards
/// (one for the loss, one hidden inside `backward`) collapse into one
/// batched GEMM — with bit-identical gradients and Adam trajectories
/// (`tests/train_update_golden.rs`). The caller decides when the
/// accumulated gradients are applied (`Mlp::step`); the next chunk
/// forwards through the stepped weights as they lie.
pub(crate) struct Update<'a> {
    batch: &'a Batch,
    adv: Vec<f64>,
    ret: Vec<f64>,
    entropy_coef: f64,
    pws: BatchWorkspace,
    vws: BatchWorkspace,
    pscratch: GradScratch,
    vscratch: GradScratch,
    pgrad: Vec<f64>,
    vgrad: Vec<f64>,
    probs: Vec<f64>,
}

impl<'a> Update<'a> {
    pub(crate) fn new(batch: &'a Batch, gamma: f64, lam: f64, entropy_coef: f64) -> Update<'a> {
        let (mut adv, ret) = rollout::gae(batch, gamma, lam);
        rollout::normalize(&mut adv);
        Update {
            batch,
            adv,
            ret,
            entropy_coef,
            pws: BatchWorkspace::new(),
            vws: BatchWorkspace::new(),
            pscratch: GradScratch::new(),
            vscratch: GradScratch::new(),
            pgrad: Vec::new(),
            vgrad: Vec::new(),
            probs: Vec::new(),
        }
    }

    /// Accumulate into both networks the gradients of the transitions
    /// `chunk` indexes. `weight(transition, probs, advantage)` is the
    /// algorithm's policy loss: `Some(w)` for `L = -w · log π(a|s)`, or
    /// `None` when no policy gradient flows through this transition.
    pub(crate) fn accumulate(
        &mut self,
        policy: &mut Mlp,
        value: &mut Mlp,
        chunk: &[usize],
        weight: impl Fn(&Transition, &[f64], f64) -> Option<f64>,
    ) {
        self.pws.begin(policy);
        self.vws.begin(value);
        for &i in chunk {
            let obs = &self.batch.transitions[i].obs;
            self.pws.push_input(obs);
            self.vws.push_input(obs);
        }
        policy.forward_batch(&mut self.pws);
        value.forward_batch(&mut self.vws);

        let n_actions = policy.output_dim();
        self.pgrad.clear();
        self.pgrad.resize(chunk.len() * n_actions, 0.0);
        self.vgrad.clear();
        self.vgrad.resize(chunk.len(), 0.0);
        let probs = &mut self.probs;
        for (bi, &i) in chunk.iter().enumerate() {
            let t = &self.batch.transitions[i];
            softmax_into(self.pws.logits(bi), probs);
            // dL/dlogits.
            let grad = &mut self.pgrad[bi * n_actions..(bi + 1) * n_actions];
            if let Some(w) = weight(t, probs, self.adv[i]) {
                // dlogp/dlogit_j = 1{j=a} - p_j, so
                // dL/dlogit_j = -w (1{j=a} - p_j)
                for (j, g) in grad.iter_mut().enumerate() {
                    let ind = if j == t.action { 1.0 } else { 0.0 };
                    *g = -w * (ind - probs[j]);
                }
            }
            // Entropy bonus: L -= β H; dH/dlogit_j = -p_j (log p_j + H)
            if self.entropy_coef > 0.0 {
                let h: f64 = -probs
                    .iter()
                    .map(|&p| p.max(1e-12) * p.max(1e-12).ln())
                    .sum::<f64>();
                for (j, g) in grad.iter_mut().enumerate() {
                    let dh = -probs[j] * (probs[j].max(1e-12).ln() + h);
                    *g -= self.entropy_coef * dh;
                }
            }
            // Value regression: L = 0.5 (v - ret)^2.
            self.vgrad[bi] = self.vws.logits(bi)[0] - self.ret[i];
        }
        policy.backward_batch(&self.pws, &self.pgrad, &mut self.pscratch);
        value.backward_batch(&self.vws, &self.vgrad, &mut self.vscratch);
    }
}
