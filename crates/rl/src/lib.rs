//! Deep reinforcement-learning algorithms for phase ordering.
//!
//! Implements the three algorithm families the paper evaluates (§2.2, §6):
//!
//! * [`ppo`] — Proximal Policy Optimization with the clipped surrogate
//!   objective and generalized advantage estimation (RL-PPO1/2/3);
//! * [`a2c`] — synchronous advantage actor-critic, the deterministic
//!   stand-in for the paper's A3C (identical objective, no async workers);
//! * [`es`] — OpenAI-style evolution strategies over policy weights
//!   (RL-ES).
//!
//! PPO and A2C are one trainer, [`actor_critic`], that differs only in
//! the loss: each module holds its hyperparameters, how it collects a
//! batch ([`rollout`]), and the weight its loss gives a transition; the
//! training loop, its telemetry and the batched gradient pass are stated
//! once.
//!
//! All agents operate over the gym-like [`env::Environment`] trait; the
//! AutoPhase phase-ordering environment in `autophase-core` implements it.
//!
//! # Example
//!
//! ```
//! use autophase_rl::env::{Environment, StepResult};
//! use autophase_rl::ppo::{PpoAgent, PpoConfig};
//!
//! // A two-armed bandit: action 1 pays off.
//! struct Bandit;
//! impl Environment for Bandit {
//!     fn observation_dim(&self) -> usize { 1 }
//!     fn num_actions(&self) -> usize { 2 }
//!     fn reset(&mut self) -> Vec<f64> { vec![0.0] }
//!     fn step(&mut self, a: usize) -> StepResult {
//!         StepResult { observation: vec![0.0], reward: a as f64, done: true }
//!     }
//! }
//! let mut agent = PpoAgent::new(1, 2, &PpoConfig { hidden: vec![16], ..Default::default() }, 7);
//! agent.train(&mut Bandit, 40);
//! let probs = agent.action_probabilities(&[0.0]);
//! assert!(probs[1] > 0.8);
//! ```
#![warn(missing_docs)]

pub mod a2c;
pub mod actor_critic;
pub mod checkpoint;
pub mod env;
pub mod es;
pub mod online;
pub mod ppo;
pub mod registry;
pub mod rollout;
pub mod serving;

pub use env::{Environment, StepResult};
