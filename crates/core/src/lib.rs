//! The AutoPhase framework (§3): the phase-ordering environment tying the
//! compiler, HLS profiler, feature extractor, agents, and search baselines
//! together, plus the experiment runners that regenerate every table and
//! figure of the paper.
//!
//! * [`env`](mod@env) — the gym-like [`PhaseOrderEnv`]: actions are Table-1 passes,
//!   observations are Table-2 features and/or the applied-pass histogram,
//!   the reward is the drop in LegUp-estimated cycle count (§5.1);
//! * [`step`](mod@step) — the one statement of that step (action table,
//!   observation recipe, checked transition) the environment and the
//!   compile daemon's rollout both run, and the one rule resyncing the
//!   per-function feature decomposition from each checked apply's change
//!   set, so each step's features cost what the pass changed;
//! * [`compile`](mod@compile) — the one evaluator, [`compile::Input`]: a
//!   program's orderings applied through the checked pass layer, one
//!   profile per distinct module (a memo hit is free, a miss is a sample
//!   and may be a point of the anytime curve), scored by
//!   [`score`](compile::score), the one rule — a module scores its cycles
//!   only if it returns its input's result. The environment, every
//!   search and figure, and the daemon score through it;
//! * [`multi`] — the §5.2 multiple-passes-per-action formulation
//!   (RL-PPO3) and its factored-PPO trainer;
//! * [`eval_cache`] — the profile memo every [`compile::Input`] asks:
//!   module content fingerprint → profiler report, sharded and
//!   thread-safe so environments and workers can share one;
//! * [`quarantine`] — the shared repeat-offender table that masks
//!   `(program, pass)` pairs which keep faulting;
//! * [`dataset`] — feature–action–reward tuple collection for the §4
//!   random-forest importance analysis;
//! * [`algorithms`] — Table 3: every algorithm of Figure 7 behind one
//!   interface, each reporting speedup over `-O3` and samples used;
//! * [`experiment`] — the Figure 5–9 runners;
//! * [`report`] — plain-text table/figure rendering;
//! * [`tune`](mod@tune) — the one-call "find me a good ordering" API for
//!   downstream users.
#![warn(missing_docs)]

pub mod algorithms;
pub mod compile;
pub mod dataset;
pub mod env;
pub mod eval_cache;
pub mod experiment;
pub mod multi;
pub mod quarantine;
pub mod report;
pub mod step;
pub mod tune;

pub use env::{ObservationKind, PhaseOrderEnv, RewardKind};
pub use eval_cache::{CacheStats, EvalCache};
pub use quarantine::Quarantine;
pub use tune::{tune, Effort, TuneResult};
