//! Black-box pass-sequence search baselines (§6.1's non-RL competitors).
//!
//! Every searcher optimizes an opaque objective `eval(&[usize]) -> f64`
//! (lower is better — circuit cycles in the experiments) over fixed-length
//! pass sequences, mirroring how the paper drives external tools:
//!
//! * [`random`] — uniform random 45-pass sequences (`random`);
//! * [`greedy`] — the insertion greedy of Huang et al. FCCM'13 (`Greedy`):
//!   repeatedly insert the best pass at the best position;
//! * [`genetic`] — a DEAP-style genetic algorithm (`Genetic-DEAP`);
//! * [`opentuner`] — an AUC-bandit meta-technique over an ensemble of
//!   particle-swarm and genetic sub-techniques with three crossover
//!   settings each, OpenTuner's architecture (Ansel et al., PACT'14).
//!
//! [`exhaustive`] enumerates tiny sub-spaces exactly and serves as the
//! oracle the heuristics are validated against.
//!
//! Budgets are objective evaluations, counted by [`Objective`]: an
//! ordering asked for twice costs two. What an evaluation costs is the
//! objective's business — Figure 7's samples are the profiler runs behind
//! the calls, which `autophase_core::compile::Input` counts.
#![warn(missing_docs)]

pub mod exhaustive;
pub mod genetic;
pub mod greedy;
pub mod opentuner;
pub mod random;

/// The outcome of a search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best sequence found.
    pub best_sequence: Vec<usize>,
    /// Its objective value.
    pub best_cost: f64,
}

/// A boxed sequence-cost function.
type EvalFn<'a> = Box<dyn FnMut(&[usize]) -> f64 + 'a>;

/// A counting wrapper around the objective, shared by all searchers.
pub struct Objective<'a> {
    eval: EvalFn<'a>,
    evaluations: u64,
}

impl<'a> Objective<'a> {
    /// Wrap an evaluation function.
    pub fn new(eval: impl FnMut(&[usize]) -> f64 + 'a) -> Objective<'a> {
        Objective {
            eval: Box::new(eval),
            evaluations: 0,
        }
    }

    /// Evaluate a sequence, counting the evaluation.
    pub fn cost(&mut self, seq: &[usize]) -> f64 {
        self.evaluations += 1;
        (self.eval)(seq)
    }

    /// Evaluations so far: the unit of a search's budget.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }
}
