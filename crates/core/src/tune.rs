//! One-call program tuning — the downstream-user entry point.
//!
//! Wraps the machinery of [`crate::algorithms`] behind a single function:
//! give it a program, get back the best pass ordering found, with the
//! baseline comparisons a user needs to judge it.

use crate::algorithms::{search, Algorithm};
use crate::compile::Input;
use autophase_hls::HlsConfig;
use autophase_ir::Module;
use autophase_passes::o3::O3_SEQUENCE;
use autophase_search::Objective;

/// How much compile time to spend tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// A few hundred evaluations (seconds).
    Quick,
    /// A few thousand evaluations (paper-scale per-program search).
    Standard,
    /// An order more (squeezes the last percent).
    Thorough,
}

impl Effort {
    fn budget(self) -> (u64, usize) {
        // (objective evaluations across strategies, sequence length)
        match self {
            Effort::Quick => (400, 24),
            Effort::Standard => (3000, 45),
            Effort::Thorough => (12_000, 45),
        }
    }
}

/// The outcome of [`tune`].
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The best pass ordering found (Table-1 indices).
    pub sequence: Vec<usize>,
    /// Cycle estimate with that ordering.
    pub cycles: u64,
    /// Cycle estimate of the unoptimized program.
    pub o0_cycles: u64,
    /// Cycle estimate under the fixed `-O3` pipeline.
    pub o3_cycles: u64,
    /// Profiler runs spent on distinct modules (the program's own and the
    /// `-O3` reference's included): a module two strategies both reach
    /// costs one.
    pub samples: u64,
}

impl TuneResult {
    /// Fractional improvement over `-O3` (positive = faster than `-O3`).
    pub fn improvement_over_o3(&self) -> f64 {
        (self.o3_cycles as f64 - self.cycles as f64) / self.o3_cycles as f64
    }
}

/// Search for a good pass ordering for `program`.
///
/// Runs insertion greedy first (cheap, strong opening) and spends the rest
/// of the budget on the OpenTuner-style ensemble seeded alongside a
/// genetic refinement; returns whichever ordering was best, with the
/// `-O0`/`-O3` reference points. The `-O3` pipeline itself is always a
/// candidate, so the result is never worse than `-O3`. Every candidate is
/// one checked [`Input::compile`]: a pass that faults on some ordering is
/// rolled back and skipped, never fatal.
pub fn tune(program: &Module, effort: Effort, seed: u64) -> TuneResult {
    let hls = HlsConfig::default();
    let (budget, seq_len) = effort.budget();
    let mut input = Input::new(program, &hls);
    let o3 = input.cycles(O3_SEQUENCE);

    let mut best_seq: Vec<usize> = O3_SEQUENCE.to_vec();
    let mut best_cycles = o3;

    for (algorithm, search_seed) in [
        (Algorithm::Greedy, seed),
        (Algorithm::OpenTuner, seed),
        (Algorithm::GeneticDeap, seed ^ 0x6A),
    ] {
        let mut obj = Objective::new(|seq: &[usize]| input.cycles(seq) as f64);
        let r = search(algorithm, &mut obj, seq_len, budget / 3, search_seed);
        if (r.best_cost as u64) < best_cycles {
            best_cycles = r.best_cost as u64;
            best_seq = r.best_sequence;
        }
    }

    TuneResult {
        sequence: best_seq,
        cycles: best_cycles,
        o0_cycles: input.o0_cycles(),
        o3_cycles: o3,
        samples: input.samples(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_benchmarks::suite;

    #[test]
    fn tune_never_loses_to_o3_and_beats_o0() {
        let p = suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .unwrap()
            .module;
        let r = tune(&p, Effort::Quick, 3);
        assert!(r.cycles <= r.o3_cycles);
        assert!(r.cycles < r.o0_cycles);
        assert!(r.improvement_over_o3() >= 0.0);
        // 400 evaluations (the -O3 reference, then 3 × 133) profile at
        // most one module each; the memo profiles a repeat module once.
        assert!((101..=400).contains(&r.samples), "{}", r.samples);
        // The sequence actually reproduces the reported cycles.
        let again = Input::new(&p, &HlsConfig::default()).cycles(&r.sequence);
        assert_eq!(again, r.cycles);
    }

    #[test]
    fn effort_scales_budget() {
        let (q, _) = Effort::Quick.budget();
        let (s, _) = Effort::Standard.budget();
        let (t, _) = Effort::Thorough.budget();
        assert!(q < s && s < t);
    }
}
