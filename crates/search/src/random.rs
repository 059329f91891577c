//! Uniform random search: sample whole sequences at once (the paper's
//! `random` baseline "randomly generates a sequence of 45 passes at once
//! instead of sampling them one-by-one").

use crate::{Objective, SearchResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run random search with `budget` evaluations of length-`seq_len` sequences
/// over `num_actions` passes.
pub fn search(
    obj: &mut Objective<'_>,
    num_actions: usize,
    seq_len: usize,
    budget: u64,
    seed: u64,
) -> SearchResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best_sequence: Vec<usize> = Vec::new();
    let mut best_cost = f64::INFINITY;
    for _ in 0..budget {
        let seq: Vec<usize> = (0..seq_len)
            .map(|_| rng.gen_range(0..num_actions))
            .collect();
        let c = obj.cost(&seq);
        if c < best_cost {
            best_cost = c;
            best_sequence = seq;
        }
    }
    SearchResult {
        best_sequence,
        best_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy objective, whose cost is the number of entries ≠ 3.
    fn toy(seq: &[usize]) -> f64 {
        seq.iter().filter(|&&p| p != 3).count() as f64
    }

    #[test]
    fn finds_improvements_within_budget() {
        let mut obj = Objective::new(toy);
        let r = search(&mut obj, 5, 4, 200, 1);
        assert_eq!(obj.evaluations(), 200);
        assert!(r.best_cost <= 2.0, "best {}", r.best_cost);
        assert_eq!(r.best_sequence.len(), 4);
    }

    #[test]
    fn deterministic() {
        let a = search(&mut Objective::new(toy), 5, 4, 50, 9);
        let b = search(&mut Objective::new(toy), 5, 4, 50, 9);
        assert_eq!(a.best_sequence, b.best_sequence);
        assert_eq!(a.best_cost, b.best_cost);
    }
}
