//! Exhaustive enumeration for tiny spaces — the oracle that greedy and the
//! heuristics are validated against in tests (the paper's "brute-force
//! search" reference, feasible only for toy sub-spaces of the 2^247 whole).

use crate::{Objective, SearchResult};

/// Enumerate every sequence of length `0..=max_len` over `passes` and
/// return the best. The space has `Σ |passes|^k` points — keep it tiny.
pub fn search(obj: &mut Objective<'_>, passes: &[usize], max_len: usize) -> SearchResult {
    let mut best_sequence: Vec<usize> = Vec::new();
    let mut best_cost = obj.cost(&[]);
    let mut current = Vec::with_capacity(max_len);
    enumerate(
        obj,
        passes,
        max_len,
        &mut current,
        &mut best_sequence,
        &mut best_cost,
    );
    SearchResult {
        best_sequence,
        best_cost,
    }
}

fn enumerate(
    obj: &mut Objective<'_>,
    passes: &[usize],
    remaining: usize,
    current: &mut Vec<usize>,
    best_sequence: &mut Vec<usize>,
    best_cost: &mut f64,
) {
    if remaining == 0 {
        return;
    }
    for &p in passes {
        current.push(p);
        let c = obj.cost(current);
        if c < *best_cost {
            *best_cost = c;
            *best_sequence = current.clone();
        }
        enumerate(
            obj,
            passes,
            remaining - 1,
            current,
            best_sequence,
            best_cost,
        );
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Optimal is exactly [2, 0].
    fn toy(seq: &[usize]) -> f64 {
        match seq {
            [2, 0] => 0.0,
            [2] => 1.0,
            s => 5.0 + s.len() as f64,
        }
    }

    #[test]
    fn finds_global_optimum() {
        let mut obj = Objective::new(toy);
        let r = search(&mut obj, &[0, 1, 2], 2);
        assert_eq!(r.best_sequence, vec![2, 0]);
        assert_eq!(r.best_cost, 0.0);
        // 1 empty + 3 + 9 sequences.
        assert_eq!(obj.evaluations(), 13);
    }

    #[test]
    fn empty_sequence_can_win() {
        let mut obj = Objective::new(|s: &[usize]| s.len() as f64);
        let r = search(&mut obj, &[0, 1], 3);
        assert!(r.best_sequence.is_empty());
        assert_eq!(r.best_cost, 0.0);
    }
}
