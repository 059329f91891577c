//! A DEAP-style genetic algorithm (the paper's `Genetic-DEAP` baseline).

use crate::{Objective, SearchResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Crossover operators (OpenTuner's ensemble uses the same three settings
/// for its GA sub-techniques).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crossover {
    /// Single cut point.
    OnePoint,
    /// Two cut points.
    TwoPoint,
    /// Independent per-gene coin flips.
    Uniform,
}

/// Population size.
const POPULATION: usize = 24;
/// Tournament size for selection.
const TOURNAMENT: usize = 3;
/// Per-gene mutation probability.
const MUTATION_PROB: f64 = 0.08;
/// Fraction of elites copied unchanged.
const ELITISM: f64 = 0.1;

/// Run the GA until `budget` objective evaluations are spent.
pub fn search(
    obj: &mut Objective<'_>,
    num_actions: usize,
    seq_len: usize,
    budget: u64,
    seed: u64,
) -> SearchResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pop: Vec<(Vec<usize>, f64)> = (0..POPULATION)
        .map(|_| {
            let g: Vec<usize> = (0..seq_len)
                .map(|_| rng.gen_range(0..num_actions))
                .collect();
            (g, f64::INFINITY)
        })
        .collect();
    for ind in &mut pop {
        if obj.evaluations() >= budget {
            break;
        }
        ind.1 = obj.cost(&ind.0);
    }
    let mut best = pop
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
        .cloned()
        .expect("nonempty population");

    while obj.evaluations() < budget {
        let n_elite = ((POPULATION as f64 * ELITISM).ceil() as usize).max(1);
        let mut sorted = pop.clone();
        sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"));
        let mut next: Vec<(Vec<usize>, f64)> = sorted[..n_elite].to_vec();

        while next.len() < POPULATION && obj.evaluations() < budget {
            let p1 = tournament(&pop, TOURNAMENT, &mut rng);
            let p2 = tournament(&pop, TOURNAMENT, &mut rng);
            let mut child = crossover(&pop[p1].0, &pop[p2].0, Crossover::TwoPoint, &mut rng);
            for g in &mut child {
                if rng.gen_bool(MUTATION_PROB) {
                    *g = rng.gen_range(0..num_actions);
                }
            }
            let c = obj.cost(&child);
            if c < best.1 {
                best = (child.clone(), c);
            }
            next.push((child, c));
        }
        pop = next;
    }

    SearchResult {
        best_sequence: best.0,
        best_cost: best.1,
    }
}

fn tournament(pop: &[(Vec<usize>, f64)], k: usize, rng: &mut StdRng) -> usize {
    let mut best = rng.gen_range(0..pop.len());
    for _ in 1..k {
        let cand = rng.gen_range(0..pop.len());
        if pop[cand].1 < pop[best].1 {
            best = cand;
        }
    }
    best
}

/// Combine two parents.
pub fn crossover(a: &[usize], b: &[usize], op: Crossover, rng: &mut StdRng) -> Vec<usize> {
    let n = a.len();
    match op {
        Crossover::OnePoint => {
            let cut = rng.gen_range(0..=n);
            a[..cut].iter().chain(b[cut..].iter()).copied().collect()
        }
        Crossover::TwoPoint => {
            let mut c1 = rng.gen_range(0..=n);
            let mut c2 = rng.gen_range(0..=n);
            if c1 > c2 {
                std::mem::swap(&mut c1, &mut c2);
            }
            let mut out = a.to_vec();
            out[c1..c2].copy_from_slice(&b[c1..c2]);
            out
        }
        Crossover::Uniform => a
            .iter()
            .zip(b)
            .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cost = Hamming distance to a target sequence.
    fn target_obj(target: Vec<usize>) -> impl FnMut(&[usize]) -> f64 {
        move |seq: &[usize]| seq.iter().zip(&target).filter(|(a, b)| a != b).count() as f64
    }

    #[test]
    fn converges_to_target() {
        let target = vec![1, 3, 0, 2, 1, 0];
        let mut obj = Objective::new(target_obj(target.clone()));
        let r = search(&mut obj, 4, 6, 3000, 5);
        assert!(r.best_cost <= 1.0, "cost {}", r.best_cost);
    }

    #[test]
    fn all_crossovers_preserve_length_and_genes() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = vec![0, 0, 0, 0, 0];
        let b = vec![1, 1, 1, 1, 1];
        for op in [Crossover::OnePoint, Crossover::TwoPoint, Crossover::Uniform] {
            let c = crossover(&a, &b, op, &mut rng);
            assert_eq!(c.len(), 5);
            assert!(c.iter().all(|&g| g <= 1));
        }
    }

    #[test]
    fn budget_respected_and_deterministic() {
        let t = vec![2, 2, 2, 2];
        let mut obj = Objective::new(target_obj(t.clone()));
        let a = search(&mut obj, 3, 4, 200, 8);
        let b = search(&mut Objective::new(target_obj(t)), 3, 4, 200, 8);
        assert!(obj.evaluations() <= 200 + POPULATION as u64);
        assert_eq!(a.best_sequence, b.best_sequence);
    }
}
