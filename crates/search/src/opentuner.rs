//! An OpenTuner-style autotuner (Ansel et al., PACT'14; the paper's
//! `OpenTuner` baseline).
//!
//! OpenTuner runs an *ensemble* of search techniques — "two families of
//! algorithms: particle swarm optimization and GA, each with three
//! different crossover settings" (§6.1) — coordinated by an AUC-bandit
//! meta-technique that allocates evaluations to whichever technique has
//! recently produced improvements.

use crate::genetic::{crossover, Crossover};
use crate::{Objective, SearchResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Sliding-window length for the bandit's credit history.
const WINDOW: usize = 50;
/// Bandit exploration constant.
const EXPLORATION: f64 = 1.4;
/// Shared population size per technique.
const POPULATION: usize = 10;

/// Per-particle PSO state: (position, velocity, best position, best cost).
type Particle = (Vec<f64>, Vec<f64>, Vec<f64>, f64);

/// One sub-technique of the ensemble.
enum Technique {
    Pso {
        inertia: f64,
        particles: Vec<Particle>,
        crossover: Crossover,
        cursor: usize,
    },
    Ga {
        crossover: Crossover,
        population: Vec<(Vec<usize>, f64)>,
        mutation: f64,
    },
}

/// Run the ensemble tuner for `budget` evaluations.
pub fn search(
    obj: &mut Objective<'_>,
    num_actions: usize,
    seq_len: usize,
    budget: u64,
    seed: u64,
) -> SearchResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best: (Vec<usize>, f64) = (
        (0..seq_len)
            .map(|_| rng.gen_range(0..num_actions))
            .collect(),
        f64::INFINITY,
    );
    best.1 = obj.cost(&best.0);

    // The six techniques: PSO ×3 crossover settings + GA ×3.
    let xs = [Crossover::OnePoint, Crossover::TwoPoint, Crossover::Uniform];
    let mut techniques: Vec<Technique> = Vec::new();
    for &cx in &xs {
        let particles = (0..POPULATION)
            .map(|_| {
                let pos: Vec<f64> = (0..seq_len)
                    .map(|_| rng.gen_range(0.0..num_actions as f64))
                    .collect();
                let vel: Vec<f64> = (0..seq_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
                (pos.clone(), vel, pos, f64::INFINITY)
            })
            .collect();
        techniques.push(Technique::Pso {
            inertia: 0.6,
            particles,
            crossover: cx,
            cursor: 0,
        });
    }
    for &cx in &xs {
        let population = (0..POPULATION)
            .map(|_| {
                let g: Vec<usize> = (0..seq_len)
                    .map(|_| rng.gen_range(0..num_actions))
                    .collect();
                (g, f64::INFINITY)
            })
            .collect();
        techniques.push(Technique::Ga {
            crossover: cx,
            population,
            mutation: 0.08,
        });
    }

    // AUC bandit state: recent success history per technique.
    let mut history: Vec<VecDeque<bool>> = vec![VecDeque::new(); techniques.len()];
    let mut uses: Vec<u64> = vec![0; techniques.len()];
    let mut total_uses: u64 = 1;

    while obj.evaluations() < budget {
        // Pick the technique with the best AUC + exploration bonus.
        let pick = (0..techniques.len())
            .max_by(|&a, &b| {
                let sa = bandit_score(&history[a], uses[a], total_uses, EXPLORATION);
                let sb = bandit_score(&history[b], uses[b], total_uses, EXPLORATION);
                sa.partial_cmp(&sb).expect("finite scores")
            })
            .expect("nonempty ensemble");
        uses[pick] += 1;
        total_uses += 1;

        let candidate = propose(
            &mut techniques[pick],
            &best.0,
            num_actions,
            seq_len,
            &mut rng,
        );
        let c = obj.cost(&candidate);
        let improved = c < best.1;
        record(&mut techniques[pick], &candidate, c, num_actions);
        if improved {
            best = (candidate, c);
        }
        let h = &mut history[pick];
        h.push_back(improved);
        if h.len() > WINDOW {
            h.pop_front();
        }
    }

    SearchResult {
        best_sequence: best.0,
        best_cost: best.1,
    }
}

/// AUC score: recency-weighted success rate (newer successes weigh more —
/// OpenTuner's "area under the curve" credit), plus a UCB exploration term.
fn bandit_score(h: &VecDeque<bool>, uses: u64, total: u64, exploration: f64) -> f64 {
    let auc = if h.is_empty() {
        0.5
    } else {
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &s) in h.iter().enumerate() {
            let w = (i + 1) as f64;
            den += w;
            if s {
                num += w;
            }
        }
        num / den
    };
    auc + exploration * ((total as f64).ln() / (uses.max(1) as f64)).sqrt()
}

fn propose(
    t: &mut Technique,
    global_best: &[usize],
    num_actions: usize,
    seq_len: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    match t {
        Technique::Pso {
            inertia,
            particles,
            crossover: cx,
            cursor,
        } => {
            let i = *cursor % particles.len();
            *cursor += 1;
            let (pos, vel, pbest, _) = &mut particles[i];
            // Velocity update toward personal and global best.
            for j in 0..seq_len {
                let r1: f64 = rng.gen();
                let r2: f64 = rng.gen();
                vel[j] = *inertia * vel[j]
                    + 1.5 * r1 * (pbest[j] - pos[j])
                    + 1.5 * r2 * (global_best[j] as f64 - pos[j]);
                pos[j] = (pos[j] + vel[j]).clamp(0.0, num_actions as f64 - 1e-9);
            }
            let rounded: Vec<usize> = pos.iter().map(|&p| p as usize).collect();
            // Crossover setting: mix the rounded position with the global
            // best (OpenTuner's PSO variants differ exactly here).
            crossover(&rounded, global_best, *cx, rng)
        }
        Technique::Ga {
            crossover: cx,
            population,
            mutation,
        } => {
            let pick2 = |rng: &mut StdRng| {
                let a = rng.gen_range(0..population.len());
                let b = rng.gen_range(0..population.len());
                if population[a].1 <= population[b].1 {
                    a
                } else {
                    b
                }
            };
            let p1 = pick2(rng);
            let p2 = pick2(rng);
            let mut child = crossover(&population[p1].0, &population[p2].0, *cx, rng);
            for g in &mut child {
                if rng.gen_bool(*mutation) {
                    *g = rng.gen_range(0..num_actions);
                }
            }
            child
        }
    }
}

fn record(t: &mut Technique, candidate: &[usize], cost: f64, _num_actions: usize) {
    match t {
        Technique::Pso {
            particles, cursor, ..
        } => {
            let i = (*cursor + particles.len() - 1) % particles.len();
            let (_, _, pbest, pcost) = &mut particles[i];
            if cost < *pcost {
                *pcost = cost;
                *pbest = candidate.iter().map(|&c| c as f64).collect();
            }
        }
        Technique::Ga { population, .. } => {
            // Replace the worst member if the child beats it.
            if let Some((wi, _)) = population
                .iter()
                .enumerate()
                .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("finite costs"))
            {
                if cost < population[wi].1 {
                    population[wi] = (candidate.to_vec(), cost);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target_obj(target: Vec<usize>) -> impl FnMut(&[usize]) -> f64 {
        move |seq: &[usize]| seq.iter().zip(&target).filter(|(a, b)| a != b).count() as f64
    }

    #[test]
    fn converges_on_simple_target() {
        let target = vec![2, 0, 1, 3, 2];
        let mut obj = Objective::new(target_obj(target));
        let r = search(&mut obj, 4, 5, 4000, 3);
        assert!(r.best_cost <= 1.0, "cost {}", r.best_cost);
        assert_eq!(obj.evaluations(), 4000);
    }

    #[test]
    fn deterministic() {
        let t = vec![1, 1, 0];
        let a = search(&mut Objective::new(target_obj(t.clone())), 2, 3, 300, 12);
        let b = search(&mut Objective::new(target_obj(t)), 2, 3, 300, 12);
        assert_eq!(a.best_sequence, b.best_sequence);
    }

    #[test]
    fn bandit_prefers_recent_success() {
        let mut good = VecDeque::new();
        let mut bad = VecDeque::new();
        for i in 0..10 {
            good.push_back(i >= 5); // recent successes
            bad.push_back(i < 5); // old successes
        }
        assert!(bandit_score(&good, 10, 20, 0.0) > bandit_score(&bad, 10, 20, 0.0));
    }
}
