//! Insertion greedy (Huang et al., FCCM'13; the paper's `Greedy`):
//! "always inserts the pass that achieves the highest speedup at the best
//! position (out of all possible positions it can be inserted to) in the
//! current sequence."

use crate::{Objective, SearchResult};

/// Run insertion greedy until the sequence reaches `max_len`, no insertion
/// improves the objective, or `budget` evaluations are spent.
pub fn search(
    obj: &mut Objective<'_>,
    num_actions: usize,
    max_len: usize,
    budget: u64,
) -> SearchResult {
    let mut seq: Vec<usize> = Vec::new();
    let mut best_cost = obj.cost(&seq);

    while seq.len() < max_len && obj.evaluations() < budget {
        let mut best_insert: Option<(usize, usize, f64)> = None; // (pass, pos, cost)
        'outer: for pass in 0..num_actions {
            for pos in 0..=seq.len() {
                if obj.evaluations() >= budget {
                    break 'outer;
                }
                let mut cand = seq.clone();
                cand.insert(pos, pass);
                let c = obj.cost(&cand);
                if best_insert.map(|(_, _, bc)| c < bc).unwrap_or(true) {
                    best_insert = Some((pass, pos, c));
                }
            }
        }
        match best_insert {
            Some((pass, pos, c)) if c < best_cost => {
                seq.insert(pos, pass);
                best_cost = c;
            }
            _ => break, // no improving insertion: greedy is done
        }
    }

    SearchResult {
        best_sequence: seq,
        best_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Objective where order matters: pass 1 then pass 2 is best.
    /// cost = 10 - 3·(has 1 before 2) - (count of 1s, capped 2)
    fn ordered(seq: &[usize]) -> f64 {
        let pos1 = seq.iter().position(|&p| p == 1);
        let pos2 = seq.iter().position(|&p| p == 2);
        let ordered_bonus = match (pos1, pos2) {
            (Some(a), Some(b)) if a < b => 3.0,
            _ => 0.0,
        };
        let ones = seq.iter().filter(|&&p| p == 1).count().min(2) as f64;
        10.0 - ordered_bonus - ones
    }

    #[test]
    fn finds_ordered_pair() {
        let mut obj = Objective::new(ordered);
        let r = search(&mut obj, 4, 6, 10_000);
        assert!(r.best_cost <= 5.0, "cost {}", r.best_cost);
        let pos1 = r.best_sequence.iter().position(|&p| p == 1).unwrap();
        let pos2 = r.best_sequence.iter().position(|&p| p == 2).unwrap();
        assert!(pos1 < pos2);
    }

    #[test]
    fn stops_when_no_improvement() {
        // A constant objective, so greedy should quit after one round.
        let mut obj = Objective::new(|_s: &[usize]| 1.0);
        let r = search(&mut obj, 5, 10, 10_000);
        assert!(r.best_sequence.is_empty());
        // 1 (empty) + 5 passes × 1 position.
        assert_eq!(obj.evaluations(), 6);
    }

    #[test]
    fn respects_budget() {
        let mut obj = Objective::new(|s: &[usize]| -(s.len() as f64));
        search(&mut obj, 10, 50, 100);
        assert!(obj.evaluations() <= 100 + 10);
    }
}
