//! Quarantine of repeat-offender (program, pass) pairs.
//!
//! A pass that faults once on a program (panic, verifier break, fuel
//! exhaustion) is rolled back and costs one wasted apply; a pass that
//! faults *every time* on that program wastes an apply per episode,
//! forever. The quarantine table counts faults per `(program fingerprint,
//! pass id)` key and, past a threshold, masks the pass out of the action
//! space for that program — the environment reports a reduced action set
//! and treats the masked action as a no-op.
//!
//! The table is shared across worker environments (like the evaluation
//! cache) and is deliberately *monotone*: pairs are only ever added, so
//! sharing it between workers can change which actions are masked
//! mid-batch but never un-mask one.
//!
//! A reader asks only about its own actions ([`Quarantine::masked_among`]:
//! one lock and one lookup per action, whatever the shared table holds);
//! the table is never scanned. The daemon's rollout reads a program's
//! masked set once, when it starts, and again after each fault it records
//! itself — one lock per rollout instead of one per action per step. So a pass this rollout
//! quarantines stays masked at its later steps, while another worker's
//! concurrent quarantine of the same program is seen at the next
//! rollout, not the next step (monotone: a mask is only ever late, never
//! lifted). Runs that must be bit-identical
//! across worker counts (the determinism suite) simply run without a
//! shared quarantine attached.

use autophase_telemetry::{self as telemetry, lock_recover};
use std::collections::HashMap;
use std::sync::Mutex;

/// How many recorded faults of one `(program, pass)` pair quarantine it.
pub const DEFAULT_QUARANTINE_THRESHOLD: u32 = 2;

/// Shared fault ledger and mask (see module docs).
#[derive(Debug)]
pub struct Quarantine {
    threshold: u32,
    /// `(program fingerprint, pass id)` → fault count. Taken with
    /// `lock_recover`: a recording episode may panic mid-step (the
    /// rollout pool contains it and retries the episode on the same
    /// thread), and every update is a single map operation.
    faults: Mutex<HashMap<(u64, usize), u32>>,
}

impl Default for Quarantine {
    fn default() -> Quarantine {
        Quarantine::new(DEFAULT_QUARANTINE_THRESHOLD)
    }
}

impl Quarantine {
    /// A table that masks a pair after `threshold` recorded faults.
    /// `threshold` is clamped to ≥1 (0 would mask everything untried).
    pub fn new(threshold: u32) -> Quarantine {
        Quarantine {
            threshold: threshold.max(1),
            faults: Mutex::new(HashMap::new()),
        }
    }

    /// Record one fault of `pass` on `program`. Returns `true` when this
    /// record crossed the threshold (the pair is *newly* quarantined).
    pub fn record_fault(&self, program: u64, pass: usize) -> bool {
        let newly = {
            let mut map = lock_recover(&self.faults);
            let count = map.entry((program, pass)).or_insert(0);
            *count += 1;
            *count == self.threshold
        };
        if newly {
            telemetry::set_gauge("quarantine_size", "", self.len() as f64);
        }
        newly
    }

    /// Is `pass` masked from `program`'s action space?
    pub fn is_quarantined(&self, program: u64, pass: usize) -> bool {
        lock_recover(&self.faults)
            .get(&(program, pass))
            .is_some_and(|&c| c >= self.threshold)
    }

    /// Recorded fault count for a pair (0 when never seen).
    pub fn fault_count(&self, program: u64, pass: usize) -> u32 {
        lock_recover(&self.faults)
            .get(&(program, pass))
            .copied()
            .unwrap_or(0)
    }

    /// Number of quarantined (masked) pairs.
    pub fn len(&self) -> usize {
        lock_recover(&self.faults)
            .values()
            .filter(|&&c| c >= self.threshold)
            .count()
    }

    /// True when nothing is quarantined.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// For each of `passes`, whether it is masked from `program`'s action
    /// space: one lock and one lookup per pass, whatever the table holds.
    pub fn masked_among(&self, program: u64, passes: &[usize]) -> Vec<bool> {
        let map = lock_recover(&self.faults);
        passes
            .iter()
            .map(|&pass| {
                map.get(&(program, pass))
                    .is_some_and(|&c| c >= self.threshold)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_after_threshold_and_counts_pairs() {
        let q = Quarantine::new(2);
        assert!(!q.record_fault(10, 5)); // 1st fault: below threshold
        assert!(!q.is_quarantined(10, 5));
        assert!(q.record_fault(10, 5)); // 2nd: newly quarantined
        assert!(q.is_quarantined(10, 5));
        assert!(!q.record_fault(10, 5)); // already quarantined, not "newly"
        assert_eq!(q.fault_count(10, 5), 3);
        assert_eq!(q.len(), 1);
        // Other programs and passes are unaffected.
        assert!(!q.is_quarantined(11, 5));
        assert!(!q.is_quarantined(10, 6));
        assert_eq!(q.masked_among(10, &[4, 5, 6]), vec![false, true, false]);
        assert_eq!(q.masked_among(11, &[5]), vec![false]);
    }

    #[test]
    fn threshold_is_clamped_to_one() {
        let q = Quarantine::new(0);
        assert!(q.record_fault(1, 1));
        assert!(q.is_quarantined(1, 1));
    }

    #[test]
    fn survives_a_poisoned_lock() {
        let q = std::sync::Arc::new(Quarantine::new(1));
        let q2 = std::sync::Arc::clone(&q);
        let t = std::thread::spawn(move || {
            let _guard = lock_recover(&q2.faults);
            panic!("poison on purpose");
        });
        assert!(t.join().is_err());
        assert!(q.record_fault(7, 7));
        assert!(q.is_quarantined(7, 7));
        assert_eq!(q.len(), 1);
    }
}
