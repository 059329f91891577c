//! Front memo: request text → module fingerprint (DESIGN.md §4n).
//!
//! `parse_module ∘ verify_module ∘ fingerprint_module` is a pure function
//! of the request bytes, so its result never goes stale and there is
//! nothing to invalidate. The key is the text itself — a hit is byte
//! equality, so two programs can never alias — and an entry is inserted
//! only after all three steps succeeded on exactly those bytes.
//!
//! Bounded by two generations: inserts fill `young`; when it reaches half
//! the budget it becomes `old` and the previous `old` is dropped. Lookups
//! read both.

use std::collections::HashMap;

/// Resident-byte bound the daemon runs with (both generations together).
pub(crate) const FRONT_BUDGET_BYTES: usize = 32 << 20;

/// Charged per entry on top of the text: the key's `String` header, the
/// fingerprint and the table slot, roughly.
const ENTRY_OVERHEAD: usize = 48;

#[derive(Default)]
struct Generation {
    map: HashMap<String, u64>,
    bytes: usize,
}

pub(crate) struct FrontMemo {
    half: usize,
    young: Generation,
    old: Generation,
}

impl FrontMemo {
    pub(crate) fn new(budget_bytes: usize) -> FrontMemo {
        FrontMemo {
            half: budget_bytes / 2,
            young: Generation::default(),
            old: Generation::default(),
        }
    }

    /// The fingerprint recorded for exactly these bytes.
    pub(crate) fn get(&self, text: &str) -> Option<u64> {
        let young = self.young.map.get(text);
        young.or_else(|| self.old.map.get(text)).copied()
    }

    /// Remember that `text` parses, verifies and fingerprints to `fp`.
    /// Returns how many entries the insert evicted. A text that cannot
    /// fit in one generation is not kept.
    pub(crate) fn insert(&mut self, mut text: String, fp: u64) -> usize {
        text.shrink_to_fit();
        let cost = text.capacity() + ENTRY_OVERHEAD;
        if cost > self.half || self.young.map.contains_key(&text) {
            return 0;
        }
        let mut evicted = 0;
        if self.young.bytes + cost > self.half {
            evicted = self.old.map.len();
            self.old = std::mem::take(&mut self.young);
        }
        self.young.bytes += cost;
        self.young.map.insert(text, fp);
        evicted
    }

    /// Bytes charged to resident entries; never above the budget.
    pub(crate) fn bytes(&self) -> usize {
        self.young.bytes + self.old.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const BUDGET: usize = 2_048;

    /// Text number `id`, `len` bytes long (ids stay distinct at any length).
    fn text(id: usize, len: usize) -> String {
        format!("{id:04}{}", "x".repeat(len))
    }

    proptest! {
        /// Against a plain `HashMap` of everything ever inserted: a probe
        /// never returns another text's fingerprint, a text that fits is
        /// found right after its insert, a text that cannot fit is
        /// skipped, the resident bytes never pass the budget, and a flip
        /// keeps every entry of the generation that was young.
        #[test]
        fn agrees_with_a_map_model_inside_its_budget(
            ops in proptest::collection::vec((0usize..24, 0usize..1_400), 1..200),
        ) {
            let mut memo = FrontMemo::new(BUDGET);
            let mut model: HashMap<String, u64> = HashMap::new();
            for (id, len) in ops {
                let t = text(id, len);
                let fp = (id * 7_919 + len) as u64;
                let fits = t.len() + ENTRY_OVERHEAD <= BUDGET / 2;
                let young_before: Vec<String> = memo.young.map.keys().cloned().collect();
                let old_before = memo.old.map.len();

                let evicted = memo.insert(t.clone(), fp);
                model.insert(t.clone(), fp);

                prop_assert_eq!(memo.get(&t), fits.then_some(fp));
                prop_assert!(memo.bytes() <= BUDGET, "resident {} bytes", memo.bytes());
                let flipped = young_before
                    .first()
                    .is_some_and(|k| !memo.young.map.contains_key(k));
                if flipped {
                    // Old is now exactly the former young.
                    prop_assert_eq!(evicted, old_before);
                    prop_assert_eq!(memo.old.map.len(), young_before.len());
                } else {
                    prop_assert_eq!(evicted, 0);
                }
                for k in &young_before {
                    prop_assert_eq!(memo.get(k), model.get(k).copied());
                }
                for (k, v) in memo.young.map.iter().chain(memo.old.map.iter()) {
                    prop_assert_eq!(model.get(k), Some(v));
                }
            }
        }
    }

    #[test]
    fn a_text_over_half_the_budget_is_skipped() {
        let mut memo = FrontMemo::new(BUDGET);
        assert_eq!(memo.insert(text(1, BUDGET), 9), 0);
        assert_eq!(memo.get(&text(1, BUDGET)), None);
        assert_eq!(memo.bytes(), 0);
    }

    #[test]
    fn a_repeated_insert_is_charged_once() {
        let mut memo = FrontMemo::new(BUDGET);
        memo.insert(text(1, 100), 5);
        let once = memo.bytes();
        memo.insert(text(1, 100), 5);
        assert_eq!(memo.bytes(), once);
        assert_eq!(memo.get(&text(1, 100)), Some(5));
    }
}
