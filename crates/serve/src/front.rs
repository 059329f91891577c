//! Front memo: request text → module fingerprint (DESIGN.md §4n).
//!
//! `parse_module ∘ verify_module ∘ fingerprint_module` is a pure function
//! of the request bytes, so its result never goes stale and there is
//! nothing to invalidate. The key is the text itself — a hit is byte
//! equality, so two programs can never alias — and an entry is inserted
//! only after all three steps succeeded on exactly those bytes.
//!
//! The memo is the workspace's [`BoundedMap`] weighed in resident bytes:
//! its lookup takes `&self`, so probes run under the read lock.

use autophase_telemetry::{BoundedMap, MapCounters};

/// Request text → fingerprint, reporting as `serve.front{hit|miss|evicted}`.
pub(crate) type FrontMemo = BoundedMap<String, u64>;

/// Resident-byte bound the daemon runs with (both generations together).
const FRONT_BUDGET_BYTES: usize = 32 << 20;

/// Charged per entry on top of the text: the key's `String` header, the
/// fingerprint and the table slot, roughly.
const ENTRY_OVERHEAD: usize = 48;

/// An empty memo of [`FRONT_BUDGET_BYTES`]. Insert texts shrunk to fit:
/// an entry is charged its capacity.
pub(crate) fn front_memo() -> FrontMemo {
    BoundedMap::weighted(
        FRONT_BUDGET_BYTES,
        |text, _| text.capacity() + ENTRY_OVERHEAD,
        MapCounters {
            evict: ("serve.front", "evicted"),
            ..MapCounters::family("serve.front")
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repeated_insert_is_charged_once() {
        let mut memo = front_memo();
        let text = "x".repeat(100);
        memo.insert(text.clone(), 5);
        assert_eq!(memo.weight(), text.capacity() + ENTRY_OVERHEAD);
        memo.insert(text.clone(), 5);
        assert_eq!(memo.weight(), text.capacity() + ENTRY_OVERHEAD);
        assert_eq!(memo.get(text.as_str()), Some(&5));
    }
}
