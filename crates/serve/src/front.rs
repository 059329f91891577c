//! Front memo: request text → module fingerprint (DESIGN.md §4n).
//!
//! `parse_module ∘ verify_module ∘ fingerprint_module` is a pure function
//! of the request bytes, so its result never goes stale and there is
//! nothing to invalidate. An entry holds only what all three steps made
//! of exactly its bytes, in this process or in the one that recorded it
//! beside the store: a restarted daemon is seeded from its IR sidecar's
//! request texts, whose frame checksums still held.
//!
//! The memo is the workspace's [`BoundedMap`] weighed in resident bytes,
//! keyed by one 64-bit digest of the text: a probe hashes its kilobytes
//! once, for both generations, and an insert reuses that digest. The
//! digest is keyed by a per-process seed and is only an index — the
//! entry keeps its text, and a hit is byte equality with it, so two
//! programs can never alias. Texts that share a digest take turns in its
//! one slot; each costs the other a comparison and a miss, never a wrong
//! answer. Lookups take the read lock, so probes do not serialize.

use autophase_telemetry::{BoundedMap, MapCounters};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::{PoisonError, RwLock};

/// Resident-byte bound the daemon runs with (both generations together).
const FRONT_BUDGET_BYTES: usize = 32 << 20;

/// Charged per entry on top of the text: the text's `String` header, the
/// digest, the fingerprint and the table slot, roughly.
const ENTRY_OVERHEAD: usize = 48;

/// Digest → (request text, fingerprint), reporting as
/// `serve.front{hit|miss|evicted}`.
type Entries = BoundedMap<u64, (String, u64)>;

/// The daemon's front memo (see the module docs).
pub(crate) struct FrontMemo {
    seed: u64,
    entries: RwLock<Entries>,
}

impl FrontMemo {
    /// An empty memo of [`FRONT_BUDGET_BYTES`], keyed by a seed drawn
    /// from the process's hash randomness.
    pub(crate) fn new() -> FrontMemo {
        FrontMemo::with_seed(RandomState::new().hash_one(0x5eed_u64))
    }

    fn with_seed(seed: u64) -> FrontMemo {
        let entries = Entries::weighted(
            FRONT_BUDGET_BYTES,
            |_, (text, _)| text.capacity() + ENTRY_OVERHEAD,
            MapCounters {
                evict: ("serve.front", "evicted"),
                ..MapCounters::family("serve.front")
            },
        );
        FrontMemo {
            seed,
            entries: RwLock::new(entries),
        }
    }

    /// The key `text` is probed and inserted under.
    pub(crate) fn digest(&self, text: &str) -> u64 {
        #[cfg(test)]
        if self.seed == COLLIDE {
            return COLLIDE;
        }
        keyed_digest(self.seed, text.as_bytes())
    }

    /// The fingerprint of `text`, whose [`FrontMemo::digest`] is `digest`,
    /// if these exact bytes were inserted and are still resident.
    pub(crate) fn get(&self, digest: u64, text: &str) -> Option<u64> {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        entries
            .get_if(&digest, |(kept, _)| kept == text)
            .map(|&(_, fp)| fp)
    }

    /// Remember `fp` for `text` under its `digest`, and return the
    /// memo's resident weight. Shrink `text` to fit first: an entry is
    /// charged its capacity.
    pub(crate) fn insert(&self, digest: u64, text: String, fp: u64) -> usize {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        entries.insert(digest, (text, fp));
        entries.weight()
    }

    /// Insert every `(text, fingerprint)` pair of `records`, oldest first,
    /// and return the memo's resident weight. Each pair must keep the
    /// memo's rule and each text be exact-size, as for
    /// [`FrontMemo::insert`]; past the budget the oldest go first, as
    /// they did in the process that recorded them.
    pub(crate) fn preload(&self, records: Vec<(String, u64)>) -> usize {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        for (text, fp) in records {
            entries.insert(self.digest(&text), (text, fp));
        }
        entries.weight()
    }
}

/// The test-only seed under which every text digests to the same key.
#[cfg(test)]
const COLLIDE: u64 = 0xc0_111d;

/// Hex digits of π: xored with the seed, one secret per lane.
const K: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// The 128-bit product of `a` and `b`, its halves xor-folded.
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// The memo's digest: 64 bits of `bytes` keyed by `seed`. Four
/// independent lanes each fold 16 bytes per step through one
/// 64×64→128-bit multiply (64 bytes a round), then the tail and the
/// length are folded in. Both factors of every product are xored with a
/// secret, so no input block zeroes a lane without knowing the seed. The
/// lanes start from their secrets rotated by an odd count, never the
/// secrets themselves: the first round's two factors then differ by a
/// seed-dependent mask, so swapping a block's two words moves the digest.
/// An index for a map that compares its keys in full, not a MAC.
pub fn keyed_digest(seed: u64, bytes: &[u8]) -> u64 {
    let secret = K.map(|k| seed ^ k);
    let mut lanes = secret.map(|s| s.rotate_left(31));
    let mut rounds = bytes.chunks_exact(64);
    for round in &mut rounds {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let at = 16 * i;
            *lane = fold(
                word(&round[at..at + 8]) ^ *lane,
                word(&round[at + 8..at + 16]) ^ secret[i],
            );
        }
    }
    let mut h = fold(lanes[0] ^ lanes[2], lanes[1] ^ lanes[3]);
    for part in rounds.remainder().chunks(16) {
        let mut block = [0u8; 16];
        block[..part.len()].copy_from_slice(part);
        h = fold(word(&block[..8]) ^ h, word(&block[8..]) ^ secret[1]);
    }
    fold(h ^ bytes.len() as u64, secret[2])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weight(memo: &FrontMemo) -> usize {
        memo.entries.read().unwrap().weight()
    }

    #[test]
    fn a_repeated_insert_is_charged_once() {
        let memo = FrontMemo::new();
        let text = "x".repeat(100);
        let d = memo.digest(&text);
        memo.insert(d, text.clone(), 5);
        assert_eq!(weight(&memo), text.capacity() + ENTRY_OVERHEAD);
        memo.insert(d, text.clone(), 5);
        assert_eq!(weight(&memo), text.capacity() + ENTRY_OVERHEAD);
        assert_eq!(memo.get(d, &text), Some(5));
    }

    /// Two texts forced onto one digest are never taken for each other:
    /// each finds only its own fingerprint, or nothing while the other
    /// holds the slot.
    #[test]
    fn texts_sharing_a_digest_are_never_aliased() {
        let memo = FrontMemo::with_seed(COLLIDE);
        let (a, b) = ("define i32 @a", "define i32 @b");
        let d = memo.digest(a);
        assert_eq!(memo.digest(b), d, "the hook collides every text");
        memo.insert(d, a.to_string(), 1);
        assert_eq!(memo.get(d, a), Some(1));
        assert_eq!(memo.get(d, b), None, "b must not read a's fingerprint");
        memo.insert(d, b.to_string(), 2);
        assert_eq!(memo.get(d, b), Some(2));
        assert_eq!(memo.get(d, a), None, "a must not read b's fingerprint");
        assert_eq!(weight(&memo), b.len() + ENTRY_OVERHEAD, "one resident copy");
        // A prefix and an extension share the slot's bytes but not its key.
        assert_eq!(memo.get(d, "define i32 @"), None);
        assert_eq!(memo.get(d, "define i32 @bb"), None);
    }

    /// The resident bytes stay inside the 32 MiB budget however much is
    /// inserted, each entry charged its text's capacity plus the
    /// overhead, and the oldest generation goes first.
    #[test]
    fn the_memo_stays_inside_its_byte_budget() {
        let memo = FrontMemo::new();
        let text_len = 64 << 10;
        let per_entry = text_len + ENTRY_OVERHEAD;
        let inserts = 2 * FRONT_BUDGET_BYTES / per_entry + 7;
        let text = |i: usize| {
            let mut t = format!("{i:08}");
            t.push_str(&"x".repeat(text_len - t.len()));
            t.shrink_to_fit();
            t
        };
        let mut resident_max = 0;
        for i in 0..inserts {
            let t = text(i);
            let resident = memo.insert(memo.digest(&t), t, i as u64);
            assert!(resident <= FRONT_BUDGET_BYTES, "{resident} after {i}");
            assert_eq!(resident % per_entry, 0, "charged by capacity + overhead");
            resident_max = resident_max.max(resident);
        }
        assert!(resident_max > FRONT_BUDGET_BYTES - 2 * per_entry);
        let (first, last) = (text(0), text(inserts - 1));
        assert_eq!(
            memo.get(memo.digest(&last), &last),
            Some(inserts as u64 - 1)
        );
        assert_eq!(memo.get(memo.digest(&first), &first), None);
    }

    /// A preload of twice the budget stays inside it like inserts do,
    /// and keeps the newest texts, each under its own fingerprint.
    #[test]
    fn a_preload_over_budget_keeps_the_newest_inside_the_budget() {
        let memo = FrontMemo::new();
        let text_len = 64 << 10;
        let count = 2 * FRONT_BUDGET_BYTES / (text_len + ENTRY_OVERHEAD);
        let text = |i: usize| format!("{i:08}{}", "x".repeat(text_len - 8));
        let resident = memo.preload((0..count).map(|i| (text(i), i as u64)).collect());
        assert!(resident <= FRONT_BUDGET_BYTES, "{resident}");
        assert_eq!(resident, weight(&memo));
        assert!(resident > FRONT_BUDGET_BYTES / 2, "{resident}");
        let (first, last) = (text(0), text(count - 1));
        assert_eq!(memo.get(memo.digest(&last), &last), Some(count as u64 - 1));
        assert_eq!(memo.get(memo.digest(&first), &first), None);
    }

    #[test]
    fn the_digest_reads_every_byte_and_the_length() {
        let seed = 0x1234_5678;
        let base: Vec<u8> = (0..300u32).map(|i| (i * 7 % 251) as u8).collect();
        let d = keyed_digest(seed, &base);
        for i in [0, 15, 16, 63, 64, 127, 255, 256, 299] {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert_ne!(keyed_digest(seed, &flipped), d, "byte {i}");
        }
        // Zero padding of the tail does not hide a length change.
        for len in [0, 1, 15, 16, 17, 64, 65] {
            let zeros = vec![0u8; len];
            assert_ne!(
                keyed_digest(seed, &zeros),
                keyed_digest(seed, &[0; 80][..len + 1])
            );
        }
        assert_ne!(keyed_digest(seed + 1, &base), d, "the seed keys it");
        // A round whose words are the public constants erases nothing
        // that came before it.
        let mut magic = Vec::new();
        for k in K {
            magic.extend_from_slice(&0u64.to_le_bytes());
            magic.extend_from_slice(&k.to_le_bytes());
        }
        let (x, y) = ([1u8; 64], [2u8; 64]);
        assert_ne!(
            keyed_digest(seed, &[&x[..], &magic].concat()),
            keyed_digest(seed, &[&y[..], &magic].concat())
        );
        // Swapping the two words of any block moves the digest, in the
        // first round (where the lanes are still seed-derived) and after.
        for at in [0, 16, 32, 48, 64, 112, 256] {
            let mut swapped = base.clone();
            let (lo, hi) = swapped[at..at + 16].split_at_mut(8);
            lo.swap_with_slice(hi);
            for seed in [seed, 0, 0x5eed, u64::MAX] {
                assert_ne!(
                    keyed_digest(seed, &swapped),
                    keyed_digest(seed, &base),
                    "words swapped at {at}, seed {seed:#x}"
                );
            }
        }
        assert_eq!(keyed_digest(seed, &base), d, "and nothing else does");
    }
}
