//! Compressed-sparse-row lists: one flat array of items plus per-key
//! offsets.

/// `keys` lists of `T`, dense by key: key `k`'s items are
/// `items[offsets[k]..offsets[k + 1]]`. Two allocations however many keys
/// there are, and every lookup is O(1) — the layout behind the CFG's
/// adjacency lists, the dominator tree's children and the reverse-use
/// index.
#[derive(Debug, Clone)]
pub struct Csr<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Build from `(key, item)` pairs with every key below `keys` (walked
    /// twice: once to count, once to fill). Items keep their order within
    /// each key's list.
    pub fn build(keys: usize, pairs: impl Iterator<Item = (usize, T)> + Clone) -> Csr<T> {
        let mut offsets = vec![0u32; keys + 1];
        for (key, _) in pairs.clone() {
            offsets[key + 1] += 1;
        }
        for k in 0..keys {
            offsets[k + 1] += offsets[k];
        }
        let mut cursor = offsets.clone();
        // Every slot is overwritten below; the first item is only a filler.
        let mut items: Vec<T> = match pairs.clone().next() {
            Some((_, filler)) => vec![filler; offsets[keys] as usize],
            None => Vec::new(),
        };
        for (key, item) in pairs {
            items[cursor[key] as usize] = item;
            cursor[key] += 1;
        }
        Csr { offsets, items }
    }

    /// The items of `key` (empty for a key out of range).
    pub fn get(&self, key: usize) -> &[T] {
        match self.offsets.get(key..key + 2) {
            Some(&[lo, hi]) => &self.items[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Total number of items over all keys.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no key has an item.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}
