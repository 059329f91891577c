//! Control-flow-graph queries: predecessors, successors, orderings.

use crate::csr::Csr;
use crate::function::{BlockId, Function};

/// Marks a block that is not reachable from the entry in a dense
/// per-block index table.
pub(crate) const UNREACHABLE: u32 = u32::MAX;

/// Immutable CFG snapshot of a function.
///
/// Built once per analysis/transform in O(blocks + edges). Holds dense
/// predecessor and successor lists plus a reverse post-order.
#[derive(Debug, Clone)]
pub struct Cfg {
    preds: Csr<BlockId>,
    succs: Csr<BlockId>,
    rpo: Vec<BlockId>,
    /// Position of each block in `rpo`, [`UNREACHABLE`] if it has none.
    rpo_index: Vec<u32>,
    entry: BlockId,
}

impl Cfg {
    /// Compute the CFG of `f`.
    pub fn new(f: &Function) -> Cfg {
        let blocks = f.block_capacity();
        let mut edges: Vec<(usize, BlockId)> = Vec::with_capacity(2 * blocks);
        for bb in f.block_ids() {
            f.for_each_successor(bb, |t| edges.push((bb.index(), t)));
        }
        let succs = Csr::build(blocks, edges.iter().copied());
        // An edge into a block id beyond the arena has no list to land in;
        // the verifier reports such a branch before anything asks.
        let preds = Csr::build(
            blocks,
            edges
                .iter()
                .filter(|(_, t)| t.index() < blocks)
                .map(|&(bb, t)| (t.index(), BlockId::from_index(bb))),
        );
        let rpo = reverse_post_order_of(f, &succs);
        let mut rpo_index = vec![UNREACHABLE; blocks];
        for (i, bb) in rpo.iter().enumerate() {
            rpo_index[bb.index()] = i as u32;
        }
        Cfg {
            preds,
            succs,
            rpo,
            rpo_index,
            entry: f.entry,
        }
    }

    /// Predecessors of `bb` (blocks with an edge into it). A block that
    /// branches to `bb` twice (both arms of a cond-br) appears twice.
    pub fn preds(&self, bb: BlockId) -> &[BlockId] {
        self.preds.get(bb.index())
    }

    /// Successors of `bb`.
    pub fn succs(&self, bb: BlockId) -> &[BlockId] {
        self.succs.get(bb.index())
    }

    /// Unique predecessors (deduplicated).
    pub fn unique_preds(&self, bb: BlockId) -> Vec<BlockId> {
        let mut v = self.preds(bb).to_vec();
        v.sort();
        v.dedup();
        v
    }

    /// Unique successors (deduplicated).
    pub fn unique_succs(&self, bb: BlockId) -> Vec<BlockId> {
        let mut v = self.succs(bb).to_vec();
        v.sort();
        v.dedup();
        v
    }

    /// Blocks reachable from entry, in reverse post-order (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `bb` in [`Cfg::rpo`], `None` if it is unreachable.
    pub fn rpo_index(&self, bb: BlockId) -> Option<usize> {
        match self.rpo_index.get(bb.index()) {
            Some(&i) if i != UNREACHABLE => Some(i as usize),
            _ => None,
        }
    }

    /// [`Cfg::rpo_index`] as a dense table ([`UNREACHABLE`] for no index).
    pub(crate) fn rpo_index_table(&self) -> &[u32] {
        &self.rpo_index
    }

    /// The function entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// True if `bb` is reachable from the entry block. O(1).
    pub fn is_reachable(&self, bb: BlockId) -> bool {
        self.rpo_index(bb).is_some()
    }

    /// Total number of CFG edges (counting duplicates).
    pub fn num_edges(&self) -> usize {
        self.succs.len()
    }

    /// Edges `(src, dst)` that are critical: the source has more than one
    /// successor and the destination has more than one predecessor.
    /// Sorted, without duplicates.
    pub fn critical_edges(&self) -> Vec<(BlockId, BlockId)> {
        let mut out = Vec::new();
        for src in (0..self.rpo_index.len()).map(BlockId::from_index) {
            let succs = self.succs(src);
            if succs.len() <= 1 {
                continue;
            }
            for &dst in succs {
                if self.preds(dst).len() > 1 {
                    out.push((src, dst));
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// Depth-first post-order over `succs` from the entry, reversed.
fn reverse_post_order_of(f: &Function, succs: &Csr<BlockId>) -> Vec<BlockId> {
    let mut post = Vec::new();
    if !f.block_exists(f.entry) {
        return post;
    }
    let mut visited = vec![false; f.block_capacity()];
    // Iterative DFS with an explicit stack of (block, next-successor-index).
    let mut stack: Vec<(BlockId, usize)> = vec![(f.entry, 0)];
    visited[f.entry.index()] = true;
    while let Some(&mut (bb, ref mut idx)) = stack.last_mut() {
        match succs.get(bb.index()).get(*idx) {
            Some(&next) => {
                *idx += 1;
                if f.block_exists(next) && !visited[next.index()] {
                    visited[next.index()] = true;
                    stack.push((next, 0));
                }
            }
            None => {
                post.push(bb);
                stack.pop();
            }
        }
    }
    post.reverse();
    post
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpPred;
    use crate::types::Type;
    use crate::value::Value;

    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.ret(Some(Value::i32(0)));
        b.finish()
    }

    #[test]
    fn diamond_preds_succs() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(f.entry).len(), 2);
        let join = *cfg.rpo().last().unwrap();
        assert_eq!(cfg.preds(join).len(), 2);
        assert_eq!(cfg.num_edges(), 4);
        assert!(cfg.critical_edges().is_empty());
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.rpo()[0], f.entry);
        assert_eq!(cfg.rpo().len(), 4);
    }

    #[test]
    fn unreachable_detected() {
        let mut b = FunctionBuilder::new("u", vec![], Type::Void);
        let dead = b.new_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        assert!(!Cfg::new(&f).is_reachable(dead));
    }

    #[test]
    fn critical_edge_found() {
        // entry --cond--> {a, join}; a -> join. Edge entry->join is critical.
        let mut b = FunctionBuilder::new("c", vec![Type::I32], Type::Void);
        let a = b.new_block();
        let join = b.new_block();
        let c = b.icmp(CmpPred::Eq, b.arg(0), Value::i32(0));
        b.cond_br(c, a, join);
        b.switch_to(a);
        b.br(join);
        b.switch_to(join);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.critical_edges(), vec![(f.entry, join)]);
    }

    #[test]
    fn duplicate_edge_counted_twice() {
        let mut b = FunctionBuilder::new("dup", vec![Type::I32], Type::Void);
        let t = b.new_block();
        let c = b.icmp(CmpPred::Eq, b.arg(0), Value::i32(0));
        // both arms target the same block
        b.cond_br(c, t, t);
        b.switch_to(t);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.preds(t).len(), 2);
        assert_eq!(cfg.unique_preds(t).len(), 1);
    }
}
