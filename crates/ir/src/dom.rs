//! Dominator tree (Cooper–Harvey–Kennedy iterative algorithm).

use crate::cfg::{Cfg, UNREACHABLE};
use crate::csr::Csr;
use crate::function::{BlockId, Function};

/// Dominator tree over the reachable blocks of a function.
///
/// Every table is a dense `Vec` indexed by [`BlockId::index`]. Besides the
/// immediate dominators it holds the tree's child lists and a depth-first
/// interval numbering, so [`DomTree::children`] and [`DomTree::dominates`]
/// are O(1).
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator of each reachable block (the entry maps to
    /// itself), [`UNREACHABLE`] for the rest.
    idom: Vec<u32>,
    /// Dominator-tree children, ascending by block id.
    children: Csr<BlockId>,
    /// Depth-first entry/exit times in the dominator tree: `a` dominates
    /// `b` iff `a`'s interval encloses `b`'s.
    interval: Vec<(u32, u32)>,
    entry: BlockId,
}

impl DomTree {
    /// Compute dominators for `f` given its CFG.
    pub fn new(f: &Function, cfg: &Cfg) -> DomTree {
        let rpo = cfg.rpo();
        let blocks = f.block_capacity();
        let rpo_index = cfg.rpo_index_table();

        // The fixpoint runs on RPO positions: `doms[i]` is the position of
        // the immediate dominator of `rpo[i]`.
        let mut doms = vec![UNREACHABLE; rpo.len()];
        if !rpo.is_empty() {
            doms[0] = 0;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (i, &bb) in rpo.iter().enumerate().skip(1) {
                let mut new_idom = UNREACHABLE;
                for &p in cfg.preds(bb) {
                    let pi = rpo_index[p.index()];
                    // Skip unreachable and not-yet-processed predecessors.
                    if pi == UNREACHABLE || doms[pi as usize] == UNREACHABLE {
                        continue;
                    }
                    new_idom = if new_idom == UNREACHABLE {
                        pi
                    } else {
                        intersect(&doms, new_idom, pi)
                    };
                }
                if new_idom != UNREACHABLE && doms[i] != new_idom {
                    doms[i] = new_idom;
                    changed = true;
                }
            }
        }

        let mut idom = vec![UNREACHABLE; blocks];
        for (i, &bb) in rpo.iter().enumerate() {
            if doms[i] != UNREACHABLE {
                idom[bb.index()] = rpo[doms[i] as usize].index() as u32;
            }
        }
        let entry = f.entry;
        let children = Csr::build(
            blocks,
            idom.iter()
                .enumerate()
                .filter(|&(b, &d)| d != UNREACHABLE && b != entry.index())
                .map(|(b, &d)| (d as usize, BlockId::from_index(b))),
        );

        let mut interval = vec![(0u32, 0u32); blocks];
        if idom.get(entry.index()).is_some_and(|&d| d != UNREACHABLE) {
            let mut clock = 0u32;
            let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
            while let Some(&mut (bb, ref mut next)) = stack.last_mut() {
                if *next == 0 {
                    clock += 1;
                    interval[bb.index()].0 = clock;
                }
                match children.get(bb.index()).get(*next) {
                    Some(&child) => {
                        *next += 1;
                        stack.push((child, 0));
                    }
                    None => {
                        clock += 1;
                        interval[bb.index()].1 = clock;
                        stack.pop();
                    }
                }
            }
        }

        DomTree {
            idom,
            children,
            interval,
            entry,
        }
    }

    /// Immediate dominator of `bb` (`None` for the entry block or
    /// unreachable blocks).
    pub fn idom(&self, bb: BlockId) -> Option<BlockId> {
        if bb == self.entry {
            return None;
        }
        match self.idom.get(bb.index()) {
            Some(&d) if d != UNREACHABLE => Some(BlockId::from_index(d as usize)),
            _ => None,
        }
    }

    /// True if `a` dominates `b` (reflexive: every block dominates itself).
    ///
    /// Unreachable blocks dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let (a_in, a_out) = self.interval[a.index()];
        let (b_in, b_out) = self.interval[b.index()];
        a_in <= b_in && b_out <= a_out
    }

    /// True if `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// True if the block is reachable (has a dominator entry).
    pub fn is_reachable(&self, bb: BlockId) -> bool {
        self.idom.get(bb.index()).is_some_and(|&d| d != UNREACHABLE)
    }

    /// Children of `bb` in the dominator tree, ascending by block id.
    pub fn children(&self, bb: BlockId) -> &[BlockId] {
        self.children.get(bb.index())
    }

    /// Dominance frontier of every block, indexed by [`BlockId::index`]
    /// (for SSA construction). Unreachable blocks have empty frontiers.
    pub fn dominance_frontiers(&self, cfg: &Cfg) -> Vec<Vec<BlockId>> {
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); self.idom.len()];
        for &bb in cfg.rpo() {
            let reachable_preds = || cfg.preds(bb).iter().filter(|p| self.is_reachable(**p));
            if reachable_preds().count() < 2 {
                continue;
            }
            let idom_bb = self.idom[bb.index()];
            for &p in reachable_preds() {
                let mut runner = p;
                while runner.index() as u32 != idom_bb {
                    // `bb` is only ever appended while it is the current
                    // block, so a duplicate can only be the last entry.
                    let frontier = &mut df[runner.index()];
                    if frontier.last() != Some(&bb) {
                        frontier.push(bb);
                    }
                    if runner == self.entry {
                        break;
                    }
                    runner = BlockId::from_index(self.idom[runner.index()] as usize);
                }
            }
        }
        df
    }
}

/// Nearest common ancestor of RPO positions `a` and `b` in the (partial)
/// dominator forest `doms`.
fn intersect(doms: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while a > b {
            a = doms[a as usize];
        }
        while b > a {
            b = doms[b as usize];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpPred;
    use crate::types::Type;
    use crate::value::Value;

    /// entry -> {a, b}; a -> j; b -> j; j -> ret
    fn diamond() -> (Function, BlockId, BlockId, BlockId) {
        let mut bld = FunctionBuilder::new("d", vec![Type::I32], Type::I32);
        let a = bld.new_block();
        let b = bld.new_block();
        let j = bld.new_block();
        let c = bld.icmp(CmpPred::Slt, bld.arg(0), Value::i32(0));
        bld.cond_br(c, a, b);
        bld.switch_to(a);
        bld.br(j);
        bld.switch_to(b);
        bld.br(j);
        bld.switch_to(j);
        bld.ret(Some(Value::i32(1)));
        (bld.finish(), a, b, j)
    }

    #[test]
    fn diamond_dominators() {
        let (f, a, b, j) = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        assert_eq!(dt.idom(a), Some(f.entry));
        assert_eq!(dt.idom(b), Some(f.entry));
        assert_eq!(dt.idom(j), Some(f.entry));
        assert!(dt.dominates(f.entry, j));
        assert!(!dt.dominates(a, j));
        assert!(dt.dominates(j, j));
        assert!(dt.strictly_dominates(f.entry, a));
        assert!(!dt.strictly_dominates(a, a));
    }

    #[test]
    fn diamond_frontiers() {
        let (f, a, b, j) = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let df = dt.dominance_frontiers(&cfg);
        assert_eq!(df[a.index()], vec![j]);
        assert_eq!(df[b.index()], vec![j]);
        assert!(df[f.entry.index()].is_empty());
    }

    #[test]
    fn loop_dominators() {
        // entry -> header; header -> {body, exit}; body -> header
        let mut bld = FunctionBuilder::new("l", vec![Type::I32], Type::I32);
        let n = bld.arg(0);
        let (header, _exit) = bld.counted_loop(n, |_, _| {});
        bld.ret(Some(Value::i32(0)));
        let f = bld.finish();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        assert_eq!(dt.idom(header), Some(f.entry));
        // header dominates everything downstream
        for bb in cfg.rpo() {
            if *bb != f.entry {
                assert!(dt.dominates(header, *bb) || *bb == header);
            }
        }
    }

    #[test]
    fn children_listed() {
        let (f, a, b, j) = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let kids = dt.children(f.entry);
        assert!(kids.contains(&a) && kids.contains(&b) && kids.contains(&j));
    }

    #[test]
    fn unreachable_block_not_in_tree() {
        let mut bld = FunctionBuilder::new("u", vec![], Type::Void);
        let dead = bld.new_block();
        bld.ret(None);
        bld.switch_to(dead);
        bld.ret(None);
        let f = bld.finish();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        assert!(!dt.is_reachable(dead));
        assert!(!dt.dominates(f.entry, dead));
    }
}
