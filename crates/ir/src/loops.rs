//! Natural-loop detection.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::function::{BlockId, Function};

/// A natural loop: a back edge `latch -> header` where `header` dominates
/// `latch`, plus every block that can reach the latch without going through
/// the header.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header (dominates all loop blocks).
    pub header: BlockId,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
    /// All blocks in the loop, header first.
    pub blocks: Vec<BlockId>,
    /// Blocks outside the loop that are targets of edges leaving it.
    pub exits: Vec<BlockId>,
}

impl Loop {
    /// True if `bb` belongs to the loop.
    pub fn contains(&self, bb: BlockId) -> bool {
        self.blocks.contains(&bb)
    }

    /// The unique preheader: the single predecessor of the header outside
    /// the loop, if it exists and the header is its only successor.
    pub fn preheader(&self, cfg: &Cfg) -> Option<BlockId> {
        let outside: Vec<BlockId> = cfg
            .unique_preds(self.header)
            .into_iter()
            .filter(|p| !self.contains(*p))
            .collect();
        match outside.as_slice() {
            [p] if cfg.unique_succs(*p) == vec![self.header] => Some(*p),
            _ => None,
        }
    }

    /// The unique block outside the loop that branches to the header, if
    /// exactly one exists. Unlike [`Loop::preheader`] it may have other
    /// successors (e.g. the guard block `-loop-rotate` leaves behind).
    pub fn entering_block(&self, cfg: &Cfg) -> Option<BlockId> {
        let outside: Vec<BlockId> = cfg
            .unique_preds(self.header)
            .into_iter()
            .filter(|p| !self.contains(*p))
            .collect();
        match outside.as_slice() {
            [p] => Some(*p),
            _ => None,
        }
    }

    /// The unique latch, if the loop has exactly one back edge.
    pub fn single_latch(&self) -> Option<BlockId> {
        match self.latches.as_slice() {
            [l] => Some(*l),
            _ => None,
        }
    }
}

/// All natural loops of `f`, outermost-header-first by RPO.
///
/// Loops sharing a header are merged (as LLVM does). Nested loops appear
/// as separate entries whose block sets overlap.
pub fn find_loops(f: &Function, cfg: &Cfg, dt: &DomTree) -> Vec<Loop> {
    let mut by_header: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
    for &bb in cfg.rpo() {
        for &succ in cfg.succs(bb) {
            if dt.dominates(succ, bb) {
                // back edge bb -> succ
                match by_header.iter_mut().find(|(h, _)| *h == succ) {
                    Some((_, latches)) => {
                        if !latches.contains(&bb) {
                            latches.push(bb);
                        }
                    }
                    None => by_header.push((succ, vec![bb])),
                }
            }
        }
    }

    let mut loops = Vec::new();
    // Membership of the loop being built, reset after each one.
    let mut seen = vec![false; f.block_capacity()];
    for (header, latches) in by_header {
        let mut blocks: Vec<BlockId> = vec![header];
        seen[header.index()] = true;
        let mut stack: Vec<BlockId> = latches.clone();
        while let Some(bb) = stack.pop() {
            if seen[bb.index()] {
                continue;
            }
            seen[bb.index()] = true;
            blocks.push(bb);
            for &p in cfg.preds(bb) {
                if !seen[p.index()] && dt.is_reachable(p) {
                    stack.push(p);
                }
            }
        }
        let mut exits = Vec::new();
        for &bb in &blocks {
            for &s in cfg.succs(bb) {
                if !seen.get(s.index()).is_some_and(|&m| m) && !exits.contains(&s) {
                    exits.push(s);
                }
            }
        }
        for &bb in &blocks {
            seen[bb.index()] = false;
        }
        loops.push(Loop {
            header,
            latches,
            blocks,
            exits,
        });
    }
    // Sort by header RPO index so outer loops (earlier headers) come first.
    loops.sort_by_key(|l| cfg.rpo_index(l.header).unwrap_or(usize::MAX));
    loops
}

/// Convenience: compute CFG, dominators, and loops in one call.
pub fn analyze_loops(f: &Function) -> (Cfg, DomTree, Vec<Loop>) {
    let cfg = Cfg::new(f);
    let dt = DomTree::new(f, &cfg);
    let loops = find_loops(f, &cfg, &dt);
    (cfg, dt, loops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Type;
    use crate::value::Value;

    #[test]
    fn counted_loop_detected() {
        let mut b = FunctionBuilder::new("l", vec![Type::I32], Type::I32);
        let n = b.arg(0);
        let (header, exit) = b.counted_loop(n, |_, _| {});
        b.ret(Some(Value::i32(0)));
        let f = b.finish();
        let (cfg, _dt, loops) = analyze_loops(&f);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, header);
        assert_eq!(l.blocks.len(), 2); // header + body/latch
        assert_eq!(l.exits, vec![exit]);
        assert_eq!(l.preheader(&cfg), Some(f.entry));
        assert!(l.single_latch().is_some());
    }

    #[test]
    fn nested_loops_detected() {
        let mut b = FunctionBuilder::new("n", vec![Type::I32], Type::I32);
        let n = b.arg(0);
        let (outer_h, _) = b.counted_loop(n, |b, _| {
            let m = b.const_i32(4);
            let (_inner_h, _) = b.counted_loop(m, |_, _| {});
        });
        b.ret(Some(Value::i32(0)));
        let f = b.finish();
        let (_cfg, _dt, loops) = analyze_loops(&f);
        assert_eq!(loops.len(), 2);
        // The outer loop contains the inner loop's header.
        let outer = loops.iter().find(|l| l.header == outer_h).unwrap();
        let inner = loops.iter().find(|l| l.header != outer_h).unwrap();
        assert!(outer.contains(inner.header));
        assert!(!inner.contains(outer.header));
        assert!(outer.blocks.len() > inner.blocks.len());
    }

    #[test]
    fn straightline_has_no_loops() {
        let mut b = FunctionBuilder::new("s", vec![], Type::Void);
        b.ret(None);
        let f = b.finish();
        let (_, _, loops) = analyze_loops(&f);
        assert!(loops.is_empty());
    }

    #[test]
    fn self_loop() {
        // entry -> header; header -> header | exit (self loop)
        let mut b = FunctionBuilder::new("sl", vec![Type::I32], Type::Void);
        let header = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let c = b.icmp(crate::inst::CmpPred::Eq, b.arg(0), Value::i32(0));
        b.cond_br(c, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let (_, _, loops) = analyze_loops(&f);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].header, header);
        assert_eq!(loops[0].latches, vec![header]);
        assert_eq!(loops[0].blocks, vec![header]);
    }
}
