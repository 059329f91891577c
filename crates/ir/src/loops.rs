//! Natural-loop detection, and the one statement of a loop's shape every
//! loop pass reads: its induction variables ([`Loop::induction`]), its
//! exit tests on them ([`Loop::exit_tests`]), the counted exit of a
//! single-block loop ([`Loop::counted_exit`]) with its bounded trip
//! simulation ([`CountedExit::trip`]), and whether an exit is dedicated
//! ([`Loop::is_dedicated_exit`]).

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::fold::{eval_binop, eval_icmp};
use crate::function::{BlockId, Function, InstId};
use crate::inst::{BinOp, CmpPred, Opcode};
use crate::types::Type;
use crate::value::Value;

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
        self.entering_block(cfg)
            .filter(|&p| cfg.unique_succs(p) == [self.header])
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

    /// True if every predecessor of `exit` is in the loop, so its φs see
    /// only loop edges.
    pub fn is_dedicated_exit(&self, cfg: &Cfg, exit: BlockId) -> bool {
        cfg.preds(exit).iter().all(|p| self.contains(*p))
    }

    /// `phi` as an induction variable `φ(entering: init, in-loop: φ + C)`:
    /// its entry from the [entering block](Loop::entering_block) and every
    /// other entry of the form `φ + C`. `None` if `phi` is no φ, or the
    /// loop has no entering block or `phi` no entry from it.
    ///
    /// Other entries of another form are left out, not refused: a pass
    /// that needs every in-loop entry to step checks [`Induction::steps`]
    /// against the loop's latches.
    pub fn induction(&self, f: &Function, cfg: &Cfg, phi: InstId) -> Option<Induction> {
        let entering = self.entering_block(cfg)?;
        let Opcode::Phi { incoming } = &f.inst(phi).op else {
            return None;
        };
        let init = incoming.iter().find(|(p, _)| *p == entering)?.1;
        let steps = incoming
            .iter()
            .filter(|(p, _)| *p != entering)
            .filter_map(|&(_, v)| {
                let Value::Inst(add) = v else { return None };
                match f.inst(add).op {
                    Opcode::Binary(BinOp::Add, base, Value::ConstInt(ty, by))
                        if base == Value::Inst(phi) =>
                    {
                        Some(Step { add, ty, by })
                    }
                    _ => None,
                }
            })
            .collect();
        Some(Induction {
            phi,
            ty: f.inst(phi).ty,
            init,
            steps,
        })
    }

    /// Every test on an induction variable that can leave the loop, in
    /// block order: a loop block's `condbr` with a target outside the
    /// loop, on `icmp pred v, bound` with `v` an [induction](Loop::induction)
    /// φ or `φ + C` and `bound` a constant.
    pub fn exit_tests(&self, f: &Function, cfg: &Cfg) -> Vec<ExitTest> {
        let mut tests = Vec::new();
        for &bb in &self.blocks {
            let Some(term) = f.terminator(bb) else {
                continue;
            };
            let Opcode::CondBr {
                cond: Value::Inst(cmp),
                then_bb,
                ..
            } = f.inst(term).op
            else {
                continue;
            };
            if f.successors(bb).iter().all(|s| self.contains(*s)) {
                continue;
            }
            let Opcode::ICmp(pred, Value::Inst(compared), Value::ConstInt(_, bound)) =
                f.inst(cmp).op
            else {
                continue;
            };
            let (phi, offset) = match f.inst(compared).op {
                Opcode::Phi { .. } => (compared, 0),
                Opcode::Binary(BinOp::Add, Value::Inst(p), Value::ConstInt(_, c)) => (p, c),
                _ => continue,
            };
            let Some(iv) = self.induction(f, cfg, phi) else {
                continue;
            };
            tests.push(ExitTest {
                cmp,
                pred,
                bound,
                compared,
                offset,
                true_stays: self.contains(then_bb),
                iv,
            });
        }
        tests
    }

    /// The bottom-tested counted exit of a single-block loop (header ==
    /// latch, the shape `-loop-rotate` produces): the block ends in
    /// `condbr (icmp pred (i + step), bound)` between itself and an exit,
    /// where `i` is an induction φ with a constant `init` whose in-loop
    /// entry is that increment, `step` is nonzero and `bound` constant.
    /// The block's predecessors are the entering block and itself, so
    /// under the verifier's one-entry-per-predecessor rule `i` has exactly
    /// those two entries.
    pub fn counted_exit(&self, f: &Function, cfg: &Cfg) -> Option<CountedExit> {
        if self.blocks.len() != 1 || self.single_latch() != Some(self.header) {
            return None;
        }
        let [test] = <[ExitTest; 1]>::try_from(self.exit_tests(f, cfg)).ok()?;
        let step = test.iv.steps.iter().find(|s| s.add == test.compared)?.by;
        let init = test.iv.init.as_const_int()?;
        if step == 0 {
            return None;
        }
        let exit = *f
            .successors(self.header)
            .iter()
            .find(|&&s| s != self.header)?;
        Some(CountedExit {
            block: self.header,
            entering: self.entering_block(cfg)?,
            exit,
            test,
            init,
            step,
        })
    }
}

/// An induction variable: a φ whose entry from its loop's entering block
/// is `init` and whose other entries of the form `φ + C` step it by `C`
/// (see [`Loop::induction`]).
#[derive(Debug, Clone)]
pub struct Induction {
    /// The φ.
    pub phi: InstId,
    /// The φ's type: the width its arithmetic wraps at.
    pub ty: Type,
    /// The φ's entry from the loop's entering block.
    pub init: Value,
    /// Every other entry of the form `φ + C`, in entry order.
    pub steps: Vec<Step>,
}

/// One entry `add = φ + C` of an [`Induction`].
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// The add.
    pub add: InstId,
    /// The type `C` is written at.
    pub ty: Type,
    /// `C`.
    pub by: i64,
}

/// A test on an induction variable that can leave its loop (see
/// [`Loop::exit_tests`]).
#[derive(Debug, Clone)]
pub struct ExitTest {
    /// The `icmp`.
    pub cmp: InstId,
    /// Its predicate.
    pub pred: CmpPred,
    /// Its constant right operand.
    pub bound: i64,
    /// Its left operand: the φ itself or an add `φ + offset`.
    pub compared: InstId,
    /// What the compared value adds to the φ (0 for the φ itself).
    pub offset: i64,
    /// True if the branch's `true` target is in the loop.
    pub true_stays: bool,
    /// The φ.
    pub iv: Induction,
}

/// The counted exit of a single-block loop (see [`Loop::counted_exit`]).
#[derive(Debug, Clone)]
pub struct CountedExit {
    /// The loop's one block.
    pub block: BlockId,
    /// The loop's entering block, where `init` comes from.
    pub entering: BlockId,
    /// The block's target outside the loop.
    pub exit: BlockId,
    /// The block's exit test, on the increment `i + step`.
    pub test: ExitTest,
    /// `i`'s value on entry.
    pub init: i64,
    /// What each iteration adds to `i`.
    pub step: i64,
}

/// What a counted loop does, from its [trip simulation](CountedExit::trip).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trip {
    /// How many times the body runs.
    pub count: i64,
    /// `i` in the last iteration.
    pub last: i64,
    /// `i + step` in the last iteration: the value the loop leaves on.
    pub last_next: i64,
}

impl CountedExit {
    /// Run the loop's induction arithmetic at the φ's width, through
    /// [`eval_binop`] and [`eval_icmp`], for at most `cap` iterations.
    /// `None` if the loop is still going round after `cap`.
    pub fn trip(&self, cap: i64) -> Option<Trip> {
        let (t, ty) = (&self.test, self.test.iv.ty);
        let mut i = self.init;
        for count in 1..=cap {
            let next = eval_binop(BinOp::Add, ty, i, self.step);
            if (eval_icmp(t.pred, ty, next, t.bound) != 0) != t.true_stays {
                return Some(Trip {
                    count,
                    last: i,
                    last_next: next,
                });
            }
            i = next;
        }
        None
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
