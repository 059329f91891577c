//! Edge edits: the one place a CFG edge, a terminator or a φ entry moves.
//!
//! A φ-node lists one `(predecessor, value)` entry per incoming edge, so
//! every change to a branch target is also a change to the φs of the
//! blocks on both ends. Passes make both through the [`Function`] methods
//! of this module and never rewrite a terminator or a φ's entry list by
//! hand; what keeps φs consistent with their block's predecessors is read
//! here and nowhere else.
//!
//! The order of φ entries is part of the printed IR, so each edit has a
//! fixed rule for where entries go:
//!
//! * [`Function::retarget_phis`] and [`Function::retarget_phis_with`]
//!   rename a predecessor in place: the entry keeps its position;
//! * [`Function::carry_phi_edges`] appends the carried entries after the
//!   existing ones, in the order of the entries they copy;
//! * [`Function::move_phi_edges`] drops the moved entries and appends the
//!   new ones, in the order of the new predecessors;
//! * [`Function::remove_phi_edge`] drops entries and moves nothing.
//!
//! Branch edits come in two kinds. [`Function::redirect_branch`] moves
//! edges and leaves every φ alone: a caller that moves an edge moves its
//! φ entries with one of the above. [`Function::set_branch`] replaces a
//! whole terminator and drops the block's entries from every successor it
//! no longer reaches; entries for a successor it adds are the caller's.
//! [`Function::end_with_branch`] does the same for a block cut short
//! with a new `br`. The compound edits ([`Function::split_edge`],
//! [`Function::split_block`], [`Function::merge_block`],
//! [`Function::clone_region`], [`Function::lower_switch`]) keep both
//! halves in step themselves.
//!
//! The printer shows instruction ids, which are arena slots, so each edit
//! also has a fixed rule for what it allocates: `set_branch` rewrites the
//! terminator in its slot, `end_with_branch` allocates its `br` when it
//! is called, and the compound edits allocate in the order their docs
//! give.

use crate::function::{BlockId, Function, InstId};
use crate::inst::{CmpPred, Inst, Opcode};
use crate::types::Type;
use crate::value::Value;
use std::collections::HashMap;

impl Function {
    /// The φ-nodes of `bb`, in block order.
    pub fn phis(&self, bb: BlockId) -> Vec<InstId> {
        self.block(bb)
            .insts
            .iter()
            .copied()
            .filter(|&i| self.inst(i).is_phi())
            .collect()
    }

    /// Point every edge `pred → from` at `to` instead (all of them, when a
    /// conditional branch or a switch has several). φ-nodes are not
    /// touched. Nothing happens if `pred` has no terminator.
    pub fn redirect_branch(&mut self, pred: BlockId, from: BlockId, to: BlockId) {
        if let Some(t) = self.terminator(pred) {
            self.inst_mut(t).for_each_successor_mut(|s| {
                if *s == from {
                    *s = to;
                }
            });
        }
    }

    /// Replace the terminator of `bb` with `op` (a `br`, conditional `br`
    /// or `switch`), in the old terminator's slot, and remove `bb`'s φ
    /// entries, once, from each block it no longer branches to. A
    /// successor `op` keeps all its entries from `bb`, however many
    /// edges led there; entries for a successor `op` adds are the
    /// caller's (see [`Function::carry_phi_edges`],
    /// [`Function::move_phi_edges`]).
    ///
    /// # Panics
    ///
    /// Panics if `bb` has no terminator.
    pub fn set_branch(&mut self, bb: BlockId, op: Opcode) {
        debug_assert!(matches!(
            op,
            Opcode::Br { .. } | Opcode::CondBr { .. } | Opcode::Switch { .. }
        ));
        let term = self
            .terminator(bb)
            .expect("set_branch on a block without terminator");
        let old = self.inst(term).successors();
        self.inst_mut(term).op = op;
        self.drop_phi_edges(bb, old);
    }

    /// End `bb` at position `at` with a new `br target`: the instructions
    /// from `at` on (the terminator among them) leave the function, the
    /// branch is allocated and appended, and `bb`'s φ entries leave each
    /// block the old terminator reached and `target` is not. For a rewrite
    /// that removes instructions with the terminator (a tail call and its
    /// `ret`), or whose branch must be allocated after other new
    /// instructions (a jump into a region copied after the split).
    pub fn end_with_branch(&mut self, bb: BlockId, at: usize, target: BlockId) {
        let old = self.successors(bb);
        for id in self.block_mut(bb).insts.split_off(at) {
            self.erase_inst(id);
        }
        self.append_inst(bb, Inst::new(Type::Void, Opcode::Br { target }));
        self.drop_phi_edges(bb, old);
    }

    /// Remove `bb`'s φ entries, once, from each block of `old` (its
    /// successors before a terminator edit) that it no longer branches to.
    fn drop_phi_edges(&mut self, bb: BlockId, mut old: Vec<BlockId>) {
        let new = self.successors(bb);
        old.retain(|s| !new.contains(s));
        old.sort_unstable();
        old.dedup();
        for s in old {
            self.remove_phi_edge(s, bb);
        }
    }

    /// Update every φ-node in `bb` that has an incoming entry from
    /// `old_pred` to come from `new_pred` instead, in place.
    pub fn retarget_phis(&mut self, bb: BlockId, old_pred: BlockId, new_pred: BlockId) {
        self.retarget_phis_with(bb, old_pred, new_pred, |v| v);
    }

    /// [`Function::retarget_phis`], also passing each retargeted entry's
    /// value through `value`.
    pub fn retarget_phis_with(
        &mut self,
        bb: BlockId,
        old_pred: BlockId,
        new_pred: BlockId,
        mut value: impl FnMut(Value) -> Value,
    ) {
        self.edit_phis(bb, |_, incoming| {
            for (pred, v) in incoming.iter_mut() {
                if *pred == old_pred {
                    *pred = new_pred;
                    *v = value(*v);
                }
            }
        });
    }

    /// Remove φ-node incoming entries from `pred` in `bb`.
    pub fn remove_phi_edge(&mut self, bb: BlockId, pred: BlockId) {
        self.edit_phis(bb, |_, incoming| incoming.retain(|(p, _)| *p != pred));
    }

    /// Give the φs of `bb` entries from new predecessors that copy existing
    /// ones: for each entry `(p, v)`, in order, with `new_pred(p)` =
    /// `Some(q)`, append `(q, value(v))`. Existing entries stay.
    pub fn carry_phi_edges(
        &mut self,
        bb: BlockId,
        mut new_pred: impl FnMut(BlockId) -> Option<BlockId>,
        mut value: impl FnMut(Value) -> Value,
    ) {
        self.edit_phis(bb, |_, incoming| {
            for i in 0..incoming.len() {
                let (p, v) = incoming[i];
                if let Some(q) = new_pred(p) {
                    incoming.push((q, value(v)));
                }
            }
        });
    }

    /// Move the edges from the blocks of `from` into `bb` onto the blocks
    /// of `to`: every φ of `bb` with an entry from a block of `from` drops
    /// those entries and appends `(p, value(phi, p, v))` for each `p` of
    /// `to`, in order, where `v` is its first dropped entry's value. A φ
    /// with no entry from `from` is left alone.
    pub fn move_phi_edges(
        &mut self,
        bb: BlockId,
        from: &[BlockId],
        to: &[BlockId],
        mut value: impl FnMut(InstId, BlockId, Value) -> Value,
    ) {
        self.edit_phis(bb, |phi, incoming| {
            let Some(&(_, v)) = incoming.iter().find(|(p, _)| from.contains(p)) else {
                return;
            };
            incoming.retain(|(p, _)| !from.contains(p));
            for &p in to {
                incoming.push((p, value(phi, p, v)));
            }
        });
    }

    /// Run `edit` on the incoming list of every φ-node of `bb`.
    fn edit_phis(&mut self, bb: BlockId, mut edit: impl FnMut(InstId, &mut Vec<(BlockId, Value)>)) {
        for i in 0..self.block(bb).insts.len() {
            let id = self.block(bb).insts[i];
            if let Opcode::Phi { incoming } = &mut self.inst_mut(id).op {
                edit(id, incoming);
            }
        }
    }

    /// Insert a block on the edge `src → dst`, updating φ-nodes in `dst`.
    /// Splits *all* parallel edges from src to dst at once (they carry the
    /// same φ values). Returns the new block.
    pub fn split_edge(&mut self, src: BlockId, dst: BlockId) -> BlockId {
        let mid = self.add_block();
        self.append_inst(mid, Inst::new(Type::Void, Opcode::Br { target: dst }));
        self.redirect_branch(src, dst, mid);
        self.retarget_phis(dst, src, mid);
        mid
    }

    /// Split `bb` before position `at`: its instructions from `at` on (the
    /// terminator included) move to a fresh block, `bb` gets a `br` to it,
    /// and φ-nodes of old successors are retargeted. Returns the new tail
    /// block.
    pub fn split_block(&mut self, bb: BlockId, at: usize) -> BlockId {
        let tail_insts: Vec<InstId> = self.block_mut(bb).insts.split_off(at);
        let tail = self.add_block();
        self.block_mut(tail).insts = tail_insts;
        // Successor φs now flow from `tail`.
        for s in self.successors(tail) {
            self.retarget_phis(s, bb, tail);
        }
        let br = self.add_inst(Inst::new(Type::Void, Opcode::Br { target: tail }));
        self.block_mut(bb).insts.push(br);
        tail
    }

    /// Merge `b` into `a`: `a`'s terminator leaves the function, `b`'s
    /// instructions move to the end of `a`, the φs of `b`'s successors name
    /// `a` where they named `b`, and `b` is removed. The caller checks
    /// that the pair is straight-line: `a`'s only successor is `b`, `b`'s
    /// only predecessor is `a`, and `b` holds no φ.
    pub fn merge_block(&mut self, a: BlockId, b: BlockId) {
        let term = self.block_mut(a).insts.pop().expect("a has a terminator");
        self.erase_inst(term);
        let b_insts = std::mem::take(&mut self.block_mut(b).insts);
        self.block_mut(a).insts.extend(b_insts);
        for s in self.successors(a) {
            self.retarget_phis(s, b, a);
        }
        self.remove_block(b);
    }

    /// Clone the blocks of `region` (from function `src`) into this
    /// function with operand and block-target remapping.
    ///
    /// `value_map` seeds value substitutions (e.g. params → arguments) and
    /// is extended with `old inst result → new inst result` entries.
    /// Returns the old-block → new-block mapping. Branch targets pointing
    /// outside the region are left unchanged (the caller rewires them).
    ///
    /// φ-node incoming block ids are remapped when the incoming block is
    /// in the region, otherwise preserved.
    pub fn clone_region(
        &mut self,
        src: &Function,
        region: &[BlockId],
        value_map: &mut HashMap<Value, Value>,
    ) -> HashMap<BlockId, BlockId> {
        let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
        for &bb in region {
            let nb = self.add_block();
            block_map.insert(bb, nb);
        }
        // First pass: create all instructions so forward references (φ
        // cycles) can be remapped in a second pass.
        let mut inst_map: HashMap<InstId, InstId> = HashMap::new();
        for &bb in region {
            let nb = block_map[&bb];
            for &iid in &src.block(bb).insts {
                let nid = self.add_inst(src.inst(iid).clone());
                self.block_mut(nb).insts.push(nid);
                inst_map.insert(iid, nid);
            }
        }
        for (&old, &new) in &inst_map {
            value_map.insert(Value::Inst(old), Value::Inst(new));
        }
        // Second pass: remap operands, successors, and φ incoming blocks.
        for &nid in inst_map.values() {
            let inst = self.inst_mut(nid);
            inst.for_each_operand_mut(|v| {
                if let Some(nv) = value_map.get(v) {
                    *v = *nv;
                }
            });
            inst.for_each_successor_mut(|b| {
                if let Some(nb) = block_map.get(b) {
                    *b = *nb;
                }
            });
            if let Opcode::Phi { incoming } = &mut inst.op {
                for (pred, _) in incoming.iter_mut() {
                    if let Some(np) = block_map.get(pred) {
                        *pred = *np;
                    }
                }
            }
        }
        block_map
    }

    /// Replace the `switch` ending `bb` by a chain of `icmp eq` and
    /// conditional branches: `bb` tests the first case, each later case
    /// is tested in a fresh block, and the last test's other arm is the
    /// default (with no case, `bb` branches to the default). Each test is
    /// allocated before its branch, in case order. Every target's φs trade
    /// their entries from `bb` for one per chain block that branches
    /// there, with the value `bb`'s first entry carried.
    pub fn lower_switch(&mut self, bb: BlockId) {
        let term = self.terminator(bb).expect("switch block has a terminator");
        let Opcode::Switch {
            value,
            default,
            cases,
        } = self.inst(term).op.clone()
        else {
            panic!("lower_switch on a block not ending in switch");
        };
        let mut targets: Vec<BlockId> = cases.iter().map(|(_, t)| *t).collect();
        targets.push(default);
        targets.sort();
        targets.dedup();

        self.block_mut(bb).insts.pop();
        let value_ty = self.type_of(value);
        let mut chain: Vec<BlockId> = vec![bb];
        let mut cur_bb = bb;
        for (i, (k, target)) in cases.iter().enumerate() {
            let is_last = i == cases.len() - 1;
            let cmp = self.append_inst(
                cur_bb,
                Inst::new(
                    Type::I1,
                    Opcode::ICmp(CmpPred::Eq, value, Value::const_int(value_ty, *k)),
                ),
            );
            let next_bb = if is_last { default } else { self.add_block() };
            self.append_inst(
                cur_bb,
                Inst::new(
                    Type::Void,
                    Opcode::CondBr {
                        cond: Value::Inst(cmp),
                        then_bb: *target,
                        else_bb: next_bb,
                    },
                ),
            );
            if !is_last {
                chain.push(next_bb);
            }
            cur_bb = next_bb;
        }
        if cases.is_empty() {
            self.append_inst(
                cur_bb,
                Inst::new(Type::Void, Opcode::Br { target: default }),
            );
        }
        self.erase_inst(term);

        for t in targets {
            let preds: Vec<BlockId> = chain
                .iter()
                .copied()
                .filter(|&c| self.successors(c).contains(&t))
                .collect();
            self.move_phi_edges(t, &[bb], &preds, |_, _, v| v);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::FunctionBuilder;
    use crate::{interp, verify, BinOp, Module, Opcode, Type, Value};
    use std::collections::HashMap;

    #[test]
    fn split_block_keeps_verifying() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let x = b.binary(BinOp::Add, Value::i32(1), Value::i32(2));
        let y = b.binary(BinOp::Mul, x, Value::i32(3));
        b.ret(Some(y));
        let fid = m.add_function(b.finish());
        let f = m.func_mut(fid);
        let entry = f.entry;
        let tail = f.split_block(entry, 1);
        assert_eq!(f.block(entry).insts.len(), 2); // add + br
        assert_eq!(f.block(tail).insts.len(), 2); // mul + ret
        verify::assert_verified(&m);
        let t = interp::run_main(&m, 1000).unwrap();
        assert_eq!(t.return_value, Some(9));
    }

    #[test]
    fn clone_region_remaps_internal_edges() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let body = b.new_block();
        let exit = b.new_block();
        b.br(body);
        b.switch_to(body);
        let x = b.binary(BinOp::Add, Value::i32(5), Value::i32(6));
        b.br(exit);
        b.switch_to(exit);
        b.ret(Some(x));
        let fid = m.add_function(b.finish());

        let f = m.func_mut(fid);
        let mut vmap = HashMap::new();
        let bmap = f.clone_region(&f.clone(), &[body], &mut vmap);
        let nb = bmap[&body];
        assert_ne!(nb, body);
        // the cloned add is a new instruction
        let cloned_add = f.block(nb).insts[0];
        assert!(matches!(
            f.inst(cloned_add).op,
            Opcode::Binary(BinOp::Add, ..)
        ));
        assert_eq!(vmap.get(&x), Some(&Value::Inst(cloned_add)));
    }
}
