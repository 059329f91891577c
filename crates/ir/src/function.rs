//! Functions, basic blocks, and the instruction arena.

use crate::inst::Inst;
use crate::types::Type;
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// Identifies an instruction within its function's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstId(u32);

impl InstId {
    /// Construct from a raw arena index.
    pub fn from_index(i: usize) -> InstId {
        InstId(i as u32)
    }

    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a basic block within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(u32);

impl BlockId {
    /// Construct from a raw index.
    pub fn from_index(i: usize) -> BlockId {
        BlockId(i as u32)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A basic block: a straight-line instruction list ending in a terminator.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Instructions in execution order; the last one is the terminator once
    /// the block is complete.
    pub insts: Vec<InstId>,
}

/// Function-level attributes inferred by interprocedural passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuncAttrs {
    /// The function never writes memory visible to callers.
    pub readonly: bool,
    /// The function neither reads nor writes caller-visible memory.
    pub readnone: bool,
    /// The function is only referenced within this module and may be
    /// removed if unused (set for everything except `main` by default).
    pub internal: bool,
    /// Inlining hint set by `-inline` cost analysis.
    pub always_inline: bool,
    /// Marks functions the partial inliner has outlined from.
    pub outlined: bool,
}

/// A batch of pending edits to one function: a forwarding table
/// `InstId → Value` ("every use of this result now reads that value") and a
/// set of instructions to remove.
///
/// Transform passes record each decision here instead of calling
/// [`Function::replace_all_uses`] (a sweep of the whole arena per call) and
/// [`Function::remove_inst`] (a scan of the block per call), read operands
/// through [`Rewrites::resolve`] while the batch is pending, and commit it
/// with a single [`Function::apply_rewrites`].
///
/// Forwards may chain (`a → b`, later `b → c`): resolution follows the chain
/// to its end, exactly as the sequential `replace_all_uses` calls would have
/// rewritten the operand twice.
#[derive(Debug, Clone, Default)]
pub struct Rewrites {
    /// Forward target per instruction index; grown on demand.
    forward: Vec<Option<Value>>,
    forwards: usize,
    /// Removal flag per instruction index; grown on demand.
    removed_flag: Vec<bool>,
    removed: Vec<InstId>,
}

impl Rewrites {
    /// An empty batch.
    pub fn new() -> Rewrites {
        Rewrites::default()
    }

    /// Make every use of `from`'s result read `to` instead.
    ///
    /// # Panics
    ///
    /// Panics if `to` resolves back to `from` (a forward onto itself could
    /// never be applied), or if `from` is already forwarded.
    pub fn forward(&mut self, from: InstId, to: Value) {
        let to = self.resolve(to);
        assert_ne!(to, Value::Inst(from), "forwarding an instruction to itself");
        if self.forward.len() <= from.index() {
            self.forward.resize(from.index() + 1, None);
        }
        let slot = &mut self.forward[from.index()];
        assert!(slot.is_none(), "instruction forwarded twice");
        *slot = Some(to);
        self.forwards += 1;
    }

    /// Remove `id` from its block and the arena when the batch is applied.
    /// The caller guarantees its result has no uses left by then.
    pub fn remove(&mut self, id: InstId) {
        if self.removed_flag.len() <= id.index() {
            self.removed_flag.resize(id.index() + 1, false);
        }
        if !self.removed_flag[id.index()] {
            self.removed_flag[id.index()] = true;
            self.removed.push(id);
        }
    }

    /// Forward `from` to `to` and remove `from`: the batched form of
    /// `replace_all_uses` followed by `remove_inst`.
    pub fn replace(&mut self, from: InstId, to: Value) {
        self.forward(from, to);
        self.remove(from);
    }

    /// What `v` reads as once the batch is applied: follows forwards to the
    /// end of the chain; anything not forwarded resolves to itself.
    pub fn resolve(&self, mut v: Value) -> Value {
        while let Value::Inst(id) = v {
            match self.forward.get(id.index()) {
                Some(Some(to)) => v = *to,
                _ => break,
            }
        }
        v
    }

    /// True if `id` is scheduled for removal.
    pub fn is_removed(&self, id: InstId) -> bool {
        self.removed_flag.get(id.index()).is_some_and(|&r| r)
    }

    /// True if the batch holds at least one forward.
    pub fn has_forwards(&self) -> bool {
        self.forwards > 0
    }

    /// True if applying the batch would change nothing.
    pub fn is_empty(&self) -> bool {
        self.forwards == 0 && self.removed.is_empty()
    }
}

/// A function: parameter types, return type, blocks, and an instruction arena.
///
/// Instructions live in a slot arena (`Vec<Option<Inst>>`); removing an
/// instruction leaves a tombstone so `InstId`s stay stable. Blocks likewise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Function name (unique within a module).
    pub name: String,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type (`Void` for none).
    pub ret_ty: Type,
    /// Block arena; `None` entries are removed blocks.
    blocks: Vec<Option<Block>>,
    /// Instruction arena; `None` entries are removed instructions.
    insts: Vec<Option<Inst>>,
    /// The entry block.
    pub entry: BlockId,
    /// Inferred attributes.
    pub attrs: FuncAttrs,
}

impl Function {
    /// Create a function with a single empty entry block.
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret_ty: Type) -> Function {
        Function {
            name: name.into(),
            params,
            ret_ty,
            blocks: vec![Some(Block::default())],
            insts: Vec::new(),
            entry: BlockId::from_index(0),
            attrs: FuncAttrs::default(),
        }
    }

    /// A function whose arenas are exactly `blocks` and `insts`, tombstones
    /// included: how the parser rebuilds printed slots in one allocation
    /// per arena.
    pub(crate) fn from_arenas(
        name: String,
        params: Vec<Type>,
        ret_ty: Type,
        blocks: Vec<Option<Block>>,
        insts: Vec<Option<Inst>>,
        entry: BlockId,
    ) -> Function {
        Function {
            name,
            params,
            ret_ty,
            blocks,
            insts,
            entry,
            attrs: FuncAttrs::default(),
        }
    }

    // ---- blocks ----

    /// Append a new empty block, returning its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Some(Block::default()));
        BlockId::from_index(self.blocks.len() - 1)
    }

    /// Access a block.
    ///
    /// # Panics
    ///
    /// Panics if the block was removed.
    pub fn block(&self, id: BlockId) -> &Block {
        self.blocks[id.index()].as_ref().expect("removed block")
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics if the block was removed.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        self.blocks[id.index()].as_mut().expect("removed block")
    }

    /// True if the block id refers to a live (not removed) block.
    pub fn block_exists(&self, id: BlockId) -> bool {
        self.blocks
            .get(id.index())
            .map(|b| b.is_some())
            .unwrap_or(false)
    }

    /// Remove a block and all instructions in it.
    ///
    /// The caller is responsible for first removing CFG edges and φ-node
    /// incoming entries that reference it.
    pub fn remove_block(&mut self, id: BlockId) {
        if let Some(block) = self.blocks[id.index()].take() {
            for inst in block.insts {
                self.insts[inst.index()] = None;
            }
        }
    }

    /// Iterate over live block ids in arena order (entry first).
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|_| BlockId::from_index(i)))
    }

    /// Number of live blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }

    // ---- instructions ----

    /// Add an instruction to the arena without placing it in a block.
    pub fn add_inst(&mut self, inst: Inst) -> InstId {
        self.insts.push(Some(inst));
        InstId::from_index(self.insts.len() - 1)
    }

    /// Add an instruction and append it to `bb`.
    pub fn append_inst(&mut self, bb: BlockId, inst: Inst) -> InstId {
        let id = self.add_inst(inst);
        self.block_mut(bb).insts.push(id);
        id
    }

    /// Add an instruction and insert it at `pos` within `bb`.
    pub fn insert_inst(&mut self, bb: BlockId, pos: usize, inst: Inst) -> InstId {
        let id = self.add_inst(inst);
        self.block_mut(bb).insts.insert(pos, id);
        id
    }

    /// Access an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction was removed.
    pub fn inst(&self, id: InstId) -> &Inst {
        self.insts[id.index()].as_ref().expect("removed inst")
    }

    /// Mutable access to an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction was removed.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        self.insts[id.index()].as_mut().expect("removed inst")
    }

    /// True if the id refers to a live instruction.
    pub fn inst_exists(&self, id: InstId) -> bool {
        self.insts
            .get(id.index())
            .map(|i| i.is_some())
            .unwrap_or(false)
    }

    /// Remove an instruction from its block's list and the arena.
    ///
    /// The caller must ensure its result has no remaining uses.
    pub fn remove_inst(&mut self, bb: BlockId, id: InstId) {
        let block = self.block_mut(bb);
        block.insts.retain(|&i| i != id);
        self.insts[id.index()] = None;
    }

    /// Remove an instruction from the arena only (when its block is gone or
    /// the list was already edited).
    pub fn erase_inst(&mut self, id: InstId) {
        self.insts[id.index()] = None;
    }

    /// Total number of live instructions.
    pub fn num_insts(&self) -> usize {
        self.insts.iter().filter(|i| i.is_some()).count()
    }

    /// Iterate `(InstId, &Inst)` over the instructions of `bb` in order.
    pub fn insts_in(&self, bb: BlockId) -> impl Iterator<Item = (InstId, &Inst)> + '_ {
        self.block(bb)
            .insts
            .iter()
            .map(move |&id| (id, self.inst(id)))
    }

    /// The terminator of `bb`, if the block is complete.
    pub fn terminator(&self, bb: BlockId) -> Option<InstId> {
        let last = *self.block(bb).insts.last()?;
        if self.inst(last).is_terminator() {
            Some(last)
        } else {
            None
        }
    }

    /// Successor blocks of `bb` (empty if the block has no terminator).
    pub fn successors(&self, bb: BlockId) -> Vec<BlockId> {
        match self.terminator(bb) {
            Some(t) => self.inst(t).successors(),
            None => Vec::new(),
        }
    }

    /// Visit the successor blocks of `bb` in order, without allocating
    /// (nothing is visited if the block has no terminator).
    pub fn for_each_successor(&self, bb: BlockId, f: impl FnMut(BlockId)) {
        if let Some(t) = self.terminator(bb) {
            self.inst(t).for_each_successor(f);
        }
    }

    // ---- whole-function edits ----

    /// Apply a batch of use-rewrites and removals: **one** sweep over every
    /// live instruction's operands (each forwarded operand is replaced by
    /// its fully resolved target), then **one** `retain` per block dropping
    /// the removed instructions, which also leave the arena. O(instructions)
    /// however many rewrites the batch holds. Returns the number of operands
    /// rewritten.
    ///
    /// Equivalent to calling [`Function::replace_all_uses`] for every
    /// forward in recording order and [`Function::remove_inst`] for every
    /// removal, provided no forward targets an instruction an *earlier*
    /// forward already retired (the sequential calls would leave that use
    /// dangling; the batch follows the chain).
    pub fn apply_rewrites(&mut self, rw: &Rewrites) -> usize {
        let mut rewritten = 0;
        if rw.has_forwards() {
            for inst in self.insts.iter_mut().flatten() {
                inst.for_each_operand_mut(|v| {
                    let to = rw.resolve(*v);
                    if to != *v {
                        *v = to;
                        rewritten += 1;
                    }
                });
            }
        }
        if !rw.removed.is_empty() {
            for block in self.blocks.iter_mut().flatten() {
                block.insts.retain(|&i| !rw.is_removed(i));
            }
            for &id in &rw.removed {
                self.insts[id.index()] = None;
            }
        }
        rewritten
    }

    /// Replace every use of `from` with `to` across all instructions.
    /// Returns the number of operands replaced.
    pub fn replace_all_uses(&mut self, from: Value, to: Value) -> usize {
        let mut n = 0;
        for inst in self.insts.iter_mut().flatten() {
            n += inst.replace_uses(from, to);
        }
        n
    }

    /// Count the uses of a value across all live instructions.
    pub fn count_uses(&self, value: Value) -> usize {
        let mut n = 0;
        for inst in self.insts.iter().flatten() {
            inst.for_each_operand(|v| {
                if v == value {
                    n += 1;
                }
            });
        }
        n
    }

    /// The type of `v` here: an instruction's result type, a constant's or
    /// `undef`'s own, a parameter's (`i32` past the last one), `ptr` for a
    /// global.
    pub fn type_of(&self, v: Value) -> Type {
        match v {
            Value::Inst(id) => self.inst(id).ty,
            Value::ConstInt(ty, _) | Value::Undef(ty) => ty,
            Value::Arg(i) => self.params.get(i as usize).copied().unwrap_or(Type::I32),
            Value::Global(_) => Type::Ptr,
        }
    }

    /// Find the block containing instruction `id`, if it is placed.
    pub fn block_of(&self, id: InstId) -> Option<BlockId> {
        self.block_ids()
            .find(|&bb| self.block(bb).insts.contains(&id))
    }

    /// Upper bound (exclusive) of instruction arena indices, for dense maps.
    pub fn inst_capacity(&self) -> usize {
        self.insts.len()
    }

    /// Upper bound (exclusive) of block arena indices, for dense maps.
    pub fn block_capacity(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Opcode};

    fn add_fn() -> Function {
        let mut f = Function::new("add2", vec![Type::I32, Type::I32], Type::I32);
        let entry = f.entry;
        let sum = f.append_inst(
            entry,
            Inst::new(
                Type::I32,
                Opcode::Binary(BinOp::Add, Value::Arg(0), Value::Arg(1)),
            ),
        );
        f.append_inst(
            entry,
            Inst::new(
                Type::Void,
                Opcode::Ret {
                    value: Some(Value::Inst(sum)),
                },
            ),
        );
        f
    }

    #[test]
    fn build_and_query() {
        let f = add_fn();
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.num_insts(), 2);
        let term = f.terminator(f.entry).unwrap();
        assert!(f.inst(term).is_terminator());
        assert!(f.successors(f.entry).is_empty());
    }

    #[test]
    fn replace_all_uses_rewrites_operands() {
        let mut f = add_fn();
        let n = f.replace_all_uses(Value::Arg(0), Value::i32(7));
        assert_eq!(n, 1);
        assert_eq!(f.count_uses(Value::Arg(0)), 0);
        assert_eq!(f.count_uses(Value::i32(7)), 1);
    }

    #[test]
    fn remove_inst_leaves_tombstone() {
        let mut f = add_fn();
        let entry = f.entry;
        let first = f.block(entry).insts[0];
        f.remove_inst(entry, first);
        assert!(!f.inst_exists(first));
        assert_eq!(f.num_insts(), 1);
        // Arena capacity unchanged: ids remain stable.
        assert_eq!(f.inst_capacity(), 2);
    }

    /// `%0 = add a0, a1; %1 = add %0, %0; %2 = phi [%1]; ret %2`
    fn chain_fn() -> (Function, [InstId; 4]) {
        let mut f = Function::new("c", vec![Type::I32, Type::I32], Type::I32);
        let e = f.entry;
        let add = |a, b| Inst::new(Type::I32, Opcode::Binary(BinOp::Add, a, b));
        let i0 = f.append_inst(e, add(Value::Arg(0), Value::Arg(1)));
        let i1 = f.append_inst(e, add(Value::Inst(i0), Value::Inst(i0)));
        let incoming = vec![(e, Value::Inst(i1))];
        let i2 = f.append_inst(e, Inst::new(Type::I32, Opcode::Phi { incoming }));
        let value = Some(Value::Inst(i2));
        let i3 = f.append_inst(e, Inst::new(Type::Void, Opcode::Ret { value }));
        (f, [i0, i1, i2, i3])
    }

    #[test]
    fn rewrites_follow_chains_in_one_sweep() {
        let (mut f, [i0, i1, i2, i3]) = chain_fn();
        let mut rw = Rewrites::new();
        assert!(rw.is_empty());
        // %2 → %1 recorded before %1 → 7: the chain resolves to the end.
        rw.replace(i2, Value::Inst(i1));
        rw.replace(i1, Value::i32(7));
        assert_eq!(rw.resolve(Value::Inst(i2)), Value::i32(7));
        assert_eq!(rw.resolve(Value::Inst(i0)), Value::Inst(i0));
        assert_eq!(rw.resolve(Value::Arg(0)), Value::Arg(0));
        assert!(rw.is_removed(i1) && !rw.is_removed(i0));
        // Only the `ret` operand is live and forwarded (%1's and %2's own
        // operands are rewritten too but leave with them).
        f.apply_rewrites(&rw);
        assert_eq!(f.block(f.entry).insts, vec![i0, i3]);
        assert!(!f.inst_exists(i1) && !f.inst_exists(i2));
        assert_eq!(f.inst(i3).operands(), vec![Value::i32(7)]);
    }

    #[test]
    fn forward_without_removal_and_removal_without_forward() {
        let (mut f, [i0, i1, i2, _]) = chain_fn();
        let mut rw = Rewrites::new();
        rw.forward(i0, Value::Arg(1));
        assert!(rw.has_forwards());
        assert_eq!(f.apply_rewrites(&rw), 2);
        // φ operands are operands like any other; %0 itself stays.
        assert_eq!(f.inst(i1).operands(), vec![Value::Arg(1), Value::Arg(1)]);
        assert!(f.inst_exists(i0));

        let mut rw = Rewrites::new();
        rw.remove(i0);
        rw.remove(i0);
        assert!(!rw.has_forwards() && !rw.is_empty());
        assert_eq!(f.apply_rewrites(&rw), 0);
        assert!(!f.inst_exists(i0));
        assert_eq!(f.block(f.entry).insts.len(), 3);
        assert_eq!(f.inst(i2).operands(), vec![Value::Inst(i1)]);
    }

    #[test]
    #[should_panic(expected = "forwarding an instruction to itself")]
    fn rewrites_reject_a_cycle() {
        let (_, [i0, i1, ..]) = chain_fn();
        let mut rw = Rewrites::new();
        rw.forward(i0, Value::Inst(i1));
        rw.forward(i1, Value::Inst(i0));
    }

    #[test]
    #[should_panic(expected = "instruction forwarded twice")]
    fn rewrites_reject_a_second_forward() {
        let (_, [i0, ..]) = chain_fn();
        let mut rw = Rewrites::new();
        rw.forward(i0, Value::Arg(0));
        rw.forward(i0, Value::Arg(1));
    }

    #[test]
    fn remove_block_erases_contents() {
        let mut f = add_fn();
        let bb = f.add_block();
        let id = f.append_inst(bb, Inst::new(Type::Void, Opcode::Unreachable));
        f.remove_block(bb);
        assert!(!f.block_exists(bb));
        assert!(!f.inst_exists(id));
    }

    #[test]
    fn users_and_block_of() {
        let f = add_fn();
        let entry = f.entry;
        let first = f.block(entry).insts[0];
        let users = crate::facts::UserIndex::build(&f);
        assert_eq!(users.users(first).len(), 1);
        assert_eq!(f.block_of(first), Some(entry));
    }

    #[test]
    fn phi_edge_edits() {
        let mut f = Function::new("g", vec![], Type::I32);
        let entry = f.entry;
        let b1 = f.add_block();
        let b2 = f.add_block();
        let join = f.add_block();
        let phi = f.append_inst(
            join,
            Inst::new(
                Type::I32,
                Opcode::Phi {
                    incoming: vec![(b1, Value::i32(1)), (b2, Value::i32(2))],
                },
            ),
        );
        let _ = entry;
        f.retarget_phis(join, b1, entry);
        if let Opcode::Phi { incoming } = &f.inst(phi).op {
            assert_eq!(incoming[0].0, entry);
        }
        f.remove_phi_edge(join, b2);
        if let Opcode::Phi { incoming } = &f.inst(phi).op {
            assert_eq!(incoming.len(), 1);
        }
    }
}
