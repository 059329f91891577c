//! Ergonomic construction of functions.

use crate::function::{BlockId, Function, InstId};
use crate::inst::{BinOp, CastOp, CmpPred, Inst, Opcode};
use crate::module::{FuncId, GlobalId};
use crate::types::Type;
use crate::value::Value;

/// Builds a [`Function`] one instruction at a time, tracking an insertion
/// point like LLVM's `IRBuilder`.
///
/// # Example
///
/// ```
/// use autophase_ir::{builder::FunctionBuilder, Type, BinOp, CmpPred};
///
/// // fn clamp0(x: i32) -> i32 { if x < 0 { 0 } else { x } }
/// let mut b = FunctionBuilder::new("clamp0", vec![Type::I32], Type::I32);
/// let x = b.arg(0);
/// let zero = b.const_i32(0);
/// let neg = b.icmp(CmpPred::Slt, x, zero);
/// let sel = b.select(neg, zero, x);
/// b.ret(Some(sel));
/// let f = b.finish();
/// assert_eq!(f.num_insts(), 3);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
}

impl FunctionBuilder {
    /// Start building a function; the insertion point is its entry block.
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret_ty: Type) -> FunctionBuilder {
        let func = Function::new(name, params, ret_ty);
        let current = func.entry;
        FunctionBuilder { func, current }
    }

    /// The entry block id.
    pub fn entry_block(&self) -> BlockId {
        self.func.entry
    }

    /// Create a new empty block (does not move the insertion point).
    pub fn new_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Move the insertion point to the end of `bb`.
    pub fn switch_to(&mut self, bb: BlockId) {
        self.current = bb;
    }

    /// Finish and return the function.
    pub fn finish(self) -> Function {
        self.func
    }

    /// Read access to the function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }

    /// Mutable access for edits the builder doesn't cover.
    pub fn func_mut(&mut self) -> &mut Function {
        &mut self.func
    }

    fn emit(&mut self, ty: Type, op: Opcode) -> Value {
        let id = self.func.append_inst(self.current, Inst::new(ty, op));
        Value::Inst(id)
    }

    fn emit_void(&mut self, op: Opcode) -> InstId {
        self.func
            .append_inst(self.current, Inst::new(Type::Void, op))
    }

    // ---- values ----

    /// Function argument `i` as a value.
    pub fn arg(&self, i: u32) -> Value {
        Value::Arg(i)
    }

    /// `i32` constant.
    pub fn const_i32(&self, v: i32) -> Value {
        Value::i32(v)
    }

    /// `i64` constant.
    pub fn const_i64(&self, v: i64) -> Value {
        Value::i64(v)
    }

    /// Integer constant of an arbitrary type.
    pub fn const_int(&self, ty: Type, v: i64) -> Value {
        Value::const_int(ty, v)
    }

    /// Address of a global.
    pub fn global(&self, g: GlobalId) -> Value {
        Value::Global(g)
    }

    // ---- instructions ----

    /// Two-operand arithmetic/logic. Result type follows `lhs`'s type when
    /// it is an instruction/constant; otherwise `i32`.
    pub fn binary(&mut self, op: BinOp, lhs: Value, rhs: Value) -> Value {
        let ty = self.func.type_of(lhs);
        self.emit(ty, Opcode::Binary(op, lhs, rhs))
    }

    /// Typed binary operation.
    pub fn binary_ty(&mut self, ty: Type, op: BinOp, lhs: Value, rhs: Value) -> Value {
        self.emit(ty, Opcode::Binary(op, lhs, rhs))
    }

    /// Integer comparison producing `i1`.
    pub fn icmp(&mut self, pred: CmpPred, lhs: Value, rhs: Value) -> Value {
        self.emit(Type::I1, Opcode::ICmp(pred, lhs, rhs))
    }

    /// `cond ? tval : fval`.
    pub fn select(&mut self, cond: Value, tval: Value, fval: Value) -> Value {
        let ty = self.func.type_of(tval);
        self.emit(ty, Opcode::Select { cond, tval, fval })
    }

    /// φ-node with explicit incoming edges.
    pub fn phi(&mut self, ty: Type, incoming: Vec<(BlockId, Value)>) -> Value {
        // φ-nodes must precede non-φ instructions: insert after existing φs.
        let pos = self
            .func
            .block(self.current)
            .insts
            .iter()
            .take_while(|&&id| self.func.inst(id).is_phi())
            .count();
        let id = self
            .func
            .insert_inst(self.current, pos, Inst::new(ty, Opcode::Phi { incoming }));
        Value::Inst(id)
    }

    /// Stack array of `count` elements; yields a pointer.
    pub fn alloca(&mut self, elem_ty: Type, count: u32) -> Value {
        self.emit(Type::Ptr, Opcode::Alloca { elem_ty, count })
    }

    /// Load a `ty` from `ptr`.
    pub fn load(&mut self, ty: Type, ptr: Value) -> Value {
        self.emit(ty, Opcode::Load { ptr })
    }

    /// Store `value` to `ptr`.
    pub fn store(&mut self, ptr: Value, value: Value) -> InstId {
        self.emit_void(Opcode::Store { ptr, value })
    }

    /// Pointer to element `index` of `ptr`'s array.
    pub fn gep(&mut self, ptr: Value, index: Value) -> Value {
        self.emit(Type::Ptr, Opcode::Gep { ptr, index })
    }

    /// Conversion; the result type must be provided.
    pub fn cast(&mut self, op: CastOp, ty: Type, v: Value) -> Value {
        self.emit(ty, Opcode::Cast(op, v))
    }

    /// Call `callee` with `args`; `ret_ty` is the callee's return type.
    pub fn call(&mut self, callee: FuncId, ret_ty: Type, args: Vec<Value>) -> Value {
        self.emit(ret_ty, Opcode::Call { callee, args })
    }

    // ---- terminators ----

    /// Unconditional branch.
    pub fn br(&mut self, target: BlockId) -> InstId {
        self.emit_void(Opcode::Br { target })
    }

    /// Conditional branch on an `i1`.
    pub fn cond_br(&mut self, cond: Value, then_bb: BlockId, else_bb: BlockId) -> InstId {
        self.emit_void(Opcode::CondBr {
            cond,
            then_bb,
            else_bb,
        })
    }

    /// Multi-way switch.
    pub fn switch(&mut self, value: Value, default: BlockId, cases: Vec<(i64, BlockId)>) -> InstId {
        self.emit_void(Opcode::Switch {
            value,
            default,
            cases,
        })
    }

    /// Return (with a value unless the function returns `void`).
    pub fn ret(&mut self, value: Option<Value>) -> InstId {
        self.emit_void(Opcode::Ret { value })
    }

    /// Unreachable terminator.
    pub fn unreachable(&mut self) -> InstId {
        self.emit_void(Opcode::Unreachable)
    }

    // ---- loop sugar ----

    /// Emit a counted loop `for i in 0..n` and invoke `body(builder, i)`
    /// inside it. Returns `(loop_header, exit_block)`; the insertion point
    /// is left at the exit block.
    ///
    /// The loop is emitted in unrotated "while" form (header tests the
    /// condition), leaving room for `-loop-rotate` to improve it.
    pub fn counted_loop(
        &mut self,
        n: Value,
        body: impl FnOnce(&mut FunctionBuilder, Value),
    ) -> (BlockId, BlockId) {
        let preheader = self.current;
        let header = self.new_block();
        let body_bb = self.new_block();
        let exit = self.new_block();

        self.br(header);

        self.switch_to(header);
        let i = self.phi(Type::I32, vec![(preheader, Value::i32(0))]);
        let cont = self.icmp(CmpPred::Slt, i, n);
        self.cond_br(cont, body_bb, exit);

        self.switch_to(body_bb);
        body(self, i);
        // The body may have created more blocks; the increment goes at the
        // current insertion point, then jumps back to the header.
        let latch = self.current;
        let next = self.binary(BinOp::Add, i, Value::i32(1));
        self.br(header);

        // Patch the φ with the latch edge.
        if let Value::Inst(phi_id) = i {
            if let Opcode::Phi { incoming } = &mut self.func.inst_mut(phi_id).op {
                incoming.push((latch, next));
            }
        }

        self.switch_to(exit);
        (header, exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Module;

    #[test]
    fn build_branchy_function() {
        // fn abs(x) { if x < 0 { -x } else { x } }
        let mut b = FunctionBuilder::new("abs", vec![Type::I32], Type::I32);
        let then_bb = b.new_block();
        let else_bb = b.new_block();
        let join = b.new_block();

        let x = b.arg(0);
        let zero = b.const_i32(0);
        let neg = b.icmp(CmpPred::Slt, x, zero);
        b.cond_br(neg, then_bb, else_bb);

        b.switch_to(then_bb);
        let negated = b.binary(BinOp::Sub, zero, x);
        b.br(join);

        b.switch_to(else_bb);
        b.br(join);

        b.switch_to(join);
        let result = b.phi(Type::I32, vec![(then_bb, negated), (else_bb, x)]);
        b.ret(Some(result));

        let f = b.finish();
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.successors(f.entry).len(), 2);
    }

    #[test]
    fn counted_loop_shape() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        let n = b.const_i32(10);
        let (header, _exit) = b.counted_loop(n, |b, i| {
            let cur = b.load(Type::I32, acc);
            let next = b.binary(BinOp::Add, cur, i);
            b.store(acc, next);
        });
        let total = b.load(Type::I32, acc);
        b.ret(Some(total));
        let f = b.finish();
        // header has two predecessors: preheader and latch
        let preds: Vec<_> = f
            .block_ids()
            .filter(|&bb| f.successors(bb).contains(&header))
            .collect();
        assert_eq!(preds.len(), 2);
        m.add_function(f);
        let trace = crate::interp::run_main(&m, 100_000).unwrap();
        assert_eq!(trace.return_value, Some(45));
    }

    #[test]
    fn type_inference() {
        let mut b = FunctionBuilder::new("t", vec![Type::I64], Type::I64);
        let x = b.arg(0);
        let y = b.binary(BinOp::Mul, x, b.const_i64(3));
        assert_eq!(b.func().type_of(y), Type::I64);
        let c = b.icmp(CmpPred::Eq, y, x);
        assert_eq!(b.func().type_of(c), Type::I1);
        b.ret(Some(y));
    }

    #[test]
    fn phi_inserted_before_non_phis() {
        let mut b = FunctionBuilder::new("p", vec![], Type::I32);
        let e = b.entry_block();
        let v = b.binary(BinOp::Add, Value::i32(1), Value::i32(2));
        let _phi = b.phi(Type::I32, vec![]);
        let f = b.func();
        let first = f.block(e).insts[0];
        assert!(f.inst(first).is_phi());
        let _ = v;
    }
}
