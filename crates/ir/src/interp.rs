//! A deterministic tracing interpreter.
//!
//! Execution produces an [`ExecTrace`]: per-basic-block execution counts (the
//! "software trace" LegUp's clock-cycle profiler consumes), per-function call
//! counts, `main`'s return value, and a checksum of global memory. The
//! trace's `observable()` tuple is the semantics-preservation oracle used by
//! the pass property tests.
//!
//! # Memory model
//!
//! One flat address space of 64-bit cells. Address 0 is null. Globals get
//! fixed base addresses; each `alloca` gets fresh cells in its call frame.
//! `Gep` adds an element index to a base address. Loads of out-of-range
//! addresses yield 0; stores to them are ignored — total semantics, no UB.

use crate::function::{BlockId, InstId};
use crate::inst::Opcode;
use crate::module::{FuncId, Module};
use crate::types::Type;
use crate::value::Value;
use crate::{fold, Function};
use std::fmt;

/// Why execution trapped (stopped early) instead of returning.
///
/// Every entry point takes an explicit fuel (step) budget, so even
/// adversarial IR — e.g. a module an RL agent drove into an infinite loop
/// — executes in bounded time and yields a typed [`Trap::FuelExhausted`]
/// rather than hanging the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// The module has no `main` function.
    NoMain,
    /// The step/fuel budget was exhausted (non-terminating or too slow).
    FuelExhausted,
    /// Call depth exceeded the limit (runaway recursion).
    StackOverflow,
    /// A block had no terminator (malformed IR).
    MissingTerminator(BlockId),
    /// An `unreachable` instruction was executed.
    ReachedUnreachable,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::NoMain => write!(f, "module has no main function"),
            Trap::FuelExhausted => write!(f, "step/fuel budget exhausted"),
            Trap::StackOverflow => write!(f, "call depth limit exceeded"),
            Trap::MissingTerminator(bb) => {
                write!(f, "block b{} has no terminator", bb.index())
            }
            Trap::ReachedUnreachable => write!(f, "executed unreachable"),
        }
    }
}

impl std::error::Error for Trap {}

/// Execution record of one program run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecTrace {
    /// Times each block was entered, all functions' blocks in one table:
    /// function `f`'s block `bb` is entry `block_base[f] + bb`.
    block_counts: Vec<u64>,
    /// Where each function slot's blocks start in `block_counts`, and
    /// where the last one's end.
    block_base: Vec<usize>,
    /// Times each function slot was called (main counts once).
    call_counts: Vec<u64>,
    /// `main`'s return value (`None` for `void`).
    pub return_value: Option<i64>,
    /// FNV-style checksum of all global memory after execution.
    pub memory_checksum: u64,
    /// Total instructions executed.
    pub insts_executed: u64,
}

impl ExecTrace {
    /// A trace with every count of `module`'s blocks and functions zero.
    fn empty(module: &Module) -> ExecTrace {
        let mut block_base = Vec::with_capacity(module.func_capacity() + 1);
        let mut blocks = 0;
        for i in 0..module.func_capacity() {
            block_base.push(blocks);
            blocks += module
                .func_arc(FuncId::from_index(i))
                .map_or(0, |f| f.block_capacity());
        }
        block_base.push(blocks);
        ExecTrace {
            block_counts: vec![0; blocks],
            block_base,
            call_counts: vec![0; module.func_capacity()],
            ..ExecTrace::default()
        }
    }

    /// How often block `bb` of function `f` executed.
    pub fn count(&self, f: FuncId, bb: BlockId) -> u64 {
        match self.block_base.get(f.index()..=f.index() + 1) {
            Some(&[start, end]) if start + bb.index() < end => {
                self.block_counts[start + bb.index()]
            }
            _ => 0,
        }
    }

    /// How often function `f` was called.
    pub fn calls(&self, f: FuncId) -> u64 {
        self.call_counts.get(f.index()).copied().unwrap_or(0)
    }

    /// Block entries over the whole run, every function's blocks summed.
    pub fn blocks_entered(&self) -> u64 {
        self.block_counts.iter().sum()
    }

    /// The observable behaviour of the run: the return value.
    ///
    /// Final memory contents are deliberately *not* part of this oracle:
    /// a dead store to memory nobody reads is unobservable in C, and
    /// store-killing passes (`-dse`, `-globalopt`) rely on that. Programs
    /// used as semantics-preservation test subjects fold their outputs into
    /// the value they return. The raw [`memory_checksum`] stays available
    /// for tests of passes that promise to keep memory intact.
    ///
    /// [`memory_checksum`]: ExecTrace::memory_checksum
    pub fn observable(&self) -> Option<i64> {
        self.return_value
    }
}

/// Maximum call depth.
const MAX_DEPTH: usize = 512;

struct Machine<'m> {
    module: &'m Module,
    memory: Vec<i64>,
    global_base: Vec<usize>,
    fuel: u64,
    trace: ExecTrace,
}

struct Frame {
    /// Dense register file indexed by instruction arena index.
    regs: Vec<i64>,
    args: Vec<i64>,
    frame_base: usize,
}

impl<'m> Machine<'m> {
    fn new(module: &'m Module, fuel: u64) -> Machine<'m> {
        // Lay out globals: address 0 is null.
        let mut memory = vec![0i64];
        let mut global_base = vec![
            0usize;
            module
                .global_ids()
                .map(|g| g.index() + 1)
                .max()
                .unwrap_or(0)
        ];
        for gid in module.global_ids() {
            let g = module.global(gid);
            global_base[gid.index()] = memory.len();
            for i in 0..g.count as usize {
                memory.push(g.init_at(i));
            }
        }
        Machine {
            module,
            memory,
            global_base,
            fuel,
            trace: ExecTrace::empty(module),
        }
    }

    fn load(&self, addr: i64) -> i64 {
        if addr <= 0 {
            return 0;
        }
        self.memory.get(addr as usize).copied().unwrap_or(0)
    }

    fn store(&mut self, addr: i64, v: i64) {
        if addr <= 0 {
            return;
        }
        if let Some(cell) = self.memory.get_mut(addr as usize) {
            *cell = v;
        }
    }

    fn eval(&self, frame: &Frame, v: Value) -> i64 {
        match v {
            Value::Inst(id) => frame.regs.get(id.index()).copied().unwrap_or(0),
            Value::Arg(i) => frame.args.get(i as usize).copied().unwrap_or(0),
            Value::ConstInt(_, c) => c,
            Value::Global(g) => self.global_base[g.index()] as i64,
            Value::Undef(_) => 0,
        }
    }

    fn call(&mut self, fid: FuncId, args: Vec<i64>, depth: usize) -> Result<i64, Trap> {
        if depth > MAX_DEPTH {
            return Err(Trap::StackOverflow);
        }
        self.trace.call_counts[fid.index()] += 1;
        let f: &Function = self.module.func(fid);
        let block_base = self.trace.block_base[fid.index()];
        let frame_base = self.memory.len();
        let mut frame = Frame {
            regs: vec![0; f.inst_capacity()],
            args,
            frame_base,
        };

        let mut prev_bb: Option<BlockId> = None;
        let mut bb = f.entry;
        'blocks: loop {
            self.trace.block_counts[block_base + bb.index()] += 1;
            // φ-nodes read their operands simultaneously on entry.
            let inst_ids: &[InstId] = &f.block(bb).insts;
            let mut phi_updates: Vec<(InstId, i64)> = Vec::new();
            for &iid in inst_ids {
                if let Opcode::Phi { incoming } = &f.inst(iid).op {
                    let pred = prev_bb.expect("phi in entry block");
                    let v = incoming
                        .iter()
                        .find(|(p, _)| *p == pred)
                        .map(|(_, v)| self.eval(&frame, *v))
                        .unwrap_or(0);
                    // Pointer-typed φs (loop-closed geps etc.) carry raw
                    // addresses; only integer φs re-wrap to their width.
                    let ty = f.inst(iid).ty;
                    let v = if ty.is_int() { ty.wrap(v) } else { v };
                    phi_updates.push((iid, v));
                } else {
                    break;
                }
            }
            for (iid, v) in phi_updates {
                frame.regs[iid.index()] = v;
            }

            for &iid in inst_ids {
                let inst = f.inst(iid);
                if inst.is_phi() {
                    continue;
                }
                if self.fuel == 0 {
                    return Err(Trap::FuelExhausted);
                }
                self.fuel -= 1;
                self.trace.insts_executed += 1;
                match &inst.op {
                    Opcode::Binary(op, a, b) => {
                        let (x, y) = (self.eval(&frame, *a), self.eval(&frame, *b));
                        frame.regs[iid.index()] = fold::eval_binop(*op, inst.ty, x, y);
                    }
                    Opcode::ICmp(pred, a, b) => {
                        let ty = operand_type(f, *a);
                        // Pointer comparisons behave as 64-bit address
                        // comparisons.
                        let ty = if ty.is_int() { ty } else { Type::I64 };
                        let (x, y) = (self.eval(&frame, *a), self.eval(&frame, *b));
                        frame.regs[iid.index()] = fold::eval_icmp(*pred, ty, x, y);
                    }
                    Opcode::Select { cond, tval, fval } => {
                        let c = self.eval(&frame, *cond);
                        let v = if c != 0 {
                            self.eval(&frame, *tval)
                        } else {
                            self.eval(&frame, *fval)
                        };
                        frame.regs[iid.index()] = v;
                    }
                    Opcode::Phi { .. } => unreachable!(),
                    Opcode::Alloca { count, .. } => {
                        let base = self.memory.len();
                        self.memory.extend(std::iter::repeat_n(0, *count as usize));
                        frame.regs[iid.index()] = base as i64;
                    }
                    Opcode::Load { ptr } => {
                        let addr = self.eval(&frame, *ptr);
                        let raw = self.load(addr);
                        let v = if inst.ty.is_int() {
                            inst.ty.wrap(raw)
                        } else {
                            raw
                        };
                        frame.regs[iid.index()] = v;
                    }
                    Opcode::Store { ptr, value } => {
                        let addr = self.eval(&frame, *ptr);
                        let v = self.eval(&frame, *value);
                        self.store(addr, v);
                    }
                    Opcode::Gep { ptr, index } => {
                        let base = self.eval(&frame, *ptr);
                        let idx = self.eval(&frame, *index);
                        frame.regs[iid.index()] = base.wrapping_add(idx);
                    }
                    Opcode::Cast(op, v) => {
                        let from = operand_type(f, *v);
                        let x = self.eval(&frame, *v);
                        let to = if inst.ty.is_int() { inst.ty } else { Type::I64 };
                        let from = if from.is_int() { from } else { Type::I64 };
                        frame.regs[iid.index()] = fold::eval_cast(*op, from, to, x);
                    }
                    Opcode::Call { callee, args } => {
                        let argv: Vec<i64> = args.iter().map(|a| self.eval(&frame, *a)).collect();
                        let r = self.call(*callee, argv, depth + 1)?;
                        frame.regs[iid.index()] = r;
                    }
                    Opcode::Br { target } => {
                        prev_bb = Some(bb);
                        bb = *target;
                        continue 'blocks;
                    }
                    Opcode::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let c = self.eval(&frame, *cond);
                        prev_bb = Some(bb);
                        bb = if c != 0 { *then_bb } else { *else_bb };
                        continue 'blocks;
                    }
                    Opcode::Switch {
                        value,
                        default,
                        cases,
                    } => {
                        let v = self.eval(&frame, *value);
                        prev_bb = Some(bb);
                        bb = cases
                            .iter()
                            .find(|(c, _)| *c == v)
                            .map(|(_, b)| *b)
                            .unwrap_or(*default);
                        continue 'blocks;
                    }
                    Opcode::Ret { value } => {
                        let r = value.map(|v| self.eval(&frame, v)).unwrap_or(0);
                        self.memory
                            .truncate(frame.frame_base.max(self.frame_floor()));
                        return Ok(r);
                    }
                    Opcode::Unreachable => return Err(Trap::ReachedUnreachable),
                }
            }
            return Err(Trap::MissingTerminator(bb));
        }
    }

    /// Lowest address the stack may shrink to (end of globals).
    fn frame_floor(&self) -> usize {
        let mut floor = 1;
        for gid in self.module.global_ids() {
            let g = self.module.global(gid);
            floor = floor.max(self.global_base[gid.index()] + g.count as usize);
        }
        floor
    }

    fn checksum_globals(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for gid in self.module.global_ids() {
            let g = self.module.global(gid);
            let base = self.global_base[gid.index()];
            for i in 0..g.count as usize {
                let v = self.memory.get(base + i).copied().unwrap_or(0) as u64;
                h ^= v.wrapping_add(i as u64);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

fn operand_type(f: &Function, v: Value) -> Type {
    match v {
        Value::Inst(id) => f.inst(id).ty,
        Value::ConstInt(ty, _) | Value::Undef(ty) => ty,
        Value::Arg(i) => f.params.get(i as usize).copied().unwrap_or(Type::I64),
        Value::Global(_) => Type::I64,
    }
}

/// Run the module's `main` with the given instruction budget.
///
/// # Errors
///
/// Returns a [`Trap`] if there is no `main`, the budget runs out,
/// recursion exceeds the depth limit, or malformed IR is executed.
pub fn run_main(module: &Module, fuel: u64) -> Result<ExecTrace, Trap> {
    let main = module.main().ok_or(Trap::NoMain)?;
    run_function(module, main, &[], fuel)
}

/// Run an arbitrary function with the given arguments and budget.
///
/// # Errors
///
/// Same conditions as [`run_main`].
pub fn run_function(
    module: &Module,
    func: FuncId,
    args: &[i64],
    fuel: u64,
) -> Result<ExecTrace, Trap> {
    let mut m = Machine::new(module, fuel);
    let r = m.call(func, args.to_vec(), 0)?;
    let ret_ty = module.func(func).ret_ty;
    m.trace.return_value = if ret_ty.is_void() { None } else { Some(r) };
    m.trace.memory_checksum = m.checksum_globals();
    Ok(m.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, CmpPred};
    use crate::module::Global;

    fn module_with(f: Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn straightline_arithmetic() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let x = b.binary(BinOp::Mul, Value::i32(6), Value::i32(7));
        let y = b.binary(BinOp::Sub, x, Value::i32(2));
        b.ret(Some(y));
        let t = run_main(&module_with(b.finish()), 1000).unwrap();
        assert_eq!(t.return_value, Some(40));
        assert_eq!(t.insts_executed, 3);
    }

    #[test]
    fn loop_sums_and_counts_blocks() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        let (header, _) = b.counted_loop(Value::i32(5), |b, i| {
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, i);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let m = module_with(b.finish());
        let t = run_main(&m, 10_000).unwrap();
        assert_eq!(t.return_value, Some(10)); // 0+1+2+3+4
        let main = m.main().unwrap();
        assert_eq!(t.count(main, header), 6); // 5 iterations + exit test
        assert_eq!(t.calls(main), 1);
        // Blocks and functions the module does not have never ran.
        assert_eq!(t.count(main, BlockId::from_index(99)), 0);
        assert_eq!(t.count(FuncId::from_index(1), header), 0);
        assert_eq!(t.calls(FuncId::from_index(1)), 0);
    }

    #[test]
    fn function_call_and_recursion() {
        let mut m = Module::new("t");
        // fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
        let fib_id = FuncId::from_index(0);
        let mut b = FunctionBuilder::new("fib", vec![Type::I32], Type::I32);
        let rec = b.new_block();
        let base = b.new_block();
        let n = b.arg(0);
        let c = b.icmp(CmpPred::Slt, n, Value::i32(2));
        b.cond_br(c, base, rec);
        b.switch_to(base);
        b.ret(Some(n));
        b.switch_to(rec);
        let n1 = b.binary(BinOp::Sub, n, Value::i32(1));
        let n2 = b.binary(BinOp::Sub, n, Value::i32(2));
        let f1 = b.call(fib_id, Type::I32, vec![n1]);
        let f2 = b.call(fib_id, Type::I32, vec![n2]);
        let s = b.binary(BinOp::Add, f1, f2);
        b.ret(Some(s));
        assert_eq!(m.add_function(b.finish()), fib_id);

        let mut mb = FunctionBuilder::new("main", vec![], Type::I32);
        let r = mb.call(fib_id, Type::I32, vec![Value::i32(10)]);
        mb.ret(Some(r));
        m.add_function(mb.finish());

        let t = run_main(&m, 1_000_000).unwrap();
        assert_eq!(t.return_value, Some(55));
        assert!(t.calls(fib_id) > 100);
    }

    #[test]
    fn out_of_fuel_on_infinite_loop() {
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let spin = b.new_block();
        b.br(spin);
        b.switch_to(spin);
        // A non-terminator instruction so fuel is consumed.
        let _ = b.binary(BinOp::Add, Value::i32(1), Value::i32(1));
        b.br(spin);
        let r = run_main(&module_with(b.finish()), 1000);
        assert_eq!(r, Err(Trap::FuelExhausted));
    }

    #[test]
    fn stack_overflow_detected() {
        let mut m = Module::new("t");
        let f_id = FuncId::from_index(0);
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let r = b.call(f_id, Type::I32, vec![]);
        b.ret(Some(r));
        // main calls itself forever
        let mut f = b.finish();
        f.name = "main".to_string();
        m.add_function(f);
        let r = run_main(&m, u64::MAX);
        assert_eq!(r, Err(Trap::StackOverflow));
    }

    #[test]
    fn globals_affect_checksum() {
        let mut m = Module::new("t");
        let g = m.add_global(Global::zeroed("out", Type::I32, 4));
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let p = b.gep(Value::Global(g), Value::i32(2));
        b.store(p, Value::i32(99));
        b.ret(None);
        m.add_function(b.finish());
        let t1 = run_main(&m, 1000).unwrap();

        let mut m2 = Module::new("t");
        m2.add_global(Global::zeroed("out", Type::I32, 4));
        let mut b2 = FunctionBuilder::new("main", vec![], Type::Void);
        b2.ret(None);
        m2.add_function(b2.finish());
        let t2 = run_main(&m2, 1000).unwrap();

        assert_ne!(t1.memory_checksum, t2.memory_checksum);
    }

    #[test]
    fn switch_dispatch() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let c1 = b.new_block();
        let c2 = b.new_block();
        let dflt = b.new_block();
        b.switch(Value::i32(2), dflt, vec![(1, c1), (2, c2)]);
        b.switch_to(c1);
        b.ret(Some(Value::i32(10)));
        b.switch_to(c2);
        b.ret(Some(Value::i32(20)));
        b.switch_to(dflt);
        b.ret(Some(Value::i32(30)));
        let t = run_main(&module_with(b.finish()), 1000).unwrap();
        assert_eq!(t.return_value, Some(20));
    }

    #[test]
    fn null_pointer_access_is_benign() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let null = b.cast(crate::inst::CastOp::BitCast, Type::Ptr, Value::i64(0));
        b.store(null, Value::i32(5));
        let v = b.load(Type::I32, null);
        b.ret(Some(v));
        let t = run_main(&module_with(b.finish()), 1000).unwrap();
        assert_eq!(t.return_value, Some(0));
    }

    #[test]
    fn unreachable_errors() {
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        b.unreachable();
        let r = run_main(&module_with(b.finish()), 1000);
        assert_eq!(r, Err(Trap::ReachedUnreachable));
    }

    #[test]
    fn alloca_frames_are_released() {
        // A function with a big alloca called in a loop must not leak memory
        // across calls (frame truncation on return).
        let mut m = Module::new("t");
        let callee = FuncId::from_index(0);
        let mut b = FunctionBuilder::new("work", vec![], Type::I32);
        let buf = b.alloca(Type::I32, 64);
        b.store(buf, Value::i32(1));
        let v = b.load(Type::I32, buf);
        b.ret(Some(v));
        assert_eq!(m.add_function(b.finish()), callee);

        let mut mb = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = mb.alloca(Type::I32, 1);
        mb.store(acc, Value::i32(0));
        mb.counted_loop(Value::i32(100), |b, _| {
            let r = b.call(callee, Type::I32, vec![]);
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, r);
            b.store(acc, n);
        });
        let out = mb.load(Type::I32, acc);
        mb.ret(Some(out));
        m.add_function(mb.finish());
        let t = run_main(&m, 1_000_000).unwrap();
        assert_eq!(t.return_value, Some(100));
    }
}
