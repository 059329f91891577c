//! The 56-feature extractor (Table 2 of the paper).

use autophase_ir::cfg::Cfg;
use autophase_ir::{BinOp, CastOp, FuncId, Module, Opcode, Value};

/// Number of features (Table 2: indices 0–55).
pub const NUM_FEATURES: usize = 56;

/// A feature vector, indexed exactly as Table 2.
pub type FeatureVector = [i64; NUM_FEATURES];

/// Human-readable names, in Table-2 order.
pub fn feature_names() -> [&'static str; NUM_FEATURES] {
    [
        "Number of BB where total args for phi nodes > 5",
        "Number of BB where total args for phi nodes is [1,5]",
        "Number of BB's with 1 predecessor",
        "Number of BB's with 1 predecessor and 1 successor",
        "Number of BB's with 1 predecessor and 2 successors",
        "Number of BB's with 1 successor",
        "Number of BB's with 2 predecessors",
        "Number of BB's with 2 predecessors and 1 successor",
        "Number of BB's with 2 predecessors and successors",
        "Number of BB's with 2 successors",
        "Number of BB's with >2 predecessors",
        "Number of BB's with Phi node # in range (0,3]",
        "Number of BB's with more than 3 Phi nodes",
        "Number of BB's with no Phi nodes",
        "Number of Phi-nodes at beginning of BB",
        "Number of branches",
        "Number of calls that return an int",
        "Number of critical edges",
        "Number of edges",
        "Number of occurrences of 32-bit integer constants",
        "Number of occurrences of 64-bit integer constants",
        "Number of occurrences of constant 0",
        "Number of occurrences of constant 1",
        "Number of unconditional branches",
        "Number of Binary operations with a constant operand",
        "Number of AShr insts",
        "Number of Add insts",
        "Number of Alloca insts",
        "Number of And insts",
        "Number of BB's with instructions between [15,500]",
        "Number of BB's with less than 15 instructions",
        "Number of BitCast insts",
        "Number of Br insts",
        "Number of Call insts",
        "Number of GetElementPtr insts",
        "Number of ICmp insts",
        "Number of LShr insts",
        "Number of Load insts",
        "Number of Mul insts",
        "Number of Or insts",
        "Number of PHI insts",
        "Number of Ret insts",
        "Number of SExt insts",
        "Number of Select insts",
        "Number of Shl insts",
        "Number of Store insts",
        "Number of Sub insts",
        "Number of Trunc insts",
        "Number of Xor insts",
        "Number of ZExt insts",
        "Number of basic blocks",
        "Number of instructions (of all types)",
        "Number of memory instructions",
        "Number of non-external functions",
        "Total arguments to Phi nodes",
        "Number of Unary operations",
    ]
}

/// Extract the Table-2 feature vector from a module.
///
/// Defined as the element-wise sum of [`extract_function`] over all live
/// functions — the identity the incremental extractor
/// ([`crate::incremental::IncrementalFeatures`]) relies on.
pub fn extract(m: &Module) -> FeatureVector {
    let mut f = [0i64; NUM_FEATURES];
    for fid in m.func_ids() {
        accumulate(&mut f, &extract_function(m, fid));
    }
    f
}

/// Add `src` into `dst` element-wise.
pub fn accumulate(dst: &mut FeatureVector, src: &FeatureVector) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d += s;
    }
}

/// Subtract `src` from `dst` element-wise.
pub fn subtract(dst: &mut FeatureVector, src: &FeatureVector) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d -= s;
    }
}

// ---- vectorized (tally-based) instruction counting ----
//
// Instead of bumping up to four scattered `f[...]` slots per instruction
// through a 20-arm match, each instruction is classified once into a
// compact opcode class; a block tallies classes into a dense counter
// array (the "chunk"), and the chunk is scattered to feature indices in
// one pass over a constant class→features table. Exact integer counts —
// bit-identical to [`extract_function_reference`], which the
// `extract_diff` suite pins.

/// Compact opcode classes — one per distinct Table-2 counting behavior.
#[derive(Clone, Copy)]
#[repr(usize)]
enum OpClass {
    AShr = 0,
    Add,
    And,
    LShr,
    Mul,
    Or,
    Shl,
    Sub,
    Xor,
    OtherBin,
    ICmp,
    Select,
    Phi,
    Alloca,
    Load,
    Store,
    Gep,
    BitCast,
    SExt,
    Trunc,
    ZExt,
    CallInt,
    CallOther,
    Br,
    CondBr,
    Switch,
    Ret,
    Unreachable,
}

const NUM_OP_CLASSES: usize = OpClass::Unreachable as usize + 1;

/// Feature indices each class contributes one count to. Covers the plain
/// per-instruction counters (25–49), the aggregates (15 branches,
/// 23 unconditional, 32 Br insts, 33 calls, 16 int-returning calls,
/// 41 rets, 52 memory, 55 unary); φ-arg and constant-operand features
/// need operand payloads and are tallied separately.
const CLASS_FEATURES: [&[usize]; NUM_OP_CLASSES] = [
    &[25],         // AShr
    &[26],         // Add
    &[28],         // And
    &[36],         // LShr
    &[38],         // Mul
    &[39],         // Or
    &[44],         // Shl
    &[46],         // Sub
    &[48],         // Xor
    &[],           // other binary ops
    &[35],         // ICmp
    &[43],         // Select
    &[40],         // Phi
    &[27],         // Alloca
    &[37, 52, 55], // Load (memory, unary)
    &[45, 52],     // Store (memory)
    &[34],         // Gep
    &[31, 55],     // BitCast (unary)
    &[42, 55],     // SExt (unary)
    &[47, 55],     // Trunc (unary)
    &[49, 55],     // ZExt (unary)
    &[33, 16],     // Call returning int
    &[33],         // other Call
    &[15, 23, 32], // Br (branch, unconditional, Br inst)
    &[15, 32],     // CondBr (branch, Br inst)
    &[15],         // Switch (branch)
    &[41],         // Ret
    &[],           // Unreachable
];

#[inline]
fn classify(m: &Module, op: &Opcode) -> OpClass {
    match op {
        Opcode::Binary(op, ..) => match op {
            BinOp::AShr => OpClass::AShr,
            BinOp::Add => OpClass::Add,
            BinOp::And => OpClass::And,
            BinOp::LShr => OpClass::LShr,
            BinOp::Mul => OpClass::Mul,
            BinOp::Or => OpClass::Or,
            BinOp::Shl => OpClass::Shl,
            BinOp::Sub => OpClass::Sub,
            BinOp::Xor => OpClass::Xor,
            _ => OpClass::OtherBin,
        },
        Opcode::ICmp(..) => OpClass::ICmp,
        Opcode::Select { .. } => OpClass::Select,
        Opcode::Phi { .. } => OpClass::Phi,
        Opcode::Alloca { .. } => OpClass::Alloca,
        Opcode::Load { .. } => OpClass::Load,
        Opcode::Store { .. } => OpClass::Store,
        Opcode::Gep { .. } => OpClass::Gep,
        Opcode::Cast(op, _) => match op {
            CastOp::BitCast => OpClass::BitCast,
            CastOp::SExt => OpClass::SExt,
            CastOp::Trunc => OpClass::Trunc,
            CastOp::ZExt => OpClass::ZExt,
        },
        Opcode::Call { callee, .. } => {
            if m.func_exists(*callee) && m.func(*callee).ret_ty.is_int() {
                OpClass::CallInt
            } else {
                OpClass::CallOther
            }
        }
        Opcode::Br { .. } => OpClass::Br,
        Opcode::CondBr { .. } => OpClass::CondBr,
        Opcode::Switch { .. } => OpClass::Switch,
        Opcode::Ret { .. } => OpClass::Ret,
        Opcode::Unreachable => OpClass::Unreachable,
    }
}

/// One function's contribution to the module feature vector.
///
/// Almost every feature is function-local; the exception is feature 16
/// ("calls that return an int"), which consults the *callee's* return
/// type — so a function's vector is only stable while no callee
/// signature changes (the incremental extractor rebuilds from scratch on
/// any signature or structural change).
pub fn extract_function(m: &Module, fid: FuncId) -> FeatureVector {
    let mut f = [0i64; NUM_FEATURES];
    let func = m.func(fid);
    let facts = m.facts(fid);
    let cfg = facts.cfg();
    f[53] += 1; // non-external functions (all our functions have bodies)
    f[17] += cfg.critical_edges().len() as i64;
    f[18] += cfg.num_edges() as i64;

    for bb in func.block_ids() {
        f[50] += 1; // basic blocks
        let preds = cfg.preds(bb).len();
        let succs = cfg.succs(bb).len();

        // Phase 1: tally the block's instructions by class, plus the
        // operand-payload counters no class count can carry.
        let mut counts = [0i64; NUM_OP_CLASSES];
        let mut inst_count = 0i64;
        let mut phi_args = 0i64;
        let mut bin_const = 0i64;
        let mut const_i32 = 0i64;
        let mut const_i64 = 0i64;
        let mut const_zero = 0i64;
        let mut const_one = 0i64;
        for (_, inst) in func.insts_in(bb) {
            inst_count += 1;
            counts[classify(m, &inst.op) as usize] += 1;
            match &inst.op {
                Opcode::Binary(_, a, b) if a.is_const() || b.is_const() => bin_const += 1,
                Opcode::Phi { incoming } => phi_args += incoming.len() as i64,
                _ => {}
            }
            inst.for_each_operand(|v| {
                if let Value::ConstInt(ty, c) = v {
                    match ty {
                        autophase_ir::Type::I32 => const_i32 += 1,
                        autophase_ir::Type::I64 => const_i64 += 1,
                        _ => {}
                    }
                    if c == 0 {
                        const_zero += 1;
                    } else if v.is_one() {
                        const_one += 1;
                    }
                }
            });
        }

        // Phase 2: scatter the chunk to feature indices.
        for (cls, &cnt) in counts.iter().enumerate() {
            if cnt != 0 {
                for &fi in CLASS_FEATURES[cls] {
                    f[fi] += cnt;
                }
            }
        }
        f[51] += inst_count;
        f[54] += phi_args;
        f[24] += bin_const;
        f[19] += const_i32;
        f[20] += const_i64;
        f[21] += const_zero;
        f[22] += const_one;

        // Block-shape features.
        let phi_count = counts[OpClass::Phi as usize];
        if phi_args > 5 {
            f[0] += 1;
        } else if phi_args >= 1 {
            f[1] += 1;
        }
        if preds == 1 {
            f[2] += 1;
            if succs == 1 {
                f[3] += 1;
            }
            if succs == 2 {
                f[4] += 1;
            }
        }
        if succs == 1 {
            f[5] += 1;
        }
        if preds == 2 {
            f[6] += 1;
            if succs == 1 {
                f[7] += 1;
            }
            if succs == 2 {
                f[8] += 1;
            }
        }
        if succs == 2 {
            f[9] += 1;
        }
        if preds > 2 {
            f[10] += 1;
        }
        if phi_count == 0 {
            f[13] += 1;
        } else if phi_count <= 3 {
            f[11] += 1;
        } else {
            f[12] += 1;
        }
        f[14] += phi_count;
        if (15..=500).contains(&inst_count) {
            f[29] += 1;
        } else if inst_count < 15 {
            f[30] += 1;
        }
    }
    f
}

/// The original per-instruction match-dispatch extractor, kept verbatim
/// as the differential reference for the tally-based
/// [`extract_function`] (see `tests/extract_diff.rs`).
#[doc(hidden)]
pub fn extract_function_reference(m: &Module, fid: FuncId) -> FeatureVector {
    let mut f = [0i64; NUM_FEATURES];
    {
        let func = m.func(fid);
        let cfg = Cfg::new(func);
        f[53] += 1; // non-external functions (all our functions have bodies)
        f[17] += cfg.critical_edges().len() as i64;
        f[18] += cfg.num_edges() as i64;

        for bb in func.block_ids() {
            f[50] += 1; // basic blocks
            let preds = cfg.preds(bb).len();
            let succs = cfg.succs(bb).len();
            let mut phi_count = 0i64;
            let mut phi_args = 0i64;
            let mut inst_count = 0i64;

            for (_, inst) in func.insts_in(bb) {
                inst_count += 1;
                f[51] += 1;
                match &inst.op {
                    Opcode::Binary(op, a, b) => {
                        if a.is_const() || b.is_const() {
                            f[24] += 1;
                        }
                        match op {
                            BinOp::AShr => f[25] += 1,
                            BinOp::Add => f[26] += 1,
                            BinOp::And => f[28] += 1,
                            BinOp::LShr => f[36] += 1,
                            BinOp::Mul => f[38] += 1,
                            BinOp::Or => f[39] += 1,
                            BinOp::Shl => f[44] += 1,
                            BinOp::Sub => f[46] += 1,
                            BinOp::Xor => f[48] += 1,
                            _ => {}
                        }
                    }
                    Opcode::ICmp(..) => f[35] += 1,
                    Opcode::Select { .. } => f[43] += 1,
                    Opcode::Phi { incoming } => {
                        f[40] += 1;
                        phi_count += 1;
                        phi_args += incoming.len() as i64;
                        f[54] += incoming.len() as i64;
                    }
                    Opcode::Alloca { .. } => f[27] += 1,
                    Opcode::Load { .. } => {
                        f[37] += 1;
                        f[52] += 1;
                    }
                    Opcode::Store { .. } => {
                        f[45] += 1;
                        f[52] += 1;
                    }
                    Opcode::Gep { .. } => f[34] += 1,
                    Opcode::Cast(op, _) => match op {
                        CastOp::BitCast => f[31] += 1,
                        CastOp::SExt => f[42] += 1,
                        CastOp::Trunc => f[47] += 1,
                        CastOp::ZExt => f[49] += 1,
                    },
                    Opcode::Call { callee, .. } => {
                        f[33] += 1;
                        if m.func_exists(*callee) && m.func(*callee).ret_ty.is_int() {
                            f[16] += 1;
                        }
                    }
                    Opcode::Br { .. } => {
                        f[15] += 1;
                        f[23] += 1;
                        f[32] += 1;
                    }
                    Opcode::CondBr { .. } => {
                        f[15] += 1;
                        f[32] += 1;
                    }
                    Opcode::Switch { .. } => f[15] += 1,
                    Opcode::Ret { .. } => f[41] += 1,
                    Opcode::Unreachable => {}
                }
                // Unary operations: single-operand value computations.
                if matches!(inst.op, Opcode::Cast(..) | Opcode::Load { .. }) {
                    f[55] += 1;
                }
                // Constant occurrences.
                inst.for_each_operand(|v| {
                    if let Value::ConstInt(ty, c) = v {
                        match ty {
                            autophase_ir::Type::I32 => f[19] += 1,
                            autophase_ir::Type::I64 => f[20] += 1,
                            _ => {}
                        }
                        if c == 0 {
                            f[21] += 1;
                        } else if v.is_one() {
                            f[22] += 1;
                        }
                    }
                });
            }

            // Block-shape features.
            if phi_args > 5 {
                f[0] += 1;
            } else if phi_args >= 1 {
                f[1] += 1;
            }
            if preds == 1 {
                f[2] += 1;
                if succs == 1 {
                    f[3] += 1;
                }
                if succs == 2 {
                    f[4] += 1;
                }
            }
            if succs == 1 {
                f[5] += 1;
            }
            if preds == 2 {
                f[6] += 1;
                if succs == 1 {
                    f[7] += 1;
                }
                if succs == 2 {
                    f[8] += 1;
                }
            }
            if succs == 2 {
                f[9] += 1;
            }
            if preds > 2 {
                f[10] += 1;
            }
            if phi_count == 0 {
                f[13] += 1;
            } else if phi_count <= 3 {
                f[11] += 1;
            } else {
                f[12] += 1;
            }
            f[14] += phi_count;
            if (15..=500).contains(&inst_count) {
                f[29] += 1;
            } else if inst_count < 15 {
                f[30] += 1;
            }
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::{CmpPred, Type};

    fn diamond_module() -> Module {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(1));
        b.br(j);
        b.switch_to(e);
        let y = b.binary(BinOp::Sub, b.arg(0), Value::i32(1));
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I32, vec![(t, x), (e, y)]);
        b.ret(Some(p));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn diamond_features() {
        let f = extract(&diamond_module());
        assert_eq!(f[50], 4); // blocks
        assert_eq!(f[18], 4); // edges
        assert_eq!(f[17], 0); // no critical edges
        assert_eq!(f[15], 3); // branches (condbr + 2 br)
        assert_eq!(f[23], 2); // unconditional
        assert_eq!(f[32], 3); // Br insts (cond + uncond)
        assert_eq!(f[40], 1); // phi
        assert_eq!(f[54], 2); // phi args
        assert_eq!(f[1], 1); // BB with phi args in [1,5]
        assert_eq!(f[26], 1); // Add
        assert_eq!(f[46], 1); // Sub
        assert_eq!(f[35], 1); // ICmp
        assert_eq!(f[41], 1); // Ret
        assert_eq!(f[9], 1); // entry has 2 successors
        assert_eq!(f[6], 1); // join has 2 preds
        assert_eq!(f[53], 1); // one function
        assert_eq!(f[24], 2); // binary ops with const operand: add, sub
        assert_eq!(f[51], 8); // total instructions
    }

    #[test]
    fn constant_counting() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::I64);
        let a = b.binary_ty(Type::I64, BinOp::Add, Value::i64(0), Value::i64(1));
        let c = b.binary_ty(Type::I64, BinOp::Mul, a, Value::i64(5));
        b.ret(Some(c));
        m.add_function(b.finish());
        let f = extract(&m);
        assert_eq!(f[20], 3); // three i64 constants
        assert_eq!(f[19], 0); // no i32 constants
        assert_eq!(f[21], 1); // one zero
        assert_eq!(f[22], 1); // one one
    }

    #[test]
    fn memory_and_alloca_features() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 4);
        let q = b.gep(p, Value::i32(1));
        b.store(q, Value::i32(7));
        let v = b.load(Type::I32, q);
        b.ret(Some(v));
        m.add_function(b.finish());
        let f = extract(&m);
        assert_eq!(f[27], 1); // alloca
        assert_eq!(f[34], 1); // gep
        assert_eq!(f[37], 1); // load
        assert_eq!(f[45], 1); // store
        assert_eq!(f[52], 2); // memory insts
    }

    #[test]
    fn mem2reg_changes_feature_profile() {
        // The φ/alloca trade-off the paper's RL agent observes.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(Value::i32(5), |b, i| {
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, i);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        m.add_function(b.finish());
        let before = extract(&m);
        autophase_passes::mem2reg::run(&mut m);
        let after = extract(&m);
        assert!(before[27] > after[27]); // allocas gone
        assert!(before[52] > after[52]); // memory ops gone
        assert!(after[40] > before[40]); // φs appeared
    }

    #[test]
    fn int_returning_call_counted() {
        let mut m = Module::new("t");
        let cv = {
            let mut b = FunctionBuilder::new("voidf", vec![], Type::Void);
            b.ret(None);
            m.add_function(b.finish())
        };
        let ci = {
            let mut b = FunctionBuilder::new("intf", vec![], Type::I32);
            b.ret(Some(Value::i32(1)));
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        b.call(cv, Type::Void, vec![]);
        let r = b.call(ci, Type::I32, vec![]);
        b.ret(Some(r));
        m.add_function(b.finish());
        let f = extract(&m);
        assert_eq!(f[33], 2); // calls
        assert_eq!(f[16], 1); // int-returning calls
        assert_eq!(f[53], 3); // functions
    }

    #[test]
    fn names_cover_all_features() {
        let names = feature_names();
        assert_eq!(names.len(), NUM_FEATURES);
        let mut uniq: Vec<&str> = names.to_vec();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), NUM_FEATURES);
    }

    #[test]
    fn critical_edge_feature() {
        // entry -> {a, join}, a -> join: one critical edge.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::Void);
        let a = b.new_block();
        let join = b.new_block();
        let c = b.icmp(CmpPred::Eq, b.arg(0), Value::i32(0));
        b.cond_br(c, a, join);
        b.switch_to(a);
        b.br(join);
        b.switch_to(join);
        b.ret(None);
        m.add_function(b.finish());
        assert_eq!(extract(&m)[17], 1);
    }
}
