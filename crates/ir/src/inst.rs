//! Instructions: opcodes, operands, and terminator queries.

use crate::function::BlockId;
use crate::module::FuncId;
use crate::types::Type;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Integer binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (`x/0 == 0`; `MIN/-1` wraps).
    SDiv,
    /// Unsigned division (`x/0 == 0`).
    UDiv,
    /// Signed remainder (`x%0 == 0`).
    SRem,
    /// Unsigned remainder (`x%0 == 0`).
    URem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Left shift (amount masked to the bit width).
    Shl,
    /// Logical right shift (amount masked).
    LShr,
    /// Arithmetic right shift (amount masked).
    AShr,
}

impl BinOp {
    /// All binary operators, in a stable order.
    pub const ALL: [BinOp; 13] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::SDiv,
        BinOp::UDiv,
        BinOp::SRem,
        BinOp::URem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::LShr,
        BinOp::AShr,
    ];

    /// True if `a op b == b op a`.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// True if `(a op b) op c == a op (b op c)`.
    pub fn is_associative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// Mnemonic used by the printer.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::UDiv => "udiv",
            BinOp::SRem => "srem",
            BinOp::URem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
        }
    }
}

/// Integer comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned greater-or-equal.
    Uge,
}

impl CmpPred {
    /// All predicates, in a stable order.
    pub const ALL: [CmpPred; 10] = [
        CmpPred::Eq,
        CmpPred::Ne,
        CmpPred::Slt,
        CmpPred::Sle,
        CmpPred::Sgt,
        CmpPred::Sge,
        CmpPred::Ult,
        CmpPred::Ule,
        CmpPred::Ugt,
        CmpPred::Uge,
    ];

    /// The predicate with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> CmpPred {
        match self {
            CmpPred::Eq => CmpPred::Eq,
            CmpPred::Ne => CmpPred::Ne,
            CmpPred::Slt => CmpPred::Sgt,
            CmpPred::Sle => CmpPred::Sge,
            CmpPred::Sgt => CmpPred::Slt,
            CmpPred::Sge => CmpPred::Sle,
            CmpPred::Ult => CmpPred::Ugt,
            CmpPred::Ule => CmpPred::Uge,
            CmpPred::Ugt => CmpPred::Ult,
            CmpPred::Uge => CmpPred::Ule,
        }
    }

    /// The negated predicate (`!(a < b)` ⇔ `a >= b`).
    pub fn inverse(self) -> CmpPred {
        match self {
            CmpPred::Eq => CmpPred::Ne,
            CmpPred::Ne => CmpPred::Eq,
            CmpPred::Slt => CmpPred::Sge,
            CmpPred::Sle => CmpPred::Sgt,
            CmpPred::Sgt => CmpPred::Sle,
            CmpPred::Sge => CmpPred::Slt,
            CmpPred::Ult => CmpPred::Uge,
            CmpPred::Ule => CmpPred::Ugt,
            CmpPred::Ugt => CmpPred::Ule,
            CmpPred::Uge => CmpPred::Ult,
        }
    }

    /// Mnemonic used by the printer.
    pub fn name(self) -> &'static str {
        match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Slt => "slt",
            CmpPred::Sle => "sle",
            CmpPred::Sgt => "sgt",
            CmpPred::Sge => "sge",
            CmpPred::Ult => "ult",
            CmpPred::Ule => "ule",
            CmpPred::Ugt => "ugt",
            CmpPred::Uge => "uge",
        }
    }
}

/// Integer/pointer conversion operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CastOp {
    /// Truncate to a narrower integer type.
    Trunc,
    /// Zero-extend to a wider integer type.
    ZExt,
    /// Sign-extend to a wider integer type.
    SExt,
    /// Reinterpret bits (int ↔ ptr of the same role in our flat memory).
    BitCast,
}

impl CastOp {
    /// Mnemonic used by the printer.
    pub fn name(self) -> &'static str {
        match self {
            CastOp::Trunc => "trunc",
            CastOp::ZExt => "zext",
            CastOp::SExt => "sext",
            CastOp::BitCast => "bitcast",
        }
    }
}

/// The operation an [`Inst`] performs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Opcode {
    /// Two-operand integer arithmetic/logic.
    Binary(BinOp, Value, Value),
    /// Integer comparison producing `i1`.
    ICmp(CmpPred, Value, Value),
    /// `cond ? tval : fval`.
    Select {
        /// The `i1` selector.
        cond: Value,
        /// Value when `cond` is true.
        tval: Value,
        /// Value when `cond` is false.
        fval: Value,
    },
    /// SSA φ-node; one incoming value per predecessor block.
    Phi {
        /// `(predecessor, value)` pairs, one per incoming edge.
        incoming: Vec<(BlockId, Value)>,
    },
    /// Stack allocation of `count` elements of `elem_ty`; yields a pointer.
    Alloca {
        /// Element type.
        elem_ty: Type,
        /// Number of elements.
        count: u32,
    },
    /// Load a value of the instruction's result type from `ptr`.
    Load {
        /// Address to read.
        ptr: Value,
    },
    /// Store `value` to `ptr`.
    Store {
        /// Address to write.
        ptr: Value,
        /// Value being stored.
        value: Value,
    },
    /// Element pointer: `ptr + index` in units of the pointee element.
    Gep {
        /// Base pointer.
        ptr: Value,
        /// Element index.
        index: Value,
    },
    /// Conversion.
    Cast(CastOp, Value),
    /// Direct call to a function in the same module.
    Call {
        /// The callee.
        callee: FuncId,
        /// Argument values, one per parameter.
        args: Vec<Value>,
    },
    /// Unconditional branch.
    Br {
        /// Destination block.
        target: BlockId,
    },
    /// Two-way conditional branch on an `i1`.
    CondBr {
        /// The `i1` condition.
        cond: Value,
        /// Destination when true.
        then_bb: BlockId,
        /// Destination when false.
        else_bb: BlockId,
    },
    /// Multi-way branch on an integer.
    Switch {
        /// The scrutinee.
        value: Value,
        /// Destination when no case matches.
        default: BlockId,
        /// `(case value, destination)` pairs.
        cases: Vec<(i64, BlockId)>,
    },
    /// Return from the function.
    Ret {
        /// Returned value (`None` for `void` functions).
        value: Option<Value>,
    },
    /// Marks an unreachable point; executing it ends the program.
    Unreachable,
}

/// A single instruction. Its identity is its [`crate::InstId`] inside a function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Inst {
    /// Result type (`Void` for stores and terminators).
    pub ty: Type,
    /// The operation.
    pub op: Opcode,
}

impl Inst {
    /// Create an instruction.
    pub fn new(ty: Type, op: Opcode) -> Inst {
        Inst { ty, op }
    }

    /// True if this opcode ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self.op,
            Opcode::Br { .. }
                | Opcode::CondBr { .. }
                | Opcode::Switch { .. }
                | Opcode::Ret { .. }
                | Opcode::Unreachable
        )
    }

    /// True for φ-nodes.
    pub fn is_phi(&self) -> bool {
        matches!(self.op, Opcode::Phi { .. })
    }

    /// True if the instruction reads memory.
    pub fn reads_memory(&self) -> bool {
        matches!(self.op, Opcode::Load { .. } | Opcode::Call { .. })
    }

    /// True if the instruction writes memory.
    pub fn writes_memory(&self) -> bool {
        matches!(self.op, Opcode::Store { .. } | Opcode::Call { .. })
    }

    /// All value operands, in order.
    pub fn operands(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.for_each_operand(|v| out.push(v));
        out
    }

    /// Visit each value operand.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match &self.op {
            Opcode::Binary(_, a, b) | Opcode::ICmp(_, a, b) => {
                f(*a);
                f(*b);
            }
            Opcode::Select { cond, tval, fval } => {
                f(*cond);
                f(*tval);
                f(*fval);
            }
            Opcode::Phi { incoming } => {
                for (_, v) in incoming {
                    f(*v);
                }
            }
            Opcode::Alloca { .. } => {}
            Opcode::Load { ptr } => f(*ptr),
            Opcode::Store { ptr, value } => {
                f(*ptr);
                f(*value);
            }
            Opcode::Gep { ptr, index } => {
                f(*ptr);
                f(*index);
            }
            Opcode::Cast(_, v) => f(*v),
            Opcode::Call { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            Opcode::Br { .. } => {}
            Opcode::CondBr { cond, .. } => f(*cond),
            Opcode::Switch { value, .. } => f(*value),
            Opcode::Ret { value } => {
                if let Some(v) = value {
                    f(*v);
                }
            }
            Opcode::Unreachable => {}
        }
    }

    /// Visit each value operand mutably (used for use-replacement).
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match &mut self.op {
            Opcode::Binary(_, a, b) | Opcode::ICmp(_, a, b) => {
                f(a);
                f(b);
            }
            Opcode::Select { cond, tval, fval } => {
                f(cond);
                f(tval);
                f(fval);
            }
            Opcode::Phi { incoming } => {
                for (_, v) in incoming {
                    f(v);
                }
            }
            Opcode::Alloca { .. } => {}
            Opcode::Load { ptr } => f(ptr),
            Opcode::Store { ptr, value } => {
                f(ptr);
                f(value);
            }
            Opcode::Gep { ptr, index } => {
                f(ptr);
                f(index);
            }
            Opcode::Cast(_, v) => f(v),
            Opcode::Call { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Opcode::Br { .. } => {}
            Opcode::CondBr { cond, .. } => f(cond),
            Opcode::Switch { value, .. } => f(value),
            Opcode::Ret { value } => {
                if let Some(v) = value {
                    f(v);
                }
            }
            Opcode::Unreachable => {}
        }
    }

    /// Successor blocks if this is a terminator (empty otherwise).
    pub fn successors(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.for_each_successor(|b| out.push(b));
        out
    }

    /// Visit each successor block id in order, without allocating.
    pub fn for_each_successor(&self, mut f: impl FnMut(BlockId)) {
        match &self.op {
            Opcode::Br { target } => f(*target),
            Opcode::CondBr {
                then_bb, else_bb, ..
            } => {
                f(*then_bb);
                f(*else_bb);
            }
            Opcode::Switch { default, cases, .. } => {
                f(*default);
                for (_, b) in cases {
                    f(*b);
                }
            }
            _ => {}
        }
    }

    /// Visit each successor block id mutably (used for CFG edits).
    pub fn for_each_successor_mut(&mut self, mut f: impl FnMut(&mut BlockId)) {
        match &mut self.op {
            Opcode::Br { target } => f(target),
            Opcode::CondBr {
                then_bb, else_bb, ..
            } => {
                f(then_bb);
                f(else_bb);
            }
            Opcode::Switch { default, cases, .. } => {
                f(default);
                for (_, b) in cases {
                    f(b);
                }
            }
            _ => {}
        }
    }

    /// Replace every operand equal to `from` with `to`. Returns the number
    /// of replacements.
    pub fn replace_uses(&mut self, from: Value, to: Value) -> usize {
        let mut n = 0;
        self.for_each_operand_mut(|v| {
            if *v == from {
                *v = to;
                n += 1;
            }
        });
        n
    }

    /// A short mnemonic for statistics and display.
    pub fn mnemonic(&self) -> &'static str {
        match &self.op {
            Opcode::Binary(op, ..) => op.name(),
            Opcode::ICmp(..) => "icmp",
            Opcode::Select { .. } => "select",
            Opcode::Phi { .. } => "phi",
            Opcode::Alloca { .. } => "alloca",
            Opcode::Load { .. } => "load",
            Opcode::Store { .. } => "store",
            Opcode::Gep { .. } => "getelementptr",
            Opcode::Cast(op, _) => op.name(),
            Opcode::Call { .. } => "call",
            Opcode::Br { .. } => "br",
            Opcode::CondBr { .. } => "br",
            Opcode::Switch { .. } => "switch",
            Opcode::Ret { .. } => "ret",
            Opcode::Unreachable => "unreachable",
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.mnemonic(), self.ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutativity() {
        assert!(BinOp::Add.is_commutative());
        assert!(BinOp::Xor.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Shl.is_commutative());
        assert!(BinOp::Mul.is_associative());
        assert!(!BinOp::SDiv.is_associative());
    }

    #[test]
    fn pred_swap_inverse_roundtrip() {
        for p in CmpPred::ALL {
            assert_eq!(p.swapped().swapped(), p);
            assert_eq!(p.inverse().inverse(), p);
        }
        assert_eq!(CmpPred::Slt.swapped(), CmpPred::Sgt);
        assert_eq!(CmpPred::Slt.inverse(), CmpPred::Sge);
    }

    #[test]
    fn terminator_queries() {
        let ret = Inst::new(Type::Void, Opcode::Ret { value: None });
        assert!(ret.is_terminator());
        assert!(ret.successors().is_empty());

        let br = Inst::new(
            Type::Void,
            Opcode::CondBr {
                cond: Value::TRUE,
                then_bb: BlockId::from_index(1),
                else_bb: BlockId::from_index(2),
            },
        );
        assert_eq!(
            br.successors(),
            vec![BlockId::from_index(1), BlockId::from_index(2)]
        );
    }

    #[test]
    fn operand_iteration_and_replacement() {
        let a = Value::Arg(0);
        let b = Value::i32(3);
        let mut add = Inst::new(Type::I32, Opcode::Binary(BinOp::Add, a, a));
        assert_eq!(add.operands(), vec![a, a]);
        assert_eq!(add.replace_uses(a, b), 2);
        assert_eq!(add.operands(), vec![b, b]);
    }

    #[test]
    fn memory_queries() {
        let load = Inst::new(Type::I32, Opcode::Load { ptr: Value::Arg(0) });
        assert!(load.reads_memory());
        assert!(!load.writes_memory());

        let store = Inst::new(
            Type::Void,
            Opcode::Store {
                ptr: Value::Arg(0),
                value: Value::i32(1),
            },
        );
        assert!(store.writes_memory());
    }

    #[test]
    fn switch_successors() {
        let sw = Inst::new(
            Type::Void,
            Opcode::Switch {
                value: Value::Arg(0),
                default: BlockId::from_index(0),
                cases: vec![(1, BlockId::from_index(1)), (2, BlockId::from_index(2))],
            },
        );
        assert_eq!(sw.successors().len(), 3);
    }
}
