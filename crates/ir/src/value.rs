//! SSA values: instruction results, arguments, constants, and globals.

use crate::function::InstId;
use crate::module::GlobalId;
use crate::types::Type;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An operand of an instruction.
///
/// The derived ordering carries no meaning; it exists so commutative
/// operand pairs can be put in a canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Value {
    /// Result of an instruction in the same function.
    Inst(InstId),
    /// Function argument by index.
    Arg(u32),
    /// Integer constant of the given type (stored sign-extended).
    ConstInt(Type, i64),
    /// Address of a global variable.
    Global(GlobalId),
    /// An unspecified value of the given type (reads as zero).
    Undef(Type),
}

impl Value {
    /// Integer constant `true` (`i1 1`).
    pub const TRUE: Value = Value::ConstInt(Type::I1, -1);
    /// Integer constant `false` (`i1 0`).
    pub const FALSE: Value = Value::ConstInt(Type::I1, 0);

    /// Build an `i32` constant.
    pub fn i32(v: i32) -> Value {
        Value::ConstInt(Type::I32, v as i64)
    }

    /// Build an `i64` constant.
    pub fn i64(v: i64) -> Value {
        Value::ConstInt(Type::I64, v)
    }

    /// Build an `i1` constant from a bool.
    pub fn bool(v: bool) -> Value {
        if v {
            Value::TRUE
        } else {
            Value::FALSE
        }
    }

    /// Build an integer constant of `ty`, wrapped to the type's range.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not an integer type.
    pub fn const_int(ty: Type, v: i64) -> Value {
        Value::ConstInt(ty, ty.wrap(v))
    }

    /// The constant integer payload, if this is a `ConstInt`.
    pub fn as_const_int(self) -> Option<i64> {
        match self {
            Value::ConstInt(_, v) => Some(v),
            _ => None,
        }
    }

    /// True if this is any constant (including `Undef` and globals' addresses).
    pub fn is_const(self) -> bool {
        matches!(
            self,
            Value::ConstInt(..) | Value::Global(_) | Value::Undef(_)
        )
    }

    /// True if this value is the integer constant zero.
    pub fn is_zero(self) -> bool {
        matches!(self, Value::ConstInt(_, 0))
    }

    /// True if this value is an all-ones / `true` / `1`-like constant for
    /// its type (sign-extended representation `-1`, or `1` for wider ints).
    pub fn is_one(self) -> bool {
        match self {
            Value::ConstInt(Type::I1, v) => v != 0,
            Value::ConstInt(_, 1) => true,
            _ => false,
        }
    }
}

/// The operand's text syntax, as the printer writes it.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::printer::Piece::write_to(*self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_int_wraps() {
        assert_eq!(
            Value::const_int(Type::I8, 300),
            Value::ConstInt(Type::I8, 44)
        );
        assert_eq!(
            Value::const_int(Type::I8, 255),
            Value::ConstInt(Type::I8, -1)
        );
    }

    #[test]
    fn bool_consts() {
        assert!(Value::bool(true).is_one());
        assert!(Value::bool(false).is_zero());
        assert_eq!(Value::TRUE.as_const_int(), Some(-1));
    }

    #[test]
    fn predicates() {
        assert!(Value::i32(0).is_zero());
        assert!(Value::i32(1).is_one());
        assert!(!Value::i32(2).is_one());
        assert!(Value::i64(7).is_const());
        assert!(!Value::Arg(0).is_const());
        assert!(Value::Undef(Type::I32).is_const());
    }

    #[test]
    fn display() {
        assert_eq!(Value::i32(42).to_string(), "i32 42");
        assert_eq!(Value::Arg(1).to_string(), "%arg1");
    }
}
