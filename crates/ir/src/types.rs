//! Scalar and pointer types.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The type of an IR value.
///
/// The IR is integer-only (the CHStone-style HLS kernels the paper evaluates
/// are integer codecs). Pointers are untyped addresses into the flat memory
/// the interpreter models; the pointee element width lives on the producing
/// `Alloca`/`Global`/`Gep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Type {
    /// No value (function with no return, `Store`, terminators).
    Void,
    /// 1-bit boolean (comparison results, branch conditions).
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// Pointer into the flat address space.
    Ptr,
}

impl Type {
    /// Bit width of an integer type.
    ///
    /// # Panics
    ///
    /// Panics if the type is `Void` or `Ptr`.
    pub fn bits(self) -> u32 {
        match self {
            Type::I1 => 1,
            Type::I8 => 8,
            Type::I16 => 16,
            Type::I32 => 32,
            Type::I64 => 64,
            Type::Void | Type::Ptr => panic!("bits() on non-integer type {self}"),
        }
    }

    /// True for `I1`..`I64`.
    pub fn is_int(self) -> bool {
        matches!(
            self,
            Type::I1 | Type::I8 | Type::I16 | Type::I32 | Type::I64
        )
    }

    /// True for `Void`.
    pub fn is_void(self) -> bool {
        matches!(self, Type::Void)
    }

    /// Wrap a value to this integer type's range, sign-extended to `i64`.
    ///
    /// This is the canonical "store into a register of this width" op used
    /// by the interpreter and constant folder, so both agree on semantics.
    ///
    /// # Panics
    ///
    /// Panics if the type is not an integer type.
    pub fn wrap(self, v: i64) -> i64 {
        let bits = self.bits();
        if bits == 64 {
            return v;
        }
        let shift = 64 - bits;
        (v << shift) >> shift
    }

    /// Zero-extend interpretation of `v` as this integer type.
    ///
    /// # Panics
    ///
    /// Panics if the type is not an integer type.
    pub fn zext(self, v: i64) -> i64 {
        let bits = self.bits();
        if bits == 64 {
            return v;
        }
        v & ((1i64 << bits) - 1)
    }

    /// The integer type with the next smaller width, if any.
    pub fn narrower(self) -> Option<Type> {
        match self {
            Type::I64 => Some(Type::I32),
            Type::I32 => Some(Type::I16),
            Type::I16 => Some(Type::I8),
            Type::I8 => Some(Type::I1),
            _ => None,
        }
    }
}

/// The type's name, as the printer writes it.
impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::printer::Piece::write_to(*self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_sign_extends() {
        assert_eq!(Type::I8.wrap(255), -1);
        assert_eq!(Type::I8.wrap(127), 127);
        assert_eq!(Type::I8.wrap(128), -128);
        assert_eq!(Type::I16.wrap(65_535), -1);
        assert_eq!(Type::I32.wrap(u32::MAX as i64), -1);
        assert_eq!(Type::I64.wrap(-5), -5);
        assert_eq!(Type::I1.wrap(1), -1); // i1 "true" is all-ones when sign-extended
        assert_eq!(Type::I1.wrap(2), 0);
    }

    #[test]
    fn zext_masks() {
        assert_eq!(Type::I8.zext(-1), 255);
        assert_eq!(Type::I1.zext(-1), 1);
        assert_eq!(Type::I32.zext(-1), u32::MAX as i64);
        assert_eq!(Type::I64.zext(-1), -1);
    }

    #[test]
    fn bits_and_predicates() {
        assert_eq!(Type::I32.bits(), 32);
        assert!(Type::I1.is_int());
        assert!(!Type::Ptr.is_int());
        assert!(Type::Void.is_void());
    }

    #[test]
    fn display_names() {
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::Ptr.to_string(), "ptr");
        assert_eq!(Type::Void.to_string(), "void");
    }

    #[test]
    #[should_panic]
    fn bits_panics_on_void() {
        let _ = Type::Void.bits();
    }

    #[test]
    fn narrower_chain() {
        assert_eq!(Type::I64.narrower(), Some(Type::I32));
        assert_eq!(Type::I1.narrower(), None);
        assert_eq!(Type::Ptr.narrower(), None);
    }
}
