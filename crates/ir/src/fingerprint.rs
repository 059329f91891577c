//! Content fingerprints for functions, globals, and modules.
//!
//! These are the shared primitives behind every content-addressed cache
//! in the workspace: the evaluation cache and the daemon's store key off
//! [`fingerprint_module`], the HLS per-function schedule cache off a
//! function's fingerprint, so they agree by construction.
//!
//! A function's fingerprint hashes its printed form — the printer
//! includes attributes precisely because they are semantic state. It is a
//! fact of the function's version ([`Facts::fingerprint`]): computed at
//! most once per version and thread, and shared by every clone of the
//! module that holds that version. A global's fingerprint hashes its
//! structural content directly (the printed form elides initializer
//! values); globals are few and small, so they are hashed on every call.
//! A module's fingerprint is an order-sensitive combination of its name,
//! per-slot global fingerprints, and per-slot function fingerprints, so a
//! module a pass rewrote in one function costs one function hash.
//!
//! [`Facts::fingerprint`]: crate::facts::Facts::fingerprint

use crate::facts;
use crate::function::Function;
use crate::module::{FuncId, Global, GlobalId, Module};
use crate::printer::write_function;
use std::fmt;

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    h.feed(bytes);
    h.0
}

/// FNV-1a state as a text sink: the printer streams a function's bytes
/// into it, so hashing a function allocates nothing.
struct Fnv1a(u64);

impl Fnv1a {
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.feed(s.as_bytes());
        Ok(())
    }
}

/// SplitMix64 finalizer — a strong 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fingerprint of one function's full content: the FNV-1a of its printed
/// form (signature, attributes and body), streamed from the printer
/// without building the text.
pub fn fingerprint_function(f: &Function) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    // The hash sink never fails.
    let _ = write_function(&mut h, f);
    h.0
}

/// Fingerprint of one global's content. Hashes the structural fields
/// directly — unlike the printed form, this sees initializer *values*,
/// so constant-folding a global never aliases two distinct states.
pub fn fingerprint_global(g: &Global) -> u64 {
    let mut h = fnv1a(g.name.as_bytes());
    h = mix64(h ^ g.elem_ty.bits() as u64);
    h = mix64(h ^ g.count as u64);
    h = mix64(h ^ g.is_const as u64);
    for &v in &g.init {
        h = mix64(h ^ v as u64);
    }
    h
}

/// Order-sensitive fold of per-slot fingerprints into one value.
///
/// Empty slots contribute a fixed sentinel so `[Some(a), None]` and
/// `[None, Some(a)]` differ — slot position is semantic (ids are
/// indices).
pub fn combine_slots(seed: u64, slots: impl Iterator<Item = Option<u64>>) -> u64 {
    let mut h = mix64(seed);
    for s in slots {
        h = mix64(h ^ s.unwrap_or(0xDEAD_5107_DEAD_5107));
    }
    h
}

/// Fingerprint of a module's current state, defined as the combination
/// of its name, per-slot global fingerprints, and per-slot function
/// fingerprints, each function's read from its version's facts.
pub fn fingerprint_module(m: &Module) -> u64 {
    let name_fp = fnv1a(m.name.as_bytes());
    let globals_fp = combine_slots(
        0x610B_A150_610B_A150,
        (0..m.global_capacity()).map(|i| {
            m.global_arc(GlobalId::from_index(i))
                .map(|g| fingerprint_global(g))
        }),
    );
    let funcs_fp = combine_slots(
        0xF07C_F07C_F07C_F07C,
        (0..m.func_capacity()).map(|i| {
            m.func_arc(FuncId::from_index(i))
                .map(|f| facts::of(f).fingerprint())
        }),
    );
    mix64(name_fp ^ mix64(globals_fp ^ mix64(funcs_fp)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Type;
    use crate::value::Value;

    fn sample() -> Module {
        let mut m = Module::new("t");
        m.add_global(Global::constant("tbl", Type::I32, vec![1, 2, 3]));
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        b.ret(Some(Value::i32(0)));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn stable_across_clones() {
        let m = sample();
        assert_eq!(fingerprint_module(&m), fingerprint_module(&m.clone()));
        assert_eq!(fingerprint_module(&m), fingerprint_module(&m.deep_clone()));
    }

    #[test]
    fn global_init_values_distinguish() {
        let mut a = Module::new("t");
        a.add_global(Global::constant("tbl", Type::I32, vec![1, 2, 3]));
        let mut b = Module::new("t");
        b.add_global(Global::constant("tbl", Type::I32, vec![1, 2, 4]));
        assert_ne!(fingerprint_module(&a), fingerprint_module(&b));
    }

    #[test]
    fn slot_position_is_semantic() {
        let f = |name: &str| {
            let mut b = FunctionBuilder::new(name, vec![], Type::Void);
            b.ret(None);
            b.finish()
        };
        let mut a = Module::new("t");
        let ai = a.add_function(f("x"));
        a.add_function(f("main"));
        a.remove_function(ai);
        let mut b = Module::new("t");
        b.add_function(f("main"));
        let bi = b.add_function(f("x"));
        b.remove_function(bi);
        // Both hold just "main", but in different slots.
        assert_ne!(fingerprint_module(&a), fingerprint_module(&b));
    }

    #[test]
    fn function_fingerprint_hashes_the_printed_text() {
        let m = sample();
        let f = m.func(m.main().unwrap());
        let text = crate::printer::print_function(f);
        assert_eq!(fingerprint_function(f), fnv1a(text.as_bytes()));
    }

    #[test]
    fn function_change_changes_fingerprint() {
        let m = sample();
        let mut m2 = m.clone();
        let main = m2.main().unwrap();
        m2.func_mut(main).name = "main2".to_string();
        assert_ne!(fingerprint_module(&m), fingerprint_module(&m2));
    }
}
