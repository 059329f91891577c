//! Textual form of modules and functions (LLVM-flavoured): the one
//! statement of the text syntax that [`crate::parser::parse_module`]
//! inverts.
//!
//! Everything here writes through [`fmt::Write`] straight into the caller's
//! sink: [`print_module`] and [`print_function`] into one `String`,
//! [`crate::fingerprint::fingerprint_function`] into an FNV-1a state, and
//! `Display for Value` / `Display for Type` into a `Formatter`. There is no
//! `format!` and no intermediate string: `put!` writes a sequence of
//! pieces, and integers go through one small digit writer.

use crate::function::{BlockId, Function};
use crate::inst::Opcode;
use crate::module::Module;
use crate::types::Type;
use crate::value::Value;
use std::fmt::{self, Write};

/// Write each piece into `w` in turn, as a format string would:
/// `put!(w, "icmp ", pred.name(), ' ', x, ", ", y)`.
macro_rules! put {
    ($w:expr $(, $piece:expr)* $(,)?) => {{
        $( Piece::write_to($piece, $w)?; )*
        Ok::<(), fmt::Error>(())
    }};
}

/// Something the text syntax writes in one step.
pub(crate) trait Piece {
    fn write_to<W: Write>(self, w: &mut W) -> fmt::Result;
}

impl Piece for &str {
    fn write_to<W: Write>(self, w: &mut W) -> fmt::Result {
        w.write_str(self)
    }
}

impl Piece for char {
    fn write_to<W: Write>(self, w: &mut W) -> fmt::Result {
        w.write_char(self)
    }
}

impl Piece for usize {
    fn write_to<W: Write>(self, w: &mut W) -> fmt::Result {
        write_u64(w, self as u64)
    }
}

impl Piece for u32 {
    fn write_to<W: Write>(self, w: &mut W) -> fmt::Result {
        write_u64(w, u64::from(self))
    }
}

impl Piece for i64 {
    fn write_to<W: Write>(self, w: &mut W) -> fmt::Result {
        if self < 0 {
            w.write_char('-')?;
        }
        write_u64(w, self.unsigned_abs())
    }
}

/// `b<index>`.
impl Piece for BlockId {
    fn write_to<W: Write>(self, w: &mut W) -> fmt::Result {
        put!(w, 'b', self.index())
    }
}

/// A type's name. `Display for Type` is this.
impl Piece for Type {
    fn write_to<W: Write>(self, w: &mut W) -> fmt::Result {
        w.write_str(match self {
            Type::Void => "void",
            Type::I1 => "i1",
            Type::I8 => "i8",
            Type::I16 => "i16",
            Type::I32 => "i32",
            Type::I64 => "i64",
            Type::Ptr => "ptr",
        })
    }
}

/// An operand: `%<id>`, `%arg<i>`, `<ty> <int>`, `@g<slot>` or
/// `<ty> undef`. `Display for Value` is this.
impl Piece for Value {
    fn write_to<W: Write>(self, w: &mut W) -> fmt::Result {
        match self {
            Value::Inst(id) => put!(w, '%', id.index()),
            Value::Arg(i) => put!(w, "%arg", i),
            Value::ConstInt(ty, c) => put!(w, ty, ' ', c),
            Value::Global(g) => put!(w, "@g", g.index()),
            Value::Undef(ty) => put!(w, ty, " undef"),
        }
    }
}

/// Render a whole module.
///
/// The output is a complete, lossless description of the module: global
/// initializer values are printed (`zeroinit` or `[v, v, ...]`) and every
/// function is preceded by a `; f<slot>` comment recording its arena slot,
/// so [`crate::parser::parse_module`] can reconstruct sparse arenas (call
/// operands reference functions by slot index).
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write_module(&mut out, m);
    out
}

/// Render one function.
pub fn print_function(f: &Function) -> String {
    let mut out = String::new();
    let _ = write_function(&mut out, f);
    out
}

fn write_module<W: Write>(w: &mut W, m: &Module) -> fmt::Result {
    put!(w, "; module ", m.name.as_str(), '\n')?;
    for gid in m.global_ids() {
        let g = m.global(gid);
        let kind = if g.is_const {
            " = const "
        } else {
            " = global "
        };
        put!(w, "@g", gid.index(), kind, g.count, " x ", g.elem_ty)?;
        if g.init.is_empty() {
            put!(w, " zeroinit")?;
        } else {
            for (i, &v) in g.init.iter().enumerate() {
                put!(w, if i > 0 { ", " } else { " [" }, v)?;
            }
            put!(w, ']')?;
        }
        put!(w, " ; ", g.name.as_str(), '\n')?;
    }
    for fid in m.func_ids() {
        put!(w, "\n; f", fid.index(), '\n')?;
        write_function(w, m.func(fid))?;
    }
    Ok(())
}

/// Write one function's text into `w`: what [`print_function`] returns and
/// what a function fingerprint hashes.
pub(crate) fn write_function<W: Write>(w: &mut W, f: &Function) -> fmt::Result {
    put!(w, "define ", f.ret_ty, " @", f.name.as_str(), '(')?;
    for (i, &t) in f.params.iter().enumerate() {
        put!(w, if i > 0 { ", " } else { "" }, t, " %arg", i)?;
    }
    put!(w, ')')?;
    // Attributes are semantic state (passes consult them), so they must
    // be visible in the printed form: the evaluation cache fingerprints
    // modules by their text, and an attribute-only change that printed
    // identically would alias two genuinely different modules.
    for (set, name) in [
        (f.attrs.readnone, " readnone"),
        (f.attrs.readonly, " readonly"),
        (f.attrs.internal, " internal"),
        (f.attrs.always_inline, " alwaysinline"),
        (f.attrs.outlined, " outlined"),
    ] {
        if set {
            put!(w, name)?;
        }
    }
    put!(w, " {\n")?;
    for bb in f.block_ids() {
        put!(w, bb, ":\n")?;
        for (id, inst) in f.insts_in(bb) {
            if inst.ty.is_void() {
                put!(w, "  ")?;
            } else {
                put!(w, "  %", id.index(), " = ", inst.ty, ' ')?;
            }
            write_opcode(w, &inst.op)?;
            put!(w, '\n')?;
        }
    }
    put!(w, "}\n")
}

fn write_opcode<W: Write>(w: &mut W, op: &Opcode) -> fmt::Result {
    match *op {
        Opcode::Binary(b, x, y) => put!(w, b.name(), ' ', x, ", ", y),
        Opcode::ICmp(p, x, y) => put!(w, "icmp ", p.name(), ' ', x, ", ", y),
        Opcode::Select { cond, tval, fval } => {
            put!(w, "select ", cond, ", ", tval, ", ", fval)
        }
        Opcode::Phi { ref incoming } => {
            put!(w, "phi ")?;
            for (i, &(bb, v)) in incoming.iter().enumerate() {
                put!(w, if i > 0 { ", [" } else { "[" }, v, ", ", bb, ']')?;
            }
            Ok(())
        }
        Opcode::Alloca { elem_ty, count } => put!(w, "alloca ", count, " x ", elem_ty),
        Opcode::Load { ptr } => put!(w, "load ", ptr),
        Opcode::Store { ptr, value } => put!(w, "store ", value, ", ", ptr),
        Opcode::Gep { ptr, index } => put!(w, "getelementptr ", ptr, ", ", index),
        Opcode::Cast(c, v) => put!(w, c.name(), ' ', v),
        Opcode::Call { callee, ref args } => {
            put!(w, "call @f", callee.index(), '(')?;
            for (i, &a) in args.iter().enumerate() {
                put!(w, if i > 0 { ", " } else { "" }, a)?;
            }
            put!(w, ')')
        }
        Opcode::Br { target } => put!(w, "br ", target),
        Opcode::CondBr {
            cond,
            then_bb,
            else_bb,
        } => put!(w, "br ", cond, ", ", then_bb, ", ", else_bb),
        Opcode::Switch {
            value,
            default,
            ref cases,
        } => {
            put!(w, "switch ", value, ", default ", default, " [")?;
            for (i, &(c, bb)) in cases.iter().enumerate() {
                put!(w, if i > 0 { ", " } else { "" }, c, " -> ", bb)?;
            }
            put!(w, ']')
        }
        Opcode::Ret { value: Some(v) } => put!(w, "ret ", v),
        Opcode::Ret { value: None } => put!(w, "ret void"),
        Opcode::Unreachable => put!(w, "unreachable"),
    }
}

/// Decimal digits of `n`, as `Display for u64` writes them.
fn write_u64<W: Write>(w: &mut W, mut n: u64) -> fmt::Result {
    if n < 10 {
        return w.write_char(char::from(b'0' + n as u8));
    }
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while n > 0 {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    w.write_str(std::str::from_utf8(&buf[at..]).map_err(|_| fmt::Error)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, CmpPred};
    use crate::module::Global;

    #[test]
    fn prints_function_with_all_shapes() {
        let mut m = Module::new("demo");
        let g = m.add_global(Global::constant("tbl", Type::I32, vec![1, 2]));
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(10));
        b.cond_br(c, t, e);
        b.switch_to(t);
        let p = b.gep(Value::Global(g), Value::i32(1));
        let v = b.load(Type::I32, p);
        b.br(j);
        b.switch_to(e);
        let w = b.binary(BinOp::Add, b.arg(0), Value::i32(1));
        b.br(j);
        b.switch_to(j);
        let phi = b.phi(Type::I32, vec![(t, v), (e, w)]);
        b.ret(Some(phi));
        m.add_function(b.finish());

        let text = print_module(&m);
        assert!(text.contains("define i32 @main"));
        assert!(text.contains("icmp slt"));
        assert!(text.contains("phi"));
        assert!(text.contains("getelementptr"));
        assert!(text.contains("@g0 = const 2 x i32 [1, 2] ; tbl"));
        assert!(text.contains("; f0\ndefine"));
        // Every live block is printed.
        for i in 0..4 {
            assert!(text.contains(&format!("b{i}:")), "missing block b{i}");
        }
    }

    #[test]
    fn void_instructions_have_no_result() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let a = b.alloca(Type::I32, 1);
        b.store(a, Value::i32(1));
        b.ret(None);
        let text = print_function(&b.finish());
        assert!(text.contains("store i32 1"));
        assert!(text.contains("ret void"));
        assert!(!text.contains("= void"));
    }

    #[test]
    fn digit_writer_matches_display() {
        let mut cases: Vec<i64> = vec![0, 1, 9, 10, 99, 100, -1, -10, i64::MIN, i64::MAX];
        cases.extend((0..64).map(|k| 1i64 << k));
        for n in cases {
            let mut s = String::new();
            n.write_to(&mut s).unwrap();
            assert_eq!(s, n.to_string());
        }
        let mut s = String::new();
        write_u64(&mut s, u64::MAX).unwrap();
        assert_eq!(s, u64::MAX.to_string());
    }
}
