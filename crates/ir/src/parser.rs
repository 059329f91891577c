//! Textual IR parser — the inverse of [`crate::printer::print_module`].
//!
//! The serve layer accepts modules over the wire in the printed textual
//! form, so this parser is written to be total on untrusted input: every
//! malformed construct becomes a [`ParseError`] (never a panic), arena
//! indices are capped ([`MAX_INDEX`]), and the total arena capacity
//! reconstructed across all functions shares one module-wide budget
//! ([`MAX_MODULE_SLOTS`]) so hostile text cannot force huge allocations —
//! neither with one giant index nor with many functions each claiming a
//! large sparse arena.
//!
//! # Fidelity
//!
//! `parse_module(print_module(m))` reconstructs a module whose printed form
//! is byte-identical to the input, which also makes its function
//! fingerprints identical (they hash the printed text). Arena slots of
//! *printed* entities (globals, functions via the `; f<slot>` comments,
//! blocks via their labels, value-producing instructions via `%<id>`) are
//! preserved exactly, including tombstones between them. Void instructions
//! (stores, branches, returns) carry no printed id, so they are re-assigned
//! fresh arena slots above the highest printed id; nothing observes those
//! slots — the printer never shows them and fingerprints hash text.
//!
//! # One pass
//!
//! The text is read once, line by line as `str::lines` splits it (so a
//! CRLF text parses as its LF form), with no line vector. Separators are
//! found by a byte scan (`split`) rather than a substring searcher set
//! up per call, mnemonics dispatch through one `match`, and a function's
//! parsed instructions are moved into its arena, which is allocated once
//! at its final size. Numbers parse as `usize::from_str` / `i64::from_str`
//! parse them, so a leading `+` is accepted as it always was.
//!
//! Parsing is purely syntactic: semantic well-formedness (terminators,
//! SSA dominance, call arity) is the job of [`crate::verify::verify_module`],
//! which is total on any module this parser produces.

use crate::function::{Block, BlockId, FuncAttrs, Function, InstId};
use crate::inst::{BinOp, CastOp, CmpPred, Inst, Opcode};
use crate::module::{FuncId, Global, GlobalId, Module};
use crate::types::Type;
use crate::value::Value;
use std::fmt;

/// Upper bound on any arena index appearing in the text (instruction ids,
/// block labels, global/function slots) and on global element counts.
/// Real modules sit far below this; the cap exists so a one-line hostile
/// request cannot make the parser allocate gigabytes of tombstones.
pub const MAX_INDEX: usize = 1 << 20;

/// Module-wide cap on the total number of function arena slots (live
/// entities plus tombstones) the parser will reconstruct, summed across
/// every function's block and instruction arenas. [`MAX_INDEX`] bounds
/// each *individual* index, but each function claims its own arenas — so
/// without a shared budget, a module of many one-line functions each
/// labeled `b1048575` would allocate `MAX_INDEX` slots *per function*,
/// amplifying a few hundred bytes of hostile text into tens of millions
/// of slots. Real printed modules use at most a handful of slots per line
/// of text, so legitimate input never gets near this.
pub const MAX_MODULE_SLOTS: usize = MAX_INDEX;

/// A syntax error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number the error was detected on.
    pub line: usize,
    /// Description of the problem.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// What the parser's steps return: the error is boxed so a step's result
/// stays small enough to come back in registers.
type Parsed<T> = Result<T, Box<ParseError>>;

#[cold]
fn err<T>(line: usize, msg: impl Into<String>) -> Parsed<T> {
    Err(Box::new(ParseError {
        line,
        msg: msg.into(),
    }))
}

/// `s` around the first occurrence of `pat`, as `str::split_once(pat)`
/// splits it. Every `pat` is a non-empty ASCII literal, so both halves end
/// on char boundaries; a byte scan for its first byte replaces the
/// searcher `str` would set up per call.
#[inline]
fn split<'a>(s: &'a str, pat: &str) -> Option<(&'a str, &'a str)> {
    let (b, p) = (s.as_bytes(), pat.as_bytes());
    if let [only] = *p {
        let at = find_byte(b, only)?;
        return Some((&s[..at], &s[at + 1..]));
    }
    let mut from = 0;
    while let Some(i) = find_byte(&b[from..], p[0]) {
        let at = from + i;
        if b[at..].starts_with(p) {
            return Some((&s[..at], &s[at + p.len()..]));
        }
        from = at + 1;
    }
    None
}

/// Index of the first `x` in `hay`, eight bytes per step.
#[inline]
fn find_byte(hay: &[u8], x: u8) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let (words, tail) = hay.as_chunks::<8>();
    for (k, word) in words.iter().enumerate() {
        let w = u64::from_le_bytes(*word) ^ (ONES * u64::from(x));
        // The lowest flagged byte is the first zero byte of `w`.
        let zero = w.wrapping_sub(ONES) & !w & HIGH;
        if zero != 0 {
            return Some(8 * k + zero.trailing_zeros() as usize / 8);
        }
    }
    let at = 8 * words.len();
    tail.iter().position(|&c| c == x).map(|i| at + i)
}

/// The pieces of `s` between occurrences of `sep`, as `str::split(sep)`
/// yields them.
fn pieces<'a>(s: &'a str, sep: &'static str) -> impl Iterator<Item = &'a str> {
    let mut rest = Some(s);
    std::iter::from_fn(move || {
        let s = rest?;
        Some(match split(s, sep) {
            Some((piece, tail)) => {
                rest = Some(tail);
                piece
            }
            None => {
                rest = None;
                s
            }
        })
    })
}

/// The value of `b` if it is one to eighteen ASCII digits, which fits
/// every integer type the text uses; anything else goes to `str::parse`.
#[inline]
fn plain_digits(b: &[u8]) -> Option<u64> {
    if b.is_empty() || b.len() > 18 {
        return None;
    }
    let mut n = 0u64;
    for &d in b {
        let digit = d.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        n = n * 10 + u64::from(digit);
    }
    Some(n)
}

/// `s.parse::<usize>().ok()`.
#[inline]
fn parse_usize(s: &str) -> Option<usize> {
    match plain_digits(s.as_bytes()) {
        Some(n) => usize::try_from(n).ok(),
        None => s.parse().ok(),
    }
}

/// `s.parse::<i64>().ok()`.
#[inline]
fn parse_i64(s: &str) -> Option<i64> {
    let (neg, digits) = match s.strip_prefix('-') {
        Some(d) => (true, d),
        None => (false, s),
    };
    match plain_digits(digits.as_bytes()) {
        Some(n) if neg => Some(-(n as i64)),
        Some(n) => Some(n as i64),
        None => s.parse().ok(),
    }
}

#[inline]
fn parse_index(line: usize, s: &str, what: &str) -> Parsed<usize> {
    match parse_usize(s) {
        Some(n) if n <= MAX_INDEX => Ok(n),
        Some(_) => err(line, format!("{what} index {s} exceeds limit")),
        None => err(line, format!("invalid {what} index `{s}`")),
    }
}

#[inline]
fn parse_ty(line: usize, s: &str) -> Parsed<Type> {
    match s {
        "void" => Ok(Type::Void),
        "i1" => Ok(Type::I1),
        "i8" => Ok(Type::I8),
        "i16" => Ok(Type::I16),
        "i32" => Ok(Type::I32),
        "i64" => Ok(Type::I64),
        "ptr" => Ok(Type::Ptr),
        _ => err(line, format!("unknown type `{s}`")),
    }
}

#[inline]
fn parse_value(line: usize, s: &str) -> Parsed<Value> {
    match s.as_bytes().first() {
        Some(b'%') => {
            if let Some(rest) = s.strip_prefix("%arg") {
                let i = parse_index(line, rest, "argument")?;
                return Ok(Value::Arg(i as u32));
            }
            let i = parse_index(line, &s[1..], "instruction")?;
            return Ok(Value::Inst(InstId::from_index(i)));
        }
        Some(b'@') => {
            if let Some(rest) = s.strip_prefix("@g") {
                let i = parse_index(line, rest, "global")?;
                return Ok(Value::Global(GlobalId::from_index(i)));
            }
        }
        _ => {}
    }
    let (ty_s, payload) = match split(s, " ") {
        Some(p) => p,
        None => return err(line, format!("malformed value `{s}`")),
    };
    let ty = parse_ty(line, ty_s)?;
    if payload == "undef" {
        return Ok(Value::Undef(ty));
    }
    match parse_i64(payload) {
        Some(v) => Ok(Value::ConstInt(ty, v)),
        None => err(line, format!("malformed constant `{s}`")),
    }
}

#[inline]
fn parse_block_ref(line: usize, s: &str) -> Parsed<BlockId> {
    match s.strip_prefix('b') {
        Some(rest) => Ok(BlockId::from_index(parse_index(line, rest, "block")?)),
        None => err(line, format!("expected block reference, got `{s}`")),
    }
}

#[inline]
fn split2<'a>(line: usize, s: &'a str, ctx: &str) -> Parsed<(&'a str, &'a str)> {
    match split(s, ", ") {
        Some(p) => Ok(p),
        None => err(line, format!("expected two operands in `{ctx}`")),
    }
}

fn cmp_pred(s: &str) -> Option<CmpPred> {
    Some(match s {
        "eq" => CmpPred::Eq,
        "ne" => CmpPred::Ne,
        "slt" => CmpPred::Slt,
        "sle" => CmpPred::Sle,
        "sgt" => CmpPred::Sgt,
        "sge" => CmpPred::Sge,
        "ult" => CmpPred::Ult,
        "ule" => CmpPred::Ule,
        "ugt" => CmpPred::Ugt,
        "uge" => CmpPred::Uge,
        _ => return None,
    })
}

/// Parse an opcode body (everything after `%id = <ty> ` or the line itself
/// for void instructions).
fn parse_opcode(line: usize, body: &str) -> Parsed<Opcode> {
    let (mn, rest) = split(body, " ").unwrap_or((body, ""));
    let binary = |op| {
        let (a, b) = split2(line, rest, body)?;
        Ok(Opcode::Binary(
            op,
            parse_value(line, a)?,
            parse_value(line, b)?,
        ))
    };
    let cast = |op| Ok(Opcode::Cast(op, parse_value(line, rest)?));
    match mn {
        "add" => binary(BinOp::Add),
        "sub" => binary(BinOp::Sub),
        "mul" => binary(BinOp::Mul),
        "sdiv" => binary(BinOp::SDiv),
        "udiv" => binary(BinOp::UDiv),
        "srem" => binary(BinOp::SRem),
        "urem" => binary(BinOp::URem),
        "and" => binary(BinOp::And),
        "or" => binary(BinOp::Or),
        "xor" => binary(BinOp::Xor),
        "shl" => binary(BinOp::Shl),
        "lshr" => binary(BinOp::LShr),
        "ashr" => binary(BinOp::AShr),
        "trunc" => cast(CastOp::Trunc),
        "zext" => cast(CastOp::ZExt),
        "sext" => cast(CastOp::SExt),
        "bitcast" => cast(CastOp::BitCast),
        "icmp" => {
            let (pred_s, ops) = match split(rest, " ") {
                Some(p) => p,
                None => return err(line, "icmp needs a predicate and operands"),
            };
            let pred = match cmp_pred(pred_s) {
                Some(p) => p,
                None => return err(line, format!("unknown icmp predicate `{pred_s}`")),
            };
            let (a, b) = split2(line, ops, body)?;
            Ok(Opcode::ICmp(
                pred,
                parse_value(line, a)?,
                parse_value(line, b)?,
            ))
        }
        "select" => {
            let (c, rest) = split2(line, rest, body)?;
            let (t, f) = split2(line, rest, body)?;
            Ok(Opcode::Select {
                cond: parse_value(line, c)?,
                tval: parse_value(line, t)?,
                fval: parse_value(line, f)?,
            })
        }
        "phi" => {
            let mut incoming = Vec::new();
            let mut s = rest.trim_end();
            while !s.is_empty() {
                let open = match s.strip_prefix('[') {
                    Some(o) => o,
                    None => return err(line, format!("malformed phi incoming near `{s}`")),
                };
                let (group, tail) = match split(open, "]") {
                    Some(p) => p,
                    None => return err(line, "unterminated phi incoming group"),
                };
                let (v, bb) = split2(line, group, group)?;
                incoming.push((parse_block_ref(line, bb)?, parse_value(line, v)?));
                s = tail.strip_prefix(", ").unwrap_or(tail);
            }
            Ok(Opcode::Phi { incoming })
        }
        "alloca" => {
            let (count_s, ty_s) = match split(rest, " x ") {
                Some(p) => p,
                None => return err(line, "malformed alloca"),
            };
            let count = parse_index(line, count_s, "alloca count")? as u32;
            Ok(Opcode::Alloca {
                elem_ty: parse_ty(line, ty_s)?,
                count,
            })
        }
        "load" => Ok(Opcode::Load {
            ptr: parse_value(line, rest)?,
        }),
        "store" => {
            let (v, p) = split2(line, rest, body)?;
            Ok(Opcode::Store {
                ptr: parse_value(line, p)?,
                value: parse_value(line, v)?,
            })
        }
        "getelementptr" => {
            let (p, i) = split2(line, rest, body)?;
            Ok(Opcode::Gep {
                ptr: parse_value(line, p)?,
                index: parse_value(line, i)?,
            })
        }
        "call" => {
            let callee_args = match rest.strip_prefix("@f") {
                Some(r) => r,
                None => return err(line, "call must target @f<slot>"),
            };
            let (id_s, args_s) = match split(callee_args, "(") {
                Some(p) => p,
                None => return err(line, "malformed call"),
            };
            let args_s = match args_s.strip_suffix(')') {
                Some(a) => a,
                None => return err(line, "unterminated call argument list"),
            };
            let callee = FuncId::from_index(parse_index(line, id_s, "function")?);
            let mut args = Vec::new();
            if !args_s.is_empty() {
                for a in pieces(args_s, ", ") {
                    args.push(parse_value(line, a)?);
                }
            }
            Ok(Opcode::Call { callee, args })
        }
        "br" => {
            if let Some((c, rest)) = split(rest, ", ") {
                let (t, e) = split2(line, rest, body)?;
                Ok(Opcode::CondBr {
                    cond: parse_value(line, c)?,
                    then_bb: parse_block_ref(line, t)?,
                    else_bb: parse_block_ref(line, e)?,
                })
            } else {
                Ok(Opcode::Br {
                    target: parse_block_ref(line, rest)?,
                })
            }
        }
        "switch" => {
            let (v, rest) = match split(rest, ", default ") {
                Some(p) => p,
                None => return err(line, "malformed switch"),
            };
            let (def, cases_s) = match split(rest, " [") {
                Some(p) => p,
                None => return err(line, "switch missing case list"),
            };
            let cases_s = match cases_s.strip_suffix(']') {
                Some(c) => c,
                None => return err(line, "unterminated switch case list"),
            };
            let mut cases = Vec::new();
            if !cases_s.is_empty() {
                for c in pieces(cases_s, ", ") {
                    let (val, bb) = match split(c, " -> ") {
                        Some(p) => p,
                        None => return err(line, format!("malformed switch case `{c}`")),
                    };
                    let val = match parse_i64(val) {
                        Some(v) => v,
                        None => return err(line, format!("malformed case value `{val}`")),
                    };
                    cases.push((val, parse_block_ref(line, bb)?));
                }
            }
            Ok(Opcode::Switch {
                value: parse_value(line, v)?,
                default: parse_block_ref(line, def)?,
                cases,
            })
        }
        "ret" => {
            if rest == "void" {
                Ok(Opcode::Ret { value: None })
            } else {
                Ok(Opcode::Ret {
                    value: Some(parse_value(line, rest)?),
                })
            }
        }
        "unreachable" => Ok(Opcode::Unreachable),
        _ => err(line, format!("unknown instruction `{mn}`")),
    }
}

/// One parsed instruction line: its printed arena id (None for void
/// instructions, which print without a result) and the instruction.
struct ParsedInst {
    slot: Option<usize>,
    inst: Inst,
}

/// Parse one instruction line onto the end of the body.
fn parse_inst_line(line: usize, text: &str, body: &mut Body) -> Parsed<()> {
    let t = trim_start(text);
    let parsed = if t.starts_with('%') {
        let (lhs, rest) = match split(t, " = ") {
            Some(p) => p,
            None => return err(line, "instruction result without `=`"),
        };
        let slot = match lhs.strip_prefix('%') {
            Some(s) => parse_index(line, s, "instruction")?,
            None => return err(line, "malformed result name"),
        };
        let (ty_s, op) = match split(rest, " ") {
            Some(p) => p,
            None => return err(line, "instruction missing a type"),
        };
        let ty = parse_ty(line, ty_s)?;
        if ty.is_void() {
            return err(line, "void instruction cannot have a result");
        }
        body.max_slot = body.max_slot.max(Some(slot));
        ParsedInst {
            slot: Some(slot),
            inst: Inst::new(ty, parse_opcode(line, op)?),
        }
    } else {
        body.voids += 1;
        ParsedInst {
            slot: None,
            inst: Inst::new(Type::Void, parse_opcode(line, t)?),
        }
    };
    body.insts.push(parsed);
    Ok(())
}

/// `s.trim_start()`, without decoding chars through the usual run of
/// ASCII spaces.
fn trim_start(s: &str) -> &str {
    let rest = &s[s.bytes().take_while(|&b| b == b' ').count()..];
    match rest.as_bytes().first() {
        Some(&b) if !b.is_ascii() || char::from(b).is_whitespace() => rest.trim_start(),
        _ => rest,
    }
}

/// A parsed `define` line; `attrs` is the text after the parameter list.
struct Header<'a> {
    name: String,
    params: Vec<Type>,
    ret_ty: Type,
    attrs: &'a str,
}

/// Parse a `define` header: `define <ret> @<name>(<params>)<attrs> {`.
fn parse_header(line: usize, text: &str) -> Parsed<Header<'_>> {
    let rest = match text.strip_prefix("define ") {
        Some(r) => r,
        None => return err(line, "expected `define`"),
    };
    let rest = match rest.strip_suffix(" {") {
        Some(r) => r,
        None => return err(line, "function header must end in ` {`"),
    };
    let (ret_s, rest) = match split(rest, " @") {
        Some(p) => p,
        None => return err(line, "function header missing `@name`"),
    };
    let ret_ty = parse_ty(line, ret_s)?;
    let open = match rest.find('(') {
        Some(i) => i,
        None => return err(line, "function header missing `(`"),
    };
    let close = match rest.rfind(')') {
        Some(i) if i >= open => i,
        _ => return err(line, "function header missing `)`"),
    };
    let name = rest[..open].to_string();
    if name.is_empty() {
        return err(line, "empty function name");
    }
    let params_s = &rest[open + 1..close];
    let mut params = Vec::new();
    if !params_s.is_empty() {
        for (i, p) in pieces(params_s, ", ").enumerate() {
            let (ty_s, arg) = match split(p, " ") {
                Some(x) => x,
                None => return err(line, format!("malformed parameter `{p}`")),
            };
            if arg != format!("%arg{i}") {
                return err(line, format!("parameter {i} must be named %arg{i}"));
            }
            params.push(parse_ty(line, ty_s)?);
        }
    }
    Ok(Header {
        name,
        params,
        ret_ty,
        attrs: &rest[close + 1..],
    })
}

/// One function body as read: each block's label with the index of its
/// first instruction in `insts`, the highest printed id and the number of
/// void instructions. The module's functions share one.
struct Body {
    blocks: Vec<(usize, usize)>,
    insts: Vec<ParsedInst>,
    max_slot: Option<usize>,
    voids: usize,
}

/// Assemble a [`Function`] from its parsed header and body, reconstructing
/// the exact arena slots of printed entities, and empty the body for the
/// next function.
fn build_function(
    line: usize,
    header: Header<'_>,
    body: &mut Body,
    slot_budget: &mut usize,
) -> Parsed<Function> {
    let Header {
        name,
        params,
        ret_ty,
        attrs,
    } = header;
    if body.blocks.is_empty() {
        return err(line, format!("function @{name} has no blocks"));
    }
    let mut fattrs = FuncAttrs::default();
    for a in attrs.split_whitespace() {
        match a {
            "readnone" => fattrs.readnone = true,
            "readonly" => fattrs.readonly = true,
            "internal" => fattrs.internal = true,
            "alwaysinline" => fattrs.always_inline = true,
            "outlined" => fattrs.outlined = true,
            _ => return err(line, format!("unknown attribute `{a}`")),
        }
    }

    // Charge this function's arena capacities (live slots and tombstones
    // alike) against the module-wide budget *before* allocating anything,
    // so hostile input cannot amplify per-function: the whole module gets
    // [`MAX_MODULE_SLOTS`], not each function.
    let max_block = body.blocks.iter().map(|&(id, _)| id).max().unwrap_or(0);
    let printed = body.max_slot.map_or(0, |m| m + 1);
    let slots = (max_block + 1) + printed;
    if slots > *slot_budget {
        return err(
            line,
            format!("module exceeds the {MAX_MODULE_SLOTS}-slot arena budget at @{name}"),
        );
    }
    *slot_budget -= slots;

    // The block arena: live slots are exactly the printed labels; slots
    // between them are tombstones.
    let mut blocks: Vec<Option<Block>> = vec![None; max_block + 1];
    for &(id, _) in &body.blocks {
        if blocks[id].is_some() {
            return err(line, format!("duplicate block label b{id} in @{name}"));
        }
        blocks[id] = Some(Block::default());
    }

    // The instruction arena: printed `%id`s take their exact slots
    // (tombstones fill the gaps); void instructions are appended above the
    // highest printed id, in text order.
    let mut insts: Vec<Option<Inst>> = Vec::with_capacity(printed + body.voids);
    insts.resize_with(printed, || None);
    let ends = body.blocks.iter().skip(1).map(|&(_, start)| start);
    let ends = ends.chain(std::iter::once(body.insts.len()));
    let mut parsed = body.insts.drain(..);
    for (&(id, start), end) in body.blocks.iter().zip(ends) {
        let mut list = Vec::with_capacity(end - start);
        for p in parsed.by_ref().take(end - start) {
            let slot = match p.slot {
                Some(slot) if insts[slot].is_some() => {
                    return err(line, format!("duplicate instruction id %{slot} in @{name}"));
                }
                Some(slot) => {
                    insts[slot].get_or_insert(p.inst);
                    slot
                }
                None => {
                    insts.push(Some(p.inst));
                    insts.len() - 1
                }
            };
            list.push(InstId::from_index(slot));
        }
        blocks[id] = Some(Block { insts: list });
    }
    let entry = BlockId::from_index(body.blocks[0].0);
    body.blocks.clear();
    body.max_slot = None;
    body.voids = 0;
    let mut f = Function::from_arenas(name, params, ret_ty, blocks, insts, entry);
    f.attrs = fattrs;
    Ok(f)
}

fn parse_global_line(line: usize, text: &str) -> Parsed<(usize, Global)> {
    let rest = match text.strip_prefix("@g") {
        Some(r) => r,
        None => return err(line, "expected global definition"),
    };
    let (id_s, rest) = match split(rest, " = ") {
        Some(p) => p,
        None => return err(line, "global definition missing `=`"),
    };
    let slot = parse_index(line, id_s, "global")?;
    let (spec, name) = match split(rest, " ; ") {
        Some(p) => p,
        None => return err(line, "global definition missing `; <name>`"),
    };
    let (kind, spec) = match split(spec, " ") {
        Some(p) => p,
        None => return err(line, "malformed global"),
    };
    let is_const = match kind {
        "const" => true,
        "global" => false,
        _ => return err(line, format!("unknown global kind `{kind}`")),
    };
    let (count_s, spec) = match split(spec, " x ") {
        Some(p) => p,
        None => return err(line, "malformed global element count"),
    };
    let count = parse_index(line, count_s, "global count")? as u32;
    let (ty_s, init_s) = match split(spec, " ") {
        Some(p) => p,
        None => return err(line, "global missing initializer"),
    };
    let elem_ty = parse_ty(line, ty_s)?;
    let init = if init_s == "zeroinit" {
        Vec::new()
    } else {
        let inner = match init_s.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            Some(i) => i,
            None => return err(line, format!("malformed initializer `{init_s}`")),
        };
        let mut vals = Vec::new();
        if !inner.is_empty() {
            for v in pieces(inner, ", ") {
                match parse_i64(v) {
                    Some(x) => vals.push(x),
                    None => return err(line, format!("malformed initializer value `{v}`")),
                }
            }
        }
        if vals.len() > MAX_INDEX {
            return err(line, "initializer too long");
        }
        vals
    };
    Ok((
        slot,
        Global {
            name: name.to_string(),
            elem_ty,
            count,
            init,
            is_const,
        },
    ))
}

/// The text's lines as `str::lines` splits them, with 1-based numbers;
/// `read` is the number of the last line handed out.
struct Lines<'a> {
    rest: &'a str,
    read: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let b = self.rest.as_bytes();
        if b.is_empty() {
            return None;
        }
        let line = match find_byte(b, b'\n') {
            Some(i) => {
                let line = &self.rest[..i];
                self.rest = &self.rest[i + 1..];
                line.strip_suffix('\r').unwrap_or(line)
            }
            None => std::mem::take(&mut self.rest),
        };
        self.read += 1;
        Some((self.read, line))
    }
}

/// Parse the textual form produced by [`crate::printer::print_module`].
///
/// Purely syntactic — run [`crate::verify::verify_module`] on the result
/// before trusting it semantically.
///
/// # Errors
///
/// Returns the first syntax problem found, with its 1-based line number.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    parse(text).map_err(|e| *e)
}

fn parse(text: &str) -> Parsed<Module> {
    const HEADER: &str = "expected `; module <name>` header";
    let mut lines = Lines {
        rest: text,
        read: 0,
    };
    let name = loop {
        match lines.next() {
            Some((_, line)) if line.trim().is_empty() => {}
            Some((ln, line)) => match line.strip_prefix("; module ") {
                Some(n) => break n.to_string(),
                None => return err(ln, HEADER),
            },
            None => return err(lines.read + 1, HEADER),
        }
    };
    let mut m = Module::new(name);
    // Shared across all functions — see [`MAX_MODULE_SLOTS`].
    let mut slot_budget = MAX_MODULE_SLOTS;
    // Pending `; f<slot>` annotation for the next `define`.
    let mut pending_slot: Option<usize> = None;
    // Sized once from the text (an instruction line is longer than 16
    // bytes), so a function's instructions never regrow the buffer.
    let mut body = Body {
        blocks: Vec::new(),
        insts: Vec::with_capacity((text.len() / 16).min(MAX_MODULE_SLOTS)),
        max_slot: None,
        voids: 0,
    };
    while let Some((ln, line)) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        if line.starts_with("@g") {
            if pending_slot.is_some() {
                return err(ln, "global definition after `; f<slot>` annotation");
            }
            let (slot, g) = parse_global_line(ln, line)?;
            if slot < m.global_capacity() {
                return err(ln, format!("global slot g{slot} already used"));
            }
            while m.global_capacity() < slot {
                let id = m.add_global(Global::zeroed("", Type::I8, 0));
                m.remove_global(id);
            }
            m.add_global(g);
            continue;
        }
        if let Some(slot_s) = line.strip_prefix("; f") {
            if pending_slot.is_some() {
                return err(ln, "consecutive `; f<slot>` annotations");
            }
            pending_slot = Some(parse_index(ln, slot_s, "function")?);
            continue;
        }
        if line.starts_with("define ") {
            let header = parse_header(ln, line)?;
            // Collect block sections until the closing `}`.
            let mut closed = false;
            for (bln, bl) in lines.by_ref() {
                if bl == "}" {
                    closed = true;
                    break;
                }
                if let Some(label) = bl.strip_suffix(':') {
                    let bb = match label.strip_prefix('b') {
                        Some(s) => parse_index(bln, s, "block")?,
                        None => return err(bln, format!("malformed block label `{bl}`")),
                    };
                    body.blocks.push((bb, body.insts.len()));
                } else if bl.starts_with("  ") {
                    if body.blocks.is_empty() {
                        return err(bln, "instruction before first block label");
                    }
                    parse_inst_line(bln, bl, &mut body)?;
                } else {
                    return err(bln, format!("unexpected line in function body: `{bl}`"));
                }
            }
            if !closed {
                return err(
                    lines.read,
                    format!("unterminated function @{}", header.name),
                );
            }
            let f = build_function(ln, header, &mut body, &mut slot_budget)?;
            let slot = pending_slot.take().unwrap_or(m.func_capacity());
            if slot < m.func_capacity() {
                return err(ln, format!("function slot f{slot} already used"));
            }
            while m.func_capacity() < slot {
                let id = m.add_function(Function::new("", Vec::new(), Type::Void));
                m.remove_function(id);
            }
            m.add_function(f);
            continue;
        }
        return err(ln, format!("unexpected line `{line}`"));
    }
    if pending_slot.is_some() {
        return err(lines.read, "`; f<slot>` annotation without a function");
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::printer::print_module;

    fn roundtrip(m: &Module) -> Module {
        let text = print_module(m);
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(print_module(&parsed), text, "print is not a fixpoint");
        parsed
    }

    fn rich_module() -> Module {
        let mut m = Module::new("demo");
        let g = m.add_global(Global::constant("tbl", Type::I32, vec![1, -2, 3]));
        let dead = m.add_global(Global::zeroed("dead", Type::I8, 4));
        m.add_global(Global::zeroed("buf", Type::I8, 16));
        m.remove_global(dead);

        let mut b = FunctionBuilder::new("helper", vec![Type::I32], Type::I32);
        let w = b.binary(BinOp::Mul, b.arg(0), Value::i32(3));
        b.ret(Some(w));
        let helper = m.add_function(b.finish());
        m.func_mut(helper).attrs.internal = true;
        m.func_mut(helper).attrs.readnone = true;

        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let p = b.gep(Value::Global(g), Value::i32(1));
        let v = b.load(Type::I32, p);
        let c = b.icmp(CmpPred::Slt, v, Value::i32(10));
        b.cond_br(c, t, e);
        b.switch_to(t);
        let a = b.alloca(Type::I32, 2);
        b.store(a, v);
        let x = b.call(helper, Type::I32, vec![v]);
        b.br(j);
        b.switch_to(e);
        let y = b.binary(BinOp::Add, v, Value::ConstInt(Type::I64, -7));
        let yt = b.cast(CastOp::Trunc, Type::I32, y);
        b.br(j);
        b.switch_to(j);
        let phi = b.phi(Type::I32, vec![(t, x), (e, yt)]);
        let s = b.select(c, phi, Value::Undef(Type::I32));
        b.ret(Some(s));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn roundtrip_rich_module_is_exact() {
        let m = rich_module();
        let parsed = roundtrip(&m);
        assert_eq!(
            crate::fingerprint::fingerprint_module(&parsed),
            crate::fingerprint::fingerprint_module(&m)
        );
        crate::verify::assert_verified(&parsed);
    }

    #[test]
    fn roundtrip_preserves_sparse_arenas() {
        let mut m = rich_module();
        // Tombstone the first function; calls keep their slot references.
        let helper = m.func_by_name("helper").unwrap();
        // Inline the call away first so the module stays valid.
        let main = m.main().unwrap();
        let f = m.func_mut(main);
        let mut call_id = None;
        for bb in f.block_ids().collect::<Vec<_>>() {
            for (id, inst) in f.insts_in(bb) {
                if matches!(inst.op, Opcode::Call { .. }) {
                    call_id = Some((bb, id));
                }
            }
        }
        let (bb, id) = call_id.unwrap();
        let ty = f.inst(id).ty;
        *f.inst_mut(id) = Inst::new(ty, Opcode::Binary(BinOp::Add, Value::i32(1), Value::i32(2)));
        let _ = bb;
        m.remove_function(helper);
        let parsed = roundtrip(&m);
        assert_eq!(parsed.func_capacity(), m.func_capacity());
        assert_eq!(parsed.main().unwrap(), m.main().unwrap());
        crate::verify::assert_verified(&parsed);
    }

    #[test]
    fn roundtrip_preserves_switch_and_unreachable() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let c1 = b.new_block();
        let c2 = b.new_block();
        let d = b.new_block();
        b.switch(b.arg(0), d, vec![(1, c1), (-2, c2)]);
        b.switch_to(c1);
        b.ret(Some(Value::i32(10)));
        b.switch_to(c2);
        b.unreachable();
        b.switch_to(d);
        b.ret(Some(Value::i32(0)));
        let mut m = Module::new("sw");
        m.add_function(b.finish());
        let parsed = roundtrip(&m);
        crate::verify::assert_verified(&parsed);
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        for bad in [
            "",
            "garbage",
            "; module m\n@g0 = const 1 x i32",
            "; module m\ndefine i32 @f( {",
            "; module m\ndefine i32 @f() {\nb0:\n  ret i32 1",
            "; module m\ndefine i32 @f() {\n  ret i32 1\n}",
            "; module m\ndefine i32 @f() {\nb0:\n  %0 = i32 frobnicate %arg0\n}",
            "; module m\ndefine i32 @f() {\nb0:\n  %0 = i32 add %1\n}",
            "; module m\n; f0\n; f1\ndefine void @f() {\nb0:\n  ret void\n}",
            "; module m\n; f0",
            "; module m\ndefine void @f() {\nb0:\n  %99999999999 = i32 add %arg0, %arg0\n}",
        ] {
            assert!(parse_module(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn duplicate_slots_rejected() {
        let dup_inst = "; module m\ndefine i32 @f() {\nb0:\n  %0 = i32 add i32 1, i32 2\n  %0 = i32 add i32 1, i32 2\n  ret %0\n}";
        assert!(parse_module(dup_inst).is_err());
        let dup_block = "; module m\ndefine i32 @f() {\nb0:\nb0:\n  ret i32 1\n}";
        assert!(parse_module(dup_block).is_err());
        let dup_global = "; module m\n@g0 = const 1 x i32 [1] ; a\n@g0 = const 1 x i32 [1] ; b";
        assert!(parse_module(dup_global).is_err());
    }

    #[test]
    fn index_cap_blocks_huge_allocations() {
        let huge = format!(
            "; module m\ndefine i32 @f() {{\nb{}:\n  ret i32 1\n}}",
            usize::MAX
        );
        assert!(parse_module(&huge).is_err());
    }

    #[test]
    fn tombstones_cannot_amplify_across_functions() {
        // Each label passes the per-index cap, but every function would
        // claim its own MAX_INDEX-slot block arena — a few hundred bytes
        // of text amplified into tens of millions of slots. The shared
        // module budget must refuse, and fast.
        let mut text = String::from("; module m\n");
        for i in 0..20 {
            text.push_str(&format!(
                "define void @f{i}() {{\nb{MAX_INDEX}:\n  ret void\n}}\n"
            ));
        }
        let t0 = std::time::Instant::now();
        let e = parse_module(&text).unwrap_err();
        assert!(e.msg.contains("arena budget"), "wrong error: {e}");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "budget refusal was not cheap: {:?}",
            t0.elapsed()
        );

        // Modest sparse arenas spread over many functions stay well under
        // the budget and round-trip exactly.
        let mut m = Module::new("sparse");
        for i in 0..64 {
            let mut b = FunctionBuilder::new(format!("f{i}"), vec![Type::I32], Type::I32);
            let x = b.binary(BinOp::Add, b.arg(0), Value::i32(1));
            let y = b.binary(BinOp::Mul, x, Value::i32(2));
            b.ret(Some(y));
            let mut f = b.finish();
            // Tombstone an interior instruction slot.
            let dead = f.add_inst(Inst::new(Type::I32, Opcode::Unreachable));
            f.erase_inst(dead);
            m.add_function(f);
        }
        roundtrip(&m);
    }

    #[test]
    fn every_mnemonic_parses_to_its_opcode() {
        let text =
            |body: &str| format!("; module m\ndefine i32 @f(i32 %arg0) {{\nb0:\n  {body}\n}}");
        let only_inst = |m: &Module| {
            m.func(FuncId::from_index(0))
                .inst(InstId::from_index(1))
                .op
                .clone()
        };
        for op in BinOp::ALL {
            let m = parse_module(&text(&format!("%1 = i32 {} %arg0, i32 2", op.name()))).unwrap();
            assert_eq!(
                only_inst(&m),
                Opcode::Binary(op, Value::Arg(0), Value::i32(2))
            );
        }
        for pred in CmpPred::ALL {
            let m =
                parse_module(&text(&format!("%1 = i1 icmp {} %arg0, %arg0", pred.name()))).unwrap();
            assert_eq!(
                only_inst(&m),
                Opcode::ICmp(pred, Value::Arg(0), Value::Arg(0))
            );
        }
        for op in [CastOp::Trunc, CastOp::ZExt, CastOp::SExt, CastOp::BitCast] {
            let m = parse_module(&text(&format!("%1 = i64 {} %arg0", op.name()))).unwrap();
            assert_eq!(only_inst(&m), Opcode::Cast(op, Value::Arg(0)));
        }
    }

    #[test]
    fn byte_splits_agree_with_str() {
        let mut state = 0x5EEDu64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let alphabet = [
            " ", ",", ", ", " = ", "x", " x ", "%1", "é", "\n", "\r", "]", "[", " ->",
        ];
        for _ in 0..5_000 {
            let s: String = (0..next() % 24)
                .map(|_| alphabet[next() % alphabet.len()])
                .collect();
            for pat in [" ", ", ", " = ", " x ", " -> ", ", default ", "]"] {
                assert_eq!(split(&s, pat), s.split_once(pat), "{s:?} at {pat:?}");
                assert!(pieces(&s, pat).eq(s.split(pat)), "{s:?} by {pat:?}");
            }
            for byte in [b'\n', b',', b' '] {
                assert_eq!(
                    find_byte(s.as_bytes(), byte),
                    s.bytes().position(|c| c == byte)
                );
            }
            assert_eq!(trim_start(&s), s.trim_start());
        }
    }

    #[test]
    fn integers_parse_as_std_parses_them() {
        let cases = "|0|7|007|+7|-7|-0|+|-|--1| 1|1 |1_000|0x10|١|123456789012345678|\
                     999999999999999999|9999999999999999999|18446744073709551615|\
                     18446744073709551616|9223372036854775807|9223372036854775808|\
                     -9223372036854775808|-9223372036854775809";
        for s in cases.split('|') {
            assert_eq!(parse_usize(s), s.parse::<usize>().ok(), "{s:?}");
            assert_eq!(parse_i64(s), s.parse::<i64>().ok(), "{s:?}");
        }
    }

    #[test]
    fn crlf_and_signed_indices_keep_their_old_meaning() {
        let m = rich_module();
        let text = print_module(&m);
        let crlf = parse_module(&text.replace('\n', "\r\n")).unwrap();
        assert_eq!(print_module(&crlf), text);
        // `usize::from_str` takes a leading `+`, so the parser always has.
        let signed = "; module m\ndefine i32 @f(i32 %arg0) {\nb+0:\n  %+1 = i32 add %arg+0, i32 +2\n  ret %1\n}";
        let m = parse_module(signed).unwrap();
        assert!(print_module(&m).contains("%1 = i32 add %arg0, i32 2"));
        // A lone `\r` is no line end, as `str::lines` decides.
        let lone_cr = parse_module("; module m\r\r\n@g0 = const 1 x i32 [1] ; a").unwrap();
        assert_eq!(lone_cr.name, "m\r");
    }
}
