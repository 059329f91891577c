//! A compact, typed, SSA-style compiler intermediate representation.
//!
//! This crate is the substrate for the AutoPhase reproduction: it plays the
//! role LLVM IR plays in the paper. It provides:
//!
//! * a module / function / basic-block / instruction hierarchy with integer
//!   scalar types ([`Type`]), arena-allocated instructions and explicit
//!   control flow ([`Inst`], [`Block`], [`Function`], [`Module`]);
//! * a convenient [`builder::FunctionBuilder`] for constructing programs;
//! * one vocabulary for editing CFG edges and φ entries ([`edges`]);
//! * CFG analyses: predecessors/successors and reverse post-order
//!   ([`cfg`](mod@cfg)), dominator trees ([`dom`]), and natural-loop detection
//!   ([`loops`]), each computed at most once per function version
//!   ([`facts`]);
//! * a structural [`verify`]-er used as the big invariant in property tests;
//! * a deterministic, total-semantics tracing interpreter ([`interp`]) that
//!   records basic-block execution counts — the "software trace" the HLS
//!   cycle profiler consumes;
//! * constant folding helpers ([`fold`]) shared by the optimization passes.
//!
//! # Semantics
//!
//! All integer arithmetic wraps. Division or remainder by zero yields zero.
//! Shift amounts are masked to the bit width. Loads from out-of-bounds
//! addresses yield zero; out-of-bounds stores are ignored. These choices make
//! every program total and deterministic, so "optimization preserves the
//! interpreter's observable result" is a testable invariant rather than a
//! statement about undefined behaviour.
//!
//! # Example
//!
//! ```
//! use autophase_ir::{builder::FunctionBuilder, Module, Type, BinOp};
//!
//! let mut module = Module::new("demo");
//! let mut b = FunctionBuilder::new("main", vec![], Type::I32);
//! let entry = b.entry_block();
//! b.switch_to(entry);
//! let two = b.const_i32(2);
//! let three = b.const_i32(3);
//! let sum = b.binary(BinOp::Add, two, three);
//! b.ret(Some(sum));
//! module.add_function(b.finish());
//!
//! let trace = autophase_ir::interp::run_main(&module, 1_000_000)?;
//! assert_eq!(trace.return_value, Some(5));
//! # Ok::<(), autophase_ir::interp::Trap>(())
//! ```
#![warn(missing_docs)]

pub mod builder;
pub mod cfg;
pub mod csr;
pub mod dom;
pub mod edges;
pub mod facts;
pub mod fingerprint;
pub mod fold;
pub mod function;
pub mod inst;
pub mod interp;
pub mod loops;
pub mod module;
pub mod parser;
pub mod printer;
pub mod types;
pub mod value;
pub mod verify;

pub use function::{Block, BlockId, Function, InstId, Rewrites};
pub use inst::{BinOp, CastOp, CmpPred, Inst, Opcode};
pub use module::{FuncId, Global, GlobalId, Module};
pub use types::Type;
pub use value::Value;
