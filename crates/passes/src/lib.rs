//! The AutoPhase transform-pass library (the paper's Table 1).
//!
//! Every pass operates on [`autophase_ir::Module`] and reports whether it
//! changed anything, mirroring LLVM's legacy pass interface. Passes that
//! lower constructs our IR does not have (invokes, atomics, debug info) are
//! faithful no-ops — exactly as the corresponding LLVM passes are on inputs
//! without those constructs.
//!
//! The [`registry`] module maps the paper's action indices 0–45 to passes,
//! and [`o3`] provides the `-O0`/`-O3` reference pipelines used as the
//! baseline in every experiment.
//!
//! # Example
//!
//! ```
//! use autophase_ir::{builder::FunctionBuilder, Module, Type, BinOp};
//! use autophase_passes::registry;
//!
//! let mut m = Module::new("demo");
//! let mut b = FunctionBuilder::new("main", vec![], Type::I32);
//! let p = b.alloca(Type::I32, 1);
//! b.store(p, b.const_i32(21));
//! let v = b.load(Type::I32, p);
//! let d = b.binary(BinOp::Add, v, v);
//! b.ret(Some(d));
//! m.add_function(b.finish());
//!
//! // Apply -mem2reg (index 38 in Table 1), then -instcombine (30).
//! registry::apply(&mut m, 38);
//! registry::apply(&mut m, 30);
//! autophase_ir::verify::verify_module(&m)?;
//! # Ok::<(), autophase_ir::verify::VerifyError>(())
//! ```
#![warn(missing_docs)]

pub mod adce;
pub mod changeset;
pub mod checked;
pub mod correlated;
pub mod dse;
pub mod early_cse;
pub mod fault;
pub mod globals;
pub mod gvn;
pub mod indvars;
pub mod inline;
pub mod instcombine;
pub mod ipo;
pub mod jump_threading;
pub mod lcssa;
pub mod licm;
pub mod loop_deletion;
pub mod loop_idiom;
pub mod loop_reduce;
pub mod loop_rotate;
pub mod loop_simplify;
pub mod loop_unroll;
pub mod loop_unswitch;
pub mod lowering;
pub mod mem2reg;
pub mod memcpyopt;
pub mod o3;
pub mod reassociate;
pub mod registry;
pub mod sccp;
pub mod simplifycfg;
pub mod sink;
pub mod sroa;
pub mod tailcall;
pub mod util;

pub use checked::{apply_checked, FuelBudget, PassFault};
pub use registry::{apply, pass_count, pass_name, PassId, PASS_NAMES};

#[cfg(test)]
mod batched_drivers;
