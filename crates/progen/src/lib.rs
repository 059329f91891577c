//! Seeded random HLS program generation (the paper's CSmith substitute).
//!
//! The paper expands its training set with CSmith-generated C programs,
//! filtered to those that terminate quickly and survive HLS compilation
//! (§3.4). This crate generates random programs directly in
//! `autophase-ir` with the same intent: well-defined integer kernels full
//! of loops, arrays, branches, helper calls, and constant tables — the
//! raw material whose cycle count the optimization passes can actually
//! move. Every program folds its outputs into `main`'s return value so
//! the semantics-preservation oracle observes all computed state.
//!
//! Generation is deterministic in the seed; [`generate_valid`] applies the
//! paper's filters (verifies, terminates within a fuel budget, profiles
//! under HLS).
//!
//! # Example
//!
//! ```
//! use autophase_progen::{GenConfig, generate_valid};
//!
//! let program = generate_valid(&GenConfig::default(), 42);
//! let trace = autophase_ir::interp::run_main(&program, 10_000_000)?;
//! assert!(trace.insts_executed > 0);
//! # Ok::<(), autophase_ir::interp::Trap>(())
//! ```
#![warn(missing_docs)]

pub mod config;
pub mod generate;

pub use config::GenConfig;
pub use generate::{generate, generate_valid, program_batch};
