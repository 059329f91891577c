//! A LegUp-style HLS backend for `autophase-ir`.
//!
//! This crate plays the role LegUp plays in the AutoPhase paper: it turns
//! the optimized IR into a hardware design and — crucially for the RL
//! loop — estimates the design's **clock cycle count** quickly, without
//! logic simulation, from a software trace (Huang et al., FCCM'13):
//!
//! 1. [`schedule`] maps every basic block to a sequence of FSM states
//!    under a clock-period constraint, chaining combinational operations
//!    until the period budget is exhausted (default 5 ns = 200 MHz, the
//!    paper's setting);
//! 2. [`autophase_ir::interp`] provides per-block execution counts;
//! 3. [`profile`] combines them: `cycles = Σ count(block) × states(block)
//!    + call overhead`.
//!
//! [`rtl`] emits a Verilog FSM+datapath sketch of the scheduled design and
//! [`area`] estimates resource usage (the quantity the paper names as an
//! alternative reward).
//!
//! # Example
//!
//! ```
//! use autophase_ir::{builder::FunctionBuilder, Module, Type, BinOp, Value};
//! use autophase_hls::{HlsConfig, profile::profile_module};
//!
//! let mut m = Module::new("demo");
//! let mut b = FunctionBuilder::new("main", vec![], Type::I32);
//! let acc = b.alloca(Type::I32, 1);
//! b.store(acc, Value::i32(0));
//! b.counted_loop(Value::i32(10), |b, i| {
//!     let c = b.load(Type::I32, acc);
//!     let n = b.binary(BinOp::Add, c, i);
//!     b.store(acc, n);
//! });
//! let r = b.load(Type::I32, acc);
//! b.ret(Some(r));
//! m.add_function(b.finish());
//!
//! let report = profile_module(&m, &HlsConfig::default())?;
//! assert!(report.cycles > 0);
//! # Ok::<(), autophase_hls::HlsError>(())
//! ```
#![warn(missing_docs)]

pub mod area;
pub mod delay;
pub mod func_cache;
pub mod profile;
pub mod rtl;
pub mod schedule;

use serde::{Deserialize, Serialize};
use std::fmt;

/// HLS tool configuration (the paper fixes the frequency constraint to
/// 200 MHz, i.e. a 5 ns clock period).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HlsConfig {
    /// Target clock period in nanoseconds.
    pub clock_period_ns: f64,
    /// Memory operations that may start in the same FSM state (dual-port
    /// block RAM ⇒ 2).
    pub memory_ports: usize,
    /// Extra states a load occupies (synchronous RAM read latency).
    pub load_latency: u32,
    /// States an integer divide/remainder occupies (iterative divider).
    pub div_latency: u32,
    /// FSM states charged per function call for the start/finish
    /// handshake with the callee's FSM.
    pub call_overhead: u32,
    /// Interpreter instruction budget when profiling.
    pub profile_fuel: u64,
}

impl Default for HlsConfig {
    fn default() -> HlsConfig {
        HlsConfig {
            clock_period_ns: 5.0,
            memory_ports: 2,
            load_latency: 1,
            div_latency: 12,
            call_overhead: 1,
            profile_fuel: 40_000_000,
        }
    }
}

impl HlsConfig {
    /// Config for a target frequency in MHz.
    pub fn at_frequency_mhz(mhz: f64) -> HlsConfig {
        HlsConfig {
            clock_period_ns: 1000.0 / mhz,
            ..HlsConfig::default()
        }
    }

    /// The same config with a different profiling budget. Services that
    /// profile untrusted designs on a request deadline cap the interpreter
    /// fuel well below the experiment default, bounding the worst-case
    /// cost of one profile.
    pub fn with_profile_fuel(self, profile_fuel: u64) -> HlsConfig {
        HlsConfig {
            profile_fuel,
            ..self
        }
    }
}

/// Errors from HLS compilation or profiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HlsError {
    /// The design could not be profiled because execution failed.
    Exec(autophase_ir::interp::Trap),
    /// The module has no `main` function to profile.
    NoMain,
}

impl fmt::Display for HlsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlsError::Exec(e) => write!(f, "profiling execution failed: {e}"),
            HlsError::NoMain => write!(f, "module has no main function"),
        }
    }
}

impl std::error::Error for HlsError {}

impl From<autophase_ir::interp::Trap> for HlsError {
    fn from(e: autophase_ir::interp::Trap) -> HlsError {
        HlsError::Exec(e)
    }
}

pub use func_cache::{FuncEval, ScheduleCache};
pub use profile::{profile_module, profile_module_cached, HlsReport};
pub use schedule::{schedule_block, schedule_function, BlockSchedule, FunctionSchedule};

// The parallel rollout engine shares `HlsConfig` across worker threads and
// sends `HlsReport`s between them, so these types must stay `Send + Sync`
// (`profile_module` itself is a pure function of its arguments — it holds
// no global state). Compile-time assertions keep that contract from
// regressing silently.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HlsConfig>();
    assert_send_sync::<HlsReport>();
    assert_send_sync::<HlsError>();
    assert_send_sync::<area::AreaReport>();
};
