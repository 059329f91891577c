//! The stack-wide benchmark's library: inputs, load generation, the
//! output oracle, the layer replay, and the harness's own arithmetic.
//!
//! Everything here touches the AutoPhase crates from outside, through
//! their public APIs; nothing inside any crate is edited or
//! instrumented. See `README.md` for why each workload and metric exists.
#![warn(missing_docs)]

pub mod determinism;
pub mod host;
pub mod inputs;
pub mod load;
pub mod metrics;
pub mod openloop;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
