//! The trace-driven clock-cycle profiler (LegUp's fast estimator).
//!
//! Runs the module once on the interpreter to obtain per-block execution
//! counts, schedules every block, and accumulates
//! `cycles = Σ_blocks count × states + Σ_calls call_overhead`.
//! This is ~20× faster than RTL simulation in LegUp's setting and is what
//! the RL reward is computed from at every step.

use crate::area::{globals_memory_bits, AreaReport};
use crate::func_cache::{FuncEval, ScheduleCache};
use crate::{HlsConfig, HlsError};
use autophase_ir::interp::{run_main, ExecTrace};
use autophase_ir::{FuncId, Function, Module};
use autophase_telemetry as telemetry;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// The result of HLS compilation + profiling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HlsReport {
    /// Estimated clock cycles for one execution of `main`.
    pub cycles: u64,
    /// Total FSM states across all functions (static circuit size).
    pub total_states: u64,
    /// Resource estimate.
    pub area: AreaReport,
    /// Dynamic instructions executed while profiling.
    pub insts_executed: u64,
    /// The observable result of the profiled run (for validation).
    pub return_value: Option<i64>,
}

impl HlsReport {
    /// Wall-clock execution time at the configured frequency, in
    /// microseconds.
    pub fn exec_time_us(&self, cfg: &HlsConfig) -> f64 {
        self.cycles as f64 * cfg.clock_period_ns / 1000.0
    }
}

/// Profile a module's `main`.
///
/// # Errors
///
/// Returns [`HlsError::Exec`] when the program cannot be executed within
/// the configured fuel (non-terminating or malformed designs).
pub fn profile_module(m: &Module, cfg: &HlsConfig) -> Result<HlsReport, HlsError> {
    let start = telemetry::maybe_now();
    let trace = run_main(m, cfg.profile_fuel)?;
    telemetry::observe_since("hls.trace_ns", "", start);
    Ok(profile_with_trace(m, cfg, &trace))
}

/// Profile with an existing trace (lets callers share one interpreter run).
pub fn profile_with_trace(m: &Module, cfg: &HlsConfig, trace: &ExecTrace) -> HlsReport {
    report_from(m, cfg, trace, |_, f| FuncEval::of(f, cfg))
}

/// The one statement of the cycle formula, over a supplier of each
/// function's schedule and area:
/// `Σ_blocks count × states + Σ_calls call_overhead − main's own call`.
/// Cycles and area are per-function sums (plus the globals' memory bits),
/// which is what makes a per-function cache exact.
///
/// Telemetry: records schedule+accumulate wall time (`hls.schedule_ns`),
/// a profile count (`hls.profiles`), and the resulting cycle count and
/// FSM-state distributions (`hls.cycles`, `hls.fsm_states`).
fn report_from<E: Borrow<FuncEval>>(
    m: &Module,
    cfg: &HlsConfig,
    trace: &ExecTrace,
    mut eval: impl FnMut(FuncId, &Function) -> E,
) -> HlsReport {
    let start = telemetry::maybe_now();
    let mut cycles: u64 = 0;
    let mut total_states: u64 = 0;
    let mut area = AreaReport::default();
    for fid in m.func_ids() {
        let f = m.func(fid);
        let ev = eval(fid, f);
        let ev: &FuncEval = ev.borrow();
        total_states += ev.schedule.total_states as u64;
        for bb in f.block_ids() {
            let count = trace.count(fid, bb);
            if count > 0 {
                cycles += count * ev.schedule.states(bb) as u64;
            }
        }
        // Per-call FSM handshake.
        cycles += trace.calls(fid) * cfg.call_overhead as u64;
        area.merge(&ev.area);
    }
    // `main` itself is "called" once by the harness; do not charge it.
    if let Some(main) = m.main() {
        cycles = cycles.saturating_sub(trace.calls(main).min(1) * cfg.call_overhead as u64);
    }
    area.memory_bits += globals_memory_bits(m);
    telemetry::observe_since("hls.schedule_ns", "", start);
    if start.is_some() {
        telemetry::incr("hls.profiles", "", 1);
        telemetry::observe("hls.cycles", "", cycles);
        telemetry::observe("hls.fsm_states", "", total_states);
    }
    HlsReport {
        cycles,
        total_states,
        area,
        insts_executed: trace.insts_executed,
        return_value: trace.return_value,
    }
}

/// [`profile_module`] with a per-function schedule cache: clean functions
/// (same content fingerprint) reuse their cached FSM schedule and area,
/// so only dirty functions pay the list scheduler and binder. The key is
/// the fingerprint fact of each function's version
/// ([`Facts::fingerprint`](autophase_ir::facts::Facts::fingerprint)), so
/// a function the caller already fingerprinted on this thread is not
/// hashed again.
///
/// Bit-identical to [`profile_module`] by construction: the cached values
/// are exactly what `schedule_function` / `estimate_function_area`
/// produce, and one body accumulates both.
///
/// # Errors
///
/// Returns [`HlsError::Exec`] when the program cannot be executed within
/// the configured fuel.
pub fn profile_module_cached(
    m: &Module,
    cfg: &HlsConfig,
    cache: &mut ScheduleCache,
) -> Result<HlsReport, HlsError> {
    let start = telemetry::maybe_now();
    let trace = run_main(m, cfg.profile_fuel)?;
    telemetry::observe_since("hls.trace_ns", "", start);
    Ok(profile_with_trace_cached(m, cfg, &trace, cache))
}

/// [`profile_with_trace`] through the per-function schedule cache (see
/// [`profile_module_cached`]).
pub fn profile_with_trace_cached(
    m: &Module,
    cfg: &HlsConfig,
    trace: &ExecTrace,
    cache: &mut ScheduleCache,
) -> HlsReport {
    report_from(m, cfg, trace, |fid, f| {
        cache.get_or_eval(m.facts(fid).fingerprint(), f, cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::{BinOp, Type, Value};

    fn sum_loop_module(n: i32) -> Module {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(Value::i32(n), |b, i| {
            let c = b.load(Type::I32, acc);
            let s = b.binary(BinOp::Add, c, i);
            b.store(acc, s);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        m
    }

    #[test]
    fn cycles_scale_with_trip_count() {
        let cfg = HlsConfig::default();
        let c10 = profile_module(&sum_loop_module(10), &cfg).unwrap().cycles;
        let c100 = profile_module(&sum_loop_module(100), &cfg).unwrap().cycles;
        assert!(c100 > c10 * 5, "c10={c10} c100={c100}");
        assert!(c100 < c10 * 20);
    }

    #[test]
    fn optimization_reduces_cycles() {
        // mem2reg + rotate should cut the loop's per-iteration cost a lot.
        let cfg = HlsConfig::default();
        let m0 = sum_loop_module(50);
        let before = profile_module(&m0, &cfg).unwrap().cycles;
        let mut m = m0.clone();
        autophase_passes::mem2reg::run(&mut m);
        autophase_passes::loop_rotate::run(&mut m);
        let after = profile_module(&m, &cfg).unwrap().cycles;
        assert!(
            after * 2 <= before,
            "expected ≥2x fewer cycles: before={before} after={after}"
        );
        // Behaviour unchanged.
        assert_eq!(
            profile_module(&m, &cfg).unwrap().return_value,
            profile_module(&m0, &cfg).unwrap().return_value,
        );
    }

    #[test]
    fn call_overhead_counted() {
        let mut m = Module::new("t");
        let callee = {
            let mut b = FunctionBuilder::new("noop_fn", vec![], Type::Void);
            b.ret(None);
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        b.counted_loop(Value::i32(10), |b, _| {
            b.call(callee, Type::Void, vec![]);
        });
        b.ret(Some(Value::i32(0)));
        m.add_function(b.finish());
        let cfg = HlsConfig::default();
        let with_calls = profile_module(&m, &cfg).unwrap().cycles;

        // Same program after inlining is cheaper.
        let mut inlined = m.clone();
        autophase_passes::inline::run(&mut inlined);
        autophase_passes::simplifycfg::run(&mut inlined);
        let without = profile_module(&inlined, &cfg).unwrap().cycles;
        assert!(without < with_calls, "{without} vs {with_calls}");
    }

    #[test]
    fn lower_frequency_fewer_cycles() {
        // The paper notes lower target frequencies give better cycle counts
        // (more logic fits one state). Build a body with a long chain so
        // chaining depth actually matters.
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(1));
        b.counted_loop(Value::i32(30), |b, i| {
            let c = b.load(Type::I32, acc);
            let a1 = b.binary(BinOp::Add, c, i);
            let a2 = b.binary(BinOp::Add, a1, Value::i32(3));
            let a3 = b.binary(BinOp::Add, a2, i);
            let a4 = b.binary(BinOp::Add, a3, Value::i32(5));
            b.store(acc, a4);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let at200 = profile_module(&m, &HlsConfig::default()).unwrap().cycles;
        let at100 = profile_module(&m, &HlsConfig::at_frequency_mhz(100.0))
            .unwrap()
            .cycles;
        assert!(at100 < at200, "at100={at100} at200={at200}");
    }

    #[test]
    fn adversarial_ir_traps_with_fuel_exhausted() {
        // An RL agent can drive a design into non-termination; the profiler
        // must come back in bounded time with a typed trap, not hang.
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let spin = b.new_block();
        b.br(spin);
        b.switch_to(spin);
        let _ = b.binary(BinOp::Add, Value::i32(1), Value::i32(1));
        b.br(spin);
        let mut m = Module::new("spin");
        m.add_function(b.finish());
        let cfg = HlsConfig {
            profile_fuel: 10_000,
            ..HlsConfig::default()
        };
        match profile_module(&m, &cfg) {
            Err(crate::HlsError::Exec(autophase_ir::interp::Trap::FuelExhausted)) => {}
            other => panic!("expected FuelExhausted trap, got {other:?}"),
        }
    }

    #[test]
    fn cached_profile_bit_identical_to_full() {
        let cfg = HlsConfig::default();
        let mut cache = ScheduleCache::default();
        for n in [5, 10, 50] {
            let mut m = sum_loop_module(n);
            for pass in [38usize, 23, 30] {
                autophase_passes::registry::apply(&mut m, pass);
                let full = profile_module(&m, &cfg).unwrap();
                let cached = profile_module_cached(&m, &cfg, &mut cache).unwrap();
                // Same state again: must come entirely from the cache.
                let again = profile_module_cached(&m, &cfg, &mut cache).unwrap();
                assert_eq!(full.cycles, again.cycles);
                assert_eq!(full.cycles, cached.cycles);
                assert_eq!(full.total_states, cached.total_states);
                assert_eq!(full.area, cached.area);
                assert_eq!(full.insts_executed, cached.insts_executed);
                assert_eq!(full.return_value, cached.return_value);
            }
        }
        let (hits, misses) = cache.stats();
        assert!(hits > 0, "repeat states must hit ({hits}/{misses})");
    }

    #[test]
    fn report_fields_consistent() {
        let cfg = HlsConfig::default();
        let r = profile_module(&sum_loop_module(10), &cfg).unwrap();
        assert_eq!(r.return_value, Some(45));
        assert!(r.total_states >= 4);
        assert!(r.insts_executed > 0);
        assert!(r.exec_time_us(&cfg) > 0.0);
    }
}
