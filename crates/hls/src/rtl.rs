//! Verilog RTL emission (FSM + datapath sketch).
//!
//! LegUp's final stage turns the scheduled IR into synthesizable Verilog.
//! This emitter produces the same structure — a one-hot-ish FSM `case`
//! over states, registered results, RAM ports for memory ops — at sketch
//! fidelity: the output is syntactically plausible Verilog that tracks
//! the real schedule, sufficient for inspecting what the scheduler did and
//! for size-correlation tests.

use crate::schedule::schedule_function;
use crate::HlsConfig;
use autophase_ir::{Module, Opcode};
use std::fmt::Write;

/// Emit Verilog for every function in the module.
pub fn emit_module(m: &Module, cfg: &HlsConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Generated by autophase-hls (clock {} ns)",
        cfg.clock_period_ns
    );
    for gid in m.global_ids() {
        let g = m.global(gid);
        let _ = writeln!(
            out,
            "// global ram g{}: {} x {} ({})",
            gid.index(),
            g.count,
            g.elem_ty,
            g.name
        );
    }
    for fid in m.func_ids() {
        out.push('\n');
        out.push_str(&emit_function(m, fid, cfg));
    }
    out
}

/// Emit one function as a Verilog module.
fn emit_function(m: &Module, fid: autophase_ir::FuncId, cfg: &HlsConfig) -> String {
    let f = m.func(fid);
    let sched = schedule_function(f, cfg);
    let mut out = String::new();
    let _ = writeln!(out, "module {} (", sanitize(&f.name));
    let _ = writeln!(out, "  input  wire clk,");
    let _ = writeln!(out, "  input  wire start,");
    let _ = writeln!(out, "  output reg  finish,");
    for (i, t) in f.params.iter().enumerate() {
        let _ = writeln!(out, "  input  wire [{}:0] arg{i},", width(*t) - 1);
    }
    let retw = if f.ret_ty.is_void() {
        1
    } else {
        width(f.ret_ty)
    };
    let _ = writeln!(out, "  output reg  [{}:0] ret_val", retw - 1);
    let _ = writeln!(out, ");");

    // State encoding: (block, state-within-block) flattened.
    let mut state_names: Vec<String> = vec!["S_IDLE".to_string()];
    for bb in f.block_ids() {
        for s in 0..sched.states(bb) {
            state_names.push(format!("S_B{}_{}", bb.index(), s));
        }
    }
    let _ = writeln!(out, "  // {} FSM states", state_names.len());
    let _ = writeln!(
        out,
        "  reg [{}:0] state;",
        (usize::BITS - state_names.len().leading_zeros()).max(1) - 1
    );
    for (i, name) in state_names.iter().enumerate() {
        let _ = writeln!(out, "  localparam {name} = {i};");
    }

    // Registers for every producing instruction.
    for bb in f.block_ids() {
        for (iid, inst) in f.insts_in(bb) {
            if !inst.ty.is_void() {
                let _ = writeln!(
                    out,
                    "  reg [{}:0] v{}; // {}",
                    width(inst.ty) - 1,
                    iid.index(),
                    inst.mnemonic()
                );
            }
        }
    }

    let _ = writeln!(out, "  always @(posedge clk) begin");
    let _ = writeln!(out, "    case (state)");
    let _ = writeln!(
        out,
        "      S_IDLE: if (start) state <= S_B{}_0;",
        f.entry.index()
    );
    for bb in f.block_ids() {
        let bs = sched.block(bb).expect("every live block is scheduled");
        for s in 0..bs.states {
            let _ = writeln!(out, "      S_B{}_{}: begin", bb.index(), s);
            for ((iid, inst), &start) in f.insts_in(bb).zip(&bs.start_state) {
                if start != s {
                    continue;
                }
                match &inst.op {
                    Opcode::Br { target } => {
                        let _ = writeln!(out, "        state <= S_B{}_0;", target.index());
                    }
                    Opcode::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let _ = writeln!(
                            out,
                            "        state <= ({}) ? S_B{}_0 : S_B{}_0;",
                            operand(cond),
                            then_bb.index(),
                            else_bb.index()
                        );
                    }
                    Opcode::Switch { default, .. } => {
                        let _ = writeln!(
                            out,
                            "        state <= S_B{}_0; // switch dispatch elided",
                            default.index()
                        );
                    }
                    Opcode::Ret { value } => {
                        if let Some(v) = value {
                            let _ = writeln!(out, "        ret_val <= {};", operand(v));
                        }
                        let _ = writeln!(out, "        finish <= 1'b1; state <= S_IDLE;");
                    }
                    Opcode::Store { ptr, value } => {
                        let _ = writeln!(
                            out,
                            "        ram_write({}, {});",
                            operand(ptr),
                            operand(value)
                        );
                    }
                    _ if !inst.ty.is_void() => {
                        let _ = writeln!(
                            out,
                            "        v{} <= {}; // {}",
                            iid.index(),
                            inst.operands()
                                .first()
                                .map(operand_ref)
                                .unwrap_or_else(|| "0".to_string()),
                            inst.mnemonic()
                        );
                    }
                    _ => {}
                }
            }
            if s + 1 < bs.states {
                let _ = writeln!(out, "        state <= S_B{}_{};", bb.index(), s + 1);
            }
            let _ = writeln!(out, "      end");
        }
    }
    let _ = writeln!(out, "    endcase");
    let _ = writeln!(out, "  end");
    let _ = writeln!(out, "endmodule");
    out
}

fn width(t: autophase_ir::Type) -> u32 {
    if t.is_int() {
        t.bits()
    } else {
        32
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn operand(v: &autophase_ir::Value) -> String {
    operand_ref(v)
}

fn operand_ref(v: &autophase_ir::Value) -> String {
    use autophase_ir::Value;
    match v {
        Value::Inst(id) => format!("v{}", id.index()),
        Value::Arg(i) => format!("arg{i}"),
        Value::ConstInt(ty, c) => format!("{}'d{}", width(*ty), c.unsigned_abs()),
        Value::Global(g) => format!("G{}_BASE", g.index()),
        Value::Undef(_) => "'x".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::{BinOp, Type, Value};

    fn demo() -> Module {
        let mut m = Module::new("demo");
        m.add_global(autophase_ir::Global::constant("tbl", Type::I32, vec![1, 2]));
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, i| {
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, i);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn emits_fsm_structure() {
        let text = emit_module(&demo(), &HlsConfig::default());
        assert!(text.contains("module main"));
        assert!(text.contains("S_IDLE"));
        assert!(text.contains("case (state)"));
        assert!(text.contains("endmodule"));
        assert!(text.contains("global ram g0"));
        assert!(text.contains("finish <= 1'b1"));
    }

    #[test]
    fn fewer_states_after_optimization_means_shorter_rtl() {
        let m0 = demo();
        let long = emit_module(&m0, &HlsConfig::default());
        let mut m = m0.clone();
        autophase_passes::mem2reg::run(&mut m);
        autophase_passes::loop_rotate::run(&mut m);
        let short = emit_module(&m, &HlsConfig::default());
        let count = |s: &str| s.matches("S_B").count();
        assert!(count(&short) < count(&long));
    }

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize("my-func.1"), "my_func_1");
    }
}
