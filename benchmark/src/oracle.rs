//! The output oracle: is a served answer *right*, not merely well-formed?
//!
//! The reference is the interpreter run on the *input* program — never
//! the passes under test. A reply carrying IR must parse and verify,
//! behave like its input, profile to the cycle count it reports, and be
//! exactly what re-applying its reported passes to the input prints.

use crate::inputs::{serve_hls, Program};
use autophase_hls::profile::profile_module;
use autophase_ir::interp::run_main;
use autophase_ir::parser::parse_module;
use autophase_ir::printer::print_module;
use autophase_ir::verify::verify_module;
use autophase_passes::checked::{apply_checked, FuelBudget};
use autophase_serve::client::CompileReply;

/// Check one `want_ir=1` reply against its input program.
///
/// # Errors
///
/// The first disagreement found, as text for the failure report.
pub fn check_reply(program: &Program, reply: &CompileReply) -> Result<(), String> {
    let hls = serve_hls();
    let Some(ir) = reply.ir.as_deref() else {
        return Err("reply carries no IR".into());
    };
    let served = parse_module(ir).map_err(|e| format!("reply IR does not parse: {e}"))?;
    verify_module(&served).map_err(|e| format!("reply IR does not verify: {e}"))?;

    // Behaviour: the interpreter on the input is the reference. The
    // oracle is the observable result (`main`'s return value); final
    // memory is not part of it, because a dead store nobody reads is
    // unobservable and store-killing passes rely on that (see
    // `ExecTrace::observable`).
    let want = run_main(&program.module, hls.profile_fuel)
        .map_err(|e| format!("input does not run: {e}"))?;
    let got =
        run_main(&served, hls.profile_fuel).map_err(|e| format!("reply IR does not run: {e}"))?;
    if want.observable() != got.observable() {
        return Err(format!(
            "behaviour differs: input returns {:?}, reply IR returns {:?}",
            want.observable(),
            got.observable()
        ));
    }

    // The reported number is the number of the IR actually served.
    let cycles = profile_module(&served, &hls)
        .map_err(|e| format!("reply IR does not profile: {e}"))?
        .cycles;
    if cycles != reply.cycles {
        return Err(format!(
            "reply says {} cycles, its IR profiles to {cycles}",
            reply.cycles
        ));
    }

    // The reported ordering reproduces the served IR, starting from what
    // the daemon started from: the parsed wire text (value numbering
    // follows the parse, so the in-memory original would print
    // differently).
    let mut again =
        parse_module(&program.ir).map_err(|e| format!("input IR does not parse: {e}"))?;
    let fuel = FuelBudget::default();
    for &pass in &reply.passes {
        apply_checked(&mut again, pass, &fuel)
            .map_err(|e| format!("reported pass {pass} faults on the input: {e}"))?;
    }
    if print_module(&again) != ir {
        return Err("re-applying the reported passes prints different IR".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::chstone;
    use autophase_serve::protocol::Source;

    fn honest_reply(program: &Program, passes: &[usize]) -> CompileReply {
        let mut m = parse_module(&program.ir).unwrap();
        for &p in passes {
            apply_checked(&mut m, p, &FuelBudget::default()).unwrap();
        }
        CompileReply {
            source: Source::Policy,
            cycles: profile_module(&m, &serve_hls()).unwrap().cycles,
            baseline_cycles: 0,
            passes: passes.to_vec(),
            ir: Some(print_module(&m)),
        }
    }

    #[test]
    fn accepts_an_honest_reply_and_rejects_each_lie() {
        let programs = chstone();
        let program = &programs[5];
        let good = honest_reply(program, &[38, 30, 31]);
        assert_eq!(check_reply(program, &good), Ok(()));

        let wrong_cycles = CompileReply {
            cycles: good.cycles + 1,
            ..good.clone()
        };
        assert!(check_reply(program, &wrong_cycles)
            .unwrap_err()
            .contains("cycles"));

        let wrong_passes = CompileReply {
            passes: vec![38],
            ..good.clone()
        };
        assert!(check_reply(program, &wrong_passes)
            .unwrap_err()
            .contains("re-applying"));

        // IR of a *different* program: parses and verifies, wrong behaviour.
        let other = honest_reply(&programs[7], &[]);
        let swapped = CompileReply {
            ir: other.ir,
            ..good.clone()
        };
        assert!(check_reply(program, &swapped).is_err());

        let no_ir = CompileReply { ir: None, ..good };
        assert!(check_reply(program, &no_ir).is_err());
    }
}
