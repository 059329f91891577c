//! A step that changes nothing still counts its action: the action
//! histogram (§5.1's second observation) must read the same whether the
//! pass was masked, faulted or rolled back for a wrong result, or a
//! policy trained on it sees a history that never happened.

use autophase_benchmarks::suite;
use autophase_core::env::{EnvConfig, ObservationKind, PhaseOrderEnv};
use autophase_core::eval_cache::fingerprint_module;
use autophase_core::Quarantine;
use autophase_ir::printer::print_module;
use autophase_ir::Module;
use autophase_passes::checked::FaultKind;
use autophase_passes::fault::{self, FaultPlan, FaultSpec};
use autophase_rl::env::Environment;
use std::sync::Arc;

fn gsm() -> Module {
    suite()
        .into_iter()
        .find(|b| b.name == "gsm")
        .unwrap()
        .module
}

/// Every no-op step counts its action exactly once in the histogram: a
/// masked one, a faulted apply, and one whose wrong result is rolled
/// back.
#[test]
fn noop_steps_count_their_action_once() {
    let _g = autophase_telemetry::test_guard();
    autophase_telemetry::quiet_panic_hook();
    let spec = |pass, kind| FaultSpec {
        pass,
        nth: 1,
        episode: Some(9031),
        kind,
    };
    let plan = fault::PLAN.install(FaultPlan::new(vec![
        spec(38, FaultKind::Panic),
        spec(30, FaultKind::WrongResult),
    ]));
    let cfg = EnvConfig {
        observation: ObservationKind::ActionHistory,
        episode_len: 3,
        ..EnvConfig::default()
    };
    let q = Arc::new(Quarantine::new(1));
    q.record_fault(fingerprint_module(&gsm()), 7);
    let mut env = PhaseOrderEnv::single(gsm(), cfg);
    env.set_quarantine(q);
    let pristine = print_module(&gsm());
    env.reset_to(9031);
    let mut expected = vec![0.0; env.num_actions()];
    // Masked (-gvn), a panicking apply (-mem2reg), a wrong result
    // (-instcombine).
    for action in [7, 38, 30] {
        let r = env.step(action);
        expected[action] = 1.0;
        assert_eq!(r.reward, 0.0, "action {action}");
        assert_eq!(r.observation, expected, "action {action}");
        assert_eq!(print_module(env.module()), pristine, "action {action}");
    }
    assert_eq!(plan.fired(), 2);
    fault::PLAN.clear();
}
