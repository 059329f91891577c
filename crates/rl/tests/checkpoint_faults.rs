//! Disk faults under `PolicyCheckpoint::save`, through the injectable
//! fault layer in `autophase_telemetry::faultfs`.
//!
//! Only built with `--features fault-injection` (`make durability-smoke`
//! runs it). The fault plan is process-global, so this lives in its own
//! test binary, away from the unit tests that save checkpoints.
#![cfg(feature = "fault-injection")]

use autophase_nn::Mlp;
use autophase_rl::checkpoint::PolicyCheckpoint;
use autophase_rl::ppo::{PpoAgent, PpoConfig};
use autophase_telemetry::faultfs::inject::{
    clear_plan, install_plan, test_guard, DiskFaultPlan, DiskFaultSpec,
};
use autophase_telemetry::faultfs::{DiskFaultKind, DiskOp};
use std::path::PathBuf;

fn bits(net: &Mlp) -> Vec<u64> {
    net.parameters().iter().map(|v| v.to_bits()).collect()
}

/// A save that fails at any step of the publish — torn write, failed
/// sync, failed rename — errors, leaves no tmp behind, and leaves the
/// previous checkpoint loadable.
#[test]
fn failed_save_keeps_the_previous_checkpoint_and_no_tmp() {
    let _guard = test_guard();
    clear_plan();
    let old = PolicyCheckpoint::from_ppo(&PpoAgent::new(2, 3, &PpoConfig::default(), 11));
    let new = PolicyCheckpoint::from_ppo(&PpoAgent::new(2, 3, &PpoConfig::default(), 12));
    let path =
        std::env::temp_dir().join(format!("autophase_ckpt_fault_{}.ckpt", std::process::id()));
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    old.save(&path).unwrap();

    for (op, kind) in [
        (DiskOp::Write, DiskFaultKind::TornWrite),
        (DiskOp::Sync, DiskFaultKind::SyncFail),
        (DiskOp::Rename, DiskFaultKind::SyncFail),
    ] {
        let plan = install_plan(DiskFaultPlan::new(vec![DiskFaultSpec {
            op,
            tag: Some("ckpt.write".to_string()),
            nth: 1,
            kind,
            salt: 37,
        }]));
        assert!(new.save(&path).is_err(), "{op:?} fault must fail the save");
        assert_eq!(plan.fired(), 1);
        clear_plan();
        assert!(!tmp.exists(), "{op:?}: tmp left behind");
        let back = PolicyCheckpoint::load(&path).expect("previous checkpoint loads");
        assert_eq!(bits(&back.policy), bits(&old.policy), "{op:?}");
    }

    new.save(&path).unwrap();
    let back = PolicyCheckpoint::load(&path).unwrap();
    assert_eq!(bits(&back.policy), bits(&new.policy));
    let _ = std::fs::remove_file(&path);
}
