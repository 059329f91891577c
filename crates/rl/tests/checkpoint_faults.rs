//! Disk faults under `PolicyCheckpoint::save` and the model registry's
//! `MANIFEST`, through the injectable fault layer in
//! `autophase_telemetry::faultfs`.
//!
//! The fault plan is process-global, so this lives in its own test
//! binary, away from the unit tests that save checkpoints.
//! `make durability-smoke` runs it in release.

use autophase_nn::Mlp;
use autophase_rl::checkpoint::{ArmoredLoad, PolicyCheckpoint};
use autophase_rl::ppo::{PpoAgent, PpoConfig};
use autophase_rl::registry::ModelRegistry;
use autophase_telemetry::faultfs::{
    fnv1a, DiskFaultKind, DiskFaultPlan, DiskFaultSpec, DiskOp, PLAN,
};
use autophase_telemetry::test_guard;
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
    PLAN.clear();
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
        let plan = PLAN.install(DiskFaultPlan::new(vec![DiskFaultSpec {
            op,
            tag: Some("ckpt.write".to_string()),
            nth: 1,
            kind,
            salt: 37,
        }]));
        assert!(new.save(&path).is_err(), "{op:?} fault must fail the save");
        assert_eq!(plan.fired(), 1);
        PLAN.clear();
        assert!(!tmp.exists(), "{op:?}: tmp left behind");
        let back = PolicyCheckpoint::load(&path).expect("previous checkpoint loads");
        assert_eq!(bits(&back.policy), bits(&old.policy), "{op:?}");
    }

    new.save(&path).unwrap();
    let back = PolicyCheckpoint::load(&path).unwrap();
    assert_eq!(bits(&back.policy), bits(&new.policy));
    let _ = std::fs::remove_file(&path);
}

fn registry_with_three_versions(name: &str) -> (PathBuf, ModelRegistry) {
    let dir = std::env::temp_dir().join(format!("apreg_fault_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut reg = ModelRegistry::open(&dir).unwrap();
    for seed in 1..=3u64 {
        let ckpt = PolicyCheckpoint::from_ppo(&PpoAgent::new(2, 3, &PpoConfig::default(), seed));
        reg.publish(&ckpt, seed * 100, seed).unwrap();
    }
    reg.set_active(2).unwrap();
    (dir, reg)
}

/// A short read of `MANIFEST` is a torn manifest as far as `open` can
/// tell: it must rebuild every version from the checkpoint files, flag
/// the recovery, and leave a manifest the next open parses cleanly.
#[test]
fn short_manifest_read_recovers_every_version_from_the_checkpoints() {
    let _guard = test_guard();
    PLAN.clear();
    let (dir, reg) = registry_with_three_versions("shortread");
    drop(reg);

    let plan = PLAN.install(DiskFaultPlan::new(vec![DiskFaultSpec {
        op: DiskOp::Read,
        tag: Some("registry.manifest".to_string()),
        nth: 1,
        kind: DiskFaultKind::ShortRead,
        salt: 37,
    }]));
    let reg = ModelRegistry::open(&dir).expect("a short read must not fail the open");
    assert_eq!(plan.fired(), 1);
    PLAN.clear();
    assert!(reg.recovered_from_corrupt_manifest());
    let versions: Vec<u64> = reg.versions().iter().map(|v| v.version).collect();
    assert_eq!(versions, vec![1, 2, 3]);
    assert_eq!(reg.active(), Some(3), "recovery activates the newest");
    assert!(dir.join("MANIFEST.corrupt").exists());

    let again = ModelRegistry::open(&dir).unwrap();
    assert!(!again.recovered_from_corrupt_manifest());
    assert_eq!(again.versions(), reg.versions());
    let _ = std::fs::remove_dir_all(&dir);
}

/// While the manifest cannot be published, `publish`, `set_active` and
/// `retain_last` each fail and put the in-memory history back, so
/// memory and disk keep telling the same story.
#[test]
fn failed_manifest_write_rolls_the_mutation_back() {
    let _guard = test_guard();
    PLAN.clear();
    let (dir, mut reg) = registry_with_three_versions("rollback");
    let before = (reg.versions().to_vec(), reg.active());

    PLAN.install(DiskFaultPlan::new(vec![DiskFaultSpec {
        op: DiskOp::Rename,
        tag: Some("registry.manifest".to_string()),
        nth: 0,
        kind: DiskFaultKind::Enospc,
        salt: 0,
    }]));
    let ckpt = PolicyCheckpoint::from_ppo(&PpoAgent::new(2, 3, &PpoConfig::default(), 4));
    assert!(reg.publish(&ckpt, 400, 4).is_err());
    assert_eq!((reg.versions().to_vec(), reg.active()), before, "publish");
    assert!(reg.set_active(3).is_err());
    assert_eq!(
        (reg.versions().to_vec(), reg.active()),
        before,
        "set_active"
    );
    assert!(reg.retain_last(1).is_err());
    assert_eq!((reg.versions().to_vec(), reg.active()), before, "retain");
    assert!(
        dir.join("v1.ckpt").exists(),
        "a failed prune deletes nothing"
    );
    PLAN.clear();

    let disk = ModelRegistry::open(&dir).unwrap();
    assert!(!disk.recovered_from_corrupt_manifest());
    assert_eq!((disk.versions().to_vec(), disk.active()), before);
    assert_eq!(reg.publish(&ckpt, 400, 4).unwrap(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint whose policy blob is checksummed but declares one
/// `2²⁰ × 2²⁰` layer and no weights is quarantined, not sized: decoding
/// it must not try to allocate the 8 TiB the header claims.
#[test]
fn a_blob_declaring_a_huge_layer_is_quarantined() {
    let _guard = test_guard();
    PLAN.clear();
    let agent = PpoAgent::new(2, 3, &PpoConfig::default(), 11);
    let valid = PolicyCheckpoint::from_ppo(&agent).to_bytes();
    let mut blob = b"APNN".to_vec();
    blob.extend_from_slice(&1u32.to_le_bytes());
    blob.push(0);
    blob.extend_from_slice(&0u64.to_le_bytes());
    blob.extend_from_slice(&2u32.to_le_bytes());
    for _ in 0..2 {
        blob.extend_from_slice(&(1u32 << 20).to_le_bytes());
    }
    let sum = fnv1a(&blob);
    blob.extend_from_slice(&sum.to_le_bytes());
    let value = agent.value.to_bytes();
    // Magic, version and algorithm tag, then the two length-prefixed blobs.
    let mut bytes = valid[..9].to_vec();
    for b in [&blob, &value] {
        bytes.extend_from_slice(&(b.len() as u32).to_le_bytes());
        bytes.extend_from_slice(b);
    }
    let path =
        std::env::temp_dir().join(format!("autophase_ckpt_huge_{}.ckpt", std::process::id()));
    let quarantined = PathBuf::from(format!("{}.quarantined", path.display()));
    std::fs::write(&path, &bytes).unwrap();
    match PolicyCheckpoint::load_armored(&path) {
        ArmoredLoad::Quarantined { moved_to, .. } => {
            assert_eq!(moved_to.as_deref(), Some(quarantined.as_path()));
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    let _ = std::fs::remove_file(&quarantined);
}
