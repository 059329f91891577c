//! The registry `MANIFEST` and `APCK` checkpoint bytes, pinned: a fixed
//! registry history must write exactly the committed manifest, a seeded
//! checkpoint must encode to exactly the committed file, and both
//! committed files must read back.
//!
//! The fixtures under `golden/` were written by the code *before* the
//! durable files' checksum moved into `autophase_telemetry::faultfs`
//! and the checkpoint lost its unused restore surface. Regenerate only
//! for an intended format change:
//! `cargo test -p autophase-rl --test disk_golden -- --ignored`.

use autophase_nn::Mlp;
use autophase_rl::checkpoint::{Algo, PolicyCheckpoint};
use autophase_rl::ppo::{PpoAgent, PpoConfig};
use autophase_rl::registry::{ModelRegistry, VersionInfo};
use std::path::{Path, PathBuf};

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apreg_golden_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ckpt(seed: u64) -> PolicyCheckpoint {
    let cfg = PpoConfig {
        hidden: vec![3],
        ..PpoConfig::default()
    };
    PolicyCheckpoint::from_ppo(&PpoAgent::new(2, 3, &cfg, seed))
}

fn bits(net: &Mlp) -> Vec<u64> {
    net.parameters().iter().map(|v| v.to_bits()).collect()
}

/// The fixed history: five publishes, an activation of a non-newest
/// version, a prune that must keep it, a quarantine, one more publish.
fn write_history(dir: &Path) -> ModelRegistry {
    let mut reg = ModelRegistry::open(dir).unwrap();
    for s in 1..=5u64 {
        assert_eq!(reg.publish(&ckpt(s), s * 480, s * 4).unwrap(), s);
    }
    reg.set_active(2).unwrap();
    reg.retain_last(2).unwrap();
    reg.quarantine(4).expect("rename succeeds");
    assert_eq!(reg.publish(&ckpt(6), u64::MAX, 0).unwrap(), 6);
    reg
}

fn expected_versions() -> Vec<VersionInfo> {
    [(2, 960, 8), (5, 2_400, 20), (6, u64::MAX, 0)]
        .into_iter()
        .map(|(version, samples, updates)| VersionInfo {
            version,
            file: format!("v{version}.ckpt"),
            samples,
            updates,
        })
        .collect()
}

#[test]
fn fixed_history_writes_the_committed_manifest() {
    let dir = tmp_dir("write");
    let reg = write_history(&dir);
    assert_eq!(reg.versions(), expected_versions());
    assert_eq!(
        std::fs::read(dir.join("MANIFEST")).unwrap(),
        std::fs::read(golden("MANIFEST")).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_manifest_opens_to_the_committed_history() {
    let dir = tmp_dir("reopen");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(golden("MANIFEST"), dir.join("MANIFEST")).unwrap();
    let reg = ModelRegistry::open(&dir).unwrap();
    assert!(!reg.recovered_from_corrupt_manifest());
    assert_eq!(reg.versions(), expected_versions());
    assert_eq!(reg.active(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_checkpoint_encodes_to_and_decodes_from_the_committed_bytes() {
    let ckpt = ckpt(0xA9C4);
    let want = std::fs::read(golden("policy.apck")).unwrap();
    assert_eq!(ckpt.to_bytes(), want, "encoded bytes");

    let dir = tmp_dir("ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("policy.apck");
    ckpt.save(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), want, "saved file");
    let _ = std::fs::remove_dir_all(&dir);

    let back = PolicyCheckpoint::load(&golden("policy.apck")).unwrap();
    assert_eq!(back.algo, Algo::Ppo);
    assert_eq!(bits(&back.policy), bits(&ckpt.policy));
    assert_eq!(bits(&back.value), bits(&ckpt.value));
}

#[test]
#[ignore = "overwrites the committed fixtures; run only for an intended format change"]
fn regenerate_golden_files() {
    std::fs::create_dir_all(golden("")).unwrap();
    let dir = tmp_dir("regen");
    write_history(&dir);
    std::fs::copy(dir.join("MANIFEST"), golden("MANIFEST")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::write(golden("policy.apck"), ckpt(0xA9C4).to_bytes()).unwrap();
}
