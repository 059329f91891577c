//! Versioned binary checkpoints for trained agents.
//!
//! The serving daemon starts from a checkpoint written here, and the
//! online learner publishes each of its versions as one. The vendored
//! serde is a marker-trait stub, so the format is hand-rolled:
//!
//! ```text
//! "APCK" | version u32 LE | algo u8 | policy_len u32 LE | policy blob |
//! value_len u32 LE | value blob
//! ```
//!
//! The two blobs are [`Mlp::to_bytes`] payloads and carry their own
//! checksums; decoding verifies both, so a truncated or bit-flipped file is
//! rejected with an error rather than silently degrading the policy.
//! Saves go through a temp-file-plus-rename so a crash mid-write never
//! leaves a half-written checkpoint at the target path.

use crate::ppo::PpoAgent;
use autophase_nn::mlp::Mlp;
use autophase_telemetry::faultfs;
use std::fmt;
use std::path::{Path, PathBuf};

const MAGIC: &[u8] = b"APCK";
const VERSION: u32 = 1;

/// Which algorithm produced the checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Proximal Policy Optimization.
    Ppo,
    /// Advantage actor-critic.
    A2c,
}

impl Algo {
    fn tag(self) -> u8 {
        match self {
            Algo::Ppo => 0,
            Algo::A2c => 1,
        }
    }

    fn from_tag(t: u8) -> Option<Algo> {
        match t {
            0 => Some(Algo::Ppo),
            1 => Some(Algo::A2c),
            _ => None,
        }
    }
}

/// Failure loading or decoding a checkpoint.
#[derive(Debug)]
pub struct CheckpointError(pub String);

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint error: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError(format!("io: {e}"))
    }
}

impl From<autophase_nn::mlp::DecodeError> for CheckpointError {
    fn from(e: autophase_nn::mlp::DecodeError) -> CheckpointError {
        CheckpointError(e.to_string())
    }
}

/// A trained policy/value pair with its algorithm tag.
#[derive(Debug, Clone)]
pub struct PolicyCheckpoint {
    /// The algorithm that trained the networks.
    pub algo: Algo,
    /// Policy network (logits over actions).
    pub policy: Mlp,
    /// Value network (scalar state value).
    pub value: Mlp,
}

impl PolicyCheckpoint {
    /// Snapshot a PPO agent's networks.
    pub fn from_ppo(agent: &PpoAgent) -> PolicyCheckpoint {
        PolicyCheckpoint {
            algo: Algo::Ppo,
            policy: agent.policy.clone(),
            value: agent.value.clone(),
        }
    }

    /// Serialize to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let policy = self.policy.to_bytes();
        let value = self.value.to_bytes();
        let mut out = Vec::with_capacity(MAGIC.len() + 13 + policy.len() + value.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.algo.tag());
        out.extend_from_slice(&(policy.len() as u32).to_le_bytes());
        out.extend_from_slice(&policy);
        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
        out.extend_from_slice(&value);
        out
    }

    /// Decode the versioned binary format.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, bad magic/version, or a corrupt
    /// network blob (each blob is checksummed).
    pub fn from_bytes(bytes: &[u8]) -> Result<PolicyCheckpoint, CheckpointError> {
        let rest = bytes
            .strip_prefix(MAGIC)
            .ok_or_else(|| CheckpointError("bad magic".into()))?;
        let (ver, rest) = split_u32(rest)?;
        if ver != VERSION {
            return Err(CheckpointError(format!("unsupported version {ver}")));
        }
        let (&tag, rest) = rest
            .split_first()
            .ok_or_else(|| CheckpointError("truncated".into()))?;
        let algo =
            Algo::from_tag(tag).ok_or_else(|| CheckpointError(format!("unknown algo {tag}")))?;
        let (policy_blob, rest) = split_blob(rest)?;
        let (value_blob, rest) = split_blob(rest)?;
        if !rest.is_empty() {
            return Err(CheckpointError("trailing bytes".into()));
        }
        Ok(PolicyCheckpoint {
            algo,
            policy: Mlp::from_bytes(policy_blob)?,
            value: Mlp::from_bytes(value_blob)?,
        })
    }

    /// Write the checkpoint to `path` atomically and durably
    /// ([`faultfs::atomic_write`]): a failed save leaves the previous
    /// checkpoint in place and no `<path>.tmp` behind.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        faultfs::atomic_write(path, &self.to_bytes(), "ckpt.write")?;
        Ok(())
    }

    /// Read a checkpoint from disk.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and any decode failure.
    pub fn load(path: &Path) -> Result<PolicyCheckpoint, CheckpointError> {
        let bytes = faultfs::read(path, "ckpt.read")?;
        PolicyCheckpoint::from_bytes(&bytes)
    }

    /// Read a checkpoint, quarantining it if it is corrupt: the file is
    /// renamed to `<path>.quarantined` (preserved for forensics, out of
    /// the boot path) and the failure reported as
    /// [`ArmoredLoad::Quarantined`] so the caller can fall back to a
    /// previous policy or baseline-only serving instead of dying. An
    /// unreadable file (missing, permission) is *not* quarantined —
    /// that is an operator problem, not bit rot.
    pub fn load_armored(path: &Path) -> ArmoredLoad {
        let bytes = match faultfs::read(path, "ckpt.read") {
            Ok(b) => b,
            Err(e) => return ArmoredLoad::Unreadable(e.into()),
        };
        match PolicyCheckpoint::from_bytes(&bytes) {
            Ok(ckpt) => ArmoredLoad::Loaded(ckpt),
            Err(error) => {
                let q = PathBuf::from(format!("{}.quarantined", path.display()));
                let moved_to = match faultfs::rename(path, &q, "ckpt.quarantine") {
                    Ok(()) => Some(q),
                    Err(_) => None,
                };
                autophase_telemetry::incr("rl.checkpoint", "quarantined", 1);
                ArmoredLoad::Quarantined { error, moved_to }
            }
        }
    }
}

/// Outcome of [`PolicyCheckpoint::load_armored`].
#[derive(Debug)]
pub enum ArmoredLoad {
    /// The checkpoint decoded and verified cleanly.
    Loaded(PolicyCheckpoint),
    /// The file exists but is corrupt or truncated; it has been renamed
    /// aside (`moved_to`, when the rename itself succeeded) and the
    /// caller must keep serving without it.
    Quarantined {
        /// Why decoding failed.
        error: CheckpointError,
        /// Where the corrupt file now lives, if the rename succeeded.
        moved_to: Option<PathBuf>,
    },
    /// The file could not be read at all (missing, permissions) — an
    /// operator error, left in place.
    Unreadable(CheckpointError),
}

fn split_u32(bytes: &[u8]) -> Result<(u32, &[u8]), CheckpointError> {
    if bytes.len() < 4 {
        return Err(CheckpointError("truncated".into()));
    }
    let (head, rest) = bytes.split_at(4);
    let mut b = [0u8; 4];
    b.copy_from_slice(head);
    Ok((u32::from_le_bytes(b), rest))
}

fn split_blob(bytes: &[u8]) -> Result<(&[u8], &[u8]), CheckpointError> {
    let (len, rest) = split_u32(bytes)?;
    let len = len as usize;
    if rest.len() < len {
        return Err(CheckpointError("truncated blob".into()));
    }
    Ok(rest.split_at(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::a2c::{A2cAgent, A2cConfig};
    use crate::env::{Environment, StepResult};
    use crate::ppo::PpoConfig;

    struct Bandit;

    impl Environment for Bandit {
        fn observation_dim(&self) -> usize {
            1
        }
        fn num_actions(&self) -> usize {
            2
        }
        fn reset(&mut self) -> Vec<f64> {
            vec![0.0]
        }
        fn step(&mut self, a: usize) -> StepResult {
            StepResult {
                observation: vec![0.0],
                reward: a as f64,
                done: true,
            }
        }
    }

    fn bits(net: &Mlp) -> Vec<u64> {
        net.parameters().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn ppo_roundtrip_is_bit_identical() {
        let cfg = PpoConfig {
            hidden: vec![8],
            ..Default::default()
        };
        let mut agent = PpoAgent::new(1, 2, &cfg, 7);
        agent.train(&mut Bandit, 5);
        let ckpt = PolicyCheckpoint::from_ppo(&agent);
        let back = PolicyCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back.algo, Algo::Ppo);
        assert_eq!(bits(&back.policy), bits(&agent.policy));
        assert_eq!(bits(&back.value), bits(&agent.value));
    }

    #[test]
    fn a2c_roundtrip_is_bit_identical() {
        let cfg = A2cConfig {
            hidden: vec![8],
            ..Default::default()
        };
        let mut agent = A2cAgent::new(1, 2, &cfg, 3);
        agent.train(&mut Bandit, 5);
        let ckpt = PolicyCheckpoint {
            algo: Algo::A2c,
            policy: agent.policy.clone(),
            value: agent.value.clone(),
        };
        let back = PolicyCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back.algo, Algo::A2c);
        assert_eq!(bits(&back.policy), bits(&agent.policy));
        assert_eq!(bits(&back.value), bits(&agent.value));
    }

    #[test]
    fn corruption_rejected() {
        let agent = PpoAgent::new(1, 2, &PpoConfig::default(), 1);
        let bytes = PolicyCheckpoint::from_ppo(&agent).to_bytes();
        assert!(PolicyCheckpoint::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(PolicyCheckpoint::from_bytes(&flipped).is_err());
        assert!(PolicyCheckpoint::from_bytes(b"APCKgarbage").is_err());
    }

    #[test]
    fn armored_load_quarantines_corruption_but_not_absence() {
        let agent = PpoAgent::new(2, 3, &PpoConfig::default(), 11);
        let ckpt = PolicyCheckpoint::from_ppo(&agent);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("autophase_ckpt_armor_{}.bin", std::process::id()));
        let quarantined = PathBuf::from(format!("{}.quarantined", path.display()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantined);

        // Missing file: unreadable, nothing quarantined.
        assert!(matches!(
            PolicyCheckpoint::load_armored(&path),
            ArmoredLoad::Unreadable(_)
        ));
        assert!(!quarantined.exists());

        // Clean file: loads.
        ckpt.save(&path).unwrap();
        assert!(matches!(
            PolicyCheckpoint::load_armored(&path),
            ArmoredLoad::Loaded(_)
        ));

        // Truncated file: quarantined aside, boot path cleared.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        match PolicyCheckpoint::load_armored(&path) {
            ArmoredLoad::Quarantined { moved_to, .. } => {
                assert_eq!(moved_to.as_deref(), Some(quarantined.as_path()));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(!path.exists(), "corrupt file moved out of the boot path");
        assert!(quarantined.exists(), "corrupt file preserved for forensics");
        let _ = std::fs::remove_file(&quarantined);
    }

    #[test]
    fn file_save_load_roundtrip() {
        let agent = PpoAgent::new(2, 3, &PpoConfig::default(), 11);
        let ckpt = PolicyCheckpoint::from_ppo(&agent);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("autophase_ckpt_test_{}.bin", std::process::id()));
        ckpt.save(&path).unwrap();
        let back = PolicyCheckpoint::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(bits(&back.policy), bits(&agent.policy));
    }
}
