//! A versioned model registry: the durable half of the online-learning
//! loop.
//!
//! The registry is a directory. Each published model is one armored
//! [`PolicyCheckpoint`] file named `v<N>.ckpt` (the checkpoint format
//! carries its own checksums), and a small text `MANIFEST` records the
//! version history and which version is active:
//!
//! ```text
//! APREGISTRY1
//! version=1 file=v1.ckpt samples=480 updates=4
//! version=2 file=v2.ckpt samples=960 updates=8
//! active=2
//! checksum=9f86d081884c7d65
//! ```
//!
//! The checksum line is the FNV-1a hash of every preceding byte, so a
//! torn or bit-flipped manifest never parses as a shorter-but-valid
//! history. Writes follow the `APSTORE2` durability idiom: serialize to
//! a temp file, `fsync`, rename over `MANIFEST`, then fsync the
//! directory — a crash at any byte leaves either the old manifest or
//! the new one, never a hybrid.
//!
//! Recovery is the other half of the armor: when `MANIFEST` exists but
//! fails to parse, [`ModelRegistry::open`] quarantines it to
//! `MANIFEST.corrupt` and rebuilds the history by scanning the
//! directory for `v<N>.ckpt` files that still decode cleanly. Version
//! numbers and weights survive (they live in the checkpoints); only the
//! per-version sample/update counters are reset. The serve daemon's
//! promotion path layers its own gate on top: candidates load through
//! [`PolicyCheckpoint::load_armored`] and a corrupt one is quarantined
//! and dropped from the manifest so the old policy keeps serving.

use crate::checkpoint::{ArmoredLoad, PolicyCheckpoint};
use autophase_telemetry as telemetry;
use autophase_telemetry::faultfs;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

const MANIFEST: &str = "MANIFEST";
const HEADER: &str = "APREGISTRY1";

/// Failure opening or mutating the registry.
#[derive(Debug)]
pub struct RegistryError(pub String);

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "registry error: {}", self.0)
    }
}

impl std::error::Error for RegistryError {}

impl From<io::Error> for RegistryError {
    fn from(e: io::Error) -> RegistryError {
        RegistryError(format!("io: {e}"))
    }
}

impl From<crate::checkpoint::CheckpointError> for RegistryError {
    fn from(e: crate::checkpoint::CheckpointError) -> RegistryError {
        RegistryError(e.to_string())
    }
}

/// One published model version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionInfo {
    /// Monotonically increasing version number (1-based).
    pub version: u64,
    /// Checkpoint file name, relative to the registry directory.
    pub file: String,
    /// Training samples (transitions) consumed up to this version.
    pub samples: u64,
    /// Optimizer updates applied up to this version.
    pub updates: u64,
}

/// A directory of versioned checkpoints with a checksummed manifest.
#[derive(Debug)]
pub struct ModelRegistry {
    dir: PathBuf,
    versions: Vec<VersionInfo>,
    active: Option<u64>,
    recovered: bool,
}

/// Serialize a version history (plus optional active version) into the
/// `APREGISTRY1` manifest bytes, checksum line included. Public so the
/// property tests can round-trip arbitrary histories without a
/// filesystem.
pub fn encode_manifest(versions: &[VersionInfo], active: Option<u64>) -> Vec<u8> {
    let mut body = String::new();
    body.push_str(HEADER);
    body.push('\n');
    for v in versions {
        body.push_str(&format!(
            "version={} file={} samples={} updates={}\n",
            v.version, v.file, v.samples, v.updates
        ));
    }
    if let Some(a) = active {
        body.push_str(&format!("active={a}\n"));
    }
    let sum = faultfs::fnv1a(body.as_bytes());
    body.push_str(&format!("checksum={sum:016x}\n"));
    body.into_bytes()
}

fn kv<'a>(token: &'a str, key: &str) -> Option<&'a str> {
    token.strip_prefix(key)?.strip_prefix('=')
}

/// Parse and verify `APREGISTRY1` manifest bytes.
///
/// Fails closed: bad header, malformed line, duplicate/non-increasing
/// version, unsafe file name, unknown active version, missing or
/// mismatched checksum — every prefix of a valid manifest (torn write)
/// is rejected here, which is what lets `open` fall back to the
/// directory scan.
///
/// # Errors
///
/// [`RegistryError`] naming the first violation.
pub fn parse_manifest(bytes: &[u8]) -> Result<(Vec<VersionInfo>, Option<u64>), RegistryError> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| RegistryError("manifest not utf-8".into()))?;
    // The checksum line covers every byte before it, newline included.
    let body_end = text
        .rfind("checksum=")
        .ok_or_else(|| RegistryError("manifest missing checksum".into()))?;
    if body_end == 0 || !text[..body_end].ends_with('\n') {
        return Err(RegistryError("manifest checksum misplaced".into()));
    }
    let sum_line = text[body_end..]
        .strip_suffix('\n')
        .ok_or_else(|| RegistryError("manifest checksum unterminated".into()))?;
    let want = u64::from_str_radix(
        sum_line
            .strip_prefix("checksum=")
            .filter(|h| h.len() == 16)
            .ok_or_else(|| RegistryError("manifest checksum malformed".into()))?,
        16,
    )
    .map_err(|_| RegistryError("manifest checksum malformed".into()))?;
    let body = &text[..body_end];
    if faultfs::fnv1a(body.as_bytes()) != want {
        return Err(RegistryError("manifest checksum mismatch".into()));
    }

    let mut lines = body.lines();
    if lines.next() != Some(HEADER) {
        return Err(RegistryError("manifest bad header".into()));
    }
    let mut versions: Vec<VersionInfo> = Vec::new();
    let mut active = None;
    for line in lines {
        if let Some(a) = kv(line, "active") {
            let a: u64 = a
                .parse()
                .map_err(|_| RegistryError("manifest bad active".into()))?;
            if !versions.iter().any(|v| v.version == a) {
                return Err(RegistryError(format!("manifest active={a} not in history")));
            }
            if active.replace(a).is_some() {
                return Err(RegistryError("manifest duplicate active".into()));
            }
            continue;
        }
        let mut tokens = line.split(' ');
        let parsed = (|| {
            let version: u64 = kv(tokens.next()?, "version")?.parse().ok()?;
            let file = kv(tokens.next()?, "file")?;
            let samples: u64 = kv(tokens.next()?, "samples")?.parse().ok()?;
            let updates: u64 = kv(tokens.next()?, "updates")?.parse().ok()?;
            if tokens.next().is_some() || file.is_empty() || file.contains('/') {
                return None;
            }
            Some(VersionInfo {
                version,
                file: file.to_string(),
                samples,
                updates,
            })
        })()
        .ok_or_else(|| RegistryError(format!("manifest bad line: {line:?}")))?;
        if active.is_some() {
            return Err(RegistryError("manifest version after active".into()));
        }
        if versions
            .last()
            .is_some_and(|prev| prev.version >= parsed.version)
        {
            return Err(RegistryError("manifest versions not increasing".into()));
        }
        versions.push(parsed);
    }
    Ok((versions, active))
}

impl ModelRegistry {
    /// Open (or create) the registry at `dir`.
    ///
    /// A missing directory is created; a missing manifest is an empty
    /// registry. A manifest that exists but fails to parse is moved to
    /// `MANIFEST.corrupt` and the history rebuilt from the checkpoint
    /// files themselves (see module docs).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the directory could not be created
    /// or scanned, the corrupt manifest could not be moved aside).
    pub fn open(dir: &Path) -> Result<ModelRegistry, RegistryError> {
        std::fs::create_dir_all(dir)?;
        let manifest = dir.join(MANIFEST);
        let bytes = match faultfs::read(&manifest, "registry.manifest") {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok(ModelRegistry {
                    dir: dir.to_path_buf(),
                    versions: Vec::new(),
                    active: None,
                    recovered: false,
                });
            }
            Err(e) => return Err(e.into()),
        };
        match parse_manifest(&bytes) {
            Ok((versions, active)) => Ok(ModelRegistry {
                dir: dir.to_path_buf(),
                versions,
                active,
                recovered: false,
            }),
            Err(_) => {
                // Torn or corrupt manifest: quarantine it for forensics
                // and rebuild from the checkpoints, which carry their
                // own checksums and version numbers in their names.
                faultfs::rename(
                    &manifest,
                    &dir.join(format!("{MANIFEST}.corrupt")),
                    "registry.quarantine",
                )?;
                telemetry::incr("rl.registry", "manifest_recovered", 1);
                let mut reg = ModelRegistry {
                    dir: dir.to_path_buf(),
                    versions: scan_versions(dir)?,
                    active: None,
                    recovered: true,
                };
                reg.active = reg.versions.last().map(|v| v.version);
                reg.write_manifest()?;
                Ok(reg)
            }
        }
    }

    /// Whether `open` had to rebuild the history from a corrupt
    /// manifest.
    pub fn recovered_from_corrupt_manifest(&self) -> bool {
        self.recovered
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The published history, oldest first.
    pub fn versions(&self) -> &[VersionInfo] {
        &self.versions
    }

    /// The active (last promoted) version, if any.
    pub fn active(&self) -> Option<u64> {
        self.active
    }

    /// The newest published version number, if any.
    pub fn latest(&self) -> Option<u64> {
        self.versions.last().map(|v| v.version)
    }

    /// Path of `version`'s checkpoint file, if it is in the history.
    pub fn checkpoint_path(&self, version: u64) -> Option<PathBuf> {
        self.versions
            .iter()
            .find(|v| v.version == version)
            .map(|v| self.dir.join(&v.file))
    }

    /// Publish a checkpoint as the next version. The checkpoint file is
    /// written (atomically) before the manifest references it, so a
    /// crash between the two leaves an orphan file, never a dangling
    /// manifest entry.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the history is unchanged on
    /// failure.
    pub fn publish(
        &mut self,
        ckpt: &PolicyCheckpoint,
        samples: u64,
        updates: u64,
    ) -> Result<u64, RegistryError> {
        let version = self.latest().map_or(1, |v| v + 1);
        let file = format!("v{version}.ckpt");
        ckpt.save(&self.dir.join(&file))?;
        self.commit(|reg| {
            reg.versions.push(VersionInfo {
                version,
                file,
                samples,
                updates,
            })
        })?;
        telemetry::incr("rl.registry", "publish", 1);
        Ok(version)
    }

    /// Mark `version` active (what a fresh daemon should serve).
    ///
    /// # Errors
    ///
    /// Fails if `version` is not in the history or the manifest write
    /// fails (the previous active version is restored).
    pub fn set_active(&mut self, version: u64) -> Result<(), RegistryError> {
        if !self.versions.iter().any(|v| v.version == version) {
            return Err(RegistryError(format!("unknown version {version}")));
        }
        self.commit(|reg| reg.active = Some(version))?;
        telemetry::incr("rl.registry", "activate", 1);
        Ok(())
    }

    /// Load `version`'s checkpoint through the armored path. A corrupt
    /// file is quarantined on disk by `load_armored` *and* dropped from
    /// the manifest here, so the registry never advertises a version it
    /// has already proven unservable. An unknown version reports as
    /// [`ArmoredLoad::Unreadable`].
    pub fn load_armored(&mut self, version: u64) -> ArmoredLoad {
        let Some(path) = self.checkpoint_path(version) else {
            return ArmoredLoad::Unreadable(crate::checkpoint::CheckpointError(format!(
                "version {version} not in the registry"
            )));
        };
        let loaded = PolicyCheckpoint::load_armored(&path);
        if matches!(loaded, ArmoredLoad::Quarantined { .. }) {
            self.drop_version(version);
        }
        loaded
    }

    /// Quarantine `version` without loading it: its file is renamed to
    /// `<file>.quarantined` and the manifest entry dropped. This is the
    /// promotion gate's hook for candidates that decode cleanly but
    /// fail validation (wrong shape, NaN-poisoned weights). Returns the
    /// quarantine path when the rename succeeded.
    pub fn quarantine(&mut self, version: u64) -> Option<PathBuf> {
        let path = self.checkpoint_path(version)?;
        let q = PathBuf::from(format!("{}.quarantined", path.display()));
        let moved = faultfs::rename(&path, &q, "registry.quarantine").is_ok();
        self.drop_version(version);
        telemetry::incr("rl.registry", "quarantined", 1);
        moved.then_some(q)
    }

    /// Keep only the newest `keep` versions (plus the active one, which
    /// is never pruned); older checkpoint files are deleted best-effort
    /// after the manifest stops referencing them.
    ///
    /// # Errors
    ///
    /// Propagates a manifest write failure; the history is unchanged.
    pub fn retain_last(&mut self, keep: usize) -> Result<(), RegistryError> {
        if self.versions.len() <= keep {
            return Ok(());
        }
        let cut = self.versions.len() - keep;
        let (pruned, kept): (Vec<_>, Vec<_>) = self
            .versions
            .iter()
            .cloned()
            .enumerate()
            .partition(|(i, v)| *i < cut && Some(v.version) != self.active);
        self.commit(|reg| reg.versions = kept.into_iter().map(|(_, v)| v).collect())?;
        for (_, v) in pruned {
            let _ = std::fs::remove_file(self.dir.join(&v.file));
        }
        Ok(())
    }

    fn drop_version(&mut self, version: u64) {
        self.versions.retain(|v| v.version != version);
        if self.active == Some(version) {
            self.active = self.versions.last().map(|v| v.version);
        }
        // Best-effort: the in-memory drop is the authoritative state and
        // a failed rewrite will be retried by the next mutation.
        let _ = self.write_manifest();
    }

    /// Apply `mutate` and write the manifest; a failed write puts the
    /// previous history and active version back.
    fn commit(&mut self, mutate: impl FnOnce(&mut ModelRegistry)) -> Result<(), RegistryError> {
        let before = (self.versions.clone(), self.active);
        mutate(self);
        self.write_manifest()
            .inspect_err(|_| (self.versions, self.active) = before)
    }

    fn write_manifest(&self) -> Result<(), RegistryError> {
        let body = encode_manifest(&self.versions, self.active);
        faultfs::atomic_write(&self.dir.join(MANIFEST), &body, "registry.manifest")?;
        Ok(())
    }
}

/// Rebuild a version history by scanning `dir` for `v<N>.ckpt` files
/// that decode cleanly. Sample/update counters are lost (they lived
/// only in the manifest) and report as zero.
fn scan_versions(dir: &Path) -> Result<Vec<VersionInfo>, RegistryError> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(version) = name
            .strip_prefix('v')
            .and_then(|r| r.strip_suffix(".ckpt"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        if PolicyCheckpoint::load(&dir.join(name)).is_ok() {
            found.push(VersionInfo {
                version,
                file: name.to_string(),
                samples: 0,
                updates: 0,
            });
        }
    }
    found.sort_by_key(|v| v.version);
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppo::{PpoAgent, PpoConfig};

    fn ckpt(seed: u64) -> PolicyCheckpoint {
        let cfg = PpoConfig {
            hidden: vec![3],
            ..PpoConfig::default()
        };
        PolicyCheckpoint::from_ppo(&PpoAgent::new(2, 3, &cfg, seed))
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apreg_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn publish_activate_reopen_roundtrip() {
        let dir = tmp("roundtrip");
        let mut reg = ModelRegistry::open(&dir).unwrap();
        assert!(reg.versions().is_empty());
        assert_eq!(reg.publish(&ckpt(1), 100, 2).unwrap(), 1);
        assert_eq!(reg.publish(&ckpt(2), 200, 4).unwrap(), 2);
        reg.set_active(1).unwrap();

        let back = ModelRegistry::open(&dir).unwrap();
        assert!(!back.recovered_from_corrupt_manifest());
        assert_eq!(back.versions().len(), 2);
        assert_eq!(back.active(), Some(1));
        assert_eq!(back.latest(), Some(2));
        assert_eq!(back.versions()[1].samples, 200);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_recovers_from_checkpoints() {
        let dir = tmp("recover");
        let mut reg = ModelRegistry::open(&dir).unwrap();
        reg.publish(&ckpt(1), 10, 1).unwrap();
        reg.publish(&ckpt(2), 20, 2).unwrap();
        std::fs::write(dir.join(MANIFEST), b"APREGISTRY1\nversion=1 fil").unwrap();

        let back = ModelRegistry::open(&dir).unwrap();
        assert!(back.recovered_from_corrupt_manifest());
        let versions: Vec<u64> = back.versions().iter().map(|v| v.version).collect();
        assert_eq!(versions, vec![1, 2]);
        assert_eq!(back.active(), Some(2), "recovery activates the newest");
        assert!(dir.join("MANIFEST.corrupt").exists());
        // The rebuilt manifest is durable: a third open parses cleanly.
        assert!(!ModelRegistry::open(&dir)
            .unwrap()
            .recovered_from_corrupt_manifest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn armored_load_drops_corrupt_version() {
        let dir = tmp("armor");
        let mut reg = ModelRegistry::open(&dir).unwrap();
        reg.publish(&ckpt(1), 10, 1).unwrap();
        reg.publish(&ckpt(2), 20, 2).unwrap();
        let path = reg.checkpoint_path(2).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        assert!(matches!(
            reg.load_armored(2),
            ArmoredLoad::Quarantined { .. }
        ));
        assert_eq!(reg.latest(), Some(1), "corrupt version dropped");
        assert!(matches!(reg.load_armored(2), ArmoredLoad::Unreadable(_)));
        assert!(matches!(reg.load_armored(1), ArmoredLoad::Loaded(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_moves_file_and_drops_entry() {
        let dir = tmp("poison");
        let mut reg = ModelRegistry::open(&dir).unwrap();
        reg.publish(&ckpt(1), 10, 1).unwrap();
        reg.set_active(1).unwrap();
        let q = reg.quarantine(1).expect("rename succeeds");
        assert!(q.exists());
        assert!(reg.versions().is_empty());
        assert_eq!(reg.active(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retain_last_keeps_active_and_newest() {
        let dir = tmp("retain");
        let mut reg = ModelRegistry::open(&dir).unwrap();
        for s in 1..=5 {
            reg.publish(&ckpt(s), s * 10, s).unwrap();
        }
        reg.set_active(1).unwrap();
        reg.retain_last(2).unwrap();
        let versions: Vec<u64> = reg.versions().iter().map(|v| v.version).collect();
        assert_eq!(versions, vec![1, 4, 5], "active v1 survives pruning");
        assert!(reg.checkpoint_path(1).unwrap().exists());
        assert!(!dir.join("v2.ckpt").exists());
        assert!(!dir.join("v3.ckpt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_prefixes_never_parse() {
        let versions = vec![
            VersionInfo {
                version: 1,
                file: "v1.ckpt".into(),
                samples: 7,
                updates: 1,
            },
            VersionInfo {
                version: 9,
                file: "v9.ckpt".into(),
                samples: 70,
                updates: 12,
            },
        ];
        let bytes = encode_manifest(&versions, Some(9));
        let (back, active) = parse_manifest(&bytes).unwrap();
        assert_eq!(back, versions);
        assert_eq!(active, Some(9));
        for cut in 0..bytes.len() {
            assert!(
                parse_manifest(&bytes[..cut]).is_err(),
                "torn manifest parsed at byte {cut}"
            );
        }
    }
}
