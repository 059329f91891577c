//! Content-addressed persistent store of best-known pass orderings.
//!
//! A compacting snapshot + tail-log pair with an in-memory index keyed
//! by program fingerprint (the workspace-wide content hash from
//! `autophase_core::eval_cache::fingerprint_module`). Serving a repeat
//! program is a `HashMap` lookup; discovering a better ordering appends
//! one record. The files survive restarts, so everything the daemon
//! ever learned about a program keeps paying off across deployments.
//!
//! # On-disk format (`APSTORE2` generation)
//!
//! Two files. The **tail log** at the store path holds records appended
//! since the last compaction:
//!
//! ```text
//! "APSTORE2"                                  // 8-byte file header
//! record := len u32 LE | payload | fnv1a-64(payload) u64 LE
//! payload := fingerprint u64 | cycles u64 | baseline_cycles u64
//!          | n u16 | n × pass id u16         // all LE
//! ```
//!
//! The **snapshot** at `<path>.snap` holds one record per live entry as
//! of its generation, plus a self-checking trailer:
//!
//! ```text
//! "APSNAPS2" | generation u64 LE
//! records (same framing; one per fingerprint, sorted)
//! 0xFFFF_FFFF u32 LE                          // sentinel: no record is this long
//! count u64 LE | fnv1a-64(all preceding bytes) u64 LE
//! ```
//!
//! The record frame is [`faultfs::push_frame`]'s, written and checked
//! there; this module owns the payload and what a bad frame means for
//! each file.
//!
//! Reopen loads the snapshot, replays the tail over it, and is O(live
//! entries + tail records) — compaction keeps the tail bounded, so
//! restart cost no longer grows with the store's full history.
//!
//! # Crash safety
//!
//! Appends are a single `write_all` + `sync_data` (routed through
//! [`autophase_telemetry::faultfs`] so the chaos suite can tear them).
//! Reopen scans tail records until the first truncated or
//! checksum-failing one and truncates back to the last good record, so
//! a torn tail costs at most the interrupted — unacknowledged — record.
//!
//! Compaction writes the next-generation snapshot to `<path>.snap.tmp`,
//! fsyncs, renames over `<path>.snap`, fsyncs the directory, and only
//! then truncates the tail. A crash at **any** byte of that sequence
//! recovers: before the rename the old snapshot + full tail replay to
//! the same index; after it, the new snapshot + not-yet-truncated tail
//! replay idempotently (insert-if-strictly-better is order-insensitive
//! for the same data). A stale `.snap.tmp` is deleted on open. A
//! snapshot that fails validation (bit rot — crashes cannot produce one
//! past the atomic rename) is quarantined to `<path>.snap.corrupt` and
//! the store continues from the tail alone.

use autophase_telemetry::faultfs;
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

const TAIL_MAGIC: &[u8; 8] = b"APSTORE2";
const SNAP_MAGIC: &[u8; 8] = b"APSNAPS2";
/// Record-length sentinel opening the snapshot trailer. Unambiguous:
/// a real record's length field is at most `26 + 2 * MAX_SEQ_LEN`.
const SNAP_SENTINEL: u32 = u32::MAX;
/// Cap on passes per record — same plausibility guard the codecs use.
const MAX_SEQ_LEN: usize = 4096;

/// Best-known answer for one program fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestEntry {
    /// Cycle count the ordering achieves.
    pub cycles: u64,
    /// Cycle count of the unoptimized program (cached so store hits
    /// answer without any profiling).
    pub baseline_cycles: u64,
    /// The effective ordering (changing passes, Table-1 ids).
    pub seq: Vec<u16>,
}

/// When the store folds its tail log into the next snapshot generation.
///
/// Compaction runs after an append when the tail is at least
/// `min_tail_bytes` long **and** either outweighs the snapshot
/// (`tail_bytes ≥ tail_factor × snapshot_bytes`) or is mostly dead
/// weight (superseded re-records of fingerprints already in the tail:
/// `dead / records ≥ dead_ratio`). It also runs on graceful shutdown
/// via [`BestStore::compact_if_dirty`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Tails shorter than this never trigger compaction (bytes past the
    /// 8-byte header).
    pub min_tail_bytes: u64,
    /// Compact when `tail_bytes ≥ tail_factor × snapshot_bytes`.
    pub tail_factor: f64,
    /// Compact when the fraction of tail records superseded by later
    /// tail records reaches this.
    pub dead_ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> CompactionPolicy {
        CompactionPolicy {
            min_tail_bytes: 64 * 1024,
            tail_factor: 1.0,
            dead_ratio: 0.5,
        }
    }
}

impl CompactionPolicy {
    /// A policy that never compacts automatically (tests use this to
    /// pin what unbounded history costs).
    pub fn never() -> CompactionPolicy {
        CompactionPolicy {
            min_tail_bytes: u64::MAX,
            ..CompactionPolicy::default()
        }
    }
}

/// A point-in-time accounting of the store's two files, for telemetry
/// and the durability benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Live fingerprints in the index.
    pub entries: usize,
    /// Snapshot generation (0 = no snapshot written yet).
    pub generation: u64,
    /// Size of the current snapshot file in bytes (0 when none).
    pub snapshot_bytes: u64,
    /// Tail-log record bytes (excludes the 8-byte header).
    pub tail_bytes: u64,
    /// Records currently in the tail.
    pub tail_records: u64,
    /// Tail records superseded by later tail records.
    pub dead_tail_records: u64,
    /// Compactions performed by this handle.
    pub compactions: u64,
    /// Whether this open quarantined a corrupt snapshot.
    pub snapshot_quarantined: bool,
}

/// The persistent best-ordering store (see module docs).
#[derive(Debug)]
pub struct BestStore {
    file: File,
    path: PathBuf,
    index: HashMap<u64, BestEntry>,
    /// Tail-file append offset (includes the 8-byte header).
    tail: u64,
    tail_records: u64,
    /// Fingerprints appended to the tail since the last compaction.
    tail_fps: HashSet<u64>,
    dead_tail_records: u64,
    generation: u64,
    snapshot_bytes: u64,
    policy: CompactionPolicy,
    compactions: u64,
    snapshot_quarantined: bool,
    /// Records dropped by the last open's torn-tail scan.
    dropped_on_open: usize,
}

fn encode_record(fp: u64, entry: &BestEntry) -> Vec<u8> {
    let mut payload = Vec::with_capacity(26 + 2 * entry.seq.len());
    payload.extend_from_slice(&fp.to_le_bytes());
    payload.extend_from_slice(&entry.cycles.to_le_bytes());
    payload.extend_from_slice(&entry.baseline_cycles.to_le_bytes());
    payload.extend_from_slice(&(entry.seq.len() as u16).to_le_bytes());
    for &p in &entry.seq {
        payload.extend_from_slice(&p.to_le_bytes());
    }
    let mut rec = Vec::new();
    faultfs::push_frame(&mut rec, &payload);
    rec
}

fn decode_payload(payload: &[u8]) -> Option<(u64, BestEntry)> {
    if payload.len() < 26 {
        return None;
    }
    let fp = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let cycles = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    let baseline_cycles = u64::from_le_bytes(payload[16..24].try_into().ok()?);
    let n = u16::from_le_bytes(payload[24..26].try_into().ok()?) as usize;
    if n > MAX_SEQ_LEN || payload.len() != 26 + 2 * n {
        return None;
    }
    let seq = (0..n)
        .map(|i| u16::from_le_bytes(payload[26 + 2 * i..28 + 2 * i].try_into().unwrap()))
        .collect();
    Some((
        fp,
        BestEntry {
            cycles,
            baseline_cycles,
            seq,
        },
    ))
}

/// Scan a record region, folding each good record into `index` with
/// insert-if-strictly-better. Returns the fingerprints in record order,
/// the byte length of the good prefix, and whether a torn/corrupt tail
/// was hit (everything from there on is dropped).
fn replay_records(bytes: &[u8], index: &mut HashMap<u64, BestEntry>) -> (Vec<u64>, usize, bool) {
    let mut fps = Vec::new();
    let mut rest = bytes;
    // A bad frame or payload ends the scan: we cannot reframe past a
    // bad length, so everything from there on is one dropped tail.
    while let Some((payload, after)) = faultfs::split_frame(rest) {
        let Some((fp, entry)) = decode_payload(payload) else {
            break;
        };
        if index.get(&fp).is_none_or(|cur| entry.cycles < cur.cycles) {
            index.insert(fp, entry);
        }
        fps.push(fp);
        rest = after;
    }
    (fps, bytes.len() - rest.len(), !rest.is_empty())
}

fn snap_path(path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.snap", path.display()))
}

fn snap_tmp_path(path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.snap.tmp", path.display()))
}

fn snap_quarantine_path(path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.snap.corrupt", path.display()))
}

/// Parse a complete snapshot file; `None` on any framing, checksum,
/// count, or trailing-bytes violation.
fn parse_snapshot(bytes: &[u8]) -> Option<(u64, HashMap<u64, BestEntry>)> {
    let (generation, mut rest) = bytes.strip_prefix(SNAP_MAGIC)?.split_first_chunk::<8>()?;
    let mut entries = HashMap::new();
    loop {
        if let Some(trailer) = rest.strip_prefix(&SNAP_SENTINEL.to_le_bytes()) {
            // Exactly `count | checksum`, nothing after; the checksum
            // covers every byte before itself.
            let (count, sum) = trailer.split_first_chunk::<8>()?;
            let sum = <[u8; 8]>::try_from(sum).ok()?;
            if u64::from_le_bytes(*count) != entries.len() as u64
                || u64::from_le_bytes(sum) != faultfs::fnv1a(&bytes[..bytes.len() - 8])
            {
                return None;
            }
            return Some((u64::from_le_bytes(*generation), entries));
        }
        let (payload, after) = faultfs::split_frame(rest)?;
        let (fp, entry) = decode_payload(payload)?;
        if entries.insert(fp, entry).is_some() {
            return None; // duplicate fingerprint: not a writer artifact
        }
        rest = after;
    }
}

/// Serialize `index` as snapshot `generation` and publish it atomically
/// at `<path>.snap` ([`faultfs::atomic_write`]). Returns the snapshot's
/// size in bytes.
fn write_snapshot(
    path: &Path,
    generation: u64,
    index: &HashMap<u64, BestEntry>,
) -> io::Result<u64> {
    let mut body = Vec::new();
    body.extend_from_slice(SNAP_MAGIC);
    body.extend_from_slice(&generation.to_le_bytes());
    let mut fps: Vec<u64> = index.keys().copied().collect();
    fps.sort_unstable(); // deterministic bytes for a given index
    for fp in fps {
        body.extend_from_slice(&encode_record(fp, &index[&fp]));
    }
    body.extend_from_slice(&SNAP_SENTINEL.to_le_bytes());
    body.extend_from_slice(&(index.len() as u64).to_le_bytes());
    let sum = faultfs::fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());

    faultfs::atomic_write(&snap_path(path), &body, "store.snapshot")?;
    Ok(body.len() as u64)
}

impl BestStore {
    /// Open (creating if absent) the store at `path` with the default
    /// [`CompactionPolicy`]. See [`BestStore::open_with`].
    pub fn open(path: &Path) -> io::Result<BestStore> {
        BestStore::open_with(path, CompactionPolicy::default())
    }

    /// Open (creating if absent) the store at `path`: load the
    /// snapshot, replay the tail log over it, and truncate any torn
    /// tail back to the last good record.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or `InvalidData` if the file exists but is
    /// not an autophase store (refuse to clobber foreign files).
    pub fn open_with(path: &Path, policy: CompactionPolicy) -> io::Result<BestStore> {
        // A stale tmp is a crashed compaction's half-written snapshot;
        // it was never renamed into place, so it holds nothing durable.
        let _ = std::fs::remove_file(snap_tmp_path(path));

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let torn_header = bytes.len() < TAIL_MAGIC.len() && TAIL_MAGIC.starts_with(&bytes);
        if bytes.is_empty() || torn_header {
            // Fresh store, or a creation torn mid-header (the only
            // write that can leave a short file): (re)write the header.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            faultfs::write_all(&mut file, TAIL_MAGIC, "store.log")?;
            faultfs::sync_data(&file, "store.log")?;
            bytes.clear();
            bytes.extend_from_slice(TAIL_MAGIC);
        } else if !bytes.starts_with(TAIL_MAGIC) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not an autophase store", path.display()),
            ));
        }

        // Snapshot first, tail over it.
        let mut index: HashMap<u64, BestEntry> = HashMap::new();
        let mut generation = 0u64;
        let mut snapshot_bytes = 0u64;
        let mut snapshot_quarantined = false;
        let sp = snap_path(path);
        match faultfs::read(&sp, "store.snapshot") {
            Ok(snap) => match parse_snapshot(&snap) {
                Some((gen, entries)) => {
                    generation = gen;
                    snapshot_bytes = snap.len() as u64;
                    index = entries;
                }
                None => {
                    // Disk corruption, not a crash artifact: the rename
                    // is atomic, so no crash leaves a half snapshot at
                    // the published path. Quarantine it and serve from
                    // the tail alone.
                    let _ = faultfs::rename(&sp, &snap_quarantine_path(path), "store.snapshot");
                    snapshot_quarantined = true;
                    autophase_telemetry::incr("serve.store", "snapshot_quarantined", 1);
                }
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }

        let (fps, good, dropped) = replay_records(&bytes[TAIL_MAGIC.len()..], &mut index);
        let offset = (TAIL_MAGIC.len() + good) as u64;
        file.set_len(offset)?;
        file.seek(SeekFrom::Start(offset))?;
        let tail_records = fps.len() as u64;
        let tail_fps: HashSet<u64> = fps.iter().copied().collect();
        let dead_tail_records = tail_records - tail_fps.len() as u64;
        Ok(BestStore {
            file,
            path: path.to_path_buf(),
            index,
            tail: offset,
            tail_records,
            tail_fps,
            dead_tail_records,
            generation,
            snapshot_bytes,
            policy,
            compactions: 0,
            snapshot_quarantined,
            dropped_on_open: dropped as usize,
        })
    }

    /// Best-known entry for a program fingerprint.
    pub fn lookup(&self, fp: u64) -> Option<&BestEntry> {
        self.index.get(&fp)
    }

    /// Record an answer if it beats (strictly) the best known one.
    /// Returns whether the entry was stored. The append is durable
    /// (synced) before the index is updated, so a `true` return is an
    /// acknowledgment: the record survives any subsequent crash.
    ///
    /// May trigger a compaction per the [`CompactionPolicy`]; a failed
    /// compaction is counted (`serve.store{compaction_error}`) and
    /// retried on a later append, never surfaced as a record failure —
    /// the acknowledged append is already safe in the tail.
    ///
    /// # Errors
    ///
    /// Filesystem errors; the in-memory index is left unchanged on error.
    pub fn record(&mut self, fp: u64, entry: BestEntry) -> io::Result<bool> {
        if entry.seq.len() > MAX_SEQ_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "pass sequence too long for a store record",
            ));
        }
        if let Some(cur) = self.index.get(&fp) {
            if entry.cycles >= cur.cycles {
                return Ok(false);
            }
        }
        let rec = encode_record(fp, &entry);
        // The synced append is the store's slow path; time it so STATS
        // can show when fsync latency starts dominating cold requests.
        let t = autophase_telemetry::maybe_now();
        self.file.seek(SeekFrom::Start(self.tail))?;
        faultfs::write_all(&mut self.file, &rec, "store.append")?;
        faultfs::sync_data(&self.file, "store.append")?;
        autophase_telemetry::observe_since("serve.store_ns", "append", t);
        self.tail += rec.len() as u64;
        self.tail_records += 1;
        if !self.tail_fps.insert(fp) {
            self.dead_tail_records += 1;
        }
        self.index.insert(fp, entry);
        if self.should_compact() {
            if let Err(e) = self.compact() {
                autophase_telemetry::incr("serve.store", "compaction_error", 1);
                let _ = e; // deferred: the tail still holds everything
            }
        }
        Ok(true)
    }

    fn should_compact(&self) -> bool {
        let tail_bytes = self.tail - TAIL_MAGIC.len() as u64;
        if tail_bytes < self.policy.min_tail_bytes {
            return false;
        }
        let dead = self.dead_tail_records as f64 / (self.tail_records.max(1)) as f64;
        tail_bytes as f64 >= self.policy.tail_factor * self.snapshot_bytes as f64
            || dead >= self.policy.dead_ratio
    }

    /// Fold the tail into the next snapshot generation and truncate the
    /// tail. Crash-safe at every byte (see module docs). On error the
    /// store stays fully consistent — at worst the new snapshot is
    /// published but the tail not yet truncated, which reopens
    /// idempotently and is retried by the next triggered compaction.
    pub fn compact(&mut self) -> io::Result<()> {
        let t = autophase_telemetry::maybe_now();
        let generation = self.generation + 1;
        self.snapshot_bytes = write_snapshot(&self.path, generation, &self.index)?;
        self.generation = generation;
        self.file.set_len(TAIL_MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::Start(TAIL_MAGIC.len() as u64))?;
        faultfs::sync_data(&self.file, "store.log")?;
        self.tail = TAIL_MAGIC.len() as u64;
        self.tail_records = 0;
        self.tail_fps.clear();
        self.dead_tail_records = 0;
        self.compactions += 1;
        autophase_telemetry::incr("serve.store", "compaction", 1);
        autophase_telemetry::observe_since("serve.store_ns", "compact", t);
        Ok(())
    }

    /// [`BestStore::compact`], but only when the tail holds records —
    /// the graceful-shutdown hook, so a cleanly stopped daemon restarts
    /// from a pure snapshot.
    pub fn compact_if_dirty(&mut self) -> io::Result<()> {
        if self.tail_records > 0 {
            self.compact()
        } else {
            Ok(())
        }
    }

    /// Retire a fingerprint from the in-memory index, returning the entry
    /// it held. The server uses this when a stored ordering no longer
    /// replays cleanly (a pass in it now faults or runs out of fuel), so
    /// the next request recomputes instead of serving numbers the IR
    /// cannot back. The on-disk record is not rewritten; if nothing
    /// strictly better is recorded over it, the entry can resurface on
    /// the next [`BestStore::open`] — at worst it is retired again on
    /// first touch, never served inconsistently. The next compaction
    /// drops it for good (snapshots hold only the live index).
    pub fn remove(&mut self, fp: u64) -> Option<BestEntry> {
        self.index.remove(&fp)
    }

    /// Number of distinct programs in the index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no program has an entry yet.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether the last open dropped a torn/corrupt tail.
    pub fn dropped_on_open(&self) -> bool {
        self.dropped_on_open > 0
    }

    /// Current file accounting (see [`StoreStats`]).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.index.len(),
            generation: self.generation,
            snapshot_bytes: self.snapshot_bytes,
            tail_bytes: self.tail - TAIL_MAGIC.len() as u64,
            tail_records: self.tail_records,
            dead_tail_records: self.dead_tail_records,
            compactions: self.compactions,
            snapshot_quarantined: self.snapshot_quarantined,
        }
    }

    /// The tail log's filesystem path (the snapshot lives beside it at
    /// `<path>.snap`).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("autophase_store_{}_{name}.log", std::process::id()))
    }

    fn wipe(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(snap_path(path));
        let _ = std::fs::remove_file(snap_tmp_path(path));
        let _ = std::fs::remove_file(snap_quarantine_path(path));
    }

    fn entry(cycles: u64, seq: &[u16]) -> BestEntry {
        BestEntry {
            cycles,
            baseline_cycles: cycles * 2,
            seq: seq.to_vec(),
        }
    }

    /// A policy that compacts after every append.
    fn eager() -> CompactionPolicy {
        CompactionPolicy {
            min_tail_bytes: 1,
            tail_factor: 0.0,
            dead_ratio: 0.0,
        }
    }

    #[test]
    fn roundtrips_across_reopen() {
        let path = tmp("roundtrip");
        wipe(&path);
        {
            let mut s = BestStore::open(&path).unwrap();
            assert!(s.is_empty());
            assert!(s.record(1, entry(100, &[31, 38])).unwrap());
            assert!(s.record(2, entry(50, &[])).unwrap());
            // Not better: ignored, not appended.
            assert!(!s.record(1, entry(100, &[30])).unwrap());
            assert!(!s.record(1, entry(150, &[30])).unwrap());
            // Strictly better: supersedes.
            assert!(s.record(1, entry(90, &[31, 38, 30])).unwrap());
        }
        let s = BestStore::open(&path).unwrap();
        assert!(!s.dropped_on_open());
        assert_eq!(s.len(), 2);
        assert_eq!(s.lookup(1).unwrap(), &entry(90, &[31, 38, 30]));
        assert_eq!(s.lookup(2).unwrap(), &entry(50, &[]));
        assert!(s.lookup(3).is_none());
        wipe(&path);
    }

    #[test]
    fn torn_trailing_record_is_dropped_not_a_panic() {
        let path = tmp("torn");
        wipe(&path);
        {
            let mut s = BestStore::open(&path).unwrap();
            s.record(1, entry(100, &[31])).unwrap();
            s.record(2, entry(200, &[38, 30])).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Simulate a crash mid-append: a fresh record cut off partway.
        let torn_rec = encode_record(3, &entry(300, &[7, 8, 9]));
        for cut in [1, 5, torn_rec.len() - 1] {
            let mut bytes = full.clone();
            bytes.extend_from_slice(&torn_rec[..cut]);
            std::fs::write(&path, &bytes).unwrap();
            let s = BestStore::open(&path).unwrap();
            assert!(s.dropped_on_open(), "cut at {cut} not detected");
            assert_eq!(s.len(), 2, "good prefix lost at cut {cut}");
            assert!(s.lookup(3).is_none());
            // The truncation leaves a healthy file behind.
            assert_eq!(std::fs::read(&path).unwrap(), full);
        }
        wipe(&path);
    }

    #[test]
    fn corrupt_tail_checksum_is_dropped_and_appends_resume() {
        let path = tmp("corrupt");
        wipe(&path);
        {
            let mut s = BestStore::open(&path).unwrap();
            s.record(1, entry(100, &[31])).unwrap();
        }
        let good = std::fs::read(&path).unwrap();
        let mut bytes = good.clone();
        let mut bad = encode_record(2, &entry(50, &[38]));
        let last = bad.len() - 1;
        bad[last] ^= 0xff; // break the checksum
        bytes.extend_from_slice(&bad);
        std::fs::write(&path, &bytes).unwrap();
        {
            let mut s = BestStore::open(&path).unwrap();
            assert!(s.dropped_on_open());
            assert_eq!(s.len(), 1);
            // New appends land where the good prefix ended.
            assert!(s.record(4, entry(70, &[23])).unwrap());
        }
        let s = BestStore::open(&path).unwrap();
        assert!(!s.dropped_on_open());
        assert_eq!(s.len(), 2);
        assert_eq!(s.lookup(4).unwrap(), &entry(70, &[23]));
        wipe(&path);
    }

    #[test]
    fn removed_entries_can_be_rerecorded() {
        let path = tmp("remove");
        wipe(&path);
        {
            let mut s = BestStore::open(&path).unwrap();
            assert!(s.record(1, entry(100, &[31])).unwrap());
            assert_eq!(s.remove(1), Some(entry(100, &[31])));
            assert!(s.lookup(1).is_none());
            assert!(s.remove(1).is_none());
            // After removal even a worse answer is recordable — the slot
            // is empty again as far as the index is concerned.
            assert!(s.record(1, entry(150, &[30])).unwrap());
            assert_eq!(s.lookup(1).unwrap(), &entry(150, &[30]));
        }
        // Removal is in-memory: tail replay keeps the best record.
        let s = BestStore::open(&path).unwrap();
        assert_eq!(s.lookup(1).unwrap(), &entry(100, &[31]));
        wipe(&path);
    }

    #[test]
    fn removed_entries_die_at_compaction() {
        let path = tmp("remove_compact");
        wipe(&path);
        let mut s = BestStore::open(&path).unwrap();
        s.record(1, entry(100, &[31])).unwrap();
        s.record(2, entry(200, &[38])).unwrap();
        s.remove(1);
        s.compact().unwrap();
        drop(s);
        let s = BestStore::open(&path).unwrap();
        assert!(s.lookup(1).is_none(), "compaction drops retired entries");
        assert_eq!(s.lookup(2).unwrap(), &entry(200, &[38]));
        wipe(&path);
    }

    #[test]
    fn refuses_to_clobber_foreign_files() {
        let path = tmp("foreign");
        wipe(&path);
        // The second input is a log of the retired append-only
        // generation: no reader for it remains, so it is foreign too.
        let mut v1 = b"APSTORE1".to_vec();
        v1.extend_from_slice(&encode_record(1, &entry(100, &[31])));
        for foreign in [b"definitely not a store file".as_slice(), &v1] {
            std::fs::write(&path, foreign).unwrap();
            let err = BestStore::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("not an autophase store"));
            assert_eq!(std::fs::read(&path).unwrap(), foreign, "untouched");
            assert!(!snap_path(&path).exists());
        }
        wipe(&path);
    }

    #[test]
    fn compaction_folds_tail_into_snapshot() {
        let path = tmp("compact");
        wipe(&path);
        {
            let mut s = BestStore::open_with(&path, eager()).unwrap();
            for fp in 0..20u64 {
                assert!(s.record(fp, entry(1000 + fp, &[31, 38])).unwrap());
            }
            let st = s.stats();
            assert!(st.compactions >= 19, "eager policy compacts per append");
            assert_eq!(st.tail_records, 0, "tail folded away");
            assert!(st.generation >= 19);
            assert!(st.snapshot_bytes > 0);
        }
        let s = BestStore::open(&path).unwrap();
        assert_eq!(s.len(), 20);
        for fp in 0..20u64 {
            assert_eq!(s.lookup(fp).unwrap(), &entry(1000 + fp, &[31, 38]));
        }
        assert_eq!(
            s.stats().tail_bytes,
            0,
            "reopen after compaction replays no tail"
        );
        wipe(&path);
    }

    #[test]
    fn dead_ratio_triggers_compaction() {
        let path = tmp("dead");
        wipe(&path);
        let mut s = BestStore::open_with(
            &path,
            CompactionPolicy {
                min_tail_bytes: 1,
                tail_factor: f64::INFINITY,
                dead_ratio: 0.5,
            },
        )
        .unwrap();
        // Churn one fingerprint: each re-record supersedes the last.
        for i in 0..10u64 {
            assert!(s.record(7, entry(1000 - i, &[31])).unwrap());
        }
        assert!(s.stats().compactions > 0, "churn must trigger compaction");
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup(7).unwrap().cycles, 991);
        wipe(&path);
    }

    #[test]
    fn stale_snapshot_tmp_is_removed_on_open() {
        let path = tmp("staletmp");
        wipe(&path);
        {
            let mut s = BestStore::open(&path).unwrap();
            s.record(1, entry(100, &[31])).unwrap();
        }
        std::fs::write(snap_tmp_path(&path), b"half-written garbage").unwrap();
        let s = BestStore::open(&path).unwrap();
        assert_eq!(s.len(), 1);
        assert!(
            !snap_tmp_path(&path).exists(),
            "crashed compaction's tmp cleaned up"
        );
        wipe(&path);
    }

    #[test]
    fn rename_window_crash_replays_idempotently() {
        // The one crash window with *both* files populated: the new
        // snapshot has been renamed into place but the tail not yet
        // truncated. Reopen must fold them to the same index.
        let path = tmp("renamewin");
        wipe(&path);
        let mut s = BestStore::open(&path).unwrap();
        for fp in 0..8u64 {
            s.record(fp, entry(500 + fp, &[31])).unwrap();
        }
        // Publish the snapshot by hand, leaving the tail untouched —
        // exactly the post-rename, pre-truncate disk state.
        write_snapshot(&path, 1, &s.index).unwrap();
        drop(s);
        let s = BestStore::open(&path).unwrap();
        assert_eq!(s.len(), 8);
        for fp in 0..8u64 {
            assert_eq!(s.lookup(fp).unwrap(), &entry(500 + fp, &[31]));
        }
        assert_eq!(s.stats().generation, 1);
        assert!(!s.dropped_on_open());
        wipe(&path);
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_tail_survives() {
        let path = tmp("snapcorrupt");
        wipe(&path);
        {
            let mut s = BestStore::open_with(&path, eager()).unwrap();
            s.record(1, entry(100, &[31])).unwrap();
            s.record(2, entry(200, &[38])).unwrap();
        }
        {
            // Post-compaction append so the tail holds something too.
            let mut s = BestStore::open_with(&path, CompactionPolicy::never()).unwrap();
            s.record(3, entry(300, &[30])).unwrap();
        }
        // Flip one snapshot byte: validation must fail closed.
        let sp = snap_path(&path);
        let mut snap = std::fs::read(&sp).unwrap();
        let mid = snap.len() / 2;
        snap[mid] ^= 0xff;
        std::fs::write(&sp, &snap).unwrap();

        let mut s = BestStore::open(&path).unwrap();
        let st = s.stats();
        assert!(st.snapshot_quarantined);
        assert!(snap_quarantine_path(&path).exists(), "moved aside, kept");
        assert!(!sp.exists());
        // Snapshot entries are gone (that is the cost of bit rot), but
        // the tail still serves and the store still records.
        assert_eq!(s.lookup(3).unwrap(), &entry(300, &[30]));
        assert!(s.record(4, entry(400, &[23])).unwrap());
        drop(s);
        let s = BestStore::open(&path).unwrap();
        assert!(!s.stats().snapshot_quarantined, "fresh open, no snapshot");
        assert_eq!(s.len(), 2);
        wipe(&path);
    }

    #[test]
    fn truncated_snapshot_at_every_offset_recovers() {
        let path = tmp("snapmatrix");
        wipe(&path);
        {
            let mut s = BestStore::open_with(&path, eager()).unwrap();
            for fp in 0..6u64 {
                s.record(fp, entry(900 + fp, &[31, 38, 30])).unwrap();
            }
        }
        let sp = snap_path(&path);
        let snap = std::fs::read(&sp).unwrap();
        for cut in 0..snap.len() {
            std::fs::write(&sp, &snap[..cut]).unwrap();
            let _ = std::fs::remove_file(snap_quarantine_path(&path));
            let s = BestStore::open(&path).unwrap();
            assert!(
                s.stats().snapshot_quarantined,
                "cut at {cut} must quarantine"
            );
            // The tail was compacted away, so entries are lost to the
            // quarantine — but open never fails and the store serves.
            assert!(s.len() <= 6);
            drop(s);
            // Restore for the next iteration.
            let _ = std::fs::remove_file(snap_quarantine_path(&path));
            std::fs::write(&sp, &snap).unwrap();
        }
        let s = BestStore::open(&path).unwrap();
        assert_eq!(s.len(), 6, "pristine snapshot still loads");
        wipe(&path);
    }

    #[test]
    fn torn_header_resets_to_fresh_store() {
        let path = tmp("tornheader");
        wipe(&path);
        std::fs::write(&path, &TAIL_MAGIC[..5]).unwrap();
        let mut s = BestStore::open(&path).unwrap();
        assert!(s.is_empty());
        assert!(s.record(1, entry(100, &[31])).unwrap());
        wipe(&path);
    }

    #[test]
    fn compact_if_dirty_only_touches_dirty_tails() {
        let path = tmp("dirty");
        wipe(&path);
        let mut s = BestStore::open_with(&path, CompactionPolicy::never()).unwrap();
        s.compact_if_dirty().unwrap();
        assert_eq!(s.stats().compactions, 0, "clean tail: no-op");
        s.record(1, entry(100, &[31])).unwrap();
        s.compact_if_dirty().unwrap();
        assert_eq!(s.stats().compactions, 1);
        assert_eq!(s.stats().tail_records, 0);
        wipe(&path);
    }
}
