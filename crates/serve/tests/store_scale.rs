//! APSTORE2 at corpus scale: 10k distinct fingerprints.
//!
//! The serve store was built against a 9-program benchmark suite; the
//! corpus harness points ~10k distinct programs at it. These tests pin
//! the properties that matter at that size:
//!
//! * a 10k-entry store reopens complete and intact (nothing dropped, no
//!   torn-tail false positives, every entry retrievable);
//! * with compaction disabled, the tail log is exactly as large as its
//!   appended records — the byte count is pinned by formula, so any
//!   change to the record framing must update this test consciously;
//! * insert-if-strictly-better churn appends **only** winning records:
//!   rejected (equal-or-worse) inserts leave the file byte-identical;
//! * with the default compaction policy, the same 10k-insert run folds
//!   into a snapshot + short tail whose *live* size is pinned by
//!   formula — dead history does not accumulate on disk;
//! * the IR sidecar beside it (`<store>.ir`) follows: once every entry
//!   has been superseded, a daemon's start rewrites it to exactly one
//!   record per live entry, pinned by formula too.

use autophase_serve::server::{Server, ServerConfig};
use autophase_serve::store::{BestEntry, BestStore, CompactionPolicy};
use autophase_telemetry::faultfs;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "autophase_store_scale_{}_{name}.log",
        std::process::id()
    ))
}

/// Remove the tail log and every snapshot-generation sibling.
fn wipe(path: &Path) {
    for suffix in ["", ".snap", ".snap.tmp", ".snap.corrupt", ".tmp", ".ir"] {
        let _ = std::fs::remove_file(PathBuf::from(format!("{}{suffix}", path.display())));
    }
}

/// On-disk size of one framed record (identical in the tail log and in
/// snapshots): len u32 + payload (26 + 2n) + checksum u64.
fn record_size(seq_len: usize) -> u64 {
    (4 + 26 + 2 * seq_len + 8) as u64
}

/// Tail log header: the 8-byte `APSTORE2` magic.
const MAGIC_LEN: u64 = 8;

/// Snapshot framing around the records: `APSNAPS2` magic (8) +
/// generation (8) + end sentinel (4) + record count (8) + whole-file
/// checksum (8).
const SNAP_OVERHEAD: u64 = 8 + 8 + 4 + 8 + 8;

fn entry_for(fp: u64) -> BestEntry {
    BestEntry {
        cycles: 1_000 + (fp % 977),
        baseline_cycles: 5_000 + (fp % 977),
        // Sequence length varies 0..=11 so the size formula is exercised
        // across lengths, not just one record shape.
        seq: (0..(fp % 12) as u16).map(|i| i * 3 % 46).collect(),
    }
}

#[test]
fn ten_thousand_fingerprints_reopen_complete() {
    const N: u64 = 10_000;
    let path = tmp("10k");
    wipe(&path);

    let mut expected_bytes = MAGIC_LEN;
    {
        let mut s = BestStore::open_with(&path, CompactionPolicy::never()).unwrap();
        for fp in 0..N {
            let e = entry_for(fp);
            expected_bytes += record_size(e.seq.len());
            assert!(s.record(fp, e).unwrap(), "fp {fp} is fresh, must store");
        }
        assert_eq!(s.len(), N as usize);
    }
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        expected_bytes,
        "tail log holds exactly the appended records — nothing more"
    );

    let reopened = BestStore::open_with(&path, CompactionPolicy::never()).unwrap();
    assert!(!reopened.dropped_on_open(), "clean log, nothing dropped");
    assert_eq!(reopened.len(), N as usize, "every fingerprint survives");
    for fp in [0, 1, N / 2, N - 2, N - 1] {
        assert_eq!(
            reopened.lookup(fp),
            Some(&entry_for(fp)),
            "entry {fp} intact after reopen"
        );
    }
    // Reopen must not grow, shrink, or rewrite the file.
    assert_eq!(std::fs::metadata(&path).unwrap().len(), expected_bytes);
    wipe(&path);
}

#[test]
fn churn_appends_only_strictly_better_records() {
    let path = tmp("churn");
    wipe(&path);
    const FPS: u64 = 200;

    let mut s = BestStore::open_with(&path, CompactionPolicy::never()).unwrap();
    let mut expected_bytes = MAGIC_LEN;
    // Seed every fingerprint at 1000 cycles with a 4-pass sequence.
    for fp in 0..FPS {
        let e = BestEntry {
            cycles: 1_000,
            baseline_cycles: 4_000,
            seq: vec![1, 2, 3, 4],
        };
        expected_bytes += record_size(4);
        assert!(s.record(fp, e).unwrap());
    }

    // Churn: per fingerprint, one worse, one equal, one better insert.
    // Exactly the better one may append.
    for fp in 0..FPS {
        let worse = BestEntry {
            cycles: 2_000,
            baseline_cycles: 4_000,
            seq: vec![9; 8],
        };
        let equal = BestEntry {
            cycles: 1_000,
            baseline_cycles: 4_000,
            seq: vec![8; 2],
        };
        let better = BestEntry {
            cycles: 900,
            baseline_cycles: 4_000,
            seq: vec![5, 6],
        };
        assert!(!s.record(fp, worse).unwrap(), "worse must be rejected");
        assert!(!s.record(fp, equal).unwrap(), "equal must be rejected");
        assert!(s.record(fp, better).unwrap(), "better must land");
        expected_bytes += record_size(2);
    }

    // The size regression pin: rejected inserts contributed zero bytes.
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        expected_bytes,
        "log grew beyond its strictly-better appends"
    );

    // Replay rebuilds the post-churn index: the 900-cycle records win.
    drop(s);
    let s = BestStore::open_with(&path, CompactionPolicy::never()).unwrap();
    assert_eq!(s.len(), FPS as usize);
    for fp in 0..FPS {
        let e = s.lookup(fp).unwrap();
        assert_eq!(e.cycles, 900, "fp {fp} must serve the churn winner");
        assert_eq!(e.seq, vec![5, 6]);
    }
    wipe(&path);
}

#[test]
fn compaction_bounds_disk_to_live_entries_at_scale() {
    const N: u64 = 10_000;
    let path = tmp("compact10k");
    wipe(&path);

    {
        let mut s = BestStore::open(&path).unwrap(); // default policy
        for fp in 0..N {
            assert!(s.record(fp, entry_for(fp)).unwrap());
        }
        // Overwrite every entry with a strictly better ordering — the
        // history is now ≥50% dead, which the default dead-ratio
        // trigger folds away.
        for fp in 0..N {
            let mut e = entry_for(fp);
            e.cycles -= 1;
            assert!(s.record(fp, e).unwrap());
        }
        assert!(s.stats().compactions > 0, "10k churn must compact");
        s.compact_if_dirty().unwrap();
    }

    // After a final compaction the on-disk live bytes are exactly one
    // snapshot of the N winners plus an empty tail.
    let live_records: u64 = (0..N).map(|fp| record_size(entry_for(fp).seq.len())).sum();
    let snap = PathBuf::from(format!("{}.snap", path.display()));
    assert_eq!(
        std::fs::metadata(&snap).unwrap().len(),
        SNAP_OVERHEAD + live_records,
        "snapshot holds exactly the live winners"
    );
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        MAGIC_LEN,
        "tail is empty after compaction"
    );

    let reopened = BestStore::open(&path).unwrap();
    assert_eq!(reopened.len(), N as usize);
    for fp in [0, 1, N / 2, N - 1] {
        let mut want = entry_for(fp);
        want.cycles -= 1;
        assert_eq!(reopened.lookup(fp), Some(&want), "winner {fp} survives");
    }
    wipe(&path);
}

#[test]
fn reopen_scales_with_log_bytes_not_rescans() {
    // A coarse wall-clock sanity check that reopen is a single linear
    // replay: opening a 10k-record store must land well under a second
    // even in debug builds (a quadratic scan would blow past this by
    // orders of magnitude). Generous bound to stay robust on slow CI.
    let path = tmp("linear");
    wipe(&path);
    {
        let mut s = BestStore::open(&path).unwrap();
        for fp in 0..10_000u64 {
            s.record(fp, entry_for(fp)).unwrap();
        }
    }
    let t = std::time::Instant::now();
    let s = BestStore::open(&path).unwrap();
    let elapsed = t.elapsed();
    assert_eq!(s.len(), 10_000);
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "reopen of 10k records took {elapsed:?} — replay is no longer linear"
    );
    wipe(&path);
}

/// Append one IR sidecar record as the daemon writes it (DESIGN.md §4j):
/// the IR frame (fingerprint, cycles, ordering, IR text), then the request
/// frame (fingerprint, request text).
fn push_sidecar_record(out: &mut Vec<u8>, fp: u64, e: &BestEntry, request: &str, ir: &str) {
    let mut payload = [fp.to_le_bytes(), e.cycles.to_le_bytes()].concat();
    payload.extend_from_slice(&(e.seq.len() as u16).to_le_bytes());
    for p in &e.seq {
        payload.extend_from_slice(&p.to_le_bytes());
    }
    payload.extend_from_slice(ir.as_bytes());
    faultfs::push_frame(out, &payload);
    faultfs::push_frame(out, &[&fp.to_le_bytes(), request.as_bytes()].concat());
}

/// 10k entries each superseded once, with a sidecar record for both
/// answers: half of the sidecar is dead, so the next daemon start
/// rewrites it to the live records alone, in their order, and a second
/// start leaves it as it is.
#[test]
fn a_superseded_store_reopens_with_one_sidecar_record_per_live_entry() {
    const N: u64 = 10_000;
    let path = tmp("sidecar10k");
    wipe(&path);
    let request = |fp: u64| format!("; request {fp:05}\n");
    let ir = |fp: u64, round: u64| format!("; ir {fp:05} round {round}\n");
    let mut sidecar = b"APIRTXT2".to_vec();
    let mut live = b"APIRTXT2".to_vec();
    {
        let mut s = BestStore::open(&path).unwrap();
        for round in 0..2 {
            for fp in 0..N {
                let mut e = entry_for(fp);
                e.cycles -= round;
                assert!(s.record(fp, e.clone()).unwrap());
                push_sidecar_record(&mut sidecar, fp, &e, &request(fp), &ir(fp, round));
                if round == 1 {
                    push_sidecar_record(&mut live, fp, &e, &request(fp), &ir(fp, round));
                }
            }
        }
    }
    let sidecar_path = PathBuf::from(format!("{}.ir", path.display()));
    std::fs::write(&sidecar_path, &sidecar).unwrap();

    for start in ["first", "second"] {
        let server = Server::start_baseline_only(ServerConfig {
            store_path: path.clone(),
            telemetry: false,
            ..ServerConfig::default()
        })
        .expect("server starts");
        assert_eq!(server.store_len(), N as usize);
        server.shutdown();
        let got = std::fs::read(&sidecar_path).unwrap();
        assert_eq!(got.len(), live.len(), "{start} start");
        assert!(got == live, "{start} start: one record per live entry");
    }
    wipe(&path);
}
