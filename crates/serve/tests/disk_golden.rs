//! The `APSTORE2` bytes, pinned: a fixed insert history must write
//! exactly the committed tail log and snapshot, and those committed
//! files must reopen to the committed index.
//!
//! The fixtures under `golden/` were written by the code *before* the
//! record frame moved into `autophase_telemetry::faultfs`; the moved
//! code must reproduce them byte for byte and read them back, which is
//! what "no byte on disk changes" means. Regenerate only for an
//! intended format change:
//! `cargo test -p autophase-serve --test disk_golden -- --ignored`.

use autophase_serve::store::{BestEntry, BestStore, CompactionPolicy};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "autophase_disk_golden_{}_{name}.log",
        std::process::id()
    ))
}

fn snap(path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.snap", path.display()))
}

fn wipe(path: &Path) {
    for suffix in ["", ".snap", ".snap.tmp", ".snap.corrupt"] {
        let _ = std::fs::remove_file(PathBuf::from(format!("{}{suffix}", path.display())));
    }
}

fn entry(cycles: u64, baseline_cycles: u64, seq: &[u16]) -> BestEntry {
    BestEntry {
        cycles,
        baseline_cycles,
        seq: seq.to_vec(),
    }
}

/// Fingerprints the history touches, plus one it never does.
const FPS: [u64; 8] = [
    0x0000_0000_0000_0001,
    0x0123_4567_89ab_cdef,
    0x7fff_ffff_ffff_ffff,
    0xdead_beef_0000_0000,
    0xffff_ffff_ffff_ffff,
    0x0000_0000_0000_0100,
    0x0000_0000_0001_0000,
    0x0000_0000_0000_0002,
];

/// The fixed history: first records (an empty ordering among them),
/// re-records that win and that lose, one compaction, then appends and
/// a winning re-record after it.
fn write_history(path: &Path) {
    let mut s = BestStore::open_with(path, CompactionPolicy::never()).unwrap();
    assert!(s
        .record(FPS[0], entry(1_000, 4_000, &[31, 38, 30]))
        .unwrap());
    assert!(s.record(FPS[1], entry(52, 52, &[])).unwrap());
    assert!(s.record(FPS[2], entry(u64::MAX, u64::MAX, &[0])).unwrap());
    assert!(s
        .record(FPS[3], entry(777, 900, &[45, 44, 43, 42]))
        .unwrap());
    assert!(s.record(FPS[4], entry(9, 10, &[7; 12])).unwrap());
    assert!(s.record(FPS[0], entry(999, 4_000, &[31, 38])).unwrap());
    assert!(!s.record(FPS[1], entry(52, 52, &[1])).unwrap());
    assert!(!s.record(FPS[3], entry(778, 900, &[2])).unwrap());
    s.compact().unwrap();
    assert!(s.record(FPS[5], entry(300, 301, &[23, 24])).unwrap());
    assert!(s.record(FPS[0], entry(998, 4_000, &[38])).unwrap());
    assert!(s
        .record(FPS[6], entry(1 << 40, 1 << 41, &[65_535, 0, 256]))
        .unwrap());
    assert!(s.record(FPS[3], entry(1, 900, &[])).unwrap());
}

fn render_index(s: &BestStore) -> String {
    let mut out = String::new();
    writeln!(out, "entries {}", s.len()).unwrap();
    for fp in FPS {
        match s.lookup(fp) {
            Some(e) => writeln!(
                out,
                "{fp:016x} cycles={} baseline={} seq={:?}",
                e.cycles, e.baseline_cycles, e.seq
            )
            .unwrap(),
            None => writeln!(out, "{fp:016x} absent").unwrap(),
        }
    }
    out
}

#[test]
fn fixed_history_writes_the_committed_bytes() {
    let path = tmp("write");
    wipe(&path);
    write_history(&path);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(golden("store.tail")).unwrap(),
        "tail log bytes"
    );
    assert_eq!(
        std::fs::read(snap(&path)).unwrap(),
        std::fs::read(golden("store.snap")).unwrap(),
        "snapshot bytes"
    );
    let s = BestStore::open(&path).unwrap();
    assert_eq!(
        render_index(&s),
        std::fs::read_to_string(golden("store.index.txt")).unwrap()
    );
    wipe(&path);
}

#[test]
fn committed_files_reopen_to_the_committed_index() {
    let path = tmp("reopen");
    wipe(&path);
    std::fs::copy(golden("store.tail"), &path).unwrap();
    std::fs::copy(golden("store.snap"), snap(&path)).unwrap();
    let s = BestStore::open(&path).unwrap();
    assert!(!s.dropped_on_open());
    let st = s.stats();
    assert!(!st.snapshot_quarantined);
    assert_eq!(
        (st.generation, st.tail_records, st.dead_tail_records),
        (1, 4, 0)
    );
    assert_eq!(
        st.snapshot_bytes,
        std::fs::metadata(golden("store.snap")).unwrap().len()
    );
    assert_eq!(
        render_index(&s),
        std::fs::read_to_string(golden("store.index.txt")).unwrap()
    );
    drop(s);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(golden("store.tail")).unwrap(),
        "a clean reopen truncates nothing"
    );
    wipe(&path);
}

#[test]
#[ignore = "overwrites the committed fixtures; run only for an intended format change"]
fn regenerate_golden_files() {
    let path = tmp("regen");
    wipe(&path);
    write_history(&path);
    std::fs::create_dir_all(golden("")).unwrap();
    std::fs::copy(&path, golden("store.tail")).unwrap();
    std::fs::copy(snap(&path), golden("store.snap")).unwrap();
    let s = BestStore::open(&path).unwrap();
    std::fs::write(golden("store.index.txt"), render_index(&s)).unwrap();
    wipe(&path);
}
