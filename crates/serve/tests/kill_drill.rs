//! Kill -9 drill for the serve store: SIGKILL a real writer process at
//! seeded-random moments and prove no acknowledged record is ever lost
//! and no phantom ever appears.
//!
//! The drill re-executes this test binary into [`writer_child`], which
//! appends deterministic, strictly-improving records in a tight fsync
//! loop and logs an ack line (synced) after every store-acknowledged
//! insert. The parent kills it after a seeded delay, reopens the store,
//! and checks every acked record is present and every stored record is
//! byte-equal to its planned value. The same store survives the whole
//! drill, so late kills hit a store that has lived through earlier
//! crashes (and eager-policy compactions) already.
//!
//! `make durability-smoke` runs this file in release; tier-1 runs it in
//! debug.

use autophase_serve::store::{BestEntry, BestStore, CompactionPolicy};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// SIGKILLs per drill.
const KILLS: usize = 12;
/// Distinct fingerprints the writer churns over.
const FPS: u64 = 8;
/// Rounds start high and count cycles down so every round's record is
/// strictly better — each insert must be acknowledged.
const CYCLE_BASE: u64 = 1_000_000;

/// Eager compaction so the drill crashes into snapshot/truncate windows
/// too, not only mid-append.
fn drill_policy() -> CompactionPolicy {
    CompactionPolicy {
        min_tail_bytes: 4096,
        tail_factor: 1.0,
        dead_ratio: 0.3,
    }
}

/// The one record the writer may store for `(fp, round)` — fully
/// deterministic, so the parent can detect any corruption or phantom by
/// recomputation.
fn planned(fp: u64, round: u64) -> BestEntry {
    let len = ((fp + round) % 12) as u16;
    BestEntry {
        cycles: CYCLE_BASE - round,
        baseline_cycles: 2 * CYCLE_BASE,
        seq: (0..len)
            .map(|i| (fp as u16 * 7 + round as u16 + i) % 46)
            .collect(),
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The writer process. Not a test of its own: the drill runs it as
/// `<this binary> --exact writer_child --ignored -- <store> <ack> <start
/// round>` and it appends planned records until SIGKILLed, syncing an ack
/// line after every store-acknowledged insert. Rejected inserts (already
/// present after a restart) are silently skipped. Run by hand (no
/// operands after `--`) it returns at once.
#[test]
#[ignore = "the kill drill's writer process; only the drill starts it"]
fn writer_child() {
    let args: Vec<String> = std::env::args().collect();
    let Some([store_path, ack_path, start_round]) = args.split(|a| a == "--").nth(1) else {
        return;
    };
    let mut store =
        BestStore::open_with(Path::new(store_path), drill_policy()).expect("writer opens store");
    let mut ack = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(ack_path)
        .expect("writer opens ack log");
    let mut round: u64 = start_round.parse().expect("start round");
    loop {
        for fp in 0..FPS {
            if store.record(fp, planned(fp, round)).expect("writer append") {
                // Ack only after the store's own fsync acknowledged: a
                // kill between the two under-reports acks, never the
                // reverse. One `write` per line: `writeln!` on a `File`
                // issues one per format piece, and a kill between them
                // leaves `4 45` for the next writer's `0 65\n` to turn
                // into an ack for round 450 that was never made.
                ack.write_all(format!("{fp} {round}\n").as_bytes())
                    .expect("ack write");
                ack.sync_data().expect("ack sync");
            }
        }
        round += 1;
    }
}

/// Complete (newline-terminated) ack lines → highest acked round per fp.
fn read_acks(ack_path: &Path) -> HashMap<u64, u64> {
    let mut acked = HashMap::new();
    let Ok(raw) = std::fs::read_to_string(ack_path) else {
        return acked;
    };
    let complete = match raw.rfind('\n') {
        Some(i) => &raw[..i],
        None => return acked,
    };
    for line in complete.lines() {
        let mut it = line.split_whitespace();
        let (Some(fp), Some(round)) = (it.next(), it.next()) else {
            continue;
        };
        let (Ok(fp), Ok(round)) = (fp.parse::<u64>(), round.parse::<u64>()) else {
            continue;
        };
        let e = acked.entry(fp).or_insert(round);
        *e = (*e).max(round);
    }
    acked
}

fn wipe(path: &Path) {
    for suffix in ["", ".snap", ".snap.tmp", ".snap.corrupt", ".tmp"] {
        let _ = std::fs::remove_file(PathBuf::from(format!("{}{suffix}", path.display())));
    }
}

/// Reopen the drill store and verify it against the ack log. Returns
/// `(max_round_in_store, records_checked)`; panics on any lost ack or
/// phantom/corrupt record.
fn verify_store(store_path: &Path, acked: &HashMap<u64, u64>, kill: usize) -> (u64, usize) {
    let store = BestStore::open_with(store_path, drill_policy())
        .unwrap_or_else(|e| panic!("kill {kill}: reopen after SIGKILL failed: {e}"));
    let mut max_round = 0u64;
    let mut checked = 0usize;
    for fp in 0..FPS {
        let entry = store.lookup(fp);
        // No phantoms and no corruption: whatever the store holds must
        // be exactly a planned record for this fingerprint.
        if let Some(e) = entry {
            assert!(
                e.cycles <= CYCLE_BASE,
                "kill {kill}: fp {fp} has impossible cycles {}",
                e.cycles
            );
            let round = CYCLE_BASE - e.cycles;
            assert_eq!(
                e,
                &planned(fp, round),
                "kill {kill}: fp {fp} round {round} does not match its planned record"
            );
            max_round = max_round.max(round);
            checked += 1;
        }
        // No lost acks: an acknowledged round must be served at least
        // that well (the store may hold a later, better, un-acked one).
        if let Some(&ack_round) = acked.get(&fp) {
            let e = entry.unwrap_or_else(|| {
                panic!("kill {kill}: fp {fp} acked at round {ack_round} but missing")
            });
            assert!(
                CYCLE_BASE - e.cycles >= ack_round,
                "kill {kill}: fp {fp} acked round {ack_round}, store only has {}",
                CYCLE_BASE - e.cycles
            );
        }
    }
    (max_round, checked)
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "autophase_kill_drill_{}_{name}",
        std::process::id()
    ))
}

#[test]
fn sigkilled_writer_loses_no_acked_record_and_leaves_no_phantom() {
    let store_path = tmp_path("drill.log");
    let ack_path = tmp_path("drill.ack");
    wipe(&store_path);
    let _ = std::fs::remove_file(&ack_path);
    let exe = std::env::current_exe().expect("current_exe");

    let mut rng = 0x00D1_D00Du64;
    let mut next_start = 0u64;
    let mut total_checked = 0usize;
    for kill in 0..KILLS {
        let mut child = std::process::Command::new(&exe)
            .args(["--exact", "writer_child", "--ignored", "--"])
            .arg(&store_path)
            .arg(&ack_path)
            .arg(next_start.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .expect("spawn writer child");
        // 1..=45 ms: long enough to land mid-append, mid-fsync, and
        // (with the eager policy) mid-compaction.
        let delay = Duration::from_millis(splitmix(&mut rng) % 45 + 1);
        std::thread::sleep(delay);
        child.kill().expect("SIGKILL writer");
        let status = child.wait().expect("reap writer");
        // The writer only ever stops by being killed: an exit status
        // means it never ran (or gave up), and the drill proved nothing.
        assert!(
            status.code().is_none(),
            "kill {kill}: writer exited on its own with {status}"
        );

        let acked = read_acks(&ack_path);
        let (max_round, checked) = verify_store(&store_path, &acked, kill);
        total_checked += checked;
        next_start = max_round + 1;
    }
    assert!(
        !read_acks(&ack_path).is_empty() && total_checked > 0,
        "{KILLS} kills and the writer never got a record acknowledged"
    );
    wipe(&store_path);
    let _ = std::fs::remove_file(&ack_path);
}
