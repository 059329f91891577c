//! Durability drills: the store's recovery matrix as a property, the
//! engine supervisor surviving injected whole-thread crashes on a live
//! daemon, and checkpoint armor keeping a daemon serving through a
//! corrupt policy file.
//!
//! The property test is the heart: for arbitrary insert histories (with
//! and without compaction) and a crash at *any byte offset* of the tail
//! log, reopening must succeed, serve every acknowledged record that
//! survived intact, and invent nothing. `make durability-smoke` runs
//! this file (plus the disk-fault suite `faultfs_chaos.rs` and the
//! kill -9 drill in `kill_drill.rs`).

use autophase_benchmarks::suite;
use autophase_nn::mlp::Mlp;
use autophase_rl::checkpoint::{Algo, ArmoredLoad, PolicyCheckpoint};
use autophase_serve::client::{Client, ClientError};
use autophase_serve::engine::{serve_num_actions, serve_obs_dim};
use autophase_serve::protocol::{ErrKind, Source};
use autophase_serve::server::{Server, ServerConfig};
use autophase_serve::store::{BestEntry, BestStore, CompactionPolicy};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC_LEN: u64 = 8;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "autophase_durability_{}_{name}.log",
        std::process::id()
    ))
}

/// Remove a store's tail log and every snapshot sibling.
fn wipe(path: &Path) {
    for suffix in ["", ".snap", ".snap.tmp", ".snap.corrupt", ".tmp"] {
        let _ = std::fs::remove_file(PathBuf::from(format!("{}{suffix}", path.display())));
    }
}

fn entry(cycles: u64, seq_len: usize) -> BestEntry {
    BestEntry {
        cycles,
        baseline_cycles: cycles + 100,
        seq: (0..seq_len as u16).collect(),
    }
}

/// Insert histories: fingerprints collide on purpose (0..12) so the
/// strictly-better rule and dead-record accounting both get exercised.
fn ops() -> impl Strategy<Value = Vec<(u64, u64, usize)>> {
    proptest::collection::vec((0u64..12, 1u64..1_000, 0usize..8), 1..40)
}

proptest! {
    /// The recovery matrix: build a store from an arbitrary history,
    /// then for crash points across the tail (every record boundary,
    /// every boundary's neighborhood, mid-record cuts, and inside the
    /// header) reopen and check the index equals exactly the state at
    /// the last acknowledged record whose bytes survived the cut —
    /// nothing acknowledged-and-intact missing, nothing phantom.
    #[test]
    fn any_tail_crash_point_reopens_to_an_acknowledged_state(
        history in ops(),
        eager in any::<bool>(),
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let path = tmp(&format!("matrix_{case}"));
        let crash = tmp(&format!("matrix_crash_{case}"));
        wipe(&path);

        let policy = if eager {
            // Small thresholds so real histories compact mid-run.
            CompactionPolicy { min_tail_bytes: 256, tail_factor: 1.0, dead_ratio: 0.4 }
        } else {
            CompactionPolicy::never()
        };

        // `checkpoints[i] = (tail_len, index)`: the store's exact state
        // when the tail file was `tail_len` bytes long. Compaction
        // truncates the tail, so it resets the list — the snapshot now
        // carries everything, and `checkpoints[0]` is the state a crash
        // losing the whole tail (or tearing the header) recovers to.
        let mut index: HashMap<u64, BestEntry> = HashMap::new();
        let mut checkpoints: Vec<(u64, HashMap<u64, BestEntry>)> =
            vec![(MAGIC_LEN, HashMap::new())];
        {
            let mut s = BestStore::open_with(&path, policy).unwrap();
            for &(fp, cycles, seq_len) in &history {
                let e = entry(cycles, seq_len);
                if s.record(fp, e.clone()).unwrap() {
                    index.insert(fp, e);
                }
                let len = std::fs::metadata(&path).unwrap().len();
                let last = checkpoints.last().unwrap().0;
                if len < last {
                    checkpoints = vec![(len, index.clone())];
                } else if len > last {
                    checkpoints.push((len, index.clone()));
                }
            }
        }
        let final_len = std::fs::metadata(&path).unwrap().len();
        let snap = PathBuf::from(format!("{}.snap", path.display()));
        let crash_snap = PathBuf::from(format!("{}.snap", crash.display()));

        // Crash points: exact boundaries, one byte either side,
        // mid-record, and inside the 8-byte header.
        let mut cuts: Vec<u64> = vec![0, 1, MAGIC_LEN - 1];
        for w in checkpoints.windows(2) {
            let (a, b) = (w[0].0, w[1].0);
            cuts.extend([a, a + 1, (a + b) / 2, b - 1]);
        }
        cuts.extend([final_len.saturating_sub(1), final_len]);
        cuts.retain(|&c| c <= final_len);
        cuts.sort_unstable();
        cuts.dedup();

        for cut in cuts {
            wipe(&crash);
            let tail = std::fs::read(&path).unwrap();
            std::fs::write(&crash, &tail[..cut as usize]).unwrap();
            if snap.exists() {
                std::fs::copy(&snap, &crash_snap).unwrap();
            }

            let reopened = BestStore::open_with(&crash, policy).unwrap();
            let expected = &checkpoints
                .iter()
                .rev()
                .find(|(len, _)| *len <= cut)
                .unwrap_or(&checkpoints[0])
                .1;
            prop_assert_eq!(
                reopened.len(),
                expected.len(),
                "cut at {} of {}: wrong entry count",
                cut,
                final_len
            );
            for (fp, want) in expected {
                prop_assert_eq!(
                    reopened.lookup(*fp),
                    Some(want),
                    "cut at {}: fp {} lost or wrong",
                    cut,
                    fp
                );
            }
        }
        wipe(&crash);
        wipe(&path);
    }
}

fn test_policy() -> Mlp {
    Mlp::new(&[serve_obs_dim(), 32, serve_num_actions()], 7)
}

/// An injected engine crash on a live daemon: the in-flight request
/// degrades to baseline (never hangs, never errors), the supervisor
/// respawns the engine, and the next cold request is policy-served
/// again — all over one TCP connection.
#[test]
fn engine_crash_degrades_then_respawns_on_a_live_daemon() {
    autophase_telemetry::quiet_panic_hook();
    let store = tmp("crash_daemon");
    wipe(&store);
    let server = Server::start(
        test_policy(),
        ServerConfig {
            store_path: store.clone(),
            chaos: true,
            telemetry: false,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let programs: Vec<String> = suite()
        .into_iter()
        .take(2)
        .map(|b| autophase_ir::printer::print_module(&b.module))
        .collect();
    assert!(programs.len() == 2, "need two distinct programs");

    let mut client = Client::connect(server.addr()).expect("connect");
    client.chaos(0, 1, 0).expect("arm crash");

    // The crashed batch answers via the baseline rung.
    let r1 = client
        .compile(&programs[0], Some(60_000), false)
        .expect("request must survive the engine crash");
    assert_eq!(r1.source, Source::Baseline, "crashed batch degrades");

    // A different program (no store hit): the respawned engine serves it.
    let r2 = client
        .compile(&programs[1], Some(60_000), false)
        .expect("post-respawn compile");
    assert_eq!(r2.source, Source::Policy, "engine must respawn");

    server.shutdown();
    wipe(&store);
}

/// Checkpoint armor: flip a bit in every region of a saved checkpoint
/// (header, dims, weights, trailing bytes). No corruption may panic the
/// loader; whatever it detects quarantines the file. And a daemon
/// brought up without a usable policy keeps answering — baseline-only.
#[test]
fn corrupt_checkpoint_never_kills_serving() {
    let dir = std::env::temp_dir().join(format!("autophase_ckpt_armor_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let ckpt = PolicyCheckpoint {
        algo: Algo::Ppo,
        policy: test_policy(),
        value: Mlp::new(&[serve_obs_dim(), 16, 1], 11),
    };
    let clean = dir.join("clean.ckpt");
    ckpt.save(&clean).unwrap();
    let bytes = std::fs::read(&clean).unwrap();

    // One flipped bit at ~64 spots spread across the file, plus the
    // first and last byte.
    let stride = (bytes.len() / 64).max(1);
    let mut offsets: Vec<usize> = (0..bytes.len()).step_by(stride).collect();
    offsets.push(bytes.len() - 1);
    for (i, off) in offsets.into_iter().enumerate() {
        let mut corrupt = bytes.clone();
        corrupt[off] ^= 1 << (i % 8);
        if corrupt == bytes {
            continue;
        }
        let victim = dir.join(format!("flip_{i}.ckpt"));
        std::fs::write(&victim, &corrupt).unwrap();
        match PolicyCheckpoint::load_armored(&victim) {
            // A flip the decoder can't distinguish from valid data (it
            // changed a weight bit pattern into another valid f64) loads
            // — that is a checksum-strength question, not an armor one.
            ArmoredLoad::Loaded(_) => {}
            ArmoredLoad::Quarantined { moved_to, .. } => {
                assert!(!victim.exists(), "corrupt file must be moved aside");
                let q = moved_to.expect("quarantine rename succeeds in tmp");
                assert!(q.exists(), "quarantined copy must exist");
            }
            ArmoredLoad::Unreadable(e) => {
                panic!("flip {i} at {off}: file exists, must not be Unreadable: {e}")
            }
        }
    }

    // The armor's endgame: serving survives with no policy at all.
    let store = tmp("armor_daemon");
    wipe(&store);
    let server = Server::start_baseline_only(ServerConfig {
        store_path: store.clone(),
        telemetry: false,
        ..ServerConfig::default()
    })
    .expect("baseline-only daemon starts");
    assert!(server.is_baseline_only());

    let ir = autophase_ir::printer::print_module(&suite()[0].module);
    let mut client = Client::connect(server.addr()).expect("connect");
    let r = client
        .compile(&ir, Some(60_000), false)
        .expect("baseline-only daemon must answer");
    assert_eq!(r.source, Source::Baseline);
    // Second sight: the store rung still works without a policy.
    let r2 = client.compile(&ir, Some(60_000), false).expect("warm");
    assert_eq!(r2.source, Source::Store);

    server.shutdown();
    wipe(&store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `retry_ms=` hint reaches the client: a `deadline_ms=0` compile
/// is refused `deadline` with the daemon's configured hint in
/// `ClientError::Server`, and the same keep-alive connection then serves
/// a feasible compile. No client retries; a caller that wants to wait
/// reads the hint there.
#[test]
fn a_refusal_carries_the_retry_hint_on_a_live_daemon() {
    let store = tmp("retry_daemon");
    wipe(&store);
    let server = Server::start(
        test_policy(),
        ServerConfig {
            store_path: store.clone(),
            retry_hint_ms: 5,
            telemetry: false,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let ir = autophase_ir::printer::print_module(&suite()[0].module);
    let mut client = Client::connect(server.addr()).expect("connect");
    match client.compile(&ir, Some(0), false) {
        Err(ClientError::Server { kind, retry_ms, .. }) => {
            assert_eq!(kind, ErrKind::Deadline);
            assert_eq!(retry_ms, Some(5), "refusal must carry the hint");
        }
        other => panic!("expected a deadline refusal, got {other:?}"),
    }

    let ok = client.compile(&ir, Some(60_000), false).expect("compile");
    assert!(ok.baseline_cycles > 0);

    server.shutdown();
    wipe(&store);
}
