//! Disk-fault chaos: drive the serve store (and a live daemon) through
//! the injectable fault layer in `autophase_telemetry::faultfs`.
//!
//! Every test arms the process-global plan, so they all serialize on
//! `autophase_telemetry::test_guard()` and disarm before exiting.
//! `make durability-smoke` runs it in release.

use autophase_benchmarks::suite;
use autophase_nn::mlp::{Activation, Mlp};
use autophase_serve::client::Client;
use autophase_serve::engine::{serve_num_actions, serve_obs_dim};
use autophase_serve::protocol::Source;
use autophase_serve::server::{Server, ServerConfig};
use autophase_serve::store::{BestEntry, BestStore, CompactionPolicy};
use autophase_telemetry::faultfs::{DiskFaultKind, DiskFaultPlan, DiskFaultSpec, DiskOp, PLAN};
use autophase_telemetry::test_guard;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "autophase_faultchaos_{}_{name}.log",
        std::process::id()
    ))
}

fn wipe(path: &Path) {
    for suffix in ["", ".snap", ".snap.tmp", ".snap.corrupt", ".tmp", ".ir"] {
        let _ = std::fs::remove_file(PathBuf::from(format!("{}{suffix}", path.display())));
    }
}

fn entry(cycles: u64, seq_len: usize) -> BestEntry {
    BestEntry {
        cycles,
        baseline_cycles: cycles + 500,
        seq: (0..seq_len as u16).collect(),
    }
}

/// Every append fails with `ENOSPC`: the daemon must keep compiling
/// (serving without recording), skip the store while the disk is full,
/// and pick recording back up once space returns and the retry window
/// elapses — the full degrade/recover loop from the durability model.
#[test]
fn enospc_degrades_to_serving_without_recording_then_recovers() {
    let _guard = test_guard();
    PLAN.clear();
    let store = tmp("enospc_daemon");
    wipe(&store);
    let server = Server::start(
        Mlp::new(
            &[serve_obs_dim(), 32, serve_num_actions()],
            Activation::Tanh,
            7,
        ),
        ServerConfig {
            store_path: store.clone(),
            store_retry: Duration::from_millis(400),
            telemetry: false,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let ir = autophase_ir::printer::print_module(&suite()[0].module);
    let mut client = Client::connect(server.addr()).expect("connect");

    // Disk full: every tail append reports ENOSPC.
    let plan = PLAN.install(DiskFaultPlan::new(vec![DiskFaultSpec {
        op: DiskOp::Write,
        tag: Some("store.append".to_string()),
        nth: 0,
        kind: DiskFaultKind::Enospc,
        salt: 0,
    }]));

    // Cold compile still succeeds — the answer is served, the record
    // silently fails and opens the degrade window.
    let r1 = client.compile(&ir, Some(60_000), false).expect("cold");
    assert_eq!(
        r1.source,
        Source::Policy,
        "full disk must not break serving"
    );
    assert!(plan.fired() >= 1, "the append fault must actually fire");

    // Inside the window the store is skipped outright: same program,
    // still no store hit, and no further append attempts burn on ENOSPC.
    let fired_before = plan.fired();
    let r2 = client.compile(&ir, Some(60_000), false).expect("degraded");
    assert_eq!(r2.source, Source::Policy, "nothing was recorded");
    assert_eq!(
        plan.fired(),
        fired_before,
        "degraded mode must not retry before the window elapses"
    );

    // Space comes back; after the retry window recording resumes.
    PLAN.clear();
    std::thread::sleep(Duration::from_millis(500));
    let r3 = client.compile(&ir, Some(60_000), false).expect("recovered");
    assert_eq!(r3.source, Source::Policy, "store is still empty on arrival");
    let r4 = client.compile(&ir, Some(60_000), false).expect("warm");
    assert_eq!(r4.source, Source::Store, "recording must have recovered");

    server.shutdown();
    wipe(&store);
}

/// The IR sidecar beside the store is a cache, not a record: while every
/// append to it fails (`ENOSPC`, or torn mid-frame), cold answers are
/// still acknowledged and stored, IR replies still carry the right text
/// (replayed), and each failure is only counted. Once the disk recovers,
/// the next IR hit rebuilds the artifact, which survives a restart over
/// whatever torn bytes the failures left.
#[test]
fn a_failed_ir_append_never_fails_the_record_or_the_reply() {
    let _guard = test_guard();
    PLAN.clear();
    let store = tmp("ir_append");
    wipe(&store);
    let start = || {
        Server::start(
            Mlp::new(
                &[serve_obs_dim(), 32, serve_num_actions()],
                Activation::Tanh,
                7,
            ),
            ServerConfig {
                store_path: store.clone(),
                ..ServerConfig::default()
            },
        )
        .expect("server starts")
    };
    let programs: Vec<String> = suite()[..2]
        .iter()
        .map(|b| autophase_ir::printer::print_module(&b.module))
        .collect();
    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");
    let append_errors =
        |c: &mut Client| c.stats().unwrap().counter("serve.store", "ir_append_error");
    let mut texts = Vec::new();
    for (ir, kind) in programs
        .iter()
        .zip([DiskFaultKind::Enospc, DiskFaultKind::TornWrite])
    {
        let before = append_errors(&mut client);
        let plan = PLAN.install(DiskFaultPlan::new(vec![DiskFaultSpec {
            op: DiskOp::Write,
            tag: Some("store.ir".to_string()),
            nth: 0,
            kind,
            salt: 0x5EED,
        }]));
        let cold = client.compile(ir, Some(60_000), true).expect("cold");
        assert_eq!(cold.source, Source::Policy, "{kind:?}");
        let text = cold.ir.expect("asked for IR");
        let numbers = client.compile(ir, Some(60_000), false).expect("hit");
        assert_eq!(
            numbers.source,
            Source::Store,
            "{kind:?}: the record was acked"
        );
        let again = client.compile(ir, Some(60_000), true).expect("IR hit");
        assert_eq!(again.source, Source::Store, "{kind:?}");
        assert_eq!(again.ir.as_ref(), Some(&text), "{kind:?}: replayed");
        assert_eq!(
            plan.fired(),
            2,
            "{kind:?}: the cold append and the replay's"
        );
        PLAN.clear();
        assert_eq!(append_errors(&mut client) - before, 2, "{kind:?}");
        texts.push(text);
    }
    // The disk is back: one replay per program keeps its artifact.
    for (ir, text) in programs.iter().zip(&texts) {
        let hit = client.compile(ir, Some(60_000), true).expect("IR hit");
        assert_eq!(hit.ir.as_ref(), Some(text));
    }
    drop(client);
    server.shutdown();

    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");
    let replayed = |c: &mut Client| c.stats().unwrap().counter("serve.store", "ir_replayed");
    let before = replayed(&mut client);
    for (ir, text) in programs.iter().zip(&texts) {
        let hit = client.compile(ir, Some(60_000), true).expect("IR hit");
        assert_eq!((hit.source, hit.ir.as_ref()), (Source::Store, Some(text)));
    }
    assert_eq!(
        replayed(&mut client),
        before,
        "both served from the sidecar"
    );
    drop(client);
    server.shutdown();
    wipe(&store);
}

/// Open rewrites the IR sidecar once half of it is dead, through one
/// `atomic_write` under the `store.ir` tag. A rewrite whose write fails or
/// tears, or whose rename fails, costs nothing: the daemon starts on the
/// old sidecar, which still preloads its live text into the front memo
/// and serves its IR, and neither it nor the store files change. The next
/// clean start compacts.
#[test]
fn a_failed_sidecar_compaction_still_opens_preloads_and_serves() {
    let _guard = test_guard();
    PLAN.clear();
    let store = tmp("ir_compact");
    wipe(&store);
    let sidecar = PathBuf::from(format!("{}.ir", store.display()));
    let start = || {
        Server::start(
            Mlp::new(
                &[serve_obs_dim(), 32, serve_num_actions()],
                Activation::Tanh,
                7,
            ),
            ServerConfig {
                store_path: store.clone(),
                ..ServerConfig::default()
            },
        )
        .expect("server starts")
    };
    let last_front = |c: &mut Client| {
        let body = c.traces(1).expect("traces");
        ["hit", "miss"]
            .into_iter()
            .find(|v| body.contains(&format!("[\"front\",\"{v}\"]")))
            .unwrap_or_else(|| panic!("no front note in {body}"))
    };
    // The daemons run in this process: read their counters directly.
    let counter = |name, label| autophase_telemetry::counter(name, label).value();
    // The smaller text stays live; the larger one's record goes dead, so
    // at least half of the sidecar is.
    let mut programs: Vec<String> = suite()[..2]
        .iter()
        .map(|b| autophase_ir::printer::print_module(&b.module))
        .collect();
    programs.sort_by_key(String::len);
    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");
    let cold: Vec<_> = programs
        .iter()
        .map(|ir| client.compile(ir, Some(60_000), false).expect("cold"))
        .collect();
    let kept = client
        .compile(&programs[0], Some(60_000), true)
        .expect("IR hit");
    drop(client);
    server.shutdown();
    let dead = autophase_core::eval_cache::fingerprint_module(
        &autophase_ir::parser::parse_module(&programs[1]).unwrap(),
    );
    let better = BestEntry {
        cycles: cold[1].cycles - 1,
        baseline_cycles: cold[1].baseline_cycles,
        seq: cold[1].passes.iter().map(|&p| p as u16).collect(),
    };
    let mut s = BestStore::open(&store).unwrap();
    assert!(s.record(dead, better).unwrap());
    s.compact().unwrap();
    drop(s);
    let files = || {
        ["", ".snap", ".ir"]
            .map(|suffix| std::fs::read(format!("{}{suffix}", store.display())).ok())
    };
    let before = files();

    for (op, kind) in [
        (DiskOp::Write, DiskFaultKind::TornWrite),
        (DiskOp::Write, DiskFaultKind::Enospc),
        (DiskOp::Rename, DiskFaultKind::SyncFail),
    ] {
        let plan = PLAN.install(DiskFaultPlan::new(vec![DiskFaultSpec {
            op,
            tag: Some("store.ir".to_string()),
            nth: 1,
            kind,
            salt: 0x5EED,
        }]));
        let (errors, preloaded) = (
            counter("serve.store", "ir_compaction_error"),
            counter("serve.front", "preloaded"),
        );
        let server = start();
        assert_eq!(plan.fired(), 1, "{kind:?}: the rewrite was attempted");
        PLAN.clear();
        assert_eq!(files(), before, "{kind:?}: nothing changed on disk");
        assert!(!PathBuf::from(format!("{}.tmp", sidecar.display())).exists());
        assert_eq!(counter("serve.store", "ir_compaction_error") - errors, 1);
        assert_eq!(
            counter("serve.front", "preloaded") - preloaded,
            1,
            "{kind:?}"
        );
        let mut client = Client::connect(server.addr()).expect("connect");
        let artifacts = counter("serve.store", "ir_artifact");
        let hit = client
            .compile(&programs[0], Some(60_000), true)
            .expect("hit");
        assert_eq!(last_front(&mut client), "hit", "{kind:?}: preloaded");
        assert_eq!(
            (hit.source, hit.ir.as_ref()),
            (Source::Store, kept.ir.as_ref())
        );
        assert_eq!(
            counter("serve.store", "ir_artifact") - artifacts,
            1,
            "{kind:?}"
        );
        drop(client);
        server.shutdown();
        assert_eq!(files()[2], before[2], "{kind:?}: the old sidecar is intact");
    }

    let errors = counter("serve.store", "ir_compaction_error");
    let server = start();
    assert_eq!(counter("serve.store", "ir_compaction_error"), errors);
    let mut client = Client::connect(server.addr()).expect("connect");
    let now = files();
    assert_eq!(now[..2], before[..2], "the store files are untouched");
    let (old, new) = (before[2].as_ref().unwrap(), now[2].as_ref().unwrap());
    assert!(
        new.len() < old.len(),
        "compacted: {} → {}",
        old.len(),
        new.len()
    );
    let hit = client
        .compile(&programs[0], Some(60_000), true)
        .expect("hit");
    assert_eq!(last_front(&mut client), "hit");
    assert_eq!(
        (hit.source, hit.ir.as_ref()),
        (Source::Store, kept.ir.as_ref())
    );
    drop(client);
    server.shutdown();
    wipe(&store);
}

/// A torn append (crash mid-write) errors the offending `record()` call
/// only: previously acknowledged records survive reopen, later appends
/// overwrite the torn bytes, and the torn record never becomes visible.
#[test]
fn torn_append_loses_only_the_unacknowledged_record() {
    let _guard = test_guard();
    PLAN.clear();
    let path = tmp("torn");
    wipe(&path);

    let mut s = BestStore::open_with(&path, CompactionPolicy::never()).unwrap();
    for fp in 0..3u64 {
        assert!(s.record(fp, entry(1_000 + fp, 4)).unwrap());
    }

    PLAN.install(DiskFaultPlan::new(vec![DiskFaultSpec {
        op: DiskOp::Write,
        tag: Some("store.append".to_string()),
        nth: 1,
        kind: DiskFaultKind::TornWrite,
        salt: 0xDEAD,
    }]));
    s.record(99, entry(50, 6))
        .expect_err("torn write must surface as an error");
    PLAN.clear();

    // The next append goes to the same offset, burying the torn bytes.
    assert!(s.record(4, entry(2_000, 2)).unwrap());
    drop(s);

    let s = BestStore::open_with(&path, CompactionPolicy::never()).unwrap();
    assert_eq!(s.len(), 4, "three seeds + the post-tear append");
    for fp in 0..3u64 {
        assert_eq!(s.lookup(fp), Some(&entry(1_000 + fp, 4)));
    }
    assert_eq!(s.lookup(4), Some(&entry(2_000, 2)));
    assert_eq!(s.lookup(99), None, "the torn record must not be a phantom");
    wipe(&path);
}

/// Snapshot writes failing their sync never fail the triggering append:
/// compaction errors are deferred, the tail keeps everything, and once
/// the fault clears the next compaction folds the history as usual.
#[test]
fn snapshot_sync_failure_never_fails_an_acknowledged_append() {
    let _guard = test_guard();
    PLAN.clear();
    let path = tmp("snapfail");
    wipe(&path);
    let eager = CompactionPolicy {
        min_tail_bytes: 128,
        tail_factor: 1.0,
        dead_ratio: 0.3,
    };

    PLAN.install(DiskFaultPlan::new(vec![DiskFaultSpec {
        op: DiskOp::Sync,
        tag: Some("store.snapshot".to_string()),
        nth: 0,
        kind: DiskFaultKind::SyncFail,
        salt: 0,
    }]));
    let mut s = BestStore::open_with(&path, eager).unwrap();
    // Churn far past the thresholds: every record() that trips a
    // compaction must still acknowledge its append.
    for round in 0..6u64 {
        for fp in 0..8u64 {
            assert!(
                s.record(fp, entry(1_000 - round, 4)).unwrap(),
                "append must succeed even when its compaction cannot"
            );
        }
    }
    assert_eq!(s.stats().compactions, 0, "no compaction can finish");
    PLAN.clear();

    // Fault gone: the next winning append retries compaction inline.
    assert!(s.record(0, entry(1, 4)).unwrap());
    assert!(
        s.stats().compactions > 0,
        "deferred compaction must catch up"
    );
    drop(s);

    let s = BestStore::open_with(&path, eager).unwrap();
    assert_eq!(s.len(), 8);
    assert_eq!(s.lookup(0), Some(&entry(1, 4)));
    for fp in 1..8u64 {
        assert_eq!(s.lookup(fp), Some(&entry(995, 4)), "churn winner survives");
    }
    wipe(&path);
}

/// Quarantining a bit-flipped snapshot is itself a disk operation and
/// can fail. The open must still succeed and serve the tail; the
/// corrupt file stays where it is, and the next clean open moves it
/// aside.
#[test]
fn failed_snapshot_quarantine_still_opens_and_the_next_open_quarantines() {
    let _guard = test_guard();
    PLAN.clear();
    let path = tmp("quarantine_rename");
    wipe(&path);
    let snap = PathBuf::from(format!("{}.snap", path.display()));
    let corrupt = PathBuf::from(format!("{}.snap.corrupt", path.display()));
    {
        let mut s = BestStore::open_with(&path, CompactionPolicy::never()).unwrap();
        s.record(1, entry(100, 3)).unwrap();
        s.record(2, entry(200, 5)).unwrap();
        s.compact().unwrap();
        s.record(3, entry(300, 2)).unwrap();
    }
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&snap, &bytes).unwrap();

    let plan = PLAN.install(DiskFaultPlan::new(vec![DiskFaultSpec {
        op: DiskOp::Rename,
        tag: Some("store.snapshot".to_string()),
        nth: 1,
        kind: DiskFaultKind::SyncFail,
        salt: 0,
    }]));
    let s = BestStore::open_with(&path, CompactionPolicy::never())
        .expect("a failed quarantine must not fail the open");
    assert_eq!(plan.fired(), 1, "the quarantine rename is reachable");
    PLAN.clear();
    assert!(s.stats().snapshot_quarantined);
    assert_eq!(s.len(), 1, "the snapshot's entries are not trusted");
    assert_eq!(s.lookup(3), Some(&entry(300, 2)), "the tail still serves");
    assert!(snap.exists() && !corrupt.exists(), "nothing moved");
    drop(s);

    let s = BestStore::open_with(&path, CompactionPolicy::never()).unwrap();
    assert!(s.stats().snapshot_quarantined);
    assert!(!snap.exists() && corrupt.exists(), "moved aside, kept");
    assert_eq!(s.lookup(3), Some(&entry(300, 2)));
    wipe(&path);
}

/// Seeded fault storms across every store call site: whatever mix of
/// torn writes, ENOSPC, sync failures, and short reads a seed deals,
/// the store never panics and a post-storm reopen serves exactly the
/// acknowledged set — nothing lost, nothing phantom.
#[test]
fn seeded_fault_storms_never_corrupt_acknowledged_state() {
    let _guard = test_guard();
    PLAN.clear();
    let targets: &[(DiskOp, &str)] = &[
        (DiskOp::Write, "store.append"),
        (DiskOp::Write, "store.snapshot"),
        (DiskOp::Sync, "store.append"),
        (DiskOp::Sync, "store.snapshot"),
        (DiskOp::Sync, "store.log"),
        (DiskOp::Rename, "store.snapshot"),
    ];
    let eager = CompactionPolicy {
        min_tail_bytes: 96,
        tail_factor: 1.0,
        dead_ratio: 0.3,
    };

    for seed in 0..24u64 {
        let path = tmp(&format!("storm_{seed}"));
        wipe(&path);

        let mut acked: HashMap<u64, BestEntry> = HashMap::new();
        {
            // Open clean, then let the storm hit a running store — the
            // bootstrap write of a brand-new log is not the scenario.
            let mut s = BestStore::open_with(&path, eager).unwrap();
            PLAN.install(DiskFaultPlan::seeded(seed, targets));
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..40 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let fp = x % 6;
                let e = entry(1 + x % 1_500, (x % 8) as usize);
                // Errors are the point; only an Ok(true) is an ack.
                if let Ok(true) = s.record(fp, e.clone()) {
                    acked.insert(fp, e);
                }
            }
        }
        PLAN.clear();

        let s = BestStore::open_with(&path, eager)
            .unwrap_or_else(|e| panic!("seed {seed}: post-storm reopen failed: {e}"));
        assert_eq!(s.len(), acked.len(), "seed {seed}: wrong entry count");
        for (fp, want) in &acked {
            assert_eq!(
                s.lookup(*fp),
                Some(want),
                "seed {seed}: fp {fp} lost or rewritten"
            );
        }
        wipe(&path);
    }
}
