//! The optimized-IR sidecar beside the store, through a live daemon: a
//! store hit that asks for IR is answered with the text printed when its
//! answer was computed, and that text is byte for byte what replaying the
//! reported passes on the request prints — the property the benchmark's
//! oracle checks on every IR reply.
//!
//! `make serve-smoke` runs this file. Its tests read process-wide
//! `serve.store` counters, so they take turns on one lock.

use autophase_benchmarks::suite;
use autophase_nn::mlp::{Activation, Mlp};
use autophase_passes::checked::{apply_checked, FuelBudget};
use autophase_serve::client::{Client, CompileReply};
use autophase_serve::engine::{serve_num_actions, serve_obs_dim};
use autophase_serve::protocol::Source;
use autophase_serve::server::{Server, ServerConfig};
use autophase_serve::store::{BestEntry, BestStore};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

static COUNTERS: Mutex<()> = Mutex::new(());

fn tmp_store(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "autophase_ir_artifacts_{}_{name}.log",
        std::process::id()
    ));
    wipe(&path);
    path
}

fn sidecar(store: &Path) -> PathBuf {
    PathBuf::from(format!("{}.ir", store.display()))
}

fn wipe(store: &Path) {
    for suffix in ["", ".snap", ".ir"] {
        let _ = std::fs::remove_file(format!("{}{suffix}", store.display()));
    }
}

fn start(store: &Path) -> Server {
    let policy = Mlp::new(
        &[serve_obs_dim(), 32, serve_num_actions()],
        Activation::Tanh,
        7,
    );
    let cfg = ServerConfig {
        store_path: store.to_path_buf(),
        ..ServerConfig::default()
    };
    Server::start(policy, cfg).expect("server starts")
}

fn connect(server: &Server) -> Client {
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    client
}

fn compile(client: &mut Client, ir: &str, want_ir: bool) -> CompileReply {
    client
        .compile(ir, Some(120_000), want_ir)
        .unwrap_or_else(|e| panic!("compile (want_ir={want_ir}): {e}"))
}

/// What replaying `passes` with `apply_checked` prints from `ir` parsed.
fn replay(ir: &str, passes: &[usize]) -> String {
    let mut m = autophase_ir::parser::parse_module(ir).expect("input parses");
    for &p in passes {
        apply_checked(&mut m, p, &FuelBudget::default()).expect("reported pass applies");
    }
    autophase_ir::printer::print_module(&m)
}

/// `(ir_artifact, ir_replayed)` so far.
fn ir_counts(client: &mut Client) -> (u64, u64) {
    let stats = client.stats().expect("stats");
    (
        stats.counter("serve.store", "ir_artifact"),
        stats.counter("serve.store", "ir_replayed"),
    )
}

/// The `ir` note of this connection's last compile (its trace is sealed
/// before the handler reads the next request).
fn last_ir(client: &mut Client) -> &'static str {
    let body = client.traces(1).expect("traces");
    ["artifact", "replay"]
        .into_iter()
        .find(|how| body.contains(&format!("[\"ir\",\"{how}\"]")))
        .unwrap_or_else(|| panic!("no ir note in {body}"))
}

/// CHStone and 200 corpus programs compiled cold without IR, then asked
/// again with IR twice: as the same bytes (a front-memo hit, not parsed)
/// and re-formatted (a first sight that finds the store by fingerprint).
/// Every IR reply is the artifact, and every artifact is what a replay of
/// its passes prints from that request's text.
#[test]
fn every_artifact_is_byte_identical_to_a_replay() {
    use autophase_corpus::{build_corpus, CorpusConfig};

    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = build_corpus(&CorpusConfig {
        target: 200,
        workers: 2,
        ..CorpusConfig::default()
    });
    let programs: Vec<String> = suite()
        .iter()
        .map(|b| &b.module)
        .chain(corpus.programs.iter().map(|p| &p.module))
        .map(autophase_ir::printer::print_module)
        .collect();
    assert_eq!(programs.len(), 209);

    let store = tmp_store("differential");
    let server = start(&store);
    std::thread::scope(|scope| {
        for half in programs.chunks(programs.len().div_ceil(2)) {
            let server = &server;
            scope.spawn(move || {
                let mut client = connect(server);
                for ir in half {
                    assert_ne!(compile(&mut client, ir, false).source, Source::Store);
                }
            });
        }
    });
    assert_eq!(server.store_len(), programs.len());

    let mut client = connect(&server);
    let before = ir_counts(&mut client);
    for (i, ir) in programs.iter().enumerate() {
        let reply = compile(&mut client, ir, true);
        assert_eq!(reply.source, Source::Store, "program {i}");
        let served = reply.ir.as_deref().expect("asked for IR");
        assert!(
            served == replay(ir, &reply.passes),
            "program {i}: artifact ≠ replay"
        );

        let reformatted = if i % 2 == 0 {
            format!("\n{}\n\n", ir.replace("\n  ", "\n      "))
        } else {
            ir.replace('\n', "\r\n")
        };
        let again = compile(&mut client, &reformatted, true);
        assert_eq!(again.source, Source::Store, "program {i} re-formatted");
        assert_eq!(again.passes, reply.passes);
        let served_again = again.ir.as_deref().expect("asked for IR");
        assert!(
            served_again == replay(&reformatted, &again.passes),
            "program {i} re-formatted: artifact ≠ replay"
        );
        assert!(served_again == served);
    }
    let (artifacts, replays) = ir_counts(&mut client);
    assert_eq!(
        (artifacts - before.0, replays - before.1),
        (2 * programs.len() as u64, 0),
        "every IR hit is an artifact, no pass is replayed"
    );
    drop(client);
    server.shutdown();
    wipe(&store);
}

/// A store seeded by numbers-only compiles serves IR from its sidecar
/// after a restart, with no pass applied. Without the sidecar the next IR
/// hit replays and rebuilds it, and the one after it is an artifact again.
/// An entry superseded behind the daemon's back is replayed, never paired
/// with the old entry's text.
#[test]
fn a_restarted_daemon_serves_ir_from_the_sidecar_and_rebuilds_a_lost_one() {
    use autophase_core::eval_cache::fingerprint_module;

    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let programs: Vec<String> = suite()
        .iter()
        .take(3)
        .map(|b| autophase_ir::printer::print_module(&b.module))
        .collect();
    let store = tmp_store("restart");
    let server = start(&store);
    let mut client = connect(&server);
    let cold: Vec<CompileReply> = programs
        .iter()
        .map(|ir| compile(&mut client, ir, false))
        .collect();
    drop(client);
    server.shutdown();
    let want = |i: usize| replay(&programs[i], &cold[i].passes);

    // Restarted: the front memo is empty, the sidecar is not.
    let server = start(&store);
    let mut client = connect(&server);
    let before = ir_counts(&mut client);
    let reply = compile(&mut client, &programs[0], true);
    assert_eq!(last_ir(&mut client), "artifact");
    assert_eq!(reply.source, Source::Store);
    assert_eq!(
        (&reply.passes, reply.cycles),
        (&cold[0].passes, cold[0].cycles)
    );
    assert!(reply.ir.as_deref() == Some(want(0).as_str()));
    let after = ir_counts(&mut client);
    assert_eq!((after.0 - before.0, after.1 - before.1), (1, 0));
    drop(client);
    server.shutdown();

    // The sidecar is lost: one replay rebuilds it.
    std::fs::remove_file(sidecar(&store)).expect("the sidecar exists");
    let server = start(&store);
    let mut client = connect(&server);
    let before = ir_counts(&mut client);
    for how in ["replay", "artifact"] {
        let reply = compile(&mut client, &programs[0], true);
        assert_eq!(last_ir(&mut client), how);
        assert_eq!(reply.source, Source::Store);
        assert!(reply.ir.as_deref() == Some(want(0).as_str()), "{how}");
    }
    let after = ir_counts(&mut client);
    assert_eq!((after.0 - before.0, after.1 - before.1), (1, 1));
    drop(client);
    server.shutdown();

    // A strictly better entry recorded behind the daemon's back has no
    // artifact of its own: its first IR hit replays, the next is served.
    let fp = fingerprint_module(&autophase_ir::parser::parse_module(&programs[1]).unwrap());
    let better = BestEntry {
        cycles: cold[1].cycles - 1,
        baseline_cycles: cold[1].baseline_cycles,
        seq: cold[1].passes.iter().map(|&p| p as u16).collect(),
    };
    assert!(BestStore::open(&store).unwrap().record(fp, better).unwrap());
    let server = start(&store);
    let mut client = connect(&server);
    for how in ["replay", "artifact"] {
        let reply = compile(&mut client, &programs[1], true);
        assert_eq!(last_ir(&mut client), how);
        assert_eq!(reply.cycles, cold[1].cycles - 1, "{how}");
        assert!(reply.ir.as_deref() == Some(want(1).as_str()), "{how}");
    }
    drop(client);
    server.shutdown();
    wipe(&store);
}
