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
use autophase_serve::stats::StatsSnapshot;
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

/// The `key` note of this connection's last compile, one of `values`
/// (its trace is sealed before the handler reads the next request).
fn last_note(client: &mut Client, key: &str, values: [&'static str; 2]) -> &'static str {
    let body = client.traces(1).expect("traces");
    values
        .into_iter()
        .find(|value| body.contains(&format!("[\"{key}\",\"{value}\"]")))
        .unwrap_or_else(|| panic!("no {key} note in {body}"))
}

/// How this connection's last compile found its IR.
fn last_ir(client: &mut Client) -> &'static str {
    last_note(client, "ir", ["artifact", "replay"])
}

/// Whether this connection's last compile was in the front memo.
fn last_front(client: &mut Client) -> &'static str {
    last_note(client, "front", ["hit", "miss"])
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
/// after a restart, with no pass applied, and the restarted daemon's front
/// memo already holds every recorded request text: its first request for
/// one is a memo hit, never parsed, while a text with no record misses.
/// Without the sidecar, or with one of the first layout (no request
/// texts), the first request misses the memo and the next IR hit replays;
/// both rebuild the record, so the restart after that hits again. An entry
/// superseded behind the daemon's back is replayed, never paired with the
/// old entry's text, and its text is not preloaded.
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
    assert_eq!(last_front(&mut client), "miss");
    let stats = client.stats().expect("stats");
    let preloaded = stats.counter("serve.front", "preloaded");
    let ir_opens = |stats: &StatsSnapshot| stats.hist("serve.store_ns", "ir_open").map(|h| h.count);
    let opened = ir_opens(&stats).expect("the sidecar's open is timed");
    drop(client);
    server.shutdown();
    let want = |i: usize| replay(&programs[i], &cold[i].passes);

    // Restarted: the front memo holds the three recorded texts.
    let server = start(&store);
    let mut client = connect(&server);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.counter("serve.front", "preloaded") - preloaded, 3);
    assert_eq!(ir_opens(&stats), Some(opened + 1));
    let before = ir_counts(&mut client);
    let reply = compile(&mut client, &programs[0], true);
    assert_eq!(
        (last_front(&mut client), last_ir(&mut client)),
        ("hit", "artifact"),
        "a recorded text is neither parsed nor replayed"
    );
    assert_eq!(reply.source, Source::Store);
    assert_eq!(
        (&reply.passes, reply.cycles),
        (&cold[0].passes, cold[0].cycles)
    );
    assert!(reply.ir.as_deref() == Some(want(0).as_str()));
    let after = ir_counts(&mut client);
    assert_eq!((after.0 - before.0, after.1 - before.1), (1, 0));
    let numbers = compile(&mut client, &programs[2], false);
    assert_eq!(last_front(&mut client), "hit");
    assert_eq!(
        (numbers.source, numbers.cycles),
        (Source::Store, cold[2].cycles)
    );
    // The same module in other bytes has no record of its own.
    let crlf = compile(&mut client, &programs[2].replace('\n', "\r\n"), false);
    assert_eq!(last_front(&mut client), "miss");
    assert_eq!((crlf.source, crlf.cycles), (Source::Store, cold[2].cycles));
    drop(client);
    server.shutdown();

    // The sidecar is lost, then replaced by one of the first layout: each
    // time the first request misses the memo, the first IR hit replays
    // and rebuilds the record, and the next restart hits it.
    for damage in ["lost", "first layout"] {
        let ir = sidecar(&store);
        if damage == "lost" {
            std::fs::remove_file(&ir).expect("the sidecar exists");
        } else {
            let mut bytes = std::fs::read(&ir).expect("the sidecar exists");
            bytes[..8].copy_from_slice(b"APIRTXT1");
            std::fs::write(&ir, bytes).unwrap();
        }
        let server = start(&store);
        let mut client = connect(&server);
        let before = ir_counts(&mut client);
        for (front, how) in [("miss", "replay"), ("hit", "artifact")] {
            let reply = compile(&mut client, &programs[0], true);
            assert_eq!(
                (last_front(&mut client), last_ir(&mut client)),
                (front, how),
                "{damage}"
            );
            assert_eq!(reply.source, Source::Store);
            assert!(reply.ir.as_deref() == Some(want(0).as_str()), "{how}");
        }
        let after = ir_counts(&mut client);
        assert_eq!((after.0 - before.0, after.1 - before.1), (1, 1));
        drop(client);
        server.shutdown();

        let server = start(&store);
        let mut client = connect(&server);
        compile(&mut client, &programs[0], true);
        assert_eq!(
            (last_front(&mut client), last_ir(&mut client)),
            ("hit", "artifact"),
            "{damage}, rebuilt"
        );
        compile(&mut client, &programs[1], false);
        assert_eq!(last_front(&mut client), "miss", "{damage}: never asked");
        drop(client);
        server.shutdown();
    }

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
    for (front, how) in [("miss", "replay"), ("hit", "artifact")] {
        let reply = compile(&mut client, &programs[1], true);
        assert_eq!(
            (last_front(&mut client), last_ir(&mut client)),
            (front, how)
        );
        assert_eq!(reply.cycles, cold[1].cycles - 1, "{how}");
        assert!(reply.ir.as_deref() == Some(want(1).as_str()), "{how}");
    }
    drop(client);
    server.shutdown();
    wipe(&store);
}
