//! End-to-end smoke of the compile service: a real daemon on a real
//! socket, mixed warm/cold load from concurrent clients, an injected
//! policy fault mid-load, and a restart that proves the store persists.
//!
//! This is the test `make serve-smoke` runs.

use autophase_benchmarks::suite;
use autophase_nn::mlp::{Activation, Mlp};
use autophase_serve::client::Client;
use autophase_serve::engine::{serve_num_actions, serve_obs_dim};
use autophase_serve::protocol::{ErrKind, Source};
use autophase_serve::server::{Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp_store(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "autophase_serve_smoke_{}_{name}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn test_policy() -> Mlp {
    Mlp::new(
        &[serve_obs_dim(), 32, serve_num_actions()],
        Activation::Tanh,
        7,
    )
}

fn start_server(store: &Path, chaos: bool) -> Server {
    let cfg = ServerConfig {
        store_path: store.to_path_buf(),
        chaos,
        ..ServerConfig::default()
    };
    Server::start(test_policy(), cfg).expect("server starts")
}

/// The full tour: cold compiles populate the store, warm repeats hit it,
/// chaos degrades to baseline without a single failed request, shutdown
/// is clean, and a restarted daemon still remembers every program.
#[test]
fn mixed_load_chaos_and_restart() {
    let store = tmp_store("tour");
    let server = start_server(&store, true);
    let addr = server.addr();

    let programs: Vec<String> = suite()
        .into_iter()
        .map(|b| autophase_ir::printer::print_module(&b.module))
        .collect();
    assert!(programs.len() >= 4, "suite unexpectedly small");

    // Cold phase: every program is new, so every answer comes off the
    // policy path and lands in the store.
    {
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        for ir in &programs {
            // Generous explicit deadline: debug builds are slow and the
            // smoke test is about correctness, not latency.
            let reply = client
                .compile(ir, Some(60_000), false)
                .expect("cold compile");
            assert_eq!(reply.source, Source::Policy, "first sight must be cold");
            assert!(reply.baseline_cycles > 0);
        }
    }
    assert_eq!(server.store_len(), programs.len());

    // Warm phase: concurrent clients replaying the same programs must
    // all hit the store — zero failures, zero recomputation.
    let mut handles = Vec::new();
    for t in 0..4 {
        let programs = programs.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            for (i, ir) in programs.iter().enumerate() {
                let reply = client
                    .compile(ir, None, i % 2 == 0)
                    .unwrap_or_else(|e| panic!("warm compile t{t} p{i}: {e}"));
                assert_eq!(reply.source, Source::Store, "t{t} p{i} missed the store");
                if i % 2 == 0 {
                    let ir_back = reply.ir.expect("asked for IR");
                    autophase_ir::parser::parse_module(&ir_back).expect("served IR parses");
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("warm client panicked");
    }

    // Chaos phase: arm injected policy faults, then send programs the
    // store has never seen. Every request must still be answered OK —
    // degraded to the baseline ordering, never dropped.
    {
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        client.chaos(1_000).expect("chaos accepted");
        let mut saw_baseline = false;
        for (i, ir) in programs.iter().enumerate() {
            // Rename the module so its fingerprint is new to the store.
            let mut m = autophase_ir::parser::parse_module(ir).unwrap();
            m.name = format!("{}__chaos{i}", m.name);
            let renamed = autophase_ir::printer::print_module(&m);
            let reply = client
                .compile(&renamed, Some(60_000), false)
                .unwrap_or_else(|e| panic!("chaos compile p{i}: {e}"));
            saw_baseline |= reply.source == Source::Baseline;
            assert!(reply.baseline_cycles > 0);
        }
        assert!(saw_baseline, "injected faults never reached a request");
    }

    let expected = server.store_len();
    assert!(expected > programs.len(), "chaos programs were not stored");
    server.shutdown();

    // Restart on the same log: every memoized ordering must survive.
    let server = start_server(&store, false);
    assert_eq!(
        server.store_len(),
        expected,
        "store lost entries on restart"
    );
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reply = client
        .compile(&programs[0], None, false)
        .expect("warm after restart");
    assert_eq!(reply.source, Source::Store, "restart forgot the store");
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// A 50-program progen mini-corpus through a live daemon: the cold pass
/// answers every request (zero drops — corpus programs are exactly what
/// the daemon will see at scale, not the 9 curated kernels), and the
/// warm replay is served entirely from store hits without a single
/// recompute.
#[test]
fn mini_corpus_replays_with_zero_drops_and_full_store_warmth() {
    use autophase_corpus::{build_corpus, CorpusConfig};

    let corpus = build_corpus(&CorpusConfig {
        target: 50,
        workers: 2,
        ..CorpusConfig::default()
    });
    assert_eq!(corpus.programs.len(), 50);
    let programs: Vec<String> = corpus
        .programs
        .iter()
        .map(|p| autophase_ir::printer::print_module(&p.module))
        .collect();

    let store = tmp_store("minicorpus");
    let server = start_server(&store, false);
    let addr = server.addr();

    // Cold: two concurrent clients split the corpus. Every request must
    // be answered (no drops, no refusals) and no fingerprint repeats, so
    // nothing can be a store hit.
    let mut handles = Vec::new();
    for (t, half) in programs.chunks(25).enumerate() {
        let half: Vec<String> = half.to_vec();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            for (i, ir) in half.iter().enumerate() {
                let reply = client
                    .compile(ir, Some(120_000), false)
                    .unwrap_or_else(|e| panic!("cold compile t{t} p{i} dropped: {e}"));
                assert_eq!(reply.source, Source::Policy, "t{t} p{i}: corpus is deduped");
                assert!(reply.baseline_cycles > 0);
                assert!(
                    reply.cycles <= reply.baseline_cycles * 2,
                    "t{t} p{i} absurd"
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("cold client panicked");
    }
    assert_eq!(
        server.store_len(),
        programs.len(),
        "every corpus program must land in the store"
    );

    // Warm: the whole corpus again on one connection — all store hits.
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    for (i, ir) in programs.iter().enumerate() {
        let reply = client
            .compile(ir, Some(120_000), false)
            .unwrap_or_else(|e| panic!("warm compile p{i} dropped: {e}"));
        assert_eq!(
            reply.source,
            Source::Store,
            "p{i} recomputed on warm replay"
        );
    }
    assert_eq!(
        server.store_len(),
        programs.len(),
        "warm replay must not grow the store"
    );
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// Garbage on the wire gets a typed refusal, and the connection after it
/// still serves real requests on a fresh client.
#[test]
fn bad_ir_is_refused_not_fatal() {
    let store = tmp_store("badir");
    let server = start_server(&store, false);
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match client.compile("this is not IR", None, false) {
        Err(autophase_serve::client::ClientError::Server { kind, .. }) => {
            assert_eq!(kind, ErrKind::Parse);
        }
        other => panic!("expected a parse refusal, got {other:?}"),
    }
    // Same connection keeps working after a refusal.
    client.ping().expect("ping after refusal");
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// Chaos is a test-only verb: a server without `chaos: true` refuses it.
#[test]
fn chaos_requires_opt_in() {
    let store = tmp_store("nochaos");
    let server = start_server(&store, false);
    let mut client = Client::connect(server.addr()).expect("connect");
    match client.chaos(1) {
        Err(autophase_serve::client::ClientError::Server { kind, .. }) => {
            assert_eq!(kind, ErrKind::BadRequest);
        }
        other => panic!("expected refusal, got {other:?}"),
    }
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// A stored ordering that no longer replays cleanly (here: the daemon's
/// fuel budget shrank below what its passes need) must not be served with
/// IR that contradicts the stored numbers — the entry is retired and the
/// request recomputed.
#[test]
fn stale_store_entry_is_retired_not_served_inconsistently() {
    use autophase_passes::checked::FuelBudget;
    use autophase_serve::store::{BestEntry, BestStore};

    let store = tmp_store("stale");
    let ir = autophase_ir::printer::print_module(&autophase_benchmarks::kernels::gsm());
    let module = autophase_ir::parser::parse_module(&ir).unwrap();
    let fp = autophase_core::eval_cache::fingerprint_module(&module);
    // Plant an entry whose single pass cannot apply under a one-inst
    // fuel ceiling (gsm is far bigger than one instruction).
    let pass = (0..autophase_passes::registry::pass_count())
        .find(|&p| p != autophase_passes::registry::TERMINATE)
        .expect("registry has a real pass");
    {
        let mut s = BestStore::open(&store).unwrap();
        s.record(
            fp,
            BestEntry {
                cycles: 1,
                baseline_cycles: 2,
                seq: vec![pass as u16],
            },
        )
        .unwrap();
    }
    let cfg = ServerConfig {
        store_path: store.clone(),
        fuel: FuelBudget { max_insts: 1 },
        ..ServerConfig::default()
    };
    let server = Server::start(test_policy(), cfg).expect("server starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Numbers-only requests serve the hit as-is: no IR, nothing to
    // contradict.
    let reply = client
        .compile(&ir, Some(60_000), false)
        .expect("numbers-only hit");
    assert_eq!(reply.source, Source::Store);
    assert_eq!(reply.cycles, 1);
    assert_eq!(last_front(&mut client), "miss");

    // Asking for IR forces the replay, which faults on fuel: the reply
    // must come from a recompute, never pair fresh IR with cycles=1.
    // The text is memoized by now: a memo hit whose store entry is
    // retired under it must recompute just the same.
    let reply = client.compile(&ir, Some(60_000), true).expect("recompute");
    assert_eq!(last_front(&mut client), "hit");
    assert_ne!(reply.source, Source::Store, "stale entry was served");
    let ir_back = reply.ir.expect("asked for IR");
    autophase_ir::parser::parse_module(&ir_back).expect("served IR parses");
    assert!(reply.cycles > 1, "cycles must be recomputed, not inherited");

    // The recompute re-populated the store with a replayable entry.
    let reply = client.compile(&ir, Some(60_000), true).expect("warm again");
    assert_eq!(reply.source, Source::Store, "recomputed entry not stored");
    assert!(reply.ir.is_some());
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// Connections beyond `max_conns` get a typed `overloaded` refusal, and
/// closing a connection frees its slot.
#[test]
fn connection_cap_refuses_with_overloaded() {
    let store = tmp_store("conncap");
    let cfg = ServerConfig {
        store_path: store.clone(),
        max_conns: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(test_policy(), cfg).expect("server starts");
    let mut c1 = Client::connect(server.addr()).expect("connect");
    c1.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    c1.ping().expect("first connection serves");

    let mut c2 = Client::connect(server.addr()).expect("tcp connect still works");
    c2.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    match c2.ping() {
        Err(autophase_serve::client::ClientError::Server { kind, .. }) => {
            assert_eq!(kind, ErrKind::Overloaded);
        }
        other => panic!("expected overloaded refusal, got {other:?}"),
    }

    // Closing the first connection frees the slot (the handler notices
    // the hangup asynchronously, so poll briefly).
    drop(c1);
    drop(c2);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut c3 = Client::connect(server.addr()).expect("connect");
        c3.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        if c3.ping().is_ok() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "connection slot never freed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// A deadline that has effectively already passed is answered with the
/// typed `deadline` refusal, not silence.
#[test]
fn expired_deadline_is_typed() {
    let store = tmp_store("deadline");
    let server = start_server(&store, false);
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let ir = autophase_ir::printer::print_module(&autophase_benchmarks::kernels::gsm());
    match client.compile(&ir, Some(0), false) {
        Err(autophase_serve::client::ClientError::Server { kind, .. }) => {
            assert_eq!(kind, ErrKind::Deadline);
        }
        // A zero-millisecond deadline can still be met if the whole
        // pipeline fits inside the clock granularity; a success is not
        // a failure of the deadline machinery.
        Ok(_) => {}
        Err(e) => panic!("unexpected transport error: {e}"),
    }
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// A reply bigger than the server's 8 KiB write buffer leaves in two
/// writes. Without `TCP_NODELAY` on the accepted socket the second one
/// waits for the client's delayed ACK of the first — about 40 ms on Linux,
/// every time. The program is trivial (all of its 32+ KiB are one constant
/// table), so a store hit is nothing but parse, lookup, print and the wire.
#[test]
fn large_ir_reply_does_not_wait_out_a_delayed_ack() {
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::{Global, Module, Type, Value};

    let mut m = Module::new("wide");
    let table: Vec<i64> = (0..6_000).map(|i| 1_000_000 + i).collect();
    let g = m.add_global(Global::constant("table", Type::I32, table));
    let mut b = FunctionBuilder::new("main", vec![], Type::I32);
    let p = b.gep(Value::Global(g), Value::i32(17));
    let v = b.load(Type::I32, p);
    b.ret(Some(v));
    m.add_function(b.finish());
    let ir = autophase_ir::printer::print_module(&m);

    let store = tmp_store("nodelay");
    let server = start_server(&store, false);
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let cold = client.compile(&ir, Some(60_000), true).expect("cold");
    assert!(
        cold.ir.as_ref().is_some_and(|out| out.len() >= 32 * 1024),
        "the reply must dwarf the write buffer"
    );
    // A young connection ACKs at once (Linux "quickack" covers its first
    // segments); the stall belongs to a connection in steady request/reply
    // rhythm, which is what a compiler client's is. Once there, every
    // large reply stalls, so the best of five is as damning as the worst.
    for _ in 0..32 {
        client.ping().expect("ping");
    }
    let mut round_trip = || {
        let t = std::time::Instant::now();
        let warm = client.compile(&ir, Some(60_000), true).expect("warm");
        assert_eq!(warm.source, Source::Store);
        assert_eq!(warm.ir, cold.ir);
        t.elapsed()
    };
    for _ in 0..8 {
        round_trip();
    }
    let best = (0..5)
        .map(|_| round_trip())
        .min()
        .expect("five round trips");
    assert!(
        best < Duration::from_millis(20),
        "a {} KiB reply took {best:?} at best: stalled on a delayed ACK",
        ir.len() / 1024
    );
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// Whether the connection's last compile hit the front memo, read from the
/// `front` note of its trace. The handler seals a request's trace before
/// it reads the connection's next request, so `TRACE n=1` on the same
/// connection names that request. (The `serve.front` counters are
/// process-wide and this binary's tests share them.)
fn last_front(client: &mut Client) -> &'static str {
    let body = client.traces(1).expect("traces");
    if body.contains("[\"front\",\"hit\"]") {
        "hit"
    } else if body.contains("[\"front\",\"miss\"]") {
        "miss"
    } else {
        panic!("no front note in {body}")
    }
}

/// The warm path: a byte-identical repeat is answered from the front memo
/// and the store with the first answer; a re-formatted text of the same
/// module misses the memo and still hits the store; IR served for a
/// memoized text is the IR of the reported numbers.
#[test]
fn a_byte_identical_repeat_skips_the_front_end_and_answers_the_same() {
    use autophase_core::eval_cache::fingerprint_module;
    use autophase_hls::profile::profile_module;
    use autophase_hls::HlsConfig;
    use autophase_ir::parser::parse_module;

    let store = tmp_store("front");
    let server = start_server(&store, false);
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let ir = autophase_ir::printer::print_module(&autophase_benchmarks::kernels::gsm());

    let first = client.compile(&ir, Some(60_000), false).expect("cold");
    assert_eq!(first.source, Source::Policy);
    assert_eq!(last_front(&mut client), "miss");

    let again = client.compile(&ir, Some(60_000), false).expect("repeat");
    assert_eq!(again.source, Source::Store);
    assert_eq!(last_front(&mut client), "hit");
    assert_eq!(
        (&again.passes, again.cycles, again.baseline_cycles),
        (&first.passes, first.cycles, first.baseline_cycles)
    );

    // Same module, other bytes: only the fingerprint can find it.
    let reformatted = format!("\n{}\n\n", ir.replace("\n  ", "\n      "));
    assert_ne!(reformatted, ir);
    assert_eq!(
        fingerprint_module(&parse_module(&reformatted).unwrap()),
        fingerprint_module(&parse_module(&ir).unwrap())
    );
    let other = client
        .compile(&reformatted, Some(60_000), false)
        .expect("reformatted");
    assert_eq!(last_front(&mut client), "miss");
    assert_eq!(other.source, Source::Store);
    assert_eq!((&other.passes, other.cycles), (&first.passes, first.cycles));

    // IR for a memoized text: parsed again (never trusted from the memo),
    // replayed, and it is the module the reported cycles belong to.
    let with_ir = client.compile(&ir, Some(60_000), true).expect("with IR");
    assert_eq!(last_front(&mut client), "hit");
    assert_eq!(with_ir.source, Source::Store);
    assert_eq!(
        (&with_ir.passes, with_ir.cycles),
        (&first.passes, first.cycles)
    );
    let served = parse_module(with_ir.ir.as_deref().expect("asked for IR")).expect("parses");
    autophase_ir::verify::verify_module(&served).expect("served IR verifies");
    let hls = HlsConfig::default().with_profile_fuel(ServerConfig::default().profile_fuel);
    assert_eq!(
        profile_module(&served, &hls).unwrap().cycles,
        with_ir.cycles
    );

    server.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// Only a text that parsed, verified and fingerprinted is memoized: one
/// that fails the parser or the verifier runs the front end every time and
/// gets the same typed refusal every time. A text that passes both but
/// cannot be profiled *is* memoized — and, with no store entry to find,
/// recomputes to the same refusal.
#[test]
fn a_refused_text_is_never_memoized_and_is_refused_the_same_each_time() {
    use autophase_serve::client::ClientError;

    let store = tmp_store("front_refused");
    let cfg = ServerConfig {
        store_path: store.clone(),
        profile_fuel: 10_000,
        ..ServerConfig::default()
    };
    let server = Server::start(test_policy(), cfg).expect("server starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let unparseable = "this is not IR";
    let unverifiable = "; module m\n\n; f0\ndefine i32 @main() {\nb0:\n  br b7\n}\n";
    let spins = "; module m\n\n; f0\ndefine i32 @main() {\nb0:\n  br b1\nb1:\n  br b1\n}\n";
    for (text, fronts) in [
        (unparseable, ["miss", "miss", "miss"]),
        (unverifiable, ["miss", "miss", "miss"]),
        (spins, ["miss", "hit", "hit"]),
    ] {
        let mut msgs = Vec::new();
        for front in fronts {
            match client.compile(text, Some(60_000), false) {
                Err(ClientError::Server { kind, msg, .. }) => {
                    assert_eq!(kind, ErrKind::Parse, "{text:?}: {msg}");
                    msgs.push(msg);
                }
                other => panic!("{text:?}: expected a parse refusal, got {other:?}"),
            }
            assert_eq!(last_front(&mut client), front, "{text:?}");
        }
        assert!(msgs.windows(2).all(|w| w[0] == w[1]), "{msgs:?}");
    }
    assert_eq!(server.store_len(), 0);
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// Eight connections racing on one text nobody has seen: whoever parses
/// it, whoever computes it, every reply is the same answer — and the next
/// round is all memo hits and store hits.
#[test]
fn eight_threads_on_one_text_agree() {
    let store = tmp_store("front_race");
    let server = start_server(&store, false);
    let addr = server.addr();
    let ir = autophase_ir::printer::print_module(&autophase_benchmarks::kernels::matmul());
    let barrier = std::sync::Barrier::new(8);
    let answers: Vec<_> = std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .unwrap();
                    barrier.wait();
                    let raced = client.compile(&ir, Some(120_000), false).expect("raced");
                    barrier.wait();
                    let warm = client.compile(&ir, Some(120_000), true).expect("warm");
                    assert_eq!(warm.source, Source::Store);
                    // A trace is pushed after its reply is written, so the
                    // newest one could be another lane's late first-round
                    // trace. A ping seals this lane's warm trace; once every
                    // lane has, the newest trace is some lane's warm hit.
                    client.ping().expect("the warm trace is sealed");
                    barrier.wait();
                    assert_eq!(last_front(&mut client), "hit");
                    (raced, warm)
                })
            })
            .collect();
        lanes
            .into_iter()
            .map(|l| l.join().expect("lane panicked"))
            .collect()
    });
    let (first, first_warm) = &answers[0];
    for (raced, warm) in &answers {
        assert_eq!(
            (&raced.passes, raced.cycles, raced.baseline_cycles),
            (&first.passes, first.cycles, first.baseline_cycles)
        );
        assert_eq!(
            (&warm.passes, warm.cycles, &warm.ir),
            (&first.passes, first.cycles, &first_warm.ir)
        );
    }
    assert_eq!(server.store_len(), 1);
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// A peer that never sends a newline gets a typed refusal after one
/// bounded header's worth of bytes and is hung up on; the daemon neither
/// buffers the megabyte nor stops serving others.
#[test]
fn a_header_without_a_newline_is_refused_and_hung_up_on() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    let store = tmp_store("longheader");
    let server = start_server(&store, false);
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut flood = stream.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        // The daemon hangs up mid-flood, so the write may fail: that is
        // the point, not an error.
        let _ = flood.write_all(&vec![b'A'; 1 << 20]);
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("a refusal, not a reset");
    assert!(
        line.starts_with("AUTOPHASE/1 ERR kind=bad_request")
            && line.contains("header line exceeds"),
        "{line:?}"
    );
    // Hung up: nothing more ever arrives on this connection.
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty(), "{} more bytes", rest.len());
    writer.join().expect("writer thread");

    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("the daemon still serves");
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}
