//! Wire fuzz, in memory: `read_request` over arbitrary bytes, over
//! header-shaped lines with hostile values, and over every prefix of
//! every encoded request. Read the way a connection handler reads —
//! requests until the stream ends or a read fails — each input must end
//! in a clean EOF or a typed error (`InvalidData` for a malformed header
//! or body, `UnexpectedEof` for a cut one). Never a panic, and never an
//! allocation past `MAX_IR_LEN`, whatever length a header announces: a
//! peak-tracking global allocator holds the whole process to that.
//!
//! Then live: one daemon on an ephemeral port takes arbitrary bytes and
//! cut requests on real connections, each half-closed after the write.
//! Every connection must end within a read timeout in well-formed
//! replies — a typed `ERR` for a malformed header — and the daemon's
//! close, and the daemon must still answer `PING` and `COMPILE` after.
//! Last, one connection interleaves store hits with refused frames of
//! every length, so the buffers a connection reuses from request to
//! request are seen to carry nothing from one request into the next:
//! each reply there is byte for byte the reply its request earns on a
//! connection of its own.

use autophase_nn::mlp::Mlp;
use autophase_serve::client::Client;
use autophase_serve::engine::{serve_num_actions, serve_obs_dim};
use autophase_serve::protocol::{
    read_reply, read_request, write_request, Reply, Request, Source, MAX_IR_LEN,
};
use autophase_serve::server::{Server, ServerConfig};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Records the largest single allocation the process ever asked for.
struct PeakAlloc;

static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged, so `System`'s guarantees are the caller's; the only
// other effect is a `Relaxed` update of a statistic that guards no data.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Read requests from `bytes` until EOF or the first error, and check
/// how it ended: EOF, `InvalidData` or `UnexpectedEof` and no allocation
/// past `MAX_IR_LEN`. Returns the requests read on the way.
fn read_all(bytes: &[u8]) -> Vec<Request> {
    let mut r = BufReader::new(bytes);
    let mut got = Vec::new();
    loop {
        match read_request(&mut r) {
            Ok(Some(req)) => got.push(req),
            Ok(None) => break,
            Err(e) => {
                let kind = e.kind();
                let typed = matches!(kind, ErrorKind::InvalidData | ErrorKind::UnexpectedEof);
                prop_assert!(
                    typed,
                    "{kind:?}: {e} on {:?}",
                    String::from_utf8_lossy(bytes)
                );
                break;
            }
        }
    }
    let peak = PEAK.load(Ordering::Relaxed);
    prop_assert!(peak <= MAX_IR_LEN, "an allocation of {peak} bytes");
    got
}

/// A token with no space or newline, spelled from `raw`'s bytes.
fn token(raw: u64, len: usize) -> String {
    raw.to_le_bytes()[..len.min(8)]
        .iter()
        .map(|&b| char::from(b'!' + b % 94))
        .collect()
}

/// A header line that reaches the verb parsers: a real verb (or junk),
/// keys they read (and some they do not), values from valid to hostile
/// — lengths past the cap, overflow, signs, junk — then body bytes that
/// may fall short of what the header announced.
fn header_shaped(verb: usize, kvs: &[(usize, usize, u64)], body: &[u8]) -> Vec<u8> {
    const VERBS: [&str; 8] = [
        "COMPILE", "PING", "CHAOS", "SHUTDOWN", "STATS", "TRACE", "MODEL", "PROMOTE",
    ];
    const KEYS: [&str; 8] = [
        "ir_len",
        "deadline_ms",
        "want_ir",
        "n",
        "crash",
        "swap",
        "v",
        "ab",
    ];
    let mut line = format!(
        "AUTOPHASE/1 {}",
        VERBS
            .get(verb)
            .map_or_else(|| token(verb as u64, 4), |v| v.to_string())
    );
    for &(key, value, raw) in kvs {
        let key = KEYS
            .get(key)
            .map_or_else(|| token(raw, 3), |k| k.to_string());
        let value = match value {
            0 => raw.to_string(),
            1 => (raw % (MAX_IR_LEN as u64 + 2)).to_string(),
            2 => MAX_IR_LEN.to_string(),
            3 => u128::MAX.to_string(),
            4 => "-1".to_string(),
            _ => token(raw, (raw % 9) as usize),
        };
        line.push_str(&format!(" {key}={value}"));
    }
    line.push('\n');
    let mut bytes = line.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Request variant `kind` with its fields drawn from the raw parts.
fn request(kind: usize, ir: &[u8], a: u64, b: u64, flag: bool) -> Request {
    match kind {
        0 => Request::Compile {
            ir: String::from_utf8_lossy(ir).into_owned(),
            deadline_ms: flag.then_some(a),
            want_ir: b & 1 == 1,
        },
        1 => Request::Ping,
        2 => Request::Chaos {
            faults: a as u32,
            crashes: (a >> 32) as u32,
            swaps: b as u32,
        },
        3 => Request::Shutdown,
        4 => Request::Stats,
        5 => Request::Trace { n: a as usize },
        6 => Request::Model,
        _ => Request::Promote { version: a },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_end_cleanly(bytes in collection::vec(any::<u8>(), 0..2048)) {
        read_all(&bytes);
    }

    #[test]
    fn hostile_headers_end_cleanly(
        verb in 0usize..10,
        kvs in collection::vec((0usize..10, 0usize..6, any::<u64>()), 0..4),
        body in collection::vec(any::<u8>(), 0..256),
    ) {
        read_all(&header_shaped(verb, &kvs, &body));
    }

    /// The whole encoding reads back as the request; every cut of it
    /// ends cleanly and yields at most one request.
    #[test]
    fn every_prefix_of_an_encoded_request_ends_cleanly(
        kind in 0usize..8,
        ir in collection::vec(any::<u8>(), 0..96),
        a in any::<u64>(),
        b in any::<u64>(),
        flag in any::<bool>(),
    ) {
        let req = request(kind, &ir, a, b, flag);
        let mut bytes = Vec::new();
        write_request(&mut bytes, &req).expect("a Vec takes every write");
        prop_assert_eq!(read_all(&bytes), vec![req]);
        for cut in 0..bytes.len() {
            let got = read_all(&bytes[..cut]);
            prop_assert!(got.len() <= 1, "cut {cut}: {got:?}");
        }
    }
}

/// Cases of the live fuzz: one connection each.
const LIVE_CASES: u32 = 128;

/// Write `bytes` to the daemon on a fresh connection, half-close it, and
/// read what comes back until the daemon closes: well-formed replies,
/// then EOF — or a reset, when it hung up after a typed `ERR` with bytes
/// of ours still unread. A read that times out fails the case. Returns
/// whether the daemon refused.
fn drive(addr: SocketAddr, bytes: &[u8]) -> bool {
    let what = || String::from_utf8_lossy(bytes).into_owned();
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    // The daemon may have refused and hung up before taking every byte.
    let _ = (&stream).write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut r = BufReader::new(stream);
    let mut refused = false;
    loop {
        let ended = match r.fill_buf() {
            Ok(buf) => buf.is_empty(),
            Err(e) if e.kind() == ErrorKind::ConnectionReset && refused => true,
            Err(e) => panic!("{:?}: {e} on {:?}", e.kind(), what()),
        };
        if ended {
            return refused;
        }
        match read_reply(&mut r) {
            Ok(Reply::Err { .. }) => refused = true,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset && refused => return refused,
            Err(e) => panic!("{:?}: {e} on {:?}", e.kind(), what()),
        }
    }
}

/// What one live case writes: arbitrary bytes, or a strict prefix of an
/// encoded request of any verb but `SHUTDOWN` (whose whole header, cut
/// before its newline, still reads as a shutdown).
fn live_input(rng: &mut TestRng) -> Vec<u8> {
    if any::<bool>().generate(rng) {
        return collection::vec(any::<u8>(), 0..2048).generate(rng);
    }
    let kind = [0, 1, 2, 4, 5, 6, 7][(0usize..7).generate(rng)];
    let ir = collection::vec(any::<u8>(), 0..96).generate(rng);
    let (a, b) = (any::<u64>().generate(rng), any::<u64>().generate(rng));
    let req = request(kind, &ir, a, b, any::<bool>().generate(rng));
    let mut bytes = Vec::new();
    write_request(&mut bytes, &req).expect("a Vec takes every write");
    bytes.truncate((0..bytes.len()).generate(rng));
    bytes
}

#[test]
fn a_live_daemon_ends_every_hostile_connection_and_keeps_serving() {
    let store = std::env::temp_dir().join(format!(
        "autophase_serve_wire_fuzz_{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let cfg = ServerConfig {
        store_path: store.clone(),
        ..ServerConfig::default()
    };
    let policy = Mlp::new(&[serve_obs_dim(), 32, serve_num_actions()], 7);
    let server = Server::start(policy, cfg).expect("server starts");
    let refused = (0..LIVE_CASES)
        .filter(|&case| {
            let mut rng = TestRng::for_case("wire_fuzz::live", case);
            drive(server.addr(), &live_input(&mut rng))
        })
        .count();
    // Both endings were exercised: refusals, and closes without one.
    assert!(refused > 0 && refused < LIVE_CASES as usize, "{refused}");
    let peak = PEAK.load(Ordering::Relaxed);
    assert!(peak <= MAX_IR_LEN, "an allocation of {peak} bytes");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("PING after the fuzz");
    let gsm = autophase_benchmarks::suite::by_name("gsm").expect("gsm");
    let ir = autophase_ir::printer::print_module(&gsm);
    let reply = client
        .compile(&ir, None, false)
        .expect("COMPILE after the fuzz");
    assert_eq!(reply.source, Source::Policy, "{reply:?}");
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// Read one reply's raw bytes: its header line, then the IR body its
/// `ir_len=` announces. `None` when the daemon has closed the connection.
fn raw_reply(r: &mut BufReader<TcpStream>) -> Option<Vec<u8>> {
    let mut bytes = Vec::new();
    r.read_until(b'\n', &mut bytes).expect("read a reply");
    if bytes.is_empty() {
        return None;
    }
    assert!(
        bytes.ends_with(b"\n"),
        "{:?}",
        String::from_utf8_lossy(&bytes)
    );
    let line = String::from_utf8_lossy(&bytes).into_owned();
    if let Some(at) = line.find(" ir_len=") {
        let digits = &line[at + 8..line.len() - 1];
        let len: usize = digits.split(' ').next().unwrap().parse().unwrap();
        let start = bytes.len();
        bytes.resize(start + len, 0);
        r.read_exact(&mut bytes[start..])
            .expect("read a reply body");
    }
    Some(bytes)
}

fn raw_connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone the stream"));
    (stream, reader)
}

/// The reply `request` earns on a connection of its own.
fn alone(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let (mut stream, mut r) = raw_connect(addr);
    stream.write_all(request).expect("send");
    raw_reply(&mut r).expect("a reply")
}

#[test]
fn hits_and_refused_frames_on_one_connection_stay_apart() {
    let store = std::env::temp_dir().join(format!(
        "autophase_serve_wire_fuzz_interleaved_{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let cfg = ServerConfig {
        store_path: store.clone(),
        ..ServerConfig::default()
    };
    let server = Server::start_baseline_only(cfg).expect("server starts");
    let addr = server.addr();
    let gsm = autophase_ir::printer::print_module(
        &autophase_benchmarks::suite::by_name("gsm").expect("gsm"),
    );
    let tiny = "; module m\n\n; f0\ndefine i32 @main() {\nb0:\n  ret i32 0\n}\n";
    let compile = |ir: &str, want_ir: bool| {
        let mut bytes = Vec::new();
        write_request(
            &mut bytes,
            &Request::Compile {
                ir: ir.to_string(),
                deadline_ms: Some(60_000),
                want_ir,
            },
        )
        .expect("a Vec takes every write");
        bytes
    };
    let requests: Vec<Vec<u8>> = vec![
        compile(&gsm, false),
        compile(tiny, false),
        compile(&gsm, true),
        compile(tiny, true),
        // Refused, and the connection kept: bodies shorter, longer and
        // as long as a hit's, one of them a prefix of a hit's text.
        compile("", false),
        compile("define", false),
        compile(&gsm[..gsm.len() / 2], false),
        compile(&gsm.replacen("define", "defin3", 1), false),
        compile(&format!("{tiny}{tiny}"), false),
        b"AUTOPHASE/1 CHAOS n=1\n".to_vec(),
        b"AUTOPHASE/1 PROMOTE v=1\n".to_vec(),
        b"AUTOPHASE/1 PING\n".to_vec(),
    ];
    // The programs go into the store first, so every later reply is fixed.
    for ir in [&gsm[..], tiny] {
        let cold = alone(addr, &compile(ir, false));
        assert!(cold.starts_with(b"AUTOPHASE/1 OK source=baseline "));
    }
    let expected: Vec<Vec<u8>> = requests.iter().map(|req| alone(addr, req)).collect();
    for reply in &expected[..4] {
        let shown = String::from_utf8_lossy(&reply[..40]);
        assert!(
            reply.starts_with(b"AUTOPHASE/1 OK source=store "),
            "{shown}"
        );
    }
    for reply in &expected[4..9] {
        let shown = String::from_utf8_lossy(reply);
        assert!(reply.starts_with(b"AUTOPHASE/1 ERR kind=parse "), "{shown}");
    }

    let (mut stream, mut r) = raw_connect(addr);
    let mut rng = TestRng::for_case("wire_fuzz::interleaved", 0);
    for step in 0..300 {
        let pick = (0..requests.len()).generate(&mut rng);
        stream.write_all(&requests[pick]).expect("send");
        let got = raw_reply(&mut r).expect("the connection stays open");
        assert!(
            got == expected[pick],
            "step {step}, request {pick}: got {:?}",
            String::from_utf8_lossy(&got[..got.len().min(200)])
        );
    }
    // A body that is not UTF-8 is refused as a malformed request, and the
    // daemon hangs up.
    stream
        .write_all(b"AUTOPHASE/1 COMPILE ir_len=2\n\xff\xfe")
        .expect("send");
    let refusal = raw_reply(&mut r).expect("a refusal");
    assert_eq!(
        String::from_utf8_lossy(&refusal),
        "AUTOPHASE/1 ERR kind=bad_request msg=body is not UTF-8\n"
    );
    assert_eq!(raw_reply(&mut r), None, "the daemon hangs up");

    server.shutdown();
    for suffix in ["", ".snap", ".ir"] {
        let _ = std::fs::remove_file(format!("{}{suffix}", store.display()));
    }
}
