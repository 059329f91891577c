//! A numbers-only store hit allocates nothing once the daemon is warm.
//!
//! A counting global allocator sees the whole process: the daemon's
//! accept and connection threads, and the client. So the client here is
//! a raw socket that allocates nothing itself — its request bytes are
//! built before the count starts and its replies land in a stack buffer.
//! After one cold request and a warm-up longer than the flight
//! recorder's ring (its slots are allocated on their first lap), the
//! process-wide count must not move across `HITS` more hits on the same
//! connection, with telemetry off. Every reply must be byte for byte the
//! warm-up's.

use autophase_serve::protocol::write_compile;
use autophase_serve::server::{Server, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counts every allocation and reallocation the process makes.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged, so `System`'s guarantees are the caller's; the only
// other effect is a `Relaxed` bump of a statistic that guards no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Hits measured after the warm-up.
const HITS: u64 = 200;

/// Send `request` and read its one-line reply into `buf`; returns the
/// reply's length. A numbers-only reply is a header line and no body.
fn roundtrip(stream: &mut TcpStream, request: &[u8], buf: &mut [u8; 512]) -> usize {
    stream.write_all(request).expect("send");
    let mut len = 0;
    while len == 0 || buf[len - 1] != b'\n' {
        let n = stream.read(&mut buf[len..]).expect("read reply");
        assert!(n > 0, "the daemon hung up");
        len += n;
    }
    len
}

#[test]
fn a_numbers_only_store_hit_allocates_nothing_after_warm_up() {
    let store = std::env::temp_dir().join(format!(
        "autophase_serve_hit_no_alloc_{}.log",
        std::process::id()
    ));
    for suffix in ["", ".snap", ".ir"] {
        let _ = std::fs::remove_file(format!("{}{suffix}", store.display()));
    }
    let cfg = ServerConfig {
        store_path: store.clone(),
        telemetry: false,
        ..ServerConfig::default()
    };
    let warm_up = cfg.flight.capacity + 64;
    let server = Server::start_baseline_only(cfg).expect("server starts");
    let gsm = autophase_benchmarks::suite::by_name("gsm").expect("gsm");
    let ir = autophase_ir::printer::print_module(&gsm);
    let mut request = Vec::new();
    write_compile(&mut request, &ir, Some(60_000), false).unwrap();

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut buf = [0u8; 512];
    let cold = roundtrip(&mut stream, &request, &mut buf);
    assert!(
        buf[..cold].starts_with(b"AUTOPHASE/1 OK source=baseline "),
        "{}",
        String::from_utf8_lossy(&buf[..cold])
    );
    let mut hit = [0u8; 512];
    let hit_len = roundtrip(&mut stream, &request, &mut hit);
    let shown = String::from_utf8_lossy(&hit[..hit_len]).into_owned();
    assert!(shown.starts_with("AUTOPHASE/1 OK source=store "), "{shown}");
    assert!(!shown.contains("passes=- "), "a hit with passes: {shown}");
    for _ in 0..warm_up {
        let len = roundtrip(&mut stream, &request, &mut buf);
        assert_eq!(buf[..len], hit[..hit_len]);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    let mut same = 0;
    for _ in 0..HITS {
        let len = roundtrip(&mut stream, &request, &mut buf);
        same += u64::from(buf[..len] == hit[..hit_len]);
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(same, HITS, "a hit's reply changed");
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations over {HITS} hits ({:.1} per hit)",
        allocs as f64 / HITS as f64
    );

    drop(stream);
    server.shutdown();
    for suffix in ["", ".snap", ".ir"] {
        let _ = std::fs::remove_file(format!("{}{suffix}", store.display()));
    }
}
