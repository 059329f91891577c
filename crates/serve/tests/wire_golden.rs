//! The wire format, byte for byte: what `write_request`, `write_compile`
//! and `write_reply` emit for every `Request` and `Reply` variant, what
//! `read_request` and `read_reply` decode those bytes (and a few
//! hand-written headers) to, and the exact text of every refusal a
//! malformed message earns. The daemon quotes that text in its
//! `ERR kind=bad_request` reply, so it is wire bytes too.

use autophase_serve::protocol::{
    read_reply, read_request, write_compile, write_reply, write_request, ErrKind, Reply, Request,
    Source, MAX_HEADER_LEN, MAX_IR_LEN,
};
use std::io::{self, BufReader};

fn request_bytes(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    write_request(&mut buf, req).unwrap();
    buf
}

fn reply_bytes(reply: &Reply) -> Vec<u8> {
    let mut buf = Vec::new();
    write_reply(&mut buf, reply).unwrap();
    buf
}

/// Decode every request in `bytes`, then expect a clean EOF.
fn decode_requests(bytes: &[u8]) -> Vec<Request> {
    let mut r = BufReader::new(bytes);
    let mut out = Vec::new();
    while let Some(req) = read_request(&mut r).unwrap() {
        out.push(req);
    }
    out
}

fn decode_reply(bytes: &[u8]) -> Reply {
    let mut r = BufReader::new(bytes);
    let reply = read_reply(&mut r).unwrap();
    let mut rest = Vec::new();
    io::Read::read_to_end(&mut r, &mut rest).unwrap();
    assert!(rest.is_empty(), "bytes left after the reply: {rest:?}");
    reply
}

fn request_error(bytes: &[u8]) -> (io::ErrorKind, String) {
    let err = read_request(&mut BufReader::new(bytes)).unwrap_err();
    (err.kind(), err.to_string())
}

fn reply_error(bytes: &[u8]) -> (io::ErrorKind, String) {
    let err = read_reply(&mut BufReader::new(bytes)).unwrap_err();
    (err.kind(), err.to_string())
}

const IR: &str = "; module m\n\n; f0\ndefine i32 @main() {\nb0:\n  ret i32 0\n}\n";

#[test]
fn every_request_variant_has_its_bytes() {
    let cases: Vec<(Request, String)> = vec![
        (
            Request::Compile {
                ir: IR.into(),
                deadline_ms: Some(250),
                want_ir: true,
            },
            format!("AUTOPHASE/1 COMPILE ir_len=56 deadline_ms=250 want_ir=1\n{IR}"),
        ),
        (
            Request::Compile {
                ir: IR.into(),
                deadline_ms: None,
                want_ir: false,
            },
            format!("AUTOPHASE/1 COMPILE ir_len=56\n{IR}"),
        ),
        (
            Request::Compile {
                ir: String::new(),
                deadline_ms: Some(u64::MAX),
                want_ir: false,
            },
            "AUTOPHASE/1 COMPILE ir_len=0 deadline_ms=18446744073709551615\n".into(),
        ),
        (Request::Ping, "AUTOPHASE/1 PING\n".into()),
        (
            Request::Chaos {
                faults: 7,
                crashes: 0,
                swaps: 0,
            },
            "AUTOPHASE/1 CHAOS n=7\n".into(),
        ),
        (
            Request::Chaos {
                faults: 0,
                crashes: 3,
                swaps: 0,
            },
            "AUTOPHASE/1 CHAOS n=0 crash=3\n".into(),
        ),
        (
            Request::Chaos {
                faults: 1,
                crashes: 2,
                swaps: u32::MAX,
            },
            "AUTOPHASE/1 CHAOS n=1 crash=2 swap=4294967295\n".into(),
        ),
        (Request::Shutdown, "AUTOPHASE/1 SHUTDOWN\n".into()),
        (Request::Stats, "AUTOPHASE/1 STATS\n".into()),
        (Request::Trace { n: 32 }, "AUTOPHASE/1 TRACE n=32\n".into()),
        (Request::Model, "AUTOPHASE/1 MODEL\n".into()),
        (
            Request::Promote { version: 4 },
            "AUTOPHASE/1 PROMOTE v=4\n".into(),
        ),
    ];
    let mut stream = Vec::new();
    for (req, want) in &cases {
        let got = request_bytes(req);
        assert_eq!(String::from_utf8_lossy(&got), *want, "{req:?}");
        assert_eq!(decode_requests(&got), vec![req.clone()], "{want:?}");
        stream.extend_from_slice(&got);
    }
    // One connection carries them back to back; each decodes whole.
    let all: Vec<Request> = cases.into_iter().map(|(req, _)| req).collect();
    assert_eq!(decode_requests(&stream), all);
}

#[test]
fn write_compile_is_write_request_without_the_request() {
    for (deadline_ms, want_ir) in [(None, false), (Some(0), true), (Some(60_000), false)] {
        for ir in ["", IR] {
            let mut borrowed = Vec::new();
            write_compile(&mut borrowed, ir, deadline_ms, want_ir).unwrap();
            let owned = request_bytes(&Request::Compile {
                ir: ir.into(),
                deadline_ms,
                want_ir,
            });
            assert_eq!(borrowed, owned);
        }
    }
    let mut buf = Vec::new();
    write_compile(&mut buf, "abc", Some(9), true).unwrap();
    assert_eq!(
        buf,
        b"AUTOPHASE/1 COMPILE ir_len=3 deadline_ms=9 want_ir=1\nabc"
    );
}

#[test]
fn hand_written_request_headers_decode_as_pinned() {
    let cases: Vec<(&[u8], Request)> = vec![
        (b"AUTOPHASE/1  PING\r\n", Request::Ping),
        (b"AUTOPHASE/1PING\n", Request::Ping),
        (b"AUTOPHASE/1 PING\r\r\n", Request::Ping),
        (b"AUTOPHASE/1 PING x=1 y=2\n", Request::Ping),
        (b"AUTOPHASE/1 PING msg=a b = c\n", Request::Ping),
        (b"AUTOPHASE/1 SHUTDOWN", Request::Shutdown),
        (
            b"AUTOPHASE/1 COMPILE want_ir=1 ir_len=3 ir_len=5\nabc",
            Request::Compile {
                ir: "abc".into(),
                deadline_ms: None,
                want_ir: true,
            },
        ),
        (
            b"AUTOPHASE/1 COMPILE ir_len=3 want_ir=2 deadline_ms=0\nabc",
            Request::Compile {
                ir: "abc".into(),
                deadline_ms: Some(0),
                want_ir: false,
            },
        ),
        (
            b"AUTOPHASE/1 COMPILE ir_len=2 msg=ir_len=9\nab",
            Request::Compile {
                ir: "ab".into(),
                deadline_ms: None,
                want_ir: false,
            },
        ),
        (
            b"AUTOPHASE/1 CHAOS n=99999999999 crash=1\n",
            Request::Chaos {
                faults: u32::MAX,
                crashes: 1,
                swaps: 0,
            },
        ),
        (b"AUTOPHASE/1 TRACE n=0\n", Request::Trace { n: 0 }),
        (
            b"AUTOPHASE/1 PROMOTE v=18446744073709551615\n",
            Request::Promote { version: u64::MAX },
        ),
    ];
    for (bytes, want) in cases {
        let shown = String::from_utf8_lossy(bytes);
        assert_eq!(decode_requests(bytes), vec![want], "{shown:?}");
    }
}

#[test]
fn malformed_requests_are_refused_with_pinned_text() {
    use io::ErrorKind::{InvalidData, UnexpectedEof};
    let long_line = {
        let mut line = b"AUTOPHASE/1 PING x=".to_vec();
        line.resize(MAX_HEADER_LEN + 10, b'a');
        line
    };
    let cases: Vec<(Vec<u8>, io::ErrorKind, &str)> = vec![
        (
            b"HTTP/1.1 GET /\n".to_vec(),
            InvalidData,
            "protocol error: bad protocol tag in \"HTTP/1.1 GET /\"",
        ),
        (
            b"AUTOPHASE/1\n".to_vec(),
            InvalidData,
            "protocol error: missing verb",
        ),
        (
            b"AUTOPHASE/1 \r\n".to_vec(),
            InvalidData,
            "protocol error: missing verb",
        ),
        (
            b"AUTOPHASE/1 PING trailing\n".to_vec(),
            InvalidData,
            "protocol error: bare token \"trailing\"",
        ),
        (
            b"AUTOPHASE/1 PING a=1 b\n".to_vec(),
            InvalidData,
            "protocol error: bare token \"b\"",
        ),
        (
            b"AUTOPHASE/1 NOSUCHVERB a=b\n".to_vec(),
            InvalidData,
            "protocol error: unknown verb \"NOSUCHVERB\"",
        ),
        (
            b"AUTOPHASE/1 COMPILE\n".to_vec(),
            InvalidData,
            "protocol error: COMPILE without ir_len",
        ),
        (
            b"AUTOPHASE/1 COMPILE ir_len=notanumber\n".to_vec(),
            InvalidData,
            "protocol error: bad ir_len=\"notanumber\"",
        ),
        (
            b"AUTOPHASE/1 COMPILE ir_len=-1\n".to_vec(),
            InvalidData,
            "protocol error: bad ir_len=\"-1\"",
        ),
        (
            b"AUTOPHASE/1 COMPILE ir_len=99999999999\n".to_vec(),
            InvalidData,
            "protocol error: ir_len 99999999999 exceeds cap 4194304",
        ),
        (
            b"AUTOPHASE/1 COMPILE ir_len=3 deadline_ms=soon\nabc".to_vec(),
            InvalidData,
            "protocol error: bad deadline_ms=\"soon\"",
        ),
        (
            b"AUTOPHASE/1 COMPILE ir_len=100\nshort".to_vec(),
            UnexpectedEof,
            "body shorter than its announced length",
        ),
        (
            b"AUTOPHASE/1 COMPILE ir_len=2\n\xff\xfe".to_vec(),
            InvalidData,
            "body is not UTF-8",
        ),
        (
            b"AUTOPHASE/1 PI\xffNG\n".to_vec(),
            InvalidData,
            "stream did not contain valid UTF-8",
        ),
        (
            b"AUTOPHASE/1 CHAOS\n".to_vec(),
            InvalidData,
            "protocol error: CHAOS without n",
        ),
        (
            b"AUTOPHASE/1 CHAOS n=1 swap=notanumber\n".to_vec(),
            InvalidData,
            "protocol error: bad swap=\"notanumber\"",
        ),
        (
            b"AUTOPHASE/1 TRACE\n".to_vec(),
            InvalidData,
            "protocol error: TRACE without n",
        ),
        (
            b"AUTOPHASE/1 PROMOTE\n".to_vec(),
            InvalidData,
            "protocol error: PROMOTE without v",
        ),
        (
            b"AUTOPHASE/1 PROMOTE v=2 ab=1\n".to_vec(),
            InvalidData,
            "protocol error: PROMOTE ab= is not supported: the daemon serves one policy",
        ),
        (
            long_line,
            InvalidData,
            "protocol error: header line exceeds 8192 bytes",
        ),
    ];
    for (bytes, kind, text) in cases {
        let shown = String::from_utf8_lossy(&bytes).into_owned();
        assert_eq!(request_error(&bytes), (kind, text.to_string()), "{shown:?}");
    }
}

#[test]
fn every_reply_variant_has_its_bytes() {
    let out = "define i32 @main() {\n}\n";
    let cases: Vec<(Reply, String, Reply)> = vec![
        (
            Reply::Compiled {
                source: Source::Policy,
                cycles: 913,
                baseline_cycles: 1310,
                passes: vec![31, 38, 30],
                ir: Some(out.into()),
            },
            format!(
                "AUTOPHASE/1 OK source=policy cycles=913 baseline_cycles=1310 passes=31,38,30 \
                 ir_len=23\n{out}"
            ),
            Reply::Compiled {
                source: Source::Policy,
                cycles: 913,
                baseline_cycles: 1310,
                passes: vec![31, 38, 30],
                ir: Some(out.into()),
            },
        ),
        (
            Reply::Compiled {
                source: Source::Store,
                cycles: 1,
                baseline_cycles: 0,
                passes: vec![],
                ir: None,
            },
            "AUTOPHASE/1 OK source=store cycles=1 baseline_cycles=0 passes=- ir_len=0\n".into(),
            Reply::Compiled {
                source: Source::Store,
                cycles: 1,
                baseline_cycles: 0,
                passes: vec![],
                ir: None,
            },
        ),
        (
            Reply::Compiled {
                source: Source::Baseline,
                cycles: u64::MAX,
                baseline_cycles: u64::MAX,
                passes: vec![0, 44, 1000],
                ir: None,
            },
            "AUTOPHASE/1 OK source=baseline cycles=18446744073709551615 \
             baseline_cycles=18446744073709551615 passes=0,44,1000 ir_len=0\n"
                .into(),
            Reply::Compiled {
                source: Source::Baseline,
                cycles: u64::MAX,
                baseline_cycles: u64::MAX,
                passes: vec![0, 44, 1000],
                ir: None,
            },
        ),
        // An empty IR body is no body: it decodes as `None`.
        (
            Reply::Compiled {
                source: Source::Store,
                cycles: 5,
                baseline_cycles: 9,
                passes: vec![7],
                ir: Some(String::new()),
            },
            "AUTOPHASE/1 OK source=store cycles=5 baseline_cycles=9 passes=7 ir_len=0\n".into(),
            Reply::Compiled {
                source: Source::Store,
                cycles: 5,
                baseline_cycles: 9,
                passes: vec![7],
                ir: None,
            },
        ),
        (Reply::Ack, "AUTOPHASE/1 OK ack=1\n".into(), Reply::Ack),
        (
            Reply::Stats {
                body: "{\"type\":\"counter\",\"name\":\"serve.req\",\"value\":3}\n".into(),
            },
            "AUTOPHASE/1 OK stats_len=48\n{\"type\":\"counter\",\"name\":\"serve.req\",\"value\":3}\n"
                .into(),
            Reply::Stats {
                body: "{\"type\":\"counter\",\"name\":\"serve.req\",\"value\":3}\n".into(),
            },
        ),
        (
            Reply::Traces {
                body: "{\"id\":1}\n{\"id\":0}\n".into(),
            },
            "AUTOPHASE/1 OK traces_len=18\n{\"id\":1}\n{\"id\":0}\n".into(),
            Reply::Traces {
                body: "{\"id\":1}\n{\"id\":0}\n".into(),
            },
        ),
        (
            Reply::Traces {
                body: String::new(),
            },
            "AUTOPHASE/1 OK traces_len=0\n".into(),
            Reply::Traces {
                body: String::new(),
            },
        ),
        (
            Reply::Models {
                body: "{\"type\":\"model\",\"version\":1,\"active\":true}\n".into(),
            },
            "AUTOPHASE/1 OK models_len=43\n{\"type\":\"model\",\"version\":1,\"active\":true}\n"
                .into(),
            Reply::Models {
                body: "{\"type\":\"model\",\"version\":1,\"active\":true}\n".into(),
            },
        ),
        (
            Reply::Err {
                kind: ErrKind::Overloaded,
                retry_ms: None,
                msg: "queue full (cap 64)".into(),
            },
            "AUTOPHASE/1 ERR kind=overloaded msg=queue full (cap 64)\n".into(),
            Reply::Err {
                kind: ErrKind::Overloaded,
                retry_ms: None,
                msg: "queue full (cap 64)".into(),
            },
        ),
        (
            Reply::Err {
                kind: ErrKind::Deadline,
                retry_ms: Some(50),
                msg: "deadline expired while queued".into(),
            },
            "AUTOPHASE/1 ERR kind=deadline retry_ms=50 msg=deadline expired while queued\n".into(),
            Reply::Err {
                kind: ErrKind::Deadline,
                retry_ms: Some(50),
                msg: "deadline expired while queued".into(),
            },
        ),
        (
            Reply::Err {
                kind: ErrKind::Parse,
                retry_ms: Some(u64::MAX),
                msg: String::new(),
            },
            "AUTOPHASE/1 ERR kind=parse retry_ms=18446744073709551615 msg=\n".into(),
            Reply::Err {
                kind: ErrKind::Parse,
                retry_ms: Some(u64::MAX),
                msg: String::new(),
            },
        ),
        // Newlines in a message become spaces: the header stays one line.
        (
            Reply::Err {
                kind: ErrKind::Internal,
                retry_ms: None,
                msg: "a b\nc\r\nd=e\r".into(),
            },
            "AUTOPHASE/1 ERR kind=internal msg=a b c  d=e \n".into(),
            Reply::Err {
                kind: ErrKind::Internal,
                retry_ms: None,
                msg: "a b c  d=e ".into(),
            },
        ),
        (
            Reply::Err {
                kind: ErrKind::BadRequest,
                retry_ms: None,
                msg: "protocol error: bare token \"x\"".into(),
            },
            "AUTOPHASE/1 ERR kind=bad_request msg=protocol error: bare token \"x\"\n".into(),
            Reply::Err {
                kind: ErrKind::BadRequest,
                retry_ms: None,
                msg: "protocol error: bare token \"x\"".into(),
            },
        ),
    ];
    for (reply, want, decoded) in cases {
        let got = reply_bytes(&reply);
        assert_eq!(String::from_utf8_lossy(&got), want, "{reply:?}");
        assert_eq!(decode_reply(&got), decoded, "{want:?}");
    }
}

#[test]
fn an_err_message_is_cut_at_the_header_cap() {
    // 2-byte characters: the cut lands on a character boundary at or
    // below MAX_HEADER_LEN - 128 bytes of message.
    let msg = "é".repeat(MAX_HEADER_LEN);
    let got = reply_bytes(&Reply::Err {
        kind: ErrKind::BadRequest,
        retry_ms: Some(u64::MAX),
        msg: msg.clone(),
    });
    let kept = "é".repeat((MAX_HEADER_LEN - 128) / 2);
    let want =
        format!("AUTOPHASE/1 ERR kind=bad_request retry_ms=18446744073709551615 msg={kept}\n");
    assert_eq!(String::from_utf8_lossy(&got), want);
    assert!(got.len() <= MAX_HEADER_LEN);
    assert_eq!(
        decode_reply(&got),
        Reply::Err {
            kind: ErrKind::BadRequest,
            retry_ms: Some(u64::MAX),
            msg: kept,
        }
    );

    // One odd ASCII byte first: the cut falls inside a character and
    // backs off to the boundary below it.
    let msg = format!("x{}", "é".repeat(MAX_HEADER_LEN));
    let got = reply_bytes(&Reply::Err {
        kind: ErrKind::Internal,
        retry_ms: None,
        msg,
    });
    let kept = format!("x{}", "é".repeat((MAX_HEADER_LEN - 128) / 2 - 1));
    assert_eq!(
        String::from_utf8_lossy(&got),
        format!("AUTOPHASE/1 ERR kind=internal msg={kept}\n")
    );
}

#[test]
fn a_jsonl_body_over_the_cap_is_cut_to_whole_lines() {
    let line = format!("{{\"pad\":\"{}\"}}\n", "p".repeat(1000));
    let lines = MAX_IR_LEN / line.len() + 3;
    let body = line.repeat(lines);
    let kept = MAX_IR_LEN / line.len() * line.len();
    for (reply, key) in [
        (Reply::Stats { body: body.clone() }, "stats_len"),
        (Reply::Traces { body: body.clone() }, "traces_len"),
        (Reply::Models { body: body.clone() }, "models_len"),
    ] {
        let got = reply_bytes(&reply);
        let header = format!("AUTOPHASE/1 OK {key}={kept}\n");
        assert_eq!(&got[..header.len()], header.as_bytes());
        assert_eq!(&got[header.len()..], &body.as_bytes()[..kept]);
        let body = body[..kept].to_string();
        let want = match reply {
            Reply::Stats { .. } => Reply::Stats { body },
            Reply::Traces { .. } => Reply::Traces { body },
            _ => Reply::Models { body },
        };
        assert_eq!(decode_reply(&got), want);
    }
    // A single line over the cap leaves nothing to send.
    let got = reply_bytes(&Reply::Stats {
        body: "s".repeat(MAX_IR_LEN + 1),
    });
    assert_eq!(got, b"AUTOPHASE/1 OK stats_len=0\n");
}

#[test]
fn hand_written_reply_headers_decode_as_pinned() {
    let cases: Vec<(&[u8], Reply)> = vec![
        (
            b"AUTOPHASE/1 OK source=store cycles=1 baseline_cycles=2 passes=- extra=x\n",
            Reply::Compiled {
                source: Source::Store,
                cycles: 1,
                baseline_cycles: 2,
                passes: vec![],
                ir: None,
            },
        ),
        (
            b"AUTOPHASE/1 OK passes=3,1 ir_len=2 baseline_cycles=2 cycles=1 source=policy\nab",
            Reply::Compiled {
                source: Source::Policy,
                cycles: 1,
                baseline_cycles: 2,
                passes: vec![3, 1],
                ir: Some("ab".into()),
            },
        ),
        (b"AUTOPHASE/1 OK\n", Reply::Ack),
        (b"AUTOPHASE/1 OK ack=0 x=y\r\n", Reply::Ack),
        (
            b"AUTOPHASE/1 OK models_len=0 stats_len=2\n{}",
            Reply::Stats { body: "{}".into() },
        ),
        (
            b"AUTOPHASE/1 ERR kind=deadline msg=try retry_ms=10 later\n",
            Reply::Err {
                kind: ErrKind::Deadline,
                retry_ms: None,
                msg: "try retry_ms=10 later".into(),
            },
        ),
        (
            b"AUTOPHASE/1 ERR kind=parse\n",
            Reply::Err {
                kind: ErrKind::Parse,
                retry_ms: None,
                msg: String::new(),
            },
        ),
    ];
    for (bytes, want) in cases {
        let shown = String::from_utf8_lossy(bytes);
        assert_eq!(decode_reply(bytes), want, "{shown:?}");
    }
}

#[test]
fn malformed_replies_are_refused_with_pinned_text() {
    use io::ErrorKind::{InvalidData, UnexpectedEof};
    let cases: Vec<(&[u8], io::ErrorKind, &str)> = vec![
        (b"", UnexpectedEof, "connection closed before reply"),
        (
            b"AUTOPHASE/1 MAYBE\n",
            InvalidData,
            "protocol error: unknown reply verb \"MAYBE\"",
        ),
        (
            b"AUTOPHASE/1 OK source=cache cycles=1\n",
            InvalidData,
            "protocol error: bad source \"cache\"",
        ),
        (
            b"AUTOPHASE/1 OK source=store\n",
            InvalidData,
            "protocol error: OK without cycles",
        ),
        (
            b"AUTOPHASE/1 OK source=store cycles=1\n",
            InvalidData,
            "protocol error: OK without baseline_cycles",
        ),
        (
            b"AUTOPHASE/1 OK source=store cycles=1 baseline_cycles=1\n",
            InvalidData,
            "protocol error: OK without passes",
        ),
        (
            b"AUTOPHASE/1 OK source=store cycles=1 baseline_cycles=1 passes=1,,2\n",
            InvalidData,
            "protocol error: bad pass id \"\"",
        ),
        (
            b"AUTOPHASE/1 OK source=store cycles=x baseline_cycles=1 passes=-\n",
            InvalidData,
            "protocol error: bad cycles=\"x\"",
        ),
        (
            b"AUTOPHASE/1 OK source=store cycles=1 baseline_cycles=1 passes=- ir_len=4194305\n",
            InvalidData,
            "protocol error: reply ir_len 4194305 over cap",
        ),
        (
            b"AUTOPHASE/1 OK source=store cycles=1 baseline_cycles=1 passes=- ir_len=5\nab",
            UnexpectedEof,
            "body shorter than its announced length",
        ),
        (
            b"AUTOPHASE/1 OK stats_len=4194305\n",
            InvalidData,
            "protocol error: stats_len 4194305 over cap",
        ),
        (
            b"AUTOPHASE/1 OK traces_len=2\n\xc3(",
            InvalidData,
            "body is not UTF-8",
        ),
        (
            b"AUTOPHASE/1 ERR msg=x\n",
            InvalidData,
            "protocol error: ERR without kind",
        ),
        // `msg` swallows the rest of the line, keys and all.
        (
            b"AUTOPHASE/1 ERR msg=a=b c kind=parse\n",
            InvalidData,
            "protocol error: ERR without kind",
        ),
        (
            b"AUTOPHASE/1 ERR kind=sad msg=x\n",
            InvalidData,
            "protocol error: bad kind \"sad\"",
        ),
        (
            b"AUTOPHASE/1 ERR kind=deadline retry_ms=1.5 msg=x\n",
            InvalidData,
            "protocol error: bad retry_ms=\"1.5\"",
        ),
    ];
    for (bytes, kind, text) in cases {
        let shown = String::from_utf8_lossy(bytes);
        assert_eq!(reply_error(bytes), (kind, text.to_string()), "{shown:?}");
    }
}
