//! Wire protocol of the compile service.
//!
//! Text-framed, one request/reply pair at a time per connection
//! (keep-alive: a client may send any number of pairs sequentially).
//! Every message is one header line, `AUTOPHASE/1 <verb> [key=value ...]`,
//! optionally followed by a byte-exact body whose length a header key
//! announces:
//!
//! ```text
//! -> AUTOPHASE/1 COMPILE ir_len=482 deadline_ms=250 want_ir=1\n<482 bytes of IR>
//! <- AUTOPHASE/1 OK source=policy cycles=913 baseline_cycles=1310 passes=31,38,30 ir_len=390\n<390 bytes>
//! <- AUTOPHASE/1 ERR kind=overloaded msg=queue full\n
//! ```
//!
//! The body is the textual IR form produced by `autophase_ir::printer`
//! and accepted by `autophase_ir::parser` — the printer/parser round-trip
//! is lossless, so a module survives the wire bit-identically. `passes`
//! is the effective ordering (Table-1 ids of the passes that changed the
//! module), `-` when empty. `msg` is free text and always the last key.
//!
//! Every malformed header reads as an `InvalidData` error, which the
//! daemon answers with a typed `bad_request` before hanging up. That
//! includes `PROMOTE v=<n> ab=…`: the daemon serves one policy, and a
//! request for a second, A/B-routed policy must not be mistaken for a
//! full promotion.

use autophase_telemetry::Decimal;
use std::io::{self, BufRead, Read, Write};

/// Protocol tag every message starts with.
pub const PROTOCOL: &str = "AUTOPHASE/1";

/// Hard cap on request IR size: a parse-side guard so one hostile
/// request cannot make the daemon buffer arbitrary memory.
pub const MAX_IR_LEN: usize = 4 << 20;

/// Hard cap on a header line, newline included: a peer that never sends
/// `\n` costs the reader this much memory, not whatever it cares to send.
pub const MAX_HEADER_LEN: usize = 8 << 10;

/// How much of a body's announced length is reserved before any of it
/// arrives; a longer body grows as it is read.
const BODY_PREALLOC: usize = 64 << 10;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Compile one module: choose an ordering, predict its cycle count.
    Compile {
        /// Textual IR of the module to optimize.
        ir: String,
        /// Per-request deadline; `None` uses the server default.
        deadline_ms: Option<u64>,
        /// Return the optimized module's IR in the reply body.
        want_ir: bool,
    },
    /// Liveness probe.
    Ping,
    /// Arm injected faults (test/bench only; the server rejects it
    /// unless chaos is enabled in its config).
    Chaos {
        /// How many upcoming policy inferences fault.
        faults: u32,
        /// How many policy forwards panic — exercises the engine's
        /// catch-and-degrade path with a real unwind.
        crashes: u32,
        /// How many upcoming `PROMOTE` candidates get their checkpoint
        /// corrupted on disk first — proves the hot-swap armor
        /// quarantines the candidate and keeps the old policy serving.
        swaps: u32,
    },
    /// Ask the daemon to shut down cleanly.
    Shutdown,
    /// Fetch a telemetry registry snapshot (metrics JSONL body).
    Stats,
    /// Fetch the last `n` completed request traces (trace JSONL body).
    Trace {
        /// How many recent traces to return (server clamps to its ring
        /// capacity).
        n: usize,
    },
    /// List registry versions, the serving version, and the per-version
    /// outcome ledger (models JSONL body).
    Model,
    /// Hot-swap the serving policy to registry version `version`
    /// (admin-gated): the operator's override, armored but not
    /// replay-gated.
    Promote {
        /// Registry version to promote.
        version: u64,
    },
}

/// Where a compile answer came from — the degradation ladder, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Persistent best-ordering store hit (no inference, no profiling).
    Store,
    /// Fresh policy rollout.
    Policy,
    /// Fixed -O3-equivalent fallback (policy path faulted).
    Baseline,
}

impl Source {
    /// Wire name of this source (also the trace-outcome suffix:
    /// `ok:store`, `ok:policy`, `ok:baseline`).
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Store => "store",
            Source::Policy => "policy",
            Source::Baseline => "baseline",
        }
    }

    fn parse(s: &str) -> Option<Source> {
        match s {
            "store" => Some(Source::Store),
            "policy" => Some(Source::Policy),
            "baseline" => Some(Source::Baseline),
            _ => None,
        }
    }
}

/// Typed failure classes a request can be refused with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrKind {
    /// Admission queue full: shed instead of queueing unboundedly.
    Overloaded,
    /// The request's deadline expired before an answer was ready.
    Deadline,
    /// The IR did not parse or verify.
    Parse,
    /// The header line was malformed (or chaos without chaos enabled).
    BadRequest,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrKind {
    /// Wire name of this refusal kind (also the trace-outcome suffix:
    /// `refused:deadline`, `refused:overloaded`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrKind::Overloaded => "overloaded",
            ErrKind::Deadline => "deadline",
            ErrKind::Parse => "parse",
            ErrKind::BadRequest => "bad_request",
            ErrKind::Internal => "internal",
        }
    }

    fn parse(s: &str) -> Option<ErrKind> {
        match s {
            "overloaded" => Some(ErrKind::Overloaded),
            "deadline" => Some(ErrKind::Deadline),
            "parse" => Some(ErrKind::Parse),
            "bad_request" => Some(ErrKind::BadRequest),
            "internal" => Some(ErrKind::Internal),
            _ => None,
        }
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A compile answer.
    Compiled {
        /// Which rung of the degradation ladder answered.
        source: Source,
        /// Predicted cycle count of the optimized module.
        cycles: u64,
        /// Cycle count of the unoptimized input (for speedup math).
        baseline_cycles: u64,
        /// The effective pass ordering (changing passes, Table-1 ids).
        passes: Vec<usize>,
        /// Optimized IR when the request asked for it.
        ir: Option<String>,
    },
    /// Acknowledgement for `Ping`/`Chaos`/`Shutdown`.
    Ack,
    /// Registry snapshot: metrics JSONL, one instrument per line.
    Stats {
        /// The metrics JSONL body.
        body: String,
    },
    /// Recent request traces: trace JSONL, newest first.
    Traces {
        /// The trace JSONL body.
        body: String,
    },
    /// Model listing: models JSONL, one version per line plus a summary
    /// line (see `stats::ModelsSnapshot`).
    Models {
        /// The models JSONL body.
        body: String,
    },
    /// Typed refusal.
    Err {
        /// Failure class.
        kind: ErrKind,
        /// Server-chosen backoff hint: retrying sooner than this many
        /// milliseconds is unlikely to succeed. Sent with `overloaded`
        /// and `deadline` refusals; clients honor it in their retry
        /// policy.
        retry_ms: Option<u64>,
        /// Human-readable detail.
        msg: String,
    },
}

/// A typed refusal.
pub(crate) fn refuse(kind: ErrKind, retry_ms: Option<u64>, msg: impl Into<String>) -> Reply {
    Reply::Err {
        kind,
        retry_ms,
        msg: msg.into(),
    }
}

/// Wire-format violation while reading a message.
#[derive(Debug)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

impl From<ProtocolError> for io::Error {
    fn from(e: ProtocolError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// A header line, read in place: its verb and the `key=value` pairs
/// after it. [`Header::parse`] checks every pair once; [`Header::get`]
/// walks them again for the key it wants.
struct Header<'a> {
    verb: &'a str,
    tail: &'a str,
}

/// The `key=value` pairs of a header's tail, in order. `msg` swallows the
/// rest of the line (it may contain spaces); every other value ends at
/// the next space.
struct Fields<'a>(&'a str);

impl<'a> Iterator for Fields<'a> {
    type Item = Result<(&'a str, &'a str), ProtocolError>;

    fn next(&mut self) -> Option<Self::Item> {
        let tail = std::mem::take(&mut self.0);
        if tail.is_empty() {
            return None;
        }
        let Some((k, after_k)) = tail.split_once('=') else {
            return Some(Err(ProtocolError(format!("bare token {tail:?}"))));
        };
        if k == "msg" {
            return Some(Ok((k, after_k)));
        }
        let (v, next) = after_k.split_once(' ').unwrap_or((after_k, ""));
        self.0 = next;
        Some(Ok((k, v)))
    }
}

impl<'a> Header<'a> {
    fn parse(line: &'a str) -> Result<Header<'a>, ProtocolError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let rest = line
            .strip_prefix(PROTOCOL)
            .ok_or_else(|| ProtocolError(format!("bad protocol tag in {line:?}")))?;
        let rest = rest.trim_start();
        let (verb, tail) = rest.split_once(' ').unwrap_or((rest, ""));
        if verb.is_empty() {
            return Err(ProtocolError("missing verb".into()));
        }
        for field in Fields(tail) {
            field?;
        }
        Ok(Header { verb, tail })
    }

    /// The value of the first pair named `key`.
    fn get(&self, key: &str) -> Option<&'a str> {
        Fields(self.tail)
            .flatten()
            .find(|&(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn get_u64(&self, key: &str) -> Result<Option<u64>, ProtocolError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| ProtocolError(format!("bad {key}={v:?}"))),
        }
    }
}

/// Read one header line into `line` (cleared first), at most
/// [`MAX_HEADER_LEN`] bytes of it. Returns the byte count; 0 is EOF.
fn read_header<R: BufRead>(r: &mut R, line: &mut String) -> io::Result<usize> {
    line.clear();
    let n = r.take(MAX_HEADER_LEN as u64).read_line(line)?;
    if n == MAX_HEADER_LEN && !line.ends_with('\n') {
        return Err(ProtocolError(format!("header line exceeds {MAX_HEADER_LEN} bytes")).into());
    }
    Ok(n)
}

/// Read a `len`-byte body into `buf` (cleared first). At most
/// [`BODY_PREALLOC`] bytes are reserved before any arrive.
fn read_body_into<R: BufRead>(r: &mut R, len: usize, buf: &mut Vec<u8>) -> io::Result<()> {
    buf.clear();
    buf.reserve(len.min(BODY_PREALLOC));
    if r.take(len as u64).read_to_end(buf)? < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "body shorter than its announced length",
        ));
    }
    Ok(())
}

fn not_utf8() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8")
}

fn read_body<R: BufRead>(r: &mut R, len: usize) -> io::Result<String> {
    let mut buf = Vec::new();
    read_body_into(r, len, &mut buf)?;
    String::from_utf8(buf).map_err(|_| not_utf8())
}

/// Write `n` in decimal, formatted on the stack.
fn put<W: Write>(w: &mut W, n: u64) -> io::Result<()> {
    w.write_all(Decimal::new(n).as_bytes())
}

/// Write `AUTOPHASE/1 <rest>`: the tag and a space, then `rest`.
fn put_head<W: Write>(w: &mut W, rest: &str) -> io::Result<()> {
    w.write_all(PROTOCOL.as_bytes())?;
    w.write_all(b" ")?;
    w.write_all(rest.as_bytes())
}

/// Write a JSONL-body reply (`STATS`, `TRACE`, `MODEL`): `OK <key>=N\n`,
/// then the N body bytes — at most [`MAX_IR_LEN`] of them, the body cut
/// at a line boundary so it stays whole JSONL lines the reader accepts.
fn write_jsonl<W: Write>(w: &mut W, key: &str, body: &str) -> io::Result<()> {
    let body = body.as_bytes();
    let mut len = body.len();
    if len > MAX_IR_LEN {
        len = body[..MAX_IR_LEN]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
    }
    put_head(w, "OK ")?;
    w.write_all(key.as_bytes())?;
    w.write_all(b"=")?;
    put(w, len as u64)?;
    w.write_all(b"\n")?;
    w.write_all(&body[..len])
}

/// Read the body [`write_jsonl`] framed under `key`; `None` when the
/// header does not carry `key`.
fn read_jsonl<R: BufRead>(r: &mut R, header: &Header<'_>, key: &str) -> io::Result<Option<String>> {
    let Some(len) = header.get_u64(key)? else {
        return Ok(None);
    };
    let len = len as usize;
    if len > MAX_IR_LEN {
        return Err(ProtocolError(format!("{key} {len} over cap")).into());
    }
    read_body(r, len).map(Some)
}

/// Serialize a request onto `w` (header line + body). The line leaves in
/// pieces: give it a buffered writer.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> io::Result<()> {
    match *req {
        Request::Compile {
            ref ir,
            deadline_ms,
            want_ir,
        } => return write_compile(w, ir, deadline_ms, want_ir),
        Request::Ping => put_head(w, "PING\n")?,
        Request::Chaos {
            faults,
            crashes,
            swaps,
        } => {
            put_head(w, "CHAOS n=")?;
            put(w, faults.into())?;
            if crashes > 0 {
                w.write_all(b" crash=")?;
                put(w, crashes.into())?;
            }
            if swaps > 0 {
                w.write_all(b" swap=")?;
                put(w, swaps.into())?;
            }
            w.write_all(b"\n")?;
        }
        Request::Shutdown => put_head(w, "SHUTDOWN\n")?,
        Request::Stats => put_head(w, "STATS\n")?,
        Request::Trace { n } => {
            put_head(w, "TRACE n=")?;
            put(w, n as u64)?;
            w.write_all(b"\n")?;
        }
        Request::Model => put_head(w, "MODEL\n")?,
        Request::Promote { version } => {
            put_head(w, "PROMOTE v=")?;
            put(w, version)?;
            w.write_all(b"\n")?;
        }
    }
    w.flush()
}

/// Serialize a `COMPILE` request from borrowed IR — what
/// [`write_request`] emits for [`Request::Compile`], without building one.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_compile<W: Write>(
    w: &mut W,
    ir: &str,
    deadline_ms: Option<u64>,
    want_ir: bool,
) -> io::Result<()> {
    put_head(w, "COMPILE ir_len=")?;
    put(w, ir.len() as u64)?;
    if let Some(d) = deadline_ms {
        w.write_all(b" deadline_ms=")?;
        put(w, d)?;
    }
    if want_ir {
        w.write_all(b" want_ir=1")?;
    }
    w.write_all(b"\n")?;
    w.write_all(ir.as_bytes())?;
    w.flush()
}

/// A request as its header announced it: a `COMPILE`'s body is still
/// unread.
enum Frame {
    Compile {
        ir_len: usize,
        deadline_ms: Option<u64>,
        want_ir: bool,
    },
    Verb(Request),
}

/// Read one request header into `line` and decode it. `Ok(None)` on clean
/// EOF before any bytes.
fn read_frame<R: BufRead>(r: &mut R, line: &mut String) -> io::Result<Option<Frame>> {
    if read_header(r, line)? == 0 {
        return Ok(None);
    }
    let header = Header::parse(line)?;
    let req = match header.verb {
        "COMPILE" => {
            let ir_len = header
                .get_u64("ir_len")?
                .ok_or_else(|| ProtocolError("COMPILE without ir_len".into()))?
                as usize;
            if ir_len > MAX_IR_LEN {
                return Err(
                    ProtocolError(format!("ir_len {ir_len} exceeds cap {MAX_IR_LEN}")).into(),
                );
            }
            return Ok(Some(Frame::Compile {
                ir_len,
                deadline_ms: header.get_u64("deadline_ms")?,
                want_ir: header.get("want_ir") == Some("1"),
            }));
        }
        "PING" => Request::Ping,
        "CHAOS" => {
            let faults = header
                .get_u64("n")?
                .ok_or_else(|| ProtocolError("CHAOS without n".into()))?;
            let crashes = header.get_u64("crash")?.unwrap_or(0);
            let swaps = header.get_u64("swap")?.unwrap_or(0);
            Request::Chaos {
                faults: faults.min(u32::MAX as u64) as u32,
                crashes: crashes.min(u32::MAX as u64) as u32,
                swaps: swaps.min(u32::MAX as u64) as u32,
            }
        }
        "SHUTDOWN" => Request::Shutdown,
        "STATS" => Request::Stats,
        "TRACE" => {
            let n = header
                .get_u64("n")?
                .ok_or_else(|| ProtocolError("TRACE without n".into()))?;
            Request::Trace {
                n: n.min(usize::MAX as u64) as usize,
            }
        }
        "MODEL" => Request::Model,
        "PROMOTE" => {
            let version = header
                .get_u64("v")?
                .ok_or_else(|| ProtocolError("PROMOTE without v".into()))?;
            // A request for an A/B-routed policy must not be taken as a
            // full promotion of the same version.
            if header.get("ab").is_some() {
                let msg = "PROMOTE ab= is not supported: the daemon serves one policy";
                return Err(ProtocolError(msg.into()).into());
            }
            Request::Promote { version }
        }
        other => return Err(ProtocolError(format!("unknown verb {other:?}")).into()),
    };
    Ok(Some(Frame::Verb(req)))
}

/// Read one request from `r`. `Ok(None)` on clean EOF before any bytes
/// of a message (the client hung up between requests).
///
/// # Errors
///
/// I/O failures, or [`ProtocolError`] (as `InvalidData`) on malformed
/// or over-long headers, oversized `ir_len`, or a body that is not UTF-8.
pub fn read_request<R: BufRead>(r: &mut R) -> io::Result<Option<Request>> {
    Ok(match read_frame(r, &mut String::new())? {
        None => None,
        Some(Frame::Verb(req)) => Some(req),
        Some(Frame::Compile {
            ir_len,
            deadline_ms,
            want_ir,
        }) => Some(Request::Compile {
            ir: read_body(r, ir_len)?,
            deadline_ms,
            want_ir,
        }),
    })
}

/// A request [`RequestBuffers::read`] decoded; a `COMPILE`'s IR is
/// borrowed from the buffers.
pub(crate) enum Incoming<'a> {
    /// Compile `ir` (see [`Request::Compile`]).
    Compile {
        ir: &'a str,
        deadline_ms: Option<u64>,
        want_ir: bool,
    },
    /// Any other verb.
    Verb(Request),
}

/// One connection's decode buffers, kept from request to request, so a
/// `COMPILE` whose body fits the preallocation decodes without
/// allocating once the connection is warm.
#[derive(Default)]
pub(crate) struct RequestBuffers {
    line: String,
    body: Vec<u8>,
}

impl RequestBuffers {
    /// [`read_request`] into these buffers: the same requests, refusals
    /// and EOFs, byte for byte.
    pub(crate) fn read<R: BufRead>(&mut self, r: &mut R) -> io::Result<Option<Incoming<'_>>> {
        // A body larger than the preallocation is not kept for the next
        // request: an idle connection holds at most that much.
        if self.body.capacity() > BODY_PREALLOC {
            self.body = Vec::new();
        }
        Ok(match read_frame(r, &mut self.line)? {
            None => None,
            Some(Frame::Verb(req)) => Some(Incoming::Verb(req)),
            Some(Frame::Compile {
                ir_len,
                deadline_ms,
                want_ir,
            }) => {
                read_body_into(r, ir_len, &mut self.body)?;
                Some(Incoming::Compile {
                    ir: std::str::from_utf8(&self.body).map_err(|_| not_utf8())?,
                    deadline_ms,
                    want_ir,
                })
            }
        })
    }
}

/// Serialize a compile answer onto `w` — what [`write_reply`] emits for
/// [`Reply::Compiled`], from borrowed parts: `passes` may come straight
/// from a stored entry.
///
/// # Errors
///
/// Propagates write failures.
pub(crate) fn write_compiled<W: Write>(
    w: &mut W,
    source: Source,
    cycles: u64,
    baseline_cycles: u64,
    passes: impl IntoIterator<Item = usize>,
    ir: Option<&str>,
) -> io::Result<()> {
    let body = ir.unwrap_or("");
    put_head(w, "OK source=")?;
    w.write_all(source.as_str().as_bytes())?;
    w.write_all(b" cycles=")?;
    put(w, cycles)?;
    w.write_all(b" baseline_cycles=")?;
    put(w, baseline_cycles)?;
    w.write_all(b" passes=")?;
    let mut sep: &[u8] = b"";
    for p in passes {
        w.write_all(sep)?;
        put(w, p as u64)?;
        sep = b",";
    }
    if sep.is_empty() {
        w.write_all(b"-")?;
    }
    w.write_all(b" ir_len=")?;
    put(w, body.len() as u64)?;
    w.write_all(b"\n")?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Serialize a reply onto `w` (header line + optional body). The line
/// leaves in pieces: give it a buffered writer.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_reply<W: Write>(w: &mut W, reply: &Reply) -> io::Result<()> {
    match reply {
        Reply::Compiled {
            source,
            cycles,
            baseline_cycles,
            passes,
            ir,
        } => {
            let passes = passes.iter().copied();
            return write_compiled(w, *source, *cycles, *baseline_cycles, passes, ir.as_deref());
        }
        Reply::Ack => put_head(w, "OK ack=1\n")?,
        Reply::Stats { body } => write_jsonl(w, "stats_len", body)?,
        Reply::Traces { body } => write_jsonl(w, "traces_len", body)?,
        Reply::Models { body } => write_jsonl(w, "models_len", body)?,
        Reply::Err {
            kind,
            retry_ms,
            msg,
        } => {
            // `msg` is always last and the only value allowed spaces; keep
            // it line-shaped so the header stays one line, and short
            // enough (it may quote a hostile request) that the line fits
            // the peer's bounded header read. A newline becomes a space,
            // byte for byte, so the cut lands where it would after.
            let msg = &msg[..msg.floor_char_boundary(MAX_HEADER_LEN - 128)];
            put_head(w, "ERR kind=")?;
            w.write_all(kind.as_str().as_bytes())?;
            if let Some(ms) = retry_ms {
                w.write_all(b" retry_ms=")?;
                put(w, *ms)?;
            }
            w.write_all(b" msg=")?;
            for (i, part) in msg.split(['\n', '\r']).enumerate() {
                if i > 0 {
                    w.write_all(b" ")?;
                }
                w.write_all(part.as_bytes())?;
            }
            w.write_all(b"\n")?;
        }
    }
    w.flush()
}

/// Read one reply from `r`.
///
/// # Errors
///
/// I/O failures, or [`ProtocolError`] (as `InvalidData`) on malformed
/// headers, unexpected EOF, or a body that is not UTF-8.
pub fn read_reply<R: BufRead>(r: &mut R) -> io::Result<Reply> {
    read_reply_with(r, &mut String::new())
}

/// [`read_reply`] with the header read into `line`, a buffer the caller
/// keeps from reply to reply.
pub(crate) fn read_reply_with<R: BufRead>(r: &mut R, line: &mut String) -> io::Result<Reply> {
    if read_header(r, line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before reply",
        ));
    }
    let header = Header::parse(line)?;
    match header.verb {
        "OK" => {
            if let Some(src) = header.get("source") {
                let source = Source::parse(src)
                    .ok_or_else(|| ProtocolError(format!("bad source {src:?}")))?;
                let cycles = header
                    .get_u64("cycles")?
                    .ok_or_else(|| ProtocolError("OK without cycles".into()))?;
                let baseline_cycles = header
                    .get_u64("baseline_cycles")?
                    .ok_or_else(|| ProtocolError("OK without baseline_cycles".into()))?;
                let passes_str = header
                    .get("passes")
                    .ok_or_else(|| ProtocolError("OK without passes".into()))?;
                let mut passes = Vec::new();
                if passes_str != "-" {
                    passes.reserve(passes_str.bytes().filter(|&b| b == b',').count() + 1);
                    for p in passes_str.split(',') {
                        let id = p
                            .parse()
                            .map_err(|_| ProtocolError(format!("bad pass id {p:?}")))?;
                        passes.push(id);
                    }
                }
                let ir_len = header.get_u64("ir_len")?.unwrap_or(0) as usize;
                if ir_len > MAX_IR_LEN {
                    return Err(ProtocolError(format!("reply ir_len {ir_len} over cap")).into());
                }
                let ir = if ir_len > 0 {
                    Some(read_body(r, ir_len)?)
                } else {
                    None
                };
                Ok(Reply::Compiled {
                    source,
                    cycles,
                    baseline_cycles,
                    passes,
                    ir,
                })
            } else if let Some(body) = read_jsonl(r, &header, "stats_len")? {
                Ok(Reply::Stats { body })
            } else if let Some(body) = read_jsonl(r, &header, "traces_len")? {
                Ok(Reply::Traces { body })
            } else if let Some(body) = read_jsonl(r, &header, "models_len")? {
                Ok(Reply::Models { body })
            } else {
                Ok(Reply::Ack)
            }
        }
        "ERR" => {
            let kind_str = header
                .get("kind")
                .ok_or_else(|| ProtocolError("ERR without kind".into()))?;
            let kind = ErrKind::parse(kind_str)
                .ok_or_else(|| ProtocolError(format!("bad kind {kind_str:?}")))?;
            let retry_ms = header.get_u64("retry_ms")?;
            let msg = header.get("msg").unwrap_or("").to_string();
            Ok(Reply::Err {
                kind,
                retry_ms,
                msg,
            })
        }
        other => Err(ProtocolError(format!("unknown reply verb {other:?}")).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn roundtrip_request(req: Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let mut r = BufReader::new(buf.as_slice());
        read_request(&mut r).unwrap().expect("one request")
    }

    fn roundtrip_reply(reply: Reply) -> Reply {
        let mut buf = Vec::new();
        write_reply(&mut buf, &reply).unwrap();
        let mut r = BufReader::new(buf.as_slice());
        read_reply(&mut r).unwrap()
    }

    #[test]
    fn request_roundtrips() {
        for req in [
            Request::Compile {
                ir: "; module m\n".into(),
                deadline_ms: Some(250),
                want_ir: true,
            },
            Request::Compile {
                ir: String::new(),
                deadline_ms: None,
                want_ir: false,
            },
            Request::Ping,
            Request::Chaos {
                faults: 7,
                crashes: 0,
                swaps: 0,
            },
            Request::Chaos {
                faults: 0,
                crashes: 3,
                swaps: 0,
            },
            Request::Chaos {
                faults: 0,
                crashes: 0,
                swaps: 2,
            },
            Request::Shutdown,
            Request::Stats,
            Request::Trace { n: 32 },
            Request::Model,
            Request::Promote { version: 4 },
        ] {
            assert_eq!(roundtrip_request(req.clone()), req);
        }
    }

    /// `ab=` in any spelling is a malformed header (which the daemon
    /// answers `bad_request`), never a promotion of the named version.
    #[test]
    fn promote_with_ab_is_refused_not_taken_as_a_full_promotion() {
        for line in [
            "AUTOPHASE/1 PROMOTE v=2 ab=1\n",
            "AUTOPHASE/1 PROMOTE v=2 ab=0\n",
        ] {
            let err = read_request(&mut BufReader::new(line.as_bytes())).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{line:?}");
            assert!(err.to_string().contains("ab="), "{err}");
        }
    }

    #[test]
    fn reply_roundtrips() {
        for reply in [
            Reply::Compiled {
                source: Source::Policy,
                cycles: 913,
                baseline_cycles: 1310,
                passes: vec![31, 38, 30],
                ir: Some("define i32 @main() {\n}\n".into()),
            },
            Reply::Compiled {
                source: Source::Store,
                cycles: 1,
                baseline_cycles: 1,
                passes: vec![],
                ir: None,
            },
            Reply::Ack,
            Reply::Stats {
                body: "{\"type\":\"counter\",\"name\":\"serve.req\",\"value\":3}\n".into(),
            },
            Reply::Traces {
                body: "{\"type\":\"trace\",\"id\":0,\"stages\":[[\"parse\",10]]}\n".into(),
            },
            Reply::Models {
                body: "{\"type\":\"model\",\"version\":1,\"active\":true}\n".into(),
            },
            Reply::Err {
                kind: ErrKind::Overloaded,
                retry_ms: None,
                msg: "queue full (cap 64)".into(),
            },
            Reply::Err {
                kind: ErrKind::Overloaded,
                retry_ms: Some(50),
                msg: "queue full (cap 64)".into(),
            },
            Reply::Err {
                kind: ErrKind::Deadline,
                retry_ms: Some(u64::MAX),
                msg: String::new(),
            },
        ] {
            assert_eq!(roundtrip_reply(reply.clone()), reply);
        }
    }

    #[test]
    fn hostile_retry_ms_values_are_rejected_or_bounded() {
        // Non-numeric, negative, overflowing, and empty values must be
        // typed protocol errors, never panics or silent zeroes.
        for bad in [
            "AUTOPHASE/1 ERR kind=overloaded retry_ms=abc msg=x\n",
            "AUTOPHASE/1 ERR kind=overloaded retry_ms=-5 msg=x\n",
            "AUTOPHASE/1 ERR kind=overloaded retry_ms=99999999999999999999999 msg=x\n",
            "AUTOPHASE/1 ERR kind=overloaded retry_ms= msg=x\n",
            "AUTOPHASE/1 ERR kind=overloaded retry_ms=1.5 msg=x\n",
        ] {
            let mut r = BufReader::new(bad.as_bytes());
            assert!(read_reply(&mut r).is_err(), "accepted {bad:?}");
        }
        // u64::MAX is representable: parses, and the client clamps it.
        let line = format!("AUTOPHASE/1 ERR kind=deadline retry_ms={} msg=\n", u64::MAX);
        let mut r = BufReader::new(line.as_bytes());
        match read_reply(&mut r).unwrap() {
            Reply::Err { retry_ms, .. } => assert_eq!(retry_ms, Some(u64::MAX)),
            other => panic!("expected ERR, got {other:?}"),
        }
        // retry_ms tucked inside msg is data, not a hint.
        let mut r =
            BufReader::new(&b"AUTOPHASE/1 ERR kind=deadline msg=try retry_ms=10 later\n"[..]);
        match read_reply(&mut r).unwrap() {
            Reply::Err { retry_ms, msg, .. } => {
                assert_eq!(retry_ms, None);
                assert_eq!(msg, "try retry_ms=10 later");
            }
            other => panic!("expected ERR, got {other:?}"),
        }
    }

    #[test]
    fn eof_between_requests_is_clean() {
        let mut r = BufReader::new(&b""[..]);
        assert!(read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn malformed_headers_are_errors_not_panics() {
        for bad in [
            "HTTP/1.1 GET /\n",
            "AUTOPHASE/1\n",
            "AUTOPHASE/1 COMPILE\n",
            "AUTOPHASE/1 COMPILE ir_len=notanumber\n",
            "AUTOPHASE/1 COMPILE ir_len=99999999999\n",
            "AUTOPHASE/1 NOSUCHVERB a=b\n",
            "AUTOPHASE/1 CHAOS\n",
            "AUTOPHASE/1 TRACE\n",
            "AUTOPHASE/1 TRACE n=abc\n",
            "AUTOPHASE/1 PROMOTE\n",
            "AUTOPHASE/1 PROMOTE v=abc\n",
            "AUTOPHASE/1 CHAOS n=1 swap=notanumber\n",
        ] {
            let mut r = BufReader::new(bad.as_bytes());
            assert!(read_request(&mut r).is_err(), "accepted {bad:?}");
        }
    }

    /// A key is found however far along the line it is, its first pair
    /// wins, and every pair is checked.
    #[test]
    fn a_key_past_the_kept_pairs_is_found() {
        let junk: String = (0..11).map(|i| format!(" k{i}=v")).collect();
        let line = format!("{PROTOCOL} COMPILE{junk} want_ir=1 ir_len=2 ir_len=7\nab");
        let got = read_request(&mut BufReader::new(line.as_bytes())).unwrap();
        let want = Request::Compile {
            ir: "ab".into(),
            deadline_ms: None,
            want_ir: true,
        };
        assert_eq!(got, Some(want));
        let line = format!("{PROTOCOL} PING{junk} bare\n");
        let err = read_request(&mut BufReader::new(line.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("bare token \"bare\""), "{err}");
    }

    #[test]
    fn truncated_body_is_an_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"AUTOPHASE/1 COMPILE ir_len=100\nshort");
        let mut r = BufReader::new(buf.as_slice());
        assert!(read_request(&mut r).is_err());
    }

    /// A reader that never runs dry and counts what was taken from it.
    struct Endless {
        served: usize,
    }

    impl io::Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            buf.fill(b'A');
            self.served += buf.len();
            Ok(buf.len())
        }
    }

    #[test]
    fn a_header_without_a_newline_is_refused_at_the_cap() {
        for reply in [false, true] {
            let mut r = BufReader::new(Endless { served: 0 });
            let err = if reply {
                read_reply(&mut r).map(|_| ()).unwrap_err()
            } else {
                read_request(&mut r).map(|_| ()).unwrap_err()
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("header line exceeds"), "{err}");
            // One BufReader fill past the cap at most — not the 4 MiB a
            // body may have, let alone unbounded.
            assert!(r.get_ref().served <= MAX_HEADER_LEN + 8 * 1024);
        }
        // The longest legal line still reads.
        let mut line = format!("{PROTOCOL} PING x=");
        line.push_str(&"a".repeat(MAX_HEADER_LEN - line.len() - 1));
        line.push('\n');
        assert_eq!(line.len(), MAX_HEADER_LEN);
        let mut r = BufReader::new(line.as_bytes());
        assert_eq!(read_request(&mut r).unwrap(), Some(Request::Ping));
    }

    #[test]
    fn an_err_quoting_a_long_request_still_fits_a_header() {
        let mut buf = Vec::new();
        write_reply(
            &mut buf,
            &Reply::Err {
                kind: ErrKind::BadRequest,
                retry_ms: Some(u64::MAX),
                msg: "é".repeat(MAX_HEADER_LEN),
            },
        )
        .unwrap();
        assert!(buf.len() <= MAX_HEADER_LEN);
        let mut r = BufReader::new(buf.as_slice());
        assert!(matches!(
            read_reply(&mut r).unwrap(),
            Reply::Err {
                kind: ErrKind::BadRequest,
                ..
            }
        ));
    }

    #[test]
    fn a_body_past_the_preallocation_roundtrips() {
        let ir = "x".repeat(BODY_PREALLOC * 2 + 17);
        let mut buf = Vec::new();
        write_compile(&mut buf, &ir, None, false).unwrap();
        let mut r = BufReader::new(buf.as_slice());
        match read_request(&mut r).unwrap() {
            Some(Request::Compile { ir: got, .. }) => assert_eq!(got, ir),
            other => panic!("expected COMPILE, got {other:?}"),
        }
    }

    #[test]
    fn err_msg_preserves_spaces_and_strips_newlines() {
        let got = roundtrip_reply(Reply::Err {
            kind: ErrKind::Internal,
            retry_ms: None,
            msg: "a b\nc".into(),
        });
        assert_eq!(
            got,
            Reply::Err {
                kind: ErrKind::Internal,
                retry_ms: None,
                msg: "a b c".into(),
            }
        );
    }
}
