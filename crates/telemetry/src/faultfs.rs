//! Injectable disk I/O for durability chaos testing.
//!
//! Every write the serving stack must survive losing — best-ordering
//! store appends, snapshot compactions, policy checkpoint saves — is
//! routed through the thin wrappers in this module instead of calling
//! `std::fs`/`std::io` directly. With no plan armed a wrapper is its
//! `std` call behind one acquire load. A [`DiskFaultPlan`] armed in
//! [`PLAN`] can make any tagged operation fail deterministically: torn
//! writes (a prefix lands, then an error), `ENOSPC`, fsync failure, and
//! short reads — the four failure shapes the durability suite drills.
//! Per-spec match counters make "the Nth append" well defined, and
//! plans are reproducible from a single `u64` via
//! [`DiskFaultPlan::seeded`].
//!
//! Call sites name themselves with a static `tag` (`"store.append"`,
//! `"store.snapshot"`, `"ckpt.write"`, ...) so a plan can target one
//! logical stream of I/O without disturbing the others. Whole-file
//! replacement (snapshots, the registry manifest, checkpoints) goes
//! through one sequence, [`atomic_write`].
//!
//! The durable files' bytes are stated here too, once: their checksum
//! ([`fnv1a`]) and the record frame ([`push_frame`] / [`split_frame`])
//! the store's tail log and snapshot are made of. What a bad frame
//! *means* — truncate the tail, fail the snapshot closed — stays with
//! the file that owns the policy.

use crate::{splitmix64, Armed};
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The disk operations the layer can intercept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskOp {
    /// A buffered or direct write of bytes ([`write_all`]).
    Write,
    /// A durability barrier ([`sync_data`], and the `sync_all` inside
    /// [`atomic_write`]).
    Sync,
    /// A whole-file read ([`read`]).
    Read,
    /// An atomic rename ([`rename`]).
    Rename,
}

/// What goes wrong with one intercepted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// A strict prefix of the buffer reaches the file, then the write
    /// errors — the on-disk state a crash mid-append leaves behind.
    TornWrite,
    /// The operation fails with `ENOSPC` (raw OS error 28) and writes
    /// nothing.
    Enospc,
    /// The sync (or other operation) reports an I/O error; any buffered
    /// data may or may not be durable.
    SyncFail,
    /// The read returns a strict prefix of the file.
    ShortRead,
}

/// `write_all` through the fault layer. `tag` names the call site.
pub fn write_all(file: &mut File, buf: &[u8], tag: &'static str) -> io::Result<()> {
    match poll(DiskOp::Write, tag) {
        None => file.write_all(buf),
        Some((DiskFaultKind::Enospc, _)) => Err(io::Error::from_raw_os_error(28)),
        Some((DiskFaultKind::TornWrite, salt)) => {
            if !buf.is_empty() {
                let keep = (salt % buf.len() as u64) as usize;
                file.write_all(&buf[..keep])?;
                let _ = file.sync_data();
            }
            Err(io::Error::other("injected torn write"))
        }
        Some((_, _)) => Err(io::Error::other("injected write failure")),
    }
}

/// `File::sync_data` through the fault layer.
pub fn sync_data(file: &File, tag: &'static str) -> io::Result<()> {
    match poll(DiskOp::Sync, tag) {
        None => file.sync_data(),
        Some((DiskFaultKind::Enospc, _)) => Err(io::Error::from_raw_os_error(28)),
        Some((_, _)) => Err(io::Error::other("injected fsync failure")),
    }
}

/// `File::sync_all` through the fault layer.
fn sync_all(file: &File, tag: &'static str) -> io::Result<()> {
    match poll(DiskOp::Sync, tag) {
        None => file.sync_all(),
        Some((DiskFaultKind::Enospc, _)) => Err(io::Error::from_raw_os_error(28)),
        Some((_, _)) => Err(io::Error::other("injected fsync failure")),
    }
}

/// `std::fs::read` through the fault layer. A planned [`ShortRead`]
/// returns a strict prefix of the file, exactly what a torn mirror or a
/// failing disk hands back.
///
/// [`ShortRead`]: DiskFaultKind::ShortRead
pub fn read(path: &Path, tag: &'static str) -> io::Result<Vec<u8>> {
    match poll(DiskOp::Read, tag) {
        None => std::fs::read(path),
        Some((DiskFaultKind::ShortRead, salt)) => {
            let mut bytes = std::fs::read(path)?;
            if !bytes.is_empty() {
                bytes.truncate((salt % bytes.len() as u64) as usize);
            }
            Ok(bytes)
        }
        Some((DiskFaultKind::Enospc, _)) => Err(io::Error::from_raw_os_error(28)),
        Some((_, _)) => Err(io::Error::other("injected read failure")),
    }
}

/// `std::fs::rename` through the fault layer. An injected fault fails
/// the rename without moving anything (the commit point never happens).
pub fn rename(from: &Path, to: &Path, tag: &'static str) -> io::Result<()> {
    match poll(DiskOp::Rename, tag) {
        None => std::fs::rename(from, to),
        Some((DiskFaultKind::Enospc, _)) => Err(io::Error::from_raw_os_error(28)),
        Some((_, _)) => Err(io::Error::other("injected rename failure")),
    }
}

/// Replace the file at `path` with `bytes` atomically and durably: write
/// `<path>.tmp` beside it, `sync_all`, rename over `path`, then fsync
/// the parent directory — every step but the last through the fault
/// layer under `tag`. A reader (or a crash at any byte) sees the old
/// contents or the new, never a mixture. On any failure the tmp is
/// removed and `path` is untouched.
///
/// The directory fsync makes the rename itself durable. It is best
/// effort: some filesystems refuse to fsync a directory, and the rename
/// is already atomic.
///
/// # Errors
///
/// The first failing create, write, sync or rename.
pub fn atomic_write(path: &Path, bytes: &[u8], tag: &'static str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    let publish = File::create(tmp).and_then(|mut f| {
        write_all(&mut f, bytes, tag)?;
        sync_all(&f, tag)?;
        drop(f);
        rename(tmp, path, tag)
    });
    if let Err(e) = publish {
        let _ = std::fs::remove_file(tmp);
        return Err(e);
    }
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// True when `e` means the disk is full — the one I/O failure the
/// server degrades through rather than merely counting.
pub fn is_disk_full(e: &io::Error) -> bool {
    e.raw_os_error() == Some(28) || matches!(e.kind(), io::ErrorKind::StorageFull)
}

/// FNV-1a 64, the checksum of the durable files: store records, the
/// snapshot trailer, the registry manifest's `checksum=` line.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Append one record frame to `out`:
/// `len u32 LE | payload | fnv1a(payload) u64 LE`.
///
/// # Panics
///
/// If `payload` is longer than a `u32` can say.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payload fits a u32 length");
    out.reserve(12 + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
}

/// Split the frame at the front of `bytes` into its payload and the
/// bytes after it. `None` when there is no whole, intact frame there: a
/// short header, a length reaching past the buffer, or a checksum that
/// does not match — a torn and a bit-flipped frame look the same.
pub fn split_frame(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = bytes.split_first_chunk::<4>()?;
    let (payload, rest) = rest.split_at_checked(u32::from_le_bytes(*len) as usize)?;
    let (sum, rest) = rest.split_first_chunk::<8>()?;
    (fnv1a(payload) == u64::from_le_bytes(*sum)).then_some((payload, rest))
}

/// One planned disk fault: the `nth` (1-based; 0 = every) matching
/// operation fails with `kind`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskFaultSpec {
    /// Which operation class to sabotage.
    pub op: DiskOp,
    /// Restrict to one call-site tag (`None` matches any tag).
    pub tag: Option<String>,
    /// Which matching operation fails, 1-based. `0` means *every*
    /// matching operation fails — the "disk stays full" mode.
    pub nth: u64,
    /// What goes wrong.
    pub kind: DiskFaultKind,
    /// Deterministic entropy for the fault shape (how many bytes a
    /// torn write keeps, where a short read cuts).
    pub salt: u64,
}

/// A set of planned disk faults plus a fired-count for assertions.
#[derive(Debug)]
pub struct DiskFaultPlan {
    specs: Vec<DiskFaultSpec>,
    seen: Vec<AtomicU64>,
    fired: AtomicU64,
}

impl DiskFaultPlan {
    /// A plan from explicit specs.
    pub fn new(specs: Vec<DiskFaultSpec>) -> DiskFaultPlan {
        let seen = specs.iter().map(|_| AtomicU64::new(0)).collect();
        DiskFaultPlan {
            specs,
            seen,
            fired: AtomicU64::new(0),
        }
    }

    /// A reproducible plan derived from `seed`: one fault per
    /// `(op, tag)` target, with an op-appropriate kind, a
    /// pseudo-random `nth` in `1..=3`, and pseudo-random salt.
    pub fn seeded(seed: u64, targets: &[(DiskOp, &str)]) -> DiskFaultPlan {
        let mut state = seed;
        let mut next = || splitmix64(&mut state);
        let specs = targets
            .iter()
            .map(|&(op, tag)| DiskFaultSpec {
                op,
                tag: Some(tag.to_string()),
                nth: next() % 3 + 1,
                kind: match op {
                    DiskOp::Write => {
                        if next() % 2 == 0 {
                            DiskFaultKind::TornWrite
                        } else {
                            DiskFaultKind::Enospc
                        }
                    }
                    DiskOp::Sync => DiskFaultKind::SyncFail,
                    DiskOp::Read => DiskFaultKind::ShortRead,
                    DiskOp::Rename => DiskFaultKind::Enospc,
                },
                salt: next(),
            })
            .collect();
        DiskFaultPlan::new(specs)
    }

    /// The planned faults.
    pub fn specs(&self) -> &[DiskFaultSpec] {
        &self.specs
    }

    /// How many planned faults have fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

/// The armed disk-fault plan, polled by every tagged operation.
pub static PLAN: Armed<DiskFaultPlan> = Armed::new();

fn poll(op: DiskOp, tag: &str) -> Option<(DiskFaultKind, u64)> {
    let plan = PLAN.current()?;
    for (i, s) in plan.specs.iter().enumerate() {
        if s.op != op || s.tag.as_deref().is_some_and(|t| t != tag) {
            continue;
        }
        let seen = plan.seen[i].fetch_add(1, Ordering::Relaxed) + 1;
        if s.nth == 0 || s.nth == seen {
            plan.fired.fetch_add(1, Ordering::Relaxed);
            return Some((s.kind, s.salt));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_guard;
    use std::io::Read as _;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("autophase_faultfs_{}_{name}", std::process::id()))
    }

    #[test]
    fn passthrough_when_idle() {
        let _g = test_guard();
        PLAN.clear();
        let path = tmp("idle");
        let mut f = File::create(&path).unwrap();
        write_all(&mut f, b"hello", "t.write").unwrap();
        sync_data(&f, "t.sync").unwrap();
        sync_all(&f, "t.sync").unwrap();
        drop(f);
        assert_eq!(read(&path, "t.read").unwrap(), b"hello");
        let to = tmp("idle2");
        rename(&path, &to, "t.rename").unwrap();
        assert_eq!(read(&to, "t.read").unwrap(), b"hello");
        let _ = std::fs::remove_file(&to);
    }

    #[test]
    fn torn_write_keeps_a_strict_prefix() {
        let _g = test_guard();
        let plan = PLAN.install(DiskFaultPlan::new(vec![DiskFaultSpec {
            op: DiskOp::Write,
            tag: Some("t.torn".into()),
            nth: 2,
            kind: DiskFaultKind::TornWrite,
            salt: 3,
        }]));
        let path = tmp("torn");
        let mut f = File::create(&path).unwrap();
        write_all(&mut f, b"aaaa", "t.torn").unwrap(); // 1st: clean
        let err = write_all(&mut f, b"bbbb", "t.torn").unwrap_err(); // 2nd: torn
        assert!(err.to_string().contains("torn"));
        drop(f);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, b"aaaabbb", "salt=3 tears after 3 of 4 bytes");
        assert_eq!(plan.fired(), 1);
        PLAN.clear();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn enospc_every_matching_write_until_cleared() {
        let _g = test_guard();
        PLAN.install(DiskFaultPlan::new(vec![DiskFaultSpec {
            op: DiskOp::Write,
            tag: Some("t.full".into()),
            nth: 0,
            kind: DiskFaultKind::Enospc,
            salt: 0,
        }]));
        let path = tmp("full");
        let mut f = File::create(&path).unwrap();
        for _ in 0..3 {
            let err = write_all(&mut f, b"x", "t.full").unwrap_err();
            assert!(is_disk_full(&err), "{err}");
        }
        // Other tags are untouched.
        write_all(&mut f, b"y", "t.other").unwrap();
        PLAN.clear();
        write_all(&mut f, b"z", "t.full").unwrap();
        drop(f);
        let mut s = String::new();
        File::open(&path).unwrap().read_to_string(&mut s).unwrap();
        assert_eq!(s, "yz", "faulted writes left no bytes behind");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn short_read_returns_strict_prefix() {
        let _g = test_guard();
        let path = tmp("short");
        std::fs::write(&path, b"0123456789").unwrap();
        PLAN.install(DiskFaultPlan::new(vec![DiskFaultSpec {
            op: DiskOp::Read,
            tag: None,
            nth: 1,
            kind: DiskFaultKind::ShortRead,
            salt: 14, // 14 % 10 = 4
        }]));
        assert_eq!(read(&path, "t.read").unwrap(), b"0123");
        assert_eq!(read(&path, "t.read").unwrap(), b"0123456789");
        PLAN.clear();
        let _ = std::fs::remove_file(&path);
    }

    /// Every frame `split_frame` yields from the front of `bytes`, and
    /// how many bytes they took.
    fn walk(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
        let (mut payloads, mut rest) = (Vec::new(), bytes);
        while let Some((payload, after)) = split_frame(rest) {
            payloads.push(payload);
            rest = after;
        }
        (payloads, bytes.len() - rest.len())
    }

    /// The frame's damage matrix, once for every file built of frames:
    /// cut the buffer at every byte and flip every bit (inside the
    /// 64 KiB payload, every bit of every 251st byte — each of those
    /// flips costs a 64 KiB hash). Only written payloads come back, in
    /// order, and the walk always stops on a frame boundary.
    #[test]
    fn damaged_frames_yield_only_the_intact_prefix() {
        let big: Vec<u8> = (0..64 * 1024u32).map(|i| ((i * 31) >> 3) as u8).collect();
        let written: [&[u8]; 4] = [b"", b"\x7f", &big, b"end"];
        let mut buf = Vec::new();
        let mut ends = vec![0];
        for payload in written {
            push_frame(&mut buf, payload);
            ends.push(buf.len());
        }
        assert_eq!(walk(&buf), (written.to_vec(), buf.len()));
        // Frames wholly before `at`: what damage at `at` must leave.
        let intact = |at: usize| ends[1..].iter().filter(|&&e| e <= at).count();

        for cut in 0..buf.len() {
            let n = intact(cut);
            assert_eq!(walk(&buf[..cut]), (written[..n].to_vec(), ends[n]), "{cut}");
        }

        let big_payload = ends[2] + 4..ends[3] - 8;
        let mut flipped = buf.clone();
        for at in (0..buf.len()).filter(|at| !big_payload.contains(at) || at % 251 == 0) {
            let n = intact(at);
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                assert_eq!(walk(&flipped), (written[..n].to_vec(), ends[n]), "{at}");
                flipped[at] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn absurd_frame_length_is_none_not_an_allocation() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        assert_eq!(split_frame(&bytes), None);
        bytes.extend_from_slice(&[0; 64]);
        assert_eq!(split_frame(&bytes), None);
        assert_eq!(split_frame(&[]), None);
    }

    #[test]
    fn sync_and_rename_faults_fire_deterministically() {
        let _g = test_guard();
        let plan = PLAN.install(DiskFaultPlan::seeded(
            42,
            &[(DiskOp::Sync, "t.s"), (DiskOp::Rename, "t.r")],
        ));
        let again = DiskFaultPlan::seeded(42, &[(DiskOp::Sync, "t.s"), (DiskOp::Rename, "t.r")]);
        assert_eq!(plan.specs(), again.specs(), "seeded plans reproduce");
        let path = tmp("syncfault");
        let f = File::create(&path).unwrap();
        let nth = plan.specs()[0].nth;
        for i in 1..=nth {
            let r = sync_data(&f, "t.s");
            assert_eq!(r.is_err(), i == nth, "sync {i}/{nth}");
        }
        assert_eq!(plan.fired(), 1);
        PLAN.clear();
        let _ = std::fs::remove_file(&path);
    }

    /// The seeded stream, pinned spec for spec: a storm named by its
    /// seed must keep failing the same operations the same way.
    #[test]
    fn seeded_plans_are_pinned() {
        use DiskFaultKind::{Enospc, ShortRead, SyncFail, TornWrite};
        use DiskOp::{Read, Rename, Sync, Write};
        let targets = [
            (Write, "store.append"),
            (Write, "store.snapshot"),
            (Sync, "store.append"),
            (Read, "ckpt.read"),
            (Rename, "store.snapshot"),
            (Write, "ckpt.write"),
        ];
        let pinned = |rows: [(u64, DiskFaultKind, u64); 6]| -> Vec<DiskFaultSpec> {
            targets
                .iter()
                .zip(rows)
                .map(|(&(op, tag), (nth, kind, salt))| DiskFaultSpec {
                    op,
                    tag: Some(tag.to_string()),
                    nth,
                    kind,
                    salt,
                })
                .collect()
        };
        assert_eq!(
            DiskFaultPlan::seeded(5, &targets).specs(),
            pinned([
                (3, TornWrite, 4_292_726_422_858_613_063),
                (3, Enospc, 7_020_995_479_949_754_436),
                (1, SyncFail, 9_428_158_358_266_441_515),
                (2, ShortRead, 11_131_513_475_650_148_195),
                (1, Enospc, 2_521_712_920_250_132_284),
                (1, Enospc, 17_610_715_268_997_278_231),
            ])
        );
        assert_eq!(
            DiskFaultPlan::seeded(0xFEED_F00D, &targets).specs(),
            pinned([
                (1, TornWrite, 4_049_349_361_917_054_250),
                (3, TornWrite, 10_260_445_023_040_449_528),
                (3, SyncFail, 7_527_603_519_976_084_636),
                (1, ShortRead, 14_762_535_777_812_666_237),
                (1, Enospc, 6_974_121_268_967_521_471),
                (1, Enospc, 12_985_877_718_643_588_545),
            ])
        );
    }
}
