//! Each store answer's optimized IR and the request text it answered,
//! kept beside the store (DESIGN.md §4g, §4j, §4n).
//!
//! The store keeps orderings, not outputs, so a hit that must carry IR
//! would otherwise re-parse its input, replay the stored passes and print.
//! This sidecar at `<store path>.ir` keeps what that replay prints,
//! appended once when the answer is first computed, and beside it the
//! request text the answer was computed for, which a restarted daemon
//! seeds its front memo with:
//!
//! ```text
//! "APIRTXT2"                                  // 8-byte file header
//! record  := IR frame | request frame         // faultfs frames
//! IR      := fingerprint u64 | cycles u64 | n u16 | n × pass id u16 | text
//! request := fingerprint u64 | request text
//! ```
//!
//! Each frame has its own checksum, so an IR hit reads and checks only the
//! IR it serves. The file is *derived*: every record can be recomputed
//! from its store entry and the request, so it is never synced and never
//! part of an acknowledgment, and losing any part of it costs replays and
//! first-sight parses, not answers. Open keeps the good prefix and
//! truncates a torn or corrupt tail, as [`crate::store::BestStore`] does
//! with its log, and keeps only the records of live store entries: when
//! the others take half of the file's record bytes or more, it rewrites
//! the file to the live ones with one [`faultfs::atomic_write`]. A file
//! of the first layout (`APIRTXT1`, no request texts) is dropped and
//! rebuilt as a lost one is. The index holds offsets, not texts; a read
//! re-checks the frame and serves the text only when the record's
//! `(cycles, seq)` is the live entry's, so an artifact of a superseded or
//! retired entry is never served.

use crate::store::BestEntry;
use autophase_telemetry::{self as telemetry, faultfs, lock_recover};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const MAGIC: &[u8; 8] = b"APIRTXT2";

/// The first layout's header: its records carry no request text.
const MAGIC_V1: &[u8; 8] = b"APIRTXT1";

/// Where the sidecar of the store at `store` lives.
pub(crate) fn sidecar_path(store: &Path) -> PathBuf {
    PathBuf::from(format!("{}.ir", store.display()))
}

/// The optimized-IR sidecar of one store (see module docs). Shared by the
/// daemon's handlers: the lock covers only the file offset and the index,
/// so checksums and copies of texts run outside it.
#[derive(Debug)]
pub(crate) struct IrArtifacts(Mutex<Sidecar>);

#[derive(Debug)]
struct Sidecar {
    file: File,
    /// Fingerprint → `(offset, length)` of its latest record's IR frame.
    index: HashMap<u64, (u64, usize)>,
    /// Append offset: the end of the good prefix.
    end: u64,
}

/// One IR frame's payload, borrowed from its frame.
struct Record<'a> {
    fp: u64,
    cycles: u64,
    /// The ordering as `n` little-endian pass ids.
    seq: &'a [u8],
    text: &'a [u8],
}

impl Record<'_> {
    /// Whether this IR was recorded for exactly `entry`'s cycles and ordering.
    fn answers(&self, entry: &BestEntry) -> bool {
        let same_seq = self
            .seq
            .chunks_exact(2)
            .map(|b| u16::from_le_bytes([b[0], b[1]]))
            .eq(entry.seq.iter().copied());
        self.cycles == entry.cycles && same_seq
    }
}

/// A record of a live entry, found by [`IrArtifacts::open`].
struct Live {
    /// Offset of the record, which is its IR frame's.
    at: u64,
    ir_len: usize,
    /// Both frames.
    len: usize,
    request: String,
}

fn encode(fp: u64, entry: &BestEntry, text: &str) -> io::Result<Vec<u8>> {
    let n = u16::try_from(entry.seq.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "pass sequence too long for a record",
        )
    })?;
    let mut payload = Vec::with_capacity(18 + 2 * entry.seq.len() + text.len());
    payload.extend_from_slice(&fp.to_le_bytes());
    payload.extend_from_slice(&entry.cycles.to_le_bytes());
    payload.extend_from_slice(&n.to_le_bytes());
    for &p in &entry.seq {
        payload.extend_from_slice(&p.to_le_bytes());
    }
    payload.extend_from_slice(text.as_bytes());
    Ok(payload)
}

/// `None` when the payload is shorter than the ordering it announces.
fn decode(payload: &[u8]) -> Option<Record<'_>> {
    let (fp, rest) = payload.split_first_chunk::<8>()?;
    let (cycles, rest) = rest.split_first_chunk::<8>()?;
    let (n, rest) = rest.split_first_chunk::<2>()?;
    let (seq, text) = rest.split_at_checked(2 * usize::from(u16::from_le_bytes(*n)))?;
    Some(Record {
        fp: u64::from_le_bytes(*fp),
        cycles: u64::from_le_bytes(*cycles),
        seq,
        text,
    })
}

/// The request text of a request frame's payload, if it was recorded for
/// `fp` and is text.
fn decode_request(payload: &[u8], fp: u64) -> Option<&str> {
    let (at, text) = payload.split_first_chunk::<8>()?;
    let text = (u64::from_le_bytes(*at) == fp).then_some(text)?;
    std::str::from_utf8(text).ok()
}

/// Read the next frame of `reader` into `buf` if it ends within `room`
/// bytes; `false` at the end of the file or at a length past it.
fn read_frame(reader: &mut impl Read, room: u64, buf: &mut Vec<u8>) -> bool {
    let mut len = [0u8; 4];
    if reader.read_exact(&mut len).is_err() {
        return false;
    }
    let n = u64::from(u32::from_le_bytes(len)) + 12;
    if n > room {
        return false;
    }
    buf.clear();
    buf.extend_from_slice(&len);
    buf.resize(n as usize, 0);
    reader.read_exact(&mut buf[4..]).is_ok()
}

/// Replace the file at `path` with the header and the `kept` records in
/// their order, and move each record's offset to its new place. On
/// failure neither the file nor `kept` has changed.
fn compact(file: &mut File, path: &Path, kept: &mut [(u64, Live)]) -> io::Result<u64> {
    let mut bytes = MAGIC.to_vec();
    let mut moved = Vec::with_capacity(kept.len());
    for (_, live) in kept.iter() {
        let from = bytes.len();
        moved.push(from as u64);
        bytes.resize(from + live.len, 0);
        file.seek(SeekFrom::Start(live.at))?;
        file.read_exact(&mut bytes[from..])?;
    }
    faultfs::atomic_write(path, &bytes, "store.ir")?;
    *file = OpenOptions::new().read(true).write(true).open(path)?;
    for ((_, live), at) in kept.iter_mut().zip(moved) {
        live.at = at;
    }
    Ok(bytes.len() as u64)
}

impl IrArtifacts {
    /// Open (creating if absent) the sidecar at `path`, truncate whatever
    /// follows the first bad record, and index the records `live` vouches
    /// for: the latest intact one recorded for each fingerprint's live
    /// entry. When the other records are at least half of the file's
    /// record bytes, the file is rewritten to the indexed ones first; a
    /// rewrite that fails is counted (`serve.store{ir_compaction_error}`)
    /// and leaves the file as it was. Also returns each indexed record's
    /// request text and fingerprint, oldest first.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or `InvalidData` if the file exists but is not an
    /// IR sidecar (a foreign file is left untouched).
    pub(crate) fn open<'s>(
        path: &Path,
        live: impl Fn(u64) -> Option<&'s BestEntry>,
    ) -> io::Result<(IrArtifacts, Vec<(String, u64)>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let size = file.metadata()?.len();
        let mut reader = BufReader::new(&file);
        let mut header = Vec::new();
        (&mut reader).take(8).read_to_end(&mut header)?;
        let mut kept: HashMap<u64, Live> = HashMap::new();
        let mut end = 0;
        if header.as_slice() == MAGIC {
            end = MAGIC.len() as u64;
            // One record at a time: the file may be far larger than what
            // is live, and only live request texts are kept.
            let (mut ir, mut request) = (Vec::new(), Vec::new());
            while read_frame(&mut reader, size - end, &mut ir)
                && read_frame(&mut reader, size - end - ir.len() as u64, &mut request)
            {
                let Some(rec) = faultfs::split_frame(&ir).and_then(|(p, _)| decode(p)) else {
                    break;
                };
                let Some(text) =
                    faultfs::split_frame(&request).and_then(|(p, _)| decode_request(p, rec.fp))
                else {
                    break;
                };
                let len = ir.len() + request.len();
                if live(rec.fp).is_some_and(|entry| rec.answers(entry)) {
                    let request = text.to_owned();
                    let ir_len = ir.len();
                    kept.insert(
                        rec.fp,
                        Live {
                            at: end,
                            ir_len,
                            len,
                            request,
                        },
                    );
                }
                end += len as u64;
            }
        } else if header.as_slice() != MAGIC_V1 && !MAGIC.starts_with(&header) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not an autophase IR sidecar", path.display()),
            ));
        }
        // Otherwise empty, of the first layout, or its first append tore
        // inside the header.
        drop(reader);
        if end < size {
            file.set_len(end)?;
        }
        let mut kept: Vec<(u64, Live)> = kept.into_iter().collect();
        kept.sort_unstable_by_key(|(_, live)| live.at);
        let live_bytes: u64 = kept.iter().map(|(_, live)| live.len as u64).sum();
        let dead_bytes = end.saturating_sub(MAGIC.len() as u64) - live_bytes;
        if dead_bytes > 0 && dead_bytes >= live_bytes {
            match compact(&mut file, path, &mut kept) {
                Ok(compacted) => end = compacted,
                Err(_) => telemetry::incr("serve.store", "ir_compaction_error", 1),
            }
        }
        let index = kept
            .iter()
            .map(|(fp, live)| (*fp, (live.at, live.ir_len)))
            .collect();
        let requests = kept
            .into_iter()
            .map(|(fp, live)| (live.request, fp))
            .collect();
        Ok((
            IrArtifacts(Mutex::new(Sidecar { file, index, end })),
            requests,
        ))
    }

    /// The text recorded for `fp`, if its record is intact and was recorded
    /// for exactly `entry`'s cycles and ordering.
    pub(crate) fn get(&self, fp: u64, entry: &BestEntry) -> Option<String> {
        let frame = {
            let mut s = lock_recover(&self.0);
            let &(offset, len) = s.index.get(&fp)?;
            let mut frame = vec![0; len];
            s.file.seek(SeekFrom::Start(offset)).ok()?;
            s.file.read_exact(&mut frame).ok()?;
            frame
        };
        let rec = faultfs::split_frame(&frame).and_then(|(p, _)| decode(p))?;
        if rec.fp != fp || !rec.answers(entry) {
            return None;
        }
        String::from_utf8(rec.text.to_vec()).ok()
    }

    /// Append `text` as the IR of `entry`, the answer for `fp` computed
    /// for the request `request`. Not synced: the store's record is the
    /// acknowledgment, this is a cache of it.
    ///
    /// # Errors
    ///
    /// The failed write. The index is unchanged and the next append starts
    /// where this one did, over whatever part of it landed.
    pub(crate) fn put(
        &self,
        fp: u64,
        entry: &BestEntry,
        request: &str,
        text: &str,
    ) -> io::Result<()> {
        let mut bytes = MAGIC.to_vec();
        faultfs::push_frame(&mut bytes, &encode(fp, entry, text)?);
        let ir_len = bytes.len() - MAGIC.len();
        let mut payload = Vec::with_capacity(8 + request.len());
        payload.extend_from_slice(&fp.to_le_bytes());
        payload.extend_from_slice(request.as_bytes());
        faultfs::push_frame(&mut bytes, &payload);
        let s = &mut *lock_recover(&self.0);
        // A fresh file gets its header with its first record.
        let from = if s.end == 0 { 0 } else { MAGIC.len() };
        s.file.seek(SeekFrom::Start(s.end))?;
        faultfs::write_all(&mut s.file, &bytes[from..], "store.ir")?;
        let at = s.end + (MAGIC.len() - from) as u64;
        s.end = at + (bytes.len() - MAGIC.len()) as u64;
        s.index.insert(fp, (at, ir_len));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::slice::from_ref;

    fn tmp(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "autophase_artifacts_{}_{name}.log.ir",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    fn entry(cycles: u64, seq: &[u16]) -> BestEntry {
        BestEntry {
            cycles,
            baseline_cycles: cycles * 2,
            seq: seq.to_vec(),
        }
    }

    /// An answer: its fingerprint, entry, request text and IR text.
    type Answer = (u64, BestEntry, String, String);

    /// Three answers, each with texts of its own.
    fn three() -> [Answer; 3] {
        [
            (
                1,
                entry(100, &[31, 38]),
                "define a".into(),
                "; module a\n".repeat(3),
            ),
            (2, entry(50, &[]), "define b".into(), "; module b\n".into()),
            (
                3,
                entry(70, &[23]),
                "define c\n".repeat(2),
                "; module c\ndefine i32 @main()\n".into(),
            ),
        ]
    }

    /// The store the sidecar is opened against: `records` are live.
    fn store(records: &[Answer]) -> HashMap<u64, BestEntry> {
        records
            .iter()
            .map(|(fp, e, _, _)| (*fp, e.clone()))
            .collect()
    }

    fn open(path: &Path, live: &HashMap<u64, BestEntry>) -> (IrArtifacts, Vec<(String, u64)>) {
        IrArtifacts::open(path, |fp| live.get(&fp)).unwrap()
    }

    fn put(a: &IrArtifacts, (fp, e, request, text): &Answer) {
        a.put(*fp, e, request, text).unwrap();
    }

    /// What `open` hands the front memo for `records`, in their order.
    fn requests(records: &[Answer]) -> Vec<(String, u64)> {
        records
            .iter()
            .map(|(fp, _, request, _)| (request.clone(), *fp))
            .collect()
    }

    fn served(a: &IrArtifacts, records: &[Answer]) -> Vec<bool> {
        records
            .iter()
            .map(|(fp, e, _, text)| match a.get(*fp, e) {
                Some(got) => {
                    assert_eq!(&got, text, "fp {fp} served another text");
                    true
                }
                None => false,
            })
            .collect()
    }

    #[test]
    fn artifacts_survive_a_reopen() {
        let path = tmp("reopen");
        let records = three();
        let live = store(&records);
        {
            let (a, preload) = open(&path, &live);
            assert!(preload.is_empty());
            assert_eq!(served(&a, &records), [false; 3]);
            records.iter().for_each(|r| put(&a, r));
            assert_eq!(served(&a, &records), [true; 3]);
        }
        let (a, preload) = open(&path, &live);
        assert_eq!(served(&a, &records), [true; 3]);
        assert_eq!(preload, requests(&records), "oldest first");
        let _ = std::fs::remove_file(&path);
    }

    /// Cut the file at every byte: reopen keeps exactly the records wholly
    /// before the cut (none while the header is short; a record cut
    /// between its two frames is gone), truncates the rest, and the next
    /// append lands where the good prefix ends.
    #[test]
    fn a_cut_at_every_byte_is_truncated_and_appends_resume() {
        let path = tmp("cut");
        let records = three();
        let late: Answer = (9, entry(10, &[7, 8]), "late".into(), "; late\n".into());
        let live = store(&[records.as_slice(), from_ref(&late)].concat());
        let mut ends = vec![MAGIC.len() as u64];
        {
            let (a, _) = open(&path, &live);
            for r in &records {
                put(&a, r);
                ends.push(len(&path));
            }
        }
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let intact = ends[1..].iter().filter(|&&e| e <= cut as u64).count();
            let good = if cut < MAGIC.len() { 0 } else { ends[intact] };
            let (a, preload) = open(&path, &live);
            let want: Vec<bool> = (0..3).map(|i| i < intact).collect();
            assert_eq!(served(&a, &records), want, "cut at {cut}");
            assert_eq!(preload, requests(&records[..intact]), "cut at {cut}");
            assert_eq!(len(&path), good, "cut at {cut}");
            put(&a, &late);
            drop(a);
            let (a, preload) = open(&path, &live);
            assert_eq!(served(&a, &records), want, "cut at {cut}, reopened");
            assert_eq!(served(&a, from_ref(&late)), [true]);
            assert_eq!(preload.len(), intact + 1);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A flipped byte in the middle record's IR: reopen keeps the records
    /// before it and never serves it or anything after it. A flip after
    /// open is caught by the read's own checksum. A flip in a request
    /// frame is not read by a hit, and reopen drops its record.
    #[test]
    fn a_corrupt_middle_record_is_never_served() {
        let path = tmp("corrupt");
        let records = three();
        let live = store(&records);
        let (a, _) = open(&path, &live);
        let mut ends = vec![len(&path)];
        for r in &records {
            put(&a, r);
            ends.push(len(&path));
        }
        let clean = std::fs::read(&path).unwrap();
        // Past the IR frame's length, inside its payload.
        let mut bytes = clean.clone();
        bytes[ends[1] as usize + 6] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(served(&a, &records), [true, false, true], "while open");
        drop(a);
        let (a, preload) = open(&path, &live);
        assert_eq!(served(&a, &records), [true, false, false]);
        assert_eq!(preload, requests(&records[..1]));
        assert_eq!(len(&path), ends[1]);
        drop(a);

        // The last byte before the record's end is its request checksum's.
        let mut bytes = clean;
        bytes[ends[2] as usize - 1] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let (a, preload) = open(&path, &live);
        assert_eq!(served(&a, &records), [true, false, false]);
        assert_eq!(preload, requests(&records[..1]));
        assert_eq!(len(&path), ends[1]);
        let _ = std::fs::remove_file(&path);
    }

    /// Only the live entry's own record is served: not one for worse
    /// cycles (superseded by a strictly better record), not one for another
    /// ordering, and after a retired entry is recomputed, only the new one.
    #[test]
    fn an_artifact_of_another_entry_is_never_served() {
        let path = tmp("stale");
        let recomputed = entry(120, &[23]);
        let live = HashMap::from([(1, recomputed.clone())]);
        let (a, _) = open(&path, &live);
        let old = entry(100, &[31, 38]);
        a.put(1, &old, "req", "old").unwrap();
        for other in [
            entry(90, &[31, 38]),
            entry(100, &[31]),
            entry(100, &[31, 38, 30]),
            entry(100, &[38, 31]),
        ] {
            assert_eq!(a.get(1, &other), None, "{other:?}");
        }
        assert_eq!(a.get(2, &old), None, "another fingerprint");

        a.put(1, &recomputed, "req", "new").unwrap();
        assert_eq!(a.get(1, &old), None, "the retired entry's record");
        assert_eq!(a.get(1, &recomputed).as_deref(), Some("new"));
        drop(a);
        let (a, _) = open(&path, &live);
        assert_eq!(a.get(1, &old), None);
        assert_eq!(a.get(1, &recomputed).as_deref(), Some("new"));
        let _ = std::fs::remove_file(&path);
    }

    /// Open rewrites the file to the live records once the dead ones are
    /// half of it or more, and not before: a superseded entry's record is
    /// dropped, the live one kept, served and preloaded, and appends go on
    /// after it.
    #[test]
    fn compaction_drops_a_superseded_record_and_keeps_the_live_one() {
        let path = tmp("compact");
        let [a0, b, c] = three();
        let better = (a0.0, entry(90, &[31]), a0.2.clone(), "; module a'\n".into());
        {
            let (a, _) = open(&path, &store(&[a0.clone(), b.clone(), c.clone()]));
            [&a0, &b, &better, &c].into_iter().for_each(|r| put(&a, r));
        }
        let size = len(&path);

        // One dead record of four: kept as it is.
        let live = store(&[better.clone(), b.clone(), c.clone()]);
        let (a, preload) = open(&path, &live);
        assert_eq!(len(&path), size, "below the threshold");
        assert_eq!(served(&a, from_ref(&a0)), [false]);
        assert_eq!(
            served(&a, &[b.clone(), better.clone(), c.clone()]),
            [true; 3]
        );
        assert_eq!(preload, requests(&[b.clone(), better.clone(), c.clone()]));
        drop(a);

        // `c` retired as well: half the records are dead, so only the
        // live two are written back, in their order.
        let live = store(&[b.clone(), better.clone()]);
        let (a, preload) = open(&path, &live);
        let mut want = MAGIC.to_vec();
        for (fp, e, request, text) in [&b, &better] {
            faultfs::push_frame(&mut want, &encode(*fp, e, text).unwrap());
            faultfs::push_frame(&mut want, &[&fp.to_le_bytes(), request.as_bytes()].concat());
        }
        assert_eq!(std::fs::read(&path).unwrap(), want, "the live records only");
        assert_eq!(served(&a, &[b.clone(), better.clone()]), [true; 2]);
        assert_eq!(preload, requests(&[b.clone(), better.clone()]));
        put(&a, &c);
        drop(a);
        let (a, _) = open(&path, &store(&[b.clone(), better.clone(), c.clone()]));
        assert_eq!(served(&a, &[b, better, c]), [true; 3]);
        let _ = std::fs::remove_file(&path);
    }

    /// A sidecar of the first layout holds no request texts: it is
    /// dropped as a lost one is, and the next append starts the new
    /// layout.
    #[test]
    fn a_first_layout_sidecar_is_dropped_and_rebuilt() {
        let path = tmp("v1");
        let [r, ..] = three();
        let mut v1 = MAGIC_V1.to_vec();
        faultfs::push_frame(&mut v1, &encode(r.0, &r.1, &r.3).unwrap());
        std::fs::write(&path, &v1).unwrap();
        let live = store(from_ref(&r));
        let (a, preload) = open(&path, &live);
        assert!(preload.is_empty());
        assert_eq!(served(&a, from_ref(&r)), [false]);
        assert_eq!(len(&path), 0);
        put(&a, &r);
        drop(a);
        assert!(std::fs::read(&path).unwrap().starts_with(MAGIC));
        let (a, preload) = open(&path, &live);
        assert_eq!(served(&a, from_ref(&r)), [true]);
        assert_eq!(preload, requests(&[r]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refuses_to_clobber_a_foreign_file() {
        let path = tmp("foreign");
        std::fs::write(&path, b"definitely not a sidecar").unwrap();
        let err = IrArtifacts::open(&path, |_| None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).unwrap(), b"definitely not a sidecar");
        let _ = std::fs::remove_file(&path);
    }
}
