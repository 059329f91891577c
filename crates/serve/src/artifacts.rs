//! Each store answer's optimized IR, kept beside the store (DESIGN.md §4g,
//! §4j).
//!
//! The store keeps orderings, not outputs, so a hit that must carry IR
//! would otherwise re-parse its input, replay the stored passes and print.
//! This sidecar at `<store path>.ir` keeps what that replay prints,
//! appended once when the answer is first computed:
//!
//! ```text
//! "APIRTXT1"                                  // 8-byte file header
//! record := faultfs frame of
//!           fingerprint u64 | cycles u64 | n u16 | n × pass id u16 | text
//! ```
//!
//! The file is *derived*: every record can be recomputed from its store
//! entry and the request, so it is never synced and never part of an
//! acknowledgment, and losing any part of it costs replays, not answers.
//! Reopen keeps the good prefix and truncates a torn or corrupt tail, as
//! [`crate::store::BestStore`] does with its log. The index holds offsets,
//! not texts; a read re-checks the frame and serves the text only when the
//! record's `(cycles, seq)` is the live entry's, so an artifact of a
//! superseded or retired entry is never served.

use crate::store::BestEntry;
use autophase_telemetry::{faultfs, lock_recover};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const MAGIC: &[u8; 8] = b"APIRTXT1";

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
    /// Fingerprint → `(offset, length)` of its latest record's frame.
    index: HashMap<u64, (u64, usize)>,
    /// Append offset: the end of the good prefix.
    end: u64,
}

/// One record's payload, borrowed from its frame.
struct Record<'a> {
    fp: u64,
    cycles: u64,
    /// The ordering as `n` little-endian pass ids.
    seq: &'a [u8],
    text: &'a [u8],
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

impl IrArtifacts {
    /// Open (creating if absent) the sidecar at `path`, index every intact
    /// record and truncate whatever follows the first bad one.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or `InvalidData` if the file exists but is not an
    /// IR sidecar (a foreign file is left untouched).
    pub(crate) fn open(path: &Path) -> io::Result<IrArtifacts> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let size = file.metadata()?.len();
        let mut reader = BufReader::new(&file);
        let mut header = Vec::new();
        (&mut reader).take(8).read_to_end(&mut header)?;
        let mut index = HashMap::new();
        let mut end = 0;
        if header.as_slice() == MAGIC {
            end = MAGIC.len() as u64;
            // One frame at a time: the file may be far larger than the index.
            let mut frame = Vec::new();
            loop {
                let mut len = [0u8; 4];
                if reader.read_exact(&mut len).is_err() {
                    break;
                }
                let n = u64::from(u32::from_le_bytes(len)) + 12;
                if n > size - end {
                    break; // a length past the end of the file
                }
                frame.clear();
                frame.extend_from_slice(&len);
                frame.resize(n as usize, 0);
                if reader.read_exact(&mut frame[4..]).is_err() {
                    break;
                }
                let Some(rec) = faultfs::split_frame(&frame).and_then(|(p, _)| decode(p)) else {
                    break;
                };
                index.insert(rec.fp, (end, frame.len()));
                end += n;
            }
        } else if !MAGIC.starts_with(&header) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not an autophase IR sidecar", path.display()),
            ));
        }
        // Otherwise empty, or its first append tore inside the header.
        drop(reader);
        if end < size {
            file.set_len(end)?;
        }
        Ok(IrArtifacts(Mutex::new(Sidecar { file, index, end })))
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
        let same_seq = rec
            .seq
            .chunks_exact(2)
            .map(|b| u16::from_le_bytes([b[0], b[1]]))
            .eq(entry.seq.iter().copied());
        if rec.fp != fp || rec.cycles != entry.cycles || !same_seq {
            return None;
        }
        String::from_utf8(rec.text.to_vec()).ok()
    }

    /// Append `text` as the IR of `entry`, the answer for `fp`. Not synced:
    /// the store's record is the acknowledgment, this is a cache of it.
    ///
    /// # Errors
    ///
    /// The failed write. The index is unchanged and the next append starts
    /// where this one did, over whatever part of it landed.
    pub(crate) fn put(&self, fp: u64, entry: &BestEntry, text: &str) -> io::Result<()> {
        let mut bytes = MAGIC.to_vec();
        faultfs::push_frame(&mut bytes, &encode(fp, entry, text)?);
        let len = bytes.len() - MAGIC.len();
        let s = &mut *lock_recover(&self.0);
        // A fresh file gets its header with its first record.
        let from = if s.end == 0 { 0 } else { MAGIC.len() };
        s.file.seek(SeekFrom::Start(s.end))?;
        faultfs::write_all(&mut s.file, &bytes[from..], "store.ir")?;
        s.end += (bytes.len() - from) as u64;
        s.index.insert(fp, (s.end - len as u64, len));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Three answers, each with a text of its own.
    fn three() -> [(u64, BestEntry, String); 3] {
        [
            (1, entry(100, &[31, 38]), "; module a\n".repeat(3)),
            (2, entry(50, &[]), "; module b\n".to_string()),
            (
                3,
                entry(70, &[23]),
                "; module c\ndefine i32 @main()\n".into(),
            ),
        ]
    }

    fn served(a: &IrArtifacts, records: &[(u64, BestEntry, String)]) -> Vec<bool> {
        records
            .iter()
            .map(|(fp, e, text)| match a.get(*fp, e) {
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
        {
            let a = IrArtifacts::open(&path).unwrap();
            assert_eq!(served(&a, &records), [false; 3]);
            for (fp, e, text) in &records {
                a.put(*fp, e, text).unwrap();
            }
            assert_eq!(served(&a, &records), [true; 3]);
        }
        let a = IrArtifacts::open(&path).unwrap();
        assert_eq!(served(&a, &records), [true; 3]);
        let _ = std::fs::remove_file(&path);
    }

    /// Cut the file at every byte: reopen keeps exactly the records wholly
    /// before the cut (none while the header is short), truncates the rest,
    /// and the next append lands where the good prefix ends.
    #[test]
    fn a_cut_at_every_byte_is_truncated_and_appends_resume() {
        let path = tmp("cut");
        let records = three();
        let mut ends = vec![MAGIC.len() as u64];
        {
            let a = IrArtifacts::open(&path).unwrap();
            for (fp, e, text) in &records {
                a.put(*fp, e, text).unwrap();
                ends.push(len(&path));
            }
        }
        let full = std::fs::read(&path).unwrap();
        let late = (9, entry(10, &[7, 8]), "; late\n".to_string());
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let intact = ends[1..].iter().filter(|&&e| e <= cut as u64).count();
            let good = if cut < MAGIC.len() { 0 } else { ends[intact] };
            let a = IrArtifacts::open(&path).unwrap();
            let want: Vec<bool> = (0..3).map(|i| i < intact).collect();
            assert_eq!(served(&a, &records), want, "cut at {cut}");
            assert_eq!(len(&path), good, "cut at {cut}");
            a.put(late.0, &late.1, &late.2).unwrap();
            drop(a);
            let a = IrArtifacts::open(&path).unwrap();
            assert_eq!(served(&a, &records), want, "cut at {cut}, reopened");
            assert_eq!(a.get(late.0, &late.1).as_deref(), Some(late.2.as_str()));
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A flipped byte in the middle record: reopen keeps the records before
    /// it and never serves it or anything after it. A flip after open is
    /// caught by the read's own checksum.
    #[test]
    fn a_corrupt_middle_record_is_never_served() {
        let path = tmp("corrupt");
        let records = three();
        let a = IrArtifacts::open(&path).unwrap();
        let mut ends = vec![len(&path)];
        for (fp, e, text) in &records {
            a.put(*fp, e, text).unwrap();
            ends.push(len(&path));
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = ((ends[1] + ends[2]) / 2) as usize;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(served(&a, &records), [true, false, true], "while open");
        drop(a);

        let a = IrArtifacts::open(&path).unwrap();
        assert_eq!(served(&a, &records), [true, false, false]);
        assert_eq!(len(&path), ends[1]);
        let _ = std::fs::remove_file(&path);
    }

    /// Only the live entry's own record is served: not one for worse
    /// cycles (superseded by a strictly better record), not one for another
    /// ordering, and after a retired entry is recomputed, only the new one.
    #[test]
    fn an_artifact_of_another_entry_is_never_served() {
        let path = tmp("stale");
        let a = IrArtifacts::open(&path).unwrap();
        let old = entry(100, &[31, 38]);
        a.put(1, &old, "old").unwrap();
        for other in [
            entry(90, &[31, 38]),
            entry(100, &[31]),
            entry(100, &[31, 38, 30]),
            entry(100, &[38, 31]),
        ] {
            assert_eq!(a.get(1, &other), None, "{other:?}");
        }
        assert_eq!(a.get(2, &old), None, "another fingerprint");

        let recomputed = entry(120, &[23]);
        a.put(1, &recomputed, "new").unwrap();
        assert_eq!(a.get(1, &old), None, "the retired entry's record");
        assert_eq!(a.get(1, &recomputed).as_deref(), Some("new"));
        drop(a);
        let a = IrArtifacts::open(&path).unwrap();
        assert_eq!(a.get(1, &old), None);
        assert_eq!(a.get(1, &recomputed).as_deref(), Some("new"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refuses_to_clobber_a_foreign_file() {
        let path = tmp("foreign");
        std::fs::write(&path, b"definitely not a sidecar").unwrap();
        let err = IrArtifacts::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).unwrap(), b"definitely not a sidecar");
        let _ = std::fs::remove_file(&path);
    }
}
