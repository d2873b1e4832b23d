//! Append-only on-disk log backend with CRC-framed records.
//!
//! Layout: a state directory holding numbered segment files
//! (`seg-000001.log`, `seg-000002.log`, ...). Every mutation — `put`,
//! `append`, and the per-open generation bump — is one framed record in the
//! active segment:
//!
//! ```text
//! [payload len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! The payload is a wire-encoded op (put / append / generation bump).
//! Opening the store replays every segment in order to rebuild the live
//! tables. A record that fails to frame or checksum in the *tail* segment is
//! treated as a torn crash-time write: the file is truncated at the last
//! good offset and the open succeeds. The same failure in a sealed
//! (non-tail) segment means history is missing, so the open refuses with
//! [`StoreError::Corrupt`].
//!
//! A failed write may leave a torn frame, which the next open truncates
//! from, so the store then refuses every write until it is reopened.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use refstate_wire::{Reader, Writer};

use crate::crc::crc32;
use crate::{ScanEntries, StateStore, StoreError};

/// Records larger than this are rejected at write time and treated as frame
/// corruption at replay time.
pub const MAX_RECORD: usize = 16 * 1024 * 1024;

/// Default segment rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

const FRAME_HEADER: usize = 8;

const OP_PUT: u8 = 1;
const OP_APPEND: u8 = 2;
const OP_GEN_BUMP: u8 = 3;

#[derive(Default)]
struct Tables {
    kv: BTreeMap<String, BTreeMap<Vec<u8>, Vec<u8>>>,
    logs: BTreeMap<String, Vec<Vec<u8>>>,
}

struct Inner {
    tables: Tables,
    active: File,
    active_len: u64,
    next_seg: u64,
    /// Set by the first failed write; every later one is refused.
    faulted: bool,
}

/// Durable [`StateStore`] over an append-only segmented log.
pub struct LogStore {
    dir: PathBuf,
    segment_bytes: u64,
    generation: u64,
    inner: Mutex<Inner>,
}

fn segment_name(index: u64) -> String {
    format!("seg-{index:06}.log")
}

/// Appends `payload`'s frame to `out`, refusing a payload over
/// [`MAX_RECORD`].
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), StoreError> {
    if payload.len() > MAX_RECORD {
        return Err(StoreError::RecordTooLarge {
            len: payload.len(),
            max: MAX_RECORD,
        });
    }
    out.reserve(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// The `ns` entry of `map`, made if missing: only then is the name copied.
fn entry<'m, T: Default>(map: &'m mut BTreeMap<String, T>, ns: &str) -> &'m mut T {
    if !map.contains_key(ns) {
        map.insert(ns.to_owned(), T::default());
    }
    map.get_mut(ns).expect("inserted above")
}

fn encode_put(ns: &str, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(OP_PUT);
    w.put_str(ns);
    w.put_bytes(key);
    w.put_bytes(value);
    w.into_inner()
}

fn encode_append(ns: &str, record: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(OP_APPEND);
    w.put_str(ns);
    w.put_bytes(record);
    w.into_inner()
}

fn encode_gen_bump() -> Vec<u8> {
    vec![OP_GEN_BUMP]
}

fn apply(tables: &mut Tables, payload: &[u8], bumps: &mut u64) -> Result<(), String> {
    let mut r = Reader::new(payload);
    match r.take_u8().map_err(|e| e.to_string())? {
        OP_PUT => {
            let ns = r.take_str().map_err(|e| e.to_string())?.to_owned();
            let key = r.take_bytes().map_err(|e| e.to_string())?.to_vec();
            let value = r.take_bytes().map_err(|e| e.to_string())?.to_vec();
            r.finish().map_err(|e| e.to_string())?;
            tables.kv.entry(ns).or_default().insert(key, value);
            Ok(())
        }
        OP_APPEND => {
            let ns = r.take_str().map_err(|e| e.to_string())?.to_owned();
            let record = r.take_bytes().map_err(|e| e.to_string())?.to_vec();
            r.finish().map_err(|e| e.to_string())?;
            tables.logs.entry(ns).or_default().push(record);
            Ok(())
        }
        OP_GEN_BUMP => {
            r.finish().map_err(|e| e.to_string())?;
            *bumps += 1;
            Ok(())
        }
        op => Err(format!("unknown op tag {op}")),
    }
}

/// Why replay of one segment stopped early.
enum TailFault {
    /// Frame header or payload extends past end-of-file (torn write).
    Torn { offset: u64 },
    /// Frame is complete but fails its CRC or advertises an absurd length.
    Bad { offset: u64, detail: String },
}

/// Replays one segment into `tables`. Returns `Ok(None)` if every byte was a
/// valid record, `Ok(Some(fault))` if replay stopped at a bad tail.
fn replay_segment(
    path: &Path,
    tables: &mut Tables,
    bumps: &mut u64,
) -> Result<Option<TailFault>, StoreError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut offset = 0usize;
    while offset < bytes.len() {
        if bytes.len() - offset < FRAME_HEADER {
            return Ok(Some(TailFault::Torn {
                offset: offset as u64,
            }));
        }
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let want = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD {
            return Ok(Some(TailFault::Bad {
                offset: offset as u64,
                detail: format!("frame length {len} exceeds {MAX_RECORD}"),
            }));
        }
        if bytes.len() - offset - FRAME_HEADER < len {
            return Ok(Some(TailFault::Torn {
                offset: offset as u64,
            }));
        }
        let payload = &bytes[offset + FRAME_HEADER..offset + FRAME_HEADER + len];
        let got = crc32(payload);
        if got != want {
            return Ok(Some(TailFault::Bad {
                offset: offset as u64,
                detail: format!("crc mismatch: stored {want:#010x}, computed {got:#010x}"),
            }));
        }
        if let Err(detail) = apply(tables, payload, bumps) {
            return Ok(Some(TailFault::Bad {
                offset: offset as u64,
                detail,
            }));
        }
        offset += FRAME_HEADER + len;
    }
    Ok(None)
}

impl LogStore {
    /// Opens (or creates) the store in `dir` with the default segment size,
    /// and stamps the open ([`LogStore::stamp`]).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        LogStore::open_with_segment_bytes(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`LogStore::open`] with an explicit rotation threshold (small values
    /// force rotation in tests).
    pub fn open_with_segment_bytes(
        dir: impl AsRef<Path>,
        segment_bytes: u64,
    ) -> Result<Self, StoreError> {
        let store = LogStore::open_at(dir.as_ref(), segment_bytes)?;
        store.stamp()?;
        Ok(store)
    }

    /// Opens (or creates) the store in `dir` with the default segment size
    /// and does not stamp it: a caller can read the store, decide it cannot
    /// use it and drop it, leaving the dir as the open found it (apart from
    /// a torn tail, which any open cuts off). [`LogStore::stamp`] makes it
    /// a counted open.
    pub fn open_unstamped(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        LogStore::open_at(dir.as_ref(), DEFAULT_SEGMENT_BYTES)
    }

    /// Stamps this open, once: appends and syncs a generation bump, so the
    /// next open reads a generation one higher than [`StateStore::generation`]
    /// reads now.
    pub fn stamp(&self) -> Result<(), StoreError> {
        self.write_record(&encode_gen_bump())?;
        self.sync()
    }

    /// Replays the segments in `dir` into a store, unstamped.
    fn open_at(dir: &Path, segment_bytes: u64) -> Result<Self, StoreError> {
        let dir = dir.to_path_buf();
        fs::create_dir_all(&dir)?;

        let mut segments: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
            {
                if let Ok(index) = stem.parse::<u64>() {
                    segments.push((index, entry.path()));
                }
            }
        }
        segments.sort();

        let mut tables = Tables::default();
        let mut bumps = 0u64;
        let last = segments.len().checked_sub(1);
        for (pos, (_, path)) in segments.iter().enumerate() {
            let fault = replay_segment(path, &mut tables, &mut bumps)?;
            let segment = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let segment = segment.unwrap_or_else(|| path.display().to_string());
            match fault {
                None => {}
                Some(fault) if Some(pos) == last => {
                    // Crash-time tail: drop the bad suffix and keep going.
                    let offset = match fault {
                        TailFault::Torn { offset } | TailFault::Bad { offset, .. } => offset,
                    };
                    let file = OpenOptions::new().write(true).open(path)?;
                    file.set_len(offset)?;
                    file.sync_all()?;
                }
                Some(TailFault::Torn { offset }) => {
                    return Err(StoreError::Corrupt {
                        segment,
                        offset,
                        detail: "torn record in sealed segment".to_owned(),
                    });
                }
                Some(TailFault::Bad { offset, detail }) => {
                    return Err(StoreError::Corrupt {
                        segment,
                        offset,
                        detail,
                    });
                }
            }
        }

        let next_seg = segments.last().map(|(i, _)| i + 1).unwrap_or(1);
        let active = match segments.last() {
            Some((_, path)) => OpenOptions::new().append(true).open(path)?,
            None => {
                let path = dir.join(segment_name(next_seg));
                OpenOptions::new()
                    .create_new(true)
                    .append(true)
                    .open(&path)?
            }
        };
        let next_seg = if segments.is_empty() {
            next_seg + 1
        } else {
            next_seg
        };
        let active_len = active.metadata()?.len();

        Ok(LogStore {
            dir,
            segment_bytes,
            generation: bumps + 1,
            inner: Mutex::new(Inner {
                tables,
                active,
                active_len,
                next_seg,
                faulted: false,
            }),
        })
    }

    fn write_record(&self, payload: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("log store lock");
        self.write_record_locked(&mut inner, payload)
    }

    /// Writes one framed record to the active segment, unless an earlier
    /// write failed. Callers hold the inner lock, so a record's disk
    /// position always matches its table-apply order.
    fn write_record_locked(&self, inner: &mut Inner, payload: &[u8]) -> Result<(), StoreError> {
        let mut framed = Vec::new();
        push_frame(&mut framed, payload)?;
        self.write_frames_locked(inner, &framed)
    }

    /// Writes whole frames to the active segment in one `write_all`,
    /// unless an earlier write failed; a failed write refuses every later
    /// one.
    fn write_frames_locked(&self, inner: &mut Inner, frames: &[u8]) -> Result<(), StoreError> {
        if inner.faulted {
            return Err(StoreError::Faulted);
        }
        let written = self.write_frames(inner, frames);
        inner.faulted = written.is_err();
        written.map_err(StoreError::Io)
    }

    /// Writes `frames` onto the active segment, rotating first if the
    /// segment has reached the threshold.
    fn write_frames(&self, inner: &mut Inner, frames: &[u8]) -> std::io::Result<()> {
        if inner.active_len >= self.segment_bytes {
            inner.active.sync_all()?;
            let index = inner.next_seg;
            let path = self.dir.join(segment_name(index));
            let file = OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)?;
            inner.active = file;
            inner.active_len = 0;
            inner.next_seg = index + 1;
        }
        inner.active.write_all(frames)?;
        inner.active_len += frames.len() as u64;
        Ok(())
    }

    /// Appends `records` to the `ns` log, then puts `key = value` in
    /// `put_ns`: the effect of an [`StateStore::append`] per record and a
    /// [`StateStore::put`], written with one `write_all` under one lock.
    ///
    /// Each record and the put keep a frame of their own, so a write torn
    /// anywhere leaves the tables before the call plus a prefix of whole
    /// records on the next open. Nothing is written when any of them is
    /// too large ([`StoreError::RecordTooLarge`]).
    ///
    /// # Errors
    ///
    /// As for [`StateStore::append`]: too large, faulted by an earlier
    /// write, or the write's I/O error (after which the store is faulted).
    pub fn append_then_put(
        &self,
        ns: &str,
        records: &[impl AsRef<[u8]>],
        put_ns: &str,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), StoreError> {
        let mut frames = Vec::new();
        for record in records {
            push_frame(&mut frames, &encode_append(ns, record.as_ref()))?;
        }
        push_frame(&mut frames, &encode_put(put_ns, key, value))?;
        let mut inner = self.inner.lock().expect("log store lock");
        self.write_frames_locked(&mut inner, &frames)?;
        let log = entry(&mut inner.tables.logs, ns);
        log.extend(records.iter().map(|record| record.as_ref().to_vec()));
        entry(&mut inner.tables.kv, put_ns).insert(key.to_vec(), value.to_vec());
        Ok(())
    }
}

impl StateStore for LogStore {
    fn put(&self, ns: &str, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("log store lock");
        self.write_record_locked(&mut inner, &encode_put(ns, key, value))?;
        entry(&mut inner.tables.kv, ns).insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    fn get(&self, ns: &str, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let inner = self.inner.lock().expect("log store lock");
        Ok(inner.tables.kv.get(ns).and_then(|m| m.get(key)).cloned())
    }

    fn scan(&self, ns: &str) -> Result<ScanEntries, StoreError> {
        let inner = self.inner.lock().expect("log store lock");
        Ok(inner
            .tables
            .kv
            .get(ns)
            .map(|m| m.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default())
    }

    fn append(&self, ns: &str, record: &[u8]) -> Result<u64, StoreError> {
        let mut inner = self.inner.lock().expect("log store lock");
        self.write_record_locked(&mut inner, &encode_append(ns, record))?;
        let log = entry(&mut inner.tables.logs, ns);
        log.push(record.to_vec());
        Ok(log.len() as u64 - 1)
    }

    fn appended(&self, ns: &str) -> Result<Vec<Vec<u8>>, StoreError> {
        let inner = self.inner.lock().expect("log store lock");
        Ok(inner.tables.logs.get(ns).cloned().unwrap_or_default())
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn sync(&self) -> Result<(), StoreError> {
        let inner = self.inner.lock().expect("log store lock");
        inner.active.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_write_refuses_every_later_one_until_reopen() {
        let dir = std::env::temp_dir().join(format!("refstate-store-fault-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = LogStore::open(&dir).expect("open");
        store
            .append("log", b"before")
            .expect("append before the fault");
        store
            .put("kv", b"k", b"before")
            .expect("put before the fault");

        // A read-only handle on the active segment fails the next write.
        let read_only = File::open(dir.join(segment_name(1))).expect("segment");
        let writable = std::mem::replace(&mut store.inner.lock().unwrap().active, read_only);
        assert!(matches!(
            store.append("log", b"failed"),
            Err(StoreError::Io(_))
        ));
        store.inner.lock().unwrap().active = writable;

        // The handle works again, but nothing is taken until a reopen.
        assert!(matches!(
            store.append("log", b"after"),
            Err(StoreError::Faulted)
        ));
        assert!(matches!(
            store.put("kv", b"k", b"after"),
            Err(StoreError::Faulted)
        ));
        assert!(matches!(
            store.append_then_put("log", &[b"after"], "kv", b"k", b"after"),
            Err(StoreError::Faulted)
        ));
        drop(store);
        let reopened = LogStore::open(&dir).expect("reopen");
        assert_eq!(reopened.appended("log").unwrap(), vec![b"before".to_vec()]);
        assert_eq!(reopened.get("kv", b"k").unwrap(), Some(b"before".to_vec()));
        reopened
            .append("log", b"reopened")
            .expect("a reopen clears the fault");
        drop(reopened);
        fs::remove_dir_all(&dir).unwrap();
    }
}
