//! Crash-path coverage for the on-disk backend: torn tails, CRC damage in
//! live and sealed segments, a batched write torn at every byte,
//! replay-on-open idempotence, rotation, and the generation stamp.

use std::fs::{self, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use refstate_store::{LogStore, StateStore, StoreError};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("refstate-store-{tag}-{}-{seq}", std::process::id()));
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn segment_paths(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read state dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    segs
}

fn populate(store: &LogStore) {
    for i in 0..20u32 {
        store
            .put("kv", &i.to_be_bytes(), format!("value-{i}").as_bytes())
            .unwrap();
        store
            .append("log", format!("record-{i}").as_bytes())
            .unwrap();
    }
    store.sync().unwrap();
}

#[test]
fn truncated_tail_record_recovers_the_prefix() {
    let dir = TempDir::new("torn");
    {
        let store = LogStore::open(dir.path()).unwrap();
        populate(&store);
    }
    // Chop mid-record: drop the last 3 bytes of the tail segment, leaving a
    // frame whose payload extends past end-of-file.
    let tail = segment_paths(dir.path()).pop().unwrap();
    let len = fs::metadata(&tail).unwrap().len();
    OpenOptions::new()
        .write(true)
        .open(&tail)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let store = LogStore::open(dir.path()).unwrap();
    // The torn record was the last append ("record-19"); everything before
    // it must replay.
    let appended = store.appended("log").unwrap();
    assert_eq!(appended.len(), 19, "only the torn tail record may be lost");
    assert_eq!(appended[18], b"record-18".to_vec());
    assert_eq!(store.scan("kv").unwrap().len(), 20);
    // The truncated file must no longer hold the torn suffix.
    assert!(fs::metadata(&tail).unwrap().len() < len - 3 + 1);
}

#[test]
fn crc_mismatch_in_the_tail_segment_truncates_at_the_damage() {
    let dir = TempDir::new("crc-tail");
    {
        let store = LogStore::open(dir.path()).unwrap();
        populate(&store);
    }
    // Flip one payload byte 40 bytes before end-of-file: the record framing
    // still parses but its CRC no longer matches.
    let tail = segment_paths(dir.path()).pop().unwrap();
    let len = fs::metadata(&tail).unwrap().len();
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&tail)
        .unwrap();
    file.seek(SeekFrom::Start(len - 40)).unwrap();
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte).unwrap();
    byte[0] ^= 0xff;
    file.seek(SeekFrom::Start(len - 40)).unwrap();
    file.write_all(&byte).unwrap();
    file.sync_all().unwrap();
    drop(file);

    let store = LogStore::open(dir.path()).unwrap();
    // Damage near the tail loses at most the damaged record and its
    // successors; the long prefix survives.
    let appended = store.appended("log").unwrap();
    assert!(
        appended.len() >= 17,
        "prefix lost: {} records",
        appended.len()
    );
    assert!(appended.len() < 20, "damaged record must not replay");
    for (i, record) in appended.iter().enumerate() {
        assert_eq!(record, format!("record-{i}").as_bytes());
    }
    // The file was truncated at the damage, so a further reopen is clean.
    drop(store);
    let reopened = LogStore::open(dir.path()).unwrap();
    assert_eq!(reopened.appended("log").unwrap(), appended);
}

#[test]
fn crc_mismatch_in_a_sealed_segment_is_a_hard_error() {
    let dir = TempDir::new("crc-sealed");
    {
        // Tiny rotation threshold: 20 puts + 20 appends span many segments.
        let store = LogStore::open_with_segment_bytes(dir.path(), 128).unwrap();
        populate(&store);
    }
    let segs = segment_paths(dir.path());
    assert!(segs.len() >= 3, "rotation produced {} segments", segs.len());
    // Corrupt a payload byte in the middle of the FIRST (sealed) segment.
    let sealed = &segs[0];
    let len = fs::metadata(sealed).unwrap().len();
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(sealed)
        .unwrap();
    file.seek(SeekFrom::Start(len / 2)).unwrap();
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte).unwrap();
    byte[0] ^= 0xff;
    file.seek(SeekFrom::Start(len / 2)).unwrap();
    file.write_all(&byte).unwrap();
    file.sync_all().unwrap();
    drop(file);

    match LogStore::open(dir.path()) {
        Err(StoreError::Corrupt { segment, .. }) => {
            assert_eq!(segment, sealed.file_name().unwrap().to_string_lossy());
        }
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("open must refuse a corrupt sealed segment"),
    }
}

#[test]
fn replay_on_open_is_idempotent() {
    let dir = TempDir::new("idem");
    {
        let store = LogStore::open(dir.path()).unwrap();
        populate(&store);
    }
    let (scan1, log1) = {
        let store = LogStore::open(dir.path()).unwrap();
        store.append("log", b"extra").unwrap();
        store.sync().unwrap();
        (store.scan("kv").unwrap(), store.appended("log").unwrap())
    };
    // open → append → reopen → identical scan (plus the one new record).
    let store = LogStore::open(dir.path()).unwrap();
    assert_eq!(store.scan("kv").unwrap(), scan1);
    assert_eq!(store.appended("log").unwrap(), log1);
    assert_eq!(log1.last().unwrap(), b"extra");
    drop(store);
    // A third open with no writes in between changes nothing but generation.
    let store = LogStore::open(dir.path()).unwrap();
    assert_eq!(store.scan("kv").unwrap(), scan1);
    assert_eq!(store.appended("log").unwrap(), log1);
}

#[test]
fn generation_counts_durable_opens() {
    let dir = TempDir::new("gen");
    for expected in 1..=4u64 {
        let store = LogStore::open(dir.path()).unwrap();
        assert_eq!(store.generation(), expected);
    }
}

#[test]
fn rotation_spreads_records_over_segments_and_replays_them_all() {
    let dir = TempDir::new("rotate");
    {
        let store = LogStore::open_with_segment_bytes(dir.path(), 256).unwrap();
        for i in 0..100u32 {
            store.append("log", format!("r{i}").as_bytes()).unwrap();
        }
        store.put("kv", b"k", b"v").unwrap();
        store.sync().unwrap();
    }
    assert!(segment_paths(dir.path()).len() > 1, "expected rotation");
    let store = LogStore::open(dir.path()).unwrap();
    let appended = store.appended("log").unwrap();
    assert_eq!(appended.len(), 100);
    assert_eq!(appended[99], b"r99");
    assert_eq!(store.get("kv", b"k").unwrap(), Some(b"v".to_vec()));
}

#[test]
fn oversized_records_are_rejected_up_front() {
    let dir = TempDir::new("huge");
    let store = LogStore::open(dir.path()).unwrap();
    let huge = vec![0u8; refstate_store::MAX_RECORD + 1];
    match store.append("log", &huge) {
        Err(StoreError::RecordTooLarge { .. }) => {}
        other => panic!("expected RecordTooLarge, got {other:?}"),
    }
    // The store stays usable after the rejection.
    store.append("log", b"small").unwrap();
    assert_eq!(store.appended("log").unwrap(), vec![b"small".to_vec()]);
}

#[test]
fn a_batch_torn_at_any_byte_reopens_to_a_whole_record_prefix() {
    let dir = TempDir::new("batch");
    let records: Vec<Vec<u8>> = (0..4).map(|i| format!("line-{i}").into_bytes()).collect();
    let (segment, start, end) = {
        let store = LogStore::open(dir.path()).unwrap();
        store.append("log", b"before").unwrap();
        store.put("cp", b"owner", b"v0").unwrap();
        let segment = segment_paths(dir.path()).pop().expect("one segment");
        let start = fs::metadata(&segment).unwrap().len() as usize;
        store
            .append_then_put("log", &records, "cp", b"owner", b"v1")
            .unwrap();
        store.sync().unwrap();
        let end = fs::metadata(&segment).unwrap().len() as usize;
        (segment, start, end)
    };
    // One frame per record: header (8) + op (1) + "log" (4 + 3) + the
    // record (4 + 6); then the put's: header + op + "cp" (4 + 2) +
    // "owner" (4 + 5) + "v1" (4 + 2).
    let record_frame = 8 + 1 + 4 + 3 + 4 + 6;
    assert_eq!(end - start, 4 * record_frame + 8 + 1 + 6 + 9 + 6);
    let written = fs::read(&segment).unwrap();
    for cut in start..=end {
        fs::write(&segment, &written[..cut]).unwrap();
        let store = LogStore::open_unstamped(dir.path()).unwrap();
        let whole = ((cut - start) / record_frame).min(records.len());
        let mut expected = vec![b"before".to_vec()];
        expected.extend_from_slice(&records[..whole]);
        assert_eq!(store.appended("log").unwrap(), expected, "cut at {cut}");
        let checkpoint: &[u8] = if cut == end { b"v1" } else { b"v0" };
        assert_eq!(
            store.get("cp", b"owner").unwrap().as_deref(),
            Some(checkpoint),
            "cut at {cut}"
        );
    }
}

#[test]
fn an_oversized_record_fails_its_whole_batch_before_any_write() {
    let dir = TempDir::new("huge-batch");
    let store = LogStore::open(dir.path()).unwrap();
    let segment = segment_paths(dir.path()).pop().expect("one segment");
    let before = fs::read(&segment).unwrap();
    let huge = vec![0u8; refstate_store::MAX_RECORD + 1];
    match store.append_then_put("log", &[b"small".to_vec(), huge], "cp", b"k", b"v") {
        Err(StoreError::RecordTooLarge { .. }) => {}
        other => panic!("expected RecordTooLarge, got {other:?}"),
    }
    assert_eq!(fs::read(&segment).unwrap(), before);
    assert!(store.appended("log").unwrap().is_empty());
    assert_eq!(store.get("cp", b"k").unwrap(), None);
    // The store stays usable after the rejection.
    store
        .append_then_put("log", &[b"small"], "cp", b"k", b"v")
        .unwrap();
    assert_eq!(store.appended("log").unwrap(), vec![b"small".to_vec()]);
    assert_eq!(store.get("cp", b"k").unwrap(), Some(b"v".to_vec()));
}
