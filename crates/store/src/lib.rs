//! Persistence backends for owner-side verification state.
//!
//! The paper's owner keeps state a restart cannot re-derive: its
//! registrations and the verdict streams it has already answered.
//! [`StateStore`] is the small storage contract that state sits behind:
//! namespaced key/value records plus namespaced append-only record logs,
//! with a generation stamp that counts how many times the store has been
//! opened.
//!
//! One backend ships with the crate: [`LogStore`], an append-only on-disk
//! log with CRC-framed records, segment rotation, and crash-safe
//! replay-on-open (a torn or corrupt tail record is truncated away;
//! corruption in a sealed segment is an error). After a failed write it
//! refuses every later one until it is reopened, so nothing is
//! acknowledged behind a torn frame.

mod crc;
mod log;

pub use crc::crc32;
pub use log::{LogStore, DEFAULT_SEGMENT_BYTES, MAX_RECORD};

use std::fmt;

/// Errors surfaced by a [`StateStore`] backend.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A sealed (non-tail) segment holds a record that fails its CRC or
    /// cannot be decoded; replay refuses to guess at the missing history.
    Corrupt {
        segment: String,
        offset: u64,
        detail: String,
    },
    /// A record exceeded the maximum frame size.
    RecordTooLarge { len: usize, max: usize },
    /// An earlier write failed, so the store refuses every write until it
    /// is reopened: a write after a torn frame would be acknowledged and
    /// then lost when the next open truncates the tail from the tear.
    Faulted,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "store io error: {err}"),
            StoreError::Corrupt {
                segment,
                offset,
                detail,
            } => {
                write!(
                    f,
                    "corrupt record in sealed segment {segment} at offset {offset}: {detail}"
                )
            }
            StoreError::RecordTooLarge { len, max } => {
                write!(
                    f,
                    "record of {len} bytes exceeds the {max}-byte frame limit"
                )
            }
            StoreError::Faulted => {
                f.write_str("an earlier write failed; no write is taken until a reopen")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        StoreError::Io(err)
    }
}

/// A namespace's live key/value pairs, as returned by [`StateStore::scan`].
pub type ScanEntries = Vec<(Vec<u8>, Vec<u8>)>;

/// Namespaced storage over byte records.
///
/// Each namespace holds two independent collections: a key/value map
/// (`put`/`get`/`scan`) and an append-only record log (`append`/`appended`).
/// `scan` returns entries in ascending key order; `appended` returns records
/// in append order. Both orderings are part of the contract — callers replay
/// them to rebuild deterministic in-memory state.
pub trait StateStore: Send + Sync {
    /// Insert or overwrite `key` in `ns`.
    fn put(&self, ns: &str, key: &[u8], value: &[u8]) -> Result<(), StoreError>;

    /// Fetch the current value of `key` in `ns`, if any.
    fn get(&self, ns: &str, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError>;

    /// All live key/value pairs in `ns`, in ascending key order.
    fn scan(&self, ns: &str) -> Result<ScanEntries, StoreError>;

    /// Append `record` to the `ns` log; returns the record's index within
    /// the namespace log (0-based append order).
    fn append(&self, ns: &str, record: &[u8]) -> Result<u64, StoreError>;

    /// All records appended to `ns`, in append order.
    fn appended(&self, ns: &str) -> Result<Vec<Vec<u8>>, StoreError>;

    /// Monotonic open-generation stamp: 1 for a fresh store, incremented on
    /// each durable reopen. A warm restart observes `generation() > 1`.
    fn generation(&self) -> u64;

    /// Flush buffered writes to stable storage.
    fn sync(&self) -> Result<(), StoreError>;
}
