//! The service's state dir: the one module that knows its format.
//!
//! A state dir is a [`LogStore`] holding only what a restart cannot
//! re-derive. Host keys and compiled programs are functions of the seed
//! and the registrations, so a restart recomputes them. Four namespaces:
//!
//! * `meta` pins the service seed (key `seed`, eight little-endian bytes),
//!   since restored owners re-derive their host keys from it;
//! * `owners` holds the registrations, keyed by big-endian registration
//!   index, so scan order is registration order;
//! * `stream/<owner>` appends each owner's verdict lines in verdict order;
//! * `checkpoint` holds each owner's stream offset and FNV-1a digest.
//!
//! Opening the dir is the only read, and every fault it meets is an
//! [`OpenError`], never a panic. The write path returns the store's error.
//! A service without a state dir runs on `StateDir::memory`, a stand-in
//! whose writes persist nothing.

use std::fmt;
use std::path::{Path, PathBuf};

use refstate_store::{LogStore, StateStore, StoreError};
use refstate_wire::{Reader, WireError, Writer};

use crate::proto::RegisterOwner;

const NS_META: &str = "meta";
const NS_OWNERS: &str = "owners";
const NS_CHECKPOINT: &str = "checkpoint";

fn stream_ns(owner: &str) -> String {
    format!("stream/{owner}")
}

pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a hash — the fold behind both the
/// durable stream checkpoints and the soak's
/// [`SoakOutcome::stream_digest`](crate::soak::SoakOutcome::stream_digest),
/// so a server-side checkpoint is directly comparable to a client-side
/// stream artifact digest.
pub(crate) fn fnv_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for byte in bytes {
        hash ^= *byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// One owner's verdict-stream position: how many verdicts it has settled
/// and the running FNV-1a digest over their lines, each followed by a
/// newline.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct StreamState {
    pub(crate) offset: u64,
    pub(crate) digest: u64,
}

impl Default for StreamState {
    fn default() -> Self {
        StreamState {
            offset: 0,
            digest: FNV_BASIS,
        }
    }
}

impl StreamState {
    /// Advances the position past one verdict line.
    fn push(&mut self, line: &[u8]) {
        self.digest = fnv_fold(fnv_fold(self.digest, line), b"\n");
        self.offset += 1;
    }

    fn encode(self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.offset);
        w.put_u64(self.digest);
        w.into_inner()
    }

    fn decode(bytes: &[u8]) -> Result<StreamState, WireError> {
        let mut r = Reader::new(bytes);
        let offset = r.take_u64()?;
        let digest = r.take_u64()?;
        r.finish()?;
        Ok(StreamState { offset, digest })
    }
}

/// Why a state dir could not be opened.
#[derive(Debug)]
pub enum OpenError {
    /// The store at this path failed.
    Store(PathBuf, StoreError),
    /// The dir was created under the first seed, and the service was
    /// configured with the second.
    Seed(u64, u64),
    /// A record the service cannot use, by namespace and key (an owner
    /// name, or a hex registration index), then why: it does not decode,
    /// or it is a registration the service refuses.
    Record(&'static str, String, String),
    /// An owner's stream disagrees with its checkpoint: the owner, the
    /// checkpoint's offset and how many verdicts were appended.
    Stream(String, u64, u64),
}

impl fmt::Display for OpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenError::Store(path, error) => write!(f, "state dir {}: {error}", path.display()),
            OpenError::Seed(persisted, configured) => write!(
                f,
                "state dir was created with seed {persisted}, not {configured}"
            ),
            OpenError::Record(ns, key, why) => {
                write!(f, "state dir corrupt: {ns} record {key}: {why}")
            }
            OpenError::Stream(owner, offset, appended) if offset > appended => write!(
                f,
                "state dir corrupt: {owner} checkpoint offset {offset} beyond the {appended} appended verdicts"
            ),
            OpenError::Stream(owner, offset, _) => write!(
                f,
                "state dir corrupt: {owner} stream digest diverges from its checkpoint at offset {offset}"
            ),
        }
    }
}

impl std::error::Error for OpenError {}

/// An open state dir (see the module docs for its format), or the
/// in-memory stand-in.
pub(crate) struct StateDir {
    /// `None` for the stand-in, whose writes persist nothing.
    store: Option<LogStore>,
}

impl StateDir {
    /// The stand-in for a service without a state dir: writes persist
    /// nothing, and [`StateDir::append`] still advances the stream.
    pub(crate) fn memory() -> StateDir {
        StateDir { store: None }
    }

    /// Opens (or creates) the state dir at `path` for a service seeded
    /// with `seed`, and hands each persisted registration, in
    /// registration order, to `install` with its stream position rebuilt
    /// and checked against its checkpoint. `install` returns why it
    /// refused a registration.
    ///
    /// The dir is read first and written only once it is accepted (the
    /// seed record of a new dir, then the store's generation stamp), so a
    /// refused open leaves it as it found it.
    pub(crate) fn open(
        path: &Path,
        seed: u64,
        mut install: impl FnMut(RegisterOwner, StreamState) -> Result<(), String>,
    ) -> Result<StateDir, OpenError> {
        let store_error = |error| OpenError::Store(path.to_path_buf(), error);
        let store = LogStore::open_unstamped(path).map_err(store_error)?;
        let seeded = match store.get(NS_META, b"seed").map_err(store_error)? {
            Some(bytes) => {
                let persisted = <[u8; 8]>::try_from(bytes.as_slice())
                    .map(u64::from_le_bytes)
                    .map_err(|_| {
                        let why = format!("{} bytes, not 8", bytes.len());
                        OpenError::Record(NS_META, "seed".to_owned(), why)
                    })?;
                if persisted != seed {
                    return Err(OpenError::Seed(persisted, seed));
                }
                true
            }
            None => false,
        };
        for (key, value) in store.scan(NS_OWNERS).map_err(store_error)? {
            let key: String = key.iter().map(|byte| format!("{byte:02x}")).collect();
            let refused = |why: String| OpenError::Record(NS_OWNERS, key.clone(), why);
            let registration: RegisterOwner =
                refstate_wire::from_wire(&value).map_err(|e| refused(e.to_string()))?;
            let owner = &registration.owner;
            let lines = store.appended(&stream_ns(owner)).map_err(store_error)?;
            let checkpoint = store
                .get(NS_CHECKPOINT, owner.as_bytes())
                .map_err(store_error)?;
            let stream = rebuild(owner, &lines, checkpoint.as_deref())?;
            install(registration, stream).map_err(refused)?;
        }
        if !seeded {
            store
                .put(NS_META, b"seed", &seed.to_le_bytes())
                .map_err(store_error)?;
        }
        store.stamp().map_err(store_error)?;
        Ok(StateDir { store: Some(store) })
    }

    /// Persists a client registration as the `index`th owners record.
    pub(crate) fn put_owner(&self, index: u32, owner: &RegisterOwner) -> Result<(), StoreError> {
        if let Some(store) = &self.store {
            let record = refstate_wire::to_wire(owner);
            store.put(NS_OWNERS, &index.to_be_bytes(), &record)?;
        }
        Ok(())
    }

    /// Appends a settled batch's verdict lines to `owner`'s stream and
    /// checkpoints the position past them, in one store write; `stream`
    /// advances once that write succeeds. The appends land before the
    /// checkpoint: a write torn in between leaves the stream ahead of its
    /// checkpoint, which [`StateDir::open`] accepts.
    pub(crate) fn append(
        &self,
        owner: &str,
        stream: &mut StreamState,
        lines: &[String],
    ) -> Result<(), StoreError> {
        let mut advanced = *stream;
        for line in lines {
            advanced.push(line.as_bytes());
        }
        if let Some(store) = &self.store {
            store.append_then_put(
                &stream_ns(owner),
                lines,
                NS_CHECKPOINT,
                owner.as_bytes(),
                &advanced.encode(),
            )?;
        }
        *stream = advanced;
        Ok(())
    }

    /// Flushes every write to stable storage.
    pub(crate) fn sync(&self) -> Result<(), StoreError> {
        self.store.as_ref().map_or(Ok(()), LogStore::sync)
    }

    /// How many times the dir has been opened, this open included (0 for
    /// the stand-in).
    pub(crate) fn generation(&self) -> u64 {
        self.store.as_ref().map_or(0, LogStore::generation)
    }
}

/// Folds `owner`'s appended verdict lines back into its stream position
/// and checks it against the owner's last checkpoint, if any. The stream
/// may run past the checkpoint (a crash between an append and its
/// checkpoint put), never short of it.
fn rebuild(
    owner: &str,
    lines: &[Vec<u8>],
    checkpoint: Option<&[u8]>,
) -> Result<StreamState, OpenError> {
    let mut stream = StreamState::default();
    let mut lines = lines.iter();
    if let Some(bytes) = checkpoint {
        let sealed = StreamState::decode(bytes)
            .map_err(|e| OpenError::Record(NS_CHECKPOINT, owner.to_owned(), e.to_string()))?;
        let appended = lines.len() as u64;
        let upto = usize::try_from(sealed.offset).unwrap_or(usize::MAX);
        lines.by_ref().take(upto).for_each(|line| stream.push(line));
        if stream != sealed {
            return Err(OpenError::Stream(owner.to_owned(), sealed.offset, appended));
        }
    }
    lines.for_each(|line| stream.push(line));
    Ok(stream)
}
