//! Canonical deterministic binary encoding.
//!
//! The reference-state protocols sign and hash agent states, inputs, and
//! traces. For a signature produced on one host to verify on another, the
//! byte image of a value must be *canonical*: the same logical value must
//! always encode to the same bytes. (The original system used Java object
//! serialization for this; a canonical codec is strictly better behaved.)
//!
//! This crate provides:
//!
//! * [`Writer`] / [`Reader`] — bounds-checked little-endian primitives,
//! * [`Encode`] / [`Decode`] — traits implemented by every wire-visible type
//!   in the workspace (values, states, traces, certificates),
//! * blanket implementations for primitives, `String`, `Vec<T>`,
//!   `Option<T>`, pairs, and `BTreeMap` (encoded in key order, which is what
//!   makes map-bearing structures canonical).
//!
//! # Examples
//!
//! ```
//! use refstate_wire::{from_wire, to_wire};
//!
//! let v: Vec<String> = vec!["a".into(), "b".into()];
//! let bytes = to_wire(&v);
//! let back: Vec<String> = from_wire(&bytes)?;
//! assert_eq!(v, back);
//! # Ok::<(), refstate_wire::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod frame;
mod reader;
mod traits;
mod writer;

pub use error::WireError;
pub use frame::{write_frame, write_message, FrameError, FrameReader, DEFAULT_MAX_FRAME};
pub use reader::Reader;
pub use traits::{Decode, Encode};
pub use writer::{with_scratch, Writer};

/// Encodes a value to its canonical byte representation.
///
/// The value is encoded into this thread's scratch writer
/// ([`with_scratch`]) and copied out, so the result is allocated once, at
/// its exact length, however many times the encoding grew.
pub fn to_wire<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    with_scratch(|w| {
        value.encode(w);
        w.as_bytes().to_vec()
    })
}

/// Decodes a value from bytes, requiring that all input is consumed.
///
/// # Errors
///
/// Returns [`WireError`] if the bytes are malformed, truncated, or if
/// trailing bytes remain after the value.
pub fn from_wire<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}
