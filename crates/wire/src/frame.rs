//! Length-prefixed framing over byte streams.
//!
//! The canonical codec ([`crate::to_wire`] / [`crate::from_wire`]) encodes
//! *values*; a resident service needs *message boundaries* on a stream.
//! A frame is a little-endian `u32` payload length followed by exactly
//! that many payload bytes. The framing layer is deliberately hostile-
//! input-first:
//!
//! * a declared length above the reader's cap is rejected as
//!   [`FrameError::Oversized`] **before** any allocation, so a malicious
//!   peer cannot make the service reserve gigabytes with five bytes,
//! * a stream that ends mid-header or mid-payload is
//!   [`FrameError::Truncated`] — never a panic, never silently treated as
//!   a clean end of stream,
//! * a stream that ends exactly on a frame boundary is a clean EOF
//!   ([`FrameReader::read_frame`] returns `Ok(None)`).
//!
//! # Examples
//!
//! ```
//! use refstate_wire::frame::{write_frame, FrameReader, DEFAULT_MAX_FRAME};
//!
//! let mut stream = Vec::new();
//! write_frame(&mut stream, b"hello", DEFAULT_MAX_FRAME)?;
//! write_frame(&mut stream, b"", DEFAULT_MAX_FRAME)?;
//!
//! let mut reader = FrameReader::new(&stream[..], DEFAULT_MAX_FRAME);
//! assert_eq!(reader.read_frame()?.as_deref(), Some(&b"hello"[..]));
//! assert_eq!(reader.read_frame()?.as_deref(), Some(&b""[..]));
//! assert_eq!(reader.read_frame()?, None); // clean EOF
//! # Ok::<(), refstate_wire::frame::FrameError>(())
//! ```

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use crate::error::WireError;
use crate::traits::{Decode, Encode};
use crate::{from_wire, to_wire};

/// Default cap on a single frame's payload (1 MiB): far above any message
/// the verification service exchanges, far below an allocation attack.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// An error produced while reading or writing length-prefixed frames.
#[derive(Debug)]
#[non_exhaustive]
pub enum FrameError {
    /// A frame declared a payload length above the configured cap (or a
    /// writer was handed one). Detected before any allocation.
    Oversized {
        /// The declared (or attempted) payload length.
        declared: usize,
        /// The configured cap.
        max: usize,
    },
    /// The stream ended in the middle of a frame — inside the length
    /// header or inside a payload whose length was already declared.
    Truncated {
        /// Bytes still needed to complete the frame.
        needed: usize,
        /// Bytes actually obtained before the stream ended.
        got: usize,
    },
    /// The underlying transport failed.
    Io(io::Error),
    /// The frame's payload failed canonical decoding (see
    /// [`read_message`](FrameReader::read_message)).
    Wire(WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { declared, max } => {
                write!(f, "frame declares {declared} payload bytes (cap {max})")
            }
            FrameError::Truncated { needed, got } => {
                write!(
                    f,
                    "stream ended mid-frame: needed {needed} bytes, got {got}"
                )
            }
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Wire(e) => write!(f, "frame payload malformed: {e}"),
        }
    }
}

impl Error for FrameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Writes one frame: `u32` little-endian payload length, then the payload.
///
/// # Errors
///
/// [`FrameError::Oversized`] if `payload.len() > max`, [`FrameError::Io`]
/// on transport failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: usize) -> Result<(), FrameError> {
    if payload.len() > max {
        return Err(FrameError::Oversized {
            declared: payload.len(),
            max,
        });
    }
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::Oversized {
        declared: payload.len(),
        max,
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Encodes `value` canonically and writes it as one frame.
///
/// # Errors
///
/// See [`write_frame`].
pub fn write_message<T: Encode + ?Sized>(
    w: &mut impl Write,
    value: &T,
    max: usize,
) -> Result<(), FrameError> {
    write_frame(w, &to_wire(value), max)
}

/// A frame reader over any byte stream.
///
/// Distinguishes the three stream endings a server must tell apart: a
/// clean EOF on a frame boundary (`Ok(None)`), a truncated frame
/// ([`FrameError::Truncated`]), and a hostile declared length
/// ([`FrameError::Oversized`]).
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    max: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`, rejecting frames whose declared payload exceeds
    /// `max` bytes.
    pub fn new(inner: R, max: usize) -> Self {
        FrameReader { inner, max }
    }

    /// Consumes the reader, returning the underlying stream.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Reads the next frame's payload.
    ///
    /// Returns `Ok(None)` when the stream ends exactly on a frame
    /// boundary.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] when the stream ends inside a frame,
    /// [`FrameError::Oversized`] when the header declares more than the
    /// cap, [`FrameError::Io`] on transport failure.
    pub fn read_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let mut header = [0u8; 4];
        match read_exact_or_eof(&mut self.inner, &mut header)? {
            0 => return Ok(None),
            4 => {}
            got => {
                return Err(FrameError::Truncated {
                    needed: 4 - got,
                    got,
                })
            }
        }
        let declared = u32::from_le_bytes(header) as usize;
        if declared > self.max {
            return Err(FrameError::Oversized {
                declared,
                max: self.max,
            });
        }
        let mut payload = vec![0u8; declared];
        let got = read_exact_or_eof(&mut self.inner, &mut payload)?;
        if got < declared {
            return Err(FrameError::Truncated {
                needed: declared - got,
                got,
            });
        }
        Ok(Some(payload))
    }

    /// Reads the next frame and decodes its payload canonically.
    ///
    /// Returns `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// Everything [`read_frame`](Self::read_frame) raises, plus
    /// [`FrameError::Wire`] when the payload is not a canonical `T`.
    pub fn read_message<T: Decode>(&mut self) -> Result<Option<T>, FrameError> {
        match self.read_frame()? {
            None => Ok(None),
            Some(payload) => Ok(Some(from_wire(&payload)?)),
        }
    }
}

/// Fills `buf` from `r`, tolerating EOF: returns how many bytes were
/// actually read (buf.len() on success, less when the stream ended).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, io::Error> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_three_frames() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"alpha", 64).unwrap();
        write_frame(&mut stream, b"", 64).unwrap();
        write_frame(&mut stream, &[0xffu8; 64], 64).unwrap();
        let mut reader = FrameReader::new(&stream[..], 64);
        assert_eq!(reader.read_frame().unwrap().unwrap(), b"alpha");
        assert_eq!(reader.read_frame().unwrap().unwrap(), b"");
        assert_eq!(reader.read_frame().unwrap().unwrap(), vec![0xffu8; 64]);
        assert!(reader.read_frame().unwrap().is_none());
        // EOF is sticky.
        assert!(reader.read_frame().unwrap().is_none());
    }

    #[test]
    fn oversized_write_is_rejected() {
        let mut out = Vec::new();
        let err = write_frame(&mut out, &[0u8; 9], 8).unwrap_err();
        assert!(matches!(
            err,
            FrameError::Oversized {
                declared: 9,
                max: 8
            }
        ));
        assert!(out.is_empty(), "nothing half-written");
    }

    #[test]
    fn oversized_declaration_is_rejected_before_reading_payload() {
        // Header says 4 GiB - 1; only the header is present.
        let stream = [0xff, 0xff, 0xff, 0xff];
        let mut reader = FrameReader::new(&stream[..], DEFAULT_MAX_FRAME);
        let err = reader.read_frame().unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }));
    }

    #[test]
    fn truncated_header_is_an_error_not_eof() {
        let stream = [7u8, 0];
        let mut reader = FrameReader::new(&stream[..], 64);
        let err = reader.read_frame().unwrap_err();
        assert!(matches!(err, FrameError::Truncated { needed: 2, got: 2 }));
    }

    #[test]
    fn truncated_payload_is_an_error_not_eof() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"hello", 64).unwrap();
        stream.truncate(stream.len() - 2); // drop two payload bytes
        let mut reader = FrameReader::new(&stream[..], 64);
        let err = reader.read_frame().unwrap_err();
        assert!(matches!(err, FrameError::Truncated { needed: 2, got: 3 }));
    }

    #[test]
    fn message_round_trip_and_malformed_payload() {
        let mut stream = Vec::new();
        write_message(&mut stream, &vec!["x".to_owned(), "y".to_owned()], 64).unwrap();
        // A frame whose payload is not a canonical Vec<String>.
        write_frame(&mut stream, &[0xde, 0xad], 64).unwrap();
        let mut reader = FrameReader::new(&stream[..], 64);
        let v: Vec<String> = reader.read_message().unwrap().unwrap();
        assert_eq!(v, vec!["x", "y"]);
        let err = reader.read_message::<Vec<String>>().unwrap_err();
        assert!(matches!(err, FrameError::Wire(_)));
    }

    #[test]
    fn display_is_informative() {
        let e = FrameError::Oversized {
            declared: 10,
            max: 5,
        };
        assert!(e.to_string().contains("10"));
        let e = FrameError::Truncated { needed: 3, got: 1 };
        assert!(e.to_string().contains("mid-frame"));
    }
}
