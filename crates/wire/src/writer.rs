//! The encoding half: an append-only byte sink with primitive helpers.

use std::cell::Cell;

/// An append-only byte buffer with little-endian primitive helpers.
///
/// All multi-byte integers are written little-endian; lengths are `u32`.
///
/// # Examples
///
/// ```
/// use refstate_wire::Writer;
///
/// let mut w = Writer::new();
/// w.put_u32(7);
/// w.put_str("hi");
/// assert_eq!(w.into_inner(), vec![7, 0, 0, 0, 2, 0, 0, 0, b'h', b'i']);
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Returns the number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Discards everything written, keeping the buffer's capacity, so one
    /// writer can encode value after value without reallocating.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` as its two's-complement `u64` image.
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(v as u64);
    }

    /// Appends a bool as one byte (`0` or `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32` length prefix followed by the bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` exceeds `u32::MAX` (not reachable for the
    /// agent states this workspace produces).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_len(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends a collection length as `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `u32::MAX`.
    pub fn put_len(&mut self, len: usize) {
        let len = u32::try_from(len).expect("wire length exceeds u32::MAX");
        self.put_u32(len);
    }
}

thread_local! {
    /// The buffer [`with_scratch`] lends out, kept between calls.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` with this thread's scratch writer, empty but keeping the
/// capacity earlier calls grew it to.
///
/// An encoding that is hashed, signed or measured and then dropped needs
/// no buffer of its own: after a thread's first few encodes, encoding
/// into the scratch writer allocates nothing. A nested call (an `f` that
/// encodes through `with_scratch` again) gets a fresh writer of its own,
/// so the scratch is never shared.
///
/// # Examples
///
/// ```
/// use refstate_wire::{to_wire, with_scratch, Encode};
///
/// let len = with_scratch(|w| {
///     "agent".encode(w);
///     w.len()
/// });
/// assert_eq!(len, to_wire("agent").len());
/// ```
pub fn with_scratch<R>(f: impl FnOnce(&mut Writer) -> R) -> R {
    let mut writer = Writer {
        buf: SCRATCH.take(),
    };
    writer.clear();
    let result = f(&mut writer);
    SCRATCH.set(writer.buf);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_are_little_endian() {
        let mut w = Writer::new();
        w.put_u16(0x0102);
        w.put_u32(0x03040506);
        w.put_u64(0x0708090a0b0c0d0e);
        assert_eq!(
            w.into_inner(),
            vec![
                0x02, 0x01, 0x06, 0x05, 0x04, 0x03, 0x0e, 0x0d, 0x0c, 0x0b, 0x0a, 0x09, 0x08, 0x07
            ]
        );
    }

    #[test]
    fn i64_two_complement() {
        let mut w = Writer::new();
        w.put_i64(-1);
        assert_eq!(w.into_inner(), vec![0xff; 8]);
    }

    #[test]
    fn bytes_and_strings_length_prefixed() {
        let mut w = Writer::new();
        w.put_bytes(&[9, 8]);
        w.put_str("ab");
        assert_eq!(
            w.into_inner(),
            vec![2, 0, 0, 0, 9, 8, 2, 0, 0, 0, b'a', b'b']
        );
    }

    #[test]
    fn raw_has_no_prefix() {
        let mut w = Writer::new();
        w.put_raw(&[1, 2, 3]);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
    }

    #[test]
    fn scratch_starts_empty_and_nests() {
        let outer = with_scratch(|w| {
            w.put_u32(1);
            let inner = with_scratch(|inner| {
                assert!(inner.is_empty());
                inner.put_u8(2);
                inner.as_bytes().to_vec()
            });
            assert_eq!(inner, vec![2]);
            w.as_bytes().to_vec()
        });
        assert_eq!(outer, vec![1, 0, 0, 0]);
        assert!(with_scratch(|w| w.is_empty()));
    }

    #[test]
    fn empty_writer() {
        let w = Writer::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert!(w.into_inner().is_empty());
    }
}
