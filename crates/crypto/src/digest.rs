//! Fixed-size digest values.

use std::fmt;

use refstate_wire::{Decode, Encode, Reader, WireError, Writer};

/// A hash digest of up to 32 bytes (SHA-256 produces 32).
///
/// Digests identify agent states, traces, and inputs throughout the
/// workspace; they compare in constant structure (byte-wise `Eq`) and render
/// as lowercase hex.
///
/// # Examples
///
/// ```
/// use refstate_crypto::sha256;
///
/// let d = sha256(b"abc");
/// assert!(d.to_hex().starts_with("ba7816bf"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest {
    len: u8,
    bytes: [u8; 32],
}

impl Digest {
    /// Wraps digest bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > 32`.
    pub fn new(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 32, "digest length exceeds 32 bytes");
        let mut out = [0u8; 32];
        out[..bytes.len()].copy_from_slice(bytes);
        Digest {
            len: bytes.len() as u8,
            bytes: out,
        }
    }

    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Returns the digest length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` for the (unused in practice) zero-length digest.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Renders lowercase hex.
    pub fn to_hex(&self) -> String {
        self.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Returns an abbreviated hex form (first 8 chars) for logs.
    pub fn short(&self) -> String {
        let h = self.to_hex();
        h.chars().take(8).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl Encode for Digest {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
}

impl Decode for Digest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.take_bytes()?;
        if bytes.len() > 32 {
            return Err(WireError::InvalidValue {
                context: "digest length",
            });
        }
        Ok(Digest::new(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refstate_wire::{from_wire, to_wire};

    #[test]
    fn construction_and_access() {
        let d = Digest::new(&[1, 2, 3]);
        assert_eq!(d.as_bytes(), &[1, 2, 3]);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.to_hex(), "010203");
        assert_eq!(d.short(), "010203");
    }

    #[test]
    fn equality_is_content_based() {
        assert_eq!(Digest::new(&[7; 20]), Digest::new(&[7; 20]));
        assert_ne!(Digest::new(&[7; 20]), Digest::new(&[7; 32]));
        assert_ne!(Digest::new(&[7; 20]), Digest::new(&[8; 20]));
    }

    #[test]
    #[should_panic(expected = "exceeds 32")]
    fn oversize_panics() {
        let _ = Digest::new(&[0; 33]);
    }

    #[test]
    fn wire_round_trip() {
        let d = Digest::new(&[9; 32]);
        assert_eq!(from_wire::<Digest>(&to_wire(&d)).unwrap(), d);
    }

    #[test]
    fn wire_rejects_oversize() {
        let mut w = refstate_wire::Writer::new();
        w.put_bytes(&[0u8; 33]);
        assert!(from_wire::<Digest>(&w.into_inner()).is_err());
    }

    #[test]
    fn display_matches_hex() {
        let d = Digest::new(&[0xab, 0xcd]);
        assert_eq!(format!("{d}"), "abcd");
        assert_eq!(format!("{d:?}"), "Digest(abcd)");
    }
}
