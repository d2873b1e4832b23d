//! HMAC-SHA-256 (FIPS 198-1 / RFC 2104).

use crate::digest::Digest;
use crate::sha256::Sha256;

/// HMAC keyed with SHA-256.
///
/// Used by the platform for cheap session-transcript authentication between
/// hosts that already share a channel key (signatures remain the mechanism
/// for third-party-verifiable statements).
///
/// # Examples
///
/// ```
/// use refstate_crypto::HmacSha256;
///
/// let mac = HmacSha256::mac(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(mac.to_hex(),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8");
/// ```
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    opad_key: [u8; 64],
}

impl HmacSha256 {
    /// Creates a new MAC instance for `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            let d = crate::sha256::sha256(key);
            key_block[..d.len()].copy_from_slice(d.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; 64];
        let mut opad = [0u8; 64];
        for i in 0..64 {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 {
            inner,
            opad_key: opad,
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC.
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad_key);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }

    /// One-shot MAC computation.
    pub fn mac(key: &[u8], message: &[u8]) -> Digest {
        let mut h = HmacSha256::new(key);
        h.update(message);
        h.finalize()
    }

    /// Constant-shape verification of a received MAC.
    pub fn verify(key: &[u8], message: &[u8], expected: &Digest) -> bool {
        let actual = Self::mac(key, message);
        // Byte-wise comparison without early exit.
        let a = actual.as_bytes();
        let b = expected.as_bytes();
        if a.len() != b.len() {
            return false;
        }
        a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let mac = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            mac.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            mac.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = HmacSha256::mac(&key, &data);
        assert_eq!(
            mac.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        // Case 6: 131-byte key (hashed down).
        let key = [0xaau8; 131];
        let mac = HmacSha256::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            mac.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let mac = HmacSha256::mac(b"k", b"m");
        assert!(HmacSha256::verify(b"k", b"m", &mac));
        assert!(!HmacSha256::verify(b"k", b"m2", &mac));
        assert!(!HmacSha256::verify(b"k2", b"m", &mac));
        // The genuine tag cut to 20 bytes: right prefix, wrong length.
        let short = Digest::new(&mac.as_bytes()[..20]);
        assert!(!HmacSha256::verify(b"k", b"m", &short));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = HmacSha256::new(b"key");
        h.update(b"part one ");
        h.update(b"part two");
        assert_eq!(h.finalize(), HmacSha256::mac(b"key", b"part one part two"));
    }
}
