//! The [`Uint`] type: representation, construction, conversion, formatting.

use std::fmt;
use std::str::FromStr;

use crate::error::ParseUintError;

/// An arbitrary-precision unsigned integer.
///
/// The value is stored as little-endian `u64` limbs with the invariant that
/// the most significant limb is non-zero (the canonical representation of
/// zero is the empty limb vector). All public constructors and operations
/// preserve this invariant.
///
/// # Examples
///
/// ```
/// use refstate_bigint::Uint;
///
/// let a = Uint::from_hex("ffffffffffffffff").unwrap();
/// let b = Uint::from(1u64);
/// assert_eq!((&a + &b).to_hex(), "10000000000000000");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Uint {
    limbs: Vec<u64>,
}

impl Uint {
    /// The number of bits per limb.
    pub(crate) const LIMB_BITS: usize = 64;

    /// Returns the canonical zero value.
    ///
    /// ```
    /// use refstate_bigint::Uint;
    /// assert!(Uint::zero().is_zero());
    /// ```
    pub const fn zero() -> Self {
        Uint { limbs: Vec::new() }
    }

    /// Returns the value one.
    pub fn one() -> Self {
        Uint { limbs: vec![1] }
    }

    /// Creates a `Uint` from raw little-endian limbs, normalizing trailing
    /// zero limbs away.
    pub(crate) fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Uint { limbs }
    }

    /// The little-endian limbs, with no high zero limb (none at all for
    /// zero): the slice [`Montgomery::reduce`](crate::Montgomery::reduce)
    /// and [`FixedBase::pow`](crate::FixedBase::pow) take.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Returns `true` if the value is even. Zero counts as even.
    ///
    /// ```
    /// use refstate_bigint::Uint;
    /// assert!(Uint::from(42u64).is_even());
    /// assert!(!Uint::from(7u64).is_even());
    /// ```
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns the number of significant bits (`0` for zero).
    ///
    /// ```
    /// use refstate_bigint::Uint;
    /// assert_eq!(Uint::from(255u64).bit_len(), 8);
    /// assert_eq!(Uint::zero().bit_len(), 0);
    /// ```
    pub fn bit_len(&self) -> usize {
        bit_len(&self.limbs)
    }

    /// Returns bit `i` (little-endian position), `false` beyond the top bit.
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / Self::LIMB_BITS;
        let off = i % Self::LIMB_BITS;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Interprets big-endian bytes as an unsigned integer.
    ///
    /// Leading zero bytes are permitted and ignored.
    ///
    /// ```
    /// use refstate_bigint::Uint;
    /// assert_eq!(Uint::from_be_bytes(&[0x01, 0x00]), Uint::from(256u64));
    /// ```
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut shift = 0usize;
        for &b in bytes.iter().rev() {
            acc |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(acc);
        }
        Uint::from_limbs(limbs)
    }

    /// Returns the minimal big-endian byte representation.
    ///
    /// Zero encodes as a single `0x00` byte so the output is never empty.
    pub fn to_be_bytes(&self) -> Vec<u8> {
        if self.is_zero() {
            return vec![0];
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first = out.iter().position(|&b| b != 0).unwrap_or(out.len() - 1);
        out.drain(..first);
        out
    }

    /// Returns the big-endian byte representation left-padded with zeros to
    /// exactly `len` bytes, or `None` if the value does not fit.
    ///
    /// This is the encoding used for fixed-width signature components.
    ///
    /// ```
    /// use refstate_bigint::Uint;
    /// let b = Uint::from(513u64).to_be_bytes_padded(4).unwrap();
    /// assert_eq!(b, vec![0, 0, 2, 1]);
    /// ```
    pub fn to_be_bytes_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_be_bytes();
        let raw = if raw == [0] { Vec::new() } else { raw };
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// Parses a (case-insensitive) hexadecimal string, with or without a
    /// leading `0x` prefix.
    ///
    /// # Errors
    ///
    /// Returns [`ParseUintError`] if the string is empty or contains a
    /// non-hex character.
    pub fn from_hex(s: &str) -> Result<Self, ParseUintError> {
        let s = s
            .strip_prefix("0x")
            .or_else(|| s.strip_prefix("0X"))
            .unwrap_or(s);
        let s: String = s
            .chars()
            .filter(|c| !c.is_whitespace() && *c != '_')
            .collect();
        if s.is_empty() {
            return Err(ParseUintError::empty());
        }
        let mut limbs: Vec<u64> = Vec::with_capacity(s.len() / 16 + 1);
        let bytes = s.as_bytes();
        let mut pos = bytes.len();
        while pos > 0 {
            let start = pos.saturating_sub(16);
            let chunk = std::str::from_utf8(&bytes[start..pos]).expect("ascii hex");
            let limb =
                u64::from_str_radix(chunk, 16).map_err(|_| ParseUintError::invalid_digit())?;
            limbs.push(limb);
            pos = start;
        }
        Ok(Uint::from_limbs(limbs))
    }

    /// Returns the lowercase hexadecimal representation without a prefix.
    ///
    /// Zero renders as `"0"`.
    pub fn to_hex(&self) -> String {
        format!("{self:x}")
    }

    /// Parses a decimal string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseUintError`] if the string is empty or contains a
    /// non-decimal character.
    pub fn from_decimal(s: &str) -> Result<Self, ParseUintError> {
        if s.is_empty() {
            return Err(ParseUintError::empty());
        }
        let mut acc = Uint::zero();
        // Process in chunks of up to 19 digits (10^19 < 2^64).
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let take = (bytes.len() - pos).min(19);
            let chunk = std::str::from_utf8(&bytes[pos..pos + take]).expect("ascii decimal");
            let val: u64 = chunk.parse().map_err(|_| ParseUintError::invalid_digit())?;
            let scale = 10u64
                .pow(take as u32 - 1) // avoid overflow for take == 19? 10^18 fits
                .checked_mul(10)
                .unwrap_or(10_000_000_000_000_000_000);
            acc = &(&acc * &Uint::from(scale)) + &Uint::from(val);
            pos += take;
        }
        Ok(acc)
    }

    /// Returns the number of limbs (zero for the value zero).
    pub(crate) fn limb_len(&self) -> usize {
        self.limbs.len()
    }
}

/// The number of significant bits of little-endian `limbs` (`0` for
/// zero); high zero limbs are allowed.
pub(crate) fn bit_len(limbs: &[u64]) -> usize {
    match limbs.iter().rposition(|&l| l != 0) {
        None => 0,
        Some(top) => top * Uint::LIMB_BITS + (64 - limbs[top].leading_zeros() as usize),
    }
}

/// Returns the `width` bits of little-endian `limbs` starting at bit
/// `start` (zero beyond the top bit) as one digit: a shift and a mask over
/// at most two limbs. `width` must be in `1..64`.
pub(crate) fn digit(limbs: &[u64], start: usize, width: usize) -> usize {
    debug_assert!((1..64).contains(&width));
    let limb = start / Uint::LIMB_BITS;
    let off = start % Uint::LIMB_BITS;
    let low = limbs.get(limb).map_or(0, |l| l >> off);
    // `off > 0` whenever the digit straddles a limb boundary.
    let high = if off + width > Uint::LIMB_BITS {
        limbs
            .get(limb + 1)
            .map_or(0, |l| l << (Uint::LIMB_BITS - off))
    } else {
        0
    };
    ((low | high) & ((1u64 << width) - 1)) as usize
}

impl From<u64> for Uint {
    fn from(v: u64) -> Self {
        if v == 0 {
            Uint::zero()
        } else {
            Uint { limbs: vec![v] }
        }
    }
}

impl From<u32> for Uint {
    fn from(v: u32) -> Self {
        Uint::from(v as u64)
    }
}

impl From<u128> for Uint {
    fn from(v: u128) -> Self {
        Uint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl TryFrom<&Uint> for u64 {
    type Error = ParseUintError;

    fn try_from(v: &Uint) -> Result<Self, Self::Error> {
        match v.limbs.len() {
            0 => Ok(0),
            1 => Ok(v.limbs[0]),
            _ => Err(ParseUintError::overflow()),
        }
    }
}

impl TryFrom<&Uint> for u128 {
    type Error = ParseUintError;

    fn try_from(v: &Uint) -> Result<Self, Self::Error> {
        match v.limbs.len() {
            0 => Ok(0),
            1 => Ok(v.limbs[0] as u128),
            2 => Ok(v.limbs[0] as u128 | (v.limbs[1] as u128) << 64),
            _ => Err(ParseUintError::overflow()),
        }
    }
}

impl FromStr for Uint {
    type Err = ParseUintError;

    /// Parses decimal by default; a `0x` prefix selects hexadecimal.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.starts_with("0x") || s.starts_with("0X") {
            Uint::from_hex(s)
        } else {
            Uint::from_decimal(s)
        }
    }
}

impl fmt::Display for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        // Repeatedly divide by 10^19 and emit chunks.
        let chunk_base = Uint::from(10_000_000_000_000_000_000u64);
        let mut rest = self.clone();
        let mut chunks: Vec<u64> = Vec::new();
        while !rest.is_zero() {
            let (q, r) = rest.divrem(&chunk_base);
            chunks.push(u64::try_from(&r).expect("remainder below 10^19"));
            rest = q;
        }
        let mut s = String::new();
        for (i, chunk) in chunks.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&chunk.to_string());
            } else {
                s.push_str(&format!("{chunk:019}"));
            }
        }
        f.write_str(&s)
    }
}

impl fmt::Debug for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uint(0x{self:x})")
    }
}

impl fmt::LowerHex for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        let mut s = String::with_capacity(self.limbs.len() * 16);
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        f.write_str(&s)
    }
}

impl fmt::UpperHex for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lower = format!("{self:x}");
        f.write_str(&lower.to_uppercase())
    }
}

impl fmt::Binary for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{limb:b}"));
            } else {
                s.push_str(&format!("{limb:064b}"));
            }
        }
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_canonical() {
        assert!(Uint::zero().is_zero());
        assert_eq!(Uint::zero(), Uint::from(0u64));
        assert_eq!(Uint::from_limbs(vec![0, 0, 0]), Uint::zero());
        assert_eq!(Uint::zero().bit_len(), 0);
    }

    #[test]
    fn bit_len_and_bit() {
        let v = Uint::from(0b1011u64);
        assert_eq!(v.bit_len(), 4);
        assert!(v.bit(0));
        assert!(v.bit(1));
        assert!(!v.bit(2));
        assert!(v.bit(3));
        assert!(!v.bit(64));
        let big = Uint::from_limbs(vec![0, 1]);
        assert_eq!(big.bit_len(), 65);
        assert!(big.bit(64));
    }

    #[test]
    fn digit_reads_the_bits_one_at_a_time_would() {
        let v = Uint::from_limbs(vec![0x8000_0000_0000_0001, 0xdead_beef_cafe_f00d, 0b101]);
        for width in 1..64 {
            // Past the top limb too, and across both limb boundaries.
            for start in 0..200 {
                let by_bits = (0..width)
                    .rev()
                    .fold(0, |d, b| (d << 1) | v.bit(start + b) as usize);
                assert_eq!(
                    digit(v.limbs(), start, width),
                    by_bits,
                    "start {start}, width {width}"
                );
            }
        }
        assert_eq!(digit(Uint::zero().limbs(), 0, 8), 0);
        assert_eq!(bit_len(&[5, 0, 0]), 3);
    }

    #[test]
    fn byte_round_trip() {
        let v = Uint::from_hex("0123456789abcdef00ff").unwrap();
        let bytes = v.to_be_bytes();
        assert_eq!(Uint::from_be_bytes(&bytes), v);
        assert_eq!(bytes[0], 0x01);
    }

    #[test]
    fn byte_padding() {
        let v = Uint::from(0x0102u64);
        assert_eq!(v.to_be_bytes_padded(4).unwrap(), vec![0, 0, 1, 2]);
        assert_eq!(v.to_be_bytes_padded(2).unwrap(), vec![1, 2]);
        assert!(v.to_be_bytes_padded(1).is_none());
        assert_eq!(Uint::zero().to_be_bytes_padded(3).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn zero_bytes_never_empty() {
        assert_eq!(Uint::zero().to_be_bytes(), vec![0]);
        assert_eq!(Uint::from_be_bytes(&[]), Uint::zero());
        assert_eq!(Uint::from_be_bytes(&[0, 0]), Uint::zero());
    }

    #[test]
    fn hex_round_trip() {
        for s in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ] {
            let v = Uint::from_hex(s).unwrap();
            assert_eq!(v.to_hex(), s);
        }
        assert!(Uint::from_hex("").is_err());
        assert!(Uint::from_hex("xyz").is_err());
        assert_eq!(Uint::from_hex("0x10").unwrap(), Uint::from(16u64));
        assert_eq!(Uint::from_hex("00ff").unwrap(), Uint::from(255u64));
        assert_eq!(
            Uint::from_hex("DE AD_be ef").unwrap(),
            Uint::from(0xdeadbeefu64)
        );
    }

    #[test]
    fn decimal_round_trip() {
        for s in [
            "0",
            "1",
            "42",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
        ] {
            let v = Uint::from_decimal(s).unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!(Uint::from_decimal("").is_err());
        assert!(Uint::from_decimal("12a").is_err());
    }

    #[test]
    fn from_str_dispatches_on_prefix() {
        assert_eq!("0x10".parse::<Uint>().unwrap(), Uint::from(16u64));
        assert_eq!("10".parse::<Uint>().unwrap(), Uint::from(10u64));
    }

    #[test]
    fn u128_round_trip() {
        let v = Uint::from(u128::MAX);
        assert_eq!(u128::try_from(&v).unwrap(), u128::MAX);
        let big = &v + &Uint::one();
        assert!(u128::try_from(&big).is_err());
        assert!(u64::try_from(&v).is_err());
        assert_eq!(u64::try_from(&Uint::from(7u64)).unwrap(), 7);
    }

    #[test]
    fn formatting() {
        let v = Uint::from(255u64);
        assert_eq!(format!("{v:x}"), "ff");
        assert_eq!(format!("{v:X}"), "FF");
        assert_eq!(format!("{v:b}"), "11111111");
        assert_eq!(format!("{v}"), "255");
        assert_eq!(format!("{v:?}"), "Uint(0xff)");
        assert_eq!(format!("{:x}", Uint::zero()), "0");
        assert_eq!(format!("{:b}", Uint::zero()), "0");
    }

    #[test]
    fn display_large_multi_chunk() {
        // 2^128 = 340282366920938463463374607431768211456 (39 digits, needs chunking)
        let v = Uint::from_hex("100000000000000000000000000000000").unwrap();
        assert_eq!(v.to_string(), "340282366920938463463374607431768211456");
    }

    #[test]
    fn is_even() {
        assert!(Uint::zero().is_even());
        assert!(Uint::from(2u64).is_even());
        assert!(!Uint::one().is_even());
    }
}
