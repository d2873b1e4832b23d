//! The [`Encode`] / [`Decode`] traits and implementations for std types.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::WireError;
use crate::reader::Reader;
use crate::writer::Writer;

/// A type with a canonical byte encoding.
///
/// Implementations must be *deterministic*: equal values must produce equal
/// bytes, regardless of process, platform, or insertion order of any
/// underlying collections. This is the property that makes hashes and
/// signatures over encoded values meaningful across hosts.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encodes into a fresh byte vector, like
    /// [`crate::to_wire`].
    fn to_wire_bytes(&self) -> Vec<u8> {
        crate::to_wire(self)
    }
}

/// A type that can be reconstructed from its canonical byte encoding.
pub trait Decode: Sized {
    /// Reads a value from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncated or malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

impl Encode for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_u8()
    }
}

impl Encode for u16 {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(*self);
    }
}

impl Decode for u16 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_u16()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_u64()
    }
}

impl Encode for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_i64(*self);
    }
}

impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_i64()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_bool()
    }
}

impl Encode for str {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.take_str()?.to_owned())
    }
}

/// A shared string decodes into one allocation, like a `String`.
impl Decode for Arc<str> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Arc::from(r.take_str()?))
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.take_u32()? as usize;
        // Guard allocation: each element takes at least one byte on the wire.
        if len > r.remaining() {
            return Err(WireError::LengthOverflow { declared: len });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                context: "Option",
                tag,
            }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// Maps encode in ascending key order — `BTreeMap` iteration order — which
/// is what makes structures containing maps canonical.
impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.take_u32()? as usize;
        if len > r.remaining() {
            return Err(WireError::LengthOverflow { declared: len });
        }
        // Decode pairs first, then enforce strictly ascending key order so
        // that decode(encode(x)) accepts only the canonical byte image.
        let mut pairs = Vec::with_capacity(len);
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            pairs.push((k, v));
        }
        if !pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(WireError::InvalidValue {
                context: "map key order",
            });
        }
        Ok(pairs.into_iter().collect())
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut Writer) {
        (*self).encode(w);
    }
}

/// A shared value encodes as the value it points to.
impl<T: Encode + ?Sized> Encode for Arc<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_wire, to_wire};

    #[test]
    fn primitive_round_trips() {
        assert_eq!(from_wire::<u8>(&to_wire(&7u8)).unwrap(), 7);
        assert_eq!(from_wire::<u16>(&to_wire(&300u16)).unwrap(), 300);
        assert_eq!(from_wire::<u32>(&to_wire(&70_000u32)).unwrap(), 70_000);
        assert_eq!(from_wire::<u64>(&to_wire(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(from_wire::<i64>(&to_wire(&-42i64)).unwrap(), -42);
        assert!(from_wire::<bool>(&to_wire(&true)).unwrap());
        assert_eq!(from_wire::<String>(&to_wire("héllo")).unwrap(), "héllo");
    }

    #[test]
    fn container_round_trips() {
        let v = vec![1u64, 2, 3];
        assert_eq!(from_wire::<Vec<u64>>(&to_wire(&v)).unwrap(), v);
        let o: Option<String> = Some("x".into());
        assert_eq!(from_wire::<Option<String>>(&to_wire(&o)).unwrap(), o);
        let n: Option<String> = None;
        assert_eq!(from_wire::<Option<String>>(&to_wire(&n)).unwrap(), n);
        let pair = (1u32, "a".to_string());
        assert_eq!(from_wire::<(u32, String)>(&to_wire(&pair)).unwrap(), pair);
        let triple = (1u8, 2u16, 3u32);
        assert_eq!(
            from_wire::<(u8, u16, u32)>(&to_wire(&triple)).unwrap(),
            triple
        );
    }

    #[test]
    fn map_round_trip_and_determinism() {
        let mut m = BTreeMap::new();
        m.insert("b".to_string(), 2u64);
        m.insert("a".to_string(), 1u64);
        let bytes = to_wire(&m);
        let mut m2 = BTreeMap::new();
        m2.insert("a".to_string(), 1u64);
        m2.insert("b".to_string(), 2u64);
        assert_eq!(bytes, to_wire(&m2), "insertion order must not matter");
        assert_eq!(from_wire::<BTreeMap<String, u64>>(&bytes).unwrap(), m);
    }

    #[test]
    fn map_rejects_unordered_keys() {
        // Hand-craft a map encoding with keys out of order: {b:1, a:2}.
        let mut w = Writer::new();
        w.put_len(2);
        w.put_str("b");
        w.put_u64(1);
        w.put_str("a");
        w.put_u64(2);
        let err = from_wire::<BTreeMap<String, u64>>(&w.into_inner()).unwrap_err();
        assert_eq!(
            err,
            WireError::InvalidValue {
                context: "map key order"
            }
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_wire(&5u8);
        bytes.push(0);
        assert!(matches!(
            from_wire::<u8>(&bytes),
            Err(WireError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = to_wire(&vec![1u64, 2, 3]);
        assert!(from_wire::<Vec<u64>>(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn vec_length_guard() {
        // Declares 2^32-1 elements with 4 bytes of payload.
        let bytes = [0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4];
        assert!(matches!(
            from_wire::<Vec<u64>>(&bytes),
            Err(WireError::LengthOverflow { .. })
        ));
    }
}
