//! Addition, subtraction, multiplication, shifts, and ordering for [`Uint`].

use std::cmp::Ordering;
use std::ops::{Add, Mul, Shl, Shr, Sub};

use crate::uint::Uint;

impl Uint {
    /// Adds two values.
    pub(crate) fn add_impl(&self, other: &Uint) -> Uint {
        let (long, short) = if self.limbs().len() >= other.limbs().len() {
            (self.limbs(), other.limbs())
        } else {
            (other.limbs(), self.limbs())
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        Uint::from_limbs(out)
    }

    /// Subtracts `other` from `self`, returning `None` on underflow.
    ///
    /// ```
    /// use refstate_bigint::Uint;
    /// let a = Uint::from(10u64);
    /// let b = Uint::from(3u64);
    /// assert_eq!(a.checked_sub(&b), Some(Uint::from(7u64)));
    /// assert_eq!(b.checked_sub(&a), None);
    /// ```
    pub fn checked_sub(&self, other: &Uint) -> Option<Uint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs().len());
        let mut borrow = 0u64;
        for i in 0..self.limbs().len() {
            let b = other.limbs().get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs()[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0, "ordering check above rules out underflow");
        Some(Uint::from_limbs(out))
    }

    /// Multiplies two values with the schoolbook algorithm: every limb
    /// of one operand times every limb of the other.
    pub(crate) fn mul_impl(&self, other: &Uint) -> Uint {
        if self.is_zero() || other.is_zero() {
            return Uint::zero();
        }
        let a = self.limbs();
        let b = other.limbs();
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &bj) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + (ai as u128) * (bj as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        Uint::from_limbs(out)
    }

    /// Left-shifts by `bits`.
    pub(crate) fn shl_impl(&self, bits: usize) -> Uint {
        if self.is_zero() || bits == 0 {
            return Uint::from_limbs(self.limbs().to_vec());
        }
        let limb_shift = bits / Self::LIMB_BITS;
        let bit_shift = bits % Self::LIMB_BITS;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(self.limbs());
        } else {
            let mut carry = 0u64;
            for &limb in self.limbs() {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        Uint::from_limbs(out)
    }

    /// Right-shifts by `bits`.
    pub(crate) fn shr_impl(&self, bits: usize) -> Uint {
        let limb_shift = bits / Self::LIMB_BITS;
        if limb_shift >= self.limbs().len() {
            return Uint::zero();
        }
        let bit_shift = bits % Self::LIMB_BITS;
        let src = &self.limbs()[limb_shift..];
        if bit_shift == 0 {
            return Uint::from_limbs(src.to_vec());
        }
        let mut out = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            let lo = src[i] >> bit_shift;
            let hi = src.get(i + 1).map_or(0, |&next| next << (64 - bit_shift));
            out.push(lo | hi);
        }
        Uint::from_limbs(out)
    }
}

impl Ord for Uint {
    fn cmp(&self, other: &Self) -> Ordering {
        let a = self.limbs();
        let b = other.limbs();
        a.len()
            .cmp(&b.len())
            .then_with(|| a.iter().rev().cmp(b.iter().rev()))
    }
}

impl PartialOrd for Uint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for &Uint {
    type Output = Uint;
    fn add(self, rhs: &Uint) -> Uint {
        self.add_impl(rhs)
    }
}

impl Add for Uint {
    type Output = Uint;
    fn add(self, rhs: Uint) -> Uint {
        self.add_impl(&rhs)
    }
}

impl Sub for &Uint {
    type Output = Uint;
    /// # Panics
    ///
    /// Panics if `rhs > self`; use [`Uint::checked_sub`] to handle underflow.
    fn sub(self, rhs: &Uint) -> Uint {
        self.checked_sub(rhs)
            .expect("Uint subtraction underflow; use checked_sub")
    }
}

impl Sub for Uint {
    type Output = Uint;
    fn sub(self, rhs: Uint) -> Uint {
        (&self) - (&rhs)
    }
}

impl Mul for &Uint {
    type Output = Uint;
    fn mul(self, rhs: &Uint) -> Uint {
        self.mul_impl(rhs)
    }
}

impl Mul for Uint {
    type Output = Uint;
    fn mul(self, rhs: Uint) -> Uint {
        self.mul_impl(&rhs)
    }
}

impl Shl<usize> for &Uint {
    type Output = Uint;
    fn shl(self, bits: usize) -> Uint {
        self.shl_impl(bits)
    }
}

impl Shr<usize> for &Uint {
    type Output = Uint;
    fn shr(self, bits: usize) -> Uint {
        self.shr_impl(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u128) -> Uint {
        Uint::from(v)
    }

    #[test]
    fn add_small() {
        assert_eq!(&u(2) + &u(3), u(5));
        assert_eq!(&u(0) + &u(7), u(7));
        assert_eq!(&u(u64::MAX as u128) + &u(1), u(1u128 << 64));
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = Uint::from(u128::MAX);
        let one = Uint::one();
        let sum = &a + &one;
        assert_eq!(sum.bit_len(), 129);
        assert_eq!(sum.to_hex(), "100000000000000000000000000000000");
    }

    #[test]
    fn sub_small() {
        assert_eq!(&u(5) - &u(3), u(2));
        assert_eq!(&u(5) - &u(5), u(0));
        assert!(u(3).checked_sub(&u(5)).is_none());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &u(1) - &u(2);
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let big = Uint::from(1u128 << 64);
        assert_eq!(&big - &Uint::one(), Uint::from(u64::MAX as u128));
    }

    #[test]
    fn mul_small() {
        assert_eq!(&u(6) * &u(7), u(42));
        assert_eq!(&u(0) * &u(7), u(0));
        assert_eq!(&u(1) * &u(7), u(7));
    }

    #[test]
    fn mul_matches_u128() {
        let a = 0xdead_beef_1234_5678u64;
        let b = 0xcafe_babe_8765_4321u64;
        let expect = (a as u128) * (b as u128);
        assert_eq!(&Uint::from(a) * &Uint::from(b), Uint::from(expect));
    }

    #[test]
    fn mul_multi_limb() {
        // (2^64 + 1)^2 = 2^128 + 2^65 + 1
        let v = &Uint::from(1u128 << 64) + &Uint::one();
        let sq = &v * &v;
        let expect = &(&Uint::from_hex("100000000000000000000000000000000").unwrap()
            + &Uint::from(1u128 << 65))
            + &Uint::one();
        assert_eq!(sq, expect);
    }

    #[test]
    fn shifts() {
        let v = u(0b1011);
        assert_eq!(&v << 1, u(0b10110));
        assert_eq!(&v << 64, Uint::from_limbs(vec![0, 0b1011]));
        assert_eq!(&v << 65, Uint::from_limbs(vec![0, 0b10110]));
        assert_eq!(&v >> 1, u(0b101));
        assert_eq!(&v >> 4, u(0));
        assert_eq!(&(&v << 100) >> 100, v);
        assert_eq!(&Uint::zero() << 5, Uint::zero());
    }

    #[test]
    fn ordering() {
        assert!(u(1) < u(2));
        assert!(u(2) > u(1));
        assert!(Uint::from_limbs(vec![0, 1]) > u(u64::MAX as u128));
        assert!(Uint::from_limbs(vec![5, 1]) > Uint::from_limbs(vec![9, 0, 0]));
        assert_eq!(u(7).cmp(&u(7)), std::cmp::Ordering::Equal);
    }
}
