//! Modular arithmetic: `mul_mod`, `pow_mod`, `inv_mod`, `gcd`.
//!
//! These are the *schoolbook* operations: every reduction is a full
//! multi-precision division (Knuth Algorithm D), which makes them simple,
//! obviously correct, and modulus-agnostic — they accept any non-zero
//! modulus, even or odd, and operands of any size. They double as the
//! reference oracle the property tests compare the fast paths against.
//!
//! When many operations share one **odd** modulus, build a
//! [`Montgomery`](crate::Montgomery) context instead (division-free REDC
//! reduction, sliding-window exponentiation); when additionally the *base*
//! is fixed across exponentiations, layer a
//! [`FixedBase`](crate::FixedBase) table on top. Both agree with the
//! operations here on every input, by proptest.

use std::cmp::Ordering;

use crate::signed::Int;
use crate::uint::Uint;

/// In-place little-endian limb helpers backing the binary modular
/// inverse: the hot loop runs thousands of shift/add/sub steps per
/// inversion, so none of them may allocate. Each is inlined into
/// [`inv_odd_width`], so a literal width there reaches their loops too.
#[inline(always)]
fn ls_is_zero(x: &[u64]) -> bool {
    x.iter().all(|&l| l == 0)
}

#[inline(always)]
fn ls_is_one(x: &[u64]) -> bool {
    x[0] == 1 && x[1..].iter().all(|&l| l == 0)
}

/// Numeric comparison; lengths may differ (missing high limbs are zero).
#[inline(always)]
fn ls_cmp(x: &[u64], y: &[u64]) -> Ordering {
    let top = x.len().max(y.len());
    for i in (0..top).rev() {
        let xi = x.get(i).copied().unwrap_or(0);
        let yi = y.get(i).copied().unwrap_or(0);
        match xi.cmp(&yi) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// `x >>= 1` in place.
#[inline(always)]
fn ls_shr1(x: &mut [u64]) {
    let mut carry = 0u64;
    for l in x.iter_mut().rev() {
        let next = *l << 63;
        *l = (*l >> 1) | carry;
        carry = next;
    }
}

/// `x += y` in place; the caller sizes `x` so the sum fits.
#[inline(always)]
fn ls_add(x: &mut [u64], y: &[u64]) {
    let mut carry = 0u64;
    for (i, xi) in x.iter_mut().enumerate() {
        let yv = y.get(i).copied().unwrap_or(0);
        let (s1, c1) = xi.overflowing_add(yv);
        let (s2, c2) = s1.overflowing_add(carry);
        *xi = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    debug_assert_eq!(carry, 0, "ls_add overflowed the buffer");
}

/// `x -= y` in place; requires `x >= y`.
#[inline(always)]
fn ls_sub(x: &mut [u64], y: &[u64]) {
    let mut borrow = 0u64;
    for (i, xi) in x.iter_mut().enumerate() {
        let yv = y.get(i).copied().unwrap_or(0);
        let (d1, b1) = xi.overflowing_sub(yv);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *xi = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0, "ls_sub underflowed");
}

impl Uint {
    /// Computes `(self * other) mod modulus` by full multiplication
    /// followed by one Algorithm D reduction.
    ///
    /// Operands need not be reduced; the result always is. Cost is
    /// `O(a·b)` limb products plus an `O((a+b)·m)` division — for repeated
    /// multiplications modulo one odd modulus,
    /// [`Montgomery::mul_mod`](crate::Montgomery::mul_mod) amortizes
    /// better.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    ///
    /// ```
    /// use refstate_bigint::Uint;
    /// let r = Uint::from(7u64).mul_mod(&Uint::from(8u64), &Uint::from(10u64));
    /// assert_eq!(r, Uint::from(6u64));
    /// ```
    pub fn mul_mod(&self, other: &Uint, modulus: &Uint) -> Uint {
        (self * other).rem(modulus)
    }

    /// Computes `(self + other) mod modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn add_mod(&self, other: &Uint, modulus: &Uint) -> Uint {
        (self + other).rem(modulus)
    }

    /// Computes `(self - other) mod modulus`, wrapping into `[0, modulus)`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn sub_mod(&self, other: &Uint, modulus: &Uint) -> Uint {
        let a = self.rem(modulus);
        let b = other.rem(modulus);
        if a >= b {
            (&a - &b).rem(modulus)
        } else {
            &(&a + modulus) - &b
        }
    }

    /// Computes `self ^ exponent mod modulus` by left-to-right binary
    /// square-and-multiply: one squaring per exponent bit plus one
    /// multiplication per *set* bit, every product reduced by a full
    /// division.
    ///
    /// This is the schoolbook reference. For odd moduli,
    /// [`Montgomery::pow_mod`](crate::Montgomery::pow_mod) computes the
    /// same function several times faster (division-free inner loop,
    /// sliding window), and [`FixedBase`](crate::FixedBase) drops the
    /// squarings entirely when the base recurs; both are property-tested
    /// to agree with this method.
    ///
    /// Edge cases follow the usual conventions: `x^0 mod m = 1` for any
    /// `x` (including 0), and any power modulo 1 is 0.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    ///
    /// ```
    /// use refstate_bigint::Uint;
    /// let base = Uint::from(4u64);
    /// let exp = Uint::from(13u64);
    /// let m = Uint::from(497u64);
    /// assert_eq!(base.pow_mod(&exp, &m), Uint::from(445u64));
    /// ```
    pub fn pow_mod(&self, exponent: &Uint, modulus: &Uint) -> Uint {
        assert!(!modulus.is_zero(), "pow_mod modulus must be non-zero");
        if modulus.is_one() {
            return Uint::zero();
        }
        if exponent.is_zero() {
            return Uint::one();
        }
        let base = self.rem(modulus);
        let mut acc = Uint::one();
        let bits = exponent.bit_len();
        for i in (0..bits).rev() {
            acc = acc.mul_mod(&acc, modulus);
            if exponent.bit(i) {
                acc = acc.mul_mod(&base, modulus);
            }
        }
        acc
    }

    /// Computes the greatest common divisor by the Euclidean algorithm.
    ///
    /// `gcd(0, 0)` is defined as `0`.
    ///
    /// ```
    /// use refstate_bigint::Uint;
    /// assert_eq!(Uint::from(48u64).gcd(&Uint::from(18u64)), Uint::from(6u64));
    /// ```
    pub fn gcd(&self, other: &Uint) -> Uint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Computes the multiplicative inverse of `self` modulo `modulus`,
    /// returning `None` when `gcd(self, modulus) != 1` (no inverse exists)
    /// or when `modulus < 2`.
    ///
    /// An odd modulus takes the division-free binary extended GCD: this
    /// method reduces `self` and sizes the loop's buffers on the heap, and
    /// the loop itself is the body
    /// [`Montgomery::scalar_inv`](crate::Montgomery::scalar_inv) runs on a
    /// stack scratch. An even modulus takes extended Euclid.
    ///
    /// ```
    /// use refstate_bigint::Uint;
    /// let inv = Uint::from(3u64).inv_mod(&Uint::from(11u64)).unwrap();
    /// assert_eq!(inv, Uint::from(4u64)); // 3*4 = 12 ≡ 1 (mod 11)
    /// assert!(Uint::from(4u64).inv_mod(&Uint::from(8u64)).is_none());
    /// ```
    pub fn inv_mod(&self, modulus: &Uint) -> Option<Uint> {
        if modulus < &Uint::from(2u64) {
            return None;
        }
        if !modulus.is_even() {
            // The common case (prime moduli) takes the division-free
            // binary algorithm, an order of magnitude faster than extended
            // Euclid at crypto sizes.
            let a = self.rem(modulus);
            let width = modulus.limb_len();
            let mut scratch = vec![0; inv_scratch_limbs(width)];
            let mut inverse = vec![0; width];
            return inv_odd_into(a.limbs(), modulus.limbs(), &mut scratch, &mut inverse)
                .then(|| Uint::from_limbs(inverse));
        }
        // General fallback: extended Euclid on (modulus, self mod
        // modulus), tracking only the Bezout coefficient of `self`.
        let mut r_prev = modulus.clone();
        let mut r = self.rem(modulus);
        let mut t_prev = Int::zero();
        let mut t = Int::one();
        while !r.is_zero() {
            let (q, rem) = r_prev.divrem(&r);
            let t_next = t_prev.sub(&Int::from_uint(q).mul(&t));
            r_prev = r;
            r = rem;
            t_prev = t;
            t = t_next;
        }
        if !r_prev.is_one() {
            return None;
        }
        Some(t_prev.rem_euclid(modulus))
    }
}

/// The scratch limbs [`inv_odd_into`] needs for a `width`-limb modulus.
pub(crate) const fn inv_scratch_limbs(width: usize) -> usize {
    4 * width + 2
}

/// Binary extended GCD inverse for **odd** moduli: shift/subtract only, no
/// multi-precision division (HAC Algorithm 14.61 specialized to odd `m`).
/// Writes the inverse of `a < m` modulo the odd `m` into `out[..m.len()]`
/// and returns `true`, or returns `false` when `a` is zero or shares a
/// factor with `m`. The loop works in place in `scratch`
/// ([`inv_scratch_limbs`] limbs), so it allocates nothing.
///
/// As in `Montgomery::cios`, each arm hands the one body its width as a
/// literal, so the limb loops unroll at 2 and 3 limbs: the widths of the
/// built-in groups' 128- and 160-bit subgroup orders `q`, the only moduli
/// the DSA layer inverts in (once per nonce batch and verify flush). Any
/// other width runs the same body with the runtime count.
pub(crate) fn inv_odd_into(a: &[u64], m: &[u64], scratch: &mut [u64], out: &mut [u64]) -> bool {
    debug_assert!(m[0] & 1 == 1 && ls_cmp(a, m) == Ordering::Less);
    if ls_is_zero(a) {
        return false;
    }
    match m.len() {
        2 => inv_odd_width(2, a, m, scratch, out),
        3 => inv_odd_width(3, a, m, scratch, out),
        width => inv_odd_width(width, a, m, scratch, out),
    }
}

/// The body of [`inv_odd_into`] at `width` limbs, for a non-zero `a`.
#[inline(always)]
fn inv_odd_width(width: usize, a: &[u64], m: &[u64], scratch: &mut [u64], out: &mut [u64]) -> bool {
    let m = &m[..width];
    // Working values u, v in `width` limbs; Bezout coefficients x1,
    // x2 in `width + 1` limbs (x + m overflows `width` transiently
    // before the halving). Invariants: x1·a ≡ u, x2·a ≡ v (mod m),
    // x1 and x2 in [0, m) at loop boundaries.
    let scratch = &mut scratch[..inv_scratch_limbs(width)];
    scratch.fill(0);
    let (u, rest) = scratch.split_at_mut(width);
    let (v, rest) = rest.split_at_mut(width);
    let (x1, x2) = rest.split_at_mut(width + 1);
    let a = &a[..a.len().min(width)];
    u[..a.len()].copy_from_slice(a);
    v.copy_from_slice(m);
    x1[0] = 1;

    // (x + m) / 2 when x is odd, x / 2 otherwise — stays in [0, m).
    #[inline(always)]
    fn halve(x: &mut [u64], m: &[u64]) {
        if x[0] & 1 == 1 {
            ls_add(x, m);
        }
        ls_shr1(x);
    }
    // x ← x - y (mod m), both in [0, m).
    #[inline(always)]
    fn sub_mod_in_place(x: &mut [u64], y: &[u64], m: &[u64]) {
        if ls_cmp(x, y) == Ordering::Less {
            ls_add(x, m);
        }
        ls_sub(x, y);
    }

    while !ls_is_one(u) && !ls_is_one(v) {
        while u[0] & 1 == 0 {
            ls_shr1(u);
            halve(x1, m);
        }
        while v[0] & 1 == 0 {
            ls_shr1(v);
            halve(x2, m);
        }
        if ls_cmp(u, v) != Ordering::Less {
            ls_sub(u, v);
            sub_mod_in_place(x1, x2, m);
            if ls_is_zero(u) {
                // gcd(a, m) = v, and the loop guard says v != 1: no
                // inverse exists.
                return false;
            }
        } else {
            ls_sub(v, u);
            sub_mod_in_place(x2, x1, m);
        }
    }
    // gcd(a, m) = 1 landed in whichever variable reached 1.
    let x = if ls_is_one(u) { x1 } else { x2 };
    out[..width].copy_from_slice(&x[..width]);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> Uint {
        Uint::from(v)
    }

    #[test]
    fn pow_mod_small() {
        assert_eq!(u(2).pow_mod(&u(10), &u(1000)), u(24));
        assert_eq!(u(2).pow_mod(&u(0), &u(1000)), u(1));
        assert_eq!(u(0).pow_mod(&u(5), &u(7)), u(0));
        assert_eq!(u(5).pow_mod(&u(1), &u(7)), u(5));
        assert_eq!(u(5).pow_mod(&u(100), &u(1)), u(0));
    }

    #[test]
    fn pow_mod_fermat() {
        // Fermat's little theorem: a^(p-1) ≡ 1 mod p for prime p, a not
        // divisible by p.
        let p = u(1_000_000_007);
        for a in [2u64, 3, 65537, 999_999_999] {
            assert_eq!(u(a).pow_mod(&(&p - &Uint::one()), &p), Uint::one());
        }
    }

    #[test]
    fn pow_mod_large() {
        // 2^128 mod (2^61 - 1): 2^128 = 2^(61*2+6) => 2^6 = 64.
        let m = &(Uint::from(1u128 << 61)) - &Uint::one();
        let e = u(128);
        assert_eq!(u(2).pow_mod(&e, &m), u(64));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn pow_mod_zero_modulus_panics() {
        let _ = u(2).pow_mod(&u(2), &Uint::zero());
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(u(48).gcd(&u(18)), u(6));
        assert_eq!(u(17).gcd(&u(5)), u(1));
        assert_eq!(u(0).gcd(&u(5)), u(5));
        assert_eq!(u(5).gcd(&u(0)), u(5));
        assert_eq!(Uint::zero().gcd(&Uint::zero()), Uint::zero());
    }

    #[test]
    fn inv_mod_cases() {
        assert_eq!(u(3).inv_mod(&u(11)), Some(u(4)));
        assert_eq!(u(10).inv_mod(&u(17)), Some(u(12))); // 10*12=120=7*17+1
        assert!(u(4).inv_mod(&u(8)).is_none());
        assert!(u(0).inv_mod(&u(7)).is_none());
        assert!(u(3).inv_mod(&u(1)).is_none());
        assert!(u(3).inv_mod(&Uint::zero()).is_none());
        // Odd modulus without an inverse exercises the binary path's
        // gcd-detection (not just the even-modulus Euclid fallback).
        assert!(u(3).inv_mod(&u(9)).is_none());
        assert!(u(15).inv_mod(&u(25)).is_none());
        assert!(u(9).inv_mod(&u(9)).is_none());
        // Self-inverse and unit edge cases on the binary path.
        assert_eq!(u(1).inv_mod(&u(9)), Some(u(1)));
        assert_eq!(u(8).inv_mod(&u(9)), Some(u(8))); // (-1)^2 = 1
    }

    #[test]
    fn inv_mod_binary_matches_euclid_on_odd_moduli() {
        // The division-free binary inverse must agree with the general
        // extended-Euclid fallback wherever both are defined.
        for m in [3u64, 9, 11, 15, 21, 101, 1_000_000_007] {
            for a in 0..200u64 {
                let modulus = u(m);
                let binary = u(a).inv_mod(&modulus);
                // Force the Euclid path by checking the defining property
                // instead (the fallback is only reachable for even m).
                match binary {
                    Some(inv) => {
                        assert!(inv < modulus);
                        assert_eq!(u(a).mul_mod(&inv, &modulus), Uint::one(), "a={a} m={m}");
                    }
                    None => {
                        assert_ne!(u(a).gcd(&modulus), Uint::one(), "a={a} m={m}");
                    }
                }
            }
        }
    }

    #[test]
    fn inv_mod_verifies() {
        let m = u(1_000_000_007);
        for a in [2u64, 3, 12345, 999_999_999] {
            let inv = u(a).inv_mod(&m).unwrap();
            assert_eq!(u(a).mul_mod(&inv, &m), Uint::one());
        }
    }

    #[test]
    fn inv_mod_large_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let p = &Uint::from(1u128 << 127) - &Uint::one();
        let a = Uint::from(0x1234_5678_9abc_def0u64);
        let inv = a.inv_mod(&p).unwrap();
        assert_eq!(a.mul_mod(&inv, &p), Uint::one());
    }

    #[test]
    fn sub_mod_wraps() {
        assert_eq!(u(3).sub_mod(&u(5), &u(7)), u(5));
        assert_eq!(u(5).sub_mod(&u(3), &u(7)), u(2));
        assert_eq!(u(5).sub_mod(&u(5), &u(7)), u(0));
        assert_eq!(u(12).sub_mod(&u(20), &u(7)), u(6)); // 5 - 6 mod 7
    }

    #[test]
    fn add_mod_and_mul_mod() {
        assert_eq!(u(5).add_mod(&u(5), &u(7)), u(3));
        assert_eq!(u(5).mul_mod(&u(5), &u(7)), u(4));
    }
}
