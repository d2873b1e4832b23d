//! Stack scalars: the values of a narrow [`Montgomery`] context, held in
//! fixed arrays.
//!
//! DSA's scalar arithmetic — the nonce `k` and `k⁻¹`, `r`, `s`, the
//! message hash `z`, `w = s⁻¹`, `u1 = z·w` and `u2 = r·w` — runs modulo
//! the subgroup order `q`, which is at most 256 bits (FIPS 186-4's widest
//! `N`). As [`Uint`]s or [`MontInt`](crate::MontInt)s each of them is a
//! heap vector, though the kernels under them run at a fixed width. A
//! [`Scalar`] is `[u64; SCALAR_LIMBS]` and `Copy`, and the context's
//! scalar methods run the same width-dispatched CIOS kernel on it:
//!
//! * [`Montgomery::reduce`] takes any limb slice into the Montgomery form,
//!   by Horner steps of one CIOS multiplication by `R² mod n` per `k`
//!   limbs — it replaces a division by `n` (DSA's `r = (g^k mod p) mod q`
//!   and its verify-side twin `v mod q`);
//! * [`Montgomery::scalar_mul`] is one CIOS pass, `a·b·R⁻¹ mod n`. With
//!   one operand in Montgomery form and the other plain, the product
//!   comes out plain, so `z·w` needs no conversion at either end;
//! * [`Montgomery::scalar_add`], and [`Montgomery::scalar_inv`], the
//!   in-domain inverse (the binary GCD on a stack scratch).
//!
//! A scalar does not record whether it holds a plain value or a
//! Montgomery residue, nor which context it belongs to: as with
//! [`MontInt`](crate::MontInt), that is the caller's bookkeeping. Limbs
//! above the context's width `k` are always zero.
//!
//! # Examples
//!
//! ```
//! use refstate_bigint::{Montgomery, Scalar, Uint};
//!
//! let q = Uint::from(1_000_000_007u64);
//! let ctx = Montgomery::new(&q).unwrap();
//! // 10^12 mod q, into the domain without a division.
//! let a = ctx.reduce(&[1_000_000_000_000]);
//! let b = Scalar::try_from(&Uint::from(3u64)).unwrap();
//! // Residue times plain value: the plain product.
//! let ab = ctx.scalar_mul(&a, &b);
//! assert_eq!(Uint::from(ab), Uint::from(3_000_000_000_000u64).rem(&q));
//! ```

use rand::RngCore;

use crate::error::ParseUintError;
use crate::modular::{inv_odd_into, inv_scratch_limbs};
use crate::montgomery::{ge_limbs, sub_limbs, Montgomery};
use crate::uint::Uint;

/// The widest modulus, in limbs, whose values fit a [`Scalar`]: 256 bits,
/// FIPS 186-4's widest DSA subgroup order.
pub const SCALAR_LIMBS: usize = 4;

/// A value below `2^256` as four little-endian limbs on the stack: a plain
/// integer or a Montgomery residue of a context of at most
/// [`SCALAR_LIMBS`] limbs (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Scalar {
    limbs: [u64; SCALAR_LIMBS],
}

impl Scalar {
    /// Zero.
    pub const ZERO: Scalar = Scalar {
        limbs: [0; SCALAR_LIMBS],
    };

    /// The plain value 1: [`Montgomery::scalar_mul`] by it converts a
    /// residue out of the domain.
    pub const ONE: Scalar = Scalar {
        limbs: [1, 0, 0, 0],
    };

    /// Interprets up to 32 big-endian bytes; `None` if they are longer.
    pub fn from_be_bytes(bytes: &[u8]) -> Option<Scalar> {
        if bytes.len() > 8 * SCALAR_LIMBS {
            return None;
        }
        let mut limbs = [0; SCALAR_LIMBS];
        for (limb, chunk) in limbs.iter_mut().zip(bytes.rchunks(8)) {
            let mut word = [0; 8];
            word[8 - chunk.len()..].copy_from_slice(chunk);
            *limb = u64::from_be_bytes(word);
        }
        Some(Scalar { limbs })
    }

    /// The value shifted right by `bits`.
    pub fn shr(&self, bits: usize) -> Scalar {
        let (skip, off) = (bits / 64, bits % 64);
        let mut limbs = [0; SCALAR_LIMBS];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let low = self.limbs.get(i + skip).map_or(0, |l| l >> off);
            let high = match off {
                0 => 0,
                _ => self.limbs.get(i + skip + 1).map_or(0, |l| l << (64 - off)),
            };
            *limb = low | high;
        }
        Scalar { limbs }
    }

    /// The little-endian limbs, all [`SCALAR_LIMBS`] of them.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// `true` for zero.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; SCALAR_LIMBS]
    }
}

impl TryFrom<&Uint> for Scalar {
    type Error = ParseUintError;

    /// Copies a value of at most [`SCALAR_LIMBS`] limbs.
    fn try_from(value: &Uint) -> Result<Self, Self::Error> {
        let src = value.limbs();
        if src.len() > SCALAR_LIMBS {
            return Err(ParseUintError::overflow());
        }
        let mut limbs = [0; SCALAR_LIMBS];
        limbs[..src.len()].copy_from_slice(src);
        Ok(Scalar { limbs })
    }
}

impl From<Scalar> for Uint {
    fn from(value: Scalar) -> Self {
        Uint::from_limbs(value.limbs.to_vec())
    }
}

impl Montgomery {
    /// The width `k`, checked to fit a [`Scalar`].
    fn scalar_width(&self) -> usize {
        let k = self.limbs();
        assert!(
            k <= SCALAR_LIMBS,
            "a {k}-limb modulus is wider than a Scalar"
        );
        k
    }

    /// The Montgomery form `V·R mod n` of the value `V` of little-endian
    /// `limbs`, of any length: `⌈len / k⌉` CIOS passes (Horner steps by
    /// `R² mod n`) and no division.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is wider than [`SCALAR_LIMBS`] limbs.
    pub fn reduce(&self, limbs: &[u64]) -> Scalar {
        let k = self.scalar_width();
        let mut acc = [0; SCALAR_LIMBS];
        let mut out = Scalar::ZERO;
        self.reduce_into(limbs, &mut acc[..k], &mut out.limbs[..k]);
        out
    }

    /// `a·b·R⁻¹ mod n`, fully reduced: one CIOS pass. One operand must be
    /// below `n` and the other below `R`. Two residues multiply to the
    /// residue of the product; a residue and a plain value multiply to the
    /// plain product; [`Scalar::ONE`] converts a residue out.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is wider than [`SCALAR_LIMBS`] limbs, or an
    /// operand has a non-zero limb above its width.
    pub fn scalar_mul(&self, a: &Scalar, b: &Scalar) -> Scalar {
        let k = self.scalar_width();
        assert!(
            a.limbs[k..].iter().chain(&b.limbs[k..]).all(|&l| l == 0),
            "Scalar operand wider than its {k}-limb modulus"
        );
        let mut out = Scalar::ZERO;
        self.cios(&a.limbs[..k], &b.limbs[..k], &mut out.limbs[..k]);
        out
    }

    /// `(a + b) mod n` for `a` and `b` below `n`, in either form (the map
    /// into the domain is additive).
    ///
    /// # Panics
    ///
    /// Panics if the modulus is wider than [`SCALAR_LIMBS`] limbs.
    pub fn scalar_add(&self, a: &Scalar, b: &Scalar) -> Scalar {
        let k = self.scalar_width();
        let mut out = Scalar::ZERO;
        let mut carry = 0u64;
        for (j, limb) in out.limbs[..k].iter_mut().enumerate() {
            let sum = a.limbs[j] as u128 + b.limbs[j] as u128 + carry as u128;
            *limb = sum as u64;
            carry = (sum >> 64) as u64;
        }
        let n = &self.n_limbs[..];
        if carry != 0 || ge_limbs(&out.limbs[..k], n) {
            sub_limbs(&mut out.limbs[..k], n);
        }
        out
    }

    /// Inverts the residue `â = a·R mod n` **in-domain**: returns
    /// `a⁻¹·R mod n`, or `None` when `gcd(a, n) ≠ 1` (including `a = 0`).
    ///
    /// The residue is inverted as it stands by the division-free binary
    /// extended GCD (the body of [`Uint::inv_mod`]'s odd-modulus path), on a
    /// stack scratch, then mapped back into the domain with two CIOS
    /// multiplications by `R²`:
    /// `(a·R)⁻¹ = a⁻¹·R⁻¹ ──·R²·R⁻¹──▶ a⁻¹ ──·R²·R⁻¹──▶ a⁻¹·R`. A caller
    /// chaining the inverse into further products (DSA's `w = s⁻¹` feeding
    /// `u1 = z·w` and `u2 = r·w`) never leaves the domain.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is wider than [`SCALAR_LIMBS`] limbs.
    pub fn scalar_inv(&self, a: &Scalar) -> Option<Scalar> {
        let k = self.scalar_width();
        let mut scratch = [0; inv_scratch_limbs(SCALAR_LIMBS)];
        let mut out = Scalar::ZERO;
        let inverse = &mut out.limbs[..k];
        if !inv_odd_into(&a.limbs[..k], &self.n_limbs, &mut scratch, inverse) {
            return None;
        }
        let mut unmapped = [0; SCALAR_LIMBS];
        self.cios(inverse, &self.r2, &mut unmapped[..k]);
        self.cios(&unmapped[..k], &self.r2, inverse);
        Some(out)
    }

    /// `true` when `a < n`.
    fn below_modulus(&self, a: &Scalar) -> bool {
        let k = self.limbs();
        a.limbs[k..].iter().all(|&l| l == 0) && !ge_limbs(&a.limbs[..k], &self.n_limbs)
    }

    /// A uniform draw from `[1, n)`: [`random_in_unit_range`] on the
    /// stack, reading exactly the words of `rng` it reads, so the two draw
    /// the same value from the same stream.
    ///
    /// [`random_in_unit_range`]: crate::random_in_unit_range
    ///
    /// # Panics
    ///
    /// Panics if the modulus is wider than [`SCALAR_LIMBS`] limbs.
    pub fn random_scalar(&self, rng: &mut dyn RngCore) -> Scalar {
        self.scalar_width();
        let bits = self.modulus().bit_len();
        let (words, top_bits) = (bits.div_ceil(64), bits % 64);
        loop {
            let mut candidate = Scalar::ZERO;
            for limb in &mut candidate.limbs[..words] {
                *limb = rng.next_u64();
            }
            if top_bits != 0 {
                candidate.limbs[words - 1] &= (1 << top_bits) - 1;
            }
            if !candidate.is_zero() && self.below_modulus(&candidate) {
                return candidate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scalar(v: u64) -> Scalar {
        Scalar::try_from(&Uint::from(v)).unwrap()
    }

    #[test]
    fn bytes_shift_and_conversions_round_trip() {
        let v = Uint::from_hex("0123456789abcdeffedcba98765432100011223344556677").unwrap();
        let s = Scalar::from_be_bytes(&v.to_be_bytes()).unwrap();
        assert_eq!(Scalar::try_from(&v), Ok(s));
        assert_eq!(Uint::from(s), v);
        for bits in [0, 1, 63, 64, 65, 130, 200, 256] {
            assert_eq!(Uint::from(s.shr(bits)), &v >> bits, "shift {bits}");
        }
        assert!(Scalar::from_be_bytes(&[1; 33]).is_none());
        assert!(Scalar::try_from(&(&Uint::one() << 256)).is_err());
        assert!(Scalar::ZERO.is_zero() && !Scalar::ONE.is_zero());
    }

    #[test]
    fn reduce_multiplies_and_inverts_like_the_schoolbook() {
        let q = Uint::from(1_000_000_007u64);
        let ctx = Montgomery::new(&q).unwrap();
        let wide = [u64::MAX, 7, 0, u64::MAX, 0, 0];
        let expect = Uint::from_be_bytes(
            &wide
                .iter()
                .rev()
                .flat_map(|l| l.to_be_bytes())
                .collect::<Vec<u8>>(),
        )
        .rem(&q);
        let residue = ctx.reduce(&wide);
        assert_eq!(Uint::from(ctx.scalar_mul(&residue, &Scalar::ONE)), expect);
        let inverse = ctx.scalar_inv(&residue).unwrap();
        let one = ctx.scalar_mul(&residue, &inverse);
        assert_eq!(Uint::from(ctx.scalar_mul(&one, &Scalar::ONE)), Uint::one());
        assert_eq!(ctx.scalar_inv(&Scalar::ZERO), None);
        let sum = ctx.scalar_add(&scalar(1_000_000_006), &scalar(2));
        assert_eq!(sum, scalar(1));
    }

    #[test]
    fn random_scalar_draws_what_random_in_unit_range_draws() {
        for q in [3u64, 1_000_000_007, u64::MAX] {
            let q = Uint::from(q);
            let ctx = Montgomery::new(&q).unwrap();
            let mut a = StdRng::seed_from_u64(9);
            let mut b = StdRng::seed_from_u64(9);
            for _ in 0..50 {
                let k = ctx.random_scalar(&mut a);
                assert_eq!(Uint::from(k), crate::random_in_unit_range(&mut b, &q));
            }
        }
    }

    #[test]
    fn inv_is_in_domain_and_matches_uint_inv_mod() {
        let n = Uint::from(497u64); // 7 · 71: plenty of non-invertible residues
        let ctx = Montgomery::new(&n).unwrap();
        let one = ctx.reduce(&[1]);
        for a in 0u64..497 {
            let residue = ctx.reduce(&[a]);
            match (Uint::from(a).inv_mod(&n), ctx.scalar_inv(&residue)) {
                (None, None) => {}
                (Some(plain), Some(inverse)) => {
                    // In-domain: the inverse IS a⁻¹·R, so converting it out
                    // gives the plain inverse and â·â⁻¹ is the domain's 1.
                    assert_eq!(Uint::from(ctx.scalar_mul(&inverse, &Scalar::ONE)), plain);
                    assert_eq!(ctx.scalar_mul(&residue, &inverse), one, "a={a}");
                }
                (e, g) => panic!("a={a}: inv_mod says {e:?}, scalar_inv says {g:?}"),
            }
        }
    }

    #[test]
    fn inv_chains_without_leaving_the_domain() {
        // The DSA shape: w = s⁻¹, then u1 = z·w and u2 = r·w, plain.
        let p = &Uint::from(1u128 << 127) - &Uint::one();
        let ctx = Montgomery::new(&p).unwrap();
        let (s, z, r) = (
            Uint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap(),
            Uint::from(4321u64),
            Uint::from(77777u64),
        );
        let w = ctx.scalar_inv(&ctx.reduce(s.limbs())).unwrap();
        let times_w = |x: &Uint| Uint::from(ctx.scalar_mul(&Scalar::try_from(x).unwrap(), &w));
        let w_plain = s.inv_mod(&p).unwrap();
        assert_eq!(times_w(&z), z.mul_mod(&w_plain, &p));
        assert_eq!(times_w(&r), r.mul_mod(&w_plain, &p));
        assert_eq!(ctx.scalar_inv(&Scalar::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "wider than a Scalar")]
    fn wide_modulus_has_no_scalars() {
        let ctx = Montgomery::new(&(&(&Uint::one() << 320) + &Uint::one())).unwrap();
        let _ = ctx.reduce(&[1]);
    }
}
