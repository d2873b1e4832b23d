//! Montgomery arithmetic: a precomputed reduction context for a fixed odd
//! modulus.
//!
//! Every [`Uint::mul_mod`](crate::Uint::mul_mod) pays a full Knuth
//! Algorithm D division to reduce the double-width product. When many
//! multiplications share one modulus — a modular exponentiation performs
//! hundreds — that division dominates. Montgomery's method trades the
//! per-product division for limb-level shifts: numbers are mapped into the
//! *Montgomery domain* (`a ↦ a·R mod n` with `R = 2^(64·k)`, `k` the limb
//! count of `n`), where the product of two residues can be reduced with
//! word-by-word eliminations (REDC) instead of trial quotients. The map is
//! a ring isomorphism, so whole exponentiations run inside the domain and
//! convert back once.
//!
//! The word-level algorithm is CIOS (coarsely integrated operand
//! scanning, Koç–Acar–Kaliski): interleaving multiplication and reduction
//! keeps the intermediate at `k + 2` limbs instead of `2k`.
//!
//! The limb count `k` is only known at run time, and a loop whose trip
//! count is a runtime value stays a loop: the compiler cannot unroll it or
//! keep the running sum in registers. So the CIOS kernel is one
//! `#[inline(always)]` body that a `match` on `k` calls with a literal
//! width for the small widths the DSA groups use (2, 3 and 4 limbs: the
//! 256-bit group's `q` and `p`, and the 160-bit `q` of the paper's
//! groups); each arm compiles to unrolled code, and one more arm passes
//! any other width through unchanged. Same algorithm, same results, no `unsafe`: the
//! kernel property tests pin every arm against the schoolbook oracle.
//!
//! Two entry levels are exposed:
//!
//! * **`Uint` domain** — [`Montgomery::mul_mod`] / [`Montgomery::pow_mod`]
//!   take and return ordinary integers; the context handles conversions.
//! * **Montgomery domain** — [`Montgomery::to_mont`] /
//!   [`Montgomery::mont_mul`] / [`Montgomery::mont_pow`] /
//!   [`Montgomery::from_mont`] operate on [`MontInt`] residues, letting
//!   callers (fixed-base tables, fused double exponentiation) stay inside
//!   the domain across several operations and pay conversion only at the
//!   edges.
//!
//! # Invariants
//!
//! * The modulus must be **odd** and `≥ 3` ([`Montgomery::new`] returns
//!   `None` otherwise — REDC needs `gcd(n, 2^64) = 1`).
//! * A [`MontInt`] is only meaningful with the context that produced it;
//!   mixing contexts of different limb widths panics, mixing same-width
//!   contexts silently computes garbage (documented, not checked — the
//!   residues are plain limb vectors).
//!
//! # Examples
//!
//! ```
//! use refstate_bigint::{Montgomery, Uint};
//!
//! let n = Uint::from(497u64); // odd modulus
//! let ctx = Montgomery::new(&n).unwrap();
//! let base = Uint::from(4u64);
//! let exp = Uint::from(13u64);
//! assert_eq!(ctx.pow_mod(&base, &exp), base.pow_mod(&exp, &n));
//! ```

use crate::uint::Uint;

/// A residue in the Montgomery domain: the value `a·R mod n` stored as
/// exactly `k` little-endian limbs, where `k` and `n` belong to the
/// [`Montgomery`] context that produced it.
///
/// Opaque on purpose: the only useful operations are the context's
/// [`mont_mul`](Montgomery::mont_mul) / [`mont_pow`](Montgomery::mont_pow)
/// and the conversion back via [`from_mont`](Montgomery::from_mont).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MontInt {
    pub(crate) limbs: Vec<u64>,
}

/// A Montgomery reduction context for one fixed odd modulus.
///
/// Construction performs the one-time precomputation (`-n⁻¹ mod 2^64` by
/// Newton iteration, `R mod n` and `R² mod n` by one wide division each);
/// afterwards every modular multiplication costs one CIOS pass —
/// `O(k²)` single-word multiplications and **no division**.
#[derive(Debug, Clone)]
pub struct Montgomery {
    /// The modulus `n` (odd, ≥ 3).
    n: Uint,
    /// `n` as exactly `k` limbs.
    n_limbs: Vec<u64>,
    /// `-n⁻¹ mod 2^64`.
    n0: u64,
    /// `R² mod n` (`k` limbs): multiplying by it converts into the domain.
    r2: Vec<u64>,
    /// `R mod n` (`k` limbs): the Montgomery form of 1.
    one: Vec<u64>,
}

impl Montgomery {
    /// Builds a context for `modulus`, or `None` if the modulus is even or
    /// below 3 (REDC requires the modulus to be coprime to the limb base).
    ///
    /// ```
    /// use refstate_bigint::{Montgomery, Uint};
    /// assert!(Montgomery::new(&Uint::from(15u64)).is_some());
    /// assert!(Montgomery::new(&Uint::from(16u64)).is_none());
    /// assert!(Montgomery::new(&Uint::from(1u64)).is_none());
    /// ```
    pub fn new(modulus: &Uint) -> Option<Self> {
        if modulus.is_even() || modulus < &Uint::from(3u64) {
            return None;
        }
        let k = modulus.limb_len();
        let mut n_limbs = modulus.limbs().to_vec();
        n_limbs.resize(k, 0);

        // Newton–Hensel: for odd x, x ≡ x⁻¹ (mod 8); each step doubles
        // the number of correct low bits, so six steps exceed 64.
        let x = n_limbs[0];
        let mut inv = x;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
        }
        debug_assert_eq!(x.wrapping_mul(inv), 1);
        let n0 = inv.wrapping_neg();

        let r_mod_n = (&Uint::one() << (64 * k)).rem(modulus);
        let r2_mod_n = (&Uint::one() << (128 * k)).rem(modulus);
        Some(Montgomery {
            n: modulus.clone(),
            n_limbs,
            n0,
            r2: to_fixed_limbs(&r2_mod_n, k),
            one: to_fixed_limbs(&r_mod_n, k),
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Uint {
        &self.n
    }

    /// Converts `value` into the Montgomery domain (reducing it modulo `n`
    /// first if necessary).
    pub fn to_mont(&self, value: &Uint) -> MontInt {
        let k = self.n_limbs.len();
        let reduced = if value < &self.n {
            value.clone()
        } else {
            value.rem(&self.n)
        };
        let mut limbs = vec![0; k];
        self.cios(&to_fixed_limbs(&reduced, k), &self.r2, &mut limbs);
        MontInt { limbs }
    }

    /// Converts a Montgomery residue back to an ordinary integer in
    /// `[0, n)`.
    pub fn from_mont(&self, value: &MontInt) -> Uint {
        self.check_width(value);
        let k = self.n_limbs.len();
        let mut one = vec![0; k];
        one[0] = 1;
        let mut limbs = vec![0; k];
        self.cios(&value.limbs, &one, &mut limbs);
        Uint::from_limbs(limbs)
    }

    /// The Montgomery form of 1 (the multiplicative identity of the
    /// domain) — the natural accumulator seed for product chains.
    pub fn one_mont(&self) -> MontInt {
        MontInt {
            limbs: self.one.clone(),
        }
    }

    /// Multiplies two Montgomery residues: one CIOS pass, no division.
    ///
    /// # Panics
    ///
    /// Panics if either operand came from a context with a different limb
    /// width (same-width foreign residues are *not* detectable).
    pub fn mont_mul(&self, a: &MontInt, b: &MontInt) -> MontInt {
        self.check_width(a);
        self.check_width(b);
        let mut limbs = vec![0; self.n_limbs.len()];
        self.cios(&a.limbs, &b.limbs, &mut limbs);
        MontInt { limbs }
    }

    /// Raises a Montgomery residue to `exponent` by left-to-right
    /// sliding-window exponentiation, staying in the domain.
    ///
    /// Cost: `bits` squarings plus roughly `bits / (w + 1)` multiplies
    /// plus `2^(w-1)` table entries, with the window width `w` chosen from
    /// the exponent size (3–5 bits). `exponent == 0` yields
    /// [`Montgomery::one_mont`].
    pub fn mont_pow(&self, base: &MontInt, exponent: &Uint) -> MontInt {
        self.check_width(base);
        let bits = exponent.bit_len();
        if bits == 0 {
            return self.one_mont();
        }
        let k = self.n_limbs.len();
        let window = window_width(bits);
        // Odd powers base^1, base^3, …, base^(2^w - 1), `k` limbs each.
        let mut base_sq = vec![0; k];
        self.cios(&base.limbs, &base.limbs, &mut base_sq);
        let mut odd_powers = vec![0; k << (window - 1)];
        odd_powers[..k].copy_from_slice(&base.limbs);
        for i in 1..(1 << (window - 1)) {
            let (done, rest) = odd_powers.split_at_mut(i * k);
            self.cios(&done[(i - 1) * k..], &base_sq, &mut rest[..k]);
        }

        let mut acc = self.one.clone();
        let mut scratch = vec![0; k];
        let mut i = bits; // scan position: next unprocessed bit is i - 1
        while i > 0 {
            if !exponent.bit(i - 1) {
                self.square_assign(&mut acc, &mut scratch);
                i -= 1;
                continue;
            }
            // Take a window [j, i) ending on a set bit so its value is odd.
            let mut j = i.saturating_sub(window);
            while !exponent.bit(j) {
                j += 1;
            }
            let mut value = 0usize;
            for b in (j..i).rev() {
                self.square_assign(&mut acc, &mut scratch);
                value = (value << 1) | exponent.bit(b) as usize;
            }
            debug_assert!(value % 2 == 1);
            let entry = value / 2 * k;
            self.mul_assign(&mut acc, &odd_powers[entry..entry + k], &mut scratch);
            i = j;
        }
        MontInt { limbs: acc }
    }

    /// Inverts a Montgomery residue **in-domain**: given `â = a·R mod n`,
    /// returns `a⁻¹·R mod n`, or `None` when `gcd(a, n) ≠ 1` (including
    /// `a = 0`).
    ///
    /// The residue is inverted with the division-free binary extended GCD
    /// ([`Uint::inv_mod`] — always on the odd-modulus path, since a
    /// Montgomery modulus is odd by construction), then mapped back into
    /// the domain with two REDC multiplications by `R²`:
    /// `(a·R)⁻¹ = a⁻¹·R⁻¹ ──·R²·R⁻¹──▶ a⁻¹ ──·R²·R⁻¹──▶ a⁻¹·R`.
    /// No trial division anywhere, and callers chaining an inverse into
    /// further products (DSA's `w = s⁻¹` feeding `u1 = z·w`, `u2 = r·w`)
    /// never leave the domain.
    ///
    /// ```
    /// use refstate_bigint::{Montgomery, Uint};
    /// let n = Uint::from(497u64);
    /// let ctx = Montgomery::new(&n).unwrap();
    /// let a = Uint::from(123u64);
    /// let inv = ctx.inv(&ctx.to_mont(&a)).unwrap();
    /// assert_eq!(
    ///     ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &inv)),
    ///     Uint::one()
    /// );
    /// ```
    pub fn inv(&self, a: &MontInt) -> Option<MontInt> {
        self.check_width(a);
        let plain = Uint::from_limbs(a.limbs.clone()).inv_mod(&self.n)?;
        let k = self.n_limbs.len();
        let mut unmapped = vec![0; k];
        self.cios(&to_fixed_limbs(&plain, k), &self.r2, &mut unmapped);
        let mut limbs = vec![0; k];
        self.cios(&unmapped, &self.r2, &mut limbs);
        Some(MontInt { limbs })
    }

    /// Computes `a⁻¹ mod n` through the domain (reduce in, [`Montgomery::inv`],
    /// convert out); `None` when `a` is not invertible. Agrees with
    /// [`Uint::inv_mod`] for every input (property-tested).
    pub fn inv_mod(&self, a: &Uint) -> Option<Uint> {
        Some(self.from_mont(&self.inv(&self.to_mont(a))?))
    }

    /// Computes `(a * b) mod n` through the domain: two conversions in,
    /// one CIOS multiply, one conversion out.
    ///
    /// For a *single* product this is slower than
    /// [`Uint::mul_mod`](crate::Uint::mul_mod); the win appears when the
    /// context (and its conversions) amortize over many operations, as in
    /// [`Montgomery::pow_mod`].
    ///
    /// ```
    /// use refstate_bigint::{Montgomery, Uint};
    /// let n = Uint::from(10_000_000_019u64);
    /// let ctx = Montgomery::new(&n).unwrap();
    /// let a = Uint::from(123_456_789u64);
    /// let b = Uint::from(987_654_321u64);
    /// assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &n));
    /// ```
    pub fn mul_mod(&self, a: &Uint, b: &Uint) -> Uint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }

    /// Computes `base ^ exponent mod n` entirely inside the Montgomery
    /// domain: one conversion in, sliding-window ladder, one conversion
    /// out. Agrees with the schoolbook
    /// [`Uint::pow_mod`](crate::Uint::pow_mod) for every input
    /// (property-tested) at a fraction of its cost for multi-limb moduli.
    ///
    /// ```
    /// use refstate_bigint::{Montgomery, Uint};
    /// let p = &(Uint::from(1u128 << 127)) - &Uint::one(); // Mersenne prime
    /// let ctx = Montgomery::new(&p).unwrap();
    /// let g = Uint::from(3u64);
    /// let e = Uint::from(0xdead_beefu64);
    /// assert_eq!(ctx.pow_mod(&g, &e), g.pow_mod(&e, &p));
    /// ```
    pub fn pow_mod(&self, base: &Uint, exponent: &Uint) -> Uint {
        let bm = self.to_mont(base);
        self.from_mont(&self.mont_pow(&bm, exponent))
    }

    fn check_width(&self, value: &MontInt) {
        assert_eq!(
            value.limbs.len(),
            self.n_limbs.len(),
            "MontInt used with a foreign Montgomery context"
        );
    }

    /// `acc ← acc²·R⁻¹`: the product lands in `scratch`, then the two
    /// buffers swap, so a ladder of squarings allocates nothing.
    fn square_assign(&self, acc: &mut Vec<u64>, scratch: &mut Vec<u64>) {
        self.cios(acc, acc, scratch);
        std::mem::swap(acc, scratch);
    }

    /// `acc ← acc·b·R⁻¹` through `scratch`, as [`Self::square_assign`].
    pub(crate) fn mul_assign(&self, acc: &mut Vec<u64>, b: &[u64], scratch: &mut Vec<u64>) {
        self.cios(acc, b, scratch);
        std::mem::swap(acc, scratch);
    }

    /// One CIOS Montgomery multiplication: writes `a·b·R⁻¹ mod n` into the
    /// `k`-limb buffer `t`. Operands must be `k` limbs and represent values
    /// `< n`.
    ///
    /// The limb count is a runtime value, so a loop over it cannot be
    /// unrolled. Each arm below therefore hands [`cios_width`] its width as
    /// a literal, and the inlined body compiles to unrolled code at that
    /// width: 2 limbs for the 256-bit group's 128-bit `q`, 3 for the
    /// 160-bit `q` of the paper's groups, 4 for the 256-bit `p`. Every
    /// other width, the 512- and 1024-bit `p` of the paper's groups
    /// included, runs the same body with the runtime count.
    pub(crate) fn cios(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let (n, n0) = (&self.n_limbs[..], self.n0);
        debug_assert_eq!(a.len(), n.len());
        match n.len() {
            2 => cios_width(2, n, n0, a, b, t),
            3 => cios_width(3, n, n0, a, b, t),
            4 => cios_width(4, n, n0, a, b, t),
            k => cios_width(k, n, n0, a, b, t),
        }
    }
}

/// The CIOS body at width `k` (see [`Montgomery::cios`]): `t ← a·b·R⁻¹ mod
/// n` for `k`-limb operands, with `n0 = -n⁻¹ mod 2^64`. The running sum is
/// `k + 2` limbs wide: its low `k` limbs are `t` itself and the two
/// overflow words live in locals, so the multiplication allocates nothing.
#[inline(always)]
fn cios_width(k: usize, n: &[u64], n0: u64, a: &[u64], b: &[u64], t: &mut [u64]) {
    let (n, a, b, t) = (&n[..k], &a[..k], &b[..k], &mut t[..k]);
    t.fill(0);
    // The limbs above `t`: t[k] and t[k + 1] of the textbook layout.
    let mut top: u64 = 0;
    for &ai in a {
        // t += ai * b
        let mut carry: u64 = 0;
        for (tj, &bj) in t.iter_mut().zip(b) {
            let cur = *tj as u128 + ai as u128 * bj as u128 + carry as u128;
            *tj = cur as u64;
            carry = (cur >> 64) as u64;
        }
        let cur = top as u128 + carry as u128;
        top = cur as u64;
        let overflow = (cur >> 64) as u64;

        // Eliminate the low word: t += m·n with m ≡ -t[0]/n[0], then
        // shift one word right (the low word is zero by construction).
        let m = t[0].wrapping_mul(n0);
        let cur = t[0] as u128 + m as u128 * n[0] as u128;
        let mut carry = (cur >> 64) as u64;
        debug_assert_eq!(cur as u64, 0);
        for j in 1..k {
            let cur = t[j] as u128 + m as u128 * n[j] as u128 + carry as u128;
            t[j - 1] = cur as u64;
            carry = (cur >> 64) as u64;
        }
        let cur = top as u128 + carry as u128;
        t[k - 1] = cur as u64;
        top = overflow + ((cur >> 64) as u64);
    }

    // Conditional final subtraction into [0, n).
    if top != 0 || ge_limbs(t, n) {
        let mut borrow = 0u64;
        for (tj, &nj) in t.iter_mut().zip(n) {
            let (d1, b1) = tj.overflowing_sub(nj);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *tj = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, top);
    }
}

/// `a >= b` for equal-length little-endian limb slices.
#[inline(always)]
fn ge_limbs(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for j in (0..a.len()).rev() {
        if a[j] != b[j] {
            return a[j] > b[j];
        }
    }
    true
}

/// Copies `value` into exactly `k` limbs (the value must fit).
fn to_fixed_limbs(value: &Uint, k: usize) -> Vec<u64> {
    let mut limbs = value.limbs().to_vec();
    debug_assert!(limbs.len() <= k);
    limbs.resize(k, 0);
    limbs
}

/// Window width for sliding-window exponentiation, by exponent size.
pub(crate) fn window_width(bits: usize) -> usize {
    match bits {
        0..=23 => 1,
        24..=79 => 3,
        80..=511 => 4,
        _ => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> Uint {
        Uint::from(v)
    }

    #[test]
    fn rejects_even_and_tiny_moduli() {
        assert!(Montgomery::new(&Uint::zero()).is_none());
        assert!(Montgomery::new(&Uint::one()).is_none());
        assert!(Montgomery::new(&u(2)).is_none());
        assert!(Montgomery::new(&u(1024)).is_none());
        assert!(Montgomery::new(&u(3)).is_some());
    }

    #[test]
    fn round_trip_through_domain() {
        let n = u(1_000_000_007);
        let ctx = Montgomery::new(&n).unwrap();
        for v in [0u64, 1, 2, 999_999_999, 1_000_000_006] {
            let m = ctx.to_mont(&u(v));
            assert_eq!(ctx.from_mont(&m), u(v));
        }
        // Values above n reduce on the way in.
        let m = ctx.to_mont(&u(3_000_000_021));
        assert_eq!(ctx.from_mont(&m), u(0));
    }

    #[test]
    fn mul_matches_schoolbook_small() {
        let n = u(497);
        let ctx = Montgomery::new(&n).unwrap();
        for a in [0u64, 1, 7, 123, 496] {
            for b in [0u64, 1, 13, 400, 496] {
                assert_eq!(ctx.mul_mod(&u(a), &u(b)), u(a).mul_mod(&u(b), &n));
            }
        }
    }

    #[test]
    fn mul_matches_schoolbook_multi_limb() {
        // 2^127 - 1 (two limbs) and a 256-bit odd composite.
        let p = &Uint::from(1u128 << 127) - &Uint::one();
        let big =
            Uint::from_hex("f0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdf")
                .unwrap();
        for n in [p, big] {
            let ctx = Montgomery::new(&n).unwrap();
            let a = Uint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
            let b = Uint::from_hex("ffffffffffffffff1111111111111111").unwrap();
            assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &n));
        }
    }

    #[test]
    fn pow_matches_schoolbook() {
        let n = u(1_000_000_007);
        let ctx = Montgomery::new(&n).unwrap();
        for (b, e) in [(2u64, 10u64), (4, 13), (7, 0), (0, 5), (999, 999_999)] {
            assert_eq!(
                ctx.pow_mod(&u(b), &u(e)),
                u(b).pow_mod(&u(e), &n),
                "{b}^{e}"
            );
        }
    }

    #[test]
    fn pow_fermat_large() {
        // a^(p-1) ≡ 1 mod p across window-width regimes.
        let p = &Uint::from(1u128 << 127) - &Uint::one();
        let ctx = Montgomery::new(&p).unwrap();
        let e = &p - &Uint::one();
        for a in [2u64, 3, 65537] {
            assert_eq!(ctx.pow_mod(&u(a), &e), Uint::one());
        }
    }

    #[test]
    fn mont_domain_product_chains() {
        // g^x · h^y computed in-domain equals the schoolbook composite.
        let n = u(1_000_000_007);
        let ctx = Montgomery::new(&n).unwrap();
        let (g, x, h, y) = (u(5), u(1234), u(11), u(5678));
        let gm = ctx.mont_pow(&ctx.to_mont(&g), &x);
        let hm = ctx.mont_pow(&ctx.to_mont(&h), &y);
        let fused = ctx.from_mont(&ctx.mont_mul(&gm, &hm));
        let split = g.pow_mod(&x, &n).mul_mod(&h.pow_mod(&y, &n), &n);
        assert_eq!(fused, split);
    }

    #[test]
    fn inv_is_in_domain_and_matches_uint_inv_mod() {
        let n = u(497); // 7 · 71: plenty of non-invertible residues
        let ctx = Montgomery::new(&n).unwrap();
        for a in 0u64..497 {
            let au = u(a);
            let expect = au.inv_mod(&n);
            let got = ctx.inv(&ctx.to_mont(&au));
            match (expect, got) {
                (None, None) => {}
                (Some(plain), Some(residue)) => {
                    // In-domain: the residue IS inv·R, so from_mont agrees
                    // with the plain inverse and a·â⁻¹ is the identity.
                    assert_eq!(ctx.from_mont(&residue), plain, "a={a}");
                    assert_eq!(
                        ctx.mont_mul(&ctx.to_mont(&au), &residue),
                        ctx.one_mont(),
                        "a={a}"
                    );
                }
                (e, g) => panic!("a={a}: inv_mod says {e:?}, Montgomery::inv says {g:?}"),
            }
        }
    }

    #[test]
    fn inv_mod_multi_limb_matches_uint() {
        let p = &Uint::from(1u128 << 127) - &Uint::one();
        let ctx = Montgomery::new(&p).unwrap();
        let a = Uint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        assert_eq!(ctx.inv_mod(&a), a.inv_mod(&p));
        assert_eq!(ctx.inv_mod(&Uint::zero()), None);
    }

    #[test]
    fn inv_chains_without_leaving_the_domain() {
        // The DSA shape: w = s⁻¹, then u1 = z·w and u2 = r·w, all in-domain.
        let q = u(99991);
        let ctx = Montgomery::new(&q).unwrap();
        let (s, z, r) = (u(1234), u(4321), u(77777));
        let w = ctx.inv(&ctx.to_mont(&s)).unwrap();
        let u1 = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&z), &w));
        let u2 = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&r), &w));
        let w_plain = s.inv_mod(&q).unwrap();
        assert_eq!(u1, z.mul_mod(&w_plain, &q));
        assert_eq!(u2, r.mul_mod(&w_plain, &q));
    }

    #[test]
    fn one_mont_is_identity() {
        let n = u(99991);
        let ctx = Montgomery::new(&n).unwrap();
        let a = ctx.to_mont(&u(12345));
        assert_eq!(ctx.mont_mul(&a, &ctx.one_mont()), a);
        assert_eq!(ctx.from_mont(&ctx.one_mont()), Uint::one());
    }

    #[test]
    #[should_panic(expected = "foreign Montgomery context")]
    fn foreign_width_residue_panics() {
        let small = Montgomery::new(&u(497)).unwrap();
        let wide = Montgomery::new(&(&Uint::from(1u128 << 127) - &Uint::one())).unwrap();
        let residue = wide.to_mont(&u(42));
        let _ = small.from_mont(&residue);
    }

    #[test]
    fn window_width_monotone() {
        assert_eq!(window_width(1), 1);
        assert_eq!(window_width(48), 3);
        assert_eq!(window_width(160), 4);
        assert_eq!(window_width(1024), 5);
    }
}
