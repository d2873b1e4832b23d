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
//! Three entry levels are exposed:
//!
//! * **`Uint` domain** — [`Montgomery::mul_mod`] / [`Montgomery::pow_mod`]
//!   take and return ordinary integers; the context handles conversions.
//! * **Montgomery domain** — [`Montgomery::to_mont`] /
//!   [`Montgomery::mont_mul`] / [`Montgomery::mont_pow`] /
//!   [`Montgomery::from_mont`] operate on [`MontInt`] residues, letting
//!   callers (fixed-base tables, fused double exponentiation) stay inside
//!   the domain across several operations and pay conversion only at the
//!   edges. [`Montgomery::mont_mul_into`] and
//!   [`Montgomery::from_mont_into`] do the same on caller buffers and
//!   allocate nothing.
//! * **Stack scalars** — for a modulus of at most
//!   [`SCALAR_LIMBS`](crate::SCALAR_LIMBS) limbs (DSA's subgroup order
//!   `q`), [`Montgomery::reduce`], [`Montgomery::scalar_mul`],
//!   [`Montgomery::scalar_add`] and [`Montgomery::scalar_inv`] work on
//!   `Copy` [`Scalar`](crate::Scalar)s through the same kernel, with no
//!   heap and no division (see `scalar.rs`).
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
/// `O(k²)` single-word multiplications and **no division** — and so does
/// every conversion into the domain ([`Montgomery::to_mont`] and
/// [`Montgomery::reduce`] take Horner steps by `R² mod n`).
#[derive(Debug, Clone)]
pub struct Montgomery {
    /// The modulus `n` (odd, ≥ 3).
    n: Uint,
    /// `n` as exactly `k` limbs.
    pub(crate) n_limbs: Vec<u64>,
    /// `-n⁻¹ mod 2^64`.
    n0: u64,
    /// `R² mod n` (`k` limbs): multiplying by it converts into the domain.
    pub(crate) r2: Vec<u64>,
    /// `R mod n` (`k` limbs): the Montgomery form of 1.
    pub(crate) one: Vec<u64>,
    /// 1 as `k` limbs: multiplying by it converts out of the domain.
    unit: Vec<u64>,
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
        let mut unit = vec![0; k];
        unit[0] = 1;
        Some(Montgomery {
            n: modulus.clone(),
            n_limbs,
            n0,
            r2: to_fixed_limbs(&r2_mod_n, k),
            one: to_fixed_limbs(&r_mod_n, k),
            unit,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Uint {
        &self.n
    }

    /// The modulus's limb count `k`: every residue, and every buffer the
    /// `_into` methods take, is `k` limbs.
    pub fn limbs(&self) -> usize {
        self.n_limbs.len()
    }

    /// Converts `value` into the Montgomery domain, reducing it modulo `n`
    /// on the way by the same Horner steps as [`Montgomery::reduce`].
    pub fn to_mont(&self, value: &Uint) -> MontInt {
        let k = self.limbs();
        let mut acc = vec![0; k];
        let mut limbs = vec![0; k];
        self.reduce_into(value.limbs(), &mut acc, &mut limbs);
        MontInt { limbs }
    }

    /// Converts a Montgomery residue back to an ordinary integer in
    /// `[0, n)`.
    pub fn from_mont(&self, value: &MontInt) -> Uint {
        self.check_width(value);
        let mut limbs = vec![0; self.limbs()];
        self.from_mont_into(&value.limbs, &mut limbs);
        Uint::from_limbs(limbs)
    }

    /// [`Montgomery::from_mont`] on caller buffers: writes `a·R⁻¹ mod n`,
    /// the ordinary value of the residue `a`, into `out`. Both are `k`
    /// limbs; nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics if a buffer is not `k` limbs.
    pub fn from_mont_into(&self, a: &[u64], out: &mut [u64]) {
        self.check_buffers(a, &self.unit, out);
        self.cios(a, &self.unit, out);
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
        let mut limbs = vec![0; self.limbs()];
        self.cios(&a.limbs, &b.limbs, &mut limbs);
        MontInt { limbs }
    }

    /// [`Montgomery::mont_mul`] on caller buffers: `out ← a·b·R⁻¹ mod n`
    /// for `k`-limb residues `a` and `b`, allocating nothing. `out` must
    /// not alias either operand (the borrow checker sees to that).
    ///
    /// # Panics
    ///
    /// Panics if a buffer is not `k` limbs.
    pub fn mont_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        self.check_buffers(a, b, out);
        self.cios(a, b, out);
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

    /// `out ← V·R mod n` for the value `V` of little-endian `limbs` (any
    /// length, high zero limbs allowed), with `acc` a `k`-limb scratch.
    ///
    /// Horner's rule over `k`-limb chunks from the top, `V = Σ cⱼ·Rʲ`: each
    /// step folds the next chunk into the running residue and multiplies by
    /// `R² mod n`, one CIOS pass that both shifts by `R` and re-enters the
    /// domain. No division, and `⌈len / k⌉` passes in all.
    pub(crate) fn reduce_into(&self, limbs: &[u64], acc: &mut [u64], out: &mut [u64]) {
        let n = &self.n_limbs[..];
        let len = limbs.iter().rposition(|&l| l != 0).map_or(0, |top| top + 1);
        out.fill(0);
        for chunk in limbs[..len].chunks(n.len()).rev() {
            // acc ← out + chunk. `out < n` and `chunk < R`, so a carry out
            // of `k` limbs means the sum is at least `R > n`: subtracting
            // `n` (its borrow cancels the carry) keeps the sum's residue and
            // brings it below `R`, which is all CIOS asks of one operand.
            let mut carry = 0u64;
            for (j, a) in acc.iter_mut().enumerate() {
                let sum =
                    out[j] as u128 + chunk.get(j).copied().unwrap_or(0) as u128 + carry as u128;
                *a = sum as u64;
                carry = (sum >> 64) as u64;
            }
            if carry != 0 {
                sub_limbs(acc, n);
            }
            self.cios(acc, &self.r2, out);
        }
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

    fn check_buffers(&self, a: &[u64], b: &[u64], out: &[u64]) {
        let k = self.limbs();
        assert!(
            a.len() == k && b.len() == k && out.len() == k,
            "buffers of {}, {} and {} limbs for a {k}-limb Montgomery context",
            a.len(),
            b.len(),
            out.len()
        );
    }

    /// `acc ← acc²·R⁻¹`: the product lands in `scratch`, then the two
    /// buffers swap, so a ladder of squarings allocates nothing.
    fn square_assign(&self, acc: &mut Vec<u64>, scratch: &mut Vec<u64>) {
        self.cios(acc, acc, scratch);
        std::mem::swap(acc, scratch);
    }

    /// `acc ← acc·b·R⁻¹` through `scratch`, as [`Self::square_assign`].
    fn mul_assign(&self, acc: &mut Vec<u64>, b: &[u64], scratch: &mut Vec<u64>) {
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
        let borrow = sub_limbs(t, n);
        debug_assert_eq!(borrow, top);
    }
}

/// `t ← t − n` for equal-length little-endian limb slices, wrapping;
/// returns the borrow out of the top limb.
#[inline(always)]
pub(crate) fn sub_limbs(t: &mut [u64], n: &[u64]) -> u64 {
    let mut borrow = 0u64;
    for (tj, &nj) in t.iter_mut().zip(n) {
        let (d1, b1) = tj.overflowing_sub(nj);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *tj = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    borrow
}

/// `a >= b` for equal-length little-endian limb slices.
#[inline(always)]
pub(crate) fn ge_limbs(a: &[u64], b: &[u64]) -> bool {
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
