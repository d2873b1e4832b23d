//! Fixed-base exponentiation: a precomputed radix-`2^w` digit table for
//! one base that recurs across many exponentiations.
//!
//! A generic modular exponentiation squares its way along the exponent —
//! `bits` squarings plus a multiply every few bits. When the *base* is
//! fixed (a group generator `g`, a public key `y`) the squarings can be
//! precomputed once: write the exponent in base `2^w` digits
//! `e = Σ eᵢ·2^(w·i)` and store `base^(j·2^(w·i))` for every digit
//! position `i` and digit value `j`. An exponentiation is then just one
//! Montgomery multiplication per **non-zero digit** — for a 160-bit
//! exponent and `w = 4`, at most 40 multiplications where the generic
//! ladder pays ~160 squarings plus ~40 multiplications.
//!
//! The table lives in the Montgomery domain of a shared [`Montgomery`]
//! context, so several tables over the same modulus (a generator table and
//! per-key tables) compose: `g^u1 · y^u2 mod p` is two table walks and a
//! single [`Montgomery::mont_mul_into`], never leaving the domain.
//!
//! The walk takes its exponent as a limb slice, so a stack
//! [`Scalar`](crate::Scalar) drives it directly, and writes into a buffer
//! the caller owns: with a modulus of at most 64 limbs (4 096 bits, the
//! widest DSA `p` a wire decode admits) its scratch is on the stack too,
//! and the walk allocates nothing. It reads each digit with one shift and
//! mask over the exponent's limbs, so a digit may straddle two limbs at any
//! `w`.
//!
//! # Invariants
//!
//! * The table is sized for exponents up to `max_exp_bits`; larger
//!   exponents transparently fall back to the context's generic
//!   sliding-window ladder ([`Montgomery::mont_pow`]) — correct, just not
//!   table-accelerated.
//! * Memory: `ceil(max_exp_bits / w) · (2^w - 1)` Montgomery residues of
//!   modulus width, in one contiguous limb vector. A wider digit halves
//!   the multiplications per walk and grows the table about `2^w / w`-fold:
//!
//!   | modulus, exponent | `w = 4` | `w = 8` |
//!   |---|---|---|
//!   | 256-bit, 128-bit | 32 × 15 × 32 B = 15 KiB, ≤ 32 mults | 16 × 255 × 32 B ≈ 128 KiB, ≤ 16 mults |
//!   | 512-bit, 160-bit | 40 × 15 × 64 B = 37.5 KiB, ≤ 40 mults | 20 × 255 × 64 B ≈ 319 KiB, ≤ 20 mults |
//!   | 1024-bit, 160-bit | 40 × 15 × 128 B = 75 KiB, ≤ 40 mults | 20 × 255 × 128 B ≈ 638 KiB, ≤ 20 mults |
//!
//!   So a caller that builds one table per base (DSA's per-key `y`-tables)
//!   keeps `w = 4`, and only a table shared by a whole process (DSA's
//!   group `g`-table) takes `w = 8`.
//! * A caller sizing tables from untrusted input must bound them: DSA
//!   sizes its tables by the subgroup order `q`, and `crypto::dsa` caps `q`
//!   at 256 bits, so its widest `g`-table is 32 × 255 = 8 160 residues,
//!   4 MiB under a 4 096-bit `p`.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use refstate_bigint::{FixedBase, Montgomery, Uint};
//!
//! let p = Uint::from(1_000_000_007u64);
//! let ctx = Arc::new(Montgomery::new(&p).unwrap());
//! let g = Uint::from(5u64);
//! let table = FixedBase::new(ctx, &g, 64);
//! let e = Uint::from(0xfeed_beefu64);
//! assert_eq!(table.pow_mod(&e), g.pow_mod(&e, &p));
//! ```

use std::sync::Arc;

use crate::montgomery::{MontInt, Montgomery};
use crate::uint::{bit_len, digit, Uint};

/// The widest modulus, in limbs, whose walk keeps its scratch on the
/// stack: 4 096 bits, the widest `p` a DSA wire decode admits. Wider
/// moduli walk with a heap scratch.
const STACK_LIMBS: usize = 64;

/// Default digit width: 15-entry rows, one multiplication per 4 exponent
/// bits. The sweet spot for a table per base, such as DSA's per-key
/// `y`-tables over the 128- to 256-bit exponents this workspace verifies
/// with (the table build amortizes within ~15 exponentiations); a table
/// shared by a whole process, like DSA's group `g`-table, can afford
/// [`FixedBase::with_window`] at 8.
const DEFAULT_WINDOW: usize = 4;

/// A precomputed fixed-base exponentiator over one [`Montgomery`] context:
/// write the exponent in radix-`2^w` digits and pay one Montgomery
/// multiplication per non-zero digit — no squarings (algorithm and cost
/// model at the top of this file).
#[derive(Debug, Clone)]
pub struct FixedBase {
    mont: Arc<Montgomery>,
    /// The base in Montgomery form (fallback path for oversized exponents).
    base: MontInt,
    /// Digit width `w` in bits (1..=8).
    window: usize,
    /// Number of digit positions covered by the table.
    digits: usize,
    /// Row-major, one contiguous allocation of `k`-limb entries: entry
    /// `i·(2^w - 1) + (j - 1)` is `base^(j·2^(w·i))` in Montgomery form,
    /// `j` in `1..2^w`.
    table: Vec<u64>,
}

impl FixedBase {
    /// Precomputes a table for `base` modulo the context's modulus,
    /// covering exponents of up to `max_exp_bits` bits, with the default
    /// digit width.
    pub fn new(mont: Arc<Montgomery>, base: &Uint, max_exp_bits: usize) -> Self {
        Self::with_window(mont, base, max_exp_bits, DEFAULT_WINDOW)
    }

    /// [`FixedBase::new`] with an explicit digit width `window` (clamped
    /// to `1..=8`).
    pub fn with_window(
        mont: Arc<Montgomery>,
        base: &Uint,
        max_exp_bits: usize,
        window: usize,
    ) -> Self {
        let window = window.clamp(1, 8);
        let digits = max_exp_bits.div_ceil(window).max(1);
        let row = (1usize << window) - 1;
        let base_mont = mont.to_mont(base);
        let k = base_mont.limbs.len();

        let mut table = vec![0; digits * row * k];
        // `position` walks base^(2^(w·i)); each row holds its powers 1..2^w.
        let mut position = base_mont.limbs.clone();
        let mut scratch = vec![0; k];
        for i in 0..digits {
            let start = i * row * k;
            table[start..start + k].copy_from_slice(&position);
            for j in 1..row {
                let (done, rest) = table.split_at_mut(start + j * k);
                mont.cios(&done[start + (j - 1) * k..], &position, &mut rest[..k]);
            }
            // base^(2^(w·(i+1))) = base^((2^w - 1)·2^(w·i)) · base^(2^(w·i)).
            let last = start + (row - 1) * k;
            mont.cios(&table[last..last + k], &position, &mut scratch);
            std::mem::swap(&mut position, &mut scratch);
        }
        FixedBase {
            mont,
            base: base_mont,
            window,
            digits,
            table,
        }
    }

    /// The context whose domain the table's entries live in.
    pub fn context(&self) -> &Arc<Montgomery> {
        &self.mont
    }

    /// Raises the fixed base to the little-endian `exponent` (high zero
    /// limbs allowed) and writes the result, in the Montgomery domain, into
    /// the caller's `k`-limb buffer `out`: one multiplication per non-zero
    /// digit after the first, which seeds `out`, and no allocation for a
    /// modulus of up to 64 limbs.
    ///
    /// Stays in the domain so callers can fuse several fixed-base results
    /// (`g^u1 · y^u2`) with [`Montgomery::mont_mul_into`] before converting
    /// out once.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `k` limbs.
    pub fn pow(&self, exponent: &[u64], out: &mut [u64]) {
        let k = self.base.limbs.len();
        assert_eq!(out.len(), k, "FixedBase::pow buffer width");
        let bits = bit_len(exponent);
        if bits > self.digits * self.window {
            // Oversized exponent: correct generic fallback.
            let exponent = Uint::from_limbs(exponent.to_vec());
            out.copy_from_slice(&self.mont.mont_pow(&self.base, &exponent).limbs);
            return;
        }
        let (mut stack, mut heap) = ([0; STACK_LIMBS], Vec::new());
        let scratch = if k <= STACK_LIMBS {
            &mut stack[..k]
        } else {
            heap.resize(k, 0);
            &mut heap[..]
        };
        let row = (1usize << self.window) - 1;
        out.copy_from_slice(&self.mont.one);
        let mut seeded = false;
        for i in 0..bits.div_ceil(self.window) {
            let digit = digit(exponent, i * self.window, self.window);
            if digit == 0 {
                continue;
            }
            let entry = (i * row + digit - 1) * k;
            let entry = &self.table[entry..entry + k];
            if seeded {
                self.mont.cios(out, entry, scratch);
                out.copy_from_slice(scratch);
            } else {
                // 1·entry is the entry itself (residues are fully reduced).
                out.copy_from_slice(entry);
                seeded = true;
            }
        }
    }

    /// Raises the fixed base to `exponent`, returning an ordinary integer
    /// in `[0, modulus)`.
    ///
    /// Agrees with the schoolbook `base.pow_mod(exponent, modulus)` for
    /// every exponent (property-tested).
    pub fn pow_mod(&self, exponent: &Uint) -> Uint {
        let mut limbs = vec![0; self.mont.limbs()];
        self.pow(exponent.limbs(), &mut limbs);
        self.mont.from_mont(&MontInt { limbs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(n: u64) -> Arc<Montgomery> {
        Arc::new(Montgomery::new(&Uint::from(n)).unwrap())
    }

    #[test]
    fn matches_schoolbook_across_exponents() {
        let m = ctx(1_000_000_007);
        let g = Uint::from(5u64);
        let table = FixedBase::new(m, &g, 64);
        for e in [0u64, 1, 2, 15, 16, 17, 255, 1 << 40, u64::MAX] {
            let e = Uint::from(e);
            assert_eq!(
                table.pow_mod(&e),
                g.pow_mod(&e, &Uint::from(1_000_000_007u64)),
                "exponent {e}"
            );
        }
    }

    #[test]
    fn all_window_widths_agree() {
        let n = Uint::from(99991u64);
        let g = Uint::from(7u64);
        let e = Uint::from(0x1234_5678_9abcu64);
        let reference = g.pow_mod(&e, &n);
        for w in 1..=8 {
            let m = Arc::new(Montgomery::new(&n).unwrap());
            let table = FixedBase::with_window(m, &g, 48, w);
            assert_eq!(table.pow_mod(&e), reference, "window {w}");
        }
    }

    #[test]
    fn oversized_exponent_falls_back() {
        let m = ctx(1_000_000_007);
        let g = Uint::from(3u64);
        // Table sized for 16-bit exponents; drive a 64-bit one through it.
        let table = FixedBase::new(m, &g, 16);
        let e = Uint::from(u64::MAX);
        assert_eq!(
            table.pow_mod(&e),
            g.pow_mod(&e, &Uint::from(1_000_000_007u64))
        );
    }

    #[test]
    fn walks_a_modulus_wider_than_the_stack_scratch() {
        // One limb past the stack scratch: the walk's scratch is on the heap.
        let n = &(&Uint::one() << (64 * STACK_LIMBS)) + &Uint::from(3u64);
        let m = Arc::new(Montgomery::new(&n).unwrap());
        let g = Uint::from(7u64);
        let table = FixedBase::new(m, &g, 64);
        let e = Uint::from(0xdead_beef_1234u64);
        assert_eq!(table.pow_mod(&e), g.pow_mod(&e, &n));
    }

    #[test]
    fn zero_exponent_is_one() {
        let m = ctx(497);
        let table = FixedBase::new(m, &Uint::from(4u64), 16);
        assert_eq!(table.pow_mod(&Uint::zero()), Uint::one());
    }

    #[test]
    fn fused_double_exponentiation_in_domain() {
        // g^x · h^y through two tables and one mont_mul.
        let n = Uint::from(1_000_000_007u64);
        let m = Arc::new(Montgomery::new(&n).unwrap());
        let (g, h) = (Uint::from(5u64), Uint::from(11u64));
        let gt = FixedBase::new(m.clone(), &g, 64);
        let ht = FixedBase::new(m.clone(), &h, 64);
        let (x, y) = (Uint::from(123_456u64), Uint::from(654_321u64));
        let mut walks = [[0; 1]; 4];
        let [gx, hy, product, fused] = &mut walks;
        gt.pow(x.limbs(), gx);
        // High zero limbs in the exponent change nothing.
        ht.pow(&[y.limbs(), &[0, 0]].concat(), hy);
        m.mont_mul_into(gx, hy, product);
        m.from_mont_into(product, fused);
        let split = g.pow_mod(&x, &n).mul_mod(&h.pow_mod(&y, &n), &n);
        assert_eq!(Uint::from(fused[0]), split);
    }

    #[test]
    fn reducible_base_is_reduced() {
        let m = ctx(497);
        let big_base = Uint::from(497u64 * 3 + 4);
        let table = FixedBase::new(m, &big_base, 16);
        let e = Uint::from(13u64);
        assert_eq!(
            table.pow_mod(&e),
            Uint::from(4u64).pow_mod(&e, &Uint::from(497u64))
        );
    }
}
