//! Property-based tests for the bigint crate: ring axioms, division
//! invariants, conversion round-trips, modular arithmetic laws, and the
//! equivalence of the Montgomery / fixed-base / stack-scalar fast paths
//! with the schoolbook reference operations.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_bigint::{random_in_unit_range, FixedBase, Montgomery, Scalar, Uint, SCALAR_LIMBS};

/// Strategy: an arbitrary Uint up to ~256 bits built from raw bytes.
fn uint() -> impl Strategy<Value = Uint> {
    proptest::collection::vec(any::<u8>(), 0..32).prop_map(|bytes| Uint::from_be_bytes(&bytes))
}

/// Strategy: a non-zero Uint.
fn uint_nonzero() -> impl Strategy<Value = Uint> {
    uint().prop_map(|v| if v.is_zero() { Uint::one() } else { v })
}

/// Strategy: a Uint >= 2 (usable as a modulus).
fn modulus() -> impl Strategy<Value = Uint> {
    uint().prop_map(|v| {
        if v < Uint::from(2u64) {
            Uint::from(2u64)
        } else {
            v
        }
    })
}

proptest! {
    #[test]
    fn add_commutative(a in uint(), b in uint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in uint(), b in uint(), c in uint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_identity(a in uint()) {
        prop_assert_eq!(&a + &Uint::zero(), a);
    }

    #[test]
    fn mul_commutative(a in uint(), b in uint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_associative(a in uint(), b in uint(), c in uint()) {
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn mul_distributes_over_add(a in uint(), b in uint(), c in uint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn mul_identity_and_zero(a in uint()) {
        prop_assert_eq!(&a * &Uint::one(), a.clone());
        prop_assert_eq!(&a * &Uint::zero(), Uint::zero());
    }

    #[test]
    fn sub_inverts_add(a in uint(), b in uint()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn checked_sub_consistent_with_ord(a in uint(), b in uint()) {
        prop_assert_eq!(a.checked_sub(&b).is_some(), a >= b);
    }

    #[test]
    fn division_invariant(a in uint(), b in uint_nonzero()) {
        let (q, r) = a.divrem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn division_by_one(a in uint()) {
        let (q, r) = a.divrem(&Uint::one());
        prop_assert_eq!(q, a);
        prop_assert!(r.is_zero());
    }

    #[test]
    fn division_self(a in uint_nonzero()) {
        let (q, r) = a.divrem(&a);
        prop_assert_eq!(q, Uint::one());
        prop_assert!(r.is_zero());
    }

    #[test]
    fn shift_round_trip(a in uint(), bits in 0usize..200) {
        prop_assert_eq!(&(&a << bits) >> bits, a);
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in uint(), bits in 0usize..63) {
        prop_assert_eq!(&a << bits, &a * &Uint::from(1u64 << bits));
    }

    #[test]
    fn bytes_round_trip(a in uint()) {
        prop_assert_eq!(Uint::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn hex_round_trip(a in uint()) {
        prop_assert_eq!(Uint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn decimal_round_trip(a in uint()) {
        prop_assert_eq!(Uint::from_decimal(&a.to_string()).unwrap(), a);
    }

    #[test]
    fn u128_agreement_add(a in any::<u64>(), b in any::<u64>()) {
        let expect = a as u128 + b as u128;
        prop_assert_eq!(&Uint::from(a) + &Uint::from(b), Uint::from(expect));
    }

    #[test]
    fn u128_agreement_mul(a in any::<u64>(), b in any::<u64>()) {
        let expect = a as u128 * b as u128;
        prop_assert_eq!(&Uint::from(a) * &Uint::from(b), Uint::from(expect));
    }

    #[test]
    fn u128_agreement_div(a in any::<u128>(), b in 1u128..) {
        let q = Uint::from(a).divrem(&Uint::from(b));
        prop_assert_eq!(q.0, Uint::from(a / b));
        prop_assert_eq!(q.1, Uint::from(a % b));
    }

    #[test]
    fn mod_reduction_bounded(a in uint(), m in modulus()) {
        prop_assert!(a.rem(&m) < m);
    }

    #[test]
    fn mul_mod_matches_definition(a in uint(), b in uint(), m in modulus()) {
        prop_assert_eq!(a.mul_mod(&b, &m), (&a * &b).rem(&m));
    }

    #[test]
    fn pow_mod_small_exponents(a in uint(), m in modulus()) {
        prop_assert_eq!(a.pow_mod(&Uint::zero(), &m), if m.is_one() { Uint::zero() } else { Uint::one() });
        prop_assert_eq!(a.pow_mod(&Uint::one(), &m), a.rem(&m));
        prop_assert_eq!(a.pow_mod(&Uint::from(2u64), &m), a.mul_mod(&a, &m));
    }

    #[test]
    fn pow_mod_adds_exponents(a in uint(), e1 in 0u64..50, e2 in 0u64..50, m in modulus()) {
        // a^(e1+e2) = a^e1 * a^e2 (mod m)
        let lhs = a.pow_mod(&Uint::from(e1 + e2), &m);
        let rhs = a.pow_mod(&Uint::from(e1), &m).mul_mod(&a.pow_mod(&Uint::from(e2), &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn gcd_divides_both(a in uint_nonzero(), b in uint_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }

    #[test]
    fn gcd_commutative(a in uint(), b in uint()) {
        prop_assert_eq!(a.gcd(&b), b.gcd(&a));
    }

    #[test]
    fn inv_mod_is_inverse(a in uint_nonzero(), m in modulus()) {
        if let Some(inv) = a.inv_mod(&m) {
            prop_assert_eq!(a.mul_mod(&inv, &m), Uint::one());
            prop_assert!(inv < m);
        } else {
            // No inverse implies non-trivial gcd.
            prop_assert!(!a.gcd(&m).is_one() || a.rem(&m).is_zero());
        }
    }

    #[test]
    fn sub_mod_is_additive_inverse(a in uint(), b in uint(), m in modulus()) {
        let d = a.sub_mod(&b, &m);
        prop_assert_eq!(d.add_mod(&b.rem(&m), &m), a.rem(&m));
    }

    #[test]
    fn ordering_total(a in uint(), b in uint()) {
        use std::cmp::Ordering;
        match a.cmp(&b) {
            Ordering::Less => prop_assert!(b > a),
            Ordering::Greater => prop_assert!(a > b),
            Ordering::Equal => prop_assert_eq!(&a, &b),
        }
    }

    #[test]
    fn bit_len_consistent(a in uint_nonzero()) {
        let n = a.bit_len();
        prop_assert!(a.bit(n - 1));
        prop_assert!(!a.bit(n));
        // 2^(n-1) <= a < 2^n
        prop_assert!(a >= &Uint::one() << (n - 1));
        prop_assert!(a < &Uint::one() << n);
    }
}

/// Strategy: a Uint of up to 1024 bits (exactly 128 raw bytes drawn, so
/// values concentrate near full width).
fn uint_1024() -> impl Strategy<Value = Uint> {
    proptest::collection::vec(any::<u8>(), 128).prop_map(|bytes| Uint::from_be_bytes(&bytes))
}

/// Strategy: an odd modulus of up to 1024 bits, at least 3.
fn odd_modulus_1024() -> impl Strategy<Value = Uint> {
    uint_1024().prop_map(|v| {
        let v = if v < Uint::from(3u64) {
            Uint::from(3u64)
        } else {
            v
        };
        if v.is_even() {
            &v + &Uint::one()
        } else {
            v
        }
    })
}

proptest! {
    // 1024-bit operands make every case a full-width workout; a handful
    // of cases per property keeps the (deliberately slow) schoolbook
    // oracle affordable in debug builds.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The binary (division-free) modular inverse actually inverts on
    /// random 1024-bit operands and odd moduli, and reports `None`
    /// exactly when no inverse exists.
    #[test]
    fn inv_mod_inverts_at_1024_bits(a in uint_1024(), m in odd_modulus_1024()) {
        match a.inv_mod(&m) {
            Some(inv) => {
                prop_assert!(inv < m);
                prop_assert_eq!(a.mul_mod(&inv, &m), Uint::one());
            }
            None => prop_assert_ne!(a.gcd(&m), Uint::one()),
        }
    }

    /// Montgomery `mul_mod` agrees with the schoolbook `Uint::mul_mod`
    /// on random 1024-bit operands and odd moduli.
    #[test]
    fn montgomery_mul_matches_schoolbook(a in uint_1024(), b in uint_1024(), m in odd_modulus_1024()) {
        let ctx = Montgomery::new(&m).expect("modulus is odd and >= 3");
        prop_assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &m));
    }

    /// Montgomery sliding-window `pow_mod` agrees with the schoolbook
    /// `Uint::pow_mod` on random 1024-bit bases, exponents, and moduli.
    #[test]
    fn montgomery_pow_matches_schoolbook(base in uint_1024(), exp in uint_1024(), m in odd_modulus_1024()) {
        let ctx = Montgomery::new(&m).expect("modulus is odd and >= 3");
        prop_assert_eq!(ctx.pow_mod(&base, &exp), base.pow_mod(&exp, &m));
    }

    /// Fixed-base table exponentiation agrees with the schoolbook
    /// `Uint::pow_mod` on random 1024-bit operands, both inside the
    /// table's sized range and through the oversized-exponent fallback.
    #[test]
    fn fixed_base_matches_schoolbook(base in uint_1024(), exp in uint_1024(), m in odd_modulus_1024()) {
        let ctx = Arc::new(Montgomery::new(&m).expect("modulus is odd and >= 3"));
        let table = FixedBase::new(Arc::clone(&ctx), &base, 1024);
        prop_assert_eq!(table.pow_mod(&exp), base.pow_mod(&exp, &m));
        // A table sized below the exponent exercises the fallback ladder.
        let small = FixedBase::new(ctx, &base, 64);
        prop_assert_eq!(small.pow_mod(&exp), base.pow_mod(&exp, &m));
    }

    /// Montgomery round-trip: to_mont/from_mont is the identity on
    /// reduced values, and mont_mul composes like mul_mod.
    #[test]
    fn montgomery_domain_round_trip(a in uint_1024(), b in uint_1024(), m in odd_modulus_1024()) {
        let ctx = Montgomery::new(&m).expect("modulus is odd and >= 3");
        let ar = a.rem(&m);
        prop_assert_eq!(ctx.from_mont(&ctx.to_mont(&ar)), ar);
        let fused = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        prop_assert_eq!(fused, a.mul_mod(&b, &m));
    }
}

/// The value of little-endian `limbs`.
fn from_limbs(limbs: &[u64]) -> Uint {
    let bytes: Vec<u8> = limbs.iter().rev().flat_map(|l| l.to_be_bytes()).collect();
    Uint::from_be_bytes(&bytes)
}

/// An odd modulus of exactly `limbs.len()` limbs, at least 3.
fn odd_modulus_of(limbs: &[u64]) -> Uint {
    let mut limbs = limbs.to_vec();
    limbs[0] |= 1;
    let top = limbs.len() - 1;
    if limbs[top] == 0 || (top == 0 && limbs[0] == 1) {
        limbs[top] |= 2;
    }
    from_limbs(&limbs)
}

/// The inverse of `a` modulo `m` by the extended Euclidean algorithm on
/// the schoolbook operations, independent of the binary inverse under
/// test. Invariant: `t_i · a ≡ r_i (mod m)`.
fn euclid_inverse(a: &Uint, m: &Uint) -> Option<Uint> {
    let (mut r0, mut r1) = (m.clone(), a.rem(m));
    let (mut t0, mut t1) = (Uint::zero(), Uint::one());
    while !r1.is_zero() {
        let (q, r2) = r0.divrem(&r1);
        let t2 = t0.sub_mod(&q.mul_mod(&t1, m), m);
        (r0, r1) = (r1, r2);
        (t0, t1) = (t1, t2);
    }
    r0.is_one().then_some(t0)
}

/// The widest modulus the kernel tests draw, in limbs: past every
/// literal-width arm of the CIOS (2, 3, 4) and inverse (2, 3) dispatch.
const KERNEL_LIMBS: usize = 17;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every width-dispatch arm of the Montgomery kernels — the literal
    /// widths and the runtime-width arm around them — agrees with the
    /// schoolbook oracle: each case runs every modulus width from 1 to 17
    /// limbs, checking `mul_mod` and `mont_pow` against `Uint::mul_mod` and
    /// `Uint::pow_mod`, and the binary inverse (`Uint::inv_mod`) against
    /// extended Euclid.
    #[test]
    fn kernel_arms_match_schoolbook_at_every_width(
        words in proptest::collection::vec(any::<u64>(), 3 * KERNEL_LIMBS),
        exponent in proptest::collection::vec(any::<u64>(), 1..3),
    ) {
        let exponent = from_limbs(&exponent);
        for limbs in 1..=KERNEL_LIMBS {
            let n = odd_modulus_of(&words[..limbs]);
            let a = from_limbs(&words[KERNEL_LIMBS..KERNEL_LIMBS + limbs]);
            let b = from_limbs(&words[2 * KERNEL_LIMBS..2 * KERNEL_LIMBS + limbs]);
            let ctx = Montgomery::new(&n).expect("odd and at least 3");
            prop_assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &n), "mul_mod, {} limbs", limbs);
            prop_assert_eq!(
                ctx.from_mont(&ctx.mont_pow(&ctx.to_mont(&a), &exponent)),
                a.pow_mod(&exponent, &n),
                "mont_pow, {} limbs", limbs
            );
            prop_assert_eq!(a.inv_mod(&n), euclid_inverse(&a, &n), "Uint::inv_mod, {} limbs", limbs);
            // A multiple of a factor of n has no inverse; n − 1 always has one.
            let n_minus_1 = &n - &Uint::one();
            prop_assert_eq!(n_minus_1.inv_mod(&n), Some(n_minus_1.clone()));
            prop_assert_eq!(n.inv_mod(&n), None);
        }
    }

    /// `FixedBase::with_window(w)` agrees with `Uint::pow_mod` for every
    /// digit width 1 to 8 on 2- to 4-limb exponents (so widths 3, 5, 6 and
    /// 7 read digits that straddle limbs), and a 5-limb exponent, wider
    /// than the 4-limb table, takes the `mont_pow` fallback.
    #[test]
    fn fixed_base_windows_match_schoolbook(
        modulus in proptest::collection::vec(any::<u64>(), 1..KERNEL_LIMBS + 1),
        base in proptest::collection::vec(any::<u64>(), 1..4),
        exponents in proptest::collection::vec(any::<u64>(), 14),
    ) {
        let n = odd_modulus_of(&modulus);
        let base = from_limbs(&base);
        let ctx = Arc::new(Montgomery::new(&n).expect("odd and at least 3"));
        // 2, 3, 4 and 5 limbs: the exponents' top limbs are the first
        // words, forced non-zero so each really has its width.
        let mut exps = Vec::new();
        let mut start = 0;
        for limbs in 2..=5 {
            let mut e = exponents[start..start + limbs].to_vec();
            e[limbs - 1] |= 1 << 63;
            exps.push(from_limbs(&e));
            start += limbs;
        }
        for window in 1..=8 {
            let table = FixedBase::with_window(Arc::clone(&ctx), &base, 256, window);
            for e in &exps {
                prop_assert_eq!(
                    table.pow_mod(e),
                    base.pow_mod(e, &n),
                    "window {}, {}-bit exponent", window, e.bit_len()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The stack-scalar operations agree with the schoolbook `Uint` oracle
    /// on odd moduli of every scalar width, 1 to 4 limbs: `reduce` of a
    /// value of up to 64 limbs with `rem`; `scalar_mul` of two residues,
    /// and of a residue with an unreduced plain value below `R`, with
    /// `mul_mod`; `scalar_add` with `add_mod`; `scalar_inv` with `inv_mod`;
    /// and `random_scalar` draws what `random_in_unit_range` draws.
    #[test]
    fn scalars_match_uint_at_every_scalar_width(
        modulus in proptest::collection::vec(any::<u64>(), SCALAR_LIMBS),
        value in proptest::collection::vec(any::<u64>(), 0..=64),
        a in proptest::collection::vec(any::<u64>(), SCALAR_LIMBS),
        b in proptest::collection::vec(any::<u64>(), SCALAR_LIMBS),
        seed in any::<u64>(),
    ) {
        for limbs in 1..=SCALAR_LIMBS {
            let n = odd_modulus_of(&modulus[..limbs]);
            let ctx = Montgomery::new(&n).expect("odd and at least 3");
            let plain = |s: &Scalar| Uint::from(ctx.scalar_mul(s, &Scalar::ONE));
            prop_assert_eq!(plain(&ctx.reduce(&value)), from_limbs(&value).rem(&n), "reduce, {} limbs", limbs);

            // Values below R = 2^(64·limbs), reduced or not.
            let (a, b) = (from_limbs(&a[..limbs]), from_limbs(&b[..limbs]));
            let (ra, rb) = (ctx.reduce(a.limbs()), ctx.reduce(b.limbs()));
            let b_plain = Scalar::try_from(&b).expect("fits");
            prop_assert_eq!(plain(&ctx.scalar_mul(&ra, &rb)), a.mul_mod(&b, &n), "residues, {} limbs", limbs);
            prop_assert_eq!(Uint::from(ctx.scalar_mul(&ra, &b_plain)), a.mul_mod(&b, &n), "plain, {} limbs", limbs);
            prop_assert_eq!(plain(&ctx.scalar_add(&ra, &rb)), a.add_mod(&b, &n), "add, {} limbs", limbs);
            let inverse = ctx.scalar_inv(&ra);
            prop_assert_eq!(inverse.map(|w| plain(&w)), a.inv_mod(&n), "inv, {} limbs", limbs);
            prop_assert_eq!(ctx.scalar_inv(&ctx.reduce(n.limbs())), None);

            let (mut stack, mut heap) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..4 {
                prop_assert_eq!(
                    Uint::from(ctx.random_scalar(&mut stack)),
                    random_in_unit_range(&mut heap, &n)
                );
            }
        }
    }
}
