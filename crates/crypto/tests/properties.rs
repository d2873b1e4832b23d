//! Property tests for the crypto crate: signature correctness over random
//! messages, tamper sensitivity, envelope round-trips, and hash behaviour.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_bigint::Uint;
use refstate_crypto::{
    draw_nonces, sha256, verify_batch, BatchEntry, DsaKeyPair, DsaParams, DsaPublicKey, HmacSha256,
    KeyDirectory, Sha256, Signature, Signed, Signer,
};
use refstate_wire::{from_wire, to_wire, Encode, Writer};

/// One key pair in a small (fast) group, shared across cases.
fn keys() -> &'static DsaKeyPair {
    use std::sync::OnceLock;
    static KEYS: OnceLock<DsaKeyPair> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xDEAD);
        DsaKeyPair::generate(&DsaParams::test_group_256(), &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Signatures over arbitrary messages always verify.
    #[test]
    fn sign_verify_round_trip(message in proptest::collection::vec(any::<u8>(), 0..512), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = keys().sign(&message, &mut rng);
        prop_assert!(keys().public().verify(&message, &sig));
    }

    /// Any single-bit flip in the message invalidates the signature.
    #[test]
    fn bit_flip_breaks_signature(
        message in proptest::collection::vec(any::<u8>(), 1..128),
        flip_byte in 0usize..128,
        flip_bit in 0u8..8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = keys().sign(&message, &mut rng);
        let mut tampered = message.clone();
        let idx = flip_byte % tampered.len();
        tampered[idx] ^= 1 << flip_bit;
        prop_assert!(!keys().public().verify(&tampered, &sig));
    }

    /// Signature components round-trip through the wire format.
    #[test]
    fn signature_wire_round_trip(message in proptest::collection::vec(any::<u8>(), 0..64), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = keys().sign(&message, &mut rng);
        let back = from_wire::<refstate_crypto::Signature>(&to_wire(&sig)).unwrap();
        prop_assert_eq!(&back, &sig);
        prop_assert!(keys().public().verify(&message, &back));
    }

    /// Signed envelopes verify after a wire round-trip, and tampered
    /// payloads fail.
    #[test]
    fn envelope_integrity(payload in ".{0,64}", seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dir = KeyDirectory::new();
        dir.register("p", keys().public().clone());
        let env = Signed::seal(payload.clone(), "p", keys(), &mut rng);
        let back: Signed<String> = from_wire(&to_wire(&env)).unwrap();
        prop_assert!(back.verify(&dir).is_ok());
        let tampered = back.tampered_with(|s| s + "x");
        prop_assert!(tampered.verify(&dir).is_err());
    }

    /// SHA-256 incremental hashing equals one-shot for every split point.
    #[test]
    fn sha256_incremental_any_split(data in proptest::collection::vec(any::<u8>(), 0..300), split in 0usize..300) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// Distinct inputs give distinct digests (collision resistance smoke
    /// test at property scale).
    #[test]
    fn hashes_distinguish(a in proptest::collection::vec(any::<u8>(), 0..64), b in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assume!(a != b);
        prop_assert_ne!(sha256(&a), sha256(&b));
    }

    /// HMAC verification accepts the genuine tag and rejects key or
    /// message changes.
    #[test]
    fn hmac_properties(key in proptest::collection::vec(any::<u8>(), 0..80), msg in proptest::collection::vec(any::<u8>(), 0..128)) {
        let tag = HmacSha256::mac(&key, &msg);
        prop_assert!(HmacSha256::verify(&key, &msg, &tag));
        let mut other_key = key.clone();
        other_key.push(0x01);
        prop_assert!(!HmacSha256::verify(&other_key, &msg, &tag));
        let mut other_msg = msg.clone();
        other_msg.push(0x01);
        prop_assert!(!HmacSha256::verify(&key, &other_msg, &tag));
    }

    /// Two different signers cannot validate each other's signatures.
    #[test]
    fn keys_are_not_interchangeable(message in proptest::collection::vec(any::<u8>(), 1..64), seed in 1u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let other = DsaKeyPair::generate(&DsaParams::test_group_256(), &mut rng);
        let sig = other.sign(&message, &mut rng);
        prop_assert!(other.public().verify(&message, &sig));
        prop_assert!(!keys().public().verify(&message, &sig));
    }

    /// The table-accelerated `verify_fused` (fixed-base walks + one
    /// Montgomery multiplication) returns exactly what the schoolbook
    /// two-modexp `verify` returns — for genuine, tampered, and
    /// cross-signed messages alike.
    #[test]
    fn fused_verify_agrees_with_reference_verify(
        message in proptest::collection::vec(any::<u8>(), 0..256),
        tamper in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = keys().sign(&message, &mut rng);
        let mut checked = message.clone();
        if tamper {
            checked.push(0x58);
        }
        let public = keys().public();
        prop_assert_eq!(
            public.verify_fused(&checked, &sig),
            public.verify(&checked, &sig)
        );
        if !tamper {
            prop_assert!(public.verify_fused(&checked, &sig));
        }
    }

    /// Signing runs `g^k` through the group's fixed-base table; the table
    /// must agree with the schoolbook generator exponentiation on random
    /// exponents — this is the DSA sign/verify round-trip reduced to its
    /// underlying claim.
    #[test]
    fn pow_g_agrees_with_schoolbook(seed in any::<u64>()) {
        use refstate_bigint::random_in_unit_range;
        let mut rng = StdRng::seed_from_u64(seed);
        let params = DsaParams::test_group_256();
        let e = random_in_unit_range(&mut rng, params.q());
        prop_assert_eq!(params.pow_g(&e), params.g().pow_mod(&e, params.p()));
        // Boundary exponents.
        prop_assert_eq!(params.pow_g(&Uint::zero()), Uint::one());
        prop_assert_eq!(params.pow_g(&Uint::one()), params.g().clone());
    }

    /// Sign/verify round-trips survive a wire round-trip of the *public
    /// key* — the decoded key rebuilds its acceleration tables from
    /// scratch and must accept the same signatures.
    #[test]
    fn decoded_key_round_trips_signatures(message in proptest::collection::vec(any::<u8>(), 0..128), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = keys().sign(&message, &mut rng);
        let decoded: refstate_crypto::DsaPublicKey =
            from_wire(&to_wire(keys().public())).unwrap();
        prop_assert!(decoded.verify_fused(&message, &sig));
        prop_assert!(decoded.verify(&message, &sig));
    }
}

/// One key pair in the paper's 512-bit group, shared across cases.
fn wide_keys() -> &'static DsaKeyPair {
    use std::sync::OnceLock;
    static KEYS: OnceLock<DsaKeyPair> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        DsaKeyPair::generate(&DsaParams::group_512(), &mut rng)
    })
}

/// A signature with arbitrary components, built the only way a hostile
/// one arrives: through the wire decoder, which checks no range.
fn wire_signature(r: &Uint, s: &Uint) -> Signature {
    let mut w = Writer::new();
    w.put_bytes(&r.to_be_bytes());
    w.put_bytes(&s.to_be_bytes());
    from_wire(&w.into_inner()).expect("two byte strings decode")
}

/// The out-of-range variants of `sig` in a group of order `q`: each
/// component at 0 and at `q`, plus `s + q`, which is `s` again modulo `q`
/// and so verifies if it slips past the range check into the product.
fn out_of_range(sig: &Signature, q: &Uint) -> [Signature; 5] {
    let (r, s) = (sig.r(), sig.s());
    [
        wire_signature(&Uint::zero(), s),
        wire_signature(r, &Uint::zero()),
        wire_signature(q, s),
        wire_signature(r, q),
        wire_signature(r, &(s + q)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `verify_batch` agrees with per-signature `verify` over a batch of
    /// 100 random signatures that interleaves two groups (the 256-bit
    /// test group and the 512-bit group) with corruptions in message, key
    /// attribution and wire-decoded components outside `[1, q)`.
    #[test]
    fn batch_verify_equals_per_signature_verify(
        seed in any::<u64>(),
        kinds in proptest::collection::vec(0u8..7, 100),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let signer = keys();
        let wide = wide_keys();
        let stranger = DsaKeyPair::generate(&DsaParams::test_group_256(), &mut rng);
        let mut rows: Vec<(&DsaPublicKey, Vec<u8>, Signature)> = Vec::with_capacity(100);
        for (i, kind) in kinds.iter().enumerate() {
            let message = format!("batch message {i} of seed {seed}").into_bytes();
            let row = match kind {
                0 => (signer.public(), signer.sign(&message, &mut rng)),
                // Signature by the wrong key.
                1 => (signer.public(), stranger.sign(&message, &mut rng)),
                // Signature over a different message.
                2 => (signer.public(), signer.sign(b"something else entirely", &mut rng)),
                3 => (wide.public(), wide.sign(&message, &mut rng)),
                // A 256-bit signature checked against the 512-bit key.
                4 => (wide.public(), signer.sign(&message, &mut rng)),
                5 => {
                    let sig = signer.sign(&message, &mut rng);
                    let bad = out_of_range(&sig, signer.public().params().q());
                    (signer.public(), bad[i % bad.len()].clone())
                }
                _ => {
                    let sig = wide.sign(&message, &mut rng);
                    let bad = out_of_range(&sig, wide.public().params().q());
                    (wide.public(), bad[i % bad.len()].clone())
                }
            };
            rows.push((row.0, message, row.1));
        }
        let entries: Vec<BatchEntry<'_>> = rows
            .iter()
            .map(|(key, message, signature)| BatchEntry {
                key,
                message,
                signature,
            })
            .collect();
        let batch = verify_batch(&entries);
        let singles: Vec<bool> = rows
            .iter()
            .map(|(key, message, signature)| key.verify(message, signature))
            .collect();
        prop_assert_eq!(batch, singles);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Nonces drawn in batches sign byte-identically to per-signer
    /// `DsaKeyPair::sign` on the same seeds, whatever the signer count,
    /// sign order and refill points. The signers mix two groups. Two
    /// refills up front leave every signer with several queued nonces,
    /// and signer 0 never signs.
    #[test]
    fn batched_nonces_sign_like_per_signer_draws(
        seeds in proptest::collection::vec(any::<u64>(), 3..9),
        steps in proptest::collection::vec((0u8..4, any::<u8>()), 1..128),
    ) {
        let pairs = [Arc::new(keys().clone()), Arc::new(wide_keys().clone())];
        let key = |i: usize| &pairs[i % pairs.len()];
        let mut batched: Vec<Signer> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| Signer::new(Arc::clone(key(i)), StdRng::seed_from_u64(seed)))
            .collect();
        let mut alone: Vec<StdRng> = seeds.iter().map(|&seed| StdRng::seed_from_u64(seed)).collect();
        draw_nonces(&mut batched);
        draw_nonces(&mut batched);
        for (n, &(op, who)) in steps.iter().enumerate() {
            if op == 0 {
                draw_nonces(&mut batched);
                continue;
            }
            let i = 1 + usize::from(who) % (seeds.len() - 1);
            let message = format!("step {n}").into_bytes();
            prop_assert_eq!(batched[i].sign(&message), key(i).sign(&message, &mut alone[i]));
        }
        let refills = 2 + steps.iter().filter(|&&(op, _)| op == 0).count();
        prop_assert_eq!(batched[0].queued(), refills);
    }
}

// Boosted in CI with `PROPTEST_CASES`, so no explicit case count.
proptest! {
    /// An envelope's signer is a shared name, but it encodes as the
    /// payload, the signer as a string and the signature, and decodes to
    /// an equal envelope.
    #[test]
    fn envelope_encodes_its_signer_as_a_string(
        payload in any::<u64>(),
        signer in "[a-z0-9-]{0,12}",
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let env = Signed::seal(payload, signer.as_str(), keys(), &mut rng);
        let mut w = Writer::new();
        w.put_u64(payload);
        w.put_str(&signer);
        env.signature().encode(&mut w);
        let bytes = w.into_inner();
        prop_assert_eq!(&to_wire(&env), &bytes);
        let back: Signed<u64> = from_wire(&bytes).unwrap();
        prop_assert_eq!(back.signer(), signer.as_str());
        prop_assert_eq!(back, env);
    }
}
