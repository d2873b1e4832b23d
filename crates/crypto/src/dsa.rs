//! DSA (Digital Signature Algorithm), FIPS 186 style.
//!
//! The paper's protocol measurements used DSA with 512-bit keys; this module
//! implements the classic scheme over subgroups of prime order `q` inside
//! `Z_p^*`, with SHA-256 as the message hash (truncated to the bit length of
//! `q` as FIPS 186-4 §4.6 prescribes).
//!
//! # The acceleration layer
//!
//! Every DSA hot operation is an exponentiation modulo the same odd prime
//! `p`, and the bases recur: signing computes `g^k`, key generation
//! `g^x`, verification `g^u1 · y^u2`. [`DsaParams`] therefore lazily owns
//! a [`Montgomery`] context for `p` plus a [`FixedBase`] table for `g`,
//! and [`DsaPublicKey`] caches a [`FixedBase`] table for its `y`; both
//! caches are `Arc`-shared across clones, so a key registered in a
//! [`crate::KeyDirectory`] (or pooled by the fleet engine) builds its
//! table once and every holder benefits. The group's `g`-table uses 8-bit
//! digits (one multiplication per byte of the exponent, about 128 KiB for
//! the 256-bit group, built once per process); each key's `y`-table uses
//! 4-bit digits, since there is one per pooled key. The accelerated
//! verification path ([`verify_batch`], and [`DsaPublicKey::verify_fused`]
//! as a batch of one) collapses each check to **two table walks and one
//! Montgomery multiplication**, and a batch pays **one inversion per
//! group**: the `s` values of a group share a single inversion in the
//! `q`-domain (Montgomery's trick). Verdicts stay per entry and exact —
//! nothing is aggregated probabilistically.
//!
//! [`DsaPublicKey::verify`] deliberately stays on the schoolbook
//! two-modexp path: it is the reference oracle the equivalence tests pin
//! the fast paths against. All signing/verifying entry points the
//! protocols use ([`DsaKeyPair::sign`], [`crate::Signed`],
//! [`verify_batch`]) run on the accelerated path, and there is no
//! schoolbook fallback: every [`DsaParams`] hosts both Montgomery
//! contexts, because the wire decoder refuses a `p` or `q` that is even
//! or below 3 and a `g` whose order does not divide `q`.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use refstate_telemetry as telemetry;

use refstate_bigint::{
    gen_prime, is_probable_prime, random_exact_bits, random_in_unit_range, FixedBase, MontInt,
    Montgomery, Uint,
};
use refstate_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::sha256::sha256;

/// Miller–Rabin rounds used for parameter generation.
const MR_ROUNDS: u32 = 40;

/// The lazily-built per-group acceleration state: a Montgomery context
/// for `p`, a fixed-base table for the generator `g` (sized for
/// exponents up to `|q|` bits — every DSA exponent is reduced mod `q`),
/// and a second Montgomery context for the subgroup order `q` so the
/// scalar arithmetic of signing (`s = k⁻¹·(z + x·r)`) and verifying
/// (`w = s⁻¹`, shared across a batch by one inversion of the product of
/// the `s` values, then `u1 = z·w`, `u2 = r·w`) runs in-domain without the
/// division-based round trip.
#[derive(Debug)]
pub(crate) struct GroupAccel {
    pub(crate) mont: Arc<Montgomery>,
    pub(crate) g_table: FixedBase,
    pub(crate) q_mont: Montgomery,
}

/// Errors arising from invalid DSA domain parameters, keys, or signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SignatureError {
    /// `q` does not divide `p - 1`, or a primality check failed.
    InvalidParams(&'static str),
    /// A signature component was outside `[1, q)`.
    MalformedSignature,
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::InvalidParams(why) => write!(f, "invalid DSA parameters: {why}"),
            SignatureError::MalformedSignature => f.write_str("malformed DSA signature"),
        }
    }
}

impl Error for SignatureError {}

/// DSA domain parameters `(p, q, g)`.
///
/// `p` is the field prime, `q` a prime divisor of `p - 1`, and `g` a
/// generator of the order-`q` subgroup.
///
/// # Examples
///
/// ```
/// use refstate_crypto::DsaParams;
///
/// let params = DsaParams::test_group_256();
/// assert_eq!(params.p().bit_len(), 256);
/// ```
#[derive(Clone)]
pub struct DsaParams {
    p: Uint,
    q: Uint,
    g: Uint,
    /// Lazily-built Montgomery contexts + `g`-table, `Arc`-shared across
    /// clones (the precomputed groups hand every caller the same cache).
    accel: Arc<OnceLock<GroupAccel>>,
}

impl fmt::Debug for DsaParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DsaParams")
            .field("p", &self.p)
            .field("q", &self.q)
            .field("g", &self.g)
            .finish_non_exhaustive()
    }
}

impl PartialEq for DsaParams {
    fn eq(&self, other: &Self) -> bool {
        // The accel cache is derived state; identity is (p, q, g).
        self.p == other.p && self.q == other.q && self.g == other.g
    }
}

impl Eq for DsaParams {}

/// The widest field prime `p` a wire-decoded group may have, in bits.
/// Decoding pays a Miller–Rabin test of `q` and one exponentiation mod
/// `p`; the cap bounds what a hostile frame can make them cost. The
/// paper's groups use at most 1 024 bits.
///
/// The worst case is a prime 4 095-bit `q` under a 4 096-bit `p`: all
/// [`VALIDATE_MR_ROUNDS`] rounds run, then `g^q`, 17 exponentiations
/// at about 56 ms each, so one such frame took 0.95 s to decode (release
/// build, 2-vCPU x86-64 host, five runs from 0.94 to 0.96 s). A
/// composite `q` of that width usually stops at trial division (21 µs
/// for `q + 2`).
const MAX_DECODED_P_BITS: usize = 4096;

/// Miller–Rabin rounds a check of given parameters runs: on `p` and `q`
/// in [`DsaParams::new`], on `q` in a wire decode.
const VALIDATE_MR_ROUNDS: u32 = 16;

/// Seed of the RNG a decode draws its Miller–Rabin witnesses from. A
/// constant, so a decode is a pure function of its bytes.
const DECODE_WITNESS_SEED: u64 = 0x6473_615f_7072_696d;

/// Upper bound on the Montgomery residues one fixed-base table holds: a
/// `w`-bit table has `2^w − 1` residues per digit row, so it covers at
/// most `⌊15 360 / (2^w − 1)⌋ · w` exponent bits — 4 096 at `w = 4`, 480
/// at `w = 8`. Real DSA subgroup orders are ≤ a few hundred bits; the cap
/// only bites on wire-decoded parameters (decode admits any probable-prime
/// `q` narrower than `p`), where a hostile 4 095-bit `q`
/// would otherwise make the first signature build a `g`-table of 130 560
/// residues, 64 MiB at a 4 096-bit `p` (a memory-amplification DoS the
/// constant-memory schoolbook path never had). Capped, each table holds
/// at most 7.5 MiB. Exponents wider than the table transparently
/// fall back to the generic Montgomery ladder, so correctness is
/// unaffected.
const MAX_TABLE_RESIDUES: usize = 15_360;

/// Digit width of the group's shared `g`-table: one table per group and
/// process, so 8-bit digits (half the multiplications of 4-bit ones on
/// every signature) cost memory once.
const G_WINDOW: usize = 8;

/// Digit width of each key's `y`-table: there is one per pooled key, so
/// the table stays at 4-bit digits (15 residues a row, not 255).
const Y_WINDOW: usize = 4;

impl DsaParams {
    /// Wraps validated components with an empty acceleration cache.
    fn assemble(p: Uint, q: Uint, g: Uint) -> Self {
        DsaParams {
            p,
            q,
            g,
            accel: Arc::new(OnceLock::new()),
        }
    }

    /// How many exponent bits a `window`-bit table of this group covers:
    /// the subgroup order's width, capped so the table holds at most
    /// [`MAX_TABLE_RESIDUES`] residues.
    fn table_exp_bits(&self, window: usize) -> usize {
        let rows = MAX_TABLE_RESIDUES / ((1 << window) - 1);
        self.q.bit_len().min(rows * window)
    }

    /// The per-group acceleration state, built on first use.
    pub(crate) fn accel(&self) -> &GroupAccel {
        self.accel.get_or_init(|| {
            let mont = Arc::new(Montgomery::new(&self.p).expect("p is odd and at least 3"));
            let g_table = FixedBase::with_window(
                Arc::clone(&mont),
                &self.g,
                self.table_exp_bits(G_WINDOW),
                G_WINDOW,
            );
            GroupAccel {
                mont,
                g_table,
                q_mont: Montgomery::new(&self.q).expect("q is odd and at least 3"),
            }
        })
    }

    /// The Montgomery context for `q`, where the signing and verifying
    /// scalar arithmetic runs.
    pub(crate) fn q_domain(&self) -> &Montgomery {
        &self.accel().q_mont
    }

    /// Computes `g ^ exponent mod p` through the group's fixed-base
    /// `g`-table. This is the exponentiation under every signature and
    /// key generation.
    pub fn pow_g(&self, exponent: &Uint) -> Uint {
        self.accel().g_table.pow_mod(exponent)
    }
    /// Builds parameters from explicit values, validating the group
    /// structure (primality of `p` and of the odd `q`, `q | p - 1`, `g` of
    /// order `q`).
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::InvalidParams`] when any structural check
    /// fails.
    pub fn new(p: Uint, q: Uint, g: Uint, rng: &mut dyn RngCore) -> Result<Self, SignatureError> {
        if !is_probable_prime(&p, VALIDATE_MR_ROUNDS, rng) {
            return Err(SignatureError::InvalidParams("p is not prime"));
        }
        if q.is_even() || !is_probable_prime(&q, VALIDATE_MR_ROUNDS, rng) {
            return Err(SignatureError::InvalidParams("q is not an odd prime"));
        }
        let p_minus_1 = &p - &Uint::one();
        if !p_minus_1.rem(&q).is_zero() {
            return Err(SignatureError::InvalidParams("q does not divide p-1"));
        }
        if g <= Uint::one() || g >= p {
            return Err(SignatureError::InvalidParams("g out of range"));
        }
        if !g.pow_mod(&q, &p).is_one() {
            return Err(SignatureError::InvalidParams("g does not have order q"));
        }
        Ok(DsaParams::assemble(p, q, g))
    }

    /// Builds parameters from trusted, pre-validated constants.
    ///
    /// Used for the precomputed groups; panics in debug builds if the
    /// constants are structurally wrong.
    pub(crate) fn from_trusted(p: Uint, q: Uint, g: Uint) -> Self {
        debug_assert!((&p - &Uint::one()).rem(&q).is_zero());
        debug_assert!(g.pow_mod(&q, &p).is_one());
        DsaParams::assemble(p, q, g)
    }

    /// Generates fresh parameters with `p_bits`-bit `p` and `q_bits`-bit `q`.
    ///
    /// This is how the precomputed groups in
    /// [`test_group_256`](DsaParams::test_group_256) /
    /// [`group_512`](DsaParams::group_512) / [`group_1024`](DsaParams::group_1024)
    /// were produced (see `src/bin/genparams.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `q_bits + 2 > p_bits` or `q_bits < 3` (the one 2-bit
    /// prime besides 3 is the even 2).
    pub fn generate(p_bits: usize, q_bits: usize, rng: &mut dyn RngCore) -> Self {
        assert!(
            q_bits >= 3 && q_bits + 2 <= p_bits,
            "invalid DSA size request"
        );
        loop {
            let q = gen_prime(q_bits, MR_ROUNDS, rng);
            // Search for p = q*m + 1 with exactly p_bits bits.
            for _ in 0..4096 {
                let mut m = random_exact_bits(rng, p_bits - q_bits);
                if !m.is_even() {
                    m = &m + &Uint::one();
                }
                let p = &(&q * &m) + &Uint::one();
                if p.bit_len() != p_bits {
                    continue;
                }
                if is_probable_prime(&p, MR_ROUNDS, rng) {
                    let g = Self::find_generator(&p, &q, rng);
                    return DsaParams::assemble(p, q, g);
                }
            }
            // Unlucky q; draw a new one.
        }
    }

    fn find_generator(p: &Uint, q: &Uint, rng: &mut dyn RngCore) -> Uint {
        let p_minus_1 = p - &Uint::one();
        let exp = p_minus_1.divrem(q).0;
        // `p` is prime (hence odd) here; the cofactor exponent is large,
        // so the division-free ladder pays off even for one shot.
        let mont = Montgomery::new(p).expect("p is an odd prime");
        loop {
            let h = random_in_unit_range(rng, &p_minus_1);
            let g = mont.pow_mod(&h, &exp);
            if g > Uint::one() {
                return g;
            }
        }
    }

    /// The field prime `p`.
    pub fn p(&self) -> &Uint {
        &self.p
    }

    /// The subgroup order `q`.
    pub fn q(&self) -> &Uint {
        &self.q
    }

    /// The subgroup generator `g`.
    pub fn g(&self) -> &Uint {
        &self.g
    }

    /// Reduces a message to the integer `z`: the leftmost
    /// `min(bitlen(q), 256)` bits of its SHA-256 digest (FIPS 186-4 §4.6).
    pub(crate) fn hash_to_z(&self, message: &[u8]) -> Uint {
        let digest = sha256(message);
        let z = Uint::from_be_bytes(digest.as_bytes());
        let digest_bits = digest.len() * 8;
        let q_bits = self.q.bit_len();
        if digest_bits > q_bits {
            &z >> (digest_bits - q_bits)
        } else {
            z
        }
    }
}

impl Encode for DsaParams {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.p.to_be_bytes());
        w.put_bytes(&self.q.to_be_bytes());
        w.put_bytes(&self.g.to_be_bytes());
    }
}

impl Decode for DsaParams {
    /// Decodes `(p, q, g)` and refuses, as [`WireError::InvalidValue`],
    /// parameters that cannot host a group: a `p` or `q` that is even or
    /// below 3 (no Montgomery context), a `p` wider than 4 096 bits, a
    /// `q` at least as wide as `p`, a `q` that does not divide `p − 1`
    /// (`p = q²` with `g = 1 + q` passes every other check, and there
    /// `r = (g^k mod p) mod q` is always 1, so any `(1, s)` verifies), a
    /// `g` outside `(1, p)`, a composite `q` (a nonce with no inverse mod
    /// `q` would stop the signer), or a `g` with `g^q mod p ≠ 1` (its
    /// signatures would fail their own verification). The shape checks
    /// come first, so only a bounded `p` and `q` reach the exponentiations
    /// a decode costs. The primality test is [`DsaParams::new`]'s
    /// Miller–Rabin on `q`, with witnesses drawn from a constant seed so
    /// the same bytes always decode the same way; a composite crafted
    /// against those fixed witnesses could still pass. `p`'s primality is
    /// not checked: it would cost as much again as the rest of a
    /// worst-case decode.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let p = Uint::from_be_bytes(r.take_bytes()?);
        let q = Uint::from_be_bytes(r.take_bytes()?);
        let g = Uint::from_be_bytes(r.take_bytes()?);
        let three = Uint::from(3u64);
        if p.is_even() || p < three || q.is_even() || q < three || g <= Uint::one() || g >= p {
            return Err(WireError::InvalidValue {
                context: "DSA params",
            });
        }
        if p.bit_len() > MAX_DECODED_P_BITS || q.bit_len() >= p.bit_len() {
            return Err(WireError::InvalidValue {
                context: "DSA params: width",
            });
        }
        let mut witnesses = StdRng::seed_from_u64(DECODE_WITNESS_SEED);
        if !is_probable_prime(&q, VALIDATE_MR_ROUNDS, &mut witnesses) {
            return Err(WireError::InvalidValue {
                context: "DSA params: q not prime",
            });
        }
        if !(&p - &Uint::one()).rem(&q).is_zero() {
            return Err(WireError::InvalidValue {
                context: "DSA params: q does not divide p - 1",
            });
        }
        let mont = Montgomery::new(&p).expect("p is odd and at least 3");
        if !mont.pow_mod(&g, &q).is_one() {
            return Err(WireError::InvalidValue {
                context: "DSA params: g^q mod p",
            });
        }
        Ok(DsaParams::assemble(p, q, g))
    }
}

/// A DSA signature `(r, s)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    r: Uint,
    s: Uint,
}

impl Signature {
    /// The `r` component.
    pub fn r(&self) -> &Uint {
        &self.r
    }

    /// The `s` component.
    pub fn s(&self) -> &Uint {
        &self.s
    }
}

impl Encode for Signature {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.r.to_be_bytes());
        w.put_bytes(&self.s.to_be_bytes());
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let rr = Uint::from_be_bytes(r.take_bytes()?);
        let s = Uint::from_be_bytes(r.take_bytes()?);
        Ok(Signature { r: rr, s })
    }
}

/// A DSA public key: the group parameters plus `y = g^x mod p`.
#[derive(Clone)]
pub struct DsaPublicKey {
    params: DsaParams,
    y: Uint,
    /// Lazily-built fixed-base table for `y`, `Arc`-shared across clones:
    /// a key held by a [`crate::KeyDirectory`] (or a fleet key pool)
    /// builds it once and every clone verifies through it.
    y_table: Arc<OnceLock<FixedBase>>,
}

impl fmt::Debug for DsaPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DsaPublicKey")
            .field("params", &self.params)
            .field("y", &self.y)
            .finish_non_exhaustive()
    }
}

impl PartialEq for DsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        // The y-table is derived state; identity is (params, y).
        self.params == other.params && self.y == other.y
    }
}

impl Eq for DsaPublicKey {}

impl DsaPublicKey {
    /// Wraps components with an empty table cache.
    fn assemble(params: DsaParams, y: Uint) -> Self {
        DsaPublicKey {
            params,
            y,
            y_table: Arc::new(OnceLock::new()),
        }
    }

    /// The domain parameters.
    pub fn params(&self) -> &DsaParams {
        &self.params
    }

    /// The public value `y`.
    pub fn y(&self) -> &Uint {
        &self.y
    }

    /// The group accel plus this key's `y`-table, built on first use.
    fn y_accel(&self) -> (&GroupAccel, &FixedBase) {
        let accel = self.params.accel();
        let table = self.y_table.get_or_init(|| {
            FixedBase::with_window(
                Arc::clone(&accel.mont),
                &self.y,
                self.params.table_exp_bits(Y_WINDOW),
                Y_WINDOW,
            )
        });
        (accel, table)
    }

    /// Forces construction of the Montgomery context and both fixed-base
    /// tables (`g` and `y`) now instead of on the first verification.
    ///
    /// Long-lived key holders — [`crate::KeyDirectory::warm`], the fleet
    /// engine's pooled keys — call this once up front so first-use table
    /// builds never land inside a measured journey.
    pub fn precompute(&self) {
        let _span = telemetry::span("crypto.precompute", "crypto");
        let _ = self.y_accel();
    }

    /// Verifies `signature` over `message` (hashed with SHA-256 internally).
    ///
    /// Returns `false` for malformed components, never panics on hostile
    /// input.
    ///
    /// This is the *schoolbook reference* path: two independent
    /// square-and-multiply exponentiations, no Montgomery arithmetic, no
    /// tables. The accelerated [`DsaPublicKey::verify_fused`] is pinned to
    /// agree with it by unit and property tests; everything hot goes
    /// through the fused path.
    ///
    /// ```
    /// use rand::SeedableRng;
    /// use refstate_crypto::{DsaKeyPair, DsaParams};
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    /// let keys = DsaKeyPair::generate(&DsaParams::test_group_256(), &mut rng);
    /// let sig = keys.sign(b"msg", &mut rng);
    /// assert!(keys.public().verify(b"msg", &sig));
    /// ```
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let q = &self.params.q;
        let p = &self.params.p;
        let r = &signature.r;
        let s = &signature.s;
        if r.is_zero() || r >= q || s.is_zero() || s >= q {
            return false;
        }
        let w = match s.inv_mod(q) {
            Some(w) => w,
            None => return false,
        };
        let z = self.params.hash_to_z(message);
        let u1 = z.mul_mod(&w, q);
        let u2 = r.mul_mod(&w, q);
        let v = self
            .params
            .g
            .pow_mod(&u1, p)
            .mul_mod(&self.y.pow_mod(&u2, p), p)
            .rem(q);
        v == *r
    }

    /// [`DsaPublicKey::verify`] on the accelerated path: [`verify_batch`]
    /// over this one entry. `g^u1` and `y^u2` come out of the group's and
    /// the key's precomputed [`FixedBase`] tables as Montgomery residues,
    /// fused by a single [`Montgomery`] multiplication — two table walks
    /// (one multiplication per non-zero exponent digit, **no squarings**)
    /// per verification.
    ///
    /// Identical accept/reject behaviour to [`DsaPublicKey::verify`] —
    /// the batch property tests pin this.
    pub fn verify_fused(&self, message: &[u8], signature: &Signature) -> bool {
        verify_batch(&[BatchEntry {
            key: self,
            message,
            signature,
        }])[0]
    }

    /// The tail of every accelerated verification once `u1 = z·w` and
    /// `u2 = r·w` are known: `v = (g^u1 · y^u2 mod p) mod q`, accepted iff
    /// `v = r`.
    fn accepts(&self, u1: &Uint, u2: &Uint, r: &Uint) -> bool {
        let (accel, y_table) = self.y_accel();
        let gm = accel.g_table.pow(u1);
        let ym = y_table.pow(u2);
        accel
            .mont
            .from_mont(&accel.mont.mont_mul(&gm, &ym))
            .rem(&self.params.q)
            == *r
    }
}

/// One entry of a [`verify_batch`] call: a public key, the signed message
/// bytes, and the signature to check against them.
#[derive(Debug, Clone, Copy)]
pub struct BatchEntry<'a> {
    /// The claimed signer's public key.
    pub key: &'a DsaPublicKey,
    /// The message bytes the signature covers.
    pub message: &'a [u8],
    /// The signature to verify.
    pub signature: &'a Signature,
}

/// Verifies a batch of DSA signatures, returning one accept/reject verdict
/// per entry (same order).
///
/// Each entry is judged exactly as [`DsaPublicKey::verify`] would judge it
/// — no small-exponent aggregation tricks, which standard DSA rules out
/// because `r` only retains `g^k mod p mod q` — so verdicts stay per entry
/// and exact. What the batch shares is the inversion: the entries are
/// partitioned by group, and within a group every in-range `s` is
/// multiplied into one product in the `q`-domain, inverted **once**, and
/// walked back to each entry's own `w = s⁻¹` (Montgomery's trick: one
/// inversion plus `3(n − 1)` multiplications instead of `n` inversions).
/// A batch therefore costs one inversion per group. Each entry then
/// finishes alone: hash, `u1 = z·w`, `u2 = r·w`, two fixed-base table
/// walks plus one Montgomery multiplication, with each key's `y`-table
/// built once and shared across the batch (and across every clone of the
/// key). This is the batch half of the protocol's deferred-verification
/// path (see `refstate-core::protocol`), and
/// [`DsaPublicKey::verify_fused`] is this function over one entry.
///
/// A component outside `[1, q)` rejects its entry before the product is
/// formed, so a zero `s` cannot poison the rest of its group. A product
/// with no inverse (possible only for a composite `q` crafted to pass a
/// wire decode's fixed-witness primality test) makes each entry invert
/// alone, so an entry fails only on its own `s`.
///
/// Telemetry: `crypto.batch_size` and the `crypto.verify_batch` span once
/// per call; `crypto.verify` once per entry, timing that entry's own
/// work. The shared inversion is inside `crypto.verify_batch` but in no
/// entry's `crypto.verify`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use refstate_crypto::{verify_batch, BatchEntry, DsaKeyPair, DsaParams};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let keys = DsaKeyPair::generate(&DsaParams::test_group_256(), &mut rng);
/// let sig = keys.sign(b"msg", &mut rng);
/// let verdicts = verify_batch(&[BatchEntry {
///     key: keys.public(),
///     message: b"msg",
///     signature: &sig,
/// }]);
/// assert_eq!(verdicts, vec![true]);
/// ```
pub fn verify_batch(entries: &[BatchEntry<'_>]) -> Vec<bool> {
    telemetry::observe("crypto.batch_size", entries.len() as u64);
    let timer = telemetry::Timer::start();
    let mut verdicts = vec![false; entries.len()];
    // Entry indices per group, in batch order.
    let mut groups: Vec<(&DsaParams, Vec<usize>)> = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let params = &entry.key.params;
        let Signature { r, s } = entry.signature;
        if r.is_zero() || r >= &params.q || s.is_zero() || s >= &params.q {
            telemetry::Timer::start().finish("crypto.verify", "crypto");
            continue;
        }
        match groups.iter_mut().find(|(group, _)| *group == params) {
            Some((_, members)) => members.push(i),
            None => groups.push((params, vec![i])),
        }
    }
    for (params, members) in &groups {
        verify_group(params, entries, members, &mut verdicts);
    }
    timer.finish("crypto.verify_batch", "crypto");
    verdicts
}

/// Judges the in-range entries `members` of one group, writing each
/// verdict into `verdicts`: one shared inversion in the group's
/// `q`-domain, then each entry's own tail.
fn verify_group(
    params: &DsaParams,
    entries: &[BatchEntry<'_>],
    members: &[usize],
    verdicts: &mut [bool],
) {
    let qm = params.q_domain();
    let s: Vec<MontInt> = members
        .iter()
        .map(|&i| qm.to_mont(&entries[i].signature.s))
        .collect();
    let inverses = batch_inverses(qm, &s);
    for (n, &i) in members.iter().enumerate() {
        let BatchEntry {
            key,
            message,
            signature,
        } = entries[i];
        let timer = telemetry::Timer::start();
        let z = params.hash_to_z(message);
        let r = &signature.r;
        // (u1, u2) = (z·w, r·w) in the q-domain.
        verdicts[i] = inverses[n].as_ref().is_some_and(|w| {
            let times_w = |x: &Uint| qm.from_mont(&qm.mont_mul(&qm.to_mont(x), w));
            key.accepts(&times_w(&z), &times_w(r), r)
        });
        timer.finish("crypto.verify", "crypto");
    }
}

/// Montgomery's trick: the inverse of every residue in `values` from one
/// [`Montgomery::inv`] plus `3(n − 1)` multiplications. The prefix
/// products `c_i = v_0 ⋯ v_i` run forward; `c_(n−1)⁻¹` walks back, with
/// `v_i⁻¹ = c_i⁻¹ · c_(i−1)` and `c_(i−1)⁻¹ = c_i⁻¹ · v_i`. When the product
/// has no inverse each value is inverted alone, so only the values that
/// share a factor with the modulus come back `None`.
pub(crate) fn batch_inverses(qm: &Montgomery, values: &[MontInt]) -> Vec<Option<MontInt>> {
    let Some((first, rest)) = values.split_first() else {
        return Vec::new();
    };
    // prefix[i] = c_i for i < n − 1; the loop leaves c_(n−1) in `product`.
    let mut prefix = Vec::with_capacity(rest.len());
    let mut product = first.clone();
    for v in rest {
        let next = qm.mont_mul(&product, v);
        prefix.push(product);
        product = next;
    }
    let Some(mut inverse) = qm.inv(&product) else {
        return values.iter().map(|v| qm.inv(v)).collect();
    };
    let mut inverses = vec![None; values.len()];
    for i in (1..values.len()).rev() {
        inverses[i] = Some(qm.mont_mul(&inverse, &prefix[i - 1]));
        inverse = qm.mont_mul(&inverse, &values[i]);
    }
    inverses[0] = Some(inverse);
    inverses
}

impl Encode for DsaPublicKey {
    fn encode(&self, w: &mut Writer) {
        self.params.encode(w);
        w.put_bytes(&self.y.to_be_bytes());
    }
}

impl Decode for DsaPublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let params = DsaParams::decode(r)?;
        let y = Uint::from_be_bytes(r.take_bytes()?);
        if y <= Uint::one() || y >= params.p {
            return Err(WireError::InvalidValue {
                context: "DSA public key",
            });
        }
        Ok(DsaPublicKey::assemble(params, y))
    }
}

/// A DSA private/public key pair.
///
/// `Debug` shows only the public half, so formatting a pair (or a struct
/// holding one) never prints the private exponent.
#[derive(Clone)]
pub struct DsaKeyPair {
    x: Uint,
    public: DsaPublicKey,
}

impl fmt::Debug for DsaKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DsaKeyPair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl DsaKeyPair {
    /// Generates a key pair in the given group (`y = g^x` through the
    /// group's fixed-base table).
    pub fn generate(params: &DsaParams, rng: &mut dyn RngCore) -> Self {
        let x = random_in_unit_range(rng, &params.q);
        let y = params.pow_g(&x);
        DsaKeyPair {
            x,
            public: DsaPublicKey::assemble(params.clone(), y),
        }
    }

    /// The public half.
    pub fn public(&self) -> &DsaPublicKey {
        &self.public
    }

    /// Signs `message` (hashed with SHA-256 internally).
    ///
    /// Fresh randomness per signature: each `k` is drawn from `rng` and
    /// inverted alone. The internal loop retries the negligible
    /// `r == 0` / `s == 0` cases as FIPS 186 requires. The per-signature
    /// exponentiation `g^k mod p` runs through the group's fixed-base
    /// table ([`DsaParams::pow_g`]) — one Montgomery multiplication per
    /// non-zero 4-bit digit of `k` instead of a full square-and-multiply
    /// ladder. A signer that draws its nonces ahead, in batches, is a
    /// [`crate::Signer`]; both run the same loop.
    pub fn sign(&self, message: &[u8], rng: &mut dyn RngCore) -> Signature {
        self.sign_from(message, &mut VecDeque::new(), rng)
    }

    /// The signing loop: each attempt takes the oldest of `nonces`, or
    /// draws a fresh `k` from `rng` and inverts it alone when none is
    /// queued. Every `nonces` entry must come from `rng`'s stream for this
    /// key's group (as [`crate::draw_nonces`] fills a
    /// [`crate::Signer`]'s queue), so the `k` sequence — and every
    /// signature byte — is the one `rng` alone would give.
    ///
    /// `s = k⁻¹·(z + x·r)` finishes in the `q`-domain.
    pub(crate) fn sign_from(
        &self,
        message: &[u8],
        nonces: &mut VecDeque<Nonce>,
        rng: &mut dyn RngCore,
    ) -> Signature {
        let timer = telemetry::Timer::start();
        let params = &self.public.params;
        let qm = params.q_domain();
        let z = params.hash_to_z(message);
        let signature = loop {
            let Nonce { k, k_inv } = match nonces.pop_front() {
                Some(nonce) => nonce,
                None => Nonce::draw(qm, rng),
            };
            let r = params.pow_g(&k).rem(&params.q);
            let xr = qm.from_mont(&qm.mont_mul(&qm.to_mont(&self.x), &qm.to_mont(&r)));
            // `to_mont` reduces the sum, which is below 3q.
            let s = qm.from_mont(&qm.mont_mul(&k_inv, &qm.to_mont(&(&z + &xr))));
            if !r.is_zero() && !s.is_zero() {
                break Signature { r, s };
            }
        };
        timer.finish("crypto.sign", "crypto");
        signature
    }
}

/// A signing nonce drawn before its message: `k` and `k⁻¹` as a residue
/// of the group's `q`-domain. Neither depends on the message (FIPS 186
/// lets a signer compute them ahead).
pub(crate) struct Nonce {
    pub(crate) k: Uint,
    pub(crate) k_inv: MontInt,
}

impl Nonce {
    /// Draws the next `k` of `rng`'s stream and inverts it alone.
    fn draw(qm: &Montgomery, rng: &mut dyn RngCore) -> Self {
        let k = random_in_unit_range(rng, qm.modulus());
        let k_inv = qm.inv(&qm.to_mont(&k)).expect("q prime, 0 < k < q");
        Nonce { k, k_inv }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_params(rng: &mut StdRng) -> DsaParams {
        DsaParams::generate(128, 48, rng)
    }

    #[test]
    fn generate_validates() {
        let mut rng = StdRng::seed_from_u64(11);
        let params = small_params(&mut rng);
        assert_eq!(params.p().bit_len(), 128);
        assert_eq!(params.q().bit_len(), 48);
        // Must re-validate through the public constructor.
        let again = DsaParams::new(
            params.p().clone(),
            params.q().clone(),
            params.g().clone(),
            &mut rng,
        );
        assert!(again.is_ok());
    }

    #[test]
    fn new_rejects_bad_params() {
        let mut rng = StdRng::seed_from_u64(12);
        let params = small_params(&mut rng);
        // Composite p.
        let bad = DsaParams::new(
            &(params.p() * &Uint::from(2u64)) + &Uint::zero(),
            params.q().clone(),
            params.g().clone(),
            &mut rng,
        );
        assert!(matches!(bad, Err(SignatureError::InvalidParams(_))));
        // g = 1 has trivial order.
        let bad = DsaParams::new(
            params.p().clone(),
            params.q().clone(),
            Uint::one(),
            &mut rng,
        );
        assert!(bad.is_err());
        // q that does not divide p-1.
        let bad = DsaParams::new(
            params.p().clone(),
            Uint::from(65537u64),
            params.g().clone(),
            &mut rng,
        );
        assert!(bad.is_err());
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut rng = StdRng::seed_from_u64(13);
        let params = small_params(&mut rng);
        let keys = DsaKeyPair::generate(&params, &mut rng);
        for msg in [
            &b"hello"[..],
            b"",
            b"a much longer message spanning blocks.....",
        ] {
            let sig = keys.sign(msg, &mut rng);
            assert!(keys.public().verify(msg, &sig));
        }
    }

    #[test]
    fn debug_shows_only_the_public_half() {
        let mut rng = StdRng::seed_from_u64(16);
        let keys = DsaKeyPair::generate(&DsaParams::test_group_256(), &mut rng);
        let shown = format!("{keys:?}");
        assert!(shown.contains(&format!("{:x}", keys.public().y())));
        assert!(!shown.contains(&format!("{:x}", keys.x)), "{shown}");
    }

    #[test]
    fn verify_rejects_tampering() {
        let mut rng = StdRng::seed_from_u64(14);
        let params = small_params(&mut rng);
        let keys = DsaKeyPair::generate(&params, &mut rng);
        let sig = keys.sign(b"payment: $10", &mut rng);
        assert!(!keys.public().verify(b"payment: $1000", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let mut rng = StdRng::seed_from_u64(15);
        let params = small_params(&mut rng);
        let alice = DsaKeyPair::generate(&params, &mut rng);
        let mallory = DsaKeyPair::generate(&params, &mut rng);
        let sig = mallory.sign(b"msg", &mut rng);
        assert!(!alice.public().verify(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_malformed_components() {
        let mut rng = StdRng::seed_from_u64(16);
        let params = small_params(&mut rng);
        let keys = DsaKeyPair::generate(&params, &mut rng);
        let sig = keys.sign(b"msg", &mut rng);
        let zero_r = Signature {
            r: Uint::zero(),
            s: sig.s().clone(),
        };
        assert!(!keys.public().verify(b"msg", &zero_r));
        let big_s = Signature {
            r: sig.r().clone(),
            s: params.q().clone(),
        };
        assert!(!keys.public().verify(b"msg", &big_s));
    }

    #[test]
    fn signatures_are_randomized() {
        let mut rng = StdRng::seed_from_u64(17);
        let params = small_params(&mut rng);
        let keys = DsaKeyPair::generate(&params, &mut rng);
        let s1 = keys.sign(b"msg", &mut rng);
        let s2 = keys.sign(b"msg", &mut rng);
        assert_ne!(s1, s2, "two signatures with fresh k must differ");
        assert!(keys.public().verify(b"msg", &s1));
        assert!(keys.public().verify(b"msg", &s2));
    }

    #[test]
    fn wire_round_trips() {
        use refstate_wire::{from_wire, to_wire};
        let mut rng = StdRng::seed_from_u64(18);
        let params = small_params(&mut rng);
        let keys = DsaKeyPair::generate(&params, &mut rng);
        let sig = keys.sign(b"msg", &mut rng);
        assert_eq!(from_wire::<Signature>(&to_wire(&sig)).unwrap(), sig);
        assert_eq!(from_wire::<DsaParams>(&to_wire(&params)).unwrap(), params);
        let pk = keys.public().clone();
        assert_eq!(from_wire::<DsaPublicKey>(&to_wire(&pk)).unwrap(), pk);
    }

    #[test]
    fn fused_verify_agrees_with_plain_verify() {
        let mut rng = StdRng::seed_from_u64(20);
        let params = small_params(&mut rng);
        let keys = DsaKeyPair::generate(&params, &mut rng);
        let sig = keys.sign(b"msg", &mut rng);
        assert!(keys.public().verify_fused(b"msg", &sig));
        assert!(!keys.public().verify_fused(b"other", &sig));
        let zero_r = Signature {
            r: Uint::zero(),
            s: sig.s().clone(),
        };
        assert!(!keys.public().verify_fused(b"msg", &zero_r));
    }

    #[test]
    fn batch_verdicts_are_per_entry() {
        let mut rng = StdRng::seed_from_u64(21);
        let params = small_params(&mut rng);
        let alice = DsaKeyPair::generate(&params, &mut rng);
        let bob = DsaKeyPair::generate(&params, &mut rng);
        let good = alice.sign(b"a", &mut rng);
        let wrong_key = bob.sign(b"b", &mut rng);
        let verdicts = verify_batch(&[
            BatchEntry {
                key: alice.public(),
                message: b"a",
                signature: &good,
            },
            BatchEntry {
                key: alice.public(),
                message: b"b",
                signature: &wrong_key,
            },
            BatchEntry {
                key: bob.public(),
                message: b"b",
                signature: &wrong_key,
            },
        ]);
        assert_eq!(verdicts, vec![true, false, true]);
    }

    #[test]
    fn empty_batch_returns_no_verdicts() {
        assert!(verify_batch(&[]).is_empty());
    }

    #[test]
    fn batch_of_one_agrees_with_verify_fused() {
        let mut rng = StdRng::seed_from_u64(23);
        let params = small_params(&mut rng);
        let keys = DsaKeyPair::generate(&params, &mut rng);
        let sig = keys.sign(b"msg", &mut rng);
        for (message, expect) in [(&b"msg"[..], true), (b"tampered", false)] {
            let batch = verify_batch(&[BatchEntry {
                key: keys.public(),
                message,
                signature: &sig,
            }]);
            assert_eq!(batch, vec![keys.public().verify_fused(message, &sig)]);
            assert_eq!(batch, vec![expect]);
        }
    }

    #[test]
    fn batch_inverses_match_one_inversion_each() {
        // 99991 is prime: one shared inversion. 15015 = 3·5·7·11·13: the
        // product of [2, 3, 4, 16] shares the factor 3, so every value is
        // inverted alone and only 3 has no inverse.
        for (modulus, values) in [
            (99991u64, vec![2u64, 3, 4, 16, 99990]),
            (15015, vec![2, 3, 4, 16]),
        ] {
            let q = Uint::from(modulus);
            let qm = Montgomery::new(&q).unwrap();
            let residues: Vec<MontInt> =
                values.iter().map(|&v| qm.to_mont(&Uint::from(v))).collect();
            let inverses: Vec<Option<Uint>> = batch_inverses(&qm, &residues)
                .iter()
                .map(|w| w.as_ref().map(|w| qm.from_mont(w)))
                .collect();
            let expect: Vec<Option<Uint>> =
                values.iter().map(|&v| Uint::from(v).inv_mod(&q)).collect();
            assert_eq!(inverses, expect, "modulus {modulus}");
        }
        assert!(batch_inverses(&Montgomery::new(&Uint::from(7u64)).unwrap(), &[]).is_empty());
    }

    /// `(p, q, g)` as the wire carries them, whatever their values.
    fn params_wire(p: &Uint, q: &Uint, g: &Uint) -> Vec<u8> {
        let mut w = refstate_wire::Writer::new();
        for value in [p, q, g] {
            w.put_bytes(&value.to_be_bytes());
        }
        w.into_inner()
    }

    #[test]
    fn decode_refuses_parameters_that_cannot_host_a_group() {
        use refstate_wire::from_wire;
        let group = DsaParams::test_group_256();
        let (p, q, g) = (group.p(), group.q(), group.g());
        let one = Uint::one();
        let decoded = from_wire::<DsaParams>(&params_wire(p, q, g)).expect("a valid group");
        assert_eq!(decoded, group);
        let key = DsaKeyPair::generate(&decoded, &mut StdRng::seed_from_u64(24));
        let sig = key.sign(b"msg", &mut StdRng::seed_from_u64(25));
        assert!(key.public().verify(b"msg", &sig) && key.public().verify_fused(b"msg", &sig));

        // 2^e − 1 with prime e, base 2 and exponent e: 2^e ≡ 1, so only the
        // width cap tells these apart (4 093 and 4 099 are prime).
        let two = Uint::from(2u64);
        let mersenne = |e: u64| (&(&one << e as usize) - &one, Uint::from(e));
        let (near_cap_p, near_cap_q) = mersenne(MAX_DECODED_P_BITS as u64 - 3);
        assert!(from_wire::<DsaParams>(&params_wire(&near_cap_p, &near_cap_q, &two)).is_ok());
        let (wide_p, wide_q) = mersenne(MAX_DECODED_P_BITS as u64 + 3);
        // q³ is odd and g^(q³) = 1, but it is wider than p.
        let q_cubed = &(q * q) * q;
        // 3q is odd, narrower than p and g^(3q) = 1: only primality
        // refuses it (its nonces would have no inverse mod 3q).
        let q_times_3 = q * &Uint::from(3u64);
        // 1 + q has order q mod q², but q does not divide q² − 1.
        let q_squared = q * q;
        let one_plus_q = q + &one;

        let p_minus_1 = p - &one;
        for (why, p, q, g) in [
            ("even p", &(p + &one), q, g),
            ("p below 3", &one, q, g),
            ("p wider than the cap", &wide_p, &wide_q, &two),
            ("even q", p, &(q + &one), g),
            ("q below 3", p, &one, g),
            ("zero q", p, &Uint::zero(), g),
            ("q as wide as p", p, p, g),
            ("q wider than p", p, &q_cubed, g),
            ("composite q", p, &q_times_3, g),
            ("q does not divide p - 1", &q_squared, q, &one_plus_q),
            // (p − 1)^q = −1 for odd q: g's order does not divide q.
            ("g^q mod p = p - 1", p, q, &p_minus_1),
        ] {
            let refused = from_wire::<DsaParams>(&params_wire(p, q, g));
            assert!(
                matches!(refused, Err(WireError::InvalidValue { .. })),
                "{why}: {refused:?}"
            );
        }
    }

    #[test]
    fn tables_keep_to_the_residue_budget_and_wide_exponents_fall_back() {
        use refstate_wire::{from_wire, to_wire};
        // A group whose prime q is wider than the 480 exponent bits an
        // 8-bit g-table covers: it decodes, and the g-table stops short.
        let mut rng = StdRng::seed_from_u64(26);
        let hostile = from_wire::<DsaParams>(&to_wire(&DsaParams::generate(512, 496, &mut rng)))
            .expect("decodes");
        let wide_q = hostile.q().clone();
        assert_eq!(wide_q.bit_len(), 496);
        assert_eq!(hostile.table_exp_bits(G_WINDOW), 480);
        assert_eq!(hostile.table_exp_bits(Y_WINDOW), wide_q.bit_len());
        // The widest q decode admits, one bit under a MAX_DECODED_P_BITS-bit
        // p (`table_exp_bits` reads only q).
        let widest = DsaParams::assemble(
            Uint::one(),
            &(&Uint::one() << (MAX_DECODED_P_BITS - 1)) - &Uint::one(),
            Uint::one(),
        );
        for params in [&hostile, &widest] {
            for window in 1..=8 {
                let rows = params.table_exp_bits(window).div_ceil(window);
                assert!(
                    rows * ((1 << window) - 1) <= MAX_TABLE_RESIDUES,
                    "window {window}"
                );
            }
        }
        // A built-in group's tables cover its whole q.
        let group = DsaParams::group_1024();
        assert_eq!(group.table_exp_bits(G_WINDOW), group.q().bit_len());

        let e = random_in_unit_range(&mut rng, &wide_q);
        assert!(e.bit_len() > 480);
        assert_eq!(hostile.pow_g(&e), hostile.g().pow_mod(&e, hostile.p()));
        let key = DsaKeyPair::generate(&hostile, &mut rng);
        let sig = key.sign(b"wide", &mut rng);
        assert!(key.public().verify_fused(b"wide", &sig));
        assert!(key.public().verify(b"wide", &sig));
        assert!(!key.public().verify_fused(b"other", &sig));
    }

    #[test]
    fn hash_truncation_matches_q_width() {
        let mut rng = StdRng::seed_from_u64(19);
        let params = small_params(&mut rng);
        let z = params.hash_to_z(b"message");
        assert!(z.bit_len() <= params.q().bit_len());
    }
}
