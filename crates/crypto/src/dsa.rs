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
//! Signing, the nonce draw and verification use neither the heap nor a
//! division between the message and the returned [`Signature`]. The
//! subgroup order `q` is capped at 256 bits (FIPS 186-4's widest), so
//! every `q`-domain value (`k`, `k⁻¹`, `z`, `r`, `s`, `w`, `u1`, `u2`) is
//! a stack [`Scalar`] multiplied by the `q` context's CIOS kernel. The
//! table walks write into stack buffers of up to 64 limbs (`p` is capped
//! at 4 096 bits), and `mod q` of a value mod `p` is
//! [`Montgomery::reduce`]'s Horner steps, not a long division. A signature
//! allocates only its own `r` and `s`; a batch allocates its verdicts and
//! a few buffers shared by all its entries.
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
    gen_prime, is_probable_prime, random_exact_bits, random_in_unit_range, FixedBase, Montgomery,
    Scalar, Uint,
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
/// the `s` values, then `u1 = z·w`, `u2 = r·w`) runs on stack
/// [`Scalar`]s without the division-based round trip.
#[derive(Debug)]
pub(crate) struct GroupAccel {
    pub(crate) mont: Arc<Montgomery>,
    pub(crate) g_table: FixedBase,
    pub(crate) q_mont: Montgomery,
}

impl GroupAccel {
    /// `(g^e mod p) mod q` as a residue of the `q`-domain, for the signer's
    /// `r`: a walk of the `g`-table, the way out of `p`'s domain and the
    /// Horner reduction into `q`'s, all on stack buffers.
    fn pow_g_mod_q(&self, e: &Scalar) -> Scalar {
        let k = self.mont.limbs();
        let mut buffers = [[0; P_LIMBS]; 2];
        let [residue, plain] = &mut buffers;
        let (residue, plain) = (&mut residue[..k], &mut plain[..k]);
        self.g_table.pow(e.limbs(), residue);
        self.mont.from_mont_into(residue, plain);
        self.q_mont.reduce(plain)
    }
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

/// The widest field prime `p` a group may have, in bits. Decoding pays a
/// Miller–Rabin test of `q` and one exponentiation mod `p`; with
/// [`MAX_Q_BITS`] the cap bounds what a hostile frame can make them cost,
/// and it sizes the stack buffers of the table walks ([`P_LIMBS`]). The
/// paper's groups use at most 1 024 bits.
const MAX_P_BITS: usize = 4096;

/// The widest subgroup order `q` a group may have, in bits: FIPS 186-4's
/// widest `N`. Every `q`-domain value then fits a stack [`Scalar`], and
/// every fixed-base table stays small: the widest `g`-table holds
/// 32 × 255 = 8 160 residues, 4 MiB under a 4 096-bit `p` (each key's
/// `y`-table, at 4-bit digits, 960 residues, 480 KiB).
///
/// The worst decode is then a prime 256-bit `q` under a 4 096-bit `p`: all
/// [`VALIDATE_MR_ROUNDS`] rounds on `q`, then one `g^q` mod `p` with a
/// 256-bit exponent. One such decode took 3.8 ms (release build, 2-vCPU
/// x86-64 host, five runs of 20 decodes from 3.75 to 3.81 ms).
const MAX_Q_BITS: usize = 256;

/// Limbs of the widest `p`: the stack buffers a table walk writes into.
const P_LIMBS: usize = MAX_P_BITS / 64;

/// Miller–Rabin rounds a check of given parameters runs: on `p` and `q`
/// in [`DsaParams::new`], on `q` in a wire decode.
const VALIDATE_MR_ROUNDS: u32 = 16;

/// Seed of the RNG a decode draws its Miller–Rabin witnesses from. A
/// constant, so a decode is a pure function of its bytes.
const DECODE_WITNESS_SEED: u64 = 0x6473_615f_7072_696d;

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

    /// The per-group acceleration state, built on first use.
    pub(crate) fn accel(&self) -> &GroupAccel {
        self.accel.get_or_init(|| {
            let mont = Arc::new(Montgomery::new(&self.p).expect("p is odd and at least 3"));
            let g_table =
                FixedBase::with_window(Arc::clone(&mont), &self.g, self.q.bit_len(), G_WINDOW);
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
    /// structure (`p` of at most 4 096 bits and `q` of at most 256,
    /// primality of `p` and of the odd `q`, `q | p - 1`, `g` of order `q`).
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::InvalidParams`] when any structural check
    /// fails.
    pub fn new(p: Uint, q: Uint, g: Uint, rng: &mut dyn RngCore) -> Result<Self, SignatureError> {
        if p.bit_len() > MAX_P_BITS {
            return Err(SignatureError::InvalidParams("p wider than 4096 bits"));
        }
        if q.bit_len() > MAX_Q_BITS {
            return Err(SignatureError::InvalidParams("q wider than 256 bits"));
        }
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
    /// Panics if `q_bits + 2 > p_bits`, `q_bits < 3` (the one 2-bit
    /// prime besides 3 is the even 2), `q_bits > 256` or `p_bits > 4096`.
    pub fn generate(p_bits: usize, q_bits: usize, rng: &mut dyn RngCore) -> Self {
        assert!(
            q_bits >= 3 && q_bits + 2 <= p_bits && q_bits <= MAX_Q_BITS && p_bits <= MAX_P_BITS,
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
    /// `min(bitlen(q), 256)` bits of its SHA-256 digest (FIPS 186-4 §4.6),
    /// as a plain [`Scalar`]. It is below `2^bitlen(q)` but not reduced
    /// mod `q`; each use multiplies it by a `q`-domain residue, which
    /// reduces it.
    pub(crate) fn hash_to_z(&self, message: &[u8]) -> Scalar {
        let digest = sha256(message);
        let z = Scalar::from_be_bytes(digest.as_bytes()).expect("a SHA-256 digest is 32 bytes");
        z.shr((digest.len() * 8).saturating_sub(self.q.bit_len()))
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
    /// `q` at least as wide as `p` or wider than 256 bits, a `q` that does
    /// not divide `p − 1`
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
        if p.bit_len() > MAX_P_BITS || q.bit_len() >= p.bit_len() {
            return Err(WireError::InvalidValue {
                context: "DSA params: width",
            });
        }
        if q.bit_len() > MAX_Q_BITS {
            return Err(WireError::InvalidValue {
                context: "DSA params: q width",
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
                self.params.q.bit_len(),
                Y_WINDOW,
            )
        });
        (accel, table)
    }

    /// Forces construction of the Montgomery context and both fixed-base
    /// tables (`g` and `y`) now instead of on the first verification.
    ///
    /// Long-lived key holders, such as the fleet engine's pooled keys,
    /// call this once up front so first-use table builds never land
    /// inside a measured journey.
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
        let z = Uint::from(self.params.hash_to_z(message));
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
    /// `v = r`. The walks, their product and the way out of `p`'s domain
    /// run on stack buffers, and `mod q` is [`Montgomery::reduce`].
    fn accepts(&self, u1: &Scalar, u2: &Scalar, r: &Scalar) -> bool {
        let (accel, y_table) = self.y_accel();
        let k = accel.mont.limbs();
        let mut buffers = [[0; P_LIMBS]; 3];
        let [g_u1, y_u2, product] = &mut buffers;
        let (g_u1, y_u2, product) = (&mut g_u1[..k], &mut y_u2[..k], &mut product[..k]);
        accel.g_table.pow(u1.limbs(), g_u1);
        y_table.pow(u2.limbs(), y_u2);
        accel.mont.mont_mul_into(g_u1, y_u2, product);
        let v = g_u1;
        accel.mont.from_mont_into(product, v);
        let qm = &accel.q_mont;
        qm.scalar_mul(&qm.reduce(v), &Scalar::ONE) == *r
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
    // Each in-range entry's group, named by its first entry; `None` for an
    // entry rejected here.
    let mut leaders: Vec<Option<usize>> = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let params = &entry.key.params;
        let Signature { r, s } = entry.signature;
        if r.is_zero() || r >= &params.q || s.is_zero() || s >= &params.q {
            telemetry::Timer::start().finish("crypto.verify", "crypto");
            leaders.push(None);
            continue;
        }
        let same_group = |&j: &usize| leaders[j] == Some(j) && entries[j].key.params == *params;
        leaders.push(Some((0..i).find(same_group).unwrap_or(i)));
    }
    // Buffers every group reuses: its members, then `s` and the prefix
    // products of the shared inversion.
    let mut members = Vec::with_capacity(entries.len());
    let mut scalars = Vec::with_capacity(2 * entries.len());
    for (leader, _) in leaders.iter().enumerate().filter(|&(i, l)| *l == Some(i)) {
        members.clear();
        members.extend((leader..entries.len()).filter(|&i| leaders[i] == Some(leader)));
        verify_group(entries, &members, &mut scalars, &mut verdicts);
    }
    timer.finish("crypto.verify_batch", "crypto");
    verdicts
}

/// Judges the in-range entries `members` of one group, writing each
/// verdict into `verdicts`: one shared inversion in the group's
/// `q`-domain, then each entry's own tail. `scalars` is scratch.
fn verify_group(
    entries: &[BatchEntry<'_>],
    members: &[usize],
    scalars: &mut Vec<Scalar>,
    verdicts: &mut [bool],
) {
    let params = &entries[members[0]].key.params;
    let qm = params.q_domain();
    scalars.clear();
    scalars.extend(
        members
            .iter()
            .map(|&i| qm.reduce(entries[i].signature.s.limbs())),
    );
    scalars.resize(2 * members.len(), Scalar::ZERO);
    let (w, prefix) = scalars.split_at_mut(members.len());
    batch_invert(qm, w, prefix);
    for (&i, w) in members.iter().zip(w.iter()) {
        let BatchEntry {
            key,
            message,
            signature,
        } = entries[i];
        let timer = telemetry::Timer::start();
        let z = params.hash_to_z(message);
        let r = Scalar::try_from(&signature.r).expect("r < q fits a Scalar");
        // (u1, u2) = (z·w, r·w): w is a residue and z, r are plain, so
        // both products come out plain.
        verdicts[i] = !w.is_zero() && key.accepts(&qm.scalar_mul(&z, w), &qm.scalar_mul(&r, w), &r);
        timer.finish("crypto.verify", "crypto");
    }
}

/// Montgomery's trick: overwrites each residue in `values` with its
/// inverse, from one [`Montgomery::scalar_inv`] plus `3(n − 1)`
/// multiplications, with `prefix` (as long as `values`) as scratch. The
/// prefix products `c_i = v_0 ⋯ v_i` run forward; `c_(n−1)⁻¹` walks back,
/// with `v_i⁻¹ = c_i⁻¹ · c_(i−1)` and `c_(i−1)⁻¹ = c_i⁻¹ · v_i`. When the
/// product has no inverse each value is inverted alone, so only the values
/// that share a factor with the modulus have none; they become zero, which
/// no inverse is.
pub(crate) fn batch_invert(qm: &Montgomery, values: &mut [Scalar], prefix: &mut [Scalar]) {
    let Some((first, rest)) = values.split_first() else {
        return;
    };
    prefix[0] = *first;
    for (i, v) in rest.iter().enumerate() {
        prefix[i + 1] = qm.scalar_mul(&prefix[i], v);
    }
    let Some(mut inverse) = qm.scalar_inv(&prefix[values.len() - 1]) else {
        for v in values.iter_mut() {
            *v = qm.scalar_inv(v).unwrap_or(Scalar::ZERO);
        }
        return;
    };
    for i in (1..values.len()).rev() {
        let v = values[i];
        values[i] = qm.scalar_mul(&inverse, &prefix[i - 1]);
        inverse = qm.scalar_mul(&inverse, &v);
    }
    values[0] = inverse;
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
    /// exponentiation `g^k mod p` walks the group's fixed-base `g`-table
    /// (the one under [`DsaParams::pow_g`]) — one Montgomery
    /// multiplication per non-zero 8-bit digit of `k` instead of a full
    /// square-and-multiply ladder. A signer that draws its nonces ahead,
    /// in batches, is a
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
    /// `s = k⁻¹·(z + x·r)` finishes on stack [`Scalar`]s in the
    /// `q`-domain, and the only allocations are the returned `r` and `s`.
    pub(crate) fn sign_from(
        &self,
        message: &[u8],
        nonces: &mut VecDeque<Nonce>,
        rng: &mut dyn RngCore,
    ) -> Signature {
        let timer = telemetry::Timer::start();
        let params = &self.public.params;
        let accel = params.accel();
        let qm = &accel.q_mont;
        let z = params.hash_to_z(message);
        let x = Scalar::try_from(&self.x).expect("x < q fits a Scalar");
        let signature = loop {
            let Nonce { k, k_inv } = match nonces.pop_front() {
                Some(nonce) => nonce,
                None => Nonce::draw(qm, rng),
            };
            let r_residue = accel.pow_g_mod_q(&k);
            let r = qm.scalar_mul(&r_residue, &Scalar::ONE);
            // s = k⁻¹·z + k⁻¹·(x·r): x·r comes out plain (x plain, r a
            // residue), and so does each product with the residue k⁻¹.
            let xr = qm.scalar_mul(&x, &r_residue);
            let s = qm.scalar_add(&qm.scalar_mul(&k_inv, &z), &qm.scalar_mul(&k_inv, &xr));
            if !r.is_zero() && !s.is_zero() {
                break Signature {
                    r: r.into(),
                    s: s.into(),
                };
            }
        };
        timer.finish("crypto.sign", "crypto");
        signature
    }
}

/// A signing nonce drawn before its message: the plain `k` and `k⁻¹` as a
/// residue of the group's `q`-domain. Neither depends on the message
/// (FIPS 186 lets a signer compute them ahead).
pub(crate) struct Nonce {
    pub(crate) k: Scalar,
    pub(crate) k_inv: Scalar,
}

impl Nonce {
    /// Draws the next `k` of `rng`'s stream and inverts it alone.
    fn draw(qm: &Montgomery, rng: &mut dyn RngCore) -> Self {
        let k = qm.random_scalar(rng);
        let k_inv = qm
            .scalar_inv(&qm.reduce(k.limbs()))
            .expect("q prime, 0 < k < q");
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
    fn batch_invert_matches_one_inversion_each() {
        // 99991 is prime: one shared inversion. 15015 = 3·5·7·11·13: the
        // product of [2, 3, 4, 16] shares the factor 3, so every value is
        // inverted alone and only 3 has no inverse.
        for (modulus, values) in [
            (99991u64, vec![2u64, 3, 4, 16, 99990]),
            (15015, vec![2, 3, 4, 16]),
        ] {
            let q = Uint::from(modulus);
            let qm = Montgomery::new(&q).unwrap();
            let mut residues: Vec<Scalar> = values.iter().map(|&v| qm.reduce(&[v])).collect();
            let mut prefix = vec![Scalar::ZERO; values.len()];
            batch_invert(&qm, &mut residues, &mut prefix);
            let inverses: Vec<Option<Uint>> = residues
                .iter()
                .map(|w| (!w.is_zero()).then(|| qm.scalar_mul(w, &Scalar::ONE).into()))
                .collect();
            let expect: Vec<Option<Uint>> =
                values.iter().map(|&v| Uint::from(v).inv_mod(&q)).collect();
            assert_eq!(inverses, expect, "modulus {modulus}");
        }
        batch_invert(
            &Montgomery::new(&Uint::from(7u64)).unwrap(),
            &mut [],
            &mut [],
        );
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
        let (near_cap_p, near_cap_q) = mersenne(MAX_P_BITS as u64 - 3);
        assert!(from_wire::<DsaParams>(&params_wire(&near_cap_p, &near_cap_q, &two)).is_ok());
        let (wide_p, wide_q) = mersenne(MAX_P_BITS as u64 + 3);
        // An odd q one bit past the cap, under a p wide enough for it.
        let wide_q_past_cap = &(&one << MAX_Q_BITS) + &one;
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
            ("q wider than 256 bits", &near_cap_p, &wide_q_past_cap, &two),
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
        // The q cap is a shape check: it refuses before Miller–Rabin.
        assert_eq!(
            from_wire::<DsaParams>(&params_wire(&near_cap_p, &wide_q_past_cap, &two)),
            Err(WireError::InvalidValue {
                context: "DSA params: q width"
            })
        );
    }

    /// A group at both caps: a 4 096-bit `p` and a 256-bit `q`, made by
    /// `DsaParams::generate(4096, 256, ..)` from an RNG seeded with
    /// `0x5ef5_7a7e_0004`.
    fn group_at_both_caps() -> (Uint, Uint, Uint) {
        let hex = |parts: &[&str]| Uint::from_hex(&parts.concat()).expect("hex constant");
        let p = hex(&[
            "b3135e2cd2a5e9d99bc1c4d5be06130a1b8388a3a336555ea108c785a04ed6b8",
            "ad51162017ef589b9ec2ff592f3018d6d89f089171ad458f118af91cdf30a663",
            "d5b4b92ca581df3236fa112c1601ac806535fa73fbb486a1d9280e669d12f697",
            "362fb341bab287644de47ea085f654a0d86641a585a9a9f5f5e4bbd862ed792a",
            "f18834fb9134eeea636b2748a53967cc282eda5515034be5d068bf07722a2344",
            "354bcfc0c4d770a2cd22ef772f0ec4f083d0ebede3e1f7b6afae42465e0d17e9",
            "1c151a7e10eeebe543160f3bbfa3866139e8f9e9ae503bbac95e4fbc511b9848",
            "1aab419c0e04f0f31597f78a3e93d0f425ff3ef5b3071b7b7740d5e6c19d1e67",
            "4da2fb08ba3d6a12c84fd895b8b6a8ac180920cdcf13a71e7805bacf42ef3c96",
            "9d838934859eb6e0b3705924348cda9d6c14411223cc3e18820c9294ada1351b",
            "2f3d296f94a12711d8c643eadfd06ebf3a767f2f82ca7e3d7c067ec41f9f0cd1",
            "25c80b735c20ed6cb12d080f66239f6bbbab3d87db7d207564f27785b51c5180",
            "267e5ef5bd5295b6d3f2c0a023f91e395f5fb2c69439443aff6ef028cae350b9",
            "e55f785db9ebb5bc6a1f9f7017eaf3b04e5264a63eb7b1943fdb8989a7b82408",
            "fb850a7fed47d56f087291fb05bb054133335838d8febcbd72fa5f296e89e774",
            "9164f426d5e7dc3667293b365e21353e45bdd7bb48145bdb13804d543d48c419",
        ]);
        let q = hex(&["bea8c15abf2626e7571b5a1eb96405aacfd29f7f81b838f28e1a4fb4f14fc6b5"]);
        let g = hex(&[
            "925af2ea11029cf8a8a1f498206e20a3a8dc763318e45f8156e6674802c6746d",
            "442a286e4a7b624483c0a88c91e212c698ebfea708b027eb52debbd00878102f",
            "b0061db2bc58ffd175db76167a4ef1d57959a468a3f0b37ee0433ed8237ec1e3",
            "666b2bde20a3eb25ea32f8b2a6f3954e893dd3df63ed06eed354fac418699080",
            "9c6642ba8fafdc33d4fbb6168df67cb66ada5fb14a37ee5c6bc433999760fe94",
            "561a4348d1822d71a0cbe4613f2b524a6fef7c7e23d46ca22fd3b198408b97e7",
            "b5c4d8fbd5a4c25367dfa95da9452ec1f4aa08624f6fb380fb77269fc51a9430",
            "4cf96e0dbcec65bd348ff0bac659939406f50ee66e80a3bb7a22a749c2bcd275",
            "14a7fdd798603b23d3051b51f3282a71ceeda16f18d5e2a1402ee2f72266c6e6",
            "878aa3941a52b9e778c0576eda3548ae6dfd588277ffefcb02c7b47095a5fb2a",
            "a0e1b9aee5adecf5aa02b08a7d311961a788afbcefe30069ae40600b8ca64679",
            "7258df2536b0028ea2e4e142595e88ef0a37e52978c83864f4d30b815c0aaf73",
            "46182d78bfac59c1d5c05c24e8164c900a38fdeffc80db3db6101dc04a8696c2",
            "fd41f452da1c8b83297b52a3caac303f9c48a27145b0fb3992c92afc10a93512",
            "058d1b6dfe07c3a6790b620c4907a267a530fd5d3d98e459e8b1b3cbd7ea6310",
            "c705d5012171cad57eb25dc3b3400381fcc10c517a3d9bf59733416ebfdd2b96",
        ]);
        (p, q, g)
    }

    #[test]
    fn decoded_group_at_both_caps_signs_and_verifies() {
        use refstate_wire::from_wire;
        let (p, q, g) = group_at_both_caps();
        assert_eq!((p.bit_len(), q.bit_len()), (MAX_P_BITS, MAX_Q_BITS));
        let group = from_wire::<DsaParams>(&params_wire(&p, &q, &g)).expect("decodes");
        let mut rng = StdRng::seed_from_u64(26);
        let key = DsaKeyPair::generate(&group, &mut rng);
        let sig = key.sign(b"at the caps", &mut rng);
        assert!(key.public().verify_fused(b"at the caps", &sig));
        assert!(key.public().verify(b"at the caps", &sig));
        assert!(!key.public().verify_fused(b"other", &sig));
        // The same group one bit wider in q or p is refused.
        let wider_q = DsaParams::new(p.clone(), &(&q << 1) + &Uint::one(), g.clone(), &mut rng);
        assert_eq!(
            wider_q.unwrap_err(),
            SignatureError::InvalidParams("q wider than 256 bits")
        );
    }

    #[test]
    fn hash_truncation_matches_q_width() {
        let mut rng = StdRng::seed_from_u64(19);
        let params = small_params(&mut rng);
        let z = Uint::from(params.hash_to_z(b"message"));
        assert!(z.bit_len() <= params.q().bit_len());
    }
}
