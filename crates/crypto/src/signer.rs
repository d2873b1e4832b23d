//! Signing nonces drawn ahead of their messages, in batches.
//!
//! A DSA nonce `(k, k⁻¹)` does not depend on the message, so a signer may
//! draw it early (FIPS 186). Drawing the next nonce of many signers at
//! once lets them share one modular inversion per group — the trick
//! [`crate::verify_batch`] plays on `s⁻¹`, which Naccache, M'Raïhi,
//! Vaudenay and Raphaeli applied to `k⁻¹` ("Can D.S.A. be improved?",
//! EUROCRYPT '94). A [`Signer`] keeps its key pair, the RNG its `k`s come
//! from and the nonces already drawn from that RNG together, so a queued
//! nonce can only ever sign for the key and stream it was drawn for.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use refstate_bigint::Scalar;
use refstate_telemetry as telemetry;

use crate::dsa::{batch_invert, DsaKeyPair, DsaPublicKey, Nonce, Signature};

/// A key pair with its nonce stream: the RNG every signing `k` comes
/// from, and the nonces [`draw_nonces`] took from it ahead of their
/// messages, oldest first.
///
/// [`Signer::sign`] takes the oldest queued nonce before drawing a fresh
/// one, so the `k` sequence is the RNG's, however the draws were batched:
/// a `Signer` signs byte-identically to [`DsaKeyPair::sign`] over the same
/// RNG. `Debug` shows only the public key and the queue length.
pub struct Signer {
    keys: Arc<DsaKeyPair>,
    rng: StdRng,
    nonces: VecDeque<Nonce>,
}

impl fmt::Debug for Signer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signer")
            .field("public", self.keys.public())
            .field("queued", &self.nonces.len())
            .finish_non_exhaustive()
    }
}

impl Signer {
    /// A signer drawing its nonces from `rng`, with none queued.
    pub fn new(keys: Arc<DsaKeyPair>, rng: StdRng) -> Self {
        Signer {
            keys,
            rng,
            nonces: VecDeque::new(),
        }
    }

    /// The public half of the signing key.
    pub fn public(&self) -> &DsaPublicKey {
        self.keys.public()
    }

    /// How many nonces are drawn and waiting for a message.
    pub fn queued(&self) -> usize {
        self.nonces.len()
    }

    /// Signs `message` with the next nonce of the stream: the oldest
    /// queued one, or a fresh draw inverted alone.
    pub fn sign(&mut self, message: &[u8]) -> Signature {
        self.keys
            .sign_from(message, &mut self.nonces, &mut self.rng)
    }
}

/// Draws the next nonce of every signer in `signers`, each from its own
/// RNG, and queues it: one inversion per group for the whole draw
/// (Montgomery's trick over the `k`s in the group's `q`-domain) instead
/// of one per signature.
///
/// Telemetry: the `crypto.nonce_batch` span once per call. The shared
/// inversion it times is in no signature's `crypto.sign`.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
/// use refstate_crypto::{draw_nonces, DsaKeyPair, DsaParams, Signer};
///
/// let keys = Arc::new(DsaKeyPair::generate(&DsaParams::test_group_256(), &mut StdRng::seed_from_u64(1)));
/// let mut batched = Signer::new(Arc::clone(&keys), StdRng::seed_from_u64(2));
/// let mut other = Signer::new(Arc::clone(&keys), StdRng::seed_from_u64(3));
/// draw_nonces([&mut batched, &mut other]);
/// assert_eq!(batched.queued(), 1);
/// // The queued nonce is the one the RNG alone would have drawn.
/// assert_eq!(batched.sign(b"msg"), keys.sign(b"msg", &mut StdRng::seed_from_u64(2)));
/// ```
pub fn draw_nonces<'a>(signers: impl IntoIterator<Item = &'a mut Signer>) {
    let mut signers: Vec<&mut Signer> = signers.into_iter().collect();
    draw_nonces_of(&mut signers, |signer| &mut **signer);
}

thread_local! {
    /// [`draw_nonces_of`]'s scratch, kept between calls: each holder's
    /// index with its fresh `k`, and the shared inversion's scalars.
    static DRAWN: Cell<Vec<(usize, Scalar)>> = const { Cell::new(Vec::new()) };
    static SCALARS: Cell<Vec<Scalar>> = const { Cell::new(Vec::new()) };
}

/// [`draw_nonces`] over the signer that each of `holders` keeps
/// (`signer(holder)`), for a caller that holds its signers inside other
/// values, such as a journey's hosts.
///
/// The draw and the shared inversion work in scratch the thread keeps
/// between calls, so once its first draw has sized it, a draw allocates
/// only where a signer's queue grows.
pub fn draw_nonces_of<T>(holders: &mut [T], signer: impl Fn(&mut T) -> &mut Signer) {
    let timer = telemetry::Timer::start();
    // Every holder's index with its signer's fresh `k`, drawn from the
    // signer's own RNG.
    let mut drawn = DRAWN.take();
    drawn.clear();
    drawn.extend(holders.iter_mut().enumerate().map(|(i, holder)| {
        let signer = signer(holder);
        let qm = signer.keys.public().params().q_domain();
        (i, qm.random_scalar(&mut signer.rng))
    }));
    // Each `k` and its inverse, then the prefix products of the shared
    // inversion: scratch every group reuses.
    let mut scalars = SCALARS.take();
    let mut rest = &mut drawn[..];
    while let Some((&(first, _), _)) = rest.split_first() {
        // Gather the signers that share the first one's `q` at the front.
        let keys = Arc::clone(&signer(&mut holders[first]).keys);
        let q = keys.public().params().q();
        let mut len = 1;
        for i in 1..rest.len() {
            if signer(&mut holders[rest[i].0]).keys.public().params().q() == q {
                rest.swap(len, i);
                len += 1;
            }
        }
        let (group, tail) = std::mem::take(&mut rest).split_at_mut(len);
        let qm = keys.public().params().q_domain();
        scalars.clear();
        scalars.extend(group.iter().map(|(_, k)| qm.reduce(k.limbs())));
        scalars.resize(2 * len, Scalar::ZERO);
        let (k_inv, prefix) = scalars.split_at_mut(len);
        batch_invert(qm, k_inv, prefix);
        for (&(i, k), &k_inv) in group.iter().zip(k_inv.iter()) {
            assert!(!k_inv.is_zero(), "q prime, 0 < k < q");
            signer(&mut holders[i]).nonces.push_back(Nonce { k, k_inv });
        }
        rest = tail;
    }
    DRAWN.set(drawn);
    SCALARS.set(scalars);
    timer.finish("crypto.nonce_batch", "crypto");
}
