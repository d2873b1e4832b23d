//! Deferred signature verification: queue checks during a journey, settle
//! them in one batch at the end.
//!
//! The paper's §5.1 protocol verifies every session certificate *on
//! arrival* — one DSA verification (two modexps) per hop, which dominates
//! the protected-journey p50. A [`VerificationQueue`] trades timeliness
//! for throughput: hops defer their signature checks and the journey
//! settles the whole queue in one [`flush`](VerificationQueue::flush)
//! through [`crate::verify_batch`]. A flush pays one modular inversion per
//! DSA group, shared by all its checks, and each check then costs two
//! fixed-base table walks plus one Montgomery multiplication — the
//! repeated signers in a journey's queue hit the same cached `y`-tables
//! back to back. Verdicts stay per check and exact.
//! Re-execution checks still run per hop — only the *authenticity* checks
//! move to the end, so a forged certificate is caught at journey end
//! instead of at the next hop (the deferred variant's documented
//! trade-off).

use std::sync::Arc;

use refstate_telemetry as telemetry;
use refstate_wire::{to_wire, Encode};

use crate::dsa::{verify_batch, BatchEntry, Signature};
use crate::envelope::Signed;
use crate::keydir::KeyDirectory;

/// One deferred signature check: who claimed to sign which bytes.
#[derive(Debug, Clone)]
pub struct DeferredSignature {
    /// The claimed signer (looked up in the [`KeyDirectory`] at flush),
    /// shared with the envelope it came from.
    pub signer: Arc<str>,
    /// The canonical bytes the signature covers.
    pub message: Vec<u8>,
    /// The signature to verify.
    pub signature: Signature,
}

/// An accumulating queue of signature checks, settled in bulk.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use refstate_crypto::{DsaKeyPair, DsaParams, KeyDirectory, Signed, VerificationQueue};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let keys = DsaKeyPair::generate(&DsaParams::test_group_256(), &mut rng);
/// let mut dir = KeyDirectory::new();
/// dir.register("h1", keys.public().clone());
///
/// let mut queue = VerificationQueue::new();
/// queue.defer_signed(&Signed::seal(7u64, "h1", &keys, &mut rng));
/// queue.defer_signed(&Signed::seal(8u64, "h1", &keys, &mut rng));
/// let verdicts = queue.flush(&dir);
/// assert!(verdicts.iter().all(|(_, ok)| *ok));
/// assert!(queue.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct VerificationQueue {
    deferred: Vec<DeferredSignature>,
}

impl VerificationQueue {
    /// An empty queue.
    pub fn new() -> Self {
        VerificationQueue::default()
    }

    /// Defers one raw signature check.
    pub fn defer(&mut self, signer: impl Into<Arc<str>>, message: Vec<u8>, signature: Signature) {
        self.deferred.push(DeferredSignature {
            signer: signer.into(),
            message,
            signature,
        });
    }

    /// Defers the check of a [`Signed`] envelope (signer, canonical payload
    /// bytes, and signature are lifted out of the envelope).
    pub fn defer_signed<T: Encode>(&mut self, signed: &Signed<T>) {
        self.defer(
            Arc::clone(signed.signer_name()),
            to_wire(signed.payload()),
            signed.signature().clone(),
        );
    }

    /// Moves every deferred check out of `other` onto the end of this
    /// queue, preserving deferral order. Lets a service merge per-journey
    /// queues into one per-tick queue and settle them in a single
    /// [`flush`](Self::flush) batch.
    pub fn append(&mut self, other: &mut VerificationQueue) {
        self.deferred.append(&mut other.deferred);
    }

    /// Number of deferred checks.
    pub fn len(&self) -> usize {
        self.deferred.len()
    }

    /// Returns `true` when nothing is deferred.
    pub fn is_empty(&self) -> bool {
        self.deferred.is_empty()
    }

    /// Settles every deferred check against `directory` in one batch,
    /// draining the queue.
    ///
    /// Returns the drained items paired with their verdicts, in deferral
    /// order. A signer missing from the directory fails its check, exactly
    /// as [`Signed::verify`] would report [`crate::VerifyError::UnknownSigner`].
    pub fn flush(&mut self, directory: &KeyDirectory) -> Vec<(DeferredSignature, bool)> {
        let _span = telemetry::span("crypto.flush", "crypto");
        telemetry::observe("crypto.flush_size", self.deferred.len() as u64);
        let items = std::mem::take(&mut self.deferred);
        // Unknown signers cannot enter the batch; pre-mark them failed.
        let keys: Vec<Option<&crate::DsaPublicKey>> = items
            .iter()
            .map(|item| directory.lookup(&item.signer))
            .collect();
        let entries: Vec<BatchEntry<'_>> = items
            .iter()
            .zip(&keys)
            .filter_map(|(item, key)| {
                key.map(|key| BatchEntry {
                    key,
                    message: &item.message,
                    signature: &item.signature,
                })
            })
            .collect();
        let mut batch_verdicts = verify_batch(&entries).into_iter();
        items
            .into_iter()
            .zip(keys)
            .map(|(item, key)| {
                let ok = match key {
                    Some(_) => batch_verdicts.next().expect("one verdict per batch entry"),
                    None => false,
                };
                (item, ok)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsa::{DsaKeyPair, DsaParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (DsaKeyPair, KeyDirectory, StdRng) {
        let mut rng = StdRng::seed_from_u64(55);
        let params = DsaParams::generate(128, 48, &mut rng);
        let keys = DsaKeyPair::generate(&params, &mut rng);
        let mut dir = KeyDirectory::new();
        dir.register("h1", keys.public().clone());
        (keys, dir, rng)
    }

    #[test]
    fn flush_matches_eager_verification() {
        let (keys, dir, mut rng) = setup();
        let good = Signed::seal(1u64, "h1", &keys, &mut rng);
        let tampered = Signed::seal(2u64, "h1", &keys, &mut rng).tampered_with(|v| v + 1);
        let ghost = Signed::seal(3u64, "ghost", &keys, &mut rng);

        let mut queue = VerificationQueue::new();
        queue.defer_signed(&good);
        queue.defer_signed(&tampered);
        queue.defer_signed(&ghost);
        assert_eq!(queue.len(), 3);

        let verdicts = queue.flush(&dir);
        assert!(queue.is_empty());
        let expected = [
            good.verify(&dir).is_ok(),
            tampered.verify(&dir).is_ok(),
            ghost.verify(&dir).is_ok(),
        ];
        assert_eq!(
            verdicts.iter().map(|(_, ok)| *ok).collect::<Vec<_>>(),
            expected
        );
        assert_eq!(&*verdicts[1].0.signer, "h1");
        assert_eq!(&*verdicts[2].0.signer, "ghost");
    }

    #[test]
    fn flush_of_empty_queue_is_empty() {
        let (_, dir, _) = setup();
        let mut queue = VerificationQueue::new();
        assert!(queue.flush(&dir).is_empty());
    }
}
