//! Signed envelopes: a payload, the signer's name, and a DSA signature over
//! the payload's canonical encoding.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use rand::RngCore;
use refstate_wire::{with_scratch, Decode, Encode, Reader, WireError, Writer};

use crate::dsa::{DsaKeyPair, Signature};
use crate::keydir::KeyDirectory;
use crate::signer::Signer;

/// Why envelope verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The claimed signer has no key in the directory.
    UnknownSigner {
        /// The claimed signer name.
        signer: String,
    },
    /// The signature does not match the payload bytes.
    BadSignature {
        /// The claimed signer name.
        signer: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnknownSigner { signer } => {
                write!(f, "no public key registered for signer {signer:?}")
            }
            VerifyError::BadSignature { signer } => {
                write!(f, "signature by {signer:?} does not verify")
            }
        }
    }
}

impl Error for VerifyError {}

/// A payload bound to its signer by a DSA signature over the canonical
/// wire encoding.
///
/// The protocols exchange `Signed<SessionCertificate>`,
/// `Signed<StateDigest>`, and similar values; the generic envelope keeps the
/// sign-then-verify discipline in one place.
///
/// The signer's name is shared, not owned: a host seals with its own id's
/// name, and cloning an envelope or deferring its check copies a pointer.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use refstate_crypto::{DsaKeyPair, DsaParams, KeyDirectory, Signed};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let keys = DsaKeyPair::generate(&DsaParams::test_group_256(), &mut rng);
/// let mut dir = KeyDirectory::new();
/// dir.register("host-1", keys.public().clone());
///
/// let env = Signed::seal("price: 100".to_string(), "host-1", &keys, &mut rng);
/// assert!(env.verify(&dir).is_ok());
/// assert_eq!(env.payload(), "price: 100");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signed<T> {
    payload: T,
    signer: Arc<str>,
    signature: Signature,
}

impl<T: Encode> Signed<T> {
    /// Signs `payload` with `keys`, attributing it to `signer`.
    pub fn seal(
        payload: T,
        signer: impl Into<Arc<str>>,
        keys: &DsaKeyPair,
        rng: &mut dyn RngCore,
    ) -> Self {
        Signed::seal_with(payload, signer, |bytes| keys.sign(bytes, rng)).0
    }

    /// Signs `payload` with `keys`'s next nonce, attributing it to
    /// `signer`. Also returns the length of the payload encoding the
    /// signature covers, so a caller that ships the payload need not
    /// encode it again to size it.
    pub fn seal_by(payload: T, signer: impl Into<Arc<str>>, keys: &mut Signer) -> (Self, usize) {
        Signed::seal_with(payload, signer, |bytes| keys.sign(bytes))
    }

    /// Encodes `payload` once, into the thread's scratch writer, signs
    /// the encoding with `sign`, and wraps the payload (not the encoding:
    /// a verifier encodes the payload it holds) with the encoding's length.
    fn seal_with(
        payload: T,
        signer: impl Into<Arc<str>>,
        sign: impl FnOnce(&[u8]) -> Signature,
    ) -> (Self, usize) {
        let (signature, len) = with_scratch(|w| {
            payload.encode(w);
            (sign(w.as_bytes()), w.len())
        });
        let envelope = Signed {
            payload,
            signer: signer.into(),
            signature,
        };
        (envelope, len)
    }

    /// Verifies the signature against the signer's directory key.
    ///
    /// # Errors
    ///
    /// [`VerifyError::UnknownSigner`] if the signer is not registered,
    /// [`VerifyError::BadSignature`] if the payload or signature was
    /// tampered with.
    pub fn verify(&self, directory: &KeyDirectory) -> Result<(), VerifyError> {
        let key = directory
            .lookup(&self.signer)
            .ok_or_else(|| VerifyError::UnknownSigner {
                signer: self.signer.to_string(),
            })?;
        // The fused double exponentiation: same accept/reject behaviour
        // as the two-modexp `DsaPublicKey::verify` (property-tested) at
        // ~60% of its cost.
        let valid = with_scratch(|w| {
            self.payload.encode(w);
            key.verify_fused(w.as_bytes(), &self.signature)
        });
        if valid {
            Ok(())
        } else {
            Err(VerifyError::BadSignature {
                signer: self.signer.to_string(),
            })
        }
    }

    /// Verifies and unwraps in one step.
    ///
    /// # Errors
    ///
    /// Same as [`Signed::verify`].
    pub fn open(self, directory: &KeyDirectory) -> Result<T, VerifyError> {
        self.verify(directory)?;
        Ok(self.payload)
    }
}

impl<T> Signed<T> {
    /// The (unverified) payload. Callers that care about authenticity must
    /// call [`Signed::verify`] first.
    pub fn payload(&self) -> &T {
        &self.payload
    }

    /// The claimed signer name.
    pub fn signer(&self) -> &str {
        &self.signer
    }

    /// The claimed signer name, shared: cloning it copies a pointer.
    pub fn signer_name(&self) -> &Arc<str> {
        &self.signer
    }

    /// The raw signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Maps the payload while keeping signer and signature — only useful for
    /// *tests and attack simulations* that need to produce tampered
    /// envelopes.
    pub fn tampered_with<U>(self, f: impl FnOnce(T) -> U) -> Signed<U> {
        Signed {
            payload: f(self.payload),
            signer: self.signer,
            signature: self.signature,
        }
    }
}

impl<T: Encode> Encode for Signed<T> {
    fn encode(&self, w: &mut Writer) {
        self.payload.encode(w);
        w.put_str(&self.signer);
        self.signature.encode(w);
    }
}

impl<T: Decode> Decode for Signed<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let payload = T::decode(r)?;
        let signer = Arc::from(r.take_str()?);
        let signature = Signature::decode(r)?;
        Ok(Signed {
            payload,
            signer,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsa::DsaParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (DsaKeyPair, KeyDirectory, StdRng) {
        let mut rng = StdRng::seed_from_u64(77);
        let params = DsaParams::generate(128, 48, &mut rng);
        let keys = DsaKeyPair::generate(&params, &mut rng);
        let mut dir = KeyDirectory::new();
        dir.register("h1", keys.public().clone());
        (keys, dir, rng)
    }

    #[test]
    fn seal_verify_open() {
        let (keys, dir, mut rng) = setup();
        let env = Signed::seal(42u64, "h1", &keys, &mut rng);
        assert_eq!(env.signer(), "h1");
        assert!(env.verify(&dir).is_ok());
        assert_eq!(env.open(&dir).unwrap(), 42);
    }

    #[test]
    fn unknown_signer_rejected() {
        let (keys, _, mut rng) = setup();
        let env = Signed::seal(1u64, "ghost", &keys, &mut rng);
        let empty = KeyDirectory::new();
        assert!(matches!(
            env.verify(&empty),
            Err(VerifyError::UnknownSigner { .. })
        ));
    }

    #[test]
    fn tampered_payload_rejected() {
        let (keys, dir, mut rng) = setup();
        let env = Signed::seal(100u64, "h1", &keys, &mut rng);
        let tampered = env.tampered_with(|v| v + 1);
        assert!(matches!(
            tampered.verify(&dir),
            Err(VerifyError::BadSignature { .. })
        ));
    }

    #[test]
    fn signer_spoofing_rejected() {
        let (keys, mut dir, mut rng) = setup();
        // Mallory has a different key registered under her own name.
        let params = keys.public().params().clone();
        let mallory = DsaKeyPair::generate(&params, &mut rng);
        dir.register("mallory", mallory.public().clone());
        // Mallory signs but claims to be h1.
        let env = Signed::seal(5u64, "h1", &mallory, &mut rng);
        assert!(matches!(
            env.verify(&dir),
            Err(VerifyError::BadSignature { .. })
        ));
    }

    #[test]
    fn wire_round_trip() {
        use refstate_wire::{from_wire, to_wire};
        let (keys, dir, mut rng) = setup();
        let env = Signed::seal("state".to_string(), "h1", &keys, &mut rng);
        let back: Signed<String> = from_wire(&to_wire(&env)).unwrap();
        assert_eq!(back, env);
        assert!(back.verify(&dir).is_ok());
    }

    #[test]
    fn error_display() {
        let e = VerifyError::UnknownSigner { signer: "x".into() };
        assert!(e.to_string().contains("no public key"));
        let e = VerifyError::BadSignature { signer: "x".into() };
        assert!(e.to_string().contains("does not verify"));
    }
}
