//! Cryptographic primitives for reference-state protection.
//!
//! Hohl's reference-state protocols authenticate agent states, inputs, and
//! traces with digital signatures and secure hashes; the paper's
//! measurements used DSA with 512-bit keys from a pure-Java provider
//! (IAIK-JCE). No cryptography crate exists in the sanctioned offline
//! dependency set, so this crate implements the required primitives from
//! scratch on top of [`refstate_bigint`]:
//!
//! * [`Sha256`] — the FIPS 180-4 hash function,
//! * [`HmacSha256`] — HMAC (FIPS 198-1) over SHA-256,
//! * [`DsaParams`] / [`DsaKeyPair`] / [`Signature`] — FIPS 186-style DSA
//!   with the paper's 512-bit group plus 256-bit (fast tests) and 1024-bit
//!   groups, all precomputed by `src/bin/genparams.rs`,
//! * [`Signer`] / [`draw_nonces`] — a key pair with its nonce stream,
//!   whose nonces a journey draws in batches that share one inversion,
//! * [`Signed`] — a signed envelope over any wire-encodable payload,
//! * [`KeyDirectory`] — the public-key registry hosts use to verify each
//!   other's statements,
//! * [`VerificationQueue`] / [`verify_batch`] — deferred signature checks
//!   settled in one batch of fused double exponentiations (the protocol's
//!   journey-end verification path).
//!
//! # Security note
//!
//! This is a research reproduction: the primitives are correct and pass the
//! published test vectors, but they are not constant-time and have not been
//! audited. Do not reuse outside this workspace.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use refstate_crypto::{DsaKeyPair, DsaParams};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let params = DsaParams::test_group_256();
//! let keys = DsaKeyPair::generate(&params, &mut rng);
//! let sig = keys.sign(b"agent state", &mut rng);
//! assert!(keys.public().verify(b"agent state", &sig));
//! assert!(!keys.public().verify(b"tampered state", &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod digest;
mod dsa;
mod envelope;
mod groups;
mod hmac;
mod keydir;
mod sha256;
mod signer;

pub use batch::{DeferredSignature, VerificationQueue};
pub use digest::Digest;
pub use dsa::{
    verify_batch, BatchEntry, DsaKeyPair, DsaParams, DsaPublicKey, Signature, SignatureError,
};
pub use envelope::{Signed, VerifyError};
pub use hmac::HmacSha256;
pub use keydir::KeyDirectory;
pub use sha256::{sha256, sha256_of, Sha256};
pub use signer::{draw_nonces, draw_nonces_of, Signer};
