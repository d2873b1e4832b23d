//! Protection mechanisms behind one pluggable API.
//!
//! The paper's §3 surveys the existing mechanisms and argues they are all
//! instances of one abstraction: a **check moment** × **reference data**
//! × **checking algorithm** (plus, for replication, a route topology).
//! This crate implements the mechanisms *and* the abstraction:
//!
//! * [`api`] — the [`ProtectionMechanism`] trait, the
//!   [`MechanismProfile`] each implementation declares, the
//!   [`JourneyCtx`] it runs over (hosts, route, PKI, RNG stream, and a
//!   deferred-signature [`VerificationQueue`](refstate_crypto::VerificationQueue)),
//!   and the [`MechanismRegistry`] every driver dispatches through;
//! * [`fleet`] — the six implementations surveyed by the paper;
//! * [`chained`] — the chained-integrity family from the related work
//!   (Karjoth-style chained MACs, signed partial result encapsulation),
//!   which protects the *recorded* partial results against truncation,
//!   reordering, and substitution without any re-execution;
//! * [`cooperating`] — Roth's cooperating agents: a witness agent on a
//!   disjoint host set re-checks every interim reference state, immune to
//!   route collusion but blind to a recruited witness.
//!
//! | Registry name | Mechanism | Moment | Reference data | Topology | Signatures |
//! |---------------|-----------|--------|----------------|----------|------------|
//! | `unprotected` | — (baseline) | never | none | linear | no |
//! | `appraisal` | State appraisal (Farmer/Guttman/Swarup) | after session (on arrival) | initial + resulting state | linear | no |
//! | `framework` | The generic framework, re-execution checking | after session | initial + resulting state + input | linear | no |
//! | `protocol` | §5.1 session checking | after session | initial + resulting state + input | linear | yes (deferred to the owner batch) |
//! | `traces` | Execution traces (Vigna) | after task, on suspicion | initial state + trace + input | linear | yes |
//! | `replication` | Server replication (Minsky et al.) | after session (parallel) | resulting state + replicated resources | replicated stages | no |
//! | `chained` | Chained MACs (Karjoth et al.) | after task | resulting state (recorded chain) | linear | no (HMAC) |
//! | `encapsulated` | Signed result encapsulation (Rodríguez–Sobrado) | after session (on arrival) + owner batch | resulting state (recorded chain) | linear | yes (deferred to the owner batch) |
//! | `cooperating` | Cooperating agents (Roth) | after session (on the witness set) | initial + resulting state + input | disjoint sets | no |
//!
//! The per-mechanism modules ([`appraisal`], [`replication`], [`traces`],
//! [`proofs`]) keep the full-fidelity drivers and their evidence types;
//! the [`matrix`] runs every registered mechanism against the standard
//! attack scenarios.
//!
//! The proof mechanism deserves a caveat: real holographic/PCP proofs are
//! NP-hard to *construct* (the paper dismisses the approach as impractical
//! for this reason). The [`proofs`] module substitutes a Merkle-committed
//! step transcript with Fiat–Shamir random spot checks, which preserves the
//! *interface* (sublinear verification of an execution leading to the final
//! state, no reference data needed) and the cost shape (O(k·log n)
//! verification vs O(n) re-execution), though not PCP soundness against
//! fully adaptive provers. The [`proofs`] module docs record the
//! substitution and its soundness bound.
//!
//! # Adding a mechanism
//!
//! Implement [`ProtectionMechanism`] (name, profile, `run_split` over a
//! [`JourneyCtx`]) and register it:
//!
//! ```
//! use std::sync::Arc;
//! use refstate_core::ReferenceDataRequest;
//! use refstate_mechanisms::api::{
//!     JourneyCtx, JourneyVerdict, MechanismProfile, MechanismRegistry,
//!     ProtectionMechanism, RouteTopology, SplitVerdict,
//! };
//!
//! struct AlwaysClean;
//!
//! impl ProtectionMechanism for AlwaysClean {
//!     fn name(&self) -> &'static str { "always-clean" }
//!     fn description(&self) -> &'static str { "demo mechanism" }
//!     fn profile(&self) -> MechanismProfile {
//!         MechanismProfile {
//!             moment: None,
//!             reference_data: ReferenceDataRequest::new(),
//!             topology: RouteTopology::Linear,
//!             uses_signatures: false,
//!         }
//!     }
//!     fn run_split(&self, _ctx: &mut JourneyCtx<'_>) -> SplitVerdict {
//!         JourneyVerdict::clean(true).into()
//!     }
//! }
//!
//! let mut registry = MechanismRegistry::builtin();
//! registry.register(Arc::new(AlwaysClean));
//! assert!(registry.get("always-clean").is_some());
//! // The fleet engine, matrix, and CLI now drive it like any built-in.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod appraisal;
pub mod chained;
pub mod cooperating;
pub mod fleet;
pub mod matrix;
pub mod merkle;
pub mod proofs;
pub mod replication;
pub mod traces;

pub use api::{
    JourneyCtx, JourneyVerdict, MechanismConfig, MechanismProfile, MechanismRegistry,
    ProtectionMechanism, RouteTopology, UnknownMechanism,
};
pub use appraisal::{run_appraised_journey, AppraisalOutcome};
pub use chained::{
    run_encapsulated_journey, run_mac_chained_journey, verify_mac_chain, ChainFraud, ChainLink,
    ChainSecret, ChainVerdict, ChainedMac, EncapsulatedResults, Encapsulation,
};
pub use cooperating::{witness_set, CooperatingAgents};
pub use matrix::{detection_matrix, DetectionCell, ScenarioSpec};
pub use merkle::{MerklePath, MerkleTree};
pub use proofs::{ExecutionProof, ProofError, Prover, StepOpening, Verifier};
pub use replication::{run_replicated_pipeline, ReplicationOutcome, StageSpec, StageVote};
pub use traces::{audit_journey, run_traced_journey, AuditReport, TraceCommitment, TracedJourney};
