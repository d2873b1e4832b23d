//! The reference-state protection framework (Hohl, 2000).
//!
//! This crate is the paper's contribution: a framework that lets an agent
//! programmer pick a point in the design space of *reference-state*
//! protection mechanisms — mechanisms that detect malicious-host attacks by
//! comparing the state an untrusted host produced against the state a
//! *reference* (correctly behaving) host would have produced, given the
//! same session input.
//!
//! The design space has three axes (paper §3.5):
//!
//! * **moment of checking** — [`CheckMoment`]: after every execution
//!   session, or once after the agent's task,
//! * **reference data** — [`ReferenceDataRequest`] /
//!   [`ReferenceData`]: initial state, resulting state, session input,
//!   execution log, replicated resources,
//! * **checking algorithm** — [`CheckingAlgorithm`]: non-Turing-complete
//!   [`rules`](RuleChecker), [re-execution](ReExecutionChecker), proofs
//!   (in `refstate-mechanisms`), or an [arbitrary program](ProgramChecker).
//!
//! Two drivers run protected journeys:
//!
//! * [`framework`] — the generic driver: any [`ProtectionConfig`] runs
//!   against any host path,
//! * [`protocol`] — the paper's §5.1 example mechanism: every untrusted
//!   session is re-executed *by the next host*, with dual-signed initial
//!   states, signed certificates, the trusted-host optimization, and full
//!   fraud evidence.
//!
//! The attack side of the model lives in [`AttackArea`] (the paper's
//! Fig. 2 taxonomy) with the detectability claims encoded and tested.
//!
//! # Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use refstate_core::protocol::{run_protected_journey, ProtocolConfig};
//! use refstate_crypto::DsaParams;
//! use refstate_platform::{Attack, EventLog, Host, HostSpec};
//! use refstate_vm::{assemble, DataState, Value};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let params = DsaParams::test_group_256();
//! let mut hosts = vec![
//!     Host::new(HostSpec::new("home").trusted(), &params, &mut rng),
//!     Host::new(
//!         HostSpec::new("shop")
//!             .with_input("price", Value::Int(100))
//!             .malicious(Attack::TamperVariable { name: "price".into(), value: Value::Int(1) }),
//!         &params,
//!         &mut rng,
//!     ),
//!     Host::new(HostSpec::new("back-home").trusted(), &params, &mut rng),
//! ];
//! let program = assemble(r#"
//!     load "leg"
//!     push 1
//!     add
//!     store "leg"
//!     load "leg"
//!     push 1
//!     eq
//!     jnz go_shop
//!     load "leg"
//!     push 2
//!     eq
//!     jnz at_shop
//!     halt
//! go_shop:
//!     push "shop"
//!     migrate
//! at_shop:
//!     input "price"
//!     store "price"
//!     push "back-home"
//!     migrate
//! "#)?;
//! let mut state = DataState::new();
//! state.set("leg", Value::Int(0));
//! let agent = refstate_platform::AgentImage::new("buyer", program, state);
//! let log = EventLog::new();
//! let outcome = run_protected_journey(
//!     &mut hosts, "home", agent, &ProtocolConfig::default(), &log,
//! )?;
//! // The tampering host is caught by the next host's re-execution check.
//! let fraud = outcome.fraud.expect("tampering must be detected");
//! assert_eq!(fraud.culprit.as_str(), "shop");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod checker;
pub mod compare;
pub mod framework;
pub mod moment;
pub mod pipeline;
pub mod protocol;
pub mod refdata;
pub mod route;
pub mod rules;
pub mod verdict;

pub use attack::AttackArea;
pub use checker::{
    CheckContext, CheckOutcome, CheckingAlgorithm, FailureReason, ProgramChecker,
    ReExecutionChecker, RuleChecker,
};
pub use compare::{ExactCompare, IgnoreVars, StateCompare, UnorderedLists};
pub use framework::{ProtectedAgent, ProtectionConfig};
pub use moment::CheckMoment;
pub use pipeline::{PipelineStatsSnapshot, ReplaySummary, VerificationPipeline};
pub use refdata::{HostFacilities, ReferenceData, ReferenceDataKind, ReferenceDataRequest};
pub use route::{RouteEntry, SignedRoute};
pub use rules::{CmpOp, Expr, Pred, RuleSet};
pub use verdict::{CheckVerdict, FraudEvidence};
