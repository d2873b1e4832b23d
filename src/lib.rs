//! # refstate — protecting mobile agents with reference states
//!
//! A complete Rust reproduction of Fritz Hohl, *"A Framework to Protect
//! Mobile Agents by Using Reference States"* (University of Stuttgart TR
//! 2000/03 / ICDCS 2000): the checking framework itself, the four surveyed
//! baseline mechanisms, the agent platform and VM they run on, and the
//! from-scratch cryptography underneath — plus the benchmark harness that
//! regenerates the paper's evaluation tables.
//!
//! This facade crate re-exports the workspace so applications can depend on
//! one name:
//!
//! * [`vm`] — the deterministic agent VM (bytecode, assembler, tracing,
//!   replay),
//! * [`platform`] — hosts, behaviours/attacks, input feeds, event log,
//!   sim and threaded transports,
//! * [`core`] — the reference-state framework: attack taxonomy, check
//!   moments, reference data, checking algorithms, the §5.1 protocol,
//! * [`mechanisms`] — state appraisal, server replication, execution
//!   traces, and (simulated) proof verification,
//! * [`fleet`] — the fleet-scale scenario engine: seeded generation of
//!   thousands of host topologies and attack mixes, a multi-threaded
//!   journey scheduler, and detection/throughput reporting,
//! * [`crypto`] — SHA-256/HMAC/DSA and signed envelopes,
//! * [`wire`] — the canonical binary encoding everything is hashed and
//!   signed through,
//! * [`bigint`] — the arbitrary-precision arithmetic under DSA.
//!
//! # Quickstart
//!
//! Protect an agent with the paper's example mechanism and catch a
//! tampering host red-handed:
//!
//! ```
//! use rand::SeedableRng;
//! use refstate::core::protocol::{run_protected_journey, ProtocolConfig};
//! use refstate::crypto::DsaParams;
//! use refstate::platform::{AgentImage, Attack, EventLog, Host, HostSpec};
//! use refstate::vm::{assemble, DataState, Value};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let params = DsaParams::test_group_256();
//! let mut hosts = vec![
//!     Host::new(HostSpec::new("home").trusted().with_input("offer", Value::Int(400)), &params, &mut rng),
//!     Host::new(
//!         HostSpec::new("shop")
//!             .with_input("offer", Value::Int(120))
//!             .malicious(Attack::TamperVariable { name: "best".into(), value: Value::Int(999) }),
//!         &params,
//!         &mut rng,
//!     ),
//!     Host::new(HostSpec::new("notary").trusted().with_input("offer", Value::Int(250)), &params, &mut rng),
//! ];
//!
//! // Collect an offer on each host, keeping the minimum in `best`.
//! let program = assemble(r#"
//!     input "offer"
//!     dup
//!     load "best"
//!     lt
//!     jz keep_old
//!     store "best"
//!     jump route
//! keep_old:
//!     pop
//! route:
//!     load "hop"
//!     push 1
//!     add
//!     store "hop"
//!     load "hop"
//!     push 1
//!     eq
//!     jnz to_shop
//!     load "hop"
//!     push 2
//!     eq
//!     jnz to_notary
//!     halt
//! to_shop:
//!     push "shop"
//!     migrate
//! to_notary:
//!     push "notary"
//!     migrate
//! "#)?;
//! let mut state = DataState::new();
//! state.set("best", Value::Int(9_999));
//! state.set("hop", Value::Int(0));
//!
//! let log = EventLog::new();
//! let outcome = run_protected_journey(
//!     &mut hosts,
//!     "home",
//!     AgentImage::new("bargain-hunter", program, state),
//!     &ProtocolConfig::default(),
//!     &log,
//! )?;
//!
//! let fraud = outcome.fraud.expect("the shop's tampering is detected");
//! assert_eq!(fraud.culprit.as_str(), "shop");
//! assert_eq!(fraud.claimed_state.get_int("best"), Some(999));
//! assert_eq!(fraud.reference_state.unwrap().get_int("best"), Some(120));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use refstate_bigint as bigint;
pub use refstate_core as core;
pub use refstate_crypto as crypto;
pub use refstate_fleet as fleet;
pub use refstate_mechanisms as mechanisms;
pub use refstate_platform as platform;
pub use refstate_telemetry as telemetry;
pub use refstate_vm as vm;
pub use refstate_wire as wire;
