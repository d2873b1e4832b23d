//! # refstate-fleet — the fleet-scale scenario engine
//!
//! The paper's evaluation (and `refstate-mechanisms::matrix`) runs a
//! *single* hand-built journey per mechanism. This crate judges the
//! mechanisms the way the related work demands — across *populations* of
//! hosts and attack mixes:
//!
//! * [`scenario`] — a seeded generator producing randomized host
//!   topologies (route length, trust mix, per-host input feeds) and
//!   attack draws from the `Attack` taxonomy, organized into
//!   [`Preset`]s (`all-honest`, `single-tamperer`, `colluding-pair`,
//!   `input-forgery`, `long-route`, `replicated`, `mixed`) — the
//!   `replicated` family generates staged replica topologies so the
//!   topology-changing `replication` mechanism is fleet-drivable, and
//!   the `cooperating` family adds off-route witness hosts for the
//!   disjoint-set mechanism,
//! * [`campaign`] — adaptive adversary campaigns: stateful attackers
//!   (probe-then-cheat, coordinated collusion, environmental stress)
//!   persisting across the journeys of the `adaptive` preset, graded by
//!   the report's [`AdaptationReport`] (detection latency in journeys,
//!   detection-under-adaptation rate, false-accusation rate),
//! * [`journey`] — the one scenario → journey path (host instantiation,
//!   seeds, churn, telemetry scope) the engine and the resident service
//!   share, ending at a mechanism's split verdict,
//! * [`engine`] — a scoped worker pool driving thousands of protected
//!   journeys concurrently, with per-scenario RNG streams, a
//!   pooled DSA key directory, and results ordered by scenario id; every
//!   mechanism is dispatched through the [`MechanismRegistry`] — no
//!   engine code names a concrete mechanism,
//! * [`report`] — [`FleetReport`]: detection rate, false-accusation
//!   rate, and culprit-attribution accuracy per mechanism × attack
//!   class (deterministic, byte-stable JSON; a mechanism that ran no
//!   journeys reports `n/a`/`null`, never a fake 0.00), plus
//!   [`FleetTiming`]: journeys/sec and latency percentiles
//!   (deliberately kept out of the deterministic surface).
//!
//! The `fleet` binary is the CLI face:
//!
//! ```text
//! cargo run --release -p refstate-fleet --bin fleet -- \
//!     --scenarios 10000 --workers 8 --seed 42 --preset replicated \
//!     --mechanisms protocol,traces,replication
//! ```
//!
//! # Determinism contract
//!
//! For a fixed `(seed, preset, mechanisms)` the engine produces the same
//! [`FleetReport`] — byte-identical [`FleetReport::to_json`] output —
//! regardless of worker count, scheduling, or machine. Everything
//! wall-clock-dependent lives in [`FleetTiming`].
//!
//! # Example
//!
//! ```
//! use refstate_fleet::{run_fleet, FleetConfig, MechanismRegistry, Preset};
//!
//! let registry = MechanismRegistry::builtin();
//! let config = FleetConfig {
//!     scenarios: 50,
//!     workers: 2,
//!     seed: 7,
//!     preset: Preset::SingleTamperer,
//!     mechanisms: vec![registry.get("protocol").expect("built in")],
//!     ..FleetConfig::default()
//! };
//! let run = run_fleet(&config);
//! let protocol = &run.report.mechanisms[0];
//! assert_eq!(protocol.total.journeys, 50);
//! assert_eq!(protocol.total.detected, 50, "every single-tamperer caught");
//! assert_eq!(protocol.total.false_accusations, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod engine;
pub mod journey;
pub mod report;
pub mod scenario;

pub use campaign::{generate_adaptive, CampaignMeta, JOURNEYS_PER_CAMPAIGN};
pub use engine::{run_fleet, FleetConfig, FleetRun, MechanismRun, ScenarioResult};
pub use refstate_mechanisms::api::{
    JourneyCtx, JourneyVerdict, MechanismConfig, MechanismProfile, MechanismRegistry,
    ProtectionMechanism, RouteTopology, UnknownMechanism,
};
/// The workspace's JSON writer, at home in [`refstate_telemetry::json`].
pub use refstate_telemetry::json;
pub use report::{
    AdaptationCell, AdaptationReport, CellStats, FleetReport, FleetTiming, LatencyPercentiles,
    MechanismAdaptation, MechanismReport, StageBreakdown, StageStats,
};
pub use scenario::{generate, GeneratedScenario, Preset};
