//! The first-class mechanism API: one pluggable trait, one registry, one
//! journey context.
//!
//! The paper's thesis is that state appraisal, replication, traces,
//! proofs, and the reference-state framework are *instances of one
//! abstraction* — a check moment × reference data × checking algorithm.
//! This module makes that abstraction a Rust API:
//!
//! * [`ProtectionMechanism`] — the trait every mechanism implements: a
//!   registry [`name`](ProtectionMechanism::name), a
//!   [`MechanismProfile`] declaring what the mechanism needs (check
//!   moment, reference data, route topology, signatures), and one
//!   [`run_split`](ProtectionMechanism::run_split) entry point over a
//!   [`JourneyCtx`] whose owner-side remainder, if any, settles through
//!   [`settle`] — alone or amortized across a batch,
//! * [`MechanismRegistry`] — the single dispatch table the fleet engine,
//!   detection matrix, CLI, and benches all resolve mechanisms through
//!   (by name; new mechanisms plug in without touching any engine),
//! * [`JourneyCtx`] — everything one journey owns: the hosts, the
//!   planned route (and replica [`StageSpec`]s when the topology is
//!   replicated), the PKI [`KeyDirectory`], a deterministic RNG stream,
//!   and a [`VerificationQueue`] so signature checks can defer into one
//!   batch at journey end,
//! * [`JourneyVerdict`] — the uniform result every mechanism reports, so
//!   aggregate detection/attribution rates are comparable across
//!   mechanisms.
//!
//! The six paper mechanisms live in [`crate::fleet`] and the
//! chained-integrity family in [`crate::chained`];
//! [`MechanismRegistry::builtin`] registers them all.

use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_core::protocol::{
    settle_deferred, DeferredJourney, ProtocolConfig, ProtocolOutcome, SettleStats,
};
use refstate_core::rules::{CmpOp, Expr, Pred, RuleSet};
use refstate_core::{CheckMoment, ReferenceDataRequest, VerificationPipeline};
use refstate_crypto::{KeyDirectory, VerificationQueue};
use refstate_platform::{AgentImage, EventLog, Host, HostId};
use refstate_telemetry as telemetry;
use refstate_vm::ExecConfig;

use crate::replication::StageSpec;

/// The route shape a mechanism can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteTopology {
    /// One agent walks one linear route, a session per host.
    Linear,
    /// Every stage executes on a set of replica hosts in parallel
    /// (§3.2's server replication); requires the scenario to provide
    /// [`StageSpec`]s.
    ReplicatedStages,
    /// One worker agent walks the linear route while a cooperating
    /// witness agent runs over the *disjoint* set of off-route hosts,
    /// cross-checking each interim reference state (Roth's cooperating
    /// agents); requires the scenario to provide at least one host that
    /// is not on the primary route.
    DisjointSets,
}

impl fmt::Display for RouteTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteTopology::Linear => f.write_str("linear route"),
            RouteTopology::ReplicatedStages => f.write_str("replicated stages"),
            RouteTopology::DisjointSets => f.write_str("disjoint cooperating sets"),
        }
    }
}

/// What a mechanism declares about itself: the paper's taxonomy axes plus
/// the execution-shape facts an engine needs for dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MechanismProfile {
    /// When checks run (`None` for the unprotected baseline, which never
    /// checks).
    pub moment: Option<CheckMoment>,
    /// The reference data the mechanism consumes (§3.5's requester
    /// interfaces).
    pub reference_data: ReferenceDataRequest,
    /// The route shape the mechanism needs.
    pub topology: RouteTopology,
    /// Whether the mechanism signs/verifies statements (and therefore
    /// needs the PKI directory and can profit from the deferred
    /// [`VerificationQueue`]).
    pub uses_signatures: bool,
}

impl MechanismProfile {
    /// Whether this mechanism can run a scenario shape: topology-changing
    /// mechanisms need replica stages, disjoint-set mechanisms need at
    /// least one off-route host for the witness set, and linear
    /// mechanisms always have a (primary) route to walk.
    pub fn compatible_with(&self, scenario_has_stages: bool, scenario_has_spares: bool) -> bool {
        match self.topology {
            RouteTopology::Linear => true,
            RouteTopology::ReplicatedStages => scenario_has_stages,
            RouteTopology::DisjointSets => scenario_has_spares,
        }
    }
}

/// Shared per-journey configuration every mechanism runs under, so
/// aggregate rates compare like with like.
#[derive(Debug, Clone)]
pub struct MechanismConfig {
    /// Execution limits for sessions and checks, applied uniformly.
    pub exec: ExecConfig,
    /// Rule set for state appraisal. The default expresses what a
    /// programmer of the route agent plausibly writes (`total` defined
    /// and non-negative) — rule-preserving attacks pass it, matching the
    /// §4.1 "lower end of the scale".
    pub rules: RuleSet,
    /// Hop budget: the most sessions a linear journey runs before it
    /// counts as a runaway itinerary (an infrastructure error).
    pub max_hops: usize,
}

impl Default for MechanismConfig {
    fn default() -> Self {
        MechanismConfig {
            exec: ExecConfig::default(),
            rules: RuleSet::new()
                .rule("total-defined", Pred::Defined("total".into()))
                .rule(
                    "total-non-negative",
                    Pred::cmp(CmpOp::Ge, Expr::var("total"), Expr::int(0)),
                ),
            max_hops: 64,
        }
    }
}

/// Everything one journey owns while a mechanism drives it.
///
/// An engine builds one context per (scenario, mechanism) pair — hosts
/// are consumed by execution — and hands it to
/// [`ProtectionMechanism::run_split`]. The context carries:
///
/// * the instantiated `hosts` and the planned linear `route` (the primary
///   path; `route[0]` is the trusted home),
/// * optional replica `stages` when the scenario's topology is
///   replicated,
/// * the PKI `directory` covering every host,
/// * a deterministic per-journey RNG stream (`rng`) so any mechanism
///   randomness is independent of scheduling,
/// * a [`VerificationQueue`] for deferring signature checks into one
///   journey-end batch.
pub struct JourneyCtx<'a> {
    /// The instantiated hosts (replicas included, for staged scenarios).
    pub hosts: &'a mut [Host],
    /// The planned linear route; `route[0]` is the start host.
    pub route: Vec<HostId>,
    /// Replica stages, when the scenario provides a replicated topology.
    pub stages: Option<Vec<StageSpec>>,
    /// The agent to protect (mechanisms clone it; drivers consume the
    /// image).
    pub agent: AgentImage,
    /// The PKI covering every host in `hosts`.
    pub directory: &'a KeyDirectory,
    /// Shared mechanism configuration.
    pub config: &'a MechanismConfig,
    /// The event log to record into.
    pub log: &'a EventLog,
    /// This journey's own RNG stream.
    pub rng: StdRng,
    /// Deferred signature checks, settled in one batch at journey end.
    pub queue: VerificationQueue,
    /// The verification pipeline every re-execution of this journey
    /// funnels through.
    pub pipeline: Arc<VerificationPipeline>,
}

impl<'a> JourneyCtx<'a> {
    /// Builds a linear-route context. `seed` fixes the context's RNG
    /// stream; derive it from the scenario so results are
    /// scheduling-independent. `pipeline` is the verification pipeline
    /// the journey's re-executions run through (fleet engines pass one
    /// handle to every journey so one set of replay counters spans the
    /// whole run).
    ///
    /// # Panics
    ///
    /// Panics if `route` is empty.
    // The driver's environment (PKI, configuration, log, pipeline) plus
    // the journey's own hosts, route, agent and seed.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        hosts: &'a mut [Host],
        route: Vec<HostId>,
        agent: AgentImage,
        directory: &'a KeyDirectory,
        config: &'a MechanismConfig,
        log: &'a EventLog,
        seed: u64,
        pipeline: Arc<VerificationPipeline>,
    ) -> Self {
        assert!(!route.is_empty(), "a journey needs a route");
        JourneyCtx {
            hosts,
            route,
            stages: None,
            agent,
            directory,
            config,
            log,
            rng: StdRng::seed_from_u64(seed),
            queue: VerificationQueue::new(),
            pipeline,
        }
    }

    /// Attaches replica stages (replicated-topology scenarios).
    pub fn with_stages(mut self, stages: Vec<StageSpec>) -> Self {
        self.stages = Some(stages);
        self
    }

    /// The start host (`route[0]`).
    pub fn start(&self) -> &HostId {
        &self.route[0]
    }

    /// Opens a telemetry span for one stage of the mechanism's journey
    /// (e.g. the forward run vs. the audit). The span records a duration
    /// histogram under the active telemetry scope (the mechanism's name,
    /// when the driver set it) and a trace event at the `Full` level; it
    /// costs one atomic load when telemetry is off.
    pub fn stage(&self, name: &'static str) -> telemetry::Span {
        telemetry::span(name, "stage")
    }
}

impl fmt::Debug for JourneyCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JourneyCtx")
            .field("route", &self.route)
            .field("stages", &self.stages.as_ref().map(Vec::len))
            .field("agent", &self.agent.id)
            .field("deferred", &self.queue.len())
            .finish_non_exhaustive()
    }
}

/// The uniform result of one mechanism over one journey.
///
/// Verdict semantics are identical across mechanisms so aggregate rates
/// are comparable:
///
/// * `detected` — the mechanism flagged the run,
/// * `accused` — the hosts the mechanism blamed (empty when undetected,
///   or when the mechanism detects without attribution — see
///   [`JourneyVerdict::detected_unattributed`]; fleet reports score these
///   against the scenario's actual attacker to measure
///   culprit-attribution accuracy and false accusations),
/// * `completed` — the journey ran to its halt instruction (mechanisms
///   that check per session abort at the detection point; traces detect
///   only after completion),
/// * `infra_error` — the journey died of an infrastructure failure (e.g.
///   input exhaustion after a control-flow attack); counted separately so
///   detection rates are not silently inflated or deflated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JourneyVerdict {
    /// The mechanism flagged the run.
    pub detected: bool,
    /// The hosts the mechanism blamed (empty when nothing was detected).
    pub accused: Vec<HostId>,
    /// The journey ran to its halt instruction.
    pub completed: bool,
    /// The journey died of an infrastructure failure.
    pub infra_error: bool,
}

impl JourneyVerdict {
    /// An undetected run; `completed = false` counts as an
    /// infrastructure failure.
    pub fn clean(completed: bool) -> Self {
        JourneyVerdict {
            detected: false,
            accused: Vec::new(),
            completed,
            infra_error: !completed,
        }
    }

    /// A detection blaming `accused`.
    pub fn accusing(accused: Vec<HostId>, completed: bool) -> Self {
        JourneyVerdict {
            detected: true,
            accused,
            completed,
            infra_error: false,
        }
    }

    /// A detection that cannot be pinned on a host: the mechanism can
    /// prove manipulation happened without identifying the manipulator
    /// (chained MACs — any host downstream of the broken entry could
    /// have done it). Scores as a detection with zero attribution and no
    /// false accusation.
    pub fn detected_unattributed(completed: bool) -> Self {
        JourneyVerdict {
            detected: true,
            accused: Vec::new(),
            completed,
            infra_error: false,
        }
    }
}

/// The result of [`ProtectionMechanism::run_split`]: either the journey's
/// verdict is already final, or the owner-side part is still outstanding
/// and a service will settle it amortized across a batch.
#[derive(Debug)]
pub enum SplitVerdict {
    /// The verdict is final — nothing owner-side remains.
    Settled(JourneyVerdict),
    /// The host-side journey ran; the owner-side settlement (final
    /// re-execution check, deferred signature flush) is pending. Collect
    /// these and resolve them with [`settle`].
    Pending(Box<PendingOwnerJourney>),
}

impl From<JourneyVerdict> for SplitVerdict {
    fn from(verdict: JourneyVerdict) -> Self {
        SplitVerdict::Settled(verdict)
    }
}

/// A journey whose owner-side settlement is outstanding, lifted out of
/// its (by now dropped) [`JourneyCtx`].
#[derive(Debug)]
pub struct PendingOwnerJourney {
    /// The core deferred journey: outcome so far + pending final check.
    pub journey: DeferredJourney,
    /// The signature checks the journey deferred (the context's queue,
    /// taken when the split verdict was produced).
    pub queue: VerificationQueue,
}

/// Maps a settled [`ProtocolOutcome`] to the uniform verdict, exactly as
/// the session-checking protocol mechanism reports it: a fraud detected by
/// the owner's post-halt settlement means the journey itself completed.
pub fn protocol_verdict(outcome: &ProtocolOutcome) -> JourneyVerdict {
    match &outcome.fraud {
        Some(fraud) => {
            let completed = fraud.detector.as_str() == "owner";
            JourneyVerdict::accusing(vec![fraud.culprit.clone()], completed)
        }
        None => JourneyVerdict::clean(true),
    }
}

/// Settles a batch of [`SplitVerdict`]s into their final
/// [`JourneyVerdict`]s, in input order, plus the settle counters — the one
/// owner-side settle path.
///
/// Settled splits pass through in place. Pending ones merge their deferred
/// signatures into one queue and settle together in one
/// [`settle_deferred`] pass: every pending final re-execution check in
/// input order, then one batch flush over every deferred signature. The
/// `mechanism.settle_batch` span opens only when something is pending.
///
/// All journeys in the batch must share `directory` (one owner's PKI view)
/// and `pipeline`. Verdicts are identical to settling each journey alone —
/// amortization changes cost, never outcomes.
pub fn settle(
    splits: Vec<SplitVerdict>,
    config: &MechanismConfig,
    pipeline: &Arc<VerificationPipeline>,
    log: &EventLog,
    directory: &KeyDirectory,
) -> (Vec<JourneyVerdict>, SettleStats) {
    let mut queue = VerificationQueue::new();
    let mut journeys = Vec::new();
    let slots: Vec<Option<JourneyVerdict>> = splits
        .into_iter()
        .map(|split| match split {
            SplitVerdict::Settled(verdict) => Some(verdict),
            SplitVerdict::Pending(pending) => {
                let PendingOwnerJourney {
                    journey,
                    queue: mut deferred,
                } = *pending;
                queue.append(&mut deferred);
                journeys.push(journey);
                None
            }
        })
        .collect();
    if journeys.is_empty() {
        return (
            slots.into_iter().flatten().collect(),
            SettleStats::default(),
        );
    }
    let _span = telemetry::span("mechanism.settle_batch", "mechanism");
    let protocol = ProtocolConfig {
        exec: config.exec.clone(),
        max_hops: config.max_hops,
        pipeline: pipeline.clone(),
        ..ProtocolConfig::default()
    };
    let stats = settle_deferred(&mut journeys, &protocol, log, directory, &mut queue);
    let mut pending = journeys.iter().map(|j| protocol_verdict(&j.outcome));
    let verdicts = slots
        .into_iter()
        .map(|slot| {
            slot.or_else(|| pending.next())
                .expect("one verdict per pending split")
        })
        .collect();
    (verdicts, stats)
}

/// One pluggable protection mechanism: the paper's
/// moment × reference-data × algorithm abstraction as a trait.
///
/// Implementations run one protected journey over a [`JourneyCtx`] and
/// report a [`SplitVerdict`]. Everything that drives mechanisms — the
/// fleet engine, the detection matrix, the resident service, the CLI,
/// benches — dispatches through a [`MechanismRegistry`] of these, so a
/// new mechanism is one `impl` plus one [`MechanismRegistry::register`]
/// call.
pub trait ProtectionMechanism: Send + Sync {
    /// The registry/CLI/report name (stable, lowercase, no spaces).
    fn name(&self) -> &'static str;

    /// One-line description for help texts and docs.
    fn description(&self) -> &'static str;

    /// What the mechanism needs (taxonomy axes + execution shape).
    fn profile(&self) -> MechanismProfile;

    /// Runs the host-side part of one journey — the one journey method a
    /// mechanism implements. A mechanism without an owner-side phase
    /// returns its final verdict (`verdict.into()`); one with an
    /// owner-side phase may hand it back as a [`SplitVerdict::Pending`]
    /// for the driver to settle, alone or amortized across a batch (see
    /// [`settle`]).
    ///
    /// Callers must only hand over contexts the profile is compatible
    /// with (see [`MechanismProfile::compatible_with`]); a
    /// replicated-stage mechanism given a stage-less context reports an
    /// infrastructure error rather than panicking.
    fn run_split(&self, ctx: &mut JourneyCtx<'_>) -> SplitVerdict;

    /// Runs one journey to its final verdict:
    /// [`run_split`](Self::run_split), with a pending owner side settled
    /// as a batch of one.
    fn run(&self, ctx: &mut JourneyCtx<'_>) -> JourneyVerdict {
        let split = self.run_split(ctx);
        let (mut verdicts, _) = settle(
            vec![split],
            ctx.config,
            &ctx.pipeline,
            ctx.log,
            ctx.directory,
        );
        verdicts.pop().expect("one split in, one verdict out")
    }
}

/// The error [`MechanismRegistry::parse_list`] returns for an unknown
/// name: carries the valid names so CLIs can print them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownMechanism {
    /// The name that failed to resolve.
    pub name: String,
    /// Every name the registry knows.
    pub known: Vec<&'static str>,
}

impl fmt::Display for UnknownMechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown mechanism {:?} (valid: {})",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownMechanism {}

/// The dispatch table: mechanisms by name, in registration order.
///
/// # Examples
///
/// ```
/// use refstate_mechanisms::api::MechanismRegistry;
///
/// let registry = MechanismRegistry::builtin();
/// let protocol = registry.get("protocol").expect("built in");
/// assert_eq!(protocol.name(), "protocol");
/// let picked = registry.parse_list("unprotected,traces").unwrap();
/// assert_eq!(picked.len(), 2);
/// assert!(registry.parse_list("no-such-thing").is_err());
/// ```
#[derive(Clone, Default)]
pub struct MechanismRegistry {
    entries: Vec<Arc<dyn ProtectionMechanism>>,
}

impl MechanismRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        MechanismRegistry::default()
    }

    /// The registry of the nine built-in mechanisms (the paper's six,
    /// the chained-integrity family, and Roth's cooperating agents), in
    /// canonical report order.
    pub fn builtin() -> Self {
        let mut registry = MechanismRegistry::empty();
        registry.register(Arc::new(crate::fleet::Unprotected));
        registry.register(Arc::new(crate::fleet::StateAppraisal));
        registry.register(Arc::new(crate::fleet::FrameworkReExecution));
        registry.register(Arc::new(crate::fleet::SessionCheckingProtocol));
        registry.register(Arc::new(crate::fleet::ExecutionTraces));
        registry.register(Arc::new(crate::fleet::ReplicatedStages));
        registry.register(Arc::new(crate::chained::ChainedMac));
        registry.register(Arc::new(crate::chained::EncapsulatedResults));
        registry.register(Arc::new(crate::cooperating::CooperatingAgents));
        registry
    }

    /// Registers a mechanism. A mechanism with the same name replaces the
    /// existing entry (in place, keeping its position).
    pub fn register(&mut self, mechanism: Arc<dyn ProtectionMechanism>) {
        match self
            .entries
            .iter_mut()
            .find(|m| m.name() == mechanism.name())
        {
            Some(slot) => *slot = mechanism,
            None => self.entries.push(mechanism),
        }
    }

    /// Resolves a mechanism by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn ProtectionMechanism>> {
        self.entries.iter().find(|m| m.name() == name).cloned()
    }

    /// Every registered name, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|m| m.name()).collect()
    }

    /// Every registered mechanism, in registration order.
    pub fn all(&self) -> Vec<Arc<dyn ProtectionMechanism>> {
        self.entries.clone()
    }

    /// Iterates the registered mechanisms in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn ProtectionMechanism>> {
        self.entries.iter()
    }

    /// Number of registered mechanisms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parses a comma-separated mechanism list (duplicates collapse,
    /// order preserved).
    ///
    /// # Errors
    ///
    /// [`UnknownMechanism`] for the first unresolvable name, carrying the
    /// valid names for the error message.
    pub fn parse_list(
        &self,
        list: &str,
    ) -> Result<Vec<Arc<dyn ProtectionMechanism>>, UnknownMechanism> {
        let mut picked: Vec<Arc<dyn ProtectionMechanism>> = Vec::new();
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let mechanism = self.get(name).ok_or_else(|| UnknownMechanism {
                name: name.to_owned(),
                known: self.names(),
            })?;
            if !picked.iter().any(|m| m.name() == mechanism.name()) {
                picked.push(mechanism);
            }
        }
        Ok(picked)
    }
}

impl fmt::Debug for MechanismRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MechanismRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_mechanism_round_trips_by_name() {
        let registry = MechanismRegistry::builtin();
        assert_eq!(registry.len(), 9);
        for mechanism in registry.iter() {
            let resolved = registry
                .get(mechanism.name())
                .unwrap_or_else(|| panic!("{} resolves", mechanism.name()));
            assert_eq!(resolved.name(), mechanism.name());
            assert_eq!(resolved.profile(), mechanism.profile());
            assert!(!mechanism.description().is_empty());
        }
        assert!(registry.get("nope").is_none());
    }

    #[test]
    fn parse_list_resolves_dedups_and_errors() {
        let registry = MechanismRegistry::builtin();
        let picked = registry
            .parse_list("protocol, traces ,protocol")
            .expect("valid list");
        assert_eq!(
            picked.iter().map(|m| m.name()).collect::<Vec<_>>(),
            vec!["protocol", "traces"]
        );
        let err = match registry.parse_list("protocol,wat") {
            Err(err) => err,
            Ok(_) => panic!("unknown name must not parse"),
        };
        assert_eq!(err.name, "wat");
        assert!(err.known.contains(&"replication"));
        assert!(err.to_string().contains("replication"));
    }

    #[test]
    fn register_replaces_by_name_in_place() {
        let mut registry = MechanismRegistry::builtin();
        let before = registry.names();
        registry.register(Arc::new(crate::fleet::Unprotected));
        assert_eq!(registry.names(), before, "same name keeps its slot");
    }

    #[test]
    fn topology_compatibility() {
        let registry = MechanismRegistry::builtin();
        let replication = registry.get("replication").unwrap().profile();
        assert!(!replication.compatible_with(false, true));
        assert!(replication.compatible_with(true, true));
        let protocol = registry.get("protocol").unwrap().profile();
        assert!(protocol.compatible_with(false, false));
        assert!(protocol.compatible_with(true, true));
        // The disjoint-set mechanism needs spare hosts, not stages.
        let cooperating = registry.get("cooperating").unwrap().profile();
        assert!(!cooperating.compatible_with(false, false));
        assert!(!cooperating.compatible_with(true, false));
        assert!(cooperating.compatible_with(false, true));
    }
}
