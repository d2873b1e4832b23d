//! The generic checking framework: any point in the (moment × data ×
//! algorithm) design space, driven over a host path.
//!
//! This is the paper's §5 framework: the programmer picks a
//! [`ProtectionConfig`]; hosts invoke the `checkAfterSession` /
//! `checkAfterTask` callbacks at the configured moment, supply the
//! requested reference data through [`HostFacilities`], and the configured
//! [`CheckingAlgorithm`] judges each session. The hardened, signature-
//! carrying instantiation used for the paper's measurements lives in
//! [`crate::protocol`].

use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

use refstate_platform::{
    walk, AgentImage, Event, EventLog, Host, HostId, JourneyError, Leg, SessionRecord, Visit,
};
use refstate_vm::{DataState, ExecConfig, Program, TraceMode};

use crate::checker::{CheckContext, CheckOutcome, CheckingAlgorithm, FailureReason};
use crate::moment::CheckMoment;
use crate::refdata::{HostFacilities, ReferenceData, ReferenceDataKind};
use crate::route::SignedRoute;
use crate::verdict::{CheckVerdict, FraudEvidence};

/// A programmer-chosen protection level.
#[derive(Clone)]
pub struct ProtectionConfig {
    /// When checks run.
    pub moment: CheckMoment,
    /// The checking algorithm (which also declares its data needs).
    pub algorithm: Arc<dyn CheckingAlgorithm>,
    /// Skip checking sessions executed by trusted hosts (§5.1: "trusted
    /// hosts will not attack by definition").
    pub skip_trusted: bool,
    /// Execution limits, shared by sessions and checks.
    pub exec: ExecConfig,
    /// Hop budget.
    pub max_hops: usize,
}

impl ProtectionConfig {
    /// A config with the given algorithm and the paper-recommended
    /// defaults: check after every session, skip trusted hosts, signed
    /// route appending.
    pub fn new(algorithm: Arc<dyn CheckingAlgorithm>) -> Self {
        ProtectionConfig {
            moment: CheckMoment::AfterSession,
            algorithm,
            skip_trusted: true,
            exec: ExecConfig::default(),
            max_hops: 64,
        }
    }

    /// Sets the checking moment.
    pub fn moment(mut self, moment: CheckMoment) -> Self {
        self.moment = moment;
        self
    }

    /// Also check sessions of trusted hosts.
    pub fn check_trusted_too(mut self) -> Self {
        self.skip_trusted = false;
        self
    }
}

impl fmt::Debug for ProtectionConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtectionConfig")
            .field("moment", &self.moment)
            .field("algorithm", &self.algorithm.name())
            .field("skip_trusted", &self.skip_trusted)
            .finish_non_exhaustive()
    }
}

/// An agent bundled with its protection configuration.
#[derive(Debug, Clone)]
pub struct ProtectedAgent {
    /// The agent.
    pub image: AgentImage,
    /// The chosen protection level.
    pub config: ProtectionConfig,
}

impl ProtectedAgent {
    /// Bundles an agent with a protection config.
    pub fn new(image: AgentImage, config: ProtectionConfig) -> Self {
        ProtectedAgent { image, config }
    }
}

/// The result of a framework-protected journey.
#[derive(Debug)]
pub struct FrameworkOutcome {
    /// The agent's final data state.
    pub final_state: DataState,
    /// Hosts visited in order.
    pub path: Vec<HostId>,
    /// Every check performed, in order.
    pub verdicts: Vec<CheckVerdict>,
    /// Evidence for the first detected fraud, if any. When present the
    /// journey was aborted at the detection point.
    pub fraud: Option<FraudEvidence>,
    /// The signed route: every station appends its signed entry.
    pub route: SignedRoute,
}

impl FrameworkOutcome {
    /// Returns `true` when every check passed.
    pub fn clean(&self) -> bool {
        self.fraud.is_none() && self.verdicts.iter().all(CheckVerdict::passed)
    }
}

/// Replays a session to obtain the reference state for evidence, when the
/// data permits.
///
/// The rare fraud-evidence path of the generic driver: it runs through a
/// throwaway uncached [`crate::pipeline::VerificationPipeline`] (the
/// compiled fast path; the per-hop *checks* themselves go through the
/// algorithm's own — possibly cached — pipeline).
fn reference_state_for_evidence(
    program: &Program,
    data: &ReferenceData,
    exec: &ExecConfig,
) -> Option<DataState> {
    let initial = data.initial_state.as_ref()?;
    let input = data.input.as_ref()?;
    crate::pipeline::VerificationPipeline::uncached().reference_state(program, initial, input, exec)
}

/// A session kept for checking: its sequence number, executor and
/// record. Sessions of hosts the configuration skips are never kept.
struct Kept {
    seq: u64,
    executor: HostId,
    record: SessionRecord,
}

/// The framework's part of the itinerary: sign the route and keep each
/// checked session on departure; with [`CheckMoment::AfterSession`],
/// check the previous session on arrival.
struct FrameworkLeg<'a> {
    config: &'a ProtectionConfig,
    exec: &'a ExecConfig,
    log: &'a EventLog,
    route: SignedRoute,
    verdicts: Vec<CheckVerdict>,
    /// AfterSession: the previous session. AfterTask: every session.
    kept: Vec<Kept>,
}

impl FrameworkLeg<'_> {
    /// Records a check's outcome — the `CheckPerformed` event, the
    /// verdict and, on failure, the `FraudDetected` event — and returns
    /// the failure.
    fn record(
        &mut self,
        kept: &Kept,
        checker: &HostId,
        outcome: CheckOutcome,
    ) -> Option<FailureReason> {
        self.log.record(Event::CheckPerformed {
            checker: checker.clone(),
            checked: kept.executor.clone(),
            passed: outcome.passed(),
        });
        let failure = match outcome {
            CheckOutcome::Passed => None,
            CheckOutcome::Failed(reason) => Some(reason),
        };
        self.verdicts.push(CheckVerdict {
            checked: kept.executor.clone(),
            checker: checker.clone(),
            seq: kept.seq,
            failure: failure.clone(),
        });
        if let Some(reason) = &failure {
            self.log.record(Event::FraudDetected {
                culprit: kept.executor.clone(),
                detector: checker.clone(),
                reason: reason.to_string(),
            });
        }
        failure
    }

    /// The evidence of a failed check.
    fn evidence(
        &self,
        agent: &AgentImage,
        kept: &Kept,
        checker: &HostId,
        data: &ReferenceData,
        reason: FailureReason,
    ) -> FraudEvidence {
        FraudEvidence {
            culprit: kept.executor.clone(),
            detector: checker.clone(),
            agent: agent.id.clone(),
            seq: kept.seq,
            reason,
            initial_state: kept.record.initial_state.clone(),
            claimed_state: kept.record.outcome.state.clone(),
            reference_state: reference_state_for_evidence(&agent.program, data, self.exec),
            input: kept.record.outcome.input_log.clone(),
            signed_claim: None,
        }
    }

    /// Checks one kept session at `checker`: the arrival check, and the
    /// owner's check of the halting host's session.
    fn check(
        &mut self,
        agent: &AgentImage,
        kept: &Kept,
        checker: &HostId,
    ) -> Option<FraudEvidence> {
        let data =
            HostFacilities::new(&kept.record).provide(&self.config.algorithm.required_data());
        let ctx = CheckContext {
            program: &agent.program,
            data: &data,
            exec: self.exec.clone(),
        };
        let outcome = self.config.algorithm.check(&ctx);
        let reason = self.record(kept, checker, outcome)?;
        Some(self.evidence(agent, kept, checker, &data, reason))
    }

    /// The checks after the agent halted at `last`: the halting host's own
    /// session (AfterSession; the owner's check, attributed to the halting
    /// host) or every kept session in journey order (AfterTask; the
    /// evidence is the first failure's).
    fn finish(&mut self, agent: &AgentImage, last: &HostId) -> Option<FraudEvidence> {
        let kept = std::mem::take(&mut self.kept);
        if self.config.moment == CheckMoment::AfterSession {
            let session = kept.into_iter().next()?;
            let checker = session.executor.clone();
            return self.check(agent, &session, &checker);
        }
        let required = self.config.algorithm.required_data();
        let mut fraud = None;
        for session in &kept {
            let data = HostFacilities::new(&session.record).provide(&required);
            let outcome = self.config.algorithm.check(&CheckContext {
                program: &agent.program,
                data: &data,
                exec: self.exec.clone(),
            });
            if let Some(reason) = self.record(session, last, outcome) {
                if fraud.is_none() {
                    fraud = Some(self.evidence(agent, session, last, &data, reason));
                }
            }
        }
        fraud
    }
}

impl Leg for FrameworkLeg<'_> {
    type Stop = FraudEvidence;

    /// checkAfterSession: the first action on arrival (paper Fig. 4).
    fn arrive(&mut self, visit: Visit<'_>) -> ControlFlow<FraudEvidence> {
        if self.config.moment != CheckMoment::AfterSession {
            return ControlFlow::Continue(());
        }
        let Some(previous) = self.kept.pop() else {
            return ControlFlow::Continue(());
        };
        match self.check(visit.agent, &previous, visit.here()) {
            Some(fraud) => ControlFlow::Break(fraud),
            None => ControlFlow::Continue(()),
        }
    }

    fn depart(
        &mut self,
        mut visit: Visit<'_>,
        record: SessionRecord,
    ) -> ControlFlow<FraudEvidence, usize> {
        self.route.append_signed_by(&mut visit);
        if !(self.config.skip_trusted && visit.hosts[visit.at].is_trusted()) {
            self.kept.push(Kept {
                seq: visit.seq(),
                executor: visit.here().clone(),
                record,
            });
        }
        ControlFlow::Continue(0)
    }
}

/// Runs a protected journey under the generic framework.
///
/// The agent starts at `start`; after each migration the *receiving* host
/// performs the `checkAfterSession` callback (when the moment says so) on
/// the just-finished session; at `halt`, the final host performs
/// `checkAfterTask` over the retained journey data (when the moment is
/// [`CheckMoment::AfterTask`]).
///
/// On a failed check the journey aborts and the outcome carries
/// [`FraudEvidence`].
///
/// # Errors
///
/// See [`JourneyError`]. A *detected fraud* is not an error — it is the
/// mechanism working; errors are infrastructure failures.
pub fn run_framework_journey(
    hosts: &mut [Host],
    start: impl Into<HostId>,
    agent: ProtectedAgent,
    log: &EventLog,
) -> Result<FrameworkOutcome, JourneyError> {
    let ProtectedAgent { image, config } = agent;
    let mut exec = config.exec.clone();
    if config
        .algorithm
        .required_data()
        .contains(ReferenceDataKind::ExecutionLog)
    {
        exec.trace_mode = TraceMode::Full;
    }
    let mut leg = FrameworkLeg {
        config: &config,
        exec: &exec,
        log,
        route: SignedRoute::new(image.id.clone()),
        verdicts: Vec::new(),
        kept: Vec::new(),
    };
    let walk = walk(hosts, start, image, &exec, log, config.max_hops, &mut leg);
    let fraud = match walk.result? {
        Some(fraud) => Some(fraud),
        None => leg.finish(
            &walk.image,
            walk.path.last().expect("a path is never empty"),
        ),
    };
    Ok(FrameworkOutcome {
        final_state: walk.image.state,
        path: walk.path,
        verdicts: leg.verdicts,
        fraud,
        route: leg.route,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{ReExecutionChecker, RuleChecker};
    use crate::rules::{CmpOp, Expr, Pred, RuleSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use refstate_crypto::{DsaParams, KeyDirectory};
    use refstate_platform::{Attack, HostSpec};
    use refstate_vm::{assemble, Value};

    /// Agent: visits h2 then h3, summing one input per host into "total".
    fn sum_agent() -> AgentImage {
        let program = assemble(
            r#"
            input "n"
            load "total"
            add
            store "total"
            load "hops"
            push 1
            add
            store "hops"
            load "hops"
            push 1
            eq
            jnz to_h2
            load "hops"
            push 2
            eq
            jnz to_h3
            halt
        to_h2:
            push "h2"
            migrate
        to_h3:
            push "h3"
            migrate
        "#,
        )
        .unwrap();
        let mut state = DataState::new();
        state.set("total", Value::Int(0));
        state.set("hops", Value::Int(0));
        AgentImage::new("summer", program, state)
    }

    fn hosts_with(middle_attack: Option<Attack>) -> Vec<Host> {
        let mut rng = StdRng::seed_from_u64(4242);
        let params = DsaParams::test_group_256();
        let mut h2 = HostSpec::new("h2").with_input("n", Value::Int(20));
        if let Some(a) = middle_attack {
            h2 = h2.malicious(a);
        }
        vec![
            Host::new(
                HostSpec::new("h1")
                    .trusted()
                    .with_input("n", Value::Int(10)),
                &params,
                &mut rng,
            ),
            Host::new(h2, &params, &mut rng),
            Host::new(
                HostSpec::new("h3")
                    .trusted()
                    .with_input("n", Value::Int(30)),
                &params,
                &mut rng,
            ),
        ]
    }

    fn reexec_config() -> ProtectionConfig {
        ProtectionConfig::new(Arc::new(ReExecutionChecker::new()))
    }

    #[test]
    fn honest_journey_is_clean() {
        let mut hosts = hosts_with(None);
        let log = EventLog::new();
        let outcome = run_framework_journey(
            &mut hosts,
            "h1",
            ProtectedAgent::new(sum_agent(), reexec_config()),
            &log,
        )
        .unwrap();
        assert!(outcome.clean());
        assert_eq!(outcome.final_state.get_int("total"), Some(60));
        assert_eq!(outcome.path.len(), 3);
        // h2 untrusted: checked by h3. h1/h3 trusted: skipped.
        assert_eq!(outcome.verdicts.len(), 1);
        assert_eq!(outcome.verdicts[0].checked.as_str(), "h2");
        assert_eq!(outcome.verdicts[0].checker.as_str(), "h3");
    }

    #[test]
    fn tampering_detected_after_session() {
        let mut hosts = hosts_with(Some(Attack::TamperVariable {
            name: "total".into(),
            value: Value::Int(1),
        }));
        let log = EventLog::new();
        let outcome = run_framework_journey(
            &mut hosts,
            "h1",
            ProtectedAgent::new(sum_agent(), reexec_config()),
            &log,
        )
        .unwrap();
        assert!(!outcome.clean());
        let fraud = outcome.fraud.expect("tampering must be detected");
        assert_eq!(fraud.culprit.as_str(), "h2");
        assert_eq!(fraud.detector.as_str(), "h3");
        assert_eq!(fraud.claimed_state.get_int("total"), Some(1));
        assert_eq!(
            fraud
                .reference_state
                .as_ref()
                .and_then(|s| s.get_int("total")),
            Some(30),
            "reference re-execution shows what h2 should have produced"
        );
        assert_eq!(
            log.count_matching(|e| matches!(e, Event::FraudDetected { .. })),
            1
        );
    }

    #[test]
    fn skip_execution_detected() {
        let mut hosts = hosts_with(Some(Attack::SkipExecution));
        let log = EventLog::new();
        let outcome = run_framework_journey(
            &mut hosts,
            "h1",
            ProtectedAgent::new(sum_agent(), reexec_config()),
            &log,
        )
        .unwrap();
        assert!(outcome.fraud.is_some(), "skipping execution changes no state — still caught because the session should have changed it");
    }

    #[test]
    fn forged_input_not_detected_matching_paper_limits() {
        let mut hosts = hosts_with(Some(Attack::ForgeInput {
            tag: "n".into(),
            value: Value::Int(-100),
        }));
        let log = EventLog::new();
        let outcome = run_framework_journey(
            &mut hosts,
            "h1",
            ProtectedAgent::new(sum_agent(), reexec_config()),
            &log,
        )
        .unwrap();
        assert!(
            outcome.fraud.is_none(),
            "input forgery is consistent with the forged log — the paper's stated blind spot"
        );
        assert_eq!(outcome.final_state.get_int("total"), Some(-60)); // 10 - 100 + 30
    }

    #[test]
    fn after_task_checks_all_sessions_at_the_end() {
        let mut hosts = hosts_with(Some(Attack::TamperVariable {
            name: "total".into(),
            value: Value::Int(1),
        }));
        let log = EventLog::new();
        let config = reexec_config().moment(CheckMoment::AfterTask);
        let outcome = run_framework_journey(
            &mut hosts,
            "h1",
            ProtectedAgent::new(sum_agent(), config),
            &log,
        )
        .unwrap();
        // The journey ran to completion (the drawback of AfterTask)...
        assert_eq!(outcome.path.len(), 3);
        // ...but the fraud is still found afterwards.
        let fraud = outcome.fraud.expect("tampering found at task end");
        assert_eq!(fraud.culprit.as_str(), "h2");
        // Compromised state propagated into later sessions.
        assert_eq!(outcome.final_state.get_int("total"), Some(31)); // 1 + 30
    }

    #[test]
    fn check_trusted_too_checks_everyone() {
        let mut hosts = hosts_with(None);
        let log = EventLog::new();
        let config = reexec_config().check_trusted_too();
        let outcome = run_framework_journey(
            &mut hosts,
            "h1",
            ProtectedAgent::new(sum_agent(), config),
            &log,
        )
        .unwrap();
        assert!(outcome.clean());
        // h1 checked by h2, h2 by h3, h3 by "owner" (final check) = 3.
        assert_eq!(outcome.verdicts.len(), 3);
    }

    #[test]
    fn rules_only_config_misses_what_rules_miss() {
        // Rule: total never negative. Tampering to a *positive* wrong value
        // passes the rule — the §4.1 "lower end of the protection scale".
        let mut hosts = hosts_with(Some(Attack::TamperVariable {
            name: "total".into(),
            value: Value::Int(12345),
        }));
        let rules = RuleSet::new().rule(
            "non-negative",
            Pred::cmp(CmpOp::Ge, Expr::var("total"), Expr::int(0)),
        );
        let config = ProtectionConfig::new(Arc::new(RuleChecker::new(rules)));
        let log = EventLog::new();
        let outcome = run_framework_journey(
            &mut hosts,
            "h1",
            ProtectedAgent::new(sum_agent(), config),
            &log,
        )
        .unwrap();
        assert!(
            outcome.fraud.is_none(),
            "weak rules cannot see this tampering"
        );
        assert_eq!(outcome.final_state.get_int("total"), Some(12375));
    }

    #[test]
    fn signed_route_is_recorded_and_verifies() {
        let mut hosts = hosts_with(None);
        let mut dir = KeyDirectory::new();
        for h in &hosts {
            dir.register(h.id().as_str(), h.public_key().clone());
        }
        let log = EventLog::new();
        let outcome = run_framework_journey(
            &mut hosts,
            "h1",
            ProtectedAgent::new(sum_agent(), reexec_config()),
            &log,
        )
        .unwrap();
        assert_eq!(outcome.route.len(), 3);
        assert!(outcome.route.verify(&dir).is_ok());
        assert_eq!(
            outcome.route.hosts(),
            vec![HostId::new("h1"), HostId::new("h2"), HostId::new("h3")]
        );
    }

    #[test]
    fn unknown_host_is_an_error() {
        let mut hosts = hosts_with(None);
        let program = assemble("push \"nowhere\"\nmigrate").unwrap();
        let agent = AgentImage::new("lost", program, DataState::new());
        let log = EventLog::new();
        let err = run_framework_journey(
            &mut hosts,
            "h1",
            ProtectedAgent::new(agent, reexec_config()),
            &log,
        )
        .unwrap_err();
        assert!(matches!(err, JourneyError::UnknownHost { .. }));
    }
}
