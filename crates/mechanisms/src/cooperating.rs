//! Roth's cooperating agents: a witness agent on a disjoint host set
//! cross-checks the worker agent's interim reference states.
//!
//! The worker agent walks its planned linear route exactly as under the
//! unprotected driver. A second, cooperating agent conceptually travels a
//! *disjoint* set of hosts (every host the scenario provides that is not
//! on the primary route) and, after each session an untrusted route host
//! executes, the witness host assigned to that hop re-executes the
//! session from the recorded reference data (initial state, input log,
//! claimed resulting state and migration target) and compares. Because
//! the two sets are disjoint, a route host cannot sway its own check —
//! unless it recruits exactly the witness host assigned to its hop, which
//! is the mechanism's pinned blind spot (the cross-set analogue of the
//! §5.1 consecutive-host collusion): a
//! [`Attack::CollaborateTamper`] whose accomplice *is* the assigned
//! witness makes the witness vouch instead of checking.
//!
//! Witness assignment is deterministic — hop `i` of the route is checked
//! by `witnesses[i % witnesses.len()]`, witnesses taken in host-spec
//! order — so scenario generators can (and the adaptive campaign
//! generator does) aim collusion at the right witness without simulating
//! the journey.

use std::ops::ControlFlow;

use refstate_core::{
    CheckMoment, ExactCompare, ReferenceDataKind, ReferenceDataRequest, SessionClaim,
    VerificationPipeline,
};
use refstate_platform::{walk, Attack, Event, EventLog, HostId, Leg, SessionRecord, Visit};
use refstate_telemetry as telemetry;
use refstate_vm::{ExecConfig, SessionEnd};

use crate::api::{
    JourneyCtx, JourneyVerdict, MechanismProfile, ProtectionMechanism, RouteTopology, SplitVerdict,
};

/// The hosts available as witnesses: every context host that is not on
/// the primary route, in host-spec order. Hop `i` of the route is checked
/// by `witnesses[i % witnesses.len()]`.
pub fn witness_set(ctx: &JourneyCtx<'_>) -> Vec<HostId> {
    ctx.hosts
        .iter()
        .map(|h| h.id().clone())
        .filter(|id| !ctx.route.contains(id))
        .collect()
}

/// Roth's cooperating-agents mechanism over disjoint host sets.
///
/// Detection bandwidth matches the re-execution family (state, execution
/// and control-flow manipulation are caught and attributed; input
/// forgery, read attacks, and chain manipulation are invisible), plus the
/// §5.1 route collusion — a colluding *successor* buys nothing because
/// the check runs on the other set. The residual blind spot is cross-set
/// collusion with the assigned witness itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct CooperatingAgents;

impl ProtectionMechanism for CooperatingAgents {
    fn name(&self) -> &'static str {
        "cooperating"
    }

    fn description(&self) -> &'static str {
        "Roth's cooperating agents: a witness on a disjoint host set re-checks every session"
    }

    fn profile(&self) -> MechanismProfile {
        MechanismProfile {
            moment: Some(CheckMoment::AfterSession),
            reference_data: ReferenceDataRequest::new()
                .with(ReferenceDataKind::InitialState)
                .with(ReferenceDataKind::ResultingState)
                .with(ReferenceDataKind::Input),
            topology: RouteTopology::DisjointSets,
            uses_signatures: false,
        }
    }

    fn run_split(&self, ctx: &mut JourneyCtx<'_>) -> SplitVerdict {
        let witnesses = witness_set(ctx);
        if witnesses.is_empty() {
            // Engines check the profile first; a context without spare
            // hosts is an infrastructure failure, not a panic.
            return JourneyVerdict::clean(false).into();
        }
        let start = ctx.start().clone();
        let mut leg = Witnessing {
            witnesses,
            pipeline: &ctx.pipeline,
            exec: &ctx.config.exec,
            log: ctx.log,
        };
        let walk = walk(
            ctx.hosts,
            start,
            ctx.agent.clone(),
            &ctx.config.exec,
            ctx.log,
            ctx.config.max_hops,
            &mut leg,
        );
        match walk.result {
            Ok(Some(accusation)) => accusation,
            Ok(None) => JourneyVerdict::clean(true),
            // A churned or unknown host, a crashed session or a runaway
            // itinerary: the worker agent is lost.
            Err(_) => JourneyVerdict::clean(false),
        }
        .into()
    }
}

/// The witness set's part of the itinerary: after every session of an
/// untrusted route host, the witness assigned to the hop re-executes it.
struct Witnessing<'a> {
    witnesses: Vec<HostId>,
    pipeline: &'a VerificationPipeline,
    exec: &'a ExecConfig,
    log: &'a EventLog,
}

impl Leg for Witnessing<'_> {
    type Stop = JourneyVerdict;

    fn depart(
        &mut self,
        visit: Visit<'_>,
        record: SessionRecord,
    ) -> ControlFlow<JourneyVerdict, usize> {
        let host = &visit.hosts[visit.at];
        if host.is_trusted() {
            return ControlFlow::Continue(0);
        }
        let _span = telemetry::span("cooperating.check", "stage");
        let here = visit.here();
        let witness = &self.witnesses[visit.seq() as usize % self.witnesses.len()];
        // Cross-set collusion: the executing host recruited a witness.
        if let Some(Attack::CollaborateTamper { accomplice, .. }) = host.behaviour().attack() {
            if accomplice == witness {
                // The assigned witness vouches instead of checking — the
                // mechanism's pinned cross-set blind spot.
                self.log.record(Event::CheckPerformed {
                    checker: witness.clone(),
                    checked: here.clone(),
                    passed: true,
                });
                return ControlFlow::Continue(0);
            }
        }
        let claimed_next = match &record.outcome.end {
            SessionEnd::Halt => None,
            SessionEnd::Migrate(next) => Some(next.clone()),
        };
        let claim = SessionClaim {
            state: &record.outcome.state,
            next: Some(&claimed_next),
        };
        let (outcome, _) = self.pipeline.verify_session(
            &visit.agent.program,
            &record.initial_state,
            &record.outcome.input_log,
            claim,
            &ExactCompare,
            self.exec,
        );
        let passed = outcome.passed();
        self.log.record(Event::CheckPerformed {
            checker: witness.clone(),
            checked: here.clone(),
            passed,
        });
        if passed {
            return ControlFlow::Continue(0);
        }
        self.log.record(Event::FraudDetected {
            culprit: here.clone(),
            detector: witness.clone(),
            reason: format!("cooperating witness check failed: {outcome:?}"),
        });
        let halted = claimed_next.is_none();
        ControlFlow::Break(JourneyVerdict::accusing(vec![here.clone()], halted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MechanismConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use refstate_core::protocol::host_directory;
    use refstate_crypto::DsaParams;
    use refstate_platform::{AgentImage, EventLog, Host, HostSpec};
    use refstate_vm::{assemble, DataState, Value};
    use std::sync::Arc;

    fn summing_agent() -> AgentImage {
        let program = assemble(
            r#"
            input "n"
            load "total"
            add
            store "total"
            load "hop"
            push 1
            add
            store "hop"
            load "hop"
            push 1
            eq
            jnz to_b
            load "hop"
            push 2
            eq
            jnz to_c
            halt
        to_b:
            push "b"
            migrate
        to_c:
            push "c"
            migrate
        "#,
        )
        .unwrap();
        let mut state = DataState::new();
        state.set("total", Value::Int(0));
        state.set("hop", Value::Int(0));
        AgentImage::new("coop-test", program, state)
    }

    fn hosts(middle_attack: Option<Attack>) -> Vec<Host> {
        let mut rng = StdRng::seed_from_u64(91);
        let params = DsaParams::test_group_256();
        let mut b = HostSpec::new("b").with_input("n", Value::Int(20));
        if let Some(a) = middle_attack {
            b = b.malicious(a);
        }
        Host::build_all(
            vec![
                HostSpec::new("a").trusted().with_input("n", Value::Int(10)),
                b,
                HostSpec::new("c").with_input("n", Value::Int(30)),
                HostSpec::new("v0"),
                HostSpec::new("v1"),
            ],
            &params,
            &mut rng,
        )
    }

    fn run(attack: Option<Attack>) -> (JourneyVerdict, EventLog) {
        let mut hs = hosts(attack);
        let directory = host_directory(&hs);
        let config = MechanismConfig::default();
        let log = EventLog::new();
        let route = vec![HostId::new("a"), HostId::new("b"), HostId::new("c")];
        let mut ctx = JourneyCtx::new(
            &mut hs,
            route,
            summing_agent(),
            &directory,
            &config,
            &log,
            13,
            Arc::default(),
        );
        let verdict = CooperatingAgents.run(&mut ctx);
        (verdict, log)
    }

    #[test]
    fn honest_journey_completes_clean() {
        let (verdict, log) = run(None);
        assert!(!verdict.detected);
        assert!(verdict.completed);
        // Both untrusted hops (b at hop 1, c at hop 2) were checked.
        assert_eq!(
            log.count_matching(|e| matches!(e, Event::CheckPerformed { .. })),
            2
        );
    }

    #[test]
    fn tampering_is_caught_and_attributed_by_the_witness() {
        let (verdict, log) = run(Some(Attack::TamperVariable {
            name: "total".into(),
            value: Value::Int(7),
        }));
        assert!(verdict.detected);
        assert_eq!(verdict.accused, vec![HostId::new("b")]);
        assert!(!verdict.completed, "aborted at the detection point");
        // Hop 1's check is assigned to witnesses[1 % 2] = v1.
        assert_eq!(
            log.count_matching(|e| matches!(
                e,
                Event::FraudDetected { detector, .. } if detector == &HostId::new("v1")
            )),
            1
        );
    }

    #[test]
    fn route_collusion_buys_nothing_across_sets() {
        // A colluding successor defeats the §5.1 protocol, but here the
        // check runs on the disjoint witness set.
        let (verdict, _) = run(Some(Attack::CollaborateTamper {
            name: "total".into(),
            value: Value::Int(7),
            accomplice: HostId::new("c"),
        }));
        assert!(verdict.detected);
        assert_eq!(verdict.accused, vec![HostId::new("b")]);
    }

    #[test]
    fn recruiting_the_assigned_witness_evades_detection() {
        // Hop 1 is checked by v1: recruiting exactly that witness is the
        // pinned cross-set blind spot.
        let (verdict, log) = run(Some(Attack::CollaborateTamper {
            name: "total".into(),
            value: Value::Int(7),
            accomplice: HostId::new("v1"),
        }));
        assert!(!verdict.detected);
        assert!(verdict.completed);
        // The vouch is still logged as a (fake) passed check.
        assert_eq!(
            log.count_matching(|e| matches!(e, Event::CheckPerformed { passed: true, .. })),
            2
        );
        // Recruiting the *other* witness does not help.
        let (verdict, _) = run(Some(Attack::CollaborateTamper {
            name: "total".into(),
            value: Value::Int(7),
            accomplice: HostId::new("v0"),
        }));
        assert!(verdict.detected);
    }

    #[test]
    fn input_forgery_stays_invisible() {
        let (verdict, _) = run(Some(Attack::ForgeInput {
            tag: "n".into(),
            value: Value::Int(1),
        }));
        assert!(!verdict.detected, "forged inputs replay consistently");
        assert!(verdict.completed);
    }

    #[test]
    fn redirected_migration_is_caught() {
        let (verdict, _) = run(Some(Attack::RedirectMigration {
            to: HostId::new("a"),
        }));
        assert!(verdict.detected);
        assert_eq!(verdict.accused, vec![HostId::new("b")]);
    }

    #[test]
    fn no_spare_hosts_is_an_infra_error_not_a_panic() {
        let mut rng = StdRng::seed_from_u64(91);
        let params = DsaParams::test_group_256();
        let mut hs = Host::build_all(
            vec![
                HostSpec::new("a").trusted().with_input("n", Value::Int(10)),
                HostSpec::new("b").with_input("n", Value::Int(20)),
                HostSpec::new("c").with_input("n", Value::Int(30)),
            ],
            &params,
            &mut rng,
        );
        let directory = host_directory(&hs);
        let config = MechanismConfig::default();
        let log = EventLog::new();
        let route = vec![HostId::new("a"), HostId::new("b"), HostId::new("c")];
        let mut ctx = JourneyCtx::new(
            &mut hs,
            route,
            summing_agent(),
            &directory,
            &config,
            &log,
            13,
            Arc::default(),
        );
        let verdict = CooperatingAgents.run(&mut ctx);
        assert!(!verdict.detected);
        assert!(verdict.infra_error);
    }
}
