//! The six paper-surveyed [`ProtectionMechanism`] implementations,
//! drivable over *arbitrary* generated host sets through the uniform
//! [`crate::api`] surface (the chained-integrity pair lives in
//! [`crate::chained`]).
//!
//! Each mechanism is a unit struct wrapping one of the workspace's
//! journey drivers; [`crate::api::MechanismRegistry::builtin`] registers
//! them all. Fleet engines, the detection matrix, CLIs, and benches never
//! name these types directly — they resolve mechanisms from the registry
//! and dispatch through the trait, so adding a mechanism means adding an
//! `impl` here (or in downstream code) and registering it, not editing an
//! engine.
//!
//! Verdict semantics are documented on [`JourneyVerdict`]; the notes on
//! each impl record where a mechanism's measured bandwidth deliberately
//! differs from the others (the paper's §4 analysis, reproduced as rate
//! differences in fleet reports).

use std::sync::Arc;

use refstate_core::framework::{run_framework_journey, ProtectedAgent, ProtectionConfig};
use refstate_core::protocol::{run_protected_journey_deferred, ProtocolConfig};
use refstate_core::{CheckMoment, ReExecutionChecker, ReferenceDataKind, ReferenceDataRequest};
use refstate_platform::run_plain_journey;

use crate::api::{
    JourneyCtx, JourneyVerdict, MechanismProfile, PendingOwnerJourney, ProtectionMechanism,
    RouteTopology, SplitVerdict,
};
use crate::replication::run_replicated_pipeline;
use crate::traces::{audit_journey, run_traced_journey};

/// No protection at all: the baseline row every report needs. Never
/// detects, never accuses.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unprotected;

impl ProtectionMechanism for Unprotected {
    fn name(&self) -> &'static str {
        "unprotected"
    }

    fn description(&self) -> &'static str {
        "no protection; baseline row, never detects"
    }

    fn profile(&self) -> MechanismProfile {
        MechanismProfile {
            moment: None,
            reference_data: ReferenceDataRequest::new(),
            topology: RouteTopology::Linear,
            uses_signatures: false,
        }
    }

    fn run_split(&self, ctx: &mut JourneyCtx<'_>) -> SplitVerdict {
        let outcome = run_plain_journey(
            ctx.hosts,
            ctx.start().clone(),
            ctx.agent.clone(),
            &ctx.config.exec,
            ctx.log,
            ctx.config.max_hops,
        );
        JourneyVerdict::clean(outcome.is_ok()).into()
    }
}

/// State appraisal against a rule set (§3.1, Farmer/Guttman/Swarup).
///
/// Appraisal is arrival-only by construction (the paper: checking is "the
/// first step of executing an agent arrived at a host"), so an attack on
/// the *final* host has no next arrival and goes unseen. That is the
/// mechanism's measured bandwidth, not a harness gap — fleet reports
/// deliberately surface it as a sub-1.0 rate where the framework/protocol
/// (which model an owner-side final check) score 1.0.
#[derive(Debug, Clone, Copy, Default)]
pub struct StateAppraisal;

impl ProtectionMechanism for StateAppraisal {
    fn name(&self) -> &'static str {
        "appraisal"
    }

    fn description(&self) -> &'static str {
        "state appraisal against a rule set on every arrival (§3.1)"
    }

    fn profile(&self) -> MechanismProfile {
        MechanismProfile {
            moment: Some(CheckMoment::AfterSession),
            reference_data: ReferenceDataRequest::new()
                .with(ReferenceDataKind::InitialState)
                .with(ReferenceDataKind::ResultingState),
            topology: RouteTopology::Linear,
            uses_signatures: false,
        }
    }

    fn run_split(&self, ctx: &mut JourneyCtx<'_>) -> SplitVerdict {
        match crate::appraisal::run_appraised_journey(
            ctx.hosts,
            ctx.start().clone(),
            ctx.agent.clone(),
            &ctx.config.rules,
            &[],
            &ctx.config.exec,
            ctx.log,
            ctx.config.max_hops,
        ) {
            Ok(outcome) => match outcome.rejection {
                Some((culprit, _detector)) => JourneyVerdict::accusing(vec![culprit], false),
                None => JourneyVerdict::clean(true),
            },
            Err(_) => JourneyVerdict::clean(false),
        }
        .into()
    }
}

/// The generic reference-state framework with re-execution checking.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameworkReExecution;

impl ProtectionMechanism for FrameworkReExecution {
    fn name(&self) -> &'static str {
        "framework"
    }

    fn description(&self) -> &'static str {
        "the generic framework driver with re-execution checking"
    }

    fn profile(&self) -> MechanismProfile {
        MechanismProfile {
            moment: Some(CheckMoment::AfterSession),
            reference_data: ReferenceDataRequest::new()
                .with(ReferenceDataKind::InitialState)
                .with(ReferenceDataKind::ResultingState)
                .with(ReferenceDataKind::Input),
            topology: RouteTopology::Linear,
            uses_signatures: false,
        }
    }

    fn run_split(&self, ctx: &mut JourneyCtx<'_>) -> SplitVerdict {
        let checker = ReExecutionChecker::new().with_pipeline(ctx.pipeline.clone());
        let protection = ProtectionConfig {
            exec: ctx.config.exec.clone(),
            max_hops: ctx.config.max_hops,
            ..ProtectionConfig::new(Arc::new(checker))
        };
        match run_framework_journey(
            ctx.hosts,
            ctx.start().clone(),
            ProtectedAgent::new(ctx.agent.clone(), protection),
            ctx.log,
        ) {
            Ok(outcome) => match outcome.fraud {
                Some(fraud) => {
                    // The final-session check attributes the checker to
                    // the executor itself: the journey reached its halt
                    // before the owner-side check flagged it.
                    let completed = fraud.detector == fraud.culprit;
                    JourneyVerdict::accusing(vec![fraud.culprit], completed)
                }
                None => JourneyVerdict::clean(true),
            },
            Err(_) => JourneyVerdict::clean(false),
        }
        .into()
    }
}

/// The paper's §5.1 session-checking protocol (signatures included).
///
/// The per-hop certificate verifications are deferred into the context's
/// [`crate::api::JourneyCtx::queue`] and settled in one batch with the
/// owner's final check — the DSA-dominated part of the journey p50
/// collapses into one fused double-exponentiation pass. Deferral changes
/// no verdict for any attack in the taxonomy (none forge signatures);
/// `refstate_core::protocol::run_protected_journey` remains the eager
/// reference that verifies every certificate on arrival.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionCheckingProtocol;

impl ProtectionMechanism for SessionCheckingProtocol {
    fn name(&self) -> &'static str {
        "protocol"
    }

    fn description(&self) -> &'static str {
        "the §5.1 session-checking protocol with signed certificates"
    }

    fn profile(&self) -> MechanismProfile {
        MechanismProfile {
            moment: Some(CheckMoment::AfterSession),
            reference_data: ReferenceDataRequest::new()
                .with(ReferenceDataKind::InitialState)
                .with(ReferenceDataKind::ResultingState)
                .with(ReferenceDataKind::Input),
            topology: RouteTopology::Linear,
            uses_signatures: true,
        }
    }

    /// The host-side journey only: signature checks accumulate on the
    /// context's queue and the owner's final check is left pending, so a
    /// driver can settle many journeys in two amortized passes
    /// ([`crate::api::settle`]).
    fn run_split(&self, ctx: &mut JourneyCtx<'_>) -> SplitVerdict {
        let protocol = ProtocolConfig {
            exec: ctx.config.exec.clone(),
            max_hops: ctx.config.max_hops,
            pipeline: ctx.pipeline.clone(),
            ..ProtocolConfig::default()
        };
        let stage = ctx.stage("protocol.journey");
        let split = run_protected_journey_deferred(
            ctx.hosts,
            ctx.start().clone(),
            ctx.agent.clone(),
            &protocol,
            ctx.log,
            ctx.directory,
            &mut ctx.queue,
        )
        .map(|journey| {
            SplitVerdict::Pending(Box::new(PendingOwnerJourney {
                journey,
                queue: std::mem::take(&mut ctx.queue),
            }))
        });
        drop(stage);
        split.unwrap_or_else(|_| JourneyVerdict::clean(false).into())
    }
}

/// Vigna traces with an owner audit after the journey (§3.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecutionTraces;

impl ProtectionMechanism for ExecutionTraces {
    fn name(&self) -> &'static str {
        "traces"
    }

    fn description(&self) -> &'static str {
        "Vigna execution traces with an owner audit after the task (§3.3)"
    }

    fn profile(&self) -> MechanismProfile {
        MechanismProfile {
            moment: Some(CheckMoment::AfterTask),
            reference_data: ReferenceDataRequest::new()
                .with(ReferenceDataKind::InitialState)
                .with(ReferenceDataKind::Input)
                .with(ReferenceDataKind::ExecutionLog),
            topology: RouteTopology::Linear,
            uses_signatures: true,
        }
    }

    fn run_split(&self, ctx: &mut JourneyCtx<'_>) -> SplitVerdict {
        let program = ctx.agent.program.clone();
        let forward = ctx.stage("traces.forward");
        let journey = run_traced_journey(
            ctx.hosts,
            ctx.start().clone(),
            ctx.agent.clone(),
            &ctx.config.exec,
            ctx.log,
            ctx.config.max_hops,
        );
        drop(forward);
        match journey {
            Ok(journey) => {
                let _audit = ctx.stage("traces.audit");
                let report = audit_journey(
                    &journey,
                    &program,
                    ctx.directory,
                    &ctx.config.exec,
                    ctx.log,
                    &ctx.pipeline,
                );
                match report.culprit {
                    Some(culprit) => JourneyVerdict::accusing(vec![culprit], true),
                    None => JourneyVerdict::clean(true),
                }
            }
            Err(_) => JourneyVerdict::clean(false),
        }
        .into()
    }
}

/// Server replication (§3.2, Minsky et al.): every stage executes on a
/// set of replicas whose voted majority seeds the next stage.
///
/// The only built-in mechanism whose profile declares
/// [`RouteTopology::ReplicatedStages`] — it changes the *topology*, not
/// just the checking discipline, so it runs only scenarios that provide
/// [`crate::replication::StageSpec`]s (the fleet's `replicated` preset,
/// the matrix's standard staged scenario). Dissenting replicas are the
/// accused; a stage without a majority ends the journey undetected but
/// uncompleted.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicatedStages;

impl ProtectionMechanism for ReplicatedStages {
    fn name(&self) -> &'static str {
        "replication"
    }

    fn description(&self) -> &'static str {
        "server replication: staged replica execution with majority voting (§3.2)"
    }

    fn profile(&self) -> MechanismProfile {
        MechanismProfile {
            moment: Some(CheckMoment::AfterSession),
            reference_data: ReferenceDataRequest::new()
                .with(ReferenceDataKind::ResultingState)
                .with(ReferenceDataKind::Resources),
            topology: RouteTopology::ReplicatedStages,
            uses_signatures: false,
        }
    }

    fn run_split(&self, ctx: &mut JourneyCtx<'_>) -> SplitVerdict {
        let Some(stages) = ctx.stages.clone() else {
            // Engines check the profile first; a stage-less context is an
            // infrastructure failure, not a panic.
            return JourneyVerdict::clean(false).into();
        };
        match run_replicated_pipeline(
            ctx.hosts,
            &stages,
            ctx.agent.clone(),
            &ctx.config.exec,
            ctx.log,
            &ctx.pipeline,
        ) {
            Ok(outcome) => {
                let completed = outcome.final_state.is_some();
                if outcome.suspects.is_empty() {
                    // No majority and no dissenters is a degenerate stage;
                    // count it as an infrastructure failure.
                    JourneyVerdict::clean(completed)
                } else {
                    JourneyVerdict::accusing(outcome.suspects, completed)
                }
            }
            Err(_) => JourneyVerdict::clean(false),
        }
        .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{protocol_verdict, MechanismConfig, MechanismRegistry};
    use crate::replication::StageSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use refstate_core::protocol::{host_directory, run_protected_journey};
    use refstate_crypto::DsaParams;
    use refstate_platform::{AgentImage, Attack, Event, EventLog, Host, HostId, HostSpec};
    use refstate_vm::{assemble, DataState, Value};

    fn three_host_agent() -> AgentImage {
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
        AgentImage::new("adapter-test", program, state)
    }

    /// Three-host route a → b → c with replicas b1/b2 so the replicated
    /// mechanism can run the same scenario.
    fn hosts(middle_attack: Option<Attack>) -> Vec<Host> {
        let mut rng = StdRng::seed_from_u64(77);
        let params = DsaParams::test_group_256();
        let mut b = HostSpec::new("b").with_input("n", Value::Int(20));
        if let Some(a) = middle_attack {
            b = b.malicious(a);
        }
        Host::build_all(
            vec![
                HostSpec::new("a").trusted().with_input("n", Value::Int(10)),
                b,
                HostSpec::new("b1").with_input("n", Value::Int(20)),
                HostSpec::new("b2").with_input("n", Value::Int(20)),
                HostSpec::new("c").trusted().with_input("n", Value::Int(30)),
            ],
            &params,
            &mut rng,
        )
    }

    fn run(mechanism: &dyn ProtectionMechanism, attack: Option<Attack>) -> JourneyVerdict {
        let mut hs = hosts(attack);
        let directory = host_directory(&hs);
        let config = MechanismConfig::default();
        let log = EventLog::new();
        let route = vec![HostId::new("a"), HostId::new("b"), HostId::new("c")];
        let mut ctx = JourneyCtx::new(
            &mut hs,
            route,
            three_host_agent(),
            &directory,
            &config,
            &log,
            9,
            Arc::default(),
        )
        .with_stages(vec![
            StageSpec::new(["a"]),
            StageSpec::new(["b", "b1", "b2"]),
            StageSpec::new(["c"]),
        ]);
        mechanism.run(&mut ctx)
    }

    #[test]
    fn every_mechanism_passes_honest_run() {
        for mechanism in MechanismRegistry::builtin().iter() {
            let verdict = run(mechanism.as_ref(), None);
            assert!(!verdict.detected, "{} false-positived", mechanism.name());
            assert!(verdict.accused.is_empty());
            assert!(verdict.completed, "{} did not complete", mechanism.name());
        }
    }

    #[test]
    fn checking_mechanisms_catch_and_attribute_tampering() {
        let registry = MechanismRegistry::builtin();
        for name in [
            "framework",
            "protocol",
            "traces",
            "replication",
            "cooperating",
        ] {
            let mechanism = registry.get(name).expect("built in");
            let verdict = run(
                mechanism.as_ref(),
                Some(Attack::TamperVariable {
                    name: "total".into(),
                    value: Value::Int(-9),
                }),
            );
            assert!(verdict.detected, "{name} missed the tampering");
            assert_eq!(
                verdict.accused,
                vec![HostId::new("b")],
                "{name} blamed wrong"
            );
        }
    }

    #[test]
    fn unprotected_never_detects() {
        let verdict = run(
            &Unprotected,
            Some(Attack::TamperVariable {
                name: "total".into(),
                value: Value::Int(-9),
            }),
        );
        assert!(!verdict.detected);
        assert!(verdict.completed);
    }

    #[test]
    fn protocol_deferred_and_eager_verdicts_agree() {
        let tamperer = || {
            hosts(Some(Attack::TamperVariable {
                name: "total".into(),
                value: Value::Int(-9),
            }))
        };
        let config = MechanismConfig::default();
        let mut hs = tamperer();
        let directory = host_directory(&hs);
        let log = EventLog::new();
        let route = vec![HostId::new("a"), HostId::new("b"), HostId::new("c")];
        let mut ctx = JourneyCtx::new(
            &mut hs,
            route,
            three_host_agent(),
            &directory,
            &config,
            &log,
            9,
            Arc::default(),
        );
        let deferred = SessionCheckingProtocol.run(&mut ctx);
        assert!(ctx.queue.is_empty(), "the batched run drains its queue");

        // The paper's eager protocol, every certificate verified on
        // arrival, over identical hosts.
        let protocol = ProtocolConfig {
            exec: config.exec.clone(),
            max_hops: config.max_hops,
            ..ProtocolConfig::default()
        };
        let eager = run_protected_journey(
            &mut tamperer(),
            "a",
            three_host_agent(),
            &protocol,
            &EventLog::new(),
        )
        .unwrap();
        assert_eq!(deferred, protocol_verdict(&eager));
        assert!(deferred.detected);
        assert_eq!(deferred.accused, vec![HostId::new("b")]);
    }

    #[test]
    fn split_and_batch_settle_match_inline_run() {
        use crate::api::settle;
        use std::sync::Arc;

        // Three protocol journeys: honest, mid-route tamperer, and a
        // rule-preserving tamperer. Splitting the owner side out and
        // settling all three in one batch, with a settled verdict between
        // them, must reproduce the inline verdicts in input order.
        let attacks: Vec<Option<Attack>> = vec![
            None,
            Some(Attack::TamperVariable {
                name: "total".into(),
                value: Value::Int(-5),
            }),
            Some(Attack::TamperVariable {
                name: "total".into(),
                value: Value::Int(1),
            }),
        ];
        let config = MechanismConfig::default();
        let route = || vec![HostId::new("a"), HostId::new("b"), HostId::new("c")];

        let mut inline: Vec<JourneyVerdict> = attacks
            .iter()
            .map(|attack| {
                let mut hs = hosts(attack.clone());
                let directory = host_directory(&hs);
                let log = EventLog::new();
                let mut ctx = JourneyCtx::new(
                    &mut hs,
                    route(),
                    three_host_agent(),
                    &directory,
                    &config,
                    &log,
                    9,
                    Arc::default(),
                );
                SessionCheckingProtocol.run(&mut ctx)
            })
            .collect();

        let log = EventLog::new();
        let pipeline = Arc::new(refstate_core::VerificationPipeline::new());
        let mut host_sets: Vec<Vec<Host>> = attacks.iter().map(|a| hosts(a.clone())).collect();
        // Identical reseeding: one directory covers every set.
        let directory = host_directory(&host_sets[0]);
        let mut splits = Vec::new();
        for (i, hs) in host_sets.iter_mut().enumerate() {
            let mut agent = three_host_agent();
            agent.id = refstate_platform::AgentId::new(format!("fleet-{i}"));
            let mut ctx = JourneyCtx::new(
                hs,
                route(),
                agent,
                &directory,
                &config,
                &log,
                9,
                pipeline.clone(),
            );
            let split = SessionCheckingProtocol.run_split(&mut ctx);
            assert!(
                matches!(split, SplitVerdict::Pending(_)),
                "journey ran, expected pending: {split:?}"
            );
            assert!(ctx.queue.is_empty(), "queue lifted into the pending");
            splits.push(split);
        }

        // Mechanisms without an owner-side phase settle in the split.
        let mut hs = hosts(None);
        let mut ctx = JourneyCtx::new(
            &mut hs,
            route(),
            three_host_agent(),
            &directory,
            &config,
            &log,
            9,
            Arc::default(),
        );
        let appraisal = match StateAppraisal.run_split(&mut ctx) {
            SplitVerdict::Settled(v) => v,
            SplitVerdict::Pending(_) => panic!("appraisal has no owner-side phase"),
        };
        assert!(!appraisal.detected);
        splits.insert(2, SplitVerdict::Settled(appraisal.clone()));
        inline.insert(2, appraisal);

        let (verdicts, stats) = settle(splits, &config, &pipeline, &log, &directory);
        assert_eq!(verdicts, inline);
        assert!(stats.flush_verifications > 0, "signatures were deferred");
        assert_eq!(stats.unattributed_failures, 0);
    }

    #[test]
    fn every_linear_mechanism_keeps_one_hop_budget() {
        // A runaway a <-> b ping-pong, and an agent bound for a host that
        // does not exist.
        let ping_pong = assemble(
            r#"
            load "at_b"
            jnz to_a
            push true
            store "at_b"
            push "b"
            migrate
        to_a:
            push false
            store "at_b"
            push "a"
            migrate
        "#,
        )
        .unwrap();
        let mut state = DataState::new();
        state.set("at_b", Value::Bool(false));
        // Keeps the default appraisal rules satisfied.
        state.set("total", Value::Int(0));
        let runaway = AgentImage::new("runaway", ping_pong, state.clone());
        let lost = assemble("push \"nowhere\"\nmigrate").unwrap();
        let lost = AgentImage::new("lost", lost, state);
        let config = MechanismConfig {
            max_hops: 5,
            ..MechanismConfig::default()
        };
        let registry = MechanismRegistry::builtin();
        for mechanism in registry.iter().filter(|m| m.name() != "replication") {
            for (agent, sessions) in [(&runaway, 5), (&lost, 1)] {
                let mut hs = hosts(None);
                let directory = host_directory(&hs);
                let log = EventLog::new();
                let route = vec![HostId::new("a"), HostId::new("b"), HostId::new("c")];
                let mut ctx = JourneyCtx::new(
                    &mut hs,
                    route,
                    agent.clone(),
                    &directory,
                    &config,
                    &log,
                    9,
                    Arc::default(),
                );
                let verdict = mechanism.run(&mut ctx);
                let case = format!("{} / {}", mechanism.name(), agent.id);
                assert!(
                    verdict.infra_error && !verdict.detected,
                    "{case}: {verdict:?}"
                );
                let started = log.count_matching(|e| matches!(e, Event::SessionStarted { .. }));
                assert_eq!(started, sessions, "{case}");
                assert!(
                    !log.render().contains("nowhere"),
                    "{case}:\n{}",
                    log.render()
                );
            }
        }
    }

    #[test]
    fn replication_without_stages_is_an_infra_error_not_a_panic() {
        let mut hs = hosts(None);
        let directory = host_directory(&hs);
        let config = MechanismConfig::default();
        let log = EventLog::new();
        let route = vec![HostId::new("a"), HostId::new("b"), HostId::new("c")];
        let mut ctx = JourneyCtx::new(
            &mut hs,
            route,
            three_host_agent(),
            &directory,
            &config,
            &log,
            9,
            Arc::default(),
        );
        let verdict = ReplicatedStages.run(&mut ctx);
        assert!(!verdict.detected);
        assert!(verdict.infra_error);
    }
}
