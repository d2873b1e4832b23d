//! State appraisal (Farmer, Guttman, Swarup — §3.1).
//!
//! "A 'state appraisal' mechanism … checks the validity of the state of an
//! agent as the first step of executing an agent arrived at a host. This
//! checking mechanism only considers the current state of the arrived
//! agent." The reference data is a rule set written by the programmer; the
//! check is performed by the *receiving* host in its own interest ("it
//! wants to execute only valid, i.e. untampered agents").
//!
//! Consequences the paper spells out, reproduced by the tests:
//!
//! * attacks the rules don't express pass undetected (the price-shopping
//!   example: without the inputs, a wrong minimum is unfalsifiable),
//! * a colluding receiving host can simply not check.

use std::ops::ControlFlow;

use refstate_core::rules::RuleSet;
use refstate_core::verdict::CheckVerdict;
use refstate_platform::{
    walk, AgentImage, Event, EventLog, Host, HostId, JourneyError, Leg, Visit,
};
use refstate_vm::{DataState, ExecConfig};

/// The outcome of a state-appraised journey.
#[derive(Debug)]
pub struct AppraisalOutcome {
    /// The agent's final data state.
    pub final_state: DataState,
    /// Hosts visited in order.
    pub path: Vec<HostId>,
    /// One verdict per arrival appraisal.
    pub verdicts: Vec<CheckVerdict>,
    /// `Some((culprit, detector))` when an appraisal failed; journey
    /// aborted there. The culprit is the *previous* host (the one that
    /// produced the rejected state) — appraisal can only blame the sender.
    pub rejection: Option<(HostId, HostId)>,
}

impl AppraisalOutcome {
    /// Returns `true` when every appraisal passed.
    pub fn clean(&self) -> bool {
        self.rejection.is_none()
    }
}

/// The appraisal's part of the itinerary: every receiving host that does
/// not collude appraises the arriving state against the rules.
struct Appraise<'a> {
    rules: &'a RuleSet,
    colluders: &'a [HostId],
    creation_state: DataState,
    log: &'a EventLog,
    verdicts: Vec<CheckVerdict>,
}

impl Leg for Appraise<'_> {
    /// `(culprit, detector)` of a rejected state.
    type Stop = (HostId, HostId);

    fn arrive(&mut self, visit: Visit<'_>) -> ControlFlow<(HostId, HostId)> {
        let (here, previous) = (visit.here(), visit.previous().expect("not the start host"));
        if self.colluders.contains(here) {
            return ControlFlow::Continue(());
        }
        let report = self
            .rules
            .evaluate(&self.creation_state, &visit.agent.state);
        let passed = report.passed();
        self.log.record(Event::CheckPerformed {
            checker: here.clone(),
            checked: previous.clone(),
            passed,
        });
        self.verdicts.push(CheckVerdict {
            checked: previous.clone(),
            checker: here.clone(),
            seq: visit.seq() - 1,
            failure: (!passed).then(|| refstate_core::FailureReason::RuleViolated {
                violations: report.violations.clone(),
            }),
        });
        if passed {
            return ControlFlow::Continue(());
        }
        self.log.record(Event::FraudDetected {
            culprit: previous.clone(),
            detector: here.clone(),
            reason: format!("{} appraisal rule(s) violated", report.violations.len()),
        });
        ControlFlow::Break((previous.clone(), here.clone()))
    }
}

/// Runs a journey in which every receiving host appraises the arriving
/// agent state against `rules` before executing it.
///
/// `colluders` lists hosts that skip the appraisal (the paper: "if the host
/// does not check the agent (e.g. because the host collaborates with the
/// attacking host), an attack against an agent cannot be detected").
///
/// # Errors
///
/// See [`JourneyError`]; the appraisal result is reported in the
/// outcome, not as an error.
#[allow(clippy::too_many_arguments)]
pub fn run_appraised_journey(
    hosts: &mut [Host],
    start: impl Into<HostId>,
    agent: AgentImage,
    rules: &RuleSet,
    colluders: &[HostId],
    exec: &ExecConfig,
    log: &EventLog,
    max_hops: usize,
) -> Result<AppraisalOutcome, JourneyError> {
    let mut leg = Appraise {
        rules,
        colluders,
        creation_state: agent.state.clone(),
        log,
        verdicts: Vec::new(),
    };
    let walk = walk(hosts, start, agent, exec, log, max_hops, &mut leg);
    let rejection = walk.result?;
    Ok(AppraisalOutcome {
        final_state: walk.image.state,
        path: walk.path,
        verdicts: leg.verdicts,
        rejection,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use refstate_core::rules::{CmpOp, Expr, Pred};
    use refstate_crypto::DsaParams;
    use refstate_platform::{Attack, HostSpec};
    use refstate_vm::{assemble, Value};

    /// Budget agent: spends an input amount per shop; invariant
    /// spent + rest == initial budget.
    fn budget_agent() -> AgentImage {
        let program = assemble(
            r#"
            input "cost"
            dup
            load "spent"
            add
            store "spent"
            load "rest"
            swap
            sub
            store "rest"
            load "hops"
            push 1
            add
            store "hops"
            load "hops"
            push 1
            eq
            jnz to_b
            load "hops"
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
        state.set("spent", Value::Int(0));
        state.set("rest", Value::Int(100));
        state.set("hops", Value::Int(0));
        AgentImage::new("budget", program, state)
    }

    fn money_rules() -> RuleSet {
        RuleSet::new().rule(
            "spent+rest=initial",
            Pred::cmp(
                CmpOp::Eq,
                Expr::Add(Box::new(Expr::var("spent")), Box::new(Expr::var("rest"))),
                Expr::initial("rest"),
            ),
        )
    }

    fn hosts(b_attack: Option<Attack>) -> Vec<Host> {
        let mut rng = StdRng::seed_from_u64(55);
        let params = DsaParams::test_group_256();
        let mut b = HostSpec::new("b").with_input("cost", Value::Int(20));
        if let Some(a) = b_attack {
            b = b.malicious(a);
        }
        vec![
            Host::new(
                HostSpec::new("a")
                    .trusted()
                    .with_input("cost", Value::Int(10)),
                &params,
                &mut rng,
            ),
            Host::new(b, &params, &mut rng),
            Host::new(
                HostSpec::new("c")
                    .trusted()
                    .with_input("cost", Value::Int(5)),
                &params,
                &mut rng,
            ),
        ]
    }

    #[test]
    fn honest_journey_passes_appraisal() {
        let mut hs = hosts(None);
        let log = EventLog::new();
        let outcome = run_appraised_journey(
            &mut hs,
            "a",
            budget_agent(),
            &money_rules(),
            &[],
            &ExecConfig::default(),
            &log,
            10,
        )
        .unwrap();
        assert!(outcome.clean());
        assert_eq!(outcome.final_state.get_int("spent"), Some(35));
        assert_eq!(outcome.final_state.get_int("rest"), Some(65));
        assert_eq!(outcome.verdicts.len(), 2);
    }

    #[test]
    fn invariant_breaking_theft_is_caught() {
        // The shop steals 15 from "rest" without booking it as spent.
        let mut hs = hosts(Some(Attack::TamperVariable {
            name: "rest".into(),
            value: Value::Int(55),
        }));
        let log = EventLog::new();
        let outcome = run_appraised_journey(
            &mut hs,
            "a",
            budget_agent(),
            &money_rules(),
            &[],
            &ExecConfig::default(),
            &log,
            10,
        )
        .unwrap();
        let (culprit, detector) = outcome.rejection.expect("appraisal fires");
        assert_eq!(culprit.as_str(), "b");
        assert_eq!(detector.as_str(), "c");
    }

    #[test]
    fn invariant_preserving_tampering_slips_through() {
        // The paper's §3.1 limitation: attacks the rules do not express
        // stay invisible (re-execution would catch them).
        let mut hs = hosts(Some(Attack::TamperVariable {
            name: "spent".into(),
            value: Value::Int(10),
        }));
        // A tamper the rules never mention — planting a bogus variable the
        // agent will carry home — is invisible to appraisal.
        let mut hs2 = hosts(Some(Attack::TamperVariable {
            name: "planted".into(),
            value: Value::Int(1),
        }));
        let log = EventLog::new();
        // The spent-only tamper breaks the invariant and is caught:
        let caught = run_appraised_journey(
            &mut hs,
            "a",
            budget_agent(),
            &money_rules(),
            &[],
            &ExecConfig::default(),
            &log,
            10,
        )
        .unwrap();
        assert!(!caught.clean());
        // The planted variable is invisible to the money rule — appraisal
        // stays silent and the agent carries the attacker's data home:
        let missed = run_appraised_journey(
            &mut hs2,
            "a",
            budget_agent(),
            &money_rules(),
            &[],
            &ExecConfig::default(),
            &log,
            10,
        )
        .unwrap();
        assert!(
            missed.clean(),
            "rules that don't mention a variable cannot protect it"
        );
        assert_eq!(missed.path.len(), 3);
        assert_eq!(missed.final_state.get_int("planted"), Some(1));
    }

    #[test]
    fn colluding_receiver_skips_the_check() {
        let mut hs = hosts(Some(Attack::TamperVariable {
            name: "rest".into(),
            value: Value::Int(0),
        }));
        let log = EventLog::new();
        let outcome = run_appraised_journey(
            &mut hs,
            "a",
            budget_agent(),
            &money_rules(),
            &[HostId::new("c")],
            &ExecConfig::default(),
            &log,
            10,
        )
        .unwrap();
        assert!(
            outcome.clean(),
            "a collaborating next host does not appraise — the §3.1 caveat"
        );
    }
}
