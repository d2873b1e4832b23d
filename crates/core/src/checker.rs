//! The checking-algorithm axis: rules, re-execution, and arbitrary
//! programs.
//!
//! (The fourth algorithm class of the paper — proofs — lives in
//! `refstate-mechanisms::proofs`, because it needs the Merkle-commitment
//! machinery; it implements the same [`CheckingAlgorithm`] trait.)

use std::fmt;
use std::sync::Arc;

use refstate_crypto::{sha256, Digest};
use refstate_vm::{DataState, ExecConfig, Program};
use refstate_wire::to_wire;

use crate::compare::{ExactCompare, StateCompare};
use crate::pipeline::VerificationPipeline;
use crate::refdata::{ReferenceData, ReferenceDataKind, ReferenceDataRequest};
use crate::rules::RuleSet;

/// Everything a checking algorithm gets to see.
#[derive(Debug, Clone)]
pub struct CheckContext<'a> {
    /// The agent's code (needed by re-execution; rules ignore it).
    pub program: &'a Program,
    /// The reference data supplied by the transport/host.
    pub data: &'a ReferenceData,
    /// Execution limits for any re-execution the check performs.
    pub exec: ExecConfig,
}

/// Why a check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FailureReason {
    /// A required piece of reference data was not supplied.
    MissingData {
        /// The missing kind.
        kind: ReferenceDataKind,
    },
    /// A rule was violated.
    RuleViolated {
        /// `(rule name, explanation)` pairs for every violated rule.
        violations: Vec<(String, String)>,
    },
    /// Re-execution produced a different resulting state.
    StateMismatch {
        /// Digest of the state the checked host claimed.
        claimed: Digest,
        /// Digest of the reference state the checker computed.
        reference: Digest,
        /// Variables that differ: `(name, claimed, reference)` rendered.
        diff: Vec<(String, String, String)>,
    },
    /// Re-execution ended differently (wrong migration target or halt).
    EndMismatch {
        /// What the checked host claimed (`None` = halt).
        claimed: Option<String>,
        /// What the reference execution decided.
        reference: Option<String>,
    },
    /// Re-execution itself failed (tampered input log, broken code).
    ReplayFailed {
        /// The VM error, rendered.
        error: String,
    },
    /// A proof failed to verify (used by the proofs mechanism).
    ProofInvalid {
        /// Explanation.
        detail: String,
    },
    /// An arbitrary-program check failed with its own explanation.
    ProgramRejected {
        /// Explanation.
        detail: String,
    },
}

impl fmt::Display for FailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureReason::MissingData { kind } => {
                write!(f, "required reference data missing: {kind}")
            }
            FailureReason::RuleViolated { violations } => {
                write!(f, "{} rule(s) violated", violations.len())?;
                if let Some((name, why)) = violations.first() {
                    write!(f, " (first: {name}: {why})")?;
                }
                Ok(())
            }
            FailureReason::StateMismatch {
                claimed,
                reference,
                diff,
            } => {
                write!(
                    f,
                    "resulting state {} differs from reference state {} in {} variable(s)",
                    claimed.short(),
                    reference.short(),
                    diff.len()
                )
            }
            FailureReason::EndMismatch { claimed, reference } => {
                write!(
                    f,
                    "session end differs: claimed {:?}, reference {:?}",
                    claimed, reference
                )
            }
            FailureReason::ReplayFailed { error } => write!(f, "re-execution failed: {error}"),
            FailureReason::ProofInvalid { detail } => write!(f, "proof invalid: {detail}"),
            FailureReason::ProgramRejected { detail } => {
                write!(f, "checking program rejected the session: {detail}")
            }
        }
    }
}

/// The result of one check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The session is consistent with reference behaviour.
    Passed,
    /// The session was manipulated (or the data was insufficient).
    Failed(FailureReason),
}

impl CheckOutcome {
    /// Returns `true` for [`CheckOutcome::Passed`].
    pub fn passed(&self) -> bool {
        matches!(self, CheckOutcome::Passed)
    }
}

/// A checking algorithm: one point on the paper's §3.5 algorithm axis.
///
/// Implementations declare the reference data they need (the paper's
/// requester interfaces) and judge a session from a [`CheckContext`].
pub trait CheckingAlgorithm: Send + Sync {
    /// The reference data this algorithm needs (its requester interfaces).
    fn required_data(&self) -> ReferenceDataRequest;

    /// Judges one session.
    fn check(&self, ctx: &CheckContext<'_>) -> CheckOutcome;

    /// A short name for reports and benches.
    fn name(&self) -> &'static str;
}

/// Hashes a state canonically.
pub(crate) fn state_digest(state: &DataState) -> Digest {
    sha256(&to_wire(state))
}

/// Renders the variable-level difference between two states.
pub(crate) fn state_diff(
    claimed: &DataState,
    reference: &DataState,
) -> Vec<(String, String, String)> {
    let mut diff = Vec::new();
    let names: std::collections::BTreeSet<&str> = claimed
        .iter()
        .map(|(k, _)| k)
        .chain(reference.iter().map(|(k, _)| k))
        .collect();
    for name in names {
        let c = claimed.get(name);
        let r = reference.get(name);
        if c != r {
            diff.push((
                name.to_owned(),
                c.map_or("<absent>".to_owned(), |v| v.to_string()),
                r.map_or("<absent>".to_owned(), |v| v.to_string()),
            ));
        }
    }
    diff
}

/// The "rules" algorithm: evaluate a [`RuleSet`] over initial and resulting
/// state. Cheap, but blind to anything the rules don't express (§3.1's
/// price-shopping example is untestable by rules alone).
#[derive(Debug, Clone)]
pub struct RuleChecker {
    rules: RuleSet,
}

impl RuleChecker {
    /// Wraps a rule set.
    pub fn new(rules: RuleSet) -> Self {
        RuleChecker { rules }
    }
}

impl CheckingAlgorithm for RuleChecker {
    fn required_data(&self) -> ReferenceDataRequest {
        ReferenceDataRequest::new()
            .with(ReferenceDataKind::InitialState)
            .with(ReferenceDataKind::ResultingState)
    }

    fn check(&self, ctx: &CheckContext<'_>) -> CheckOutcome {
        if let Some(kind) = ctx.data.first_missing(&self.required_data()) {
            return CheckOutcome::Failed(FailureReason::MissingData { kind });
        }
        let initial = ctx.data.initial_state.as_ref().expect("checked above");
        let resulting = ctx.data.resulting_state.as_ref().expect("checked above");
        let report = self.rules.evaluate(initial, resulting);
        if report.passed() {
            CheckOutcome::Passed
        } else {
            CheckOutcome::Failed(FailureReason::RuleViolated {
                violations: report.violations,
            })
        }
    }

    fn name(&self) -> &'static str {
        "rules"
    }
}

/// The "re-execution" algorithm: run the agent again from the initial state
/// with the recorded input, suppress outputs, and compare the resulting
/// state with a configurable comparator (§3.5).
///
/// Every check funnels through the [`VerificationPipeline`]: replays run
/// the compiled VM fast path and are counted there. A checker built
/// [`with_pipeline`](ReExecutionChecker::with_pipeline) counts into that
/// shared pipeline; the default checker carries a private one.
pub struct ReExecutionChecker {
    compare: Arc<dyn StateCompare + Send + Sync>,
    /// Also require the claimed migration target to match (defaults on).
    check_end: bool,
    /// `true` while the comparator is the default [`ExactCompare`], the
    /// comparison the pipeline's own session check makes.
    exact: bool,
    pipeline: Arc<VerificationPipeline>,
}

impl fmt::Debug for ReExecutionChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReExecutionChecker")
            .field("compare", &self.compare.name())
            .field("check_end", &self.check_end)
            .finish()
    }
}

impl Default for ReExecutionChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl ReExecutionChecker {
    /// Re-execution with exact state comparison.
    pub fn new() -> Self {
        ReExecutionChecker {
            compare: Arc::new(ExactCompare),
            check_end: true,
            exact: true,
            pipeline: Arc::new(VerificationPipeline::new()),
        }
    }

    /// Re-execution with a custom comparator (the framework's "compare
    /// method … specified by the agent programmer").
    ///
    /// Custom comparators judge the full reference *state* through the
    /// pipeline's full-replay path; the default exact comparison uses the
    /// pipeline's session check.
    pub fn with_compare(compare: Arc<dyn StateCompare + Send + Sync>) -> Self {
        ReExecutionChecker {
            compare,
            check_end: true,
            exact: false,
            pipeline: Arc::new(VerificationPipeline::new()),
        }
    }

    /// Routes this checker's replays through a shared pipeline, so they
    /// count toward its stats.
    pub fn with_pipeline(mut self, pipeline: Arc<VerificationPipeline>) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Disables the migration-target check.
    pub fn without_end_check(mut self) -> Self {
        self.check_end = false;
        self
    }
}

impl CheckingAlgorithm for ReExecutionChecker {
    fn required_data(&self) -> ReferenceDataRequest {
        ReferenceDataRequest::new()
            .with(ReferenceDataKind::InitialState)
            .with(ReferenceDataKind::ResultingState)
            .with(ReferenceDataKind::Input)
    }

    fn check(&self, ctx: &CheckContext<'_>) -> CheckOutcome {
        if let Some(kind) = ctx.data.first_missing(&self.required_data()) {
            return CheckOutcome::Failed(FailureReason::MissingData { kind });
        }
        let initial = ctx.data.initial_state.as_ref().expect("checked above");
        let claimed = ctx.data.resulting_state.as_ref().expect("checked above");
        let input = ctx.data.input.as_ref().expect("checked above");

        if self.exact {
            // The pipeline's session check: one replay, direct state
            // comparison.
            let claimed_next = if self.check_end {
                ctx.data.claimed_next.as_ref()
            } else {
                None
            };
            return self.pipeline.verify_session(
                ctx.program,
                initial,
                claimed,
                input,
                claimed_next,
                &ctx.exec,
            );
        }

        // Custom comparator: the full reference state is required.
        let (outcome, fully_consumed) =
            match self
                .pipeline
                .replay_full(ctx.program, initial, input, &ctx.exec)
            {
                Ok(result) => result,
                Err(e) => {
                    return CheckOutcome::Failed(FailureReason::ReplayFailed {
                        error: e.to_string(),
                    })
                }
            };
        if !fully_consumed {
            return crate::pipeline::padded_log_failure();
        }
        if !self.compare.equivalent(claimed, &outcome.state) {
            return CheckOutcome::Failed(FailureReason::StateMismatch {
                claimed: state_digest(claimed),
                reference: state_digest(&outcome.state),
                diff: state_diff(claimed, &outcome.state),
            });
        }
        let claimed_next = if self.check_end {
            ctx.data.claimed_next.as_ref()
        } else {
            None
        };
        if let Some(failure) = crate::pipeline::end_mismatch(claimed_next, &outcome.end) {
            return failure;
        }
        CheckOutcome::Passed
    }

    fn name(&self) -> &'static str {
        "re-execution"
    }
}

/// The "arbitrary program" algorithm: any closure over the check context —
/// "the most powerful algorithm as it includes the presented ones" (§3.5).
pub struct ProgramChecker {
    name: &'static str,
    required: ReferenceDataRequest,
    body: Arc<dyn Fn(&CheckContext<'_>) -> CheckOutcome + Send + Sync>,
}

impl fmt::Debug for ProgramChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgramChecker")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl ProgramChecker {
    /// Wraps a checking closure.
    pub fn new(
        name: &'static str,
        required: ReferenceDataRequest,
        body: impl Fn(&CheckContext<'_>) -> CheckOutcome + Send + Sync + 'static,
    ) -> Self {
        ProgramChecker {
            name,
            required,
            body: Arc::new(body),
        }
    }
}

impl CheckingAlgorithm for ProgramChecker {
    fn required_data(&self) -> ReferenceDataRequest {
        self.required
    }

    fn check(&self, ctx: &CheckContext<'_>) -> CheckOutcome {
        if let Some(kind) = ctx.data.first_missing(&self.required) {
            return CheckOutcome::Failed(FailureReason::MissingData { kind });
        }
        (self.body)(ctx)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{CmpOp, Expr, Pred};
    use refstate_vm::{assemble, run_session, ScriptedIo, Value};

    /// Runs the shopping program honestly and returns (program, data).
    fn session_data(tamper: Option<(&str, Value)>) -> (Program, ReferenceData) {
        let program = assemble(
            r#"
            input "price"
            store "quote"
            load "quote"
            push 2
            mul
            store "double"
            halt
        "#,
        )
        .unwrap();
        let mut io = ScriptedIo::new();
        io.push_input("price", Value::Int(50));
        let initial = DataState::new();
        let outcome =
            run_session(&program, initial.clone(), &mut io, &ExecConfig::default()).unwrap();
        let mut resulting = outcome.state.clone();
        if let Some((name, value)) = tamper {
            resulting.set(name, value);
        }
        let data = ReferenceData {
            initial_state: Some(initial),
            resulting_state: Some(resulting),
            input: Some(outcome.input_log.clone()),
            execution_log: Some(outcome.trace.clone()),
            resources: None,
            claimed_next: Some(None),
        };
        (program, data)
    }

    #[test]
    fn reexecution_passes_honest_session() {
        let (program, data) = session_data(None);
        let checker = ReExecutionChecker::new();
        let ctx = CheckContext {
            program: &program,
            data: &data,
            exec: ExecConfig::default(),
        };
        assert_eq!(checker.check(&ctx), CheckOutcome::Passed);
    }

    #[test]
    fn reexecution_catches_tampered_state() {
        let (program, data) = session_data(Some(("double", Value::Int(9999))));
        let checker = ReExecutionChecker::new();
        let ctx = CheckContext {
            program: &program,
            data: &data,
            exec: ExecConfig::default(),
        };
        let outcome = checker.check(&ctx);
        match outcome {
            CheckOutcome::Failed(FailureReason::StateMismatch { diff, .. }) => {
                assert_eq!(diff.len(), 1);
                assert_eq!(diff[0].0, "double");
                assert_eq!(diff[0].1, "9999");
                assert_eq!(diff[0].2, "100");
            }
            other => panic!("expected StateMismatch, got {other:?}"),
        }
    }

    #[test]
    fn reexecution_catches_wrong_migration_target() {
        let (program, mut data) = session_data(None);
        data.claimed_next = Some(Some("mallory".into()));
        let checker = ReExecutionChecker::new();
        let ctx = CheckContext {
            program: &program,
            data: &data,
            exec: ExecConfig::default(),
        };
        assert!(matches!(
            checker.check(&ctx),
            CheckOutcome::Failed(FailureReason::EndMismatch { .. })
        ));
        // Disabling the end check lets it pass.
        let lax = ReExecutionChecker::new().without_end_check();
        assert_eq!(lax.check(&ctx), CheckOutcome::Passed);
    }

    #[test]
    fn reexecution_detects_padded_input_log() {
        use refstate_vm::{InputKind, InputRecord};
        let (program, mut data) = session_data(None);
        let mut padded = data.input.clone().unwrap();
        padded.record(InputRecord {
            pc: 99,
            kind: InputKind::Tagged("price".into()),
            value: Value::Int(1),
        });
        data.input = Some(padded);
        let checker = ReExecutionChecker::new();
        let ctx = CheckContext {
            program: &program,
            data: &data,
            exec: ExecConfig::default(),
        };
        assert!(matches!(
            checker.check(&ctx),
            CheckOutcome::Failed(FailureReason::ReplayFailed { .. })
        ));
    }

    #[test]
    fn reexecution_reports_missing_data() {
        let (program, mut data) = session_data(None);
        data.input = None;
        let checker = ReExecutionChecker::new();
        let ctx = CheckContext {
            program: &program,
            data: &data,
            exec: ExecConfig::default(),
        };
        assert_eq!(
            checker.check(&ctx),
            CheckOutcome::Failed(FailureReason::MissingData {
                kind: ReferenceDataKind::Input
            })
        );
    }

    #[test]
    fn rule_checker_passes_and_fails() {
        let (program, data) = session_data(None);
        let good = RuleChecker::new(RuleSet::new().rule(
            "double-is-twice-quote",
            Pred::cmp(
                CmpOp::Eq,
                Expr::var("double"),
                Expr::Mul(Box::new(Expr::var("quote")), Box::new(Expr::int(2))),
            ),
        ));
        let ctx = CheckContext {
            program: &program,
            data: &data,
            exec: ExecConfig::default(),
        };
        assert_eq!(good.check(&ctx), CheckOutcome::Passed);
        assert_eq!(good.name(), "rules");

        // Rules that the tampering *preserves* cannot catch it: tamper both
        // variables consistently.
        let (program, data) = {
            let (p, mut d) = session_data(Some(("double", Value::Int(20))));
            let rs = d.resulting_state.as_mut().unwrap();
            rs.set("quote", Value::Int(10));
            (p, d)
        };
        let ctx = CheckContext {
            program: &program,
            data: &data,
            exec: ExecConfig::default(),
        };
        assert_eq!(
            good.check(&ctx),
            CheckOutcome::Passed,
            "consistent tampering slips past rules — the paper's point about their weakness"
        );
        // ... while re-execution still catches it.
        let reexec = ReExecutionChecker::new();
        assert!(!reexec.check(&ctx).passed());
    }

    #[test]
    fn program_checker_runs_closure() {
        let (program, data) = session_data(None);
        let checker = ProgramChecker::new(
            "quote-must-be-positive",
            ReferenceDataRequest::new().with(ReferenceDataKind::ResultingState),
            |ctx| {
                let state = ctx.data.resulting_state.as_ref().expect("required");
                if state.get_int("quote").unwrap_or(-1) > 0 {
                    CheckOutcome::Passed
                } else {
                    CheckOutcome::Failed(FailureReason::ProgramRejected {
                        detail: "quote missing or non-positive".into(),
                    })
                }
            },
        );
        let ctx = CheckContext {
            program: &program,
            data: &data,
            exec: ExecConfig::default(),
        };
        assert_eq!(checker.check(&ctx), CheckOutcome::Passed);

        let (program, data) = session_data(Some(("quote", Value::Int(-5))));
        let ctx = CheckContext {
            program: &program,
            data: &data,
            exec: ExecConfig::default(),
        };
        assert!(matches!(
            checker.check(&ctx),
            CheckOutcome::Failed(FailureReason::ProgramRejected { .. })
        ));
    }

    #[test]
    fn failure_reasons_render() {
        let r = FailureReason::MissingData {
            kind: ReferenceDataKind::Input,
        };
        assert!(r.to_string().contains("input"));
        let r = FailureReason::RuleViolated {
            violations: vec![("money".into(), "predicate is false".into())],
        };
        assert!(r.to_string().contains("money"));
        let r = FailureReason::EndMismatch {
            claimed: Some("x".into()),
            reference: None,
        };
        assert!(r.to_string().contains("differs"));
    }

    #[test]
    fn state_diff_reports_absences() {
        let a: DataState = [("x".to_string(), Value::Int(1))].into_iter().collect();
        let b: DataState = [("y".to_string(), Value::Int(2))].into_iter().collect();
        let diff = state_diff(&a, &b);
        assert_eq!(diff.len(), 2);
        assert_eq!(
            diff[0],
            ("x".to_string(), "1".to_string(), "<absent>".to_string())
        );
        assert_eq!(
            diff[1],
            ("y".to_string(), "<absent>".to_string(), "2".to_string())
        );
    }
}
