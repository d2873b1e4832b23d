//! The unified verification pipeline: one entry point for every
//! reference-state re-execution.
//!
//! The paper's core loop — recompute a reference state from a recorded
//! input log and compare (Sec. 4) — was, before this module, written four
//! times: in [`crate::checker::ReExecutionChecker`], in
//! [`crate::protocol`]'s per-hop arrival check, in the owner-side final
//! check, and in the traces mechanism's audit.
//!
//! [`VerificationPipeline`] collapses those call sites into one:
//!
//! * re-execution goes through the VM's pre-compiled fast path
//!   ([`refstate_vm::run_compiled_session`] over
//!   [`Program::compiled`]),
//! * a session check replays once and compares the claimed state with
//!   the replayed one directly; only a mismatch pays for the digests its
//!   failure report carries,
//! * every replay is counted in [`PipelineStats`], so fleet reports can
//!   show what checking cost (the paper's "computation is roughly
//!   doubled", Sec. 5.3).
//!
//! [`VerificationPipeline::replay`] reduces a session to a
//! [`ReplaySummary`] — the reference state's digest, the session end and
//! the log-consumption flag — for callers that compare against a digest
//! someone committed to (traces, replication).

use std::sync::atomic::{AtomicU64, Ordering};

use refstate_crypto::{sha256, Digest};
use refstate_telemetry as telemetry;
use refstate_vm::{
    run_compiled_session, DataState, ExecConfig, InputLog, Program, ReplayIo, SessionEnd,
    SessionOutcome, VmError,
};
use refstate_wire::to_wire;

use crate::checker::{state_diff, CheckOutcome, FailureReason};

/// What one replayed session reduced to: the reference state's digest,
/// for callers that compare it with a digest someone committed to, and
/// no state to keep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplaySummary {
    /// The re-execution completed.
    Ok {
        /// SHA-256 of the reference state's canonical encoding.
        state_digest: Digest,
        /// How the reference execution ended.
        end: SessionEnd,
        /// Whether the replay consumed the entire recorded input log
        /// (`false` = padded log; callers decide whether that is a
        /// failure — the checker says yes, the Vigna audit historically
        /// ignores it).
        log_consumed: bool,
    },
    /// The re-execution itself failed (tampered log, broken code),
    /// rendered.
    Failed(String),
}

/// Monotone counters of one pipeline's work. Shared across every clone of
/// the pipeline handle, so a fleet run reads one aggregate at the end.
#[derive(Debug, Default)]
pub struct PipelineStats {
    summaries: AtomicU64,
    replays: AtomicU64,
}

/// A point-in-time copy of [`PipelineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStatsSnapshot {
    /// Always 0: nothing memoizes a replay. The field survives, with
    /// `misses`, only because the benchmark still reads both for its
    /// informational hit-rate row; it goes when that row does.
    pub hits: u64,
    /// [`VerificationPipeline::replay`] calls (digest summaries). Kept
    /// next to `hits` for the same reader.
    pub misses: u64,
    /// All VM re-executions performed: every summary, session check and
    /// full replay.
    pub replays: u64,
}

/// The one verification pipeline every re-execution-based check funnels
/// through: the compiled fast path plus replay counting.
///
/// Cheap to share: drivers hold it as `Arc<VerificationPipeline>` and
/// hand clones to checkers, protocol configs, and journey contexts, so
/// one run reads one set of counters.
#[derive(Debug, Default)]
pub struct VerificationPipeline {
    stats: PipelineStats,
}

impl VerificationPipeline {
    /// A pipeline with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters so far.
    pub fn snapshot(&self) -> PipelineStatsSnapshot {
        PipelineStatsSnapshot {
            hits: 0,
            misses: self.stats.summaries.load(Ordering::Relaxed),
            replays: self.stats.replays.load(Ordering::Relaxed),
        }
    }

    /// Replays one session and reduces it to the reference-state digest,
    /// the session end, and whether the log was fully consumed.
    ///
    /// Replays run the compiled VM loop with outputs suppressed and
    /// tracing off.
    pub fn replay(
        &self,
        program: &Program,
        initial: &DataState,
        input: &InputLog,
        exec: &ExecConfig,
    ) -> ReplaySummary {
        self.stats.summaries.fetch_add(1, Ordering::Relaxed);
        match self.replay_full(program, initial, input, exec) {
            Ok((outcome, log_consumed)) => ReplaySummary::Ok {
                state_digest: sha256(&to_wire(&outcome.state)),
                end: outcome.end,
                log_consumed,
            },
            Err(e) => ReplaySummary::Failed(e.to_string()),
        }
    }

    /// Replays one session and returns the full outcome — the entry
    /// point for custom state comparators and for fraud evidence, which
    /// need the reference *state*, not its digest.
    ///
    /// # Errors
    ///
    /// Propagates the replay's [`VmError`].
    pub fn replay_full(
        &self,
        program: &Program,
        initial: &DataState,
        input: &InputLog,
        exec: &ExecConfig,
    ) -> Result<(SessionOutcome, bool), VmError> {
        self.stats.replays.fetch_add(1, Ordering::Relaxed);
        telemetry::count("pipeline.replay", 1);
        let timer = telemetry::Timer::start();
        let mut replay = ReplayIo::new(input);
        let exec = ExecConfig {
            trace_mode: refstate_vm::TraceMode::Off,
            ..exec.clone()
        };
        let result = run_compiled_session(&program.compiled(), initial.clone(), &mut replay, &exec);
        timer.finish("verify.replay", "pipeline");
        let outcome = result?;
        Ok((outcome, replay.fully_consumed()))
    }

    /// Re-derives the full reference state of a session (for diffing and
    /// fraud evidence); `None` when the replay fails.
    pub fn reference_state(
        &self,
        program: &Program,
        initial: &DataState,
        input: &InputLog,
        exec: &ExecConfig,
    ) -> Option<DataState> {
        self.replay_full(program, initial, input, exec)
            .ok()
            .map(|(outcome, _)| outcome.state)
    }

    /// The full exact-comparison session check: replay once, compare
    /// the claimed resulting state with the replayed one, and optionally
    /// compare the claimed session end; a state mismatch carries both
    /// digests and the variable-level diff.
    ///
    /// `claimed_next` follows the checker convention: `None` skips the
    /// end check; `Some(None)` claims a halt; `Some(Some(host))` claims a
    /// migration.
    pub fn verify_session(
        &self,
        program: &Program,
        initial: &DataState,
        claimed: &DataState,
        input: &InputLog,
        claimed_next: Option<&Option<String>>,
        exec: &ExecConfig,
    ) -> CheckOutcome {
        self.verify_session_with_reference(program, initial, claimed, input, claimed_next, exec)
            .0
    }

    /// [`VerificationPipeline::verify_session`] that also hands back the
    /// replayed reference state when the check fails on the state or the
    /// end, so fraud-evidence builders do not replay the session a second
    /// time. `None` on a pass, and for failures where no reference state
    /// exists (failed replays, padded logs).
    pub fn verify_session_with_reference(
        &self,
        program: &Program,
        initial: &DataState,
        claimed: &DataState,
        input: &InputLog,
        claimed_next: Option<&Option<String>>,
        exec: &ExecConfig,
    ) -> (CheckOutcome, Option<DataState>) {
        let _span = telemetry::span("verify.session", "pipeline");
        let (outcome, log_consumed) = match self.replay_full(program, initial, input, exec) {
            Ok(result) => result,
            Err(e) => {
                return (
                    CheckOutcome::Failed(FailureReason::ReplayFailed {
                        error: e.to_string(),
                    }),
                    None,
                )
            }
        };
        if !log_consumed {
            return (padded_log_failure(), None);
        }
        if claimed != &outcome.state {
            return (
                CheckOutcome::Failed(FailureReason::StateMismatch {
                    claimed: sha256(&to_wire(claimed)),
                    reference: sha256(&to_wire(&outcome.state)),
                    diff: state_diff(claimed, &outcome.state),
                }),
                Some(outcome.state),
            );
        }
        if let Some(failure) = end_mismatch(claimed_next, &outcome.end) {
            return (failure, Some(outcome.state));
        }
        (CheckOutcome::Passed, None)
    }
}

/// The one place the padded-log policy lives: a log longer than the
/// program consumes is itself a lie about the session. Shared by
/// `verify_session` and the custom-comparator checker path.
pub(crate) fn padded_log_failure() -> CheckOutcome {
    CheckOutcome::Failed(FailureReason::ReplayFailed {
        error: VmError::ReplayMismatch {
            pc: 0,
            detail: "recorded input log longer than the re-execution consumed".into(),
        }
        .to_string(),
    })
}

/// The one place the end-check convention lives: `None` skips the check;
/// `Some(None)` claims a halt; `Some(Some(host))` claims a migration.
pub(crate) fn end_mismatch(
    claimed_next: Option<&Option<String>>,
    reference_end: &SessionEnd,
) -> Option<CheckOutcome> {
    let claimed_next = claimed_next?;
    let reference_next = match reference_end {
        SessionEnd::Migrate(h) => Some(h.clone()),
        SessionEnd::Halt => None,
    };
    if claimed_next != &reference_next {
        return Some(CheckOutcome::Failed(FailureReason::EndMismatch {
            claimed: claimed_next.clone(),
            reference: reference_next,
        }));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use refstate_vm::{assemble, run_session, ScriptedIo, Value};

    /// One honest session of the doubling agent: (program, initial,
    /// input log, resulting state).
    fn session() -> (Program, DataState, InputLog, DataState) {
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
        (program, initial, outcome.input_log, outcome.state)
    }

    #[test]
    fn pipeline_replays_every_time() {
        let (program, initial, input, _resulting) = session();
        let pipeline = VerificationPipeline::new();
        let exec = ExecConfig::default();
        pipeline.replay(&program, &initial, &input, &exec);
        pipeline.replay(&program, &initial, &input, &exec);
        let stats = pipeline.snapshot();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.replays, 2);
    }

    #[test]
    fn verify_session_passes_honest_and_diffs_tampered() {
        let (program, initial, input, resulting) = session();
        let pipeline = VerificationPipeline::new();
        let exec = ExecConfig::default();
        assert_eq!(
            pipeline.verify_session(&program, &initial, &resulting, &input, Some(&None), &exec),
            CheckOutcome::Passed
        );
        let mut tampered = resulting.clone();
        tampered.set("double", Value::Int(9999));
        match pipeline.verify_session(&program, &initial, &tampered, &input, Some(&None), &exec) {
            CheckOutcome::Failed(FailureReason::StateMismatch { diff, .. }) => {
                assert_eq!(diff, vec![("double".into(), "9999".into(), "100".into())]);
            }
            other => panic!("expected StateMismatch, got {other:?}"),
        }
        // Wrong claimed end: state matches, end does not.
        match pipeline.verify_session(
            &program,
            &initial,
            &resulting,
            &input,
            Some(&Some("mallory".into())),
            &exec,
        ) {
            CheckOutcome::Failed(FailureReason::EndMismatch { claimed, reference }) => {
                assert_eq!(claimed, Some("mallory".into()));
                assert_eq!(reference, None);
            }
            other => panic!("expected EndMismatch, got {other:?}"),
        }
    }

    #[test]
    fn verify_session_flags_padded_log() {
        use refstate_vm::{InputKind, InputRecord};
        let (program, initial, input, resulting) = session();
        let padded: InputLog = input
            .records()
            .iter()
            .cloned()
            .chain([InputRecord {
                pc: 99,
                kind: InputKind::Tagged("price".into()),
                value: Value::Int(1),
            }])
            .collect();
        let pipeline = VerificationPipeline::new();
        assert!(matches!(
            pipeline.verify_session(
                &program,
                &initial,
                &resulting,
                &padded,
                None,
                &ExecConfig::default()
            ),
            CheckOutcome::Failed(FailureReason::ReplayFailed { .. })
        ));
    }
}
