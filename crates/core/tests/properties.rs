//! Property tests for the owner-side re-execution check: every session of
//! a random mix of passing, failing, and erroring sessions gets the
//! judgment its mode calls for.

use proptest::prelude::*;
use refstate_core::{
    CheckContext, CheckOutcome, CheckingAlgorithm, FailureReason, ReExecutionChecker, ReferenceData,
};
use refstate_vm::{
    assemble, run_session, DataState, ExecConfig, InputKind, InputRecord, Program, ScriptedIo,
    Value,
};

/// What one generated session should do under the checker.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SessionMode {
    /// Honest record: the check passes.
    Pass,
    /// Tampered resulting state: `StateMismatch`.
    Fail,
    /// Padded input log: the replay itself errors (`ReplayFailed`).
    Error,
}

/// One honest run of the doubling agent, then the mode's corruption.
fn session_data(mode: SessionMode, salt: i64) -> (Program, ReferenceData) {
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
    io.push_input("price", Value::Int(50 + salt));
    let initial = DataState::new();
    let outcome = run_session(&program, initial.clone(), &mut io, &ExecConfig::default()).unwrap();
    let mut resulting = outcome.state.clone();
    let mut input = outcome.input_log.clone();
    match mode {
        SessionMode::Pass => {}
        SessionMode::Fail => {
            resulting.set("double", Value::Int(-1000 - salt));
        }
        SessionMode::Error => {
            input.record(InputRecord {
                pc: 99,
                kind: InputKind::Tagged("price".into()),
                value: Value::Int(salt),
            });
        }
    }
    let data = ReferenceData {
        initial_state: Some(initial),
        resulting_state: Some(resulting),
        input: Some(input),
        execution_log: Some(outcome.trace.clone()),
        resources: None,
        claimed_next: Some(None),
    };
    (program, data)
}

fn mode_of(draw: u8) -> SessionMode {
    match draw % 3 {
        0 => SessionMode::Pass,
        1 => SessionMode::Fail,
        _ => SessionMode::Error,
    }
}

proptest! {
    /// Random mixed pass/fail/error batches, checked session by session
    /// in order: each outcome must match its session's mode.
    #[test]
    fn reexecution_judges_mixed_batches_by_mode(
        draws in proptest::collection::vec(any::<u8>(), 1..14),
    ) {
        let modes: Vec<SessionMode> = draws.iter().map(|&d| mode_of(d)).collect();
        let checker = ReExecutionChecker::new();
        for (i, &mode) in modes.iter().enumerate() {
            let (program, data) = session_data(mode, i as i64);
            let outcome = checker.check(&CheckContext {
                program: &program,
                data: &data,
                exec: ExecConfig::default(),
            });
            let matches_mode = match mode {
                SessionMode::Pass => outcome.passed(),
                SessionMode::Fail => matches!(
                    outcome,
                    CheckOutcome::Failed(FailureReason::StateMismatch { .. })
                ),
                SessionMode::Error => matches!(
                    outcome,
                    CheckOutcome::Failed(FailureReason::ReplayFailed { .. })
                ),
            };
            prop_assert!(matches_mode, "session {} ({:?}) judged {:?}", i, mode, outcome);
        }
    }
}
