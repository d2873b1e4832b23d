//! The session I/O boundary: where all nondeterminism enters an execution.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::error::VmError;
use crate::instr::SyscallKind;
use crate::log::{InputKind, InputLog};
use crate::value::Value;

/// The interface through which an executing agent receives external values
/// and emits messages.
///
/// Every method except [`SessionIo::send`] is *input-class*: its results are
/// recorded by the interpreter into the session's [`InputLog`], which is
/// exactly the reference data that makes deterministic re-execution
/// possible.
pub trait SessionIo {
    /// Supplies the next value for `input <tag>`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InputUnavailable`] if no value is available.
    fn input(&mut self, pc: usize, tag: &str) -> Result<Value, VmError>;

    /// Supplies the result of a host service call.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InputUnavailable`] if the host refuses the call.
    fn syscall(&mut self, pc: usize, kind: SyscallKind) -> Result<Value, VmError>;

    /// Supplies the next message from `partner` for `recv <partner>`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InputUnavailable`] if no message is pending.
    fn recv(&mut self, pc: usize, partner: &str) -> Result<Value, VmError>;

    /// Delivers a message the agent sent to `partner`.
    ///
    /// Implementations used for *re-execution* suppress delivery (the
    /// paper's framework: "output actions can be suppressed as they are not
    /// needed for checking").
    ///
    /// # Errors
    ///
    /// Live implementations may fail when the partner is unreachable.
    fn send(&mut self, pc: usize, partner: &str, value: Value) -> Result<(), VmError>;
}

/// Scripted I/O for live sessions and tests: per-tag input queues,
/// deterministic syscall scripts, per-partner message queues, and a capture
/// buffer for sends.
///
/// # Examples
///
/// ```
/// use refstate_vm::{ScriptedIo, SessionIo, Value};
///
/// let mut io = ScriptedIo::new();
/// io.push_input("price", Value::Int(100));
/// let v = io.input(0, "price")?;
/// assert_eq!(v, Value::Int(100));
/// assert!(io.input(1, "price").is_err()); // queue exhausted
/// # Ok::<(), refstate_vm::VmError>(())
/// ```
#[derive(Debug, Default)]
pub struct ScriptedIo {
    inputs: BTreeMap<String, VecDeque<Value>>,
    messages: BTreeMap<String, VecDeque<Value>>,
    /// Scripted syscall results, consumed in order; when empty, a
    /// deterministic counter-based fallback is used.
    syscall_script: VecDeque<Value>,
    /// Fallback counters so time/random stay deterministic per session.
    clock: i64,
    sent: Vec<(String, Value)>,
}

impl ScriptedIo {
    /// Creates an I/O script with no queued values.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a value for `input <tag>`.
    pub fn push_input(&mut self, tag: impl Into<String>, value: Value) -> &mut Self {
        self.inputs.entry(tag.into()).or_default().push_back(value);
        self
    }

    /// Queues a message from `partner` for `recv <partner>`.
    pub fn push_message(&mut self, partner: impl Into<String>, value: Value) -> &mut Self {
        self.messages
            .entry(partner.into())
            .or_default()
            .push_back(value);
        self
    }

    /// Queues an explicit syscall result.
    pub fn push_syscall_result(&mut self, value: Value) -> &mut Self {
        self.syscall_script.push_back(value);
        self
    }

    /// Messages the agent sent during the session, in order.
    pub fn sent(&self) -> &[(String, Value)] {
        &self.sent
    }
}

impl SessionIo for ScriptedIo {
    fn input(&mut self, pc: usize, tag: &str) -> Result<Value, VmError> {
        self.inputs
            .get_mut(tag)
            .and_then(VecDeque::pop_front)
            .ok_or_else(|| VmError::InputUnavailable {
                pc,
                what: format!("input:{tag}"),
            })
    }

    fn syscall(&mut self, _pc: usize, kind: SyscallKind) -> Result<Value, VmError> {
        if let Some(v) = self.syscall_script.pop_front() {
            return Ok(v);
        }
        // Deterministic fallback: a monotone session clock and an LCG.
        self.clock += 1;
        Ok(match kind {
            SyscallKind::Time => Value::Int(1_000_000 + self.clock),
            SyscallKind::Random => {
                let x = (self.clock as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Value::Int((x >> 33) as i64)
            }
        })
    }

    fn recv(&mut self, pc: usize, partner: &str) -> Result<Value, VmError> {
        self.messages
            .get_mut(partner)
            .and_then(VecDeque::pop_front)
            .ok_or_else(|| VmError::InputUnavailable {
                pc,
                what: format!("recv:{partner}"),
            })
    }

    fn send(&mut self, _pc: usize, partner: &str, value: Value) -> Result<(), VmError> {
        self.sent.push((partner.to_owned(), value));
        Ok(())
    }
}

/// Replay I/O: feeds a recorded [`InputLog`] back to the interpreter and
/// suppresses sends.
///
/// This is the mechanism behind every re-execution-based check: the checking
/// host runs the agent again, the interpreter asks for inputs, and `ReplayIo`
/// answers from the log — verifying on the way that the log entry's *kind*
/// matches what the program actually requested (a host that recorded a
/// fabricated log fails here or produces a different resulting state).
#[derive(Debug)]
pub struct ReplayIo {
    records: Vec<(InputKind, Value)>,
    next: usize,
    suppressed_sends: Vec<(String, Value)>,
}

impl ReplayIo {
    /// Creates a replayer over a recorded input log.
    pub fn new(log: &InputLog) -> Self {
        ReplayIo {
            records: log
                .records()
                .iter()
                .map(|r| (r.kind.clone(), r.value.clone()))
                .collect(),
            next: 0,
            suppressed_sends: Vec::new(),
        }
    }

    /// The next recorded value, if its kind is the one the program
    /// requested: `requested(kind)` says whether it is, and `expected()`
    /// names the request, built only for an error.
    fn next_value(
        &mut self,
        pc: usize,
        requested: impl Fn(&InputKind) -> bool,
        expected: impl Fn() -> InputKind,
    ) -> Result<Value, VmError> {
        let (kind, value) =
            self.records
                .get(self.next)
                .ok_or_else(|| VmError::InputUnavailable {
                    pc,
                    what: format!("replay:{}", expected()),
                })?;
        if !requested(kind) {
            return Err(VmError::ReplayMismatch {
                pc,
                detail: format!("log records {kind}, program requested {}", expected()),
            });
        }
        self.next += 1;
        Ok(value.clone())
    }

    /// Returns `true` when every recorded input was consumed — a complete
    /// replay should end with an exhausted log.
    pub fn fully_consumed(&self) -> bool {
        self.next == self.records.len()
    }

    /// Messages the re-executed agent tried to send (suppressed, but kept
    /// for comparison against the original session's claims).
    pub fn suppressed_sends(&self) -> &[(String, Value)] {
        &self.suppressed_sends
    }
}

impl SessionIo for ReplayIo {
    fn input(&mut self, pc: usize, tag: &str) -> Result<Value, VmError> {
        self.next_value(
            pc,
            |kind| matches!(kind, InputKind::Tagged(t) if **t == *tag),
            || InputKind::Tagged(tag.into()),
        )
    }

    fn syscall(&mut self, pc: usize, kind: SyscallKind) -> Result<Value, VmError> {
        self.next_value(
            pc,
            |k| *k == InputKind::Syscall(kind),
            || InputKind::Syscall(kind),
        )
    }

    fn recv(&mut self, pc: usize, partner: &str) -> Result<Value, VmError> {
        self.next_value(
            pc,
            |kind| matches!(kind, InputKind::Message(p) if **p == *partner),
            || InputKind::Message(partner.into()),
        )
    }

    fn send(&mut self, _pc: usize, partner: &str, value: Value) -> Result<(), VmError> {
        self.suppressed_sends.push((partner.to_owned(), value));
        Ok(())
    }
}

/// I/O that refuses everything: for agents that must be pure.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullIo;

impl SessionIo for NullIo {
    fn input(&mut self, pc: usize, tag: &str) -> Result<Value, VmError> {
        Err(VmError::InputUnavailable {
            pc,
            what: format!("input:{tag}"),
        })
    }

    fn syscall(&mut self, pc: usize, kind: SyscallKind) -> Result<Value, VmError> {
        Err(VmError::InputUnavailable {
            pc,
            what: format!("syscall:{kind}"),
        })
    }

    fn recv(&mut self, pc: usize, partner: &str) -> Result<Value, VmError> {
        Err(VmError::InputUnavailable {
            pc,
            what: format!("recv:{partner}"),
        })
    }

    fn send(&mut self, pc: usize, partner: &str, _value: Value) -> Result<(), VmError> {
        Err(VmError::InputUnavailable {
            pc,
            what: format!("send:{partner}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::InputRecord;

    #[test]
    fn scripted_inputs_fifo_per_tag() {
        let mut io = ScriptedIo::new();
        io.push_input("a", Value::Int(1))
            .push_input("a", Value::Int(2))
            .push_input("b", Value::Int(3));
        assert_eq!(io.input(0, "a").unwrap(), Value::Int(1));
        assert_eq!(io.input(0, "b").unwrap(), Value::Int(3));
        assert_eq!(io.input(0, "a").unwrap(), Value::Int(2));
        assert!(io.input(0, "a").is_err());
    }

    #[test]
    fn scripted_syscalls_deterministic() {
        let mut a = ScriptedIo::new();
        let mut b = ScriptedIo::new();
        for _ in 0..5 {
            assert_eq!(
                a.syscall(0, SyscallKind::Random).unwrap(),
                b.syscall(0, SyscallKind::Random).unwrap()
            );
        }
        let t1 = a.syscall(0, SyscallKind::Time).unwrap().as_int().unwrap();
        let t2 = a.syscall(0, SyscallKind::Time).unwrap().as_int().unwrap();
        assert!(t2 > t1, "clock must be monotone");
    }

    #[test]
    fn scripted_syscall_script_takes_priority() {
        let mut io = ScriptedIo::new();
        io.push_syscall_result(Value::Int(42));
        assert_eq!(io.syscall(0, SyscallKind::Time).unwrap(), Value::Int(42));
    }

    #[test]
    fn scripted_send_captured() {
        let mut io = ScriptedIo::new();
        io.send(1, "bank", Value::Int(100)).unwrap();
        assert_eq!(io.sent(), &[("bank".to_string(), Value::Int(100))]);
    }

    #[test]
    fn replay_feeds_in_order_and_checks_kinds() {
        let log: InputLog = [
            InputRecord {
                pc: 0,
                kind: InputKind::Tagged("p".into()),
                value: Value::Int(1),
            },
            InputRecord {
                pc: 1,
                kind: InputKind::Syscall(SyscallKind::Time),
                value: Value::Int(50),
            },
        ]
        .into_iter()
        .collect();
        let mut io = ReplayIo::new(&log);
        assert_eq!(io.input(0, "p").unwrap(), Value::Int(1));
        assert!(!io.fully_consumed());
        assert_eq!(io.syscall(1, SyscallKind::Time).unwrap(), Value::Int(50));
        assert!(io.fully_consumed());
        assert!(io.input(2, "p").is_err());
    }

    #[test]
    fn replay_detects_kind_mismatch() {
        let log: InputLog = [InputRecord {
            pc: 0,
            kind: InputKind::Tagged("p".into()),
            value: Value::Int(1),
        }]
        .into_iter()
        .collect();
        let mut io = ReplayIo::new(&log);
        let err = io.recv(0, "partner").unwrap_err();
        assert!(matches!(err, VmError::ReplayMismatch { .. }));
    }

    #[test]
    fn replay_suppresses_sends() {
        let mut io = ReplayIo::new(&InputLog::new());
        io.send(3, "shop", Value::Str("buy".into())).unwrap();
        assert_eq!(io.suppressed_sends().len(), 1);
    }

    #[test]
    fn null_io_refuses_everything() {
        let mut io = NullIo;
        assert!(io.input(0, "x").is_err());
        assert!(io.syscall(0, SyscallKind::Time).is_err());
        assert!(io.recv(0, "p").is_err());
        assert!(io.send(0, "p", Value::Int(1)).is_err());
    }
}
