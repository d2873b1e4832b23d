//! Virtual-machine execution errors.

use std::error::Error;
use std::fmt;

/// An error raised during agent execution.
///
/// Errors carry the program counter at which they occurred so that a
/// checking host can report *where* a re-execution diverged.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VmError {
    /// The operand stack was empty when an instruction needed a value.
    StackUnderflow {
        /// Program counter of the failing instruction.
        pc: usize,
    },
    /// An operand had the wrong type.
    TypeMismatch {
        /// Program counter of the failing instruction.
        pc: usize,
        /// What the instruction expected.
        expected: &'static str,
        /// The type actually found.
        found: &'static str,
    },
    /// Integer division or modulo by zero.
    DivisionByZero {
        /// Program counter of the failing instruction.
        pc: usize,
    },
    /// A variable was loaded before being stored.
    UnknownVariable {
        /// Program counter of the failing instruction.
        pc: usize,
        /// The variable name.
        name: String,
    },
    /// A list index was out of bounds.
    IndexOutOfBounds {
        /// Program counter of the failing instruction.
        pc: usize,
        /// The requested index.
        index: i64,
        /// The list length.
        len: usize,
    },
    /// A jump or call target was outside the program.
    PcOutOfRange {
        /// The invalid target.
        target: usize,
        /// The program length.
        len: usize,
    },
    /// `ret` executed with an empty call stack.
    CallStackUnderflow {
        /// Program counter of the failing instruction.
        pc: usize,
    },
    /// The configured step limit was exceeded (runaway agent).
    StepLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// The session I/O could not supply a requested input.
    InputUnavailable {
        /// Program counter of the failing instruction.
        pc: usize,
        /// The input tag, syscall name, or partner.
        what: String,
    },
    /// Replay input did not match the recorded kind (tampered input log).
    ReplayMismatch {
        /// Program counter of the failing instruction.
        pc: usize,
        /// Description of the mismatch.
        detail: String,
    },
    /// The program ran off its end without `halt` or `migrate`.
    FellOffEnd,
}

impl VmError {
    /// The program counter associated with the error, when applicable.
    pub fn pc(&self) -> Option<usize> {
        match self {
            VmError::StackUnderflow { pc }
            | VmError::TypeMismatch { pc, .. }
            | VmError::DivisionByZero { pc }
            | VmError::UnknownVariable { pc, .. }
            | VmError::IndexOutOfBounds { pc, .. }
            | VmError::CallStackUnderflow { pc }
            | VmError::InputUnavailable { pc, .. }
            | VmError::ReplayMismatch { pc, .. } => Some(*pc),
            _ => None,
        }
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::StackUnderflow { pc } => write!(f, "stack underflow at pc {pc}"),
            VmError::TypeMismatch {
                pc,
                expected,
                found,
            } => {
                write!(
                    f,
                    "type mismatch at pc {pc}: expected {expected}, found {found}"
                )
            }
            VmError::DivisionByZero { pc } => write!(f, "division by zero at pc {pc}"),
            VmError::UnknownVariable { pc, name } => {
                write!(f, "unknown variable {name:?} at pc {pc}")
            }
            VmError::IndexOutOfBounds { pc, index, len } => {
                write!(
                    f,
                    "index {index} out of bounds for list of length {len} at pc {pc}"
                )
            }
            VmError::PcOutOfRange { target, len } => {
                write!(f, "jump target {target} outside program of length {len}")
            }
            VmError::CallStackUnderflow { pc } => {
                write!(f, "return with empty call stack at pc {pc}")
            }
            VmError::StepLimitExceeded { limit } => write!(f, "step limit of {limit} exceeded"),
            VmError::InputUnavailable { pc, what } => {
                write!(f, "input {what:?} unavailable at pc {pc}")
            }
            VmError::ReplayMismatch { pc, detail } => {
                write!(f, "replay mismatch at pc {pc}: {detail}")
            }
            VmError::FellOffEnd => f.write_str("program ended without halt or migrate"),
        }
    }
}

impl Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_extraction() {
        assert_eq!(VmError::StackUnderflow { pc: 3 }.pc(), Some(3));
        assert_eq!(VmError::FellOffEnd.pc(), None);
        assert_eq!(VmError::StepLimitExceeded { limit: 10 }.pc(), None);
    }

    #[test]
    fn step_limit_display_states_the_limit() {
        assert_eq!(
            VmError::StepLimitExceeded { limit: 10 }.to_string(),
            "step limit of 10 exceeded"
        );
    }

    #[test]
    fn display_mentions_location() {
        let e = VmError::TypeMismatch {
            pc: 7,
            expected: "int",
            found: "str",
        };
        let s = e.to_string();
        assert!(s.contains("pc 7") && s.contains("int") && s.contains("str"));
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<VmError>();
    }
}
