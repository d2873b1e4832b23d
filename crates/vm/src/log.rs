//! Input and output logs of an execution session.

use std::fmt;
use std::sync::Arc;

use refstate_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::instr::SyscallKind;
use crate::value::Value;

/// How a value entered the agent.
///
/// Tags and partner names are shared: the compiled program interns each
/// once, and a recorded input (and every clone of its log) points at the
/// program's copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputKind {
    /// `input <tag>` — data received via the current host.
    Tagged(Arc<str>),
    /// `syscall time` / `syscall random` — host service result.
    Syscall(SyscallKind),
    /// `recv <partner>` — a message from a communication partner.
    Message(Arc<str>),
}

impl fmt::Display for InputKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputKind::Tagged(tag) => write!(f, "input:{tag}"),
            InputKind::Syscall(k) => write!(f, "syscall:{k}"),
            InputKind::Message(p) => write!(f, "recv:{p}"),
        }
    }
}

impl Encode for InputKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            InputKind::Tagged(tag) => {
                w.put_u8(0);
                w.put_str(tag);
            }
            InputKind::Syscall(SyscallKind::Time) => w.put_u8(1),
            InputKind::Syscall(SyscallKind::Random) => w.put_u8(2),
            InputKind::Message(p) => {
                w.put_u8(3);
                w.put_str(p);
            }
        }
    }
}

impl Decode for InputKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.take_u8()? {
            0 => InputKind::Tagged(Arc::decode(r)?),
            1 => InputKind::Syscall(SyscallKind::Time),
            2 => InputKind::Syscall(SyscallKind::Random),
            3 => InputKind::Message(Arc::decode(r)?),
            tag => {
                return Err(WireError::InvalidTag {
                    context: "InputKind",
                    tag,
                })
            }
        })
    }
}

/// One recorded input: where it happened, how it entered, and the value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputRecord {
    /// Program counter of the consuming instruction.
    pub pc: u64,
    /// How the value entered the agent.
    pub kind: InputKind,
    /// The value itself.
    pub value: Value,
}

impl Encode for InputRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.pc);
        self.kind.encode(w);
        self.value.encode(w);
    }
}

impl Decode for InputRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(InputRecord {
            pc: r.take_u64()?,
            kind: InputKind::decode(r)?,
            value: Value::decode(r)?,
        })
    }
}

/// The complete input of one execution session, in consumption order.
///
/// This is the reference data that makes re-execution deterministic: the
/// paper defines session input as "all the data injected from the outside
/// of the agent", including communication and system-call results.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InputLog {
    records: Vec<InputRecord>,
}

impl InputLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        InputLog {
            records: Vec::new(),
        }
    }

    /// Appends a record.
    pub fn record(&mut self, record: InputRecord) {
        self.records.push(record);
    }

    /// The records in consumption order.
    pub fn records(&self) -> &[InputRecord] {
        &self.records
    }

    /// The number of recorded inputs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the session consumed no input.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl FromIterator<InputRecord> for InputLog {
    fn from_iter<I: IntoIterator<Item = InputRecord>>(iter: I) -> Self {
        InputLog {
            records: iter.into_iter().collect(),
        }
    }
}

impl Encode for InputLog {
    fn encode(&self, w: &mut Writer) {
        self.records.encode(w);
    }
}

impl Decode for InputLog {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(InputLog {
            records: Vec::<InputRecord>::decode(r)?,
        })
    }
}

/// One message the agent sent to a partner (an *output* effect).
///
/// Outputs are not inputs to re-execution — they are recorded so a checker
/// can compare what a host *claims* the agent said against what the
/// re-execution actually says (the paper's §4.1 notes resulting-state-only
/// checking lets hosts lie about sent messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputRecord {
    /// Program counter of the sending instruction.
    pub pc: u64,
    /// The destination partner.
    pub partner: String,
    /// The sent value.
    pub value: Value,
}

impl Encode for OutputRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.pc);
        w.put_str(&self.partner);
        self.value.encode(w);
    }
}

impl Decode for OutputRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OutputRecord {
            pc: r.take_u64()?,
            partner: r.take_str()?.to_owned(),
            value: Value::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refstate_wire::{from_wire, to_wire};

    fn sample_log() -> InputLog {
        [
            InputRecord {
                pc: 0,
                kind: InputKind::Tagged("price".into()),
                value: Value::Int(10),
            },
            InputRecord {
                pc: 3,
                kind: InputKind::Syscall(SyscallKind::Random),
                value: Value::Int(99),
            },
            InputRecord {
                pc: 9,
                kind: InputKind::Message("shop".into()),
                value: Value::Str("ok".into()),
            },
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn log_round_trip() {
        let log = sample_log();
        assert_eq!(from_wire::<InputLog>(&to_wire(&log)).unwrap(), log);
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
    }

    #[test]
    fn record_appends_in_order() {
        let mut log = InputLog::new();
        assert!(log.is_empty());
        log.record(InputRecord {
            pc: 1,
            kind: InputKind::Tagged("a".into()),
            value: Value::Int(1),
        });
        log.record(InputRecord {
            pc: 2,
            kind: InputKind::Tagged("b".into()),
            value: Value::Int(2),
        });
        assert_eq!(log.records()[0].pc, 1);
        assert_eq!(log.records()[1].pc, 2);
    }

    #[test]
    fn kind_display() {
        assert_eq!(InputKind::Tagged("p".into()).to_string(), "input:p");
        assert_eq!(
            InputKind::Syscall(SyscallKind::Time).to_string(),
            "syscall:time"
        );
        assert_eq!(InputKind::Message("m".into()).to_string(), "recv:m");
    }

    #[test]
    fn output_record_round_trip() {
        let rec = OutputRecord {
            pc: 5,
            partner: "bank".into(),
            value: Value::Int(100),
        };
        assert_eq!(from_wire::<OutputRecord>(&to_wire(&rec)).unwrap(), rec);
    }

    #[test]
    fn kind_bad_tag_rejected() {
        assert!(from_wire::<InputKind>(&[9]).is_err());
    }
}
