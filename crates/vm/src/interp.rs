//! The interpreter: executes one session of an agent on a host.

use crate::error::VmError;
use crate::instr::Instr;
use crate::io::SessionIo;
use crate::log::{InputKind, InputLog, InputRecord, OutputRecord};
use crate::machine::MachineState;
use crate::program::Program;
use crate::state::DataState;
use crate::trace::{Trace, TraceEntry, TraceMode};
use crate::value::Value;

/// Execution configuration for one session.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Maximum instructions before the session is aborted (runaway guard).
    pub step_limit: u64,
    /// What to record in the execution trace.
    pub trace_mode: TraceMode,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            step_limit: 10_000_000,
            trace_mode: TraceMode::Off,
        }
    }
}

impl ExecConfig {
    /// A config with full Vigna-style tracing enabled.
    pub fn traced() -> Self {
        ExecConfig {
            trace_mode: TraceMode::Full,
            ..Self::default()
        }
    }
}

/// How an execution session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEnd {
    /// The agent asked to migrate to the named host.
    Migrate(String),
    /// The agent finished its task.
    Halt,
}

/// Everything one execution session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// How the session ended.
    pub end: SessionEnd,
    /// The resulting data state (the paper's "resulting agent state").
    pub state: DataState,
    /// All input consumed, in order — the session's reference input.
    pub input_log: InputLog,
    /// Messages the agent sent.
    pub outputs: Vec<OutputRecord>,
    /// The execution trace, as configured.
    pub trace: Trace,
    /// Instructions executed.
    pub steps: u64,
}

/// Runs one complete execution session.
///
/// This is the host-side entry point: take the agent's initial state, run
/// its program from the entry point (weak migration), and return the
/// resulting state plus the recorded reference data.
///
/// # Errors
///
/// Propagates any [`VmError`] the program raises; see the error type for
/// the full catalogue.
///
/// # Examples
///
/// ```
/// use refstate_vm::*;
///
/// let program = assemble(r#"
///     push 1
///     push 2
///     add
///     store "sum"
///     halt
/// "#)?;
/// let out = run_session(&program, DataState::new(), &mut NullIo, &ExecConfig::default())?;
/// assert_eq!(out.state.get_int("sum"), Some(3));
/// assert_eq!(out.end, SessionEnd::Halt);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_session(
    program: &Program,
    initial_state: DataState,
    io: &mut dyn SessionIo,
    config: &ExecConfig,
) -> Result<SessionOutcome, VmError> {
    let mut interp = Interpreter::new(program, initial_state, config.clone());
    let end = interp.run(io)?;
    Ok(interp.into_outcome(end))
}

/// A single-stepping interpreter over an agent program.
///
/// Most callers use [`run_session`]; the step-level API exists for the
/// proof mechanism (per-step snapshots) and for tests that need to observe
/// intermediate machine states.
#[derive(Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    pc: usize,
    stack: Vec<Value>,
    call_stack: Vec<usize>,
    state: DataState,
    steps: u64,
    config: ExecConfig,
    input_log: InputLog,
    inputs_consumed: u64,
    outputs: Vec<OutputRecord>,
    trace: Trace,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter at the session entry point (pc 0).
    pub fn new(program: &'p Program, initial_state: DataState, config: ExecConfig) -> Self {
        let trace = Trace::new(config.trace_mode);
        Interpreter {
            program,
            pc: 0,
            stack: Vec::new(),
            call_stack: Vec::new(),
            state: initial_state,
            steps: 0,
            config,
            input_log: InputLog::new(),
            inputs_consumed: 0,
            outputs: Vec::new(),
            trace,
        }
    }

    /// Resumes an interpreter from a captured [`MachineState`].
    pub fn resume(program: &'p Program, machine: MachineState, config: ExecConfig) -> Self {
        let trace = Trace::new(config.trace_mode);
        Interpreter {
            program,
            pc: machine.pc as usize,
            stack: machine.stack,
            call_stack: machine.call_stack.into_iter().map(|v| v as usize).collect(),
            state: machine.state,
            steps: machine.steps,
            config,
            input_log: InputLog::new(),
            inputs_consumed: machine.inputs_consumed,
            outputs: Vec::new(),
            trace,
        }
    }

    /// Captures the full machine state at the current instruction boundary.
    pub fn capture(&self) -> MachineState {
        MachineState {
            pc: self.pc as u64,
            stack: self.stack.clone(),
            call_stack: self.call_stack.iter().map(|&v| v as u64).collect(),
            state: self.state.clone(),
            steps: self.steps,
            inputs_consumed: self.inputs_consumed,
        }
    }

    /// The current data state.
    pub fn state(&self) -> &DataState {
        &self.state
    }

    /// Instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Runs until the session ends.
    ///
    /// # Errors
    ///
    /// Propagates the first [`VmError`].
    pub fn run(&mut self, io: &mut dyn SessionIo) -> Result<SessionEnd, VmError> {
        loop {
            if let Some(end) = self.step(io)? {
                return Ok(end);
            }
        }
    }

    /// Consumes the interpreter, producing the session outcome.
    pub fn into_outcome(self, end: SessionEnd) -> SessionOutcome {
        SessionOutcome {
            end,
            state: self.state,
            input_log: self.input_log,
            outputs: self.outputs,
            trace: self.trace,
            steps: self.steps,
        }
    }

    fn pop(&mut self) -> Result<Value, VmError> {
        self.stack
            .pop()
            .ok_or(VmError::StackUnderflow { pc: self.pc })
    }

    fn pop_int(&mut self) -> Result<i64, VmError> {
        let v = self.pop()?;
        v.as_int().ok_or_else(|| VmError::TypeMismatch {
            pc: self.pc,
            expected: "int",
            found: v.type_name(),
        })
    }

    fn pop_bool(&mut self) -> Result<bool, VmError> {
        let v = self.pop()?;
        v.as_bool().ok_or_else(|| VmError::TypeMismatch {
            pc: self.pc,
            expected: "bool",
            found: v.type_name(),
        })
    }

    fn pop_str(&mut self) -> Result<String, VmError> {
        let v = self.pop()?;
        match v {
            Value::Str(s) => Ok(s),
            other => Err(VmError::TypeMismatch {
                pc: self.pc,
                expected: "str",
                found: other.type_name(),
            }),
        }
    }

    fn pop_list(&mut self) -> Result<Vec<Value>, VmError> {
        let v = self.pop()?;
        match v {
            Value::List(l) => Ok(l),
            other => Err(VmError::TypeMismatch {
                pc: self.pc,
                expected: "list",
                found: other.type_name(),
            }),
        }
    }

    fn bin_int(&mut self, f: impl FnOnce(i64, i64) -> i64) -> Result<(), VmError> {
        let b = self.pop_int()?;
        let a = self.pop_int()?;
        self.stack.push(Value::Int(f(a, b)));
        Ok(())
    }

    fn compare_ord(&mut self, f: impl FnOnce(std::cmp::Ordering) -> bool) -> Result<(), VmError> {
        let b = self.pop()?;
        let a = self.pop()?;
        let ord = match (&a, &b) {
            (Value::Int(x), Value::Int(y)) => x.cmp(y),
            (Value::Str(x), Value::Str(y)) => x.cmp(y),
            _ => {
                return Err(VmError::TypeMismatch {
                    pc: self.pc,
                    expected: "two ints or two strings",
                    found: b.type_name(),
                })
            }
        };
        self.stack.push(Value::Bool(f(ord)));
        Ok(())
    }

    fn record_input(&mut self, kind: InputKind, value: &Value) {
        self.inputs_consumed += 1;
        let pc = self.pc as u64;
        self.input_log.record(InputRecord {
            pc,
            kind: kind.clone(),
            value: value.clone(),
        });
        if !matches!(self.trace.mode(), TraceMode::Off) {
            let slot = kind.to_string();
            self.trace.push(TraceEntry::InputWrite {
                pc,
                slot,
                value: value.clone(),
            });
        }
    }

    fn jump_to(&mut self, target: usize) -> Result<(), VmError> {
        if target > self.program.len() {
            return Err(VmError::PcOutOfRange {
                target,
                len: self.program.len(),
            });
        }
        self.pc = target;
        Ok(())
    }

    /// Executes one instruction.
    ///
    /// Returns `Ok(Some(end))` when the session ends, `Ok(None)` to
    /// continue.
    ///
    /// # Errors
    ///
    /// Any [`VmError`]; the interpreter must not be stepped further after
    /// an error.
    pub fn step(&mut self, io: &mut dyn SessionIo) -> Result<Option<SessionEnd>, VmError> {
        if self.steps >= self.config.step_limit {
            return Err(VmError::StepLimitExceeded {
                limit: self.config.step_limit,
            });
        }
        let instr = self
            .program
            .get(self.pc)
            .ok_or(VmError::FellOffEnd)?
            .clone();
        self.steps += 1;
        if matches!(self.trace.mode(), TraceMode::Full) {
            self.trace.push(TraceEntry::Stmt { pc: self.pc as u64 });
        }
        let mut next_pc = self.pc + 1;
        match instr {
            Instr::Push(v) => self.stack.push(v),
            Instr::Load(name) => {
                let v = self
                    .state
                    .get(&name)
                    .cloned()
                    .ok_or_else(|| VmError::UnknownVariable {
                        pc: self.pc,
                        name: name.clone(),
                    })?;
                self.stack.push(v);
            }
            Instr::Store(name) => {
                let v = self.pop()?;
                self.state.set(name, v);
            }
            Instr::Delete(name) => {
                self.state.remove(&name);
            }
            Instr::Pop => {
                self.pop()?;
            }
            Instr::Dup => {
                let v = self.pop()?;
                self.stack.push(v.clone());
                self.stack.push(v);
            }
            Instr::Swap => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.stack.push(b);
                self.stack.push(a);
            }
            Instr::Add => self.bin_int(i64::wrapping_add)?,
            Instr::Sub => self.bin_int(i64::wrapping_sub)?,
            Instr::Mul => self.bin_int(i64::wrapping_mul)?,
            Instr::Div => {
                let b = self.pop_int()?;
                let a = self.pop_int()?;
                if b == 0 {
                    return Err(VmError::DivisionByZero { pc: self.pc });
                }
                self.stack.push(Value::Int(a.wrapping_div(b)));
            }
            Instr::Mod => {
                let b = self.pop_int()?;
                let a = self.pop_int()?;
                if b == 0 {
                    return Err(VmError::DivisionByZero { pc: self.pc });
                }
                self.stack.push(Value::Int(a.wrapping_rem(b)));
            }
            Instr::Neg => {
                let a = self.pop_int()?;
                self.stack.push(Value::Int(a.wrapping_neg()));
            }
            Instr::Eq => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.stack.push(Value::Bool(a == b));
            }
            Instr::Ne => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.stack.push(Value::Bool(a != b));
            }
            Instr::Lt => self.compare_ord(std::cmp::Ordering::is_lt)?,
            Instr::Le => self.compare_ord(std::cmp::Ordering::is_le)?,
            Instr::Gt => self.compare_ord(std::cmp::Ordering::is_gt)?,
            Instr::Ge => self.compare_ord(std::cmp::Ordering::is_ge)?,
            Instr::And => {
                let b = self.pop_bool()?;
                let a = self.pop_bool()?;
                self.stack.push(Value::Bool(a && b));
            }
            Instr::Or => {
                let b = self.pop_bool()?;
                let a = self.pop_bool()?;
                self.stack.push(Value::Bool(a || b));
            }
            Instr::Not => {
                let a = self.pop_bool()?;
                self.stack.push(Value::Bool(!a));
            }
            Instr::Concat => {
                let b = self.pop_str()?;
                let a = self.pop_str()?;
                self.stack.push(Value::Str(a + &b));
            }
            Instr::StrLen => {
                let s = self.pop_str()?;
                self.stack.push(Value::Int(s.chars().count() as i64));
            }
            Instr::ToStr => {
                let v = self.pop()?;
                let rendered = match v {
                    Value::Str(s) => s,
                    other => other.to_string(),
                };
                self.stack.push(Value::Str(rendered));
            }
            Instr::ListNew => self.stack.push(Value::List(Vec::new())),
            Instr::ListPush => {
                let v = self.pop()?;
                let mut list = self.pop_list()?;
                list.push(v);
                self.stack.push(Value::List(list));
            }
            Instr::ListGet => {
                let idx = self.pop_int()?;
                let list = self.pop_list()?;
                let item = usize::try_from(idx)
                    .ok()
                    .and_then(|i| list.get(i))
                    .cloned()
                    .ok_or(VmError::IndexOutOfBounds {
                        pc: self.pc,
                        index: idx,
                        len: list.len(),
                    })?;
                self.stack.push(item);
            }
            Instr::ListSet => {
                let v = self.pop()?;
                let idx = self.pop_int()?;
                let mut list = self.pop_list()?;
                let slot = usize::try_from(idx)
                    .ok()
                    .filter(|&i| i < list.len())
                    .ok_or(VmError::IndexOutOfBounds {
                        pc: self.pc,
                        index: idx,
                        len: list.len(),
                    })?;
                list[slot] = v;
                self.stack.push(Value::List(list));
            }
            Instr::ListLen => {
                let list = self.pop_list()?;
                self.stack.push(Value::Int(list.len() as i64));
            }
            Instr::Jump(t) => next_pc = t,
            Instr::JumpIfFalse(t) => {
                if !self.pop_bool()? {
                    next_pc = t;
                }
            }
            Instr::JumpIfTrue(t) => {
                if self.pop_bool()? {
                    next_pc = t;
                }
            }
            Instr::Call(t) => {
                self.call_stack.push(next_pc);
                next_pc = t;
            }
            Instr::Ret => {
                next_pc = self
                    .call_stack
                    .pop()
                    .ok_or(VmError::CallStackUnderflow { pc: self.pc })?;
            }
            Instr::Nop => {}
            Instr::Input(tag) => {
                let v = io.input(self.pc, &tag)?;
                self.record_input(InputKind::Tagged(tag), &v);
                self.stack.push(v);
            }
            Instr::Syscall(kind) => {
                let v = io.syscall(self.pc, kind)?;
                self.record_input(InputKind::Syscall(kind), &v);
                self.stack.push(v);
            }
            Instr::Recv(partner) => {
                let v = io.recv(self.pc, &partner)?;
                self.record_input(InputKind::Message(partner), &v);
                self.stack.push(v);
            }
            Instr::Send(partner) => {
                let v = self.pop()?;
                self.outputs.push(OutputRecord {
                    pc: self.pc as u64,
                    partner: partner.clone(),
                    value: v.clone(),
                });
                io.send(self.pc, &partner, v)?;
            }
            Instr::Migrate => {
                let host = self.pop_str()?;
                self.pc += 1;
                return Ok(Some(SessionEnd::Migrate(host)));
            }
            Instr::Halt => {
                self.pc += 1;
                return Ok(Some(SessionEnd::Halt));
            }
        }
        self.jump_to(next_pc)?;
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::io::{NullIo, ReplayIo, ScriptedIo};

    fn run(src: &str, io: &mut dyn SessionIo) -> Result<SessionOutcome, VmError> {
        let program = assemble(src).expect("assembly");
        run_session(&program, DataState::new(), io, &ExecConfig::default())
    }

    #[test]
    fn arithmetic() {
        let out = run(
            r#"
            push 10
            push 3
            sub        ; 7
            push 6
            mul        ; 42
            push 5
            div        ; 8
            push 3
            mod        ; 2
            neg        ; -2
            store "r"
            halt
        "#,
            &mut NullIo,
        )
        .unwrap();
        assert_eq!(out.state.get_int("r"), Some(-2));
    }

    #[test]
    fn division_by_zero() {
        let err = run("push 1\npush 0\ndiv\nhalt", &mut NullIo).unwrap_err();
        assert!(matches!(err, VmError::DivisionByZero { .. }));
        let err = run("push 1\npush 0\nmod\nhalt", &mut NullIo).unwrap_err();
        assert!(matches!(err, VmError::DivisionByZero { .. }));
    }

    #[test]
    fn comparisons_and_logic() {
        let out = run(
            r#"
            push 3
            push 5
            lt            ; true
            push "a"
            push "b"
            le            ; true
            and
            not           ; false
            push true
            or            ; true
            store "ok"
            halt
        "#,
            &mut NullIo,
        )
        .unwrap();
        assert_eq!(out.state.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn type_errors_are_reported() {
        let err = run("push true\npush 1\nadd\nhalt", &mut NullIo).unwrap_err();
        assert!(matches!(
            err,
            VmError::TypeMismatch {
                expected: "int",
                ..
            }
        ));
        let err = run("push 1\npush true\nlt\nhalt", &mut NullIo).unwrap_err();
        assert!(matches!(err, VmError::TypeMismatch { .. }));
    }

    #[test]
    fn strings() {
        let out = run(
            r#"
            push "foo"
            push "bar"
            concat
            dup
            strlen
            store "n"
            store "s"
            push 42
            tostr
            store "t"
            halt
        "#,
            &mut NullIo,
        )
        .unwrap();
        assert_eq!(out.state.get_str("s"), Some("foobar"));
        assert_eq!(out.state.get_int("n"), Some(6));
        assert_eq!(out.state.get_str("t"), Some("42"));
    }

    #[test]
    fn lists() {
        let out = run(
            r#"
            listnew
            push 10
            listpush
            push 20
            listpush      ; [10, 20]
            dup
            push 0
            push 99
            listset       ; [99, 20]
            dup
            push 1
            listget       ; 20
            store "second"
            dup
            listlen
            store "len"
            store "list"
            halt
        "#,
            &mut NullIo,
        )
        .unwrap();
        assert_eq!(out.state.get_int("second"), Some(20));
        assert_eq!(out.state.get_int("len"), Some(2));
        assert_eq!(
            out.state.get("list"),
            Some(&Value::List(vec![Value::Int(99), Value::Int(20)]))
        );
    }

    #[test]
    fn list_bounds_checked() {
        let err = run("listnew\npush 0\nlistget\nhalt", &mut NullIo).unwrap_err();
        assert!(matches!(err, VmError::IndexOutOfBounds { .. }));
        let err = run("listnew\npush -1\npush 1\nlistset\nhalt", &mut NullIo).unwrap_err();
        assert!(matches!(err, VmError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn control_flow_loop() {
        // sum = 0; for i in 1..=5 { sum += i }
        let out = run(
            r#"
            push 0
            store "sum"
            push 1
            store "i"
        loop:
            load "i"
            push 5
            gt
            jnz end
            load "sum"
            load "i"
            add
            store "sum"
            load "i"
            push 1
            add
            store "i"
            jump loop
        end:
            halt
        "#,
            &mut NullIo,
        )
        .unwrap();
        assert_eq!(out.state.get_int("sum"), Some(15));
    }

    #[test]
    fn subroutines() {
        let out = run(
            r#"
            push 7
            call double
            store "r"
            halt
        double:
            push 2
            mul
            ret
        "#,
            &mut NullIo,
        )
        .unwrap();
        assert_eq!(out.state.get_int("r"), Some(14));
    }

    #[test]
    fn ret_without_call_errors() {
        let err = run("ret", &mut NullIo).unwrap_err();
        assert!(matches!(err, VmError::CallStackUnderflow { .. }));
    }

    #[test]
    fn stack_underflow() {
        let err = run("pop", &mut NullIo).unwrap_err();
        assert!(matches!(err, VmError::StackUnderflow { pc: 0 }));
    }

    #[test]
    fn unknown_variable() {
        let err = run("load \"ghost\"\nhalt", &mut NullIo).unwrap_err();
        assert!(matches!(err, VmError::UnknownVariable { .. }));
    }

    #[test]
    fn step_limit() {
        let program = assemble("loop:\njump loop").unwrap();
        let config = ExecConfig {
            step_limit: 100,
            ..Default::default()
        };
        let err = run_session(&program, DataState::new(), &mut NullIo, &config).unwrap_err();
        assert_eq!(err, VmError::StepLimitExceeded { limit: 100 });
    }

    #[test]
    fn fell_off_end() {
        let err = run("push 1\npop", &mut NullIo).unwrap_err();
        assert_eq!(err, VmError::FellOffEnd);
    }

    #[test]
    fn migration_ends_session() {
        let out = run("push \"host-b\"\nmigrate", &mut NullIo).unwrap();
        assert_eq!(out.end, SessionEnd::Migrate("host-b".into()));
    }

    #[test]
    fn inputs_are_logged_and_traced() {
        let program = assemble(
            r#"
            input "price"
            store "p"
            syscall random
            store "r"
            recv "shop"
            store "m"
            halt
        "#,
        )
        .unwrap();
        let mut io = ScriptedIo::new();
        io.push_input("price", Value::Int(10));
        io.push_message("shop", Value::Str("hi".into()));
        let out = run_session(&program, DataState::new(), &mut io, &ExecConfig::traced()).unwrap();
        assert_eq!(out.input_log.len(), 3);
        let kinds: Vec<String> = out
            .input_log
            .records()
            .iter()
            .map(|r| r.kind.to_string())
            .collect();
        assert_eq!(kinds, vec!["input:price", "syscall:random", "recv:shop"]);
        // Full trace includes both Stmt and InputWrite entries.
        let input_writes = out
            .trace
            .entries()
            .iter()
            .filter(|e| matches!(e, TraceEntry::InputWrite { .. }))
            .count();
        assert_eq!(input_writes, 3);
        assert!(out.trace.len() > 3);
    }

    #[test]
    fn sends_are_recorded_as_outputs() {
        let program = assemble("push 100\nsend \"bank\"\nhalt").unwrap();
        let mut io = ScriptedIo::new();
        let out = run_session(&program, DataState::new(), &mut io, &ExecConfig::default()).unwrap();
        assert_eq!(out.outputs.len(), 1);
        assert_eq!(out.outputs[0].partner, "bank");
        assert_eq!(io.sent().len(), 1);
    }

    #[test]
    fn replay_reproduces_state() {
        let program = assemble(
            r#"
            input "a"
            input "a"
            add
            syscall time
            add
            store "total"
            halt
        "#,
        )
        .unwrap();
        let mut live = ScriptedIo::new();
        live.push_input("a", Value::Int(5))
            .push_input("a", Value::Int(6));
        let original = run_session(
            &program,
            DataState::new(),
            &mut live,
            &ExecConfig::default(),
        )
        .unwrap();

        let mut replay = ReplayIo::new(&original.input_log);
        let rerun = run_session(
            &program,
            DataState::new(),
            &mut replay,
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(rerun.state, original.state);
        assert!(replay.fully_consumed());
    }

    #[test]
    fn weak_migration_preserves_state_across_sessions() {
        let program = assemble(
            r#"
            load "visits"
            push 1
            add
            store "visits"
            load "visits"
            push 3
            ge
            jnz done
            push "next-host"
            migrate
        done:
            halt
        "#,
        )
        .unwrap();
        let mut state: DataState = [("visits".to_string(), Value::Int(0))]
            .into_iter()
            .collect();
        let mut hops = 0;
        loop {
            let out = run_session(&program, state, &mut NullIo, &ExecConfig::default()).unwrap();
            state = out.state;
            match out.end {
                SessionEnd::Migrate(_) => hops += 1,
                SessionEnd::Halt => break,
            }
        }
        assert_eq!(hops, 2);
        assert_eq!(state.get_int("visits"), Some(3));
    }

    #[test]
    fn capture_resume_round_trip() {
        let program = assemble("push 1\npush 2\nadd\nstore \"x\"\nhalt").unwrap();
        let mut a = Interpreter::new(&program, DataState::new(), ExecConfig::default());
        a.step(&mut NullIo).unwrap();
        a.step(&mut NullIo).unwrap();
        let snapshot = a.capture();
        assert_eq!(snapshot.steps, 2);
        assert_eq!(snapshot.stack.len(), 2);

        let mut b = Interpreter::resume(&program, snapshot, ExecConfig::default());
        let end = b.run(&mut NullIo).unwrap();
        assert_eq!(end, SessionEnd::Halt);
        assert_eq!(b.state().get_int("x"), Some(3));

        // The original finishes identically.
        let end_a = a.run(&mut NullIo).unwrap();
        assert_eq!(end_a, SessionEnd::Halt);
        assert_eq!(a.state().get_int("x"), Some(3));
    }

    #[test]
    fn dup_swap() {
        let out = run(
            "push 1\npush 2\nswap\nstore \"a\"\nstore \"b\"\npush 9\ndup\nadd\nstore \"c\"\nhalt",
            &mut NullIo,
        )
        .unwrap();
        assert_eq!(out.state.get_int("a"), Some(1));
        assert_eq!(out.state.get_int("b"), Some(2));
        assert_eq!(out.state.get_int("c"), Some(18));
    }

    #[test]
    fn delete_removes_variable() {
        let out = run("push 1\nstore \"x\"\ndelete \"x\"\nhalt", &mut NullIo).unwrap();
        assert!(!out.state.contains("x"));
    }

    #[test]
    fn steps_counted() {
        let out = run("nop\nnop\nhalt", &mut NullIo).unwrap();
        assert_eq!(out.steps, 3);
    }
}
