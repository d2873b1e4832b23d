//! Pre-decoded programs and the flat dispatch loop: the fast execution
//! path behind every re-execution-based check.
//!
//! The step-level [`crate::Interpreter`] clones one [`Instr`] per executed
//! instruction — for the name-carrying instructions (`load`, `store`,
//! `input`, …) that is one `String` allocation per step, paid again by
//! every re-execution of every session. A [`CompiledProgram`] decodes the
//! instruction stream once: variable, tag, and partner names are interned
//! as reference-counted `Arc<str>` (duplicate names share one allocation),
//! jump targets stay pre-resolved, and [`run_compiled_session`] executes a
//! flat loop that borrows each instruction instead of cloning it.
//!
//! Compilation itself is cheap but not free, so a program compiles once
//! per lineage: [`Program::compiled`] keeps the compiled form in a cell
//! every clone shares, and the drivers that run many journeys of one
//! shape hand them clones of one `Program` (the fleet's route agents),
//! so hops, replicas, mechanisms and journeys all reuse one compilation.
//!
//! The original [`crate::run_session`] loop is kept unchanged as the
//! pinned reference oracle (the same idiom the crypto layer uses for its
//! schoolbook `verify`); `compiled == interpreted` equivalence is pinned
//! by tests here and by the `vm` property suite.

use std::collections::BTreeSet;
use std::sync::Arc;

use refstate_telemetry as telemetry;

use crate::error::VmError;
use crate::instr::{Instr, SyscallKind};
use crate::interp::{ExecConfig, SessionEnd, SessionOutcome};
use crate::io::SessionIo;
use crate::log::{InputKind, InputLog, InputRecord, OutputRecord};
use crate::program::Program;
use crate::state::DataState;
use crate::trace::{Trace, TraceEntry, TraceMode};
use crate::value::Value;

/// One pre-decoded instruction: identical semantics to [`Instr`], with
/// interned names so per-step access never allocates.
#[derive(Debug, Clone)]
enum CInstr {
    Push(Value),
    Load(Arc<str>),
    Store(Arc<str>),
    Delete(Arc<str>),
    Pop,
    Dup,
    Swap,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Neg,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Not,
    Concat,
    StrLen,
    ToStr,
    ListNew,
    ListPush,
    ListGet,
    ListSet,
    ListLen,
    Jump(usize),
    JumpIfFalse(usize),
    JumpIfTrue(usize),
    Call(usize),
    Ret,
    Nop,
    Input(Arc<str>),
    Syscall(SyscallKind),
    Send(Arc<str>),
    Recv(Arc<str>),
    Migrate,
    Halt,
}

/// A validated program in its pre-decoded executable form.
///
/// Construction resolves every name through an interning table, so
/// re-execution drivers dispatch without per-step allocation.
///
/// # Examples
///
/// ```
/// use refstate_vm::{assemble, run_compiled_session, CompiledProgram, DataState, ExecConfig, NullIo};
///
/// let program = assemble("push 2\npush 3\nmul\nstore \"p\"\nhalt")?;
/// let compiled = CompiledProgram::compile(&program);
/// let out = run_compiled_session(&compiled, DataState::new(), &mut NullIo, &ExecConfig::default())?;
/// assert_eq!(out.state.get_int("p"), Some(6));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CompiledProgram {
    code: Vec<CInstr>,
}

impl CompiledProgram {
    /// Compiles a validated [`Program`], interning its names.
    pub fn compile(program: &Program) -> CompiledProgram {
        // `Arc<str>: Borrow<str>`, so the set is queryable by plain name.
        let mut interned: BTreeSet<Arc<str>> = BTreeSet::new();
        let mut intern = |name: &str| -> Arc<str> {
            if let Some(shared) = interned.get(name) {
                return shared.clone();
            }
            let shared: Arc<str> = Arc::from(name);
            interned.insert(shared.clone());
            shared
        };
        let code = program
            .iter()
            .map(|instr| match instr {
                Instr::Push(v) => CInstr::Push(v.clone()),
                Instr::Load(n) => CInstr::Load(intern(n)),
                Instr::Store(n) => CInstr::Store(intern(n)),
                Instr::Delete(n) => CInstr::Delete(intern(n)),
                Instr::Pop => CInstr::Pop,
                Instr::Dup => CInstr::Dup,
                Instr::Swap => CInstr::Swap,
                Instr::Add => CInstr::Add,
                Instr::Sub => CInstr::Sub,
                Instr::Mul => CInstr::Mul,
                Instr::Div => CInstr::Div,
                Instr::Mod => CInstr::Mod,
                Instr::Neg => CInstr::Neg,
                Instr::Eq => CInstr::Eq,
                Instr::Ne => CInstr::Ne,
                Instr::Lt => CInstr::Lt,
                Instr::Le => CInstr::Le,
                Instr::Gt => CInstr::Gt,
                Instr::Ge => CInstr::Ge,
                Instr::And => CInstr::And,
                Instr::Or => CInstr::Or,
                Instr::Not => CInstr::Not,
                Instr::Concat => CInstr::Concat,
                Instr::StrLen => CInstr::StrLen,
                Instr::ToStr => CInstr::ToStr,
                Instr::ListNew => CInstr::ListNew,
                Instr::ListPush => CInstr::ListPush,
                Instr::ListGet => CInstr::ListGet,
                Instr::ListSet => CInstr::ListSet,
                Instr::ListLen => CInstr::ListLen,
                Instr::Jump(t) => CInstr::Jump(*t),
                Instr::JumpIfFalse(t) => CInstr::JumpIfFalse(*t),
                Instr::JumpIfTrue(t) => CInstr::JumpIfTrue(*t),
                Instr::Call(t) => CInstr::Call(*t),
                Instr::Ret => CInstr::Ret,
                Instr::Nop => CInstr::Nop,
                Instr::Input(tag) => CInstr::Input(intern(tag)),
                Instr::Syscall(k) => CInstr::Syscall(*k),
                Instr::Send(p) => CInstr::Send(intern(p)),
                Instr::Recv(p) => CInstr::Recv(intern(p)),
                Instr::Migrate => CInstr::Migrate,
                Instr::Halt => CInstr::Halt,
                // `Instr` is non_exhaustive for wire evolution; within the
                // crate the match above is complete.
                #[allow(unreachable_patterns)]
                other => unreachable!("uncompiled instruction {other}"),
            })
            .collect();
        CompiledProgram { code }
    }

    /// The number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Returns `true` for the empty program.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

/// Runs one complete execution session over a pre-compiled program.
///
/// Exactly equivalent to [`crate::run_session`] — same outcomes, same
/// errors, same trace and log contents — but dispatching over the
/// pre-decoded instruction stream without per-step instruction clones.
///
/// # Errors
///
/// Propagates any [`VmError`] the program raises.
pub fn run_compiled_session(
    program: &CompiledProgram,
    initial_state: DataState,
    io: &mut dyn SessionIo,
    config: &ExecConfig,
) -> Result<SessionOutcome, VmError> {
    let timer = telemetry::Timer::start();
    let result = run_compiled_session_inner(program, initial_state, io, config);
    if timer.is_active() {
        if let Ok(outcome) = &result {
            telemetry::observe("vm.session_steps", outcome.steps);
        }
        timer.finish("vm.session", "vm");
    }
    result
}

fn run_compiled_session_inner(
    program: &CompiledProgram,
    initial_state: DataState,
    io: &mut dyn SessionIo,
    config: &ExecConfig,
) -> Result<SessionOutcome, VmError> {
    let code = &program.code;
    let mut pc = 0usize;
    let mut stack: Vec<Value> = Vec::new();
    let mut call_stack: Vec<usize> = Vec::new();
    let mut state = initial_state;
    let mut steps: u64 = 0;
    let mut input_log = InputLog::new();
    let mut outputs: Vec<OutputRecord> = Vec::new();
    let mut trace = Trace::new(config.trace_mode);
    let trace_inputs = !matches!(config.trace_mode, TraceMode::Off);
    let trace_full = matches!(config.trace_mode, TraceMode::Full);

    macro_rules! pop {
        () => {
            stack.pop().ok_or(VmError::StackUnderflow { pc })?
        };
    }
    macro_rules! pop_int {
        () => {{
            let v = pop!();
            v.as_int().ok_or_else(|| VmError::TypeMismatch {
                pc,
                expected: "int",
                found: v.type_name(),
            })?
        }};
    }
    macro_rules! pop_bool {
        () => {{
            let v = pop!();
            v.as_bool().ok_or_else(|| VmError::TypeMismatch {
                pc,
                expected: "bool",
                found: v.type_name(),
            })?
        }};
    }
    macro_rules! pop_str {
        () => {{
            match pop!() {
                Value::Str(s) => s,
                other => {
                    return Err(VmError::TypeMismatch {
                        pc,
                        expected: "str",
                        found: other.type_name(),
                    })
                }
            }
        }};
    }
    macro_rules! pop_list {
        () => {{
            match pop!() {
                Value::List(l) => l,
                other => {
                    return Err(VmError::TypeMismatch {
                        pc,
                        expected: "list",
                        found: other.type_name(),
                    })
                }
            }
        }};
    }
    macro_rules! record_input {
        ($kind:expr, $value:expr) => {{
            let kind: InputKind = $kind;
            let value: &Value = $value;
            input_log.record(InputRecord {
                pc: pc as u64,
                kind: kind.clone(),
                value: value.clone(),
            });
            if trace_inputs {
                trace.push(TraceEntry::InputWrite {
                    pc: pc as u64,
                    slot: kind.to_string(),
                    value: value.clone(),
                });
            }
        }};
    }

    let end = loop {
        if steps >= config.step_limit {
            return Err(VmError::StepLimitExceeded {
                limit: config.step_limit,
            });
        }
        let Some(instr) = code.get(pc) else {
            return Err(VmError::FellOffEnd);
        };
        steps += 1;
        if trace_full {
            trace.push(TraceEntry::Stmt { pc: pc as u64 });
        }
        let mut next_pc = pc + 1;
        match instr {
            CInstr::Push(v) => stack.push(v.clone()),
            CInstr::Load(name) => {
                let v = state
                    .get(name)
                    .cloned()
                    .ok_or_else(|| VmError::UnknownVariable {
                        pc,
                        name: name.as_ref().to_owned(),
                    })?;
                stack.push(v);
            }
            CInstr::Store(name) => {
                let v = pop!();
                state.set(name.as_ref(), v);
            }
            CInstr::Delete(name) => {
                state.remove(name);
            }
            CInstr::Pop => {
                pop!();
            }
            CInstr::Dup => {
                let v = pop!();
                stack.push(v.clone());
                stack.push(v);
            }
            CInstr::Swap => {
                let b = pop!();
                let a = pop!();
                stack.push(b);
                stack.push(a);
            }
            CInstr::Add => {
                let b = pop_int!();
                let a = pop_int!();
                stack.push(Value::Int(a.wrapping_add(b)));
            }
            CInstr::Sub => {
                let b = pop_int!();
                let a = pop_int!();
                stack.push(Value::Int(a.wrapping_sub(b)));
            }
            CInstr::Mul => {
                let b = pop_int!();
                let a = pop_int!();
                stack.push(Value::Int(a.wrapping_mul(b)));
            }
            CInstr::Div => {
                let b = pop_int!();
                let a = pop_int!();
                if b == 0 {
                    return Err(VmError::DivisionByZero { pc });
                }
                stack.push(Value::Int(a.wrapping_div(b)));
            }
            CInstr::Mod => {
                let b = pop_int!();
                let a = pop_int!();
                if b == 0 {
                    return Err(VmError::DivisionByZero { pc });
                }
                stack.push(Value::Int(a.wrapping_rem(b)));
            }
            CInstr::Neg => {
                let a = pop_int!();
                stack.push(Value::Int(a.wrapping_neg()));
            }
            CInstr::Eq => {
                let b = pop!();
                let a = pop!();
                stack.push(Value::Bool(a == b));
            }
            CInstr::Ne => {
                let b = pop!();
                let a = pop!();
                stack.push(Value::Bool(a != b));
            }
            CInstr::Lt | CInstr::Le | CInstr::Gt | CInstr::Ge => {
                let b = pop!();
                let a = pop!();
                let ord = match (&a, &b) {
                    (Value::Int(x), Value::Int(y)) => x.cmp(y),
                    (Value::Str(x), Value::Str(y)) => x.cmp(y),
                    _ => {
                        return Err(VmError::TypeMismatch {
                            pc,
                            expected: "two ints or two strings",
                            found: b.type_name(),
                        })
                    }
                };
                let keep = match instr {
                    CInstr::Lt => ord.is_lt(),
                    CInstr::Le => ord.is_le(),
                    CInstr::Gt => ord.is_gt(),
                    _ => ord.is_ge(),
                };
                stack.push(Value::Bool(keep));
            }
            CInstr::And => {
                let b = pop_bool!();
                let a = pop_bool!();
                stack.push(Value::Bool(a && b));
            }
            CInstr::Or => {
                let b = pop_bool!();
                let a = pop_bool!();
                stack.push(Value::Bool(a || b));
            }
            CInstr::Not => {
                let a = pop_bool!();
                stack.push(Value::Bool(!a));
            }
            CInstr::Concat => {
                let b = pop_str!();
                let a = pop_str!();
                stack.push(Value::Str(a + &b));
            }
            CInstr::StrLen => {
                let s = pop_str!();
                stack.push(Value::Int(s.chars().count() as i64));
            }
            CInstr::ToStr => {
                let v = pop!();
                let rendered = match v {
                    Value::Str(s) => s,
                    other => other.to_string(),
                };
                stack.push(Value::Str(rendered));
            }
            CInstr::ListNew => stack.push(Value::List(Vec::new())),
            CInstr::ListPush => {
                let v = pop!();
                let mut list = pop_list!();
                list.push(v);
                stack.push(Value::List(list));
            }
            CInstr::ListGet => {
                let idx = pop_int!();
                let list = pop_list!();
                let item = usize::try_from(idx)
                    .ok()
                    .and_then(|i| list.get(i))
                    .cloned()
                    .ok_or(VmError::IndexOutOfBounds {
                        pc,
                        index: idx,
                        len: list.len(),
                    })?;
                stack.push(item);
            }
            CInstr::ListSet => {
                let v = pop!();
                let idx = pop_int!();
                let mut list = pop_list!();
                let slot = usize::try_from(idx)
                    .ok()
                    .filter(|&i| i < list.len())
                    .ok_or(VmError::IndexOutOfBounds {
                        pc,
                        index: idx,
                        len: list.len(),
                    })?;
                list[slot] = v;
                stack.push(Value::List(list));
            }
            CInstr::ListLen => {
                let list = pop_list!();
                stack.push(Value::Int(list.len() as i64));
            }
            CInstr::Jump(t) => next_pc = *t,
            CInstr::JumpIfFalse(t) => {
                if !pop_bool!() {
                    next_pc = *t;
                }
            }
            CInstr::JumpIfTrue(t) => {
                if pop_bool!() {
                    next_pc = *t;
                }
            }
            CInstr::Call(t) => {
                call_stack.push(next_pc);
                next_pc = *t;
            }
            CInstr::Ret => {
                next_pc = call_stack.pop().ok_or(VmError::CallStackUnderflow { pc })?;
            }
            CInstr::Nop => {}
            CInstr::Input(tag) => {
                let v = io.input(pc, tag)?;
                record_input!(InputKind::Tagged(tag.as_ref().to_owned()), &v);
                stack.push(v);
            }
            CInstr::Syscall(kind) => {
                let v = io.syscall(pc, *kind)?;
                record_input!(InputKind::Syscall(*kind), &v);
                stack.push(v);
            }
            CInstr::Recv(partner) => {
                let v = io.recv(pc, partner)?;
                record_input!(InputKind::Message(partner.as_ref().to_owned()), &v);
                stack.push(v);
            }
            CInstr::Send(partner) => {
                let v = pop!();
                outputs.push(OutputRecord {
                    pc: pc as u64,
                    partner: partner.as_ref().to_owned(),
                    value: v.clone(),
                });
                io.send(pc, partner, v)?;
            }
            CInstr::Migrate => {
                let host = pop_str!();
                break SessionEnd::Migrate(host);
            }
            CInstr::Halt => break SessionEnd::Halt,
        }
        // Jump targets are validated at Program construction; the range
        // check is kept for loop-exit parity with the interpreter.
        if next_pc > code.len() {
            return Err(VmError::PcOutOfRange {
                target: next_pc,
                len: code.len(),
            });
        }
        pc = next_pc;
    };

    Ok(SessionOutcome {
        end,
        state,
        input_log,
        outputs,
        trace,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::interp::run_session;
    use crate::io::{NullIo, ReplayIo, ScriptedIo};

    /// Every program here is executed by both loops and the full outcomes
    /// are compared field by field.
    fn both(
        src: &str,
        make_io: impl Fn() -> ScriptedIo,
        config: &ExecConfig,
    ) -> (
        Result<SessionOutcome, VmError>,
        Result<SessionOutcome, VmError>,
    ) {
        let program = assemble(src).expect("assembles");
        let compiled = CompiledProgram::compile(&program);
        let mut io_a = make_io();
        let mut io_b = make_io();
        let interpreted = run_session(&program, DataState::new(), &mut io_a, config);
        let fast = run_compiled_session(&compiled, DataState::new(), &mut io_b, config);
        (interpreted, fast)
    }

    fn assert_equivalent(src: &str, make_io: impl Fn() -> ScriptedIo, config: &ExecConfig) {
        let (interpreted, fast) = both(src, make_io, config);
        match (interpreted, fast) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.end, b.end, "{src}");
                assert_eq!(a.state, b.state, "{src}");
                assert_eq!(a.input_log, b.input_log, "{src}");
                assert_eq!(a.outputs, b.outputs, "{src}");
                assert_eq!(a.trace, b.trace, "{src}");
                assert_eq!(a.steps, b.steps, "{src}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{src}"),
            (a, b) => panic!("loops diverged on {src}: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn compiled_matches_interpreter_on_programs() {
        let scripted = || {
            let mut io = ScriptedIo::new();
            io.push_input("price", Value::Int(10))
                .push_input("price", Value::Int(20))
                .push_message("shop", Value::Str("hi".into()));
            io
        };
        let programs = [
            "push 10\npush 3\nsub\npush 6\nmul\npush 5\ndiv\npush 3\nmod\nneg\nstore \"r\"\nhalt",
            "push \"foo\"\npush \"bar\"\nconcat\ndup\nstrlen\nstore \"n\"\nstore \"s\"\nhalt",
            "listnew\npush 1\nlistpush\npush 2\nlistpush\ndup\nlistlen\nstore \"n\"\npush 0\npush 9\nlistset\nstore \"l\"\nhalt",
            "input \"price\"\nstore \"p\"\nsyscall random\nstore \"r\"\nrecv \"shop\"\nstore \"m\"\nhalt",
            "push 7\ncall double\nstore \"r\"\nhalt\ndouble:\npush 2\nmul\nret",
            "push 100\nsend \"bank\"\nhalt",
            "push \"host-b\"\nmigrate",
            // Errors, one per class:
            "pop",
            "push 1\npush 0\ndiv\nhalt",
            "push true\npush 1\nadd\nhalt",
            "load \"ghost\"\nhalt",
            "listnew\npush 0\nlistget\nhalt",
            "ret",
            "push 1\npop",
            "push 42\ntostr\nstore \"t\"\nhalt",
            "push 1\nstore \"x\"\ndelete \"x\"\nhalt",
        ];
        for config in [
            ExecConfig::default(),
            ExecConfig::traced(),
            ExecConfig {
                trace_mode: TraceMode::InputsOnly,
                ..Default::default()
            },
        ] {
            for src in programs {
                assert_equivalent(src, scripted, &config);
            }
        }
    }

    #[test]
    fn compiled_matches_interpreter_on_loops_and_step_limits() {
        let config = ExecConfig {
            step_limit: 100,
            ..Default::default()
        };
        assert_equivalent("loop:\njump loop", ScriptedIo::new, &config);
        assert_equivalent(
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
            ScriptedIo::new,
            &ExecConfig::default(),
        );
    }

    #[test]
    fn compiled_step_limit_error_states_the_limit() {
        let program = assemble("loop:\njump loop").unwrap();
        let compiled = CompiledProgram::compile(&program);
        let config = ExecConfig {
            step_limit: 10,
            ..Default::default()
        };
        let err =
            run_compiled_session(&compiled, DataState::new(), &mut NullIo, &config).unwrap_err();
        assert_eq!(err, VmError::StepLimitExceeded { limit: 10 });
        assert_eq!(err.to_string(), "step limit of 10 exceeded");
    }

    #[test]
    fn compiled_replay_reproduces_live_state() {
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
        let compiled = CompiledProgram::compile(&program);
        let mut replay = ReplayIo::new(&original.input_log);
        let rerun = run_compiled_session(
            &compiled,
            DataState::new(),
            &mut replay,
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(rerun.state, original.state);
        assert!(replay.fully_consumed());
    }

    #[test]
    fn interned_names_share_allocations() {
        let program = assemble("load \"x\"\nstore \"x\"\nload \"x\"\nstore \"x\"\nhalt").unwrap();
        let compiled = CompiledProgram::compile(&program);
        let names: Vec<&Arc<str>> = compiled
            .code
            .iter()
            .filter_map(|i| match i {
                CInstr::Load(n) | CInstr::Store(n) => Some(n),
                _ => None,
            })
            .collect();
        assert_eq!(names.len(), 4);
        assert!(names.windows(2).all(|w| Arc::ptr_eq(w[0], w[1])));
    }
}
