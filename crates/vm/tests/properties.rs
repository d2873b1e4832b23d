//! Property tests for the VM: replay determinism (the property the whole
//! protection scheme rests on), trace/log consistency, snapshot-resume
//! equivalence, assembler round-trips, and the wire identity of the
//! shared-name state and input-kind representations.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use refstate_vm::{
    assemble, run_compiled_session, run_session, CompiledProgram, DataState, ExecConfig, InputKind,
    Instr, Interpreter, NullIo, Program, ReplayIo, ScriptedIo, SessionEnd, TraceEntry, TraceMode,
    Value,
};
use refstate_wire::{from_wire, to_wire, Encode, WireError, Writer};

/// Strategy: a random but always-valid straight-line program fragment that
/// manipulates one accumulator variable and consumes external inputs.
fn program_spec() -> impl Strategy<Value = (Vec<i64>, Vec<u8>)> {
    (
        proptest::collection::vec(-1000i64..1000, 1..20),
        proptest::collection::vec(0u8..4, 0..30),
    )
}

/// Builds a program from an op list: each op consumes the accumulator and
/// maybe an input.
fn build_program(ops: &[u8], input_count: usize) -> Program {
    let mut src = String::from("push 0\nstore \"acc\"\n");
    let mut inputs_used = 0usize;
    for op in ops {
        match op % 4 {
            0 => src.push_str("load \"acc\"\npush 3\nadd\nstore \"acc\"\n"),
            1 => src.push_str("load \"acc\"\npush 2\nmul\nstore \"acc\"\n"),
            2 => src.push_str("load \"acc\"\nneg\nstore \"acc\"\n"),
            _ => {
                if inputs_used < input_count {
                    src.push_str("input \"x\"\nload \"acc\"\nadd\nstore \"acc\"\n");
                    inputs_used += 1;
                }
            }
        }
    }
    src.push_str("syscall random\nstore \"r\"\nhalt\n");
    assemble(&src).expect("generated program assembles")
}

proptest! {
    /// Live run then replay from the recorded input log must agree in every
    /// observable: resulting state, end, and step count.
    #[test]
    fn replay_reproduces_everything((inputs, ops) in program_spec()) {
        let program = build_program(&ops, inputs.len());
        let mut io = ScriptedIo::new();
        for v in &inputs {
            io.push_input("x", Value::Int(*v));
        }
        let live = run_session(&program, DataState::new(), &mut io, &ExecConfig::default()).unwrap();

        let mut replay = ReplayIo::new(&live.input_log);
        let replayed = run_session(&program, DataState::new(), &mut replay, &ExecConfig::default()).unwrap();

        prop_assert_eq!(&replayed.state, &live.state);
        prop_assert_eq!(&replayed.end, &live.end);
        prop_assert_eq!(replayed.steps, live.steps);
        prop_assert!(replay.fully_consumed());
    }

    /// Tampering any single input-log value changes the resulting state or
    /// fails the replay — the recorded input pins the computation.
    #[test]
    fn tampered_input_log_is_visible((inputs, ops) in program_spec(), delta in 1i64..100) {
        let program = build_program(&ops, inputs.len());
        let mut io = ScriptedIo::new();
        for v in &inputs {
            io.push_input("x", Value::Int(*v));
        }
        let live = run_session(&program, DataState::new(), &mut io, &ExecConfig::default()).unwrap();
        prop_assume!(!live.input_log.is_empty());

        // Forge the first tagged input record.
        let mut records: Vec<_> = live.input_log.records().to_vec();
        let target = records.iter().position(|r| matches!(r.kind, refstate_vm::InputKind::Tagged(_)));
        prop_assume!(target.is_some());
        let target = target.unwrap();
        if let Value::Int(v) = records[target].value {
            records[target].value = Value::Int(v + delta);
        }
        let forged: refstate_vm::InputLog = records.into_iter().collect();

        let mut replay = ReplayIo::new(&forged);
        // An Err is also acceptable: the forged log fails to replay.
        if let Ok(outcome) = run_session(&program, DataState::new(), &mut replay, &ExecConfig::default()) {
            // The accumulator is a function of the inputs: an altered
            // input must surface... unless this op sequence never uses
            // the forged input's value (e.g. a later multiply-by-zero
            // cannot happen here since ops never zero the acc after an
            // input-add; the only masking op is `mul` by 2 / neg, both
            // injective). So the state must differ.
            prop_assert_ne!(outcome.state, live.state);
        }
    }

    /// The compiled flat-dispatch loop is observationally identical to the
    /// pinned step interpreter: same state, end, input log, outputs,
    /// trace, and step count on random programs, under every trace mode.
    #[test]
    fn compiled_loop_matches_interpreter((inputs, ops) in program_spec()) {
        let program = build_program(&ops, inputs.len());
        let compiled = CompiledProgram::compile(&program);
        for trace_mode in [TraceMode::Off, TraceMode::InputsOnly, TraceMode::Full] {
            let config = ExecConfig { trace_mode, ..Default::default() };
            let scripted = || {
                let mut io = ScriptedIo::new();
                for v in &inputs {
                    io.push_input("x", Value::Int(*v));
                }
                io
            };
            let reference = run_session(&program, DataState::new(), &mut scripted(), &config).unwrap();
            let fast = run_compiled_session(&compiled, DataState::new(), &mut scripted(), &config).unwrap();
            prop_assert_eq!(&fast.state, &reference.state);
            prop_assert_eq!(&fast.end, &reference.end);
            prop_assert_eq!(&fast.input_log, &reference.input_log);
            prop_assert_eq!(&fast.outputs, &reference.outputs);
            prop_assert_eq!(&fast.trace, &reference.trace);
            prop_assert_eq!(fast.steps, reference.steps);
        }
    }

    /// Full traces contain exactly one `Stmt` entry per executed step plus
    /// one `InputWrite` per consumed input.
    #[test]
    fn trace_accounting((inputs, ops) in program_spec()) {
        let program = build_program(&ops, inputs.len());
        let mut io = ScriptedIo::new();
        for v in &inputs {
            io.push_input("x", Value::Int(*v));
        }
        let config = ExecConfig { trace_mode: TraceMode::Full, ..Default::default() };
        let out = run_session(&program, DataState::new(), &mut io, &config).unwrap();
        let stmts = out.trace.entries().iter().filter(|e| matches!(e, TraceEntry::Stmt { .. })).count();
        let writes = out.trace.entries().iter().filter(|e| matches!(e, TraceEntry::InputWrite { .. })).count();
        prop_assert_eq!(stmts as u64, out.steps);
        prop_assert_eq!(writes, out.input_log.len());
        // The reduced trace is exactly the input-only projection.
        prop_assert_eq!(out.trace.reduced().len(), writes);
    }

    /// Stopping an interpreter at an arbitrary step boundary, capturing the
    /// machine state, and resuming in a fresh interpreter reaches the same
    /// final state as running straight through.
    #[test]
    fn snapshot_resume_equivalence((inputs, ops) in program_spec(), cut in 0usize..40) {
        let program = build_program(&ops, inputs.len());
        let fill = |io: &mut ScriptedIo| {
            for v in &inputs {
                io.push_input("x", Value::Int(*v));
            }
        };

        // Straight run.
        let mut io = ScriptedIo::new();
        fill(&mut io);
        let straight = run_session(&program, DataState::new(), &mut io, &ExecConfig::default()).unwrap();

        // Split run: execute `cut` steps, snapshot, resume.
        let mut io = ScriptedIo::new();
        fill(&mut io);
        let mut first = Interpreter::new(&program, DataState::new(), ExecConfig::default());
        let mut ended_early = None;
        for _ in 0..cut {
            if let Some(end) = first.step(&mut io).unwrap() { ended_early = Some(end); break; }
        }
        let end = match ended_early {
            Some(end) => {
                prop_assert_eq!(&end, &straight.end);
                prop_assert_eq!(first.state(), &straight.state);
                return Ok(());
            }
            None => {
                let snapshot = first.capture();
                let mut second = Interpreter::resume(&program, snapshot, ExecConfig::default());
                let end = second.run(&mut io).unwrap();
                prop_assert_eq!(second.state(), &straight.state);
                end
            }
        };
        prop_assert_eq!(end, straight.end);
    }

    /// Wire round-trip for arbitrary generated programs.
    #[test]
    fn program_wire_round_trip((inputs, ops) in program_spec()) {
        let program = build_program(&ops, inputs.len());
        let bytes = refstate_wire::to_wire(&program);
        let back: Program = refstate_wire::from_wire(&bytes).unwrap();
        prop_assert_eq!(back, program);
    }

    /// Arithmetic on the VM matches Rust's wrapping semantics.
    #[test]
    fn vm_arithmetic_matches_rust(a in any::<i64>(), b in any::<i64>()) {
        let program = Program::new(vec![
            Instr::Push(Value::Int(a)),
            Instr::Push(Value::Int(b)),
            Instr::Add,
            Instr::Store("sum".into()),
            Instr::Push(Value::Int(a)),
            Instr::Push(Value::Int(b)),
            Instr::Mul,
            Instr::Store("prod".into()),
            Instr::Push(Value::Int(a)),
            Instr::Push(Value::Int(b)),
            Instr::Sub,
            Instr::Store("diff".into()),
            Instr::Halt,
        ]).unwrap();
        let out = run_session(&program, DataState::new(), &mut NullIo, &ExecConfig::default()).unwrap();
        prop_assert_eq!(out.state.get_int("sum"), Some(a.wrapping_add(b)));
        prop_assert_eq!(out.state.get_int("prod"), Some(a.wrapping_mul(b)));
        prop_assert_eq!(out.state.get_int("diff"), Some(a.wrapping_sub(b)));
        prop_assert_eq!(out.end, SessionEnd::Halt);
    }
}

/// One variable's value: an int, or a short string for odd draws.
fn var_value(n: i64, s: &str) -> Value {
    if n % 2 == 0 {
        Value::Int(n)
    } else {
        Value::Str(s.to_owned())
    }
}

proptest! {
    /// A state's names are shared `Arc<str>`s, but its bytes are those of
    /// a `BTreeMap<String, Value>` of the same pairs, however the state
    /// was built; the map's bytes decode back to the same state.
    #[test]
    fn data_state_encodes_like_a_string_map(
        pairs in proptest::collection::btree_map("[a-d]{1,3}", (-50i64..50, "[x-z]{0,3}"), 0..8),
    ) {
        let map: BTreeMap<String, Value> = pairs
            .iter()
            .map(|(name, (n, s))| (name.clone(), var_value(*n, s)))
            .collect();
        let collected: DataState = map.clone().into_iter().collect();
        let mut set_backwards = DataState::new();
        for (name, value) in map.iter().rev() {
            set_backwards.set(name.as_str(), Value::Int(0));
            set_backwards.set(name.clone(), value.clone());
        }
        let bytes = to_wire(&map);
        prop_assert_eq!(&to_wire(&collected), &bytes);
        prop_assert_eq!(&to_wire(&set_backwards), &bytes);
        prop_assert_eq!(from_wire::<DataState>(&bytes).unwrap(), collected);
    }

    /// Decoding accepts only strictly ascending names: a repeated or
    /// out-of-order name is refused with `map key order`, as a
    /// `BTreeMap<String, Value>` refuses it.
    #[test]
    fn data_state_decode_refuses_unordered_or_repeated_names(
        names in proptest::collection::vec("[a-c]{1,2}", 0..6),
    ) {
        let mut w = Writer::new();
        w.put_len(names.len());
        for (i, name) in names.iter().enumerate() {
            w.put_str(name);
            Value::Int(i as i64).encode(&mut w);
        }
        let bytes = w.into_inner();
        let canonical = names.windows(2).all(|pair| pair[0] < pair[1]);
        let as_map = from_wire::<BTreeMap<String, Value>>(&bytes);
        match from_wire::<DataState>(&bytes) {
            Ok(state) => {
                prop_assert!(canonical);
                prop_assert_eq!(state.len(), names.len());
                prop_assert_eq!(to_wire(&state), bytes);
            }
            Err(e) => {
                prop_assert!(!canonical);
                prop_assert_eq!(&e, &WireError::InvalidValue { context: "map key order" });
                prop_assert_eq!(as_map.unwrap_err(), e);
            }
        }
    }

    /// A recorded input's kind encodes its shared tag or partner as the
    /// string it names, and decodes back equal.
    #[test]
    fn input_kinds_encode_their_names_as_strings(name in "[a-z]{0,8}", partner in any::<bool>()) {
        let (kind, byte) = if partner {
            (InputKind::Message(Arc::from(name.as_str())), 3)
        } else {
            (InputKind::Tagged(Arc::from(name.as_str())), 0)
        };
        let mut w = Writer::new();
        w.put_u8(byte);
        w.put_str(&name);
        let bytes = w.into_inner();
        prop_assert_eq!(&to_wire(&kind), &bytes);
        prop_assert_eq!(from_wire::<InputKind>(&bytes).unwrap(), kind);
    }
}
