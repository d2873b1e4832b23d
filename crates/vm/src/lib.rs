//! A deterministic mobile-agent virtual machine.
//!
//! The paper's protection schemes (state appraisal, replication, traces,
//! proofs, and the reference-state framework itself) all assume an agent
//! runtime with three properties:
//!
//! 1. **Separable state** — the agent's variable part (its *data state*) can
//!    be extracted, hashed, signed, transported, and re-installed.
//! 2. **Deterministic re-execution** — given the recorded *input* of a
//!    session, any host can re-run the session and must reach the same
//!    resulting state (this is what makes a "reference state" computable).
//! 3. **Trace hooks** — the runtime can record which statement executed and
//!    which external values entered the agent (Vigna's traces, Fig. 3 of
//!    the paper).
//!
//! The original system used Java and the Mole platform; none of that is
//! available (or relevant) here, so this crate implements a small stack
//! bytecode VM with exactly those three properties:
//!
//! * [`Value`] / [`DataState`] — the agent's variable part,
//! * [`Program`] / [`Instr`] / [`ProgramBuilder`] / [`assemble`] — agent
//!   code, writable in Rust or in a tiny assembly dialect,
//! * [`SessionIo`] — the boundary through which *all* nondeterminism
//!   (inputs, system calls, messages) enters an execution session,
//! * [`Interpreter`] / [`run_session`] — execution with step limits,
//!   input logging, and optional tracing,
//! * [`ReplayIo`] — re-execution from a recorded [`InputLog`],
//! * [`MachineState`] — full machine snapshots for the proof-verification
//!   mechanism's single-step spot checks.
//!
//! # Examples
//!
//! A complete session: an agent that doubles an input price.
//!
//! ```
//! use refstate_vm::{assemble, run_session, DataState, ExecConfig, ScriptedIo, Value};
//!
//! let program = assemble(r#"
//!     input "price"
//!     push 2
//!     mul
//!     store "total"
//!     halt
//! "#)?;
//! let mut io = ScriptedIo::new();
//! io.push_input("price", Value::Int(21));
//! let outcome = run_session(&program, DataState::new(), &mut io, &ExecConfig::default())?;
//! assert_eq!(outcome.state.get("total"), Some(&Value::Int(42)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod compiled;
mod error;
mod instr;
mod interp;
mod io;
mod log;
mod machine;
mod program;
mod state;
mod trace;
mod value;

pub use asm::{assemble, AsmError};
pub use compiled::{run_compiled_session, CompiledProgram};
pub use error::VmError;
pub use instr::{Instr, SyscallKind};
pub use interp::{run_session, ExecConfig, Interpreter, SessionEnd, SessionOutcome};
pub use io::{NullIo, ReplayIo, ScriptedIo, SessionIo};
pub use log::{InputKind, InputLog, InputRecord, OutputRecord};
pub use machine::MachineState;
pub use program::{Program, ProgramBuilder};
pub use state::DataState;
pub use trace::{Trace, TraceEntry, TraceMode};
pub use value::Value;
