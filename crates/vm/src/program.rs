//! Agent programs and the builder for constructing them in Rust.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use refstate_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::compiled::CompiledProgram;
use crate::instr::Instr;
use crate::value::Value;

/// An immutable agent program: a validated instruction sequence.
///
/// Jump targets are validated at construction, so the interpreter can trust
/// them (it still range-checks defensively). The wire encoding of a program
/// is canonical, so code can be hashed and signed like any other part of the
/// agent.
///
/// # Examples
///
/// ```
/// use refstate_vm::{Instr, Program, Value};
///
/// let p = Program::new(vec![
///     Instr::Push(Value::Int(1)),
///     Instr::Store("x".into()),
///     Instr::Halt,
/// ])?;
/// assert_eq!(p.len(), 3);
/// # Ok::<(), refstate_vm::VmError>(())
/// ```
#[derive(Clone)]
pub struct Program {
    /// The validated instruction stream. `Arc`-shared: agent images are
    /// cloned per hop, per replica, and per mechanism, and none of those
    /// copies may re-copy the code.
    instrs: Arc<[Instr]>,
    /// The lazily compiled fast-path form, shared across clones (the
    /// PR-3 `DsaParams` accel idiom): an agent image cloned per hop,
    /// mechanism, or replica compiles once. Derived data — excluded from
    /// equality, debug, and the wire encoding.
    compiled: Arc<OnceLock<Arc<CompiledProgram>>>,
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.instrs == other.instrs
    }
}

impl Eq for Program {}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("instrs", &self.instrs)
            .finish_non_exhaustive()
    }
}

impl Program {
    /// Validates and wraps an instruction sequence.
    ///
    /// # Errors
    ///
    /// Returns [`crate::VmError::PcOutOfRange`] if any jump or call targets
    /// an index outside the program.
    pub fn new(instrs: Vec<Instr>) -> Result<Self, crate::VmError> {
        let len = instrs.len();
        for instr in &instrs {
            if let Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) | Instr::Call(t) =
                instr
            {
                if *t >= len {
                    return Err(crate::VmError::PcOutOfRange { target: *t, len });
                }
            }
        }
        Ok(Program {
            instrs: instrs.into(),
            compiled: Arc::new(OnceLock::new()),
        })
    }

    /// The shared compiled form of this program, compiling on first use.
    ///
    /// Clones of a `Program` share the result through one cell, so the
    /// hot drivers (host execution, replay verification) compile once per
    /// program lineage, not once per session. A separately assembled or
    /// decoded copy is a lineage of its own and compiles again; drivers
    /// that run many agents of one shape hand them clones of one program.
    pub fn compiled(&self) -> Arc<CompiledProgram> {
        self.compiled
            .get_or_init(|| Arc::new(CompiledProgram::compile(self)))
            .clone()
    }

    /// The instruction at `pc`.
    pub fn get(&self, pc: usize) -> Option<&Instr> {
        self.instrs.get(pc)
    }

    /// The number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` for the empty program.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> impl Iterator<Item = &Instr> {
        self.instrs.iter()
    }

    /// Renders a disassembly listing.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (i, instr) in self.instrs.iter().enumerate() {
            out.push_str(&format!("{i:4}  {instr}\n"));
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.disassemble())
    }
}

impl Encode for Program {
    fn encode(&self, w: &mut Writer) {
        self.instrs.encode(w);
    }
}

impl Decode for Program {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let instrs = Vec::<Instr>::decode(r)?;
        Program::new(instrs).map_err(|_| WireError::InvalidValue {
            context: "Program jump target",
        })
    }
}

/// An incremental program builder with label support.
///
/// Use this when writing agents in Rust; use [`crate::assemble`] for the
/// text dialect. Forward references are allowed: labels may be used before
/// they are defined and are resolved by [`ProgramBuilder::build`].
///
/// # Examples
///
/// ```
/// use refstate_vm::{ProgramBuilder, Value};
///
/// // while x > 0 { x = x - 1 }
/// let mut b = ProgramBuilder::new();
/// b.push(Value::Int(3)).store("x");
/// b.label("loop");
/// b.load("x").push(Value::Int(0)).gt().jump_if_false("end");
/// b.load("x").push(Value::Int(1)).sub().store("x");
/// b.jump("loop");
/// b.label("end");
/// b.halt();
/// let program = b.build()?;
/// # Ok::<(), refstate_vm::VmError>(())
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    labels: BTreeMap<String, usize>,
    /// (instruction index, label) pairs to patch at build time.
    fixups: Vec<(usize, String)>,
}

macro_rules! simple_ops {
    ($($(#[$doc:meta])* $method:ident => $instr:ident),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $method(&mut self) -> &mut Self {
                self.instrs.push(Instr::$instr);
                self
            }
        )*
    };
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defines `name` at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already defined (a programming error in the
    /// agent under construction).
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        let name = name.into();
        let prev = self.labels.insert(name.clone(), self.instrs.len());
        assert!(prev.is_none(), "label {name:?} defined twice");
        self
    }

    /// Appends a raw instruction.
    pub fn raw(&mut self, instr: Instr) -> &mut Self {
        self.instrs.push(instr);
        self
    }

    /// Pushes a constant.
    pub fn push(&mut self, v: impl Into<Value>) -> &mut Self {
        self.instrs.push(Instr::Push(v.into()));
        self
    }

    /// Loads a variable.
    pub fn load(&mut self, name: impl Into<String>) -> &mut Self {
        self.instrs.push(Instr::Load(name.into()));
        self
    }

    /// Stores into a variable.
    pub fn store(&mut self, name: impl Into<String>) -> &mut Self {
        self.instrs.push(Instr::Store(name.into()));
        self
    }

    /// Deletes a variable.
    pub fn delete(&mut self, name: impl Into<String>) -> &mut Self {
        self.instrs.push(Instr::Delete(name.into()));
        self
    }

    /// Reads an external input with the given tag.
    pub fn input(&mut self, tag: impl Into<String>) -> &mut Self {
        self.instrs.push(Instr::Input(tag.into()));
        self
    }

    /// Calls a host service.
    pub fn syscall(&mut self, kind: crate::instr::SyscallKind) -> &mut Self {
        self.instrs.push(Instr::Syscall(kind));
        self
    }

    /// Sends the top of stack to a partner.
    pub fn send(&mut self, partner: impl Into<String>) -> &mut Self {
        self.instrs.push(Instr::Send(partner.into()));
        self
    }

    /// Receives a value from a partner.
    pub fn recv(&mut self, partner: impl Into<String>) -> &mut Self {
        self.instrs.push(Instr::Recv(partner.into()));
        self
    }

    /// Jumps to a label.
    pub fn jump(&mut self, label: impl Into<String>) -> &mut Self {
        self.fixups.push((self.instrs.len(), label.into()));
        self.instrs.push(Instr::Jump(0));
        self
    }

    /// Pops a bool and jumps to `label` when false.
    pub fn jump_if_false(&mut self, label: impl Into<String>) -> &mut Self {
        self.fixups.push((self.instrs.len(), label.into()));
        self.instrs.push(Instr::JumpIfFalse(0));
        self
    }

    /// Pops a bool and jumps to `label` when true.
    pub fn jump_if_true(&mut self, label: impl Into<String>) -> &mut Self {
        self.fixups.push((self.instrs.len(), label.into()));
        self.instrs.push(Instr::JumpIfTrue(0));
        self
    }

    /// Calls the subroutine at `label`.
    pub fn call(&mut self, label: impl Into<String>) -> &mut Self {
        self.fixups.push((self.instrs.len(), label.into()));
        self.instrs.push(Instr::Call(0));
        self
    }

    simple_ops! {
        /// Discards the top of stack.
        pop => Pop,
        /// Duplicates the top of stack.
        dup => Dup,
        /// Swaps the top two values.
        swap => Swap,
        /// Integer addition.
        add => Add,
        /// Integer subtraction.
        sub => Sub,
        /// Integer multiplication.
        mul => Mul,
        /// Integer division.
        div => Div,
        /// Integer remainder.
        modulo => Mod,
        /// Integer negation.
        neg => Neg,
        /// Equality.
        eq => Eq,
        /// Inequality.
        ne => Ne,
        /// Less-than.
        lt => Lt,
        /// Less-or-equal.
        le => Le,
        /// Greater-than.
        gt => Gt,
        /// Greater-or-equal.
        ge => Ge,
        /// Conjunction.
        and => And,
        /// Disjunction.
        or => Or,
        /// Negation.
        not => Not,
        /// String concatenation.
        concat => Concat,
        /// String length.
        strlen => StrLen,
        /// Convert to string.
        tostr => ToStr,
        /// Push an empty list.
        list_new => ListNew,
        /// Append to a list.
        list_push => ListPush,
        /// Index into a list.
        list_get => ListGet,
        /// Replace a list element.
        list_set => ListSet,
        /// List length.
        list_len => ListLen,
        /// Return from subroutine.
        ret => Ret,
        /// No operation.
        nop => Nop,
        /// Migrate to the host named by the top of stack.
        migrate => Migrate,
        /// End the agent's task.
        halt => Halt,
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`crate::VmError::PcOutOfRange`] if a referenced label was
    /// never defined.
    pub fn build(&mut self) -> Result<Program, crate::VmError> {
        let mut instrs = std::mem::take(&mut self.instrs);
        for (at, label) in self.fixups.drain(..) {
            let target = *self
                .labels
                .get(&label)
                .ok_or(crate::VmError::PcOutOfRange {
                    target: usize::MAX,
                    len: instrs.len(),
                })?;
            match &mut instrs[at] {
                Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) | Instr::Call(t) => {
                    *t = target
                }
                other => unreachable!("fixup pointed at non-jump {other}"),
            }
        }
        Program::new(instrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refstate_wire::{from_wire, to_wire};

    #[test]
    fn validates_jump_targets() {
        assert!(Program::new(vec![Instr::Jump(1), Instr::Halt]).is_ok());
        assert!(Program::new(vec![Instr::Jump(2), Instr::Halt]).is_err());
        assert!(Program::new(vec![Instr::Call(5)]).is_err());
    }

    #[test]
    fn wire_round_trip() {
        let p = Program::new(vec![
            Instr::Push(Value::Int(1)),
            Instr::JumpIfTrue(0),
            Instr::Halt,
        ])
        .unwrap();
        assert_eq!(from_wire::<Program>(&to_wire(&p)).unwrap(), p);
    }

    #[test]
    fn wire_rejects_invalid_targets() {
        // Encode, then check a program whose jump exceeds its length fails
        // to decode: craft manually.
        let bad = vec![Instr::Jump(7)];
        let bytes = to_wire(&bad); // Vec<Instr> encodes fine
        assert!(from_wire::<Program>(&bytes).is_err());
    }

    #[test]
    fn builder_resolves_forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        b.push(Value::Bool(true));
        b.jump_if_true("end"); // forward reference
        b.label("loop");
        b.jump("loop"); // backward reference
        b.label("end");
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.get(1), Some(&Instr::JumpIfTrue(3)));
        assert_eq!(p.get(2), Some(&Instr::Jump(2)));
    }

    #[test]
    fn builder_missing_label_errors() {
        let mut b = ProgramBuilder::new();
        b.jump("nowhere");
        assert!(b.build().is_err());
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn builder_duplicate_label_panics() {
        let mut b = ProgramBuilder::new();
        b.label("x").label("x");
    }

    #[test]
    fn disassembly_lists_every_instruction() {
        let p = Program::new(vec![Instr::Nop, Instr::Halt]).unwrap();
        let text = p.disassemble();
        assert!(text.contains("0  nop"));
        assert!(text.contains("1  halt"));
        assert_eq!(p.to_string(), text);
    }

    #[test]
    fn iter_and_len() {
        let p = Program::new(vec![Instr::Nop, Instr::Halt]).unwrap();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.iter().count(), 2);
        assert!(p.get(5).is_none());
    }
}
