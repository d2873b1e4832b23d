//! Proof verification (§3.4), simulated.
//!
//! Biehl/Meyer/Wetzel use holographic proofs: a representation of an
//! execution trace "that can be used to prove the existence of an execution
//! trace that leads to the final state of an agent by checking only
//! constantly many bits". Constructing such proofs is NP-hard, which is why
//! the paper sets the approach aside.
//!
//! This module substitutes the closest practically constructible object: a
//! **Merkle-committed step transcript with Fiat–Shamir spot checks**.
//!
//! * The prover (the executing host) snapshots the full machine state at
//!   every instruction boundary, commits to the snapshot sequence in a
//!   Merkle tree, and publishes the root plus the final state.
//! * The verifier derives `k` pseudo-random step indices from the root
//!   (so the prover commits before knowing which steps are audited),
//!   receives openings for those steps, re-executes each *single*
//!   instruction, and checks the successor snapshot against the tree.
//!
//! Verification touches `O(k · log n)` hashes and `k` instructions instead
//! of `n` — the sublinear-verification interface of the original proposal.
//! A prover who fabricates a final state must corrupt at least one step
//! transition, which each challenge catches with probability ≥ 1/n, so `k`
//! challenges give soundness `1 - (1 - f)^k` for a fraction `f` of corrupt
//! transitions (the usual PCP-lite trade-off).

use std::fmt;

use refstate_crypto::{sha256_of, Digest};
use refstate_platform::AgentId;
use refstate_vm::{
    DataState, ExecConfig, InputLog, Interpreter, MachineState, Program, SessionEnd, SessionIo,
    SyscallKind, Value, VmError,
};
use refstate_wire::to_wire;

use crate::merkle::{challenge_indices, MerklePath, MerkleTree};

/// The published proof: commitment root, step count, and the claimed final
/// state. Self-contained — "proofs do not need reference data as
/// parameters, as they include all relevant data" (§3.5).
#[derive(Debug, Clone)]
pub struct ExecutionProof {
    /// The agent the proof speaks about.
    pub agent: AgentId,
    /// Merkle root over the `steps + 1` machine-state snapshots.
    pub root: Digest,
    /// Number of executed instructions.
    pub steps: u64,
    /// The claimed resulting data state.
    pub final_state: DataState,
    /// The recorded session input (needed to re-execute audited steps that
    /// consume input).
    pub input: InputLog,
    /// Digest of the initial data state (binds the proof to its start).
    pub initial_digest: Digest,
}

/// One audited step: the snapshot before the step, its path, and the path
/// of the successor snapshot.
#[derive(Debug, Clone)]
pub struct StepOpening {
    /// The step index (0-based; the step from snapshot `i` to `i + 1`).
    pub index: usize,
    /// The machine state before the step.
    pub before: MachineState,
    /// Authentication path for `before` at leaf `index`.
    pub before_path: MerklePath,
    /// Encoded machine state after the step.
    pub after_encoded: Vec<u8>,
    /// Authentication path for the successor at leaf `index + 1`.
    pub after_path: MerklePath,
}

/// Proof failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProofError {
    /// The prover could not execute the session.
    Execution(VmError),
    /// An opening was requested for a step outside the transcript.
    IndexOutOfRange {
        /// The bad index.
        index: usize,
    },
    /// A Merkle path failed to verify.
    PathInvalid {
        /// The failing step index.
        index: usize,
    },
    /// Re-executing an audited step produced a different successor state.
    StepMismatch {
        /// The failing step index.
        index: usize,
    },
    /// The first snapshot does not match the claimed initial state.
    WrongStart,
    /// The last snapshot does not match the claimed final state.
    WrongEnd,
    /// The audited step failed to execute at all.
    StepFailed {
        /// The failing step index.
        index: usize,
        /// The VM error, rendered.
        error: String,
    },
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::Execution(e) => write!(f, "prover execution failed: {e}"),
            ProofError::IndexOutOfRange { index } => write!(f, "step {index} out of range"),
            ProofError::PathInvalid { index } => write!(f, "Merkle path invalid at step {index}"),
            ProofError::StepMismatch { index } => {
                write!(f, "step {index} transition does not re-execute")
            }
            ProofError::WrongStart => f.write_str("first snapshot mismatches initial state"),
            ProofError::WrongEnd => f.write_str("last snapshot mismatches claimed final state"),
            ProofError::StepFailed { index, error } => {
                write!(f, "step {index} failed to re-execute: {error}")
            }
        }
    }
}

impl std::error::Error for ProofError {}

/// The proving side: executes a session, keeping all snapshots.
#[derive(Debug)]
pub struct Prover {
    snapshots: Vec<Vec<u8>>, // wire-encoded MachineStates
    tree: MerkleTree,
    proof: ExecutionProof,
    end: SessionEnd,
}

impl Prover {
    /// Executes one session of `program` from `initial`, recording every
    /// machine-state snapshot, and commits to the transcript.
    ///
    /// # Errors
    ///
    /// [`ProofError::Execution`] if the session itself fails.
    pub fn execute(
        agent: AgentId,
        program: &Program,
        initial: DataState,
        io: &mut dyn SessionIo,
        exec: &ExecConfig,
    ) -> Result<Self, ProofError> {
        let mut interp = Interpreter::new(program, initial.clone(), exec.clone());
        let mut snapshots = vec![to_wire(&interp.capture())];
        let end;
        loop {
            match interp.step(io) {
                Ok(None) => snapshots.push(to_wire(&interp.capture())),
                Ok(Some(session_end)) => {
                    snapshots.push(to_wire(&interp.capture()));
                    end = session_end;
                    break;
                }
                Err(e) => return Err(ProofError::Execution(e)),
            }
        }
        let steps = (snapshots.len() - 1) as u64;
        let tree = MerkleTree::build(snapshots.iter().map(|s| s.as_slice()));
        let outcome = interp.into_outcome(end.clone());
        let proof = ExecutionProof {
            agent,
            root: *tree.root(),
            steps,
            final_state: outcome.state,
            input: outcome.input_log,
            initial_digest: sha256_of(&initial),
        };
        Ok(Prover {
            snapshots,
            tree,
            proof,
            end,
        })
    }

    /// The published proof.
    pub fn proof(&self) -> &ExecutionProof {
        &self.proof
    }

    /// How the session ended.
    pub fn end(&self) -> &SessionEnd {
        &self.end
    }

    /// Opens the transition at `index` (step from snapshot `index` to
    /// `index + 1`).
    ///
    /// # Errors
    ///
    /// [`ProofError::IndexOutOfRange`] when `index >= steps`.
    pub fn open_step(&self, index: usize) -> Result<StepOpening, ProofError> {
        if index + 1 >= self.snapshots.len() {
            return Err(ProofError::IndexOutOfRange { index });
        }
        let before: MachineState =
            refstate_wire::from_wire(&self.snapshots[index]).expect("own snapshot re-decodes");
        Ok(StepOpening {
            index,
            before,
            before_path: self.tree.open(index).expect("in range"),
            after_encoded: self.snapshots[index + 1].clone(),
            after_path: self.tree.open(index + 1).expect("in range"),
        })
    }

    /// Opens the first and last snapshots (boundary check material).
    pub fn open_boundaries(&self) -> (Vec<u8>, MerklePath, Vec<u8>, MerklePath) {
        let first = self.snapshots.first().expect("non-empty").clone();
        let last = self.snapshots.last().expect("non-empty").clone();
        let n = self.snapshots.len();
        (
            first,
            self.tree.open(0).expect("in range"),
            last,
            self.tree.open(n - 1).expect("in range"),
        )
    }
}

/// Replay I/O that can start mid-log: audited steps that consume input get
/// the value the input log records for that machine-state position.
struct MidSessionIo<'a> {
    log: &'a InputLog,
    /// Inputs consumed before the audited step = number of records whose
    /// consumption happened in earlier steps. We match by count: the
    /// `before` snapshot knows how many inputs were consumed so far only
    /// implicitly — so the prover's input log is consulted positionally.
    consumed_before: usize,
    used: usize,
}

impl SessionIo for MidSessionIo<'_> {
    fn input(&mut self, pc: usize, tag: &str) -> Result<Value, VmError> {
        self.take(pc, &format!("input:{tag}"))
    }

    fn syscall(&mut self, pc: usize, kind: SyscallKind) -> Result<Value, VmError> {
        self.take(pc, &format!("syscall:{kind}"))
    }

    fn recv(&mut self, pc: usize, partner: &str) -> Result<Value, VmError> {
        self.take(pc, &format!("recv:{partner}"))
    }

    fn send(&mut self, _pc: usize, _partner: &str, _value: Value) -> Result<(), VmError> {
        Ok(()) // suppressed
    }
}

impl MidSessionIo<'_> {
    fn take(&mut self, pc: usize, what: &str) -> Result<Value, VmError> {
        let record = self
            .log
            .records()
            .get(self.consumed_before + self.used)
            .ok_or_else(|| VmError::InputUnavailable {
                pc,
                what: what.to_owned(),
            })?;
        if record.pc != pc as u64 {
            return Err(VmError::ReplayMismatch {
                pc,
                detail: format!(
                    "input log records pc {}, audited step is at pc {pc}",
                    record.pc
                ),
            });
        }
        self.used += 1;
        Ok(record.value.clone())
    }
}

/// The verifying side.
#[derive(Debug, Clone)]
pub struct Verifier {
    /// Number of spot checks.
    pub challenges: usize,
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier { challenges: 16 }
    }
}

impl Verifier {
    /// A verifier issuing `challenges` spot checks per proof.
    pub fn new(challenges: usize) -> Self {
        Verifier { challenges }
    }

    /// The challenge indices for a proof (Fiat–Shamir over the root).
    pub fn challenges_for(&self, proof: &ExecutionProof) -> Vec<usize> {
        challenge_indices(
            &proof.root,
            proof.agent.as_str().as_bytes(),
            proof.steps as usize,
            self.challenges,
        )
    }

    /// Verifies a proof against a prover willing to answer openings.
    ///
    /// This is the interactive form; [`Verifier::verify_transcript`] checks
    /// pre-collected openings (the non-interactive wire form).
    ///
    /// # Errors
    ///
    /// The first [`ProofError`] encountered.
    pub fn verify(
        &self,
        program: &Program,
        proof: &ExecutionProof,
        prover: &Prover,
        exec: &ExecConfig,
    ) -> Result<(), ProofError> {
        let (first, first_path, last, last_path) = prover.open_boundaries();
        let openings: Result<Vec<StepOpening>, ProofError> = self
            .challenges_for(proof)
            .into_iter()
            .map(|i| prover.open_step(i))
            .collect();
        self.verify_transcript(
            program,
            proof,
            &first,
            &first_path,
            &last,
            &last_path,
            &openings?,
            exec,
        )
    }

    /// Verifies boundary openings plus audited steps.
    ///
    /// # Errors
    ///
    /// The first [`ProofError`] encountered.
    #[allow(clippy::too_many_arguments)]
    pub fn verify_transcript(
        &self,
        program: &Program,
        proof: &ExecutionProof,
        first: &[u8],
        first_path: &MerklePath,
        last: &[u8],
        last_path: &MerklePath,
        openings: &[StepOpening],
        exec: &ExecConfig,
    ) -> Result<(), ProofError> {
        // Boundary: first snapshot is a clean session start over the
        // claimed initial state...
        if !first_path.verify(first, &proof.root) || first_path.index != 0 {
            return Err(ProofError::PathInvalid { index: 0 });
        }
        let first_state: MachineState =
            refstate_wire::from_wire(first).map_err(|_| ProofError::WrongStart)?;
        if first_state.pc != 0
            || !first_state.stack.is_empty()
            || first_state.steps != 0
            || sha256_of(&first_state.state) != proof.initial_digest
        {
            return Err(ProofError::WrongStart);
        }
        // ...and the last snapshot carries the claimed final state.
        if !last_path.verify(last, &proof.root) || last_path.index != proof.steps as usize {
            return Err(ProofError::PathInvalid {
                index: proof.steps as usize,
            });
        }
        let last_state: MachineState =
            refstate_wire::from_wire(last).map_err(|_| ProofError::WrongEnd)?;
        if last_state.state != proof.final_state || last_state.steps != proof.steps {
            return Err(ProofError::WrongEnd);
        }
        // The transcript must actually end the session: its final program
        // counter must sit just past a `halt` or `migrate`. This rejects
        // "empty" proofs from hosts that skipped execution entirely.
        let terminal = last_state
            .pc
            .checked_sub(1)
            .and_then(|pc| program.get(pc as usize))
            .is_some_and(|i| matches!(i, refstate_vm::Instr::Halt | refstate_vm::Instr::Migrate));
        if proof.steps == 0 || !terminal {
            return Err(ProofError::WrongEnd);
        }

        // Spot checks.
        for opening in openings {
            let i = opening.index;
            let before_encoded = to_wire(&opening.before);
            if opening.before_path.index != i
                || !opening.before_path.verify(&before_encoded, &proof.root)
            {
                return Err(ProofError::PathInvalid { index: i });
            }
            if opening.after_path.index != i + 1
                || !opening
                    .after_path
                    .verify(&opening.after_encoded, &proof.root)
            {
                return Err(ProofError::PathInvalid { index: i + 1 });
            }
            // Re-execute the single step. The snapshot records how many
            // inputs the session had consumed up to this boundary, so the
            // replay can start mid-log.
            let mut io = MidSessionIo {
                log: &proof.input,
                consumed_before: opening.before.inputs_consumed as usize,
                used: 0,
            };
            let mut interp = Interpreter::resume(program, opening.before.clone(), exec.clone());
            match interp.step(&mut io) {
                Ok(_) => {}
                Err(e) => {
                    return Err(ProofError::StepFailed {
                        index: i,
                        error: e.to_string(),
                    })
                }
            }
            let after = interp.capture();
            if to_wire(&after) != opening.after_encoded {
                return Err(ProofError::StepMismatch { index: i });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refstate_crypto::sha256;
    use refstate_vm::{assemble, ScriptedIo};

    fn compute_program() -> Program {
        assemble(
            r#"
            push 0
            store "sum"
            push 0
            store "i"
        loop:
            load "i"
            push 20
            ge
            jnz done
            load "sum"
            load "i"
            add
            store "sum"
            load "i"
            push 1
            add
            store "i"
            jump loop
        done:
            halt
        "#,
        )
        .unwrap()
    }

    #[test]
    fn honest_proof_verifies() {
        let program = compute_program();
        let mut io = ScriptedIo::new();
        let prover = Prover::execute(
            AgentId::new("a"),
            &program,
            DataState::new(),
            &mut io,
            &ExecConfig::default(),
        )
        .unwrap();
        let proof = prover.proof().clone();
        assert_eq!(proof.final_state.get_int("sum"), Some(190));
        let verifier = Verifier::new(8);
        verifier
            .verify(&program, &proof, &prover, &ExecConfig::default())
            .unwrap();
    }

    #[test]
    fn forged_final_state_detected_at_boundary() {
        let program = compute_program();
        let mut io = ScriptedIo::new();
        let prover = Prover::execute(
            AgentId::new("a"),
            &program,
            DataState::new(),
            &mut io,
            &ExecConfig::default(),
        )
        .unwrap();
        let mut proof = prover.proof().clone();
        proof.final_state.set("sum", Value::Int(999_999));
        let verifier = Verifier::new(8);
        let err = verifier
            .verify(&program, &proof, &prover, &ExecConfig::default())
            .unwrap_err();
        assert_eq!(err, ProofError::WrongEnd);
    }

    #[test]
    fn forged_initial_state_detected_at_boundary() {
        let program = compute_program();
        let mut io = ScriptedIo::new();
        let prover = Prover::execute(
            AgentId::new("a"),
            &program,
            DataState::new(),
            &mut io,
            &ExecConfig::default(),
        )
        .unwrap();
        let mut proof = prover.proof().clone();
        proof.initial_digest = sha256(b"some other state");
        let verifier = Verifier::new(4);
        let err = verifier
            .verify(&program, &proof, &prover, &ExecConfig::default())
            .unwrap_err();
        assert_eq!(err, ProofError::WrongStart);
    }

    #[test]
    fn tampered_opening_detected() {
        let program = compute_program();
        let mut io = ScriptedIo::new();
        let prover = Prover::execute(
            AgentId::new("a"),
            &program,
            DataState::new(),
            &mut io,
            &ExecConfig::default(),
        )
        .unwrap();
        let proof = prover.proof().clone();
        let mut opening = prover.open_step(5).unwrap();
        // Tamper the "before" snapshot: the Merkle path no longer matches.
        opening.before.state.set("sum", Value::Int(4242));
        let (first, fp, last, lp) = prover.open_boundaries();
        let err = Verifier::new(1)
            .verify_transcript(
                &program,
                &proof,
                &first,
                &fp,
                &last,
                &lp,
                &[opening],
                &ExecConfig::default(),
            )
            .unwrap_err();
        assert!(matches!(err, ProofError::PathInvalid { .. }));
    }

    #[test]
    fn inconsistent_transition_detected() {
        // Build a fake transcript where one transition skips work: commit
        // to snapshots from two different executions.
        let program = compute_program();
        let mut io = ScriptedIo::new();
        let honest = Prover::execute(
            AgentId::new("a"),
            &program,
            DataState::new(),
            &mut io,
            &ExecConfig::default(),
        )
        .unwrap();
        // Adversary: replace a middle snapshot with a manipulated one and
        // rebuild the tree (it CAN do this — the question is whether spot
        // checks catch the broken transition).
        let mut snapshots = honest.snapshots.clone();
        let mid = snapshots.len() / 2;
        let mut state: MachineState = refstate_wire::from_wire(&snapshots[mid]).unwrap();
        state.state.set("sum", Value::Int(12345));
        snapshots[mid] = to_wire(&state);
        let tree = MerkleTree::build(snapshots.iter().map(|s| s.as_slice()));
        let forged_prover = Prover {
            snapshots,
            proof: ExecutionProof {
                root: *tree.root(),
                ..honest.proof().clone()
            },
            tree,
            end: honest.end().clone(),
        };
        let proof = forged_prover.proof().clone();
        // Audit every step: the broken transition (mid-1 → mid or mid →
        // mid+1) must be caught.
        let n = proof.steps as usize;
        let openings: Vec<StepOpening> = (0..n)
            .map(|i| forged_prover.open_step(i).unwrap())
            .collect();
        let (first, fp, last, lp) = forged_prover.open_boundaries();
        let err = Verifier::new(n)
            .verify_transcript(
                &program,
                &proof,
                &first,
                &fp,
                &last,
                &lp,
                &openings,
                &ExecConfig::default(),
            )
            .unwrap_err();
        assert!(matches!(err, ProofError::StepMismatch { .. }));
    }

    #[test]
    fn proof_with_inputs_verifies() {
        let program = assemble(
            r#"
            input "a"
            input "a"
            add
            store "sum"
            halt
        "#,
        )
        .unwrap();
        let mut io = ScriptedIo::new();
        io.push_input("a", Value::Int(3))
            .push_input("a", Value::Int(4));
        let prover = Prover::execute(
            AgentId::new("a"),
            &program,
            DataState::new(),
            &mut io,
            &ExecConfig::default(),
        )
        .unwrap();
        let proof = prover.proof().clone();
        assert_eq!(proof.final_state.get_int("sum"), Some(7));
        // Audit every step, including the input-consuming ones.
        let n = proof.steps as usize;
        let openings: Vec<StepOpening> = (0..n).map(|i| prover.open_step(i).unwrap()).collect();
        let (first, fp, last, lp) = prover.open_boundaries();
        Verifier::new(n)
            .verify_transcript(
                &program,
                &proof,
                &first,
                &fp,
                &last,
                &lp,
                &openings,
                &ExecConfig::default(),
            )
            .unwrap();
    }

    /// Verification with a fixed `k` stays sublinear in the execution
    /// length: `k` openings whose paths grow with `log n`, never `n`.
    #[test]
    fn verification_opens_k_steps_on_log_depth_paths() {
        for iterations in [50, 200, 800] {
            let program = assemble(&format!(
                r#"
                push 0
                store "x"
            loop:
                load "x"
                push {iterations}
                ge
                jnz done
                load "x"
                push 1
                add
                store "x"
                jump loop
            done:
                halt
            "#
            ))
            .unwrap();
            let prover = Prover::execute(
                AgentId::new("a"),
                &program,
                DataState::new(),
                &mut ScriptedIo::new(),
                &ExecConfig::default(),
            )
            .unwrap();
            let proof = prover.proof().clone();
            let verifier = Verifier::new(16);
            let challenges = verifier.challenges_for(&proof);
            assert_eq!(challenges.len(), 16, "{iterations} iterations");
            // The tree commits to `steps + 1` snapshots.
            let depth = (proof.steps + 1).next_power_of_two().trailing_zeros() as usize;
            let openings: Vec<StepOpening> = challenges
                .into_iter()
                .map(|i| prover.open_step(i).unwrap())
                .collect();
            for opening in &openings {
                assert_eq!(opening.before_path.siblings.len(), depth);
                assert_eq!(opening.after_path.siblings.len(), depth);
            }
            let (first, fp, last, lp) = prover.open_boundaries();
            verifier
                .verify_transcript(
                    &program,
                    &proof,
                    &first,
                    &fp,
                    &last,
                    &lp,
                    &openings,
                    &ExecConfig::default(),
                )
                .unwrap();
        }
    }

    #[test]
    fn out_of_range_opening_rejected() {
        let program = compute_program();
        let mut io = ScriptedIo::new();
        let prover = Prover::execute(
            AgentId::new("a"),
            &program,
            DataState::new(),
            &mut io,
            &ExecConfig::default(),
        )
        .unwrap();
        let n = prover.proof().steps as usize;
        assert!(matches!(
            prover.open_step(n),
            Err(ProofError::IndexOutOfRange { .. })
        ));
    }
}
