//! Proof verification (§3.4), hands on: a host proves it executed an agent
//! session correctly, and a verifier checks the proof by auditing a handful
//! of random steps — without re-running the session.
//!
//! ```text
//! cargo run --release --example proof_spotcheck
//! ```

use std::time::Instant;

use refstate::mechanisms::{Prover, Verifier};
use refstate::platform::AgentId;
use refstate::vm::{assemble, DataState, ExecConfig, NullIo, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A compute-heavy session: 50k loop iterations.
    let program = assemble(
        r#"
        push 0
        store "x"
    loop:
        load "x"
        push 50000
        ge
        jnz done
        load "x"
        push 1
        add
        store "x"
        jump loop
    done:
        halt
    "#,
    )?;
    let exec = ExecConfig::default();

    println!("proving: executing the session with per-step commitments...");
    let t = Instant::now();
    let prover = Prover::execute(
        AgentId::new("prover-demo"),
        &program,
        DataState::new(),
        &mut NullIo,
        &exec,
    )?;
    let prove_time = t.elapsed();
    let proof = prover.proof().clone();
    println!(
        "  proof: {} steps, root {}, claimed x = {:?}   [{:.0} ms]",
        proof.steps,
        proof.root.short(),
        proof.final_state.get_int("x"),
        prove_time.as_secs_f64() * 1e3
    );

    println!("\nverifying with 16 Fiat–Shamir spot checks...");
    let verifier = Verifier::new(16);
    let challenges = verifier.challenges_for(&proof);
    println!("  audited steps: {challenges:?}");
    let t = Instant::now();
    verifier.verify(&program, &proof, &prover, &exec)?;
    let verify_time = t.elapsed();
    println!(
        "  proof ACCEPTED in {:.2} ms ({}x faster than proving)",
        verify_time.as_secs_f64() * 1e3,
        (prove_time.as_secs_f64() / verify_time.as_secs_f64()) as u64
    );

    println!("\nnow the host lies about the result...");
    let mut forged = proof.clone();
    forged.final_state.set("x", Value::Int(999_999));
    match verifier.verify(&program, &forged, &prover, &exec) {
        Err(e) => println!("  proof REJECTED: {e}"),
        Ok(()) => println!("  (unexpected: forged proof accepted)"),
    }

    println!(
        "\nnote: real holographic proofs (Biehl/Meyer/Wetzel) are NP-hard to\n\
         construct — the paper sets them aside for exactly that reason. This\n\
         Merkle-transcript substitute keeps the interface (self-contained proof,\n\
         sublinear verification) at the cost of weaker soundness; see the\n\
         refstate_mechanisms::proofs module docs."
    );
    Ok(())
}
