//! Vigna's execution traces end to end: a journey with trace recording, a
//! suspicious owner, and the audit that pins down the cheater.
//!
//! ```text
//! cargo run --example trace_audit
//! ```

use rand::SeedableRng;
use refstate::core::VerificationPipeline;
use refstate::crypto::{DsaParams, KeyDirectory};
use refstate::mechanisms::{audit_journey, run_traced_journey};
use refstate::platform::{AgentImage, Attack, EventLog, Host, HostSpec};
use refstate::vm::{assemble, DataState, ExecConfig, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = DsaParams::test_group_256();
    let mut rng = rand::rngs::StdRng::seed_from_u64(31337);

    // A bookkeeping agent summing per-branch revenue; the second branch
    // under-reports by tampering the running total.
    let mut hosts = vec![
        Host::new(
            HostSpec::new("branch-1")
                .trusted()
                .with_input("revenue", Value::Int(1000)),
            &params,
            &mut rng,
        ),
        Host::new(
            HostSpec::new("branch-2")
                .with_input("revenue", Value::Int(2500))
                .malicious(Attack::TamperVariable {
                    name: "total".into(),
                    value: Value::Int(1500),
                }),
            &params,
            &mut rng,
        ),
        Host::new(
            HostSpec::new("hq")
                .trusted()
                .with_input("revenue", Value::Int(800)),
            &params,
            &mut rng,
        ),
    ];
    let mut directory = KeyDirectory::new();
    for h in &hosts {
        directory.register(h.id().as_str(), h.public_key().clone());
    }

    let program = assemble(
        r#"
        input "revenue"
        load "total"
        add
        store "total"
        load "hop"
        push 1
        add
        store "hop"
        load "hop"
        push 1
        eq
        jnz to_2
        load "hop"
        push 2
        eq
        jnz to_hq
        halt
    to_2:
        push "branch-2"
        migrate
    to_hq:
        push "hq"
        migrate
    "#,
    )?;
    let mut state = DataState::new();
    state.set("total", Value::Int(0));
    state.set("hop", Value::Int(0));
    let agent = AgentImage::new("auditor", program.clone(), state);

    let log = EventLog::new();
    let journey = run_traced_journey(
        &mut hosts,
        "branch-1",
        agent,
        &ExecConfig::default(),
        &log,
        10,
    )?;

    println!(
        "journey complete: visited {:?}",
        journey.path.iter().map(|h| h.as_str()).collect::<Vec<_>>()
    );
    println!(
        "reported grand total: {:?}",
        journey.final_state.get_int("total")
    );
    println!("(expected 1000 + 2500 + 800 = 4300 — something is off)\n");

    println!("per-session commitments received by the owner:");
    for signed in &journey.commitments {
        let c = signed.payload();
        println!(
            "  session {} by {:<10} trace#{} result#{}",
            c.seq,
            c.executor.as_str(),
            c.trace_digest.short(),
            c.resulting_digest.short(),
        );
    }

    println!("\nowner is suspicious -> requesting traces and re-executing...\n");
    let report = audit_journey(
        &journey,
        &program,
        &directory,
        &ExecConfig::default(),
        &log,
        &VerificationPipeline::uncached(),
    );
    for v in &report.verdicts {
        println!("  {v}");
    }
    match &report.culprit {
        Some(culprit) => {
            println!("\nculprit identified: {culprit}");
            if let Some((claimed, reference)) = &report.digest_evidence {
                println!("  claimed resulting state hash:   {claimed}");
                println!("  re-executed reference hash:     {reference}");
                println!("  (hashes only — Vigna's protocol never ships full states)");
            }
        }
        None => println!("\naudit clean — no fraud found"),
    }
    Ok(())
}
