//! Server replication (Minsky et al.): a market-data pipeline where every
//! stage runs on three independent replicas and the resulting states are
//! voted on — one corrupt replica per stage is simply outvoted.
//!
//! ```text
//! cargo run --example replicated_market
//! ```

use rand::SeedableRng;
use refstate::core::VerificationPipeline;
use refstate::crypto::DsaParams;
use refstate::mechanisms::{run_replicated_pipeline, StageSpec};
use refstate::platform::{AgentImage, Attack, EventLog, Host, HostSpec};
use refstate::vm::{assemble, DataState, ExecConfig, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = DsaParams::test_group_256();
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);

    // The agent aggregates a reference price across three market stages.
    let program = assemble(
        r#"
        input "price"
        load "sum"
        add
        store "sum"
        load "n"
        push 1
        add
        store "n"
        push "next"
        migrate
    "#,
    )?;
    let mut state = DataState::new();
    state.set("sum", Value::Int(0));
    state.set("n", Value::Int(0));
    let agent = AgentImage::new("market-sampler", program, state);

    // Three stages × three replicas. Stage prices: 100, 102, 98.
    // One replica of stage 1 forges the running sum.
    let stage_prices = [100i64, 102, 98];
    let mut hosts = Vec::new();
    let mut stages = Vec::new();
    for (s, price) in stage_prices.iter().enumerate() {
        let mut ids = Vec::new();
        for r in 0..3 {
            let id = format!("exchange-{s}{}", (b'a' + r) as char);
            let mut spec = HostSpec::new(id.as_str()).with_input("price", Value::Int(*price));
            if s == 1 && r == 2 {
                spec = spec.malicious(Attack::TamperVariable {
                    name: "sum".into(),
                    value: Value::Int(1_000_000),
                });
            }
            hosts.push(Host::new(spec, &params, &mut rng));
            ids.push(id);
        }
        stages.push(StageSpec::new(ids));
    }

    let log = EventLog::new();
    let outcome = run_replicated_pipeline(
        &mut hosts,
        &stages,
        agent,
        &ExecConfig::default(),
        &log,
        &VerificationPipeline::new(),
    )?;

    println!("per-stage votes:");
    for vote in &outcome.votes {
        println!("  stage {}:", vote.stage);
        for (digest, voters) in &vote.tally {
            let names: Vec<&str> = voters.iter().map(|h| h.as_str()).collect();
            let marker = if Some(*digest) == vote.winner {
                "WINNER"
            } else {
                "minority"
            };
            println!("    state#{} <- {:?} [{marker}]", digest.short(), names);
        }
    }

    match outcome.final_state {
        Some(state) => {
            println!(
                "\nvoted final state: sum = {:?} over {:?} stages",
                state.get_int("sum"),
                state.get_int("n")
            );
            println!("expected 100 + 102 + 98 = 300 — the forgery never made it through");
        }
        None => println!("\nno majority — too many corrupt replicas"),
    }
    if !outcome.suspects.is_empty() {
        println!(
            "replicas flagged for diverging from the majority: {:?}",
            outcome
                .suspects
                .iter()
                .map(|h| h.as_str())
                .collect::<Vec<_>>()
        );
    }
    Ok(())
}
