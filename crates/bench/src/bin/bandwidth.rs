//! Protection-bandwidth ablation: cost of each point on the paper's
//! mechanism scale, on the same honest workload.
//!
//! ```text
//! cargo run -p refstate-bench --release --bin bandwidth -- --cycles 500 --inputs 20
//! ```
//!
//! §4.1 sketches the scale: rules after the task are nearly free but weak;
//! re-execution after every session is strong but "roughly doubles" the
//! computation. This binary quantifies every rung, including the proof
//! mechanism's prove-vs-verify asymmetry.

use std::sync::Arc;
use std::time::{Duration, Instant};

use refstate_bench::{build_generic_agent, build_three_hosts, AgentParams};
use refstate_core::framework::{run_framework_journey, ProtectedAgent, ProtectionConfig};
use refstate_core::protocol::{run_protected_journey, ProtocolConfig};
use refstate_core::rules::{CmpOp, Expr, Pred, RuleSet};
use refstate_core::{CheckMoment, ReExecutionChecker, RuleChecker, VerificationPipeline};
use refstate_crypto::{DsaParams, KeyDirectory};
use refstate_platform::{run_plain_journey, AgentId, EventLog};
use refstate_vm::{DataState, ExecConfig, ScriptedIo, Value};

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut cycles = 500i64;
    let mut inputs = 20i64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--cycles" => {
                i += 1;
                cycles = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(cycles);
            }
            "--inputs" => {
                i += 1;
                inputs = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(inputs);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let params = AgentParams { cycles, inputs };
    let dsa = DsaParams::test_group_256();
    let exec = ExecConfig::default();
    println!(
        "refstate protection-bandwidth ablation — {} (DSA-256 for comparability)\n",
        params.label()
    );

    let mut report: Vec<(String, Duration)> = Vec::new();

    // 0. Unprotected.
    report.push((
        "unprotected".into(),
        timed(|| {
            let mut hosts = build_three_hosts(params, &dsa, 1);
            let log = EventLog::new();
            run_plain_journey(
                &mut hosts,
                "h1",
                build_generic_agent(params),
                &exec,
                &log,
                10,
            )
            .expect("journey");
        }),
    ));

    // 1. Rules, after the task (the lower end of the scale).
    report.push((
        "rules, after task".into(),
        timed(|| {
            let mut hosts = build_three_hosts(params, &dsa, 2);
            let log = EventLog::new();
            let rules = RuleSet::new()
                .rule(
                    "sum-non-negative",
                    Pred::cmp(CmpOp::Ge, Expr::var("sum"), Expr::int(0)),
                )
                .rule(
                    "hop-count",
                    Pred::cmp(CmpOp::Le, Expr::var("hop"), Expr::int(3)),
                );
            let config = ProtectionConfig::new(Arc::new(RuleChecker::new(rules)))
                .moment(CheckMoment::AfterTask);
            run_framework_journey(
                &mut hosts,
                "h1",
                ProtectedAgent::new(build_generic_agent(params), config),
                &log,
            )
            .expect("journey");
        }),
    ));

    // 2. Rules, after every session.
    report.push((
        "rules, after session".into(),
        timed(|| {
            let mut hosts = build_three_hosts(params, &dsa, 3);
            let log = EventLog::new();
            let rules = RuleSet::new().rule(
                "sum-non-negative",
                Pred::cmp(CmpOp::Ge, Expr::var("sum"), Expr::int(0)),
            );
            let config = ProtectionConfig::new(Arc::new(RuleChecker::new(rules)));
            run_framework_journey(
                &mut hosts,
                "h1",
                ProtectedAgent::new(build_generic_agent(params), config),
                &log,
            )
            .expect("journey");
        }),
    ));

    // 3. Re-execution via the generic framework (no signatures).
    report.push((
        "re-execution, after session (unsigned)".into(),
        timed(|| {
            let mut hosts = build_three_hosts(params, &dsa, 4);
            let log = EventLog::new();
            let config = ProtectionConfig::new(Arc::new(ReExecutionChecker::new()));
            run_framework_journey(
                &mut hosts,
                "h1",
                ProtectedAgent::new(build_generic_agent(params), config),
                &log,
            )
            .expect("journey");
        }),
    ));

    // 4. The full §5.1 protocol (signatures + re-execution).
    report.push((
        "session-checking protocol (signed)".into(),
        timed(|| {
            let mut hosts = build_three_hosts(params, &dsa, 5);
            let log = EventLog::new();
            run_protected_journey(
                &mut hosts,
                "h1",
                build_generic_agent(params),
                &ProtocolConfig::default(),
                &log,
            )
            .expect("journey");
        }),
    ));

    // 5. Vigna traces (journey + owner audit).
    report.push((
        "traces + owner audit".into(),
        timed(|| {
            let mut hosts = build_three_hosts(params, &dsa, 6);
            let mut dir = KeyDirectory::new();
            for h in &hosts {
                dir.register(h.id().as_str(), h.public_key().clone());
            }
            let log = EventLog::new();
            let agent = build_generic_agent(params);
            let program = agent.program.clone();
            let journey =
                refstate_mechanisms::run_traced_journey(&mut hosts, "h1", agent, &exec, &log, 10)
                    .expect("journey");
            let report = refstate_mechanisms::audit_journey(
                &journey,
                &program,
                &dir,
                &exec,
                &log,
                &VerificationPipeline::new(),
            );
            assert!(report.clean());
        }),
    ));

    // 6. Replication with 3 replicas of every stage.
    report.push((
        "replication x3 (all stages)".into(),
        timed(|| {
            use rand::SeedableRng;
            use refstate_mechanisms::{run_replicated_pipeline, StageSpec};
            use refstate_platform::{Host, HostSpec};
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let mut hosts = Vec::new();
            let mut stages = Vec::new();
            for s in 0..3 {
                let mut ids = Vec::new();
                for r in 0..3 {
                    let id = format!("s{s}r{r}");
                    let mut spec = HostSpec::new(id.as_str());
                    for k in 0..params.inputs {
                        spec = spec.with_input(
                            "elem",
                            refstate_bench::generic_agent::input_element("hx", k),
                        );
                    }
                    hosts.push(Host::new(spec, &dsa, &mut rng));
                    ids.push(id);
                }
                stages.push(StageSpec::new(ids));
            }
            // The generic agent migrates by name; replication drives stages
            // directly, so strip the itinerary by letting the vote carry it.
            let agent = build_generic_agent(params);
            let log = EventLog::new();
            let pipeline = VerificationPipeline::new();
            let outcome =
                run_replicated_pipeline(&mut hosts, &stages, agent, &exec, &log, &pipeline)
                    .expect("pipeline");
            assert!(outcome.suspects.is_empty());
        }),
    ));

    // 7. Proof verification: prove once, verify with k spot checks.
    {
        let agent_params = AgentParams {
            cycles: cycles.min(50),
            inputs,
        };
        let agent = build_generic_agent(agent_params);
        let mut io = ScriptedIo::new();
        for k in 0..agent_params.inputs {
            io.push_input(
                "elem",
                refstate_bench::generic_agent::input_element("px", k),
            );
        }
        let mut initial = DataState::new();
        initial.set("cycles", Value::Int(agent_params.cycles));
        initial.set("inputs", Value::Int(agent_params.inputs));
        initial.set("hop", Value::Int(2)); // last leg: ends with halt
        let t = Instant::now();
        let prover = refstate_mechanisms::Prover::execute(
            AgentId::new("proved"),
            &agent.program,
            initial,
            &mut io,
            &exec,
        )
        .expect("prove");
        let prove_time = t.elapsed();
        let proof = prover.proof().clone();
        let t = Instant::now();
        refstate_mechanisms::Verifier::new(16)
            .verify(&agent.program, &proof, &prover, &exec)
            .expect("verify");
        let verify_time = t.elapsed();
        report.push((
            format!("proof: prove (n={} steps)", proof.steps),
            prove_time,
        ));
        report.push(("proof: verify (k=16 spot checks)".into(), verify_time));
    }

    let base = report[0].1.as_secs_f64();
    println!("{:<42} {:>12} {:>10}", "mechanism", "time [ms]", "factor");
    for (name, d) in &report {
        println!(
            "{:<42} {:>12.2} {:>10.2}",
            name,
            d.as_secs_f64() * 1e3,
            d.as_secs_f64() / base
        );
    }
}
