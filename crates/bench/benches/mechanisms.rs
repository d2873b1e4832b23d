//! Criterion benches across the mechanism design space: the per-mechanism
//! journey cost and the proof mechanism's prove/verify asymmetry
//! (verification must stay sublinear in the execution length).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_bench::{build_generic_agent, build_three_hosts, AgentParams};
use refstate_core::framework::{run_framework_journey, ProtectedAgent, ProtectionConfig};
use refstate_core::protocol::{run_protected_journey, ProtocolConfig};
use refstate_core::ReExecutionChecker;
use refstate_crypto::DsaParams;
use refstate_platform::{run_plain_journey, AgentId, EventLog};
use refstate_vm::{assemble, DataState, ExecConfig, NullIo, Program};

const PARAMS: AgentParams = AgentParams {
    cycles: 20,
    inputs: 10,
};

fn bench_journeys(c: &mut Criterion) {
    let dsa = DsaParams::test_group_256();
    let exec = ExecConfig::default();
    let mut group = c.benchmark_group("journey");
    group.sample_size(20);

    group.bench_function("plain", |b| {
        b.iter(|| {
            let mut hosts = build_three_hosts(PARAMS, &dsa, 1);
            let log = EventLog::new();
            run_plain_journey(
                &mut hosts,
                "h1",
                build_generic_agent(PARAMS),
                &exec,
                &log,
                10,
            )
            .unwrap()
        })
    });
    group.bench_function("framework_reexec", |b| {
        b.iter(|| {
            let mut hosts = build_three_hosts(PARAMS, &dsa, 2);
            let log = EventLog::new();
            let config = ProtectionConfig::new(Arc::new(ReExecutionChecker::new()));
            run_framework_journey(
                &mut hosts,
                "h1",
                ProtectedAgent::new(build_generic_agent(PARAMS), config),
                &log,
            )
            .unwrap()
        })
    });
    group.bench_function("session_protocol", |b| {
        b.iter(|| {
            let mut hosts = build_three_hosts(PARAMS, &dsa, 3);
            let log = EventLog::new();
            run_protected_journey(
                &mut hosts,
                "h1",
                build_generic_agent(PARAMS),
                &ProtocolConfig::default(),
                &log,
            )
            .unwrap()
        })
    });
    group.finish();
}

/// A pure compute program with a tunable step count, for proof scaling.
fn steps_program(iterations: i64) -> Program {
    assemble(&format!(
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
    .unwrap()
}

fn bench_proof_scaling(c: &mut Criterion) {
    let exec = ExecConfig::default();
    let mut prove_group = c.benchmark_group("proof_prove");
    prove_group.sample_size(10);
    for iters in [50i64, 200, 800] {
        let program = steps_program(iters);
        prove_group.bench_with_input(BenchmarkId::from_parameter(iters), &program, |b, p| {
            b.iter(|| {
                refstate_mechanisms::Prover::execute(
                    AgentId::new("bench"),
                    p,
                    DataState::new(),
                    &mut NullIo,
                    &exec,
                )
                .unwrap()
            })
        });
    }
    prove_group.finish();

    // Verification with fixed k must grow only logarithmically with the
    // transcript length — the sublinear-verification claim.
    let mut verify_group = c.benchmark_group("proof_verify_k16");
    verify_group.sample_size(10);
    for iters in [50i64, 200, 800] {
        let program = steps_program(iters);
        let prover = refstate_mechanisms::Prover::execute(
            AgentId::new("bench"),
            &program,
            DataState::new(),
            &mut NullIo,
            &exec,
        )
        .unwrap();
        let proof = prover.proof().clone();
        verify_group.bench_with_input(
            BenchmarkId::from_parameter(iters),
            &(program, proof, prover),
            |b, (program, proof, prover)| {
                let verifier = refstate_mechanisms::Verifier::new(16);
                b.iter(|| verifier.verify(program, proof, prover, &exec).unwrap())
            },
        );
    }
    verify_group.finish();
}

fn bench_replication_width(c: &mut Criterion) {
    use refstate_mechanisms::{run_replicated_pipeline, StageSpec};
    use refstate_platform::{Host, HostSpec};
    let dsa = DsaParams::test_group_256();
    let exec = ExecConfig::default();
    let mut group = c.benchmark_group("replication_width");
    group.sample_size(10);
    for replicas in [1usize, 3, 5, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(replicas), &replicas, |b, &n| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(n as u64);
                let mut hosts = Vec::new();
                let mut stages = Vec::new();
                for s in 0..3 {
                    let mut ids = Vec::new();
                    for r in 0..n {
                        let id = format!("s{s}r{r}");
                        let mut spec = HostSpec::new(id.as_str());
                        for k in 0..PARAMS.inputs {
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
                run_replicated_pipeline(
                    &mut hosts,
                    &stages,
                    build_generic_agent(PARAMS),
                    &exec,
                    &EventLog::new(),
                    &refstate_core::VerificationPipeline::uncached(),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_journeys,
    bench_proof_scaling,
    bench_replication_width
);
criterion_main!(benches);
