//! Fleet throughput: scenarios/second through the scenario engine, per
//! mechanism and for the full matrix.
//!
//! This is the bench trajectory counterpart of the `fleet` CLI's
//! `journeys_per_sec` metric: small fixed fleets, measured hot.
//!
//! Besides the criterion groups, the bench emits a machine-readable
//! `BENCH_fleet.json` (journeys/sec plus p50/p99 latency and the
//! telemetry per-stage breakdown per mechanism, for the mixed,
//! replicated, chained, encapsulated, cooperating, and adaptive presets
//! — the adaptive block also carries the campaign `adaptation` grades —
//! plus the measured off-vs-full telemetry overhead and the host's
//! `parallelism`) so future PRs have a perf trajectory to diff against.
//! Fleets run one worker per core, except the explicit worker sweep.
//! Set `BENCH_FLEET_OUT` to change the output path.

use std::sync::Arc;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use refstate_fleet::{run_fleet, FleetConfig, MechanismRegistry, Preset, ProtectionMechanism};
use refstate_telemetry as telemetry;
use refstate_telemetry::json::JsonWriter;

const SCENARIOS: u64 = 64;

fn bench_config(
    mechanisms: Vec<Arc<dyn ProtectionMechanism>>,
    preset: Preset,
    workers: usize,
) -> FleetConfig {
    FleetConfig {
        scenarios: SCENARIOS,
        workers,
        seed: 42,
        preset,
        mechanisms,
        key_pool: 16,
        ..FleetConfig::default()
    }
}

fn bench_per_mechanism(c: &mut Criterion) {
    let registry = MechanismRegistry::builtin();
    let mut group = c.benchmark_group("fleet_mechanism");
    group.sample_size(10);
    group.throughput(Throughput::Elements(SCENARIOS));
    for mechanism in registry.iter() {
        // Every mechanism benches on the preset its topology is made for.
        let preset = match mechanism.profile().topology {
            refstate_fleet::RouteTopology::Linear => Preset::Mixed,
            refstate_fleet::RouteTopology::ReplicatedStages => Preset::Replicated,
            refstate_fleet::RouteTopology::DisjointSets => Preset::Cooperating,
        };
        let config = bench_config(vec![mechanism.clone()], preset, 0);
        group.bench_with_input(
            BenchmarkId::from_parameter(mechanism.name()),
            &config,
            |b, config| b.iter(|| run_fleet(config)),
        );
    }
    group.finish();
}

fn bench_worker_scaling(c: &mut Criterion) {
    let registry = MechanismRegistry::builtin();
    let protocol = registry.get("protocol").expect("built in");
    let mut group = c.benchmark_group("fleet_workers");
    group.sample_size(10);
    group.throughput(Throughput::Elements(SCENARIOS));
    for workers in [1usize, 2, 4, 8] {
        let config = bench_config(vec![protocol.clone()], Preset::Mixed, workers);
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &config,
            |b, config| b.iter(|| run_fleet(config)),
        );
    }
    group.finish();
}

/// One calibrated fleet run per preset, serialized as the perf
/// trajectory: journeys/sec, per-mechanism latency percentiles, and the
/// telemetry per-stage breakdown — plus the measured cost of running
/// with `--telemetry full` versus `off`.
fn emit_bench_json() {
    fn trajectory_config(preset: Preset) -> FleetConfig {
        FleetConfig {
            scenarios: 256,
            workers: 0,
            seed: 42,
            preset,
            key_pool: 32,
            ..FleetConfig::default()
        }
    }

    /// Best journeys/s for one run at `level` — the comparison takes the
    /// max over interleaved rounds, not the mean, so the off-vs-full
    /// comparison measures the telemetry cost rather than scheduler noise.
    fn one_run_journeys_per_sec(level: telemetry::TelemetryLevel) -> f64 {
        telemetry::set_level(level);
        let run = run_fleet(&trajectory_config(Preset::Mixed));
        let _ = telemetry::drain_trace();
        telemetry::set_level(telemetry::TelemetryLevel::Off);
        run.timing.journeys_per_sec
    }

    // Warm-up + overhead measurement: the same mixed fleet with telemetry
    // off and at full, interleaved round by round.
    let mut off: f64 = 0.0;
    let mut full: f64 = 0.0;
    for _ in 0..5 {
        off = off.max(one_run_journeys_per_sec(telemetry::TelemetryLevel::Off));
        full = full.max(one_run_journeys_per_sec(telemetry::TelemetryLevel::Full));
    }

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("bench", "fleet");
    w.field_u64("scenarios", 256);
    w.field_u64("seed", 42);
    w.field_u64(
        "parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
    );
    w.key("telemetry_overhead");
    w.begin_object();
    w.field_f64("off_journeys_per_sec", off);
    w.field_f64("full_journeys_per_sec", full);
    w.field_f64("overhead_pct", (1.0 - full / off) * 100.0);
    w.end_object();

    // The trajectory blocks themselves run at full telemetry so the
    // per-stage breakdown (cache hit vs replay vs signature verify) is
    // populated; the deterministic report is level-independent.
    telemetry::set_level(telemetry::TelemetryLevel::Full);
    for preset in [
        Preset::Mixed,
        Preset::Replicated,
        Preset::Chained,
        Preset::Encapsulated,
        Preset::Cooperating,
        Preset::Adaptive,
    ] {
        let run = run_fleet(&trajectory_config(preset));
        // Clear this run's trace timeline so successive blocks never push
        // the collector toward its drop cap.
        let _ = telemetry::drain_trace();
        w.key(preset.name());
        w.begin_object();
        run.timing.write_json(&mut w);
        // The adaptive block carries the campaign grades next to its
        // timing: detection latency and detection-under-adaptation become
        // part of the perf trajectory.
        if let Some(adaptation) = &run.report.adaptation {
            w.key("adaptation");
            w.begin_object();
            adaptation.write_json(&mut w);
            w.end_object();
        }
        w.end_object();
    }
    telemetry::set_level(telemetry::TelemetryLevel::Off);
    w.end_object();
    let json = w.finish();

    // Default next to the workspace root (cargo bench runs with the
    // package directory as CWD), so the trajectory file has one home.
    let path = std::env::var("BENCH_FLEET_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json").to_owned()
    });
    match std::fs::write(&path, json + "\n") {
        Ok(()) => println!("wrote perf trajectory to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_per_mechanism, bench_worker_scaling);

fn main() {
    benches();
    emit_bench_json();
}
