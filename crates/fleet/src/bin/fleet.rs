//! The fleet CLI: generate and run a scenario population, print the
//! detection table and machine-readable JSON metrics.
//!
//! ```text
//! cargo run --release -p refstate-fleet --bin fleet -- \
//!     --scenarios 10000 --workers 8 --seed 42 --preset replicated \
//!     --mechanisms protocol,traces,replication
//! ```
//!
//! Flags:
//!
//! * `--scenarios N` — number of generated scenarios (default 1000)
//! * `--workers N` — worker threads (default: all cores)
//! * `--seed S` — fleet seed (default 42)
//! * `--preset P` — scenario family (see `--help` for the list; default
//!   `mixed`; `replicated` generates the staged topologies that drive
//!   the `replication` mechanism)
//! * `--mechanisms LIST` — comma-separated mechanism filter, resolved
//!   through the registry (default: every registered mechanism)
//! * `--mechanism M` — single-mechanism form of the same filter;
//!   repeatable
//! * `--telemetry off|counters|full` — observability level (default
//!   `off`; the deterministic report is byte-identical at every level,
//!   pinned by the telemetry determinism guard)
//! * `--trace-out PATH` — write the run's Chrome `trace_event` JSON
//!   (loadable in Perfetto / `chrome://tracing`; requires
//!   `--telemetry full`)
//! * `--metrics-out PATH` — write the run's metrics snapshot as JSONL
//!   (requires `--telemetry counters` or `full`)
//! * `--json-only` — suppress the human tables, emit only JSON
//! * `--no-json` — suppress the JSON blob

use refstate_fleet::{run_fleet, FleetConfig, MechanismRegistry, Preset, ProtectionMechanism};
use refstate_telemetry as telemetry;
use refstate_telemetry::json::JsonWriter;
use std::sync::Arc;

fn usage(registry: &MechanismRegistry, exit: i32) -> ! {
    eprintln!(
        "usage: fleet [--scenarios N] [--workers N] [--seed S] [--preset P] \
         [--mechanisms LIST] [--mechanism M]... \
         [--telemetry off|counters|full] [--trace-out PATH] \
         [--metrics-out PATH] [--json-only|--no-json]\n\
         presets: {}\n\
         mechanisms (registry):",
        Preset::ALL.map(|p| p.name()).join(" | "),
    );
    for mechanism in registry.iter() {
        eprintln!("  {:<14} {}", mechanism.name(), mechanism.description());
    }
    std::process::exit(exit);
}

/// Output-side options that don't live on [`FleetConfig`].
struct OutputOptions {
    json_only: bool,
    no_json: bool,
    telemetry: telemetry::TelemetryLevel,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

fn parse_args(registry: &MechanismRegistry) -> (FleetConfig, OutputOptions) {
    let mut config = FleetConfig::default();
    let mut mechanisms: Vec<Arc<dyn ProtectionMechanism>> = Vec::new();
    let mut json_only = false;
    let mut no_json = false;
    let mut level = telemetry::TelemetryLevel::Off;
    let mut trace_out = None;
    let mut metrics_out = None;

    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage(registry, 2))
    };
    let add = |list: &mut Vec<Arc<dyn ProtectionMechanism>>,
               mechanism: Arc<dyn ProtectionMechanism>| {
        if !list.iter().any(|m| m.name() == mechanism.name()) {
            list.push(mechanism);
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scenarios" => {
                config.scenarios = value(&mut i).parse().unwrap_or_else(|_| usage(registry, 2))
            }
            "--workers" => {
                config.workers = value(&mut i).parse().unwrap_or_else(|_| usage(registry, 2))
            }
            "--seed" => config.seed = value(&mut i).parse().unwrap_or_else(|_| usage(registry, 2)),
            "--preset" => {
                let name = value(&mut i);
                config.preset = Preset::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown preset {name:?}");
                    usage(registry, 2)
                });
            }
            "--mechanisms" => {
                let list = value(&mut i);
                let parsed = registry.parse_list(&list).unwrap_or_else(|err| {
                    eprintln!("{err}");
                    usage(registry, 2)
                });
                for mechanism in parsed {
                    add(&mut mechanisms, mechanism);
                }
            }
            "--mechanism" => {
                let name = value(&mut i);
                // Same resolution (and error message) as --mechanisms.
                let parsed = registry.parse_list(&name).unwrap_or_else(|err| {
                    eprintln!("{err}");
                    usage(registry, 2)
                });
                for mechanism in parsed {
                    add(&mut mechanisms, mechanism);
                }
            }
            "--telemetry" => {
                let name = value(&mut i);
                level = telemetry::TelemetryLevel::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown telemetry level {name:?} (off | counters | full)");
                    usage(registry, 2)
                });
            }
            "--trace-out" => trace_out = Some(value(&mut i)),
            "--metrics-out" => metrics_out = Some(value(&mut i)),
            "--json-only" => json_only = true,
            "--no-json" => no_json = true,
            "--help" | "-h" => usage(registry, 0),
            other => {
                eprintln!("unknown flag {other:?}");
                usage(registry, 2);
            }
        }
        i += 1;
    }
    if !mechanisms.is_empty() {
        config.mechanisms = mechanisms;
    }
    if json_only && no_json {
        eprintln!("--json-only and --no-json are mutually exclusive");
        usage(registry, 2);
    }
    if trace_out.is_some() && level != telemetry::TelemetryLevel::Full {
        eprintln!("--trace-out requires --telemetry full (the trace timeline only records there)");
        usage(registry, 2);
    }
    if metrics_out.is_some() && level == telemetry::TelemetryLevel::Off {
        eprintln!("--metrics-out requires --telemetry counters or full");
        usage(registry, 2);
    }
    (
        config,
        OutputOptions {
            json_only,
            no_json,
            telemetry: level,
            trace_out,
            metrics_out,
        },
    )
}

fn write_artifact(path: &str, what: &str, contents: String) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {what} to {path}"),
        Err(e) => {
            eprintln!("could not write {what} to {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let registry = MechanismRegistry::builtin();
    let (config, opts) = parse_args(&registry);
    telemetry::set_level(opts.telemetry);
    let run = run_fleet(&config);

    if !opts.json_only {
        print!("{}", run.report.render_table());
        println!();
        print!("{}", run.timing.render());
    }
    if !opts.no_json {
        if !opts.json_only {
            println!();
        }
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("report");
        w.begin_object();
        run.report.write_json(&mut w);
        w.end_object();
        w.key("timing");
        w.begin_object();
        run.timing.write_json(&mut w);
        w.end_object();
        w.end_object();
        println!("{}", w.finish());
    }

    if let Some(path) = &opts.trace_out {
        let events = telemetry::drain_trace();
        write_artifact(
            path,
            "Chrome trace",
            telemetry::export::chrome_trace_json(&events),
        );
    }
    if let Some(path) = &opts.metrics_out {
        let metrics = run.metrics.clone().unwrap_or_default();
        write_artifact(
            path,
            "metrics JSONL",
            telemetry::export::metrics_jsonl(&metrics),
        );
    }
}
