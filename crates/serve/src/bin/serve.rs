//! The service CLI: run a resident TCP server (with a background tick
//! driver), or drive a soak load over 1 to N pipelined connections and
//! report SLOs.
//!
//! ```text
//! # resident server on a fixed port, settled by its group-commit driver
//! cargo run --release -p refstate-serve --bin serve -- --listen 127.0.0.1:7440
//!
//! # in-process soak: 8 pipelined connections, 8 owners, 10k journeys,
//! # throughput ratio vs a single connection, SLO JSON to a file
//! cargo run --release -p refstate-serve --bin serve -- --soak \
//!     --connections 8 --compare-single --owners 8 --journeys 10000 \
//!     --seed 42 --preset mixed --mechanism protocol --slo-out slo.json
//!
//! # soak against a running server over 4 pipelined connections
//! cargo run --release -p refstate-serve --bin serve -- --soak \
//!     --connect 127.0.0.1:7440 --connections 4 --owners 4 --journeys 2000
//! ```
//!
//! Flags:
//!
//! * `--listen ADDR` — serve the framed TCP protocol on `ADDR` until a
//!   client sends `Shutdown`; a background tick driver settles every
//!   submit, so clients need not tick (disable with `--tick-driver off`)
//! * `--soak` — drive a soak run (in-process unless `--connect`)
//! * `--connect ADDR` — soak against a remote server instead of an
//!   in-process service
//! * `--connections N` — drive the soak over `N` pipelined connections
//!   (owners partition across them; default 1)
//! * `--compare-single` — also run an in-process single-connection
//!   baseline (settle-workers 1, no driver), record the throughput ratio
//!   in the SLO artifact, and fail unless the verdict streams are
//!   byte-identical
//! * `--require-ratio X` — with `--compare-single`, fail unless the
//!   throughput ratio reaches `X`; pick `X` from the host's parallelism
//!   (the artifact records it) — ≥3 is the expectation on ≥8 cores,
//!   while a single core caps any CPU-bound ratio near 1
//! * `--owners N`, `--journeys N`, `--seed S`, `--preset P`,
//!   `--mechanism M`, `--tick-every N` — soak shape (`--owners`,
//!   `--tick-every`, `--key-pool`, `--queue-capacity` and
//!   `--connections` must be at least 1)
//! * `--start N` — first global submission index (a resumed leg passes
//!   the previous legs' total so journey ids continue)
//! * `--resume` — resume a soak against a warm-restarted server: accept
//!   restored registrations and verify the server's durable stream
//!   checkpoints sit exactly at `--start`'s offsets
//! * `--key-pool N`, `--queue-capacity N`, `--settle-workers N` (0 = one
//!   per core) — service knobs (in-process / `--listen`)
//! * `--state-dir DIR` — durable state: persist the seed, registrations
//!   and per-owner verdict streams to an append-only log store in `DIR`,
//!   so a restarted server restores its owners and resumes their
//!   checkpointed streams (keys are re-derived from the seed). A `DIR`
//!   the service cannot open exits 1 with the reason as the only stderr
//!   line. Not with `--compare-single`, whose baseline would reopen it
//! * `--tick-driver on|off` — run the group-commit tick driver, woken
//!   by every accepted submit (default on for `--listen`, off for
//!   in-process soaks; a `--connect` soak uses the server's)
//! * `--slo-out PATH` — write the `refstate-soak-slo-v1` JSON artifact
//! * `--stream-out PATH` — write the verdict stream (golden-fixture
//!   format, grouped by owner)
//! * `--telemetry off|counters|full` — observability level (default off;
//!   verdict streams are byte-identical at every level)
//! * `--metrics-out PATH` — write the service's metrics snapshot as JSONL
//!   once it shuts down (needs `--telemetry counters` or `full`)
//! * `--trace-out PATH` — write the service's Chrome `trace_event` JSON
//!   once it shuts down (needs `--telemetry full`)
//!
//! The telemetry files are written by the process that ran the service,
//! once the service has shut down: a `--listen` server after a client's
//! `Shutdown`, or an in-process soak. A `--connect` soak has none to
//! write, so both flags are usage errors there.

use std::sync::Arc;

use refstate_serve::{
    run_soak_concurrent, LocalPipelined, PipelinedClient, ServeConfig, Server, Service, SoakConfig,
    SoakOutcome, TickDriver, TickDriverConfig,
};
use refstate_telemetry as telemetry;

fn usage(exit: i32) -> ! {
    eprintln!(
        "usage: serve --listen ADDR [service knobs] [--tick-driver on|off]\n\
         \x20      serve --soak [--connect ADDR] [--connections N] \
         [--compare-single] [--owners N] [--journeys N] [--seed S] \
         [--preset P] [--mechanism M] [--tick-every N] [--start N] \
         [--resume] [--slo-out PATH] \
         [--stream-out PATH] [service knobs] [--tick-driver on|off]\n\
         service knobs: --key-pool N --queue-capacity N \
         --settle-workers N --state-dir DIR --telemetry off|counters|full \
         --metrics-out PATH --trace-out PATH"
    );
    std::process::exit(exit);
}

struct Options {
    listen: Option<String>,
    soak: bool,
    connect: Option<String>,
    connections: usize,
    compare_single: bool,
    require_ratio: Option<f64>,
    soak_config: SoakConfig,
    serve_config: ServeConfig,
    /// `None` = mode default (on for `--listen`, off for soaks).
    tick_driver: Option<bool>,
    slo_out: Option<String>,
    stream_out: Option<String>,
    telemetry: telemetry::TelemetryLevel,
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().collect();
    let mut options = Options {
        listen: None,
        soak: false,
        connect: None,
        connections: 1,
        compare_single: false,
        require_ratio: None,
        soak_config: SoakConfig::default(),
        serve_config: ServeConfig::default(),
        tick_driver: None,
        slo_out: None,
        stream_out: None,
        telemetry: telemetry::TelemetryLevel::Off,
        metrics_out: None,
        trace_out: None,
    };
    let mut i = 1;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage(2))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => options.listen = Some(value(&mut i)),
            "--soak" => options.soak = true,
            "--connect" => options.connect = Some(value(&mut i)),
            "--connections" => {
                options.connections = value(&mut i).parse().unwrap_or_else(|_| usage(2))
            }
            "--compare-single" => options.compare_single = true,
            "--require-ratio" => {
                options.require_ratio = Some(value(&mut i).parse().unwrap_or_else(|_| usage(2)))
            }
            "--owners" => {
                options.soak_config.owners = value(&mut i).parse().unwrap_or_else(|_| usage(2))
            }
            "--journeys" => {
                options.soak_config.journeys = value(&mut i).parse().unwrap_or_else(|_| usage(2))
            }
            "--seed" => {
                let seed = value(&mut i).parse().unwrap_or_else(|_| usage(2));
                options.soak_config.seed = seed;
                options.serve_config.seed = seed;
            }
            "--preset" => options.soak_config.preset = value(&mut i),
            "--mechanism" => options.soak_config.mechanism = value(&mut i),
            "--tick-every" => {
                options.soak_config.tick_every = value(&mut i).parse().unwrap_or_else(|_| usage(2))
            }
            "--key-pool" => {
                options.serve_config.key_pool = value(&mut i).parse().unwrap_or_else(|_| usage(2))
            }
            "--queue-capacity" => {
                options.serve_config.queue_capacity =
                    value(&mut i).parse().unwrap_or_else(|_| usage(2))
            }
            "--settle-workers" => {
                options.serve_config.settle_workers =
                    value(&mut i).parse().unwrap_or_else(|_| usage(2))
            }
            "--state-dir" => {
                options.serve_config.state_dir = Some(std::path::PathBuf::from(value(&mut i)))
            }
            "--start" => {
                options.soak_config.start = value(&mut i).parse().unwrap_or_else(|_| usage(2))
            }
            "--resume" => options.soak_config.resume = true,
            "--tick-driver" => {
                options.tick_driver = match value(&mut i).as_str() {
                    "on" => Some(true),
                    "off" => Some(false),
                    _ => usage(2),
                }
            }
            "--slo-out" => options.slo_out = Some(value(&mut i)),
            "--stream-out" => options.stream_out = Some(value(&mut i)),
            "--metrics-out" => options.metrics_out = Some(value(&mut i)),
            "--trace-out" => options.trace_out = Some(value(&mut i)),
            "--telemetry" => {
                let name = value(&mut i);
                options.telemetry = telemetry::TelemetryLevel::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown telemetry level {name:?} (off | counters | full)");
                    usage(2)
                });
            }
            "--help" | "-h" => usage(0),
            _ => usage(2),
        }
        i += 1;
    }
    if options.listen.is_none() && !options.soak {
        usage(2);
    }
    if options.listen.is_some() && options.soak {
        eprintln!("--listen and --soak are exclusive; soak a server via --connect");
        usage(2);
    }
    for (flag, value) in [
        ("--connections", options.connections),
        ("--owners", options.soak_config.owners),
        ("--tick-every", options.soak_config.tick_every),
        ("--queue-capacity", options.serve_config.queue_capacity),
        ("--key-pool", options.serve_config.key_pool),
    ] {
        if value == 0 {
            eprintln!("{flag} must be at least 1");
            usage(2);
        }
    }
    if options.require_ratio.is_some() && !options.compare_single {
        eprintln!("--require-ratio needs the baseline from --compare-single");
        usage(2);
    }
    if options.soak_config.resume && options.compare_single {
        eprintln!("--resume continues a durable history; --compare-single starts one cold");
        usage(2);
    }
    if options.serve_config.state_dir.is_some() && options.compare_single {
        eprintln!("--compare-single's baseline would reopen the --state-dir just written");
        usage(2);
    }
    let exporting = options.metrics_out.is_some() || options.trace_out.is_some();
    if exporting && options.connect.is_some() {
        eprintln!(
            "--metrics-out and --trace-out need the service in this process; \
             a --connect soak's telemetry lives in the server"
        );
        usage(2);
    }
    if options.trace_out.is_some() && options.telemetry != telemetry::TelemetryLevel::Full {
        eprintln!("--trace-out requires --telemetry full (the trace timeline only records there)");
        usage(2);
    }
    if options.metrics_out.is_some() && options.telemetry == telemetry::TelemetryLevel::Off {
        eprintln!("--metrics-out requires --telemetry counters or full");
        usage(2);
    }
    options
}

fn write_file(path: &str, contents: &str) {
    if let Err(error) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {error}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

/// Writes the metrics and trace files the flags asked for. Call it once
/// the service has shut down: its threads have exited by then, and a
/// thread's buffered telemetry reaches the collector when it exits.
fn write_telemetry(options: &Options) {
    if let Some(path) = &options.trace_out {
        write_file(
            path,
            &telemetry::export::chrome_trace_json(&telemetry::drain_trace()),
        );
    }
    if let Some(path) = &options.metrics_out {
        write_file(
            path,
            &telemetry::export::metrics_jsonl(&telemetry::snapshot()),
        );
    }
}

/// Opens the service, or exits 1 with the reason as the only stderr line.
fn open_service(config: ServeConfig) -> Service {
    Service::open(config).unwrap_or_else(|error| {
        eprintln!("{error}");
        std::process::exit(1);
    })
}

/// An in-process soak over `connections` [`LocalPipelined`] connections
/// into one fresh service, with the tick driver (when `drive` is set)
/// racing the clients' own ticks.
fn soak_in_process(
    serve_config: ServeConfig,
    drive: bool,
    config: &SoakConfig,
    connections: usize,
) -> SoakOutcome {
    let queue_capacity = serve_config.queue_capacity;
    let service = Arc::new(open_service(serve_config));
    let driver = drive.then(|| TickDriver::start(Arc::clone(&service), TickDriverConfig));
    let mut outcome = run_soak_concurrent(
        |_| LocalPipelined::new(Arc::clone(&service)),
        config,
        connections,
        queue_capacity,
    );
    outcome.tick_driver = driver.map(TickDriver::stop);
    outcome
}

/// Runs the soak shape in whichever deployment the flags selected.
fn run_load(options: &Options) -> SoakOutcome {
    let config = &options.soak_config;
    match &options.connect {
        Some(addr) => run_soak_concurrent(
            |connection| {
                PipelinedClient::connect(addr.as_str()).unwrap_or_else(|error| {
                    eprintln!("connection {connection}: cannot connect to {addr}: {error}");
                    std::process::exit(1);
                })
            },
            config,
            options.connections,
            options.serve_config.queue_capacity,
        ),
        None => soak_in_process(
            options.serve_config.clone(),
            options.tick_driver.unwrap_or(false),
            config,
            options.connections,
        ),
    }
}

fn main() {
    let options = parse_args();
    telemetry::set_level(options.telemetry);

    if let Some(addr) = &options.listen {
        let service = open_service(options.serve_config.clone());
        let mut server = match Server::bind(service, addr.as_str()) {
            Ok(server) => server,
            Err(error) => {
                eprintln!("cannot bind {addr}: {error}");
                std::process::exit(1);
            }
        };
        // The resident server settles on its own by default: clients
        // need not send a single Tick.
        if options.tick_driver.unwrap_or(true) {
            eprintln!("tick driver: group commit, woken by every submit");
            server.start_tick_driver();
        }
        eprintln!("serving on {}", server.addr());
        server.join();
        eprintln!("shut down");
        write_telemetry(&options);
        return;
    }

    let mut outcome = run_load(&options);
    write_telemetry(&options);

    if options.compare_single {
        // The serial deployment: one connection, one settle worker, no
        // driver. The ratio this records is the scaling claim; the
        // byte-compare is the determinism claim.
        let baseline = soak_in_process(
            ServeConfig {
                settle_workers: 1,
                ..options.serve_config.clone()
            },
            false,
            &options.soak_config,
            1,
        );
        if baseline.stream != outcome.stream {
            eprintln!(
                "determinism violation: {}-connection stream diverged from the \
                 single-connection baseline",
                outcome.connections
            );
            std::process::exit(1);
        }
        outcome.baseline_journeys_per_sec = Some(baseline.journeys_per_sec());
        if let Some(ratio) = outcome.throughput_ratio_vs_single() {
            eprintln!(
                "throughput: {:.0} journeys/s over {} connections vs {:.0} single \
                 ({ratio:.2}x, {} cores)",
                outcome.journeys_per_sec(),
                outcome.connections,
                baseline.journeys_per_sec(),
                outcome.parallelism,
            );
            // The scaling gate is hardware-relative: a CPU-bound soak
            // cannot beat its serial baseline on a single core, so the
            // caller (CI) picks the floor the host can support.
            if let Some(required) = options.require_ratio {
                if ratio < required {
                    eprintln!(
                        "SLO violation: throughput ratio {ratio:.2} below required \
                         {required:.2} (parallelism {})",
                        outcome.parallelism
                    );
                    std::process::exit(1);
                }
            }
        }
    }

    let json = outcome.to_json(options.serve_config.queue_capacity) + "\n";
    print!("{json}");
    if let Some(path) = &options.slo_out {
        write_file(path, &json);
    }
    if let Some(path) = &options.stream_out {
        write_file(path, &outcome.stream);
    }
    if outcome.dropped > 0 {
        eprintln!(
            "SLO violation: {} accepted journeys never produced a verdict",
            outcome.dropped
        );
        std::process::exit(1);
    }
}
