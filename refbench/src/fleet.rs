//! The fleet workload: `run_fleet` over the `mixed` preset with every
//! built-in mechanism and one worker per available core.
//!
//! A run repeats the same [`ROUND_SCENARIOS`]-scenario fleet for most of
//! `--seconds`, in cycles with the cold set-ups. Every time is scaled to
//! the reference clock ([`clock`]), and a journey's run time is the least
//! any round gave it; `journeys_per_s` is the rate the workers sustain at
//! those run times. A neighbour's burst on a shared host slows a round,
//! not the number reported. The workers share the host's two vCPUs, so a
//! round's own wall-clock rate follows the neighbours far more than one
//! thread's work does (over ten runs the fastest round's rate spread 24%
//! where the rate from run times spread 8%); it is printed for
//! information.

use std::time::{Duration, Instant};

use refstate_fleet::report::FleetReport;
use refstate_fleet::scenario::Preset;
use refstate_fleet::{run_fleet, FleetConfig, FleetRun};
use refstate_telemetry::{self as telemetry, TelemetryLevel};

use crate::clock;
use crate::layers::{self, BenchTimers};
use crate::outcome::{Metric, Outcome, Verdict};
use crate::stats;
use crate::workload::{self, Run, CYCLES, SETUPS_PER_CYCLE};

/// Scenarios per round (about one second of work on two cores).
pub const ROUND_SCENARIOS: u64 = 1200;

/// Leading scenarios compared against a single-worker run.
const PARITY_SCENARIOS: u64 = 32;

/// What one round measured.
struct Round {
    /// The round's wall-clock journeys per second, scaled to the
    /// reference clock.
    journeys_per_s: f64,
    /// The [`clock::scale`] the round's time was multiplied by.
    scale: f64,
    /// Run time of every journey (scenario × mechanism), in result order,
    /// scaled to the reference clock.
    latency: Vec<Duration>,
    report: String,
    lost: u64,
}

fn measure(run: &FleetRun) -> Round {
    let scale = clock::scale(clock::probe());
    Round {
        journeys_per_s: run.timing.journeys_per_sec / scale,
        scale,
        latency: run
            .results
            .iter()
            .flat_map(|r| &r.runs)
            .map(|m| m.latency.mul_f64(scale))
            .collect(),
        report: run.report.to_json(),
        lost: ROUND_SCENARIOS - run.results.len() as u64,
    }
}

/// Each journey's least run time over `rounds`.
fn best_times(rounds: &[Round]) -> Vec<Duration> {
    (0..rounds[0].latency.len())
        .map(|j| rounds.iter().map(|r| r.latency[j]).min().expect("a round"))
        .collect()
}

/// Journeys per second `workers` sustain when each journey takes its
/// time in `best`.
fn rate(best: &[Duration], workers: usize) -> f64 {
    best.len() as f64 * workers as f64 / best.iter().map(Duration::as_secs_f64).sum::<f64>()
}

/// Runs the fleet workload.
pub fn run(run: &Run) -> Outcome {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = |scenarios: u64, workers: usize| FleetConfig {
        scenarios,
        workers,
        seed: run.seed,
        preset: Preset::Mixed,
        ..FleetConfig::default()
    };

    // Cycles of cold set-ups and rounds. A one-scenario fleet is the
    // set-up: key generation dominates it. A traced run alternates
    // untraced and traced rounds; the first (untraced) round is kept whole
    // for the checks.
    let mut setups = Vec::new();
    let mut first = None;
    let mut rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut traced_worker_us = 0.0;
    let mut next_round = 0;
    let before = telemetry::snapshot();
    for _ in 0..CYCLES {
        setups.extend(clock::at_reference((0..SETUPS_PER_CYCLE).map(|_| {
            let started = Instant::now();
            run_fleet(&config(1, workers));
            started.elapsed().as_secs_f64()
        })));
        workload::rounds(
            workload::round_budget(run.seconds, &run.workload.shape),
            || {
                let traced = run.traced && next_round % 2 == 1;
                if traced {
                    telemetry::set_level(TelemetryLevel::Counters);
                }
                let fleet = run_fleet(&config(ROUND_SCENARIOS, workers));
                telemetry::set_level(TelemetryLevel::Off);
                if traced {
                    traced_worker_us +=
                        fleet.timing.workers as f64 * fleet.timing.wall.as_secs_f64() * 1e6;
                    traced_rounds.push(measure(&fleet));
                } else {
                    rounds.push(measure(&fleet));
                }
                if next_round == 0 {
                    first = Some(fleet);
                }
                next_round += 1;
            },
        );
    }
    let delta = telemetry::snapshot().delta_since(&before);
    let first = first.expect("at least one round ran");
    let single = run_fleet(&config(PARITY_SCENARIOS, 1));

    let digest = workload::fnv_hex(first.report.to_json().as_bytes());
    let all_rounds = || rounds.iter().chain(&traced_rounds);
    let lost: u64 = all_rounds().map(|r| r.lost).sum();
    let names: Vec<&str> = first.report.mechanisms.iter().map(|m| m.name).collect();
    let head = &first.results[..(PARITY_SCENARIOS as usize).min(first.results.len())];
    let head_report = FleetReport::from_results(run.seed, Preset::Mixed.name(), &names, head);
    let false_accusations: u64 = first
        .report
        .mechanisms
        .iter()
        .map(|m| m.total.false_accusations)
        .sum();
    let parity_mismatch = head.iter().zip(&single.results).find(|(a, b)| {
        a.id != b.id
            || a.runs.len() != b.runs.len()
            || a.runs.iter().zip(&b.runs).any(|(x, y)| {
                (x.mechanism, x.detected, x.completed, x.infra_error)
                    != (y.mechanism, y.detected, y.completed, y.infra_error)
            })
    });
    let checks = vec![
        Verdict::check(
            lost == 0 && first.results.iter().all(|s| !s.runs.is_empty()),
            || format!("{lost} scenarios lost"),
        ),
        Verdict::check(
            head_report.to_json() == single.report.to_json()
                && all_rounds().all(|r| r.report == rounds[0].report),
            || "report differs across rounds, worker counts or telemetry levels".into(),
        ),
        Verdict::check(false_accusations == 0, || {
            format!("{false_accusations} false accusations")
        }),
        Verdict::check(parity_mismatch.is_none(), || {
            format!(
                "scenario {} differs from the single-worker run",
                parity_mismatch.expect("mismatch").0.id
            )
        }),
        workload::pinned(run, ROUND_SCENARIOS, &digest),
    ];

    let mut best = best_times(&rounds);
    let journeys_per_s = rate(&best, workers);
    let (metrics, info) = if run.traced {
        let traced_rate = rate(&best_times(&traced_rounds), workers);
        let bench = BenchTimers {
            fleet_worker_us: traced_worker_us,
            overhead_pct: 100.0 * (1.0 - layers::ratio(traced_rate, journeys_per_s)),
            ..BenchTimers::default()
        };
        (layers::per_layer(&[delta], &bench), Vec::new())
    } else {
        let [p50, p90, p99, max] = stats::percentiles_ms(&mut best, &[0.5, 0.9, 0.99, 1.0])[..]
        else {
            unreachable!("four quantiles requested")
        };
        let replay = &first.timing.replay;
        (
            vec![
                Metric::new("journeys_per_s", journeys_per_s, "1/s"),
                Metric::quantile("verdict_p50_ms", p50, "ms"),
                Metric::quantile("verdict_p90_ms", p90, "ms"),
                Metric::new("setup_s", stats::median(&setups), "s"),
                Metric::new("rss_peak_mb", workload::rss_peak_mb(), "MiB"),
            ],
            vec![
                Metric::quantile("verdict_p99_ms", p99, "ms"),
                Metric::new("verdict_max_ms", max, "ms"),
                Metric::new("workers", workers as f64, "count"),
                Metric::new(
                    "round_journeys_per_s",
                    rounds.iter().map(|r| r.journeys_per_s).fold(0.0, f64::max),
                    "1/s",
                ),
                Metric::new(
                    "core.cache_hit_rate",
                    layers::ratio(replay.hits as f64, (replay.hits + replay.misses) as f64),
                    "frac",
                ),
                Metric::new(
                    "clock_scale",
                    stats::median(&rounds.iter().map(|r| r.scale).collect::<Vec<_>>()),
                    "ratio",
                ),
            ],
        )
    };
    Outcome {
        workload: run.workload.name,
        seed: run.seed,
        seconds: run.seconds,
        traced: run.traced,
        attempted: ROUND_SCENARIOS * all_rounds().count() as u64,
        failed: lost,
        checks,
        size: ROUND_SCENARIOS,
        digest,
        metrics,
        info,
    }
}
