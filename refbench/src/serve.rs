//! The serve workloads: cycles of cold set-ups, an open-loop pass under
//! the real tick driver and closed-loop rounds on the open loop's leading
//! journeys, then warm restarts for the durable workload.
//!
//! Thread budget: an open-loop pass is this thread plus the `TickDriver`
//! thread (settle and check workers stay at their default of 1); a
//! closed-loop round is this thread alone, driving `Service::handle` in
//! chunks. One untimed `run_soak_concurrent` over two `LocalPipelined`
//! connections cross-checks the closed-loop stream.
//!
//! Steadiness on a shared host: every time is scaled to the reference
//! clock ([`clock`]) by a probe taken right after the work it times.
//! Every open-loop pass replays the same arrival schedule on a fresh
//! service, and a journey's latency is the least any pass gave it; every
//! closed-loop round runs the same chunks on a fresh service, and a
//! chunk's time is the least any round gave it. A neighbour's burst slows
//! a pass or a round, not the number reported.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use refstate_fleet::scenario::{self, Preset};
use refstate_fleet::{run_fleet, FleetConfig, MechanismRegistry};
use refstate_serve::{
    run_soak_concurrent, LocalPipelined, RegisterOwner, Request, Response, ServeConfig, Service,
    SoakConfig, SoakOutcome, StreamCheckpoint, TickDriver, TickDriverConfig, VerdictReply,
};
use refstate_store::{LogStore, StateStore};
use refstate_telemetry::{self as telemetry, TelemetryLevel};

use crate::clock;
use crate::layers::{self, BenchTimers};
use crate::outcome::{Metric, Outcome, Verdict};
use crate::schedule;
use crate::stats;
use crate::workload::{
    self, Run, ServeShape, CYCLES, PRESET, RESTARTS, SETUPS_PER_CYCLE, SLO_LIMIT,
};

/// How often the generator drains every owner with a verdict outstanding.
const POLL: Duration = Duration::from_millis(1);

/// Admission queue per owner in an open-loop pass. At the workloads'
/// rates an owner's queue holds a journey or two, so the depth changes
/// nothing measured; the default of 64 would refuse submissions whenever
/// a shared host stops this guest for a quarter of a second (seen at
/// 1000/s over four owners), where this delays their verdicts instead.
const OPEN_LOOP_QUEUE: usize = 4096;

/// Most journeys a closed-loop round runs (fewer when the open loop has
/// fewer arrivals).
const ROUND_JOURNEYS: u64 = 1024;

/// Submissions between a closed-loop round's ticks: one timed chunk.
const TICK_EVERY: usize = 32;

/// Pipelined in-process connections of the untimed soak cross-check.
const SOAK_CONNECTIONS: usize = 2;

/// How long after its last arrival an open-loop pass waits for stragglers.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Owner 0's journeys compared against `run_fleet`.
const PARITY_JOURNEYS: usize = 32;

/// The replay-cache write-through log inside a state dir (the service's
/// `replay` namespace).
const REPLAY_NAMESPACE: &str = "replay";

/// Runs one serve workload.
pub fn run(shape: &ServeShape, run: &Run) -> Outcome {
    let state_dirs = StateDirs::new();
    let dir = |name: &str| shape.durable.then(|| state_dirs.dir(name));
    let arrivals = schedule::poisson(
        scenario::scenario_seed(run.seed, 0x5c4e_d01e),
        shape.rate,
        workload::open_loop_seconds(run.seconds),
    );
    let soak = SoakConfig {
        owners: shape.owners,
        journeys: arrivals.len() as u64,
        seed: run.seed,
        preset: PRESET.into(),
        mechanism: shape.mechanism.into(),
        tick_every: TICK_EVERY,
        ..SoakConfig::default()
    };

    // Closed-loop rounds run the leading journeys.
    let round_soak = SoakConfig {
        journeys: soak.journeys.min(ROUND_JOURNEYS),
        ..soak.clone()
    };

    // Cycles of cold set-ups, one open-loop pass and closed-loop rounds,
    // each pass and round on a fresh service (and state dir). A traced
    // run counts the passes and alternates untraced and traced rounds.
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut deltas = Vec::new();
    let mut rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut next_round = 0;
    for cycle in 0..CYCLES {
        setups.extend(clock::at_reference((0..SETUPS_PER_CYCLE).map(|i| {
            time_setup(&soak, dir(&format!("setup-{cycle}-{i}"))).as_secs_f64()
        })));

        if run.traced {
            telemetry::set_level(TelemetryLevel::Counters);
        }
        let before = telemetry::snapshot();
        passes.push(open_pass(&soak, &arrivals, dir(&format!("open-{cycle}"))));
        deltas.push(telemetry::snapshot().delta_since(&before));
        telemetry::set_level(TelemetryLevel::Off);

        workload::rounds(
            workload::round_budget(run.seconds, &run.workload.shape),
            || {
                let traced = run.traced && next_round % 2 == 1;
                let round_dir = dir(&format!("round-{next_round}"));
                next_round += 1;
                if traced {
                    telemetry::set_level(TelemetryLevel::Counters);
                }
                let outcome = closed_round(&round_soak, round_dir.clone());
                telemetry::set_level(TelemetryLevel::Off);
                if let Some(round_dir) = round_dir {
                    let _ = std::fs::remove_dir_all(round_dir);
                }
                if traced {
                    &mut traced_rounds
                } else {
                    &mut rounds
                }
                .push(outcome);
            },
        );
    }
    let first = &passes[0];
    let all_rounds = || rounds.iter().chain(&traced_rounds);

    // Warm restarts on the first pass's state dir.
    let mut bench = BenchTimers::default();
    let mut restarts_match = true;
    if let Some(first_dir) = dir("open-0") {
        let mut restarts = Vec::with_capacity(RESTARTS);
        for _ in 0..RESTARTS {
            let (elapsed, state) = time_restart(&first_dir, &soak);
            restarts.push(elapsed.as_secs_f64());
            restarts_match &= state == first.checkpoints;
        }
        bench.restart_s = stats::median(&restarts);
        measure_store(&first_dir, &first.checkpoints, &mut bench);
    }

    let soaked = soak_check(&round_soak, dir("soak"));

    // Checks.
    let streams: Vec<String> = first.open.verdicts.iter().map(|v| stream_of(v)).collect();
    let digest = workload::fnv_hex(streams.concat().as_bytes());
    let round_stream = leading_stream(&first.open.verdicts, round_soak.journeys);
    let drain = Verdict::check(
        passes.iter().all(Pass::drained)
            && all_rounds().all(|r| r.drained(round_soak.journeys))
            && soaked.dropped == 0
            && soaked.verified == soaked.accepted
            && soaked.accepted == round_soak.journeys,
        || {
            format!(
                "passes drained {:?}; a closed-loop round short: {}; soak verified {} of {}, \
                 dropped {}",
                passes.iter().map(Pass::drained).collect::<Vec<_>>(),
                all_rounds().any(|r| !r.drained(round_soak.journeys)),
                soaked.verified,
                soaked.accepted,
                soaked.dropped
            )
        },
    );
    let checkpoints_match = passes.iter().all(Pass::checkpoints_match);
    let passes_match = passes
        .iter()
        .all(|p| p.open.verdicts == first.open.verdicts);
    let pacing = Verdict::check(
        passes_match
            && all_rounds().all(|r| r.stream == round_stream)
            && soaked.stream == round_stream
            && checkpoints_match
            && restarts_match,
        || {
            format!(
                "passes match {passes_match}, open-loop leading digest {}, closed-loop digests \
                 {:?}, soak digest {}, checkpoints match {checkpoints_match}, restarts match \
                 {restarts_match}",
                workload::fnv_hex(round_stream.as_bytes()),
                all_rounds()
                    .map(|r| workload::fnv_hex(r.stream.as_bytes()))
                    .collect::<Vec<_>>(),
                soaked.stream_digest()
            )
        },
    );
    let checks = vec![
        drain,
        pacing,
        false_accusations(&soak, &first.open.verdicts),
        fleet_parity(&soak, &first.open.verdicts[0]),
        workload::pinned(run, soak.journeys, &digest),
    ];

    // Metrics.
    let submitted: u64 = passes.iter().map(|p| p.open.submitted).sum();
    let failed: u64 = passes.iter().map(Pass::failed).sum();
    let late: u64 = passes
        .iter()
        .flat_map(|p| p.open.latency.iter().flatten())
        .filter(|&&l| l > SLO_LIMIT)
        .count() as u64;
    let slo_miss_frac = layers::ratio((failed + late) as f64, submitted as f64);
    let mut best: Vec<Duration> = (0..arrivals.len())
        .filter_map(|k| {
            passes
                .iter()
                .filter_map(|p| Some(p.open.latency[k]?.mul_f64(p.scale)))
                .min()
        })
        .collect();
    let [p50, p90, p99, max] = stats::percentiles_ms(&mut best, &[0.5, 0.9, 0.99, 1.0])[..] else {
        unreachable!("four quantiles requested")
    };
    let journeys_per_s = best_rate(&rounds[1..], round_soak.journeys);
    let (metrics, info) = if run.traced {
        let mut all: Vec<Duration> = passes
            .iter()
            .flat_map(|p| p.open.latency.iter().flatten().copied())
            .collect();
        let mut admit: Vec<Duration> = passes.iter().flat_map(|p| p.open.admit.clone()).collect();
        let mut lag: Vec<Duration> = passes
            .iter()
            .flat_map(|p| p.open.send_lag.clone())
            .collect();
        let drain: Vec<Duration> = passes.iter().flat_map(|p| p.open.drain.clone()).collect();
        let [admit_p50, admit_p99] = stats::percentiles_ms(&mut admit, &[0.5, 0.99])[..] else {
            unreachable!("two quantiles requested")
        };
        bench.admit_p50_us = admit_p50 * 1e3;
        bench.admit_p99_us = admit_p99 * 1e3;
        bench.admit_mean_us = stats::mean_us(&admit);
        bench.drain_mean_us = stats::mean_us(&drain);
        bench.send_lag_p99_us = stats::percentiles_ms(&mut lag, &[0.99])[0] * 1e3;
        bench.latency_mean_us = stats::mean_us(&all);
        bench.verdict_p99_ms = stats::percentiles_ms(&mut all, &[0.99])[0];
        bench.slo_miss_frac = slo_miss_frac;
        bench.poll_us = POLL.as_secs_f64() * 1e6;
        bench.overhead_pct = 100.0
            * (1.0
                - layers::ratio(
                    best_rate(&traced_rounds, round_soak.journeys),
                    journeys_per_s,
                ));
        (layers::per_layer(&deltas, &bench), Vec::new())
    } else {
        let metrics = vec![
            Metric::new("journeys_per_s", journeys_per_s, "1/s"),
            Metric::quantile("verdict_p50_ms", p50, "ms"),
            Metric::quantile("verdict_p90_ms", p90, "ms"),
            Metric::new("setup_s", stats::median(&setups), "s"),
            Metric::new("rss_peak_mb", workload::rss_peak_mb(), "MiB"),
        ];
        let mut info = vec![
            Metric::quantile("verdict_p99_ms", p99, "ms"),
            Metric::new("verdict_max_ms", max, "ms"),
            Metric::new("slo_miss_frac", slo_miss_frac, "frac"),
            Metric::new(
                "failed_frac",
                layers::ratio(failed as f64, submitted as f64),
                "frac",
            ),
            Metric::new(
                "clock_scale",
                stats::median(&rounds.iter().map(|r| r.scale).collect::<Vec<_>>()),
                "ratio",
            ),
        ];
        if shape.durable {
            info.push(Metric::new("restart_s", bench.restart_s, "s"));
        }
        (metrics, info)
    };
    let rounds_failed: u64 = all_rounds().map(|r| r.failed).sum();
    Outcome {
        workload: run.workload.name,
        seed: run.seed,
        seconds: run.seconds,
        traced: run.traced,
        attempted: submitted + all_rounds().map(|r| r.submitted).sum::<u64>() + soaked.submitted,
        failed: failed + rounds_failed + soaked.rejected + soaked.dropped,
        checks,
        size: soak.journeys,
        digest,
        metrics,
        info,
    }
}

/// Journeys per second of `rounds` (every one the same `journeys`) at the
/// reference clock: each chunk at the least scaled time any round gave it.
fn best_rate(rounds: &[Round], journeys: u64) -> f64 {
    let chunks: Vec<Vec<f64>> = rounds.iter().map(|r| r.chunk_s.clone()).collect();
    journeys as f64 / stats::best_sum(&chunks)
}

/// The grouped stream a soak of the first `journeys` submissions
/// produces: each owner's leading verdicts, owners in order.
fn leading_stream(verdicts: &[Vec<VerdictReply>], journeys: u64) -> String {
    let owners = verdicts.len() as u64;
    verdicts
        .iter()
        .enumerate()
        .map(|(owner, owner_verdicts)| {
            let share = journeys / owners + u64::from((owner as u64) < journeys % owners);
            stream_of(&owner_verdicts[..(share as usize).min(owner_verdicts.len())])
        })
        .collect()
}

fn serve_config(state_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        state_dir,
        ..ServeConfig::default()
    }
}

/// Registers `soak`'s tenants — the names and seeds `run_soak_concurrent`
/// registers, so every phase serves one tenant universe.
fn register_all(service: &Service, soak: &SoakConfig) {
    for index in 0..soak.owners {
        let reply = service.handle(Request::Register(RegisterOwner {
            owner: SoakConfig::owner_name(index),
            seed: soak.owner_seed(index),
            preset: soak.preset.clone(),
            mechanism: soak.mechanism.clone(),
        }));
        assert!(
            matches!(reply, Response::Registered { .. }),
            "registering owner {index}: {reply:?}"
        );
    }
}

/// One cold set-up: `Service::new` and every registration, up to the
/// first accepted submission.
fn time_setup(soak: &SoakConfig, state_dir: Option<PathBuf>) -> Duration {
    let started = Instant::now();
    let service = Service::new(serve_config(state_dir));
    register_all(&service, soak);
    let reply = service.handle(Request::Submit {
        owner: SoakConfig::owner_name(0),
        journey: 0,
    });
    let elapsed = started.elapsed();
    assert!(
        matches!(reply, Response::Accepted { .. }),
        "first submission after set-up: {reply:?}"
    );
    elapsed
}

/// One warm restart on `dir`, up to the first accepted submission (never
/// settled, so the dir is left as the pass wrote it), and the durable
/// stream positions the restarted service reports.
fn time_restart(dir: &Path, soak: &SoakConfig) -> (Duration, Vec<StreamCheckpoint>) {
    let started = Instant::now();
    let service = Service::new(serve_config(Some(dir.to_path_buf())));
    let reply = service.handle(Request::Submit {
        owner: SoakConfig::owner_name(0),
        journey: soak.journeys.div_ceil(soak.owners as u64),
    });
    let elapsed = started.elapsed();
    assert!(
        matches!(reply, Response::Accepted { .. }),
        "first submission after restart: {reply:?}"
    );
    (elapsed, stream_state(&service))
}

fn stream_state(service: &Service) -> Vec<StreamCheckpoint> {
    match service.handle(Request::StreamState) {
        Response::StreamState { owners, .. } => owners,
        other => panic!("stream state: {other:?}"),
    }
}

/// `(accepted, verified)` per owner.
fn owner_stats(service: &Service, soak: &SoakConfig) -> Vec<(u64, u64)> {
    (0..soak.owners)
        .map(|index| {
            match service.handle(Request::Stats {
                owner: SoakConfig::owner_name(index),
            }) {
                Response::Stats(stats) => (stats.accepted, stats.verified),
                other => panic!("stats of owner {index}: {other:?}"),
            }
        })
        .collect()
}

/// Opens the first pass's store once more, timing `LogStore::open`, and
/// reads its size and record counts.
fn measure_store(dir: &Path, checkpoints: &[StreamCheckpoint], bench: &mut BenchTimers) {
    let started = Instant::now();
    let store = LogStore::open(dir).expect("reopen the first pass's state dir");
    bench.store_open_s = started.elapsed().as_secs_f64();
    bench.store_replay_records = store
        .appended(REPLAY_NAMESPACE)
        .expect("read the replay log")
        .len() as f64;
    bench.store_stream_records = checkpoints.iter().map(|c| c.offset as f64).sum();
    for entry in std::fs::read_dir(dir)
        .expect("list the state dir")
        .flatten()
    {
        bench.store_segments += 1.0;
        bench.store_bytes += entry.metadata().map_or(0, |m| m.len()) as f64;
    }
}

/// What one closed-loop round observed.
struct Round {
    /// Each chunk's time scaled to the reference clock, in seconds.
    chunk_s: Vec<f64>,
    /// The [`clock::scale`] those times were multiplied by.
    scale: f64,
    /// The grouped verdict stream, owners in order.
    stream: String,
    submitted: u64,
    accepted: u64,
    verified: u64,
    /// Submissions refused or answered with an error.
    failed: u64,
}

impl Round {
    fn drained(&self, journeys: u64) -> bool {
        self.failed == 0 && self.accepted == journeys && self.verified == journeys
    }
}

/// One closed-loop round on a fresh service without a tick driver:
/// submission `k` goes to owner `k mod owners` as journey `k / owners`, in
/// chunks of [`TICK_EVERY`], each followed by a `Tick` and a `Drain` of
/// every owner. A chunk's time covers all three.
fn closed_round(soak: &SoakConfig, state_dir: Option<PathBuf>) -> Round {
    let service = Service::new(serve_config(state_dir));
    register_all(&service, soak);
    let owners = soak.owners;
    let names: Vec<String> = (0..owners).map(SoakConfig::owner_name).collect();
    let mut verdicts: Vec<Vec<VerdictReply>> = vec![Vec::new(); owners];
    let mut chunk_s = Vec::new();
    let (mut accepted, mut failed) = (0, 0);
    for first in (0..soak.journeys).step_by(TICK_EVERY) {
        let started = Instant::now();
        for k in first..(first + TICK_EVERY as u64).min(soak.journeys) {
            let owner = k as usize % owners;
            match service.handle(Request::Submit {
                owner: names[owner].clone(),
                journey: k / owners as u64,
            }) {
                Response::Accepted { .. } => accepted += 1,
                _ => failed += 1,
            }
        }
        if !matches!(service.handle(Request::Tick), Response::Ticked { .. }) {
            failed += 1;
        }
        for (owner, name) in names.iter().enumerate() {
            match service.handle(Request::Drain {
                owner: name.clone(),
            }) {
                Response::Verdicts(drained) => verdicts[owner].extend(drained),
                _ => failed += 1,
            }
        }
        chunk_s.push(started.elapsed().as_secs_f64());
    }
    let scale = clock::scale(clock::probe());
    Round {
        chunk_s: chunk_s.iter().map(|t| t * scale).collect(),
        scale,
        stream: verdicts.iter().map(|v| stream_of(v)).collect(),
        submitted: soak.journeys,
        accepted,
        verified: verdicts.iter().map(|v| v.len() as u64).sum(),
        failed,
    }
}

/// The untimed cross-check: `run_soak_concurrent` over
/// [`SOAK_CONNECTIONS`] in-process pipelined connections on a fresh
/// service, no tick driver.
fn soak_check(soak: &SoakConfig, state_dir: Option<PathBuf>) -> SoakOutcome {
    let config = serve_config(state_dir);
    let capacity = config.queue_capacity;
    let service = Arc::new(Service::new(config));
    run_soak_concurrent(
        |_| LocalPipelined::new(Arc::clone(&service)),
        soak,
        SOAK_CONNECTIONS,
        capacity,
    )
}

/// One open-loop pass and what its service reported afterwards.
struct Pass {
    open: OpenLoop,
    /// The [`clock::scale`] of a probe taken right after the pass.
    scale: f64,
    /// Shutdown found nothing left to settle.
    settled_clean: bool,
    /// `(accepted, verified)` per owner, after shutdown.
    stats: Vec<(u64, u64)>,
    /// The service's durable stream positions, after shutdown.
    checkpoints: Vec<StreamCheckpoint>,
}

impl Pass {
    fn drained(&self) -> bool {
        let accepted: u64 = self.stats.iter().map(|s| s.0).sum();
        let verified: u64 = self.stats.iter().map(|s| s.1).sum();
        self.settled_clean
            && self.open.errors == 0
            && accepted == self.open.accepted
            && verified == accepted
            && self.delivered() == accepted
    }

    fn delivered(&self) -> u64 {
        self.open.latency.iter().flatten().count() as u64
    }

    /// Refused, answered with an error, or accepted but never delivered.
    fn failed(&self) -> u64 {
        self.open.refused + self.open.errors + self.open.accepted.saturating_sub(self.delivered())
    }

    /// Every durable checkpoint (a durable service's) sits at the end of
    /// its owner's delivered stream.
    fn checkpoints_match(&self) -> bool {
        self.checkpoints
            .iter()
            .zip(&self.open.verdicts)
            .all(|(checkpoint, verdicts)| {
                let stream = stream_of(verdicts);
                checkpoint.offset == verdicts.len() as u64
                    && checkpoint.digest == workload::fnv_hex(stream.as_bytes())
            })
    }
}

/// One open-loop pass on a fresh service under the real tick driver.
fn open_pass(soak: &SoakConfig, arrivals: &[u64], state_dir: Option<PathBuf>) -> Pass {
    let service = Arc::new(Service::new(ServeConfig {
        queue_capacity: OPEN_LOOP_QUEUE,
        ..serve_config(state_dir)
    }));
    register_all(&service, soak);
    let driver = TickDriver::start(Arc::clone(&service), TickDriverConfig::default());
    let open = open_loop(&service, soak, arrivals);
    driver.stop();
    let shutdown = service.handle(Request::Shutdown);
    Pass {
        open,
        scale: clock::scale(clock::probe()),
        settled_clean: matches!(shutdown, Response::ShuttingDown { settled: 0 }),
        stats: owner_stats(&service, soak),
        checkpoints: stream_state(&service),
    }
}

/// What one open-loop pass observed.
struct OpenLoop {
    submitted: u64,
    accepted: u64,
    refused: u64,
    errors: u64,
    /// Each owner's verdicts, in the order drained (admission order).
    verdicts: Vec<Vec<VerdictReply>>,
    /// Per submission `k`: from its scheduled send time to the return of
    /// the `Drain` carrying its verdict, if one came.
    latency: Vec<Option<Duration>>,
    /// `Submit` handling times.
    admit: Vec<Duration>,
    /// `Drain` handling times.
    drain: Vec<Duration>,
    /// How late each submission was sent.
    send_lag: Vec<Duration>,
}

/// Submits on the Poisson schedule — submission `k` to owner
/// `k mod owners` as journey `k / owners` — and drains every owner with
/// a verdict outstanding once per [`POLL`], until every accepted journey
/// has its verdict.
fn open_loop(service: &Service, soak: &SoakConfig, arrivals: &[u64]) -> OpenLoop {
    let owners = soak.owners;
    let names: Vec<String> = (0..owners).map(SoakConfig::owner_name).collect();
    let mut out = OpenLoop {
        submitted: 0,
        accepted: 0,
        refused: 0,
        errors: 0,
        verdicts: vec![Vec::new(); owners],
        latency: vec![None; arrivals.len()],
        admit: Vec::with_capacity(arrivals.len()),
        drain: Vec::new(),
        send_lag: Vec::with_capacity(arrivals.len()),
    };
    let mut outstanding = vec![0u64; owners];
    let mut in_flight = 0u64;
    let start = Instant::now();
    let due = |k: usize| start + Duration::from_nanos(arrivals[k]);
    let deadline =
        start + Duration::from_nanos(arrivals.last().copied().unwrap_or(0)) + DRAIN_TIMEOUT;
    let mut next = 0usize;
    let mut next_poll = start + POLL;
    loop {
        while next < arrivals.len() && due(next) <= Instant::now() {
            let owner = next % owners;
            let sent = Instant::now();
            let reply = service.handle(Request::Submit {
                owner: names[owner].clone(),
                journey: (next / owners) as u64,
            });
            out.admit.push(sent.elapsed());
            out.send_lag.push(sent - due(next));
            match reply {
                Response::Accepted { .. } => {
                    out.accepted += 1;
                    outstanding[owner] += 1;
                    in_flight += 1;
                }
                Response::Rejected { .. } => out.refused += 1,
                _ => out.errors += 1,
            }
            next += 1;
        }
        let now = Instant::now();
        if now >= next_poll {
            for owner in 0..owners {
                if outstanding[owner] == 0 {
                    continue;
                }
                let asked = Instant::now();
                let reply = service.handle(Request::Drain {
                    owner: names[owner].clone(),
                });
                let returned = Instant::now();
                out.drain.push(returned - asked);
                let Response::Verdicts(verdicts) = reply else {
                    out.errors += 1;
                    continue;
                };
                for verdict in verdicts {
                    let k = verdict.journey as usize * owners + owner;
                    out.latency[k] = Some(returned - due(k));
                    outstanding[owner] -= 1;
                    in_flight -= 1;
                    out.verdicts[owner].push(verdict);
                }
            }
            next_poll += POLL;
            if next_poll < now {
                next_poll = now + POLL;
            }
        }
        if (next == arrivals.len() && in_flight == 0) || now >= deadline {
            break;
        }
        let wake = match arrivals.get(next) {
            Some(_) => due(next).min(next_poll),
            None => next_poll,
        };
        if let Some(wait) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    out.submitted = next as u64;
    out
}

/// One owner's verdict lines, as the soak's grouped stream holds them.
fn stream_of(verdicts: &[VerdictReply]) -> String {
    verdicts.iter().map(|v| v.stream_line() + "\n").collect()
}

/// Every accused host is the attacker of the scenario the journey ran.
fn false_accusations(soak: &SoakConfig, verdicts: &[Vec<VerdictReply>]) -> Verdict {
    let preset = Preset::parse(&soak.preset).expect("known preset");
    let mut wrong = Vec::new();
    for (owner, owner_verdicts) in verdicts.iter().enumerate() {
        for verdict in owner_verdicts.iter().filter(|v| !v.accused.is_empty()) {
            let generated = scenario::generate(soak.owner_seed(owner), verdict.journey, preset);
            let attacker = generated.attacker.as_ref().map(|(host, _)| host.as_str());
            if verdict.accused.iter().any(|h| Some(h.as_str()) != attacker) {
                wrong.push(verdict.stream_line());
            }
        }
    }
    Verdict::check(wrong.is_empty(), || {
        format!("{} false accusations, first: {}", wrong.len(), wrong[0])
    })
}

/// Owner 0's first journeys get the verdicts `run_fleet` gives the same
/// scenarios under the same mechanism.
fn fleet_parity(soak: &SoakConfig, owner0: &[VerdictReply]) -> Verdict {
    let compared = &owner0[..owner0.len().min(PARITY_JOURNEYS)];
    let fleet = run_fleet(&FleetConfig {
        scenarios: compared.len() as u64,
        workers: 1,
        seed: soak.owner_seed(0),
        preset: Preset::parse(&soak.preset).expect("known preset"),
        mechanisms: vec![MechanismRegistry::builtin()
            .get(&soak.mechanism)
            .expect("known mechanism")],
        key_pool: 8,
        ..FleetConfig::default()
    });
    let mismatch = compared
        .iter()
        .zip(&fleet.results)
        .find(|(verdict, result)| {
            let (detected, completed, infra) = match result.runs.first() {
                Some(run) => (run.detected, run.completed, run.infra_error),
                // Topology-incompatible: the service answers with an infra verdict.
                None => (false, false, true),
            };
            verdict.journey != result.id
                || (verdict.detected, verdict.completed, verdict.infra_error)
                    != (detected, completed, infra)
        });
    Verdict::check(mismatch.is_none(), || {
        format!(
            "journey {} differs from run_fleet",
            mismatch.expect("mismatch").0.journey
        )
    })
}

/// State dirs of one run, under `.refbench-state/<pid>` in the working
/// directory; removed when the run ends.
struct StateDirs {
    root: PathBuf,
}

impl StateDirs {
    fn new() -> StateDirs {
        let root = Path::new(".refbench-state").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        StateDirs { root }
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for StateDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        let _ = std::fs::remove_dir(".refbench-state");
    }
}
