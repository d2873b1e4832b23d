//! The journey scheduler: a scoped worker pool driving thousands of
//! protected journeys concurrently.
//!
//! Workers claim scenario ids from one shared atomic cursor until the
//! fleet is exhausted, and each returns the results it produced. Three
//! properties make the pool fleet-grade:
//!
//! * **per-scenario RNG streams** — every scenario derives its own seed
//!   from `(fleet seed, scenario id)`, so results do not depend on which
//!   worker ran it or in what order (worker-count invariance),
//! * **pooled key material** — DSA key generation dominates host
//!   construction, so workers draw host keys from a pre-generated pool
//!   (deterministically indexed by scenario and position) instead of
//!   generating per journey,
//! * **deterministic result ordering** — results are collected and sorted
//!   by scenario id before aggregation, so the [`FleetReport`] is
//!   byte-identical for a fixed seed.
//!
//! Mechanism dispatch goes exclusively through the
//! [`refstate_mechanisms::api`] surface: the engine resolves
//! [`ProtectionMechanism`]s from a [`MechanismRegistry`] (or takes them
//! directly in [`FleetConfig::mechanisms`]) and runs each scenario
//! through the shared [`crate::journey`] path — the one the resident
//! service runs too — settling every journey as soon as it returns. A
//! mechanism whose profile is incompatible with a scenario (e.g.
//! `replication` on a stage-less linear route) is skipped and surfaces as
//! `n/a` in the report rather than a fake 0.00 rate.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_core::VerificationPipeline;
use refstate_crypto::{DsaKeyPair, DsaParams};
use refstate_mechanisms::api::{
    settle, JourneyVerdict, MechanismConfig, MechanismRegistry, ProtectionMechanism,
};
use refstate_platform::{EventLog, HostSpec};
use refstate_telemetry as telemetry;

use crate::campaign::CampaignMeta;
use crate::journey::{self, JourneyEnv};
use crate::report::{FleetReport, FleetTiming, LatencyPercentiles, StageBreakdown};
use crate::scenario::{self, GeneratedScenario, Preset};

/// Configuration of one fleet run.
#[derive(Clone)]
pub struct FleetConfig {
    /// Number of scenarios to generate and run.
    pub scenarios: u64,
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// The fleet seed; fixes the entire scenario population.
    pub seed: u64,
    /// The scenario family to draw from.
    pub preset: Preset,
    /// The mechanisms to run each scenario under (resolve them from a
    /// [`MechanismRegistry`]; defaults to every built-in mechanism).
    pub mechanisms: Vec<Arc<dyn ProtectionMechanism>>,
    /// Size of the pre-generated DSA key pool hosts draw from.
    pub key_pool: usize,
    /// Shared mechanism configuration.
    pub adapter: MechanismConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            scenarios: 1000,
            workers: 0,
            seed: 42,
            preset: Preset::Mixed,
            mechanisms: MechanismRegistry::builtin().all(),
            key_pool: 64,
            adapter: MechanismConfig::default(),
        }
    }
}

impl fmt::Debug for FleetConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetConfig")
            .field("scenarios", &self.scenarios)
            .field("workers", &self.workers)
            .field("seed", &self.seed)
            .field("preset", &self.preset)
            .field(
                "mechanisms",
                &self.mechanisms.iter().map(|m| m.name()).collect::<Vec<_>>(),
            )
            .field("key_pool", &self.key_pool)
            .finish_non_exhaustive()
    }
}

impl FleetConfig {
    /// The effective worker count (resolves 0 to the machine's
    /// parallelism).
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }
    }

    /// The configured mechanism names, in run order.
    pub fn mechanism_names(&self) -> Vec<&'static str> {
        self.mechanisms.iter().map(|m| m.name()).collect()
    }
}

/// One mechanism's verdict on one scenario, scored against the scenario's
/// actual attacker.
#[derive(Debug, Clone)]
pub struct MechanismRun {
    /// The mechanism's registry name.
    pub mechanism: &'static str,
    /// The mechanism flagged the run.
    pub detected: bool,
    /// Somebody other than the actual attacker was accused.
    pub false_accusation: bool,
    /// `Some(true)` when the detection blamed the actual attacker;
    /// `Some(false)` when it blamed someone else; `None` when nothing was
    /// detected or the scenario had no attacker.
    pub correct_culprit: Option<bool>,
    /// The journey ran to its halt instruction.
    pub completed: bool,
    /// The journey died of an infrastructure failure.
    pub infra_error: bool,
    /// Wall time of this journey (excluded from the deterministic report).
    pub latency: Duration,
}

/// Everything one scenario produced across its mechanism runs.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario id.
    pub id: u64,
    /// The concrete scenario family it was drawn as.
    pub kind: &'static str,
    /// The attack-class label (`"honest"` when no attacker).
    pub attack_label: &'static str,
    /// Route length of the scenario (primary path).
    pub route_len: usize,
    /// One entry per *compatible* configured mechanism, in configuration
    /// order (topology-incompatible mechanisms are absent — they surface
    /// as `n/a` in the report).
    pub runs: Vec<MechanismRun>,
    /// Campaign membership when the scenario was drawn from an adaptive
    /// campaign (see [`crate::campaign`]); feeds the report's
    /// [`AdaptationReport`](crate::report::AdaptationReport).
    pub campaign: Option<CampaignMeta>,
}

/// A completed fleet run.
#[derive(Debug)]
pub struct FleetRun {
    /// The deterministic aggregate (counts and rates).
    pub report: FleetReport,
    /// Wall-clock facts (throughput, latency percentiles).
    pub timing: FleetTiming,
    /// Raw per-scenario results, ordered by scenario id.
    pub results: Vec<ScenarioResult>,
    /// Telemetry metrics accumulated by this run (a delta over the
    /// process-wide collector, so concurrent runs don't bleed into each
    /// other's exports). `None` when telemetry is off.
    pub metrics: Option<telemetry::MetricsSnapshot>,
}

/// Scores a verdict against the scenario's actual attacker.
fn score(
    mechanism: &'static str,
    verdict: JourneyVerdict,
    scenario: &GeneratedScenario,
    latency: Duration,
) -> MechanismRun {
    let attacker = scenario.attacker.as_ref().map(|(host, _)| host);
    let false_accusation = verdict
        .accused
        .iter()
        .any(|accused| Some(accused) != attacker);
    let correct_culprit = if verdict.detected {
        attacker.map(|a| verdict.accused.contains(a))
    } else {
        None
    };
    MechanismRun {
        mechanism,
        detected: verdict.detected,
        false_accusation,
        correct_culprit,
        completed: verdict.completed,
        infra_error: verdict.infra_error,
        latency,
    }
}

/// Runs every compatible configured mechanism over scenario `id` (fresh
/// hosts per mechanism — feeds are consumed by execution).
fn run_scenario(
    id: u64,
    config: &FleetConfig,
    keys: &[Arc<DsaKeyPair>],
    pipeline: &Arc<VerificationPipeline>,
) -> ScenarioResult {
    let scenario = scenario::generate(config.seed, id, config.preset);
    // Campaign steps run under one span so traces group each journey by
    // its engagement.
    let _campaign_span = scenario
        .campaign
        .as_ref()
        .map(|_| telemetry::span("fleet.campaign.step", "fleet"));
    let key = move |pos: usize, _: &HostSpec| {
        &keys[(id as usize).wrapping_mul(31).wrapping_add(pos) % keys.len()]
    };
    // Keys depend on the scenario alone, so one directory serves every
    // mechanism.
    let directory = journey::scenario_directory(&scenario, key);
    let mut runs = Vec::with_capacity(config.mechanisms.len());
    for mechanism in &config.mechanisms {
        let log = EventLog::new();
        let env = JourneyEnv {
            seed: config.seed,
            directory: &directory,
            config: &config.adapter,
            pipeline,
            log: &log,
        };
        let Some((split, started)) = journey::run_journey(&env, &scenario, mechanism.as_ref(), key)
        else {
            continue;
        };
        let (mut verdicts, _) = {
            let _scope = telemetry::scoped(mechanism.name());
            settle(vec![split], &config.adapter, pipeline, &log, &directory)
        };
        let verdict = verdicts.pop().expect("one split in, one verdict out");
        runs.push(score(
            mechanism.name(),
            verdict,
            &scenario,
            started.elapsed(),
        ));
    }
    ScenarioResult {
        id,
        kind: scenario.kind.name(),
        attack_label: scenario.attack_label,
        route_len: scenario.route_len(),
        runs,
        campaign: scenario.campaign,
    }
}

/// Runs the whole fleet and aggregates the results.
///
/// Deterministic for a fixed `config.seed` (and mechanism/preset
/// selection): the [`FleetReport`] — including its canonical JSON — is
/// byte-identical across runs and worker counts. Timing is not.
pub fn run_fleet(config: &FleetConfig) -> FleetRun {
    assert!(
        !config.mechanisms.is_empty(),
        "configure at least one mechanism"
    );
    assert!(config.key_pool > 0, "key pool must be non-empty");
    let started = Instant::now();
    let workers = config.effective_workers();

    // Telemetry is observational only: everything below feeds FleetTiming
    // and the exported artifacts, never the deterministic FleetReport. The
    // delta keeps this run's metrics separable even when other fleets ran
    // earlier in the same process (the collector is process-global).
    let metrics_before = telemetry::enabled().then(telemetry::snapshot);

    // One verification pipeline for the whole run: every journey's
    // re-execution funnels through it, so the timing block reads one
    // replay count.
    let pipeline = Arc::new(VerificationPipeline::new());

    // One shared DSA group and key pool (generation is the expensive
    // part; hosts index into the pool deterministically).
    let keygen = telemetry::span("fleet.keygen", "fleet");
    let params = DsaParams::test_group_256();
    let mut key_rng = StdRng::seed_from_u64(config.seed ^ 0x5ee3_d00d_cafe_f00d);
    let keys: Vec<Arc<DsaKeyPair>> = (0..config.key_pool)
        .map(|_| Arc::new(DsaKeyPair::generate(&params, &mut key_rng)))
        .collect();
    // Build every pooled key's fixed-base verification table up front:
    // the workers share the pool, so no journey pays a first-use table
    // build inside its measured latency.
    for key in &keys {
        key.public().precompute();
    }
    drop(keygen);

    // Workers claim ids from a shared cursor and hand back what they ran.
    let next_id = AtomicU64::new(0);
    let mut results: Vec<ScenarioResult> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers as u32)
            .map(|worker| {
                let (next_id, keys, pipeline) = (&next_id, &keys, &pipeline);
                scope.spawn(move || {
                    let mut ran = Vec::new();
                    loop {
                        // Claim wait vs run time: the wait timer only
                        // records a claim that yields an id (the final
                        // exhausted claim is shutdown, not contention).
                        let wait = telemetry::Timer::start();
                        let id = next_id.fetch_add(1, Ordering::Relaxed);
                        if id >= config.scenarios {
                            return ran;
                        }
                        wait.finish("fleet.queue_wait", "fleet");
                        let busy = telemetry::Timer::start();
                        ran.push(run_scenario(id, config, keys, pipeline));
                        let spent = busy.finish("fleet.scenario", "fleet");
                        telemetry::count_indexed("fleet.worker.scenarios", worker, 1);
                        telemetry::count_indexed(
                            "fleet.worker.busy_us",
                            worker,
                            spent.as_micros() as u64,
                        );
                    }
                })
            })
            .collect();
        // Joining each worker (not just leaving the scope) waits for its
        // thread exit, which flushes its telemetry before the delta below.
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("fleet worker panicked"))
            .collect()
    });
    // Deterministic ordering regardless of worker interleaving.
    results.sort_unstable_by_key(|r| r.id);

    let wall = started.elapsed();
    let names = config.mechanism_names();
    let report = FleetReport::from_results(config.seed, config.preset.name(), &names, &results);
    let journeys = results.iter().map(|r| r.runs.len() as u64).sum::<u64>();
    let latencies = names
        .iter()
        .filter_map(|&mechanism| {
            let mut lats: Vec<Duration> = results
                .iter()
                .flat_map(|r| &r.runs)
                .filter(|run| run.mechanism == mechanism)
                .map(|run| run.latency)
                .collect();
            LatencyPercentiles::from_latencies(&mut lats).map(|p| (mechanism, p))
        })
        .collect();
    // This run's metric delta: stage breakdowns key on the mechanism name
    // each worker set as its telemetry scope while the journey ran.
    let metrics = metrics_before.map(|before| telemetry::snapshot().delta_since(&before));
    let stages = match &metrics {
        Some(delta) => names
            .iter()
            .map(|&name| (name, StageBreakdown::from_metrics(delta, name)))
            .filter(|(_, breakdown)| !breakdown.is_empty())
            .collect(),
        None => Vec::new(),
    };
    let timing = FleetTiming {
        workers,
        wall,
        scenarios_per_sec: results.len() as f64 / wall.as_secs_f64().max(f64::EPSILON),
        journeys_per_sec: journeys as f64 / wall.as_secs_f64().max(f64::EPSILON),
        latencies,
        replay: pipeline.snapshot(),
        telemetry: telemetry::level(),
        stages,
    };

    FleetRun {
        report,
        timing,
        results,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mechanisms(names: &[&str]) -> Vec<Arc<dyn ProtectionMechanism>> {
        let registry = MechanismRegistry::builtin();
        names
            .iter()
            .map(|name| registry.get(name).expect("known mechanism"))
            .collect()
    }

    fn small_config(names: &[&str]) -> FleetConfig {
        FleetConfig {
            scenarios: 40,
            workers: 4,
            seed: 7,
            preset: Preset::Mixed,
            mechanisms: mechanisms(names),
            key_pool: 8,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn results_are_ordered_and_complete() {
        let run = run_fleet(&small_config(&["protocol"]));
        assert_eq!(run.results.len(), 40);
        assert!(run.results.windows(2).all(|w| w[0].id < w[1].id));
        assert!(run.results.iter().all(|r| r.runs.len() == 1));
        assert_eq!(run.report.scenarios, 40);
    }

    #[test]
    fn timing_has_percentiles_per_mechanism() {
        let run = run_fleet(&small_config(&["unprotected", "framework"]));
        assert_eq!(run.timing.latencies.len(), 2);
        assert!(run.timing.journeys_per_sec > 0.0);
        for (_, p) in &run.timing.latencies {
            assert!(p.p50 <= p.p90 && p.p90 <= p.p99 && p.p99 <= p.max);
        }
    }

    #[test]
    fn incompatible_mechanisms_are_skipped_not_zeroed() {
        // Replication cannot run a linear mixed fleet: zero journeys (an
        // n/a report row), never a fake detection count.
        let run = run_fleet(&small_config(&["replication", "unprotected"]));
        assert!(run.results.iter().all(|r| r.runs.len() == 1));
        let replication = &run.report.mechanisms[0];
        assert_eq!(replication.name, "replication");
        assert_eq!(replication.total.journeys, 0);
        assert_eq!(run.report.mechanisms[1].total.journeys, 40);
        // No latency percentile row for a mechanism that never ran.
        assert_eq!(run.timing.latencies.len(), 1);
    }
}
