//! Fleet aggregation: detection/accusation/attribution rates per
//! mechanism × attack class, plus the (separately kept) timing report.
//!
//! [`FleetReport`] holds only counts derived from journey verdicts, so it
//! is bit-for-bit identical across runs with the same seed regardless of
//! worker count or machine speed. Wall-clock facts (throughput, latency
//! percentiles) live in [`FleetTiming`], which is *not* part of the
//! deterministic surface.
//!
//! Mechanisms are identified by their registry name. A configured
//! mechanism that ran **zero** journeys — filtered out by topology (e.g.
//! `replication` on a linear preset) — renders as `n/a`, and its JSON
//! rates are `null`: an absent measurement, never a fake `0.00` detection
//! rate. The same holds for attribution accuracy when nothing was
//! detected.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use refstate_core::PipelineStatsSnapshot;
use refstate_telemetry::json::JsonWriter;
use refstate_telemetry::metrics::nearest_rank;
use refstate_telemetry::{HistogramSnapshot, MetricsSnapshot, TelemetryLevel};

use crate::engine::{MechanismRun, ScenarioResult};

/// Counters for one (mechanism, attack-class) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellStats {
    /// Journeys aggregated into this cell.
    pub journeys: u64,
    /// Journeys the mechanism flagged.
    pub detected: u64,
    /// Journeys where somebody *other than* the actual attacker was
    /// accused (including any accusation on an honest run).
    pub false_accusations: u64,
    /// Detected journeys in which the actual attacker was accused.
    pub correct_culprit: u64,
    /// Journeys that ran to their halt instruction.
    pub completed: u64,
    /// Journeys that died of an infrastructure failure.
    pub infra_errors: u64,
}

impl CellStats {
    fn absorb(&mut self, run: &MechanismRun) {
        self.journeys += 1;
        self.detected += run.detected as u64;
        self.false_accusations += run.false_accusation as u64;
        self.correct_culprit += matches!(run.correct_culprit, Some(true)) as u64;
        self.completed += run.completed as u64;
        self.infra_errors += run.infra_error as u64;
    }

    /// Detected fraction of this cell's journeys.
    pub fn detection_rate(&self) -> f64 {
        ratio(self.detected, self.journeys)
    }

    /// False-accusation fraction of this cell's journeys.
    pub fn false_accusation_rate(&self) -> f64 {
        ratio(self.false_accusations, self.journeys)
    }

    /// Among detections, the fraction that blamed the actual attacker.
    pub fn attribution_accuracy(&self) -> f64 {
        ratio(self.correct_culprit, self.detected)
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.field_u64("journeys", self.journeys);
        w.field_u64("detected", self.detected);
        w.field_u64("false_accusations", self.false_accusations);
        w.field_u64("correct_culprit", self.correct_culprit);
        w.field_u64("completed", self.completed);
        w.field_u64("infra_errors", self.infra_errors);
        // Zero-denominator rates are undefined measurements, not zeros.
        w.field_rate_or_null("detection_rate", self.detected, self.journeys);
        w.field_rate_or_null(
            "false_accusation_rate",
            self.false_accusations,
            self.journeys,
        );
        w.field_rate_or_null("attribution_accuracy", self.correct_culprit, self.detected);
    }
}

/// Renders `num/den` with three decimals, or `n/a` when the denominator
/// is zero (the rate is undefined, not zero).
fn fmt_rate(num: u64, den: u64) -> String {
    if den == 0 {
        "n/a".to_owned()
    } else {
        format!("{:.3}", num as f64 / den as f64)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One mechanism's aggregate over the whole fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MechanismReport {
    /// The mechanism's registry name.
    pub name: &'static str,
    /// Totals over every journey this mechanism ran.
    pub total: CellStats,
    /// Per-attack-class breakdown, keyed by attack label (`"honest"`
    /// included).
    pub per_attack: BTreeMap<&'static str, CellStats>,
}

impl MechanismReport {
    /// Returns `true` when the mechanism ran no journeys (filtered out or
    /// topology-incompatible with the preset) — render as `n/a`.
    pub fn not_run(&self) -> bool {
        self.total.journeys == 0
    }
}

/// Per-campaign counters for one (mechanism, policy) cell of an adaptive
/// fleet. All integer counts — the rates derive, so the cell is part of
/// the byte-deterministic surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptationCell {
    /// Campaigns this mechanism ran at least one journey of.
    pub campaigns: u64,
    /// Journeys aggregated across those campaigns.
    pub journeys: u64,
    /// Campaigns that mounted at least one real attack within the
    /// observed steps (probes, lie-low journeys, and churn don't count).
    pub attacked: u64,
    /// Attacked campaigns the mechanism flagged at or after the first
    /// real attack.
    pub detected: u64,
    /// Detections *before* the campaign's first real attack — a flag
    /// raised while the adversary was still probing or lying low.
    pub early_detections: u64,
    /// Journeys where somebody other than the actual attacker was
    /// accused.
    pub false_accusations: u64,
    /// Sum over detected campaigns of `first detected step − first
    /// attack step` (detection latency in journeys).
    pub latency_sum: u64,
}

impl AdaptationCell {
    /// Among attacked campaigns, the fraction the mechanism caught.
    pub fn detection_under_adaptation(&self) -> f64 {
        ratio(self.detected, self.attacked)
    }

    /// Mean detection latency in journeys (first detection step minus
    /// first attack step), over detected campaigns.
    pub fn mean_detection_latency(&self) -> f64 {
        ratio(self.latency_sum, self.detected)
    }

    /// False-accusation fraction of this cell's journeys.
    pub fn false_accusation_rate(&self) -> f64 {
        ratio(self.false_accusations, self.journeys)
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.field_u64("campaigns", self.campaigns);
        w.field_u64("journeys", self.journeys);
        w.field_u64("attacked", self.attacked);
        w.field_u64("detected", self.detected);
        w.field_u64("early_detections", self.early_detections);
        w.field_u64("false_accusations", self.false_accusations);
        w.field_u64("latency_sum", self.latency_sum);
        // Zero-denominator rates are undefined measurements, not zeros.
        w.field_rate_or_null("detection_under_adaptation", self.detected, self.attacked);
        w.field_rate_or_null(
            "mean_detection_latency_journeys",
            self.latency_sum,
            self.detected,
        );
        w.field_rate_or_null(
            "false_accusation_rate",
            self.false_accusations,
            self.journeys,
        );
    }
}

/// One mechanism's adaptation grades, total and per attacker policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MechanismAdaptation {
    /// The mechanism's registry name.
    pub name: &'static str,
    /// Totals over every campaign the mechanism ran.
    pub total: AdaptationCell,
    /// Per-policy breakdown, keyed by the campaign policy label.
    pub per_policy: BTreeMap<&'static str, AdaptationCell>,
}

/// The per-campaign grading of an adaptive fleet: detection latency (in
/// journeys), detection-under-adaptation rate, and false-accusation rate
/// per mechanism × attacker policy. Present on [`FleetReport`] only when
/// the fleet contained campaign scenarios ([`Preset::Adaptive`]
/// populations — see [`crate::campaign`]).
///
/// [`Preset::Adaptive`]: crate::scenario::Preset::Adaptive
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptationReport {
    /// Steps per campaign (see [`crate::campaign::JOURNEYS_PER_CAMPAIGN`]).
    pub journeys_per_campaign: u64,
    /// Distinct campaigns observed in the fleet.
    pub campaigns: u64,
    /// Per-mechanism grades, in configuration order; mechanisms that ran
    /// no campaign journeys (topology-incompatible) have no entry.
    pub mechanisms: Vec<MechanismAdaptation>,
}

/// Per-(mechanism, campaign) fold state while walking the id-ordered
/// scenario results.
struct CampaignTrack {
    policy: &'static str,
    first_attack: Option<u64>,
    max_step: u64,
    journeys: u64,
    first_detection: Option<u64>,
    early_detections: u64,
    false_accusations: u64,
}

impl CampaignTrack {
    fn absorb_into(&self, cell: &mut AdaptationCell) {
        cell.campaigns += 1;
        cell.journeys += self.journeys;
        cell.early_detections += self.early_detections;
        cell.false_accusations += self.false_accusations;
        if let Some(first) = self.first_attack {
            // A campaign truncated before its first attack step never
            // attacked anyone.
            if first <= self.max_step {
                cell.attacked += 1;
                if let Some(detected_at) = self.first_detection {
                    cell.detected += 1;
                    cell.latency_sum += detected_at - first;
                }
            }
        }
    }
}

/// Folds campaign-tagged results into the adaptation grades. `None` when
/// the fleet contained no campaign scenarios.
fn adaptation_from_results(
    mechanisms: &[&'static str],
    results: &[ScenarioResult],
) -> Option<AdaptationReport> {
    let mut tracks: BTreeMap<(&'static str, u64), CampaignTrack> = BTreeMap::new();
    let mut campaigns: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for result in results {
        let Some(meta) = &result.campaign else {
            continue;
        };
        campaigns.insert(meta.campaign);
        for run in &result.runs {
            let track = tracks
                .entry((run.mechanism, meta.campaign))
                .or_insert(CampaignTrack {
                    policy: meta.policy,
                    first_attack: meta.first_attack_step,
                    max_step: 0,
                    journeys: 0,
                    first_detection: None,
                    early_detections: 0,
                    false_accusations: 0,
                });
            track.max_step = track.max_step.max(meta.step);
            track.journeys += 1;
            track.false_accusations += run.false_accusation as u64;
            if run.detected {
                match meta.first_attack_step {
                    Some(first) if meta.step >= first => {
                        track.first_detection = Some(
                            track
                                .first_detection
                                .map_or(meta.step, |d| d.min(meta.step)),
                        );
                    }
                    _ => track.early_detections += 1,
                }
            }
        }
    }
    if tracks.is_empty() {
        return None;
    }
    let mechanisms = mechanisms
        .iter()
        .filter_map(|&name| {
            let mut total = AdaptationCell::default();
            let mut per_policy: BTreeMap<&'static str, AdaptationCell> = BTreeMap::new();
            for ((mechanism, _), track) in &tracks {
                if *mechanism != name {
                    continue;
                }
                track.absorb_into(&mut total);
                track.absorb_into(per_policy.entry(track.policy).or_default());
            }
            (total.campaigns > 0).then_some(MechanismAdaptation {
                name,
                total,
                per_policy,
            })
        })
        .collect();
    Some(AdaptationReport {
        journeys_per_campaign: crate::campaign::JOURNEYS_PER_CAMPAIGN,
        campaigns: campaigns.len() as u64,
        mechanisms,
    })
}

/// The deterministic fleet result: counts and rates only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// The fleet seed.
    pub seed: u64,
    /// The preset the fleet was generated from.
    pub preset: &'static str,
    /// Number of generated scenarios.
    pub scenarios: u64,
    /// Aggregates per mechanism, in configuration order.
    pub mechanisms: Vec<MechanismReport>,
    /// Per-campaign adaptation grades; `Some` only when the fleet ran
    /// adaptive campaigns.
    pub adaptation: Option<AdaptationReport>,
}

impl FleetReport {
    /// Aggregates scenario results (engine output order) into the report.
    /// Every configured mechanism gets a report entry — mechanisms with
    /// no runs (topology-incompatible with the preset) keep zero counts
    /// and render as `n/a`.
    pub fn from_results(
        seed: u64,
        preset: &'static str,
        mechanisms: &[&'static str],
        results: &[ScenarioResult],
    ) -> FleetReport {
        let mut per_mechanism: BTreeMap<&'static str, MechanismReport> = mechanisms
            .iter()
            .map(|&name| {
                (
                    name,
                    MechanismReport {
                        name,
                        total: CellStats::default(),
                        per_attack: BTreeMap::new(),
                    },
                )
            })
            .collect();
        for result in results {
            for run in &result.runs {
                let report = per_mechanism
                    .get_mut(&run.mechanism)
                    .expect("engine only runs configured mechanisms");
                report.total.absorb(run);
                report
                    .per_attack
                    .entry(result.attack_label)
                    .or_default()
                    .absorb(run);
            }
        }
        FleetReport {
            seed,
            preset,
            scenarios: results.len() as u64,
            mechanisms: mechanisms
                .iter()
                .map(|&name| per_mechanism.remove(name).expect("built above"))
                .collect(),
            adaptation: adaptation_from_results(mechanisms, results),
        }
    }

    /// Renders the human-readable table: one block per mechanism, one row
    /// per attack class. Mechanisms with no journeys render as `n/a`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} scenarios, preset {}, seed {}",
            self.scenarios, self.preset, self.seed
        );
        for m in &self.mechanisms {
            let _ = writeln!(out);
            if m.not_run() {
                let _ = writeln!(
                    out,
                    "{:<20} n/a — ran no journeys under this preset \
                     (topology-incompatible or filtered out)",
                    m.name
                );
                continue;
            }
            let _ = writeln!(
                out,
                "{:<20} {:>9} {:>9} {:>8} {:>11} {:>11} {:>8} {:>7}",
                m.name,
                "journeys",
                "detected",
                "det.rate",
                "false-acc.",
                "attrib.acc.",
                "complete",
                "errors"
            );
            let mut rows: Vec<(&str, &CellStats)> =
                m.per_attack.iter().map(|(k, v)| (*k, v)).collect();
            rows.push(("TOTAL", &m.total));
            for (label, cell) in rows {
                let _ = writeln!(
                    out,
                    "{:<20} {:>9} {:>9} {:>8} {:>11} {:>11} {:>8} {:>7}",
                    label,
                    cell.journeys,
                    cell.detected,
                    fmt_rate(cell.detected, cell.journeys),
                    cell.false_accusations,
                    fmt_rate(cell.correct_culprit, cell.detected),
                    cell.completed,
                    cell.infra_errors
                );
            }
        }
        if let Some(adaptation) = &self.adaptation {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "adaptation: {} campaigns × {} journeys",
                adaptation.campaigns, adaptation.journeys_per_campaign
            );
            let _ = writeln!(
                out,
                "{:<32} {:>9} {:>8} {:>8} {:>9} {:>8} {:>5} {:>9}",
                "mechanism / policy",
                "campaigns",
                "attacked",
                "detected",
                "det.adapt",
                "latency",
                "early",
                "false-acc"
            );
            for m in &adaptation.mechanisms {
                let mut rows: Vec<(String, &AdaptationCell)> = m
                    .per_policy
                    .iter()
                    .map(|(policy, cell)| (format!("  {policy}"), cell))
                    .collect();
                rows.insert(0, (m.name.to_owned(), &m.total));
                for (label, cell) in rows {
                    let _ = writeln!(
                        out,
                        "{:<32} {:>9} {:>8} {:>8} {:>9} {:>8} {:>5} {:>9}",
                        label,
                        cell.campaigns,
                        cell.attacked,
                        cell.detected,
                        fmt_rate(cell.detected, cell.attacked),
                        fmt_rate(cell.latency_sum, cell.detected),
                        cell.early_detections,
                        cell.false_accusations,
                    );
                }
            }
        }
        out
    }

    /// Canonical JSON for the deterministic portion of the fleet result.
    /// Identical bytes for identical seeds (any worker count).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_json(&mut w);
        w.end_object();
        w.finish()
    }

    /// Writes the report's fields into `w`'s open object, so callers can
    /// nest the report inside a larger document.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field_u64("seed", self.seed);
        w.field_str("preset", self.preset);
        w.field_u64("scenarios", self.scenarios);
        w.key("mechanisms");
        w.begin_array();
        for m in &self.mechanisms {
            w.begin_object();
            w.field_str("mechanism", m.name);
            w.field_bool("ran", !m.not_run());
            w.key("total");
            w.begin_object();
            m.total.write_json(w);
            w.end_object();
            w.key("per_attack");
            w.begin_object();
            for (label, cell) in &m.per_attack {
                w.key(label);
                w.begin_object();
                cell.write_json(w);
                w.end_object();
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
        // The key exists only when the fleet ran campaigns, so
        // non-adaptive reports keep their historical bytes.
        if let Some(adaptation) = &self.adaptation {
            w.key("adaptation");
            w.begin_object();
            adaptation.write_json(w);
            w.end_object();
        }
    }
}

impl AdaptationReport {
    /// Writes the campaign grades' fields into `w`'s open object — the
    /// object the `"adaptation"` key carries inside
    /// [`FleetReport::to_json`], and the bench trajectory's adaptive block.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field_u64("journeys_per_campaign", self.journeys_per_campaign);
        w.field_u64("campaigns", self.campaigns);
        w.key("mechanisms");
        w.begin_array();
        for m in &self.mechanisms {
            w.begin_object();
            w.field_str("mechanism", m.name);
            w.key("total");
            w.begin_object();
            m.total.write_json(w);
            w.end_object();
            w.key("per_policy");
            w.begin_object();
            for (policy, cell) in &m.per_policy {
                w.key(policy);
                w.begin_object();
                cell.write_json(w);
                w.end_object();
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
    }
}

/// Latency percentiles for one mechanism (journey wall time).
#[derive(Debug, Clone, Copy)]
pub struct LatencyPercentiles {
    /// Median.
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Slowest observed journey.
    pub max: Duration,
}

impl LatencyPercentiles {
    /// Computes [`nearest_rank`] percentiles from raw per-journey
    /// latencies, so every field is an observed latency.
    pub fn from_latencies(latencies: &mut [Duration]) -> Option<LatencyPercentiles> {
        if latencies.is_empty() {
            return None;
        }
        latencies.sort_unstable();
        let pick = |q: f64| latencies[nearest_rank(latencies.len() as u64, q) as usize - 1];
        Some(LatencyPercentiles {
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            max: *latencies.last().expect("non-empty"),
        })
    }
}

/// Count/duration summary of one verification stage, distilled from a
/// telemetry duration histogram (nanosecond samples, reported in µs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageStats {
    /// Samples observed (e.g. VM replays).
    pub count: u64,
    /// Total wall time spent in this stage, microseconds.
    pub total_us: f64,
    /// Median stage duration, microseconds (log-linear bucket upper bound,
    /// worst-case 12.5% relative error).
    pub p50_us: f64,
    /// 99th-percentile stage duration, microseconds.
    pub p99_us: f64,
}

impl StageStats {
    /// Distils a duration histogram (or its absence) into stage stats.
    pub fn from_histogram(histogram: Option<&HistogramSnapshot>) -> StageStats {
        match histogram {
            Some(h) if h.count > 0 => StageStats {
                count: h.count,
                total_us: h.sum as f64 / 1e3,
                p50_us: h.quantile(0.50) as f64 / 1e3,
                p99_us: h.quantile(0.99) as f64 / 1e3,
            },
            _ => StageStats::default(),
        }
    }
}

/// Where one mechanism's verification time went: VM replays vs
/// signature verification. Built from the telemetry metric
/// delta of the run; part of [`FleetTiming`] (never [`FleetReport`] — the
/// deterministic surface carries no wall-clock facts).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    /// Compiled-VM re-executions (`verify.replay`).
    pub replay: StageStats,
    /// Single DSA signature verifications (`crypto.verify`).
    pub sig_verify: StageStats,
}

impl StageBreakdown {
    /// Pulls the stage histograms recorded under `mechanism`'s
    /// telemetry scope out of a metrics (delta) snapshot.
    pub fn from_metrics(metrics: &MetricsSnapshot, mechanism: &'static str) -> StageBreakdown {
        StageBreakdown {
            replay: StageStats::from_histogram(metrics.histogram(mechanism, "verify.replay")),
            sig_verify: StageStats::from_histogram(metrics.histogram(mechanism, "crypto.verify")),
        }
    }

    /// `true` when no stage recorded a single sample (mechanism never
    /// touched the pipeline or crypto — e.g. `unprotected`).
    pub fn is_empty(&self) -> bool {
        self.replay.count == 0 && self.sig_verify.count == 0
    }
}

/// Wall-clock facts of one fleet run. Not deterministic; kept apart from
/// [`FleetReport`] on purpose.
#[derive(Debug, Clone)]
pub struct FleetTiming {
    /// Worker threads used.
    pub workers: usize,
    /// Total wall time of the run.
    pub wall: Duration,
    /// Scenarios completed per wall-clock second.
    pub scenarios_per_sec: f64,
    /// Journeys (scenario × mechanism) per wall-clock second.
    pub journeys_per_sec: f64,
    /// Latency percentiles per mechanism name, in run order (mechanisms
    /// that ran no journeys have no entry).
    pub latencies: Vec<(&'static str, LatencyPercentiles)>,
    /// The verification pipeline's counters: VM replays, plus the
    /// `hits`/`misses` pair the benchmark's informational hit-rate row
    /// still reads (`hits` is always 0).
    pub replay: PipelineStatsSnapshot,
    /// The telemetry level the run executed under.
    pub telemetry: TelemetryLevel,
    /// Per-mechanism verification-stage breakdown, in run order. Empty
    /// when telemetry was off (mechanisms whose stages recorded nothing,
    /// e.g. `unprotected`, have no entry).
    pub stages: Vec<(&'static str, StageBreakdown)>,
}

impl FleetTiming {
    /// Renders the human-readable timing block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timing: {:.2?} wall on {} workers — {:.0} scenarios/s, {:.0} journeys/s (telemetry {})",
            self.wall,
            self.workers,
            self.scenarios_per_sec,
            self.journeys_per_sec,
            self.telemetry.name(),
        );
        let _ = writeln!(out, "replays: {}", self.replay.replays);
        if !self.stages.is_empty() {
            let _ = writeln!(
                out,
                "{:<20} {:>16} {:>16}",
                "stage (count/total)", "replay", "sig_verify"
            );
            let cell = |s: &StageStats| format!("{}/{:.0}µs", s.count, s.total_us);
            for (mechanism, b) in &self.stages {
                let _ = writeln!(
                    out,
                    "{:<20} {:>16} {:>16}",
                    mechanism,
                    cell(&b.replay),
                    cell(&b.sig_verify),
                );
            }
        }
        let _ = writeln!(
            out,
            "{:<20} {:>10} {:>10} {:>10} {:>10}",
            "latency", "p50", "p90", "p99", "max"
        );
        for (mechanism, p) in &self.latencies {
            let _ = writeln!(
                out,
                "{:<20} {:>10.1?} {:>10.1?} {:>10.1?} {:>10.1?}",
                mechanism, p.p50, p.p90, p.p99, p.max
            );
        }
        out
    }

    /// JSON for the timing block (machine-readable bench trajectory).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_json(&mut w);
        w.end_object();
        w.finish()
    }

    /// Writes the timing block's fields into `w`'s open object, so
    /// callers can nest or extend it (the bench trajectory adds the
    /// adaptive block's campaign grades beside them).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field_u64("workers", self.workers as u64);
        w.field_f64("wall_seconds", self.wall.as_secs_f64());
        w.field_f64("scenarios_per_sec", self.scenarios_per_sec);
        w.field_f64("journeys_per_sec", self.journeys_per_sec);
        w.field_str("telemetry", self.telemetry.name());
        w.key("replay");
        w.begin_object();
        w.field_u64("replays", self.replay.replays);
        w.end_object();
        w.key("stage_breakdown");
        w.begin_object();
        for (mechanism, b) in &self.stages {
            w.key(mechanism);
            w.begin_object();
            for (label, stage) in [("replay", &b.replay), ("sig_verify", &b.sig_verify)] {
                w.key(label);
                w.begin_object();
                w.field_u64("count", stage.count);
                w.field_f64("total_us", stage.total_us);
                w.field_f64("p50_us", stage.p50_us);
                w.field_f64("p99_us", stage.p99_us);
                w.end_object();
            }
            w.end_object();
        }
        w.end_object();
        w.key("latency_percentiles");
        w.begin_object();
        for (mechanism, p) in &self.latencies {
            w.key(mechanism);
            w.begin_object();
            w.field_f64("p50_us", p.p50.as_secs_f64() * 1e6);
            w.field_f64("p90_us", p.p90.as_secs_f64() * 1e6);
            w.field_f64("p99_us", p.p99.as_secs_f64() * 1e6);
            w.field_f64("max_us", p.max.as_secs_f64() * 1e6);
            w.end_object();
        }
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_distribution() {
        let mut lats: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let p = LatencyPercentiles::from_latencies(&mut lats).unwrap();
        assert_eq!(p.p50, Duration::from_millis(50));
        assert_eq!(p.p90, Duration::from_millis(90));
        assert_eq!(p.p99, Duration::from_millis(99));
        assert_eq!(p.max, Duration::from_millis(100));
    }

    #[test]
    fn percentiles_empty_is_none() {
        assert!(LatencyPercentiles::from_latencies(&mut []).is_none());
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let cell = CellStats::default();
        assert_eq!(cell.detection_rate(), 0.0);
        assert_eq!(cell.attribution_accuracy(), 0.0);
        assert_eq!(fmt_rate(0, 0), "n/a");
        assert_eq!(fmt_rate(1, 2), "0.500");
    }

    #[test]
    fn adaptation_grades_latency_and_early_detection() {
        use crate::campaign::CampaignMeta;
        let meta = |campaign: u64, step: u64, first: Option<u64>| CampaignMeta {
            campaign,
            step,
            policy: "probe-then-cheat",
            first_attack_step: first,
            real_attack: first.is_some_and(|f| step >= f),
        };
        let run = |detected: bool, false_acc: bool| MechanismRun {
            mechanism: "protocol",
            detected,
            false_accusation: false_acc,
            correct_culprit: None,
            completed: true,
            infra_error: false,
            latency: Duration::ZERO,
        };
        let scenario = |id, runs, campaign| ScenarioResult {
            id,
            kind: "adaptive",
            attack_label: "tamper-variable",
            route_len: 4,
            runs,
            campaign: Some(campaign),
        };
        let mut results = Vec::new();
        // Campaign 0: first attack at step 2, detected at step 4 →
        // latency 2 journeys.
        for step in 0..6u64 {
            results.push(scenario(
                step,
                vec![run(step == 4, false)],
                meta(0, step, Some(2)),
            ));
        }
        // Campaign 1: never attacks; its step-0 detection is an early
        // flag and a false accusation, never a latency sample.
        for step in 0..6u64 {
            results.push(scenario(
                8 + step,
                vec![run(step == 0, step == 0)],
                meta(1, step, None),
            ));
        }
        // Campaign 2: truncated before its first attack step — not an
        // attacked campaign.
        for step in 0..3u64 {
            results.push(scenario(
                16 + step,
                vec![run(false, false)],
                meta(2, step, Some(5)),
            ));
        }
        let report = FleetReport::from_results(1, "adaptive", &["protocol"], &results);
        let adaptation = report.adaptation.as_ref().expect("campaigns present");
        assert_eq!(adaptation.campaigns, 3);
        let m = &adaptation.mechanisms[0];
        assert_eq!(m.total.campaigns, 3);
        assert_eq!(m.total.attacked, 1);
        assert_eq!(m.total.detected, 1);
        assert_eq!(m.total.latency_sum, 2);
        assert_eq!(m.total.early_detections, 1);
        assert_eq!(m.total.false_accusations, 1);
        assert_eq!(m.total.detection_under_adaptation(), 1.0);
        assert_eq!(m.total.mean_detection_latency(), 2.0);
        assert_eq!(m.per_policy["probe-then-cheat"], m.total);
        let json = report.to_json();
        assert!(json.contains("\"adaptation\":{\"journeys_per_campaign\":8"));
        assert!(json.contains("\"mean_detection_latency_journeys\":2.000000"));
        let table = report.render_table();
        assert!(table.contains("adaptation: 3 campaigns"));
        assert!(table.contains("probe-then-cheat"));
    }

    #[test]
    fn non_adaptive_fleets_emit_no_adaptation_key() {
        let report = FleetReport::from_results(1, "mixed", &["protocol"], &[]);
        assert!(report.adaptation.is_none());
        assert!(!report.to_json().contains("adaptation"));
        assert!(!report.render_table().contains("adaptation"));
    }

    #[test]
    fn mechanism_with_no_journeys_renders_na_not_zero() {
        let report = FleetReport::from_results(1, "all-honest", &["replication"], &[]);
        assert!(report.mechanisms[0].not_run());
        let table = report.render_table();
        assert!(table.contains("replication"));
        assert!(table.contains("n/a"));
        assert!(!table.contains("0.000"), "no fake 0.00 rates:\n{table}");
        let json = report.to_json();
        assert!(json.contains("\"ran\":false"));
        assert!(json.contains("\"detection_rate\":null"));
        assert!(json.contains("\"attribution_accuracy\":null"));
    }
}
