//! What one run produced — metrics, correctness checks, the input
//! digest — and the three forms it is written in: one `name value unit`
//! line per metric, the closing one-line result, and the `--out`
//! document that `refbench check` and `refbench compare` read.

use refstate_fleet::json::JsonWriter;

/// The percentile tag every quantile metric carries: a sample of the
/// benchmark's own timers at rank ⌈q·n⌉, never a histogram bucket edge.
pub const NEAREST_RANK: &str = "nearest-rank";

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// A nearest-rank quantile (tagged [`NEAREST_RANK`]).
    pub quantile: bool,
}

impl Metric {
    /// A metric that is not a quantile.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            quantile: false,
        }
    }

    /// A nearest-rank quantile of the benchmark's own timers.
    pub fn quantile(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            quantile: true,
        }
    }
}

/// The result of one correctness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The check held.
    Pass,
    /// The check failed, with what was seen.
    Fail(String),
    /// The check does not apply to this run, with why.
    Skip(String),
}

impl Verdict {
    /// `Pass` when `held`, otherwise `Fail` with the detail `why` gives.
    pub fn check(held: bool, why: impl FnOnce() -> String) -> Verdict {
        if held {
            Verdict::Pass
        } else {
            Verdict::Fail(why())
        }
    }

    /// The word printed for this verdict.
    pub fn word(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail(_) => "fail",
            Verdict::Skip(_) => "skip",
        }
    }
}

/// The five correctness checks, in the order they are reported.
pub const CHECKS: [&str; 5] = [
    "drain_invariant",
    "pacing_invariance",
    "no_false_accusations",
    "fleet_parity",
    "pinned_digest",
];

/// Everything one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: &'static str,
    /// Its seed.
    pub seed: u64,
    /// Its `--seconds`.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations attempted over every measured phase.
    pub attempted: u64,
    /// Of those, refused, dropped, lost or answered with an error.
    pub failed: u64,
    /// One verdict per entry of [`CHECKS`], in that order.
    pub checks: Vec<Verdict>,
    /// Input size the digest covers (journeys or scenarios).
    pub size: u64,
    /// Digest of the run's deterministic output.
    pub digest: String,
    /// The metrics the closing result line carries: every end-to-end
    /// metric untraced, every per-layer metric traced.
    pub metrics: Vec<Metric>,
    /// Further numbers printed for information only.
    pub info: Vec<Metric>,
}

impl Outcome {
    /// All checks passed (a skipped check is not a failure).
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|v| !matches!(v, Verdict::Fail(_)))
    }

    /// The human-readable lines printed before the result line.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, verdict) in CHECKS.iter().zip(&self.checks) {
            out.push_str(&format!("check {name} {}", verdict.word()));
            if let Verdict::Fail(detail) | Verdict::Skip(detail) = verdict {
                out.push_str(&format!(" ({detail})"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "digest {} size={} {}\n",
            self.workload, self.size, self.digest
        ));
        for metric in self.metrics.iter().chain(&self.info) {
            out.push_str(&format!("{} {} {}", metric.name, metric.value, metric.unit));
            if metric.quantile {
                out.push_str(&format!(" {NEAREST_RANK}"));
            }
            out.push('\n');
        }
        out
    }

    /// The closing result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_summary(&mut w);
        w.key("metrics");
        write_metrics(&mut w, &self.metrics, false);
        w.end_object();
        w.finish()
    }

    /// The `--out` document: the result line's fields plus the run's
    /// identity, percentile tags, check verdicts and digest.
    pub fn document(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("workload", self.workload);
        w.field_u64("seed", self.seed);
        w.field_u64("seconds", self.seconds);
        w.field_bool("traced", self.traced);
        w.field_u64(
            "parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        );
        self.write_summary(&mut w);
        w.key("checks");
        w.begin_object();
        for (name, verdict) in CHECKS.iter().zip(&self.checks) {
            w.field_str(name, verdict.word());
        }
        w.end_object();
        w.field_u64("size", self.size);
        w.field_str("digest", &self.digest);
        w.key("metrics");
        write_metrics(&mut w, &self.metrics, true);
        w.key("info");
        write_metrics(&mut w, &self.info, true);
        w.end_object();
        w.finish()
    }

    fn write_summary(&self, w: &mut JsonWriter) {
        w.field_bool("correct", self.correct());
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
    }
}

fn write_metrics(w: &mut JsonWriter, metrics: &[Metric], tagged: bool) {
    w.begin_object();
    for metric in metrics {
        w.key(metric.name);
        w.begin_object();
        w.field_f64("value", metric.value);
        w.field_str("unit", metric.unit);
        if tagged && metric.quantile {
            w.field_str("quantile", NEAREST_RANK);
        }
        w.end_object();
    }
    w.end_object();
}
