//! The four workloads, how each one's size follows from `--seconds`, and
//! the seed-42 digests pinned for them.

use std::time::Duration;

use refstate_bench::benchjson;

use crate::outcome::Verdict;

/// Open-loop latency limit: a verdict later than this misses the SLO.
pub const SLO_LIMIT: Duration = Duration::from_millis(50);

/// Cycles per run. A cycle is a share of the cold set-ups, one open-loop
/// pass (serve) and a share of the closed-loop rounds, so a slow stretch
/// of a shared host that lasts part of a run slows part of every kind of
/// sample rather than all of one kind.
pub const CYCLES: usize = 8;

/// Cold set-ups per cycle; `setup_s` is the median of all of them.
pub const SETUPS_PER_CYCLE: usize = 4;

/// Warm restarts per durable run; `store.restart_s` is their median.
pub const RESTARTS: usize = 3;

/// The scenario preset every workload draws from.
pub const PRESET: &str = "mixed";

/// The seed the digests in `pins.json` were recorded at.
pub const PIN_SEED: u64 = 42;

/// One serve workload: open-loop passes at `rate` submissions per second
/// over `owners` tenants, and closed-loop rounds on their leading
/// journeys.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Registered tenants; submission `k` goes to owner `k mod owners`.
    pub owners: usize,
    /// The mechanism every tenant registers.
    pub mechanism: &'static str,
    /// Mean open-loop arrival rate, submissions per second.
    pub rate: f64,
    /// Run every pass and round on a fresh state dir, and warm-restart
    /// from the first pass's afterwards.
    pub durable: bool,
}

/// What a workload drives.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// `refstate-serve` through `Service::handle`.
    Serve(ServeShape),
    /// `refstate-fleet` through `run_fleet`, every built-in mechanism.
    Fleet,
}

/// A named workload.
#[derive(Debug)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// What it runs.
    pub shape: Shape,
}

/// Every workload. The rates keep each serve pass far below the service's
/// capacity, and an open-loop pass queues deep enough that a stall of the
/// host delays verdicts rather than refusing submissions, so no operation
/// fails.
pub const WORKLOADS: [Workload; 4] = [
    // Crypto-heavy: DSA signing per hop and owner-side batch verify; the
    // only mechanism whose split run defers to `settle_owner_batch`.
    Workload {
        name: "serve-protocol",
        shape: Shape::Serve(ServeShape {
            owners: 4,
            mechanism: "protocol",
            rate: 1000.0,
            durable: false,
        }),
    },
    // Many small tenants: batches of about one per owner, so per-owner
    // amortization collapses and per-owner scans grow with owner count.
    Workload {
        name: "serve-protocol-wide",
        shape: Shape::Serve(ServeShape {
            owners: 64,
            mechanism: "protocol",
            rate: 1000.0,
            durable: false,
        }),
    },
    // No crypto: VM re-execution, replay and store writes per journey,
    // then warm restarts that read the whole state dir back.
    Workload {
        name: "serve-framework-durable",
        shape: Shape::Serve(ServeShape {
            owners: 4,
            mechanism: "framework",
            rate: 1000.0,
            durable: true,
        }),
    },
    // The batch user: every built-in mechanism per scenario, a replay
    // cache whose working set exceeds its capacity.
    Workload {
        name: "fleet-mixed",
        shape: Shape::Fleet,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long a serve cycle's open-loop pass lasts: 5% of `--seconds`.
pub fn open_loop_seconds(seconds: u64) -> f64 {
    seconds as f64 * 0.05
}

/// How long a cycle repeats its rounds: 6% of `--seconds` for serve
/// (after its open-loop pass; set-ups, restarts and checks take the
/// rest), 12% for the fleet.
pub fn round_budget(seconds: u64, shape: &Shape) -> Duration {
    let share = match shape {
        Shape::Serve(_) => 0.06,
        Shape::Fleet => 0.12,
    };
    Duration::from_secs_f64(seconds as f64 * share)
}

/// Repeats `round` while one more is expected to end within `budget`
/// (as long as the last one took), and at least once. Rounds are
/// identical work, so the fastest time of each piece of it across rounds
/// is robust to a slow second on a shared machine.
pub fn rounds(budget: Duration, mut round: impl FnMut()) {
    let started = std::time::Instant::now();
    loop {
        let before = started.elapsed();
        round();
        let after = started.elapsed();
        if after + (after - before) > budget {
            return;
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement budget, which sizes the work.
    pub seconds: u64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics from an untraced one.
    pub traced: bool,
}

/// The digest pinned for `workload` at [`PIN_SEED`] and input size
/// `size` (journeys for serve, scenarios for fleet), if one was recorded.
pub fn pinned_digest(workload: &str, size: u64) -> Option<String> {
    let pins = benchjson::parse(include_str!("../pins.json")).expect("pins.json parses");
    pins.get(workload)?
        .get(&size.to_string())?
        .as_str()
        .map(str::to_owned)
}

/// The pinned-digest check for a serve or fleet run.
pub fn pinned(run: &Run, size: u64, digest: &str) -> Verdict {
    if run.seed != PIN_SEED {
        return Verdict::Skip(format!("digests are pinned at seed {PIN_SEED}"));
    }
    match pinned_digest(run.workload.name, size) {
        Some(pin) => Verdict::check(pin == digest, || format!("pinned {pin}, got {digest}")),
        None => Verdict::Skip(format!("no digest pinned for size {size}")),
    }
}

/// FNV-1a over `bytes`, as 16 hex digits — the fold the service's stream
/// checkpoints and the soak's `stream_digest` use.
pub fn fnv_hex(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
