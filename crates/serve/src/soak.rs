//! The soak driver: sustained multi-owner load with client-observed SLO
//! percentiles, over one lockstep connection or N pipelined connections.
//!
//! A soak run registers `owners` tenants, streams `journeys` submissions
//! round-robin across them, paces the service with ticks (client ticks
//! in [`run_soak`]; per-partition [`Request::TickOwners`] hints — or the
//! server-side driver alone — in [`run_soak_concurrent`]), and drains
//! verdicts as they settle. Latency is measured *client-side* — submit
//! instant to drain instant — so the percentiles are end-to-end service
//! numbers.
//!
//! The verdict stream is reported **grouped by owner** (each owner's
//! verdicts in admission order, owners concatenated in registration
//! order), not in drain order: per-owner admission order is the
//! service's determinism contract, while drain interleaving depends on
//! tick pacing and connection count. Grouping makes the stream — and its
//! digest — byte-identical for a fixed seed across runs, worker counts,
//! connection counts, tick pacing, and telemetry levels.
//!
//! The concurrent driver partitions owners across connections (owner
//! `i` belongs to connection `i % connections`) so each owner's journeys
//! are submitted from exactly one connection, in order — the one
//! client-side obligation the determinism contract places on a
//! pipelining deployment. Each connection keeps a bounded burst of
//! submissions in flight and syncs (tick + drain) before any owner's
//! queue can reach the service's admission bound, so nothing is ever
//! refused and nothing is ever dropped.
//!
//! The outcome serializes as schema-checked JSON
//! (`refstate-soak-slo-v1`, validated by the bench crate's
//! `check_bench_json --slo`) carrying aggregate journeys/s and
//! per-connection breakdowns alongside the counts, percentiles, and the
//! stream digest.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use refstate_fleet::scenario::scenario_seed;

use crate::net::PipelinedClient;
use crate::proto::{
    OwnerStats, RegisterOwner, RejectReason, Request, Response, StreamCheckpoint, VerdictReply,
};
use crate::service::Service;

/// Anything that can answer protocol requests in lockstep: the
/// in-process service or a TCP [`crate::net::Client`].
pub trait Endpoint {
    /// Sends one request, returns its response.
    fn call(&mut self, request: Request) -> Response;
}

impl Endpoint for Service {
    fn call(&mut self, request: Request) -> Response {
        self.handle(request)
    }
}

impl Endpoint for Arc<Service> {
    fn call(&mut self, request: Request) -> Response {
        self.handle(request)
    }
}

impl Endpoint for crate::net::Client {
    fn call(&mut self, request: Request) -> Response {
        match crate::net::Client::call(self, &request) {
            Ok(response) => response,
            Err(error) => Response::Error {
                message: format!("transport failure: {error}"),
            },
        }
    }
}

/// A transport that can keep many requests in flight: buffered sends, an
/// explicit flush, and strictly request-ordered receives. The concurrent
/// soak driver windows over this; errors are reported as strings because
/// a soak treats any transport failure as fatal.
pub trait PipelinedEndpoint: Send {
    /// Queues one request (may buffer without transmitting).
    fn send(&mut self, request: Request) -> Result<(), String>;
    /// Transmits everything queued.
    fn flush(&mut self) -> Result<(), String>;
    /// Receives the response to the oldest unanswered request.
    fn recv(&mut self) -> Result<Response, String>;
}

impl PipelinedEndpoint for PipelinedClient {
    fn send(&mut self, request: Request) -> Result<(), String> {
        PipelinedClient::send(self, &request).map_err(|error| format!("send failed: {error}"))
    }

    fn flush(&mut self) -> Result<(), String> {
        PipelinedClient::flush(self).map_err(|error| format!("flush failed: {error}"))
    }

    fn recv(&mut self) -> Result<Response, String> {
        PipelinedClient::recv(self).map_err(|error| format!("recv failed: {error}"))
    }
}

/// An in-process pipelined endpoint: requests are handled synchronously
/// against a shared [`Service`], responses queue until received. Several
/// of these across threads model several TCP connections into one
/// server, without the sockets.
pub struct LocalPipelined {
    service: Arc<Service>,
    replies: VecDeque<Response>,
}

impl LocalPipelined {
    /// Wraps a shared service as one pipelined "connection".
    pub fn new(service: Arc<Service>) -> LocalPipelined {
        LocalPipelined {
            service,
            replies: VecDeque::new(),
        }
    }
}

impl PipelinedEndpoint for LocalPipelined {
    fn send(&mut self, request: Request) -> Result<(), String> {
        let response = self.service.handle(request);
        self.replies.push_back(response);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, String> {
        self.replies
            .pop_front()
            .ok_or_else(|| "recv with no request in flight".into())
    }
}

/// Soak-load shape (the service's own knobs live in
/// [`crate::service::ServeConfig`]).
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Number of tenants to register.
    pub owners: usize,
    /// Total journey submissions across all tenants.
    pub journeys: u64,
    /// The soak seed; owner seeds derive from it.
    pub seed: u64,
    /// Scenario preset name, passed through to each registration.
    pub preset: String,
    /// Mechanism name, passed through to each registration.
    pub mechanism: String,
    /// Tick (and drain) after this many accepted submissions.
    pub tick_every: usize,
    /// First global submission index. Submission `k` targets owner
    /// `k % owners` with journey id `k / owners`, so a resumed soak sets
    /// `start` to the previous legs' total and journey ids continue
    /// exactly where the interrupted run stopped.
    pub start: u64,
    /// Resume against a warm-restarted server: registrations restored
    /// from its state dir (reported as [`RejectReason::DuplicateOwner`])
    /// are accepted, and the server's durable stream checkpoints are
    /// verified to sit exactly at `start`'s per-owner offsets before any
    /// journey is submitted.
    pub resume: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            owners: 4,
            journeys: 200,
            seed: 42,
            preset: "mixed".into(),
            mechanism: "protocol".into(),
            tick_every: 32,
            start: 0,
            resume: false,
        }
    }
}

impl SoakConfig {
    /// The deterministic name of tenant `index`.
    pub fn owner_name(index: usize) -> String {
        format!("owner-{index}")
    }

    /// The deterministic scenario seed of tenant `index`.
    pub fn owner_seed(&self, index: usize) -> u64 {
        scenario_seed(self.seed, 0x0a11_ce00 + index as u64)
    }

    /// How many of the first `n` global submissions the round-robin
    /// assigns to tenant `index` (submission `k` targets owner
    /// `k % owners`).
    fn share(&self, n: u64, index: usize) -> u64 {
        let owners = self.owners as u64;
        n / owners + u64::from((index as u64) < n % owners)
    }

    /// How many journeys this leg (`start..start + journeys`) assigns to
    /// tenant `index`.
    fn journeys_for(&self, index: usize) -> u64 {
        self.share(self.start + self.journeys, index) - self.share(self.start, index)
    }

    /// The first journey id tenant `index` receives in this leg — also
    /// the durable stream offset a resumed server must report for it.
    fn first_journey_for(&self, index: usize) -> u64 {
        self.share(self.start, index)
    }
}

/// Client-observed latency percentiles, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SloPercentiles {
    /// Median verdict latency.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst observed.
    pub max_us: u64,
}

impl SloPercentiles {
    fn from_latencies(latencies: &mut [Duration]) -> SloPercentiles {
        if latencies.is_empty() {
            return SloPercentiles::default();
        }
        latencies.sort_unstable();
        // Nearest-rank percentiles: the q-th percentile is the value at
        // 1-based rank ⌈q·n⌉ — the smallest observation with at least a
        // q fraction of the sample at or below it. (The previous
        // `round((n-1)·q)` interpolation over-reported small samples:
        // with two observations it called the *larger* one the median,
        // and with 100 it returned the 51st value as p50.)
        let at = |q: f64| -> u64 {
            let rank = (latencies.len() as f64 * q).ceil() as usize;
            latencies[rank.clamp(1, latencies.len()) - 1].as_micros() as u64
        };
        SloPercentiles {
            p50_us: at(0.50),
            p95_us: at(0.95),
            p99_us: at(0.99),
            max_us: latencies[latencies.len() - 1].as_micros() as u64,
        }
    }
}

/// What one connection contributed to a soak run.
#[derive(Debug, Clone)]
pub struct ConnectionOutcome {
    /// The connection index (also its partition of the owner space).
    pub connection: usize,
    /// How many owners this connection drove.
    pub owners: usize,
    /// Submissions attempted on this connection.
    pub submitted: u64,
    /// Submissions admitted.
    pub accepted: u64,
    /// Submissions refused (always zero on the concurrent path, whose
    /// capacity accounting makes refusal impossible).
    pub rejected: u64,
    /// Verdicts this connection drained.
    pub verified: u64,
    /// This connection's client-observed verdict latency.
    pub latency: SloPercentiles,
}

/// The server-side tick-driver pacing a soak ran under, echoed into the
/// SLO JSON so the artifact records how the run was driven.
#[derive(Debug, Clone)]
pub struct TickDriverMeta {
    /// Scan interval.
    pub interval: Duration,
    /// Batch-amortization threshold.
    pub batch_min: usize,
    /// Latency deadline.
    pub max_age: Duration,
}

/// What a resumed soak observed about the server's warm start, echoed
/// into the SLO JSON (`warm_start` block) so the artifact records that
/// the run continued a durable history rather than starting cold.
#[derive(Debug, Clone)]
pub struct WarmStartMeta {
    /// The state store's open-generation stamp (≥ 2 on a real restart;
    /// 0 means the server had no state dir).
    pub generation: u64,
    /// The global submission index this leg resumed from.
    pub resume_offset: u64,
    /// The per-owner stream checkpoints the server reported at resume,
    /// each verified against the offset the resume expected.
    pub checkpoints: Vec<StreamCheckpoint>,
}

/// Everything one soak run produced.
#[derive(Debug)]
pub struct SoakOutcome {
    /// The load shape that ran.
    pub config: SoakConfig,
    /// Submissions attempted (accepted + rejected attempts).
    pub submitted: u64,
    /// Submissions admitted.
    pub accepted: u64,
    /// Submissions refused (each refused attempt counts once; a refused
    /// journey is retried after a tick and may be admitted then).
    pub rejected: u64,
    /// Verdicts drained.
    pub verified: u64,
    /// Verdicts that flagged their journey.
    pub detected: u64,
    /// Accepted journeys that never produced a verdict — the drain
    /// invariant; must be zero after shutdown.
    pub dropped: u64,
    /// Client-observed verdict latency over every connection.
    pub latency: SloPercentiles,
    /// Per-owner closing stats, in registration order.
    pub owners: Vec<OwnerStats>,
    /// The verdict stream, grouped by owner (each owner's verdicts in
    /// admission order, owners in registration order; one
    /// [`VerdictReply::stream_line`] per verdict) — the golden-fixture
    /// payload, invariant across connection counts and tick pacing.
    pub stream: String,
    /// How many client connections drove the load.
    pub connections: usize,
    /// Wall time from first submission to last drain.
    pub elapsed: Duration,
    /// Per-connection breakdown, in connection order.
    pub per_connection: Vec<ConnectionOutcome>,
    /// The server-side tick-driver pacing, when one ran (set by the
    /// caller that started the driver).
    pub tick_driver: Option<TickDriverMeta>,
    /// The warm-start handshake, when this was a resumed run.
    pub warm_start: Option<WarmStartMeta>,
    /// Aggregate journeys/s of a single-connection lockstep baseline run,
    /// when the caller measured one for comparison.
    pub baseline_journeys_per_sec: Option<f64>,
    /// Hardware parallelism of the host the soak ran on
    /// (`std::thread::available_parallelism`). Recorded so throughput
    /// ratios can be interpreted: on a single-core host a CPU-bound
    /// soak cannot beat its own serial baseline no matter how many
    /// connections drive it.
    pub parallelism: usize,
}

impl SoakOutcome {
    /// Replay-cache hits summed over owners.
    pub fn cache_hits(&self) -> u64 {
        self.owners.iter().map(|o| o.cache_hits).sum()
    }

    /// Replay-cache misses summed over owners.
    pub fn cache_misses(&self) -> u64 {
        self.owners.iter().map(|o| o.cache_misses).sum()
    }

    /// Replay-cache hit rate over all owners (0 when no cache traffic).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits() + self.cache_misses();
        if total == 0 {
            0.0
        } else {
            self.cache_hits() as f64 / total as f64
        }
    }

    /// Aggregate throughput: verdicts drained per wall-clock second.
    pub fn journeys_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.verified as f64 / secs
        }
    }

    /// Aggregate journeys/s over the single-connection baseline's, when a
    /// baseline was measured.
    pub fn throughput_ratio_vs_single(&self) -> Option<f64> {
        let baseline = self.baseline_journeys_per_sec?;
        if baseline <= 0.0 {
            return None;
        }
        Some(self.journeys_per_sec() / baseline)
    }

    /// FNV-1a digest of the verdict stream, as printed in the SLO JSON.
    pub fn stream_digest(&self) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.stream.as_bytes() {
            hash ^= *byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:016x}")
    }

    /// The schema-checked SLO JSON artifact (`refstate-soak-slo-v1`).
    pub fn to_json(&self, check_workers: usize, queue_capacity: usize) -> String {
        let quoted = |s: &str| {
            let mut literal = String::from('"');
            refstate_telemetry::export::escape_into(&mut literal, s);
            literal.push('"');
            literal
        };
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"refstate-soak-slo-v1\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.config.seed));
        out.push_str(&format!("  \"owners\": {},\n", self.config.owners));
        out.push_str(&format!("  \"journeys\": {},\n", self.config.journeys));
        out.push_str(&format!("  \"preset\": {},\n", quoted(&self.config.preset)));
        out.push_str(&format!(
            "  \"mechanism\": {},\n",
            quoted(&self.config.mechanism)
        ));
        out.push_str(&format!("  \"tick_every\": {},\n", self.config.tick_every));
        out.push_str(&format!("  \"start\": {},\n", self.config.start));
        out.push_str(&format!("  \"check_workers\": {check_workers},\n"));
        out.push_str(&format!("  \"queue_capacity\": {queue_capacity},\n"));
        out.push_str(&format!("  \"connections\": {},\n", self.connections));
        out.push_str("  \"aggregate\": {\n");
        out.push_str(&format!(
            "    \"elapsed_us\": {},\n",
            self.elapsed.as_micros().max(1)
        ));
        out.push_str(&format!(
            "    \"journeys_per_sec\": {:.3},\n",
            self.journeys_per_sec()
        ));
        out.push_str(&format!("    \"parallelism\": {}\n", self.parallelism));
        out.push_str("  },\n");
        if let Some(driver) = &self.tick_driver {
            out.push_str("  \"tick_driver\": {\n");
            out.push_str(&format!(
                "    \"interval_us\": {},\n",
                driver.interval.as_micros()
            ));
            out.push_str(&format!("    \"batch_min\": {},\n", driver.batch_min));
            out.push_str(&format!(
                "    \"max_age_us\": {}\n",
                driver.max_age.as_micros()
            ));
            out.push_str("  },\n");
        }
        out.push_str("  \"counts\": {\n");
        out.push_str(&format!("    \"submitted\": {},\n", self.submitted));
        out.push_str(&format!("    \"accepted\": {},\n", self.accepted));
        out.push_str(&format!("    \"rejected\": {},\n", self.rejected));
        out.push_str(&format!("    \"verified\": {},\n", self.verified));
        out.push_str(&format!("    \"detected\": {},\n", self.detected));
        out.push_str(&format!("    \"dropped\": {}\n", self.dropped));
        out.push_str("  },\n");
        out.push_str("  \"latency_us\": {\n");
        out.push_str(&format!("    \"p50\": {},\n", self.latency.p50_us));
        out.push_str(&format!("    \"p95\": {},\n", self.latency.p95_us));
        out.push_str(&format!("    \"p99\": {},\n", self.latency.p99_us));
        out.push_str(&format!("    \"max\": {}\n", self.latency.max_us));
        out.push_str("  },\n");
        out.push_str("  \"per_connection\": [\n");
        for (i, conn) in self.per_connection.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"connection\": {}, ", conn.connection));
            out.push_str(&format!("\"owners\": {}, ", conn.owners));
            out.push_str(&format!("\"submitted\": {}, ", conn.submitted));
            out.push_str(&format!("\"accepted\": {}, ", conn.accepted));
            out.push_str(&format!("\"rejected\": {}, ", conn.rejected));
            out.push_str(&format!("\"verified\": {}, ", conn.verified));
            out.push_str(&format!(
                "\"latency_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
                conn.latency.p50_us, conn.latency.p95_us, conn.latency.p99_us, conn.latency.max_us
            ));
            out.push('}');
            if i + 1 < self.per_connection.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        out.push_str("  \"cache\": {\n");
        out.push_str(&format!("    \"hits\": {},\n", self.cache_hits()));
        out.push_str(&format!("    \"misses\": {},\n", self.cache_misses()));
        out.push_str(&format!("    \"hit_rate\": {:.6}\n", self.cache_hit_rate()));
        out.push_str("  },\n");
        out.push_str("  \"owners_detail\": [\n");
        for (i, owner) in self.owners.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"owner\": {}, ", quoted(&owner.owner)));
            out.push_str(&format!("\"accepted\": {}, ", owner.accepted));
            out.push_str(&format!("\"rejected\": {}, ", owner.rejected));
            out.push_str(&format!("\"verified\": {}, ", owner.verified));
            out.push_str(&format!("\"detected\": {}, ", owner.detected));
            out.push_str(&format!("\"final_checks\": {}, ", owner.final_checks));
            out.push_str(&format!(
                "\"flush_verifications\": {}, ",
                owner.flush_verifications
            ));
            out.push_str(&format!("\"flush_failures\": {}", owner.flush_failures));
            out.push('}');
            if i + 1 < self.owners.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        if let Some(warm) = &self.warm_start {
            out.push_str("  \"warm_start\": {\n");
            out.push_str(&format!("    \"generation\": {},\n", warm.generation));
            out.push_str(&format!("    \"resume_offset\": {},\n", warm.resume_offset));
            out.push_str("    \"checkpoints\": [\n");
            for (i, checkpoint) in warm.checkpoints.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"owner\": {}, \"offset\": {}, \"digest\": {}}}",
                    quoted(&checkpoint.owner),
                    checkpoint.offset,
                    quoted(&checkpoint.digest)
                ));
                if i + 1 < warm.checkpoints.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str("    ]\n");
            out.push_str("  },\n");
        }
        if let (Some(baseline), Some(ratio)) = (
            self.baseline_journeys_per_sec,
            self.throughput_ratio_vs_single(),
        ) {
            out.push_str("  \"single_connection_baseline\": {\n");
            out.push_str(&format!("    \"journeys_per_sec\": {baseline:.3}\n"));
            out.push_str("  },\n");
            out.push_str(&format!("  \"throughput_ratio_vs_single\": {ratio:.3},\n"));
        }
        out.push_str(&format!(
            "  \"stream_digest\": {}\n",
            quoted(&self.stream_digest())
        ));
        out.push_str("}\n");
        out
    }
}

/// Drives one lockstep soak run against `endpoint` (one request in
/// flight at a time — the single-connection baseline the concurrent
/// driver is measured against).
///
/// Submissions go round-robin across owners (submission `k` targets
/// owner `k % owners` with journey id `k / owners`); a
/// [`RejectReason::QueueFull`] refusal triggers one tick-and-retry, so
/// sustained overload degrades to tick-paced admission instead of loss.
/// After the last submission the driver sends [`Request::Shutdown`]
/// (settling everything admitted) and drains every owner a final time.
///
/// # Panics
///
/// Panics if the endpoint rejects a registration or replies out of
/// protocol — a soak against a misconfigured service is a setup error,
/// not a measurement.
pub fn run_soak(endpoint: &mut dyn Endpoint, config: &SoakConfig) -> SoakOutcome {
    assert!(config.owners > 0, "soak needs at least one owner");
    assert!(config.tick_every > 0, "tick_every must be positive");
    let owner_names: Vec<String> = (0..config.owners).map(SoakConfig::owner_name).collect();
    let name_to_index: HashMap<String, usize> = owner_names
        .iter()
        .enumerate()
        .map(|(i, name)| (name.clone(), i))
        .collect();
    for (index, name) in owner_names.iter().enumerate() {
        let reply = endpoint.call(Request::Register(RegisterOwner {
            owner: name.clone(),
            seed: config.owner_seed(index),
            preset: config.preset.clone(),
            mechanism: config.mechanism.clone(),
        }));
        // A resumed leg finds its owners restored from the server's
        // state dir; the duplicate rejection is the expected handshake.
        let restored = config.resume
            && matches!(
                reply,
                Response::Rejected {
                    reason: RejectReason::DuplicateOwner,
                    ..
                }
            );
        assert!(
            matches!(reply, Response::Registered { .. }) || restored,
            "registration of {name} failed: {reply:?}"
        );
    }

    // Before a resumed leg submits anything, verify the server's durable
    // streams stand exactly where the interrupted run left them: owner
    // `i`'s stream offset must equal the number of journeys the first
    // `start` submissions assigned it. A mismatch means the state dir
    // lost (or duplicated) verdicts — the drain invariant across the
    // restart — so the soak refuses to continue.
    let warm_start = config.resume.then(|| {
        let reply = endpoint.call(Request::StreamState);
        let Response::StreamState { generation, owners } = reply else {
            panic!("stream-state query failed: {reply:?}");
        };
        for (index, name) in owner_names.iter().enumerate() {
            let expected = config.first_journey_for(index);
            let checkpoint = owners
                .iter()
                .find(|c| &c.owner == name)
                .unwrap_or_else(|| panic!("server reports no stream checkpoint for {name}"));
            assert_eq!(
                checkpoint.offset, expected,
                "resume mismatch: {name}'s durable stream is at offset {}, expected {expected}",
                checkpoint.offset
            );
        }
        WarmStartMeta {
            generation,
            resume_offset: config.start,
            checkpoints: owners,
        }
    });

    let started = Instant::now();
    let mut submitted = 0u64;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut detected = 0u64;
    let mut in_flight: HashMap<(String, u64), Instant> = HashMap::new();
    let mut latencies: Vec<Duration> = Vec::with_capacity(config.journeys as usize);
    let mut streams: Vec<String> = vec![String::new(); config.owners];
    let mut verified = 0u64;
    let mut since_tick = 0usize;

    let drain_all = |endpoint: &mut dyn Endpoint,
                     in_flight: &mut HashMap<(String, u64), Instant>,
                     latencies: &mut Vec<Duration>,
                     streams: &mut [String],
                     verified: &mut u64,
                     detected: &mut u64| {
        for name in &owner_names {
            let reply = endpoint.call(Request::Drain {
                owner: name.clone(),
            });
            let Response::Verdicts(verdicts) = reply else {
                panic!("drain of {name} failed: {reply:?}");
            };
            for verdict in verdicts {
                record_verdict(
                    verdict,
                    in_flight,
                    latencies,
                    streams,
                    &name_to_index,
                    verified,
                    detected,
                );
            }
        }
    };

    for k in config.start..config.start + config.journeys {
        let index = (k % config.owners as u64) as usize;
        let owner = &owner_names[index];
        let journey = k / config.owners as u64;
        let mut attempts = 0;
        loop {
            attempts += 1;
            submitted += 1;
            let queued = Instant::now();
            let reply = endpoint.call(Request::Submit {
                owner: owner.clone(),
                journey,
            });
            match reply {
                Response::Accepted { .. } => {
                    in_flight.insert((owner.clone(), journey), queued);
                    accepted += 1;
                    since_tick += 1;
                    break;
                }
                Response::Rejected {
                    reason: RejectReason::QueueFull,
                    ..
                } => {
                    rejected += 1;
                    // Relieve pressure, then retry; two refusals in a row
                    // would mean the tick itself cannot drain the queue,
                    // which the bounded-queue design makes impossible.
                    assert!(attempts < 3, "submission refused after a tick drained");
                    endpoint.call(Request::Tick);
                    since_tick = 0;
                    drain_all(
                        endpoint,
                        &mut in_flight,
                        &mut latencies,
                        &mut streams,
                        &mut verified,
                        &mut detected,
                    );
                }
                other => panic!("submission of {owner}/{journey} failed: {other:?}"),
            }
        }
        if since_tick >= config.tick_every {
            endpoint.call(Request::Tick);
            since_tick = 0;
            drain_all(
                endpoint,
                &mut in_flight,
                &mut latencies,
                &mut streams,
                &mut verified,
                &mut detected,
            );
        }
    }

    // Shutdown settles every admitted journey; the final drain empties
    // the outboxes. Anything left in `in_flight` afterwards was dropped.
    let reply = endpoint.call(Request::Shutdown);
    assert!(
        matches!(reply, Response::ShuttingDown { .. }),
        "shutdown failed: {reply:?}"
    );
    drain_all(
        endpoint,
        &mut in_flight,
        &mut latencies,
        &mut streams,
        &mut verified,
        &mut detected,
    );
    let elapsed = started.elapsed();

    let owners = owner_names
        .iter()
        .map(|name| {
            let reply = endpoint.call(Request::Stats {
                owner: name.clone(),
            });
            let Response::Stats(stats) = reply else {
                panic!("stats of {name} failed: {reply:?}");
            };
            stats
        })
        .collect();

    let latency = SloPercentiles::from_latencies(&mut latencies);
    SoakOutcome {
        config: config.clone(),
        submitted,
        accepted,
        rejected,
        verified,
        detected,
        dropped: in_flight.len() as u64,
        latency,
        owners,
        stream: streams.concat(),
        connections: 1,
        elapsed,
        per_connection: vec![ConnectionOutcome {
            connection: 0,
            owners: config.owners,
            submitted,
            accepted,
            rejected,
            verified,
            latency,
        }],
        tick_driver: None,
        warm_start,
        baseline_journeys_per_sec: None,
        parallelism: host_parallelism(),
    }
}

/// `std::thread::available_parallelism`, degraded to 1 when the host
/// refuses to answer.
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn record_verdict(
    verdict: VerdictReply,
    in_flight: &mut HashMap<(String, u64), Instant>,
    latencies: &mut Vec<Duration>,
    streams: &mut [String],
    name_to_index: &HashMap<String, usize>,
    verified: &mut u64,
    detected: &mut u64,
) {
    if let Some(queued) = in_flight.remove(&(verdict.owner.clone(), verdict.journey)) {
        latencies.push(queued.elapsed());
    }
    *verified += 1;
    if verdict.detected {
        *detected += 1;
    }
    if let Some(&index) = name_to_index.get(&verdict.owner) {
        streams[index].push_str(&verdict.stream_line());
        streams[index].push('\n');
    }
}

/// What the soak worker expects the next in-order response to answer.
enum Pending {
    Submit { owner: usize, journey: u64 },
    Ticked,
    Drained { owner: usize },
}

/// One connection's slice of a concurrent soak.
struct WorkerResult {
    submitted: u64,
    accepted: u64,
    verified: u64,
    detected: u64,
    dropped: u64,
    latencies: Vec<Duration>,
    /// `(global owner index, that owner's verdict stream)`.
    streams: Vec<(usize, String)>,
    /// `(global owner index, closing stats)`.
    stats: Vec<(usize, OwnerStats)>,
}

/// Shared coordination for the concurrent soak workers.
struct WorkerContext<'a> {
    config: &'a SoakConfig,
    owner_names: &'a [String],
    name_to_index: &'a HashMap<String, usize>,
    connections: usize,
    queue_capacity: usize,
    /// Every worker has received every submission response.
    submit_done: &'a Barrier,
    /// Connection 0 has completed the shutdown round trip.
    shutdown_done: &'a Barrier,
}

/// Per-connection soak state: the pipeline window bookkeeping and the
/// per-owner verdict accounting.
struct ConnState<'a> {
    my_owners: &'a [usize],
    my_names: &'a [String],
    name_to_index: &'a HashMap<String, usize>,
    pending: VecDeque<Pending>,
    in_flight: HashMap<(usize, u64), Instant>,
    latencies: Vec<Duration>,
    streams: HashMap<usize, String>,
    submitted: u64,
    accepted: u64,
    verified: u64,
    detected: u64,
}

impl ConnState<'_> {
    fn submit(
        &mut self,
        endpoint: &mut dyn PipelinedEndpoint,
        owner: usize,
        name: &str,
        journey: u64,
    ) -> Result<(), String> {
        endpoint.send(Request::Submit {
            owner: name.into(),
            journey,
        })?;
        self.pending.push_back(Pending::Submit { owner, journey });
        self.in_flight.insert((owner, journey), Instant::now());
        self.submitted += 1;
        Ok(())
    }

    /// Queues a tick over this connection's owners plus one drain per
    /// owner, then receives every outstanding response.
    fn sync(&mut self, endpoint: &mut dyn PipelinedEndpoint) -> Result<(), String> {
        if !self.my_owners.is_empty() {
            endpoint.send(Request::TickOwners(self.my_names.to_vec()))?;
            self.pending.push_back(Pending::Ticked);
            self.queue_drains(endpoint)?;
        }
        self.settle(endpoint)
    }

    fn queue_drains(&mut self, endpoint: &mut dyn PipelinedEndpoint) -> Result<(), String> {
        for (&owner, name) in self.my_owners.iter().zip(self.my_names) {
            endpoint.send(Request::Drain {
                owner: name.clone(),
            })?;
            self.pending.push_back(Pending::Drained { owner });
        }
        Ok(())
    }

    /// Flushes and receives responses until nothing is outstanding.
    fn settle(&mut self, endpoint: &mut dyn PipelinedEndpoint) -> Result<(), String> {
        endpoint.flush()?;
        while let Some(expected) = self.pending.pop_front() {
            let response = endpoint.recv()?;
            match (expected, response) {
                (Pending::Submit { .. }, Response::Accepted { .. }) => self.accepted += 1,
                (Pending::Submit { owner, journey }, other) => {
                    return Err(format!(
                        "submission of {}/{journey} failed: {other:?}",
                        self.my_names[self.slot_of(owner)]
                    ));
                }
                (Pending::Ticked, Response::Ticked { .. }) => {}
                (Pending::Ticked, other) => return Err(format!("tick failed: {other:?}")),
                (Pending::Drained { .. }, Response::Verdicts(verdicts)) => {
                    for verdict in verdicts {
                        self.record(verdict);
                    }
                }
                (Pending::Drained { owner }, other) => {
                    return Err(format!(
                        "drain of {} failed: {other:?}",
                        self.my_names[self.slot_of(owner)]
                    ));
                }
            }
        }
        Ok(())
    }

    fn slot_of(&self, owner: usize) -> usize {
        self.my_owners
            .iter()
            .position(|&o| o == owner)
            .expect("owner belongs to this connection")
    }

    fn record(&mut self, verdict: VerdictReply) {
        let Some(&owner) = self.name_to_index.get(&verdict.owner) else {
            return;
        };
        if let Some(queued) = self.in_flight.remove(&(owner, verdict.journey)) {
            self.latencies.push(queued.elapsed());
        }
        self.verified += 1;
        if verdict.detected {
            self.detected += 1;
        }
        if let Some(stream) = self.streams.get_mut(&owner) {
            stream.push_str(&verdict.stream_line());
            stream.push('\n');
        }
    }
}

/// One connection's worth of concurrent soak: submit this partition's
/// journeys in order with a bounded burst in flight, sync before any
/// owner's queue can reach the admission bound, and collect verdicts.
fn soak_worker(
    endpoint: &mut dyn PipelinedEndpoint,
    connection: usize,
    ctx: &WorkerContext<'_>,
) -> Result<WorkerResult, String> {
    let my_owners: Vec<usize> = (0..ctx.config.owners)
        .filter(|i| i % ctx.connections == connection)
        .collect();
    let my_names: Vec<String> = my_owners
        .iter()
        .map(|&i| ctx.owner_names[i].clone())
        .collect();
    let rounds = my_owners
        .iter()
        .map(|&i| ctx.config.journeys_for(i))
        .max()
        .unwrap_or(0);
    // Each owner gains at most one queued journey per round, so syncing
    // every `burst` rounds keeps every owner's queue within the service's
    // admission bound — no submission is ever refused.
    let burst = ctx.config.tick_every.min(ctx.queue_capacity).max(1) as u64;

    let mut state = ConnState {
        my_owners: &my_owners,
        my_names: &my_names,
        name_to_index: ctx.name_to_index,
        pending: VecDeque::new(),
        in_flight: HashMap::new(),
        latencies: Vec::new(),
        streams: my_owners.iter().map(|&i| (i, String::new())).collect(),
        submitted: 0,
        accepted: 0,
        verified: 0,
        detected: 0,
    };

    for round in 0..rounds {
        for (slot, &owner) in my_owners.iter().enumerate() {
            if round < ctx.config.journeys_for(owner) {
                state.submit(endpoint, owner, &my_names[slot], round)?;
            }
        }
        if (round + 1) % burst == 0 {
            state.sync(endpoint)?;
        }
    }
    state.sync(endpoint)?;

    // Everyone has collected every submission response before connection
    // 0 shuts the service down; everyone waits for the shutdown (which
    // settles any service-side stragglers) before the final sweep.
    ctx.submit_done.wait();
    if connection == 0 {
        endpoint.send(Request::Shutdown)?;
        match endpoint.recv()? {
            Response::ShuttingDown { .. } => {}
            other => return Err(format!("shutdown failed: {other:?}")),
        }
    }
    ctx.shutdown_done.wait();

    state.queue_drains(endpoint)?;
    state.settle(endpoint)?;

    let mut stats = Vec::new();
    for name in &my_names {
        endpoint.send(Request::Stats {
            owner: name.clone(),
        })?;
    }
    endpoint.flush()?;
    for (&owner, name) in my_owners.iter().zip(&my_names) {
        match endpoint.recv()? {
            Response::Stats(owner_stats) => stats.push((owner, owner_stats)),
            other => return Err(format!("stats of {name} failed: {other:?}")),
        }
    }

    let mut streams: Vec<(usize, String)> = state.streams.into_iter().collect();
    streams.sort_by_key(|(owner, _)| *owner);
    Ok(WorkerResult {
        submitted: state.submitted,
        accepted: state.accepted,
        verified: state.verified,
        detected: state.detected,
        dropped: state.in_flight.len() as u64,
        latencies: state.latencies,
        streams,
        stats,
    })
}

/// Drives a concurrent soak over `connections` pipelined endpoints
/// (`connect(i)` builds connection `i`; index 0 also registers the
/// owners before the load starts).
///
/// Owners are partitioned across connections (`owner i` → connection
/// `i % connections`), each connection submits its owners' journeys in
/// order with a bounded burst in flight, and `queue_capacity` (the
/// service's admission bound) caps the burst so nothing is ever refused.
/// Ticking may additionally happen server-side (a background
/// [`crate::driver::TickDriver`]); the workers' own
/// [`Request::TickOwners`] syncs make the run self-sufficient without
/// one.
///
/// The merged outcome's verdict stream is grouped by owner and
/// byte-identical to a [`run_soak`] of the same shape — the determinism
/// contract this driver exists to demonstrate under concurrency.
///
/// # Panics
///
/// Panics if any connection fails mid-run (transport error, rejected
/// registration, out-of-protocol reply) — a soak against a broken
/// deployment is a setup error, not a measurement.
pub fn run_soak_concurrent<E, F>(
    connect: F,
    config: &SoakConfig,
    connections: usize,
    queue_capacity: usize,
) -> SoakOutcome
where
    E: PipelinedEndpoint,
    F: Fn(usize) -> E + Sync,
{
    assert!(config.owners > 0, "soak needs at least one owner");
    assert!(connections > 0, "soak needs at least one connection");
    assert!(config.tick_every > 0, "tick_every must be positive");
    assert!(queue_capacity > 0, "queue_capacity must be positive");
    assert!(
        config.start == 0 && !config.resume,
        "resumed soaks run over a single lockstep connection (run_soak)"
    );

    let owner_names: Vec<String> = (0..config.owners).map(SoakConfig::owner_name).collect();
    let name_to_index: HashMap<String, usize> = owner_names
        .iter()
        .enumerate()
        .map(|(i, name)| (name.clone(), i))
        .collect();

    // Register everything on connection 0 before any load exists, so
    // the tenant universe is identical however many connections follow.
    let mut first = connect(0);
    for (index, name) in owner_names.iter().enumerate() {
        first
            .send(Request::Register(RegisterOwner {
                owner: name.clone(),
                seed: config.owner_seed(index),
                preset: config.preset.clone(),
                mechanism: config.mechanism.clone(),
            }))
            .unwrap_or_else(|error| panic!("registration of {name} failed: {error}"));
        match first.recv() {
            Ok(Response::Registered { .. }) => {}
            other => panic!("registration of {name} failed: {other:?}"),
        }
    }

    let submit_done = Barrier::new(connections);
    let shutdown_done = Barrier::new(connections);
    let ctx = WorkerContext {
        config,
        owner_names: &owner_names,
        name_to_index: &name_to_index,
        connections,
        queue_capacity,
        submit_done: &submit_done,
        shutdown_done: &shutdown_done,
    };

    let started = Instant::now();
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(connections);
        let mut first = Some(first);
        let ctx = &ctx;
        let connect = &connect;
        for connection in 0..connections {
            let first = first.take();
            handles.push(scope.spawn(move || {
                let mut endpoint = match first {
                    Some(endpoint) => endpoint,
                    None => connect(connection),
                };
                soak_worker(&mut endpoint, connection, ctx)
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(connection, handle)| {
                handle
                    .join()
                    .expect("soak worker panicked")
                    .unwrap_or_else(|error| panic!("connection {connection}: {error}"))
            })
            .collect()
    });
    let elapsed = started.elapsed();

    let mut streams: Vec<String> = vec![String::new(); config.owners];
    let mut owner_stats: Vec<Option<OwnerStats>> = vec![None; config.owners];
    let mut per_connection = Vec::with_capacity(connections);
    let mut all_latencies: Vec<Duration> = Vec::new();
    let (mut submitted, mut accepted, mut verified, mut detected, mut dropped) = (0, 0, 0, 0, 0);
    for (connection, mut result) in results.into_iter().enumerate() {
        submitted += result.submitted;
        accepted += result.accepted;
        verified += result.verified;
        detected += result.detected;
        dropped += result.dropped;
        per_connection.push(ConnectionOutcome {
            connection,
            owners: result.streams.len(),
            submitted: result.submitted,
            accepted: result.accepted,
            rejected: 0,
            verified: result.verified,
            latency: SloPercentiles::from_latencies(&mut result.latencies),
        });
        all_latencies.extend(result.latencies);
        for (owner, stream) in result.streams {
            streams[owner] = stream;
        }
        for (owner, stats) in result.stats {
            owner_stats[owner] = Some(stats);
        }
    }

    SoakOutcome {
        config: config.clone(),
        submitted,
        accepted,
        rejected: 0,
        verified,
        detected,
        dropped,
        latency: SloPercentiles::from_latencies(&mut all_latencies),
        owners: owner_stats
            .into_iter()
            .map(|stats| stats.expect("every owner belongs to exactly one connection"))
            .collect(),
        stream: streams.concat(),
        connections,
        elapsed,
        per_connection,
        tick_driver: None,
        warm_start: None,
        baseline_journeys_per_sec: None,
        parallelism: host_parallelism(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;

    fn percentiles_of(values_us: &[u64]) -> SloPercentiles {
        let mut latencies: Vec<Duration> = values_us
            .iter()
            .map(|&v| Duration::from_micros(v))
            .collect();
        SloPercentiles::from_latencies(&mut latencies)
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        // n = 1: every percentile is the one observation.
        let one = percentiles_of(&[7]);
        assert_eq!(
            (one.p50_us, one.p95_us, one.p99_us, one.max_us),
            (7, 7, 7, 7)
        );
        // n = 2: rank ⌈0.5·2⌉ = 1, so p50 is the *lower* observation —
        // the old round((n-1)·q) code reported the larger one.
        let two = percentiles_of(&[1, 2]);
        assert_eq!(two.p50_us, 1, "p50 of two samples is the lower one");
        assert_eq!(two.p95_us, 2);
        assert_eq!(two.p99_us, 2);
        assert_eq!(two.max_us, 2);
        // n = 3: p50 is the middle value, the tail percentiles the max.
        let three = percentiles_of(&[30, 10, 20]);
        assert_eq!(three.p50_us, 20);
        assert_eq!(three.p95_us, 30);
        assert_eq!(three.p99_us, 30);
        // n = 100 over 1..=100: pN is exactly N (rank ⌈N⌉) — the old
        // code returned 51 for p50.
        let hundred: Vec<u64> = (1..=100).collect();
        let p = percentiles_of(&hundred);
        assert_eq!(p.p50_us, 50);
        assert_eq!(p.p95_us, 95);
        assert_eq!(p.p99_us, 99);
        assert_eq!(p.max_us, 100);
        // Empty input stays all-zero.
        assert_eq!(percentiles_of(&[]).max_us, 0);
    }

    #[test]
    fn leg_math_continues_the_round_robin() {
        // 7 journeys over 3 owners, split 4 + 3 across two legs: the
        // second leg's first journey ids continue where the first ended.
        let leg1 = SoakConfig {
            owners: 3,
            journeys: 4,
            ..SoakConfig::default()
        };
        let leg2 = SoakConfig {
            owners: 3,
            journeys: 3,
            start: 4,
            ..SoakConfig::default()
        };
        let whole = SoakConfig {
            owners: 3,
            journeys: 7,
            ..SoakConfig::default()
        };
        for index in 0..3 {
            assert_eq!(leg2.first_journey_for(index), leg1.journeys_for(index));
            assert_eq!(
                leg1.journeys_for(index) + leg2.journeys_for(index),
                whole.journeys_for(index)
            );
        }
    }

    #[test]
    fn slo_json_carries_warm_start_block_when_resumed() {
        let mut service = Service::new(ServeConfig::default());
        let config = SoakConfig {
            owners: 1,
            journeys: 4,
            tick_every: 2,
            ..SoakConfig::default()
        };
        let mut outcome = run_soak(&mut service, &config);
        assert!(outcome.warm_start.is_none());
        assert!(!outcome.to_json(1, 64).contains("\"warm_start\""));
        outcome.warm_start = Some(WarmStartMeta {
            generation: 2,
            resume_offset: 4,
            checkpoints: vec![StreamCheckpoint {
                owner: "owner-0".into(),
                offset: 4,
                digest: "00000000deadbeef".into(),
            }],
        });
        let json = outcome.to_json(1, 64);
        assert!(json.contains("\"warm_start\": {"));
        assert!(json.contains("\"generation\": 2"));
        assert!(json.contains("\"resume_offset\": 4"));
        assert!(json
            .contains("{\"owner\": \"owner-0\", \"offset\": 4, \"digest\": \"00000000deadbeef\"}"));
    }

    #[test]
    fn soak_drains_everything_it_accepts() {
        let mut service = Service::new(ServeConfig {
            queue_capacity: 8,
            ..ServeConfig::default()
        });
        let config = SoakConfig {
            owners: 2,
            journeys: 30,
            seed: 9,
            tick_every: 5,
            ..SoakConfig::default()
        };
        let outcome = run_soak(&mut service, &config);
        assert_eq!(outcome.accepted, 30);
        assert_eq!(outcome.verified, 30);
        assert_eq!(outcome.dropped, 0, "no accepted journey goes unverified");
        assert_eq!(outcome.stream.lines().count(), 30);
        assert!(outcome.latency.p50_us <= outcome.latency.max_us);
        assert_eq!(outcome.connections, 1);
        assert_eq!(outcome.per_connection.len(), 1);
        assert_eq!(outcome.per_connection[0].verified, 30);
        assert!(outcome.journeys_per_sec() > 0.0);
    }

    #[test]
    fn slo_json_has_schema_and_digest() {
        let mut service = Service::new(ServeConfig::default());
        let config = SoakConfig {
            owners: 1,
            journeys: 6,
            seed: 3,
            tick_every: 3,
            preset: "all-honest".into(),
            ..SoakConfig::default()
        };
        let outcome = run_soak(&mut service, &config);
        let json = outcome.to_json(1, 64);
        assert!(json.contains("\"schema\": \"refstate-soak-slo-v1\""));
        assert!(json.contains(&format!(
            "\"stream_digest\": \"{}\"",
            outcome.stream_digest()
        )));
        assert!(json.contains("\"dropped\": 0"));
        assert!(json.contains("\"connections\": 1"));
        assert!(json.contains("\"per_connection\": ["));
        assert!(json.contains("\"aggregate\": {"));
        // No driver and no baseline ran, so neither block is emitted.
        assert!(!json.contains("\"tick_driver\""));
        assert!(!json.contains("\"single_connection_baseline\""));
    }

    #[test]
    fn slo_json_carries_driver_and_baseline_blocks_when_present() {
        let mut service = Service::new(ServeConfig::default());
        let config = SoakConfig {
            owners: 1,
            journeys: 4,
            tick_every: 2,
            ..SoakConfig::default()
        };
        let mut outcome = run_soak(&mut service, &config);
        outcome.tick_driver = Some(TickDriverMeta {
            interval: Duration::from_millis(1),
            batch_min: 16,
            max_age: Duration::from_millis(5),
        });
        outcome.baseline_journeys_per_sec = Some(outcome.journeys_per_sec() / 3.0);
        let json = outcome.to_json(1, 64);
        assert!(json.contains("\"tick_driver\": {"));
        assert!(json.contains("\"interval_us\": 1000"));
        assert!(json.contains("\"single_connection_baseline\": {"));
        assert!(json.contains("\"throughput_ratio_vs_single\": 3.000"));
    }

    #[test]
    fn concurrent_soak_matches_the_single_connection_stream() {
        let config = SoakConfig {
            owners: 3,
            journeys: 24,
            seed: 11,
            tick_every: 4,
            ..SoakConfig::default()
        };
        let serve_config = ServeConfig {
            queue_capacity: 8,
            key_pool: 8,
            ..ServeConfig::default()
        };

        let mut single = Service::new(serve_config.clone());
        let baseline = run_soak(&mut single, &config);

        let shared = Arc::new(Service::new(serve_config.clone()));
        let concurrent = run_soak_concurrent(
            |_| LocalPipelined::new(Arc::clone(&shared)),
            &config,
            2,
            serve_config.queue_capacity,
        );

        assert_eq!(
            concurrent.stream, baseline.stream,
            "stream must not depend on connections"
        );
        assert_eq!(concurrent.verified, baseline.verified);
        assert_eq!(concurrent.dropped, 0);
        assert_eq!(
            concurrent.rejected, 0,
            "capacity accounting forbids refusals"
        );
        assert_eq!(concurrent.connections, 2);
        assert_eq!(concurrent.per_connection.len(), 2);
        // owner-0 and owner-2 on connection 0, owner-1 on connection 1.
        assert_eq!(concurrent.per_connection[0].owners, 2);
        assert_eq!(concurrent.per_connection[1].owners, 1);
        assert_eq!(
            concurrent
                .per_connection
                .iter()
                .map(|c| c.verified)
                .sum::<u64>(),
            concurrent.verified
        );
    }

    #[test]
    fn concurrent_soak_tolerates_more_connections_than_owners() {
        let config = SoakConfig {
            owners: 2,
            journeys: 10,
            seed: 5,
            tick_every: 3,
            ..SoakConfig::default()
        };
        let serve_config = ServeConfig {
            queue_capacity: 4,
            key_pool: 8,
            ..ServeConfig::default()
        };
        let shared = Arc::new(Service::new(serve_config.clone()));
        let outcome = run_soak_concurrent(
            |_| LocalPipelined::new(Arc::clone(&shared)),
            &config,
            4,
            serve_config.queue_capacity,
        );
        assert_eq!(outcome.verified, 10);
        assert_eq!(outcome.dropped, 0);
        assert_eq!(outcome.per_connection.len(), 4);
        // Connections 2 and 3 own no owners and drive no load.
        assert_eq!(outcome.per_connection[2].submitted, 0);
        assert_eq!(outcome.per_connection[3].owners, 0);
    }
}
