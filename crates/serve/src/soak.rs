//! The soak driver: sustained multi-owner load over one or more pipelined
//! connections, with client-observed SLO percentiles.
//!
//! A soak run registers `owners` tenants, streams `journeys` submissions
//! across them, paces the service with per-partition
//! [`Request::TickOwners`] hints (a server-side tick driver may tick as
//! well), and drains verdicts as they settle. Latency is measured
//! *client-side* — submit instant to drain instant — so the percentiles
//! are end-to-end service numbers.
//!
//! Owners are partitioned across connections (owner `i` belongs to
//! connection `i % connections`) so each owner's journeys are submitted
//! from exactly one connection, in order — the one client-side
//! obligation the determinism contract places on a pipelining
//! deployment. Each connection keeps a bounded burst of submissions in
//! flight and syncs (tick + drain) before any owner's queue can reach the
//! service's admission bound, so nothing is ever refused and nothing is
//! ever dropped. One connection is simply the partition that holds every
//! owner.
//!
//! The verdict stream is reported **grouped by owner** (each owner's
//! verdicts in admission order, owners concatenated in registration
//! order), not in drain order: per-owner admission order is the
//! service's determinism contract, while drain interleaving depends on
//! tick pacing and connection count. Grouping makes the stream — and its
//! digest — byte-identical for a fixed seed across runs, worker counts,
//! connection counts, tick pacing, and telemetry levels.
//!
//! A soak may also *resume* a durable history against a warm-restarted
//! server ([`SoakConfig::resume`]): connection 0 accepts the restored
//! registrations and checks the server's stream checkpoints before any
//! load starts, and journey ids continue where the interrupted run
//! stopped.
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
use refstate_telemetry::json::JsonWriter;
use refstate_telemetry::metrics::nearest_rank;

use crate::driver::TickDriverStats;
use crate::durable::{fnv_fold, FNV_BASIS};
use crate::net::PipelinedClient;
use crate::proto::{
    OwnerStats, RegisterOwner, RejectReason, Request, Response, StreamCheckpoint, VerdictReply,
};
use crate::service::Service;

/// A transport that can keep many requests in flight: buffered sends, an
/// explicit flush, and strictly request-ordered receives. The soak
/// driver windows over this; errors are reported as strings because a
/// soak treats any transport failure as fatal.
pub trait PipelinedEndpoint: Send {
    /// Queues one request (may buffer without transmitting).
    fn send(&mut self, request: Request) -> Result<(), String>;
    /// Transmits everything queued.
    fn flush(&mut self) -> Result<(), String>;
    /// Receives the response to the oldest unanswered request.
    fn recv(&mut self) -> Result<Response, String>;

    /// One request, one response, with nothing else in flight.
    fn call(&mut self, request: Request) -> Result<Response, String> {
        self.send(request)?;
        self.flush()?;
        self.recv()
    }
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
    /// Tick (and drain) after at most this many submission rounds.
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

/// Client-observed latency percentiles, in microseconds: nearest rank
/// over the exact samples ([`nearest_rank`]).
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
        let at = |q: f64| {
            latencies[nearest_rank(latencies.len() as u64, q) as usize - 1].as_micros() as u64
        };
        SloPercentiles {
            p50_us: at(0.50),
            p95_us: at(0.95),
            p99_us: at(0.99),
            max_us: at(1.0),
        }
    }

    /// The `{"p50","p95","p99","max"}` ladder object.
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("p50", self.p50_us);
        w.field_u64("p95", self.p95_us);
        w.field_u64("p99", self.p99_us);
        w.field_u64("max", self.max_us);
        w.end_object();
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
    /// Submissions refused (always zero: the driver's capacity
    /// accounting makes refusal impossible).
    pub rejected: u64,
    /// Verdicts this connection drained.
    pub verified: u64,
    /// This connection's client-observed verdict latency.
    pub latency: SloPercentiles,
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
    /// Submissions attempted.
    pub submitted: u64,
    /// Submissions admitted.
    pub accepted: u64,
    /// Submissions refused (always zero; see
    /// [`ConnectionOutcome::rejected`]).
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
    /// What the server-side tick driver did, when one ran (set by the
    /// caller that started and stopped it).
    pub tick_driver: Option<TickDriverStats>,
    /// The warm-start handshake, when this was a resumed run.
    pub warm_start: Option<WarmStartMeta>,
    /// Aggregate journeys/s of a single-connection baseline run, when
    /// the caller measured one for comparison.
    pub baseline_journeys_per_sec: Option<f64>,
    /// Hardware parallelism of the host the soak ran on
    /// (`std::thread::available_parallelism`). Recorded so throughput
    /// ratios can be interpreted: on a single-core host a CPU-bound
    /// soak cannot beat its own serial baseline no matter how many
    /// connections drive it.
    pub parallelism: usize,
}

impl SoakOutcome {
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

    /// FNV-1a digest of the verdict stream, as printed in the SLO JSON —
    /// the fold the service's durable stream checkpoints use.
    pub fn stream_digest(&self) -> String {
        format!("{:016x}", fnv_fold(FNV_BASIS, self.stream.as_bytes()))
    }

    /// The schema-checked SLO JSON artifact (`refstate-soak-slo-v1`).
    pub fn to_json(&self, queue_capacity: usize) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "refstate-soak-slo-v1");
        w.field_u64("seed", self.config.seed);
        w.field_u64("owners", self.config.owners as u64);
        w.field_u64("journeys", self.config.journeys);
        w.field_str("preset", &self.config.preset);
        w.field_str("mechanism", &self.config.mechanism);
        w.field_u64("tick_every", self.config.tick_every as u64);
        w.field_u64("start", self.config.start);
        w.field_u64("queue_capacity", queue_capacity as u64);
        w.field_u64("connections", self.connections as u64);
        w.key("aggregate");
        w.begin_object();
        w.field_u64("elapsed_us", (self.elapsed.as_micros() as u64).max(1));
        w.field_f64("journeys_per_sec", self.journeys_per_sec());
        w.field_u64("parallelism", self.parallelism as u64);
        w.end_object();
        if let Some(driver) = &self.tick_driver {
            w.key("tick_driver");
            w.begin_object();
            w.field_u64("ticks", driver.ticks);
            w.field_u64("verdicts", driver.verdicts);
            w.end_object();
        }
        w.key("counts");
        w.begin_object();
        w.field_u64("submitted", self.submitted);
        w.field_u64("accepted", self.accepted);
        w.field_u64("rejected", self.rejected);
        w.field_u64("verified", self.verified);
        w.field_u64("detected", self.detected);
        w.field_u64("dropped", self.dropped);
        w.end_object();
        w.key("latency_us");
        self.latency.write_json(&mut w);
        w.key("per_connection");
        w.begin_array();
        for conn in &self.per_connection {
            w.begin_object();
            w.field_u64("connection", conn.connection as u64);
            w.field_u64("owners", conn.owners as u64);
            w.field_u64("submitted", conn.submitted);
            w.field_u64("accepted", conn.accepted);
            w.field_u64("rejected", conn.rejected);
            w.field_u64("verified", conn.verified);
            w.key("latency_us");
            conn.latency.write_json(&mut w);
            w.end_object();
        }
        w.end_array();
        w.key("owners_detail");
        w.begin_array();
        for owner in &self.owners {
            w.begin_object();
            w.field_str("owner", &owner.owner);
            w.field_u64("accepted", owner.accepted);
            w.field_u64("rejected", owner.rejected);
            w.field_u64("verified", owner.verified);
            w.field_u64("detected", owner.detected);
            w.field_u64("final_checks", owner.final_checks);
            w.field_u64("flush_verifications", owner.flush_verifications);
            w.field_u64("flush_failures", owner.flush_failures);
            w.end_object();
        }
        w.end_array();
        if let Some(warm) = &self.warm_start {
            w.key("warm_start");
            w.begin_object();
            w.field_u64("generation", warm.generation);
            w.field_u64("resume_offset", warm.resume_offset);
            w.key("checkpoints");
            w.begin_array();
            for checkpoint in &warm.checkpoints {
                w.begin_object();
                w.field_str("owner", &checkpoint.owner);
                w.field_u64("offset", checkpoint.offset);
                w.field_str("digest", &checkpoint.digest);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        if let (Some(baseline), Some(ratio)) = (
            self.baseline_journeys_per_sec,
            self.throughput_ratio_vs_single(),
        ) {
            w.key("single_connection_baseline");
            w.begin_object();
            w.field_f64("journeys_per_sec", baseline);
            w.end_object();
            w.field_f64("throughput_ratio_vs_single", ratio);
        }
        w.field_str("stream_digest", &self.stream_digest());
        w.end_object();
        w.finish()
    }
}

/// What the soak worker expects the next in-order response to answer
/// (owners by their slot in the connection's partition).
enum Pending {
    Submit { slot: usize, journey: u64 },
    Ticked,
    Drained { slot: usize },
}

/// Shared coordination for the soak workers.
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

/// One connection's slice of a soak: its owner partition, the pipeline
/// window bookkeeping, and the per-owner verdict accounting.
struct ConnState<'a> {
    /// Global indices of the owners this connection drives.
    my_owners: Vec<usize>,
    my_names: Vec<String>,
    name_to_index: &'a HashMap<String, usize>,
    pending: VecDeque<Pending>,
    /// Submitted journeys still waiting for their verdict (dropped ones,
    /// once the run is over).
    in_flight: HashMap<(usize, u64), Instant>,
    latencies: Vec<Duration>,
    /// Global owner index → that owner's verdict stream.
    streams: HashMap<usize, String>,
    /// `(global owner index, closing stats)`.
    stats: Vec<(usize, OwnerStats)>,
    submitted: u64,
    accepted: u64,
    verified: u64,
    detected: u64,
}

impl ConnState<'_> {
    /// Submits journey `journey` of the owner in partition slot `slot`.
    fn submit(
        &mut self,
        endpoint: &mut dyn PipelinedEndpoint,
        slot: usize,
        journey: u64,
    ) -> Result<(), String> {
        let owner = self.my_owners[slot];
        endpoint.send(Request::Submit {
            owner: self.my_names[slot].clone(),
            journey,
        })?;
        self.pending.push_back(Pending::Submit { slot, journey });
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
        for (slot, name) in self.my_names.iter().enumerate() {
            endpoint.send(Request::Drain {
                owner: name.clone(),
            })?;
            self.pending.push_back(Pending::Drained { slot });
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
                (Pending::Submit { slot, journey }, other) => {
                    return Err(format!(
                        "submission of {}/{journey} failed: {other:?}",
                        self.my_names[slot]
                    ));
                }
                (Pending::Ticked, Response::Ticked { .. }) => {}
                (Pending::Ticked, other) => return Err(format!("tick failed: {other:?}")),
                (Pending::Drained { .. }, Response::Verdicts(verdicts)) => {
                    for verdict in verdicts {
                        self.record(verdict);
                    }
                }
                (Pending::Drained { slot }, other) => {
                    return Err(format!(
                        "drain of {} failed: {other:?}",
                        self.my_names[slot]
                    ));
                }
            }
        }
        Ok(())
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

/// One connection's worth of soak: submit this partition's journeys in
/// order with a bounded burst in flight, sync before any owner's queue
/// can reach the admission bound, and collect verdicts.
fn soak_worker<'a>(
    endpoint: &mut dyn PipelinedEndpoint,
    connection: usize,
    ctx: &WorkerContext<'a>,
) -> Result<ConnState<'a>, String> {
    let my_owners: Vec<usize> = (0..ctx.config.owners)
        .filter(|i| i % ctx.connections == connection)
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
        my_names: my_owners
            .iter()
            .map(|&i| ctx.owner_names[i].clone())
            .collect(),
        name_to_index: ctx.name_to_index,
        pending: VecDeque::new(),
        in_flight: HashMap::new(),
        latencies: Vec::new(),
        streams: my_owners.iter().map(|&i| (i, String::new())).collect(),
        stats: Vec::new(),
        my_owners,
        submitted: 0,
        accepted: 0,
        verified: 0,
        detected: 0,
    };

    for round in 0..rounds {
        for slot in 0..state.my_owners.len() {
            let owner = state.my_owners[slot];
            if round < ctx.config.journeys_for(owner) {
                state.submit(endpoint, slot, ctx.config.first_journey_for(owner) + round)?;
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
        match endpoint.call(Request::Shutdown)? {
            Response::ShuttingDown { .. } => {}
            other => return Err(format!("shutdown failed: {other:?}")),
        }
    }
    ctx.shutdown_done.wait();

    state.queue_drains(endpoint)?;
    state.settle(endpoint)?;

    for name in &state.my_names {
        endpoint.send(Request::Stats {
            owner: name.clone(),
        })?;
    }
    endpoint.flush()?;
    for (&owner, name) in state.my_owners.iter().zip(&state.my_names) {
        match endpoint.recv()? {
            Response::Stats(owner_stats) => state.stats.push((owner, owner_stats)),
            other => return Err(format!("stats of {name} failed: {other:?}")),
        }
    }
    Ok(state)
}

/// The resume handshake, on connection 0 before any load: the server's
/// durable streams must stand exactly where the interrupted run left
/// them — owner `i`'s stream offset equal to the number of journeys the
/// first `start` submissions assigned it. A mismatch means the state dir
/// lost (or duplicated) verdicts, the drain invariant across the
/// restart, so the soak refuses to continue.
fn check_resume(
    endpoint: &mut dyn PipelinedEndpoint,
    config: &SoakConfig,
    owner_names: &[String],
) -> WarmStartMeta {
    let reply = endpoint.call(Request::StreamState);
    let Ok(Response::StreamState { generation, owners }) = reply else {
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
}

/// Drives a soak over `connections` pipelined endpoints (`connect(i)`
/// builds connection `i`; index 0 also registers the owners — and, for
/// a resumed run, checks the server's stream checkpoints — before the
/// load starts).
///
/// Owners are partitioned across connections (`owner i` → connection
/// `i % connections`), each connection submits its owners' journeys in
/// order with a bounded burst in flight, and `queue_capacity` (the
/// service's admission bound) caps the burst so nothing is ever refused.
/// Ticking may additionally happen server-side (a background
/// [`crate::driver::TickDriver`]); the workers' own
/// [`Request::TickOwners`] syncs make the run self-sufficient without
/// one. After the last submission connection 0 sends
/// [`Request::Shutdown`] (settling everything admitted) and every
/// connection drains its owners a final time.
///
/// The merged outcome's verdict stream is grouped by owner and
/// byte-identical for every connection count — the determinism contract
/// this driver exists to demonstrate under concurrency.
///
/// # Panics
///
/// Panics if any connection fails mid-run (transport error, rejected
/// registration, out-of-protocol reply) or a resumed server's streams do
/// not sit at the expected offsets — a soak against a broken deployment
/// is a setup error, not a measurement.
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
        let reply = first.call(Request::Register(RegisterOwner {
            owner: name.clone(),
            seed: config.owner_seed(index),
            preset: config.preset.clone(),
            mechanism: config.mechanism.clone(),
        }));
        match reply {
            Ok(Response::Registered { .. }) => {}
            // A resumed leg finds its owners restored from the server's
            // state dir; the duplicate rejection is the expected handshake.
            Ok(Response::Rejected {
                reason: RejectReason::DuplicateOwner,
                ..
            }) if config.resume => {}
            other => panic!("registration of {name} failed: {other:?}"),
        }
    }
    let warm_start = config
        .resume
        .then(|| check_resume(&mut first, config, &owner_names));

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
    let results: Vec<ConnState> = std::thread::scope(|scope| {
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
    for (connection, mut conn) in results.into_iter().enumerate() {
        submitted += conn.submitted;
        accepted += conn.accepted;
        verified += conn.verified;
        detected += conn.detected;
        dropped += conn.in_flight.len() as u64;
        per_connection.push(ConnectionOutcome {
            connection,
            owners: conn.my_owners.len(),
            submitted: conn.submitted,
            accepted: conn.accepted,
            rejected: 0,
            verified: conn.verified,
            latency: SloPercentiles::from_latencies(&mut conn.latencies),
        });
        all_latencies.extend(conn.latencies);
        for (owner, stream) in conn.streams {
            streams[owner] = stream;
        }
        for (owner, stats) in conn.stats {
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
        warm_start,
        baseline_journeys_per_sec: None,
        parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use refstate_telemetry::json::{self, Json};

    /// A soak over `connections` in-process connections into one fresh
    /// service.
    fn soak(serve_config: ServeConfig, config: &SoakConfig, connections: usize) -> SoakOutcome {
        let service = Arc::new(Service::new(serve_config.clone()));
        run_soak_concurrent(
            |_| LocalPipelined::new(Arc::clone(&service)),
            config,
            connections,
            serve_config.queue_capacity,
        )
    }

    fn slo_doc(outcome: &SoakOutcome) -> Json {
        json::parse(&outcome.to_json(64)).expect("the SLO artifact parses")
    }

    fn at<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
        path.iter().try_fold(doc, |value, key| value.get(key))
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
        let config = SoakConfig {
            owners: 1,
            journeys: 4,
            tick_every: 2,
            ..SoakConfig::default()
        };
        let mut outcome = soak(ServeConfig::default(), &config, 1);
        assert!(outcome.warm_start.is_none());
        assert!(slo_doc(&outcome).get("warm_start").is_none());
        outcome.warm_start = Some(WarmStartMeta {
            generation: 2,
            resume_offset: 4,
            checkpoints: vec![StreamCheckpoint {
                owner: "owner-0".into(),
                offset: 4,
                digest: "00000000deadbeef".into(),
            }],
        });
        let expected = json::parse(
            r#"{"generation":2,"resume_offset":4,"checkpoints":[
                {"owner":"owner-0","offset":4,"digest":"00000000deadbeef"}]}"#,
        );
        assert_eq!(slo_doc(&outcome).get("warm_start"), expected.as_ref().ok());
    }

    #[test]
    fn soak_drains_everything_it_accepts() {
        let config = SoakConfig {
            owners: 2,
            journeys: 30,
            seed: 9,
            tick_every: 5,
            ..SoakConfig::default()
        };
        let serve_config = ServeConfig {
            queue_capacity: 8,
            ..ServeConfig::default()
        };
        let outcome = soak(serve_config, &config, 1);
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
        let config = SoakConfig {
            owners: 1,
            journeys: 6,
            seed: 3,
            tick_every: 3,
            preset: "all-honest".into(),
            ..SoakConfig::default()
        };
        let outcome = soak(ServeConfig::default(), &config, 1);
        let doc = slo_doc(&outcome);
        let text = |key: &str| doc.get(key).and_then(Json::as_str);
        assert_eq!(text("schema"), Some("refstate-soak-slo-v1"));
        assert_eq!(
            text("stream_digest"),
            Some(outcome.stream_digest().as_str())
        );
        assert_eq!(at(&doc, &["counts", "dropped"]), Some(&Json::Num(0.0)));
        assert_eq!(at(&doc, &["connections"]), Some(&Json::Num(1.0)));
        assert_eq!(
            doc.get("per_connection")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
        assert!(at(&doc, &["aggregate", "journeys_per_sec"]).is_some());
        // No driver and no baseline ran, so neither block is emitted.
        assert!(doc.get("tick_driver").is_none());
        assert!(doc.get("single_connection_baseline").is_none());
    }

    #[test]
    fn slo_json_carries_driver_and_baseline_blocks_when_present() {
        let config = SoakConfig {
            owners: 1,
            journeys: 4,
            tick_every: 2,
            ..SoakConfig::default()
        };
        let mut outcome = soak(ServeConfig::default(), &config, 1);
        outcome.tick_driver = Some(TickDriverStats {
            ticks: 3,
            verdicts: 4,
        });
        outcome.baseline_journeys_per_sec = Some(outcome.journeys_per_sec() / 3.0);
        let doc = slo_doc(&outcome);
        let num = |path: &[&str]| at(&doc, path).and_then(Json::as_num);
        assert_eq!(num(&["tick_driver", "ticks"]), Some(3.0));
        assert_eq!(num(&["tick_driver", "verdicts"]), Some(4.0));
        assert!(num(&["single_connection_baseline", "journeys_per_sec"]).is_some());
        let ratio = num(&["throughput_ratio_vs_single"]).unwrap();
        assert!((ratio - 3.0).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn soak_stream_is_invariant_across_connection_counts() {
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

        let single = soak(serve_config.clone(), &config, 1);
        let concurrent = soak(serve_config, &config, 2);

        assert_eq!(
            concurrent.stream, single.stream,
            "stream must not depend on connections"
        );
        assert_eq!(concurrent.verified, single.verified);
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
    fn soak_tolerates_more_connections_than_owners() {
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
        let outcome = soak(serve_config, &config, 4);
        assert_eq!(outcome.verified, 10);
        assert_eq!(outcome.dropped, 0);
        assert_eq!(outcome.per_connection.len(), 4);
        // Connections 2 and 3 own no owners and drive no load.
        assert_eq!(outcome.per_connection[2].submitted, 0);
        assert_eq!(outcome.per_connection[3].owners, 0);
    }
}
