//! The resident owner service: multi-tenant state, admission control,
//! and the amortized verification tick — sharded per owner so
//! independent tenants never contend.
//!
//! A [`Service`] is the paper's *agent owner* turned into a long-lived
//! endpoint. Tenants register a scenario universe (seed + preset +
//! mechanism), stream journey ids in, and read verdicts back out. The
//! service re-derives every journey from the registration — generation is
//! a pure function of `(seed, id, preset)`, exactly as in the fleet
//! engine — so no agent state crosses the wire and a service run is
//! reproducible from its per-owner request sequence alone.
//!
//! # Concurrency model
//!
//! [`Service::handle`] takes `&self`: the service is internally locked
//! and every transport (or background driver) may call it concurrently.
//! The locking is layered so that the common operations touch only the
//! state they need:
//!
//! * **routing** — the owner table is an `RwLock<Vec<Arc<OwnerShard>>>`;
//!   request dispatch takes a read lock just long enough to clone one
//!   `Arc`. Only registration writes it.
//! * **per-owner shards** — each owner's mutable state lives in its own
//!   `OwnerShard` behind three fine-grained locks: `ingress` (the
//!   bounded submit queue), `outbox` (settled verdicts awaiting drain),
//!   and `exec` (the tick-execution lock). Submits for different owners
//!   never share a lock, and a submit for owner A proceeds while owner
//!   B's batch is mid-settle.
//! * **the doorbell** — an accepted submit then rings the tick driver's
//!   doorbell: one atomic load while the bell is already rung, one swap
//!   plus a thread unpark on the clear → rung edge, and no lock.
//! * **the exec lock pins verdict order** — a tick drains an owner's
//!   ingress, runs the batch, and appends to the outbox all under that
//!   owner's `exec` lock, so concurrent tickers (several connections, the
//!   background driver, the shutdown drain) serialize *per owner* and the
//!   outbox always receives verdicts in admission order.
//! * **control plane** — registration builds the owner's shard outside
//!   every lock and commits it under the owner-table write lock; stats
//!   read the shard's atomics plus brief peeks under its ingress, outbox
//!   and stream locks, and health takes the same ingress and outbox peeks
//!   once per owner.
//!
//! # Determinism contract
//!
//! For a fixed registration and a fixed per-owner submission order, each
//! owner's verdict stream (the concatenation of its drained
//! [`VerdictReply`]s) is **byte-identical** across: settle worker counts,
//! how many connections submit or tick, which engine
//! fires the tick (client `Tick`/`TickOwners`, server tick driver, or
//! shutdown drain), tick pacing, and telemetry levels. The stream is
//! *not* a function of how journeys interleave **across** owners — only
//! per-owner order is pinned, which is exactly what per-owner locking
//! preserves.
//!
//! Three further design rules keep the service cheap:
//!
//! * **cross-journey amortization** — every admitted journey runs its
//!   host-side part, and each owner's outstanding owner-side work (final
//!   re-execution checks, deferred signature verifications) settles in
//!   *one* [`settle`] per owner per tick: one re-execution pass and one
//!   batch signature flush, instead of one of each per journey.
//! * **bounded admission** — each owner has a bounded ingress queue;
//!   submissions past the bound are refused with
//!   [`RejectReason::QueueFull`] instead of queuing unboundedly, and a
//!   draining service refuses everything new while still settling every
//!   journey it already accepted.
//! * **bounded history** — the per-owner event log is cleared at the
//!   start of each tick (verdicts never read prior ticks' events), so a
//!   resident service does not accumulate timeline state forever.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_core::VerificationPipeline;
use refstate_crypto::{DsaKeyPair, DsaParams, KeyDirectory};
use refstate_fleet::journey::{run_journey, JourneyEnv};
use refstate_fleet::scenario::{self, Preset};
use refstate_mechanisms::api::{
    settle, JourneyVerdict, MechanismConfig, MechanismRegistry, ProtectionMechanism,
};
use refstate_platform::{EventLog, HostSpec};
use refstate_store::{LogStore, StateStore};
use refstate_telemetry as telemetry;

use crate::driver::Doorbell;
use crate::proto::{
    OwnerStats, RegisterOwner, RejectReason, Request, Response, ServiceHealth, StreamCheckpoint,
    VerdictReply,
};

/// Service-wide configuration (tenant-independent).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Seed of the service's DSA key pool (tenant host keys are drawn
    /// from the pool deterministically by owner seed and host name).
    pub seed: u64,
    /// Size of the pre-generated key pool.
    pub key_pool: usize,
    /// Per-owner ingress bound; submissions past it are rejected.
    pub queue_capacity: usize,
    /// Worker threads settling *independent owners* in parallel within
    /// one tick (`1` = sequential, `0` = one per core). Per-owner verdict
    /// streams are invariant in this: each owner's whole batch runs on
    /// one worker under its exec lock.
    pub settle_workers: usize,
    /// Durable-state directory. When set, the service opens (or creates)
    /// an append-only [`LogStore`] there and persists its seed, its
    /// registrations and each owner's verdict stream with its checkpoint:
    /// a restart on the same directory restores every owner and resumes
    /// its stream. Keys are re-derived from the seed. `None` keeps
    /// everything in memory.
    pub state_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 42,
            key_pool: 32,
            queue_capacity: 64,
            settle_workers: 1,
            state_dir: None,
        }
    }
}

/// Store namespaces the service persists under (see [`StateStore`]):
/// only what a restart cannot re-derive. `meta` pins the service seed,
/// `owners` holds the registration records (keyed by big-endian
/// registration index, so scan order is registration order) and
/// `checkpoint` each owner's stream position. Each owner's verdict lines
/// append under `stream/<owner>`. Host keys and compiled programs are
/// functions of the seed and the registrations, so a restart recomputes
/// them instead of reading them back.
const NS_META: &str = "meta";
const NS_OWNERS: &str = "owners";
const NS_CHECKPOINT: &str = "checkpoint";

fn stream_ns(owner: &str) -> String {
    format!("stream/{owner}")
}

pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a hash — the fold behind both the
/// durable stream checkpoints and the soak's
/// [`SoakOutcome::stream_digest`](crate::soak::SoakOutcome::stream_digest),
/// so a server-side checkpoint is directly comparable to a client-side
/// stream artifact digest.
pub(crate) fn fnv_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for byte in bytes {
        hash ^= *byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// One owner's durable verdict-stream position: how many verdicts have
/// been appended and the running FNV-1a digest over their lines. Updated
/// under the owner's exec lock; checkpointed to the store per tick.
#[derive(Clone, Copy)]
struct StreamState {
    offset: u64,
    digest: u64,
}

impl Default for StreamState {
    fn default() -> Self {
        StreamState {
            offset: 0,
            digest: FNV_BASIS,
        }
    }
}

fn encode_checkpoint(state: StreamState) -> Vec<u8> {
    let mut w = refstate_wire::Writer::new();
    w.put_u64(state.offset);
    w.put_u64(state.digest);
    w.into_inner()
}

fn decode_checkpoint(bytes: &[u8]) -> Result<StreamState, refstate_wire::WireError> {
    let mut r = refstate_wire::Reader::new(bytes);
    let offset = r.take_u64()?;
    let digest = r.take_u64()?;
    r.finish()?;
    Ok(StreamState { offset, digest })
}

/// Every host name a generated scenario can mention: linear routes up to
/// 25 hops (`h0..h24`), the replicated middle stages' replicas
/// (`h1r1..h5r2`), and the cooperating presets' off-route witnesses
/// (`v0..v3`). Registered per owner at registration time so the owner's
/// key directory covers any journey it can submit.
fn host_universe() -> Vec<String> {
    let mut names: Vec<String> = (0..25).map(|i| format!("h{i}")).collect();
    for stage in 1..=5 {
        for replica in 1..=2 {
            names.push(format!("h{stage}r{replica}"));
        }
    }
    for witness in 0..4 {
        names.push(format!("v{witness}"));
    }
    names
}

/// Deterministic pool index for `name` under `owner_seed` (FNV-1a over
/// the name, finalized through the scenario seed mixer).
fn key_index(owner_seed: u64, name: &str, pool: usize) -> usize {
    let hash = fnv_fold(FNV_BASIS, name.as_bytes());
    (scenario::scenario_seed(owner_seed, hash) % pool as u64) as usize
}

/// One tenant's resident state: immutable registration-derived fields
/// plus three fine-grained locks and lock-free counters. See the module
/// docs for the locking discipline.
pub(crate) struct OwnerShard {
    pub(crate) name: String,
    /// Registration index, used for per-owner indexed telemetry.
    index: u32,
    seed: u64,
    preset: Preset,
    mechanism: Arc<dyn ProtectionMechanism>,
    /// The owner's own key directory (its host universe under bare
    /// names), warmed at registration; every journey of this owner
    /// shares it (no per-journey directory builds or clones).
    directory: KeyDirectory,
    /// The owner's own verification pipeline.
    pipeline: Arc<VerificationPipeline>,
    log: EventLog,
    config: MechanismConfig,
    /// Admitted journeys awaiting the next tick, in admission order.
    /// Locked only for brief push/drain/peek sections.
    pub(crate) ingress: Mutex<VecDeque<(u64, Instant)>>,
    /// The tick-execution lock: held across drain → run → settle →
    /// outbox-append, so concurrent tickers serialize per owner and the
    /// outbox receives verdicts in admission order.
    exec: Mutex<()>,
    /// Settled verdicts awaiting a drain, in admission order.
    outbox: Mutex<Vec<VerdictReply>>,
    /// The owner's durable stream position (offset + digest), restored
    /// from the store on a warm start. Only touched under `exec` (plus
    /// brief read locks from stats/stream-state queries).
    stream: Mutex<StreamState>,
    accepted: AtomicU64,
    rejected: AtomicU64,
    verified: AtomicU64,
    detected: AtomicU64,
    final_checks: AtomicU64,
    flush_verifications: AtomicU64,
    flush_failures: AtomicU64,
}

/// The resident multi-tenant verification service.
///
/// Internally locked: [`Service::handle`] takes `&self` and may be called
/// from any number of threads — transports share the service behind a
/// plain `Arc`. Verification runs wherever a tick fires (a client `Tick`
/// / `TickOwners`, the background tick driver, or the shutdown drain);
/// per-owner verdict order is pinned regardless (see the module docs).
///
/// # Examples
///
/// ```
/// use refstate_serve::{Request, Response, RegisterOwner, Service, ServeConfig};
///
/// let service = Service::new(ServeConfig::default());
/// let reply = service.handle(Request::Register(RegisterOwner {
///     owner: "alice".into(),
///     seed: 7,
///     preset: "single-tamperer".into(),
///     mechanism: "protocol".into(),
/// }));
/// assert_eq!(reply, Response::Registered { owner: "alice".into() });
/// service.handle(Request::Submit { owner: "alice".into(), journey: 0 });
/// service.handle(Request::Tick);
/// let Response::Verdicts(verdicts) = service.handle(Request::Drain { owner: "alice".into() })
/// else { panic!("drain returns verdicts") };
/// assert_eq!(verdicts.len(), 1);
/// ```
pub struct Service {
    config: ServeConfig,
    params_pool: Vec<Arc<DsaKeyPair>>,
    registry: MechanismRegistry,
    /// The routing layer: reads clone one `Arc`, only registration
    /// writes (and its duplicate check under that write lock is what
    /// makes registration atomic).
    owners: RwLock<Vec<Arc<OwnerShard>>>,
    shutting_down: AtomicBool,
    /// Rung by every accepted submit and by shutdown; the tick driver
    /// parks on it.
    pub(crate) bell: Doorbell,
    /// The durable backend, when `state_dir` is configured.
    store: Option<Arc<dyn StateStore>>,
}

impl Service {
    /// Builds a service: generates and pre-warms the key pool.
    pub fn new(config: ServeConfig) -> Self {
        assert!(config.key_pool > 0, "key pool must be non-empty");
        let _span = telemetry::span("serve.start", "serve");
        let params = DsaParams::test_group_256();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5e12_ce00_0a11_ce5e);
        let params_pool: Vec<Arc<DsaKeyPair>> = (0..config.key_pool)
            .map(|_| Arc::new(DsaKeyPair::generate(&params, &mut rng)))
            .collect();
        for key in &params_pool {
            key.public().precompute();
        }
        let store: Option<Arc<dyn StateStore>> = config.state_dir.as_ref().map(|dir| {
            let store = LogStore::open(dir)
                .unwrap_or_else(|e| panic!("cannot open state dir {}: {e}", dir.display()));
            Arc::new(store) as Arc<dyn StateStore>
        });
        if let Some(store) = &store {
            // Pin the seed: restored owners re-derive their host keys
            // from it, so reopening under a different seed would silently
            // continue each stream under another key pool.
            match store.get(NS_META, b"seed").expect("state dir meta read") {
                Some(bytes) => {
                    let persisted = bytes
                        .try_into()
                        .map(u64::from_le_bytes)
                        .unwrap_or_else(|_| panic!("state dir corrupt: malformed seed record"));
                    assert_eq!(
                        persisted, config.seed,
                        "state dir was created with seed {persisted}, not {}",
                        config.seed
                    );
                }
                None => store
                    .put(NS_META, b"seed", &config.seed.to_le_bytes())
                    .expect("state dir meta write"),
            }
        }
        let service = Service {
            config,
            params_pool,
            registry: MechanismRegistry::builtin(),
            owners: RwLock::new(Vec::new()),
            shutting_down: AtomicBool::new(false),
            bell: Doorbell::default(),
            store,
        };
        // Re-install every persisted registration, in registration order
        // (the `owners` namespace is keyed by big-endian index).
        let restored: Vec<RegisterOwner> = match &service.store {
            Some(store) => store
                .scan(NS_OWNERS)
                .expect("state dir owners scan")
                .into_iter()
                .map(|(_, value)| {
                    refstate_wire::from_wire(&value)
                        .unwrap_or_else(|e| panic!("state dir corrupt: owner record: {e}"))
                })
                .collect(),
            None => Vec::new(),
        };
        for registration in restored {
            let owner = registration.owner.clone();
            let reply = service.install_owner(registration, true);
            assert!(
                matches!(reply, Response::Registered { .. }),
                "state dir corrupt: restoring owner {owner}: {reply:?}"
            );
        }
        service
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Registered owner names, in registration order.
    pub fn owner_names(&self) -> Vec<String> {
        self.owners
            .read()
            .expect("owner table lock")
            .iter()
            .map(|o| o.name.clone())
            .collect()
    }

    /// Snapshot of the owner shards (one `Arc` clone each), for tick
    /// drivers and the shutdown drain.
    pub(crate) fn shards(&self) -> Vec<Arc<OwnerShard>> {
        self.owners.read().expect("owner table lock").clone()
    }

    fn shard(&self, name: &str) -> Option<Arc<OwnerShard>> {
        self.owners
            .read()
            .expect("owner table lock")
            .iter()
            .find(|o| o.name == name)
            .cloned()
    }

    /// Handles one request; every transport funnels through here.
    /// Safe to call concurrently — see the module docs for what each
    /// request contends on.
    pub fn handle(&self, request: Request) -> Response {
        match request {
            Request::Register(registration) => self.register(registration),
            Request::Submit { owner, journey } => self.submit(owner, journey),
            Request::Tick => Response::Ticked {
                settled: self.tick(),
            },
            Request::TickOwners(names) => self.tick_named(names),
            Request::Drain { owner } => self.drain(owner),
            Request::Stats { owner } => self.stats(owner),
            Request::Shutdown => self.shutdown(),
            Request::StreamState => self.stream_state(),
            Request::Metrics => Response::Metrics(metrics_jsonl()),
            Request::Health => Response::Health(self.health()),
        }
    }

    fn register(&self, registration: RegisterOwner) -> Response {
        self.install_owner(registration, false)
    }

    /// Installs one owner shard, building its key directory either way.
    /// `restore = false` is a client registration: its stream starts at
    /// zero and (with a store) the registration record is persisted.
    /// `restore = true` replays a persisted registration on open: the
    /// record is not written again, and the stream position is read back
    /// from the store.
    fn install_owner(&self, registration: RegisterOwner, restore: bool) -> Response {
        let RegisterOwner {
            owner,
            seed,
            preset,
            mechanism,
        } = registration;
        let reject = |reason| Response::Rejected {
            owner: owner.clone(),
            journey: 0,
            reason,
        };
        if self.is_shutting_down() {
            return reject(RejectReason::ShuttingDown);
        }
        if owner.is_empty() || owner.contains('/') {
            return Response::Error {
                message: format!("invalid owner name {owner:?} (non-empty, no '/')"),
            };
        }
        let (preset_name, mechanism_name) = (preset, mechanism);
        let Some(preset) = Preset::parse(&preset_name) else {
            return reject(RejectReason::UnknownPreset);
        };
        let Some(mechanism) = self.registry.get(&mechanism_name) else {
            return reject(RejectReason::UnknownMechanism);
        };

        // A fast path only: the authoritative check runs again under the
        // owner-table write lock below.
        if self.shard(&owner).is_some() {
            return reject(RejectReason::DuplicateOwner);
        }

        // The owner's PKI: every host name its generator can produce,
        // keyed deterministically from the pool. The directory is built
        // once and shared by every journey — no per-journey clones — and
        // warmed here so no first verification pays a table build. A
        // restored owner re-derives the same keys from the same pool.
        let mut directory = KeyDirectory::new();
        for name in host_universe() {
            let key = &self.params_pool[key_index(seed, &name, self.params_pool.len())];
            directory.register(name, key.public().clone());
        }
        directory.warm();

        // The owner's durable stream position: zero on a fresh
        // registration, replayed (and verified against the last
        // checkpoint) on restore.
        let stream = if restore {
            let store = self.store.as_ref().expect("restore implies a store");
            let lines = store
                .appended(&stream_ns(&owner))
                .expect("state dir stream read");
            let checkpoint = store
                .get(NS_CHECKPOINT, owner.as_bytes())
                .expect("state dir checkpoint read")
                .map(|bytes| {
                    decode_checkpoint(&bytes)
                        .unwrap_or_else(|e| panic!("state dir corrupt: {owner} checkpoint: {e}"))
                });
            let mut state = StreamState::default();
            let mut digest_at_checkpoint =
                matches!(checkpoint, Some(c) if c.offset == 0).then_some(state.digest);
            for line in &lines {
                state.digest = fnv_fold(state.digest, line);
                state.digest = fnv_fold(state.digest, b"\n");
                state.offset += 1;
                if matches!(checkpoint, Some(c) if c.offset == state.offset) {
                    digest_at_checkpoint = Some(state.digest);
                }
            }
            if let Some(checkpoint) = checkpoint {
                // The stream may run past the checkpoint (a crash between
                // an append and its checkpoint put), never short of it.
                let digest = digest_at_checkpoint.unwrap_or_else(|| {
                    panic!(
                        "state dir corrupt: {owner} checkpoint offset {} beyond the {} appended verdicts",
                        checkpoint.offset, state.offset
                    )
                });
                assert_eq!(
                    digest, checkpoint.digest,
                    "state dir corrupt: {owner} stream digest diverges from its checkpoint at offset {}",
                    checkpoint.offset
                );
            }
            state
        } else {
            StreamState::default()
        };

        let mut owners = self.owners.write().expect("owner table lock");
        if owners.iter().any(|o| o.name == owner) {
            return reject(RejectReason::DuplicateOwner);
        }
        telemetry::count("serve.owner.registered", 1);
        let index = owners.len() as u32;
        if !restore {
            if let Some(store) = &self.store {
                let record = RegisterOwner {
                    owner: owner.clone(),
                    seed,
                    preset: preset_name,
                    mechanism: mechanism_name,
                };
                store
                    .put(
                        NS_OWNERS,
                        &index.to_be_bytes(),
                        &refstate_wire::to_wire(&record),
                    )
                    .expect("state dir owner write");
            }
        }
        owners.push(Arc::new(OwnerShard {
            name: owner.clone(),
            index,
            seed,
            preset,
            mechanism,
            directory,
            pipeline: Arc::new(VerificationPipeline::new()),
            log: EventLog::new(),
            config: MechanismConfig::default(),
            ingress: Mutex::new(VecDeque::new()),
            exec: Mutex::new(()),
            outbox: Mutex::new(Vec::new()),
            stream: Mutex::new(stream),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            verified: AtomicU64::new(0),
            detected: AtomicU64::new(0),
            final_checks: AtomicU64::new(0),
            flush_verifications: AtomicU64::new(0),
            flush_failures: AtomicU64::new(0),
        }));
        Response::Registered { owner }
    }

    fn submit(&self, owner: String, journey: u64) -> Response {
        let Some(shard) = self.shard(&owner) else {
            return Response::Rejected {
                owner,
                journey,
                reason: RejectReason::UnknownOwner,
            };
        };
        let reason = {
            // One brief ingress lock covers the shutdown check, the bound
            // check, and the push. The shutdown check must sit *inside*
            // the lock: checked before it, a submit could read "not
            // shutting down", lose the race with a shutdown drain, and
            // push a journey nobody will ever settle. Inside the lock,
            // any push that beats the drain's first ingress peek is seen
            // and settled by it, and any push after the flag is visible
            // is refused — either way the drain invariant holds.
            let mut ingress = shard.ingress.lock().expect("ingress lock");
            if self.is_shutting_down() {
                Some(RejectReason::ShuttingDown)
            } else if ingress.len() >= self.config.queue_capacity {
                Some(RejectReason::QueueFull)
            } else {
                ingress.push_back((journey, Instant::now()));
                None
            }
        };
        if let Some(reason) = reason {
            shard.rejected.fetch_add(1, Ordering::Relaxed);
            telemetry::count_indexed("serve.owner.rejected", shard.index, 1);
            return Response::Rejected {
                owner,
                journey,
                reason,
            };
        }
        self.bell.ring();
        shard.accepted.fetch_add(1, Ordering::Relaxed);
        telemetry::count_indexed("serve.owner.accepted", shard.index, 1);
        Response::Accepted { owner, journey }
    }

    /// Runs one service tick over every owner: each admitted journey
    /// executes its host-side part, then each owner's outstanding
    /// owner-side work settles in one amortized batch. Returns the number
    /// of verdicts produced. Independent owners settle in parallel when
    /// `settle_workers > 1`.
    pub fn tick(&self) -> u64 {
        let shards = self.shards();
        self.tick_shards(&shards)
    }

    fn tick_named(&self, names: Vec<String>) -> Response {
        let mut shards = Vec::with_capacity(names.len());
        for name in names {
            match self.shard(&name) {
                Some(shard) => shards.push(shard),
                None => {
                    return Response::Rejected {
                        owner: name,
                        journey: 0,
                        reason: RejectReason::UnknownOwner,
                    }
                }
            }
        }
        Response::Ticked {
            settled: self.tick_shards(&shards),
        }
    }

    /// Ticks the given shards, farming independent owners out to
    /// `settle_workers` threads. Per-owner verdict order is pinned by
    /// each shard's exec lock regardless of the worker count.
    pub(crate) fn tick_shards(&self, shards: &[Arc<OwnerShard>]) -> u64 {
        let _span = telemetry::span("serve.tick", "serve");
        let workers = match self.config.settle_workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
        .min(shards.len())
        .max(1);

        let settled_total = if workers <= 1 {
            shards.iter().map(|shard| self.tick_shard(shard)).sum()
        } else {
            let next = AtomicUsize::new(0);
            let settled = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(shard) = shards.get(i) else { break };
                        settled.fetch_add(self.tick_shard(shard), Ordering::Relaxed);
                    });
                }
            });
            settled.into_inner()
        };
        telemetry::count("serve.tick.verdicts", settled_total);
        settled_total
    }

    fn tick_shard(&self, shard: &OwnerShard) -> u64 {
        // The exec lock is held across drain → run → settle → append:
        // concurrent tickers serialize here, per owner, which is what
        // pins the outbox to admission order.
        let _exec = shard.exec.lock().expect("exec lock");
        let jobs: Vec<(u64, Instant)> = {
            let mut ingress = shard.ingress.lock().expect("ingress lock");
            ingress.drain(..).collect()
        };
        if jobs.is_empty() {
            return 0;
        }
        // Verdicts never read prior ticks' events; clearing bounds the
        // resident log instead of letting it grow for the process
        // lifetime.
        shard.log.clear();

        let env = JourneyEnv {
            seed: shard.seed,
            directory: &shard.directory,
            config: &shard.config,
            pipeline: &shard.pipeline,
            log: &shard.log,
        };
        let pool = &self.params_pool;
        let key = move |_: usize, spec: &HostSpec| {
            &pool[key_index(shard.seed, spec.id.as_str(), pool.len())]
        };
        let splits = jobs
            .iter()
            .map(|&(journey, queued_at)| {
                telemetry::observe(
                    "serve.queue_wait_us",
                    queued_at.elapsed().as_micros() as u64,
                );
                let generated = scenario::generate(shard.seed, journey, shard.preset);
                // A topology mismatch (e.g. `replication` on a linear
                // preset) is the owner's registration error, surfaced as
                // an infrastructure verdict rather than a dropped journey.
                run_journey(&env, &generated, shard.mechanism.as_ref(), key)
                    .map_or_else(|| JourneyVerdict::clean(false).into(), |(split, _)| split)
            })
            .collect();

        // The amortized owner-side pass: one re-execution pass plus one
        // signature flush for everything this owner deferred this tick;
        // verdicts come back in admission order whichever path a journey
        // took.
        let (verdicts, stats) = {
            let _scope = telemetry::scoped(shard.mechanism.name());
            settle(
                splits,
                &shard.config,
                &shard.pipeline,
                &shard.log,
                &shard.directory,
            )
        };
        shard
            .final_checks
            .fetch_add(stats.final_checks as u64, Ordering::Relaxed);
        shard
            .flush_verifications
            .fetch_add(stats.flush_verifications as u64, Ordering::Relaxed);
        shard.flush_failures.fetch_add(
            (stats.flush_failures + stats.unattributed_failures) as u64,
            Ordering::Relaxed,
        );
        let replies: Vec<VerdictReply> = jobs
            .iter()
            .zip(&verdicts)
            .map(|(&(journey, _), verdict)| {
                verdict_reply(shard.name.clone(), journey, shard.mechanism.name(), verdict)
            })
            .collect();

        // Persist the batch to the owner's durable stream (still under
        // the exec lock, so the store's append order is the verdict
        // order) and advance the offset/digest checkpoint. Appends land
        // before the checkpoint put: a crash in between leaves the
        // stream ahead of its checkpoint, which replay-on-open accepts.
        {
            let mut stream = shard.stream.lock().expect("stream lock");
            let ns = self.store.as_ref().map(|_| stream_ns(&shard.name));
            for reply in &replies {
                let line = reply.stream_line();
                if let (Some(store), Some(ns)) = (&self.store, &ns) {
                    store
                        .append(ns, line.as_bytes())
                        .expect("state dir stream append");
                }
                stream.digest = fnv_fold(stream.digest, line.as_bytes());
                stream.digest = fnv_fold(stream.digest, b"\n");
                stream.offset += 1;
            }
            if let Some(store) = &self.store {
                store
                    .put(
                        NS_CHECKPOINT,
                        shard.name.as_bytes(),
                        &encode_checkpoint(*stream),
                    )
                    .expect("state dir checkpoint write");
            }
        }

        let settled = replies.len() as u64;
        let mut outbox = shard.outbox.lock().expect("outbox lock");
        for reply in replies {
            shard.verified.fetch_add(1, Ordering::Relaxed);
            if reply.detected {
                shard.detected.fetch_add(1, Ordering::Relaxed);
            }
            outbox.push(reply);
        }
        drop(outbox);
        telemetry::count_indexed("serve.owner.verified", shard.index, settled);
        settled
    }

    fn drain(&self, owner: String) -> Response {
        let Some(shard) = self.shard(&owner) else {
            return Response::Rejected {
                owner,
                journey: 0,
                reason: RejectReason::UnknownOwner,
            };
        };
        let verdicts = std::mem::take(&mut *shard.outbox.lock().expect("outbox lock"));
        Response::Verdicts(verdicts)
    }

    fn stats(&self, owner: String) -> Response {
        let Some(shard) = self.shard(&owner) else {
            return Response::Rejected {
                owner,
                journey: 0,
                reason: RejectReason::UnknownOwner,
            };
        };
        let pending = shard.ingress.lock().expect("ingress lock").len() as u64;
        let undrained = shard.outbox.lock().expect("outbox lock").len() as u64;
        let stream_offset = shard.stream.lock().expect("stream lock").offset;
        Response::Stats(OwnerStats {
            owner,
            accepted: shard.accepted.load(Ordering::Relaxed),
            rejected: shard.rejected.load(Ordering::Relaxed),
            verified: shard.verified.load(Ordering::Relaxed),
            detected: shard.detected.load(Ordering::Relaxed),
            pending,
            undrained,
            queue_capacity: self.config.queue_capacity as u64,
            final_checks: shard.final_checks.load(Ordering::Relaxed),
            flush_verifications: shard.flush_verifications.load(Ordering::Relaxed),
            flush_failures: shard.flush_failures.load(Ordering::Relaxed),
            stream_offset,
        })
    }

    /// Totals over every owner, each read under the same brief ingress
    /// and outbox locks [`Request::Stats`] takes.
    fn health(&self) -> ServiceHealth {
        let shards = self.shards();
        let now = Instant::now();
        let mut health = ServiceHealth {
            shards: shards.len() as u64,
            generation: self.store.as_ref().map_or(0, |store| store.generation()),
            ..ServiceHealth::default()
        };
        for shard in &shards {
            let ingress = shard.ingress.lock().expect("ingress lock");
            health.queued += ingress.len() as u64;
            if let Some(&(_, admitted)) = ingress.front() {
                let age = now.saturating_duration_since(admitted).as_micros() as u64;
                health.oldest_queued_us = health.oldest_queued_us.max(age);
            }
            drop(ingress);
            health.undrained += shard.outbox.lock().expect("outbox lock").len() as u64;
        }
        health
    }

    /// Every owner's durable stream position, in registration order,
    /// plus the store's open-generation stamp (0 without a state dir).
    fn stream_state(&self) -> Response {
        let generation = self.store.as_ref().map_or(0, |store| store.generation());
        let owners = self
            .shards()
            .iter()
            .map(|shard| {
                let stream = shard.stream.lock().expect("stream lock");
                StreamCheckpoint {
                    owner: shard.name.clone(),
                    offset: stream.offset,
                    digest: format!("{:016x}", stream.digest),
                }
            })
            .collect();
        Response::StreamState { generation, owners }
    }

    /// Stops admitting work and settles every accepted journey. The
    /// outboxes stay drainable afterwards, so no accepted journey's
    /// verdict is ever dropped. Safe to race with a running tick driver:
    /// whoever wins an owner's exec lock settles that owner's batch.
    fn shutdown(&self) -> Response {
        self.shutting_down.store(true, Ordering::SeqCst);
        // Wake a parked tick driver so it sees the flag and exits.
        self.bell.ring();
        let shards = self.shards();
        let mut settled = 0u64;
        loop {
            settled += self.tick_shards(&shards);
            // A concurrent ticker (the background driver, another
            // connection) may have drained an ingress queue and still be
            // mid-settle, its verdicts not yet in any outbox. Taking each
            // exec lock once fences those in-flight ticks: afterwards,
            // every journey any ticker drained has reached its outbox.
            for shard in &shards {
                drop(shard.exec.lock().expect("exec lock"));
            }
            if shards
                .iter()
                .all(|s| s.ingress.lock().expect("ingress lock").is_empty())
            {
                break;
            }
        }
        if let Some(store) = &self.store {
            store.sync().expect("state dir sync");
        }
        Response::ShuttingDown { settled }
    }
}

/// The process's metrics snapshot as JSONL, or nothing at telemetry level
/// `off`. The snapshot holds what the calling thread and every exited
/// thread recorded, what every live connection flushed after its last
/// handled request, and what the tick driver flushed after its last pass.
fn metrics_jsonl() -> String {
    if !telemetry::enabled() {
        return String::new();
    }
    telemetry::export::metrics_jsonl(&telemetry::snapshot())
}

fn verdict_reply(
    owner: String,
    journey: u64,
    mechanism: &str,
    verdict: &JourneyVerdict,
) -> VerdictReply {
    VerdictReply {
        owner,
        journey,
        mechanism: mechanism.to_owned(),
        detected: verdict.detected,
        accused: verdict
            .accused
            .iter()
            .map(|h| h.as_str().to_owned())
            .collect(),
        completed: verdict.completed,
        infra_error: verdict.infra_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn register(service: &Service, owner: &str, seed: u64, preset: &str, mechanism: &str) {
        let reply = service.handle(Request::Register(RegisterOwner {
            owner: owner.into(),
            seed,
            preset: preset.into(),
            mechanism: mechanism.into(),
        }));
        assert_eq!(
            reply,
            Response::Registered {
                owner: owner.into()
            }
        );
    }

    #[test]
    fn register_validates_preset_mechanism_and_duplicates() {
        let service = Service::new(ServeConfig::default());
        register(&service, "alice", 1, "mixed", "protocol");
        let duplicate = service.handle(Request::Register(RegisterOwner {
            owner: "alice".into(),
            seed: 2,
            preset: "mixed".into(),
            mechanism: "protocol".into(),
        }));
        assert!(matches!(
            duplicate,
            Response::Rejected {
                reason: RejectReason::DuplicateOwner,
                ..
            }
        ));
        let bad_preset = service.handle(Request::Register(RegisterOwner {
            owner: "bob".into(),
            seed: 2,
            preset: "wat".into(),
            mechanism: "protocol".into(),
        }));
        assert!(matches!(
            bad_preset,
            Response::Rejected {
                reason: RejectReason::UnknownPreset,
                ..
            }
        ));
        let bad_mechanism = service.handle(Request::Register(RegisterOwner {
            owner: "bob".into(),
            seed: 2,
            preset: "mixed".into(),
            mechanism: "wat".into(),
        }));
        assert!(matches!(
            bad_mechanism,
            Response::Rejected {
                reason: RejectReason::UnknownMechanism,
                ..
            }
        ));
        let bad_name = service.handle(Request::Register(RegisterOwner {
            owner: "a/b".into(),
            seed: 2,
            preset: "mixed".into(),
            mechanism: "protocol".into(),
        }));
        assert!(matches!(bad_name, Response::Error { .. }));
    }

    #[test]
    fn racing_registrations_of_one_name_admit_exactly_one() {
        let service = Service::new(ServeConfig::default());
        let start = std::sync::Barrier::new(8);
        let replies: Vec<Response> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8u64)
                .map(|seed| {
                    let (service, start) = (&service, &start);
                    scope.spawn(move || {
                        start.wait();
                        service.handle(Request::Register(RegisterOwner {
                            owner: "alice".into(),
                            seed,
                            preset: "mixed".into(),
                            mechanism: "protocol".into(),
                        }))
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let admitted = replies
            .iter()
            .filter(|r| matches!(r, Response::Registered { .. }))
            .count();
        assert_eq!(admitted, 1, "{replies:?}");
        assert!(
            replies.iter().all(|r| matches!(
                r,
                Response::Registered { .. }
                    | Response::Rejected {
                        reason: RejectReason::DuplicateOwner,
                        ..
                    }
            )),
            "{replies:?}"
        );
        assert_eq!(service.owner_names(), vec!["alice".to_owned()]);
    }

    #[test]
    fn owner_directories_hold_only_their_own_hosts() {
        let service = Service::new(ServeConfig::default());
        register(&service, "alice", 1, "mixed", "protocol");
        register(&service, "bob", 2, "mixed", "protocol");
        let mut universe = host_universe();
        universe.sort();
        let pool = &service.params_pool;
        let alice = &service.shard("alice").unwrap().directory;
        let bob = &service.shard("bob").unwrap().directory;
        for (dir, seed) in [(alice, 1), (bob, 2)] {
            let names: Vec<&str> = dir.iter().map(|(name, _)| name).collect();
            assert_eq!(names, universe);
            for (name, key) in dir.iter() {
                let pooled = pool[key_index(seed, name, pool.len())].public();
                assert_eq!(key, pooled, "{name}");
            }
        }
        assert!(
            universe.iter().any(|h| alice.lookup(h) != bob.lookup(h)),
            "different seeds draw different keys for some host"
        );
    }

    #[test]
    fn submit_to_unknown_owner_is_rejected() {
        let service = Service::new(ServeConfig::default());
        let reply = service.handle(Request::Submit {
            owner: "ghost".into(),
            journey: 0,
        });
        assert!(matches!(
            reply,
            Response::Rejected {
                reason: RejectReason::UnknownOwner,
                ..
            }
        ));
    }

    #[test]
    fn tick_settles_submitted_journeys_in_admission_order() {
        let service = Service::new(ServeConfig::default());
        register(&service, "alice", 7, "single-tamperer", "protocol");
        for journey in [3u64, 0, 5] {
            let reply = service.handle(Request::Submit {
                owner: "alice".into(),
                journey,
            });
            assert!(matches!(reply, Response::Accepted { .. }));
        }
        assert_eq!(
            service.handle(Request::Tick),
            Response::Ticked { settled: 3 }
        );
        let Response::Verdicts(verdicts) = service.handle(Request::Drain {
            owner: "alice".into(),
        }) else {
            panic!("drain returns verdicts");
        };
        assert_eq!(
            verdicts.iter().map(|v| v.journey).collect::<Vec<_>>(),
            vec![3, 0, 5],
            "outbox preserves admission order"
        );
        // Single-tamperer scenarios under the protocol mechanism detect.
        assert!(verdicts.iter().all(|v| v.mechanism == "protocol"));
        assert!(verdicts.iter().any(|v| v.detected));
        // A second drain is empty (the outbox moved out).
        let Response::Verdicts(rest) = service.handle(Request::Drain {
            owner: "alice".into(),
        }) else {
            panic!("drain returns verdicts");
        };
        assert!(rest.is_empty());
    }

    #[test]
    fn tick_owners_ticks_only_the_named_owners() {
        let service = Service::new(ServeConfig::default());
        register(&service, "alice", 7, "single-tamperer", "protocol");
        register(&service, "bob", 8, "single-tamperer", "protocol");
        for owner in ["alice", "bob"] {
            for journey in 0..3u64 {
                service.handle(Request::Submit {
                    owner: owner.into(),
                    journey,
                });
            }
        }
        // Tick alice alone: bob's queue is untouched.
        assert_eq!(
            service.handle(Request::TickOwners(vec!["alice".into()])),
            Response::Ticked { settled: 3 }
        );
        let Response::Stats(bob) = service.handle(Request::Stats {
            owner: "bob".into(),
        }) else {
            panic!("stats");
        };
        assert_eq!(bob.pending, 3);
        assert_eq!(bob.verified, 0);
        // An unknown name is rejected outright, before any tick runs.
        let reply = service.handle(Request::TickOwners(vec!["ghost".into()]));
        assert!(matches!(
            reply,
            Response::Rejected {
                reason: RejectReason::UnknownOwner,
                ..
            }
        ));
    }

    #[test]
    fn service_verdicts_match_fleet_engine_verdicts() {
        // The resident service and the batch fleet engine must agree on
        // what a journey's verdict is — both run the same scenario →
        // journey path, and verdicts do not depend on which (registered)
        // key a host signs with, so the differing key pools must not
        // show. One row per preset × built-in mechanism over the first 8
        // journeys; the seed is the first whose adaptive window churns a
        // host, so the churn path is compared too.
        let registry = MechanismRegistry::builtin();
        let seed = (11u64..)
            .find(|&seed| {
                (0..8).any(|id| {
                    scenario::generate(seed, id, Preset::Adaptive)
                        .churned
                        .is_some()
                })
            })
            .expect("some adaptive window churns");
        let service = Service::new(ServeConfig::default());
        for preset in Preset::ALL {
            let fleet = refstate_fleet::run_fleet(&refstate_fleet::FleetConfig {
                scenarios: 8,
                workers: 2,
                seed,
                preset,
                mechanisms: registry.all(),
                key_pool: 8,
                ..refstate_fleet::FleetConfig::default()
            });
            for mechanism in registry.names() {
                let owner = format!("{}-{mechanism}", preset.name());
                register(&service, &owner, seed, preset.name(), mechanism);
                for journey in 0..8u64 {
                    service.handle(Request::Submit {
                        owner: owner.clone(),
                        journey,
                    });
                }
                service.handle(Request::TickOwners(vec![owner.clone()]));
                let Response::Verdicts(verdicts) = service.handle(Request::Drain {
                    owner: owner.clone(),
                }) else {
                    panic!("drain returns verdicts");
                };
                assert_eq!(verdicts.len(), 8, "{owner}");
                for (verdict, result) in verdicts.iter().zip(&fleet.results) {
                    let row = format!("{owner} journey {}", verdict.journey);
                    assert_eq!(verdict.journey, result.id, "{row}");
                    let Some(run) = result.runs.iter().find(|run| run.mechanism == mechanism)
                    else {
                        // The fleet skips an incompatible topology; the
                        // service reports it as an infrastructure verdict.
                        assert!(verdict.infra_error && !verdict.detected, "{row}");
                        continue;
                    };
                    assert_eq!(
                        (verdict.detected, verdict.completed, verdict.infra_error),
                        (run.detected, run.completed, run.infra_error),
                        "{row}"
                    );
                    let generated = scenario::generate(seed, verdict.journey, preset);
                    let attacker = generated.attacker.as_ref().map(|(host, _)| host.as_str());
                    let false_accusation =
                        verdict.accused.iter().any(|a| Some(a.as_str()) != attacker);
                    assert_eq!(false_accusation, run.false_accusation, "{row}");
                    let correct_culprit = verdict
                        .detected
                        .then(|| attacker.map(|a| verdict.accused.iter().any(|x| x == a)))
                        .flatten();
                    assert_eq!(correct_culprit, run.correct_culprit, "{row}");
                }
            }
        }
    }

    #[test]
    fn stats_track_admission_and_settlement() {
        let service = Service::new(ServeConfig {
            queue_capacity: 4,
            ..ServeConfig::default()
        });
        register(&service, "alice", 3, "all-honest", "protocol");
        for journey in 0..4u64 {
            service.handle(Request::Submit {
                owner: "alice".into(),
                journey,
            });
        }
        let overflow = service.handle(Request::Submit {
            owner: "alice".into(),
            journey: 4,
        });
        assert!(matches!(
            overflow,
            Response::Rejected {
                reason: RejectReason::QueueFull,
                ..
            }
        ));
        let Response::Stats(before) = service.handle(Request::Stats {
            owner: "alice".into(),
        }) else {
            panic!("stats");
        };
        assert_eq!(before.accepted, 4);
        assert_eq!(before.rejected, 1);
        assert_eq!(before.pending, 4);
        assert_eq!(before.verified, 0);
        assert_eq!(before.queue_capacity, 4);

        service.handle(Request::Tick);
        let Response::Stats(after) = service.handle(Request::Stats {
            owner: "alice".into(),
        }) else {
            panic!("stats");
        };
        assert_eq!(after.verified, 4);
        assert_eq!(after.pending, 0);
        assert_eq!(after.undrained, 4);
        assert!(
            after.flush_verifications > 0,
            "protocol journeys defer signatures into the amortized flush"
        );
    }

    #[test]
    fn owners_are_isolated() {
        // Two owners with the same seed and preset produce identical
        // verdict streams — and neither sees the other's journeys.
        let service = Service::new(ServeConfig::default());
        register(&service, "alice", 5, "mixed", "protocol");
        register(&service, "bob", 5, "mixed", "protocol");
        for journey in 0..6u64 {
            service.handle(Request::Submit {
                owner: "alice".into(),
                journey,
            });
            service.handle(Request::Submit {
                owner: "bob".into(),
                journey,
            });
        }
        service.handle(Request::Tick);
        let Response::Verdicts(alice) = service.handle(Request::Drain {
            owner: "alice".into(),
        }) else {
            panic!("drain");
        };
        let Response::Verdicts(bob) = service.handle(Request::Drain {
            owner: "bob".into(),
        }) else {
            panic!("drain");
        };
        assert_eq!(alice.len(), 6);
        assert_eq!(bob.len(), 6);
        for (a, b) in alice.iter().zip(&bob) {
            assert_eq!(a.owner, "alice");
            assert_eq!(b.owner, "bob");
            assert_eq!(a.journey, b.journey);
            assert_eq!(a.detected, b.detected);
            assert_eq!(a.accused, b.accused);
        }
    }

    #[test]
    fn parallel_settle_workers_preserve_per_owner_streams() {
        // The same four-owner workload, settled sequentially and with a
        // worker pool: per-owner verdict streams must be byte-identical.
        let run = |settle_workers: usize| -> Vec<Vec<String>> {
            let service = Service::new(ServeConfig {
                settle_workers,
                key_pool: 8,
                ..ServeConfig::default()
            });
            for (i, owner) in ["a", "b", "c", "d"].iter().enumerate() {
                register(&service, owner, 100 + i as u64, "mixed", "protocol");
            }
            for journey in 0..6u64 {
                for owner in ["a", "b", "c", "d"] {
                    service.handle(Request::Submit {
                        owner: owner.into(),
                        journey,
                    });
                }
            }
            service.handle(Request::Tick);
            ["a", "b", "c", "d"]
                .iter()
                .map(|owner| {
                    let Response::Verdicts(verdicts) = service.handle(Request::Drain {
                        owner: (*owner).into(),
                    }) else {
                        panic!("drain");
                    };
                    verdicts.iter().map(|v| v.stream_line()).collect()
                })
                .collect()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn incompatible_topology_is_an_infra_verdict_not_a_drop() {
        let service = Service::new(ServeConfig::default());
        // `replication` needs staged scenarios; `mixed` never stages.
        register(&service, "alice", 5, "mixed", "replication");
        service.handle(Request::Submit {
            owner: "alice".into(),
            journey: 0,
        });
        service.handle(Request::Tick);
        let Response::Verdicts(verdicts) = service.handle(Request::Drain {
            owner: "alice".into(),
        }) else {
            panic!("drain");
        };
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0].infra_error);
        assert!(!verdicts[0].detected);
    }

    #[test]
    fn replicated_preset_runs_replication_end_to_end() {
        let service = Service::new(ServeConfig::default());
        register(&service, "alice", 17, "replicated", "replication");
        for journey in 0..6u64 {
            service.handle(Request::Submit {
                owner: "alice".into(),
                journey,
            });
        }
        service.handle(Request::Tick);
        let Response::Verdicts(verdicts) = service.handle(Request::Drain {
            owner: "alice".into(),
        }) else {
            panic!("drain");
        };
        assert_eq!(verdicts.len(), 6);
        assert!(verdicts.iter().all(|v| !v.infra_error));
        assert!(verdicts.iter().any(|v| v.detected));
    }
}
