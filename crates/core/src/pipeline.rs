//! The unified verification pipeline: one entry point for every
//! reference-state re-execution, with a shared, sharded replay cache.
//!
//! The paper's core loop — recompute a reference state from a recorded
//! input log and compare (Sec. 4) — was, before this module, written four
//! times: in [`crate::checker::ReExecutionChecker`], in
//! [`crate::protocol`]'s per-hop arrival check, in the owner-side final
//! check, and in the traces mechanism's audit. Each re-ran the same
//! `(program, start state, input log)` triple from scratch, and a fleet
//! driver running several mechanisms over one scenario re-ran *identical*
//! triples once per mechanism.
//!
//! [`VerificationPipeline`] collapses those call sites into one:
//!
//! * sessions are identified by program × start state × input log
//!   (the VM-level [`refstate_vm::SessionFingerprint`] for logs and
//!   labels; the cache key itself uses SHA-256 digests — see below),
//! * re-execution goes through the VM's pre-compiled fast path
//!   ([`refstate_vm::run_compiled_session`] over
//!   [`Program::compiled`]),
//! * results land in an `Arc`-shared, sharded [`ReplayCache`], so
//!   duplicate re-executions across hops, replicas, and mechanisms
//!   become lock-striped cache hits,
//! * every replay is counted in [`PipelineStats`], so fleet reports can
//!   prove the dedup (replays strictly below journeys × hops).
//!
//! Cache entries hold the *digest* of the reference state (plus the
//! session end and log-consumption flag), not the state itself: passing
//! checks compare digests, and the rare failing check re-derives the full
//! reference state once for diffing and fraud evidence.
//!
//! **Key collision resistance.** A cached verdict substitutes for a
//! replay, so the key must be as strong as the comparison it replaces:
//! the initial-state and input-log components — the data a malicious
//! host supplies — are SHA-256 digests, never the fast non-cryptographic
//! fingerprint (a host able to alias an already-verified honest session
//! could otherwise ride its cached verdict). The program component is
//! the compiled form's content hash, sound because every caller replays
//! its *own* trusted copy of the agent code.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use refstate_crypto::{sha256, Digest};
use refstate_telemetry as telemetry;
use refstate_vm::{
    run_compiled_session, CompiledProgram, DataState, ExecConfig, InputLog, Program, ReplayIo,
    SessionEnd, SessionFingerprint, SessionOutcome, VmError,
};
use refstate_wire::to_wire;

use crate::checker::{state_diff, CheckOutcome, FailureReason};

/// What one replayed session reduced to: enough to judge any *passing*
/// check without keeping the state, and enough context to re-derive the
/// state on the rare failing one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplaySummary {
    /// The re-execution completed.
    Ok {
        /// SHA-256 of the reference state's canonical encoding.
        state_digest: Digest,
        /// How the reference execution ended.
        end: SessionEnd,
        /// Whether the replay consumed the entire recorded input log
        /// (`false` = padded log; callers decide whether that is a
        /// failure — the checker says yes, the Vigna audit historically
        /// ignores it).
        log_consumed: bool,
    },
    /// The re-execution itself failed (tampered log, broken code),
    /// rendered.
    Failed(String),
}

/// Number of lock-striped shards in a [`ReplayCache`].
const SHARDS: usize = 16;

/// Entries retained per shard before least-recently-used eviction kicks
/// in: at most `SHARDS × SHARD_CAP` memoized sessions (~64k summaries, a
/// few MB) live at once, so a long-running service cannot grow without
/// bound. Eviction costs only future hit-rate, never correctness — the
/// memo is a pure function of its key.
const SHARD_CAP: usize = 4096;

/// The memo key of one replay. The initial state and input log are
/// **attacker-suppliable** (they arrive in certificates and stored
/// traces), so their components are SHA-256 digests — a host must not be
/// able to craft a session that aliases an already-verified honest entry
/// and ride its cached verdict. The program component stays the compiled
/// form's content hash: every call site replays the *verifier's own*
/// copy of the agent code, never code an adversary chose. The step limit
/// participates because a replay that exhausts a small limit is not
/// evidence about a larger one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    code_hash: u128,
    initial: Digest,
    input: Digest,
    step_limit: u64,
}

/// One lock-striped shard: the memo map plus a monotone use counter for
/// LRU eviction.
#[derive(Default)]
struct Shard {
    /// Each entry carries the tick of its last touch (insert or hit).
    entries: HashMap<CacheKey, (ReplaySummary, u64)>,
    tick: u64,
    /// Entries removed by the LRU bound since creation.
    evictions: u64,
    /// This shard's LRU bound; shards split the cache capacity exactly,
    /// so small capacities give some shards a larger share.
    cap: usize,
}

impl Shard {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// The `Arc`-shared memo of reference-state recomputations, sharded to
/// keep fleet workers off each other's locks and **LRU-bounded** per
/// shard: once a shard reaches its capacity, inserting a new session
/// evicts the least-recently-used one (an `O(shard capacity)` scan —
/// trivial next to the replay the insert just paid for). A long-lived
/// service therefore keeps its hottest sessions memoized instead of
/// periodically losing everything to a wholesale clear.
pub struct ReplayCache {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
}

impl Default for ReplayCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplayCache {
    /// The entry bound [`ReplayCache::new`] builds with.
    pub const DEFAULT_CAPACITY: usize = SHARDS * SHARD_CAP;

    /// An empty cache with the default shard count and capacity
    /// (`SHARDS × SHARD_CAP` entries).
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache bounded to **exactly** `capacity` entries total
    /// (minimum 1). Capacities below the default shard count get one
    /// shard per entry, so `with_capacity(4)` really holds 4 sessions —
    /// the bound is never silently inflated to a shard multiple; larger
    /// capacities split any remainder across the leading shards.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shard_count = SHARDS.min(capacity);
        let shards = (0..shard_count)
            .map(|i| {
                let cap = capacity / shard_count + usize::from(i < capacity % shard_count);
                Mutex::new(Shard {
                    cap,
                    ..Shard::default()
                })
            })
            .collect();
        ReplayCache { shards, capacity }
    }

    /// The hard bound on memoized sessions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        // The key components are already content hashes; fold the first
        // digest byte into a shard index directly.
        let mix = key.code_hash as usize ^ key.initial.as_bytes()[0] as usize;
        &self.shards[mix % self.shards.len()]
    }

    fn get(&self, key: &CacheKey) -> Option<ReplaySummary> {
        let mut shard = self.shard(key).lock();
        let tick = shard.touch();
        let (summary, last_used) = shard.entries.get_mut(key)?;
        *last_used = tick;
        Some(summary.clone())
    }

    fn insert(&self, key: CacheKey, value: ReplaySummary) {
        let mut shard = self.shard(&key).lock();
        let tick = shard.touch();
        if shard.entries.len() >= shard.cap && !shard.entries.contains_key(&key) {
            // Evict the least-recently-used entry to stay within bound.
            if let Some(victim) = shard
                .entries
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| *k)
            {
                shard.entries.remove(&victim);
                shard.evictions += 1;
                telemetry::count("pipeline.cache_evict", 1);
            }
        }
        shard.entries.insert(key, (value, tick));
    }

    /// Number of memoized sessions across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Returns `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries removed by the LRU bound since creation.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().evictions).sum()
    }

    /// Per-shard occupancy and eviction counts, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock();
                ShardStats {
                    entries: shard.entries.len(),
                    capacity: shard.cap,
                    evictions: shard.evictions,
                }
            })
            .collect()
    }
}

/// A point-in-time view of one [`ReplayCache`] shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Memoized sessions currently resident in the shard.
    pub entries: usize,
    /// The shard's LRU bound.
    pub capacity: usize,
    /// Entries removed by the LRU bound since creation.
    pub evictions: u64,
}

impl fmt::Debug for ReplayCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplayCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity())
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Monotone counters of one pipeline's work. Shared across every clone of
/// the pipeline handle, so a fleet run reads one aggregate at the end.
#[derive(Debug, Default)]
pub struct PipelineStats {
    hits: AtomicU64,
    misses: AtomicU64,
    replays: AtomicU64,
}

/// A point-in-time copy of [`PipelineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStatsSnapshot {
    /// [`VerificationPipeline::replay`] calls answered from the cache.
    pub hits: u64,
    /// [`VerificationPipeline::replay`] calls that required a real
    /// replay (cache miss, or the cache disabled). Full replays
    /// ([`VerificationPipeline::replay_full`]) perform no lookup and do
    /// not count here, so `hit_rate` reflects cache traffic alone.
    pub misses: u64,
    /// All VM re-executions performed: the misses plus the full replays
    /// (custom comparators, evidence re-derivations).
    pub replays: u64,
    /// Cache entries removed by the LRU bound (0 when uncached).
    pub evictions: u64,
    /// Memoized sessions resident when the snapshot was taken (0 when
    /// uncached).
    pub cache_entries: u64,
    /// The cache's hard bound on memoized sessions (0 when uncached).
    pub cache_capacity: u64,
}

impl PipelineStatsSnapshot {
    /// Fraction of lookups answered from the cache (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The one verification pipeline every re-execution-based check funnels
/// through.
///
/// Cheap to share: drivers hold it as `Arc<VerificationPipeline>` and
/// hand clones to checkers, protocol configs, and journey contexts. An
/// *uncached* pipeline still uses the compiled fast path and counts its
/// replays — it simply memoizes nothing.
pub struct VerificationPipeline {
    cache: Option<Arc<ReplayCache>>,
    stats: PipelineStats,
}

impl fmt::Debug for VerificationPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerificationPipeline")
            .field("cached", &self.cache.is_some())
            .field("stats", &self.snapshot())
            .finish()
    }
}

impl Default for VerificationPipeline {
    fn default() -> Self {
        Self::uncached()
    }
}

impl VerificationPipeline {
    /// A pipeline without a replay cache: compiled fast path and replay
    /// counting only. The default everywhere a driver does not opt into
    /// sharing.
    pub fn uncached() -> Self {
        VerificationPipeline {
            cache: None,
            stats: PipelineStats::default(),
        }
    }

    /// A pipeline memoizing into `cache` (share the `Arc` across drivers
    /// to dedup their re-executions).
    pub fn with_cache(cache: Arc<ReplayCache>) -> Self {
        VerificationPipeline {
            cache: Some(cache),
            stats: PipelineStats::default(),
        }
    }

    /// Whether a replay cache is attached.
    pub fn is_cached(&self) -> bool {
        self.cache.is_some()
    }

    /// The counters so far, plus the attached cache's occupancy facts.
    pub fn snapshot(&self) -> PipelineStatsSnapshot {
        let (evictions, cache_entries, cache_capacity) = match &self.cache {
            Some(cache) => (
                cache.evictions(),
                cache.len() as u64,
                cache.capacity() as u64,
            ),
            None => (0, 0, 0),
        };
        PipelineStatsSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            replays: self.stats.replays.load(Ordering::Relaxed),
            evictions,
            cache_entries,
            cache_capacity,
        }
    }

    /// Replays one session (memoized): the reference-state digest, the
    /// session end, and whether the log was fully consumed.
    ///
    /// This is the hot path of every check. Replays run the compiled VM
    /// loop with outputs suppressed and tracing off; when a cache is
    /// attached, the SHA-256-backed cache key keys the memo and labels
    /// the replay's step-limit errors (an uncached pipeline skips the key
    /// entirely — there is no cache to poison and no key to compute).
    pub fn replay(
        &self,
        program: &Program,
        initial: &DataState,
        input: &InputLog,
        exec: &ExecConfig,
    ) -> ReplaySummary {
        // The probe timer covers key hashing plus the shard lookup — the
        // true cost of a cache hit; misses hand off to the replay timer.
        let probe = telemetry::Timer::start();
        let compiled = program.compiled();
        let key = self.cache.as_ref().map(|cache| {
            let key = CacheKey {
                code_hash: compiled.code_hash(),
                initial: sha256(&to_wire(initial)),
                input: sha256(&to_wire(input)),
                step_limit: exec.step_limit,
            };
            (cache, key)
        });
        if let Some((cache, key)) = &key {
            if let Some(hit) = cache.get(key) {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                telemetry::count("pipeline.cache_hit", 1);
                probe.finish("verify.cache_hit", "pipeline");
                return hit;
            }
        }
        drop(probe);
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::count("pipeline.cache_miss", 1);
        // Cached replays carry the VM-level session fingerprint as their
        // step-limit label (computed on misses only — it exists so a
        // poisoned or runaway cache entry is attributable in fleet logs).
        let label = key.as_ref().map(|_| {
            SessionFingerprint::with_program_hash(compiled.code_hash(), initial, input).label()
        });
        let summary = match self.run_replay(&compiled, initial, input, exec, label) {
            Ok((outcome, log_consumed)) => ReplaySummary::Ok {
                state_digest: sha256(&to_wire(&outcome.state)),
                end: outcome.end,
                log_consumed,
            },
            Err(e) => ReplaySummary::Failed(e.to_string()),
        };
        if let Some((cache, key)) = key {
            cache.insert(key, summary.clone());
        }
        summary
    }

    /// Replays one session uncached and returns the full outcome — the
    /// slow entry point for custom state comparators and for fraud
    /// evidence, which need the reference *state*, not its digest.
    ///
    /// Performs no cache lookup, so it moves only the `replays` counter
    /// (never `misses` — the snapshot's hit rate reflects cache traffic
    /// alone).
    ///
    /// # Errors
    ///
    /// Propagates the replay's [`VmError`].
    pub fn replay_full(
        &self,
        program: &Program,
        initial: &DataState,
        input: &InputLog,
        exec: &ExecConfig,
    ) -> Result<(SessionOutcome, bool), VmError> {
        let compiled = program.compiled();
        self.run_replay(&compiled, initial, input, exec, None)
    }

    /// Re-derives the full reference state of a session (for diffing and
    /// fraud evidence); `None` when the replay fails.
    pub fn reference_state(
        &self,
        program: &Program,
        initial: &DataState,
        input: &InputLog,
        exec: &ExecConfig,
    ) -> Option<DataState> {
        self.replay_full(program, initial, input, exec)
            .ok()
            .map(|(outcome, _)| outcome.state)
    }

    fn run_replay(
        &self,
        compiled: &CompiledProgram,
        initial: &DataState,
        input: &InputLog,
        exec: &ExecConfig,
        session_label: Option<String>,
    ) -> Result<(SessionOutcome, bool), VmError> {
        self.stats.replays.fetch_add(1, Ordering::Relaxed);
        telemetry::count("pipeline.replay", 1);
        let timer = telemetry::Timer::start();
        let mut replay = ReplayIo::new(input);
        let exec = ExecConfig {
            trace_mode: refstate_vm::TraceMode::Off,
            session_label,
            ..exec.clone()
        };
        let result = run_compiled_session(compiled, initial.clone(), &mut replay, &exec);
        timer.finish("verify.replay", "pipeline");
        let outcome = result?;
        Ok((outcome, replay.fully_consumed()))
    }

    /// The full exact-comparison session check: replay (memoized),
    /// compare the claimed resulting state by digest, optionally compare
    /// the claimed session end, and on any mismatch re-derive the full
    /// reference state once for the variable-level diff.
    ///
    /// `claimed_next` follows the checker convention: `None` skips the
    /// end check; `Some(None)` claims a halt; `Some(Some(host))` claims a
    /// migration.
    pub fn verify_session(
        &self,
        program: &Program,
        initial: &DataState,
        claimed: &DataState,
        input: &InputLog,
        claimed_next: Option<&Option<String>>,
        exec: &ExecConfig,
    ) -> CheckOutcome {
        self.verify_session_with_reference(program, initial, claimed, input, claimed_next, exec)
            .0
    }

    /// [`VerificationPipeline::verify_session`] that also hands back the
    /// full reference state when a failed check already materialized one
    /// (state mismatches and, on the uncached arm, every judged replay) —
    /// so fraud-evidence builders do not replay the session a second
    /// time. `None` on a pass, and for failures where no reference state
    /// exists (failed replays, padded logs).
    pub fn verify_session_with_reference(
        &self,
        program: &Program,
        initial: &DataState,
        claimed: &DataState,
        input: &InputLog,
        claimed_next: Option<&Option<String>>,
        exec: &ExecConfig,
    ) -> (CheckOutcome, Option<DataState>) {
        let _span = telemetry::span("verify.session", "pipeline");
        if self.cache.is_none() {
            // No memo to consult or feed: replay once and compare the
            // states directly — no fingerprinting, no hashing unless a
            // mismatch needs its digests for the failure report.
            return self.verify_session_direct(
                program,
                initial,
                claimed,
                input,
                claimed_next,
                exec,
            );
        }
        let (state_digest, end, log_consumed) = match self.replay(program, initial, input, exec) {
            ReplaySummary::Failed(error) => {
                return (
                    CheckOutcome::Failed(FailureReason::ReplayFailed { error }),
                    None,
                )
            }
            ReplaySummary::Ok {
                state_digest,
                end,
                log_consumed,
            } => (state_digest, end, log_consumed),
        };
        if !log_consumed {
            return (padded_log_failure(), None);
        }
        let claimed_digest = sha256(&to_wire(claimed));
        if claimed_digest != state_digest {
            // Rare path: re-derive the reference state once — it serves
            // both the variable-level diff and the caller's evidence.
            let reference = self.reference_state(program, initial, input, exec);
            let diff = reference
                .as_ref()
                .map(|reference| state_diff(claimed, reference))
                .unwrap_or_default();
            return (
                CheckOutcome::Failed(FailureReason::StateMismatch {
                    claimed: claimed_digest,
                    reference: state_digest,
                    diff,
                }),
                reference,
            );
        }
        if let Some(failure) = end_mismatch(claimed_next, &end) {
            // The end diverged but the state matched; the claimed state
            // *is* the reference state.
            return (failure, Some(claimed.clone()));
        }
        (CheckOutcome::Passed, None)
    }

    /// The uncached arm of the session check: identical verdicts,
    /// computed from one full replay and direct state comparison; the
    /// replayed state doubles as the returned reference on failure.
    fn verify_session_direct(
        &self,
        program: &Program,
        initial: &DataState,
        claimed: &DataState,
        input: &InputLog,
        claimed_next: Option<&Option<String>>,
        exec: &ExecConfig,
    ) -> (CheckOutcome, Option<DataState>) {
        let (outcome, log_consumed) = match self.replay_full(program, initial, input, exec) {
            Ok(result) => result,
            Err(e) => {
                return (
                    CheckOutcome::Failed(FailureReason::ReplayFailed {
                        error: e.to_string(),
                    }),
                    None,
                )
            }
        };
        if !log_consumed {
            return (padded_log_failure(), None);
        }
        if claimed != &outcome.state {
            return (
                CheckOutcome::Failed(FailureReason::StateMismatch {
                    claimed: sha256(&to_wire(claimed)),
                    reference: sha256(&to_wire(&outcome.state)),
                    diff: state_diff(claimed, &outcome.state),
                }),
                Some(outcome.state),
            );
        }
        if let Some(failure) = end_mismatch(claimed_next, &outcome.end) {
            return (failure, Some(outcome.state));
        }
        (CheckOutcome::Passed, None)
    }
}

/// The one place the padded-log policy lives: a log longer than the
/// program consumes is itself a lie about the session. Shared by both
/// `verify_session` arms and the custom-comparator checker path.
pub(crate) fn padded_log_failure() -> CheckOutcome {
    CheckOutcome::Failed(FailureReason::ReplayFailed {
        error: VmError::ReplayMismatch {
            pc: 0,
            detail: "recorded input log longer than the re-execution consumed".into(),
        }
        .to_string(),
    })
}

/// The one place the end-check convention lives: `None` skips the check;
/// `Some(None)` claims a halt; `Some(Some(host))` claims a migration.
pub(crate) fn end_mismatch(
    claimed_next: Option<&Option<String>>,
    reference_end: &SessionEnd,
) -> Option<CheckOutcome> {
    let claimed_next = claimed_next?;
    let reference_next = match reference_end {
        SessionEnd::Migrate(h) => Some(h.clone()),
        SessionEnd::Halt => None,
    };
    if claimed_next != &reference_next {
        return Some(CheckOutcome::Failed(FailureReason::EndMismatch {
            claimed: claimed_next.clone(),
            reference: reference_next,
        }));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use refstate_vm::{assemble, run_session, ScriptedIo, Value};

    /// One honest session of the doubling agent: (program, initial,
    /// input log, resulting state).
    fn session() -> (Program, DataState, InputLog, DataState) {
        let program = assemble(
            r#"
            input "price"
            store "quote"
            load "quote"
            push 2
            mul
            store "double"
            halt
        "#,
        )
        .unwrap();
        let mut io = ScriptedIo::new();
        io.push_input("price", Value::Int(50));
        let initial = DataState::new();
        let outcome =
            run_session(&program, initial.clone(), &mut io, &ExecConfig::default()).unwrap();
        (program, initial, outcome.input_log, outcome.state)
    }

    #[test]
    fn cached_replays_hit_after_first_miss() {
        let (program, initial, input, _resulting) = session();
        let cache = Arc::new(ReplayCache::new());
        let pipeline = VerificationPipeline::with_cache(cache.clone());
        let exec = ExecConfig::default();
        let first = pipeline.replay(&program, &initial, &input, &exec);
        let second = pipeline.replay(&program, &initial, &input, &exec);
        assert_eq!(first, second);
        let stats = pipeline.snapshot();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.replays, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn uncached_snapshot_reports_no_cache_facts() {
        let (program, initial, input, _resulting) = session();
        let pipeline = VerificationPipeline::uncached();
        pipeline.replay(&program, &initial, &input, &ExecConfig::default());
        let stats = pipeline.snapshot();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.cache_entries, 0);
        assert_eq!(stats.cache_capacity, 0);
    }

    #[test]
    fn uncached_pipeline_replays_every_time() {
        let (program, initial, input, _resulting) = session();
        let pipeline = VerificationPipeline::uncached();
        assert!(!pipeline.is_cached());
        let exec = ExecConfig::default();
        pipeline.replay(&program, &initial, &input, &exec);
        pipeline.replay(&program, &initial, &input, &exec);
        let stats = pipeline.snapshot();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.replays, 2);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn cache_is_shared_across_pipeline_handles() {
        let (program, initial, input, _resulting) = session();
        let cache = Arc::new(ReplayCache::new());
        let a = VerificationPipeline::with_cache(cache.clone());
        let b = VerificationPipeline::with_cache(cache);
        let exec = ExecConfig::default();
        a.replay(&program, &initial, &input, &exec);
        b.replay(&program, &initial, &input, &exec);
        assert_eq!(a.snapshot().replays, 1, "a replayed");
        assert_eq!(b.snapshot().replays, 0, "b hit a's entry");
        assert_eq!(b.snapshot().hits, 1);
    }

    /// Builds `count` distinct cacheable sessions of the same program
    /// (the initial state varies, so every session keys differently).
    fn distinct_sessions(count: usize) -> (Program, Vec<DataState>, InputLog) {
        let program = assemble(
            r#"
            input "price"
            store "quote"
            halt
        "#,
        )
        .unwrap();
        let mut io = ScriptedIo::new();
        io.push_input("price", Value::Int(50));
        let outcome =
            run_session(&program, DataState::new(), &mut io, &ExecConfig::default()).unwrap();
        let initials = (0..count)
            .map(|i| {
                let mut state = DataState::new();
                state.set("salt", Value::Int(i as i64));
                state
            })
            .collect();
        (program, initials, outcome.input_log)
    }

    #[test]
    fn replay_cache_is_lru_bounded() {
        let (program, initials, input) = distinct_sessions(64);
        let cache = Arc::new(ReplayCache::with_capacity(16));
        assert_eq!(cache.capacity(), 16);
        let pipeline = VerificationPipeline::with_cache(cache.clone());
        let exec = ExecConfig::default();
        for initial in &initials {
            pipeline.replay(&program, initial, &input, &exec);
        }
        // The bound holds no matter how many distinct sessions flowed
        // through; the closed ROADMAP item ("unbounded within a run").
        assert!(
            cache.len() <= cache.capacity(),
            "cache grew past its bound: {} > {}",
            cache.len(),
            cache.capacity()
        );
        assert_eq!(pipeline.snapshot().misses, 64);

        // 64 distinct sessions through a 16-entry cache must evict, and
        // the shard views must agree with the aggregates.
        let stats = pipeline.snapshot();
        assert_eq!(stats.evictions, cache.evictions());
        assert!(stats.evictions >= 48, "evictions = {}", stats.evictions);
        assert_eq!(stats.cache_entries as usize, cache.len());
        assert_eq!(stats.cache_capacity as usize, cache.capacity());
        let shards = cache.shard_stats();
        assert_eq!(shards.iter().map(|s| s.entries).sum::<usize>(), cache.len());
        assert_eq!(
            shards.iter().map(|s| s.evictions).sum::<u64>(),
            cache.evictions()
        );
        assert!(shards.iter().all(|s| s.entries <= s.capacity));

        // The most recent session is never the LRU victim: still a hit.
        let before = pipeline.snapshot().hits;
        pipeline.replay(&program, initials.last().unwrap(), &input, &exec);
        assert_eq!(pipeline.snapshot().hits, before + 1);

        // Re-replaying the full population hits for exactly the retained
        // entries and misses for the evicted ones — the stats (and
        // therefore the reported hit rate) stay consistent with the
        // bound.
        let cached = cache.len() as u64;
        let stats_before = pipeline.snapshot();
        for initial in &initials {
            pipeline.replay(&program, initial, &input, &exec);
        }
        let stats = pipeline.snapshot();
        // LRU churn during the sweep can evict entries the sweep itself
        // revisits later, so retained-entry hits are an upper bound.
        assert!(stats.hits - stats_before.hits <= cached);
        assert!(stats.misses > stats_before.misses);
        let total = stats.hits + stats.misses;
        assert!((stats.hit_rate() - stats.hits as f64 / total as f64).abs() < 1e-12);
    }

    #[test]
    fn with_capacity_is_honest_for_small_capacities() {
        // Regression: `div_ceil(SHARDS).max(1)` used to inflate any small
        // request to at least one entry per shard, so `with_capacity(4)`
        // really held 16 sessions while `capacity()` reported 16 ≠ 4.
        for requested in [1usize, 2, 3, 4, 7, 15, 16, 17, 32, 33, 100] {
            let cache = ReplayCache::with_capacity(requested);
            assert_eq!(
                cache.capacity(),
                requested,
                "capacity() reports the request"
            );
            let shards = cache.shard_stats();
            assert_eq!(
                shards.iter().map(|s| s.capacity).sum::<usize>(),
                requested,
                "shard bounds sum to the requested capacity"
            );
            assert!(shards.iter().all(|s| s.capacity >= 1));
        }
        assert_eq!(
            ReplayCache::with_capacity(0).capacity(),
            1,
            "capacity floor"
        );

        // And the bound actually holds under load for a tiny cache.
        let (program, initials, input) = distinct_sessions(64);
        let cache = Arc::new(ReplayCache::with_capacity(4));
        let pipeline = VerificationPipeline::with_cache(cache.clone());
        let exec = ExecConfig::default();
        for initial in &initials {
            pipeline.replay(&program, initial, &input, &exec);
        }
        assert!(
            cache.len() <= 4,
            "4-entry cache holds {} sessions",
            cache.len()
        );
        assert!(cache.evictions() >= 60);
    }

    #[test]
    fn replay_cache_eviction_prefers_stale_entries() {
        // Shard assignment is a pure function of the key, so probe for
        // sessions that share session 0's shard: with one entry per
        // shard, inserting a same-shard session evicts session 0 (its
        // re-replay misses).
        let (program, initials, input) = distinct_sessions(256);
        let exec = ExecConfig::default();
        let probe = VerificationPipeline::with_cache(Arc::new(ReplayCache::with_capacity(16)));
        let mut colliders: Vec<&DataState> = Vec::new();
        for initial in &initials[1..] {
            probe.replay(&program, &initials[0], &input, &exec); // (re)load s0
            let hits = probe.snapshot().hits;
            probe.replay(&program, initial, &input, &exec); // candidate
            probe.replay(&program, &initials[0], &input, &exec);
            if probe.snapshot().hits == hits {
                colliders.push(initial); // s0 was evicted: same shard
                if colliders.len() == 2 {
                    break;
                }
            }
        }
        let [a, b] = colliders[..] else {
            panic!("256 sessions over 16 shards must collide twice");
        };

        // Now give the shard room for two: the least-recently-used entry
        // is the victim, and a touch refreshes recency.
        let cache = Arc::new(ReplayCache::with_capacity(32));
        let pipeline = VerificationPipeline::with_cache(cache);
        pipeline.replay(&program, &initials[0], &input, &exec); // s0
        pipeline.replay(&program, a, &input, &exec); // shard now full
        pipeline.replay(&program, &initials[0], &input, &exec); // touch s0
        assert_eq!(pipeline.snapshot().hits, 1);
        pipeline.replay(&program, b, &input, &exec); // overflow: evicts a
        let hits = pipeline.snapshot().hits;
        pipeline.replay(&program, &initials[0], &input, &exec);
        assert_eq!(
            pipeline.snapshot().hits,
            hits + 1,
            "the touched entry survives"
        );
        let misses = pipeline.snapshot().misses;
        pipeline.replay(&program, a, &input, &exec);
        assert_eq!(
            pipeline.snapshot().misses,
            misses + 1,
            "the stale entry was the LRU victim"
        );
    }

    #[test]
    fn verify_session_passes_honest_and_diffs_tampered() {
        let (program, initial, input, resulting) = session();
        let pipeline = VerificationPipeline::with_cache(Arc::new(ReplayCache::new()));
        let exec = ExecConfig::default();
        assert_eq!(
            pipeline.verify_session(&program, &initial, &resulting, &input, Some(&None), &exec),
            CheckOutcome::Passed
        );
        let mut tampered = resulting.clone();
        tampered.set("double", Value::Int(9999));
        match pipeline.verify_session(&program, &initial, &tampered, &input, Some(&None), &exec) {
            CheckOutcome::Failed(FailureReason::StateMismatch { diff, .. }) => {
                assert_eq!(diff, vec![("double".into(), "9999".into(), "100".into())]);
            }
            other => panic!("expected StateMismatch, got {other:?}"),
        }
        // Wrong claimed end: state matches, end does not.
        match pipeline.verify_session(
            &program,
            &initial,
            &resulting,
            &input,
            Some(&Some("mallory".into())),
            &exec,
        ) {
            CheckOutcome::Failed(FailureReason::EndMismatch { claimed, reference }) => {
                assert_eq!(claimed, Some("mallory".into()));
                assert_eq!(reference, None);
            }
            other => panic!("expected EndMismatch, got {other:?}"),
        }
    }

    #[test]
    fn verify_session_flags_padded_log() {
        use refstate_vm::{InputKind, InputRecord};
        let (program, initial, input, resulting) = session();
        let padded: InputLog = input
            .records()
            .iter()
            .cloned()
            .chain([InputRecord {
                pc: 99,
                kind: InputKind::Tagged("price".into()),
                value: Value::Int(1),
            }])
            .collect();
        let pipeline = VerificationPipeline::uncached();
        assert!(matches!(
            pipeline.verify_session(
                &program,
                &initial,
                &resulting,
                &padded,
                None,
                &ExecConfig::default()
            ),
            CheckOutcome::Failed(FailureReason::ReplayFailed { .. })
        ));
    }

    #[test]
    fn step_limit_replays_carry_the_fingerprint_label() {
        let program = assemble("loop:\njump loop").unwrap();
        // The label exists to diagnose cache poisoning, so it rides along
        // exactly when a cache is attached.
        let pipeline = VerificationPipeline::with_cache(Arc::new(ReplayCache::new()));
        let exec = ExecConfig {
            step_limit: 16,
            ..Default::default()
        };
        let summary = pipeline.replay(&program, &DataState::new(), &InputLog::new(), &exec);
        match summary {
            ReplaySummary::Failed(error) => {
                assert!(
                    error.contains("session fp-"),
                    "step-limit error names the session: {error}"
                );
            }
            other => panic!("expected a failed replay, got {other:?}"),
        }
    }

    #[test]
    fn step_limit_is_part_of_the_cache_key() {
        let (program, initial, input, _resulting) = session();
        let pipeline = VerificationPipeline::with_cache(Arc::new(ReplayCache::new()));
        let tight = ExecConfig {
            step_limit: 2,
            ..Default::default()
        };
        let roomy = ExecConfig::default();
        assert!(matches!(
            pipeline.replay(&program, &initial, &input, &tight),
            ReplaySummary::Failed(_)
        ));
        assert!(matches!(
            pipeline.replay(&program, &initial, &input, &roomy),
            ReplaySummary::Ok { .. }
        ));
        assert_eq!(pipeline.snapshot().replays, 2, "limits do not alias");
    }
}
