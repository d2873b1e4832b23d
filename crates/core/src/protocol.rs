//! The example mechanism (§5.1 / Hohl TR 09/99): every untrusted execution
//! session is checked *by the next host*, immediately, with signatures and
//! secure hashes authenticating every claim.
//!
//! Protocol sketch, for the migration of agent `A` from host `H_i` to
//! `H_{i+1}`:
//!
//! 1. `H_i` finishes session `i` and builds a [`SessionCertificate`]
//!    containing the session's initial state, resulting state, recorded
//!    input, and the claimed next hop; it signs the certificate and sends
//!    it (with the agent code) to `H_{i+1}`.
//! 2. `H_{i+1}` verifies the signature, then — unless `H_i` is trusted
//!    ("trusted hosts will not attack by definition") — **re-executes**
//!    session `i` from the certificate's initial state with the recorded
//!    input, comparing resulting state and migration target.
//! 3. `H_{i+1}` signs an [`InitCommitment`] binding itself to the initial
//!    state it accepted, and sends it back to `H_i`; together with `H_i`'s
//!    own signature this dual-signs the hand-off ("initial states have to
//!    be signed by both the checking host and the checked host"), so
//!    neither side can later claim a different state was transferred.
//! 4. On mismatch, `H_{i+1}` assembles [`FraudEvidence`] carrying the
//!    *complete* states (not just hashes) plus `H_i`'s signed false claim,
//!    and the journey stops.
//!
//! Collaboration of consecutive hosts defeats the scheme (the accomplice
//! simply skips step 2) — the paper accepts this trade-off for timeliness,
//! and the driver reproduces it faithfully.

use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use refstate_crypto::{sha256_of, Digest, KeyDirectory, Signed, VerificationQueue};
use refstate_platform::{
    walk, AgentId, AgentImage, Event, EventLog, Host, HostId, JourneyError, Leg, SessionRecord,
    Visit,
};
use refstate_vm::{DataState, ExecConfig, InputLog, Program, SessionEnd};
use refstate_wire::{from_wire, Decode, Encode, Reader, WireError, Writer};

use crate::checker::{
    CheckContext, CheckOutcome, CheckingAlgorithm, FailureReason, ReExecutionChecker,
};
use crate::compare::ExactCompare;
use crate::pipeline::{SessionClaim, VerificationPipeline};
use crate::refdata::ReferenceData;
use crate::verdict::{CheckVerdict, FraudEvidence};

/// The signed claim a host makes about one execution session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionCertificate {
    /// The agent.
    pub agent: AgentId,
    /// Session sequence number (0 = first session at the start host).
    pub seq: u64,
    /// The host that executed the session.
    pub executor: HostId,
    /// The state the session started from — "the system has to transport
    /// one more agent state plus the input at a host" (§4.1).
    pub initial_state: DataState,
    /// The state the executor claims the session produced.
    pub resulting_state: DataState,
    /// The complete recorded session input.
    pub input: InputLog,
    /// Where the agent goes next (`None` = the agent halted).
    pub next: Option<HostId>,
}

impl SessionCertificate {
    /// Digest of the claimed resulting state.
    pub fn resulting_digest(&self) -> Digest {
        sha256_of(&self.resulting_state)
    }

    /// Digest of the initial state.
    pub fn initial_digest(&self) -> Digest {
        sha256_of(&self.initial_state)
    }
}

impl Encode for SessionCertificate {
    fn encode(&self, w: &mut Writer) {
        self.agent.encode(w);
        w.put_u64(self.seq);
        self.executor.encode(w);
        self.initial_state.encode(w);
        self.resulting_state.encode(w);
        self.input.encode(w);
        match &self.next {
            Some(h) => {
                w.put_u8(1);
                h.encode(w);
            }
            None => w.put_u8(0),
        }
    }
}

impl Decode for SessionCertificate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SessionCertificate {
            agent: AgentId::decode(r)?,
            seq: r.take_u64()?,
            executor: HostId::decode(r)?,
            initial_state: DataState::decode(r)?,
            resulting_state: DataState::decode(r)?,
            input: InputLog::decode(r)?,
            next: match r.take_u8()? {
                0 => None,
                1 => Some(HostId::decode(r)?),
                tag => {
                    return Err(WireError::InvalidTag {
                        context: "SessionCertificate.next",
                        tag,
                    })
                }
            },
        })
    }
}

/// The receiving host's counter-signature over the initial state it
/// accepted for session `seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitCommitment {
    /// The agent.
    pub agent: AgentId,
    /// The session about to run on the committing host.
    pub seq: u64,
    /// The committing (receiving) host.
    pub receiver: HostId,
    /// Digest of the accepted initial state.
    pub initial_digest: Digest,
}

impl Encode for InitCommitment {
    fn encode(&self, w: &mut Writer) {
        self.agent.encode(w);
        w.put_u64(self.seq);
        self.receiver.encode(w);
        self.initial_digest.encode(w);
    }
}

impl Decode for InitCommitment {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(InitCommitment {
            agent: AgentId::decode(r)?,
            seq: r.take_u64()?,
            receiver: HostId::decode(r)?,
            initial_digest: Digest::decode(r)?,
        })
    }
}

/// Configuration of the example protocol.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Execution limits for sessions and re-executions.
    pub exec: ExecConfig,
    /// Skip re-executing sessions of trusted hosts (the paper's
    /// optimization; on by default).
    pub skip_trusted: bool,
    /// Hop budget.
    pub max_hops: usize,
    /// The verification pipeline every re-execution of this journey runs
    /// through. Defaults to a private pipeline; fleet drivers install an
    /// `Arc`-shared one so every journey's replays count toward one set
    /// of stats.
    pub pipeline: Arc<VerificationPipeline>,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            exec: ExecConfig::default(),
            skip_trusted: true,
            max_hops: 64,
            pipeline: Arc::new(VerificationPipeline::new()),
        }
    }
}

/// Timing breakdown of a protected journey, mirroring the cost categories
/// of the paper's Tables 1 and 2.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtocolStats {
    /// Time spent computing and verifying signatures ("sign & verify").
    pub sign_verify: Duration,
    /// Time spent executing agent sessions in the VM — the sum of each
    /// session's [`SessionRecord::elapsed`], which excludes attack
    /// application and event logging ("cycle" work lives here for the
    /// generic measurement agent).
    pub execution: Duration,
    /// Time spent re-executing sessions for checking (the protocol's
    /// "computation is roughly doubled" cost).
    pub checking: Duration,
    /// Wall-clock total from journey start to finish.
    pub total: Duration,
    /// Number of signatures created.
    pub signatures: u32,
    /// Number of signatures verified.
    pub verifications: u32,
    /// Number of re-execution *checks* performed, each one replay on
    /// [`ProtocolConfig::pipeline`] (its
    /// [`snapshot`](crate::pipeline::VerificationPipeline::snapshot)
    /// counts the replays).
    pub reexecutions: u32,
}

impl ProtocolStats {
    /// Everything not attributed to signatures or VM work: protocol
    /// bookkeeping, hashing, state copying — the paper's "remainder".
    pub fn remainder(&self) -> Duration {
        self.total
            .saturating_sub(self.sign_verify)
            .saturating_sub(self.execution)
            .saturating_sub(self.checking)
    }
}

/// The result of a protocol-protected journey.
#[derive(Debug)]
pub struct ProtocolOutcome {
    /// The agent's final data state (on fraud: the state as claimed by the
    /// culprit, kept as evidence).
    pub final_state: DataState,
    /// Hosts visited in order (on fraud: up to and including the detector).
    pub path: Vec<HostId>,
    /// Every check performed.
    pub verdicts: Vec<CheckVerdict>,
    /// Evidence for the detected fraud, if any.
    pub fraud: Option<FraudEvidence<SessionCertificate>>,
    /// Dual-signing commitments collected along the way.
    pub commitments: Vec<Signed<InitCommitment>>,
    /// Timing breakdown.
    pub stats: ProtocolStats,
}

impl ProtocolOutcome {
    /// Returns `true` when no fraud was detected and all checks passed.
    pub fn clean(&self) -> bool {
        self.fraud.is_none() && self.verdicts.iter().all(CheckVerdict::passed)
    }
}

/// Whether an executor's session gets re-executed by the receiver, honouring
/// both the trusted-host optimization and collusion between consecutive
/// hosts.
fn receiver_checks(config: &ProtocolConfig, executor: &Host, receiver_id: &HostId) -> bool {
    if config.skip_trusted && executor.is_trusted() {
        return false;
    }
    // Collusion: the executor's accomplice agreed to skip the check.
    if let Some(refstate_platform::Attack::CollaborateTamper { accomplice, .. }) =
        executor.behaviour().attack()
    {
        if accomplice == receiver_id {
            return false;
        }
    }
    true
}

/// Builds the key directory (the assumed PKI) for a host set.
///
/// Fleet-scale drivers that run many journeys over host sets with pooled
/// keys build this once and pass it to
/// [`run_protected_journey_with_directory`] instead of paying the
/// registration walk per journey.
pub fn host_directory(hosts: &[Host]) -> KeyDirectory {
    let mut directory = KeyDirectory::new();
    for host in hosts.iter() {
        directory.register(host.id().as_str(), host.public_key().clone());
    }
    directory
}

/// Runs the example protocol over a host path.
///
/// # Errors
///
/// See [`JourneyError`]. Detected fraud is reported in the outcome, not
/// as an error.
pub fn run_protected_journey(
    hosts: &mut [Host],
    start: impl Into<HostId>,
    agent: AgentImage,
    config: &ProtocolConfig,
    log: &EventLog,
) -> Result<ProtocolOutcome, JourneyError> {
    let directory = host_directory(hosts);
    run_protected_journey_with_directory(hosts, start, agent, config, log, &directory)
}

/// [`run_protected_journey`] against a caller-supplied key directory.
///
/// The batch-friendly entry point: a scenario engine reusing one
/// [`ProtocolConfig`] and one PKI across thousands of journeys calls this
/// directly. The directory must cover every host in `hosts`; missing keys
/// surface as failed signature verifications (a detected fraud), exactly
/// as a broken PKI would.
///
/// # Errors
///
/// See [`JourneyError`]. Detected fraud is reported in the outcome, not
/// as an error.
pub fn run_protected_journey_with_directory(
    hosts: &mut [Host],
    start: impl Into<HostId>,
    agent: AgentImage,
    config: &ProtocolConfig,
    log: &EventLog,
    directory: &KeyDirectory,
) -> Result<ProtocolOutcome, JourneyError> {
    let agent_id = agent.id.clone();
    let (outcome, pending) =
        run_journey_inner(hosts, start.into(), agent, config, log, directory, None)?;
    let mut journeys = vec![DeferredJourney {
        outcome,
        pending,
        agent: agent_id,
        deferred: 0,
    }];
    // Nothing was deferred to a queue in eager mode; settling runs only
    // the owner's final check (if any).
    let mut empty = VerificationQueue::new();
    settle_deferred(&mut journeys, config, log, directory, &mut empty);
    Ok(journeys.pop().expect("one journey in, one out").outcome)
}

/// One journey whose owner-side settlement is still outstanding.
///
/// Produced by [`run_protected_journey_deferred`]; resolved by
/// [`settle_deferred`]. Until settlement, `outcome` is missing the owner's
/// verdicts: the final-session re-execution check (carried in `pending`)
/// and any fraud surfaced by the deferred signature flush.
#[derive(Debug)]
pub struct DeferredJourney {
    /// The journey outcome so far (per-hop verdicts only).
    pub outcome: ProtocolOutcome,
    /// The owner's final re-execution check, if the halting host was not
    /// skipped as trusted.
    pub pending: Option<PendingFinalCheck>,
    /// The agent that ran the journey — the key used to attribute failed
    /// deferred signatures back to their journey at flush.
    pub agent: AgentId,
    /// How many signature checks this journey pushed onto the shared
    /// queue.
    pub deferred: usize,
}

/// The owner-side re-execution of a journey's final session, postponed so
/// a service can run many journeys' final checks in one
/// [`settle_deferred`] pass.
#[derive(Debug)]
pub struct PendingFinalCheck {
    /// The agent's code, re-executed by the check.
    pub program: Program,
    /// The agent.
    pub agent: AgentId,
    /// The halting host whose session is being checked.
    pub executor: HostId,
    /// The final session's sequence number.
    pub seq: u64,
    /// The halting host's signed certificate — the claim under check, and
    /// the evidence's signed claim should it fail.
    pub signed_cert: Signed<SessionCertificate>,
}

/// Aggregate counters from one [`settle_deferred`] pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SettleStats {
    /// Owner-side final re-execution checks performed.
    pub final_checks: u32,
    /// Deferred signatures settled by the batch flush.
    pub flush_verifications: u32,
    /// Deferred signatures that failed the flush.
    pub flush_failures: u32,
    /// Failed deferred signatures whose certificate could not be mapped
    /// back to a journey (malformed bytes under multi-journey settlement).
    pub unattributed_failures: u32,
}

/// Runs a journey with *both* owner-side obligations deferred: per-hop
/// signature checks accumulate on `queue` (not flushed), and the final
/// owner re-execution check is returned as
/// [`pending`](DeferredJourney::pending) instead of running inline.
///
/// This is the resident-service seam: a service collects the
/// [`DeferredJourney`]s of a whole tick, then calls [`settle_deferred`]
/// once — one re-execution pass over every pending final check and one
/// [`VerificationQueue::flush`] over every deferred signature, instead of
/// one of each per journey.
///
/// # Errors
///
/// See [`JourneyError`]. Detected fraud is reported in the outcome, not
/// as an error.
pub fn run_protected_journey_deferred(
    hosts: &mut [Host],
    start: impl Into<HostId>,
    agent: AgentImage,
    config: &ProtocolConfig,
    log: &EventLog,
    directory: &KeyDirectory,
    queue: &mut VerificationQueue,
) -> Result<DeferredJourney, JourneyError> {
    let agent_id = agent.id.clone();
    let before = queue.len();
    let (outcome, pending) = run_journey_inner(
        hosts,
        start.into(),
        agent,
        config,
        log,
        directory,
        Some(queue),
    )?;
    let deferred = queue.len() - before;
    Ok(DeferredJourney {
        outcome,
        pending,
        agent: agent_id,
        deferred,
    })
}

/// Settles a batch of [`DeferredJourney`]s: every pending final check in
/// input order, then one batch flush of `queue` with per-journey fraud
/// attribution.
///
/// Verdicts, fraud evidence, log events, and stats land on each journey's
/// [`outcome`](DeferredJourney::outcome), in the same order the
/// journey-at-a-time entry points produce them: the owner's final-check
/// verdict first, then (at most one) flush-failure verdict. A failed
/// deferred signature is attributed to its journey by the certificate's
/// agent id; fraud is recorded only if the journey has none yet (earlier
/// detections take precedence).
pub fn settle_deferred(
    journeys: &mut [DeferredJourney],
    config: &ProtocolConfig,
    log: &EventLog,
    directory: &KeyDirectory,
    queue: &mut VerificationQueue,
) -> SettleStats {
    let mut stats = SettleStats::default();

    // --- every pending final check, in input order ---
    let checker = ReExecutionChecker::new().with_pipeline(config.pipeline.clone());
    for journey in journeys.iter_mut() {
        let Some(pending) = journey.pending.take() else {
            continue;
        };
        let cert = pending.signed_cert.payload();
        let data = ReferenceData {
            initial_state: Some(cert.initial_state.clone()),
            resulting_state: Some(cert.resulting_state.clone()),
            input: Some(cert.input.clone()),
            execution_log: None,
            resources: None,
            // State-only final check: the halt itself was the observed
            // session end, so there is no migration claim to cross-check.
            claimed_next: None,
        };
        let t = Instant::now();
        let outcome = checker.check(&CheckContext {
            program: &pending.program,
            data: &data,
            exec: config.exec.clone(),
        });
        let elapsed = t.elapsed();
        stats.final_checks += 1;
        let failure = match outcome {
            CheckOutcome::Passed => None,
            CheckOutcome::Failed(reason) => Some(reason),
        };
        let passed = failure.is_none();
        log.record(Event::CheckPerformed {
            checker: pending.executor.clone(),
            checked: pending.executor.clone(),
            passed,
        });
        journey.outcome.verdicts.push(CheckVerdict {
            checked: pending.executor.clone(),
            checker: HostId::from("owner"),
            seq: pending.seq,
            failure: failure.clone(),
        });
        journey.outcome.stats.checking += elapsed;
        journey.outcome.stats.total += elapsed;
        journey.outcome.stats.reexecutions += 1;
        if let Some(reason) = failure {
            log.record(Event::FraudDetected {
                culprit: pending.executor.clone(),
                detector: HostId::from("owner"),
                reason: reason.to_string(),
            });
            // Fraud evidence carries the *complete* reference state; the
            // checker reports digests only, so the (rare) failure path
            // re-derives it with one extra, counted replay.
            let cert = pending.signed_cert.payload().clone();
            let reference_state = config.pipeline.reference_state(
                &pending.program,
                &cert.initial_state,
                &cert.input,
                &config.exec,
            );
            journey.outcome.stats.reexecutions += 1;
            if journey.outcome.fraud.is_none() {
                journey.outcome.fraud = Some(FraudEvidence {
                    culprit: pending.executor.clone(),
                    detector: HostId::from("owner"),
                    agent: pending.agent.clone(),
                    seq: pending.seq,
                    reason,
                    initial_state: cert.initial_state,
                    claimed_state: cert.resulting_state,
                    reference_state,
                    input: cert.input,
                    signed_claim: Some(pending.signed_cert),
                });
            }
        }
    }

    // --- one batch flush over every deferred signature ---
    if !queue.is_empty() {
        let t = Instant::now();
        let flushed = queue.flush(directory);
        let flush_elapsed = t.elapsed();
        stats.flush_verifications = flushed.len() as u32;
        let contributors = journeys.iter().filter(|j| j.deferred > 0).count() as u32;
        let flush_share = if contributors > 0 {
            flush_elapsed / contributors
        } else {
            Duration::ZERO
        };
        for journey in journeys.iter_mut() {
            if journey.deferred > 0 {
                journey.outcome.stats.verifications += journey.deferred as u32;
                journey.outcome.stats.sign_verify += flush_share;
                journey.outcome.stats.total += flush_share;
                journey.deferred = 0;
            }
        }
        let mut flagged = vec![false; journeys.len()];
        for (bad, _) in flushed.iter().filter(|(_, ok)| !ok) {
            stats.flush_failures += 1;
            // The deferred message bytes are the certificate's canonical
            // encoding; recover it to attribute the failure and carry the
            // full claimed states in the evidence.
            let cert = from_wire::<SessionCertificate>(&bad.message).ok();
            let target = match cert.as_ref() {
                Some(c) => journeys.iter().position(|j| j.agent == c.agent),
                // Undecodable bytes cannot name their journey; with a
                // single journey there is no ambiguity to resolve.
                None if journeys.len() == 1 => Some(0),
                None => None,
            };
            let owner = HostId::from("owner");
            let culprit = HostId::from(&*bad.signer);
            let reason = FailureReason::ProgramRejected {
                detail: "session certificate signature invalid (deferred batch verification)"
                    .into(),
            };
            let Some(i) = target else {
                stats.unattributed_failures += 1;
                log.record(Event::FraudDetected {
                    culprit,
                    detector: owner,
                    reason: reason.to_string(),
                });
                continue;
            };
            if flagged[i] {
                continue;
            }
            flagged[i] = true;
            let journey = &mut journeys[i];
            log.record(Event::FraudDetected {
                culprit: culprit.clone(),
                detector: owner.clone(),
                reason: reason.to_string(),
            });
            let seq = cert.as_ref().map(|c| c.seq).unwrap_or(0);
            journey.outcome.verdicts.push(CheckVerdict {
                checked: culprit.clone(),
                checker: owner.clone(),
                seq,
                failure: Some(reason.clone()),
            });
            if journey.outcome.fraud.is_none() {
                journey.outcome.fraud = Some(FraudEvidence {
                    culprit,
                    detector: owner,
                    agent: cert
                        .as_ref()
                        .map(|c| c.agent.clone())
                        .unwrap_or_else(|| AgentId::from("unknown")),
                    seq,
                    reason,
                    initial_state: cert
                        .as_ref()
                        .map(|c| c.initial_state.clone())
                        .unwrap_or_default(),
                    claimed_state: cert
                        .as_ref()
                        .map(|c| c.resulting_state.clone())
                        .unwrap_or_default(),
                    reference_state: None,
                    input: cert.map(|c| c.input).unwrap_or_default(),
                    signed_claim: None,
                });
            }
        }
    }
    stats
}

/// The protocol's part of the itinerary: on arrival, verify the incoming
/// certificate, re-execute the previous session unless it is skipped,
/// and counter-sign the accepted initial state; on departure, sign this
/// session's certificate and carry it as the migration's baggage.
struct ProtocolLeg<'a> {
    config: &'a ProtocolConfig,
    log: &'a EventLog,
    directory: &'a KeyDirectory,
    /// Deferred mode: where certificate signatures wait for the batch.
    queue: Option<&'a mut VerificationQueue>,
    stats: ProtocolStats,
    verdicts: Vec<CheckVerdict>,
    commitments: Vec<Signed<InitCommitment>>,
    /// The previous session's certificate and its executor's index in
    /// the host set, checked on arrival.
    incoming: Option<(usize, Signed<SessionCertificate>)>,
    /// The owner's final check, once the agent halted.
    pending: Option<PendingFinalCheck>,
}

impl Leg for ProtocolLeg<'_> {
    type Stop = FraudEvidence<SessionCertificate>;

    fn arrive(&mut self, mut visit: Visit<'_>) -> ControlFlow<Self::Stop> {
        let Some((executor, signed_cert)) = self.incoming.take() else {
            return ControlFlow::Continue(());
        };
        let sig_ok = match self.queue.as_deref_mut() {
            // Deferred mode: authenticity settles in one batch at
            // journey end; accept the certificate provisionally.
            Some(queue) => {
                queue.defer_signed(&signed_cert);
                true
            }
            None => {
                let t = Instant::now();
                let ok = signed_cert.verify(self.directory).is_ok();
                self.stats.sign_verify += t.elapsed();
                self.stats.verifications += 1;
                ok
            }
        };

        let cert = signed_cert.payload();
        let here = visit.here();
        let mut failure: Option<FailureReason> = None;
        let mut reference_state = None;
        if !sig_ok {
            failure = Some(FailureReason::ProgramRejected {
                detail: "session certificate signature invalid".into(),
            });
        } else if receiver_checks(self.config, &visit.hosts[executor], here) {
            // checkAfterSession: re-execute the previous session through
            // the shared verification pipeline.
            let t = Instant::now();
            let claimed_next = cert.next.as_ref().map(|h| h.as_str().to_owned());
            let claim = SessionClaim {
                state: &cert.resulting_state,
                next: Some(&claimed_next),
            };
            let (outcome, reference) = self.config.pipeline.verify_session(
                &visit.agent.program,
                &cert.initial_state,
                &cert.input,
                claim,
                &ExactCompare,
                &self.config.exec,
            );
            if let CheckOutcome::Failed(reason) = outcome {
                failure = Some(reason);
                // Fraud evidence carries the complete reference state;
                // the check hands back the one it materialized while
                // diffing, so the failure path costs no extra replay.
                reference_state = reference;
            }
            self.stats.checking += t.elapsed();
            self.stats.reexecutions += 1;
            self.log.record(Event::CheckPerformed {
                checker: here.clone(),
                checked: cert.executor.clone(),
                passed: failure.is_none(),
            });
        }

        let Some(reason) = failure else {
            self.verdicts.push(CheckVerdict {
                checked: cert.executor.clone(),
                checker: here.clone(),
                seq: cert.seq,
                failure: None,
            });
            // Dual-signing: commit to the accepted initial state of the
            // session about to run here.
            let t = Instant::now();
            let commitment = InitCommitment {
                agent: visit.agent.id.clone(),
                seq: visit.seq(),
                receiver: here.clone(),
                initial_digest: cert.resulting_digest(),
            };
            let (signed, _) = visit.sign(commitment);
            self.stats.sign_verify += t.elapsed();
            self.stats.signatures += 1;
            self.commitments.push(signed);
            return ControlFlow::Continue(());
        };
        self.log.record(Event::FraudDetected {
            culprit: cert.executor.clone(),
            detector: here.clone(),
            reason: reason.to_string(),
        });
        self.verdicts.push(CheckVerdict {
            checked: cert.executor.clone(),
            checker: here.clone(),
            seq: cert.seq,
            failure: Some(reason.clone()),
        });
        ControlFlow::Break(FraudEvidence {
            culprit: cert.executor.clone(),
            detector: here.clone(),
            agent: visit.agent.id.clone(),
            seq: cert.seq,
            reason,
            initial_state: cert.initial_state.clone(),
            claimed_state: cert.resulting_state.clone(),
            reference_state,
            input: cert.input.clone(),
            signed_claim: Some(signed_cert),
        })
    }

    fn depart(
        &mut self,
        mut visit: Visit<'_>,
        record: SessionRecord,
    ) -> ControlFlow<Self::Stop, usize> {
        self.stats.execution += record.elapsed;
        let next = match record.outcome.end {
            SessionEnd::Migrate(h) => Some(HostId::from(h.as_str())),
            SessionEnd::Halt => None,
        };
        let halted = next.is_none();
        let cert = SessionCertificate {
            agent: visit.agent.id.clone(),
            seq: visit.seq(),
            executor: visit.here().clone(),
            initial_state: record.initial_state,
            resulting_state: record.outcome.state,
            input: record.outcome.input_log,
            next,
        };
        let t = Instant::now();
        // The certificate travels as the migration's baggage; signing
        // encoded it already, so its length comes from there.
        let (signed_cert, baggage) = visit.sign(cert);
        self.stats.sign_verify += t.elapsed();
        self.stats.signatures += 1;

        if !halted {
            self.incoming = Some((visit.at, signed_cert));
            return ControlFlow::Continue(baggage);
        }
        // Task complete. The final session is checked by the owner
        // (modelled as an owner-side verification pass when the halting
        // host is untrusted). The check itself is handed back as a
        // [`PendingFinalCheck`] and performed by [`settle_deferred`] — the
        // single seam every owner-side final check funnels into, so
        // batching lands in one place.
        if !(self.config.skip_trusted && visit.hosts[visit.at].is_trusted()) {
            let cert = signed_cert.payload();
            self.pending = Some(PendingFinalCheck {
                program: visit.agent.program.clone(),
                agent: cert.agent.clone(),
                executor: cert.executor.clone(),
                seq: cert.seq,
                signed_cert,
            });
        }
        ControlFlow::Continue(0)
    }
}

/// The journey loop. The owner's final re-execution check is never run
/// here — it is returned as a [`PendingFinalCheck`] (when due) and settled
/// by [`settle_deferred`], alone or amortized across a batch.
fn run_journey_inner(
    hosts: &mut [Host],
    start: HostId,
    agent: AgentImage,
    config: &ProtocolConfig,
    log: &EventLog,
    directory: &KeyDirectory,
    queue: Option<&mut VerificationQueue>,
) -> Result<(ProtocolOutcome, Option<PendingFinalCheck>), JourneyError> {
    let journey_start = Instant::now();
    let mut leg = ProtocolLeg {
        config,
        log,
        directory,
        queue,
        stats: ProtocolStats::default(),
        verdicts: Vec::new(),
        commitments: Vec::new(),
        incoming: None,
        pending: None,
    };
    let walk = walk(
        hosts,
        start,
        agent,
        &config.exec,
        log,
        config.max_hops,
        &mut leg,
    );
    let fraud = walk.result?;
    let mut stats = leg.stats;
    stats.total = journey_start.elapsed();
    Ok((
        ProtocolOutcome {
            // On fraud: the state the culprit claimed, kept as evidence.
            final_state: walk.image.state,
            path: walk.path,
            verdicts: leg.verdicts,
            fraud,
            commitments: leg.commitments,
            stats,
        },
        leg.pending,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use refstate_crypto::sha256;
    use refstate_crypto::DsaParams;
    use refstate_platform::{Attack, HostSpec};
    use refstate_vm::{assemble, Value};

    fn sum_agent() -> AgentImage {
        let program = assemble(
            r#"
            input "n"
            load "total"
            add
            store "total"
            load "hops"
            push 1
            add
            store "hops"
            load "hops"
            push 1
            eq
            jnz to_h2
            load "hops"
            push 2
            eq
            jnz to_h3
            halt
        to_h2:
            push "h2"
            migrate
        to_h3:
            push "h3"
            migrate
        "#,
        )
        .unwrap();
        let mut state = DataState::new();
        state.set("total", Value::Int(0));
        state.set("hops", Value::Int(0));
        AgentImage::new("summer", program, state)
    }

    fn build_hosts(h2_attack: Option<Attack>, h3_spec: Option<HostSpec>) -> Vec<Host> {
        let mut rng = StdRng::seed_from_u64(999);
        let params = DsaParams::test_group_256();
        let mut h2 = HostSpec::new("h2").with_input("n", Value::Int(20));
        if let Some(a) = h2_attack {
            h2 = h2.malicious(a);
        }
        let h3 = h3_spec.unwrap_or_else(|| {
            HostSpec::new("h3")
                .trusted()
                .with_input("n", Value::Int(30))
        });
        vec![
            Host::new(
                HostSpec::new("h1")
                    .trusted()
                    .with_input("n", Value::Int(10)),
                &params,
                &mut rng,
            ),
            Host::new(h2, &params, &mut rng),
            Host::new(h3, &params, &mut rng),
        ]
    }

    #[test]
    fn honest_journey_completes_clean() {
        let mut hosts = build_hosts(None, None);
        let log = EventLog::new();
        let outcome = run_protected_journey(
            &mut hosts,
            "h1",
            sum_agent(),
            &ProtocolConfig::default(),
            &log,
        )
        .unwrap();
        assert!(outcome.clean());
        assert_eq!(outcome.final_state.get_int("total"), Some(60));
        assert_eq!(outcome.path.len(), 3);
        // One re-execution: only h2 is untrusted.
        assert_eq!(outcome.stats.reexecutions, 1);
        // Each session signs one certificate; each accepted arrival signs a
        // commitment.
        assert_eq!(
            outcome.stats.signatures as usize,
            3 + outcome.commitments.len()
        );
        assert!(outcome.stats.verifications >= 2);
    }

    #[test]
    fn tampering_is_detected_with_full_evidence() {
        let mut hosts = build_hosts(
            Some(Attack::TamperVariable {
                name: "total".into(),
                value: Value::Int(7),
            }),
            None,
        );
        let log = EventLog::new();
        let outcome = run_protected_journey(
            &mut hosts,
            "h1",
            sum_agent(),
            &ProtocolConfig::default(),
            &log,
        )
        .unwrap();
        let fraud = outcome.fraud.expect("tampering detected");
        assert_eq!(fraud.culprit.as_str(), "h2");
        assert_eq!(fraud.detector.as_str(), "h3");
        // Full states, not hashes.
        assert_eq!(fraud.claimed_state.get_int("total"), Some(7));
        assert_eq!(
            fraud
                .reference_state
                .as_ref()
                .and_then(|s| s.get_int("total")),
            Some(30)
        );
        // The culprit's signed false claim is part of the evidence and
        // still verifies against its public key.
        let mut dir = KeyDirectory::new();
        for h in &hosts {
            dir.register(h.id().as_str(), h.public_key().clone());
        }
        let claim = fraud.signed_claim.as_ref().expect("signed claim kept");
        assert!(
            claim.verify(&dir).is_ok(),
            "the false claim is provably the culprit's"
        );
        assert_eq!(claim.payload().resulting_state.get_int("total"), Some(7));
    }

    #[test]
    fn redirected_migration_is_detected() {
        let mut hosts = build_hosts(
            Some(Attack::RedirectMigration {
                to: HostId::new("h1"),
            }),
            None,
        );
        let log = EventLog::new();
        let outcome = run_protected_journey(
            &mut hosts,
            "h1",
            sum_agent(),
            &ProtocolConfig::default(),
            &log,
        )
        .unwrap();
        let fraud = outcome.fraud.expect("redirection detected");
        assert!(matches!(fraud.reason, FailureReason::EndMismatch { .. }));
    }

    #[test]
    fn collusion_of_consecutive_hosts_evades_detection() {
        // h2 tampers; h3 (the accomplice) skips the check — §5.1's stated
        // limitation.
        let accomplice = HostSpec::new("h3").with_input("n", Value::Int(30));
        let mut hosts = build_hosts(
            Some(Attack::CollaborateTamper {
                name: "total".into(),
                value: Value::Int(7),
                accomplice: HostId::new("h3"),
            }),
            Some(accomplice),
        );
        let log = EventLog::new();
        let outcome = run_protected_journey(
            &mut hosts,
            "h1",
            sum_agent(),
            &ProtocolConfig::default(),
            &log,
        )
        .unwrap();
        assert!(
            outcome.fraud.is_none(),
            "collaboration attacks of consecutive hosts cannot be detected"
        );
        // The corrupted value survived to the end.
        assert_eq!(outcome.final_state.get_int("total"), Some(37)); // 7 + 30
    }

    #[test]
    fn same_attack_without_collusion_is_caught() {
        // Identical tampering, but the next host does not cooperate.
        let mut hosts = build_hosts(
            Some(Attack::CollaborateTamper {
                name: "total".into(),
                value: Value::Int(7),
                accomplice: HostId::new("someone-else"),
            }),
            None,
        );
        let log = EventLog::new();
        let outcome = run_protected_journey(
            &mut hosts,
            "h1",
            sum_agent(),
            &ProtocolConfig::default(),
            &log,
        )
        .unwrap();
        assert!(outcome.fraud.is_some());
    }

    #[test]
    fn trusted_host_optimization_skips_reexecution() {
        let mut hosts = build_hosts(None, None);
        let log = EventLog::new();
        let strict = ProtocolConfig {
            skip_trusted: false,
            ..Default::default()
        };
        let outcome = run_protected_journey(&mut hosts, "h1", sum_agent(), &strict, &log).unwrap();
        assert!(outcome.clean());
        // All three sessions re-executed (h1 by h2, h2 by h3, h3 by owner).
        assert_eq!(outcome.stats.reexecutions, 3);
    }

    #[test]
    fn untrusted_final_host_checked_by_owner() {
        let h3 = HostSpec::new("h3")
            .with_input("n", Value::Int(30))
            .malicious(Attack::TamperVariable {
                name: "total".into(),
                value: Value::Int(0),
            });
        let mut hosts = build_hosts(None, Some(h3));
        let log = EventLog::new();
        let outcome = run_protected_journey(
            &mut hosts,
            "h1",
            sum_agent(),
            &ProtocolConfig::default(),
            &log,
        )
        .unwrap();
        // The tampering happened on the *last* host; the owner's final
        // verification flags it (no next host exists to do it).
        assert!(!outcome.clean());
        let last = outcome.verdicts.last().unwrap();
        assert_eq!(last.checker.as_str(), "owner");
        assert!(!last.passed());
    }

    #[test]
    fn stats_accumulate() {
        let mut hosts = build_hosts(None, None);
        let log = EventLog::new();
        let outcome = run_protected_journey(
            &mut hosts,
            "h1",
            sum_agent(),
            &ProtocolConfig::default(),
            &log,
        )
        .unwrap();
        let s = &outcome.stats;
        assert!(s.total >= s.sign_verify + s.checking);
        assert!(s.signatures > 0 && s.verifications > 0);
        assert!(s.remainder() <= s.total);
    }

    /// One journey with deferred signatures, settled alone: a batch of
    /// one through the same seam a service settles whole ticks with.
    fn run_deferred_alone(
        hosts: &mut [Host],
        agent: AgentImage,
        config: &ProtocolConfig,
        log: &EventLog,
        directory: &KeyDirectory,
    ) -> ProtocolOutcome {
        let mut queue = VerificationQueue::new();
        let journey =
            run_protected_journey_deferred(hosts, "h1", agent, config, log, directory, &mut queue)
                .unwrap();
        let mut journeys = vec![journey];
        settle_deferred(&mut journeys, config, log, directory, &mut queue);
        assert!(queue.is_empty(), "settle flushes the queue");
        journeys.pop().unwrap().outcome
    }

    #[test]
    fn batched_journey_matches_eager_journey() {
        let run = |batched: bool, attack: Option<Attack>| {
            let mut hosts = build_hosts(attack, None);
            let log = EventLog::new();
            let directory = host_directory(&hosts);
            if batched {
                let config = ProtocolConfig::default();
                run_deferred_alone(&mut hosts, sum_agent(), &config, &log, &directory)
            } else {
                run_protected_journey(
                    &mut hosts,
                    "h1",
                    sum_agent(),
                    &ProtocolConfig::default(),
                    &log,
                )
                .unwrap()
            }
        };

        // Honest: identical result, same number of verifications.
        let eager = run(false, None);
        let batched = run(true, None);
        assert!(batched.clean());
        assert_eq!(batched.final_state, eager.final_state);
        assert_eq!(batched.path, eager.path);
        assert_eq!(batched.stats.verifications, eager.stats.verifications);

        // Tampering: the per-hop re-execution check still catches it with
        // the same culprit/detector — deferral moves only the
        // authenticity check.
        let attack = || {
            Some(Attack::TamperVariable {
                name: "total".into(),
                value: Value::Int(7),
            })
        };
        let eager = run(false, attack());
        let batched = run(true, attack());
        let ef = eager.fraud.expect("eager detects");
        let bf = batched.fraud.expect("batched detects");
        assert_eq!(bf.culprit, ef.culprit);
        assert_eq!(bf.detector, ef.detector);
    }

    #[test]
    fn batched_journey_flags_unverifiable_signer_at_flush() {
        let mut hosts = build_hosts(None, None);
        let log = EventLog::new();
        // A broken PKI: h2's key never registered. Eager mode would abort
        // at h3's arrival check; deferred mode completes the journey and
        // the owner's batch flush raises the fraud.
        let mut directory = KeyDirectory::new();
        for h in hosts.iter().filter(|h| h.id().as_str() != "h2") {
            directory.register(h.id().as_str(), h.public_key().clone());
        }
        let config = ProtocolConfig::default();
        let outcome = run_deferred_alone(&mut hosts, sum_agent(), &config, &log, &directory);
        let fraud = outcome.fraud.expect("unverifiable certificate flagged");
        assert_eq!(fraud.culprit.as_str(), "h2");
        assert_eq!(fraud.detector.as_str(), "owner");
        // The evidence recovered the full claimed states from the
        // deferred certificate bytes.
        assert_eq!(fraud.claimed_state.get_int("total"), Some(30));
    }

    /// Renders verdicts compactly for cross-run comparison.
    fn verdict_lines(outcome: &ProtocolOutcome) -> Vec<String> {
        outcome
            .verdicts
            .iter()
            .map(|v| {
                format!(
                    "{}<-{} seq={} {}",
                    v.checked,
                    v.checker,
                    v.seq,
                    match &v.failure {
                        None => "ok".to_owned(),
                        Some(r) => r.to_string(),
                    }
                )
            })
            .collect()
    }

    #[test]
    fn amortized_settlement_matches_per_journey_settlement() {
        // Three journeys with distinct agents: honest, mid-route tamperer,
        // and an untrusted final host the owner must check. Settling all
        // three in one pass must yield the same per-journey verdict
        // streams as settling each alone.
        let scenarios: Vec<(&str, Option<Attack>, Option<HostSpec>)> = vec![
            ("fleet-0", None, None),
            (
                "fleet-1",
                Some(Attack::TamperVariable {
                    name: "total".into(),
                    value: Value::Int(7),
                }),
                None,
            ),
            (
                "fleet-2",
                None,
                Some(
                    HostSpec::new("h3")
                        .with_input("n", Value::Int(30))
                        .malicious(Attack::TamperVariable {
                            name: "total".into(),
                            value: Value::Int(0),
                        }),
                ),
            ),
        ];
        let agent_named = |name: &str| {
            let mut a = sum_agent();
            a.id = AgentId::new(name);
            a
        };
        let config = ProtocolConfig::default();

        // Reference: each journey deferred and settled alone.
        let mut reference = Vec::new();
        for (name, attack, h3) in &scenarios {
            let mut hosts = build_hosts(attack.clone(), h3.clone());
            let log = EventLog::new();
            let directory = host_directory(&hosts);
            let outcome =
                run_deferred_alone(&mut hosts, agent_named(name), &config, &log, &directory);
            reference.push(verdict_lines(&outcome));
        }

        let log = EventLog::new();
        let mut queue = VerificationQueue::new();
        let mut journeys = Vec::new();
        let mut host_sets: Vec<Vec<Host>> = scenarios
            .iter()
            .map(|(_, attack, h3)| build_hosts(attack.clone(), h3.clone()))
            .collect();
        // `build_hosts` reseeds identically, so every set carries the
        // same key material — one directory covers them all.
        let directory = host_directory(&host_sets[0]);
        for ((name, _, _), hosts) in scenarios.iter().zip(host_sets.iter_mut()) {
            let journey = run_protected_journey_deferred(
                hosts,
                "h1",
                agent_named(name),
                &config,
                &log,
                &directory,
                &mut queue,
            )
            .unwrap();
            journeys.push(journey);
        }
        let stats = settle_deferred(&mut journeys, &config, &log, &directory, &mut queue);
        assert!(queue.is_empty(), "settle flushes the shared queue");
        assert_eq!(
            stats.final_checks, 1,
            "only fleet-2 halts on an untrusted host"
        );
        assert_eq!(stats.unattributed_failures, 0);
        for (journey, expected) in journeys.iter().zip(&reference) {
            assert_eq!(&verdict_lines(&journey.outcome), expected);
        }
    }

    #[test]
    fn certificate_wire_round_trip() {
        use refstate_wire::{from_wire, to_wire};
        let cert = SessionCertificate {
            agent: AgentId::new("a"),
            seq: 2,
            executor: HostId::new("h"),
            initial_state: [("x".to_string(), Value::Int(1))].into_iter().collect(),
            resulting_state: [("x".to_string(), Value::Int(2))].into_iter().collect(),
            input: InputLog::new(),
            next: Some(HostId::new("h2")),
        };
        assert_eq!(
            from_wire::<SessionCertificate>(&to_wire(&cert)).unwrap(),
            cert
        );
        let halted = SessionCertificate { next: None, ..cert };
        assert_eq!(
            from_wire::<SessionCertificate>(&to_wire(&halted)).unwrap(),
            halted
        );
        let commit = InitCommitment {
            agent: AgentId::new("a"),
            seq: 1,
            receiver: HostId::new("h2"),
            initial_digest: sha256(b"state"),
        };
        assert_eq!(
            from_wire::<InitCommitment>(&to_wire(&commit)).unwrap(),
            commit
        );
    }

    #[test]
    fn digests_bind_states() {
        let cert = SessionCertificate {
            agent: AgentId::new("a"),
            seq: 0,
            executor: HostId::new("h"),
            initial_state: [("x".to_string(), Value::Int(1))].into_iter().collect(),
            resulting_state: [("x".to_string(), Value::Int(2))].into_iter().collect(),
            input: InputLog::new(),
            next: None,
        };
        assert_ne!(cert.initial_digest(), cert.resulting_digest());
        let mut cert2 = cert.clone();
        cert2.resulting_state.set("x", Value::Int(3));
        assert_ne!(cert.resulting_digest(), cert2.resulting_digest());
    }
}
