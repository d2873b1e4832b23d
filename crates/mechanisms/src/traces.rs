//! Execution traces (Vigna — §3.3).
//!
//! Every host records a trace of its session, *stores it locally*, and
//! forwards only signed hashes: `hash(trace)` and `hash(resulting state)`.
//! The agent continues its journey unimpeded. Later — only if the owner
//! suspects fraud — the owner requests the traces, verifies each against
//! the signed hash, re-executes the sessions from the initial state using
//! the recorded inputs, and compares resulting-state hashes. The first host
//! whose re-execution diverges from its own signed claim is the cheater.
//!
//! Two properties the paper highlights, both tested below:
//!
//! * the owner "can only determine which host played wrong, but not the
//!   difference in the agent state as only hashes of the final states
//!   exist" — the audit report exposes digests, not states;
//! * detection works "as long as the host does not lie about the input".

use std::convert::Infallible;
use std::ops::ControlFlow;

use refstate_crypto::{sha256, Digest, KeyDirectory, Signed, VerificationQueue};
use refstate_platform::{
    walk, AgentId, AgentImage, Event, EventLog, Host, HostId, JourneyError, Leg, SessionRecord,
    Visit,
};
use refstate_vm::{DataState, ExecConfig, InputLog, Program, SessionEnd, Trace, TraceMode};
use refstate_wire::{to_wire, Decode, Encode, Reader, WireError, Writer};

use refstate_core::verdict::CheckVerdict;
use refstate_core::{FailureReason, ReplaySummary, VerificationPipeline};

/// The signed hashes a host forwards after its session (Vigna's protocol
/// message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCommitment {
    /// The agent.
    pub agent: AgentId,
    /// Session sequence number.
    pub seq: u64,
    /// The executing host.
    pub executor: HostId,
    /// Hash of the initial agent state of this session.
    pub initial_digest: Digest,
    /// Hash of the recorded trace.
    pub trace_digest: Digest,
    /// Hash of the resulting agent state.
    pub resulting_digest: Digest,
    /// The claimed next hop (`None` = halt).
    pub next: Option<HostId>,
}

impl Encode for TraceCommitment {
    fn encode(&self, w: &mut Writer) {
        self.agent.encode(w);
        w.put_u64(self.seq);
        self.executor.encode(w);
        self.initial_digest.encode(w);
        self.trace_digest.encode(w);
        self.resulting_digest.encode(w);
        match &self.next {
            Some(h) => {
                w.put_u8(1);
                h.encode(w);
            }
            None => w.put_u8(0),
        }
    }
}

impl Decode for TraceCommitment {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TraceCommitment {
            agent: AgentId::decode(r)?,
            seq: r.take_u64()?,
            executor: HostId::decode(r)?,
            initial_digest: Digest::decode(r)?,
            trace_digest: Digest::decode(r)?,
            resulting_digest: Digest::decode(r)?,
            next: match r.take_u8()? {
                0 => None,
                1 => Some(HostId::decode(r)?),
                tag => {
                    return Err(WireError::InvalidTag {
                        context: "TraceCommitment.next",
                        tag,
                    })
                }
            },
        })
    }
}

/// What each host retains locally for a possible future audit.
#[derive(Debug, Clone)]
pub struct StoredSession {
    /// The executing host (owner of this store entry).
    pub executor: HostId,
    /// Session sequence number.
    pub seq: u64,
    /// The session's initial agent state.
    pub initial_state: DataState,
    /// The recorded trace.
    pub trace: Trace,
    /// The recorded input (the values the trace's input entries carry).
    pub input: InputLog,
}

/// A completed traced journey: the agent result plus everything the audit
/// protocol may later need.
#[derive(Debug)]
pub struct TracedJourney {
    /// The agent's last known state.
    pub final_state: DataState,
    /// Hosts visited in order.
    pub path: Vec<HostId>,
    /// Signed commitments, as received by the owner (one per session).
    pub commitments: Vec<Signed<TraceCommitment>>,
    /// Simulated per-host trace storage.
    pub stores: Vec<StoredSession>,
    /// Set when a session crashed and the journey ended early. A crash on
    /// an honest host downstream of a manipulation is itself the
    /// "suspicion" that triggers the owner audit.
    pub failure: Option<String>,
}

/// The result of an owner audit.
#[derive(Debug)]
pub struct AuditReport {
    /// The first host caught cheating, if any.
    pub culprit: Option<HostId>,
    /// Per-session audit verdicts, in order.
    pub verdicts: Vec<CheckVerdict>,
    /// Digest-level evidence for a detected fraud: `(claimed, reference)`.
    /// Note: digests only — Vigna's protocol keeps no full states.
    pub digest_evidence: Option<(Digest, Digest)>,
}

impl AuditReport {
    /// Returns `true` when every session audit passed.
    pub fn clean(&self) -> bool {
        self.culprit.is_none()
    }
}

/// The traces' part of the itinerary: on departure, the host stores its
/// trace locally and signs the hashes it forwards.
#[derive(Default)]
struct Tracing {
    commitments: Vec<Signed<TraceCommitment>>,
    stores: Vec<StoredSession>,
}

impl Leg for Tracing {
    type Stop = Infallible;

    fn depart(
        &mut self,
        mut visit: Visit<'_>,
        record: SessionRecord,
    ) -> ControlFlow<Infallible, usize> {
        let (seq, executor) = (visit.seq(), visit.here().clone());
        let commitment = TraceCommitment {
            agent: visit.agent.id.clone(),
            seq,
            executor: executor.clone(),
            initial_digest: sha256(&to_wire(&record.initial_state)),
            trace_digest: sha256(&to_wire(&record.outcome.trace)),
            resulting_digest: sha256(&to_wire(&record.outcome.state)),
            next: record.next_hop(),
        };
        self.commitments.push(visit.sign(commitment).0);
        self.stores.push(StoredSession {
            executor,
            seq,
            initial_state: record.initial_state,
            trace: record.outcome.trace,
            input: record.outcome.input_log,
        });
        ControlFlow::Continue(0)
    }
}

/// Runs a journey under the traces mechanism: hosts execute with full
/// tracing, store traces locally, and forward signed commitments.
///
/// A session that crashes ends the journey early with
/// [`TracedJourney::failure`] set, keeping what was collected so far for
/// the owner's audit.
///
/// # Errors
///
/// See [`JourneyError`]; a crashed session is not an error.
pub fn run_traced_journey(
    hosts: &mut [Host],
    start: impl Into<HostId>,
    agent: AgentImage,
    exec: &ExecConfig,
    log: &EventLog,
    max_hops: usize,
) -> Result<TracedJourney, JourneyError> {
    let mut exec = exec.clone();
    exec.trace_mode = TraceMode::Full;
    let mut leg = Tracing::default();
    let walk = walk(hosts, start, agent, &exec, log, max_hops, &mut leg);
    let failure = match walk.result {
        Ok(_) => None,
        // The agent crashed mid-journey (often the downstream symptom of
        // an upstream manipulation).
        Err(JourneyError::Vm(e)) => Some(e.to_string()),
        Err(e) => return Err(e),
    };
    Ok(TracedJourney {
        final_state: walk.image.state,
        path: walk.path,
        commitments: leg.commitments,
        stores: leg.stores,
        failure,
    })
}

/// The owner-side audit: verify commitments, fetch traces, re-execute, and
/// identify the first cheating host.
///
/// The audit walks the sessions in order and stops at the first
/// inconsistency (later sessions ran on a corrupted state and cannot be
/// judged fairly). Re-executions run through `pipeline`, which counts
/// them.
pub fn audit_journey(
    journey: &TracedJourney,
    program: &Program,
    directory: &KeyDirectory,
    exec: &ExecConfig,
    log: &EventLog,
    pipeline: &VerificationPipeline,
) -> AuditReport {
    let owner = HostId::new("owner");
    let mut verdicts = Vec::new();

    // Every commitment signature in one batch, which shares one inversion
    // instead of paying one per commitment. The walk reads session i's
    // verdict where it judges session i, so the first failure, and all it
    // records, are the ones a check per commitment finds.
    let mut queue = VerificationQueue::new();
    for signed in &journey.commitments {
        queue.defer_signed(signed);
    }
    let signatures: Vec<bool> = queue
        .flush(directory)
        .into_iter()
        .map(|(_, ok)| ok)
        .collect();

    let mut expected_initial: Option<Digest> = None;
    for (i, signed) in journey.commitments.iter().enumerate() {
        let commitment = signed.payload();
        let executor = commitment.executor.clone();
        let fail = |reason: FailureReason,
                    verdicts: &mut Vec<CheckVerdict>,
                    evidence: Option<(Digest, Digest)>| {
            log.record(Event::FraudDetected {
                culprit: executor.clone(),
                detector: owner.clone(),
                reason: reason.to_string(),
            });
            verdicts.push(CheckVerdict {
                checked: executor.clone(),
                checker: owner.clone(),
                seq: commitment.seq,
                failure: Some(reason),
            });
            AuditReport {
                culprit: Some(executor.clone()),
                verdicts: std::mem::take(verdicts),
                digest_evidence: evidence,
            }
        };

        // 1. The commitment signature must verify.
        if !signatures[i] {
            return fail(
                FailureReason::ProgramRejected {
                    detail: "commitment signature invalid".into(),
                },
                &mut verdicts,
                None,
            );
        }
        // 2. Chain: this session's initial digest must equal the previous
        //    session's resulting digest.
        if let Some(expected) = expected_initial {
            if commitment.initial_digest != expected {
                return fail(
                    FailureReason::ProgramRejected {
                        detail: "initial-state digest does not chain to previous session".into(),
                    },
                    &mut verdicts,
                    Some((commitment.initial_digest, expected)),
                );
            }
        }
        // 3. The stored trace must hash to the committed trace digest
        //    ("if these hashes are identical, the host commits on this
        //    trace").
        let store = match journey.stores.get(i) {
            Some(s) if s.executor == commitment.executor => s,
            _ => {
                return fail(
                    FailureReason::ProgramRejected {
                        detail: "host cannot produce its stored trace".into(),
                    },
                    &mut verdicts,
                    None,
                )
            }
        };
        if sha256(&to_wire(&store.trace)) != commitment.trace_digest {
            return fail(
                FailureReason::ProgramRejected {
                    detail: "stored trace does not match committed trace hash".into(),
                },
                &mut verdicts,
                None,
            );
        }
        if sha256(&to_wire(&store.initial_state)) != commitment.initial_digest {
            return fail(
                FailureReason::ProgramRejected {
                    detail: "stored initial state does not match committed hash".into(),
                },
                &mut verdicts,
                None,
            );
        }
        // 4. Re-execute with the recorded inputs; the resulting state hash
        //    must equal the signed resulting hash, and the migration
        //    decision must match the committed next hop. (Vigna's audit
        //    judges the committed hashes only, so a padded input log is
        //    left to the digest comparison — `log_consumed` is
        //    deliberately not a failure here.)
        let summary = pipeline.replay(program, &store.initial_state, &store.input, exec);
        let (reference_digest, reference_next) = match summary {
            ReplaySummary::Ok {
                state_digest, end, ..
            } => {
                let next = match end {
                    SessionEnd::Migrate(h) => Some(HostId::new(h)),
                    SessionEnd::Halt => None,
                };
                (state_digest, next)
            }
            ReplaySummary::Failed(error) => {
                return fail(FailureReason::ReplayFailed { error }, &mut verdicts, None)
            }
        };
        if reference_next != commitment.next {
            return fail(
                FailureReason::ProgramRejected {
                    detail: "committed next hop differs from re-executed migration decision".into(),
                },
                &mut verdicts,
                None,
            );
        }
        if reference_digest != commitment.resulting_digest {
            return fail(
                FailureReason::StateMismatch {
                    claimed: commitment.resulting_digest,
                    reference: reference_digest,
                    // Vigna: hashes only, no state-level diff is available.
                    diff: Vec::new(),
                },
                &mut verdicts,
                Some((commitment.resulting_digest, reference_digest)),
            );
        }

        log.record(Event::CheckPerformed {
            checker: owner.clone(),
            checked: executor.clone(),
            passed: true,
        });
        verdicts.push(CheckVerdict {
            checked: executor,
            checker: owner.clone(),
            seq: commitment.seq,
            failure: None,
        });
        expected_initial = Some(commitment.resulting_digest);
    }

    AuditReport {
        culprit: None,
        verdicts,
        digest_evidence: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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
            jnz to_b
            load "hops"
            push 2
            eq
            jnz to_c
            halt
        to_b:
            push "b"
            migrate
        to_c:
            push "c"
            migrate
        "#,
        )
        .unwrap();
        let mut state = DataState::new();
        state.set("total", Value::Int(0));
        state.set("hops", Value::Int(0));
        AgentImage::new("summer", program, state)
    }

    fn setup(b_attack: Option<Attack>) -> (Vec<Host>, KeyDirectory) {
        let mut rng = StdRng::seed_from_u64(321);
        let params = DsaParams::test_group_256();
        let mut b = HostSpec::new("b").with_input("n", Value::Int(20));
        if let Some(a) = b_attack {
            b = b.malicious(a);
        }
        let hosts = vec![
            Host::new(
                HostSpec::new("a").trusted().with_input("n", Value::Int(10)),
                &params,
                &mut rng,
            ),
            Host::new(b, &params, &mut rng),
            Host::new(
                HostSpec::new("c").trusted().with_input("n", Value::Int(30)),
                &params,
                &mut rng,
            ),
        ];
        let mut dir = KeyDirectory::new();
        for h in &hosts {
            dir.register(h.id().as_str(), h.public_key().clone());
        }
        (hosts, dir)
    }

    #[test]
    fn honest_journey_audits_clean() {
        let (mut hosts, dir) = setup(None);
        let log = EventLog::new();
        let agent = sum_agent();
        let program = agent.program.clone();
        let journey =
            run_traced_journey(&mut hosts, "a", agent, &ExecConfig::default(), &log, 10).unwrap();
        assert_eq!(journey.final_state.get_int("total"), Some(60));
        assert_eq!(journey.commitments.len(), 3);
        assert_eq!(journey.stores.len(), 3);
        let report = audit_journey(
            &journey,
            &program,
            &dir,
            &ExecConfig::default(),
            &log,
            &VerificationPipeline::new(),
        );
        assert!(report.clean());
        assert_eq!(report.verdicts.len(), 3);
    }

    #[test]
    fn tampering_host_identified_by_audit() {
        let (mut hosts, dir) = setup(Some(Attack::TamperVariable {
            name: "total".into(),
            value: Value::Int(999),
        }));
        let log = EventLog::new();
        let agent = sum_agent();
        let program = agent.program.clone();
        let journey =
            run_traced_journey(&mut hosts, "a", agent, &ExecConfig::default(), &log, 10).unwrap();
        // The journey itself completes — nothing checks en route; the wrong
        // value rode along to the end.
        assert_eq!(journey.final_state.get_int("total"), Some(1029));
        let report = audit_journey(
            &journey,
            &program,
            &dir,
            &ExecConfig::default(),
            &log,
            &VerificationPipeline::new(),
        );
        assert_eq!(report.culprit, Some(HostId::new("b")));
        // Evidence is digest-level only (the paper's stated limitation).
        let (claimed, reference) = report.digest_evidence.expect("digest evidence");
        assert_ne!(claimed, reference);
    }

    #[test]
    fn input_forgery_survives_audit() {
        let (mut hosts, dir) = setup(Some(Attack::ForgeInput {
            tag: "n".into(),
            value: Value::Int(-5),
        }));
        let log = EventLog::new();
        let agent = sum_agent();
        let program = agent.program.clone();
        let journey =
            run_traced_journey(&mut hosts, "a", agent, &ExecConfig::default(), &log, 10).unwrap();
        let report = audit_journey(
            &journey,
            &program,
            &dir,
            &ExecConfig::default(),
            &log,
            &VerificationPipeline::new(),
        );
        assert!(
            report.clean(),
            "detection works only as long as the host does not lie about the input"
        );
    }

    #[test]
    fn missing_stored_trace_blames_the_host() {
        let (mut hosts, dir) = setup(Some(Attack::TamperVariable {
            name: "total".into(),
            value: Value::Int(999),
        }));
        let log = EventLog::new();
        let agent = sum_agent();
        let program = agent.program.clone();
        let mut journey =
            run_traced_journey(&mut hosts, "a", agent, &ExecConfig::default(), &log, 10).unwrap();
        // The cheater "loses" its trace to evade re-execution: still blamed.
        journey.stores[1].trace = Trace::new(TraceMode::Full);
        let report = audit_journey(
            &journey,
            &program,
            &dir,
            &ExecConfig::default(),
            &log,
            &VerificationPipeline::new(),
        );
        assert_eq!(report.culprit, Some(HostId::new("b")));
    }

    #[test]
    fn commitment_tampering_fails_signature_check() {
        let (mut hosts, dir) = setup(None);
        let log = EventLog::new();
        let agent = sum_agent();
        let program = agent.program.clone();
        let mut journey =
            run_traced_journey(&mut hosts, "a", agent, &ExecConfig::default(), &log, 10).unwrap();
        // Someone rewrites host b's committed resulting hash in transit.
        journey.commitments[1] = journey.commitments[1].clone().tampered_with(|mut c| {
            c.resulting_digest = sha256(b"forged");
            c
        });
        let report = audit_journey(
            &journey,
            &program,
            &dir,
            &ExecConfig::default(),
            &log,
            &VerificationPipeline::new(),
        );
        assert_eq!(report.culprit, Some(HostId::new("b")));
    }

    #[test]
    fn broken_chain_detected() {
        let (mut hosts, dir) = setup(None);
        let log = EventLog::new();
        let agent = sum_agent();
        let program = agent.program.clone();
        let mut journey =
            run_traced_journey(&mut hosts, "a", agent, &ExecConfig::default(), &log, 10).unwrap();
        // Replace session 1's stored initial state AND its commitment with
        // a self-consistent forgery that does not chain to session 0.
        let host_b = hosts.iter_mut().find(|h| h.id().as_str() == "b").unwrap();
        let forged_state: DataState = [("total".to_string(), Value::Int(1))].into_iter().collect();
        let forged = TraceCommitment {
            agent: AgentId::new("summer"),
            seq: 1,
            executor: HostId::new("b"),
            initial_digest: sha256(&to_wire(&forged_state)),
            trace_digest: journey.commitments[1].payload().trace_digest,
            resulting_digest: journey.commitments[1].payload().resulting_digest,
            next: journey.commitments[1].payload().next.clone(),
        };
        journey.commitments[1] = host_b.sign(forged);
        let report = audit_journey(
            &journey,
            &program,
            &dir,
            &ExecConfig::default(),
            &log,
            &VerificationPipeline::new(),
        );
        assert_eq!(report.culprit, Some(HostId::new("b")));
    }

    #[test]
    fn commitment_wire_round_trip() {
        use refstate_wire::{from_wire, to_wire};
        let c = TraceCommitment {
            agent: AgentId::new("a"),
            seq: 1,
            executor: HostId::new("h"),
            initial_digest: sha256(b"i"),
            trace_digest: sha256(b"t"),
            resulting_digest: sha256(b"r"),
            next: Some(HostId::new("n")),
        };
        assert_eq!(from_wire::<TraceCommitment>(&to_wire(&c)).unwrap(), c);
    }
}
