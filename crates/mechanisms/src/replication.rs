//! Server replication (Minsky, van Renesse, Schneider, Stoller — §3.2).
//!
//! Every *stage* of the journey is executed in parallel by a set of
//! independent replica hosts offering the same resources. After each stage
//! the replicas vote on the resulting agent state; the majority wins and
//! seeds the next stage. Up to `⌈n/2⌉ - 1` malicious replicas per stage are
//! outvoted — including colluders across *different* stages, the property
//! the paper highlights.

use std::collections::BTreeMap;

use refstate_core::{ReplaySummary, VerificationPipeline};
use refstate_crypto::{sha256, Digest};
use refstate_platform::{AgentImage, Event, EventLog, Host, HostId, JourneyError};
use refstate_vm::{DataState, ExecConfig, InputLog, SessionEnd};
use refstate_wire::to_wire;

/// One stage: the replica hosts that execute it in parallel.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// The replicas (index into the journey's host slice, by id).
    pub replicas: Vec<HostId>,
}

impl StageSpec {
    /// A stage over the given replicas.
    pub fn new<I: IntoIterator<Item = H>, H: Into<HostId>>(replicas: I) -> Self {
        StageSpec {
            replicas: replicas.into_iter().map(Into::into).collect(),
        }
    }
}

/// The vote record of one stage.
#[derive(Debug, Clone)]
pub struct StageVote {
    /// The stage index.
    pub stage: usize,
    /// Votes per resulting-state digest.
    pub tally: BTreeMap<Digest, Vec<HostId>>,
    /// The winning digest (majority), if any.
    pub winner: Option<Digest>,
    /// Replicas that voted against the majority — the suspects.
    pub dissenters: Vec<HostId>,
}

impl StageVote {
    /// Returns `true` if a strict majority agreed.
    pub fn has_majority(&self) -> bool {
        self.winner.is_some()
    }
}

/// The outcome of a replicated pipeline run.
#[derive(Debug)]
pub struct ReplicationOutcome {
    /// The final voted agent state (absent when a stage had no majority).
    pub final_state: Option<DataState>,
    /// Per-stage vote records.
    pub votes: Vec<StageVote>,
    /// All hosts that ever dissented from a majority.
    pub suspects: Vec<HostId>,
    /// Suspects whose dissent is *confirmed tampering*: re-executing the
    /// replica's own recorded session input through the verification
    /// pipeline produced a state or continuation decision different from
    /// the one it claimed, so the replica lied about its computation (a
    /// suspect absent here diverged consistently with its own log — e.g.
    /// forged input, which replicated resources expose but re-execution
    /// cannot, §4.2). The vote — and therefore `suspects` — is
    /// unaffected.
    pub confirmed_tampering: Vec<HostId>,
}

impl ReplicationOutcome {
    /// Returns `true` when every stage reached a majority and nobody
    /// dissented.
    pub fn unanimous(&self) -> bool {
        self.suspects.is_empty() && self.votes.iter().all(StageVote::has_majority)
    }
}

/// Runs the agent through a pipeline of replicated stages.
///
/// Each stage executes one session of the agent on every replica, starting
/// from the previous stage's majority state. The replicas' input feeds play
/// the role of the replicated resources (honest replicas must be
/// provisioned identically, which is the mechanism's deployment burden the
/// paper points out). A stage without a majority (more than `⌈n/2⌉-1`
/// malicious or diverging replicas) ends the run with
/// [`ReplicationOutcome::final_state`] `None`.
///
/// Every dissenting replica's session is then re-executed from its own
/// recorded input log through `pipeline`, and replicas whose claimed state
/// or continuation diverges from that reference are reported in
/// [`ReplicationOutcome::confirmed_tampering`] — reference-state-grade
/// evidence on top of the vote.
///
/// # Errors
///
/// [`JourneyError::UnknownHost`] for a replica that is not in `hosts`,
/// [`JourneyError::Vm`] for a replica session that failed.
pub fn run_replicated_pipeline(
    hosts: &mut [Host],
    stages: &[StageSpec],
    agent: AgentImage,
    exec: &ExecConfig,
    log: &EventLog,
    pipeline: &VerificationPipeline,
) -> Result<ReplicationOutcome, JourneyError> {
    let mut state = agent.state.clone();
    let mut votes = Vec::with_capacity(stages.len());
    let mut suspects: Vec<HostId> = Vec::new();
    let mut confirmed_tampering: Vec<HostId> = Vec::new();

    for (stage_index, stage) in stages.iter().enumerate() {
        let mut tally: BTreeMap<Digest, Vec<HostId>> = BTreeMap::new();
        let mut states: BTreeMap<Digest, DataState> = BTreeMap::new();
        // Per replica: the recorded input (moved, not cloned) and the
        // claimed session end, kept for the pipeline confirmation of
        // dissenters. The honest-majority path pays nothing beyond these
        // moves.
        let mut claims: Vec<(HostId, InputLog, SessionEnd)> = Vec::new();

        for replica_id in &stage.replicas {
            let host = hosts
                .iter_mut()
                .find(|h| h.id() == replica_id)
                .ok_or_else(|| JourneyError::UnknownHost {
                    host: replica_id.clone(),
                })?;
            let image = AgentImage::new(agent.id.clone(), agent.program.clone(), state.clone());
            let record = host.execute_session(&image, exec, log)?;
            // The vote covers the resulting state *and* the continuation
            // decision so a replica cannot hijack the itinerary.
            let end_token = match &record.outcome.end {
                SessionEnd::Migrate(h) => format!("migrate:{h}"),
                SessionEnd::Halt => "halt".to_owned(),
            };
            let mut vote_bytes = to_wire(&record.outcome.state);
            vote_bytes.extend_from_slice(end_token.as_bytes());
            let digest = sha256(&vote_bytes);
            tally.entry(digest).or_default().push(replica_id.clone());
            states.insert(digest, record.outcome.state.clone());
            claims.push((
                replica_id.clone(),
                record.outcome.input_log,
                record.outcome.end,
            ));
        }

        let quorum = stage.replicas.len() / 2 + 1;
        let winner = tally
            .iter()
            .find(|(_, voters)| voters.len() >= quorum)
            .map(|(digest, _)| *digest);
        let dissenters: Vec<HostId> = match winner {
            Some(w) => tally
                .iter()
                .filter(|(d, _)| **d != w)
                .flat_map(|(_, voters)| voters.iter().cloned())
                .collect(),
            None => Vec::new(),
        };
        for d in &dissenters {
            if !suspects.contains(d) {
                suspects.push(d.clone());
            }
            log.record(Event::FraudDetected {
                culprit: d.clone(),
                detector: HostId::new(format!("stage-{stage_index}-quorum")),
                reason: "replica vote diverged from majority".into(),
            });
        }
        // Confirm each dissenter against its own log: a replica whose
        // claimed state *or claimed continuation decision* differs from
        // the reference re-execution lied about its computation, not
        // (only) about its resources. Dissent is the rare case, so all
        // hashing happens here, not on the honest-majority path. (`state`
        // still holds this stage's initial state — the winner is adopted
        // below.)
        for (replica, input, claimed_end) in &claims {
            if !dissenters.contains(replica) {
                continue;
            }
            let claimed_digest = tally
                .iter()
                .find(|(_, voters)| voters.contains(replica))
                .and_then(|(digest, _)| states.get(digest))
                .map(|claimed| sha256(&to_wire(claimed)));
            let diverged = match pipeline.replay(&agent.program, &state, input, exec) {
                ReplaySummary::Ok {
                    state_digest, end, ..
                } => {
                    claimed_digest.is_none_or(|claimed| claimed != state_digest)
                        || &end != claimed_end
                }
                // A log the session cannot even replay is a lie too.
                ReplaySummary::Failed(_) => true,
            };
            if diverged && !confirmed_tampering.contains(replica) {
                confirmed_tampering.push(replica.clone());
            }
        }
        let vote = StageVote {
            stage: stage_index,
            tally,
            winner,
            dissenters,
        };
        votes.push(vote);

        match winner {
            Some(w) => state = states.remove(&w).expect("winner digest present"),
            None => {
                return Ok(ReplicationOutcome {
                    final_state: None,
                    votes,
                    suspects,
                    confirmed_tampering,
                });
            }
        }
    }

    Ok(ReplicationOutcome {
        final_state: Some(state),
        votes,
        suspects,
        confirmed_tampering,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use refstate_crypto::DsaParams;
    use refstate_platform::{Attack, HostSpec};
    use refstate_vm::{assemble, Value};

    /// One-session stage program: adds this stage's offer into "total".
    fn stage_agent() -> AgentImage {
        let program = assemble(
            r#"
            input "offer"
            load "total"
            add
            store "total"
            push "next"
            migrate
        "#,
        )
        .unwrap();
        let mut state = DataState::new();
        state.set("total", Value::Int(0));
        AgentImage::new("voter", program, state)
    }

    /// Builds `n` replicas per stage with identical feeds; `bad` lists
    /// (stage, replica) pairs to corrupt.
    fn build(
        stages: usize,
        replicas: usize,
        offers: &[i64],
        bad: &[(usize, usize)],
    ) -> (Vec<Host>, Vec<StageSpec>) {
        let mut rng = StdRng::seed_from_u64(7_000);
        let params = DsaParams::test_group_256();
        let mut hosts = Vec::new();
        let mut specs = Vec::new();
        for (s, &offer) in offers.iter().enumerate().take(stages) {
            let mut ids = Vec::new();
            for r in 0..replicas {
                let id = format!("s{s}r{r}");
                let mut spec = HostSpec::new(id.as_str()).with_input("offer", Value::Int(offer));
                if bad.contains(&(s, r)) {
                    spec = spec.malicious(Attack::TamperVariable {
                        name: "total".into(),
                        value: Value::Int(-1),
                    });
                }
                hosts.push(Host::new(spec, &params, &mut rng));
                ids.push(id);
            }
            specs.push(StageSpec::new(ids));
        }
        (hosts, specs)
    }

    #[test]
    fn all_honest_reaches_unanimous_result() {
        let (mut hosts, stages) = build(3, 3, &[10, 20, 30], &[]);
        let log = EventLog::new();
        let outcome = run_replicated_pipeline(
            &mut hosts,
            &stages,
            stage_agent(),
            &ExecConfig::default(),
            &log,
            &VerificationPipeline::new(),
        )
        .unwrap();
        assert!(outcome.unanimous());
        assert_eq!(outcome.final_state.unwrap().get_int("total"), Some(60));
    }

    #[test]
    fn single_malicious_replica_is_outvoted_and_identified() {
        let (mut hosts, stages) = build(3, 3, &[10, 20, 30], &[(1, 2)]);
        let log = EventLog::new();
        let outcome = run_replicated_pipeline(
            &mut hosts,
            &stages,
            stage_agent(),
            &ExecConfig::default(),
            &log,
            &VerificationPipeline::new(),
        )
        .unwrap();
        assert_eq!(outcome.final_state.unwrap().get_int("total"), Some(60));
        assert_eq!(outcome.suspects, vec![HostId::new("s1r2")]);
        assert!(!outcome.votes[1].has_majority() || outcome.votes[1].dissenters.len() == 1);
    }

    #[test]
    fn cross_stage_colluders_are_each_outvoted() {
        // One attacker in each of two different stages: both caught — "even
        // collaboration attacks between hosts of different steps can be
        // found as long as the condition holds" (§3.2).
        let (mut hosts, stages) = build(3, 3, &[10, 20, 30], &[(0, 0), (2, 1)]);
        let log = EventLog::new();
        let outcome = run_replicated_pipeline(
            &mut hosts,
            &stages,
            stage_agent(),
            &ExecConfig::default(),
            &log,
            &VerificationPipeline::new(),
        )
        .unwrap();
        assert_eq!(outcome.final_state.unwrap().get_int("total"), Some(60));
        assert_eq!(outcome.suspects.len(), 2);
    }

    #[test]
    fn majority_malicious_stage_fails_or_lies() {
        // Two of three replicas corrupt *identically*: they win the vote —
        // the n/2 bound is tight.
        let (mut hosts, stages) = build(2, 3, &[10, 20], &[(0, 0), (0, 1)]);
        let log = EventLog::new();
        let outcome = run_replicated_pipeline(
            &mut hosts,
            &stages,
            stage_agent(),
            &ExecConfig::default(),
            &log,
            &VerificationPipeline::new(),
        )
        .unwrap();
        // The attackers' identical forged state wins stage 0.
        let final_state = outcome.final_state.expect("majority (of attackers) exists");
        assert_eq!(
            final_state.get_int("total"),
            Some(19),
            "-1 forged, then +20 honestly"
        );
        // The honest replica is the one flagged as dissenting!
        assert_eq!(outcome.suspects, vec![HostId::new("s0r2")]);
    }

    #[test]
    fn divergent_attackers_produce_no_majority() {
        // Replicas 0 and 1 both attack but produce different forgeries in a
        // 2-replica stage: no quorum of 2 exists.
        let mut rng = StdRng::seed_from_u64(8_000);
        let params = DsaParams::test_group_256();
        let mut hosts = vec![
            Host::new(
                HostSpec::new("x0")
                    .with_input("offer", Value::Int(5))
                    .malicious(Attack::TamperVariable {
                        name: "total".into(),
                        value: Value::Int(-1),
                    }),
                &params,
                &mut rng,
            ),
            Host::new(
                HostSpec::new("x1")
                    .with_input("offer", Value::Int(5))
                    .malicious(Attack::TamperVariable {
                        name: "total".into(),
                        value: Value::Int(-2),
                    }),
                &params,
                &mut rng,
            ),
        ];
        let stages = vec![StageSpec::new(["x0", "x1"])];
        let log = EventLog::new();
        let outcome = run_replicated_pipeline(
            &mut hosts,
            &stages,
            stage_agent(),
            &ExecConfig::default(),
            &log,
            &VerificationPipeline::new(),
        )
        .unwrap();
        assert!(outcome.final_state.is_none());
        assert!(!outcome.votes[0].has_majority());
    }

    #[test]
    fn checked_pipeline_confirms_state_tampering_but_not_input_forgery() {
        // Stage 1 replica 2 tampers with its state: the vote flags it AND
        // the pipeline confirms the lie from its own log.
        let (mut hosts, stages) = build(3, 3, &[10, 20, 30], &[(1, 2)]);
        let log = EventLog::new();
        let pipeline = VerificationPipeline::new();
        let outcome = run_replicated_pipeline(
            &mut hosts,
            &stages,
            stage_agent(),
            &ExecConfig::default(),
            &log,
            &pipeline,
        )
        .unwrap();
        assert_eq!(outcome.suspects, vec![HostId::new("s1r2")]);
        assert_eq!(outcome.confirmed_tampering, vec![HostId::new("s1r2")]);
        assert!(pipeline.snapshot().replays >= 1);

        // An input-forging replica diverges *consistently* with its own
        // log: the vote still flags it, but re-execution cannot confirm a
        // computation lie — the paper's §4.2 bandwidth, visible here only
        // because the replicated resources disagree.
        let mut rng = StdRng::seed_from_u64(10_000);
        let params = DsaParams::test_group_256();
        let mut hosts: Vec<Host> = (0..3)
            .map(|i| {
                let mut spec = HostSpec::new(format!("f{i}")).with_input("offer", Value::Int(5));
                if i == 2 {
                    spec = spec.malicious(Attack::ForgeInput {
                        tag: "offer".into(),
                        value: Value::Int(-50),
                    });
                }
                Host::new(spec, &params, &mut rng)
            })
            .collect();
        let stages = vec![StageSpec::new(["f0", "f1", "f2"])];
        let log = EventLog::new();
        let outcome = run_replicated_pipeline(
            &mut hosts,
            &stages,
            stage_agent(),
            &ExecConfig::default(),
            &log,
            &pipeline,
        )
        .unwrap();
        assert_eq!(outcome.suspects, vec![HostId::new("f2")]);
        assert!(
            outcome.confirmed_tampering.is_empty(),
            "input forgery is consistent with the forged log"
        );
    }

    #[test]
    fn checked_pipeline_confirms_migration_hijack() {
        // A replica that computes the honest state but lies about the
        // continuation decision: its own log replays to the honest end,
        // so the hijack is a provable computation lie, not a resource
        // divergence.
        let mut rng = StdRng::seed_from_u64(11_000);
        let params = DsaParams::test_group_256();
        let mut hosts: Vec<Host> = (0..3)
            .map(|i| {
                let mut spec = HostSpec::new(format!("r{i}")).with_input("offer", Value::Int(5));
                if i == 2 {
                    spec = spec.malicious(Attack::RedirectMigration {
                        to: HostId::new("evil"),
                    });
                }
                Host::new(spec, &params, &mut rng)
            })
            .collect();
        let stages = vec![StageSpec::new(["r0", "r1", "r2"])];
        let log = EventLog::new();
        let pipeline = VerificationPipeline::new();
        let outcome = run_replicated_pipeline(
            &mut hosts,
            &stages,
            stage_agent(),
            &ExecConfig::default(),
            &log,
            &pipeline,
        )
        .unwrap();
        assert_eq!(outcome.suspects, vec![HostId::new("r2")]);
        assert_eq!(outcome.confirmed_tampering, vec![HostId::new("r2")]);
    }

    #[test]
    fn unknown_replica_is_an_error() {
        let (mut hosts, _) = build(1, 2, &[1], &[]);
        let stages = vec![StageSpec::new(["ghost"])];
        let log = EventLog::new();
        let err = run_replicated_pipeline(
            &mut hosts,
            &stages,
            stage_agent(),
            &ExecConfig::default(),
            &log,
            &VerificationPipeline::new(),
        )
        .unwrap_err();
        assert!(matches!(err, JourneyError::UnknownHost { .. }));
    }

    #[test]
    fn vote_covers_migration_decision() {
        // A replica that redirects migration (same state, different next
        // hop) must still dissent.
        let mut rng = StdRng::seed_from_u64(9_000);
        let params = DsaParams::test_group_256();
        let mut hosts = vec![
            Host::new(
                HostSpec::new("y0").with_input("offer", Value::Int(5)),
                &params,
                &mut rng,
            ),
            Host::new(
                HostSpec::new("y1").with_input("offer", Value::Int(5)),
                &params,
                &mut rng,
            ),
            Host::new(
                HostSpec::new("y2")
                    .with_input("offer", Value::Int(5))
                    .malicious(Attack::RedirectMigration {
                        to: HostId::new("evil"),
                    }),
                &params,
                &mut rng,
            ),
        ];
        let stages = vec![StageSpec::new(["y0", "y1", "y2"])];
        let log = EventLog::new();
        let outcome = run_replicated_pipeline(
            &mut hosts,
            &stages,
            stage_agent(),
            &ExecConfig::default(),
            &log,
            &VerificationPipeline::new(),
        )
        .unwrap();
        assert_eq!(outcome.suspects, vec![HostId::new("y2")]);
    }
}
