//! The itinerary every linear journey driver runs on ([`walk`]), and the
//! plain (unprotected) driver built on it.

use std::convert::Infallible;
use std::error::Error;
use std::fmt;
use std::ops::ControlFlow;

use refstate_crypto::{draw_nonces_of, Signed};
use refstate_vm::{ExecConfig, SessionEnd, VmError};
use refstate_wire::{with_scratch, Encode};

use crate::agent::AgentImage;
use crate::event::{Event, EventLog};
use crate::host::{Host, HostId, SessionRecord};

/// Errors from running a journey.
#[derive(Debug)]
#[non_exhaustive]
pub enum JourneyError {
    /// The agent asked to migrate to a host that does not exist.
    UnknownHost {
        /// The requested destination.
        host: HostId,
    },
    /// The journey exceeded the hop limit (runaway itinerary).
    TooManyHops {
        /// The limit that was hit.
        limit: usize,
    },
    /// A session failed.
    Vm(VmError),
}

impl fmt::Display for JourneyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JourneyError::UnknownHost { host } => write!(f, "unknown migration target {host}"),
            JourneyError::TooManyHops { limit } => write!(f, "journey exceeded {limit} hops"),
            JourneyError::Vm(e) => write!(f, "session failed: {e}"),
        }
    }
}

impl Error for JourneyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JourneyError::Vm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VmError> for JourneyError {
    fn from(e: VmError) -> Self {
        JourneyError::Vm(e)
    }
}

/// Where a [`Leg`] hook runs: the journey's hosts, the one the agent is
/// on, the path so far, and the agent.
#[derive(Debug)]
pub struct Visit<'a> {
    /// Every host of the journey.
    pub hosts: &'a mut [Host],
    /// The index in `hosts` of the host the agent is on.
    pub at: usize,
    /// The hosts visited so far, in order, ending with this one.
    pub path: &'a [HostId],
    /// The agent. On departure it carries the session's resulting state.
    pub agent: &'a AgentImage,
}

impl Visit<'_> {
    /// The host the agent is on.
    pub fn here(&self) -> &HostId {
        self.path.last().expect("a path starts at the start host")
    }

    /// The host the agent arrived from (`None` at the start host).
    pub fn previous(&self) -> Option<&HostId> {
        self.path.len().checked_sub(2).map(|i| &self.path[i])
    }

    /// The sequence number of this host's session (0 at the start host).
    pub fn seq(&self) -> u64 {
        self.path.len() as u64 - 1
    }

    /// Signs `payload` in the name of the host the agent is on. Returns
    /// the envelope and the length of the payload encoding it signed.
    ///
    /// Nonces are drawn a journey at a time: when this host has none
    /// queued, every host of the journey draws its next one, sharing one
    /// inversion ([`draw_nonces_of`]). A journey that never signs draws
    /// none. Each host signs with its own stream's nonces in stream
    /// order, so its signatures are those [`Host::sign`] alone would make.
    pub fn sign<T: Encode>(&mut self, payload: T) -> (Signed<T>, usize) {
        if self.hosts[self.at].signer().queued() == 0 {
            draw_nonces_of(self.hosts, Host::signer);
        }
        self.hosts[self.at].seal(payload)
    }
}

/// What a linear mechanism adds to the itinerary: a check on arrival and
/// a step on departure. Both default to doing nothing; either can stop
/// the journey with the driver's own outcome.
pub trait Leg {
    /// What a hook stops the journey with (a detected fraud, a verdict).
    type Stop;

    /// Runs when the agent arrives at a host, before its session; never
    /// at the start host.
    fn arrive(&mut self, _visit: Visit<'_>) -> ControlFlow<Self::Stop> {
        ControlFlow::Continue(())
    }

    /// Runs after a host's session, once the agent carries its resulting
    /// state. Continues with the bytes of baggage the migration carries
    /// on top of the agent image (0 when the agent halted).
    fn depart(
        &mut self,
        _visit: Visit<'_>,
        _record: SessionRecord,
    ) -> ControlFlow<Self::Stop, usize> {
        ControlFlow::Continue(0)
    }
}

/// Where a [`walk`] ended.
#[derive(Debug)]
pub struct Walk<S> {
    /// The agent as it ended, with the state of its last completed
    /// session.
    pub image: AgentImage,
    /// The hosts visited, in order, starting with the start host.
    pub path: Vec<HostId>,
    /// `Ok(None)` when the agent halted, `Ok(Some(stop))` when a hook
    /// stopped the journey, or the error that ended it.
    pub result: Result<Option<S>, JourneyError>,
}

/// Walks `agent` from `start` across `hosts`, one session per host, until
/// it halts, `leg` stops it, or something fails.
///
/// The walk owns the itinerary: it records `AgentCreated`; for each of
/// at most `max_hops` sessions it looks up the host (an unknown host is
/// [`JourneyError::UnknownHost`]), calls [`Leg::arrive`] (not at the
/// start host), runs [`Host::execute_session`], gives the agent the
/// resulting state and calls [`Leg::depart`]. On a migration it checks
/// the target exists ([`JourneyError::UnknownHost`], with no event, if
/// not) and records `Migrated` with the image's wire size plus the leg's
/// baggage. A budget that runs out is [`JourneyError::TooManyHops`].
pub fn walk<L: Leg>(
    hosts: &mut [Host],
    start: impl Into<HostId>,
    mut agent: AgentImage,
    exec: &ExecConfig,
    log: &EventLog,
    max_hops: usize,
    leg: &mut L,
) -> Walk<L::Stop> {
    let start = start.into();
    log.record(Event::AgentCreated {
        agent: agent.id.clone(),
        home: start.clone(),
    });
    let mut path = vec![start];
    let result = walk_path(hosts, &mut path, &mut agent, exec, log, max_hops, leg);
    Walk {
        image: agent,
        path,
        result,
    }
}

/// The loop of [`walk`], over a path and agent the caller owns so both
/// survive an error.
fn walk_path<L: Leg>(
    hosts: &mut [Host],
    path: &mut Vec<HostId>,
    agent: &mut AgentImage,
    exec: &ExecConfig,
    log: &EventLog,
    max_hops: usize,
    leg: &mut L,
) -> Result<Option<L::Stop>, JourneyError> {
    // The walk writes only the agent's state and a leg sees the agent by
    // reference, so the id and program part of the image's encoding is
    // the same on every hop. The thread's scratch writer sizes it once,
    // then the state on every hop.
    let fixed_bytes = with_scratch(|w| {
        agent.id.encode(w);
        agent.program.encode(w);
        w.len()
    });
    for _ in 0..max_hops {
        let here = path.last().expect("a path starts at the start host");
        let at = hosts
            .iter()
            .position(|h| h.id() == here)
            .ok_or_else(|| JourneyError::UnknownHost { host: here.clone() })?;
        if path.len() > 1 {
            let visit = Visit {
                hosts: &mut *hosts,
                at,
                path,
                agent,
            };
            if let ControlFlow::Break(stop) = leg.arrive(visit) {
                return Ok(Some(stop));
            }
        }

        let record = hosts[at].execute_session(agent, exec, log)?;
        agent.state = record.outcome.state.clone();
        // Look the target up while the record is at hand; an unknown one
        // is reported only after the leg has seen the departure.
        let next = match &record.outcome.end {
            SessionEnd::Migrate(next) => Some(
                hosts
                    .iter()
                    .position(|h| h.id().as_str() == next)
                    .ok_or_else(|| HostId::from(next.as_str())),
            ),
            SessionEnd::Halt => None,
        };
        let visit = Visit {
            hosts: &mut *hosts,
            at,
            path,
            agent,
        };
        let baggage = match leg.depart(visit, record) {
            ControlFlow::Continue(bytes) => bytes,
            ControlFlow::Break(stop) => return Ok(Some(stop)),
        };

        let Some(next) = next else {
            return Ok(None);
        };
        let next = hosts[next.map_err(|host| JourneyError::UnknownHost { host })?]
            .id()
            .clone();
        let state_bytes = with_scratch(|w| {
            agent.state.encode(w);
            w.len()
        });
        log.record(Event::Migrated {
            from: hosts[at].id().clone(),
            to: next.clone(),
            agent: agent.id.clone(),
            bytes: fixed_bytes + state_bytes + baggage,
        });
        path.push(next);
    }
    Err(JourneyError::TooManyHops { limit: max_hops })
}

/// The result of a completed journey.
#[derive(Debug)]
pub struct JourneyOutcome {
    /// The agent as it finished (final data state).
    pub final_image: AgentImage,
    /// The hosts visited, in order (including the start host).
    pub path: Vec<HostId>,
    /// Per-session records, parallel to `path`.
    pub records: Vec<SessionRecord>,
}

/// Keeps every session record, checks nothing.
struct Records(Vec<SessionRecord>);

impl Leg for Records {
    type Stop = Infallible;

    fn depart(
        &mut self,
        _visit: Visit<'_>,
        record: SessionRecord,
    ) -> ControlFlow<Infallible, usize> {
        self.0.push(record);
        ControlFlow::Continue(0)
    }
}

/// Runs an agent across `hosts` with **no protection at all**: sessions
/// execute, migrations follow the agent's `migrate` instructions, and
/// nobody checks anything.
///
/// This is the baseline the paper's Table 1 measures (modulo the
/// whole-agent signature, which the bench harness adds around this).
///
/// # Errors
///
/// See [`JourneyError`].
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use refstate_crypto::DsaParams;
/// use refstate_platform::*;
/// use refstate_vm::{assemble, DataState, ExecConfig, Value};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let params = DsaParams::test_group_256();
/// let mut hosts = vec![
///     Host::new(HostSpec::new("home").with_input("p", Value::Int(10)), &params, &mut rng),
///     Host::new(HostSpec::new("shop").with_input("p", Value::Int(20)), &params, &mut rng),
/// ];
/// // Collect "p" at home, migrate to the shop once, and halt there.
/// let program = assemble(r#"
///     load "done"
///     jnz finish
///     input "p"
///     store "first"
///     push true
///     store "done"
///     push "shop"
///     migrate
/// finish:
///     halt
/// "#)?;
/// let mut state = DataState::new();
/// state.set("done", Value::Bool(false));
/// let agent = AgentImage::new("a", program, state);
/// let log = EventLog::new();
/// let outcome = run_plain_journey(&mut hosts, "home", agent, &ExecConfig::default(), &log, 10)?;
/// assert_eq!(outcome.path.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_plain_journey(
    hosts: &mut [Host],
    start: impl Into<HostId>,
    agent: AgentImage,
    config: &ExecConfig,
    log: &EventLog,
    max_hops: usize,
) -> Result<JourneyOutcome, JourneyError> {
    let mut records = Records(Vec::new());
    let walk = walk(hosts, start, agent, config, log, max_hops, &mut records);
    walk.result?;
    Ok(JourneyOutcome {
        final_image: walk.image,
        path: walk.path,
        records: records.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use refstate_crypto::DsaParams;
    use refstate_vm::{assemble, DataState, Value};
    use refstate_wire::to_wire;

    use crate::host::HostSpec;

    /// A three-hop agent: collects a quote on each host, then returns the
    /// minimum. The itinerary lives in agent state.
    fn quote_agent() -> AgentImage {
        let program = assemble(
            r#"
            ; collect this host's quote
            input "quote"
            load "quotes"
            swap
            listpush
            store "quotes"
            ; done with the itinerary?
            load "idx"
            load "hosts"
            listlen
            ge
            jnz summarize
            ; migrate to hosts[idx]; idx += 1
            load "hosts"
            load "idx"
            listget
            load "idx"
            push 1
            add
            store "idx"
            migrate
        summarize:
            ; find min quote
            load "quotes"
            push 0
            listget
            store "best"
            push 1
            store "i"
        minloop:
            load "i"
            load "quotes"
            listlen
            ge
            jnz done
            load "quotes"
            load "i"
            listget
            dup
            load "best"
            lt
            jz skip
            store "best"
            jump next
        skip:
            pop
        next:
            load "i"
            push 1
            add
            store "i"
            jump minloop
        done:
            halt
        "#,
        )
        .unwrap();
        let mut state = DataState::new();
        state.set(
            "hosts",
            Value::List(vec![Value::Str("h2".into()), Value::Str("h3".into())]),
        );
        state.set("idx", Value::Int(0));
        state.set("quotes", Value::List(vec![]));
        AgentImage::new("quotes", program, state)
    }

    fn make_hosts(prices: [i64; 3]) -> Vec<Host> {
        let mut rng = StdRng::seed_from_u64(77);
        let params = DsaParams::test_group_256();
        vec![
            Host::new(
                HostSpec::new("h1")
                    .trusted()
                    .with_input("quote", Value::Int(prices[0])),
                &params,
                &mut rng,
            ),
            Host::new(
                HostSpec::new("h2").with_input("quote", Value::Int(prices[1])),
                &params,
                &mut rng,
            ),
            Host::new(
                HostSpec::new("h3").with_input("quote", Value::Int(prices[2])),
                &params,
                &mut rng,
            ),
        ]
    }

    #[test]
    fn three_hop_journey_finds_minimum() {
        let mut hosts = make_hosts([300, 120, 250]);
        let log = EventLog::new();
        let outcome = run_plain_journey(
            &mut hosts,
            "h1",
            quote_agent(),
            &ExecConfig::default(),
            &log,
            10,
        )
        .unwrap();
        assert_eq!(outcome.path.len(), 3);
        assert_eq!(outcome.final_image.state.get_int("best"), Some(120));
        assert_eq!(outcome.records.len(), 3);
        assert_eq!(
            log.count_matching(|e| matches!(e, Event::Migrated { .. })),
            2
        );
    }

    /// Departs with a different non-zero baggage from every host and
    /// remembers the size of the image as it left each one.
    struct Baggage {
        images: Vec<usize>,
        baggage: Vec<usize>,
    }

    impl Leg for Baggage {
        type Stop = Infallible;

        fn depart(
            &mut self,
            visit: Visit<'_>,
            _record: SessionRecord,
        ) -> ControlFlow<Infallible, usize> {
            let baggage = 100 * (visit.seq() as usize + 1);
            self.images.push(to_wire(visit.agent).len());
            self.baggage.push(baggage);
            ControlFlow::Continue(baggage)
        }
    }

    #[test]
    fn migrated_counts_the_departing_image_plus_baggage() {
        let mut hosts = make_hosts([300, 120, 250]);
        let log = EventLog::new();
        let mut leg = Baggage {
            images: Vec::new(),
            baggage: Vec::new(),
        };
        let agent = quote_agent();
        let walked = walk(
            &mut hosts,
            "h1",
            agent,
            &ExecConfig::default(),
            &log,
            10,
            &mut leg,
        );
        assert!(matches!(walked.result, Ok(None)));
        assert_eq!(walked.path.len(), 3);
        assert!(
            leg.images.windows(2).all(|w| w[0] < w[1]),
            "the agent's state grows every hop: {:?}",
            leg.images
        );
        let migrated: Vec<usize> = log
            .snapshot()
            .iter()
            .filter_map(|event| match event {
                Event::Migrated { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        // Every host but the last, which halts, migrates the agent on.
        let expected: Vec<usize> = leg
            .images
            .iter()
            .zip(&leg.baggage)
            .map(|(image, baggage)| image + baggage)
            .take(walked.path.len() - 1)
            .collect();
        assert_eq!(migrated, expected);
    }

    #[test]
    fn unknown_host_reported() {
        let mut hosts = make_hosts([1, 2, 3]);
        let program = assemble("push \"nowhere\"\nmigrate").unwrap();
        let agent = AgentImage::new("lost", program, DataState::new());
        let log = EventLog::new();
        let err = run_plain_journey(&mut hosts, "h1", agent, &ExecConfig::default(), &log, 10)
            .unwrap_err();
        assert!(matches!(err, JourneyError::UnknownHost { .. }));
    }

    #[test]
    fn hop_limit_enforced() {
        let mut hosts = make_hosts([1, 2, 3]);
        // Ping-pong forever between h2 and h3.
        let program = assemble(
            r#"
            load "at2"
            jnz go3
            push true
            store "at2"
            push "h2"
            migrate
        go3:
            push false
            store "at2"
            push "h3"
            migrate
        "#,
        )
        .unwrap();
        let mut state = DataState::new();
        state.set("at2", Value::Bool(false));
        let agent = AgentImage::new("pingpong", program, state);
        let log = EventLog::new();
        let err = run_plain_journey(&mut hosts, "h1", agent, &ExecConfig::default(), &log, 7)
            .unwrap_err();
        assert!(matches!(err, JourneyError::TooManyHops { limit: 7 }));
    }

    #[test]
    fn tampering_host_corrupts_final_result() {
        // The malicious middle host inflates the collected quotes list —
        // with no protection, the owner receives a wrong "best" price.
        let mut rng = StdRng::seed_from_u64(78);
        let params = DsaParams::test_group_256();
        let mut hosts = vec![
            Host::new(
                HostSpec::new("h1")
                    .trusted()
                    .with_input("quote", Value::Int(300)),
                &params,
                &mut rng,
            ),
            Host::new(
                HostSpec::new("h2")
                    .with_input("quote", Value::Int(120))
                    .malicious(crate::attack::Attack::TamperVariable {
                        name: "quotes".into(),
                        value: Value::List(vec![Value::Int(999), Value::Int(998)]),
                    }),
                &params,
                &mut rng,
            ),
            Host::new(
                HostSpec::new("h3").with_input("quote", Value::Int(250)),
                &params,
                &mut rng,
            ),
        ];
        let log = EventLog::new();
        let outcome = run_plain_journey(
            &mut hosts,
            "h1",
            quote_agent(),
            &ExecConfig::default(),
            &log,
            10,
        )
        .unwrap();
        // 120 is gone; the attacker skewed the comparison.
        assert_eq!(outcome.final_image.state.get_int("best"), Some(250));
    }

    #[test]
    fn error_display() {
        let e = JourneyError::UnknownHost {
            host: HostId::new("x"),
        };
        assert!(e.to_string().contains('x'));
        let e = JourneyError::TooManyHops { limit: 3 };
        assert!(e.to_string().contains('3'));
        let e = JourneyError::Vm(VmError::FellOffEnd);
        assert!(e.to_string().contains("session failed"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
