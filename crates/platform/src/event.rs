//! The platform event log: a timeline of everything observable.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use refstate_telemetry as telemetry;

use crate::agent::AgentId;
use crate::host::HostId;

/// One observable platform event.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// An agent was created at its home host.
    AgentCreated {
        /// The agent.
        agent: AgentId,
        /// The home host.
        home: HostId,
    },
    /// A host started an execution session.
    SessionStarted {
        /// The executing host.
        host: HostId,
        /// The agent.
        agent: AgentId,
    },
    /// A host finished an execution session.
    SessionEnded {
        /// The executing host.
        host: HostId,
        /// The agent.
        agent: AgentId,
        /// Instructions executed.
        steps: u64,
    },
    /// An agent (plus protocol baggage) was sent between hosts.
    Migrated {
        /// Sender.
        from: HostId,
        /// Receiver.
        to: HostId,
        /// The agent.
        agent: AgentId,
        /// Size of the migration message in bytes: the agent image's
        /// wire encoding plus the journey driver's baggage.
        bytes: usize,
    },
    /// A host applied an attack.
    AttackApplied {
        /// The malicious host.
        host: HostId,
        /// A short label of the attack (see `Attack::label`).
        attack: String,
    },
    /// A checking step ran.
    CheckPerformed {
        /// The host that checked.
        checker: HostId,
        /// The host whose session was checked.
        checked: HostId,
        /// Whether the check passed.
        passed: bool,
    },
    /// A fraud was detected and attributed.
    FraudDetected {
        /// The host blamed.
        culprit: HostId,
        /// The host (or owner) that detected it.
        detector: HostId,
        /// Human-readable explanation.
        reason: String,
    },
    /// A host left the network mid-journey (environmental churn): agents
    /// that try to migrate to it find nobody listening.
    HostChurned {
        /// The departed host.
        host: HostId,
    },
    /// Free-form annotation from a driver.
    Note {
        /// The annotation.
        text: String,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::AgentCreated { agent, home } => write!(f, "created {agent} at {home}"),
            Event::SessionStarted { host, agent } => write!(f, "{host}: session start {agent}"),
            Event::SessionEnded { host, agent, steps } => {
                write!(f, "{host}: session end {agent} ({steps} steps)")
            }
            Event::Migrated {
                from,
                to,
                agent,
                bytes,
            } => {
                write!(f, "{from} -> {to}: migrate {agent} ({bytes} bytes)")
            }
            Event::AttackApplied { host, attack } => write!(f, "{host}: ATTACK {attack}"),
            Event::CheckPerformed {
                checker,
                checked,
                passed,
            } => {
                write!(
                    f,
                    "{checker}: checked {checked}: {}",
                    if *passed { "ok" } else { "FAILED" }
                )
            }
            Event::FraudDetected {
                culprit,
                detector,
                reason,
            } => {
                write!(f, "{detector}: fraud by {culprit}: {reason}")
            }
            Event::HostChurned { host } => write!(f, "{host}: left the network"),
            Event::Note { text } => write!(f, "note: {text}"),
        }
    }
}

/// A shared, thread-safe, append-only event log.
///
/// Cloning the log clones a handle to the same underlying timeline, so a
/// driver and all its hosts can record into one history — including from
/// the threaded network.
///
/// # Examples
///
/// ```
/// use refstate_platform::{Event, EventLog};
///
/// let log = EventLog::new();
/// log.record(Event::Note { text: "hello".into() });
/// assert_eq!(log.len(), 1);
/// assert!(log.render().contains("hello"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    inner: Arc<LogInner>,
}

/// Number of [`Event`] kinds, for the per-kind telemetry tallies.
const EVENT_KINDS: usize = 9;

/// Telemetry counter names, indexed by [`kind_index`].
const KIND_NAMES: [&str; EVENT_KINDS] = [
    "platform.agent_created",
    "platform.session_started",
    "platform.session_ended",
    "platform.migrated",
    "platform.attack_applied",
    "platform.check_performed",
    "platform.fraud_detected",
    "platform.note",
    "platform.host_churned",
];

fn kind_index(event: &Event) -> usize {
    match event {
        Event::AgentCreated { .. } => 0,
        Event::SessionStarted { .. } => 1,
        Event::SessionEnded { .. } => 2,
        Event::Migrated { .. } => 3,
        Event::AttackApplied { .. } => 4,
        Event::CheckPerformed { .. } => 5,
        Event::FraudDetected { .. } => 6,
        Event::Note { .. } => 7,
        Event::HostChurned { .. } => 8,
    }
}

/// Locks `mutex`, recovering it from a thread that panicked while holding
/// it: each update under the lock leaves the event list whole.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct LogInner {
    events: Mutex<Vec<Event>>,
    /// Per-kind telemetry tallies, batched here so the record hot path
    /// costs one relaxed atomic add per event instead of a full counter
    /// record; flushed into the collector when the log is dropped.
    tallies: [AtomicU64; EVENT_KINDS],
    /// Telemetry scope captured on the first bridged record, so the
    /// batched counters attribute to the mechanism whose journey produced
    /// the events even though the flush happens at drop time.
    telemetry_scope: OnceLock<&'static str>,
}

impl Drop for LogInner {
    fn drop(&mut self) {
        let scope = self.telemetry_scope.get().copied().unwrap_or("");
        for (i, tally) in self.tallies.iter_mut().enumerate() {
            let n = *tally.get_mut();
            if n > 0 {
                telemetry::count_in_scope(scope, KIND_NAMES[i], n);
            }
        }
    }
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    ///
    /// The event is also bridged into telemetry: every kind is tallied
    /// into a per-kind counter (batched in the log, flushed when the log
    /// drops), and the low-frequency kinds additionally become instant
    /// events on the trace timeline at the `Full` level, so platform
    /// history and span traces share one exported timeline.
    pub fn record(&self, event: Event) {
        if telemetry::enabled() {
            self.inner
                .telemetry_scope
                .get_or_init(telemetry::current_scope);
            self.inner.tallies[kind_index(&event)].fetch_add(1, Ordering::Relaxed);
            bridge_instant(&event);
        }
        lock(&self.inner.events).push(event);
    }

    /// The number of recorded events.
    pub fn len(&self) -> usize {
        lock(&self.inner.events).len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.inner.events).is_empty()
    }

    /// A snapshot of the events recorded so far.
    pub fn snapshot(&self) -> Vec<Event> {
        lock(&self.inner.events).clone()
    }

    /// Renders the timeline, one event per line.
    pub fn render(&self) -> String {
        let events = lock(&self.inner.events);
        let mut out = String::new();
        for (i, e) in events.iter().enumerate() {
            out.push_str(&format!("{i:4}  {e}\n"));
        }
        out
    }

    /// Discards every recorded event, keeping the handle (and its
    /// telemetry tallies) alive.
    ///
    /// Long-lived holders — a resident service reusing one log per tenant
    /// across verification ticks — call this between batches so the
    /// timeline doesn't grow without bound. Verdicts never read prior
    /// ticks' events, so clearing is observationally safe there.
    pub fn clear(&self) {
        lock(&self.inner.events).clear();
    }

    /// Counts events matching a predicate.
    pub fn count_matching(&self, predicate: impl Fn(&Event) -> bool) -> usize {
        lock(&self.inner.events)
            .iter()
            .filter(|e| predicate(e))
            .count()
    }
}

/// Mirrors a low-frequency platform event onto the trace timeline as an
/// instant (with the event's principals as args) at the `Full` level.
///
/// The per-hop lifecycle kinds (session start/end, migration, checking)
/// fire tens of times per journey, and the timeline already shows each
/// hop as a `vm.session` span and each check as a `verify.session` span;
/// bridging them as instants too would double the trace volume without
/// adding information, so they are tallied (see [`EventLog::record`]) but
/// not traced. Strictly observational — the event log's own contents are
/// untouched.
fn bridge_instant(event: &Event) {
    if !telemetry::tracing_enabled() {
        return;
    }
    let name = KIND_NAMES[kind_index(event)];
    let args = match event {
        Event::SessionStarted { .. }
        | Event::SessionEnded { .. }
        | Event::Migrated { .. }
        | Event::CheckPerformed { .. } => return,
        Event::AgentCreated { agent, home } => {
            vec![("agent", agent.to_string()), ("home", home.to_string())]
        }
        Event::AttackApplied { host, attack } => {
            vec![("host", host.to_string()), ("attack", attack.clone())]
        }
        Event::FraudDetected {
            culprit,
            detector,
            reason,
        } => vec![
            ("culprit", culprit.to_string()),
            ("detector", detector.to_string()),
            ("reason", reason.clone()),
        ],
        Event::HostChurned { host } => vec![("host", host.to_string())],
        Event::Note { text } => vec![("text", text.clone())],
    };
    telemetry::instant(name, "platform", args);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let log = EventLog::new();
        assert!(log.is_empty());
        log.record(Event::Note { text: "a".into() });
        log.record(Event::AgentCreated {
            agent: AgentId::new("ag"),
            home: HostId::new("h"),
        });
        assert_eq!(log.len(), 2);
        let snap = log.snapshot();
        assert!(matches!(&snap[0], Event::Note { text } if text == "a"));
    }

    #[test]
    fn clones_share_the_timeline() {
        let log = EventLog::new();
        let handle = log.clone();
        handle.record(Event::Note {
            text: "via handle".into(),
        });
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn count_matching_filters() {
        let log = EventLog::new();
        log.record(Event::Note { text: "x".into() });
        log.record(Event::AttackApplied {
            host: HostId::new("m"),
            attack: "tamper".into(),
        });
        assert_eq!(
            log.count_matching(|e| matches!(e, Event::AttackApplied { .. })),
            1
        );
    }

    #[test]
    fn render_is_ordered() {
        let log = EventLog::new();
        log.record(Event::Note {
            text: "first".into(),
        });
        log.record(Event::Note {
            text: "second".into(),
        });
        let text = log.render();
        let first = text.find("first").unwrap();
        let second = text.find("second").unwrap();
        assert!(first < second);
    }

    #[test]
    fn display_variants() {
        let e = Event::Migrated {
            from: HostId::new("a"),
            to: HostId::new("b"),
            agent: AgentId::new("ag"),
            bytes: 128,
        };
        assert_eq!(e.to_string(), "a -> b: migrate ag (128 bytes)");
        let e = Event::CheckPerformed {
            checker: HostId::new("c"),
            checked: HostId::new("d"),
            passed: false,
        };
        assert!(e.to_string().contains("FAILED"));
    }
}
