//! The service wire protocol: requests, replies, and their canonical
//! encodings.
//!
//! Every message implements [`Encode`] / [`Decode`] on the workspace's
//! canonical codec, so a framed byte stream
//! ([`refstate_wire::FrameReader`] / [`refstate_wire::write_message`])
//! carries the whole conversation — over TCP, a Unix pipe, or an
//! in-process buffer alike. Every [`Request`] gets exactly one
//! [`Response`], in request order per connection, but connections may
//! *pipeline*: a client can have a bounded window of requests in flight
//! before reading the first reply. Verification runs wherever a tick
//! fires — an explicit [`Request::Tick`] / [`Request::TickOwners`], the
//! server's background tick driver, or the shutdown drain — and the
//! per-owner verdict stream is byte-identical regardless, because
//! verdict order is pinned to admission order within each owner (see the
//! service docs for the full determinism contract).

use refstate_wire::{Decode, Encode, Reader, WireError, Writer};

/// Why the service refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The owner's bounded ingress queue is full; resubmit after a tick.
    QueueFull,
    /// The named owner was never registered.
    UnknownOwner,
    /// An owner with this name is already registered.
    DuplicateOwner,
    /// The registration named a scenario preset the generator lacks.
    UnknownPreset,
    /// The registration named a mechanism the registry lacks.
    UnknownMechanism,
    /// The service is draining for shutdown; no new work is admitted.
    ShuttingDown,
}

impl RejectReason {
    /// Stable display / artifact label.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::UnknownOwner => "unknown-owner",
            RejectReason::DuplicateOwner => "duplicate-owner",
            RejectReason::UnknownPreset => "unknown-preset",
            RejectReason::UnknownMechanism => "unknown-mechanism",
            RejectReason::ShuttingDown => "shutting-down",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Registers one tenant: the owner's scenario universe and mechanism.
///
/// The owner's journeys are generated exactly like a fleet run's — pure
/// functions of `(seed, journey id, preset)` — so a service-side journey
/// is reproducible from the registration plus the submitted id alone; no
/// agent images cross the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterOwner {
    /// Tenant name; also the owner's key-directory namespace.
    pub owner: String,
    /// The owner's scenario seed.
    pub seed: u64,
    /// Scenario family name (see `refstate_fleet::Preset::name`).
    pub preset: String,
    /// Mechanism registry name (see
    /// `refstate_mechanisms::api::MechanismRegistry`).
    pub mechanism: String,
}

/// A client request, one frame each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Register a tenant.
    Register(RegisterOwner),
    /// Submit journey `journey` of `owner`'s scenario universe for
    /// verification. Admission-controlled: the reply is either
    /// [`Response::Accepted`] or [`Response::Rejected`].
    Submit {
        /// The tenant.
        owner: String,
        /// The journey (scenario) id in the owner's universe.
        journey: u64,
    },
    /// Run one service tick: every admitted journey executes, and each
    /// owner's pending owner-side work settles in one amortized batch.
    /// With a server-side tick driver running this is an optional pacing
    /// hint, not the only verification engine.
    Tick,
    /// Run a tick restricted to the named owners, so concurrent
    /// connections driving disjoint owner partitions never contend on
    /// each other's shards. Unknown names are rejected.
    TickOwners(
        /// The owners to tick.
        Vec<String>,
    ),
    /// Move `owner`'s completed verdicts out of the service.
    Drain {
        /// The tenant.
        owner: String,
    },
    /// Read `owner`'s counters.
    Stats {
        /// The tenant.
        owner: String,
    },
    /// Stop admitting work, settle everything already accepted, reply
    /// [`Response::ShuttingDown`].
    Shutdown,
    /// Read the durable-stream position of every owner: the store
    /// generation plus one [`StreamCheckpoint`] per owner in registration
    /// order. A resuming soak client calls this first to verify the
    /// server's checkpoints line up with where its previous leg stopped.
    StreamState,
    /// Read the process's metrics: every counter and histogram, answered
    /// with [`Response::Metrics`].
    Metrics,
    /// Read the service-wide health view, answered with
    /// [`Response::Health`].
    Health,
}

/// One journey's final verdict, streamed back on [`Request::Drain`].
///
/// Carries no timing and no cache counters — everything in this struct is
/// deterministic for a fixed registration and submission order, which is
/// what the golden-stream fixtures pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictReply {
    /// The tenant.
    pub owner: String,
    /// The journey id.
    pub journey: u64,
    /// The mechanism that produced the verdict.
    pub mechanism: String,
    /// The mechanism flagged the run.
    pub detected: bool,
    /// The hosts the mechanism blamed (bare host names, owner-scoped).
    pub accused: Vec<String>,
    /// The journey ran to its halt instruction.
    pub completed: bool,
    /// The journey died of an infrastructure failure.
    pub infra_error: bool,
}

impl VerdictReply {
    /// The canonical one-line form golden stream fixtures are built from.
    pub fn stream_line(&self) -> String {
        format!(
            "{} {} {} detected={} accused=[{}] completed={} infra={}",
            self.owner,
            self.journey,
            self.mechanism,
            self.detected,
            self.accused.join(","),
            self.completed,
            self.infra_error,
        )
    }
}

/// One owner's service counters, read via [`Request::Stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OwnerStats {
    /// The tenant.
    pub owner: String,
    /// Journeys admitted past the ingress bound.
    pub accepted: u64,
    /// Journeys refused (any [`RejectReason`]).
    pub rejected: u64,
    /// Verdicts produced (accepted journeys fully settled).
    pub verified: u64,
    /// Verdicts that flagged the run.
    pub detected: u64,
    /// Admitted journeys awaiting the next tick.
    pub pending: u64,
    /// Verdicts sitting in the outbox, not yet drained.
    pub undrained: u64,
    /// The ingress bound admission control enforces.
    pub queue_capacity: u64,
    /// Owner-side final re-execution checks settled for this owner.
    pub final_checks: u64,
    /// Deferred signatures settled in this owner's batch flushes.
    pub flush_verifications: u64,
    /// Deferred signatures that failed a flush.
    pub flush_failures: u64,
    /// Verdicts appended to this owner's durable stream across every
    /// generation (equals `verified` summed over the state dir's whole
    /// history; equals this process's `verified` when no state dir is
    /// configured).
    pub stream_offset: u64,
}

/// The service-wide health view, read via [`Request::Health`]: totals
/// over every owner, taken under the same brief locks as
/// [`Request::Stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceHealth {
    /// Registered owners, one shard each.
    pub shards: u64,
    /// Admitted journeys awaiting a tick.
    pub queued: u64,
    /// Settled verdicts not yet drained.
    pub undrained: u64,
    /// Age of the oldest queued journey in µs (0 when none is queued).
    pub oldest_queued_us: u64,
    /// The state store's open-generation stamp (0 without a state dir).
    pub generation: u64,
}

/// One owner's durable verdict-stream position, reported by
/// [`Response::StreamState`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// The tenant.
    pub owner: String,
    /// Verdicts appended to the owner's stream so far (across restarts).
    pub offset: u64,
    /// Running FNV-1a digest over the stream's lines (each
    /// [`VerdictReply::stream_line`] plus `'\n'`), printed as 16 hex
    /// digits — the same fold the soak's `stream_digest` uses.
    pub digest: String,
}

/// A service reply, one frame each, always matching the request 1:1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The registration succeeded.
    Registered {
        /// The tenant.
        owner: String,
    },
    /// The submission was admitted; its verdict will appear in a
    /// subsequent [`Request::Drain`].
    Accepted {
        /// The tenant.
        owner: String,
        /// The admitted journey id.
        journey: u64,
    },
    /// The request was refused.
    Rejected {
        /// The tenant (empty when the reject predates owner resolution).
        owner: String,
        /// The refused journey id (0 for non-submit rejects).
        journey: u64,
        /// Why.
        reason: RejectReason,
    },
    /// A tick ran.
    Ticked {
        /// Verdicts produced by this tick (all owners).
        settled: u64,
    },
    /// The drained verdicts, in admission order.
    Verdicts(Vec<VerdictReply>),
    /// The owner's counters.
    Stats(OwnerStats),
    /// The service drained every accepted journey and is stopping.
    ShuttingDown {
        /// Verdicts produced during the drain.
        settled: u64,
    },
    /// Every owner's durable stream position, in registration order.
    StreamState {
        /// The state store's open-generation stamp (1 on a fresh state
        /// dir, incremented per restart; 0 when no state dir is
        /// configured).
        generation: u64,
        /// One checkpoint per owner, registration order.
        owners: Vec<StreamCheckpoint>,
    },
    /// The process's metrics snapshot as JSONL, one counter or histogram
    /// per line, in the format `serve --metrics-out` writes at shutdown
    /// (`refstate_telemetry::export::metrics_jsonl`). Empty at telemetry
    /// level `off`.
    Metrics(String),
    /// The service-wide health view.
    Health(ServiceHealth),
    /// A malformed or out-of-protocol request.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl Encode for RejectReason {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            RejectReason::QueueFull => 0,
            RejectReason::UnknownOwner => 1,
            RejectReason::DuplicateOwner => 2,
            RejectReason::UnknownPreset => 3,
            RejectReason::UnknownMechanism => 4,
            RejectReason::ShuttingDown => 5,
        });
    }
}

impl Decode for RejectReason {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.take_u8()? {
            0 => RejectReason::QueueFull,
            1 => RejectReason::UnknownOwner,
            2 => RejectReason::DuplicateOwner,
            3 => RejectReason::UnknownPreset,
            4 => RejectReason::UnknownMechanism,
            5 => RejectReason::ShuttingDown,
            tag => {
                return Err(WireError::InvalidTag {
                    context: "RejectReason",
                    tag,
                })
            }
        })
    }
}

impl Encode for RegisterOwner {
    fn encode(&self, w: &mut Writer) {
        self.owner.encode(w);
        self.seed.encode(w);
        self.preset.encode(w);
        self.mechanism.encode(w);
    }
}

impl Decode for RegisterOwner {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RegisterOwner {
            owner: String::decode(r)?,
            seed: u64::decode(r)?,
            preset: String::decode(r)?,
            mechanism: String::decode(r)?,
        })
    }
}

impl Encode for Request {
    fn encode(&self, w: &mut Writer) {
        match self {
            Request::Register(reg) => {
                w.put_u8(0);
                reg.encode(w);
            }
            Request::Submit { owner, journey } => {
                w.put_u8(1);
                owner.encode(w);
                journey.encode(w);
            }
            Request::Tick => w.put_u8(2),
            Request::Drain { owner } => {
                w.put_u8(3);
                owner.encode(w);
            }
            Request::Stats { owner } => {
                w.put_u8(4);
                owner.encode(w);
            }
            Request::Shutdown => w.put_u8(5),
            Request::TickOwners(owners) => {
                w.put_u8(6);
                owners.encode(w);
            }
            Request::StreamState => w.put_u8(7),
            Request::Metrics => w.put_u8(8),
            Request::Health => w.put_u8(9),
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.take_u8()? {
            0 => Request::Register(RegisterOwner::decode(r)?),
            1 => Request::Submit {
                owner: String::decode(r)?,
                journey: u64::decode(r)?,
            },
            2 => Request::Tick,
            3 => Request::Drain {
                owner: String::decode(r)?,
            },
            4 => Request::Stats {
                owner: String::decode(r)?,
            },
            5 => Request::Shutdown,
            6 => Request::TickOwners(Vec::decode(r)?),
            7 => Request::StreamState,
            8 => Request::Metrics,
            9 => Request::Health,
            tag => {
                return Err(WireError::InvalidTag {
                    context: "Request",
                    tag,
                })
            }
        })
    }
}

impl Encode for VerdictReply {
    fn encode(&self, w: &mut Writer) {
        self.owner.encode(w);
        self.journey.encode(w);
        self.mechanism.encode(w);
        self.detected.encode(w);
        self.accused.encode(w);
        self.completed.encode(w);
        self.infra_error.encode(w);
    }
}

impl Decode for VerdictReply {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(VerdictReply {
            owner: String::decode(r)?,
            journey: u64::decode(r)?,
            mechanism: String::decode(r)?,
            detected: bool::decode(r)?,
            accused: Vec::decode(r)?,
            completed: bool::decode(r)?,
            infra_error: bool::decode(r)?,
        })
    }
}

impl Encode for OwnerStats {
    fn encode(&self, w: &mut Writer) {
        self.owner.encode(w);
        self.accepted.encode(w);
        self.rejected.encode(w);
        self.verified.encode(w);
        self.detected.encode(w);
        self.pending.encode(w);
        self.undrained.encode(w);
        self.queue_capacity.encode(w);
        self.final_checks.encode(w);
        self.flush_verifications.encode(w);
        self.flush_failures.encode(w);
        self.stream_offset.encode(w);
    }
}

impl Encode for StreamCheckpoint {
    fn encode(&self, w: &mut Writer) {
        self.owner.encode(w);
        self.offset.encode(w);
        self.digest.encode(w);
    }
}

impl Encode for ServiceHealth {
    fn encode(&self, w: &mut Writer) {
        self.shards.encode(w);
        self.queued.encode(w);
        self.undrained.encode(w);
        self.oldest_queued_us.encode(w);
        self.generation.encode(w);
    }
}

impl Decode for ServiceHealth {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ServiceHealth {
            shards: u64::decode(r)?,
            queued: u64::decode(r)?,
            undrained: u64::decode(r)?,
            oldest_queued_us: u64::decode(r)?,
            generation: u64::decode(r)?,
        })
    }
}

impl Decode for StreamCheckpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(StreamCheckpoint {
            owner: String::decode(r)?,
            offset: u64::decode(r)?,
            digest: String::decode(r)?,
        })
    }
}

impl Decode for OwnerStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OwnerStats {
            owner: String::decode(r)?,
            accepted: u64::decode(r)?,
            rejected: u64::decode(r)?,
            verified: u64::decode(r)?,
            detected: u64::decode(r)?,
            pending: u64::decode(r)?,
            undrained: u64::decode(r)?,
            queue_capacity: u64::decode(r)?,
            final_checks: u64::decode(r)?,
            flush_verifications: u64::decode(r)?,
            flush_failures: u64::decode(r)?,
            stream_offset: u64::decode(r)?,
        })
    }
}

impl Encode for Response {
    fn encode(&self, w: &mut Writer) {
        match self {
            Response::Registered { owner } => {
                w.put_u8(0);
                owner.encode(w);
            }
            Response::Accepted { owner, journey } => {
                w.put_u8(1);
                owner.encode(w);
                journey.encode(w);
            }
            Response::Rejected {
                owner,
                journey,
                reason,
            } => {
                w.put_u8(2);
                owner.encode(w);
                journey.encode(w);
                reason.encode(w);
            }
            Response::Ticked { settled } => {
                w.put_u8(3);
                settled.encode(w);
            }
            Response::Verdicts(verdicts) => {
                w.put_u8(4);
                verdicts.encode(w);
            }
            Response::Stats(stats) => {
                w.put_u8(5);
                stats.encode(w);
            }
            Response::ShuttingDown { settled } => {
                w.put_u8(6);
                settled.encode(w);
            }
            Response::Error { message } => {
                w.put_u8(7);
                message.encode(w);
            }
            Response::StreamState { generation, owners } => {
                w.put_u8(8);
                generation.encode(w);
                owners.encode(w);
            }
            Response::Metrics(jsonl) => {
                w.put_u8(9);
                jsonl.encode(w);
            }
            Response::Health(health) => {
                w.put_u8(10);
                health.encode(w);
            }
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.take_u8()? {
            0 => Response::Registered {
                owner: String::decode(r)?,
            },
            1 => Response::Accepted {
                owner: String::decode(r)?,
                journey: u64::decode(r)?,
            },
            2 => Response::Rejected {
                owner: String::decode(r)?,
                journey: u64::decode(r)?,
                reason: RejectReason::decode(r)?,
            },
            3 => Response::Ticked {
                settled: u64::decode(r)?,
            },
            4 => Response::Verdicts(Vec::decode(r)?),
            5 => Response::Stats(OwnerStats::decode(r)?),
            6 => Response::ShuttingDown {
                settled: u64::decode(r)?,
            },
            7 => Response::Error {
                message: String::decode(r)?,
            },
            8 => Response::StreamState {
                generation: u64::decode(r)?,
                owners: Vec::decode(r)?,
            },
            9 => Response::Metrics(String::decode(r)?),
            10 => Response::Health(ServiceHealth::decode(r)?),
            tag => {
                return Err(WireError::InvalidTag {
                    context: "Response",
                    tag,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refstate_wire::{from_wire, to_wire};

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_wire(&value);
        assert_eq!(from_wire::<T>(&bytes).unwrap(), value);
    }

    #[test]
    fn requests_round_trip() {
        round_trip(Request::Register(RegisterOwner {
            owner: "alice".into(),
            seed: 42,
            preset: "mixed".into(),
            mechanism: "protocol".into(),
        }));
        round_trip(Request::Submit {
            owner: "alice".into(),
            journey: 7,
        });
        round_trip(Request::Tick);
        round_trip(Request::Drain {
            owner: "bob".into(),
        });
        round_trip(Request::Stats {
            owner: "bob".into(),
        });
        round_trip(Request::Shutdown);
        round_trip(Request::TickOwners(vec!["alice".into(), "bob".into()]));
        round_trip(Request::TickOwners(Vec::new()));
        round_trip(Request::StreamState);
        round_trip(Request::Metrics);
        round_trip(Request::Health);
    }

    #[test]
    fn responses_round_trip() {
        round_trip(Response::Registered {
            owner: "alice".into(),
        });
        round_trip(Response::Accepted {
            owner: "alice".into(),
            journey: 3,
        });
        for reason in [
            RejectReason::QueueFull,
            RejectReason::UnknownOwner,
            RejectReason::DuplicateOwner,
            RejectReason::UnknownPreset,
            RejectReason::UnknownMechanism,
            RejectReason::ShuttingDown,
        ] {
            round_trip(Response::Rejected {
                owner: "alice".into(),
                journey: 9,
                reason,
            });
        }
        round_trip(Response::Ticked { settled: 12 });
        round_trip(Response::Verdicts(vec![VerdictReply {
            owner: "alice".into(),
            journey: 3,
            mechanism: "protocol".into(),
            detected: true,
            accused: vec!["h2".into()],
            completed: false,
            infra_error: false,
        }]));
        round_trip(Response::Stats(OwnerStats {
            owner: "alice".into(),
            accepted: 10,
            rejected: 2,
            verified: 8,
            detected: 3,
            pending: 2,
            undrained: 1,
            queue_capacity: 64,
            final_checks: 8,
            flush_verifications: 40,
            flush_failures: 0,
            stream_offset: 8,
        }));
        round_trip(Response::ShuttingDown { settled: 2 });
        round_trip(Response::Error {
            message: "bad frame".into(),
        });
        round_trip(Response::StreamState {
            generation: 2,
            owners: vec![
                StreamCheckpoint {
                    owner: "alice".into(),
                    offset: 120,
                    digest: "cbf29ce484222325".into(),
                },
                StreamCheckpoint::default(),
            ],
        });
        round_trip(Response::Metrics(String::new()));
        round_trip(Response::Metrics(
            "{\"type\":\"counter\",\"scope\":\"\",\"name\":\"serve.ticks\",\"index\":0,\"value\":3}\n"
                .into(),
        ));
        round_trip(Response::Health(ServiceHealth::default()));
        round_trip(Response::Health(ServiceHealth {
            shards: 2,
            queued: 5,
            undrained: 3,
            oldest_queued_us: 2_500,
            generation: 1,
        }));
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        assert!(matches!(
            from_wire::<Request>(&[250]),
            Err(WireError::InvalidTag {
                context: "Request",
                ..
            })
        ));
        assert!(matches!(
            from_wire::<Response>(&[250]),
            Err(WireError::InvalidTag {
                context: "Response",
                ..
            })
        ));
        assert!(matches!(
            from_wire::<RejectReason>(&[6]),
            Err(WireError::InvalidTag {
                context: "RejectReason",
                ..
            })
        ));
    }

    #[test]
    fn stream_line_is_stable() {
        let verdict = VerdictReply {
            owner: "o".into(),
            journey: 5,
            mechanism: "protocol".into(),
            detected: true,
            accused: vec!["h1".into(), "h2".into()],
            completed: true,
            infra_error: false,
        };
        assert_eq!(
            verdict.stream_line(),
            "o 5 protocol detected=true accused=[h1,h2] completed=true infra=false"
        );
    }
}
