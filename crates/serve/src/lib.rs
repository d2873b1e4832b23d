//! `refstate-serve`: the batch verification stack as a resident,
//! multi-tenant owner service.
//!
//! The paper's owner is the trusted endpoint every protected journey
//! reports back to: it re-executes the final session against reference
//! states and verifies the signatures the route collected. The fleet
//! engine exercises that role in batch — generate N scenarios, run them,
//! aggregate. This crate keeps the owner *resident*: tenants register a
//! scenario universe once, stream journey ids in over a framed wire
//! protocol, and read verdicts back out, while the service amortizes the
//! owner-side work across everything that arrived in a tick.
//!
//! Layers, bottom up:
//!
//! * [`proto`] — the request/response messages on the workspace's
//!   canonical codec, framed by `refstate_wire::frame`,
//! * [`service`] — a lock-free routing layer over per-owner *shards*
//!   (each owner's own key directory and verification pipeline, bounded
//!   ingress queues, per-owner exec locks); no state is shared across
//!   tenants.
//!   Submits for different owners never contend, and a tick settles
//!   independent owners in parallel across a small worker pool
//!   (`settle_workers`) — each owner still settles its whole tick in one
//!   amortized `refstate_mechanisms::api::settle`,
//! * [`driver`] — the server-side tick driver: a group commit woken by
//!   every accepted submit, which ticks each owner with queued work —
//!   the batch is whatever queued while the previous tick ran — making
//!   client `Tick` requests optional pacing hints,
//! * [`net`] — a TCP shell with pipelined connections: each connection
//!   runs a reader/writer thread pair around a bounded response window,
//!   so clients can keep many requests in flight on one socket,
//! * [`soak`] — the load driver: sustained multi-owner streams over 1 to
//!   N pipelined connections (in process or over TCP), optionally
//!   resuming a durable history, with client-observed p50/p95/p99
//!   verdict latency and aggregate journeys/s, emitted as the
//!   schema-checked `refstate-soak-slo-v1` JSON artifact.
//!
//! The contract under all of it: for a fixed registration and per-owner
//! submission order, each owner's verdict stream is **byte-identical**
//! across runs, `settle_workers` settings, connection counts, tick pacing (client ticks, the background driver,
//! or both), and telemetry levels — parallelism and observability change
//! cost, never outcomes. Golden fixtures in `tests/` pin this. With a
//! durable state dir ([`ServeConfig::state_dir`]) the contract extends
//! *across process lifetimes*: a warm restart restores registrations and
//! checkpointed per-owner verdict streams and re-derives every host key
//! from the seed, and a resumed run's stream is byte-identical to an
//! uninterrupted one (`tests/warm_restart.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod net;
pub mod proto;
pub mod service;
pub mod soak;

pub use driver::{TickDriver, TickDriverConfig, TickDriverStats};
pub use net::{PipelinedClient, Server};
pub use proto::{
    OwnerStats, RegisterOwner, RejectReason, Request, Response, ServiceHealth, StreamCheckpoint,
    VerdictReply,
};
pub use service::{ServeConfig, Service};
pub use soak::{
    run_soak_concurrent, ConnectionOutcome, LocalPipelined, PipelinedEndpoint, SloPercentiles,
    SoakConfig, SoakOutcome, WarmStartMeta,
};
