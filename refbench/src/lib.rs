//! `refbench`: one command that measures the owner side of Hohl's
//! reference-state checks end to end and layer by layer.
//!
//! Four workloads (see [`workload::WORKLOADS`]) drive the public APIs of
//! `refstate-serve` (`Service::handle`, with and without the real
//! `TickDriver`, `run_soak_concurrent` over in-process pipelined
//! connections, a durable `state_dir`) and `refstate-fleet` (`run_fleet`).
//! An untraced run reports the end-to-end metrics with telemetry off,
//! every time scaled to a reference clock ([`clock`]); a traced run of the
//! same workload reports per-layer numbers from the benchmark's own timers
//! and from `telemetry::snapshot()` deltas of the counters and histograms
//! the crates already export. Every run checks its outputs and says so in
//! its [`outcome::Outcome`].

#![forbid(unsafe_code)]

pub mod clock;
pub mod compare;
pub mod fleet;
pub mod layers;
pub mod outcome;
pub mod schedule;
pub mod serve;
pub mod stats;
pub mod validate;
pub mod workload;
