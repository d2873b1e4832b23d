//! Benchmark harness for the paper's evaluation (§5.2–§5.3).
//!
//! The measured workload is the paper's *generic agent*: it migrates along
//! three hosts (trusted → untrusted → trusted); on every host it performs
//! `cycles` summation cycles (one cycle = an integer summation of 1000
//! values) and consumes `inputs` input elements of 10-byte strings. The
//! four measured instances combine `cycles ∈ {1, 10000}` with
//! `inputs ∈ {1, 100}`.
//!
//! Each instance runs twice:
//!
//! * **plain** — no protocol, but the whole agent is signed before every
//!   migration and verified on arrival (Table 1),
//! * **protected** — under the §5.1 session-checking protocol (Table 2),
//!   where the next host re-executes the untrusted session, so the main
//!   routine runs four times instead of three.
//!
//! [`measure_plain`] / [`measure_protected`] return the same cost
//! decomposition the paper reports: *sign & verify*, *cycle* (VM work),
//! *remainder*, and *overall*, and [`render_tables`] prints the two tables
//! with the overhead factors in brackets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchjson;
pub mod generic_agent;
pub mod tables;

pub use benchjson::{check_bigint_schema, Json, JsonError};
pub use generic_agent::{build_generic_agent, build_three_hosts, AgentParams};
pub use tables::{
    measure_plain, measure_protected, render_tables, Measurement, TableRow, PAPER_CONFIGS,
};
