//! A simulated mobile-agent platform (the Mole analogue).
//!
//! The paper's protocols run on an agent platform: hosts that execute
//! sessions, a migration mechanism that moves the agent (and the protocols'
//! baggage) between hosts, input sources on each host, and — crucially for
//! a *protection* paper — hosts that misbehave. This crate provides all of
//! that:
//!
//! * [`HostId`] / [`HostSpec`] / [`Host`] — host identity, keys, trust
//!   attribute, and per-host input feeds,
//! * [`Behaviour`] / [`Attack`] — honest execution or one of the attack
//!   classes from the paper's Fig. 2 taxonomy that touch agent state or
//!   session input,
//! * [`AgentImage`] — the unit of migration (code + data state),
//! * [`Event`] / [`EventLog`] — a timeline of everything that happened,
//! * [`walk`] / [`Leg`] — the itinerary every linear journey driver runs
//!   on: host lookup, sessions, migrations and the hop budget, with the
//!   driver's own checks on arrival and departure.
//!
//! The paper's measurements ran three hosts "in one address space"; the
//! journey drivers here and in the protocol crates do the same. A
//! migration's recorded size is the agent image plus the driver's
//! baggage on top of it (the protocol's signed session certificate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod attack;
mod event;
mod feed;
mod host;
mod journey;

pub use agent::{AgentId, AgentImage};
pub use attack::{Attack, Behaviour};
pub use event::{Event, EventLog};
pub use feed::{FeedItem, InputFeed};
pub use host::{Host, HostId, HostSpec, SessionRecord};
pub use journey::{run_plain_journey, walk, JourneyError, JourneyOutcome, Leg, Visit, Walk};
