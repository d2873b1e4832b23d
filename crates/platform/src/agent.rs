//! The unit of migration: agent code plus data state.

use std::fmt;
use std::sync::Arc;

use refstate_crypto::{sha256_of, Digest};
use refstate_wire::{Decode, Encode, Reader, WireError, Writer};

use refstate_vm::{DataState, Program};

/// A unique agent identifier, assigned by the agent's owner at creation.
///
/// Like [`crate::HostId`], the name is shared: a clone copies a pointer,
/// and equality, ordering and hashing go by content.
///
/// # Examples
///
/// ```
/// use refstate_platform::AgentId;
///
/// let id = AgentId::new("shopper-1");
/// assert_eq!(id.as_str(), "shopper-1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(Arc<str>);

impl AgentId {
    /// Creates an agent id.
    pub fn new(id: impl Into<String>) -> Self {
        AgentId(Arc::from(id.into()))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for AgentId {
    fn from(s: &str) -> Self {
        AgentId(Arc::from(s))
    }
}

impl Encode for AgentId {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.0);
    }
}

impl Decode for AgentId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AgentId(Arc::from(r.take_str()?)))
    }
}

/// What actually moves between hosts: the agent's code and its current data
/// state.
///
/// Under weak migration the execution state is *not* transported — every
/// session restarts the program from its entry point, and anything worth
/// keeping lives in the data state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentImage {
    /// The agent identifier.
    pub id: AgentId,
    /// The agent's immutable code.
    pub program: Program,
    /// The agent's variable part.
    pub state: DataState,
}

impl AgentImage {
    /// Creates an agent image.
    pub fn new(id: impl Into<AgentId>, program: Program, state: DataState) -> Self {
        AgentImage {
            id: id.into(),
            program,
            state,
        }
    }

    /// Hash of the (canonical encoding of the) agent code.
    pub fn code_digest(&self) -> Digest {
        sha256_of(&self.program)
    }

    /// Hash of the current data state.
    pub fn state_digest(&self) -> Digest {
        sha256_of(&self.state)
    }
}

impl From<String> for AgentId {
    fn from(s: String) -> Self {
        AgentId::new(s)
    }
}

impl Encode for AgentImage {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        self.program.encode(w);
        self.state.encode(w);
    }
}

impl Decode for AgentImage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AgentImage {
            id: AgentId::decode(r)?,
            program: Program::decode(r)?,
            state: DataState::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refstate_vm::{assemble, Value};

    fn image() -> AgentImage {
        let program = assemble("push 1\nstore \"x\"\nhalt").unwrap();
        let mut state = DataState::new();
        state.set("x", Value::Int(0));
        AgentImage::new("a-1", program, state)
    }

    #[test]
    fn digests_are_stable_and_state_sensitive() {
        let a = image();
        let b = image();
        assert_eq!(a.code_digest(), b.code_digest());
        assert_eq!(a.state_digest(), b.state_digest());
        let mut c = image();
        c.state.set("x", Value::Int(1));
        assert_eq!(a.code_digest(), c.code_digest());
        assert_ne!(a.state_digest(), c.state_digest());
    }

    #[test]
    fn wire_round_trip() {
        use refstate_wire::{from_wire, to_wire};
        let a = image();
        assert_eq!(from_wire::<AgentImage>(&to_wire(&a)).unwrap(), a);
        let id = AgentId::new("x");
        assert_eq!(from_wire::<AgentId>(&to_wire(&id)).unwrap(), id);
    }

    #[test]
    fn agent_id_display() {
        assert_eq!(AgentId::new("a").to_string(), "a");
        assert_eq!(AgentId::from("b").as_str(), "b");
    }
}
