//! Route recording: how the list of visited hosts is secured.
//!
//! When checking happens only after the task (§3.5), the route must be
//! stored "in a secure way" so the attacker can be identified later. The
//! paper lists three options: dynamically recording stations in a signed
//! chain appended to the agent, reporting each migration to the owner, or
//! fixing an a-priori signed itinerary. The first is implemented here:
//! each station appends a signed entry to the agent's data ("dynamically
//! recording the stations, appending this information digitally signed to
//! the agent data").

use std::fmt;

use rand::RngCore;
use refstate_crypto::{DsaKeyPair, KeyDirectory, Signed, VerifyError};
use refstate_platform::{AgentId, HostId, Visit};
use refstate_wire::{Decode, Encode, Reader, WireError, Writer};

/// One hop in a recorded route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteEntry {
    /// The agent.
    pub agent: AgentId,
    /// Position in the route (0 = home).
    pub seq: u64,
    /// The host at this position.
    pub host: HostId,
}

impl Encode for RouteEntry {
    fn encode(&self, w: &mut Writer) {
        self.agent.encode(w);
        w.put_u64(self.seq);
        self.host.encode(w);
    }
}

impl Decode for RouteEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RouteEntry {
            agent: AgentId::decode(r)?,
            seq: r.take_u64()?,
            host: HostId::decode(r)?,
        })
    }
}

/// A chain of signed route entries, each signed by the host it names.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use refstate_core::route::SignedRoute;
/// use refstate_crypto::{DsaKeyPair, DsaParams, KeyDirectory};
/// use refstate_platform::{AgentId, Host, HostId};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let params = DsaParams::test_group_256();
/// let k1 = DsaKeyPair::generate(&params, &mut rng);
/// let mut dir = KeyDirectory::new();
/// dir.register("h1", k1.public().clone());
///
/// let mut route = SignedRoute::new(AgentId::new("a"));
/// route.append(HostId::new("h1"), &k1, &mut rng);
/// assert!(route.verify(&dir).is_ok());
/// assert_eq!(route.hosts(), vec![HostId::new("h1")]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SignedRoute {
    agent: Option<AgentId>,
    entries: Vec<Signed<RouteEntry>>,
}

/// Why route verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// An entry signature failed.
    BadSignature {
        /// The failing sequence number.
        seq: u64,
        /// The underlying error.
        source: VerifyError,
    },
    /// Sequence numbers are not 0..n or the agent id is inconsistent.
    BrokenChain {
        /// Description.
        detail: String,
    },
    /// An entry is signed by a different principal than the host it names.
    SignerMismatch {
        /// The failing sequence number.
        seq: u64,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::BadSignature { seq, source } => {
                write!(f, "route entry {seq} signature invalid: {source}")
            }
            RouteError::BrokenChain { detail } => write!(f, "route chain broken: {detail}"),
            RouteError::SignerMismatch { seq } => {
                write!(
                    f,
                    "route entry {seq} signed by a principal other than its host"
                )
            }
        }
    }
}

impl std::error::Error for RouteError {}

impl SignedRoute {
    /// A fresh route for an agent.
    pub fn new(agent: AgentId) -> Self {
        SignedRoute {
            agent: Some(agent),
            entries: Vec::new(),
        }
    }

    /// The entry naming `host` as the next hop.
    fn next_entry(&self, host: HostId) -> RouteEntry {
        let agent = self
            .agent
            .clone()
            .expect("route must be created with an agent id");
        RouteEntry {
            agent,
            seq: self.entries.len() as u64,
            host,
        }
    }

    /// Appends a hop, signed by the visiting host's keys.
    pub fn append(&mut self, host: HostId, keys: &DsaKeyPair, rng: &mut dyn RngCore) {
        let entry = self.next_entry(host.clone());
        self.entries
            .push(Signed::seal(entry, host.as_str(), keys, rng));
    }

    /// Appends a hop for the host `visit` is on, which signs its own
    /// entry.
    pub(crate) fn append_signed_by(&mut self, visit: &mut Visit<'_>) {
        let entry = self.next_entry(visit.here().clone());
        self.entries.push(visit.sign(entry).0);
    }

    /// The signed entries in order.
    pub fn entries(&self) -> &[Signed<RouteEntry>] {
        &self.entries
    }

    /// The recorded hosts in order.
    pub fn hosts(&self) -> Vec<HostId> {
        self.entries
            .iter()
            .map(|e| e.payload().host.clone())
            .collect()
    }

    /// The number of hops recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no hops are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Verifies every signature and the chain structure.
    ///
    /// # Errors
    ///
    /// See [`RouteError`].
    pub fn verify(&self, directory: &KeyDirectory) -> Result<(), RouteError> {
        for (i, entry) in self.entries.iter().enumerate() {
            let payload = entry.payload();
            if payload.seq != i as u64 {
                return Err(RouteError::BrokenChain {
                    detail: format!("entry {i} carries seq {}", payload.seq),
                });
            }
            if let Some(agent) = &self.agent {
                if &payload.agent != agent {
                    return Err(RouteError::BrokenChain {
                        detail: format!("entry {i} names agent {}", payload.agent),
                    });
                }
            }
            if entry.signer() != payload.host.as_str() {
                return Err(RouteError::SignerMismatch { seq: i as u64 });
            }
            entry
                .verify(directory)
                .map_err(|source| RouteError::BadSignature {
                    seq: i as u64,
                    source,
                })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use refstate_crypto::DsaParams;

    fn setup() -> (Vec<DsaKeyPair>, KeyDirectory, StdRng) {
        let mut rng = StdRng::seed_from_u64(31);
        let params = DsaParams::test_group_256();
        let keys: Vec<DsaKeyPair> = (0..3)
            .map(|_| DsaKeyPair::generate(&params, &mut rng))
            .collect();
        let mut dir = KeyDirectory::new();
        for (i, k) in keys.iter().enumerate() {
            dir.register(format!("h{i}"), k.public().clone());
        }
        (keys, dir, rng)
    }

    #[test]
    fn build_and_verify_chain() {
        let (keys, dir, mut rng) = setup();
        let mut route = SignedRoute::new(AgentId::new("a"));
        for (i, k) in keys.iter().enumerate() {
            route.append(HostId::new(format!("h{i}")), k, &mut rng);
        }
        assert_eq!(route.len(), 3);
        assert!(route.verify(&dir).is_ok());
        assert_eq!(
            route.hosts(),
            vec![HostId::new("h0"), HostId::new("h1"), HostId::new("h2")]
        );
    }

    #[test]
    fn signer_mismatch_detected() {
        let (keys, dir, mut rng) = setup();
        let mut route = SignedRoute::new(AgentId::new("a"));
        // h1's key signs an entry claiming host h0.
        let entry = RouteEntry {
            agent: AgentId::new("a"),
            seq: 0,
            host: HostId::new("h0"),
        };
        route
            .entries
            .push(Signed::seal(entry, "h1", &keys[1], &mut rng));
        assert!(matches!(
            route.verify(&dir),
            Err(RouteError::SignerMismatch { seq: 0 })
        ));
    }

    #[test]
    fn bad_signature_detected() {
        let (keys, dir, mut rng) = setup();
        let mut route = SignedRoute::new(AgentId::new("a"));
        route.append(HostId::new("h0"), &keys[0], &mut rng);
        // Tamper the payload (reroute history) while keeping the signature.
        let tampered = route.entries[0].clone().tampered_with(|mut e| {
            e.host = HostId::new("h0"); // same host name to dodge SignerMismatch
            e.agent = AgentId::new("other-agent");
            e
        });
        route.entries[0] = tampered;
        // Chain check fires first on the agent id.
        assert!(matches!(
            route.verify(&dir),
            Err(RouteError::BrokenChain { .. })
        ));
    }

    #[test]
    fn signature_forgery_detected() {
        let (keys, dir, mut rng) = setup();
        let mut route = SignedRoute::new(AgentId::new("a"));
        route.append(HostId::new("h0"), &keys[0], &mut rng);
        route.append(HostId::new("h1"), &keys[1], &mut rng);
        // Rewrite the *sequence* inside entry 1's payload.
        let forged = route.entries[1].clone().tampered_with(|mut e| {
            e.seq = 1; // unchanged seq, but change host→h1 stays; alter nothing visible
            e
        });
        // Payload unchanged means signature still valid; instead corrupt the
        // recorded host list by swapping entries, breaking seq order.
        route.entries.swap(0, 1);
        let _ = forged;
        assert!(matches!(
            route.verify(&dir),
            Err(RouteError::BrokenChain { .. })
        ));
    }

    #[test]
    fn tampered_payload_fails_signature() {
        let (keys, dir, mut rng) = setup();
        let mut route = SignedRoute::new(AgentId::new("a"));
        route.append(HostId::new("h0"), &keys[0], &mut rng);
        route.append(HostId::new("h1"), &keys[1], &mut rng);
        // A malicious host rewrites entry 0 to blame a different... host
        // name must match signer, so rewrite seq-consistent fields only:
        // here we keep host and seq but this leaves nothing to tamper —
        // so instead re-sign with the wrong key under the right name.
        let entry = RouteEntry {
            agent: AgentId::new("a"),
            seq: 0,
            host: HostId::new("h0"),
        };
        route.entries[0] = Signed::seal(entry, "h0", &keys[2], &mut rng);
        assert!(matches!(
            route.verify(&dir),
            Err(RouteError::BadSignature { seq: 0, .. })
        ));
    }

    #[test]
    fn wire_round_trip_entry() {
        use refstate_wire::{from_wire, to_wire};
        let e = RouteEntry {
            agent: AgentId::new("a"),
            seq: 7,
            host: HostId::new("h"),
        };
        assert_eq!(from_wire::<RouteEntry>(&to_wire(&e)).unwrap(), e);
    }
}
