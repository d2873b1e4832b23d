//! The chained-integrity mechanism family: hop-chained MACs and signed
//! partial result encapsulation.
//!
//! Everything else in this crate descends from the paper's
//! reference-state idea — recompute what an honest host *would* have
//! produced and compare. The two mechanisms here come from the related
//! work instead (Karjoth/Asokan/Gülcü's chained offers; the
//! Zwierko–Kotulski integrity-protection survey; Rodríguez–Sobrado's
//! public-key information-management model) and protect a different
//! thing by a different means: each host appends its **partial result**
//! to a chain the agent carries, cryptographically bound to the chain of
//! all predecessors and to the identity of the next hop. The owner (or
//! any verifier) can then prove that nobody later truncated, reordered,
//! or substituted the recorded results — **without replaying a single
//! session and without any reference state**.
//!
//! The structural trade against re-execution, surfaced by the detection
//! matrix and pinned by the adversarial proptest battery:
//!
//! * chain manipulation (truncate-tail, swap-two-hops,
//!   replace-partial-result) is detected at rate 1.0,
//! * **computation lies evade the family entirely** — a host that runs
//!   the agent wrong simply MACs/signs its own lie, and with no replay
//!   there is nothing to compare against,
//! * a predecessor that colludes by sharing its chain key lets its
//!   successor forge the predecessor's entry validly
//!   ([`Attack::ForgeChainEntry`]) — the chained analogue of the §5.1
//!   consecutive-host collusion.
//!
//! Two registry citizens implement the family:
//!
//! * [`ChainedMac`] (`chained`) — per-hop HMAC-SHA-256 links keyed by
//!   owner-shared per-host keys. Only the owner can verify, so detection
//!   is after-task and the owner can prove *that* the chain was broken
//!   but not *who* broke it (MAC failures do not localize the
//!   manipulator): detection without attribution.
//! * [`EncapsulatedResults`] (`encapsulated`) — per-hop DSA-signed
//!   encapsulations, publicly verifiable: honest hosts check the chain
//!   structure on every arrival (hash-only, cheap) and abort the journey
//!   at the hop after the manipulation, blaming the host that handed the
//!   broken chain over. Signature checks ride the crypto crate's fast
//!   path: deferred into the journey's
//!   [`VerificationQueue`] and
//!   settled in one fused-exponentiation batch at journey end.

use std::convert::Infallible;
use std::fmt;
use std::ops::ControlFlow;

use rand::RngCore;
use refstate_core::CheckMoment;
use refstate_core::{ReferenceDataKind, ReferenceDataRequest};
use refstate_crypto::{sha256, Digest, HmacSha256, KeyDirectory, Signed, VerificationQueue};
use refstate_platform::{
    walk, AgentId, AgentImage, Attack, Event, EventLog, Host, HostId, JourneyError, Leg,
    SessionRecord, Visit,
};
use refstate_vm::{DataState, ExecConfig};
use refstate_wire::{to_wire, Decode, Encode, Reader, WireError, Writer};

use crate::api::{
    JourneyCtx, JourneyVerdict, MechanismProfile, ProtectionMechanism, RouteTopology, SplitVerdict,
};

/// The owner's per-journey chain secret: the root the anchor and every
/// per-host MAC key are derived from. In a deployment the owner hands
/// each itinerary host its derived key over a secure channel at dispatch
/// time; the simulation derives them on demand.
#[derive(Clone)]
pub struct ChainSecret([u8; 32]);

impl fmt::Debug for ChainSecret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        f.write_str("ChainSecret(..)")
    }
}

impl ChainSecret {
    /// Draws a fresh secret from the journey's RNG stream.
    pub fn from_rng(rng: &mut dyn RngCore) -> Self {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        ChainSecret(bytes)
    }

    /// The per-host MAC key: `SHA-256(secret ‖ host id)`. Known to the
    /// owner and to that host alone (unless the host leaks it — see
    /// [`Attack::ForgeChainEntry`]).
    pub fn host_key(&self, host: &HostId) -> Digest {
        let mut w = Writer::new();
        w.put_raw(&self.0);
        w.put_str(host.as_str());
        sha256(&w.into_inner())
    }

    /// The chain anchor: the public starting head, binding the chain to
    /// this journey's agent and secret.
    pub fn anchor(&self, agent: &AgentId) -> Digest {
        let mut w = Writer::new();
        w.put_str("refstate-chain-anchor");
        w.put_raw(&self.0);
        agent.encode(&mut w);
        sha256(&w.into_inner())
    }
}

/// Canonical bytes of a link's authenticated content (shared by the MAC
/// and the signature variants): sequence number, executor, partial
/// result digest, and the committed next hop.
fn link_core_bytes(
    seq: u64,
    executor: &HostId,
    result_digest: &Digest,
    next: &Option<HostId>,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(seq);
    executor.encode(&mut w);
    result_digest.encode(&mut w);
    next.encode(&mut w);
    w.into_inner()
}

/// One link of the MAC chain ([`ChainedMac`]): the executing host's
/// partial result, chained to every predecessor and to the committed
/// next hop by `mac = HMAC(host key, prev mac ‖ link core)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink {
    /// Session sequence number (slot in the chain).
    pub seq: u64,
    /// The executing host.
    pub executor: HostId,
    /// SHA-256 of the resulting agent state this host reported.
    pub result_digest: Digest,
    /// The next hop this host committed to (`None` = halt).
    pub next: Option<HostId>,
    /// The chain MAC binding all of the above to the predecessors.
    pub mac: Digest,
}

impl ChainLink {
    /// The chain MAC of `link` following `prev` (the predecessor's MAC,
    /// or the anchor): `HMAC(host key, prev ‖ link core)`. Public so the
    /// adversarial battery can build chains and keyed forgeries without
    /// driving hosts.
    pub fn chain_mac(secret: &ChainSecret, prev: &Digest, link: &ChainLink) -> Digest {
        let key = secret.host_key(&link.executor);
        let mut mac = HmacSha256::new(key.as_bytes());
        mac.update(prev.as_bytes());
        mac.update(&link_core_bytes(
            link.seq,
            &link.executor,
            &link.result_digest,
            &link.next,
        ));
        mac.finalize()
    }
}

impl Encode for ChainLink {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.seq);
        self.executor.encode(w);
        self.result_digest.encode(w);
        self.next.encode(w);
        self.mac.encode(w);
    }
}

impl Decode for ChainLink {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ChainLink {
            seq: r.take_u64()?,
            executor: HostId::decode(r)?,
            result_digest: Digest::decode(r)?,
            next: Option::<HostId>::decode(r)?,
            mac: Digest::decode(r)?,
        })
    }
}

/// One signed encapsulation ([`EncapsulatedResults`]): like a
/// [`ChainLink`], but publicly verifiable — the chain binding is an
/// explicit `prev_head` (the hash of the predecessor's *entire signed
/// encapsulation*) and the authenticity proof is the executor's DSA
/// signature over the whole payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encapsulation {
    /// Session sequence number (slot in the chain).
    pub seq: u64,
    /// The executing host.
    pub executor: HostId,
    /// SHA-256 of the resulting agent state this host reported.
    pub result_digest: Digest,
    /// Hash of the predecessor's signed encapsulation (the journey
    /// anchor for the first link).
    pub prev_head: Digest,
    /// The next hop this host committed to (`None` = halt).
    pub next: Option<HostId>,
}

impl Encode for Encapsulation {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.seq);
        self.executor.encode(w);
        self.result_digest.encode(w);
        self.prev_head.encode(w);
        self.next.encode(w);
    }
}

impl Decode for Encapsulation {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Encapsulation {
            seq: r.take_u64()?,
            executor: HostId::decode(r)?,
            result_digest: Digest::decode(r)?,
            prev_head: Digest::decode(r)?,
            next: Option::<HostId>::decode(r)?,
        })
    }
}

/// The head the successor of a signed encapsulation chains to: the hash
/// of the entire signed link, so any change to payload *or* signature
/// breaks every later `prev_head`.
pub fn encapsulation_head(link: &Signed<Encapsulation>) -> Digest {
    sha256(&to_wire(link))
}

/// The public anchor of an encapsulation chain.
pub fn encapsulation_anchor(agent: &AgentId, nonce: &[u8; 32]) -> Digest {
    let mut w = Writer::new();
    w.put_str("refstate-encap-anchor");
    w.put_raw(nonce);
    agent.encode(&mut w);
    sha256(&w.into_inner())
}

/// Where chain verification found the first inconsistency.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChainBreak {
    /// The chain is empty although the journey completed.
    EmptyChain,
    /// The first link's executor is not the journey's start host.
    WrongStart,
    /// A link's sequence number does not match its slot.
    SequenceGap,
    /// A link's MAC does not verify under its executor's key
    /// ([`ChainedMac`] only).
    MacMismatch,
    /// A link's `prev_head` does not match the hash of its predecessor
    /// ([`EncapsulatedResults`] only).
    HeadMismatch,
    /// A link's committed next hop is not the following link's executor.
    NextHopMismatch,
    /// The final link commits to a further hop, but the journey ended.
    DanglingNextHop,
    /// The delivered agent state does not match the final link's
    /// recorded partial result.
    FinalStateMismatch,
    /// A link's signature does not verify
    /// ([`EncapsulatedResults`] only).
    BadSignature,
}

impl fmt::Display for ChainBreak {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            ChainBreak::EmptyChain => "result chain is empty",
            ChainBreak::WrongStart => "first chain entry was not made by the start host",
            ChainBreak::SequenceGap => "chain sequence numbers are not contiguous",
            ChainBreak::MacMismatch => "chain MAC does not verify under the executor's key",
            ChainBreak::HeadMismatch => "chain head does not match the predecessor entry",
            ChainBreak::NextHopMismatch => {
                "committed next hop differs from the following entry's executor"
            }
            ChainBreak::DanglingNextHop => "final entry commits to a hop that never happened",
            ChainBreak::FinalStateMismatch => {
                "delivered agent state differs from the final recorded result"
            }
            ChainBreak::BadSignature => "encapsulation signature does not verify",
        };
        f.write_str(text)
    }
}

/// The verdict of one chain verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainVerdict {
    /// The first break found (`None` = the chain is intact).
    pub first_break: Option<(usize, ChainBreak)>,
}

impl ChainVerdict {
    /// Returns `true` when a manipulation was found.
    pub fn tampered(&self) -> bool {
        self.first_break.is_some()
    }
}

/// A fraud report from a chained journey: unlike [`ChainVerdict`] (the
/// owner's after-task view), this carries attribution — produced only
/// where the scheme genuinely supports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainFraud {
    /// The host blamed.
    pub culprit: HostId,
    /// The host (or `"owner"`) that detected the manipulation.
    pub detector: HostId,
    /// What broke.
    pub reason: ChainBreak,
}

/// A completed MAC-chained journey.
#[derive(Debug)]
pub struct MacChainJourney {
    /// The agent's delivered final state.
    pub final_state: DataState,
    /// Hosts visited, in order.
    pub path: Vec<HostId>,
    /// The carried chain, as the owner received it (manipulations
    /// included).
    pub links: Vec<ChainLink>,
}

/// Applies one chain attack to the links collected so far (the chain the
/// attacker *received*), in place, and reports whether anything changed
/// (so drivers log `AttackApplied` only for manipulations that
/// happened). `forge` re-MACs/re-signs a rewritten predecessor entry —
/// only the collusion attack has the key material to do that — and
/// reports its own success.
fn apply_chain_attack<L>(
    attack: &Attack,
    links: &mut Vec<L>,
    replace: impl FnOnce(&mut L),
    forge: impl FnOnce(&mut Vec<L>, &HostId) -> bool,
) -> bool {
    match attack {
        Attack::TruncateChainTail { drop } => {
            let keep = links.len().saturating_sub((*drop).max(1));
            let changed = keep < links.len();
            links.truncate(keep);
            changed
        }
        Attack::SwapChainEntries => {
            let n = links.len();
            if n >= 2 {
                links.swap(n - 2, n - 1);
                true
            } else {
                false
            }
        }
        Attack::ReplacePartialResult => match links.last_mut() {
            Some(last) => {
                replace(last);
                true
            }
            None => false,
        },
        Attack::ForgeChainEntry { accomplice } => forge(links, accomplice),
        _ => false,
    }
}

/// The MAC chain's part of the itinerary: on departure, a
/// chain-attacking host manipulates the chain it received, then every
/// host appends its own link.
struct MacChaining<'a> {
    secret: &'a ChainSecret,
    anchor: Digest,
    log: &'a EventLog,
    links: Vec<ChainLink>,
}

impl Leg for MacChaining<'_> {
    type Stop = Infallible;

    fn depart(
        &mut self,
        visit: Visit<'_>,
        record: SessionRecord,
    ) -> ControlFlow<Infallible, usize> {
        let here = visit.here();
        let attack = visit.hosts[visit.at].behaviour().attack();
        if let Some(attack) = attack.filter(|a| a.targets_result_chain()) {
            let (secret, anchor) = (self.secret, self.anchor);
            let applied = apply_chain_attack(
                attack,
                &mut self.links,
                |last| {
                    // Substitution without the victim's key: the stale
                    // MAC no longer covers the forged digest.
                    last.result_digest = sha256(b"forged-partial-result");
                },
                |links, accomplice| {
                    // Collusion: the immediate predecessor shared its
                    // key, so its entry is rewritten *validly*.
                    let n = links.len();
                    if n == 0 || &links[n - 1].executor != accomplice {
                        return false;
                    }
                    links[n - 1].result_digest = sha256(b"forged-by-accomplice");
                    let prev = if n == 1 { anchor } else { links[n - 2].mac };
                    let mac = ChainLink::chain_mac(secret, &prev, &links[n - 1]);
                    links[n - 1].mac = mac;
                    true
                },
            );
            if applied {
                self.log.record(Event::AttackApplied {
                    host: here.clone(),
                    attack: attack.label().to_owned(),
                });
            }
        }

        // Continue the sequence the (possibly manipulated) chain claims:
        // the strongest adversary re-numbers seamlessly, so verification
        // must not rely on sequence gaps alone.
        let seq = self.links.last().map(|l| l.seq + 1).unwrap_or(0);
        let prev = self.links.last().map(|l| l.mac).unwrap_or(self.anchor);
        let mut link = ChainLink {
            seq,
            executor: here.clone(),
            result_digest: sha256(&to_wire(&record.outcome.state)),
            next: record.next_hop(),
            mac: self.anchor, // placeholder, overwritten below
        };
        link.mac = ChainLink::chain_mac(self.secret, &prev, &link);
        self.links.push(link);
        ControlFlow::Continue(0)
    }
}

/// Runs a journey under the MAC-chain discipline: every host appends a
/// [`ChainLink`] for its session; hosts whose behaviour is a chain
/// attack manipulate the received chain first. Nothing checks en route —
/// only the owner holds the keys ([`verify_mac_chain`]).
///
/// # Errors
///
/// See [`JourneyError`]; a crashed session is [`JourneyError::Vm`] (the
/// owner never receives the chain).
pub fn run_mac_chained_journey(
    hosts: &mut [Host],
    start: impl Into<HostId>,
    agent: AgentImage,
    secret: &ChainSecret,
    exec: &ExecConfig,
    log: &EventLog,
    max_hops: usize,
) -> Result<MacChainJourney, JourneyError> {
    let mut leg = MacChaining {
        secret,
        anchor: secret.anchor(&agent.id),
        log,
        links: Vec::new(),
    };
    let walk = walk(hosts, start, agent, exec, log, max_hops, &mut leg);
    walk.result?;
    Ok(MacChainJourney {
        final_state: walk.image.state,
        path: walk.path,
        links: leg.links,
    })
}

/// The owner-side verification of a MAC chain: recompute every link's
/// MAC under the per-host keys, walk the sequence numbers and next-hop
/// commitments, and bind the delivered state to the final recorded
/// result. No session is replayed.
///
/// Detection is complete for truncation, reordering, and substitution;
/// attribution is **not** attempted — a failing MAC proves manipulation
/// happened somewhere downstream of the victim entry, but any later host
/// could have done it (the family's documented bandwidth; contrast the
/// publicly verifiable [`EncapsulatedResults`]).
pub fn verify_mac_chain(
    links: &[ChainLink],
    secret: &ChainSecret,
    agent: &AgentId,
    start: &HostId,
    final_state_digest: &Digest,
) -> ChainVerdict {
    let fail = |slot: usize, reason: ChainBreak| ChainVerdict {
        first_break: Some((slot, reason)),
    };
    let Some(first) = links.first() else {
        return fail(0, ChainBreak::EmptyChain);
    };
    if &first.executor != start {
        return fail(0, ChainBreak::WrongStart);
    }
    let mut prev = secret.anchor(agent);
    for (slot, link) in links.iter().enumerate() {
        if link.seq != slot as u64 {
            return fail(slot, ChainBreak::SequenceGap);
        }
        if ChainLink::chain_mac(secret, &prev, link) != link.mac {
            return fail(slot, ChainBreak::MacMismatch);
        }
        if slot + 1 < links.len() {
            match &link.next {
                Some(next) if next == &links[slot + 1].executor => {}
                _ => return fail(slot, ChainBreak::NextHopMismatch),
            }
        }
        prev = link.mac;
    }
    let last = links.last().expect("checked non-empty");
    if last.next.is_some() {
        return fail(links.len() - 1, ChainBreak::DanglingNextHop);
    }
    if &last.result_digest != final_state_digest {
        return fail(links.len() - 1, ChainBreak::FinalStateMismatch);
    }
    ChainVerdict { first_break: None }
}

/// A completed (or aborted) encapsulated-results journey.
#[derive(Debug)]
pub struct EncapsulatedJourney {
    /// The agent's delivered final state (`None` when the journey was
    /// aborted by an en-route detection).
    pub final_state: Option<DataState>,
    /// Hosts visited, in order.
    pub path: Vec<HostId>,
    /// The carried chain of signed encapsulations.
    pub chain: Vec<Signed<Encapsulation>>,
    /// The detection, when one fired (en route or owner-side).
    pub fraud: Option<ChainFraud>,
}

/// Structural verification of an encapsulation chain: first-executor,
/// sequence, `prev_head` continuity, and interior next-hop commitments.
/// Hash-only (no signatures), so every arriving host can afford it.
fn check_encapsulation_structure(
    chain: &[Signed<Encapsulation>],
    anchor: &Digest,
    start: &HostId,
) -> Option<(usize, ChainBreak)> {
    let first = chain.first()?;
    if &first.payload().executor != start {
        return Some((0, ChainBreak::WrongStart));
    }
    let mut prev = *anchor;
    for (slot, link) in chain.iter().enumerate() {
        let payload = link.payload();
        if payload.seq != slot as u64 {
            return Some((slot, ChainBreak::SequenceGap));
        }
        if payload.prev_head != prev {
            return Some((slot, ChainBreak::HeadMismatch));
        }
        if slot + 1 < chain.len() {
            match &payload.next {
                Some(next) if next == &chain[slot + 1].payload().executor => {}
                _ => return Some((slot, ChainBreak::NextHopMismatch)),
            }
        }
        prev = encapsulation_head(link);
    }
    None
}

/// The owner's full verification of an encapsulation chain: structure,
/// terminal conditions, the delivered-state binding, and every
/// signature — flushed through `queue` in one batch (the fused
/// double-exponentiation fast path with per-key cached tables).
///
/// On a break, attribution finds the first slot at (or after) the break
/// whose entry *endorses the manipulated chain* — signature valid and
/// `prev_head` matching the chain as received. An honest host's entry
/// never endorses a manipulation it did not see, so that endorser is the
/// manipulator (or a colluder relaying for one).
pub fn owner_verify_encapsulations(
    chain: &[Signed<Encapsulation>],
    anchor: &Digest,
    start: &HostId,
    final_state_digest: &Digest,
    path: &[HostId],
    directory: &KeyDirectory,
    queue: &mut VerificationQueue,
) -> Option<ChainFraud> {
    let owner = HostId::new("owner");
    // One deferred batch for every signature in the chain. The flush
    // settles anything already sitting in the caller's queue too (their
    // checks were due by journey end anyway), so index the verdicts from
    // where this chain's deferrals started — the slot-to-verdict mapping
    // must not depend on the queue arriving empty.
    let already_deferred = queue.len();
    for link in chain {
        queue.defer_signed(link);
    }
    let signature_ok: Vec<bool> = queue
        .flush(directory)
        .into_iter()
        .skip(already_deferred)
        .map(|(_, ok)| ok)
        .collect();
    let signature_ok = |slot: usize| signature_ok.get(slot).copied().unwrap_or(false);

    let structural = check_encapsulation_structure(chain, anchor, start).or_else(|| {
        let last = chain.last()?;
        if last.payload().next.is_some() {
            return Some((chain.len() - 1, ChainBreak::DanglingNextHop));
        }
        if &last.payload().result_digest != final_state_digest {
            return Some((chain.len() - 1, ChainBreak::FinalStateMismatch));
        }
        None
    });
    let first_break = match (structural, chain.is_empty()) {
        (_, true) => Some((0, ChainBreak::EmptyChain)),
        (Some(found), _) => Some(found),
        (None, _) => (0..chain.len())
            .find(|&slot| !signature_ok(slot))
            .map(|slot| (slot, ChainBreak::BadSignature)),
    };
    let (bad_slot, reason) = first_break?;

    // Attribution: recompute the heads of the chain *as received*; the
    // first entry from the break on that is both self-signed and chained
    // onto the manipulated prefix vouched for the manipulation. A broken
    // next-hop commitment lives on the (honest) entry *before* the
    // manipulation, so the endorser search starts one slot later.
    let search_from = match reason {
        ChainBreak::NextHopMismatch | ChainBreak::DanglingNextHop => bad_slot + 1,
        _ => bad_slot,
    };
    let mut expected_prev = *anchor;
    let mut endorser = None;
    for (slot, link) in chain.iter().enumerate() {
        let consistent = link.payload().prev_head == expected_prev && signature_ok(slot);
        if slot >= search_from && consistent {
            endorser = Some(link.payload().executor.clone());
            break;
        }
        expected_prev = encapsulation_head(link);
    }
    let culprit = endorser
        .or_else(|| path.last().cloned())
        .unwrap_or_else(|| start.clone());
    Some(ChainFraud {
        culprit,
        detector: owner,
        reason,
    })
}

/// The encapsulation's part of the itinerary: honest hosts check the
/// received chain on arrival; on departure, a chain-attacking host
/// manipulates the chain it received, then every host appends its own
/// signed encapsulation.
struct Encapsulating<'a> {
    start: &'a HostId,
    anchor: Digest,
    log: &'a EventLog,
    chain: Vec<Signed<Encapsulation>>,
}

impl Leg for Encapsulating<'_> {
    type Stop = ChainFraud;

    /// Honest hosts only (an attacker has no reason to report itself):
    /// chain structure and the top entry's commitment to *this* host.
    /// Signatures wait for the owner's batched check.
    fn arrive(&mut self, visit: Visit<'_>) -> ControlFlow<ChainFraud> {
        if visit.hosts[visit.at].behaviour().attack().is_some() {
            return ControlFlow::Continue(());
        }
        let (here, previous) = (visit.here(), visit.previous().expect("not the start host"));
        let chain = &self.chain;
        let found = check_encapsulation_structure(chain, &self.anchor, self.start).or_else(|| {
            let top = chain.last()?.payload();
            (top.next.as_ref() != Some(here))
                .then(|| (chain.len() - 1, ChainBreak::NextHopMismatch))
        });
        let Some((_, reason)) = found else {
            self.log.record(Event::CheckPerformed {
                checker: here.clone(),
                checked: previous.clone(),
                passed: true,
            });
            return ControlFlow::Continue(());
        };
        // The previous hop handed over a broken chain.
        self.log.record(Event::FraudDetected {
            culprit: previous.clone(),
            detector: here.clone(),
            reason: reason.to_string(),
        });
        ControlFlow::Break(ChainFraud {
            culprit: previous.clone(),
            detector: here.clone(),
            reason,
        })
    }

    fn depart(
        &mut self,
        visit: Visit<'_>,
        record: SessionRecord,
    ) -> ControlFlow<ChainFraud, usize> {
        let attack = visit.hosts[visit.at].behaviour().attack();
        if let Some(attack) = attack.filter(|a| a.targets_result_chain()).cloned() {
            let hosts = &mut *visit.hosts;
            let applied = apply_chain_attack(
                &attack,
                &mut self.chain,
                |last| {
                    // Substitution without the victim's signing key: the
                    // stale signature no longer covers the forged bytes.
                    *last = last.clone().tampered_with(|mut payload| {
                        payload.result_digest = sha256(b"forged-partial-result");
                        payload
                    });
                },
                |chain, accomplice| {
                    // Collusion: re-sign the rewritten entry with the
                    // predecessor's real key.
                    let Some(last) = chain.last() else {
                        return false;
                    };
                    if &last.payload().executor != accomplice {
                        return false;
                    }
                    let mut payload = last.payload().clone();
                    payload.result_digest = sha256(b"forged-by-accomplice");
                    let Some(acc) = hosts.iter_mut().find(|h| h.id() == accomplice) else {
                        return false;
                    };
                    *chain.last_mut().expect("checked non-empty") = acc.sign(payload);
                    true
                },
            );
            if applied {
                self.log.record(Event::AttackApplied {
                    host: visit.here().clone(),
                    attack: attack.label().to_owned(),
                });
            }
        }

        let payload = Encapsulation {
            seq: self.chain.last().map(|l| l.payload().seq + 1).unwrap_or(0),
            executor: visit.here().clone(),
            result_digest: sha256(&to_wire(&record.outcome.state)),
            prev_head: self
                .chain
                .last()
                .map(encapsulation_head)
                .unwrap_or(self.anchor),
            next: record.next_hop(),
        };
        self.chain.push(visit.hosts[visit.at].sign(payload));
        ControlFlow::Continue(0)
    }
}

/// Runs a journey under the signed-encapsulation discipline. Honest
/// hosts verify the received chain's structure on arrival and abort the
/// journey on a break, blaming the host that handed the chain over. The
/// owner verifies every signature at the end, in one batch, through
/// [`owner_verify_encapsulations`].
///
/// # Errors
///
/// See [`JourneyError`]; a crashed session is [`JourneyError::Vm`].
pub fn run_encapsulated_journey(
    hosts: &mut [Host],
    start: impl Into<HostId>,
    agent: AgentImage,
    nonce: &[u8; 32],
    exec: &ExecConfig,
    log: &EventLog,
    max_hops: usize,
) -> Result<EncapsulatedJourney, JourneyError> {
    let start: HostId = start.into();
    let mut leg = Encapsulating {
        start: &start,
        anchor: encapsulation_anchor(&agent.id, nonce),
        log,
        chain: Vec::new(),
    };
    let walk = walk(hosts, start.clone(), agent, exec, log, max_hops, &mut leg);
    let fraud = walk.result?;
    Ok(EncapsulatedJourney {
        final_state: fraud.is_none().then_some(walk.image.state),
        path: walk.path,
        chain: leg.chain,
        fraud,
    })
}

/// Karjoth-style chained MACs as a registry citizen (`chained`): per-hop
/// HMAC links over owner-shared keys. Detects truncation, substitution,
/// and reordering of the carried partial results without any
/// re-execution; verifiable by the owner only, after the task, and —
/// deliberately — **without attribution** (a broken MAC does not
/// localize the manipulator). Computation lies and colluding-predecessor
/// forgeries pass untouched: the structural contrast with every
/// re-execution mechanism in the registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainedMac;

impl ProtectionMechanism for ChainedMac {
    fn name(&self) -> &'static str {
        "chained"
    }

    fn description(&self) -> &'static str {
        "hop-chained MACs over partial results (Karjoth-style), owner-verified"
    }

    fn profile(&self) -> MechanismProfile {
        MechanismProfile {
            moment: Some(CheckMoment::AfterTask),
            reference_data: ReferenceDataRequest::new().with(ReferenceDataKind::ResultingState),
            topology: RouteTopology::Linear,
            uses_signatures: false,
        }
    }

    fn run_split(&self, ctx: &mut JourneyCtx<'_>) -> SplitVerdict {
        let secret = ChainSecret::from_rng(&mut ctx.rng);
        let agent_id = ctx.agent.id.clone();
        let start = ctx.start().clone();
        let forward = ctx.stage("chained.journey");
        let journey = run_mac_chained_journey(
            ctx.hosts,
            start.clone(),
            ctx.agent.clone(),
            &secret,
            &ctx.config.exec,
            ctx.log,
            ctx.config.max_hops,
        );
        drop(forward);
        match journey {
            Ok(journey) => {
                let _verify = ctx.stage("chained.verify");
                let final_digest = sha256(&to_wire(&journey.final_state));
                let verdict =
                    verify_mac_chain(&journey.links, &secret, &agent_id, &start, &final_digest);
                match verdict.first_break {
                    Some((_, reason)) => {
                        ctx.log.record(Event::FraudDetected {
                            culprit: HostId::new("unknown"),
                            detector: HostId::new("owner"),
                            reason: reason.to_string(),
                        });
                        JourneyVerdict::detected_unattributed(true)
                    }
                    None => JourneyVerdict::clean(true),
                }
            }
            // The agent died en route; the chain never came home.
            Err(_) => JourneyVerdict::clean(false),
        }
        .into()
    }
}

/// Signed partial result encapsulation as a registry citizen
/// (`encapsulated`): Rodríguez–Sobrado-style publicly verifiable chain.
/// Honest hosts check structure on every arrival and abort at the hop
/// after a manipulation, blaming the handing-over host; the owner
/// re-verifies everything, with all DSA checks batched through the
/// journey's [`VerificationQueue`]
/// (fused fast path, per-key cached tables). Same blind spots as
/// [`ChainedMac`]: computation lies and colluding predecessors.
#[derive(Debug, Clone, Copy, Default)]
pub struct EncapsulatedResults;

impl ProtectionMechanism for EncapsulatedResults {
    fn name(&self) -> &'static str {
        "encapsulated"
    }

    fn description(&self) -> &'static str {
        "signed per-hop partial result encapsulation, publicly verifiable"
    }

    fn profile(&self) -> MechanismProfile {
        MechanismProfile {
            moment: Some(CheckMoment::AfterSession),
            reference_data: ReferenceDataRequest::new().with(ReferenceDataKind::ResultingState),
            topology: RouteTopology::Linear,
            uses_signatures: true,
        }
    }

    fn run_split(&self, ctx: &mut JourneyCtx<'_>) -> SplitVerdict {
        let mut nonce = [0u8; 32];
        ctx.rng.fill_bytes(&mut nonce);
        let agent_id = ctx.agent.id.clone();
        let start = ctx.start().clone();
        let forward = ctx.stage("encapsulated.journey");
        let journey = run_encapsulated_journey(
            ctx.hosts,
            start.clone(),
            ctx.agent.clone(),
            &nonce,
            &ctx.config.exec,
            ctx.log,
            ctx.config.max_hops,
        );
        drop(forward);
        let journey = match journey {
            Ok(journey) => journey,
            Err(_) => return JourneyVerdict::clean(false).into(),
        };
        if let Some(fraud) = journey.fraud {
            // An en-route arrival check aborted the journey.
            return JourneyVerdict::accusing(vec![fraud.culprit], false).into();
        }
        let Some(final_state) = &journey.final_state else {
            return JourneyVerdict::clean(false).into();
        };
        let anchor = encapsulation_anchor(&agent_id, &nonce);
        let final_digest = sha256(&to_wire(final_state));
        let _verify = ctx.stage("encapsulated.verify");
        match owner_verify_encapsulations(
            &journey.chain,
            &anchor,
            &start,
            &final_digest,
            &journey.path,
            ctx.directory,
            &mut ctx.queue,
        ) {
            Some(fraud) => {
                ctx.log.record(Event::FraudDetected {
                    culprit: fraud.culprit.clone(),
                    detector: fraud.detector.clone(),
                    reason: fraud.reason.to_string(),
                });
                JourneyVerdict::accusing(vec![fraud.culprit], true)
            }
            None => JourneyVerdict::clean(true),
        }
        .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use refstate_core::protocol::host_directory;
    use refstate_crypto::DsaParams;
    use refstate_platform::HostSpec;
    use refstate_vm::{assemble, Value};

    use crate::api::MechanismConfig;

    /// A four-host route agent: h0 → h1 → h2 → h3, one summed input per
    /// hop (long enough that every chain attack has predecessors to
    /// manipulate).
    fn route_agent(n: usize) -> AgentImage {
        let mut asm = String::from(
            "input \"n\"\nload \"total\"\nadd\nstore \"total\"\nload \"hop\"\npush 1\nadd\nstore \"hop\"\n",
        );
        for hop in 1..n {
            asm.push_str(&format!("load \"hop\"\npush {hop}\neq\njnz to_{hop}\n"));
        }
        asm.push_str("halt\n");
        for hop in 1..n {
            asm.push_str(&format!("to_{hop}:\npush \"h{hop}\"\nmigrate\n"));
        }
        let program = assemble(&asm).unwrap();
        let mut state = DataState::new();
        state.set("total", Value::Int(0));
        state.set("hop", Value::Int(0));
        AgentImage::new("chain-test", program, state)
    }

    fn hosts(n: usize, attacker: Option<(usize, Attack)>) -> Vec<Host> {
        let mut rng = StdRng::seed_from_u64(4242);
        let params = DsaParams::test_group_256();
        let specs: Vec<HostSpec> = (0..n)
            .map(|pos| {
                let mut spec = HostSpec::new(format!("h{pos}"));
                if pos == 0 {
                    spec = spec.trusted();
                }
                spec = spec.with_input("n", Value::Int(10 * (pos as i64 + 1)));
                if let Some((apos, attack)) = &attacker {
                    if *apos == pos {
                        spec = spec.malicious(attack.clone());
                    }
                }
                spec
            })
            .collect();
        Host::build_all(specs, &params, &mut rng)
    }

    fn ctx_verdict(mechanism: &dyn ProtectionMechanism, hs: &mut [Host]) -> JourneyVerdict {
        let directory = host_directory(hs);
        let config = MechanismConfig::default();
        let log = EventLog::new();
        let n = hs.len();
        let route: Vec<HostId> = (0..n).map(|p| HostId::new(format!("h{p}"))).collect();
        let mut ctx = JourneyCtx::new(hs, route, route_agent(n), &directory, &config, &log, 77);
        mechanism.run(&mut ctx)
    }

    #[test]
    fn honest_mac_chain_verifies_clean() {
        let mut hs = hosts(4, None);
        let verdict = ctx_verdict(&ChainedMac, &mut hs);
        assert!(!verdict.detected);
        assert!(verdict.completed);
    }

    #[test]
    fn honest_encapsulated_chain_verifies_clean() {
        let mut hs = hosts(4, None);
        let directory = host_directory(&hs);
        let config = MechanismConfig::default();
        let log = EventLog::new();
        let route: Vec<HostId> = (0..4).map(|p| HostId::new(format!("h{p}"))).collect();
        let mut ctx = JourneyCtx::new(
            &mut hs,
            route,
            route_agent(4),
            &directory,
            &config,
            &log,
            77,
        );
        let verdict = EncapsulatedResults.run(&mut ctx);
        assert!(!verdict.detected);
        assert!(verdict.completed);
        assert!(ctx.queue.is_empty(), "the owner flush drains the queue");
    }

    #[test]
    fn owner_verification_tolerates_a_non_empty_queue() {
        // The slot-to-verdict mapping must not assume the caller's queue
        // arrives empty: pre-seed it with an unrelated (failing) check
        // and verify both the clean and the tampered chain still judge
        // and attribute correctly.
        let run_with_seeded_queue = |attack: Option<(usize, Attack)>| {
            let mut hs = hosts(4, attack);
            let directory = host_directory(&hs);
            let config = MechanismConfig::default();
            let log = EventLog::new();
            let nonce = [7u8; 32];
            let agent = route_agent(4);
            let agent_id = agent.id.clone();
            let mut queue = VerificationQueue::new();
            // A failing unrelated check at index 0: a broken mapping
            // would read this verdict as slot 0's signature.
            let unrelated = hs[0].sign(42u64).tampered_with(|v| v + 1);
            queue.defer_signed(&unrelated);
            let journey = run_encapsulated_journey(
                &mut hs,
                "h0",
                agent,
                &nonce,
                &config.exec,
                &log,
                config.max_hops,
            )
            .unwrap();
            let final_state = journey.final_state.as_ref().expect("journey completed");
            owner_verify_encapsulations(
                &journey.chain,
                &encapsulation_anchor(&agent_id, &nonce),
                &HostId::new("h0"),
                &sha256(&to_wire(final_state)),
                &journey.path,
                &directory,
                &mut queue,
            )
        };
        assert!(
            run_with_seeded_queue(None).is_none(),
            "honest chain misjudged because of a pre-seeded queue"
        );
        // A final-host substitution reaches the owner check (no next
        // arrival): still detected and attributed with the offset.
        let fraud = run_with_seeded_queue(Some((3, Attack::ReplacePartialResult)))
            .expect("substitution detected");
        assert_eq!(fraud.culprit, HostId::new("h3"));
    }

    #[test]
    fn truncation_detected_by_both_mechanisms() {
        let attack = Attack::TruncateChainTail { drop: 1 };
        let mut hs = hosts(4, Some((2, attack.clone())));
        let v = ctx_verdict(&ChainedMac, &mut hs);
        assert!(v.detected, "chained missed truncation");
        assert!(v.accused.is_empty(), "chained detects without attribution");
        assert!(v.completed, "owner-side detection, journey completed");

        let mut hs = hosts(4, Some((2, attack)));
        let v = ctx_verdict(&EncapsulatedResults, &mut hs);
        assert!(v.detected, "encapsulated missed truncation");
        assert_eq!(v.accused, vec![HostId::new("h2")], "blames the attacker");
        assert!(!v.completed, "aborted at the next arrival");
    }

    #[test]
    fn swap_detected_by_both_mechanisms() {
        for mechanism in [
            &ChainedMac as &dyn ProtectionMechanism,
            &EncapsulatedResults,
        ] {
            let mut hs = hosts(4, Some((2, Attack::SwapChainEntries)));
            let v = ctx_verdict(mechanism, &mut hs);
            assert!(v.detected, "{} missed the swap", mechanism.name());
        }
    }

    #[test]
    fn replacement_detected_by_both_mechanisms() {
        for mechanism in [
            &ChainedMac as &dyn ProtectionMechanism,
            &EncapsulatedResults,
        ] {
            let mut hs = hosts(4, Some((2, Attack::ReplacePartialResult)));
            let v = ctx_verdict(mechanism, &mut hs);
            assert!(v.detected, "{} missed the substitution", mechanism.name());
        }
    }

    #[test]
    fn replacement_by_final_host_is_owner_attributed() {
        // No next arrival exists; the owner's batched check finds the
        // stale signature and attributes the first endorser of the
        // manipulated chain — the attacker.
        let mut hs = hosts(4, Some((3, Attack::ReplacePartialResult)));
        let v = ctx_verdict(&EncapsulatedResults, &mut hs);
        assert!(v.detected);
        assert_eq!(v.accused, vec![HostId::new("h3")]);
        assert!(v.completed, "owner-side detection after the halt");
    }

    #[test]
    fn colluding_predecessor_forgery_evades_both() {
        let attack = Attack::ForgeChainEntry {
            accomplice: HostId::new("h1"),
        };
        for mechanism in [
            &ChainedMac as &dyn ProtectionMechanism,
            &EncapsulatedResults,
        ] {
            let mut hs = hosts(4, Some((2, attack.clone())));
            let v = ctx_verdict(mechanism, &mut hs);
            assert!(
                !v.detected,
                "{} impossibly detected key-sharing collusion",
                mechanism.name()
            );
            assert!(v.completed);
        }
    }

    #[test]
    fn computation_lies_evade_the_family_but_not_reexecution() {
        // The structural contrast, asserted in both directions: the
        // chained family misses what re-execution catches.
        let lie = Attack::TamperVariable {
            name: "total".into(),
            value: Value::Int(-999),
        };
        for mechanism in [
            &ChainedMac as &dyn ProtectionMechanism,
            &EncapsulatedResults,
        ] {
            let mut hs = hosts(4, Some((2, lie.clone())));
            let v = ctx_verdict(mechanism, &mut hs);
            assert!(
                !v.detected,
                "{} cannot see computation lies without re-execution",
                mechanism.name()
            );
        }
        let mut hs = hosts(4, Some((2, lie)));
        let v = ctx_verdict(&crate::fleet::FrameworkReExecution, &mut hs);
        assert!(v.detected, "re-execution catches the same lie");
        assert_eq!(v.accused, vec![HostId::new("h2")]);
    }

    #[test]
    fn mac_chain_links_wire_round_trip() {
        use refstate_wire::from_wire;
        let link = ChainLink {
            seq: 3,
            executor: HostId::new("h3"),
            result_digest: sha256(b"r"),
            next: Some(HostId::new("h4")),
            mac: sha256(b"m"),
        };
        assert_eq!(from_wire::<ChainLink>(&to_wire(&link)).unwrap(), link);
        let payload = Encapsulation {
            seq: 0,
            executor: HostId::new("h0"),
            result_digest: sha256(b"r"),
            prev_head: sha256(b"a"),
            next: None,
        };
        assert_eq!(
            from_wire::<Encapsulation>(&to_wire(&payload)).unwrap(),
            payload
        );
    }

    #[test]
    fn verify_mac_chain_pins_each_break_kind() {
        let secret = ChainSecret::from_rng(&mut StdRng::seed_from_u64(9));
        let agent = AgentId::new("chain-test");
        let start = HostId::new("h0");
        let mut hs = hosts(3, None);
        let log = EventLog::new();
        let journey = run_mac_chained_journey(
            &mut hs,
            "h0",
            route_agent(3),
            &secret,
            &ExecConfig::default(),
            &log,
            10,
        )
        .unwrap();
        let final_digest = sha256(&to_wire(&journey.final_state));
        let ok = verify_mac_chain(&journey.links, &secret, &agent, &start, &final_digest);
        assert!(!ok.tampered());

        // Empty chain.
        let v = verify_mac_chain(&[], &secret, &agent, &start, &final_digest);
        assert_eq!(v.first_break, Some((0, ChainBreak::EmptyChain)));
        // Dropped head: the wrong host opens the chain.
        let v = verify_mac_chain(&journey.links[1..], &secret, &agent, &start, &final_digest);
        assert_eq!(v.first_break, Some((0, ChainBreak::WrongStart)));
        // Truncated tail: the last link dangles.
        let v = verify_mac_chain(&journey.links[..2], &secret, &agent, &start, &final_digest);
        assert_eq!(v.first_break, Some((1, ChainBreak::DanglingNextHop)));
        // Substituted result: MAC no longer covers the entry.
        let mut forged = journey.links.clone();
        forged[1].result_digest = sha256(b"oops");
        let v = verify_mac_chain(&forged, &secret, &agent, &start, &final_digest);
        assert_eq!(v.first_break, Some((1, ChainBreak::MacMismatch)));
        // Delivered state differs from the final recorded result.
        let v = verify_mac_chain(&journey.links, &secret, &agent, &start, &sha256(b"other"));
        assert_eq!(v.first_break, Some((2, ChainBreak::FinalStateMismatch)));
    }

    #[test]
    fn chain_secret_keys_are_per_host_and_debug_is_redacted() {
        let secret = ChainSecret::from_rng(&mut StdRng::seed_from_u64(1));
        assert_ne!(
            secret.host_key(&HostId::new("a")),
            secret.host_key(&HostId::new("b"))
        );
        assert_eq!(format!("{secret:?}"), "ChainSecret(..)");
    }
}
