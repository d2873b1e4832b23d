//! Hosts: identity, keys, trust attribute, behaviour, and session execution.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use refstate_crypto::{DsaKeyPair, DsaParams, DsaPublicKey, Signed, Signer};
use refstate_vm::{
    run_compiled_session, DataState, ExecConfig, SessionEnd, SessionIo, SessionOutcome,
    SyscallKind, Value, VmError,
};
use refstate_wire::Encode;

use crate::agent::AgentImage;
use crate::attack::{Attack, Behaviour};
use crate::event::{Event, EventLog};
use crate::feed::InputFeed;

/// A host (agent platform) identifier.
///
/// The name is shared, not owned: cloning an id (into an event, a path,
/// a check verdict) copies a pointer. Equality, ordering and hashing go
/// by the name's content.
///
/// # Examples
///
/// ```
/// use refstate_platform::HostId;
///
/// let id = HostId::new("airline-a");
/// assert_eq!(id.as_str(), "airline-a");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(Arc<str>);

impl HostId {
    /// Creates a host id.
    pub fn new(id: impl Into<String>) -> Self {
        HostId(Arc::from(id.into()))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The id's shared name: cloning it (say, into a signature's signer)
    /// copies a pointer.
    pub fn name(&self) -> Arc<str> {
        Arc::clone(&self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for HostId {
    fn from(s: &str) -> Self {
        HostId(Arc::from(s))
    }
}

impl From<String> for HostId {
    fn from(s: String) -> Self {
        HostId::new(s)
    }
}

impl refstate_wire::Encode for HostId {
    fn encode(&self, w: &mut refstate_wire::Writer) {
        w.put_str(&self.0);
    }
}

impl refstate_wire::Decode for HostId {
    fn decode(r: &mut refstate_wire::Reader<'_>) -> Result<Self, refstate_wire::WireError> {
        Ok(HostId(Arc::from(r.take_str()?)))
    }
}

/// Static description of a host, used to construct a [`Host`].
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// The host's identity.
    pub id: HostId,
    /// Whether the agent owner trusts this host (trusted hosts are not
    /// checked by the example protocol — "trusted hosts will not attack by
    /// definition").
    pub trusted: bool,
    /// Honest or a concrete attack.
    pub behaviour: Behaviour,
    /// The inputs this host serves to visiting agents.
    pub feed: InputFeed,
}

impl HostSpec {
    /// A new honest, untrusted host with an empty feed.
    pub fn new(id: impl Into<HostId>) -> Self {
        HostSpec {
            id: id.into(),
            trusted: false,
            behaviour: Behaviour::Honest,
            feed: InputFeed::new(),
        }
    }

    /// Marks the host as trusted by the agent owner.
    pub fn trusted(mut self) -> Self {
        self.trusted = true;
        self
    }

    /// Sets the behaviour.
    pub fn behaviour(mut self, behaviour: Behaviour) -> Self {
        self.behaviour = behaviour;
        self
    }

    /// Shorthand for `behaviour(Behaviour::Malicious(attack))`.
    pub fn malicious(self, attack: Attack) -> Self {
        self.behaviour(Behaviour::Malicious(attack))
    }

    /// Queues an input value in the host's feed.
    pub fn with_input(mut self, tag: impl AsRef<str> + Into<Arc<str>>, value: Value) -> Self {
        self.feed.push(tag, value);
        self
    }
}

/// Everything one host-side execution session produced, including what the
/// protection protocols need as reference data.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// The state the agent arrived with.
    pub initial_state: DataState,
    /// The (possibly tampered) session outcome the host reports.
    pub outcome: SessionOutcome,
    /// Producer signatures for inputs that carried provenance (§4.3
    /// extension), indexed parallel to the input log.
    pub provenance: Vec<Option<Signed<Value>>>,
    /// Wall-clock execution time of the session.
    pub elapsed: Duration,
}

impl SessionRecord {
    /// The host the session sends the agent to (`None` when it halted).
    pub fn next_hop(&self) -> Option<HostId> {
        match &self.outcome.end {
            SessionEnd::Migrate(host) => Some(HostId::from(host.as_str())),
            SessionEnd::Halt => None,
        }
    }
}

/// A live host: spec plus key material and the session RNG its signing
/// nonces come from.
pub struct Host {
    spec: HostSpec,
    signer: Signer,
    /// Deterministic session clock for syscall results.
    clock: i64,
}

impl fmt::Debug for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Host")
            .field("id", &self.spec.id)
            .field("trusted", &self.spec.trusted)
            .field("behaviour", &self.spec.behaviour)
            .finish_non_exhaustive()
    }
}

impl Host {
    /// Creates a host with fresh keys in the given DSA group.
    pub fn new(spec: HostSpec, params: &DsaParams, rng: &mut dyn RngCore) -> Self {
        let keys = Arc::new(DsaKeyPair::generate(params, rng));
        let host_seed = rng.next_u64();
        Host::with_keys(spec, keys, host_seed)
    }

    /// Creates a host from pre-generated key material and an explicit
    /// session-RNG seed.
    ///
    /// This is the batch-friendly constructor fleet-scale drivers use:
    /// key generation (a modular exponentiation) dominates `Host::new`, so
    /// a scenario engine spinning up thousands of short-lived host sets
    /// draws keys from a pre-generated pool instead. The pool's pairs are
    /// shared, not copied: each host holds one more reference to its
    /// pair. The resulting `Host` is `Send`, so host sets can be built on
    /// one thread and executed on another.
    pub fn with_keys(spec: HostSpec, keys: Arc<DsaKeyPair>, session_seed: u64) -> Self {
        Host {
            spec,
            signer: Signer::new(keys, StdRng::seed_from_u64(session_seed)),
            clock: 0,
        }
    }

    /// Builds a full host set from specs with fresh keys, in spec order.
    ///
    /// Deterministic for a given `rng` state; convenience for drivers and
    /// tests that construct whole journeys from a route description.
    pub fn build_all(specs: Vec<HostSpec>, params: &DsaParams, rng: &mut dyn RngCore) -> Vec<Host> {
        specs
            .into_iter()
            .map(|spec| Host::new(spec, params, rng))
            .collect()
    }

    /// The host's identity.
    pub fn id(&self) -> &HostId {
        &self.spec.id
    }

    /// Whether the agent owner trusts this host.
    pub fn is_trusted(&self) -> bool {
        self.spec.trusted
    }

    /// The host's behaviour.
    pub fn behaviour(&self) -> &Behaviour {
        &self.spec.behaviour
    }

    /// The host's public key (for directory registration).
    pub fn public_key(&self) -> &DsaPublicKey {
        self.signer.public()
    }

    /// Signs a payload in the host's name, with the next nonce of its
    /// stream (a queued one first).
    pub fn sign<T: Encode>(&mut self, payload: T) -> Signed<T> {
        self.seal(payload).0
    }

    /// [`Host::sign`], also returning the length of the payload encoding
    /// the signature covers.
    pub(crate) fn seal<T: Encode>(&mut self, payload: T) -> (Signed<T>, usize) {
        Signed::seal_by(payload, self.spec.id.name(), &mut self.signer)
    }

    /// The host's signing key and nonce stream.
    pub(crate) fn signer(&mut self) -> &mut Signer {
        &mut self.signer
    }

    /// Executes one session of `image` on this host, applying the host's
    /// behaviour.
    ///
    /// Honest hosts run the program faithfully against their input feed.
    /// Malicious hosts apply their [`Attack`]: input attacks modify the
    /// feed before execution, state attacks modify the outcome afterwards.
    /// Every attack application is recorded in `log`.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError`] from the underlying execution (e.g. input
    /// exhaustion, step-limit).
    pub fn execute_session(
        &mut self,
        image: &AgentImage,
        config: &ExecConfig,
        log: &EventLog,
    ) -> Result<SessionRecord, VmError> {
        log.record(Event::SessionStarted {
            host: self.spec.id.clone(),
            agent: image.id.clone(),
        });

        // Input-level attacks act on the feed before the session runs.
        match self.spec.behaviour.attack() {
            Some(Attack::DropInput { tag }) => {
                self.spec.feed.drop_next(tag);
                self.note_attack(log);
            }
            Some(Attack::ForgeInput { tag, value }) => {
                let (tag, value) = (tag.clone(), value.clone());
                self.spec.feed.forge_all(&tag, &value);
                self.note_attack(log);
            }
            _ => {}
        }

        let start = Instant::now();
        let mut io = FeedIo {
            feed: &mut self.spec.feed,
            clock: &mut self.clock,
            provenance: Vec::new(),
            sent: Vec::new(),
        };
        let initial_state = image.state.clone();
        // Live execution runs the compiled fast path. Clones of a program
        // share its compiled form, so it is decoded once per lineage (every
        // hop, replica and journey holding a clone), not once per session.
        let compiled = image.program.compiled();
        let mut outcome = run_compiled_session(&compiled, initial_state.clone(), &mut io, config)?;
        let provenance = io.provenance;
        let elapsed = start.elapsed();

        // State/execution-level attacks act on the honest outcome.
        match self.spec.behaviour.attack() {
            Some(Attack::TamperVariable { name, value }) => {
                outcome.state.set(name.clone(), value.clone());
                self.note_attack(log);
            }
            Some(Attack::DeleteVariable { name }) => {
                outcome.state.remove(name);
                self.note_attack(log);
            }
            Some(Attack::ScaleIntVariable { name, factor }) => {
                if let Some(v) = outcome.state.get_int(name) {
                    outcome
                        .state
                        .set(name.clone(), Value::Int(v.wrapping_mul(*factor)));
                }
                self.note_attack(log);
            }
            Some(Attack::SkipExecution) => {
                outcome.state = initial_state.clone();
                outcome.input_log = refstate_vm::InputLog::new();
                outcome.outputs.clear();
                outcome.steps = 0;
                self.note_attack(log);
            }
            Some(Attack::RedirectMigration { to }) => {
                outcome.end = refstate_vm::SessionEnd::Migrate(to.as_str().to_owned());
                self.note_attack(log);
            }
            Some(Attack::CollaborateTamper { name, value, .. }) => {
                outcome.state.set(name.clone(), value.clone());
                self.note_attack(log);
            }
            Some(Attack::ReplayStaleState { name, value }) => {
                outcome.state.set(name.clone(), value.clone());
                self.note_attack(log);
            }
            Some(Attack::ReadState) => {
                // Honest execution; the theft is invisible in the outcome.
                self.note_attack(log);
            }
            // Chain attacks act on the result chain some mechanisms make
            // the agent carry, not on the session outcome: the chained
            // journey drivers apply (and log) them at the chain layer;
            // under every other mechanism the host executes honestly.
            Some(Attack::TruncateChainTail { .. })
            | Some(Attack::SwapChainEntries)
            | Some(Attack::ReplacePartialResult)
            | Some(Attack::ForgeChainEntry { .. }) => {}
            Some(Attack::DropInput { .. }) | Some(Attack::ForgeInput { .. }) | None => {}
        }

        log.record(Event::SessionEnded {
            host: self.spec.id.clone(),
            agent: image.id.clone(),
            steps: outcome.steps,
        });

        Ok(SessionRecord {
            initial_state,
            outcome,
            provenance,
            elapsed,
        })
    }

    fn note_attack(&self, log: &EventLog) {
        if let Some(attack) = self.spec.behaviour.attack() {
            log.record(Event::AttackApplied {
                host: self.spec.id.clone(),
                attack: attack.label().to_owned(),
            });
        }
    }
}

/// Session I/O backed by the host's input feed.
struct FeedIo<'a> {
    feed: &'a mut InputFeed,
    clock: &'a mut i64,
    provenance: Vec<Option<Signed<Value>>>,
    sent: Vec<(String, Value)>,
}

impl SessionIo for FeedIo<'_> {
    fn input(&mut self, pc: usize, tag: &str) -> Result<Value, VmError> {
        let item = self
            .feed
            .take(tag)
            .ok_or_else(|| VmError::InputUnavailable {
                pc,
                what: format!("input:{tag}"),
            })?;
        self.provenance.push(item.provenance);
        Ok(item.value)
    }

    fn syscall(&mut self, _pc: usize, kind: SyscallKind) -> Result<Value, VmError> {
        *self.clock += 1;
        self.provenance.push(None);
        Ok(match kind {
            SyscallKind::Time => Value::Int(1_700_000_000_000 + *self.clock),
            SyscallKind::Random => {
                let x = (*self.clock as u64)
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(0x2545f4914f6cdd1d);
                Value::Int((x >> 17) as i64)
            }
        })
    }

    fn recv(&mut self, pc: usize, partner: &str) -> Result<Value, VmError> {
        let value = self
            .feed
            .take_message(partner)
            .ok_or_else(|| VmError::InputUnavailable {
                pc,
                what: format!("recv:{partner}"),
            })?;
        self.provenance.push(None);
        Ok(value)
    }

    fn send(&mut self, _pc: usize, partner: &str, value: Value) -> Result<(), VmError> {
        self.sent.push((partner.to_owned(), value));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refstate_vm::assemble;

    /// Fleet schedulers move freshly built hosts onto worker threads.
    #[allow(dead_code)]
    fn hosts_are_send(host: Host) -> impl Send {
        host
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1000)
    }

    fn shopping_agent() -> AgentImage {
        let program = assemble(
            r#"
            input "price"
            store "quote"
            push "next"
            migrate
        "#,
        )
        .unwrap();
        AgentImage::new("shopper", program, DataState::new())
    }

    fn make_host(spec: HostSpec) -> Host {
        Host::new(spec, &DsaParams::test_group_256(), &mut rng())
    }

    #[test]
    fn honest_execution() {
        let spec = HostSpec::new("shop").with_input("price", Value::Int(120));
        let mut host = make_host(spec);
        let log = EventLog::new();
        let record = host
            .execute_session(&shopping_agent(), &ExecConfig::default(), &log)
            .unwrap();
        assert_eq!(record.outcome.state.get_int("quote"), Some(120));
        assert_eq!(record.outcome.input_log.len(), 1);
        assert_eq!(record.provenance.len(), 1);
        assert_eq!(
            log.count_matching(|e| matches!(e, Event::SessionEnded { .. })),
            1
        );
        assert_eq!(
            log.count_matching(|e| matches!(e, Event::AttackApplied { .. })),
            0
        );
    }

    #[test]
    fn tamper_variable_changes_state() {
        let spec = HostSpec::new("evil")
            .with_input("price", Value::Int(120))
            .malicious(Attack::TamperVariable {
                name: "quote".into(),
                value: Value::Int(999),
            });
        let mut host = make_host(spec);
        let log = EventLog::new();
        let record = host
            .execute_session(&shopping_agent(), &ExecConfig::default(), &log)
            .unwrap();
        assert_eq!(record.outcome.state.get_int("quote"), Some(999));
        // But the input log still shows the honest input: re-execution will
        // expose the lie.
        assert_eq!(record.outcome.input_log.records()[0].value, Value::Int(120));
        assert_eq!(
            log.count_matching(|e| matches!(e, Event::AttackApplied { .. })),
            1
        );
    }

    #[test]
    fn skip_execution_returns_initial_state() {
        let spec = HostSpec::new("lazy")
            .with_input("price", Value::Int(120))
            .malicious(Attack::SkipExecution);
        let mut host = make_host(spec);
        let log = EventLog::new();
        let agent = shopping_agent();
        let record = host
            .execute_session(&agent, &ExecConfig::default(), &log)
            .unwrap();
        assert_eq!(record.outcome.state, agent.state);
        assert!(record.outcome.input_log.is_empty());
        assert_eq!(record.outcome.steps, 0);
    }

    #[test]
    fn forge_input_is_consistent_with_forged_log() {
        let spec = HostSpec::new("liar")
            .with_input("price", Value::Int(120))
            .malicious(Attack::ForgeInput {
                tag: "price".into(),
                value: Value::Int(10),
            });
        let mut host = make_host(spec);
        let log = EventLog::new();
        let record = host
            .execute_session(&shopping_agent(), &ExecConfig::default(), &log)
            .unwrap();
        // The forged input propagates into both the state and the log —
        // exactly why the paper says re-execution cannot catch it.
        assert_eq!(record.outcome.state.get_int("quote"), Some(10));
        assert_eq!(record.outcome.input_log.records()[0].value, Value::Int(10));
    }

    #[test]
    fn redirect_migration_changes_destination() {
        let spec = HostSpec::new("redirector")
            .with_input("price", Value::Int(120))
            .malicious(Attack::RedirectMigration {
                to: HostId::new("mallory"),
            });
        let mut host = make_host(spec);
        let log = EventLog::new();
        let record = host
            .execute_session(&shopping_agent(), &ExecConfig::default(), &log)
            .unwrap();
        assert_eq!(
            record.outcome.end,
            refstate_vm::SessionEnd::Migrate("mallory".into())
        );
    }

    #[test]
    fn read_state_leaves_no_trace() {
        let honest = HostSpec::new("h").with_input("price", Value::Int(120));
        let reader = HostSpec::new("r")
            .with_input("price", Value::Int(120))
            .malicious(Attack::ReadState);
        let log = EventLog::new();
        let a = make_host(honest)
            .execute_session(&shopping_agent(), &ExecConfig::default(), &log)
            .unwrap();
        let b = make_host(reader)
            .execute_session(&shopping_agent(), &ExecConfig::default(), &log)
            .unwrap();
        assert_eq!(a.outcome.state, b.outcome.state);
        assert_eq!(a.outcome.input_log, b.outcome.input_log);
    }

    #[test]
    fn feed_persists_across_sessions() {
        let spec = HostSpec::new("shop")
            .with_input("price", Value::Int(1))
            .with_input("price", Value::Int(2));
        let mut host = make_host(spec);
        let log = EventLog::new();
        let agent = shopping_agent();
        let r1 = host
            .execute_session(&agent, &ExecConfig::default(), &log)
            .unwrap();
        let r2 = host
            .execute_session(&agent, &ExecConfig::default(), &log)
            .unwrap();
        assert_eq!(r1.outcome.state.get_int("quote"), Some(1));
        assert_eq!(r2.outcome.state.get_int("quote"), Some(2));
    }

    #[test]
    fn input_exhaustion_is_an_error() {
        let spec = HostSpec::new("empty");
        let mut host = make_host(spec);
        let log = EventLog::new();
        let err = host
            .execute_session(&shopping_agent(), &ExecConfig::default(), &log)
            .unwrap_err();
        assert!(matches!(err, VmError::InputUnavailable { .. }));
    }

    #[test]
    fn host_signing_round_trips() {
        let mut host = make_host(HostSpec::new("signer"));
        let mut dir = refstate_crypto::KeyDirectory::new();
        dir.register("signer", host.public_key().clone());
        let env = host.sign(42u64);
        assert!(env.verify(&dir).is_ok());
    }

    #[test]
    fn syscalls_are_deterministic_per_host_stream() {
        let program = assemble("syscall random\nstore \"r\"\nhalt").unwrap();
        let agent = AgentImage::new("a", program, DataState::new());
        let log = EventLog::new();
        let mut h1 = make_host(HostSpec::new("h1"));
        let mut h2 = make_host(HostSpec::new("h2"));
        let r1 = h1
            .execute_session(&agent, &ExecConfig::default(), &log)
            .unwrap();
        let r2 = h2
            .execute_session(&agent, &ExecConfig::default(), &log)
            .unwrap();
        // Fresh hosts with fresh clocks produce the same first value.
        assert_eq!(r1.outcome.state.get("r"), r2.outcome.state.get("r"));
    }
}
