//! The one scenario → journey path every driver shares.
//!
//! The fleet engine and the resident service (`refstate-serve`) both turn
//! a [`GeneratedScenario`] into one protected journey under one
//! mechanism. This module is that path, so the two cannot drift: the
//! topology compatibility test, host instantiation (each driver passes
//! its own key chooser), the churn event, the per-journey seeds, and the
//! telemetry scope and `journey` span all live here. It stops at the
//! [`SplitVerdict`]: both drivers finish through
//! [`refstate_mechanisms::api::settle`] — the fleet engine one journey at
//! a time, the service an owner's whole tick in one batch.

use std::sync::Arc;
use std::time::Instant;

use refstate_core::VerificationPipeline;
use refstate_crypto::{DsaKeyPair, KeyDirectory};
use refstate_mechanisms::api::{JourneyCtx, MechanismConfig, ProtectionMechanism, SplitVerdict};
use refstate_platform::{Event, EventLog, Host, HostSpec};
use refstate_telemetry as telemetry;

use crate::scenario::{scenario_seed, GeneratedScenario};

/// What a driver holds fixed across the journeys it runs.
pub struct JourneyEnv<'a> {
    /// The seed the scenarios were generated under (the fleet seed, or a
    /// service owner's seed); host and context RNG streams derive from it.
    pub seed: u64,
    /// The PKI covering every host a scenario instantiates.
    pub directory: &'a KeyDirectory,
    /// Shared mechanism configuration.
    pub config: &'a MechanismConfig,
    /// The verification pipeline every re-execution funnels through.
    pub pipeline: &'a Arc<VerificationPipeline>,
    /// The event log journeys record into.
    pub log: &'a EventLog,
}

/// Whether `mechanism`'s topology can run `scenario`: replicated-stage
/// mechanisms need stages, disjoint-set mechanisms need off-route hosts
/// (replicas or witness spares).
fn compatible(mechanism: &dyn ProtectionMechanism, scenario: &GeneratedScenario) -> bool {
    let has_spares = scenario
        .specs
        .iter()
        .any(|spec| !scenario.route.contains(&spec.id));
    mechanism
        .profile()
        .compatible_with(scenario.stages.is_some(), has_spares)
}

/// The PKI for `scenario`'s hosts when the host at spec position `pos`
/// signs with `key(pos, spec)` — the directory [`run_journey`]'s hosts
/// verify against.
pub(crate) fn scenario_directory<'k>(
    scenario: &GeneratedScenario,
    key: impl Fn(usize, &HostSpec) -> &'k Arc<DsaKeyPair>,
) -> KeyDirectory {
    let mut directory = KeyDirectory::new();
    for (pos, spec) in scenario.specs.iter().enumerate() {
        directory.register(spec.id.as_str(), key(pos, spec).public().clone());
    }
    directory
}

/// `scenario`'s hosts, each sharing its pooled pair `key(pos, spec)`, with
/// session RNGs seeded from `seed` and the scenario id.
fn scenario_hosts<'k>(
    seed: u64,
    scenario: &GeneratedScenario,
    key: impl Fn(usize, &HostSpec) -> &'k Arc<DsaKeyPair>,
) -> Vec<Host> {
    scenario
        .specs
        .iter()
        .enumerate()
        .map(|(pos, spec)| {
            // pos+1 keeps h0's stream distinct from the generator's own
            // seed for this scenario (pos 0 would XOR with zero).
            let session_seed = scenario_seed(seed, scenario.id ^ ((pos as u64 + 1) << 48));
            Host::with_keys(spec.clone(), Arc::clone(key(pos, spec)), session_seed)
        })
        .collect()
}

/// Runs the host-side journey of `scenario` under `mechanism`: fresh
/// hosts, each sharing its pooled pair `key(pos, spec)`, the churn event
/// when a route host left the network, and
/// [`ProtectionMechanism::run_split`] under the mechanism's telemetry
/// scope and a `journey` span.
///
/// Returns `None` when the mechanism's topology cannot run the scenario
/// (replicated-stage mechanisms need stages, disjoint-set mechanisms need
/// off-route hosts). Otherwise returns the split verdict and the
/// instant the journey began — after host instantiation, so a caller
/// timing the journey (and its settle) times the mechanism alone.
pub fn run_journey<'k>(
    env: &JourneyEnv<'_>,
    scenario: &GeneratedScenario,
    mechanism: &dyn ProtectionMechanism,
    key: impl Fn(usize, &HostSpec) -> &'k Arc<DsaKeyPair>,
) -> Option<(SplitVerdict, Instant)> {
    if !compatible(mechanism, scenario) {
        return None;
    }
    let id = scenario.id;
    let mut hosts = scenario_hosts(env.seed, scenario, key);
    let _scope = telemetry::scoped(mechanism.name());
    if let Some(gone) = &scenario.churned {
        env.log.record(Event::HostChurned { host: gone.clone() });
    }
    let started = Instant::now();
    // The ctx's own RNG stream: scenario-derived, scheduling-free.
    let ctx_seed = scenario_seed(env.seed, id ^ (1u64 << 63));
    let mut ctx = JourneyCtx::new(
        &mut hosts,
        scenario.route.clone(),
        scenario.agent.clone(),
        env.directory,
        env.config,
        env.log,
        ctx_seed,
    )
    .with_pipeline(env.pipeline.clone());
    if let Some(stages) = &scenario.stages {
        ctx = ctx.with_stages(stages.clone());
    }
    let _span = telemetry::span("journey", "mechanism");
    Some((mechanism.run_split(&mut ctx), started))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use refstate_core::framework::{run_framework_journey, ProtectedAgent, ProtectionConfig};
    use refstate_core::protocol::{run_protected_journey_deferred, ProtocolConfig};
    use refstate_core::ReExecutionChecker;
    use refstate_crypto::{sha256, DsaParams, Signature, VerificationQueue};
    use refstate_mechanisms::api::{settle, MechanismRegistry};
    use refstate_mechanisms::chained::run_encapsulated_journey;
    use refstate_mechanisms::run_traced_journey;
    use refstate_wire::to_wire;

    use crate::scenario::{generate, Preset};

    /// One digest per built-in mechanism over the event timeline and
    /// verdict of the first 24 seed-42 scenarios of every preset: a
    /// change to any journey driver that moves an event, a byte count or
    /// a verdict moves its mechanism's row.
    #[test]
    fn event_timelines_are_pinned() {
        let params = DsaParams::test_group_256();
        let mut rng = StdRng::seed_from_u64(42);
        let keys: Vec<Arc<DsaKeyPair>> = (0..8)
            .map(|_| Arc::new(DsaKeyPair::generate(&params, &mut rng)))
            .collect();
        let key = |pos: usize, _: &HostSpec| &keys[pos % keys.len()];
        let config = MechanismConfig::default();
        let pipeline = Arc::new(VerificationPipeline::new());
        let digests: Vec<String> = MechanismRegistry::builtin()
            .iter()
            .map(|mechanism| {
                let mut text = String::new();
                for preset in Preset::ALL {
                    for id in 0..24 {
                        let scenario = generate(42, id, preset);
                        let directory = scenario_directory(&scenario, key);
                        let log = EventLog::new();
                        let env = JourneyEnv {
                            seed: 42,
                            directory: &directory,
                            config: &config,
                            pipeline: &pipeline,
                            log: &log,
                        };
                        let Some((split, _)) =
                            run_journey(&env, &scenario, mechanism.as_ref(), key)
                        else {
                            continue;
                        };
                        let (verdicts, _) =
                            settle(vec![split], &config, &pipeline, &log, &directory);
                        text.push_str(&log.render());
                        text.push_str(&format!("{:?}\n", verdicts[0]));
                    }
                }
                format!("{} {}", mechanism.name(), sha256(text.as_bytes()).short())
            })
            .collect();
        assert_eq!(
            digests,
            [
                "unprotected f4338975",
                "appraisal 9519f63d",
                "framework ebbfc3cd",
                "protocol 5009b9ef",
                "traces 5ccee155",
                "replication 8286e4f5",
                "chained 9eaaf28b",
                "encapsulated a6e6e15b",
                "cooperating 8dfff1e4",
            ]
        );
    }

    /// One digest per signing driver over the `(r, s)` of every signature
    /// its outcome carries, on the first 24 seed-42 scenarios of every
    /// preset: the protocol's commitments, deferred certificates and final
    /// certificate, the framework's signed route, the traces commitments
    /// and the encapsulation chain. A change to the signing path that
    /// moves one signature byte moves its driver's row.
    #[test]
    fn signature_bytes_are_pinned() {
        type Driver = fn(&mut [Host], &GeneratedScenario, &KeyDirectory) -> Vec<Signature>;
        let drivers: [(&str, Driver); 4] = [
            ("protocol", |hosts, scenario, directory| {
                let protocol = ProtocolConfig::default();
                let mut queue = VerificationQueue::new();
                let Ok(journey) = run_protected_journey_deferred(
                    hosts,
                    scenario.start.clone(),
                    scenario.agent.clone(),
                    &protocol,
                    &EventLog::new(),
                    directory,
                    &mut queue,
                ) else {
                    return Vec::new();
                };
                let commitments = journey.outcome.commitments.iter();
                let certificate = journey.pending.iter().map(|p| &p.signed_cert);
                let mut signatures: Vec<Signature> = commitments
                    .map(|c| c.signature().clone())
                    .chain(certificate.map(|c| c.signature().clone()))
                    .collect();
                signatures.extend(queue.flush(directory).into_iter().map(|(d, _)| d.signature));
                signatures
            }),
            ("framework", |hosts, scenario, _| {
                let checker = ReExecutionChecker::new();
                let protection = ProtectionConfig::new(Arc::new(checker));
                let agent = ProtectedAgent::new(scenario.agent.clone(), protection);
                run_framework_journey(hosts, scenario.start.clone(), agent, &EventLog::new())
                    .map(|outcome| {
                        let entries = outcome.route.entries().iter();
                        entries.map(|e| e.signature().clone()).collect()
                    })
                    .unwrap_or_default()
            }),
            ("traces", |hosts, scenario, _| {
                let config = MechanismConfig::default();
                run_traced_journey(
                    hosts,
                    scenario.start.clone(),
                    scenario.agent.clone(),
                    &config.exec,
                    &EventLog::new(),
                    config.max_hops,
                )
                .map(|journey| {
                    let commitments = journey.commitments.iter();
                    commitments.map(|c| c.signature().clone()).collect()
                })
                .unwrap_or_default()
            }),
            ("encapsulated", |hosts, scenario, _| {
                let config = MechanismConfig::default();
                let nonce = [scenario.id as u8; 32];
                run_encapsulated_journey(
                    hosts,
                    scenario.start.clone(),
                    scenario.agent.clone(),
                    &nonce,
                    &config.exec,
                    &EventLog::new(),
                    config.max_hops,
                )
                .map(|journey| {
                    journey
                        .chain
                        .iter()
                        .map(|c| c.signature().clone())
                        .collect()
                })
                .unwrap_or_default()
            }),
        ];
        let params = DsaParams::test_group_256();
        let mut rng = StdRng::seed_from_u64(42);
        let keys: Vec<Arc<DsaKeyPair>> = (0..8)
            .map(|_| Arc::new(DsaKeyPair::generate(&params, &mut rng)))
            .collect();
        let key = |pos: usize, _: &HostSpec| &keys[pos % keys.len()];
        let digests: Vec<String> = drivers
            .iter()
            .map(|(name, driver)| {
                let mut bytes = Vec::new();
                let mut count = 0;
                for preset in Preset::ALL {
                    for id in 0..24 {
                        let scenario = generate(42, id, preset);
                        let directory = scenario_directory(&scenario, key);
                        let mut hosts = scenario_hosts(42, &scenario, key);
                        for signature in driver(&mut hosts, &scenario, &directory) {
                            bytes.extend(to_wire(&signature));
                            count += 1;
                        }
                    }
                }
                format!("{name} {count} {}", sha256(&bytes).short())
            })
            .collect();
        assert_eq!(
            digests,
            [
                "protocol 3269 6e1bae15",
                "framework 1708 bb047a92",
                "traces 1913 eefb0819",
                "encapsulated 1787 e86ddc35",
            ]
        );
    }
}
