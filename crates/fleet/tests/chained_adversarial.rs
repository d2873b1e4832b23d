//! The scenario-level adversarial battery for the chained-integrity
//! family: random generated routes × random attack placements (the
//! `chained` / `encapsulated` presets), driven end to end through the
//! mechanism API.
//!
//! Pinned in *both* directions (the acceptance criterion):
//!
//! * every truncation / substitution / reorder the generator places is
//!   detected — by `chained` without attribution, by `encapsulated`
//!   with the attacker named,
//! * every pure computation lie evades the family (and is caught by the
//!   re-execution `framework` on the same scenario), and every
//!   colluding-predecessor forgery evades it too.
//!
//! Case counts scale with `PROPTEST_CASES` (CI runs a boosted job).

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_core::protocol::host_directory;
use refstate_crypto::DsaParams;
use refstate_fleet::{generate, GeneratedScenario, JourneyVerdict, MechanismConfig, Preset};
use refstate_mechanisms::api::{JourneyCtx, ProtectionMechanism};
use refstate_mechanisms::chained::{ChainedMac, EncapsulatedResults};
use refstate_mechanisms::fleet::FrameworkReExecution;
use refstate_platform::{EventLog, Host};

/// Instantiates a generated scenario's hosts and runs one mechanism over
/// it (fresh hosts per run — feeds are consumed by execution).
fn run_mechanism(
    scenario: &GeneratedScenario,
    mechanism: &dyn ProtectionMechanism,
    seed: u64,
) -> JourneyVerdict {
    let params = DsaParams::test_group_256();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed_f00d);
    let mut hosts: Vec<Host> = Host::build_all(scenario.specs.clone(), &params, &mut rng);
    let directory = host_directory(&hosts);
    let config = MechanismConfig::default();
    let log = EventLog::new();
    let mut ctx = JourneyCtx::new(
        &mut hosts,
        scenario.route.clone(),
        scenario.agent.clone(),
        &directory,
        &config,
        &log,
        seed,
        Arc::default(),
    );
    mechanism.run(&mut ctx)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// `chained` over random `chained`-preset scenarios: chain
    /// manipulation detected (unattributed), computation lies and
    /// collusion missed — with the re-execution cross-check on the same
    /// scenario asserting the contrast is structural, not accidental.
    #[test]
    fn chained_mac_bandwidth_over_random_scenarios(seed in any::<u64>(), id in 0u64..4096) {
        let scenario = generate(seed, id, Preset::Chained);
        let verdict = run_mechanism(&scenario, &ChainedMac, seed ^ id);
        match &scenario.attacker {
            None => {
                prop_assert!(!verdict.detected, "false positive on an honest route");
                prop_assert!(verdict.completed);
            }
            Some((_, attack)) if attack.detectable_by_chained_integrity() => {
                prop_assert!(
                    verdict.detected,
                    "chained missed {:?} on route of {}",
                    attack,
                    scenario.route_len()
                );
                prop_assert!(
                    verdict.accused.is_empty(),
                    "chained MACs cannot attribute, yet accused {:?}",
                    verdict.accused
                );
                prop_assert!(verdict.completed, "owner-side detection is after-task");
            }
            Some((_, attack)) => {
                // Computation lies and colluding-predecessor forgeries:
                // the family's pinned blind spots.
                prop_assert!(
                    !verdict.detected,
                    "chained impossibly detected {:?}",
                    attack
                );
                if attack.detectable_by_reference_state() && !verdict.infra_error {
                    let reexec = run_mechanism(&scenario, &FrameworkReExecution, seed ^ id);
                    prop_assert!(
                        reexec.detected,
                        "re-execution must catch the same {:?}",
                        attack
                    );
                }
            }
        }
    }

    /// `encapsulated` over random `encapsulated`-preset scenarios: chain
    /// manipulation is detected *and* attributed to exactly the
    /// attacker, wherever the generator placed it (including the final
    /// hop, where only the owner's batched check can fire).
    #[test]
    fn encapsulated_attributes_random_chain_attacks(seed in any::<u64>(), id in 0u64..4096) {
        let scenario = generate(seed, id, Preset::Encapsulated);
        let verdict = run_mechanism(&scenario, &EncapsulatedResults, seed ^ id);
        match &scenario.attacker {
            None => {
                prop_assert!(!verdict.detected, "false positive on an honest route");
            }
            Some((attacker, attack)) if attack.detectable_by_chained_integrity() => {
                prop_assert!(
                    verdict.detected,
                    "encapsulated missed {:?} at {}",
                    attack,
                    attacker
                );
                prop_assert_eq!(
                    &verdict.accused,
                    &vec![attacker.clone()],
                    "wrong culprit for {:?}",
                    attack
                );
            }
            Some((_, attack)) => {
                prop_assert!(
                    !verdict.detected,
                    "encapsulated impossibly detected {:?}",
                    attack
                );
            }
        }
    }
}
