//! The detection-under-adaptation battery: adaptive campaigns (the
//! `adaptive` preset) driven end to end, graded on the three properties
//! the campaign engine must uphold:
//!
//! * **no early detection** — a probe-then-cheat attacker is never
//!   flagged before its first real attack: the probe phase is provably
//!   outside every mechanism's bandwidth,
//! * **scheduling-free detection steps** — a campaign is detected at the
//!   same step whether the fleet ran on 1, 2, or 8 workers (the
//!   byte-determinism contract extended to the adaptation grades),
//! * **precision under churn** — every accusation names an actual
//!   attacker: host churn, stale-state replay, and infrastructure
//!   failures never produce a false accusation.
//!
//! Case counts scale with `PROPTEST_CASES` (CI runs a boosted job).

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_core::protocol::host_directory;
use refstate_crypto::DsaParams;
use refstate_fleet::{
    generate, run_fleet, FleetConfig, GeneratedScenario, JourneyVerdict, MechanismConfig,
    MechanismRegistry, Preset, JOURNEYS_PER_CAMPAIGN,
};
use refstate_mechanisms::api::{JourneyCtx, ProtectionMechanism};
use refstate_platform::{EventLog, Host};

/// The checking mechanisms the battery drives per campaign step (the
/// ones that detect and attribute — `unprotected` and the chain-only
/// family grade differently and are covered by the fleet-level tests).
const CHECKERS: [&str; 4] = ["framework", "protocol", "traces", "cooperating"];

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

/// Scans forward from `start` to the first campaign following `policy`
/// (each policy is drawn with probability 1/3, so the scan terminates
/// in a handful of steps).
fn find_campaign(seed: u64, start: u64, policy: &str) -> u64 {
    (start..start + 64)
        .find(|&campaign| {
            let scenario = generate(seed, campaign * JOURNEYS_PER_CAMPAIGN, Preset::Adaptive);
            scenario.campaign.expect("adaptive meta").policy == policy
        })
        .expect("every policy is drawn within 64 campaigns")
}

/// All journeys of one campaign, in step order.
fn campaign_steps(seed: u64, campaign: u64) -> Vec<GeneratedScenario> {
    (0..JOURNEYS_PER_CAMPAIGN)
        .map(|step| {
            generate(
                seed,
                campaign * JOURNEYS_PER_CAMPAIGN + step,
                Preset::Adaptive,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A probe-then-cheat attacker is never detected before its first
    /// real attack: every probe-phase journey runs clean under every
    /// checking mechanism.
    #[test]
    fn probes_are_never_detected_before_the_first_attack(
        seed in any::<u64>(), start in 0u64..4096,
    ) {
        let registry = MechanismRegistry::builtin();
        let campaign = find_campaign(seed, start, "probe-then-cheat");
        let steps = campaign_steps(seed, campaign);
        let first_attack = steps[0]
            .campaign
            .as_ref()
            .and_then(|meta| meta.first_attack_step)
            .expect("probe campaigns cheat eventually");
        for scenario in &steps[..first_attack as usize] {
            let meta = scenario.campaign.as_ref().expect("adaptive meta");
            prop_assert!(!meta.real_attack, "the probe phase mounts no real attack");
            for name in CHECKERS {
                let mechanism = registry.get(name).expect("built in");
                let verdict = run_mechanism(scenario, mechanism.as_ref(), seed ^ scenario.id);
                prop_assert!(
                    !verdict.detected,
                    "{} flagged a probe at step {} (first attack at {})",
                    name, meta.step, first_attack
                );
                prop_assert!(verdict.accused.is_empty());
            }
        }
    }

    /// Precision under environmental stress: churned journeys die as
    /// infrastructure failures (no accusation), and every accusation any
    /// checker produces across the campaign names the actual attacker.
    #[test]
    fn stress_campaigns_never_produce_false_accusations(
        seed in any::<u64>(), start in 0u64..4096,
    ) {
        let registry = MechanismRegistry::builtin();
        let campaign = find_campaign(seed, start, "environmental-stress");
        for scenario in campaign_steps(seed, campaign) {
            for name in CHECKERS {
                let mechanism = registry.get(name).expect("built in");
                let verdict = run_mechanism(&scenario, mechanism.as_ref(), seed ^ scenario.id);
                if scenario.churned.is_some() {
                    prop_assert!(
                        !verdict.detected && verdict.accused.is_empty(),
                        "{} accused {:?} on a churned journey",
                        name, verdict.accused
                    );
                    prop_assert!(verdict.infra_error, "churn is an infrastructure failure");
                    continue;
                }
                let attacker = scenario.attacker.as_ref().map(|(host, _)| host);
                for accused in &verdict.accused {
                    prop_assert_eq!(
                        Some(accused), attacker,
                        "{} accused {} who attacked nobody", name, accused
                    );
                }
            }
        }
    }

    /// The coordinate policy's two collusion flavours split exactly along
    /// the mechanisms' pinned blind spots: route collusion evades the
    /// session protocol but not the witness set; cross-set collusion
    /// evades the witness set but not the session protocol. Either way
    /// the re-execution framework catches the tampering.
    #[test]
    fn coordinate_collusion_splits_along_the_blind_spots(
        seed in any::<u64>(), start in 0u64..4096,
    ) {
        let registry = MechanismRegistry::builtin();
        let campaign = find_campaign(seed, start, "coordinate");
        let steps = campaign_steps(seed, campaign);
        // Grade the first attacking step (the accomplice is fixed for
        // the whole campaign, so one step carries the contrast).
        let scenario = steps
            .iter()
            .find(|s| s.campaign.as_ref().is_some_and(|m| m.real_attack))
            .expect("coordinate campaigns attack");
        let cross_set = match &scenario.attacker {
            Some((_, refstate_platform::Attack::CollaborateTamper { accomplice, .. })) => {
                accomplice.as_str().starts_with('v')
            }
            other => return Err(TestCaseError::Fail(format!("unexpected attacker {other:?}"))),
        };
        let verdict = |name: &str| {
            let mechanism = registry.get(name).expect("built in");
            run_mechanism(scenario, mechanism.as_ref(), seed ^ scenario.id)
        };
        prop_assert!(verdict("framework").detected, "re-execution always catches tampering");
        let protocol = verdict("protocol");
        let cooperating = verdict("cooperating");
        if cross_set {
            prop_assert!(protocol.detected, "a witness accomplice is not the route successor");
            prop_assert!(!cooperating.detected, "the recruited witness vouches (pinned blind spot)");
        } else {
            prop_assert!(!protocol.detected, "the successor skips its check (§5.1)");
            prop_assert!(cooperating.detected, "route collusion cannot reach the witness set");
        }
    }
}

/// The determinism contract extended to campaigns: the fleet report —
/// including every adaptation grade — and the per-scenario detection
/// pattern are identical across worker counts {1, 2, 8}, so a campaign
/// is detected at the same step no matter how the fleet was scheduled.
#[test]
fn campaigns_detect_at_the_same_step_across_worker_counts() {
    let run_with = |workers: usize| {
        run_fleet(&FleetConfig {
            scenarios: 64,
            workers,
            seed: 42,
            preset: Preset::Adaptive,
            key_pool: 8,
            ..FleetConfig::default()
        })
    };
    let serial = run_with(1);
    let two = run_with(2);
    let eight = run_with(8);
    assert_eq!(serial.report.to_json(), two.report.to_json());
    assert_eq!(serial.report.to_json(), eight.report.to_json());
    let detection_pattern = |run: &refstate_fleet::FleetRun| -> Vec<(u64, Vec<(&str, bool)>)> {
        run.results
            .iter()
            .map(|r| {
                (
                    r.id,
                    r.runs.iter().map(|m| (m.mechanism, m.detected)).collect(),
                )
            })
            .collect()
    };
    assert_eq!(detection_pattern(&serial), detection_pattern(&two));
    assert_eq!(detection_pattern(&serial), detection_pattern(&eight));
    // The grades are present and meaningful: campaigns were attacked and
    // detection latency is a measured number, not an n/a.
    let adaptation = serial.report.adaptation.as_ref().expect("adaptive fleet");
    assert_eq!(adaptation.journeys_per_campaign, JOURNEYS_PER_CAMPAIGN);
    assert_eq!(adaptation.campaigns, 8);
    let framework = adaptation
        .mechanisms
        .iter()
        .find(|m| m.name == "framework")
        .expect("framework graded");
    assert!(framework.total.attacked > 0);
    assert!(framework.total.detected > 0);
}
