//! Adaptive adversary campaigns: stateful attackers that persist across
//! journeys.
//!
//! The per-scenario generator in [`crate::scenario`] draws every attack
//! independently — an attacker has no memory, so a mechanism's detection
//! rate says nothing about how fast it pins down an adversary that
//! *adapts*. A campaign groups [`JOURNEYS_PER_CAMPAIGN`] consecutive
//! scenario ids into one continuing engagement against a fixed topology
//! and a single stateful attacker following one of three policies:
//!
//! * **probe-then-cheat** — the attacker mounts only read probes (real
//!   attacks, but provably outside the reference-state bandwidth) until
//!   `k` journeys have passed unobserved, then switches to a mixed
//!   attack draw. Detection latency measures how quickly each mechanism
//!   reacts once the cheating starts.
//! * **coordinate** — two colluding hosts share state across journeys:
//!   after lying low, the attacker tampers every journey with a fixed
//!   accomplice — either its route successor (the §5.1 move that defeats
//!   the session protocol) or the witness assigned to its hop (the
//!   cross-set move that defeats cooperating agents).
//! * **environmental-stress** — the campaign degrades the environment
//!   instead of the computation: journeys where a route host has churned
//!   away mid-journey (an infrastructure failure, *not* an attack — no
//!   accusation may come out of it), interleaved with replays of stale
//!   agent state remembered from the previous journey.
//!
//! # Determinism
//!
//! The attacker's "memory" is never fed back from verdicts: a campaign
//! plan is a pure function of `(fleet seed, campaign index)`, generated
//! by folding one RNG stream through all of the campaign's steps. Any
//! worker can therefore regenerate the full plan for any step, and the
//! fleet stays byte-deterministic for a fixed seed regardless of worker
//! count — the same contract as [`crate::scenario::generate`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use refstate_platform::{Attack, HostSpec};
use refstate_vm::Value;

use crate::scenario::{
    build_route_agent, detectable_attack, provision, route_host, scenario_seed,
    undetectable_attack, witness, GeneratedScenario, Preset,
};

/// Journeys per campaign: scenario id `i` is step `i % 8` of campaign
/// `i / 8`.
pub const JOURNEYS_PER_CAMPAIGN: u64 = 8;

/// Domain-separation tag mixed into the campaign-level seed so campaign
/// plans never collide with per-scenario RNG streams.
const CAMPAIGN_TAG: u64 = 0xada2_7ca3_b5ee_d000;

/// Which campaign a scenario belongs to and what its attacker was doing
/// at this step; carried on [`GeneratedScenario`] and copied into the
/// engine's per-scenario results so the report can grade adaptation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignMeta {
    /// The campaign index (`scenario id / JOURNEYS_PER_CAMPAIGN`).
    pub campaign: u64,
    /// This scenario's step within the campaign (`id % JOURNEYS_PER_CAMPAIGN`).
    pub step: u64,
    /// The attacker policy driving the whole campaign.
    pub policy: &'static str,
    /// The first step at which the campaign mounts a real attack
    /// (probes, lie-low journeys, and churn are not attacks); `None`
    /// when the campaign never attacks.
    pub first_attack_step: Option<u64>,
    /// This step mounts a real attack (detection latency counts from the
    /// first such step).
    pub real_attack: bool,
}

/// One step of a campaign plan.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StepPlan {
    /// The attack mounted this journey (`None`: honest or churn-only).
    attack: Option<Attack>,
    /// A route position whose host has churned away before the journey
    /// (its spec is omitted — the journey dies of an unknown host).
    churned: Option<usize>,
    /// This step is a real attack (see [`CampaignMeta::real_attack`]).
    real_attack: bool,
    /// The attack-class label for aggregation.
    label: &'static str,
}

/// A fully unrolled campaign: fixed topology plus one [`StepPlan`] per
/// journey, regenerated identically by any worker.
#[derive(Debug, Clone)]
struct CampaignPlan {
    route_len: usize,
    /// Off-route witness hosts (`v0 …`) so the disjoint-set mechanism is
    /// drivable; every campaign carries 2–3.
    witnesses: usize,
    trusted: Vec<bool>,
    /// The stateful attacker's fixed route position (never the home,
    /// never the last hop — the coordinate policy needs a successor).
    attacker_pos: usize,
    policy: &'static str,
    /// Per-step, per-position input offers — they vary across steps so a
    /// replayed previous-journey state is actually stale.
    offers: Vec<Vec<i64>>,
    steps: Vec<StepPlan>,
    first_attack_step: Option<u64>,
}

impl CampaignPlan {
    /// Unrolls campaign `campaign` of the fleet. Pure in
    /// `(fleet_seed, campaign)`.
    fn generate(fleet_seed: u64, campaign: u64) -> CampaignPlan {
        let mut rng = StdRng::seed_from_u64(scenario_seed(fleet_seed, CAMPAIGN_TAG ^ campaign));
        let route_len = rng.gen_range(4usize..9);
        let witnesses = rng.gen_range(2usize..4);
        let mut trusted: Vec<bool> = (0..route_len)
            .map(|pos| pos == 0 || rng.gen_bool(0.3))
            .collect();
        trusted[0] = true;
        // The attacker keeps a successor on the route (coordinate needs
        // one) and is never trusted.
        let candidates: Vec<usize> = (1..route_len - 1).filter(|&p| !trusted[p]).collect();
        let attacker_pos = if candidates.is_empty() {
            trusted[1] = false;
            1
        } else {
            candidates[rng.gen_range(0..candidates.len())]
        };

        let policy_pick = rng.gen_range(0u8..3);
        let offers: Vec<Vec<i64>> = (0..JOURNEYS_PER_CAMPAIGN)
            .map(|_| (0..route_len).map(|_| rng.gen_range(1i64..1000)).collect())
            .collect();

        let steps = match policy_pick {
            0 => {
                // Probe until k journeys pass unobserved, then cheat.
                let k = rng.gen_range(2u64..5);
                (0..JOURNEYS_PER_CAMPAIGN)
                    .map(|step| {
                        if step < k {
                            StepPlan {
                                attack: Some(Attack::ReadState),
                                churned: None,
                                real_attack: false,
                                label: "read-state",
                            }
                        } else {
                            let attack = if rng.gen_range(0u8..10) < 7 {
                                detectable_attack(&mut rng)
                            } else {
                                undetectable_attack(&mut rng)
                            };
                            StepPlan {
                                label: attack.label(),
                                attack: Some(attack),
                                churned: None,
                                real_attack: true,
                            }
                        }
                    })
                    .collect()
            }
            1 => {
                // Lie low, then tamper every journey with one fixed
                // accomplice shared across the whole campaign.
                let lie_low = rng.gen_range(1u64..4);
                let accomplice = if rng.gen_bool(0.5) {
                    // Route collusion: the successor skips its check.
                    route_host(attacker_pos + 1)
                } else {
                    // Cross-set collusion: recruit the witness assigned
                    // to the attacker's hop.
                    witness(attacker_pos % witnesses)
                };
                (0..JOURNEYS_PER_CAMPAIGN)
                    .map(|step| {
                        if step < lie_low {
                            StepPlan {
                                attack: None,
                                churned: None,
                                real_attack: false,
                                label: "honest",
                            }
                        } else {
                            StepPlan {
                                attack: Some(Attack::CollaborateTamper {
                                    name: "total".into(),
                                    value: Value::Int(-(rng.gen_range(1i64..1_000_000))),
                                    accomplice: accomplice.clone(),
                                }),
                                churned: None,
                                real_attack: true,
                                label: "collaborate-tamper",
                            }
                        }
                    })
                    .collect()
            }
            _ => {
                // Degrade the environment: churn and stale-state replay.
                let warmup = rng.gen_range(1u64..3);
                let mut steps = Vec::with_capacity(JOURNEYS_PER_CAMPAIGN as usize);
                for step in 0..JOURNEYS_PER_CAMPAIGN {
                    if step < warmup {
                        steps.push(StepPlan {
                            attack: None,
                            churned: None,
                            real_attack: false,
                            label: "honest",
                        });
                    } else if rng.gen_bool(0.5) {
                        // A route host leaves the network mid-journey:
                        // an infrastructure failure, not an attack.
                        steps.push(StepPlan {
                            attack: None,
                            churned: Some(rng.gen_range(1usize..route_len)),
                            real_attack: false,
                            label: "churn",
                        });
                    } else {
                        // Replay the previous journey's final total as
                        // this journey's resulting state. Nudge on the
                        // (rare) collision with the honest partial sum
                        // at the attacker — stale means *different*.
                        let step_idx = step as usize;
                        let mut stale: i64 = offers[step_idx - 1].iter().sum();
                        let partial: i64 = offers[step_idx][..=attacker_pos].iter().sum();
                        if stale == partial {
                            stale += 1;
                        }
                        steps.push(StepPlan {
                            attack: Some(Attack::ReplayStaleState {
                                name: "total".into(),
                                value: Value::Int(stale),
                            }),
                            churned: None,
                            real_attack: true,
                            label: "replay-stale-state",
                        });
                    }
                }
                steps
            }
        };
        let policy = match policy_pick {
            0 => "probe-then-cheat",
            1 => "coordinate",
            _ => "environmental-stress",
        };
        let first_attack_step = steps
            .iter()
            .position(|s: &StepPlan| s.real_attack)
            .map(|p| p as u64);

        CampaignPlan {
            route_len,
            witnesses,
            trusted,
            attacker_pos,
            policy,
            offers,
            steps,
            first_attack_step,
        }
    }
}

/// Generates scenario `id` of an adaptive fleet: step `id % 8` of
/// campaign `id / 8`, instantiated from the campaign's unrolled plan.
pub fn generate_adaptive(fleet_seed: u64, id: u64) -> GeneratedScenario {
    let campaign = id / JOURNEYS_PER_CAMPAIGN;
    let step = (id % JOURNEYS_PER_CAMPAIGN) as usize;
    let plan = CampaignPlan::generate(fleet_seed, campaign);
    let step_plan = &plan.steps[step];

    let mut specs = Vec::with_capacity(plan.route_len + plan.witnesses);
    for pos in 0..plan.route_len {
        if step_plan.churned == Some(pos) {
            continue; // the host left the network — no spec, no keys
        }
        let mut spec = HostSpec::new(route_host(pos));
        if plan.trusted[pos] {
            spec = spec.trusted();
        }
        let offer = plan.offers[step][pos];
        spec = provision(spec, offer);
        if pos == plan.attacker_pos {
            if let Some(attack) = &step_plan.attack {
                spec = spec.malicious(attack.clone());
            }
        }
        specs.push(spec);
    }
    for w in 0..plan.witnesses {
        specs.push(HostSpec::new(witness(w)));
    }

    let attacker = step_plan
        .attack
        .clone()
        .map(|attack| (route_host(plan.attacker_pos), attack));

    GeneratedScenario {
        id,
        kind: Preset::Adaptive,
        start: route_host(0),
        route: (0..plan.route_len).map(route_host).collect(),
        stages: None,
        agent: build_route_agent(id, plan.route_len),
        specs,
        attacker,
        attack_label: step_plan.label,
        churned: step_plan.churned.map(route_host),
        campaign: Some(CampaignMeta {
            campaign,
            step: step as u64,
            policy: plan.policy,
            first_attack_step: plan.first_attack_step,
            real_attack: step_plan.real_attack,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plans(seed: u64, n: u64) -> Vec<CampaignPlan> {
        (0..n).map(|c| CampaignPlan::generate(seed, c)).collect()
    }

    #[test]
    fn plans_are_deterministic() {
        for campaign in 0..20 {
            let a = CampaignPlan::generate(42, campaign);
            let b = CampaignPlan::generate(42, campaign);
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.trusted, b.trusted);
            assert_eq!(a.offers, b.offers);
            assert_eq!(a.attacker_pos, b.attacker_pos);
        }
    }

    #[test]
    fn scenario_generation_matches_its_plan() {
        for id in 0..64 {
            let s = generate_adaptive(42, id);
            let meta = s.campaign.as_ref().expect("campaign meta present");
            assert_eq!(meta.campaign, id / JOURNEYS_PER_CAMPAIGN);
            assert_eq!(meta.step, id % JOURNEYS_PER_CAMPAIGN);
            assert_eq!(s.kind, Preset::Adaptive);
            // Off-route witness hosts are always present (spares).
            let spares = s
                .specs
                .iter()
                .filter(|spec| !s.route.contains(&spec.id))
                .count();
            assert!((2..=3).contains(&spares), "got {spares} witnesses");
        }
    }

    #[test]
    fn probe_then_cheat_probes_before_the_first_attack() {
        let mut seen = 0;
        let mut detectable = 0;
        for plan in plans(42, 40) {
            if plan.policy != "probe-then-cheat" {
                continue;
            }
            seen += 1;
            let first = plan.first_attack_step.expect("probe campaigns cheat") as usize;
            assert!((2..5).contains(&first), "k in 2..5, got {first}");
            for step in &plan.steps[..first] {
                assert_eq!(step.attack, Some(Attack::ReadState));
                assert!(!step.real_attack, "probes are not attacks");
            }
            for step in &plan.steps[first..] {
                assert!(step.real_attack);
                let attack = step.attack.as_ref().expect("cheat steps attack");
                detectable += attack.detectable_by_reference_state() as usize;
            }
        }
        assert!(seen > 5, "probe-then-cheat is drawn");
        assert!(
            detectable > seen,
            "the cheat phase mounts catchable attacks"
        );
    }

    #[test]
    fn coordinate_keeps_one_accomplice_for_the_whole_campaign() {
        let mut route_collusion = 0;
        let mut cross_set = 0;
        for plan in plans(42, 60) {
            if plan.policy != "coordinate" {
                continue;
            }
            let accomplices: std::collections::BTreeSet<String> = plan
                .steps
                .iter()
                .filter_map(|s| match &s.attack {
                    Some(Attack::CollaborateTamper { accomplice, .. }) => {
                        Some(accomplice.to_string())
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(accomplices.len(), 1, "the partner persists across journeys");
            let accomplice = accomplices.into_iter().next().unwrap();
            if accomplice == format!("h{}", plan.attacker_pos + 1) {
                route_collusion += 1;
            } else {
                assert_eq!(
                    accomplice,
                    format!("v{}", plan.attacker_pos % plan.witnesses),
                    "cross-set collusion recruits the assigned witness"
                );
                cross_set += 1;
            }
        }
        assert!(route_collusion > 0 && cross_set > 0, "both flavours drawn");
    }

    #[test]
    fn stale_replay_differs_from_the_honest_partial_sum() {
        let mut replays = 0;
        for plan in plans(42, 60) {
            for (idx, step) in plan.steps.iter().enumerate() {
                let Some(Attack::ReplayStaleState { value, .. }) = &step.attack else {
                    continue;
                };
                replays += 1;
                let partial: i64 = plan.offers[idx][..=plan.attacker_pos].iter().sum();
                assert_ne!(value, &Value::Int(partial), "stale means different");
            }
        }
        assert!(replays > 10, "environmental stress replays stale state");
    }

    #[test]
    fn churned_steps_omit_the_host_but_keep_the_route() {
        let mut churned = 0;
        for id in 0..400 {
            let s = generate_adaptive(42, id);
            let Some(gone) = &s.churned else { continue };
            churned += 1;
            assert!(s.route.contains(gone), "the itinerary still names it");
            assert!(
                !s.specs.iter().any(|spec| &spec.id == gone),
                "the churned host has no spec"
            );
            assert!(s.attacker.is_none(), "churn is not an attack");
            assert_eq!(s.attack_label, "churn");
        }
        assert!(churned > 10, "churn occurs");
    }

    #[test]
    fn attacker_is_untrusted_and_keeps_a_successor() {
        for plan in plans(7, 40) {
            assert!(plan.attacker_pos >= 1);
            assert!(plan.attacker_pos < plan.route_len - 1);
            assert!(!plan.trusted[plan.attacker_pos]);
        }
    }
}
