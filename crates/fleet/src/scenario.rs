//! The seeded scenario generator: randomized host topologies and attack
//! mixes, reproducible from `(fleet seed, scenario id)` alone.
//!
//! A scenario is one complete journey setup: a route of generated hosts
//! (trust mix, per-host input feeds, at most one attacker drawn from the
//! [`Attack`] taxonomy) plus the agent that walks the route summing one
//! input per host. Generation is a pure function of the fleet seed, the
//! scenario id, and the preset — workers can generate scenarios in any
//! order on any thread and always produce the same fleet.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use refstate_mechanisms::replication::StageSpec;
use refstate_platform::{AgentImage, Attack, HostId, HostSpec};
use refstate_vm::{assemble, DataState, Program, Value};

/// The scenario families the generator can draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Every host honest; a false-accusation canary.
    AllHonest,
    /// Exactly one untrusted host mounts a state/control-flow attack the
    /// paper classifies as detectable.
    SingleTamperer,
    /// A tamperer whose *next* host agreed to skip the check (§5.1's
    /// stated limitation of the session-checking protocol).
    ColludingPair,
    /// Input-level attacks (forge/drop) plus read attacks — the paper's
    /// stated blind spots (§4.2).
    InputForgeryHeavy,
    /// Routes of 12–24 hops with a mixed attack draw; stresses retained
    /// state and per-hop costs.
    LongRoute,
    /// Replicated-stage topologies (§3.2): every middle stage runs on
    /// three identically provisioned replicas and the attacker hides in
    /// one of them. The only family that provides [`StageSpec`]s, so
    /// `replication` can be scored; linear mechanisms walk the primary
    /// path (`h0 → h1 → …`) and see the attacker only when it sits on
    /// that path.
    Replicated,
    /// Chain-manipulation attacks (truncate-tail, swap-two-hops,
    /// replace-partial-result) plus colluding-predecessor forgeries and
    /// a slice of computation lies — the family that scores the
    /// chained-integrity mechanisms against the re-execution ones in one
    /// report: `chained`/`encapsulated` catch the chain manipulation the
    /// reference-state mechanisms are blind to, and miss the computation
    /// lies they catch.
    Chained,
    /// The chained family on long routes (6–14 hops) with a slice of
    /// input forgeries instead of computation lies: stresses per-arrival
    /// chain checks, owner-side signature batches, and late attacker
    /// placements (the final host can only be caught by the owner).
    Encapsulated,
    /// Disjoint-set topologies for the cooperating-agents mechanism:
    /// linear routes plus 2–3 off-route witness hosts (`v0 …`). The
    /// attack mix includes cross-set collusion — the attacker recruits
    /// exactly the witness assigned to its hop — so `cooperating`'s
    /// pinned blind spot shows up as a rate next to the route-collusion
    /// blind spot of the session protocol.
    Cooperating,
    /// Adaptive adversary campaigns (see [`crate::campaign`]): every
    /// [`crate::campaign::JOURNEYS_PER_CAMPAIGN`] consecutive scenarios
    /// form one engagement against a fixed topology and a stateful
    /// attacker (probe-then-cheat, coordinated collusion, or
    /// environmental stress). Carries witness hosts, so the disjoint-set
    /// mechanism runs too; graded by the report's `AdaptationReport`.
    Adaptive,
    /// Uniform draw over the seven *linear* families above — the five
    /// classics plus the two chained families, so one mixed report
    /// scores every linear mechanism on and off its home turf
    /// (replicated stages change the topology, so
    /// [`Preset::Replicated`] stays a dedicated family to keep
    /// mixed-rate comparisons like-for-like).
    Mixed,
}

impl Preset {
    /// Every preset, including [`Preset::Mixed`].
    pub const ALL: [Preset; 11] = [
        Preset::AllHonest,
        Preset::SingleTamperer,
        Preset::ColludingPair,
        Preset::InputForgeryHeavy,
        Preset::LongRoute,
        Preset::Replicated,
        Preset::Chained,
        Preset::Encapsulated,
        Preset::Cooperating,
        Preset::Adaptive,
        Preset::Mixed,
    ];

    /// Display / CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Preset::AllHonest => "all-honest",
            Preset::SingleTamperer => "single-tamperer",
            Preset::ColludingPair => "colluding-pair",
            Preset::InputForgeryHeavy => "input-forgery",
            Preset::LongRoute => "long-route",
            Preset::Replicated => "replicated",
            Preset::Chained => "chained",
            Preset::Encapsulated => "encapsulated",
            Preset::Cooperating => "cooperating",
            Preset::Adaptive => "adaptive",
            Preset::Mixed => "mixed",
        }
    }

    /// Parses a CLI name (see [`Preset::name`]).
    pub fn parse(s: &str) -> Option<Preset> {
        Preset::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One fully generated scenario, ready to instantiate hosts from.
#[derive(Debug, Clone)]
pub struct GeneratedScenario {
    /// The scenario id (position in the fleet).
    pub id: u64,
    /// The concrete family this scenario was drawn as (never
    /// [`Preset::Mixed`]).
    pub kind: Preset,
    /// Host specs (replicas included); the first spec is the trusted home.
    pub specs: Vec<HostSpec>,
    /// Where the journey starts (always the home host).
    pub start: HostId,
    /// The primary linear route (`h0 → h1 → …`); for replicated
    /// scenarios this is the path through each stage's first replica.
    pub route: Vec<HostId>,
    /// Replica stages, present only for [`Preset::Replicated`] scenarios.
    pub stages: Option<Vec<StageSpec>>,
    /// The agent walking the route.
    pub agent: AgentImage,
    /// The attacker and its attack, when the scenario has one.
    pub attacker: Option<(HostId, Attack)>,
    /// The attack-class label for aggregation (`"honest"` when none).
    pub attack_label: &'static str,
    /// A route host that churned out of the network before the journey
    /// (its spec is omitted; the itinerary still names it). Only
    /// [`Preset::Adaptive`] campaigns produce churn.
    pub churned: Option<HostId>,
    /// Campaign membership, present only for [`Preset::Adaptive`]
    /// scenarios (see [`crate::campaign`]).
    pub campaign: Option<crate::campaign::CampaignMeta>,
}

impl GeneratedScenario {
    /// Number of hops on the primary route.
    pub fn route_len(&self) -> usize {
        self.route.len()
    }
}

/// Mixes the fleet seed and scenario id into one 64-bit stream seed
/// (SplitMix64 finalizer over the pair).
pub fn scenario_seed(fleet_seed: u64, id: u64) -> u64 {
    let mut z = fleet_seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How many route hosts (`h0 …`) and witnesses (`v0 …`) the shared id
/// tables name; no preset draws a route or witness set this long.
const SHARED_IDS: usize = 32;

/// The id of route host `pos` (`h{pos}`).
///
/// Ids come from one table made on first use and shared by every
/// scenario, so naming a host in a spec, route or attack clones a
/// pointer. A position past the table is named on the spot.
pub(crate) fn route_host(pos: usize) -> HostId {
    static IDS: OnceLock<Vec<HostId>> = OnceLock::new();
    shared_id(&IDS, 'h', pos)
}

/// The id of off-route witness `w` (`v{w}`), shared like [`route_host`]'s.
pub(crate) fn witness(w: usize) -> HostId {
    static IDS: OnceLock<Vec<HostId>> = OnceLock::new();
    shared_id(&IDS, 'v', w)
}

fn shared_id(table: &OnceLock<Vec<HostId>>, prefix: char, index: usize) -> HostId {
    let ids = table.get_or_init(|| {
        (0..SHARED_IDS)
            .map(|i| HostId::new(format!("{prefix}{i}")))
            .collect()
    });
    match ids.get(index) {
        Some(id) => id.clone(),
        None => HostId::new(format!("{prefix}{index}")),
    }
}

/// Queues a route host's inputs: three copies of the summed input
/// `offer`, so control-flow attacks that revisit a host hit the hop
/// budget instead of starving the feed, plus the never-read `"unused"`
/// tag [`Attack::DropInput`] targets.
///
/// Both tags come from one table made on first use, like the host ids,
/// so provisioning a spec names no tag.
pub(crate) fn provision(spec: HostSpec, offer: i64) -> HostSpec {
    static TAGS: OnceLock<[Arc<str>; 2]> = OnceLock::new();
    let [summed, unused] = TAGS.get_or_init(|| [Arc::from("n"), Arc::from("unused")]);
    let mut spec = spec;
    for _ in 0..3 {
        spec = spec.with_input(Arc::clone(summed), Value::Int(offer));
    }
    spec.with_input(Arc::clone(unused), Value::Int(0))
}

/// Builds the route-walking agent for an `n`-host journey: on every host
/// it consumes one `"n"` input, adds it into `total`, advances `hop`, and
/// either migrates to the next host or halts after the last one.
///
/// The shape deliberately matches the paper's measurement agent (and
/// `mechanisms::matrix`): state attacks on `total` are detectable by any
/// reference-state mechanism, input attacks are not.
///
/// Every journey of one route length gets a clone of one shared
/// [`Program`], so only the first assembles it and all of them run one
/// compiled form.
pub fn build_route_agent(id: u64, n: usize) -> AgentImage {
    assert!(n >= 2, "a route needs at least two hosts");
    let mut state = DataState::new();
    state.set("total", Value::Int(0));
    state.set("hop", Value::Int(0));
    AgentImage::new(format!("fleet-{id}"), route_program(n), state)
}

/// The route program for `n` hosts, assembled from
/// [`route_program_source`] on first use and shared by every later call.
fn route_program(n: usize) -> Program {
    static PROGRAMS: Mutex<BTreeMap<usize, Program>> = Mutex::new(BTreeMap::new());
    // A panicking assembly inserts nothing, so a poisoned table is whole.
    PROGRAMS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(n)
        .or_insert_with(|| {
            assemble(&route_program_source(n)).expect("generated route program assembles")
        })
        .clone()
}

/// The assembly text of [`build_route_agent`]'s program for `n` hosts.
fn route_program_source(n: usize) -> String {
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
    asm
}

/// Draws one detectable state/control-flow attack.
pub(crate) fn detectable_attack(rng: &mut StdRng) -> Attack {
    match rng.gen_range(0u8..5) {
        0 => Attack::TamperVariable {
            name: "total".into(),
            // Honest totals are positive sums; a negative forgery is
            // always an actual change of state.
            value: Value::Int(-(rng.gen_range(1i64..1_000_000))),
        },
        1 => Attack::DeleteVariable {
            name: "total".into(),
        },
        2 => Attack::ScaleIntVariable {
            name: "total".into(),
            factor: rng.gen_range(2i64..9),
        },
        3 => Attack::SkipExecution,
        // Redirecting to the home host is never the legitimate next hop
        // for an attacker at position >= 1.
        _ => Attack::RedirectMigration { to: route_host(0) },
    }
}

/// Draws one chain-manipulation attack the chained-integrity family
/// detects (the attacker at `pos` has `pos` predecessor entries to
/// manipulate; callers guarantee `pos >= 2` so every draw has teeth).
fn chain_attack(rng: &mut StdRng, pos: usize) -> Attack {
    match rng.gen_range(0u8..3) {
        0 => Attack::TruncateChainTail {
            drop: rng.gen_range(1usize..pos.max(2)),
        },
        1 => Attack::SwapChainEntries,
        _ => Attack::ReplacePartialResult,
    }
}

/// Draws one attack outside the reference-state bandwidth (§4.2).
pub(crate) fn undetectable_attack(rng: &mut StdRng) -> Attack {
    match rng.gen_range(0u8..4) {
        0 | 1 => Attack::ForgeInput {
            tag: "n".into(),
            value: Value::Int(-(rng.gen_range(1i64..1000))),
        },
        2 => Attack::DropInput {
            // Suppressing an input the agent never reads models the
            // paper's "party that compiles the input" attack without
            // starving the session (matches `mechanisms::matrix`).
            tag: "unused".into(),
        },
        _ => Attack::ReadState,
    }
}

/// Generates scenario `id` of the fleet.
pub fn generate(fleet_seed: u64, id: u64, preset: Preset) -> GeneratedScenario {
    if preset == Preset::Adaptive {
        // Campaigns seed from the campaign index, not the scenario id —
        // every step of a campaign shares one plan.
        return crate::campaign::generate_adaptive(fleet_seed, id);
    }
    let mut rng = StdRng::seed_from_u64(scenario_seed(fleet_seed, id));

    let kind = match preset {
        Preset::Mixed => match rng.gen_range(0u8..7) {
            0 => Preset::AllHonest,
            1 => Preset::SingleTamperer,
            2 => Preset::ColludingPair,
            3 => Preset::InputForgeryHeavy,
            4 => Preset::LongRoute,
            5 => Preset::Chained,
            _ => Preset::Encapsulated,
        },
        concrete => concrete,
    };

    if kind == Preset::Replicated {
        return generate_replicated(id, &mut rng);
    }
    if kind == Preset::Chained || kind == Preset::Encapsulated {
        return generate_chained(id, &mut rng, kind);
    }
    if kind == Preset::Cooperating {
        return generate_cooperating(id, &mut rng);
    }

    let route_len = match kind {
        Preset::LongRoute => rng.gen_range(12usize..25),
        _ => rng.gen_range(3usize..9),
    };

    // Attacker position: any non-home host. Collusion needs a successor,
    // so the colluding tamperer never sits on the last host.
    let (attacker_pos, attack) = match kind {
        Preset::AllHonest => (None, None),
        Preset::SingleTamperer => {
            let pos = rng.gen_range(1usize..route_len);
            (Some(pos), Some(detectable_attack(&mut rng)))
        }
        Preset::ColludingPair => {
            let pos = rng.gen_range(1usize..route_len - 1);
            let attack = Attack::CollaborateTamper {
                name: "total".into(),
                value: Value::Int(-(rng.gen_range(1i64..1_000_000))),
                accomplice: route_host(pos + 1),
            };
            (Some(pos), Some(attack))
        }
        Preset::InputForgeryHeavy => {
            let pos = rng.gen_range(1usize..route_len);
            (Some(pos), Some(undetectable_attack(&mut rng)))
        }
        Preset::LongRoute => {
            // 30% honest, 50% detectable, 20% outside the bandwidth.
            let roll = rng.gen_range(0u8..10);
            if roll < 3 {
                (None, None)
            } else {
                let pos = rng.gen_range(1usize..route_len);
                let attack = if roll < 8 {
                    detectable_attack(&mut rng)
                } else {
                    undetectable_attack(&mut rng)
                };
                (Some(pos), Some(attack))
            }
        }
        Preset::Replicated
        | Preset::Chained
        | Preset::Encapsulated
        | Preset::Cooperating
        | Preset::Adaptive
        | Preset::Mixed => {
            unreachable!("replicated, chained, cooperating, adaptive, and mixed are handled above")
        }
    };

    let mut specs = Vec::with_capacity(route_len);
    for pos in 0..route_len {
        let mut spec = HostSpec::new(route_host(pos));
        // The home host is trusted by definition; attackers are never
        // trusted (the paper: "trusted hosts will not attack"); other
        // hosts are trusted with probability ~0.3.
        let is_attacker = attacker_pos == Some(pos);
        if pos == 0 || (!is_attacker && rng.gen_bool(0.3)) {
            spec = spec.trusted();
        }
        let offer = rng.gen_range(1i64..1000);
        spec = provision(spec, offer);
        if is_attacker {
            spec = spec.malicious(attack.clone().expect("attacker position implies attack"));
        }
        specs.push(spec);
    }

    let attacker = attacker_pos.map(|pos| {
        (
            route_host(pos),
            attack.expect("attacker position implies attack"),
        )
    });
    let attack_label = attacker
        .as_ref()
        .map(|(_, a)| a.label())
        .unwrap_or("honest");

    GeneratedScenario {
        id,
        kind,
        start: route_host(0),
        route: (0..route_len).map(route_host).collect(),
        stages: None,
        agent: build_route_agent(id, route_len),
        specs,
        attacker,
        attack_label,
        churned: None,
        campaign: None,
    }
}

/// Generates one [`Preset::Replicated`] scenario: 3–6 stages, every
/// middle stage on three identically provisioned replicas (the paper's
/// replicated-resources deployment burden), single trusted home and
/// single final stage. At most one attacker, hidden in a random replica
/// of a random middle stage — on the primary path one time in three, so
/// linear mechanisms see only a fraction of the attacks `replication`
/// catches.
fn generate_replicated(id: u64, rng: &mut StdRng) -> GeneratedScenario {
    const REPLICAS: usize = 3;
    let stage_count = rng.gen_range(3usize..7);

    // 20% honest, 60% detectable state/control-flow attack, 20% outside
    // the reference-state bandwidth (where replication's replicated
    // resources still catch input forgery).
    let roll = rng.gen_range(0u8..10);
    let (attacker_stage, attacker_replica, attack) = if roll < 2 {
        (None, 0usize, None)
    } else {
        let stage = rng.gen_range(1usize..stage_count - 1);
        let replica = rng.gen_range(0usize..REPLICAS);
        let attack = if roll < 8 {
            detectable_attack(rng)
        } else {
            undetectable_attack(rng)
        };
        (Some(stage), replica, Some(attack))
    };

    let mut specs = Vec::new();
    let mut stages = Vec::with_capacity(stage_count);
    let mut route = Vec::with_capacity(stage_count);
    let mut attacker = None;
    for stage in 0..stage_count {
        let replicated = stage != 0 && stage != stage_count - 1;
        let replicas = if replicated { REPLICAS } else { 1 };
        // Replicas of a stage offer identical resources — the honest
        // majority's votes must agree byte-for-byte.
        let offer = rng.gen_range(1i64..1000);
        let mut ids = Vec::with_capacity(replicas);
        for replica in 0..replicas {
            let host = if replica == 0 {
                route_host(stage)
            } else {
                HostId::new(format!("h{stage}r{replica}"))
            };
            let is_attacker = attacker_stage == Some(stage) && attacker_replica == replica;
            let mut spec = HostSpec::new(host.clone());
            if stage == 0 || (!is_attacker && rng.gen_bool(0.3)) {
                spec = spec.trusted();
            }
            spec = provision(spec, offer);
            if is_attacker {
                let attack = attack.clone().expect("attacker position implies attack");
                spec = spec.malicious(attack.clone());
                attacker = Some((host.clone(), attack));
            }
            specs.push(spec);
            ids.push(host);
        }
        route.push(route_host(stage));
        stages.push(StageSpec::new(ids));
    }

    let attack_label = attacker
        .as_ref()
        .map(|(_, a)| a.label())
        .unwrap_or("honest");

    GeneratedScenario {
        id,
        kind: Preset::Replicated,
        start: route_host(0),
        agent: build_route_agent(id, stage_count),
        route,
        stages: Some(stages),
        specs,
        attacker,
        attack_label,
        churned: None,
        campaign: None,
    }
}

/// Generates one [`Preset::Cooperating`] scenario: a linear route of
/// 4–10 hops plus 2–3 off-route witness hosts (`v0 …`), so mechanisms
/// whose profile demands disjoint sets are fleet-drivable. The mix is
/// ≈20% honest, 40% detectable tampering, 20% cross-set collusion (the
/// attacker recruits exactly the witness its hop is assigned —
/// `cooperating`'s pinned blind spot; the session protocol still catches
/// it because the accomplice is not the route successor), and 20%
/// attacks outside the reference-state bandwidth.
fn generate_cooperating(id: u64, rng: &mut StdRng) -> GeneratedScenario {
    let route_len = rng.gen_range(4usize..11);
    let witnesses = rng.gen_range(2usize..4);
    let roll = rng.gen_range(0u8..10);
    let pos = rng.gen_range(1usize..route_len);
    let (attacker_pos, attack) = match roll {
        0..=1 => (None, None),
        2..=5 => (Some(pos), Some(detectable_attack(rng))),
        6..=7 => (
            Some(pos),
            Some(Attack::CollaborateTamper {
                name: "total".into(),
                value: Value::Int(-(rng.gen_range(1i64..1_000_000))),
                // The witness assignment is deterministic (hop index
                // modulo witness-set size), so the recruiting attacker
                // knows exactly whom to buy.
                accomplice: witness(pos % witnesses),
            }),
        ),
        _ => (Some(pos), Some(undetectable_attack(rng))),
    };

    let mut specs = Vec::with_capacity(route_len + witnesses);
    for pos in 0..route_len {
        let mut spec = HostSpec::new(route_host(pos));
        let is_attacker = attacker_pos == Some(pos);
        if pos == 0 || (!is_attacker && rng.gen_bool(0.3)) {
            spec = spec.trusted();
        }
        let offer = rng.gen_range(1i64..1000);
        spec = provision(spec, offer);
        if is_attacker {
            spec = spec.malicious(attack.clone().expect("attacker position implies attack"));
        }
        specs.push(spec);
    }
    for w in 0..witnesses {
        specs.push(HostSpec::new(witness(w)));
    }

    let attacker = attacker_pos.map(|pos| {
        (
            route_host(pos),
            attack.expect("attacker position implies attack"),
        )
    });
    let attack_label = attacker
        .as_ref()
        .map(|(_, a)| a.label())
        .unwrap_or("honest");

    GeneratedScenario {
        id,
        kind: Preset::Cooperating,
        start: route_host(0),
        route: (0..route_len).map(route_host).collect(),
        stages: None,
        agent: build_route_agent(id, route_len),
        specs,
        attacker,
        attack_label,
        churned: None,
        campaign: None,
    }
}

/// Generates one chained-integrity scenario ([`Preset::Chained`] /
/// [`Preset::Encapsulated`]): a linear route with one attacker at
/// position ≥ 2 (chain manipulation needs recorded predecessors). The
/// attack mix is mostly chain manipulation, with the family's two blind
/// spots sampled so fleet reports show the structural contrast:
///
/// * `chained` — 20% honest, 55% chain manipulation, 10%
///   colluding-predecessor forgery, 15% computation lies (which only the
///   re-execution mechanisms catch),
/// * `encapsulated` — longer routes (6–14 hops), 15% honest, 60% chain
///   manipulation, 10% collusion, 15% input forgery (which nothing
///   linear catches).
fn generate_chained(id: u64, rng: &mut StdRng, kind: Preset) -> GeneratedScenario {
    let route_len = match kind {
        Preset::Encapsulated => rng.gen_range(6usize..15),
        _ => rng.gen_range(4usize..9),
    };
    let roll = rng.gen_range(0u8..20);
    let pos = rng.gen_range(2usize..route_len);
    let (attacker_pos, attack) = match kind {
        Preset::Encapsulated => match roll {
            0..=2 => (None, None),
            3..=14 => (Some(pos), Some(chain_attack(rng, pos))),
            15..=16 => (
                Some(pos),
                Some(Attack::ForgeChainEntry {
                    accomplice: route_host(pos - 1),
                }),
            ),
            _ => (Some(pos), Some(undetectable_attack(rng))),
        },
        _ => match roll {
            0..=3 => (None, None),
            4..=14 => (Some(pos), Some(chain_attack(rng, pos))),
            15..=16 => (
                Some(pos),
                Some(Attack::ForgeChainEntry {
                    accomplice: route_host(pos - 1),
                }),
            ),
            _ => (Some(pos), Some(detectable_attack(rng))),
        },
    };
    // A colluding predecessor leaks its key: it must not be trusted.
    let accomplice_pos = match &attack {
        Some(Attack::ForgeChainEntry { .. }) => attacker_pos.map(|p| p - 1),
        _ => None,
    };

    let mut specs = Vec::with_capacity(route_len);
    for pos in 0..route_len {
        let mut spec = HostSpec::new(route_host(pos));
        let is_attacker = attacker_pos == Some(pos);
        let is_accomplice = accomplice_pos == Some(pos);
        if pos == 0 || (!is_attacker && !is_accomplice && rng.gen_bool(0.3)) {
            spec = spec.trusted();
        }
        let offer = rng.gen_range(1i64..1000);
        spec = provision(spec, offer);
        if is_attacker {
            spec = spec.malicious(attack.clone().expect("attacker position implies attack"));
        }
        specs.push(spec);
    }

    let attacker = attacker_pos.map(|pos| {
        (
            route_host(pos),
            attack.expect("attacker position implies attack"),
        )
    });
    let attack_label = attacker
        .as_ref()
        .map(|(_, a)| a.label())
        .unwrap_or("honest");

    GeneratedScenario {
        id,
        kind,
        start: route_host(0),
        route: (0..route_len).map(route_host).collect(),
        stages: None,
        agent: build_route_agent(id, route_len),
        specs,
        attacker,
        attack_label,
        churned: None,
        campaign: None,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for id in 0..50 {
            let a = generate(42, id, Preset::Mixed);
            let b = generate(42, id, Preset::Mixed);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.attack_label, b.attack_label);
            assert_eq!(a.route_len(), b.route_len());
            assert_eq!(a.agent, b.agent);
            assert_eq!(
                a.specs.iter().map(|s| s.trusted).collect::<Vec<_>>(),
                b.specs.iter().map(|s| s.trusted).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let kinds_a: Vec<_> = (0..40)
            .map(|id| generate(1, id, Preset::Mixed).kind)
            .collect();
        let kinds_b: Vec<_> = (0..40)
            .map(|id| generate(2, id, Preset::Mixed).kind)
            .collect();
        assert_ne!(kinds_a, kinds_b);
    }

    #[test]
    fn all_honest_has_no_attacker() {
        for id in 0..50 {
            let s = generate(7, id, Preset::AllHonest);
            assert!(s.attacker.is_none());
            assert_eq!(s.attack_label, "honest");
            assert!(s.specs.iter().all(|spec| spec.behaviour.is_honest()));
        }
    }

    #[test]
    fn single_tamperer_has_one_untrusted_detectable_attacker() {
        for id in 0..50 {
            let s = generate(7, id, Preset::SingleTamperer);
            let (host, attack) = s.attacker.expect("attacker present");
            assert!(attack.detectable_by_reference_state(), "{attack:?}");
            let spec = s
                .specs
                .iter()
                .find(|spec| spec.id == host)
                .expect("attacker spec exists");
            assert!(!spec.trusted, "attackers are never trusted");
            assert_ne!(spec.id, s.start, "the home host never attacks");
            let malicious = s.specs.iter().filter(|s| !s.behaviour.is_honest()).count();
            assert_eq!(malicious, 1);
        }
    }

    #[test]
    fn colluding_pair_accomplice_is_successor() {
        for id in 0..50 {
            let s = generate(9, id, Preset::ColludingPair);
            let (host, attack) = s.attacker.clone().expect("attacker present");
            let Attack::CollaborateTamper { accomplice, .. } = attack else {
                panic!("colluding preset generates CollaborateTamper");
            };
            let pos: usize = host.as_str()[1..].parse().unwrap();
            assert_eq!(accomplice.as_str(), format!("h{}", pos + 1));
            assert!(pos + 1 < s.route_len(), "accomplice is on the route");
        }
    }

    #[test]
    fn input_forgery_attacks_are_outside_bandwidth() {
        for id in 0..50 {
            let s = generate(11, id, Preset::InputForgeryHeavy);
            let (_, attack) = s.attacker.expect("attacker present");
            assert!(!attack.detectable_by_reference_state(), "{attack:?}");
        }
    }

    #[test]
    fn long_routes_are_long() {
        for id in 0..30 {
            let s = generate(13, id, Preset::LongRoute);
            assert!((12..25).contains(&s.route_len()));
        }
    }

    #[test]
    fn mixed_draws_every_family() {
        let kinds: std::collections::BTreeSet<_> = (0..200)
            .map(|id| generate(42, id, Preset::Mixed).kind.name())
            .collect();
        assert!(
            kinds.len() >= 4,
            "mixed covers most families, got {kinds:?}"
        );
    }

    #[test]
    fn replicated_scenarios_have_staged_replicas() {
        let mut attackers_off_primary_path = 0;
        for id in 0..60 {
            let s = generate(17, id, Preset::Replicated);
            assert_eq!(s.kind, Preset::Replicated);
            let stages = s.stages.as_ref().expect("replicated topology");
            assert_eq!(stages.len(), s.route_len());
            assert_eq!(stages.first().unwrap().replicas.len(), 1);
            assert_eq!(stages.last().unwrap().replicas.len(), 1);
            for stage in &stages[1..stages.len() - 1] {
                assert_eq!(stage.replicas.len(), 3, "middle stages are replicated");
            }
            // The primary route is each stage's first replica.
            for (hop, stage) in s.route.iter().zip(stages) {
                assert_eq!(hop, &stage.replicas[0]);
            }
            // The attacker (if any) sits in a replicated middle stage.
            if let Some((host, _)) = &s.attacker {
                let stage = stages
                    .iter()
                    .find(|st| st.replicas.contains(host))
                    .expect("attacker is on a stage");
                assert_eq!(stage.replicas.len(), 3);
                if !s.route.contains(host) {
                    attackers_off_primary_path += 1;
                }
            }
        }
        assert!(
            attackers_off_primary_path > 0,
            "some attackers hide off the primary path"
        );
    }

    #[test]
    fn chained_presets_place_attackers_with_predecessors() {
        for preset in [Preset::Chained, Preset::Encapsulated] {
            let mut chain_attacks = 0;
            let mut blind_spots = 0;
            for id in 0..80 {
                let s = generate(23, id, preset);
                assert_eq!(s.kind, preset);
                assert!(s.stages.is_none());
                let Some((host, attack)) = &s.attacker else {
                    continue;
                };
                let pos: usize = host.as_str()[1..].parse().unwrap();
                if attack.targets_result_chain() {
                    assert!(
                        pos >= 2,
                        "chain attacks need recorded predecessors, got pos {pos}"
                    );
                }
                if let Attack::TruncateChainTail { drop } = attack {
                    assert!((1..pos).contains(drop) || *drop == 1, "{attack:?} at {pos}");
                }
                if let Attack::ForgeChainEntry { accomplice } = attack {
                    assert_eq!(accomplice.as_str(), format!("h{}", pos - 1));
                    let spec = s.specs.iter().find(|sp| &sp.id == accomplice).unwrap();
                    assert!(!spec.trusted, "a key-leaking accomplice is never trusted");
                }
                if attack.detectable_by_chained_integrity() {
                    chain_attacks += 1;
                } else {
                    blind_spots += 1;
                }
            }
            assert!(chain_attacks > 20, "{preset}: chain attacks dominate");
            assert!(
                blind_spots > 5,
                "{preset}: the family's blind spots are sampled too"
            );
        }
    }

    #[test]
    fn encapsulated_routes_are_longer_than_chained() {
        let avg = |preset: Preset| -> f64 {
            (0..60)
                .map(|id| generate(5, id, preset).route_len() as f64)
                .sum::<f64>()
                / 60.0
        };
        assert!(avg(Preset::Encapsulated) > avg(Preset::Chained) + 2.0);
    }

    #[test]
    fn linear_presets_and_mixed_have_no_stages() {
        for id in 0..80 {
            assert!(generate(42, id, Preset::Mixed).stages.is_none());
            assert!(generate(42, id, Preset::SingleTamperer).stages.is_none());
        }
    }

    #[test]
    fn cooperating_scenarios_carry_witnesses() {
        let mut cross_set = 0;
        for id in 0..80 {
            let s = generate(31, id, Preset::Cooperating);
            assert_eq!(s.kind, Preset::Cooperating);
            assert!(s.stages.is_none());
            let spares: Vec<_> = s
                .specs
                .iter()
                .filter(|sp| !s.route.contains(&sp.id))
                .collect();
            assert!((2..=3).contains(&spares.len()), "2–3 witnesses");
            assert!(spares.iter().all(|sp| sp.id.as_str().starts_with('v')));
            if let Some((host, Attack::CollaborateTamper { accomplice, .. })) = &s.attacker {
                if accomplice.as_str().starts_with('v') {
                    let pos: usize = host.as_str()[1..].parse().unwrap();
                    assert_eq!(
                        accomplice.as_str(),
                        format!("v{}", pos % spares.len()),
                        "cross-set collusion recruits the assigned witness"
                    );
                    cross_set += 1;
                }
            }
        }
        assert!(cross_set > 5, "cross-set collusion is sampled");
    }

    #[test]
    fn route_agent_program_assembles_for_all_lengths() {
        for n in 2..26 {
            let agent = build_route_agent(0, n);
            assert_eq!(agent.state.get_int("total"), Some(0));
            let other = build_route_agent(1, n);
            assert_eq!(agent.program, other.program);
            assert!(
                Arc::ptr_eq(&agent.program.compiled(), &other.program.compiled()),
                "journeys of length {n} share one compiled program"
            );
            let fresh = assemble(&route_program_source(n)).unwrap();
            assert_eq!(agent.program, fresh);
        }
    }
}
