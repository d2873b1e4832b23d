//! Mechanism-level adversarial properties for Roth's cooperating agents:
//! random disjoint host-set splits × random attack placements, driven
//! through the uniform mechanism API.
//!
//! The battery pins both directions of the mechanism's bandwidth
//! (mirroring the chained-integrity battery's style):
//!
//! * tampering anywhere in the worker set is always caught by the peer
//!   agent's witness — and attributed to exactly the attacker — for
//!   every route length, witness-set size, and placement,
//! * synchronized two-set collusion (the attacker recruits exactly the
//!   witness assigned to its hop, vouching with real identities) passes:
//!   the pinned blind spot.
//!
//! Case counts scale with `PROPTEST_CASES` (CI runs a boosted job).

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_core::protocol::host_directory;
use refstate_crypto::DsaParams;
use refstate_mechanisms::api::{JourneyCtx, JourneyVerdict, MechanismConfig, ProtectionMechanism};
use refstate_mechanisms::cooperating::CooperatingAgents;
use refstate_platform::EventLog;
use refstate_platform::{AgentImage, Attack, Host, HostId, HostSpec};
use refstate_vm::{assemble, DataState, Value};

/// The route agent for an `n`-hop linear journey `h0 … h{n-1}`: adds one
/// input per host into `total` (same shape as the fleet generator's).
fn route_agent(n: usize) -> AgentImage {
    let mut src = String::from(
        "input \"n\"\nload \"total\"\nadd\nstore \"total\"\n\
         load \"hop\"\npush 1\nadd\nstore \"hop\"\n",
    );
    for i in 1..n {
        src.push_str(&format!("load \"hop\"\npush {i}\neq\njnz to_{i}\n"));
    }
    src.push_str("halt\n");
    for i in 1..n {
        src.push_str(&format!("to_{i}:\npush \"h{i}\"\nmigrate\n"));
    }
    let program = assemble(&src).expect("route agent assembles");
    let mut state = DataState::new();
    state.set("total", Value::Int(0));
    state.set("hop", Value::Int(0));
    AgentImage::new("coop-prop", program, state)
}

/// A random disjoint split: `n` route hosts `h0 … h{n-1}` (home trusted)
/// plus `w` off-route witness hosts `v0 … v{w-1}`, with `attack` mounted
/// at route position `pos`.
fn split_hosts(n: usize, w: usize, pos: usize, attack: Option<Attack>, seed: u64) -> Vec<Host> {
    let mut specs = Vec::with_capacity(n + w);
    for i in 0..n {
        let offer = 1 + ((seed >> (i % 48)) % 997) as i64;
        let mut spec = HostSpec::new(format!("h{i}")).with_input("n", Value::Int(offer));
        if i == 0 {
            spec = spec.trusted();
        }
        if i == pos {
            if let Some(attack) = attack.clone() {
                spec = spec.malicious(attack);
            }
        }
        specs.push(spec);
    }
    for i in 0..w {
        specs.push(HostSpec::new(format!("v{i}")));
    }
    let params = DsaParams::test_group_256();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0_0b_5e_ed);
    Host::build_all(specs, &params, &mut rng)
}

fn run_split(n: usize, w: usize, pos: usize, attack: Option<Attack>, seed: u64) -> JourneyVerdict {
    let mut hosts = split_hosts(n, w, pos, attack, seed);
    let directory = host_directory(&hosts);
    let config = MechanismConfig::default();
    let log = EventLog::new();
    let route: Vec<HostId> = (0..n).map(|i| HostId::new(format!("h{i}"))).collect();
    let mut ctx = JourneyCtx::new(
        &mut hosts,
        route,
        route_agent(n),
        &directory,
        &config,
        &log,
        seed,
        Arc::default(),
    );
    CooperatingAgents.run(&mut ctx)
}

/// The state attacks a disjoint-set witness must catch at any placement.
fn state_attack(pick: u8) -> Attack {
    match pick % 4 {
        0 => Attack::TamperVariable {
            name: "total".into(),
            value: Value::Int(-7),
        },
        1 => Attack::DeleteVariable {
            name: "total".into(),
        },
        2 => Attack::ScaleIntVariable {
            name: "total".into(),
            factor: 3,
        },
        _ => Attack::SkipExecution,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Honest journeys complete clean for every split shape.
    #[test]
    fn honest_splits_run_clean(seed in any::<u64>(), n in 2usize..8, w in 1usize..4) {
        let verdict = run_split(n, w, 0, None, seed);
        prop_assert!(!verdict.detected, "false positive on an honest split");
        prop_assert!(verdict.completed);
    }

    /// Single-set tampering — a state attack anywhere in the worker set —
    /// is always caught by the peer agent and attributed to exactly the
    /// attacker, for every split shape and placement.
    #[test]
    fn single_set_tampering_is_always_caught(
        seed in any::<u64>(), n in 2usize..8, w in 1usize..4, pos in 1usize..7, pick in any::<u8>(),
    ) {
        let pos = 1 + pos % (n - 1);
        let attack = state_attack(pick);
        let verdict = run_split(n, w, pos, Some(attack.clone()), seed);
        prop_assert!(
            verdict.detected,
            "witness missed {:?} at h{} (n={}, w={})", attack, pos, n, w
        );
        prop_assert_eq!(
            &verdict.accused,
            &vec![HostId::new(format!("h{pos}"))],
            "wrong culprit for {:?}", attack
        );
    }

    /// Route-internal collusion buys nothing: an accomplice in the worker
    /// set (the §5.1 move that defeats the session protocol) cannot reach
    /// the check, which runs on the disjoint witness set.
    #[test]
    fn route_collusion_is_always_caught(
        seed in any::<u64>(), n in 3usize..8, w in 1usize..4, pos in 1usize..7,
    ) {
        let pos = 1 + pos % (n - 1);
        // Recruit the next route host (wrapping to the home for the tail).
        let accomplice = format!("h{}", (pos + 1) % n);
        let verdict = run_split(
            n, w, pos,
            Some(Attack::CollaborateTamper {
                name: "total".into(),
                value: Value::Int(-7),
                accomplice: HostId::new(accomplice),
            }),
            seed,
        );
        prop_assert!(verdict.detected, "route collusion at h{pos} evaded the witness set");
        prop_assert_eq!(&verdict.accused, &vec![HostId::new(format!("h{pos}"))]);
    }

    /// The blindness, pinned as a passing assertion: synchronized
    /// two-set collusion — the attacker recruits exactly the witness
    /// assigned to its hop (`v{pos % w}`), which vouches under its real
    /// identity — passes at every placement. Recruiting any *other*
    /// witness is caught.
    #[test]
    fn recruiting_the_assigned_witness_always_passes(
        seed in any::<u64>(), n in 2usize..8, w in 1usize..4, pos in 1usize..7,
    ) {
        let pos = 1 + pos % (n - 1);
        let assigned = format!("v{}", pos % w);
        let verdict = run_split(
            n, w, pos,
            Some(Attack::CollaborateTamper {
                name: "total".into(),
                value: Value::Int(-7),
                accomplice: HostId::new(assigned.clone()),
            }),
            seed,
        );
        prop_assert!(
            !verdict.detected,
            "two-set collusion with {} is outside the design bandwidth", assigned
        );
        prop_assert!(verdict.completed);

        if w > 1 {
            let wrong = format!("v{}", (pos + 1) % w);
            let verdict = run_split(
                n, w, pos,
                Some(Attack::CollaborateTamper {
                    name: "total".into(),
                    value: Value::Int(-7),
                    accomplice: HostId::new(wrong.clone()),
                }),
                seed,
            );
            prop_assert!(
                verdict.detected,
                "recruiting the unassigned witness {} must not help", wrong
            );
        }
    }
}
