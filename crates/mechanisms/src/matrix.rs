//! The detection matrix: which mechanism catches which attack.
//!
//! This is the empirical counterpart of the paper's §4 "protection
//! bandwidth" analysis: a standard staged scenario (trusted home,
//! untrusted shop with two honest replicas, trusted return) runs once per
//! (mechanism × attack) cell and reports whether the attack was detected.
//! Every cell dispatches through the [`crate::api::MechanismRegistry`] —
//! the matrix has no mechanism knowledge of its own, so a newly
//! registered mechanism shows up as a row for free.
//!
//! The expected shape:
//!
//! * state-visible attacks (tamper/delete/scale/skip/redirect) are caught
//!   by every reference-state mechanism with enough data,
//! * weak rules miss whatever the rules don't express,
//! * input attacks and read attacks are caught by nobody (the paper's
//!   §4.2), except replication's replicated resources,
//! * consecutive-host collusion defeats the session-checking protocol but
//!   not replication.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_core::protocol::host_directory;
use refstate_crypto::DsaParams;
use refstate_platform::{AgentImage, Attack, EventLog, Host, HostId, HostSpec};
use refstate_vm::{assemble, DataState, Value};

use crate::api::{JourneyCtx, MechanismConfig, MechanismRegistry, ProtectionMechanism};
use crate::replication::StageSpec;

/// A scenario: the attack the untrusted middle host mounts (or none).
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// A short label for reports.
    pub label: &'static str,
    /// The middle host's attack; `None` = honest run.
    pub attack: Option<Attack>,
    /// Whether the paper predicts reference-state mechanisms detect it.
    pub expected_detectable: bool,
}

/// The standard attack scenarios.
///
/// Tamper forgeries are *negative* values, aligned with the fleet
/// generator: honest totals are positive sums, so a negative forgery is
/// always a real state change **and** violates the default appraisal
/// rule set. (Earlier revisions forged positive values, which slipped
/// past appraisal's `total-non-negative` rule — the appraisal row now
/// reflects the rules' bandwidth on tamper/collude cells too; see
/// `appraisal_catches_rule_violating_tampering`.)
pub fn standard_scenarios() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            label: "honest",
            attack: None,
            expected_detectable: false,
        },
        ScenarioSpec {
            label: "tamper-variable",
            attack: Some(Attack::TamperVariable {
                name: "total".into(),
                value: Value::Int(-7),
            }),
            expected_detectable: true,
        },
        ScenarioSpec {
            label: "delete-variable",
            attack: Some(Attack::DeleteVariable {
                name: "total".into(),
            }),
            expected_detectable: true,
        },
        ScenarioSpec {
            label: "scale-int",
            attack: Some(Attack::ScaleIntVariable {
                name: "total".into(),
                factor: 3,
            }),
            expected_detectable: true,
        },
        ScenarioSpec {
            label: "skip-execution",
            attack: Some(Attack::SkipExecution),
            expected_detectable: true,
        },
        ScenarioSpec {
            label: "redirect-migration",
            // Send the agent back to "a" instead of onward to "c": a real
            // detour (redirecting to the legitimate next hop would be a
            // no-op, not an attack).
            attack: Some(Attack::RedirectMigration {
                to: HostId::new("a"),
            }),
            expected_detectable: true,
        },
        ScenarioSpec {
            label: "forge-input",
            attack: Some(Attack::ForgeInput {
                tag: "n".into(),
                value: Value::Int(-9),
            }),
            expected_detectable: false,
        },
        ScenarioSpec {
            label: "drop-input",
            attack: Some(Attack::DropInput {
                tag: "unused".into(),
            }),
            expected_detectable: false,
        },
        ScenarioSpec {
            label: "read-state",
            attack: Some(Attack::ReadState),
            expected_detectable: false,
        },
        ScenarioSpec {
            label: "collude-next",
            attack: Some(Attack::CollaborateTamper {
                name: "total".into(),
                value: Value::Int(-7),
                accomplice: HostId::new("c"),
            }),
            expected_detectable: false, // for the session protocol
        },
        // Chain-manipulation attacks: outside the reference-state
        // bandwidth entirely (the chain does not exist under those
        // mechanisms), caught only by the chained-integrity family.
        // `swap-two-hops` is omitted here — it needs two recorded
        // predecessors and the standard scenario's attacker has one; the
        // fleet presets and the adversarial battery cover it.
        ScenarioSpec {
            label: "truncate-tail",
            attack: Some(Attack::TruncateChainTail { drop: 1 }),
            expected_detectable: false,
        },
        ScenarioSpec {
            label: "replace-partial-result",
            attack: Some(Attack::ReplacePartialResult),
            expected_detectable: false,
        },
        ScenarioSpec {
            label: "collude-predecessor",
            attack: Some(Attack::ForgeChainEntry {
                accomplice: HostId::new("a"),
            }),
            expected_detectable: false,
        },
    ]
}

/// One matrix cell.
#[derive(Debug, Clone)]
pub struct DetectionCell {
    /// The mechanism's registry name (row).
    pub mechanism: &'static str,
    /// The scenario label (column).
    pub scenario: &'static str,
    /// Whether the mechanism flagged the run.
    pub detected: bool,
    /// Whether the journey ran to completion (vs aborted at detection).
    pub completed: bool,
}

/// The three-hop measurement agent: adds one input per host into `total`.
fn matrix_agent() -> AgentImage {
    let program = assemble(
        r#"
        input "n"
        load "total"
        add
        store "total"
        load "hops"
        push 1
        add
        store "hops"
        load "hops"
        push 1
        eq
        jnz to_b
        load "hops"
        push 2
        eq
        jnz to_c
        halt
    to_b:
        push "b"
        migrate
    to_c:
        push "c"
        migrate
    "#,
    )
    .unwrap();
    let mut state = DataState::new();
    state.set("total", Value::Int(0));
    state.set("hops", Value::Int(0));
    AgentImage::new("matrix", program, state)
}

/// The standard host set: linear route a → b → c, plus honest replicas
/// b1/b2 of the untrusted middle stage so the replicated topology can run
/// the *same* scenario. Linear mechanisms never visit the replicas.
fn matrix_hosts(attack: Option<Attack>) -> Vec<Host> {
    let mut rng = StdRng::seed_from_u64(1);
    let params = DsaParams::test_group_256();
    let mut b = HostSpec::new("b")
        .with_input("n", Value::Int(20))
        .with_input("unused", Value::Int(0));
    if let Some(a) = attack {
        b = b.malicious(a);
    }
    Host::build_all(
        vec![
            HostSpec::new("a").trusted().with_input("n", Value::Int(10)),
            b,
            HostSpec::new("b1")
                .with_input("n", Value::Int(20))
                .with_input("unused", Value::Int(0)),
            HostSpec::new("b2")
                .with_input("n", Value::Int(20))
                .with_input("unused", Value::Int(0)),
            HostSpec::new("c").trusted().with_input("n", Value::Int(30)),
        ],
        &params,
        &mut rng,
    )
}

/// Runs one cell through the uniform mechanism API.
pub fn run_cell(mechanism: &dyn ProtectionMechanism, scenario: &ScenarioSpec) -> DetectionCell {
    let mut hosts = matrix_hosts(scenario.attack.clone());
    let directory = host_directory(&hosts);
    let config = MechanismConfig::default();
    let log = EventLog::new();
    let route = vec![HostId::new("a"), HostId::new("b"), HostId::new("c")];
    let mut ctx = JourneyCtx::new(
        &mut hosts,
        route,
        matrix_agent(),
        &directory,
        &config,
        &log,
        2,
        Arc::default(),
    )
    .with_stages(vec![
        StageSpec::new(["a"]),
        StageSpec::new(["b", "b1", "b2"]),
        StageSpec::new(["c"]),
    ]);
    let verdict = mechanism.run(&mut ctx);
    DetectionCell {
        mechanism: mechanism.name(),
        scenario: scenario.label,
        detected: verdict.detected,
        completed: verdict.completed,
    }
}

/// Runs the full matrix over every registered mechanism.
pub fn detection_matrix() -> Vec<DetectionCell> {
    let registry = MechanismRegistry::builtin();
    let scenarios = standard_scenarios();
    registry
        .iter()
        .flat_map(|m| scenarios.iter().map(|s| run_cell(m.as_ref(), s)))
        .collect()
}

/// Renders the matrix as an ASCII table (rows in registry order).
pub fn render_matrix(cells: &[DetectionCell]) -> String {
    let scenarios = standard_scenarios();
    let mut rows: Vec<&'static str> = Vec::new();
    for cell in cells {
        if !rows.contains(&cell.mechanism) {
            rows.push(cell.mechanism);
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{:<20}", "mechanism \\ attack"));
    for s in &scenarios {
        out.push_str(&format!(" {:>18}", s.label));
    }
    out.push('\n');
    for mechanism in rows {
        out.push_str(&format!("{mechanism:<20}"));
        for s in &scenarios {
            let cell = cells
                .iter()
                .find(|c| c.mechanism == mechanism && c.scenario == s.label)
                .expect("matrix complete");
            out.push_str(&format!(
                " {:>18}",
                if cell.detected { "DETECTED" } else { "-" }
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(mechanism: &str, label: &str) -> DetectionCell {
        let registry = MechanismRegistry::builtin();
        let mechanism = registry.get(mechanism).expect("known mechanism");
        let scenario = standard_scenarios()
            .into_iter()
            .find(|s| s.label == label)
            .expect("known scenario");
        run_cell(mechanism.as_ref(), &scenario)
    }

    #[test]
    fn honest_runs_never_flagged() {
        for m in MechanismRegistry::builtin().names() {
            let c = cell(m, "honest");
            assert!(!c.detected, "{m} false-positived an honest run");
        }
    }

    #[test]
    fn unprotected_detects_nothing() {
        for s in standard_scenarios() {
            let c = cell("unprotected", s.label);
            assert!(!c.detected);
        }
    }

    /// Classifies every registered mechanism by whether it is expected to
    /// catch all five state-visible attacks. Enumerates the registry and
    /// panics on an unclassified name, so adding a mechanism forces an
    /// explicit bandwidth claim here instead of silently skipping the
    /// cross-family contrast coverage.
    fn full_bandwidth_mechanisms() -> (Vec<&'static str>, Vec<&'static str>) {
        let mut strong = Vec::new();
        let mut weak = Vec::new();
        for m in MechanismRegistry::builtin().names() {
            match m {
                "framework" | "protocol" | "traces" | "replication" | "cooperating" => {
                    strong.push(m)
                }
                "unprotected" | "appraisal" | "chained" | "encapsulated" => weak.push(m),
                other => {
                    panic!("unclassified mechanism {other}: declare its state-attack bandwidth")
                }
            }
        }
        (strong, weak)
    }

    #[test]
    fn strong_mechanisms_catch_state_attacks() {
        let (strong, _) = full_bandwidth_mechanisms();
        assert!(strong.len() >= 4, "registry lost its strong mechanisms");
        for m in strong {
            for label in [
                "tamper-variable",
                "delete-variable",
                "scale-int",
                "skip-execution",
                "redirect-migration",
            ] {
                let c = cell(m, label);
                assert!(c.detected, "{m} missed {label}");
            }
        }
    }

    #[test]
    fn chained_family_catches_chain_manipulation_everyone_else_is_blind() {
        for label in ["truncate-tail", "replace-partial-result"] {
            for m in MechanismRegistry::builtin().names() {
                let c = cell(m, label);
                if m == "chained" || m == "encapsulated" {
                    assert!(c.detected, "{m} missed {label}");
                } else {
                    assert!(!c.detected, "{m} impossibly detected {label}");
                }
            }
        }
        // The owner-only MAC chain completes the journey before the
        // after-task verification fires; the publicly verifiable
        // encapsulations abort at the next arrival.
        assert!(cell("chained", "truncate-tail").completed);
        assert!(!cell("encapsulated", "truncate-tail").completed);
    }

    #[test]
    fn chained_family_misses_computation_lies_reexecution_catches() {
        // The structural contrast in both directions, cell by cell.
        for label in ["tamper-variable", "scale-int", "skip-execution"] {
            for m in ["chained", "encapsulated"] {
                let c = cell(m, label);
                assert!(!c.detected, "{m} cannot see the {label} computation lie");
            }
            assert!(
                cell("framework", label).detected,
                "re-execution sees {label}"
            );
        }
    }

    #[test]
    fn colluding_predecessor_evades_the_chained_family() {
        for m in ["chained", "encapsulated"] {
            let c = cell(m, "collude-predecessor");
            assert!(
                !c.detected,
                "{m} cannot beat a shared chain key (§5.1 analogue)"
            );
        }
    }

    #[test]
    fn nobody_catches_input_or_read_attacks() {
        for m in MechanismRegistry::builtin().names() {
            for label in ["forge-input", "drop-input", "read-state"] {
                // Replication DOES catch forged input: replicas with honest
                // feeds outvote the forgery (replicated resources!).
                if m == "replication" && label == "forge-input" {
                    continue;
                }
                let c = cell(m, label);
                assert!(!c.detected, "{m} impossibly detected {label}");
            }
        }
    }

    #[test]
    fn replication_catches_forged_input_thanks_to_replicated_resources() {
        let c = cell("replication", "forge-input");
        assert!(c.detected, "honest replicas outvote the forged input");
    }

    #[test]
    fn collusion_beats_session_checking_but_not_replication() {
        let c = cell("protocol", "collude-next");
        assert!(!c.detected, "the accomplice skips the check (§5.1)");
        let c = cell("replication", "collude-next");
        assert!(c.detected, "the colluders are not in the same voting stage");
        // The generic framework driver has no collusion modelling — the
        // check runs regardless, so the tampering is caught.
        let c = cell("framework", "collude-next");
        assert!(c.detected);
        // Cooperating agents check from the disjoint witness set, so an
        // on-route accomplice buys nothing either.
        let c = cell("cooperating", "collude-next");
        assert!(c.detected, "route collusion cannot reach the witness set");
    }

    #[test]
    fn appraisal_misses_rule_preserving_attacks() {
        // scale by 3 keeps total >= 0: invisible to the rule set.
        let c = cell("appraisal", "scale-int");
        assert!(!c.detected);
        // Deleting "total" violates the Defined rule: caught.
        let c = cell("appraisal", "delete-variable");
        assert!(c.detected);
    }

    #[test]
    fn appraisal_catches_rule_violating_tampering() {
        // The standard tamper forgery is negative (see
        // `standard_scenarios`), so it violates `total-non-negative` and
        // the appraisal row shows its rule bandwidth on these cells too.
        let c = cell("appraisal", "tamper-variable");
        assert!(c.detected);
        let c = cell("appraisal", "collude-next");
        assert!(c.detected, "rules run on arrival regardless of collusion");
    }

    #[test]
    fn full_matrix_has_all_cells() {
        let cells = detection_matrix();
        let registry = MechanismRegistry::builtin();
        assert_eq!(cells.len(), registry.len() * standard_scenarios().len());
        let rendered = render_matrix(&cells);
        for name in registry.names() {
            assert!(rendered.contains(name), "row for {name}");
        }
        assert!(rendered.contains("DETECTED"));
    }
}
