//! Integration tests for the fleet engine: the determinism contract, the
//! false-accusation canary, detection/attribution guarantees, and the
//! registry-driven dispatch (including the replicated-stage preset that
//! makes `replication` fleet-drivable).

use std::sync::Arc;

use refstate_fleet::{run_fleet, FleetConfig, MechanismRegistry, Preset, ProtectionMechanism};

fn mechanisms(names: &[&str]) -> Vec<Arc<dyn ProtectionMechanism>> {
    let registry = MechanismRegistry::builtin();
    names
        .iter()
        .map(|name| registry.get(name).expect("known mechanism"))
        .collect()
}

fn config(
    preset: Preset,
    mechanisms: Vec<Arc<dyn ProtectionMechanism>>,
    workers: usize,
) -> FleetConfig {
    FleetConfig {
        scenarios: 120,
        workers,
        seed: 42,
        preset,
        mechanisms,
        key_pool: 16,
        ..FleetConfig::default()
    }
}

fn all_builtin() -> Vec<Arc<dyn ProtectionMechanism>> {
    MechanismRegistry::builtin().all()
}

#[test]
fn same_seed_produces_byte_identical_report() {
    let a = run_fleet(&config(Preset::Mixed, all_builtin(), 4));
    let b = run_fleet(&config(Preset::Mixed, all_builtin(), 4));
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.to_json(), b.report.to_json());
}

#[test]
fn report_is_invariant_under_worker_count() {
    // Scheduling must not leak into the deterministic surface: one worker
    // and seven workers see the same fleet.
    let serial = run_fleet(&config(Preset::Mixed, all_builtin(), 1));
    let parallel = run_fleet(&config(Preset::Mixed, all_builtin(), 7));
    assert_eq!(serial.report.to_json(), parallel.report.to_json());
}

#[test]
fn replicated_preset_is_invariant_under_worker_count() {
    // The replicated-stage family goes through a different topology and
    // mechanism set; its determinism contract is the same.
    let serial = run_fleet(&config(Preset::Replicated, all_builtin(), 1));
    let parallel = run_fleet(&config(Preset::Replicated, all_builtin(), 7));
    assert_eq!(serial.report.to_json(), parallel.report.to_json());
    let again = run_fleet(&config(Preset::Replicated, all_builtin(), 4));
    assert_eq!(serial.report.to_json(), again.report.to_json());
}

#[test]
fn different_seed_produces_different_fleet() {
    let a = run_fleet(&config(Preset::Mixed, mechanisms(&["unprotected"]), 4));
    let mut other = config(Preset::Mixed, mechanisms(&["unprotected"]), 4);
    other.seed = 43;
    let b = run_fleet(&other);
    assert_ne!(a.report.to_json(), b.report.to_json());
}

#[test]
fn all_honest_preset_has_zero_accusations() {
    let registry = MechanismRegistry::builtin();
    let run = run_fleet(&config(Preset::AllHonest, all_builtin(), 4));
    for mechanism in &run.report.mechanisms {
        let profile = registry.get(mechanism.name).expect("configured").profile();
        if !profile.compatible_with(false, false) {
            // Topology-incompatible with a spare-less linear preset
            // (replicated stages, disjoint sets): reported as n/a, not
            // as 120 clean journeys.
            assert!(mechanism.not_run());
            continue;
        }
        assert_eq!(
            mechanism.total.detected, 0,
            "{} flagged an honest fleet",
            mechanism.name
        );
        assert_eq!(
            mechanism.total.false_accusations, 0,
            "{} accused an honest host",
            mechanism.name
        );
        assert_eq!(mechanism.total.journeys, 120);
        assert_eq!(mechanism.total.completed, 120);
        assert_eq!(mechanism.total.infra_errors, 0);
    }
}

#[test]
fn single_tamperer_is_always_caught_and_attributed() {
    // The strong checking mechanisms must catch every detectable
    // single-tamperer attack and blame exactly the attacker.
    let run = run_fleet(&config(
        Preset::SingleTamperer,
        mechanisms(&["framework", "protocol"]),
        4,
    ));
    for mechanism in &run.report.mechanisms {
        assert_eq!(mechanism.total.journeys, 120);
        assert_eq!(
            mechanism.total.detected, 120,
            "{} missed a single-tamperer attack",
            mechanism.name
        );
        assert!(
            (mechanism.total.detection_rate() - 1.0).abs() < f64::EPSILON,
            "{} detection rate below 1.0",
            mechanism.name
        );
        assert_eq!(
            mechanism.total.correct_culprit, 120,
            "{} blamed the wrong host",
            mechanism.name
        );
        assert_eq!(mechanism.total.false_accusations, 0);
    }
}

#[test]
fn unprotected_baseline_detects_nothing() {
    let run = run_fleet(&config(
        Preset::SingleTamperer,
        mechanisms(&["unprotected"]),
        4,
    ));
    assert_eq!(run.report.mechanisms[0].total.detected, 0);
}

#[test]
fn input_forgery_stays_outside_the_bandwidth() {
    // The paper's §4.2 claim at fleet scale: no linear reference-state
    // mechanism flags input forgery/suppression or read attacks.
    let run = run_fleet(&config(
        Preset::InputForgeryHeavy,
        mechanisms(&["framework", "protocol", "traces"]),
        4,
    ));
    for mechanism in &run.report.mechanisms {
        assert_eq!(
            mechanism.total.detected, 0,
            "{} impossibly detected an input-level attack",
            mechanism.name
        );
    }
}

#[test]
fn collusion_beats_the_protocol_but_not_the_framework() {
    // §5.1's stated limitation, reproduced across a whole population:
    // consecutive-host collusion blinds the session-checking protocol;
    // the generic framework driver (no collusion modelling) still checks.
    let run = run_fleet(&config(
        Preset::ColludingPair,
        mechanisms(&["protocol", "framework"]),
        4,
    ));
    let protocol = &run.report.mechanisms[0];
    let framework = &run.report.mechanisms[1];
    assert_eq!(
        protocol.total.detected, 0,
        "the accomplice skips the check (§5.1)"
    );
    assert_eq!(framework.total.detected, 120);
}

#[test]
fn replicated_preset_scores_replication_alongside_the_others() {
    // The ROADMAP gap this preset closes: ServerReplication appears in
    // fleet reports with detection/attribution rates like every other
    // mechanism.
    let run = run_fleet(&config(Preset::Replicated, all_builtin(), 4));
    let replication = run
        .report
        .mechanisms
        .iter()
        .find(|m| m.name == "replication")
        .expect("replication configured");
    assert!(!replication.not_run());
    assert_eq!(replication.total.journeys, 120);
    assert!(
        replication.total.detected > 0,
        "replication detects attacks"
    );
    assert_eq!(
        replication.total.false_accusations, 0,
        "single attackers are always outvoted, never honest replicas"
    );
    // Every detection blamed exactly the attacking replica.
    assert_eq!(
        replication.total.correct_culprit,
        replication.total.detected
    );
    // State/control-flow attack classes are caught at rate 1.0 — the
    // attacker is a minority of one in a three-replica stage.
    for label in ["tamper-variable", "delete-variable", "scale-int"] {
        if let Some(cell) = replication.per_attack.get(label) {
            assert_eq!(
                cell.detected, cell.journeys,
                "replication missed a {label} attack"
            );
        }
    }
    // Replicated resources catch even forged inputs (§3.2) — the classes
    // linear mechanisms are blind to.
    if let Some(cell) = replication.per_attack.get("forge-input") {
        assert_eq!(cell.detected, cell.journeys);
    }
    // The linear mechanisms ran the same fleet on the primary path and
    // saw only the attackers sitting on it: strictly fewer detections
    // than replication, never a false accusation.
    let protocol = run
        .report
        .mechanisms
        .iter()
        .find(|m| m.name == "protocol")
        .expect("protocol configured");
    assert_eq!(protocol.total.journeys, 120);
    assert!(protocol.total.detected < replication.total.detected);
    assert_eq!(protocol.total.false_accusations, 0);
}

#[test]
fn per_attack_breakdown_covers_generated_labels() {
    let run = run_fleet(&config(Preset::Mixed, mechanisms(&["protocol"]), 4));
    let per_attack = &run.report.mechanisms[0].per_attack;
    let total: u64 = per_attack.values().map(|c| c.journeys).sum();
    assert_eq!(
        total, 120,
        "every journey lands in exactly one attack class"
    );
    assert!(per_attack.contains_key("honest"));
    assert!(
        per_attack.len() >= 4,
        "mixed fleet spans attack classes, got {:?}",
        per_attack.keys().collect::<Vec<_>>()
    );
}

#[test]
fn linear_preset_reports_replication_as_na() {
    let run = run_fleet(&config(Preset::Mixed, all_builtin(), 4));
    let table = run.report.render_table();
    assert!(
        table.contains("replication") && table.contains("n/a"),
        "replication renders as n/a on a linear preset:\n{table}"
    );
    let json = run.report.to_json();
    assert!(json.contains("\"mechanism\":\"replication\",\"ran\":false"));
    assert!(json.contains("\"detection_rate\":null"));
}

#[test]
fn report_json_is_well_formed_enough_to_round_trip_counts() {
    let run = run_fleet(&config(Preset::Mixed, mechanisms(&["unprotected"]), 2));
    let json = run.report.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert!(json.contains("\"seed\":42"));
    assert!(json.contains("\"scenarios\":120"));
    assert!(json.contains("\"mechanism\":\"unprotected\""));
}
