//! Golden-report regression guard: the seed-42 fleet reports are
//! committed as fixtures and compared **byte for byte**, so a future
//! perf PR (parallelism, arithmetic) cannot silently shift a detection
//! or attribution score. This extends the worker-invariance guarantee
//! (same-process) to a *cross-PR* guarantee: the fixture bytes only
//! change when a PR deliberately regenerates them (`REGEN_GOLDEN=1 cargo
//! test -p refstate-fleet --test golden_report`) and the diff shows up in
//! review.

use refstate_fleet::{run_fleet, FleetConfig, Preset};

fn golden_config(preset: Preset) -> FleetConfig {
    FleetConfig {
        scenarios: 120,
        workers: 4,
        seed: 42,
        preset,
        key_pool: 16,
        ..FleetConfig::default() // every builtin mechanism
    }
}

fn check_golden(preset: Preset, fixture: &str) {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let json = run_fleet(&golden_config(preset)).report.to_json();
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, format!("{json}\n")).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path}: {e} (REGEN_GOLDEN=1 to create)"));
    assert_eq!(
        json,
        committed.trim_end(),
        "the seed-42 {} report drifted from the committed fixture; if the \
         change is intentional, regenerate with REGEN_GOLDEN=1 and commit \
         the diff",
        preset.name()
    );
}

#[test]
fn seed42_mixed_fleet_report_matches_committed_fixture() {
    check_golden(Preset::Mixed, "seed42_mixed_report.json");
}

#[test]
fn seed42_chained_fleet_report_matches_committed_fixture() {
    // The same guarantee for the new mechanism family: chained-integrity
    // detection/attribution scores are pinned across PRs too.
    check_golden(Preset::Chained, "seed42_chained_report.json");
}

#[test]
fn seed42_cooperating_fleet_report_matches_committed_fixture() {
    // The disjoint-set preset: witness hosts make `cooperating` runnable,
    // and its cross-set collusion blind spot is pinned as a rate.
    check_golden(Preset::Cooperating, "seed42_cooperating_report.json");
}

#[test]
fn seed42_adaptive_fleet_report_matches_committed_fixture() {
    // The adaptive campaigns: pins the whole AdaptationReport (detection
    // latency, detection-under-adaptation, false accusations) byte for
    // byte across PRs.
    check_golden(Preset::Adaptive, "seed42_adaptive_report.json");
}
