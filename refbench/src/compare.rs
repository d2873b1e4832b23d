//! `refbench compare`: parent runs against change runs, workload by
//! workload and metric by metric.
//!
//! A gain needs the change to win at least nine tenths of the pairs and
//! its median to beat the parent's by more than the parent's own
//! interquartile range. A metric whose parent spread is wider than its
//! bound is unresolved unless every change run beats every parent run; a
//! bounded metric whose median worsens by more than its bound regressed.

use std::collections::BTreeMap;

use refstate_bench::benchjson::{self, Json};

use crate::stats::{median, quartiles};
use crate::validate::{split_bench_flag, Declaration, Declared};

/// How one metric moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// A gain by the rule above.
    Improved,
    /// No gain and no loss beyond the bound.
    NoChange,
    /// Worse by more than the bound (or, unbounded, a loss by the gain
    /// rule mirrored).
    Regressed,
    /// The parent's runs spread wider than the bound.
    Unresolved,
}

impl Call {
    /// The word printed for this call.
    pub fn word(self) -> &'static str {
        match self {
            Call::Improved => "improved",
            Call::NoChange => "no-change",
            Call::Regressed => "regressed",
            Call::Unresolved => "unresolved",
        }
    }
}

/// One metric's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Parent median, first and third quartile.
    pub parent: (f64, f64, f64),
    /// Change median, first and third quartile.
    pub change: (f64, f64, f64),
    /// Pairs (parent run `i`, change run `i`) the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub call: Call,
}

/// Compares `change` runs with `parent` runs of one metric.
///
/// # Panics
///
/// Panics if either side has no runs.
pub fn compare(parent: &[f64], change: &[f64], declared: &Declared) -> Comparison {
    let summary = |runs: &[f64]| {
        let (q1, q3) = quartiles(runs);
        (median(runs), q1, q3)
    };
    let (p, c) = (summary(parent), summary(change));
    let better = |a: f64, b: f64| {
        if declared.higher_is_better {
            a > b
        } else {
            a < b
        }
    };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let losses = (0..pairs).filter(|&i| better(parent[i], change[i])).count();
    let iqr = p.2 - p.1;
    // Positive when the change's median is better.
    let gain = if declared.higher_is_better {
        c.0 - p.0
    } else {
        p.0 - c.0
    };
    let dominates = change.iter().all(|&x| parent.iter().all(|&y| better(x, y)));
    let spread_too_wide = declared.bound.is_some_and(|bound| iqr > bound * p.0.abs());
    let call = if pairs > 0 && wins * 10 >= pairs * 9 && gain > iqr {
        Call::Improved
    } else if spread_too_wide && !dominates {
        Call::Unresolved
    } else if match declared.bound {
        Some(bound) => -gain > bound * p.0.abs(),
        None => pairs > 0 && losses * 10 >= pairs * 9 && -gain > iqr,
    } {
        Call::Regressed
    } else {
        Call::NoChange
    };
    Comparison {
        parent: p,
        change: c,
        wins,
        pairs,
        call,
    }
}

/// Result documents in `dir`, in file-name order (so run `i` of one side
/// pairs with run `i` of the other), grouped by workload and mode.
fn load_runs(dir: &str) -> Result<BTreeMap<(String, bool), Vec<Json>>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {dir}: {e}"))?
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut runs: BTreeMap<(String, bool), Vec<Json>> = BTreeMap::new();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = benchjson::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?
            .to_owned();
        let traced = doc.get("traced") == Some(&Json::Bool(true));
        runs.entry((workload, traced)).or_default().push(doc);
    }
    Ok(runs)
}

fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|doc| {
            doc.get("metrics")?
                .get(metric)?
                .get("value")
                .and_then(Json::as_num)
        })
        .collect()
}

/// `refbench compare PARENT_DIR CHANGE_DIR [--bench BENCHMARK.json]`:
/// prints one row per workload × metric; `Ok(false)` when any metric
/// regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (dirs, bench) = split_bench_flag(args)?;
    let [parent_dir, change_dir] = dirs[..] else {
        return Err("compare needs PARENT_DIR and CHANGE_DIR".into());
    };
    let declaration = Declaration::load(&bench)?;
    let (parent, change) = (load_runs(parent_dir)?, load_runs(change_dir)?);
    println!(
        "{:<24} {:<32} {:>34} {:>34} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut regressed = false;
    for ((workload, traced), parent_runs) in &parent {
        let Some(change_runs) = change.get(&(workload.clone(), *traced)) else {
            println!(
                "{workload:<24} no {} change runs",
                if *traced { "traced" } else { "untraced" }
            );
            continue;
        };
        for declared in declaration.metrics(*traced) {
            let (p, c) = (
                values(parent_runs, &declared.name),
                values(change_runs, &declared.name),
            );
            if p.is_empty() || c.is_empty() {
                println!("{workload:<24} {:<32} missing", declared.name);
                continue;
            }
            let cmp = compare(&p, &c, declared);
            regressed |= cmp.call == Call::Regressed;
            let side = |(m, q1, q3): (f64, f64, f64)| format!("{m:.4} [{q1:.4}, {q3:.4}]");
            println!(
                "{workload:<24} {:<32} {:>34} {:>34} {:>3}/{:<3}  {}",
                declared.name,
                side(cmp.parent),
                side(cmp.change),
                cmp.wins,
                cmp.pairs,
                cmp.call.word()
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(higher_is_better: bool, bound: Option<f64>) -> Declared {
        Declared {
            name: "m".into(),
            unit: "1/s".into(),
            higher_is_better,
            bound,
        }
    }

    const PARENT: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
    ];

    #[test]
    fn a_clear_win_in_every_pair_is_improved() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.08).collect();
        let cmp = compare(&PARENT, &change, &declared(true, Some(0.05)));
        assert_eq!((cmp.wins, cmp.pairs, cmp.call), (10, 10, Call::Improved));
    }

    #[test]
    fn noise_within_the_bound_is_no_change() {
        let change: Vec<f64> = PARENT.iter().rev().copied().collect();
        let cmp = compare(&PARENT, &change, &declared(true, Some(0.05)));
        assert_eq!(cmp.call, Call::NoChange);
        assert_eq!(cmp.parent.0, cmp.change.0);
    }

    #[test]
    fn a_loss_beyond_the_bound_regresses_in_either_direction() {
        let slower: Vec<f64> = PARENT.iter().map(|v| v * 0.9).collect();
        assert_eq!(
            compare(&PARENT, &slower, &declared(true, Some(0.05))).call,
            Call::Regressed
        );
        // For a lower-is-better metric the same numbers are a gain.
        assert_eq!(
            compare(&PARENT, &slower, &declared(false, Some(0.05))).call,
            Call::Improved
        );
    }

    #[test]
    fn eight_wins_in_ten_is_not_a_gain() {
        let mut change: Vec<f64> = PARENT.iter().map(|v| v * 1.08).collect();
        change[0] = 90.0;
        change[1] = 90.0;
        let cmp = compare(&PARENT, &change, &declared(true, Some(0.05)));
        assert_eq!((cmp.wins, cmp.call), (8, Call::NoChange));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        let change: Vec<f64> = noisy.iter().map(|v| v * 0.97).collect();
        assert_eq!(
            compare(&noisy, &change, &declared(true, Some(0.05))).call,
            Call::Unresolved
        );
    }

    #[test]
    fn unbounded_metrics_regress_only_by_the_mirrored_gain_rule() {
        let worse: Vec<f64> = PARENT.iter().map(|v| v * 0.9).collect();
        assert_eq!(
            compare(&PARENT, &worse, &declared(true, None)).call,
            Call::Regressed
        );
        let noise: Vec<f64> = PARENT.iter().map(|v| v * 0.999).collect();
        assert_eq!(
            compare(&PARENT, &noise, &declared(true, None)).call,
            Call::NoChange
        );
    }
}
