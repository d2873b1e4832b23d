//! `refbench check`: validates result documents (written by `--out`)
//! against the metrics `BENCHMARK.json` declares.

use refstate_bench::benchjson::{self, Json};

use crate::outcome::{CHECKS, NEAREST_RANK};

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `"better": "higher"`.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` a result is checked against.
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<Declared>,
    /// Metrics of a traced run.
    pub per_layer: Vec<Declared>,
}

impl Declaration {
    /// Parses the text of `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Declaration, String> {
        let doc = benchjson::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
        };
        let metrics = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let text = |field: &str| {
                        m.get(field)
                            .and_then(Json::as_str)
                            .map(str::to_owned)
                            .ok_or_else(|| format!("BENCHMARK.json: a {key} entry lacks {field}"))
                    };
                    Ok(Declared {
                        name: text("name")?,
                        unit: text("unit")?,
                        higher_is_better: text("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_num),
                    })
                })
                .collect()
        };
        Ok(Declaration {
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Reads and parses `path`.
    pub fn load(path: &str) -> Result<Declaration, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Declaration::parse(&text)
    }

    /// The metrics a run of this kind must report.
    pub fn metrics(&self, traced: bool) -> &[Declared] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// `refbench check RESULT... [--bench BENCHMARK.json]`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (files, bench) = split_bench_flag(args)?;
    if files.is_empty() {
        return Err("check needs at least one result file".into());
    }
    let declaration = Declaration::load(&bench)?;
    let mut all_valid = true;
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let problems = match benchjson::parse(&text) {
            Ok(doc) => problems(&declaration, &doc),
            Err(e) => vec![format!("not JSON: {e}")],
        };
        if problems.is_empty() {
            println!("{file}: ok");
        }
        for problem in &problems {
            println!("{file}: {problem}");
        }
        all_valid &= problems.is_empty();
    }
    Ok(all_valid)
}

/// Splits `--bench PATH` (default `BENCHMARK.json`) from positional args.
pub fn split_bench_flag(args: &[String]) -> Result<(Vec<&String>, String), String> {
    let mut positional = Vec::new();
    let mut bench = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bench" {
            bench = it.next().ok_or("--bench needs a path")?.clone();
        } else {
            positional.push(arg);
        }
    }
    Ok((positional, bench))
}

/// Everything wrong with one result document; empty when it is valid.
pub fn problems(declaration: &Declaration, doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let workload = doc.get("workload").and_then(Json::as_str).unwrap_or("");
    if !declaration.workloads.iter().any(|w| w == workload) {
        problems.push(format!("undeclared workload {workload:?}"));
    }
    if doc.get("correct") != Some(&Json::Bool(true)) {
        problems.push("correct is not true".into());
    }
    if doc
        .get("attempted")
        .and_then(Json::as_num)
        .is_none_or(|n| n < 1.0)
    {
        problems.push("attempted is below 1".into());
    }
    if doc.get("failed").and_then(Json::as_num) != Some(0.0) {
        problems.push("failed is not 0".into());
    }
    for check in CHECKS {
        let verdict = doc
            .get("checks")
            .and_then(|c| c.get(check))
            .and_then(Json::as_str);
        let skippable = check == "pinned_digest" && verdict == Some("skip");
        if verdict != Some("pass") && !skippable {
            problems.push(format!("check {check} reads {verdict:?}, not pass"));
        }
    }
    let traced = doc.get("traced") == Some(&Json::Bool(true));
    let declared = declaration.metrics(traced);
    let Some(metrics) = doc.get("metrics").and_then(Json::as_obj) else {
        problems.push("no metrics object".into());
        return problems;
    };
    for name in metrics.keys() {
        if !declared.iter().any(|d| &d.name == name) {
            problems.push(format!("undeclared metric {name}"));
        }
    }
    for d in declared {
        let Some(metric) = metrics.get(&d.name) else {
            problems.push(format!("missing metric {}", d.name));
            continue;
        };
        if !legal_name(&d.name) {
            problems.push(format!("illegal metric name {:?}", d.name));
        }
        let unit = metric.get("unit").and_then(Json::as_str);
        if unit != Some(d.unit.as_str()) {
            problems.push(format!(
                "{} has unit {unit:?}, declared {:?}",
                d.name, d.unit
            ));
        }
        match metric.get("value").and_then(Json::as_num) {
            None => problems.push(format!("{} has no numeric value", d.name)),
            Some(v) if !traced && v <= 0.0 => problems.push(format!(
                "end-to-end metric {} reads {v}, not above 0",
                d.name
            )),
            Some(_) => {}
        }
        let tag = metric.get("quantile").and_then(Json::as_str);
        match (is_quantile(&d.name), tag) {
            (true, Some(NEAREST_RANK)) | (false, None) => {}
            (true, _) => problems.push(format!("quantile {} is not tagged {NEAREST_RANK}", d.name)),
            (false, Some(tag)) => {
                problems.push(format!("{} is not a quantile but tagged {tag}", d.name))
            }
        }
    }
    problems
}

/// Metric names are made of letters, digits, `_`, `.` and `-`.
pub fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `name` names a percentile (a `p50`-style token).
pub fn is_quantile(name: &str) -> bool {
    name.split(['.', '_']).any(|token| {
        token.len() > 1 && token.starts_with('p') && token[1..].chars().all(|c| c.is_ascii_digit())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{
        "workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [
            {"name": "journeys_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "verdict_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
        ],
        "per_layer": [{"name": "crypto.signs", "unit": "count", "better": "lower"}]
    }"#;

    fn doc(metrics: &str, checks: &str) -> Json {
        benchjson::parse(&format!(
            r#"{{"workload": "w", "traced": false, "correct": true, "attempted": 10,
                "failed": 0, "checks": {checks}, "metrics": {metrics}}}"#
        ))
        .expect("test doc parses")
    }

    const PASS: &str = r#"{"drain_invariant": "pass", "pacing_invariance": "pass",
        "no_false_accusations": "pass", "fleet_parity": "pass", "pinned_digest": "skip"}"#;
    const GOOD: &str = r#"{"journeys_per_s": {"value": 812.5, "unit": "1/s"},
        "verdict_p50_ms": {"value": 6.4, "unit": "ms", "quantile": "nearest-rank"}}"#;

    #[test]
    fn a_complete_result_validates() {
        let declaration = Declaration::parse(BENCH).unwrap();
        assert_eq!(
            problems(&declaration, &doc(GOOD, PASS)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn missing_mistagged_and_misunited_metrics_are_reported() {
        let declaration = Declaration::parse(BENCH).unwrap();
        let missing = doc(r#"{"journeys_per_s": {"value": 1.0, "unit": "1/s"}}"#, PASS);
        assert_eq!(
            problems(&declaration, &missing),
            vec!["missing metric verdict_p50_ms"]
        );
        let untagged = doc(
            r#"{"journeys_per_s": {"value": 1.0, "unit": "s"},
                "verdict_p50_ms": {"value": 6.4, "unit": "ms"}}"#,
            PASS,
        );
        let found = problems(&declaration, &untagged);
        assert!(
            found.iter().any(|p| p.contains("unit Some(\"s\")")),
            "{found:?}"
        );
        assert!(
            found.iter().any(|p| p.contains("is not tagged")),
            "{found:?}"
        );
        let zero = doc(
            r#"{"journeys_per_s": {"value": 0.0, "unit": "1/s"},
                "verdict_p50_ms": {"value": 6.4, "unit": "ms", "quantile": "log-linear"},
                "extra": {"value": 1.0, "unit": "s"}}"#,
            PASS,
        );
        let found = problems(&declaration, &zero);
        assert!(found.iter().any(|p| p.contains("not above 0")), "{found:?}");
        assert!(
            found.iter().any(|p| p.contains("is not tagged")),
            "{found:?}"
        );
        assert!(
            found.iter().any(|p| p == "undeclared metric extra"),
            "{found:?}"
        );
    }

    #[test]
    fn every_correctness_check_must_pass() {
        let declaration = Declaration::parse(BENCH).unwrap();
        let failed = PASS.replace(r#""fleet_parity": "pass""#, r#""fleet_parity": "fail""#);
        assert_eq!(
            problems(&declaration, &doc(GOOD, &failed)),
            vec!["check fleet_parity reads Some(\"fail\"), not pass"]
        );
        let skipped = PASS.replace(
            r#""drain_invariant": "pass""#,
            r#""drain_invariant": "skip""#,
        );
        assert_eq!(problems(&declaration, &doc(GOOD, &skipped)).len(), 1);
    }

    #[test]
    fn traced_results_are_held_to_the_per_layer_list() {
        let declaration = Declaration::parse(BENCH).unwrap();
        let traced = benchjson::parse(&format!(
            r#"{{"workload": "w", "traced": true, "correct": true, "attempted": 1, "failed": 0,
                "checks": {PASS}, "metrics": {{"crypto.signs": {{"value": 0.0, "unit": "count"}}}}}}"#
        ))
        .unwrap();
        assert_eq!(problems(&declaration, &traced), Vec::<String>::new());
    }

    #[test]
    fn names_and_quantile_tokens() {
        assert!(legal_name("serve.admit_us.p50"));
        assert!(!legal_name("bad name"));
        assert!(!legal_name(""));
        assert!(is_quantile("verdict_p90_ms"));
        assert!(is_quantile("serve.admit_us.p99"));
        assert!(!is_quantile("journeys_per_s"));
        assert!(!is_quantile("setup_s"));
    }
}
