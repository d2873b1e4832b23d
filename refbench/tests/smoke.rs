//! Runs every workload at its smallest size (`--seconds 1`) through the
//! real binary and validates each result against `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

use refbench::validate::{problems, Declaration};
use refbench::workload::WORKLOADS;
use refstate_bench::benchjson;

fn bench_json() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// One benchmark process at a time: each uses every core, and the serve
/// workloads' open loops must not be starved into refusing submissions.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs one workload in a working directory of its own and returns its
/// stdout and `--out` document.
fn run(workload: &str, seed: u64, trace: &str) -> (String, benchjson::Json) {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{seed}-{trace}"));
    std::fs::create_dir_all(&dir).expect("create the working directory");
    let out = dir.join("result.json");
    let output = Command::new(env!("CARGO_BIN_EXE_refbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", trace, "--out"])
        .arg(&out)
        .output()
        .expect("run refbench");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(output.status.success(), "{workload} seed {seed}:\n{stdout}");
    assert!(
        !dir.join(".refbench-state").exists(),
        "{workload} left its state dirs behind"
    );
    let doc = benchjson::parse(&std::fs::read_to_string(&out).expect("result written"))
        .expect("result parses");
    (stdout, doc)
}

#[test]
fn every_workload_passes_its_checks_and_validates_at_the_pinned_seed() {
    let declaration = Declaration::load(bench_json().to_str().unwrap()).unwrap();
    for workload in &WORKLOADS {
        let (stdout, doc) = run(workload.name, 42, "0");
        assert_eq!(
            problems(&declaration, &doc),
            Vec::<String>::new(),
            "{stdout}"
        );
        assert!(stdout.contains("check pinned_digest pass"), "{stdout}");
        let last: benchjson::Json =
            benchjson::parse(stdout.lines().last().expect("a result line")).unwrap();
        let keys: Vec<&String> = last.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        for metric in &declaration.end_to_end {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(&format!("{} ", metric.name))),
                "{} not printed:\n{stdout}",
                metric.name
            );
        }
    }
}

#[test]
fn traced_runs_at_an_unpinned_seed_report_every_per_layer_metric() {
    let declaration = Declaration::load(bench_json().to_str().unwrap()).unwrap();
    for workload in &WORKLOADS {
        let (stdout, doc) = run(workload.name, 7, "1");
        assert_eq!(
            problems(&declaration, &doc),
            Vec::<String>::new(),
            "{stdout}"
        );
        assert!(stdout.contains("check pinned_digest skip"), "{stdout}");
        assert!(stdout.contains("\ntelemetry.overhead_pct "), "{stdout}");
        // Each workload loads its own layers and leaves the others idle.
        let value = |name: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(name)?.get("value")?.as_num())
                .unwrap_or_else(|| panic!("{name} missing:\n{stdout}"))
        };
        let (busy, idle) = match workload.name {
            "serve-framework-durable" => ("store.restart_s", "crypto.verifies"),
            "fleet-mixed" => ("fleet.busy_frac", "serve.ticks"),
            _ => ("crypto.verifies", "store.bytes"),
        };
        assert!(value(busy) > 0.0, "{} reads 0 on {}", busy, workload.name);
        assert_eq!(value(idle), 0.0, "{} on {}", idle, workload.name);
    }
}
