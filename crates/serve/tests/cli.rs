//! The `serve` binary's argument checks: a size that must be positive is a
//! usage error (exit 2, one line on stderr), not a panic from a library
//! assert; and the telemetry files it writes once the service shuts down.

use std::process::Command;

use refstate_telemetry::json::{parse, Json};

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .output()
        .expect("the serve binary runs")
        .status
        .code()
}

#[test]
fn zero_sizes_are_usage_errors() {
    for args in [
        &["--soak", "--owners", "0"][..],
        &["--soak", "--tick-every", "0"],
        &["--soak", "--queue-capacity", "0"],
        &["--soak", "--key-pool", "0"],
        &["--soak", "--connections", "0"],
        &["--listen", "127.0.0.1:0", "--key-pool", "0"],
    ] {
        assert_eq!(exit_code(args), Some(2), "serve {}", args.join(" "));
    }
}

#[test]
fn telemetry_exports_follow_the_level_rules() {
    const FULL: &str = "--trace-out requires --telemetry full";
    const COUNTERS: &str = "--metrics-out requires --telemetry counters or full";
    const SERVER: &str = "telemetry lives in the server";
    for (args, reason) in [
        (&["--soak", "--trace-out", "t.json"][..], FULL),
        (
            &["--soak", "--telemetry", "counters", "--trace-out", "t.json"],
            FULL,
        ),
        (&["--soak", "--metrics-out", "m.jsonl"], COUNTERS),
        (&["--listen", "127.0.0.1:0", "--trace-out", "t.json"], FULL),
        (
            &[
                "--soak",
                "--connect",
                "127.0.0.1:9",
                "--telemetry",
                "full",
                "--metrics-out",
                "m.jsonl",
            ],
            SERVER,
        ),
        (
            &[
                "--soak",
                "--connect",
                "127.0.0.1:9",
                "--telemetry",
                "full",
                "--trace-out",
                "t.json",
            ],
            SERVER,
        ),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .output()
            .expect("the serve binary runs");
        assert_eq!(output.status.code(), Some(2), "serve {}", args.join(" "));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(reason),
            "serve {}: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn in_process_soak_writes_its_metrics_and_trace() {
    let dir = std::env::temp_dir().join(format!("refstate-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.jsonl");
    let trace = dir.join("trace.json");
    let status = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--soak",
            "--owners",
            "2",
            "--journeys",
            "16",
            "--seed",
            "42",
        ])
        .args(["--preset", "mixed", "--mechanism", "protocol"])
        .args(["--telemetry", "full", "--metrics-out"])
        .arg(&metrics)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .expect("the serve binary runs")
        .status;
    assert!(status.success());

    let metrics = std::fs::read_to_string(&metrics).unwrap();
    let lines: Vec<Json> = metrics.lines().map(|l| parse(l).unwrap()).collect();
    assert!(lines.iter().any(|line| {
        line.get("type").and_then(Json::as_str) == Some("histogram")
            && line.get("name").and_then(Json::as_str) == Some("serve.tick")
    }));
    let trace = parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let journeys = trace
        .as_arr()
        .unwrap()
        .iter()
        .filter(|event| event.get("name").and_then(Json::as_str) == Some("journey"))
        .count();
    assert_eq!(journeys, 16, "one journey span per submitted journey");
    std::fs::remove_dir_all(&dir).unwrap();
}
