//! CI gate for the committed bigint perf artifact and the fleet and serve
//! CLIs' exported telemetry artifacts.
//!
//! With no arguments it reads `BENCH_bigint.json` from the workspace root
//! (or the bigint artifacts given positionally), parses it with the
//! in-repo JSON reader, and validates its schema — so a perf artifact
//! that stops being regenerable, or gets hand-edited into an unparseable
//! state, fails the build instead of rotting silently.
//!
//! `--trace PATH`, `--metrics PATH`, and `--slo PATH` instead validate a
//! Chrome `trace_event` JSON file (as written by `fleet --trace-out` or
//! `serve --trace-out`), a metrics JSONL stream (`--metrics-out` of
//! either), and a
//! `refstate-soak-slo-v1` soak artifact (`serve --soak --slo-out`); when
//! any of these flags is given, only the named artifacts are checked.
//!
//! ```text
//! cargo run -p refstate-bench --bin check_bench_json
//! cargo run -p refstate-bench --bin check_bench_json -- BENCH_bigint.json.smoke
//! cargo run -p refstate-bench --bin check_bench_json -- \
//!     --trace trace.json --metrics metrics.jsonl
//! cargo run -p refstate-bench --bin check_bench_json -- --slo slo.json
//! ```

use std::process::ExitCode;

use refstate_bench::benchjson::{
    check_bigint_schema, check_chrome_trace, check_metrics_jsonl, check_slo_schema, parse, Json,
    JsonError,
};

fn workspace_file(name: &str) -> String {
    format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn check_one(path: &str, schema: impl Fn(&Json) -> Result<(), JsonError>) -> Result<(), String> {
    let text = read(path)?;
    let doc = parse(&text).map_err(|e| format!("{path}: parse error {e}"))?;
    schema(&doc).map_err(|e| format!("{path}: schema violation: {e}"))?;
    println!("ok: {path}");
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: check_bench_json [BIGINT_JSON]... \
         [--trace TRACE_JSON] [--metrics METRICS_JSONL] [--slo SLO_JSON]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut trace: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut slo: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => {
                i += 1;
                trace = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--metrics" => {
                i += 1;
                metrics = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--slo" => {
                i += 1;
                slo = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => usage(),
            path => positional.push(path.to_owned()),
        }
        i += 1;
    }

    let mut checks: Vec<Result<(), String>> = Vec::new();
    if let Some(path) = &trace {
        checks.push(check_one(path, check_chrome_trace));
    }
    if let Some(path) = &metrics {
        checks.push(read(path).and_then(|text| {
            check_metrics_jsonl(&text).map_err(|e| format!("{path}: schema violation: {e}"))?;
            println!("ok: {path}");
            Ok(())
        }));
    }
    if let Some(path) = &slo {
        checks.push(check_one(path, check_slo_schema));
    }
    if trace.is_none() && metrics.is_none() && slo.is_none() {
        if positional.is_empty() {
            positional.push(workspace_file("BENCH_bigint.json"));
        }
        for path in &positional {
            checks.push(check_one(path, check_bigint_schema));
        }
    }

    let mut failed = false;
    for result in checks {
        if let Err(message) = result {
            eprintln!("FAIL: {message}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
