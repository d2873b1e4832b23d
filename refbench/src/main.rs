//! `refbench` command line.
//!
//! ```text
//! refbench --workload NAME|all [--seed N] [--seconds N] [--trace 0|1] [--out PATH]
//! refbench check RESULT.json... [--bench BENCHMARK.json]
//! refbench compare PARENT_DIR CHANGE_DIR [--bench BENCHMARK.json]
//! ```
//!
//! A workload run prints one `check NAME pass|fail|skip` line per
//! correctness check, the run's digest, one `name value unit [tag]` line
//! per metric, and last one JSON line with `correct`, `attempted`,
//! `failed` and `metrics`. It exits 1 if a check failed and 2 on a usage
//! error. `--workload all` runs each workload in its own child process
//! (so peak RSS is per workload) and treats `--out` as a directory.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use refbench::workload::{self, Run, Shape, WORKLOADS};
use refbench::{compare, fleet, serve, validate};

const USAGE: &str =
    "usage: refbench --workload NAME|all [--seed N] [--seconds N] [--trace 0|1] [--out PATH]
       refbench check RESULT.json... [--bench BENCHMARK.json]
       refbench compare PARENT_DIR CHANGE_DIR [--bench BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => validate::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => bench(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(usage) => {
            eprintln!("{usage}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload (or every workload, one child each); `Ok(false)`
/// when a correctness check failed.
fn bench(args: &[String]) -> Result<bool, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut out) = (42u64, 10u64, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds takes a positive integer")?
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    if name == "all" {
        return all(seed, seconds, traced, out);
    }
    let workload = workload::find(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let run = Run {
        workload,
        seed,
        seconds,
        traced,
    };
    let outcome = match &workload.shape {
        Shape::Serve(shape) => serve::run(shape, &run),
        Shape::Fleet => fleet::run(&run),
    };
    print!("{}", outcome.lines());
    println!("{}", outcome.result_line());
    if let Some(path) = out {
        std::fs::write(&path, outcome.document() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(outcome.correct())
}

fn all(seed: u64, seconds: u64, traced: bool, out: Option<PathBuf>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut correct = true;
    for workload in &WORKLOADS {
        let mut child = Command::new(&exe);
        child.args(["--workload", workload.name]);
        child.args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ]);
        child.args(["--trace", if traced { "1" } else { "0" }]);
        if let Some(dir) = &out {
            child
                .arg("--out")
                .arg(dir.join(format!("{}.json", workload.name)));
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot run {}: {e}", workload.name))?;
        correct &= status.success();
    }
    Ok(correct)
}
