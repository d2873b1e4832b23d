//! The `serve` binary's argument checks: a size that must be positive is a
//! usage error (exit 2, one line on stderr), not a panic from a library
//! assert; a state dir the service cannot open exits 1 with one line, not
//! a panic; the telemetry files it writes once the service shuts down;
//! and a listening server that outlives running out of file descriptors,
//! or a torn stream append.

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

/// Runs the binary with backtraces on, so a panic shows on stderr: the
/// exit code and stderr.
fn run_with_backtrace(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("the serve binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.code(), stderr)
}

#[test]
fn a_state_dir_the_service_cannot_open_exits_1_with_one_line() {
    let dir = std::env::temp_dir().join(format!("refstate-serve-cli-dir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("file");
    std::fs::write(&file, b"").unwrap();
    let file = file.to_str().expect("a UTF-8 temp path");
    let state = dir.join("state");
    let state = state.to_str().expect("a UTF-8 temp path");
    let soak = |seed| {
        run_with_backtrace(&[
            "--soak",
            "--owners",
            "1",
            "--journeys",
            "2",
            "--seed",
            seed,
            "--state-dir",
            state,
        ])
    };
    assert_eq!(soak("42").0, Some(0), "the first soak creates the dir");

    let reseeded = soak("43");
    assert!(reseeded.1.contains("seed 42, not 43"), "{}", reseeded.1);
    let on_a_file = run_with_backtrace(&["--listen", "127.0.0.1:0", "--state-dir", file]);
    for (case, (code, stderr)) in [("another seed", reseeded), ("a regular file", on_a_file)] {
        assert_eq!(code, Some(1), "{case}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{case}: {stderr}");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The single-connection baseline would reopen the history the measured
/// run just wrote, and find its owners already registered.
#[test]
fn compare_single_on_a_state_dir_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("refstate-serve-cli-cmp-{}", std::process::id()));
    let (code, stderr) = run_with_backtrace(&[
        "--soak",
        "--owners",
        "1",
        "--journeys",
        "2",
        "--compare-single",
        "--state-dir",
        dir.to_str().expect("a UTF-8 temp path"),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--compare-single"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
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

/// A `serve --listen 127.0.0.1:0 ARGS` server started by `sh -c` after
/// `limits` (shell commands), killed if a test fails before it exits.
#[cfg(unix)]
struct Listening {
    child: std::process::Child,
    /// Kept open until the server exits, so its last stderr line has a
    /// reader.
    _stderr: std::io::BufReader<std::process::ChildStderr>,
    addr: String,
}

#[cfg(unix)]
impl Listening {
    fn start(limits: &str, args: &[&str]) -> Listening {
        use std::io::BufRead;

        let mut child = Command::new("sh")
            .arg("-c")
            .arg(format!(
                r#"{limits} && exec "$0" --listen 127.0.0.1:0 "$@""#
            ))
            .arg(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("sh runs");
        let mut stderr = std::io::BufReader::new(child.stderr.take().expect("piped stderr"));
        let addr = loop {
            let mut line = String::new();
            assert!(
                stderr.read_line(&mut line).expect("server stderr") > 0,
                "the server exited before serving"
            );
            if let Some(addr) = line.trim().strip_prefix("serving on ") {
                break addr.to_owned();
            }
        };
        Listening {
            child,
            _stderr: stderr,
            addr,
        }
    }
}

#[cfg(unix)]
impl Drop for Listening {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A `--listen` server whose connections exhaust its file descriptors
/// keeps accepting once they close: the flood neither stops the server
/// nor makes it refuse the next client, and only `Shutdown` ends it.
#[cfg(unix)]
#[test]
fn listening_server_survives_running_out_of_file_descriptors() {
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    use refstate_serve::{PipelinedClient, Request, Response};

    let mut server = Listening::start("ulimit -n 32", &[]);
    let addr = server.addr.clone();

    let flood: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(&addr).expect("flood connect"))
        .collect();
    drop(flood);

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        if let Ok(mut client) = PipelinedClient::connect(&addr) {
            client.send(&Request::Health).expect("queue Health");
            if let Ok(Response::Health(_)) = client.recv() {
                break client;
            }
        }
        assert!(
            Instant::now() < deadline,
            "no Health reply 10 s after the flood"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    client.send(&Request::Shutdown).expect("send shutdown");
    assert!(matches!(
        client.recv().expect("shutdown reply"),
        Response::ShuttingDown { .. }
    ));
    drop(client);
    let status = server.child.wait().expect("server exits");
    assert!(status.success(), "{status}");
}

/// A `--state-dir` server on a full disk (a file-size limit tears a
/// stream append) still answers the owner whose tick failed: `Health`,
/// `Drain`, `StreamState` and `Stats` each get a reply on a fresh
/// connection. Which journeys survive the failed write is not pinned.
#[cfg(unix)]
#[test]
fn listening_server_answers_an_owner_whose_stream_append_tore() {
    use refstate_serve::{PipelinedClient, RegisterOwner, Request, Response};

    let dir = std::env::temp_dir().join(format!("refstate-serve-cli-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = dir.to_str().expect("a UTF-8 temp path");
    let server = Listening::start(
        r#"trap "" XFSZ && ulimit -f 16"#,
        &["--tick-driver", "off", "--state-dir", state],
    );
    let owner = || "alice".to_owned();
    let mut client = PipelinedClient::connect(&server.addr).expect("connect");
    let mut ask = |request: &Request| {
        client.send(request).expect("queue request");
        client.recv()
    };
    let registered = ask(&Request::Register(RegisterOwner {
        owner: owner(),
        seed: 7,
        preset: "mixed".into(),
        mechanism: "framework".into(),
    }));
    assert!(matches!(registered, Ok(Response::Registered { .. })));
    let torn = (0..10_000u64).find(|&journey| {
        let submitted = ask(&Request::Submit {
            owner: owner(),
            journey,
        });
        assert!(matches!(submitted, Ok(Response::Accepted { .. })));
        let Ok(Response::Ticked { settled: 1 }) = ask(&Request::Tick) else {
            return true;
        };
        let drained = ask(&Request::Drain { owner: owner() });
        assert!(matches!(drained, Ok(Response::Verdicts(v)) if v.len() == 1));
        false
    });
    assert!(torn.is_some(), "no tick failed in 10 000 journeys");

    for request in [
        Request::Health,
        Request::Drain { owner: owner() },
        Request::StreamState,
        Request::Stats { owner: owner() },
    ] {
        let mut client = PipelinedClient::connect(&server.addr).expect("connect");
        client.send(&request).expect("queue request");
        let reply = client.recv();
        let answered = matches!(
            (&request, &reply),
            (Request::Health, Ok(Response::Health(_)))
                | (Request::Drain { .. }, Ok(Response::Verdicts(_)))
                | (Request::StreamState, Ok(Response::StreamState { .. }))
                | (Request::Stats { .. }, Ok(Response::Stats(_)))
        );
        assert!(
            answered,
            "{request:?} after journey {torn:?} tore: {reply:?}"
        );
    }
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}
