//! The `fleet` binary's argument checks: a malformed or unknown flag is a
//! usage error (exit 2), including the retired replay-cache switches.

use std::process::Command;

#[test]
fn bad_flags_are_usage_errors() {
    for args in [
        &["--replay-cache"][..],
        &["--no-replay-cache"],
        &["--preset", "nope"],
        &["--scenarios", "abc"],
        &["--json-only", "--no-json"],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_fleet"))
            .args(args)
            .output()
            .expect("the fleet binary runs")
            .status;
        assert_eq!(status.code(), Some(2), "fleet {}", args.join(" "));
    }
}
