//! The `serve` binary's argument checks: a size that must be positive is a
//! usage error (exit 2, one line on stderr), not a panic from a library
//! assert.

use std::process::Command;

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
