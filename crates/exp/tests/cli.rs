//! The `ckpt-exp` binary's argument handling, driven as a process.

use std::process::Command;

fn ckpt_exp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ckpt-exp")).args(args).output().expect("spawn ckpt-exp")
}

#[test]
fn run_help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = ckpt_exp(&["run", flag]);
        assert_eq!(out.status.code(), Some(0), "run {flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: ckpt-exp run"), "run {flag} printed {stdout:?}");
        assert!(stdout.contains("--study-root"));
    }
}

#[test]
fn run_with_an_unknown_flag_exits_two_with_usage() {
    let out = ckpt_exp(&["run", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown `run` argument --no-such-flag"), "{stderr}");
    assert!(stderr.contains("usage: ckpt-exp run"), "{stderr}");
}
