//! `ks-bench` argument handling: every malformed invocation prints the
//! usage and exits 2, before any work runs and without a panic; a
//! closed stdout keeps a run's exit status.

use std::process::{Command, Stdio};

fn ks_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ks-bench"))
        .args(args)
        .output()
        .expect("ks-bench runs")
}

#[test]
fn malformed_invocations_print_usage_and_exit_2() {
    for args in [
        &[][..],
        &["frobnicate"],
        &["pool", "--sed", "7"],
        &["pool", "--seed"],
        &["tune", "--seed", "x"],
        &["chaos", "--seed", "-1"],
        &["pool", "--devices", "1"],
        &["replay", "--threads", "0"],
        &["pool", "--queries", "0"],
        &["pack", "--queries", "0"],
        &["chaos", "--queries", "0"],
        &["chaos-pool", "--queries", "0"],
        &["sweep", "--bogus"],
        &["ablations", "--smoke"],
    ] {
        let out = ks_bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: ks-bench <command> [flags]"),
            "{args:?} printed no usage: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before failing");
    }
}

#[test]
fn a_two_device_pool_reaches_a_verdict_without_panicking() {
    // The degraded pass faults device 2 of a larger pool and the last
    // device of a pool of two.
    let out = ks_bench(&["pool", "--smoke", "--queries", "1", "--devices", "2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("serving with device 1 permanently faulted"),
        "{stderr}"
    );
    assert!(matches!(out.status.code(), Some(0 | 1)), "{stderr}");
}

/// A closed stdout (a reader that exited early, as `| head -0` does)
/// drops the printed exhibits: the sweep exits as it does with stdout
/// on `/dev/null`, and nothing panics.
#[test]
fn a_closed_stdout_keeps_the_exit_status_and_never_panics() {
    let args = ["sweep", "--smoke"];
    let to_null = Command::new(env!("CARGO_BIN_EXE_ks-bench"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("ks-bench runs");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ks-bench"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ks-bench runs");
    drop(child.stdout.take());
    let closed = child.wait_with_output().expect("ks-bench runs");
    let stderr = String::from_utf8_lossy(&closed.stderr);
    assert_eq!(closed.status.code(), to_null.code(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
