//! Black-box tests of the `ksum` binary's argument handling: malformed
//! invocations must print the usage to stderr and exit with status 2
//! (never panic), `serve-bench --json` must emit a parseable
//! `ServeMetrics` document that repeats byte for byte between runs, and
//! a closed stdout or stderr must not turn a run into a panic.

use std::process::{Command, Output, Stdio};

use kernel_summation::bench::ServeMetrics;

fn ksum(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ksum"))
        .args(args)
        .output()
        .expect("ksum binary runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "expected exit 2, got {:?}; stderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("usage: ksum"),
        "stderr must show the usage; got: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "stderr must name the problem ({needle}); got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "argument errors must not panic; got: {stderr}"
    );
}

#[test]
fn no_command_prints_usage_and_exits_2() {
    let out = ksum(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: ksum"));
}

#[test]
fn unknown_command_is_a_usage_error() {
    assert_usage_error(&ksum(&["frobnicate"]), "unknown command frobnicate");
}

/// Each command's valued flags, and which of them take a number.
const VALUED_FLAGS: [(&str, &[&str], &[&str]); 6] = [
    ("solve", PROBLEM_FLAGS, PROBLEM_NUMBERS),
    ("profile", PROBLEM_FLAGS, PROBLEM_NUMBERS),
    ("compare", PROBLEM_FLAGS, PROBLEM_NUMBERS),
    ("lint", &["--out", "--json", "--agreement", "--kernel"], &[]),
    (
        "serve-bench",
        &[
            "--clients",
            "--queries",
            "--corpora",
            "--shared-ratio",
            "--large-ratio",
            "--m",
            "--n",
            "--k",
            "--h",
            "--seed",
            "--devices",
            "--wave",
            "--backend",
            "--lifecycle-faults",
            "--link-faults",
            "--energy-budget",
            "--json",
            "--threads",
            "--faults",
        ],
        &[
            "--clients",
            "--queries",
            "--corpora",
            "--shared-ratio",
            "--large-ratio",
            "--m",
            "--n",
            "--k",
            "--h",
            "--seed",
            "--devices",
            "--wave",
            "--energy-budget",
            "--threads",
        ],
    ),
    ("tune", &["--seed", "--json"], &["--seed"]),
];
const PROBLEM_FLAGS: &[&str] = &[
    "--m",
    "--n",
    "--k",
    "--h",
    "--seed",
    "--backend",
    "--variant",
];
const PROBLEM_NUMBERS: &[&str] = &["--m", "--n", "--k", "--h", "--seed"];

#[test]
fn every_valued_flag_without_a_value_or_with_a_non_number_is_a_usage_error() {
    for (command, valued, numeric) in VALUED_FLAGS {
        for flag in valued {
            // Last on the line, and followed by another flag.
            for args in [vec![command, flag], vec![command, flag, "--smoke"]] {
                let out = ksum(&args);
                assert_usage_error(&out, &format!("missing value for {flag}"));
                assert!(out.stdout.is_empty(), "{args:?} ran before failing");
            }
        }
        for flag in numeric {
            let args = [command, flag, "x"];
            let out = ksum(&args);
            assert_usage_error(&out, &format!("invalid value for {flag}: x"));
            assert!(out.stdout.is_empty(), "{args:?} ran before failing");
        }
    }
}

#[test]
fn a_value_never_starts_with_two_dashes_and_strays_are_named() {
    assert_usage_error(
        &ksum(&["lint", "--json", "--static"]),
        "missing value for --json",
    );
    assert_usage_error(
        &ksum(&["solve", "--m", "64", "stray"]),
        "unexpected argument stray",
    );
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&ksum(&["solve", "--bogus", "1"]), "unknown flag --bogus");
}

#[test]
fn unknown_backend_is_a_usage_error() {
    assert_usage_error(&ksum(&["solve", "--backend", "tpu"]), "unknown backend tpu");
}

#[test]
fn unknown_variant_is_a_usage_error() {
    assert_usage_error(
        &ksum(&["profile", "--variant", "nope"]),
        "unknown variant nope",
    );
}

#[test]
fn missing_and_malformed_values_are_usage_errors() {
    assert_usage_error(&ksum(&["solve", "--m"]), "missing value for --m");
    assert_usage_error(
        &ksum(&["solve", "--m", "many"]),
        "invalid value for --m: many",
    );
}

#[test]
fn out_of_range_numeric_flags_are_usage_errors() {
    // (arguments, what the error message must name)
    let mut cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["profile", "--m", "100"], "paper tiling"),
        (vec!["profile", "--k", "7"], "paper tiling"),
        (vec!["profile", "--m", "0"], "paper tiling"),
        (vec!["compare", "--n", "100"], "paper tiling"),
        (vec!["profile", "--h", "0"], "--h"),
        (vec!["solve", "--k", "0"], "--k"),
        (
            vec!["solve", "--m", "0", "--backend", "gpu-cublas-unfused"],
            "--m",
        ),
        (vec!["--faults", "smem=1e18", "solve"], "smem rate"),
        (vec!["--faults", "smem=1e18", "profile"], "smem rate"),
        (
            vec!["--faults", "smem=1e18", "serve-bench", "--smoke"],
            "smem rate",
        ),
    ];
    for backend in [
        "cpu-fused",
        "cpu-unfused",
        "reference",
        "gpu-fused",
        "gpu-cuda-unfused",
        "gpu-cublas-unfused",
    ] {
        for h in ["0", "-1", "inf"] {
            cases.push((vec!["solve", "--h", h, "--backend", backend], "--h"));
        }
    }
    for (flag, value) in [
        ("--h", "0"),
        ("--k", "0"),
        ("--m", "0"),
        ("--n", "0"),
        ("--clients", "0"),
        ("--queries", "0"),
        ("--corpora", "0"),
        ("--wave", "0"),
        ("--shared-ratio", "2"),
    ] {
        cases.push((vec!["serve-bench", "--smoke", flag, value], flag));
    }
    for (args, needle) in &cases {
        let out = ksum(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_usage_error(&out, needle);
    }
}

#[test]
fn serve_bench_rejects_unknown_backends_too() {
    assert_usage_error(
        &ksum(&["serve-bench", "--backend", "fpga"]),
        "unknown serve backend fpga",
    );
}

#[test]
fn threads_flag_rejects_missing_zero_and_malformed_values() {
    assert_usage_error(
        &ksum(&["solve", "--threads"]),
        "missing value for --threads",
    );
    assert_usage_error(
        &ksum(&["--threads", "0", "solve"]),
        "--threads must be >= 1",
    );
    assert_usage_error(
        &ksum(&["--threads", "lots", "solve"]),
        "invalid value for --threads: lots",
    );
}

#[test]
fn threads_flag_is_accepted_anywhere_on_the_command_line() {
    for args in [
        &[
            "--threads",
            "2",
            "solve",
            "--m",
            "64",
            "--n",
            "32",
            "--k",
            "4",
        ][..],
        &[
            "solve",
            "--m",
            "64",
            "--n",
            "32",
            "--k",
            "4",
            "--threads",
            "2",
        ][..],
    ] {
        let out = ksum(args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn faults_flag_rejects_missing_and_malformed_specs() {
    assert_usage_error(&ksum(&["solve", "--faults"]), "missing value for --faults");
    assert_usage_error(
        &ksum(&["--faults", "bogus=1", "solve"]),
        "invalid --faults spec",
    );
    assert_usage_error(
        &ksum(&["--faults", "sm=2", "solve"]),
        "sm probability must be <= 1",
    );
}

#[test]
fn faulty_solve_reports_injected_flips_and_succeeds() {
    let out = ksum(&[
        "--faults",
        "seed=3,smem=2,reg=1",
        "solve",
        "--m",
        "256",
        "--n",
        "256",
        "--k",
        "16",
        "--backend",
        "gpu-fused",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("injected faults:"), "stdout: {stdout}");
}

#[test]
fn injected_launch_fault_fails_with_runtime_error_not_panic() {
    let out = ksum(&[
        "--faults",
        "sm=1",
        "profile",
        "--m",
        "1024",
        "--n",
        "1024",
        "--k",
        "32",
        "--variant",
        "fused",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "launch faults are runtime errors"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("launch failed"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        !stderr.contains("usage: ksum"),
        "runtime failures must not print usage; stderr: {stderr}"
    );
}

#[test]
fn solve_succeeds_on_a_tiny_problem() {
    // The gpu-sim backends take the Gaussian's bandwidth as given, so a
    // bandwidth whose kernel value at d² = 1 underflows (0.05) or
    // rounds to 1 (5000) solves too.
    let mut cases = vec![vec!["--backend", "cpu-fused"]];
    for backend in ["gpu-fused", "gpu-cuda-unfused", "gpu-cublas-unfused"] {
        for h in ["0.05", "5000"] {
            cases.push(vec!["--backend", backend, "--h", h]);
        }
    }
    for case in cases {
        let mut args = vec!["solve", "--m", "64", "--n", "32", "--k", "4"];
        args.extend(&case);
        let out = ksum(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{case:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("done in"));
    }
}

#[test]
fn lint_unknown_flag_keeps_the_exit_2_convention() {
    assert_usage_error(&ksum(&["lint", "--bogus", "x"]), "unknown flag --bogus");
    assert_usage_error(&ksum(&["lint", "--kernel"]), "missing value for --kernel");
}

#[test]
fn lint_static_is_clean_and_exports_parseable_json() {
    let dir = std::env::temp_dir().join("ksum_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("lint_static.json");
    let agree = dir.join("agreement.json");
    let out = ksum(&[
        "lint",
        "--static",
        "--json",
        json.to_str().expect("utf-8 temp path"),
        "--agreement",
        agree.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "shipped kernels must lint clean statically; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fused_naive_layout"), "stdout: {stdout}");

    let doc = std::fs::read_to_string(&json).expect("json written");
    let v: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON document");
    let kernels = v.get("kernels").expect("kernels array");
    if let serde_json::Value::Array(ks) = kernels {
        assert!(ks.len() >= 16, "per-kernel summaries exported");
    } else {
        panic!("kernels must be an array");
    }

    let doc = std::fs::read_to_string(&agree).expect("agreement written");
    let v: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON document");
    let serde_json::Value::Array(probes) = v.get("probes").expect("probes array") else {
        panic!("probes must be an array");
    };
    assert!(probes.len() >= 16, "agreement covers the registry");
    std::fs::remove_file(&json).ok();
    std::fs::remove_file(&agree).ok();
}

#[test]
fn lint_kernel_filter_narrows_the_report() {
    let out = ksum(&["lint", "--static", "--kernel", "fused"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 kernel(s)"), "stdout: {stdout}");
    assert!(
        !stdout.contains("fused_naive_layout"),
        "other probes filtered out; stdout: {stdout}"
    );
}

#[test]
fn serve_bench_json_export_parses() {
    let dir = std::env::temp_dir().join("ksum_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("serve_bench.json");
    let out = ksum(&[
        "serve-bench",
        "--clients",
        "2",
        "--queries",
        "6",
        "--m",
        "64",
        "--n",
        "32",
        "--k",
        "8",
        "--backend",
        "cpu-fused",
        "--json",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&path).expect("json written");
    let metrics = ServeMetrics::from_json(&doc).expect("valid ServeMetrics document");
    assert_eq!(metrics.submitted, 12);
    assert_eq!(metrics.completed + metrics.rejected, metrics.submitted);
    assert!(metrics.gpu.is_none(), "cpu-fused backend runs no GPU batch");
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_bench_flags_override_the_smoke_preset_wherever_they_appear() {
    let out = ksum(&[
        "serve-bench",
        "--m",
        "128",
        "--smoke",
        "--backend",
        "cpu-fused",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("48 queries") && stdout.contains("M=128 N=128 K=32"),
        "--smoke sizes the stream, --m 128 its corpora; stdout: {stdout}"
    );
}

#[test]
fn serve_bench_exports_repeat_byte_for_byte() {
    let dir = std::env::temp_dir().join("ksum_cli_test_repeat");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, extra) in [("plain", None), ("packed", Some("--pack"))] {
        let docs: Vec<String> = (0..3)
            .map(|run| {
                let path = dir.join(format!("{name}_{run}.json"));
                let mut args = vec!["serve-bench", "--smoke", "--json"];
                args.push(path.to_str().expect("utf-8 temp path"));
                args.extend(extra);
                let out = ksum(&args);
                assert_eq!(
                    out.status.code(),
                    Some(0),
                    "stderr: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                let doc = std::fs::read_to_string(&path).expect("json written");
                std::fs::remove_file(&path).ok();
                doc
            })
            .collect();
        assert!(
            docs.iter().all(|d| *d == docs[0]),
            "{name} serve-bench exports differ between runs"
        );
        let metrics = ServeMetrics::from_json(&docs[0]).expect("valid ServeMetrics document");
        assert_eq!(metrics.rejected, 0, "a backlog rejects nothing");
        assert_eq!(metrics.queue_high_water, metrics.submitted);
    }
}

#[test]
fn tune_rejects_unknown_flags() {
    assert_usage_error(&ksum(&["tune", "--bogus", "1"]), "unknown flag --bogus");
}

#[test]
fn serve_bench_rejects_a_non_positive_energy_budget() {
    assert_usage_error(
        &ksum(&["serve-bench", "--energy-budget", "-1"]),
        "--energy-budget must be positive",
    );
}

/// Extracts `packed launches N` from the serve-bench counter line.
fn packed_launches(stdout: &str) -> u64 {
    let line = stdout
        .lines()
        .find(|l| l.contains("packed launches"))
        .unwrap_or_else(|| panic!("serve-bench must report packed launches; stdout: {stdout}"));
    line.split("packed launches")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("malformed counter line: {line}"))
}

#[test]
fn serve_bench_pack_fuses_waves_and_no_pack_reports_zero() {
    let base = [
        "serve-bench",
        "--clients",
        "2",
        "--queries",
        "8",
        "--m",
        "256",
        "--n",
        "256",
        "--k",
        "32",
        "--large-ratio",
        "0",
        "--backend",
        "gpu-fused",
    ];
    let mut packed_args: Vec<&str> = base.to_vec();
    packed_args.push("--pack");
    let out = ksum(&packed_args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        packed_launches(&String::from_utf8_lossy(&out.stdout)) > 0,
        "--pack must fuse at least one wave of this stream"
    );

    // --no-pack (and the default) serve back-to-back: zero packed
    // launches, and a later --no-pack overrides an earlier --pack.
    let mut unpacked_args: Vec<&str> = base.to_vec();
    unpacked_args.extend(["--pack", "--no-pack"]);
    let out = ksum(&unpacked_args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        packed_launches(&String::from_utf8_lossy(&out.stdout)),
        0,
        "--no-pack must win over an earlier --pack"
    );
}

#[test]
fn serve_bench_rejects_malformed_pool_fault_specs() {
    assert_usage_error(
        &ksum(&["serve-bench", "--lifecycle-faults"]),
        "missing value for --lifecycle-faults",
    );
    assert_usage_error(
        &ksum(&[
            "serve-bench",
            "--devices",
            "2",
            "--lifecycle-faults",
            "bogus=1",
        ]),
        "invalid --lifecycle-faults spec",
    );
    assert_usage_error(
        &ksum(&[
            "serve-bench",
            "--devices",
            "2",
            "--lifecycle-faults",
            "hang=2",
        ]),
        "hang probability must be <= 1",
    );
    assert_usage_error(
        &ksum(&["serve-bench", "--devices", "2", "--link-faults", "corrupt"]),
        "invalid --link-faults spec",
    );
    // Pool fault specs without a pool are a contradiction, not a no-op.
    assert_usage_error(
        &ksum(&["serve-bench", "--lifecycle-faults", "hang=0.5"]),
        "pass --devices N",
    );
    assert_usage_error(
        &ksum(&["serve-bench", "--link-faults", "corrupt=0.5"]),
        "pass --devices N",
    );
}

#[test]
fn serve_bench_pool_fault_specs_surface_in_the_report() {
    let out = ksum(&[
        "serve-bench",
        "--smoke",
        "--devices",
        "2",
        "--wave",
        "1",
        "--lifecycle-faults",
        "seed=9,hang=1,recover=1",
        "--link-faults",
        "seed=5,corrupt=0.5",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("shed 0"),
        "shed counter line; stdout: {stdout}"
    );
    assert!(
        stdout.contains("hang /") && stdout.contains("evictions"),
        "per-device lifecycle line; stdout: {stdout}"
    );
    assert!(
        stdout.contains("crc detections"),
        "per-device link line; stdout: {stdout}"
    );
}

#[test]
fn serve_bench_reports_energy_per_query() {
    let out = ksum(&[
        "serve-bench",
        "--clients",
        "2",
        "--queries",
        "4",
        "--m",
        "256",
        "--n",
        "64",
        "--k",
        "8",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("uJ/query"),
        "serve-bench must report energy per query; stdout: {stdout}"
    );
}

/// A closed stdout (a reader that exited early, as `| head -0` does)
/// drops the rest of the output: each command exits as it does with
/// stdout on `/dev/null`, and nothing panics. A closed stderr drops
/// the log lines and the usage text the same way.
#[test]
fn a_closed_stdout_keeps_the_exit_status_and_never_panics() {
    let status_on_null = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_ksum"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("ksum binary runs")
    };
    for args in [
        &["solve", "--m", "64", "--n", "32", "--k", "4"][..],
        &["lint", "--static"],
    ] {
        let to_null = status_on_null(args);
        let mut child = Command::new(env!("CARGO_BIN_EXE_ksum"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("ksum binary runs");
        drop(child.stdout.take());
        let closed = child.wait_with_output().expect("ksum binary runs");
        let stderr = String::from_utf8_lossy(&closed.stderr);
        assert_eq!(closed.status.code(), to_null.code(), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
    // The read end is closed before the run starts, so the first
    // write to stderr fails; a panic would exit 101.
    let args = ["frobnicate"];
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let closed = Command::new(env!("CARGO_BIN_EXE_ksum"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("ksum binary runs");
    assert_eq!(closed.code(), Some(2), "{args:?} with stderr closed");
    assert_eq!(closed.code(), status_on_null(&args).code());
}
