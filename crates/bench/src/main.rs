//! `ks-bench` — the experiment harness's one command line.
//!
//! ```text
//! ks-bench <command> [flags]
//! ```
//!
//! `sweep` profiles the paper's (K, M) grid once and prints every §V
//! exhibit; the studies (`ablations`, `sensitivity`, `projection`,
//! `device-study`) go beyond the paper's tables; the gates (`replay`,
//! `pool`, `pack`, `tune`, `chaos`, `chaos-pool`) each write one
//! `BENCH_*.json` document and fail the run when a gate does not hold.
//! See [`USAGE`] for every command's flags.

use std::process::ExitCode;

use ks_bench::cli::{write_all, Flags, UsageError};
use ks_bench::{exhibits, profile_or_exit, Sweep, SweepMetrics};

mod gates;
mod studies;

const USAGE: &str = "usage: ks-bench <command> [flags]
  sweep        [--smoke | --full] [--json PATH] [--csv [PATH]]
               (every paper exhibit, Tables I-III and Figs 1-9, from one
                profiled sweep: default M <= 65536, --full the paper's
                M <= 524288, --smoke CI-sized; --json writes the
                BENCH_sweep.json document, --csv PATH the per-launch
                CSV, a bare --csv prints the tables as CSV)
  ablations    [--json PATH] [--csv PATH]
               (the §III design-choice ablations)
  sensitivity  [--json PATH] [--csv PATH]
               (the paper's claims under perturbed timing constants)
  projection   [--smoke | --full]
               (the §V 3.7x projection, run with a vendor-quality GEMM)
  device-study
               (fused vs cuBLAS-Unfused on a GTX980 and L2-size variants)
  replay       [--smoke] [--gate X] [--json PATH]
               (serial vs memoized trace replay; counters must match and
                the largest point must reach X times serial speed)
  pool         [--smoke] [--devices N] [--queries N] [--seed S] [--json PATH]
               (1- vs N-device pooled serving, N >= 2, default 4)
  pack         [--smoke] [--queries N] [--seed S] [--json PATH]
               (horizontally fused vs back-to-back small batches)
  tune         [--smoke] [--seed S] [--json PATH]
               (autotuner fit quality and replay-validated picks)
  chaos        [--smoke] [--queries N] [--seed S] [--json PATH]
               (seeded fault-injection soak of resilient serving)
  chaos-pool   [--smoke] [--queries N] [--seed S] [--json PATH]
               (lifecycle and link-fault soak of the device pool)
exit status: 0 every gate held; 1 a gate failed or a document could not
be written; 2 a malformed invocation";

/// Profiles the sweep once and prints every exhibit from the shared
/// data. `--json PATH` writes the canonical `BENCH_sweep.json` (the
/// document the perf-regression harness diffs against its golden),
/// `--csv PATH` the nvprof-style CSV with one row per kernel launch,
/// and a bare `--csv` prints the tables as CSV instead of aligned
/// text.
fn sweep(args: &[String]) -> Result<ExitCode, UsageError> {
    let flags = Flags::parse(args, &["--smoke", "--full", "--csv"], &["--json", "--csv"])?;
    let csv = flags.has("--csv") && flags.opt("--csv").is_none();
    let sweep = Sweep::from_flags(&flags);
    eprintln!("profiling {} (K, M) points ...", sweep.len());
    let d = profile_or_exit(sweep);
    let metrics = SweepMetrics::collect(&d);
    let written = write_all(&[
        (flags.opt("--json"), metrics.to_json()),
        (flags.opt("--csv"), metrics.to_csv()),
    ]);
    for (title, table) in [
        (
            "Table I: Configuration (simulated GTX970)",
            exhibits::table1_config(&d.device),
        ),
        (
            "Fig 1: Energy breakdown of cuBLAS-Unfused kernel summation (N=1024)",
            exhibits::fig1_energy_breakdown(&d),
        ),
        (
            "Fig 2: L2 MPKI of cuBLAS-Unfused kernel summation (N=1024)",
            exhibits::fig2_l2_mpki(&d),
        ),
        (
            "Fig 6: Execution time and speedup of fused kernel summation",
            exhibits::fig6_speedup(&d),
        ),
        (
            "Fig 7: CUDA-C GEMM vs vendor GEMM execution time",
            exhibits::fig7_gemm_compare(&d),
        ),
        (
            "Fig 8a: L2 transactions normalised to cuBLAS-Unfused",
            exhibits::fig8a_l2_transactions(&d),
        ),
        (
            "Fig 8b: DRAM transactions normalised to cuBLAS-Unfused",
            exhibits::fig8b_dram_transactions(&d),
        ),
        (
            "Fig 9: Energy breakdown (Compute / SMEM / L2 / DRAM)",
            exhibits::fig9_energy_compare(&d),
        ),
        (
            "§V-C detail: DRAM energy savings of Fused vs cuBLAS-Unfused",
            exhibits::dram_energy_savings(&d),
        ),
        (
            "Table II: FLOP Efficiency",
            exhibits::table2_flop_efficiency(&d),
        ),
        (
            "Table III: Energy Savings of Fused compared to cuBLAS-Unfused",
            exhibits::table3_energy_savings(&d),
        ),
    ] {
        table.print(title, csv);
    }
    Ok(written)
}

/// Runs the command named by the first argument on the rest.
fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(UsageError("no command given".into()));
    };
    let command: fn(&[String]) -> Result<ExitCode, UsageError> = match command.as_str() {
        "sweep" => sweep,
        "ablations" => studies::ablations::run,
        "sensitivity" => studies::sensitivity::run,
        "projection" => studies::projection::run,
        "device-study" => studies::device_study::run,
        "replay" => gates::replay::run,
        "pool" => gates::pool::run,
        "pack" => gates::pack::run,
        "tune" => gates::tune::run,
        "chaos" => gates::chaos::run,
        "chaos-pool" => gates::chaos_pool::run,
        other => return Err(UsageError(format!("unknown command {other}"))),
    };
    command(rest)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|e| {
        eprintln!("error: {}", e.0);
        eprintln!("{USAGE}");
        ExitCode::from(2)
    })
}
