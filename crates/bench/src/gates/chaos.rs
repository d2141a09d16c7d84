//! Seeded chaos soak of the resilient serving backend
//! (`BENCH_chaos.json`).
//!
//! Drives a query stream through [`ServeBackend::GpuResilient`] on a
//! device with an *active* fault model — SMEM/register upsets plus
//! launch-level SM losses and watchdog timeouts, all drawn from a
//! fixed seed — and checks every single outcome against the CPU fused
//! reference:
//!
//! * a completion must be bit-identical to the reference (CPU rung) or
//!   within the GPU tolerance (healthy GPU rungs);
//! * anything else must have surfaced as an error on the ticket.
//!
//! A completion outside tolerance with no error is **silently wrong**
//! — the failure mode the ABFT ladder exists to prevent — and fails
//! the soak, as does any inconsistency in the report's retry/breaker/
//! degradation accounting.
//!
//! ```text
//! ks-bench chaos [--smoke] [--queries N] [--seed S] [--json PATH]
//! ```
//!
//! * default stream: 2000 queries; `--smoke`: 500 (CI-sized);
//! * `--seed S`: master seed of the workload and fault schedule
//!   (default 42);
//! * `--json PATH`: write the [`ChaosMetrics`] document.

use std::process::ExitCode;
use std::time::Instant;

use ks_bench::cli::{Flags, Gates, UsageError};
use ks_bench::metrics::SCHEMA_VERSION;
use ks_gpu_sim::FaultSpec;
use ks_serve::{generate_queries, serve_backlog, ServeBackend, ServeConfig, WorkloadConfig};
use serde::Serialize;

use super::{accounting_holds, check_against_reference};

/// Per-launch fault rates of the soak: expected data flips well above
/// a 1e-3/launch floor, plus launch-level faults so the retry and
/// breaker paths actually run.
const SMEM_RATE: f64 = 0.05;
const REG_RATE: f64 = 0.05;
const SM_LOSS_RATE: f64 = 0.01;
const WATCHDOG_RATE: f64 = 0.005;

/// The `chaos` document (`BENCH_chaos.json`): a seeded fault-injection
/// soak over the resilient serving backend. The headline field is
/// `silent_wrong` — completions that deviated from the CPU reference
/// without any surfaced error — which the harness requires to be
/// exactly zero.
#[derive(Debug, Serialize)]
pub struct ChaosMetrics {
    /// Export schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Master seed of the workload and the device fault schedule.
    pub seed: u64,
    /// Expected SMEM bit flips per fused-kernel launch.
    pub smem_rate: f64,
    /// Expected accumulator-register flips per launch.
    pub reg_rate: f64,
    /// Per-launch probability of an SM loss (launch-level fault).
    pub sm_loss_rate: f64,
    /// Per-launch probability of a watchdog timeout.
    pub watchdog_rate: f64,
    /// Queries offered to the server.
    pub submitted: u64,
    /// Queries bounced by backpressure.
    pub rejected: u64,
    /// Queries that produced a result.
    pub completed: u64,
    /// Queries that surfaced an error (launch failure, deadline, or
    /// internal) — *surfaced*, so never silently wrong.
    pub errors: u64,
    /// Completions bit-identical to the CPU fused reference (every
    /// CPU-rung completion must be).
    pub bit_exact: u64,
    /// Completions within the GPU tolerance of the reference but not
    /// bit-exact (healthy GPU-rung completions).
    pub tolerant: u64,
    /// Completions outside tolerance with no surfaced error. The soak
    /// fails unless this is zero.
    pub silent_wrong: u64,
    /// Coalesced solves executed.
    pub batches: u64,
    /// Batch execution attempts across all ladder rungs.
    pub attempts: u64,
    /// Attempts beyond each batch's first.
    pub retries: u64,
    /// Batches that landed on the CPU safe harbor.
    pub fallbacks: u64,
    /// Queries completed below the verified-GPU rung.
    pub degraded_completions: u64,
    /// Verified attempts whose ABFT checks tripped.
    pub corruption_detected: u64,
    /// Injected data-fault events observed in completed profiles.
    pub injected_faults: u64,
    /// Completed attempts with injected faults but clean checks.
    pub undetected_injected: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Circuit-breaker recoveries.
    pub breaker_resets: u64,
    /// Worker-side internal failures (must be zero in a soak).
    pub internal_errors: u64,
    /// Whether `attempts == batches + retries` and the per-query
    /// accounting invariants all held.
    pub counters_consistent: bool,
    /// Host wall time of the soak, in milliseconds (nondeterministic —
    /// informational only).
    pub wall_time_ms: f64,
}

/// Runs the soak and checks every outcome against the CPU reference.
pub fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    let flags = Flags::parse(args, &["--smoke"], &["--queries", "--seed", "--json"])?;
    let smoke = flags.has("--smoke");
    let seed = flags.get("--seed", 42u64)?;
    let queries = flags.size("--queries", if smoke { 500 } else { 2000 }, 1)?;

    let wl = WorkloadConfig {
        clients: 1,
        queries_per_client: queries,
        corpora: 3,
        shared_ratio: 0.9,
        large_ratio: 0.0,
        m: 256,
        n: 128,
        k: 16,
        h: 1.0,
        deadline: None,
        seed,
    };
    let stream = generate_queries(&wl);

    let mut cfg = ServeConfig {
        backend: ServeBackend::GpuResilient,
        ..ServeConfig::default()
    };
    cfg.device.fault = Some(FaultSpec {
        seed: seed ^ 0xC4A0_5BAD,
        smem_rate: SMEM_RATE,
        reg_rate: REG_RATE,
        sm_loss_rate: SM_LOSS_RATE,
        watchdog_rate: WATCHDOG_RATE,
        // DRAM exponent flips stay off: flips landing in the norm
        // intermediates *before* the checksummed kernel are outside
        // ABFT coverage by design (DESIGN.md §11).
        dram_rate: 0.0,
    });

    let t0 = Instant::now();
    let (outcomes, report, _) = serve_backlog(cfg, &stream);
    let c = check_against_reference(&stream, &outcomes);
    let wall_time_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut gates = Gates::default();
    gates.check(
        c.silent_wrong == 0,
        format!("{} silently-wrong results", c.silent_wrong),
    );
    let counters_consistent = gates.check(
        report.attempts == report.batches + report.retries
            && accounting_holds(&report)
            && report.completed == c.bit_exact + c.tolerant + c.silent_wrong
            && report.expired + report.shed + report.failed == c.errors,
        format!("ServeReport accounting is inconsistent: {report:?}"),
    );

    let metrics = ChaosMetrics {
        schema_version: SCHEMA_VERSION,
        seed,
        smem_rate: SMEM_RATE,
        reg_rate: REG_RATE,
        sm_loss_rate: SM_LOSS_RATE,
        watchdog_rate: WATCHDOG_RATE,
        submitted: report.submitted,
        rejected: report.rejected,
        completed: report.completed,
        errors: c.errors,
        bit_exact: c.bit_exact,
        tolerant: c.tolerant,
        silent_wrong: c.silent_wrong,
        batches: report.batches,
        attempts: report.attempts,
        retries: report.retries,
        fallbacks: report.fallbacks,
        degraded_completions: report.degraded_completions,
        corruption_detected: report.corruption_detected,
        injected_faults: report.injected_faults,
        undetected_injected: report.undetected_injected,
        breaker_trips: report.breaker_trips,
        breaker_resets: report.breaker_resets,
        internal_errors: report.internal_errors,
        counters_consistent,
        wall_time_ms,
    };

    eprintln!(
        "{} queries in {wall_time_ms:.0} ms: {} bit-exact, {} in-tolerance, \
         {} surfaced, {} silently wrong",
        report.submitted, c.bit_exact, c.tolerant, c.errors, c.silent_wrong
    );
    eprintln!(
        "ladder: {} batches, {} attempts ({} retries), {} corruption detections, \
         {} injected fault events, {} breaker trips / {} resets, {} CPU fallbacks",
        report.batches,
        report.attempts,
        report.retries,
        report.corruption_detected,
        report.injected_faults,
        report.breaker_trips,
        report.breaker_resets,
        report.fallbacks
    );
    if gates.passed() {
        eprintln!("chaos soak passed: zero silently-wrong results, accounting consistent");
    }
    Ok(gates.finish(&metrics, flags.opt("--json")))
}
