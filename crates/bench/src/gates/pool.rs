//! Multi-device pool serving gate (`BENCH_pool.json`).
//!
//! Serves one deterministic query stream four ways:
//!
//! 1. **unpooled** single-device serving — the bit-exactness golden;
//! 2. a **1-device pool** — the simulated-time baseline (same shard
//!    machinery, no parallelism);
//! 3. an **N-device pool** (default 4) — must be bit-identical to the
//!    golden and at least 2× faster in simulated time;
//! 4. the N-device pool with one device **permanently faulted** — the
//!    pool must degrade shard-locally (only the sick device's breaker
//!    trips, evicting it; its shards recover on the CPU) and still
//!    complete every query correctly.
//!
//! Any bit drift, counter drift between the passes, a speedup below
//! the floor, or pool-wide degradation fails the run.
//!
//! ```text
//! ks-bench pool [--smoke] [--devices N] [--queries N] [--seed S] [--json PATH]
//! ```
//!
//! * default stream: 24 queries over `M = 32768` corpora; `--smoke`
//!   halves the stream (CI-sized) at the same corpus shape, so the
//!   speedup gate still means something;
//! * `--devices N`: pooled device count (default 4, minimum 2);
//! * `--seed S`: master workload seed (default 42);
//! * `--json PATH`: write the [`PoolMetrics`] document.

use std::process::ExitCode;

use ks_bench::cli::{Flags, Gates, UsageError};
use ks_bench::eoutln;
use ks_bench::metrics::SCHEMA_VERSION;
use ks_gpu_sim::{FaultSpec, Interconnect};
use ks_serve::{
    generate_queries, serve_backlog, PoolConfig, ServeConfig, ServeReport, WorkloadConfig,
};
use serde::Serialize;

use super::{close, pool_report, same_outcomes};

/// Simulated-time speedup floor for the N-device pool over the
/// 1-device baseline.
const SPEEDUP_FLOOR: f64 = 2.0;

/// Index of the device given a permanent launch fault in the degraded
/// pass (the last device of a smaller pool).
const SICK: usize = 2;

/// One serving pass of the pool bench at a fixed device count.
#[derive(Debug, Serialize)]
pub struct PoolRunMetrics {
    /// Devices in the pool (`1` for the single-device baseline).
    pub devices: u64,
    /// Queries that produced a result.
    pub completed: u64,
    /// Queries failed with a surfaced error.
    pub failed: u64,
    /// Coalesced solves executed.
    pub batches: u64,
    /// Queries served through those solves.
    pub batched_queries: u64,
    /// Batches containing at least one CPU-recovered shard.
    pub fallbacks: u64,
    /// Shard tasks dispatched across the pool.
    pub shard_tasks: u64,
    /// Circuit-breaker trips (evictions) summed over devices.
    pub breaker_trips: u64,
    /// Host↔device bytes moved over the modelled interconnects.
    pub transfer_bytes: u64,
    /// Simulated serving time: per batch, the slowest shard pipeline
    /// (devices run concurrently), summed over batches.
    pub sim_time_s: f64,
    /// Host wall time of the pass, in milliseconds (nondeterministic —
    /// informational only).
    pub wall_time_ms: f64,
}

impl PoolRunMetrics {
    /// Flattens one pooled pass into the export row.
    fn collect(report: &ServeReport, wall_time_ms: f64) -> Self {
        let pool = pool_report(report);
        Self {
            devices: pool.devices.len() as u64,
            completed: report.completed,
            failed: report.failed,
            batches: report.batches,
            batched_queries: report.batched_queries,
            fallbacks: report.fallbacks,
            shard_tasks: pool.shard_tasks,
            breaker_trips: report.breaker_trips,
            transfer_bytes: pool.devices.iter().map(|d| d.transfer_bytes).sum(),
            sim_time_s: pool.sim_time_s,
            wall_time_ms,
        }
    }
}

/// The `pool` document (`BENCH_pool.json`): the same query stream
/// served by a 1-device pool and an `N`-device pool, checked
/// bit-identical against unpooled single-device serving, plus a
/// degraded pass with one faulted device. The headline fields are
/// `speedup` (simulated-time ratio, gated at ≥ 2× for 4 devices) and
/// the `bit_identical` / `counters_match` flags.
#[derive(Debug, Serialize)]
pub struct PoolMetrics {
    /// Export schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Master seed of the workload.
    pub seed: u64,
    /// Source-set rows per corpus.
    pub m: u64,
    /// Targets per query.
    pub n: u64,
    /// Point dimensionality.
    pub k: u64,
    /// Queries in the stream.
    pub queries: u64,
    /// Fraction of queries hitting a shared corpus.
    pub shared_ratio: f64,
    /// The 1-device pool baseline pass.
    pub single: PoolRunMetrics,
    /// The `N`-device pool pass.
    pub pooled: PoolRunMetrics,
    /// `single.sim_time_s / pooled.sim_time_s`.
    pub speedup: f64,
    /// Every pooled result matched unpooled serving bit for bit.
    pub bit_identical: bool,
    /// completed/failed/batches/batched-queries agreed across the
    /// unpooled, 1-device and `N`-device passes.
    pub counters_match: bool,
    /// The degraded pass: `N` devices, one with a permanent
    /// launch-level fault.
    pub faulted: PoolRunMetrics,
    /// Breaker trips (evictions) of the faulted device (must be > 0).
    pub faulted_sick_trips: u64,
    /// CPU-recovered shards owned by the faulted device (must be > 0).
    pub faulted_sick_fallbacks: u64,
    /// CPU-recovered shards owned by healthy devices (must be 0:
    /// degradation stays device-local).
    pub faulted_healthy_fallbacks: u64,
    /// All gates held (bit identity, counter agreement, speedup floor,
    /// device-local degradation).
    pub gates_passed: bool,
}

/// Runs the four passes and gates them.
pub fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    let flags = Flags::parse(
        args,
        &["--smoke"],
        &["--devices", "--queries", "--seed", "--json"],
    )?;
    let smoke = flags.has("--smoke");
    let seed = flags.get("--seed", 42u64)?;
    let devices = flags.size("--devices", 4, 2)?;
    let queries = flags.size("--queries", if smoke { 12 } else { 24 }, 1)?;

    // Corpora are sized so per-shard kernel time dominates the
    // modelled PCIe cost at 4 shards: M = 32768 keeps each 8192-row
    // shard well past the alignment floor, and the smoke profile
    // shortens the *stream*, not the corpus, so the speedup gate
    // measures the same shard economics CI-sized.
    let wl = WorkloadConfig {
        clients: 1,
        queries_per_client: queries,
        corpora: 2,
        shared_ratio: 0.8,
        large_ratio: 0.0,
        m: 32_768,
        n: 128,
        k: 16,
        h: 1.0,
        deadline: None,
        seed,
    };
    let stream = generate_queries(&wl);
    let pooled_cfg = |n: usize| {
        let mut cfg = ServeConfig::default();
        cfg.pool = Some(PoolConfig::homogeneous(
            n,
            cfg.device.clone(),
            Interconnect::pcie3_x16(),
        ));
        cfg
    };

    eoutln!("serving {} queries unpooled (golden)...", stream.len());
    let (golden, golden_report, golden_wall) = serve_backlog(ServeConfig::default(), &stream);
    eoutln!("serving through a 1-device pool...");
    let (single_res, single_report, single_wall) = serve_backlog(pooled_cfg(1), &stream);
    eoutln!("serving through a {devices}-device pool...");
    let (pooled_res, pooled_report, pooled_wall) = serve_backlog(pooled_cfg(devices), &stream);

    let sick = SICK.min(devices - 1);
    eoutln!("serving with device {sick} permanently faulted...");
    let mut sick_cfg = pooled_cfg(devices);
    if let Some(pool) = sick_cfg.pool.as_mut() {
        pool.devices[sick].device.fault = Some(FaultSpec {
            seed: seed ^ 0xDEAD_DE5B,
            sm_loss_rate: 1.0,
            ..FaultSpec::default()
        });
    }
    let (faulted_res, faulted_report, faulted_wall) = serve_backlog(sick_cfg, &stream);

    let single = PoolRunMetrics::collect(&single_report, single_wall);
    let pooled = PoolRunMetrics::collect(&pooled_report, pooled_wall);
    let faulted = PoolRunMetrics::collect(&faulted_report, faulted_wall);
    let speedup = single.sim_time_s / pooled.sim_time_s;

    let mut gates = Gates::default();
    let bit_identical = gates.check(
        same_outcomes(&golden, &single_res) && same_outcomes(&golden, &pooled_res),
        "pooled results drifted from unpooled single-device serving",
    );
    let counters_match = gates.check(
        [&single_report, &pooled_report, &faulted_report]
            .iter()
            .all(|r| {
                r.completed == golden_report.completed
                    && r.batches == golden_report.batches
                    && r.batched_queries == golden_report.batched_queries
                    && r.failed == 0
                    && r.rejected == 0
                    && r.internal_errors == 0
            })
            && golden_report.failed == 0,
        "serve counters drifted between passes",
    );
    gates.check(
        speedup >= SPEEDUP_FLOOR,
        format!("simulated speedup {speedup:.2}x below the {SPEEDUP_FLOOR}x floor"),
    );

    // The degraded pass: every query still completes, within tolerance
    // of the golden (sick shards recover on the CPU, which is bit-exact
    // to the reference but not to the healthy GPU shards it replaces).
    let mut faulted_correct = true;
    for (qi, (got, want)) in faulted_res.iter().zip(&golden).enumerate() {
        match (got, want) {
            (Ok(got), Ok(want)) => {
                if !close(got, want) {
                    eoutln!("degraded pass: query {qi} outside tolerance");
                    faulted_correct = false;
                }
            }
            _ => {
                eoutln!("degraded pass: query {qi} did not complete");
                faulted_correct = false;
            }
        }
    }
    let faulted_devices = &pool_report(&faulted_report).devices;
    let faulted_sick_trips = faulted_devices[sick].evictions;
    let faulted_sick_fallbacks = faulted_devices[sick].cpu_fallbacks;
    let faulted_healthy_fallbacks = faulted_devices
        .iter()
        .enumerate()
        .filter(|(d, _)| *d != sick)
        .map(|(_, r)| r.cpu_fallbacks)
        .sum::<u64>();
    gates.check(
        faulted_correct
            && faulted_sick_trips > 0
            && faulted_sick_fallbacks > 0
            && faulted_healthy_fallbacks == 0,
        "faulted device did not degrade shard-locally",
    );

    let metrics = PoolMetrics {
        schema_version: SCHEMA_VERSION,
        seed,
        m: wl.m as u64,
        n: wl.n as u64,
        k: wl.k as u64,
        queries: stream.len() as u64,
        shared_ratio: wl.shared_ratio,
        single,
        pooled,
        speedup,
        bit_identical,
        counters_match,
        faulted,
        faulted_sick_trips,
        faulted_sick_fallbacks,
        faulted_healthy_fallbacks,
        gates_passed: gates.passed(),
    };

    eoutln!(
        "sim time: {:.6} s at 1 device, {:.6} s at {devices} ({speedup:.2}x, floor {SPEEDUP_FLOOR}x)",
        metrics.single.sim_time_s, metrics.pooled.sim_time_s
    );
    eoutln!(
        "pool: {} shard tasks, {} bytes over PCIe; degraded pass: \
         {faulted_sick_trips} sick trips, {faulted_sick_fallbacks} sick / \
         {faulted_healthy_fallbacks} healthy CPU shard recoveries",
        metrics.pooled.shard_tasks,
        metrics.pooled.transfer_bytes
    );
    eoutln!(
        "wall: golden {golden_wall:.0} ms, pool1 {:.0} ms, pool{devices} {:.0} ms, \
         degraded {:.0} ms",
        metrics.single.wall_time_ms,
        metrics.pooled.wall_time_ms,
        metrics.faulted.wall_time_ms
    );
    if gates.passed() {
        eoutln!(
            "pool bench passed: bit-identical, counters stable, {speedup:.2}x at {devices} devices"
        );
    }
    Ok(gates.finish(&metrics, flags.opt("--json")))
}
