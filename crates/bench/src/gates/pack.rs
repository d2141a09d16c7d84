//! Horizontal-fusion serving gate (`BENCH_pack.json`).
//!
//! Serves one deterministic heterogeneous small-query stream twice:
//!
//! 1. **pack off** — every small batch launches back-to-back, each
//!    underfilling the device (the bit-exactness golden);
//! 2. **pack on** — mutually-unrelated small batches from one
//!    scheduling wave fuse into a single routed launch.
//!
//! Any bit drift, a simulated-time speedup below the floor, no DRAM
//! saving, or a pass where packing never fired fails the run.
//!
//! ```text
//! ks-bench pack [--smoke] [--queries N] [--seed S] [--json PATH]
//! ```
//!
//! * default stream: 128 queries in waves of 16 mutually-unrelated
//!   `(M, N, K) = (256, 256, 32)` pairs over 4 shared corpora × 4
//!   shared target sets; `--smoke` shortens the stream to 64 queries
//!   (CI-sized) at the same wave shape, so the speedup gate measures
//!   the same packing economics;
//! * `--seed S`: master workload seed (default 11);
//! * `--json PATH`: write the [`PackMetrics`] document.

use std::process::ExitCode;

use ks_bench::cli::{Flags, Gates, UsageError};
use ks_bench::eoutln;
use ks_bench::metrics::SCHEMA_VERSION;
use ks_gpu_sim::config::DeviceConfig;
use ks_serve::{
    generate_small_queries, packed_smoke_workload, serve_backlog, ServeConfig, ServeReport,
};
use serde::Serialize;

use super::same_outcomes;

/// Simulated-time speedup floor for the packed pass over back-to-back
/// serving (the paper-level target is 2×; the smoke stream must still
/// clear 1.5×).
const SPEEDUP_FLOOR: f64 = 1.5;

/// One serving pass of the packing benchmark at a fixed pack setting.
#[derive(Debug, Serialize)]
pub struct PackRunMetrics {
    /// Queries that produced a result.
    pub completed: u64,
    /// Queries failed with a surfaced error.
    pub failed: u64,
    /// Coalesced solves executed.
    pub batches: u64,
    /// Simulated kernel launches across all completed GPU batches.
    pub launches: u64,
    /// Horizontally-fused packed launches (zero with packing off).
    pub packed_launches: u64,
    /// Batches served as segments of those packed launches.
    pub packed_segments: u64,
    /// DRAM transactions summed over every completed GPU profile.
    pub dram_transactions: u64,
    /// Mean utilized fraction of a full resident wave across the
    /// fused kernels: `grid_blocks / (num_sms · blocks_per_sm)`
    /// capped at 1. Back-to-back small launches sit far below 1;
    /// packing exists to push this up.
    pub fused_wave_fill: f64,
    /// Simulated serving time summed over every completed profile.
    pub sim_time_s: f64,
    /// Host wall time of the pass, in milliseconds (nondeterministic —
    /// informational only).
    pub wall_time_ms: f64,
}

/// The `pack` document (`BENCH_pack.json`): one heterogeneous
/// small-query stream served with horizontal fusion off (back-to-back
/// launches, the bit-exactness golden) and on. The
/// headline fields are `speedup` (simulated-time ratio, gated at
/// ≥ 1.5× in the smoke profile with a 2× target), `dram_saved` and
/// the `bit_identical` flag — packing must never move bits.
#[derive(Debug, Serialize)]
pub struct PackMetrics {
    /// Export schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Master seed of the workload.
    pub seed: u64,
    /// Queries in the stream.
    pub queries: u64,
    /// Sources per corpus.
    pub m: u64,
    /// Targets per target set.
    pub n: u64,
    /// Point dimensionality.
    pub k: u64,
    /// Distinct corpora cycled through the stream.
    pub corpora: u64,
    /// Distinct target sets cycled through the stream.
    pub target_sets: u64,
    /// The pack-off (back-to-back) pass.
    pub unpacked: PackRunMetrics,
    /// The pack-on pass.
    pub packed: PackRunMetrics,
    /// `unpacked.sim_time_s / packed.sim_time_s`.
    pub speedup: f64,
    /// `unpacked.dram_transactions - packed.dram_transactions`
    /// (upload dedup; must be positive).
    pub dram_saved: i64,
    /// Every packed result matched unpacked serving bit for bit.
    pub bit_identical: bool,
    /// All gates held (bit identity, speedup floor, DRAM saving,
    /// packing actually fired).
    pub gates_passed: bool,
}

/// Mean utilized fraction of a full resident wave across the fused
/// kernels of a run: `grid_blocks / (num_sms · blocks_per_sm)`,
/// capped at 1 per kernel.
fn fused_wave_fill(report: &ServeReport, dev: &DeviceConfig) -> f64 {
    let mut sum = 0.0f64;
    let mut count = 0u64;
    for prof in &report.profiles {
        for k in &prof.kernels {
            if !k.name.starts_with("fused_multi") {
                continue;
            }
            let resident = f64::from(dev.num_sms) * f64::from(k.occupancy.blocks_per_sm);
            let blocks = k.launch.grid.count() as f64;
            sum += (blocks / resident).min(1.0);
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

impl PackRunMetrics {
    /// Flattens one pass into the export row.
    fn collect(report: &ServeReport, dev: &DeviceConfig, wall_time_ms: f64) -> Self {
        Self {
            completed: report.completed,
            failed: report.failed,
            batches: report.batches,
            launches: report.launches,
            packed_launches: report.packed_launches,
            packed_segments: report.packed_segments,
            dram_transactions: report.total_dram_transactions(),
            fused_wave_fill: fused_wave_fill(report, dev),
            sim_time_s: report.profiles.iter().map(|p| p.total_time_s()).sum(),
            wall_time_ms,
        }
    }
}

/// Runs the back-to-back and packed passes and gates them.
pub fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    let flags = Flags::parse(args, &["--smoke"], &["--queries", "--seed", "--json"])?;
    let smoke = flags.has("--smoke");
    let seed = flags.get("--seed", 11u64)?;
    let queries = flags.size("--queries", if smoke { 64 } else { 128 }, 1)?;

    let mut wl = packed_smoke_workload();
    wl.queries = queries;
    wl.seed = seed;
    let stream = generate_small_queries(&wl);
    let cfg = |pack: bool| ServeConfig {
        pack,
        ..ServeConfig::default()
    };
    let device = ServeConfig::default().device;

    eoutln!("serving {} queries back-to-back (golden)...", stream.len());
    let (golden, unpacked_report, unpacked_wall) = serve_backlog(cfg(false), &stream);
    eoutln!("serving with horizontal fusion...");
    let (packed_res, packed_report, packed_wall) = serve_backlog(cfg(true), &stream);

    let unpacked = PackRunMetrics::collect(&unpacked_report, &device, unpacked_wall);
    let packed = PackRunMetrics::collect(&packed_report, &device, packed_wall);
    let speedup = unpacked.sim_time_s / packed.sim_time_s;
    let dram_saved = unpacked.dram_transactions as i64 - packed.dram_transactions as i64;

    let mut gates = Gates::default();
    let bit_identical = gates.check(
        same_outcomes(&golden, &packed_res),
        "packed results drifted from back-to-back serving",
    );
    gates.check(
        packed.packed_launches > 0
            && packed.packed_segments >= 2 * packed.packed_launches
            && unpacked.packed_launches == 0,
        "horizontal fusion never fired on the packing stream",
    );
    gates.check(
        packed.completed == unpacked.completed
            && packed.failed == 0
            && unpacked.failed == 0
            && packed.launches < unpacked.launches,
        "serve counters drifted between passes",
    );
    gates.check(
        speedup >= SPEEDUP_FLOOR,
        format!("simulated speedup {speedup:.2}x below the {SPEEDUP_FLOOR}x floor"),
    );
    gates.check(
        dram_saved > 0,
        format!("packing must save DRAM transactions ({dram_saved})"),
    );

    let metrics = PackMetrics {
        schema_version: SCHEMA_VERSION,
        seed,
        queries: stream.len() as u64,
        m: wl.m as u64,
        n: wl.n as u64,
        k: wl.k as u64,
        corpora: wl.corpora as u64,
        target_sets: wl.target_sets as u64,
        unpacked,
        packed,
        speedup,
        dram_saved,
        bit_identical,
        gates_passed: gates.passed(),
    };

    eoutln!(
        "sim time: {:.6} s back-to-back, {:.6} s packed ({speedup:.2}x, floor {SPEEDUP_FLOOR}x)",
        metrics.unpacked.sim_time_s,
        metrics.packed.sim_time_s
    );
    eoutln!(
        "launches: {} -> {} ({} packed waves carrying {} segments); \
         DRAM: {} -> {} ({dram_saved} saved); fused wave fill {:.2} -> {:.2}",
        metrics.unpacked.launches,
        metrics.packed.launches,
        metrics.packed.packed_launches,
        metrics.packed.packed_segments,
        metrics.unpacked.dram_transactions,
        metrics.packed.dram_transactions,
        metrics.unpacked.fused_wave_fill,
        metrics.packed.fused_wave_fill,
    );
    eoutln!(
        "wall: golden {:.0} ms, packed {:.0} ms",
        metrics.unpacked.wall_time_ms,
        metrics.packed.wall_time_ms
    );
    if gates.passed() {
        eoutln!("pack bench passed: bit-identical, {speedup:.2}x, {dram_saved} DRAM saved");
    }
    Ok(gates.finish(&metrics, flags.opt("--json")))
}
