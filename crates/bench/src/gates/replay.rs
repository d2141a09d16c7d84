//! Serial-vs-memoized replay gate over the fused pipeline
//! (`BENCH_replay.json`).
//!
//! For each sweep point the fused pipeline is profiled twice on fresh
//! devices — once with [`ReplayStrategy::Serial`], once with
//! [`ReplayStrategy::Memoized`] (the default) — and the wall-clock of
//! each replay, their ratio, and whether the two profiles agree on
//! every counter are recorded.
//!
//! ```text
//! ks-bench replay [--smoke] [--gate MIN_SPEEDUP] [--json PATH]
//! ```
//!
//! * default grid: `M ∈ {8192, 65536, 524288}`, `K = 32`, `N = 1024`;
//! * `--smoke`: `M ∈ {8192, 65536}` only (CI-sized);
//! * `--gate X`: exit 1 unless the **largest** point's speedup ≥ X
//!   (and always exit 1 on a counter mismatch);
//! * `--json PATH`: write the [`ReplayMetrics`] document.

use std::process::ExitCode;
use std::time::Instant;

use ks_bench::cli::{Flags, Gates, UsageError};
use ks_bench::metrics::SCHEMA_VERSION;
use ks_gpu_kernels::{GpuKernelSummation, GpuVariant};
use ks_gpu_sim::{GpuDevice, ReplayStrategy};
use serde::Serialize;

/// One serial-vs-memoized replay measurement.
#[derive(Debug, Serialize)]
pub struct ReplayPoint {
    /// Source count.
    pub m: u64,
    /// Point-space dimension.
    pub k: u64,
    /// Target count.
    pub n: u64,
    /// Grid blocks of the fused kernel at this point.
    pub blocks: u64,
    /// Host wall time of the serial replay, in milliseconds.
    pub serial_ms: f64,
    /// Host wall time of the memoized replay, in milliseconds.
    pub memoized_ms: f64,
    /// `serial_ms / memoized_ms`.
    pub speedup: f64,
    /// Whether both replays produced identical counters and memory
    /// traffic (they must; recorded so a regression is visible in the
    /// artifact, not only in the process exit code).
    pub counters_match: bool,
}

/// The `replay` document (`BENCH_replay.json`): serial vs memoized
/// replay wall-clock over the fused pipeline at a set of sweep points.
#[derive(Debug, Serialize)]
pub struct ReplayMetrics {
    /// Export schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Pipeline the measurements ran (always the fused variant).
    pub kernel: String,
    /// Per-point measurements, in increasing M.
    pub points: Vec<ReplayPoint>,
}

const K: usize = 32;
const N: usize = 1024;

fn profile_ms(m: usize, strategy: ReplayStrategy) -> (f64, ks_gpu_sim::PipelineProfile, u64) {
    let pipeline = GpuKernelSummation::new(m, N, K, 1.0);
    let mut dev = GpuDevice::gtx970();
    dev.set_replay_strategy(strategy);
    let t = Instant::now();
    let prof = pipeline
        .profile(&mut dev, GpuVariant::Fused)
        .unwrap_or_else(|e| {
            eprintln!("error: cannot profile M={m}: {e}");
            std::process::exit(1);
        });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let blocks = prof
        .kernels
        .iter()
        .map(|k| k.launch.total_blocks())
        .max()
        .unwrap_or(0);
    (ms, prof, blocks)
}

/// Replays every point both ways and gates the counters (and, with
/// `--gate`, the largest point's speedup).
pub fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    let flags = Flags::parse(args, &["--smoke"], &["--gate", "--json"])?;
    let gate: Option<f64> = flags.parsed("--gate")?;
    let m_values: &[usize] = if flags.has("--smoke") {
        &[8192, 65_536]
    } else {
        &[8192, 65_536, 524_288]
    };

    let mut points = Vec::new();
    for &m in m_values {
        let (serial_ms, serial_prof, blocks) = profile_ms(m, ReplayStrategy::Serial);
        let (memoized_ms, memoized_prof, _) = profile_ms(m, ReplayStrategy::Memoized);
        let counters_match = serial_prof == memoized_prof;
        let speedup = serial_ms / memoized_ms;
        eprintln!(
            "M={m:>7} blocks={blocks:>6}: serial {serial_ms:>9.1} ms, memoized {memoized_ms:>9.1} ms, speedup {speedup:.2}x, counters {}",
            if counters_match { "match" } else { "MISMATCH" }
        );
        points.push(ReplayPoint {
            m: m as u64,
            k: K as u64,
            n: N as u64,
            blocks,
            serial_ms,
            memoized_ms,
            speedup,
            counters_match,
        });
    }

    let mut gates = Gates::default();
    gates.check(
        points.iter().all(|p| p.counters_match),
        "memoized replay drifted from serial counters",
    );
    if let Some(min) = gate {
        let last = points.last().expect("at least one point");
        if gates.check(
            last.speedup >= min,
            format!(
                "speedup {:.2}x at M={} below gate {min:.2}x",
                last.speedup, last.m
            ),
        ) {
            eprintln!(
                "gate passed: {:.2}x >= {min:.2}x at M={}",
                last.speedup, last.m
            );
        }
    }
    let metrics = ReplayMetrics {
        schema_version: SCHEMA_VERSION,
        kernel: "Fused".into(),
        points,
    };
    Ok(gates.finish(&metrics, flags.opt("--json")))
}
