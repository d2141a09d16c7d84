//! Autotuner gate (`BENCH_tune.json`).
//!
//! Runs the full [`ks_tune`] sweep — legal-lattice enumeration,
//! static-analyzer pruning, differential admission against the CPU
//! fused oracle, exact-counter profiling — fits the log-linear cost
//! model, takes the model's picks, and only *then* replays each pick
//! and the paper default once to validate the decisions the model
//! made blind. Gates:
//!
//! 1. **fit quality** — the holdout's worst relative time error stays
//!    under [`HOLDOUT_ERR_CEILING`];
//! 2. **never worse** — every pick's replayed simulated time is at
//!    most the default's × (1 + [`REPLAY_TOL`]);
//! 3. **a real win** — at least one non-paper shape's pick strictly
//!    beats the default in replay;
//! 4. **model-only selection** — structural: picks come out of
//!    [`ks_tune::tune`] before any validation replay runs.
//!
//! ```text
//! ks-bench tune [--smoke] [--seed S] [--json PATH]
//! ```
//!
//! * default: the smoke grid (7 training shapes, 6 pick shapes, full
//!   150-geometry lattice);
//! * `--smoke`: a compact 4-train/3-pick grid, CI-sized;
//! * `--json PATH`: write the [`TuneMetrics`] document (which is also
//!   printed to stdout).

use std::process::ExitCode;
use std::time::Instant;

use ks_bench::cli::{to_json, Flags, Gates, UsageError};
use ks_bench::metrics::SCHEMA_VERSION;
use ks_bench::{eoutln, outln};
use ks_gpu_kernels::TileGeometry;
use ks_gpu_sim::config::DeviceConfig;
use ks_tune::{profile_geometry, tune, ProblemShape, TuneConfig};
use serde::Serialize;

/// Ceiling on the holdout's worst relative time error.
const HOLDOUT_ERR_CEILING: f64 = 0.25;

/// Replay tolerance for the "never worse than default" gate.
const REPLAY_TOL: f64 = 1e-9;

/// One tuned pick in the `tune` document, with its independent replay
/// validation.
#[derive(Debug, Serialize)]
pub struct TunePickMetrics {
    /// Raw problem rows.
    pub m: u64,
    /// Raw problem targets.
    pub n: u64,
    /// Raw point dimension.
    pub k: u64,
    /// The model's chosen geometry, `Display`-formatted.
    pub geometry: String,
    /// Model-predicted simulated time for the pick.
    pub pred_time_s: f64,
    /// Model-predicted energy for the pick.
    pub pred_energy_j: f64,
    /// Replay-measured simulated time of the pick (validation only —
    /// the pick itself was made without this number).
    pub picked_time_s: f64,
    /// Replay-measured simulated time of the paper default.
    pub default_time_s: f64,
    /// `default_time_s / picked_time_s`.
    pub speedup: f64,
    /// Bit-compatible lower-energy variant, when one exists.
    pub low_power: Option<String>,
    /// Predicted energy of the low-power variant.
    pub low_power_energy_j: f64,
}

/// The `tune` document (`BENCH_tune.json`): one autotuner sweep — lattice,
/// gates, fit quality — plus the replay validation of every pick.
#[derive(Debug, Serialize)]
pub struct TuneMetrics {
    /// Export schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Seed of the train/holdout split.
    pub seed: u64,
    /// Device the sweep ran on.
    pub device: String,
    /// Legal geometries enumerated.
    pub lattice: u64,
    /// Geometries surviving the static + differential gates.
    pub admitted: u64,
    /// Geometries rejected, with stage and reason recorded upstream.
    pub rejected: u64,
    /// Profiled (geometry, shape) samples the model was fitted on.
    pub samples: u64,
    /// Training-split size.
    pub train_count: u64,
    /// Holdout-split size.
    pub holdout_count: u64,
    /// Mean absolute relative holdout error, time head.
    pub holdout_mape_time: f64,
    /// Worst holdout relative error, time head.
    pub holdout_max_rel_time: f64,
    /// Mean absolute relative holdout error, energy head.
    pub holdout_mape_energy: f64,
    /// Worst holdout relative error, energy head.
    pub holdout_max_rel_energy: f64,
    /// The error band the fit advertises for downstream consumers.
    pub advertised_rel_err: f64,
    /// Every pick with its replay validation.
    pub picks: Vec<TunePickMetrics>,
    /// Picks strictly faster than the default in replay.
    pub wins: u64,
    /// All gates held (fit quality, no pick worse than default, at
    /// least one strict win on a non-paper shape).
    pub gates_passed: bool,
    /// Host wall time of the sweep, seconds.
    pub host_wall_s: f64,
}

/// Runs the tuner sweep, replays its picks, and gates the fit and
/// the picks.
pub fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    let flags = Flags::parse(args, &["--smoke"], &["--seed", "--json"])?;
    let seed = flags.get("--seed", 0x5EEDu64)?;

    let mut cfg = TuneConfig::smoke(DeviceConfig::gtx970());
    cfg.seed = seed;
    if flags.has("--smoke") {
        cfg.train_shapes = vec![
            ProblemShape::new(1024, 1024, 32),
            ProblemShape::new(512, 512, 32),
            ProblemShape::new(256, 256, 64),
            ProblemShape::new(2048, 512, 128),
        ];
        cfg.pick_shapes = vec![
            ProblemShape::new(1024, 1024, 32),
            ProblemShape::new(256, 256, 64),
            ProblemShape::new(384, 256, 96),
        ];
    }

    let wall = Instant::now();
    eoutln!(
        "tune: sweeping {} geometries x {} shapes on {}",
        TileGeometry::lattice(&cfg.device).len(),
        cfg.train_shapes.len(),
        cfg.device.name
    );
    let out = tune(&cfg);
    eoutln!(
        "tune: {} admitted, {} rejected, {} samples; holdout mape {:.4}, max {:.4}",
        out.admitted.len(),
        out.rejected.len(),
        out.samples.len(),
        out.fit.holdout_mape_time,
        out.fit.holdout_max_rel_time
    );

    // Validation replay — strictly after the picks were made.
    let default = TileGeometry::paper_default();
    let mut gates = Gates::default();
    let mut picks = Vec::new();
    let mut wins = 0u64;
    for p in &out.picks {
        let shape = ProblemShape::new(p.m, p.n, p.k);
        let picked = profile_geometry(&cfg.device, &p.choice.geometry, &shape)
            .unwrap_or_else(|e| panic!("replaying pick at {shape}: {e}"));
        let base = profile_geometry(&cfg.device, &default, &shape)
            .unwrap_or_else(|e| panic!("replaying default at {shape}: {e}"));
        let speedup = base.time_s / picked.time_s;
        gates.check(
            picked.time_s <= base.time_s * (1.0 + REPLAY_TOL),
            format!(
                "at {shape}: pick {} replays {:.3e}s vs default {:.3e}s",
                p.choice.geometry, picked.time_s, base.time_s
            ),
        );
        let non_paper = (p.m, p.n, p.k) != (128, 128, 8);
        if non_paper && speedup > 1.0 && p.choice.geometry != default {
            wins += 1;
        }
        eoutln!(
            "tune: {shape}: pick {} ({:.3e}s pred) replays {:.2}x vs default",
            p.choice.geometry,
            p.choice.pred_time_s,
            speedup
        );
        picks.push(TunePickMetrics {
            m: p.m as u64,
            n: p.n as u64,
            k: p.k as u64,
            geometry: p.choice.geometry.to_string(),
            pred_time_s: p.choice.pred_time_s,
            pred_energy_j: p.choice.pred_energy_j,
            picked_time_s: picked.time_s,
            default_time_s: base.time_s,
            speedup,
            low_power: p.choice.low_power.map(|g| g.to_string()),
            low_power_energy_j: p.choice.low_power_energy_j,
        });
    }
    gates.check(
        out.fit.holdout_max_rel_time <= HOLDOUT_ERR_CEILING,
        format!(
            "holdout max rel time error {:.4} > {HOLDOUT_ERR_CEILING}",
            out.fit.holdout_max_rel_time
        ),
    );
    gates.check(wins > 0, "no non-paper shape strictly beat the default");

    let metrics = TuneMetrics {
        schema_version: SCHEMA_VERSION,
        seed,
        device: cfg.device.name.clone(),
        lattice: TileGeometry::lattice(&cfg.device).len() as u64,
        admitted: out.admitted.len() as u64,
        rejected: out.rejected.len() as u64,
        samples: out.samples.len() as u64,
        train_count: out.fit.train_count as u64,
        holdout_count: out.fit.holdout_count as u64,
        holdout_mape_time: out.fit.holdout_mape_time,
        holdout_max_rel_time: out.fit.holdout_max_rel_time,
        holdout_mape_energy: out.fit.holdout_mape_energy,
        holdout_max_rel_energy: out.fit.holdout_max_rel_energy,
        advertised_rel_err: out.fit.advertised_rel_err(),
        picks,
        wins,
        gates_passed: gates.passed(),
        host_wall_s: wall.elapsed().as_secs_f64(),
    };
    outln!("{}", to_json(&metrics));
    if gates.passed() {
        eoutln!(
            "tune: all gates passed ({} picks, {wins} strict wins, {:.1}s)",
            metrics.picks.len(),
            metrics.host_wall_s
        );
    }
    Ok(gates.finish(&metrics, flags.opt("--json")))
}
