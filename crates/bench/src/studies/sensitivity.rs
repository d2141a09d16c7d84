//! Sensitivity of the reproduction's conclusions to the timing-model
//! calibration constants.
//!
//! The timing model (DESIGN.md §4) has five tunable constants; this
//! binary perturbs each across a generous range and reports the three
//! qualitative conclusions of the paper at every setting:
//!
//! 1. Fused beats cuBLAS-Unfused at K = 32 (Fig 6);
//! 2. Fused loses to cuBLAS-Unfused at K = 256 (the crossover);
//! 3. the CUDA-C GEMM is slower than the vendor GEMM (Fig 7).
//!
//! If the claims flip anywhere in the sweep, the reproduction would be
//! an artifact of the calibration — they should not, and the command
//! exits 1 if they do.

use std::process::ExitCode;
use std::sync::Arc;

use ks_bench::cli::{Flags, UsageError};
use ks_bench::outln;
use ks_bench::table::{f3, TableSet, TextTable};
use ks_gpu_kernels::{GpuKernelSummation, GpuVariant};
use ks_gpu_sim::timing::TimingParams;
use ks_gpu_sim::{GpuDevice, ReplayMemo};

struct Outcome {
    speedup_k32: f64,
    speedup_k256: f64,
    gemm_ratio: f64,
}

/// The three claims' figures under `params`. The timing constants
/// never reach replay, so every setting shares `memo` and only the
/// first replays any traffic.
fn evaluate(params: TimingParams, memo: &Arc<ReplayMemo>) -> Outcome {
    let run = |k: usize, variant: GpuVariant| {
        let ks = GpuKernelSummation::new(8192, 1024, k, 1.0);
        let mut dev = GpuDevice::gtx970().with_memo(Arc::clone(memo));
        dev.set_timing_params(params);
        ks.profile(&mut dev, variant).expect("valid launch")
    };
    let f32_ = run(32, GpuVariant::Fused).total_time_s();
    let c32 = run(32, GpuVariant::CublasUnfused);
    let f256 = run(256, GpuVariant::Fused).total_time_s();
    let c256 = run(256, GpuVariant::CublasUnfused);
    let cu256 = run(256, GpuVariant::CudaUnfused);
    Outcome {
        speedup_k32: c32.total_time_s() / f32_,
        speedup_k256: c256.total_time_s() / f256,
        gemm_ratio: cu256.kernels[2].timing.time_s / c256.kernels[2].timing.time_s,
    }
}

/// Runs the calibration sweep and prints (and with `--json`/`--csv`
/// exports) its table.
pub fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    let flags = Flags::parse(args, &[], &["--json", "--csv"])?;
    let base = TimingParams::default();
    let mut t = TextTable::new(vec![
        "parameter",
        "value",
        "speedup@K=32",
        "speedup@K=256",
        "gemm ratio",
        "claims hold",
    ]);

    let mut all_hold = true;
    let memo = Arc::new(ReplayMemo::new());
    let mut eval_row = |label: String, value: f64, p: TimingParams| {
        let o = evaluate(p, &memo);
        let holds = o.speedup_k32 > 1.0 && o.speedup_k256 < 1.05 && o.gemm_ratio > 1.0;
        all_hold &= holds;
        t.row(vec![
            label,
            f3(value),
            f3(o.speedup_k32),
            f3(o.speedup_k256),
            f3(o.gemm_ratio),
            if holds {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
    };

    eval_row("baseline".into(), 0.0, base);
    for scale in [0.8f64, 0.9, 1.1, 1.2] {
        let v = 1.0 + (base.cudac_ffma_replay - 1.0) * scale;
        eval_row(
            "cudac_ffma_replay".into(),
            v,
            TimingParams {
                cudac_ffma_replay: v,
                ..base
            },
        );
    }
    for v in [0.55f64, 0.65, 0.75, 0.85] {
        eval_row(
            "cudac_issue_efficiency".into(),
            v,
            TimingParams {
                cudac_issue_efficiency: v,
                ..base
            },
        );
    }
    for v in [1.2f64, 1.35, 1.65, 1.8] {
        eval_row(
            "vendor_dual_issue".into(),
            v,
            TimingParams {
                vendor_dual_issue: v,
                ..base
            },
        );
    }
    for v in [0.25f64, 0.4, 0.6, 0.75] {
        eval_row(
            "vendor_lsu_overlap".into(),
            v,
            TimingParams {
                vendor_lsu_overlap: v,
                ..base
            },
        );
    }
    for v in [20.0f64, 30.0, 60.0, 80.0] {
        eval_row(
            "syncthreads_cycles".into(),
            v,
            TimingParams {
                syncthreads_cycles: v,
                ..base
            },
        );
    }

    let mut tables = TableSet::default();
    tables.add(
        "Sensitivity of the paper's qualitative claims to timing calibration (M=8192, N=1024)",
        t,
    );
    let written = tables.export(flags.opt("--json"), flags.opt("--csv"));
    if all_hold {
        outln!("All qualitative claims hold across the calibration sweep ✓");
        Ok(written)
    } else {
        outln!("WARNING: some claims flipped — see rows marked NO");
        Ok(ExitCode::FAILURE)
    }
}
