//! Device-generality study (beyond the paper): do the conclusions
//! depend on the GTX970 specifically?
//!
//! Runs the K=32 and K=256 comparison on: the paper's GTX970; its
//! full-die sibling GTX980; and two hypothetical GTX970 variants with
//! a quarter-size and a four-times L2 — probing how the fusion
//! advantage responds to cache capacity (the fused kernel barely uses
//! the L2; the unfused pipeline lives and dies by it) and to
//! compute/bandwidth ratio.

use std::process::ExitCode;

use ks_bench::cli::{Flags, UsageError};
use ks_bench::outln;
use ks_bench::table::{f3, TextTable};
use ks_gpu_kernels::{GpuKernelSummation, GpuVariant};
use ks_gpu_sim::{DeviceConfig, GpuDevice};

fn study(dev_cfg: &DeviceConfig, m: usize, k: usize) -> (f64, f64) {
    let ks = GpuKernelSummation::new(m, 1024, k, 1.0);
    let run = |variant: GpuVariant| {
        let mut dev = GpuDevice::new(dev_cfg.clone());
        ks.profile(&mut dev, variant).expect("valid launch")
    };
    let fused = run(GpuVariant::Fused);
    let unfused = run(GpuVariant::CublasUnfused);
    let speedup = unfused.total_time_s() / fused.total_time_s();
    let dram_ratio = fused.total_mem().dram_transactions() as f64
        / unfused.total_mem().dram_transactions() as f64;
    (speedup, dram_ratio)
}

/// Prints the comparison on every device variant.
pub fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    Flags::parse(args, &[], &[])?;
    let m = 16384;
    let devices: Vec<(&str, DeviceConfig)> = vec![
        ("GTX970 (paper)", DeviceConfig::gtx970()),
        ("GTX980", DeviceConfig::gtx980()),
        (
            "GTX970, L2/4",
            DeviceConfig {
                l2_bytes: 448 * 1024,
                name: "GTX970 quarter-L2".into(),
                ..DeviceConfig::gtx970()
            },
        ),
        (
            "GTX970, L2x4",
            DeviceConfig {
                l2_bytes: 7168 * 1024,
                name: "GTX970 quad-L2".into(),
                ..DeviceConfig::gtx970()
            },
        ),
    ];

    let mut t = TextTable::new(vec![
        "device",
        "speedup@K=32",
        "dram_ratio@K=32",
        "speedup@K=256",
        "dram_ratio@K=256",
    ]);
    for (label, cfg) in &devices {
        let (s32, d32) = study(cfg, m, 32);
        let (s256, d256) = study(cfg, m, 256);
        t.row(vec![
            label.to_string(),
            f3(s32),
            f3(d32),
            f3(s256),
            f3(d256),
        ]);
    }
    t.print(
        &format!("Device study: fused vs cuBLAS-Unfused at M={m}, N=1024"),
        false,
    );
    outln!("The fusion advantage is a property of the algorithm, not of one card:");
    outln!("it persists on the GTX980 and grows as the L2 shrinks (the unfused");
    outln!("pipeline depends on the cache to absorb its intermediate re-reads).");
    Ok(ExitCode::SUCCESS)
}
