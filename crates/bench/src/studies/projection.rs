//! The paper's §V projection, made literal.
//!
//! The paper argues: *"If an SGEMM as good as cuBLAS is applied, fused
//! implementation is able to achieve up to 3.7X performance
//! improvement"* — inferred indirectly by comparing Fused against
//! CUDA-Unfused (both handicapped by CUDA-C code quality). Our
//! simulator can run the hypothesis directly: the same fused kernel
//! under the *vendor* execution model (hand-scheduled SASS quality).
//!
//! Printed per (K, M): the paper's indirect projection
//! (CUDA-Unfused / Fused) and the direct one
//! (cuBLAS-Unfused / Fused-vendor).

use std::process::ExitCode;

use ks_bench::cli::{Flags, UsageError};
use ks_bench::table::{f3, ms, TextTable};
use ks_bench::{profile_or_exit, Sweep};
use ks_gpu_kernels::aux_kernels::Bandwidth;
use ks_gpu_kernels::fused::FusedKernelSummation;
use ks_gpu_kernels::gemm_engine::{GemmOperands, GemmShape};
use ks_gpu_sim::kernel::ExecModel;
use ks_gpu_sim::GpuDevice;

fn fused_vendor_time(m: usize, n: usize, k: usize) -> f64 {
    let mut dev = GpuDevice::gtx970();
    let shape = GemmShape { m, n, k };
    let ops = GemmOperands {
        a: dev.alloc_virtual(m * k),
        b: dev.alloc_virtual(k * n),
    };
    let a2 = dev.alloc_virtual(m);
    let b2 = dev.alloc_virtual(n);
    let w = dev.alloc_virtual(n);
    let v = dev.alloc_virtual(m);
    let kern = FusedKernelSummation::new(ops, a2, b2, w, v, shape, Bandwidth { h: 1.0 })
        .with_exec_model(ExecModel::Vendor);
    dev.launch(&kern).unwrap().timing.time_s
}

/// Prints both projections at every point of the chosen sweep.
pub fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    Flags::parse(args, &["--smoke", "--full"], &[])?;
    let d = profile_or_exit(Sweep::from_args(args));

    let mut t = TextTable::new(vec![
        "K",
        "M",
        "t_fused_vendor",
        "indirect projection (cuda_unf / fused)",
        "direct projection (cublas_unf / fused_vendor)",
    ]);
    for p in &d.points {
        // The norms kernels are shared; add them to the vendor-fused
        // pipeline the same way.
        let aux: f64 = p.fused.kernels[..2].iter().map(|k| k.timing.time_s).sum();
        let fv = fused_vendor_time(p.m, p.n, p.k) + aux;
        t.row(vec![
            p.k.to_string(),
            p.m.to_string(),
            ms(fv),
            f3(p.speedup_vs_cuda()),
            f3(p.cublas_unfused.total_time_s() / fv),
        ]);
    }
    t.print("§V projection: fusion with a cuBLAS-quality GEMM", false);
    Ok(ExitCode::SUCCESS)
}
