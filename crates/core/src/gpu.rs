//! Simulated-GPU solvers with profile and energy reporting.
//!
//! Bridges [`KernelSumProblem`] to the `ks-gpu-kernels` pipelines.
//! The GPU kernels implement the paper's Gaussian evaluation in
//! hardware-shaped code, so this backend requires a Gaussian kernel
//! and paper-compatible dimensions (`M, N` multiples of 128, `K` a
//! multiple of 8).

use ks_energy::{pipeline_energy, EnergyBreakdown, EnergyParams};
use ks_gpu_kernels::{GpuKernelSummation, GpuVariant};
use ks_gpu_sim::profiler::PipelineProfile;
use ks_gpu_sim::{GpuDevice, LaunchError};

use crate::kernels::{GaussianKernel, KernelFunction};
use crate::problem::KernelSumProblem;

/// Profile + energy of one simulated run.
#[derive(Debug, Clone)]
pub struct GpuReport {
    /// Per-kernel profiles (counters, traffic, timing).
    pub profile: PipelineProfile,
    /// Four-way energy breakdown.
    pub energy: EnergyBreakdown,
    /// Peak FLOP/s of the simulated device (for efficiency numbers).
    pub peak_gflops: f64,
}

impl GpuReport {
    /// Pipeline FLOP efficiency (Table II).
    #[must_use]
    pub fn flop_efficiency(&self) -> f64 {
        self.profile.flop_efficiency(self.peak_gflops)
    }
}

/// Result of [`solve_gpu`].
#[derive(Debug, Clone)]
pub struct GpuSolveOutput {
    /// The potential vector `V ∈ R^M`.
    pub v: Vec<f32>,
    /// Profile and energy report.
    pub report: GpuReport,
}

/// Extracts the Gaussian bandwidth the GPU kernels need.
///
/// # Panics
/// Panics if the problem's kernel is not Gaussian — the GPU pipelines
/// hard-code the paper's Equation 1 (use the CPU backends for other
/// kernels).
fn bandwidth_of(p: &KernelSumProblem) -> f32 {
    assert_eq!(
        p.kernel().name(),
        GaussianKernel { h: 1.0 }.name(),
        "the simulated GPU pipelines implement the paper's Gaussian kernel only"
    );
    // Recover h from the kernel by probing: 𝒦(d²=2h²) = e^{-1}.
    // eval(1,·,·) = exp(-1/(2h²)) ⇒ h = sqrt(-1 / (2 ln eval)).
    let e = p.kernel().eval(1.0, 0.0, 0.0);
    (-1.0 / (2.0 * e.ln())).sqrt()
}

/// Pads row-major point coordinates from `(count, dim)` to
/// `(count_pad, dim_pad)` with zeros (`count_pad ≥ count`,
/// `dim_pad ≥ dim`). Zero coordinates do not change pairwise distances
/// in the original dimensions, and padded *points* are neutralised by
/// zero weights (targets) or dropped from the output (sources).
///
/// # Panics
/// Panics if `coords` holds fewer than `count * dim` values or
/// `count_pad < count`.
#[must_use]
pub fn pad_points(
    coords: &[f32],
    count: usize,
    dim: usize,
    count_pad: usize,
    dim_pad: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; count_pad * dim_pad];
    for p in 0..count {
        out[p * dim_pad..p * dim_pad + dim].copy_from_slice(&coords[p * dim..(p + 1) * dim]);
    }
    out
}

/// Runs a variant functionally on a fresh simulated GTX970 and
/// returns `V` plus the profile/energy report.
///
/// Dimensions are transparently padded to the GPU tiling constraints
/// (`M, N` to multiples of 128, `K` to a multiple of 8): zero-padding
/// coordinates preserves every pairwise distance, padded targets carry
/// zero weight, and padded sources are dropped from the result.
///
/// # Panics
/// Panics on non-Gaussian kernels (the GPU pipelines hard-code the
/// paper's Equation 1), or if the launch fails — which on the default
/// fault-free GTX 970 means a validation bug, never a soft error.
#[must_use]
pub fn solve_gpu(p: &KernelSumProblem, variant: GpuVariant) -> GpuSolveOutput {
    let mut dev = GpuDevice::gtx970();
    try_solve_gpu_on(&mut dev, p, variant).expect("launch validation")
}

/// [`solve_gpu`] on a caller-supplied device, surfacing launch
/// failures instead of panicking. With fault injection configured on
/// the device ([`ks_gpu_sim::FaultSpec`]), an `Err` is an *injected*
/// launch-level fault (SM loss, watchdog) that callers are expected to
/// handle — retry, degrade, or report.
///
/// # Errors
/// Launch validation failures, and injected launch faults when the
/// device has a fault model.
///
/// # Panics
/// Panics on non-Gaussian kernels (the GPU pipelines hard-code the
/// paper's Equation 1).
pub fn try_solve_gpu_on(
    dev: &mut GpuDevice,
    p: &KernelSumProblem,
    variant: GpuVariant,
) -> Result<GpuSolveOutput, LaunchError> {
    let (m, n, k) = p.dims();
    let h = bandwidth_of(p);
    let m_pad = m.next_multiple_of(128);
    let n_pad = n.next_multiple_of(128);
    let k_pad = k.next_multiple_of(8);
    let a = pad_points(p.sources().coords(), m, k, m_pad, k_pad);
    let b = pad_points(p.targets().coords(), n, k, n_pad, k_pad);
    let mut w = p.weights().to_vec();
    w.resize(n_pad, 0.0);

    let pipeline = GpuKernelSummation::new(m_pad, n_pad, k_pad, h);
    let (mut v, profile) = pipeline.execute(dev, variant, &a, &b, &w)?;
    v.truncate(m);
    let energy = pipeline_energy(&EnergyParams::default(), &profile);
    let peak = dev.config().peak_sp_gflops();
    Ok(GpuSolveOutput {
        v,
        report: GpuReport {
            profile,
            energy,
            peak_gflops: peak,
        },
    })
}

/// Profiles a variant (traffic-only, any size) without numerics.
///
/// # Panics
/// Panics on invalid dimensions, a non-Gaussian kernel, or a launch
/// failure (impossible on the default fault-free device).
#[must_use]
pub fn profile_gpu(m: usize, n: usize, k: usize, h: f32, variant: GpuVariant) -> GpuReport {
    let mut dev = GpuDevice::gtx970();
    try_profile_gpu_on(&mut dev, m, n, k, h, variant).expect("launch validation")
}

/// [`profile_gpu`] on a caller-supplied device, surfacing launch
/// failures — including injected launch faults — instead of panicking.
///
/// # Errors
/// Launch validation failures, and injected launch faults when the
/// device has a fault model.
pub fn try_profile_gpu_on(
    dev: &mut GpuDevice,
    m: usize,
    n: usize,
    k: usize,
    h: f32,
    variant: GpuVariant,
) -> Result<GpuReport, LaunchError> {
    let pipeline = GpuKernelSummation::new(m, n, k, h);
    let profile = pipeline.profile(dev, variant)?;
    let energy = pipeline_energy(&EnergyParams::default(), &profile);
    Ok(GpuReport {
        profile,
        energy,
        peak_gflops: dev.config().peak_sp_gflops(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Backend, PointSet};
    use crate::reference;
    use crate::validate::max_rel_error;

    fn build(m: usize, n: usize, k: usize) -> KernelSumProblem {
        KernelSumProblem::builder()
            .sources(PointSet::uniform_cube(m, k, 100))
            .targets(PointSet::uniform_cube(n, k, 101))
            .weights(PointSet::uniform_cube(n, 1, 102).coords().to_vec())
            .kernel(GaussianKernel { h: 0.9 })
            .build()
    }

    #[test]
    fn bandwidth_recovery_is_exact() {
        let p = build(128, 128, 8);
        assert!((bandwidth_of(&p) - 0.9).abs() < 1e-4);
    }

    #[test]
    fn gpu_backends_match_reference() {
        let p = build(128, 256, 16);
        let want = reference::solve(&p);
        for variant in GpuVariant::ALL {
            let out = solve_gpu(&p, variant);
            assert!(
                max_rel_error(&out.v, &want) < 5e-3,
                "{}: error {}",
                variant.label(),
                max_rel_error(&out.v, &want)
            );
            assert!(out.report.energy.total_j() > 0.0);
            assert!(out.report.flop_efficiency() > 0.0);
        }
    }

    #[test]
    fn backend_enum_routes_to_gpu() {
        let p = build(128, 128, 8);
        let v = p.solve(Backend::GpuSim(GpuVariant::Fused));
        let want = reference::solve(&p);
        assert!(max_rel_error(&v, &want) < 5e-3);
    }

    #[test]
    fn profile_only_reports_at_scale() {
        let r = profile_gpu(4096, 1024, 32, 1.0, GpuVariant::CublasUnfused);
        assert!(r.profile.total_time_s() > 0.0);
        assert!(r.energy.dram_share() > 0.0);
    }

    #[test]
    fn padding_handles_awkward_dimensions() {
        // M, N, K all violate the tiling; padding must hide it.
        let p = KernelSumProblem::builder()
            .sources(PointSet::uniform_cube(100, 3, 50))
            .targets(PointSet::uniform_cube(70, 3, 51))
            .weights(PointSet::uniform_cube(70, 1, 52).coords().to_vec())
            .kernel(GaussianKernel { h: 0.5 })
            .build();
        let want = reference::solve(&p);
        let out = solve_gpu(&p, GpuVariant::Fused);
        assert_eq!(out.v.len(), 100);
        assert!(
            max_rel_error(&out.v, &want) < 5e-3,
            "err {}",
            max_rel_error(&out.v, &want)
        );
    }

    #[test]
    fn injected_launch_faults_surface_as_errors_not_panics() {
        let mut cfg = ks_gpu_sim::DeviceConfig::gtx970();
        cfg.fault = Some(ks_gpu_sim::FaultSpec {
            sm_loss_rate: 1.0,
            ..Default::default()
        });
        let mut dev = GpuDevice::new(cfg);
        let p = build(128, 128, 8);
        let err = try_solve_gpu_on(&mut dev, &p, GpuVariant::Fused);
        assert!(matches!(err, Err(LaunchError::SmLost { .. })), "{err:?}");
        assert_eq!(dev.take_fault_counters().launch_faults, 1);

        let err = try_profile_gpu_on(&mut dev, 1024, 1024, 32, 1.0, GpuVariant::Fused);
        assert!(matches!(err, Err(LaunchError::SmLost { .. })), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "Gaussian kernel only")]
    fn gpu_rejects_non_gaussian() {
        let p = KernelSumProblem::builder()
            .sources(PointSet::uniform_cube(128, 8, 1))
            .targets(PointSet::uniform_cube(128, 8, 2))
            .kernel(crate::kernels::LaplaceKernel { h: 1.0 })
            .build();
        let _ = solve_gpu(&p, GpuVariant::Fused);
    }
}
