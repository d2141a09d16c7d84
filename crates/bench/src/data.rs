//! Shared profiling engine: every exhibit is a view over one sweep's
//! worth of pipeline profiles.

use std::sync::Arc;

use ks_energy::{pipeline_energy, EnergyBreakdown, EnergyParams};
use ks_gpu_kernels::{GpuKernelSummation, GpuVariant};
use ks_gpu_sim::profiler::{KernelProfile, PipelineProfile};
use ks_gpu_sim::{DeviceConfig, GpuDevice, LaunchError, ReplayMemo};
use rayon::prelude::*;

use crate::sweep::Sweep;

/// All three pipeline profiles (plus energies) for one `(K, M)` point.
pub struct PointData {
    /// Point-space dimension.
    pub k: usize,
    /// Source count.
    pub m: usize,
    /// Target count.
    pub n: usize,
    /// Fused pipeline profile.
    pub fused: PipelineProfile,
    /// CUDA-Unfused pipeline profile.
    pub cuda_unfused: PipelineProfile,
    /// cuBLAS-Unfused pipeline profile.
    pub cublas_unfused: PipelineProfile,
    /// Fused energy.
    pub fused_energy: EnergyBreakdown,
    /// CUDA-Unfused energy.
    pub cuda_energy: EnergyBreakdown,
    /// cuBLAS-Unfused energy.
    pub cublas_energy: EnergyBreakdown,
    /// Host wall time spent profiling this point, in milliseconds
    /// (nondeterministic — excluded from regression diffs).
    pub wall_time_ms: f64,
}

impl PointData {
    /// Profiles all three variants at `(k, m, n)` on fresh devices
    /// sharing one replay memo: the two unfused pipelines send the
    /// same L2 stream launch for launch (the vendor GEMM differs in
    /// timing only), and all three start with the same norms
    /// launches, so 6 of the 11 launches restore a memoised L2
    /// instead of replaying.
    ///
    /// # Errors
    /// Returns the [`LaunchError`] of the first variant whose launch
    /// the device rejects (e.g. the dimensions violate the tiling
    /// constraints).
    pub fn compute(k: usize, m: usize, n: usize) -> Result<Self, LaunchError> {
        Self::compute_with(k, m, n, &Arc::new(ReplayMemo::new()))
    }

    fn compute_with(
        k: usize,
        m: usize,
        n: usize,
        memo: &Arc<ReplayMemo>,
    ) -> Result<Self, LaunchError> {
        let started = std::time::Instant::now();
        let pipeline = GpuKernelSummation::new(m, n, k, 1.0);
        let params = EnergyParams::default();
        let run = |variant: GpuVariant| {
            let mut dev = GpuDevice::gtx970().with_memo(Arc::clone(memo));
            pipeline.profile(&mut dev, variant)
        };
        let fused = run(GpuVariant::Fused)?;
        let cuda_unfused = run(GpuVariant::CudaUnfused)?;
        let cublas_unfused = run(GpuVariant::CublasUnfused)?;
        let fused_energy = pipeline_energy(&params, &fused);
        let cuda_energy = pipeline_energy(&params, &cuda_unfused);
        let cublas_energy = pipeline_energy(&params, &cublas_unfused);
        Ok(Self {
            k,
            m,
            n,
            fused,
            cuda_unfused,
            cublas_unfused,
            fused_energy,
            cuda_energy,
            cublas_energy,
            wall_time_ms: started.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// The CUDA-C GEMM kernel profile (third kernel of CUDA-Unfused).
    #[must_use]
    pub fn cudac_gemm(&self) -> &KernelProfile {
        &self.cuda_unfused.kernels[2]
    }

    /// The vendor (cuBLAS-model) GEMM kernel profile.
    #[must_use]
    pub fn vendor_gemm(&self) -> &KernelProfile {
        &self.cublas_unfused.kernels[2]
    }

    /// Fused speedup over cuBLAS-Unfused (Fig 6's headline series).
    #[must_use]
    pub fn speedup_vs_cublas(&self) -> f64 {
        self.cublas_unfused.total_time_s() / self.fused.total_time_s()
    }

    /// Fused speedup over CUDA-Unfused (Fig 6's projected series).
    #[must_use]
    pub fn speedup_vs_cuda(&self) -> f64 {
        self.cuda_unfused.total_time_s() / self.fused.total_time_s()
    }
}

/// Profiles `sweep`, exiting the process with a readable message when
/// the device rejects a launch. The shared entry point for the CLI
/// commands — library callers should use [`SweepData::compute`] and handle
/// the [`LaunchError`] themselves.
#[must_use]
pub fn profile_or_exit(sweep: Sweep) -> SweepData {
    SweepData::compute(sweep).unwrap_or_else(|e| {
        crate::eoutln!("error: cannot profile sweep: {e}");
        std::process::exit(1);
    })
}

/// One full sweep of [`PointData`].
pub struct SweepData {
    /// The grid that was profiled.
    pub sweep: Sweep,
    /// Per-point data, in `sweep.points()` order.
    pub points: Vec<PointData>,
    /// The simulated device (for peaks and Table I).
    pub device: DeviceConfig,
}

impl SweepData {
    /// Profiles the whole grid (points in parallel — each owns its
    /// device, so they are independent).
    ///
    /// # Errors
    /// Returns the first [`LaunchError`] encountered across the grid.
    pub fn compute(sweep: Sweep) -> Result<Self, LaunchError> {
        let pts: Vec<(usize, usize)> = sweep.points().collect();
        let n = sweep.n;
        let points: Vec<PointData> = pts
            .par_iter()
            .map(|&(k, m)| PointData::compute(k, m, n))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            sweep,
            points,
            device: DeviceConfig::gtx970(),
        })
    }

    /// Data for one `(k, m)` point.
    #[must_use]
    pub fn at(&self, k: usize, m: usize) -> Option<&PointData> {
        self.points.iter().find(|p| p.k == k && p.m == m)
    }

    /// Points for one K group, in increasing M.
    pub fn group(&self, k: usize) -> impl Iterator<Item = &PointData> {
        self.points.iter().filter(move |p| p.k == k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_data_has_expected_kernel_counts() {
        let p = PointData::compute(32, 1024, 1024).expect("valid launch");
        assert_eq!(p.fused.kernels.len(), 3);
        assert_eq!(p.cuda_unfused.kernels.len(), 4);
        assert_eq!(p.cublas_unfused.kernels.len(), 4);
        assert!(p.cudac_gemm().name.contains("cudac"));
        assert!(p.vendor_gemm().name.contains("vendor"));
    }

    #[test]
    fn sweep_data_orders_points() {
        let d = SweepData::compute(Sweep::smoke()).expect("valid launch");
        assert_eq!(d.points.len(), 4);
        assert!(d.at(32, 1024).is_some());
        assert!(d.at(99, 1024).is_none());
        assert_eq!(d.group(32).count(), 2);
    }

    #[test]
    fn a_point_replays_each_launch_once_and_matches_fresh_devices() {
        let memo = Arc::new(ReplayMemo::new());
        let p = PointData::compute_with(32, 1024, 1024, &memo).expect("valid launch");
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.retired), (6, 5, 0));
        let pipeline = GpuKernelSummation::new(1024, 1024, 32, 1.0);
        for (variant, got) in
            GpuVariant::ALL
                .into_iter()
                .zip([&p.fused, &p.cuda_unfused, &p.cublas_unfused])
        {
            let mut dev = GpuDevice::gtx970();
            dev.set_replay_strategy(ks_gpu_sim::ReplayStrategy::Serial);
            let want = pipeline.profile(&mut dev, variant).expect("valid launch");
            assert_eq!(got, &want, "{}", variant.label());
        }
    }

    #[test]
    fn speedups_are_positive() {
        let p = PointData::compute(32, 2048, 1024).expect("valid launch");
        assert!(p.speedup_vs_cublas() > 0.0);
        assert!(
            p.speedup_vs_cuda() > p.speedup_vs_cublas(),
            "CUDA-Unfused must be the slower baseline"
        );
    }
}
