//! The three end-to-end kernel-summation implementations of §IV.
//!
//! | Variant | Kernels launched |
//! |---|---|
//! | `Fused` | norms(A), norms(B), fused kernel summation |
//! | `CUDA-Unfused` | norms(A), norms(B), CUDA-C SGEMM → C, eval+sum |
//! | `cuBLAS-Unfused` | norms(A), norms(B), vendor SGEMM → C, eval+sum |
//!
//! Each variant can be **executed** (functional numerics + profile) or
//! **profiled** (traffic replay over virtual buffers — usable at the
//! paper's largest `M = 524288`, where the intermediate matrix alone
//! would be 2 GB).

use ks_gpu_sim::buffer::BufId;
use ks_gpu_sim::device::GpuDevice;
use ks_gpu_sim::kernel::{Kernel, LaunchError};
use ks_gpu_sim::profiler::PipelineProfile;

use crate::aux_kernels::{Bandwidth, EvalSumKernel, NormsKernel};
use crate::fused::FusedKernelSummation;
use crate::gemm_engine::{GemmOperands, GemmShape};
use crate::geometry::TileGeometry;
use crate::layout::SmemLayout;
use crate::sgemm::{CudaSgemm, VendorSgemm};

/// Kernel-summation problem dimensions: `A` is M×K (sources, row-major),
/// `B` is K×N (targets, col-major), `W ∈ R^N`, `V ∈ R^M`.
///
/// Note on the paper's notation: Equation (2) writes the sum per target
/// point; Algorithm 2 (which we follow) produces one output per *row*
/// of `A`, i.e. `V = K·W`. The two are the same computation with the
/// roles of the point sets swapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProblemDims {
    /// Number of source points (rows of A and of C).
    pub m: usize,
    /// Number of target points (columns of B and of C).
    pub n: usize,
    /// Dimension of the point space (the paper's K).
    pub k: usize,
}

impl ProblemDims {
    /// As a GEMM shape.
    #[must_use]
    pub fn shape(&self) -> GemmShape {
        GemmShape {
            m: self.m,
            n: self.n,
            k: self.k,
        }
    }

    /// Validates the tiling constraints.
    ///
    /// # Panics
    /// Panics if the dimensions violate them.
    pub fn validate(&self) {
        self.shape().validate();
    }
}

/// Which implementation to run (§IV: "three different implementations
/// of kernel summation problem are run and compared").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuVariant {
    /// The paper's contribution (§III).
    Fused,
    /// Own SGEMM + separate evaluation/summation kernel.
    CudaUnfused,
    /// Vendor (cuBLAS-model) SGEMM + separate evaluation/summation.
    CublasUnfused,
}

impl GpuVariant {
    /// All three variants in the paper's presentation order.
    pub const ALL: [GpuVariant; 3] = [
        GpuVariant::Fused,
        GpuVariant::CudaUnfused,
        GpuVariant::CublasUnfused,
    ];

    /// The paper's label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            GpuVariant::Fused => "Fused",
            GpuVariant::CudaUnfused => "CUDA-Unfused",
            GpuVariant::CublasUnfused => "cuBLAS-Unfused",
        }
    }
}

/// Configured kernel-summation pipeline factory.
#[derive(Debug, Clone, Copy)]
pub struct GpuKernelSummation {
    /// Problem dimensions.
    pub dims: ProblemDims,
    /// Gaussian bandwidth.
    pub bw: Bandwidth,
    /// Shared-memory placement for the GEMM-structured kernels.
    pub layout: SmemLayout,
    /// Double buffering for the GEMM-structured kernels.
    pub double_buffer: bool,
    /// Tile geometry of the fused kernel (the autotuner's knob; the
    /// SGEMM-structured kernels stay at the paper point).
    pub geometry: TileGeometry,
}

struct DeviceBufs {
    ops: GemmOperands,
    a2: BufId,
    b2: BufId,
    w: BufId,
    v: BufId,
    c: Option<BufId>,
}

impl GpuKernelSummation {
    /// Creates a pipeline factory with the paper's default options.
    ///
    /// # Panics
    /// Panics if the dimensions violate the tiling constraints or the
    /// bandwidth is invalid.
    #[must_use]
    pub fn new(m: usize, n: usize, k: usize, h: f32) -> Self {
        let dims = ProblemDims { m, n, k };
        dims.validate();
        let bw = Bandwidth { h };
        let _ = bw.inv_2h2(); // validates h
        Self {
            dims,
            bw,
            layout: SmemLayout::default(),
            double_buffer: true,
            geometry: TileGeometry::paper_default(),
        }
    }

    /// Overrides the shared-memory layout (ablation).
    #[must_use]
    pub fn with_layout(mut self, layout: SmemLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Overrides double buffering (ablation).
    #[must_use]
    pub fn with_double_buffer(mut self, on: bool) -> Self {
        self.double_buffer = on;
        self
    }

    /// Overrides the fused kernel's tile geometry (the tuned path).
    ///
    /// # Panics
    /// Panics if the dimensions violate the geometry's constraints.
    #[must_use]
    pub fn with_geometry(mut self, geometry: TileGeometry) -> Self {
        self.dims.shape().validate_for(&geometry);
        self.geometry = geometry;
        self
    }

    fn kernels(&self, variant: GpuVariant, bufs: &DeviceBufs) -> Vec<Box<dyn Kernel>> {
        let d = self.dims;
        let mut ks: Vec<Box<dyn Kernel>> = vec![
            Box::new(NormsKernel::new(bufs.ops.a, bufs.a2, d.m, d.k, "a")),
            Box::new(NormsKernel::new(bufs.ops.b, bufs.b2, d.n, d.k, "b")),
        ];
        match variant {
            GpuVariant::Fused => {
                ks.push(Box::new(
                    FusedKernelSummation::new(
                        bufs.ops,
                        bufs.a2,
                        bufs.b2,
                        bufs.w,
                        bufs.v,
                        d.shape(),
                        self.bw,
                    )
                    .with_geometry(self.geometry)
                    .with_layout(self.layout)
                    .with_double_buffer(self.double_buffer),
                ));
            }
            GpuVariant::CudaUnfused | GpuVariant::CublasUnfused => {
                let c = bufs
                    .c
                    .expect("unfused pipelines need the intermediate buffer");
                if variant == GpuVariant::CudaUnfused {
                    ks.push(Box::new(
                        CudaSgemm::new(bufs.ops, c, d.shape())
                            .with_layout(self.layout)
                            .with_double_buffer(self.double_buffer),
                    ));
                } else {
                    ks.push(Box::new(VendorSgemm::new(bufs.ops, c, d.shape())));
                }
                ks.push(Box::new(EvalSumKernel::new(
                    c, bufs.a2, bufs.b2, bufs.w, bufs.v, d.m, d.n, self.bw,
                )));
            }
        }
        ks
    }

    fn alloc_bufs(
        &self,
        dev: &mut GpuDevice,
        variant: GpuVariant,
        data: Option<(&[f32], &[f32], &[f32])>,
    ) -> DeviceBufs {
        let d = self.dims;
        let needs_c = variant != GpuVariant::Fused;
        match data {
            Some((a, b, w)) => {
                assert_eq!(a.len(), d.m * d.k, "A must be M·K elements");
                assert_eq!(b.len(), d.k * d.n, "B must be K·N elements");
                assert_eq!(w.len(), d.n, "W must be N elements");
                DeviceBufs {
                    ops: GemmOperands {
                        a: dev.upload(a),
                        b: dev.upload(b),
                    },
                    a2: dev.alloc(d.m),
                    b2: dev.alloc(d.n),
                    w: dev.upload(w),
                    v: dev.alloc(d.m),
                    c: needs_c.then(|| dev.alloc(d.m * d.n)),
                }
            }
            None => DeviceBufs {
                ops: GemmOperands {
                    a: dev.alloc_virtual(d.m * d.k),
                    b: dev.alloc_virtual(d.k * d.n),
                },
                a2: dev.alloc_virtual(d.m),
                b2: dev.alloc_virtual(d.n),
                w: dev.alloc_virtual(d.n),
                v: dev.alloc_virtual(d.m),
                c: needs_c.then(|| dev.alloc_virtual(d.m * d.n)),
            },
        }
    }

    /// Profiles a variant on a fresh (cold-cache) device using virtual
    /// buffers: works at any problem size, no numerics.
    ///
    /// # Errors
    /// Propagates launch-validation failures.
    pub fn profile(
        &self,
        dev: &mut GpuDevice,
        variant: GpuVariant,
    ) -> Result<PipelineProfile, LaunchError> {
        let bufs = self.alloc_bufs(dev, variant, None);
        dev.invalidate_l2();
        let mut prof = PipelineProfile::new(variant.label());
        for k in self.kernels(variant, &bufs) {
            prof.kernels.push(dev.launch(k.as_ref())?);
        }
        Ok(prof)
    }

    /// Executes a variant functionally **and** profiles it. Returns
    /// `(V, profile)`.
    ///
    /// # Errors
    /// Propagates launch-validation failures.
    pub fn execute(
        &self,
        dev: &mut GpuDevice,
        variant: GpuVariant,
        a: &[f32],
        b: &[f32],
        w: &[f32],
    ) -> Result<(Vec<f32>, PipelineProfile), LaunchError> {
        let bufs = self.alloc_bufs(dev, variant, Some((a, b, w)));
        dev.invalidate_l2();
        dev.memset_zero(bufs.v); // cudaMemset before the atomic reduction
        let mut prof = PipelineProfile::new(variant.label());
        for k in self.kernels(variant, &bufs) {
            prof.kernels.push(dev.launch(k.as_ref())?);
            dev.run(k.as_ref())?;
        }
        Ok((dev.download(bufs.v), prof))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aux_kernels::gaussian;

    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        }
    }

    fn problem(m: usize, n: usize, k: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut next = lcg(seed);
        (
            (0..m * k).map(|_| next() * 0.5).collect(),
            (0..k * n).map(|_| next() * 0.5).collect(),
            (0..n).map(|_| next()).collect(),
        )
    }

    fn cpu_reference(
        a: &[f32],
        b: &[f32],
        w: &[f32],
        m: usize,
        n: usize,
        k: usize,
        h: f32,
    ) -> Vec<f32> {
        let s = Bandwidth { h }.inv_2h2();
        (0..m)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let d: f32 = (0..k).map(|t| (a[i * k + t] - b[j * k + t]).powi(2)).sum();
                        gaussian(d, s) * w[j]
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn all_three_variants_agree_with_cpu() {
        let (m, n, k, h) = (128, 256, 16, 0.9);
        let (a, b, w) = problem(m, n, k, 77);
        let want = cpu_reference(&a, &b, &w, m, n, k, h);
        for variant in GpuVariant::ALL {
            let mut dev = GpuDevice::gtx970();
            let ks = GpuKernelSummation::new(m, n, k, h);
            let (got, prof) = ks.execute(&mut dev, variant, &a, &b, &w).unwrap();
            assert_eq!(
                prof.kernels.len(),
                if variant == GpuVariant::Fused { 3 } else { 4 }
            );
            for (i, (g, wv)) in got.iter().zip(want.iter()).enumerate() {
                assert!(
                    (g - wv).abs() < 3e-3 * wv.abs().max(1.0),
                    "{} row {i}: {g} vs {wv}",
                    variant.label()
                );
            }
        }
    }

    #[test]
    fn fused_has_far_fewer_dram_transactions() {
        // Fig 8b: "the number of DRAM transactions in Fused is less
        // than 10% of cuBLAS-Unfused in all problem sizes".
        let ks = GpuKernelSummation::new(1024, 1024, 32, 1.0);
        let mut d1 = GpuDevice::gtx970();
        let fused = ks.profile(&mut d1, GpuVariant::Fused).unwrap();
        let mut d2 = GpuDevice::gtx970();
        let unfused = ks.profile(&mut d2, GpuVariant::CublasUnfused).unwrap();
        let ratio = fused.total_mem().dram_transactions() as f64
            / unfused.total_mem().dram_transactions() as f64;
        assert!(ratio < 0.10, "DRAM ratio {ratio}");
    }

    #[test]
    fn fused_is_faster_at_low_k() {
        // Fig 6: speedup > 1 for K = 32.
        let ks = GpuKernelSummation::new(8192, 1024, 32, 1.0);
        let mut d1 = GpuDevice::gtx970();
        let fused = ks.profile(&mut d1, GpuVariant::Fused).unwrap();
        let mut d2 = GpuDevice::gtx970();
        let unfused = ks.profile(&mut d2, GpuVariant::CublasUnfused).unwrap();
        let speedup = unfused.total_time_s() / fused.total_time_s();
        assert!(speedup > 1.0, "speedup {speedup}");
    }

    #[test]
    fn profile_works_at_paper_scale_virtually() {
        // M = 65536 with a virtual intermediate (256 MB would be real).
        let ks = GpuKernelSummation::new(65536, 1024, 32, 1.0);
        let mut dev = GpuDevice::gtx970();
        let prof = ks.profile(&mut dev, GpuVariant::CublasUnfused).unwrap();
        assert!(prof.total_mem().dram_transactions() > 0);
        assert!(prof.total_time_s() > 0.0);
    }

    /// The unfused pipelines' traffic keys change with every buffer
    /// address and stream parameter, and never with a name, a label,
    /// the bandwidth or the exec model: the vendor GEMM keys as its
    /// inner CUDA-C GEMM.
    #[test]
    fn traffic_keys_cover_every_buffer_and_stream_parameter() {
        let mut dev = GpuDevice::gtx970();
        let bufs: Vec<BufId> = (0..6).map(|_| dev.alloc_virtual(1 << 16)).collect();
        let mem = dev.mem();
        let key = |k: &dyn Kernel| k.traffic_key(mem).expect("keyed kernel");
        let moved = |i: usize| {
            let mut b = bufs.clone();
            b[i] = bufs[5];
            b
        };
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 16,
        };
        let sgemm =
            |b: &[BufId], shape| CudaSgemm::new(GemmOperands { a: b[0], b: b[1] }, b[2], shape);
        let base = key(&sgemm(&bufs, shape));
        for i in 0..3 {
            assert_ne!(key(&sgemm(&moved(i), shape)), base, "sgemm buffer {i}");
        }
        assert_ne!(key(&sgemm(&bufs, GemmShape { k: 32, ..shape })), base);
        assert_ne!(
            key(&sgemm(&bufs, shape).with_layout(SmemLayout::NaiveRowMajor)),
            base
        );
        assert_ne!(key(&sgemm(&bufs, shape).with_double_buffer(false)), base);
        let ops = GemmOperands {
            a: bufs[0],
            b: bufs[1],
        };
        assert_eq!(key(&VendorSgemm::new(ops, bufs[2], shape)), base);

        let norms = |b: &[BufId], n, label| NormsKernel::new(b[0], b[1], n, 16, label);
        let base = key(&norms(&bufs, 256, "a"));
        assert_eq!(key(&norms(&bufs, 256, "b")), base);
        assert_ne!(key(&norms(&bufs, 384, "a")), base);
        for i in 0..2 {
            assert_ne!(key(&norms(&moved(i), 256, "a")), base, "norms buffer {i}");
        }

        let eval = |b: &[BufId], m, h| {
            EvalSumKernel::new(b[0], b[1], b[2], b[3], b[4], m, 256, Bandwidth { h })
        };
        let base = key(&eval(&bufs, 256, 1.0));
        assert_eq!(key(&eval(&bufs, 256, 2.0)), base);
        assert_ne!(key(&eval(&bufs, 384, 1.0)), base);
        for i in 0..5 {
            assert_ne!(key(&eval(&moved(i), 256, 1.0)), base, "eval_sum buffer {i}");
        }
    }

    #[test]
    fn variant_labels() {
        assert_eq!(GpuVariant::Fused.label(), "Fused");
        assert_eq!(GpuVariant::CudaUnfused.label(), "CUDA-Unfused");
        assert_eq!(GpuVariant::CublasUnfused.label(), "cuBLAS-Unfused");
    }

    #[test]
    #[should_panic(expected = "A must be")]
    fn execute_rejects_bad_input_lengths() {
        let ks = GpuKernelSummation::new(128, 128, 8, 1.0);
        let mut dev = GpuDevice::gtx970();
        let _ = ks.execute(
            &mut dev,
            GpuVariant::Fused,
            &[0.0; 10],
            &[0.0; 1024],
            &[0.0; 128],
        );
    }
}
