//! Problem definition, synthetic point sets and the solver façade.

use std::sync::Arc;

use ks_blas::{Layout, Matrix};
use rand::distributions::{Distribution, Uniform};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rand_distr::Normal;

use crate::cpu_fused::{self, FusedCpuConfig};
use crate::cpu_unfused;
use crate::gpu;
use crate::kernels::{GaussianKernel, KernelFunction};
use crate::reference;

/// A set of points in `R^dim`, stored point-contiguously (each point's
/// `dim` coordinates adjacent) — the layout every kernel in the
/// workspace expects along K.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet {
    coords: Vec<f32>,
    n_points: usize,
    dim: usize,
}

impl PointSet {
    /// Wraps existing coordinates (`coords.len() == n_points · dim`).
    ///
    /// # Panics
    /// Panics on a length mismatch or zero dimensions.
    #[must_use]
    pub fn from_coords(n_points: usize, dim: usize, coords: Vec<f32>) -> Self {
        assert!(dim > 0, "zero-dimensional points");
        assert_eq!(
            coords.len(),
            n_points * dim,
            "coordinate buffer length mismatch"
        );
        Self {
            coords,
            n_points,
            dim,
        }
    }

    /// Uniform points in `[0, 1]^dim` (the classic kernel-summation
    /// benchmark distribution), deterministic in `seed`.
    #[must_use]
    pub fn uniform_cube(n_points: usize, dim: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let u = Uniform::new(0.0f32, 1.0f32);
        let coords = (0..n_points * dim).map(|_| u.sample(&mut rng)).collect();
        Self::from_coords(n_points, dim, coords)
    }

    /// A mixture of `clusters` isotropic Gaussian blobs with standard
    /// deviation `sigma` — the clustered data of density-estimation
    /// workloads (§II-A).
    ///
    /// # Panics
    /// Panics if `clusters == 0` or `sigma` is not finite-positive.
    #[must_use]
    pub fn gaussian_clusters(
        n_points: usize,
        dim: usize,
        clusters: usize,
        sigma: f32,
        seed: u64,
    ) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let centre_dist = Uniform::new(0.0f32, 1.0f32);
        let centres: Vec<f32> = (0..clusters * dim)
            .map(|_| centre_dist.sample(&mut rng))
            .collect();
        let noise = Normal::new(0.0f32, sigma).expect("valid sigma");
        let mut coords = Vec::with_capacity(n_points * dim);
        for p in 0..n_points {
            let c = p % clusters;
            for d in 0..dim {
                coords.push(centres[c * dim + d] + noise.sample(&mut rng));
            }
        }
        Self::from_coords(n_points, dim, coords)
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n_points
    }

    /// True if the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_points == 0
    }

    /// Point-space dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Flat coordinate slice (point-contiguous).
    #[must_use]
    pub fn coords(&self) -> &[f32] {
        &self.coords
    }

    /// Coordinates of point `i`.
    #[must_use]
    pub fn point(&self, i: usize) -> &[f32] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// As the paper's row-major `A` matrix (`n_points × dim`).
    #[must_use]
    pub fn as_row_major(&self) -> Matrix {
        Matrix::from_vec(
            self.n_points,
            self.dim,
            Layout::RowMajor,
            self.coords.clone(),
        )
    }

    /// As the paper's column-major `B` matrix (`dim × n_points`).
    #[must_use]
    pub fn as_col_major_transposed(&self) -> Matrix {
        Matrix::from_vec(
            self.dim,
            self.n_points,
            Layout::ColMajor,
            self.coords.clone(),
        )
    }
}

/// Which solver evaluates the problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Naive `O(MNK)` oracle with f64 accumulation.
    Reference,
    /// BLAS pipeline materialising the `M×N` intermediate.
    CpuUnfused,
    /// Fused CPU implementation in row lanes (the paper's idea).
    CpuFused,
    /// Simulated GTX970 (see [`crate::gpu`] for the variants and for
    /// profile/energy access).
    GpuSim(ks_gpu_kernels::GpuVariant),
}

/// A fully-specified kernel-summation instance.
pub struct KernelSumProblem {
    sources: PointSet,
    targets: PointSet,
    weights: Vec<f32>,
    kernel: Arc<dyn KernelFunction>,
}

impl KernelSumProblem {
    /// Starts a builder.
    #[must_use]
    pub fn builder() -> ProblemBuilder {
        ProblemBuilder::default()
    }

    /// Source points (rows of `A`; one output per source).
    #[must_use]
    pub fn sources(&self) -> &PointSet {
        &self.sources
    }

    /// Target points (columns of `B`).
    #[must_use]
    pub fn targets(&self) -> &PointSet {
        &self.targets
    }

    /// Weights (one per target).
    #[must_use]
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The kernel function.
    #[must_use]
    pub fn kernel(&self) -> &dyn KernelFunction {
        self.kernel.as_ref()
    }

    /// `(M, N, K)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.sources.len(), self.targets.len(), self.sources.dim())
    }

    /// Solves with the chosen backend, returning `V ∈ R^M`.
    ///
    /// For GPU backends this runs the simulated pipeline functionally;
    /// use [`gpu::solve_gpu`] directly when the profile and energy
    /// report are also needed.
    ///
    /// # Panics
    /// Panics if a GPU backend is asked for a non-Gaussian kernel or
    /// dimensions violating the GPU tiling (the CPU backends accept
    /// any kernel and any sizes).
    #[must_use]
    pub fn solve(&self, backend: Backend) -> Vec<f32> {
        match backend {
            Backend::Reference => reference::solve(self),
            Backend::CpuUnfused => cpu_unfused::solve(self),
            Backend::CpuFused => cpu_fused::solve(self, &FusedCpuConfig::default()),
            Backend::GpuSim(variant) => gpu::solve_gpu(self, variant).v,
        }
    }
}

/// Builder for [`KernelSumProblem`].
#[derive(Default)]
pub struct ProblemBuilder {
    sources: Option<PointSet>,
    targets: Option<PointSet>,
    weights: Option<Vec<f32>>,
    kernel: Option<Arc<dyn KernelFunction>>,
}

impl ProblemBuilder {
    /// Sets the source points.
    #[must_use]
    pub fn sources(mut self, s: PointSet) -> Self {
        self.sources = Some(s);
        self
    }

    /// Sets the target points.
    #[must_use]
    pub fn targets(mut self, t: PointSet) -> Self {
        self.targets = Some(t);
        self
    }

    /// Sets explicit weights (length must equal the target count).
    #[must_use]
    pub fn weights(mut self, w: Vec<f32>) -> Self {
        self.weights = Some(w);
        self
    }

    /// All-ones weights (plain kernel density).
    #[must_use]
    pub fn unit_weights(mut self) -> Self {
        self.weights = None;
        self
    }

    /// Sets the kernel function.
    #[must_use]
    pub fn kernel(mut self, k: impl KernelFunction + 'static) -> Self {
        self.kernel = Some(Arc::new(k));
        self
    }

    /// Finalises the problem.
    ///
    /// # Panics
    /// Panics if sources/targets are missing, their dimensions differ,
    /// or explicit weights have the wrong length.
    #[must_use]
    pub fn build(self) -> KernelSumProblem {
        let sources = self.sources.expect("builder: sources not set");
        let targets = self.targets.expect("builder: targets not set");
        assert_eq!(
            sources.dim(),
            targets.dim(),
            "source/target dimensions differ"
        );
        let weights = self.weights.unwrap_or_else(|| vec![1.0; targets.len()]);
        assert_eq!(
            weights.len(),
            targets.len(),
            "weights length must equal target count"
        );
        let kernel = self
            .kernel
            .unwrap_or_else(|| Arc::new(GaussianKernel { h: 1.0 }));
        KernelSumProblem {
            sources,
            targets,
            weights,
            kernel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_cube_is_deterministic_and_in_range() {
        let a = PointSet::uniform_cube(100, 8, 7);
        let b = PointSet::uniform_cube(100, 8, 7);
        assert_eq!(a, b);
        assert!(a.coords().iter().all(|&v| (0.0..1.0).contains(&v)));
        assert_ne!(a, PointSet::uniform_cube(100, 8, 8));
    }

    #[test]
    fn clusters_concentrate_points() {
        let tight = PointSet::gaussian_clusters(512, 4, 4, 0.01, 3);
        // Points in the same cluster (stride `clusters`) must be close.
        let d2: f32 = tight
            .point(0)
            .iter()
            .zip(tight.point(4))
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert!(d2 < 0.01, "intra-cluster distance² {d2}");
    }

    #[test]
    fn matrices_have_paper_layouts() {
        let s = PointSet::uniform_cube(10, 3, 1);
        let a = s.as_row_major();
        assert_eq!((a.rows(), a.cols()), (10, 3));
        assert_eq!(a.get(2, 1), s.point(2)[1]);
        let b = s.as_col_major_transposed();
        assert_eq!((b.rows(), b.cols()), (3, 10));
        assert_eq!(b.get(1, 2), s.point(2)[1]);
    }

    #[test]
    fn builder_defaults() {
        let p = KernelSumProblem::builder()
            .sources(PointSet::uniform_cube(16, 4, 1))
            .targets(PointSet::uniform_cube(8, 4, 2))
            .build();
        assert_eq!(p.dims(), (16, 8, 4));
        assert_eq!(p.weights(), &vec![1.0f32; 8][..]);
        assert_eq!(p.kernel().name(), "gaussian");
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn builder_rejects_dim_mismatch() {
        let _ = KernelSumProblem::builder()
            .sources(PointSet::uniform_cube(16, 4, 1))
            .targets(PointSet::uniform_cube(8, 5, 2))
            .build();
    }

    #[test]
    #[should_panic(expected = "weights length")]
    fn builder_rejects_bad_weights() {
        let _ = KernelSumProblem::builder()
            .sources(PointSet::uniform_cube(16, 4, 1))
            .targets(PointSet::uniform_cube(8, 4, 2))
            .weights(vec![1.0; 7])
            .build();
    }

    #[test]
    fn point_accessor() {
        let s = PointSet::from_coords(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(s.point(1), &[4.0, 5.0, 6.0]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }
}
