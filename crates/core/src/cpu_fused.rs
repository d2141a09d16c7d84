//! The paper's fusion idea on the CPU: the single-weight solve.
//!
//! [`solve`] is the `R = 1` column of
//! [`crate::multi::solve_multi_fused`]: dot products → kernel
//! evaluation → weighted fold, sixteen source rows to a lane array,
//! with nothing of the `M×N` intermediate written to memory — the CPU
//! analogue of the fused GPU kernel keeping it in registers (§III-C).
//! Parallelism is over row blocks (independent outputs — the analogue
//! of independent thread blocks).

use ks_blas::{Layout, Matrix};

use crate::multi::solve_multi_fused;
use crate::problem::KernelSumProblem;

/// Blocking parameters of the fused CPU solvers
/// ([`crate::plan::solve_multi_planned`], [`solve`] and
/// [`crate::solve_logspace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedCpuConfig {
    /// Source rows per parallel task.
    pub mb: usize,
    /// Depth of the chunks a dot product folds `K` in: the one field
    /// that moves a result bit.
    pub kc: usize,
}

impl Default for FusedCpuConfig {
    fn default() -> Self {
        // kc 256, ks-blas's default panel depth: one chunk at serving
        // and paper shapes (K ≤ 256).
        Self { mb: 128, kc: 256 }
    }
}

impl FusedCpuConfig {
    /// Validates block sizes.
    ///
    /// # Panics
    /// Panics on zero blocks.
    pub fn validate(&self) {
        assert!(
            self.mb > 0 && self.kc > 0,
            "fused CPU blocks must be non-zero"
        );
    }
}

/// Fused evaluation (see module docs): column 0 of
/// [`solve_multi_fused`] with the problem's weights as its one column,
/// bit for bit.
///
/// # Panics
/// Panics if the configuration is invalid.
#[must_use]
pub fn solve(p: &KernelSumProblem, cfg: &FusedCpuConfig) -> Vec<f32> {
    let (_, n, _) = p.dims();
    let w = Matrix::from_vec(n, 1, Layout::RowMajor, p.weights().to_vec());
    solve_multi_fused(p, &w, cfg).into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{GaussianKernel, PolynomialKernel};
    use crate::problem::{KernelSumProblem, PointSet};
    use crate::reference;
    use crate::validate::max_rel_error;

    fn build(m: usize, n: usize, k: usize, seed: u64) -> KernelSumProblem {
        KernelSumProblem::builder()
            .sources(PointSet::uniform_cube(m, k, seed))
            .targets(PointSet::uniform_cube(n, k, seed + 1))
            .weights(PointSet::uniform_cube(n, 1, seed + 2).coords().to_vec())
            .kernel(GaussianKernel { h: 0.8 })
            .build()
    }

    #[test]
    fn matches_reference_with_default_blocks() {
        let p = build(100, 90, 9, 11);
        let got = solve(&p, &FusedCpuConfig::default());
        let want = reference::solve(&p);
        assert!(max_rel_error(&got, &want) < 5e-4);
    }

    #[test]
    fn matches_reference_with_awkward_blocks() {
        let p = build(67, 45, 5, 13);
        let cfg = FusedCpuConfig { mb: 7, kc: 3 };
        let got = solve(&p, &cfg);
        let want = reference::solve(&p);
        assert!(max_rel_error(&got, &want) < 5e-4);
    }

    #[test]
    fn agrees_with_unfused_cpu() {
        let p = build(128, 257, 16, 17);
        let fused = solve(&p, &FusedCpuConfig::default());
        let unfused = crate::cpu_unfused::solve(&p);
        assert!(max_rel_error(&fused, &unfused) < 1e-3);
    }

    #[test]
    fn polynomial_kernel_through_fused_path() {
        let p = KernelSumProblem::builder()
            .sources(PointSet::uniform_cube(40, 4, 3))
            .targets(PointSet::uniform_cube(30, 4, 4))
            .unit_weights()
            .kernel(PolynomialKernel { c: 1.0, degree: 2 })
            .build();
        let got = solve(&p, &FusedCpuConfig::default());
        let want = reference::solve(&p);
        assert!(max_rel_error(&got, &want) < 2e-3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_zero_blocks() {
        let p = build(8, 8, 2, 1);
        let _ = solve(
            &p,
            &FusedCpuConfig {
                mb: 0,
                ..FusedCpuConfig::default()
            },
        );
    }
}
