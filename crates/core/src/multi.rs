//! Multi-weight kernel summation: `V = K · W` with `R` weight columns.
//!
//! Kernel regression and Nyström-type methods evaluate the same kernel
//! matrix against many weight vectors at once (one per output channel
//! or per preconditioner column). Fusion pays off even more here: the
//! unfused pipeline would read the `M×N` intermediate back once per
//! GEMV, while the fused solver folds all `R` reductions into the
//! per-tile pass — each kernel value is computed once and consumed `R`
//! times from registers.
//!
//! This is the "other algorithms" extension the paper's conclusion
//! gestures at (§VI): the fused structure is unchanged; only the
//! intra-tile reduction widens.

use ks_blas::{gemm_parallel, GemmConfig, Layout, Matrix};
use rayon::prelude::*;

use crate::cpu_fused::FusedCpuConfig;
use crate::cpu_unfused::kernel_matrix;
use crate::plan::SourcePlan;
use crate::problem::KernelSumProblem;

fn check_weights(p: &KernelSumProblem, weights: &Matrix) {
    let (_, n, _) = p.dims();
    assert_eq!(
        weights.rows(),
        n,
        "weight matrix must have one row per target (N = {n})"
    );
    assert!(weights.cols() > 0, "need at least one weight column");
}

/// Naive multi-weight oracle: `V[i][r] = Σ_j 𝒦(α_i, β_j) · W[j][r]`.
///
/// # Panics
/// Panics if `weights` is not `N×R`.
#[must_use]
pub fn solve_multi_reference(p: &KernelSumProblem, weights: &Matrix) -> Matrix {
    check_weights(p, weights);
    let (m, n, _) = p.dims();
    let r = weights.cols();
    let kernel = p.kernel();
    let rows: Vec<Vec<f32>> = (0..m)
        .into_par_iter()
        .map(|i| {
            let alpha = p.sources().point(i);
            let na: f32 = alpha.iter().map(|v| v * v).sum();
            let mut acc = vec![0.0f64; r];
            for j in 0..n {
                let beta = p.targets().point(j);
                let mut d2 = 0.0f64;
                for (a, b) in alpha.iter().zip(beta.iter()) {
                    let diff = (*a - *b) as f64;
                    d2 += diff * diff;
                }
                let nb: f32 = beta.iter().map(|v| v * v).sum();
                let kv = kernel.eval(d2 as f32, na, nb) as f64;
                for (c, a) in acc.iter_mut().enumerate() {
                    *a += kv * weights.get(j, c) as f64;
                }
            }
            acc.into_iter().map(|v| v as f32).collect()
        })
        .collect();
    Matrix::from_fn(m, r, Layout::RowMajor, |i, c| rows[i][c])
}

/// Unfused multi-weight evaluation: GEMM → evaluate → GEMM against the
/// `N×R` weight matrix (Algorithm 1 with a fat GEMV).
///
/// # Panics
/// Panics if `weights` is not `N×R`.
#[must_use]
pub fn solve_multi_unfused(p: &KernelSumProblem, weights: &Matrix) -> Matrix {
    check_weights(p, weights);
    let c = kernel_matrix(p);
    let mut v = Matrix::zeros(c.rows(), weights.cols(), Layout::RowMajor);
    gemm_parallel(1.0, &c, weights, 0.0, &mut v, GemmConfig::default());
    v
}

/// Fused multi-weight evaluation: dot products → evaluate → fold all
/// `R` weight columns in row lanes, with nothing intermediate written
/// to memory.
///
/// Delegates to [`crate::plan::solve_multi_planned`] over a freshly
/// built [`SourcePlan`], so single-shot and plan-cached serving paths
/// are bit-identical by construction. The problem's `&dyn
/// KernelFunction` goes through
/// [`crate::KernelFunction::solve_planned`], so the call lands in the
/// kernel's own compiled copy of the solver, where its lane form
/// inlines.
///
/// # Panics
/// Panics if `weights` is not `N×R` or the configuration is invalid.
#[must_use]
pub fn solve_multi_fused(p: &KernelSumProblem, weights: &Matrix, cfg: &FusedCpuConfig) -> Matrix {
    check_weights(p, weights);
    let plan = SourcePlan::build(p.sources());
    p.kernel().solve_planned(&plan, p.targets(), weights, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{GaussianKernel, LaplaceKernel};
    use crate::problem::{KernelSumProblem, PointSet};

    fn build(m: usize, n: usize, k: usize, seed: u64) -> KernelSumProblem {
        KernelSumProblem::builder()
            .sources(PointSet::uniform_cube(m, k, seed))
            .targets(PointSet::uniform_cube(n, k, seed + 1))
            .unit_weights()
            .kernel(GaussianKernel { h: 0.8 })
            .build()
    }

    fn rand_weights(n: usize, r: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(n, r, Layout::RowMajor, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                let (x, y) = (a.get(i, j), b.get(i, j));
                assert!(
                    (x - y).abs() < tol * y.abs().max(1.0),
                    "({i},{j}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn unfused_matches_reference() {
        let p = build(60, 45, 7, 31);
        let w = rand_weights(45, 3, 32);
        assert_close(
            &solve_multi_unfused(&p, &w),
            &solve_multi_reference(&p, &w),
            1e-3,
        );
    }

    #[test]
    fn fused_matches_reference() {
        let p = build(70, 52, 9, 41);
        let w = rand_weights(52, 4, 42);
        assert_close(
            &solve_multi_fused(&p, &w, &FusedCpuConfig::default()),
            &solve_multi_reference(&p, &w),
            1e-3,
        );
    }

    /// The single-weight solve is the `R = 1` column, bit for bit: past
    /// N 512 too, and for a kernel other than the Gaussian.
    #[test]
    fn single_column_matches_scalar_solver() {
        for (m, n, k, laplace) in [
            (64, 48, 5, false),
            (128, 1024, 32, false),
            (64, 2000, 5, false),
            (64, 48, 5, true),
        ] {
            let builder = KernelSumProblem::builder()
                .sources(PointSet::uniform_cube(m, k, 1))
                .targets(PointSet::uniform_cube(n, k, 2))
                .weights(rand_weights(n, 1, 3).into_vec());
            let p = if laplace {
                builder.kernel(LaplaceKernel { h: 0.5 })
            } else {
                builder.kernel(GaussianKernel { h: 0.8 })
            }
            .build();
            let w = rand_weights(n, 1, 3);
            let multi = solve_multi_fused(&p, &w, &FusedCpuConfig::default());
            let single = crate::cpu_fused::solve(&p, &FusedCpuConfig::default());
            for (i, s) in single.iter().enumerate() {
                assert_eq!(
                    multi.get(i, 0).to_bits(),
                    s.to_bits(),
                    "{m}x{n}x{k}, {}, row {i}",
                    p.kernel().name()
                );
            }
        }
    }

    #[test]
    fn works_with_non_gaussian_kernels() {
        let p = KernelSumProblem::builder()
            .sources(PointSet::uniform_cube(30, 4, 9))
            .targets(PointSet::uniform_cube(20, 4, 10))
            .unit_weights()
            .kernel(LaplaceKernel { h: 0.5 })
            .build();
        let w = rand_weights(20, 2, 11);
        assert_close(
            &solve_multi_fused(&p, &w, &FusedCpuConfig::default()),
            &solve_multi_reference(&p, &w),
            2e-3,
        );
    }

    #[test]
    fn awkward_blocking_is_invariant() {
        let p = build(37, 29, 3, 55);
        let w = rand_weights(29, 5, 56);
        let base = solve_multi_fused(&p, &w, &FusedCpuConfig::default());
        let alt = solve_multi_fused(&p, &w, &FusedCpuConfig { mb: 5, kc: 2 });
        assert_close(&alt, &base, 1e-3);
    }

    #[test]
    #[should_panic(expected = "one row per target")]
    fn rejects_wrong_weight_shape() {
        let p = build(16, 12, 2, 1);
        let w = rand_weights(10, 2, 2);
        let _ = solve_multi_fused(&p, &w, &FusedCpuConfig::default());
    }
}
