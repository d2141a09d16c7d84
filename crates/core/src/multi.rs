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

use ks_blas::{col_sq_norms, gemm_parallel, row_sq_norms, GemmConfig, Layout, Matrix};
use rayon::prelude::*;

use crate::cpu_fused::FusedCpuConfig;
use crate::plan::{solve_multi_planned, SourcePlan};
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
    let (m, n, _) = p.dims();
    let r = weights.cols();
    let a = p.sources().as_row_major();
    let b = p.targets().as_col_major_transposed();
    let vec_a = row_sq_norms(&a);
    let vec_b = col_sq_norms(&b);
    let mut c = Matrix::zeros(m, n, Layout::RowMajor);
    gemm_parallel(1.0, &a, &b, 0.0, &mut c, GemmConfig::default());
    let kernel = p.kernel();
    {
        let data = c.as_mut_slice();
        data.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
            let na = vec_a[i];
            for (j, v) in row.iter_mut().enumerate() {
                let d2 = na + vec_b[j] - 2.0 * *v;
                *v = kernel.eval(d2, na, vec_b[j]);
            }
        });
    }
    let mut v = Matrix::zeros(m, r, Layout::RowMajor);
    gemm_parallel(1.0, &c, weights, 0.0, &mut v, GemmConfig::default());
    v
}

/// Fused multi-weight evaluation: dot products → evaluate → fold all
/// `R` weight columns in row lanes, with nothing intermediate written
/// to memory.
///
/// Delegates to [`solve_multi_planned`] over a freshly built
/// [`SourcePlan`], so single-shot and plan-cached serving paths are
/// bit-identical by construction. The problem's kernel goes through
/// `&dyn KernelFunction`, so its lane form is called through the
/// vtable rather than inlined into the solver's compiled copies.
///
/// # Panics
/// Panics if `weights` is not `N×R` or the configuration is invalid.
#[must_use]
pub fn solve_multi_fused(p: &KernelSumProblem, weights: &Matrix, cfg: &FusedCpuConfig) -> Matrix {
    check_weights(p, weights);
    let plan = SourcePlan::build(p.sources());
    solve_multi_planned(&plan, p.targets(), p.kernel(), weights, cfg)
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

    #[test]
    fn single_column_matches_scalar_solver() {
        let m = 64;
        let p = KernelSumProblem::builder()
            .sources(PointSet::uniform_cube(m, 5, 1))
            .targets(PointSet::uniform_cube(48, 5, 2))
            .weights(rand_weights(48, 1, 3).as_slice().to_vec())
            .kernel(GaussianKernel { h: 0.8 })
            .build();
        let w = rand_weights(48, 1, 3);
        let multi = solve_multi_fused(&p, &w, &FusedCpuConfig::default());
        let single = crate::cpu_fused::solve(&p, &FusedCpuConfig::default());
        for (i, s) in single.iter().enumerate().take(m) {
            assert!((multi.get(i, 0) - s).abs() < 1e-4 * s.abs().max(1.0));
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
        let alt = solve_multi_fused(
            &p,
            &w,
            &FusedCpuConfig {
                mb: 5,
                nb: 7,
                gemm: GemmConfig {
                    mc: 4,
                    kc: 2,
                    nc: 6,
                },
            },
        );
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
