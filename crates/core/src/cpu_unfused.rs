//! Algorithm 1 on the CPU: the unfused BLAS pipeline.
//!
//! Mirrors what the paper's cuBLAS baseline does on the device: a
//! full `C = A·B` GEMM whose `M×N` result is materialised in memory,
//! followed by an element-wise kernel evaluation and a GEMV against
//! the weights. Kept primarily as (a) a second oracle built from
//! independently-tested BLAS parts and (b) the CPU baseline the
//! criterion benches compare the fused implementation against.

use ks_blas::{
    col_sq_norms, gemm_parallel, gemv_parallel, row_sq_norms, GemmConfig, Layout, Matrix,
};
use rayon::prelude::*;

use crate::problem::KernelSumProblem;

/// Unfused evaluation: GEMM → evaluate → GEMV (Algorithm 1).
#[must_use]
pub fn solve(p: &KernelSumProblem) -> Vec<f32> {
    let c = kernel_matrix(p);

    // Line 16: V = K·W.
    let mut v = vec![0.0f32; c.rows()];
    gemv_parallel(1.0, &c, p.weights(), 0.0, &mut v);
    v
}

/// Lines 3–14 of Algorithm 1: the materialised `M×N` kernel matrix,
/// shared by the single- and multi-weight unfused solvers.
pub(crate) fn kernel_matrix(p: &KernelSumProblem) -> Matrix {
    let (m, n, _) = p.dims();
    let a = p.sources().as_row_major();
    let b = p.targets().as_col_major_transposed();

    // Lines 3–4: squared norms.
    let vec_a = row_sq_norms(&a);
    let vec_b = col_sq_norms(&b);

    // Line 10: C = A·B (the intermediate the fused version never forms).
    let mut c = Matrix::zeros(m, n, Layout::RowMajor);
    gemm_parallel(1.0, &a, &b, 0.0, &mut c, GemmConfig::default());

    // Lines 11–14: kernel evaluation, in place.
    let kernel = p.kernel();
    c.as_mut_slice()
        .par_chunks_mut(n)
        .enumerate()
        .for_each(|(i, row)| {
            let na = vec_a[i];
            for (v, &nb) in row.iter_mut().zip(&vec_b) {
                *v = kernel.eval(na + nb - 2.0 * *v, na, nb);
            }
        });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{CauchyKernel, GaussianKernel, LaplaceKernel};
    use crate::problem::{KernelSumProblem, PointSet};
    use crate::reference;
    use crate::validate::max_rel_error;

    fn build(m: usize, n: usize, k: usize, seed: u64) -> KernelSumProblem {
        KernelSumProblem::builder()
            .sources(PointSet::uniform_cube(m, k, seed))
            .targets(PointSet::uniform_cube(n, k, seed + 1))
            .weights(PointSet::uniform_cube(n, 1, seed + 2).coords().to_vec())
            .kernel(GaussianKernel { h: 0.7 })
            .build()
    }

    #[test]
    fn matches_reference_on_random_problem() {
        let p = build(90, 70, 11, 5);
        let got = solve(&p);
        let want = reference::solve(&p);
        assert!(max_rel_error(&got, &want) < 5e-4);
    }

    #[test]
    fn works_with_other_kernels() {
        for kernel in [true, false] {
            let mut b = KernelSumProblem::builder()
                .sources(PointSet::uniform_cube(33, 6, 9))
                .targets(PointSet::uniform_cube(41, 6, 10))
                .unit_weights();
            b = if kernel {
                b.kernel(LaplaceKernel { h: 0.5 })
            } else {
                b.kernel(CauchyKernel { h: 0.5 })
            };
            let p = b.build();
            let got = solve(&p);
            let want = reference::solve(&p);
            assert!(max_rel_error(&got, &want) < 1e-3);
        }
    }

    #[test]
    fn single_point_problem() {
        let p = build(1, 1, 4, 77);
        let got = solve(&p);
        let want = reference::solve(&p);
        assert!((got[0] - want[0]).abs() < 1e-5);
    }
}
