//! The paper's fusion idea applied to the CPU cache hierarchy.
//!
//! Instead of materialising the `M×N` kernel matrix, the computation
//! is tiled: for each `(i-block, j-block)` pair an `MB×NB` scratch —
//! small enough to stay resident in L2 — receives the partial GEMM,
//! the kernel evaluation runs on it in place, and the block is
//! immediately reduced against its slice of `W` into the output. The
//! scratch is then reused for the next block: the intermediate never
//! travels to main memory, exactly as the fused GPU kernel keeps it in
//! registers and shared memory (§III-C). Parallelism is over i-blocks
//! (independent outputs — the analogue of independent thread blocks).

use ks_blas::{col_sq_norms, gemm_blocked, row_sq_norms, GemmConfig, Layout, Matrix};
use rayon::prelude::*;

use crate::problem::KernelSumProblem;

/// Blocking parameters of the fused CPU solvers.
///
/// [`solve`] reads every field. The multi-weight solver
/// ([`crate::plan::solve_multi_planned`]) reads only `mb`, its rows per
/// parallel task, and `gemm.kc`, the depth of the chunks its dot
/// products fold in, which is the one field that moves its bits; it
/// does not read `nb`, `gemm.mc` or `gemm.nc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedCpuConfig {
    /// Rows of `V` produced per task (per-task scratch is `mb × nb`).
    pub mb: usize,
    /// Columns folded per inner step.
    pub nb: usize,
    /// GEMM blocking used inside a tile.
    pub gemm: GemmConfig,
}

impl Default for FusedCpuConfig {
    fn default() -> Self {
        // 128×512 f32 scratch = 256KB: L2-resident on current cores,
        // mirroring the paper's "tailor the working set to fit in the
        // fast on-chip memory".
        Self {
            mb: 128,
            nb: 512,
            gemm: GemmConfig::default(),
        }
    }
}

impl FusedCpuConfig {
    /// Validates block sizes.
    ///
    /// # Panics
    /// Panics on zero blocks.
    pub fn validate(&self) {
        assert!(
            self.mb > 0 && self.nb > 0,
            "fused CPU blocks must be non-zero"
        );
        self.gemm.validate();
    }
}

/// Fused evaluation (see module docs).
#[must_use]
pub fn solve(p: &KernelSumProblem, cfg: &FusedCpuConfig) -> Vec<f32> {
    cfg.validate();
    let (m, n, _k) = p.dims();
    let a = p.sources().as_row_major();
    let b = p.targets().as_col_major_transposed();
    let vec_a = row_sq_norms(&a);
    let vec_b = col_sq_norms(&b);
    let kernel = p.kernel();
    let weights = p.weights();

    let blocks: Vec<usize> = (0..m).step_by(cfg.mb).collect();
    let mut v = vec![0.0f32; m];
    let chunks: Vec<(usize, Vec<f32>)> = blocks
        .par_iter()
        .map(|&i0| {
            let mb = cfg.mb.min(m - i0);
            let mut v_local = vec![0.0f32; mb];
            // Per-task scratch tile, reused across j-blocks.
            let mut scratch = Matrix::zeros(mb, cfg.nb.min(n).max(1), Layout::RowMajor);
            // Row-slice of A for this task (copy keeps the GEMM simple
            // and the panel hot).
            let a_block = Matrix::from_fn(mb, a.cols(), Layout::RowMajor, |r, c| a.get(i0 + r, c));
            for j0 in (0..n).step_by(cfg.nb) {
                let nb = cfg.nb.min(n - j0);
                let b_block =
                    Matrix::from_fn(b.rows(), nb, Layout::ColMajor, |r, c| b.get(r, j0 + c));
                if scratch.cols() != nb {
                    scratch = Matrix::zeros(mb, nb, Layout::RowMajor);
                }
                gemm_blocked(1.0, &a_block, &b_block, 0.0, &mut scratch, cfg.gemm);
                // Fused evaluation + reduction on the L2-resident tile.
                for r in 0..mb {
                    let na = vec_a[i0 + r];
                    let mut acc = 0.0f32;
                    for c in 0..nb {
                        let d2 = na + vec_b[j0 + c] - 2.0 * scratch.get(r, c);
                        acc += kernel.eval(d2, na, vec_b[j0 + c]) * weights[j0 + c];
                    }
                    v_local[r] += acc;
                }
            }
            (i0, v_local)
        })
        .collect();

    for (i0, local) in chunks {
        v[i0..i0 + local.len()].copy_from_slice(&local);
    }
    v
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
        let cfg = FusedCpuConfig {
            mb: 7,
            nb: 13,
            gemm: GemmConfig {
                mc: 5,
                kc: 3,
                nc: 9,
            },
        };
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
                nb: 4,
                gemm: GemmConfig::default(),
            },
        );
    }
}
