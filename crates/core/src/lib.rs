//! # ks-core — kernel summation library
//!
//! The paper's computational problem as a reusable library: given
//! source points `A ∈ R^{M×K}`, target points `B ∈ R^{K×N}`, and
//! weights `W ∈ R^N`, compute
//!
//! ```text
//! V_i = Σ_j  𝒦(α_i, β_j) · W_j
//! ```
//!
//! for a pairwise kernel `𝒦` (Gaussian in the paper; Laplace, Cauchy
//! and polynomial kernels are provided as the extension point §VI
//! gestures at: "steps similar to those implemented in this paper can
//! be applied to other algorithms").
//!
//! Solvers:
//! * [`mod@reference`] — naive `O(MNK)` oracle (f64 accumulation).
//! * [`cpu_unfused`] — Algorithm 1 on the CPU with the `ks-blas`
//!   substrate (materialises the `M×N` intermediate, like the cuBLAS
//!   pipeline).
//! * [`cpu_fused`] — the paper's fusion idea on the CPU: dot products
//!   → evaluation → reduction in row lanes, with nothing of the `M×N`
//!   intermediate in memory. It is the `R = 1` column of
//!   [`multi::solve_multi_fused`], and [`plan`]'s lane body, generic
//!   over what follows the dot products, is the one fused CPU body
//!   ([`logspace`] folds a log-sum-exp on it).
//! * [`gpu`] — the simulated-GTX970 implementations from
//!   `ks-gpu-kernels`, with profiles and energy reports.
//!
//! ```
//! use ks_core::prelude::*;
//!
//! let problem = KernelSumProblem::builder()
//!     .sources(PointSet::uniform_cube(256, 16, 42))
//!     .targets(PointSet::uniform_cube(128, 16, 43))
//!     .unit_weights()
//!     .kernel(GaussianKernel { h: 1.0 })
//!     .build();
//! let v = problem.solve(Backend::CpuFused);
//! assert_eq!(v.len(), 256);
//! ```

#![warn(missing_docs)]

pub mod cpu_fused;
pub mod cpu_unfused;
pub mod gpu;
pub mod kernels;
pub mod logspace;
pub mod multi;
pub mod plan;
pub mod problem;
pub mod reference;
pub mod validate;

pub use cpu_fused::FusedCpuConfig;
pub use gpu::{GpuReport, GpuSolveOutput};
pub use kernels::{CauchyKernel, GaussianKernel, KernelFunction, LaplaceKernel, PolynomialKernel};
pub use logspace::solve_logspace;
pub use multi::{solve_multi_fused, solve_multi_reference, solve_multi_unfused};
pub use plan::{shard_ranges, solve_multi_planned, SourcePlan, SourceSet, SourceSetId};
pub use problem::{Backend, KernelSumProblem, PointSet, ProblemBuilder};
pub use validate::{max_rel_error, rel_l2_error};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::kernels::{
        CauchyKernel, GaussianKernel, KernelFunction, LaplaceKernel, PolynomialKernel,
    };
    pub use crate::problem::{Backend, KernelSumProblem, PointSet};
    pub use crate::validate::{max_rel_error, rel_l2_error};
    pub use ks_gpu_kernels::GpuVariant;
}
