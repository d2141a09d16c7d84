//! Log-space kernel summation: `L_i = log Σ_j exp(−d²_{ij}/(2h²)) · w_j`.
//!
//! Gaussian kernel sums underflow catastrophically in f32 once
//! `d²/(2h²)` passes ~88 — at small bandwidths *every* term can flush
//! to zero and the plain solver returns `log 0`. Density estimation
//! and mixture-model E-steps therefore work with the *log* of the sum,
//! computed with the streaming log-sum-exp trick: keep the running
//! maximum exponent `m` and the sum of `exp(x − m)`.
//!
//! The implementation is the fused CPU body of
//! [`crate::plan::solve_multi_planned`] with a log-sum-exp fold in
//! place of the weighted sum: the same dot products in row lanes, then
//! one streaming accumulator per source row — fusion and numerical
//! robustness compose.
//!
//! Weights must be strictly positive (they enter as `ln w_j`).

use ks_gpu_kernels::expf::Isa;

use crate::cpu_fused::FusedCpuConfig;
use crate::kernels::{GaussianKernel, KernelFunction, LANES};
use crate::plan::{solve_on, Fold, Lanes, SourcePlan, COLS};
use crate::problem::KernelSumProblem;

/// Streaming log-sum-exp accumulator.
#[derive(Debug, Clone, Copy)]
struct LogSumExp {
    max: f32,
    sum: f64,
}

impl LogSumExp {
    fn new() -> Self {
        Self {
            max: f32::NEG_INFINITY,
            sum: 0.0,
        }
    }

    #[inline]
    fn push(&mut self, x: f32) {
        if x.is_infinite() && x < 0.0 {
            return;
        }
        if x <= self.max {
            self.sum += f64::from(x - self.max).exp();
        } else {
            // New maximum: rescale the accumulated sum.
            self.sum = self.sum * f64::from(self.max - x).exp() + 1.0;
            self.max = x;
        }
    }

    fn value(&self) -> f32 {
        if self.max == f32::NEG_INFINITY {
            f32::NEG_INFINITY
        } else {
            self.max + (self.sum.ln() as f32)
        }
    }
}

/// Recovers `s = 1/(2h²)` from a Gaussian kernel by probing it at a
/// distance where the response is neither underflowed nor saturated.
///
/// # Panics
/// Panics if no probe yields a usable response (not a Gaussian of
/// finite positive bandwidth).
fn recover_gaussian_scale(kernel: &dyn KernelFunction) -> f32 {
    for d2 in [1.0f32, 1e-2, 1e-4, 1e-6, 1e2, 1e4] {
        let e = kernel.eval(d2, 0.0, 0.0);
        if e > 1e-30 && e < 0.999 {
            return -e.ln() / d2;
        }
    }
    panic!("could not recover a finite Gaussian bandwidth from the kernel");
}

/// The log-space fold: each target `j` pushes
/// `−max(d², 0)·s + ln wⱼ` into its row's accumulator, `j` ascending.
struct LogSumExpFold {
    /// `1/(2h²)`.
    s: f32,
    log_w: Vec<f32>,
}

impl Fold for LogSumExpFold {
    type Acc = [LogSumExp; LANES];

    fn width(&self) -> usize {
        1
    }

    fn start(&self) -> Self::Acc {
        [LogSumExp::new(); LANES]
    }

    #[inline(always)]
    fn fold(&self, acc: &mut Self::Acc, j0: usize, dots: &[Lanes; COLS], na: &Lanes, nb: &[f32]) {
        for ((dot, &nb), &log_w) in dots.iter().zip(nb).zip(&self.log_w[j0..]) {
            for ((lse, na), dot) in acc.iter_mut().zip(na).zip(dot) {
                let d2 = (na + nb - 2.0 * dot).max(0.0);
                lse.push(-d2 * self.s + log_w);
            }
        }
    }

    fn store(&self, acc: &Self::Acc, out: &mut [f32]) {
        for (x, lse) in out.iter_mut().zip(acc) {
            *x = lse.value();
        }
    }
}

/// Computes `L_i = log Σ_j 𝒦(α_i, β_j) · w_j` for the Gaussian kernel
/// in a numerically stable way (see module docs).
///
/// # Panics
/// Panics if the problem's kernel is not Gaussian, any weight is not
/// strictly positive, or the blocking configuration is invalid.
#[must_use]
pub fn solve_logspace(p: &KernelSumProblem, cfg: &FusedCpuConfig) -> Vec<f32> {
    assert_eq!(
        p.kernel().name(),
        GaussianKernel { h: 1.0 }.name(),
        "log-space evaluation is defined for the Gaussian kernel"
    );
    assert!(
        p.weights().iter().all(|&w| w > 0.0),
        "log-space evaluation needs strictly positive weights"
    );
    // Recover s = 1/(2h²) from the kernel with an adaptive probe: a
    // fixed probe distance underflows for tiny h (exp(−s) → 0) or
    // loses precision for huge h (exp(−εs) → 1).
    let fold = LogSumExpFold {
        s: recover_gaussian_scale(p.kernel()),
        log_w: p.weights().iter().map(|w| w.ln()).collect(),
    };
    let plan = SourcePlan::build(p.sources());
    solve_on(Isa::host(), &plan, p.targets(), fold, cfg).into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Backend, PointSet};

    fn build(m: usize, n: usize, k: usize, h: f32, seed: u64) -> KernelSumProblem {
        build_with_equal_rows(m, n, k, h, seed, &[])
    }

    /// [`build`] with source row `r` set equal to target `t` for each
    /// `(r, t)` in `equal`.
    fn build_with_equal_rows(
        m: usize,
        n: usize,
        k: usize,
        h: f32,
        seed: u64,
        equal: &[(usize, usize)],
    ) -> KernelSumProblem {
        let targets = PointSet::uniform_cube(n, k, seed + 1);
        let mut a = PointSet::uniform_cube(m, k, seed).coords().to_vec();
        for &(r, t) in equal {
            a[r * k..(r + 1) * k].copy_from_slice(targets.point(t));
        }
        KernelSumProblem::builder()
            .sources(PointSet::from_coords(m, k, a))
            .targets(targets)
            .weights(
                PointSet::uniform_cube(n, 1, seed + 2)
                    .coords()
                    .iter()
                    .map(|v| v + 0.1) // strictly positive
                    .collect(),
            )
            .kernel(GaussianKernel { h })
            .build()
    }

    #[test]
    fn agrees_with_linear_solver_at_moderate_bandwidth() {
        let p = build(80, 70, 6, 0.8, 3);
        let log_v = solve_logspace(&p, &FusedCpuConfig::default());
        let v = p.solve(Backend::Reference);
        for (l, x) in log_v.iter().zip(v.iter()) {
            assert!(
                (l.exp() - x).abs() < 1e-3 * x.max(1e-6),
                "{} vs {}",
                l.exp(),
                x
            );
        }
    }

    #[test]
    fn survives_bandwidths_where_the_linear_solver_underflows() {
        // h = 0.01 in 8-D: typical d² ≈ 1 ⇒ exponent ≈ −5000; every
        // f32 term flushes to zero.
        let p = build(32, 64, 8, 0.01, 5);
        let v = p.solve(Backend::Reference);
        assert!(
            v.iter().all(|&x| x == 0.0),
            "linear solver should underflow here"
        );
        let log_v = solve_logspace(&p, &FusedCpuConfig::default());
        for l in &log_v {
            assert!(l.is_finite(), "log-space must stay finite, got {l}");
            assert!(*l < -80.0, "log-density must be very small, got {l}");
        }
    }

    #[test]
    fn blocking_invariance() {
        let p = build(50, 40, 4, 0.3, 9);
        let base = solve_logspace(&p, &FusedCpuConfig::default());
        let alt = solve_logspace(
            &p,
            &FusedCpuConfig {
                mb: 7,
                ..Default::default()
            },
        );
        for (a, b) in base.iter().zip(alt.iter()) {
            assert!((a - b).abs() < 1e-3 * a.abs().max(1.0));
        }
    }

    /// FNV-1a over the output bits of every case of a fixed grid: five
    /// shapes (ragged M and N, K 300 across the default `kc`), four
    /// bandwidths (at 0.01 every plain f32 term underflows), strictly
    /// positive weights, at the default blocking and an awkward one.
    /// Two source rows equal a target, so a `d²` rounds below 0 and the
    /// clamp decides.
    fn grid_digest() -> u64 {
        let awkward = FusedCpuConfig { mb: 5, kc: 2 };
        let shapes = [
            (100, 90, 9),
            (37, 530, 300),
            (257, 513, 17),
            (45, 23, 1),
            (1024, 256, 32),
        ];
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (case, (m, n, k)) in shapes.into_iter().enumerate() {
            for h in [0.01f32, 0.3, 1.0, 20.0] {
                let p = build_with_equal_rows(m, n, k, h, 100 * case as u64, &[(3, 0), (19, 5)]);
                for cfg in [FusedCpuConfig::default(), awkward] {
                    for x in solve_logspace(&p, &cfg) {
                        for byte in x.to_bits().to_le_bytes() {
                            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                        }
                    }
                }
            }
        }
        hash
    }

    /// The log-space solver's bits, pinned by value. The value is the
    /// tiled GEMM body's.
    #[test]
    fn log_space_bits_match_the_pinned_digest() {
        const PINNED: u64 = 0xcb3a_4d99_6a89_ca71;
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("a one-thread pool");
        assert_eq!(one.install(grid_digest), PINNED, "one thread");
        assert_eq!(grid_digest(), PINNED, "default thread count");
    }

    #[test]
    fn lse_accumulator_handles_neg_infinity_and_rescaling() {
        let mut l = LogSumExp::new();
        assert_eq!(l.value(), f32::NEG_INFINITY);
        l.push(f32::NEG_INFINITY);
        assert_eq!(l.value(), f32::NEG_INFINITY);
        l.push(-1000.0);
        l.push(-999.0); // new max triggers rescale
        let want = (-999.0f64 + (1.0 + (-1.0f64).exp()).ln()) as f32;
        assert!((l.value() - want).abs() < 1e-4, "{} vs {want}", l.value());
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn rejects_non_positive_weights() {
        let p = KernelSumProblem::builder()
            .sources(PointSet::uniform_cube(8, 2, 1))
            .targets(PointSet::uniform_cube(8, 2, 2))
            .weights(vec![1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
            .kernel(GaussianKernel { h: 1.0 })
            .build();
        let _ = solve_logspace(&p, &FusedCpuConfig::default());
    }

    #[test]
    #[should_panic(expected = "Gaussian")]
    fn rejects_non_gaussian_kernels() {
        let p = KernelSumProblem::builder()
            .sources(PointSet::uniform_cube(8, 2, 1))
            .targets(PointSet::uniform_cube(8, 2, 2))
            .unit_weights()
            .kernel(crate::kernels::CauchyKernel { h: 1.0 })
            .build();
        let _ = solve_logspace(&p, &FusedCpuConfig::default());
    }
}
