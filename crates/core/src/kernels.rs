//! Pairwise kernel functions.
//!
//! Every kernel is evaluated from the quantities the GEMM-based
//! pipeline produces cheaply: the squared distance
//! `d² = ‖α‖² + ‖β‖² − 2αᵀβ` plus the two squared norms (so
//! inner-product kernels can recover `αᵀβ = (‖α‖² + ‖β‖² − d²) / 2`).
//! The paper evaluates the Gaussian; the others are drop-in
//! replacements exercising the same fused structure.
//!
//! The fused CPU solver evaluates sixteen source rows against one
//! target at a time through [`KernelFunction::eval_lanes`]. The
//! Gaussian's exp is the repository's own ([`expf`]), so its bits do
//! not depend on the host's libm, and its lane form inlines into each
//! of the solver's compiled copies.

use ks_gpu_kernels::expf::{expf, expf_lanes};

/// Source rows that ride in one lane array of
/// [`KernelFunction::eval_lanes`].
pub const LANES: usize = 16;

/// A pairwise kernel `𝒦(α, β)` evaluated from GEMM by-products.
pub trait KernelFunction: Sync + Send {
    /// Kernel value given the squared distance `d²` and the squared
    /// norms of the two points.
    fn eval(&self, dist_sq: f32, norm_a_sq: f32, norm_b_sq: f32) -> f32;

    /// [`Self::eval`] for [`LANES`] source rows against one target:
    /// lane `l` is `eval(dist_sq[l], norm_a_sq[l], norm_b_sq)`, bit
    /// for bit. The default maps `eval`; a kernel overrides it so its
    /// lane form inlines into the caller's compiled copies.
    fn eval_lanes(
        &self,
        dist_sq: [f32; LANES],
        norm_a_sq: [f32; LANES],
        norm_b_sq: f32,
    ) -> [f32; LANES] {
        std::array::from_fn(|l| self.eval(dist_sq[l], norm_a_sq[l], norm_b_sq))
    }

    /// Display name.
    fn name(&self) -> &'static str;
}

/// The paper's kernel: `exp(−d² / (2h²))` (Equation 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianKernel {
    /// Bandwidth `h` (Equation 1's constant).
    pub h: f32,
}

impl GaussianKernel {
    /// `1/(2h²)`, the scale the kernels precompute.
    ///
    /// # Panics
    /// Panics unless `h` is finite and positive.
    #[must_use]
    pub fn inv_2h2(&self) -> f32 {
        assert!(
            self.h.is_finite() && self.h > 0.0,
            "bandwidth h must be positive, got {}",
            self.h
        );
        1.0 / (2.0 * self.h * self.h)
    }
}

impl KernelFunction for GaussianKernel {
    fn eval(&self, dist_sq: f32, _na: f32, _nb: f32) -> f32 {
        expf(-dist_sq.max(0.0) * self.inv_2h2())
    }

    #[inline(always)]
    fn eval_lanes(&self, dist_sq: [f32; LANES], _na: [f32; LANES], _nb: f32) -> [f32; LANES] {
        let scale = self.inv_2h2();
        let mut x = [0.0f32; LANES];
        for (x, d2) in x.iter_mut().zip(&dist_sq) {
            *x = -d2.max(0.0) * scale;
        }
        expf_lanes(x)
    }

    fn name(&self) -> &'static str {
        "gaussian"
    }
}

/// Laplace / exponential kernel `exp(−‖α−β‖ / h)` (the heat-potential
/// relative the paper's related work discusses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceKernel {
    /// Length scale.
    pub h: f32,
}

impl KernelFunction for LaplaceKernel {
    fn eval(&self, dist_sq: f32, _na: f32, _nb: f32) -> f32 {
        (-dist_sq.max(0.0).sqrt() / self.h).exp()
    }

    fn name(&self) -> &'static str {
        "laplace"
    }
}

/// Cauchy / rational-quadratic kernel `1 / (1 + d²/h²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CauchyKernel {
    /// Length scale.
    pub h: f32,
}

impl KernelFunction for CauchyKernel {
    fn eval(&self, dist_sq: f32, _na: f32, _nb: f32) -> f32 {
        1.0 / (1.0 + dist_sq.max(0.0) / (self.h * self.h))
    }

    fn name(&self) -> &'static str {
        "cauchy"
    }
}

/// Polynomial kernel `(αᵀβ + c)^degree`, recovering the inner product
/// from the distance expansion (the SVM kernel of the paper's §II-A
/// citations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolynomialKernel {
    /// Additive constant.
    pub c: f32,
    /// Degree (≥ 1).
    pub degree: i32,
}

impl KernelFunction for PolynomialKernel {
    fn eval(&self, dist_sq: f32, na: f32, nb: f32) -> f32 {
        let dot = 0.5 * (na + nb - dist_sq);
        (dot + self.c).powi(self.degree)
    }

    fn name(&self) -> &'static str {
        "polynomial"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_at_zero_distance_is_one() {
        let k = GaussianKernel { h: 0.5 };
        assert_eq!(k.eval(0.0, 1.0, 1.0), 1.0);
        assert!(k.eval(1.0, 0.0, 0.0) < 1.0);
    }

    #[test]
    fn gaussian_matches_closed_form() {
        let k = GaussianKernel { h: 2.0 };
        let d2 = 3.0f32;
        let want = (-d2 / 8.0).exp();
        assert!((k.eval(d2, 0.0, 0.0) - want).abs() < 1e-7);
    }

    #[test]
    fn kernels_are_monotone_decreasing_in_distance() {
        let ks: Vec<Box<dyn KernelFunction>> = vec![
            Box::new(GaussianKernel { h: 1.0 }),
            Box::new(LaplaceKernel { h: 1.0 }),
            Box::new(CauchyKernel { h: 1.0 }),
        ];
        for k in &ks {
            let mut prev = k.eval(0.0, 0.0, 0.0);
            for d2 in [0.1f32, 0.5, 1.0, 4.0, 16.0] {
                let v = k.eval(d2, 0.0, 0.0);
                assert!(v < prev, "{} not decreasing at {d2}", k.name());
                prev = v;
            }
        }
    }

    #[test]
    fn polynomial_recovers_inner_product() {
        // α = (1,2), β = (3,1): dot = 5, ‖α‖² = 5, ‖β‖² = 10, d² = 5.
        let k = PolynomialKernel { c: 1.0, degree: 2 };
        let v = k.eval(5.0, 5.0, 10.0);
        assert!((v - 36.0).abs() < 1e-5, "{v}");
    }

    #[test]
    fn the_gaussian_takes_the_fma_form_exp_on_every_host() {
        // x = -0x427c65d9: a plain product of 32/ln 2 and x lands one
        // ulp low (0x11fa2992), as a libm without FMA does.
        let k = GaussianKernel { h: 0.5 };
        let d2 = f32::from_bits(0x427c_65d9) / 2.0;
        assert_eq!(k.eval(d2, 0.0, 0.0).to_bits(), 0x11fa_2993);
        assert_eq!(
            k.eval_lanes([d2; LANES], [0.0; LANES], 0.0)[7].to_bits(),
            0x11fa_2993
        );
    }

    #[test]
    fn negative_dist_sq_is_clamped() {
        // Rounding in the expansion can make d² slightly negative.
        let k = GaussianKernel { h: 1.0 };
        assert_eq!(k.eval(-1e-6, 0.0, 0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn gaussian_rejects_bad_bandwidth() {
        let _ = GaussianKernel { h: -1.0 }.inv_2h2();
    }

    #[test]
    fn names() {
        assert_eq!(GaussianKernel { h: 1.0 }.name(), "gaussian");
        assert_eq!(LaplaceKernel { h: 1.0 }.name(), "laplace");
        assert_eq!(CauchyKernel { h: 1.0 }.name(), "cauchy");
        assert_eq!(PolynomialKernel { c: 0.0, degree: 1 }.name(), "polynomial");
    }
}
