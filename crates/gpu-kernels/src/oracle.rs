//! The fused kernel's exact host evaluation: the one host definition
//! of its numerics. Every `GpuDevice::run` of the fused and packed
//! kernels takes it instead of the warp interpreter
//! (`Kernel::execute_exact`), interpreting only the blocks a fault
//! plan names, and [`fused_oracle`] / [`fused_multi_oracle`] serve it
//! as the differential-test contract.
//!
//! Each block's `T` partials come out in **exactly** the simulated
//! kernel's floating-point association order:
//!
//! 1. the GEMM dot product folds over `k` sequentially from 0.0, one
//!    FMUL + FADD rounding per step as `compute_ktile` accumulates
//!    (the ks-blas microkernel, which vectorizes across columns and
//!    never contracts to FMA), once for all `R` columns;
//! 2. `d = ‖α‖² + ‖β‖² − 2·dot` goes through the same scalar
//!    [`gaussian`];
//! 3. each thread's γ partial folds its `micro_n` weighted terms in
//!    ascending column order from 0.0 (line 16 of Algorithm 2);
//! 4. the intra-block reduction sums the `threads_x` thread partials
//!    in ascending `tx` order from 0.0 (the shuffle-tree model).
//!
//! The partials then land in ascending `bx`: launch order, the
//! `run_counted` schedule, with an interpreted block's atomics in its
//! own slot. Row groups own disjoint rows, so they run in parallel
//! without changing a bit.
//!
//! Steps 2–4 depend only on the **N-side** of the tile geometry
//! (`block_n`, `micro_n`) — the M-side merely re-partitions rows and
//! step 1 is the same sequential k-fold for every `tile_k` and
//! buffering depth. That is the [`TileGeometry::bit_compatible`]
//! contract.

use ks_blas::microkernel::{microkernel_8x8, MR, NR};
use rayon::prelude::*;

use crate::aux_kernels::{gaussian, Bandwidth};
use crate::fused_multi::MAX_WEIGHT_COLUMNS;
use crate::geometry::TileGeometry;

/// One fused launch's operands on the host, as the kernel reads them:
/// `a` is `M×K` row-major, `b_panels` the `N` targets packed for the
/// microkernel, `w_cols` `N×R` column-major.
pub(crate) struct FusedHost<'a> {
    a: &'a [f32],
    b_panels: Vec<f32>,
    a2: &'a [f32],
    b2: &'a [f32],
    w_cols: &'a [f32],
    n: usize,
    k: usize,
    r: usize,
    inv_2h2: f32,
}

/// Packs point-contiguous coordinates (`points × k`) k-major in
/// `lanes`-point panels, the microkernel's operand layout.
fn pack_panels(coords: &[f32], k: usize, lanes: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; coords.len()];
    for (p, point) in coords.chunks_exact(k).enumerate() {
        let base = (p / lanes) * k * lanes + p % lanes;
        for (t, &x) in point.iter().enumerate() {
            out[base + t * lanes] = x;
        }
    }
    out
}

impl<'a> FusedHost<'a> {
    /// Binds the operands; `b` is `K×N` column-major (point-
    /// contiguous) and `a2`/`b2` are the squared norms the kernel
    /// loads.
    ///
    /// # Panics
    /// Panics if a slice length is inconsistent with the shape or
    /// `r ∉ 1..=MAX_WEIGHT_COLUMNS`.
    #[allow(clippy::too_many_arguments)] // mirrors the kernel's operand list
    pub(crate) fn new(
        a: &'a [f32],
        b: &'a [f32],
        a2: &'a [f32],
        b2: &'a [f32],
        w_cols: &'a [f32],
        (m, n, k): (usize, usize, usize),
        h: f32,
        r: usize,
    ) -> Self {
        assert_eq!(a.len(), m * k, "A must be M*K elements");
        assert_eq!(b.len(), k * n, "B must be K*N elements");
        assert_eq!(a2.len(), m, "a2 must be M elements");
        assert_eq!(b2.len(), n, "b2 must be N elements");
        assert_eq!(w_cols.len(), n * r, "W must be N*R elements");
        assert!(
            (1..=MAX_WEIGHT_COLUMNS).contains(&r),
            "weight columns {r} out of range 1..={MAX_WEIGHT_COLUMNS}"
        );
        Self {
            a,
            b_panels: pack_panels(b, k, NR),
            a2,
            b2,
            w_cols,
            n,
            k,
            r,
            inv_2h2: Bandwidth { h }.inv_2h2(),
        }
    }

    /// Evaluates row group `by` block by block in ascending `bx`. Each
    /// block is first offered to `interpret`, which either runs it
    /// some other way and returns `true`, or returns `false`; each
    /// block it declines has its `T` partials computed and handed to
    /// `each`: `t[c·block_m + i]` is row `by·block_m + i` of weight
    /// column `c`.
    pub(crate) fn row_group(
        &self,
        geo: &TileGeometry,
        by: usize,
        mut interpret: impl FnMut(usize) -> bool,
        mut each: impl FnMut(&[f32]),
    ) {
        let (bm, bn, k, r) = (geo.block_m, geo.block_n, self.k, self.r);
        let a_panels = pack_panels(&self.a[by * bm * k..(by + 1) * bm * k], k, MR);
        let mut dots = vec![0.0f32; bm * bn];
        let mut t = vec![0.0f32; r * bm];
        for bx in 0..self.n / bn {
            if interpret(bx) {
                continue;
            }
            let col0 = bx * bn;
            // The block's dot products, bm × bn row-major.
            dots.fill(0.0);
            for (ip, a_panel) in a_panels.chunks_exact(k * MR).enumerate() {
                for jp in 0..bn / NR {
                    let b_panel = &self.b_panels[(col0 + jp * NR) * k..][..k * NR];
                    microkernel_8x8(k, a_panel, b_panel, &mut dots[ip * MR * bn + jp * NR..], bn);
                }
            }
            for (i, row) in dots.chunks_exact(bn).enumerate() {
                let a2i = self.a2[by * bm + i];
                let mut part = [0.0f32; MAX_WEIGHT_COLUMNS];
                for (tx, thread) in row.chunks_exact(geo.micro_n).enumerate() {
                    let mut gamma = [0.0f32; MAX_WEIGHT_COLUMNS];
                    for (cc, &dot) in thread.iter().enumerate() {
                        let j = tx * geo.micro_n + cc;
                        let d = a2i + self.b2[col0 + j] - 2.0 * dot;
                        let kv = gaussian(d, self.inv_2h2);
                        for (c, g) in gamma[..r].iter_mut().enumerate() {
                            *g += kv * self.w_cols[c * self.n + col0 + j];
                        }
                    }
                    for (p, g) in part.iter_mut().zip(&gamma[..r]) {
                        *p += g;
                    }
                }
                for (c, p) in part[..r].iter().enumerate() {
                    t[c * bm + i] = *p;
                }
            }
            each(&t);
        }
    }
}

/// Bit-exact replay of the single-weight fused kernel at `geo`.
///
/// `a` is `M×K` row-major, `b` is `K×N` column-major (point-
/// contiguous), `a2`/`b2` are the squared norms the kernel loaded
/// (bit-exact — pass the same values the device saw), `w` has `N`
/// weights. Returns `V` of length `M`.
///
/// # Panics
/// Panics if the shape does not divide `geo` or a slice length is
/// inconsistent.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's operand list
#[must_use]
pub fn fused_oracle(
    geo: &TileGeometry,
    a: &[f32],
    b: &[f32],
    a2: &[f32],
    b2: &[f32],
    w: &[f32],
    m: usize,
    n: usize,
    k: usize,
    h: f32,
) -> Vec<f32> {
    fused_multi_oracle(geo, a, b, a2, b2, w, m, n, k, h, 1)
}

/// Bit-exact replay of the multi-weight fused kernel: `w_cols` is
/// `N×R` column-major, the result is `M×R` column-major. Each column
/// folds independently in the same order as [`fused_oracle`], which
/// is why a served batch is bit-identical to `R` single-shot runs.
/// Every block's partials fold from 0.0 in ascending `bx`.
///
/// # Panics
/// Panics if the shape does not divide `geo`, a slice length is
/// inconsistent, or `r ∉ 1..=MAX_WEIGHT_COLUMNS`.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's operand list
#[must_use]
pub fn fused_multi_oracle(
    geo: &TileGeometry,
    a: &[f32],
    b: &[f32],
    a2: &[f32],
    b2: &[f32],
    w_cols: &[f32],
    m: usize,
    n: usize,
    k: usize,
    h: f32,
    r: usize,
) -> Vec<f32> {
    assert!(geo.divides(m, n, k), "shape {m}x{n}x{k} must divide {geo}");
    let host = FusedHost::new(a, b, a2, b2, w_cols, (m, n, k), h, r);
    let bm = geo.block_m;
    let groups: Vec<Vec<f32>> = (0..m / bm)
        .into_par_iter()
        .map(|by| {
            let mut v = vec![0.0f32; r * bm];
            let add = |t: &[f32]| v.iter_mut().zip(t).for_each(|(x, y)| *x += y);
            host.row_group(geo, by, |_| false, add);
            v
        })
        .collect();
    let mut out = vec![0.0f32; m * r];
    for (by, v) in groups.iter().enumerate() {
        for (c, col) in v.chunks_exact(bm).enumerate() {
            out[c * m + by * bm..c * m + (by + 1) * bm].copy_from_slice(col);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 0.5
        }
    }

    #[test]
    fn oracle_is_close_to_the_f64_reference() {
        // Sanity: the replay is a correct summation, not just *some*
        // deterministic fold. (Bit-identity to the device is covered
        // by the differential lattice suite.)
        let (m, n, k) = (128, 128, 16);
        let mut next = lcg(3);
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let w: Vec<f32> = (0..n).map(|_| next()).collect();
        let a2: Vec<f32> = (0..m)
            .map(|i| a[i * k..(i + 1) * k].iter().map(|x| x * x).sum())
            .collect();
        let b2: Vec<f32> = (0..n)
            .map(|j| b[j * k..(j + 1) * k].iter().map(|x| x * x).sum())
            .collect();
        let geo = TileGeometry::paper_default();
        let got = fused_oracle(&geo, &a, &b, &a2, &b2, &w, m, n, k, 1.0);
        for i in 0..m {
            let mut want = 0.0f64;
            for j in 0..n {
                let d: f64 = (0..k)
                    .map(|t| (a[i * k + t] as f64 - b[j * k + t] as f64).powi(2))
                    .sum();
                want += (-d * 0.5).exp() * w[j] as f64;
            }
            let g = got[i] as f64;
            assert!(
                (g - want).abs() < 2e-3 * want.abs().max(1.0),
                "row {i}: {g} vs {want}"
            );
        }
    }

    #[test]
    fn multi_columns_are_bit_identical_to_single_runs() {
        let (m, n, k, r) = (128, 256, 8, 3);
        let mut next = lcg(9);
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let w: Vec<f32> = (0..n * r).map(|_| next()).collect();
        let a2: Vec<f32> = (0..m)
            .map(|i| a[i * k..(i + 1) * k].iter().map(|x| x * x).sum())
            .collect();
        let b2: Vec<f32> = (0..n)
            .map(|j| b[j * k..(j + 1) * k].iter().map(|x| x * x).sum())
            .collect();
        let geo = TileGeometry::paper_default();
        let multi = fused_multi_oracle(&geo, &a, &b, &a2, &b2, &w, m, n, k, 1.0, r);
        for c in 0..r {
            let single = fused_oracle(&geo, &a, &b, &a2, &b2, &w[c * n..(c + 1) * n], m, n, k, 1.0);
            for i in 0..m {
                assert_eq!(multi[c * m + i].to_bits(), single[i].to_bits());
            }
        }
    }

    #[test]
    fn bit_compatible_geometries_agree_bit_for_bit() {
        let (m, n, k) = (256, 128, 16);
        let mut next = lcg(17);
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let w: Vec<f32> = (0..n).map(|_| next()).collect();
        let a2: Vec<f32> = (0..m)
            .map(|i| a[i * k..(i + 1) * k].iter().map(|x| x * x).sum())
            .collect();
        let b2: Vec<f32> = (0..n)
            .map(|j| b[j * k..(j + 1) * k].iter().map(|x| x * x).sum())
            .collect();
        let base = TileGeometry::paper_default();
        let alt = TileGeometry {
            block_m: 64,
            tile_k: 4,
            double_buffer_depth: 1,
            ..base
        };
        assert!(base.bit_compatible(&alt));
        let x = fused_oracle(&base, &a, &b, &a2, &b2, &w, m, n, k, 0.8);
        let y = fused_oracle(&alt, &a, &b, &a2, &b2, &w, m, n, k, 0.8);
        for i in 0..m {
            assert_eq!(x[i].to_bits(), y[i].to_bits(), "row {i}");
        }
        let n_side = TileGeometry {
            block_n: 64,
            ..base
        };
        assert!(!base.bit_compatible(&n_side));
        let z = fused_oracle(&n_side, &a, &b, &a2, &b2, &w, m, n, k, 0.8);
        assert!(
            x.iter()
                .zip(z.iter())
                .any(|(p, q)| p.to_bits() != q.to_bits()),
            "different N-side geometry should change at least one bit"
        );
    }
}
