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
//! 1. the GEMM dot product folds over `k` sequentially from +0.0, one
//!    FMUL + FADD rounding per step as `compute_ktile` accumulates
//!    (never contracted to FMA), once for all `R` columns;
//! 2. `d = ‖α‖² + ‖β‖² − 2·dot` goes through the same Gaussian as
//!    [`gaussian`], on the repository's own `expf`;
//! 3. each thread's γ partial folds its `micro_n` weighted terms in
//!    ascending column order from +0.0 (line 16 of Algorithm 2);
//! 4. the intra-block reduction sums the `threads_x` thread partials
//!    in ascending `tx` order from +0.0 (the shuffle-tree model).
//!
//! The evaluation runs in row lanes: sixteen consecutive rows of a
//! block ride in the lanes of one `[f32; 16]`, and every lane runs
//! steps 1–4 exactly as the scalar schedule does, so the tile goes
//! from the dot products through the exp to the weighted fold without
//! writing anything intermediate to memory, as on the GPU. That body
//! is written once over plain lane arrays and compiled three times —
//! for AVX-512F + FMA, for AVX2 + FMA and for the build's baseline —
//! and the host's best copy runs (other architectures run the
//! baseline). Rust never contracts a multiply and an add, so every
//! copy gives the same bits.
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
//!
//! [`gaussian`]: crate::aux_kernels::gaussian

use rayon::prelude::*;

use crate::aux_kernels::Bandwidth;
use crate::expf::{expf_lanes, Isa};
use crate::fused_multi::MAX_WEIGHT_COLUMNS;
use crate::geometry::TileGeometry;

/// Rows that ride in one lane array.
const LANES: usize = 16;
/// Sixteen rows' values of one quantity.
type Lanes = [f32; LANES];
/// Columns whose dot products run side by side, so their independent
/// k-folds overlap; every `micro_n` is a multiple of it.
const COLS: usize = 4;

/// Point-contiguous coordinates (`points × k`) regrouped `L` points to
/// an entry: entry `g·k + t` holds coordinate `t` of points
/// `L·g..L·g + L` (zero past the last point).
fn grouped<const L: usize>(coords: &[f32], k: usize) -> Vec<[f32; L]> {
    let mut out = vec![[0.0f32; L]; coords.len().div_ceil(k * L) * k];
    for (p, point) in coords.chunks_exact(k).enumerate() {
        for (t, &x) in point.iter().enumerate() {
            out[p / L * k + t][p % L] = x;
        }
    }
    out
}

/// One fused launch's operands on the host, as the kernel reads them:
/// `a` is `M×K` row-major, `b_cols` the `N` targets in groups of
/// [`COLS`] (entry `g·K + k` holds coordinate `k` of columns
/// `COLS·g..COLS·g + COLS`), `w_cols` `N×R` column-major.
pub(crate) struct FusedHost<'a> {
    a: &'a [f32],
    b_cols: Vec<[f32; COLS]>,
    a2: &'a [f32],
    b2: &'a [f32],
    w_cols: &'a [f32],
    n: usize,
    k: usize,
    r: usize,
    inv_2h2: f32,
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
            b_cols: grouped(b, k),
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
        let isa = Isa::host();
        let rows = self.row_lanes(geo, by);
        let mut t = vec![0.0f32; self.r * geo.block_m];
        for bx in 0..self.n / geo.block_n {
            if interpret(bx) {
                continue;
            }
            self.block_on(isa, geo, by, bx, &rows, &mut t);
            each(&t);
        }
    }

    /// Row group `by`'s rows of `A` in lanes: entry `s·K + k` holds
    /// coordinate `k` of the group's rows `16s..16s + 16`.
    fn row_lanes(&self, geo: &TileGeometry, by: usize) -> Vec<Lanes> {
        let (bm, k) = (geo.block_m, self.k);
        grouped(&self.a[by * bm * k..(by + 1) * bm * k], k)
    }

    /// Block `(bx, by)`'s `T` partials into `t` on `isa`'s copy of the
    /// lane body.
    ///
    /// # Panics
    /// Panics if this host cannot run `isa`'s copy.
    fn block_on(
        &self,
        isa: Isa,
        geo: &TileGeometry,
        by: usize,
        bx: usize,
        rows: &[Lanes],
        t: &mut [f32],
    ) {
        assert!(isa.supported(), "this host cannot run the {isa:?} copy");
        match isa {
            // SAFETY: asserted above that the host has AVX-512F and FMA.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { block_avx512(self, geo, by, bx, rows, t) },
            // SAFETY: asserted above that the host has AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { block_avx2(self, geo, by, bx, rows, t) },
            _ => block_lanes(self, geo, by, bx, rows, t),
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn block_avx512(
    host: &FusedHost<'_>,
    geo: &TileGeometry,
    by: usize,
    bx: usize,
    rows: &[Lanes],
    t: &mut [f32],
) {
    block_lanes(host, geo, by, bx, rows, t);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn block_avx2(
    host: &FusedHost<'_>,
    geo: &TileGeometry,
    by: usize,
    bx: usize,
    rows: &[Lanes],
    t: &mut [f32],
) {
    block_lanes(host, geo, by, bx, rows, t);
}

/// The lane body: block `(bx, by)`'s `T` partials into `t`, sixteen
/// rows at a time, each lane on the scalar schedule of the module
/// docs. `rows` is [`FusedHost::row_lanes`] of row group `by`.
#[inline(always)]
fn block_lanes(
    host: &FusedHost<'_>,
    geo: &TileGeometry,
    by: usize,
    bx: usize,
    rows: &[Lanes],
    t: &mut [f32],
) {
    let (bm, bn, mn, k, n, r) = (
        geo.block_m,
        geo.block_n,
        geo.micro_n,
        host.k,
        host.n,
        host.r,
    );
    let col0 = bx * bn;
    for (strip, a) in rows.chunks_exact(k).enumerate() {
        let row0 = by * bm + strip * LANES;
        let a2: Lanes = host.a2[row0..row0 + LANES].try_into().expect("16 rows");
        let mut part = [[0.0f32; LANES]; MAX_WEIGHT_COLUMNS];
        for thread in (col0..col0 + bn).step_by(mn) {
            let mut gamma = [[0.0f32; LANES]; MAX_WEIGHT_COLUMNS];
            for j0 in (thread..thread + mn).step_by(COLS) {
                let b = &host.b_cols[j0 / COLS * k..][..k];
                let mut dots = [[0.0f32; LANES]; COLS];
                for (ak, bk) in a.iter().zip(b) {
                    for c in 0..COLS {
                        for l in 0..LANES {
                            dots[c][l] += ak[l] * bk[c];
                        }
                    }
                }
                for (j, dot) in (j0..).zip(&dots) {
                    let mut x = [0.0f32; LANES];
                    for l in 0..LANES {
                        let d = a2[l] + host.b2[j] - 2.0 * dot[l];
                        x[l] = -d * host.inv_2h2;
                    }
                    let kv = expf_lanes(x);
                    for (c, g) in gamma[..r].iter_mut().enumerate() {
                        let w = host.w_cols[c * n + j];
                        for l in 0..LANES {
                            g[l] += kv[l] * w;
                        }
                    }
                }
            }
            for (p, g) in part.iter_mut().zip(&gamma) {
                for l in 0..LANES {
                    p[l] += g[l];
                }
            }
        }
        for (c, p) in part[..r].iter().enumerate() {
            t[c * bm + strip * LANES..][..LANES].copy_from_slice(p);
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
    use crate::aux_kernels::gaussian;

    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 0.5
        }
    }

    /// The scalar schedule of the module docs, element by element:
    /// block `(bx, by)`'s `T` partials, reading `B` (`K×N` column-
    /// major) as given.
    fn scalar_block(
        host: &FusedHost<'_>,
        b: &[f32],
        geo: &TileGeometry,
        by: usize,
        bx: usize,
    ) -> Vec<f32> {
        let (bm, bn, mn, k, n, r) = (
            geo.block_m,
            geo.block_n,
            geo.micro_n,
            host.k,
            host.n,
            host.r,
        );
        let mut t = vec![0.0f32; r * bm];
        for i in 0..bm {
            let row = by * bm + i;
            let mut part = [0.0f32; MAX_WEIGHT_COLUMNS];
            for tx in 0..bn / mn {
                let mut gamma = [0.0f32; MAX_WEIGHT_COLUMNS];
                for j in bx * bn + tx * mn..bx * bn + (tx + 1) * mn {
                    let mut dot = 0.0f32;
                    for kk in 0..k {
                        dot += host.a[row * k + kk] * b[j * k + kk];
                    }
                    let kv = gaussian(host.a2[row] + host.b2[j] - 2.0 * dot, host.inv_2h2);
                    for c in 0..r {
                        gamma[c] += kv * host.w_cols[c * n + j];
                    }
                }
                for c in 0..r {
                    part[c] += gamma[c];
                }
            }
            for c in 0..r {
                t[c * bm + i] = part[c];
            }
        }
        t
    }

    /// `differential_lattice.rs` runs only the copy the host picks;
    /// this runs every copy the host supports, on every N-side of the
    /// lattice and every `block_m`, against [`scalar_block`], on
    /// inputs that reach the exp's special paths: far rows (the exp
    /// underflows to 0), rows whose exp is subnormal, a NaN and a +∞
    /// coordinate and a −∞ norm, and −0 products (negative coordinates
    /// against a zero one, and zero Gaussians against negative
    /// weights). The non-finite operands sit in rows of their own, so
    /// every other row's `T` stays finite and checks the arithmetic,
    /// and each such row makes NaNs of one payload only: two NaNs of
    /// different payloads meeting in an add give either one.
    #[test]
    fn every_compiled_copy_matches_the_scalar_schedule() {
        let k = 5;
        let mut next = lcg(29);
        let (mut nans, mut infs, mut finite) = (0, 0, 0);
        let n_sides = [32, 64, 128, 256]
            .into_iter()
            .flat_map(|bn| [4, 8, 16].map(|mn| (bn, mn)));
        let cases = n_sides.flat_map(|(bn, mn)| [1, 3, 8].map(|r| (bn, mn, r)));
        for (case, (bn, mn, r)) in cases.enumerate() {
            let bm = [32, 64, 128, 256][case % 4];
            let geo = TileGeometry {
                block_m: bm,
                block_n: bn,
                micro_n: mn,
                ..TileGeometry::paper_default()
            };
            let (m, n) = (2 * bm, 2 * bn);
            let mut a: Vec<f32> = (0..m * k).map(|_| next() + 0.01).collect();
            let mut b: Vec<f32> = (0..k * n).map(|_| next() + 0.01).collect();
            // Weight column 0 is positive, so the +∞ row's T is +∞ there.
            let w: Vec<f32> = (0..n * r)
                .map(|e| next() + if e < n { 0.01 } else { -0.25 })
                .collect();
            let norms = |x: &[f32]| -> Vec<f32> {
                x.chunks_exact(k)
                    .map(|p| p.iter().map(|v| v * v).sum())
                    .collect()
            };
            let (mut a2, b2) = (norms(&a), norms(&b));
            // Block (1, 1): rows bm.., columns bn.. (h = 1, so x = −d/2).
            for i in bm..2 * bm {
                match i % 7 {
                    1 => a2[i] = 1e4,
                    2 => a2[i] = 176.0 + (i % 32) as f32,
                    4 => a[i * k..(i + 1) * k].iter_mut().for_each(|x| *x = -*x),
                    _ => {}
                }
            }
            a[(bm + 3) * k + 1] = f32::NAN;
            a[(bm + 5) * k + 2] = f32::INFINITY;
            a2[bm + 9] = f32::NEG_INFINITY;
            b[(bn + 7) * k] = 0.0;

            let host = FusedHost::new(&a, &b, &a2, &b2, &w, (m, n, k), 1.0, r);
            let want = scalar_block(&host, &b, &geo, 1, 1);
            nans += want.iter().filter(|x| x.is_nan()).count();
            infs += want.iter().filter(|x| x.is_infinite()).count();
            finite += want.iter().filter(|x| x.is_finite()).count();
            let rows = host.row_lanes(&geo, 1);
            for isa in Isa::ALL.into_iter().filter(|isa| isa.supported()) {
                let mut t = vec![0.0f32; r * bm];
                host.block_on(isa, &geo, 1, 1, &rows, &mut t);
                for (e, (got, want)) in t.iter().zip(&want).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{isa:?} copy, {geo}, R {r}: T[{e}] = {got:e}, want {want:e}"
                    );
                }
            }
        }
        assert!(nans > 0 && infs > 0, "the special inputs reached T");
        assert!(
            finite > 9 * (nans + infs),
            "the special inputs stayed in their rows"
        );
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
