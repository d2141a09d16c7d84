//! Source-set handles and reusable solve plans (the serving split).
//!
//! A production deployment serves many queries against a handful of
//! long-lived *source sets* (the corpus `A`). Everything that depends
//! only on `A` — the row-major pack and the row square norms — can be
//! computed once and reused across queries, exactly as the paper's
//! fused kernel amortises the `M×N` intermediate across one query
//! (§III): the reuse argument is the same, lifted from intra-kernel to
//! inter-request.
//!
//! [`SourceSet`] wraps a [`PointSet`] with a process-unique identity
//! so caches can key on *which* corpus a query references instead of
//! hashing megabytes of coordinates. [`SourcePlan`] is the cacheable
//! artifact; [`solve_multi_planned`] is [`crate::multi::solve_multi_fused`]
//! with the `A`-side precomputation factored out (the single-shot
//! entry point now delegates here, so planned and unplanned solves are
//! bit-identical by construction). It evaluates in row lanes on the
//! fused kernel's host-evaluator building blocks from
//! `ks_gpu_kernels`: the per-ISA copies ([`Isa`]), the repository's
//! own `expf` and the regrouping helper ([`grouped`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ks_blas::{row_sq_norms, Layout, Matrix};
use ks_gpu_kernels::expf::Isa;
use ks_gpu_kernels::oracle::grouped;
use rayon::prelude::*;

use crate::cpu_fused::FusedCpuConfig;
use crate::kernels::{KernelFunction, LANES};
use crate::problem::PointSet;

/// Process-unique identity of a [`SourceSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceSetId(u64);

impl SourceSetId {
    /// The raw identifier.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

static NEXT_SOURCE_SET_ID: AtomicU64 = AtomicU64::new(1);

/// A registered source corpus: shared, immutable points plus a
/// process-unique id. Clones share both the points (via `Arc`) and
/// the identity, so two queries built from clones of one handle are
/// recognisably "the same corpus" without comparing coordinates.
#[derive(Debug, Clone)]
pub struct SourceSet {
    id: SourceSetId,
    points: Arc<PointSet>,
}

impl SourceSet {
    /// Registers a point set as a corpus, minting a fresh id.
    #[must_use]
    pub fn new(points: PointSet) -> Self {
        Self {
            id: SourceSetId(NEXT_SOURCE_SET_ID.fetch_add(1, Ordering::Relaxed)),
            points: Arc::new(points),
        }
    }

    /// The corpus identity.
    #[must_use]
    pub fn id(&self) -> SourceSetId {
        self.id
    }

    /// The underlying points.
    #[must_use]
    pub fn points(&self) -> &PointSet {
        &self.points
    }

    /// Number of points (the problem's `M`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the corpus holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Point-space dimension (the problem's `K`).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.points.dim()
    }
}

/// The `A`-side precomputation of a fused multi-weight solve: the
/// packed row-major source matrix and its row square norms. Building
/// one costs `O(M·K)`; reusing one saves exactly that per query.
#[derive(Debug, Clone, PartialEq)]
pub struct SourcePlan {
    a: Matrix,
    row_sq_norms: Vec<f32>,
}

impl SourcePlan {
    /// Builds the plan for a point set.
    #[must_use]
    pub fn build(sources: &PointSet) -> Self {
        let a = sources.as_row_major();
        let row_sq_norms = row_sq_norms(&a);
        Self { a, row_sq_norms }
    }

    /// The packed row-major `M×K` source matrix.
    #[must_use]
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// Precomputed `‖α_i‖²` per source row.
    #[must_use]
    pub fn row_sq_norms(&self) -> &[f32] {
        &self.row_sq_norms
    }

    /// `(M, K)` of the planned corpus.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.a.rows(), self.a.cols())
    }

    /// The pack payload as raw words — what a cache-consistency check
    /// should compare bit-for-bit (plan building is deterministic, so
    /// evicting and rebuilding must reproduce these exact bytes).
    #[must_use]
    pub fn pack_words(&self) -> &[f32] {
        self.a.as_slice()
    }

    /// Extracts the sub-plan covering source rows `rows` — the unit a
    /// device pool ships to one device. The slice copies the already
    /// packed words and norms verbatim, so a shard plan is bit-equal
    /// to building a plan from the same rows directly, and the
    /// concatenation of shard results reproduces the unsharded solve
    /// bit for bit (each output row is a fixed-order reduction over
    /// its own `A` row only; see `shard_ranges`).
    ///
    /// # Panics
    /// Panics if `rows` is empty or out of bounds.
    #[must_use]
    pub fn shard(&self, rows: std::ops::Range<usize>) -> Self {
        let (m, k) = self.dims();
        assert!(!rows.is_empty(), "shard must cover at least one row");
        assert!(
            rows.end <= m,
            "shard rows {rows:?} out of bounds for M = {m}"
        );
        let a = Matrix::from_vec(
            rows.len(),
            k,
            Layout::RowMajor,
            self.a.as_slice()[rows.start * k..rows.end * k].to_vec(),
        );
        let row_sq_norms = self.row_sq_norms[rows.clone()].to_vec();
        Self { a, row_sq_norms }
    }
}

/// Partitions `m` source rows into at most `shards` contiguous ranges,
/// each (except possibly the last) a multiple of `align` rows, sized
/// as evenly as the alignment allows. Returns fewer than `shards`
/// ranges when `m` has fewer than `shards` alignment tiles — a device
/// pool must not receive empty shards.
///
/// Row-wise partition is *exact* for kernel summation: output row `i`
/// is `Σ_j w_j·k(x_j, a_i)`, a reduction over the targets whose
/// floating-point evaluation order is row-local, so concatenating
/// shard outputs in range order is bit-identical to the unsharded
/// solve on both backends (every CPU lane is one row, and the
/// simulated GPU's 128-row blocks never mix rows across an
/// `align`-multiple boundary).
///
/// # Panics
/// Panics if `shards` or `align` is zero.
#[must_use]
pub fn shard_ranges(m: usize, shards: usize, align: usize) -> Vec<std::ops::Range<usize>> {
    assert!(shards > 0, "shards must be positive");
    assert!(align > 0, "align must be positive");
    if m == 0 {
        return Vec::new();
    }
    let tiles = m.div_ceil(align);
    let shards = shards.min(tiles);
    let base = tiles / shards;
    let extra = tiles % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut row = 0usize;
    for s in 0..shards {
        let t = base + usize::from(s < extra);
        let end = (row + t * align).min(m);
        ranges.push(row..end);
        row = end;
    }
    debug_assert_eq!(row, m);
    ranges
}

/// Fused multi-weight evaluation against a prebuilt [`SourcePlan`]:
/// dot products → kernel evaluation → fold of all `R` weight columns,
/// with nothing intermediate written to memory and the `A`-side pack
/// and norms taken from the plan.
///
/// Every output `(i, c)` runs one schedule:
///
/// 1. `dot = αᵢᵀβⱼ` folds `K` in chunks of `cfg.kc`: each chunk
///    k-ascending from +0.0 with a separate multiply and add, then the
///    chunk sums in order onto +0.0 (a `gemm_blocked` product with
///    α = 1 into a zeroed tile);
/// 2. `d² = (‖αᵢ‖² + ‖βⱼ‖²) − 2·dot`, where `‖βⱼ‖²` is summed in f64
///    and rounded once, as `col_sq_norms` does;
/// 3. `kv = kernel.eval(d², ‖αᵢ‖², ‖βⱼ‖²)`;
/// 4. `v = v + kv·w(j, c)`, folding `j` ascending from +0.0 over all
///    `N`.
///
/// The evaluation runs in row lanes: sixteen consecutive source rows
/// ride in the lanes of one `[f32; 16]`, four targets' dot products
/// run side by side, and [`KernelFunction::eval_lanes`] evaluates a
/// target's sixteen kernel values at once. Every lane runs the
/// schedule above, so only `cfg.kc` moves a bit; `cfg.mb` sets the
/// rows per parallel task. The body is written once over plain lane
/// arrays and compiled for AVX-512F + FMA, for AVX2 + FMA and for the
/// build's baseline, and the host's best copy ([`Isa::host`]) runs.
/// Rust never contracts a multiply and an add, so every copy gives the
/// same bits. A concrete kernel (`&GaussianKernel`) inlines its lane
/// form into each copy; `&dyn KernelFunction` calls it through the
/// vtable, so `&dyn` callers use [`KernelFunction::solve_planned`].
///
/// [`crate::multi::solve_multi_fused`] delegates here, so for any
/// query the planned result is **bit-identical** to the single-shot
/// solve — the invariant the serving layer's differential tests pin.
///
/// [`Isa::host`]: ks_gpu_kernels::expf::Isa::host
///
/// # Panics
/// Panics if `targets` and the plan disagree on the point dimension,
/// `weights` is not `N×R`, or the configuration is invalid.
#[must_use]
pub fn solve_multi_planned<K: KernelFunction + ?Sized>(
    plan: &SourcePlan,
    targets: &PointSet,
    kernel: &K,
    weights: &Matrix,
    cfg: &FusedCpuConfig,
) -> Matrix {
    let fold = WeightedSum::new(kernel, weights, targets.len());
    solve_on(Isa::host(), plan, targets, fold, cfg)
}

/// Targets whose dot products run side by side, so their independent
/// k-folds overlap.
pub(crate) const COLS: usize = 4;
/// Sixteen source rows' values of one quantity.
pub(crate) type Lanes = [f32; LANES];

/// Everything a fused CPU solve does after the dot products, the one
/// part in which [`solve_multi_planned`] and [`crate::solve_logspace`]
/// differ. It forms its own `d²` from the dots.
pub(crate) trait Fold: Sync {
    /// A strip of sixteen source rows' running state.
    type Acc;
    /// Output words per source row.
    fn width(&self) -> usize;
    /// A strip's state before its first target.
    fn start(&self) -> Self::Acc;
    /// Folds targets `j0..j0 + nb.len()` (at most [`COLS`]) into
    /// `acc`: `dots[c]` holds the rows' dot products with target
    /// `j0 + c`, `na` the rows' square norms and `nb` the targets'.
    fn fold(&self, acc: &mut Self::Acc, j0: usize, dots: &[Lanes; COLS], na: &Lanes, nb: &[f32]);
    /// Writes a strip's existing rows into `out`, row-major.
    fn store(&self, acc: &Self::Acc, out: &mut [f32]);
}

/// The weighted sum over `R` weight columns: steps 2–4 of
/// [`solve_multi_planned`]'s schedule.
struct WeightedSum<'a, K: ?Sized> {
    kernel: &'a K,
    /// The weights, `N×R` column-major.
    w_cols: Vec<f32>,
    n: usize,
    r: usize,
}

impl<'a, K: KernelFunction + ?Sized> WeightedSum<'a, K> {
    fn new(kernel: &'a K, weights: &Matrix, n: usize) -> Self {
        assert_eq!(
            weights.rows(),
            n,
            "weight matrix must have one row per target (N = {n})"
        );
        assert!(weights.cols() > 0, "need at least one weight column");
        let r = weights.cols();
        Self {
            kernel,
            w_cols: (0..r)
                .flat_map(|c| (0..n).map(move |j| weights.get(j, c)))
                .collect(),
            n,
            r,
        }
    }
}

impl<K: KernelFunction + ?Sized> Fold for WeightedSum<'_, K> {
    type Acc = Vec<Lanes>;

    fn width(&self) -> usize {
        self.r
    }

    #[inline(always)]
    fn start(&self) -> Vec<Lanes> {
        vec![[0.0; LANES]; self.r]
    }

    #[inline(always)]
    fn fold(&self, v: &mut Vec<Lanes>, j0: usize, dots: &[Lanes; COLS], na: &Lanes, nb: &[f32]) {
        let mut kv = [[0.0f32; LANES]; COLS];
        for ((kv, dot), &nb) in kv.iter_mut().zip(dots).zip(nb) {
            let mut d2 = [0.0f32; LANES];
            for ((d2, na), dot) in d2.iter_mut().zip(na).zip(dot) {
                *d2 = na + nb - 2.0 * dot;
            }
            *kv = self.kernel.eval_lanes(d2, *na, nb);
        }
        for (v, w) in v.iter_mut().zip(self.w_cols.chunks_exact(self.n)) {
            let mut acc = *v;
            for (kv, &w) in kv.iter().zip(&w[j0..]) {
                for (acc, kv) in acc.iter_mut().zip(kv) {
                    *acc += kv * w;
                }
            }
            *v = acc;
        }
    }

    #[inline(always)]
    fn store(&self, v: &Vec<Lanes>, out: &mut [f32]) {
        for (l, row) in out.chunks_exact_mut(self.r).enumerate() {
            for (x, v) in row.iter_mut().zip(v) {
                *x = v[l];
            }
        }
    }
}

/// One solve's operands as the lane body reads them: `a` is `M×K`
/// row-major, `b_cols` the targets in groups of [`COLS`] (see
/// [`grouped`]).
struct Operands<'a, F> {
    fold: F,
    a: &'a [f32],
    na: &'a [f32],
    b_cols: Vec<[f32; COLS]>,
    nb: Vec<f32>,
    n: usize,
    k: usize,
    kc: usize,
}

/// The fused CPU body with `fold` after the dot products, on `isa`'s
/// copy of the lane body: an `M × fold.width()` row-major result.
///
/// # Panics
/// If `targets` and the plan disagree on the point dimension, the
/// configuration is invalid, or this host cannot run `isa`'s copy.
pub(crate) fn solve_on<F: Fold>(
    isa: Isa,
    plan: &SourcePlan,
    targets: &PointSet,
    fold: F,
    cfg: &FusedCpuConfig,
) -> Matrix {
    assert!(isa.supported(), "this host cannot run the {isa:?} copy");
    cfg.validate();
    let (m, k) = plan.dims();
    assert_eq!(
        targets.dim(),
        k,
        "target dimension {} does not match the plan's K = {k}",
        targets.dim()
    );
    let b = targets.coords();
    let width = fold.width();
    let op = Operands {
        fold,
        a: plan.a().as_slice(),
        na: plan.row_sq_norms(),
        b_cols: grouped(b, k),
        nb: b.chunks_exact(k).map(sq_norm).collect(),
        n: targets.len(),
        k,
        kc: cfg.kc,
    };
    let mut v = Matrix::zeros(m, width, Layout::RowMajor);
    v.as_mut_slice()
        .par_chunks_mut(cfg.mb * width)
        .enumerate()
        .for_each(|(task, out)| {
            let i0 = task * cfg.mb;
            match isa {
                // SAFETY: asserted above that the host has AVX-512F and FMA.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => unsafe { rows_avx512(&op, i0, out) },
                // SAFETY: asserted above that the host has AVX2 and FMA.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => unsafe { rows_avx2(&op, i0, out) },
                _ => rows_lanes(&op, i0, out),
            }
        });
    v
}

/// `‖p‖²` summed in f64 from +0.0 and rounded once, as `col_sq_norms`
/// sums a column.
fn sq_norm(p: &[f32]) -> f32 {
    p.iter()
        .fold(0.0f64, |s, &x| s + f64::from(x) * f64::from(x)) as f32
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn rows_avx512<F: Fold>(op: &Operands<'_, F>, i0: usize, out: &mut [f32]) {
    rows_lanes(op, i0, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn rows_avx2<F: Fold>(op: &Operands<'_, F>, i0: usize, out: &mut [f32]) {
    rows_lanes(op, i0, out);
}

/// The lane body: the result's rows from `i0` into `out` (row-major,
/// `fold.width()` words a row), sixteen rows at a time, every lane's
/// dot products on step 1 of [`solve_multi_planned`]'s schedule and
/// the rest in the fold. Lanes past the last row hold zeros and are
/// never stored.
#[inline(always)]
fn rows_lanes<F: Fold>(op: &Operands<'_, F>, i0: usize, out: &mut [f32]) {
    let (k, n, width) = (op.k, op.n, op.fold.width());
    let rows = out.len() / width;
    let a = grouped::<LANES>(&op.a[i0 * k..(i0 + rows) * k], k);
    let na = grouped::<LANES>(&op.na[i0..i0 + rows], 1);
    for ((a, na), out) in a
        .chunks_exact(k)
        .zip(&na)
        .zip(out.chunks_mut(LANES * width))
    {
        let mut acc = op.fold.start();
        for (g, b) in op.b_cols.chunks_exact(k).enumerate() {
            let j0 = g * COLS;
            let nb = &op.nb[j0..n.min(j0 + COLS)];
            op.fold.fold(&mut acc, j0, &dots(a, b, op.kc), na, nb);
        }
        op.fold.store(&acc, out);
    }
}

/// Sixteen rows' dot products with [`COLS`] targets: `K` folds in
/// chunks of `kc`, each k-ascending from +0.0, and the chunk sums fold
/// in order onto +0.0.
#[inline(always)]
fn dots(a: &[Lanes], b: &[[f32; COLS]], kc: usize) -> [Lanes; COLS] {
    let mut dots = [[0.0f32; LANES]; COLS];
    for (a, b) in a.chunks(kc).zip(b.chunks(kc)) {
        let mut chunk = [[0.0f32; LANES]; COLS];
        for (ak, bk) in a.iter().zip(b) {
            for (chunk, bk) in chunk.iter_mut().zip(bk) {
                for (x, ak) in chunk.iter_mut().zip(ak) {
                    *x += ak * bk;
                }
            }
        }
        for (dot, chunk) in dots.iter_mut().zip(&chunk) {
            for (d, c) in dot.iter_mut().zip(chunk) {
                *d += c;
            }
        }
    }
    dots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{CauchyKernel, GaussianKernel, LaplaceKernel, PolynomialKernel};
    use crate::multi::solve_multi_fused;
    use crate::problem::KernelSumProblem;
    use ks_blas::{col_sq_norms, gemm_blocked, GemmConfig};

    fn rand_weights(n: usize, r: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(n, r, Layout::RowMajor, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
    }

    #[test]
    fn source_set_ids_are_unique_and_shared_by_clones() {
        let a = SourceSet::new(PointSet::uniform_cube(8, 3, 1));
        let b = SourceSet::new(PointSet::uniform_cube(8, 3, 1));
        assert_ne!(a.id(), b.id(), "identical contents, distinct corpora");
        let a2 = a.clone();
        assert_eq!(a.id(), a2.id());
        assert_eq!(a.len(), 8);
        assert_eq!(a.dim(), 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn plan_build_is_deterministic_bit_for_bit() {
        let pts = PointSet::uniform_cube(40, 6, 9);
        let p1 = SourcePlan::build(&pts);
        let p2 = SourcePlan::build(&pts);
        assert_eq!(p1, p2);
        let bits1: Vec<u32> = p1.pack_words().iter().map(|v| v.to_bits()).collect();
        let bits2: Vec<u32> = p2.pack_words().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits1, bits2);
        assert_eq!(p1.dims(), (40, 6));
        assert_eq!(p1.row_sq_norms().len(), 40);
    }

    #[test]
    fn planned_solve_is_bit_identical_to_single_shot() {
        let sources = PointSet::uniform_cube(70, 5, 11);
        let targets = PointSet::uniform_cube(44, 5, 12);
        let w = rand_weights(44, 3, 13);
        let kernel = GaussianKernel { h: 0.7 };
        let p = KernelSumProblem::builder()
            .sources(sources.clone())
            .targets(targets.clone())
            .unit_weights()
            .kernel(kernel)
            .build();
        let single = solve_multi_fused(&p, &w, &FusedCpuConfig::default());
        let plan = SourcePlan::build(&sources);
        let planned = solve_multi_planned(&plan, &targets, &kernel, &w, &FusedCpuConfig::default());
        for i in 0..single.rows() {
            for j in 0..single.cols() {
                assert_eq!(
                    single.get(i, j).to_bits(),
                    planned.get(i, j).to_bits(),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn shard_ranges_cover_aligned_and_balanced() {
        // 5 tiles of 128 over 2 shards: 3 + 2 tiles.
        assert_eq!(shard_ranges(640, 2, 128), vec![0..384, 384..640]);
        // Ragged tail stays in the last shard.
        assert_eq!(shard_ranges(300, 2, 128), vec![0..256, 256..300]);
        // More shards than tiles: collapse, never emit an empty shard.
        assert_eq!(shard_ranges(100, 4, 128), vec![0..100]);
        // Exact division.
        assert_eq!(
            shard_ranges(512, 4, 128),
            vec![0..128, 128..256, 256..384, 384..512]
        );
        // Degenerate corpus.
        assert!(shard_ranges(0, 3, 128).is_empty());
        // Every interior boundary is a multiple of the alignment.
        for m in [1usize, 127, 128, 129, 1000, 4096] {
            for shards in 1..6 {
                let rs = shard_ranges(m, shards, 128);
                assert_eq!(rs.first().unwrap().start, 0);
                assert_eq!(rs.last().unwrap().end, m);
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                    assert_eq!(w[0].end % 128, 0, "aligned boundary");
                }
                assert!(rs.iter().all(|r| !r.is_empty()));
            }
        }
    }

    #[test]
    fn shard_plan_is_bit_equal_to_direct_build() {
        let pts = PointSet::uniform_cube(300, 4, 21);
        let plan = SourcePlan::build(&pts);
        for range in shard_ranges(300, 3, 128) {
            let shard = plan.shard(range.clone());
            assert_eq!(shard.dims(), (range.len(), 4));
            for (local, global) in range.clone().enumerate() {
                assert_eq!(
                    shard.row_sq_norms()[local].to_bits(),
                    plan.row_sq_norms()[global].to_bits()
                );
                for c in 0..4 {
                    assert_eq!(
                        shard.a().get(local, c).to_bits(),
                        plan.a().get(global, c).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_solve_concatenates_bit_identical_to_unsharded() {
        let sources = PointSet::uniform_cube(300, 5, 31);
        let targets = PointSet::uniform_cube(40, 5, 32);
        let w = rand_weights(40, 2, 33);
        let kernel = GaussianKernel { h: 0.8 };
        let cfg = FusedCpuConfig::default();
        let plan = SourcePlan::build(&sources);
        let whole = solve_multi_planned(&plan, &targets, &kernel, &w, &cfg);
        for shards in [1usize, 2, 3] {
            let mut row = 0usize;
            for range in shard_ranges(300, shards, 128) {
                let part =
                    solve_multi_planned(&plan.shard(range.clone()), &targets, &kernel, &w, &cfg);
                for rr in 0..part.rows() {
                    for ch in 0..part.cols() {
                        assert_eq!(
                            part.get(rr, ch).to_bits(),
                            whole.get(row + rr, ch).to_bits(),
                            "shards={shards} row={} col={ch}",
                            row + rr
                        );
                    }
                }
                row = range.end;
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shard_rejects_out_of_bounds_rows() {
        let plan = SourcePlan::build(&PointSet::uniform_cube(16, 3, 5));
        let _ = plan.shard(8..32);
    }

    #[test]
    #[should_panic(expected = "does not match the plan")]
    fn planned_solve_rejects_dim_mismatch() {
        let plan = SourcePlan::build(&PointSet::uniform_cube(16, 4, 1));
        let targets = PointSet::uniform_cube(8, 5, 2);
        let w = rand_weights(8, 1, 3);
        let _ = solve_multi_planned(
            &plan,
            &targets,
            &GaussianKernel { h: 1.0 },
            &w,
            &FusedCpuConfig::default(),
        );
    }

    /// The schedule `solve_multi_planned` keeps, as the tiled body ran
    /// it before the lanes: one `gemm_blocked` product (α = 1, zeroed
    /// tile) for every dot, then each output folded element by element.
    /// Only `kc` of the blocking moves a bit. Also returns every `d²`.
    fn scalar_spec(
        plan: &SourcePlan,
        targets: &PointSet,
        kernel: &dyn KernelFunction,
        weights: &Matrix,
        kc: usize,
    ) -> (Matrix, Vec<f32>) {
        let (m, _) = plan.dims();
        let (n, r) = (targets.len(), weights.cols());
        let b = targets.as_col_major_transposed();
        let nb = col_sq_norms(&b);
        let mut dots = Matrix::zeros(m, n, Layout::RowMajor);
        let gemm = GemmConfig {
            kc,
            ..GemmConfig::default()
        };
        gemm_blocked(1.0, plan.a(), &b, 0.0, &mut dots, gemm);
        let mut v = Matrix::zeros(m, r, Layout::RowMajor);
        let mut d2s = Vec::with_capacity(m * n);
        for (i, &na) in plan.row_sq_norms().iter().enumerate() {
            for (j, &nb) in nb.iter().enumerate() {
                let d2 = na + nb - 2.0 * dots.get(i, j);
                let kv = kernel.eval(d2, na, nb);
                for c in 0..r {
                    v.add_assign(i, c, kv * weights.get(j, c));
                }
                d2s.push(d2);
            }
        }
        (v, d2s)
    }

    fn assert_bits_equal(got: &Matrix, want: &Matrix, what: &str) {
        for (e, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: V[{e}] = {g:e}, want {w:e}"
            );
        }
    }

    /// `solve_multi_planned` runs only the copy the host picks; this
    /// runs every copy the host supports against [`scalar_spec`], with
    /// M not a multiple of 16, N not a multiple of 4, ragged tasks and
    /// K folded in one chunk or many. The inputs reach the special
    /// paths: rows equal to a target (d² rounds below 0 and the clamp
    /// decides), a far row (the exp underflows to 0), a row whose exps
    /// are subnormal, a NaN, a +∞ and a −∞ coordinate, each in a row of
    /// its own (so each such row makes NaNs of one payload only), and
    /// −0 products (a negated row against a zero coordinate, zero
    /// Gaussians against negative weights). The Gaussian runs
    /// concretely; it and the other kernels also run through `&dyn`,
    /// whose lane form the trait's default maps from `eval`.
    #[test]
    fn every_compiled_copy_matches_the_scalar_schedule() {
        let gaussian = GaussianKernel { h: 1.0 };
        let kernels: [&dyn KernelFunction; 4] = [
            &gaussian,
            &LaplaceKernel { h: 1.5 },
            &CauchyKernel { h: 0.8 },
            &PolynomialKernel { c: 0.5, degree: 3 },
        ];
        let (mut clamped, mut subnormal, mut non_finite) = (0, 0, 0);
        for (case, (m, n, k)) in [(45, 23, 9), (37, 30, 300)].into_iter().enumerate() {
            let mut state = 0x9e37_79b9_u64 + case as u64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as f32 / (1u64 << 33) as f32 + 0.01
            };
            let mut t: Vec<f32> = (0..n * k).map(|_| next()).collect();
            let mut a: Vec<f32> = (0..m * k).map(|_| next()).collect();
            for (row, target) in [(3, 0), (19, 5), (35, 11)] {
                a[row * k..(row + 1) * k].copy_from_slice(&t[target * k..(target + 1) * k]);
            }
            a[7 * k..8 * k].iter_mut().for_each(|x| *x += 40.0);
            a[11 * k] += 13.6;
            a[13 * k..14 * k].iter_mut().for_each(|x| *x = -*x);
            t[7 * k] = 0.0;
            a[23 * k + 2] = f32::NAN;
            a[27 * k + 1] = f32::INFINITY;
            a[31 * k + 3] = f32::NEG_INFINITY;
            let plan = SourcePlan::build(&PointSet::from_coords(m, k, a));
            let targets = PointSet::from_coords(n, k, t);
            for r in [1, 3, 8, 12] {
                // Column 0 positive, the rest of either sign.
                let w = Matrix::from_fn(n, r, Layout::RowMajor, |_, c| {
                    next() - if c == 0 { 0.0 } else { 0.25 }
                });
                for kc in [2, 7, 256] {
                    let cfg = FusedCpuConfig { mb: 20, kc };
                    for kernel in kernels {
                        let (want, d2s) = scalar_spec(&plan, &targets, kernel, &w, kc);
                        if kernel.name() == "gaussian" {
                            clamped += d2s.iter().filter(|&&d| d < 0.0).count();
                            subnormal +=
                                d2s.iter().filter(|&&d| (175.0..207.0).contains(&d)).count();
                        }
                        non_finite += want.as_slice().iter().filter(|x| !x.is_finite()).count();
                        for isa in Isa::ALL.into_iter().filter(|isa| isa.supported()) {
                            let what =
                                |via| format!("{isa:?} copy, {via}, {m}x{n}x{k}, R {r}, kc {kc}");
                            let fold = WeightedSum::new(kernel, &w, n);
                            let got = solve_on(isa, &plan, &targets, fold, &cfg);
                            assert_bits_equal(&got, &want, &what(kernel.name()));
                            if kernel.name() == "gaussian" {
                                let fold = WeightedSum::new(&gaussian, &w, n);
                                let got = solve_on(isa, &plan, &targets, fold, &cfg);
                                assert_bits_equal(&got, &want, &what("concrete gaussian"));
                            }
                        }
                    }
                }
            }
        }
        assert!(clamped > 0, "no d² rounded below 0");
        assert!(subnormal > 0, "no exp was subnormal");
        assert!(non_finite > 0, "no NaN or infinity reached V");
    }

    /// FNV-1a over the output bits of every case of a fixed grid: five
    /// shapes (ragged M, N and K among them), R 1, 3, 8 and 12, three
    /// bandwidths, at the default blocking and, where M < 500, at an
    /// awkward one.
    fn grid_digest() -> u64 {
        let awkward = FusedCpuConfig { mb: 5, kc: 2 };
        let shapes = [
            (1024, 256, 32),
            (2048, 256, 32),
            (129, 77, 9),
            (64, 300, 300),
            (300, 33, 1),
        ];
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (case, (m, n, k)) in shapes.into_iter().enumerate() {
            let seed = 100 * case as u64;
            let plan = SourcePlan::build(&PointSet::uniform_cube(m, k, seed + 1));
            let targets = PointSet::uniform_cube(n, k, seed + 2);
            let cfgs = if m < 500 {
                vec![FusedCpuConfig::default(), awkward]
            } else {
                vec![FusedCpuConfig::default()]
            };
            for r in [1, 3, 8, 12] {
                let w = rand_weights(n, r, seed + 3 + r as u64);
                for h in [0.25f32, 1.0, 5.0] {
                    for cfg in &cfgs {
                        let v =
                            solve_multi_planned(&plan, &targets, &GaussianKernel { h }, &w, cfg);
                        for x in v.as_slice() {
                            for byte in x.to_bits().to_le_bytes() {
                                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                            }
                        }
                    }
                }
            }
        }
        hash
    }

    /// The CPU solver's bits, pinned by value: perfbench's oracle and
    /// the serving differentials compare against this same function, so
    /// only a digest taken before a rewrite can see a moved bit. The
    /// value is the tiled GEMM body's on glibc's FMA `expf`.
    #[test]
    fn output_bits_match_the_pinned_digest() {
        const PINNED: u64 = 0x53b1_ebc2_f432_abff;
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("a one-thread pool");
        assert_eq!(one.install(grid_digest), PINNED, "one thread");
        assert_eq!(grid_digest(), PINNED, "default thread count");
    }
}
