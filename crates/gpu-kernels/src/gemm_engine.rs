//! The shared block-tile GEMM engine (paper §III-A, Fig 4),
//! parameterized over [`TileGeometry`].
//!
//! One thread block of `threads_x × threads_y` threads computes a
//! `block_m × block_n` `submatrixC` as `Σ_i tileA_i × tileB_i` with
//! rank-`tile_k` updates: `tileA` is `block_m × tile_k` (rows of A),
//! `tileB` is `tile_k × block_n` (columns of B). Each thread owns a
//! `micro_m × micro_n` `microtileC` in registers. Tiles are staged in
//! shared memory with the generalized Fig 5 swizzle
//! ([`crate::geometry::TileSide`]) and — at depth 2 — double-buffered
//! so the loads of tile `i+1` overlap the compute of tile `i`
//! (Algorithm 2 lines 5–13). At [`TileGeometry::paper_default`] every
//! loop below reduces to the paper's hand-written schedule.
//!
//! The engine is generic over [`WarpMachine`], so the same code path
//! produces numerics (functional mode) and transaction counts
//! (traffic mode).

use ks_gpu_sim::access::{affine_lanes, AccessSpec, GlobalPattern, SharedPattern};
use ks_gpu_sim::buffer::BufId;
use ks_gpu_sim::kernel::VecWidth;
use ks_gpu_sim::trace::AccessDir;
use ks_gpu_sim::traffic::WarpIdx;

use crate::geometry::TileGeometry;
use crate::layout::SmemLayout;
use crate::machine::WarpMachine;

/// Largest supported microtile edge (bounds the per-lane operand
/// fragment arrays; the feasibility lattice never exceeds it).
pub const MAX_MICRO: usize = 16;

/// Per-block accumulator grid: one `micro_m × micro_n` register
/// microtile per thread, stored flat. In traffic mode use
/// [`AccGrid::empty`] — no data is touched.
#[derive(Debug, Clone, PartialEq)]
pub struct AccGrid {
    data: Vec<f32>,
    micro_m: usize,
    micro_n: usize,
}

impl AccGrid {
    /// Fresh zeroed accumulators for one block of `geo`.
    #[must_use]
    pub fn for_geometry(geo: &TileGeometry) -> Self {
        Self {
            data: vec![0.0; geo.threads_per_block() * geo.micro_m * geo.micro_n],
            micro_m: geo.micro_m,
            micro_n: geo.micro_n,
        }
    }

    /// A data-less grid for traffic mode.
    #[must_use]
    pub fn empty(geo: &TileGeometry) -> Self {
        Self {
            data: Vec::new(),
            micro_m: geo.micro_m,
            micro_n: geo.micro_n,
        }
    }

    /// True when no data is carried (traffic mode).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat length of the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Element `(r, c)` of thread `tid`'s microtile.
    #[inline]
    #[must_use]
    pub fn at(&self, tid: usize, r: usize, c: usize) -> f32 {
        self.data[(tid * self.micro_m + r) * self.micro_n + c]
    }

    /// Mutable element `(r, c)` of thread `tid`'s microtile.
    #[inline]
    pub fn at_mut(&mut self, tid: usize, r: usize, c: usize) -> &mut f32 {
        &mut self.data[(tid * self.micro_m + r) * self.micro_n + c]
    }

    /// XORs `mask` into the bit pattern of flat accumulator slot
    /// `idx mod len` (the register-file fault-injection hook).
    pub fn flip_bits(&mut self, idx: u64, mask: u32) {
        let n = self.data.len() as u64;
        if n > 0 {
            let slot = (idx % n) as usize;
            self.data[slot] = f32::from_bits(self.data[slot].to_bits() ^ mask);
        }
    }
}

/// Operand matrices of the GEMM: `a` is M×K row-major, `b` is K×N
/// column-major — both *point-contiguous* along K, as the paper
/// requires.
#[derive(Debug, Clone, Copy)]
pub struct GemmOperands {
    /// Source-point matrix A (M×K, row-major).
    pub a: BufId,
    /// Target-point matrix B (K×N, column-major).
    pub b: BufId,
}

/// Problem dimensions. The engine requires the shape to divide the
/// tile geometry exactly (the paper's sweeps satisfy this; fringe
/// tiles are out of scope — see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of A and C.
    pub m: usize,
    /// Columns of B and C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
}

impl GemmShape {
    /// Validates divisibility against the paper-default geometry.
    ///
    /// # Panics
    /// Panics if the shape violates the tiling constraints.
    pub fn validate(&self) {
        self.validate_for(&TileGeometry::paper_default());
    }

    /// Validates divisibility against `geo`.
    ///
    /// # Panics
    /// Panics if the shape violates the tiling constraints.
    pub fn validate_for(&self, geo: &TileGeometry) {
        assert!(self.m > 0 && self.n > 0 && self.k > 0, "empty GEMM shape");
        assert!(
            self.m.is_multiple_of(geo.block_m),
            "M = {} must be a multiple of {}",
            self.m,
            geo.block_m
        );
        assert!(
            self.n.is_multiple_of(geo.block_n),
            "N = {} must be a multiple of {}",
            self.n,
            geo.block_n
        );
        assert!(
            self.k.is_multiple_of(geo.tile_k),
            "K = {} must be a multiple of {}",
            self.k,
            geo.tile_k
        );
    }

    /// Grid extent at the paper-default geometry: `(N/128, M/128)`.
    #[must_use]
    pub fn grid(&self) -> (u32, u32) {
        self.grid_for(&TileGeometry::paper_default())
    }

    /// Grid extent at `geo`: `(N/block_n, M/block_m)`.
    #[must_use]
    pub fn grid_for(&self, geo: &TileGeometry) -> (u32, u32) {
        geo.grid_for(self.m, self.n)
    }
}

/// Word offsets of the shared-memory buffers. At depth 2 the block
/// holds two tile pairs; at depth 1 both parities alias the same
/// pair. `T` (the reduction scratch of Algorithm 2) reuses an A tile.
#[derive(Debug, Clone, Copy)]
pub struct SmemMap {
    /// Word offsets of sharedA0 / sharedA1.
    pub a: [u32; 2],
    /// Word offsets of sharedB0 / sharedB1.
    pub b: [u32; 2],
    /// Total shared words.
    pub words: u32,
}

impl SmemMap {
    /// Builds the map for single- or double-buffered operation at the
    /// paper-default tile extents.
    #[must_use]
    pub fn new(double_buffer: bool) -> Self {
        let mut geo = TileGeometry::paper_default();
        geo.double_buffer_depth = if double_buffer { 2 } else { 1 };
        Self::for_geometry(&geo)
    }

    /// Builds the map for `geo`.
    #[must_use]
    pub fn for_geometry(geo: &TileGeometry) -> Self {
        let ta = geo.a_tile_words() as u32;
        let tb = geo.b_tile_words() as u32;
        if geo.double_buffer_depth == 2 {
            Self {
                a: [0, ta],
                b: [2 * ta, 2 * ta + tb],
                words: 2 * (ta + tb),
            }
        } else {
            Self {
                a: [0, 0],
                b: [ta, ta],
                words: ta + tb,
            }
        }
    }

    /// Shared-memory bytes per block.
    #[must_use]
    pub fn bytes(&self) -> u32 {
        self.words * 4
    }
}

/// Loads `tileA[kt]` and `tileB[kt]` into the shared buffers at
/// `smem_a` / `smem_b` (generalized Fig 5 store pattern: the first
/// half of the block's warps load A, the second half B, covering the
/// tracks in `loader_slots / loader_warps` passes; conflict-free
/// stores at every feasible geometry).
///
/// Returns the XOR of the bit patterns of all stored words — the
/// *staged checksum* of the tile pair, computed for free while the
/// values pass through registers. An audited [`gemm_block`] compares it
/// against a post-compute [`audit_tile`] re-read to detect shared-
/// memory corruption. Traffic mode returns 0.
#[allow(clippy::too_many_arguments)] // mirrors the CUDA kernel's parameter list
pub fn load_tiles<M: WarpMachine>(
    mach: &mut M,
    geo: &TileGeometry,
    ops: &GemmOperands,
    shape: &GemmShape,
    layout: SmemLayout,
    bx: usize,
    by: usize,
    kt: usize,
    smem_a: u32,
    smem_b: u32,
) -> u32 {
    let k = shape.k;
    let l = geo.loader_warps();
    let chunks = geo.tile_k / 4;
    let mut staged = 0u32;
    for w in 0..geo.warps_per_block() {
        mach.begin_warp(w as u32);
        // Halves: the first `l` warps fetch tileA (point base = row),
        // the rest fetch tileB (point base = column).
        let (buf, point0, wl, side, dst) = if w < l {
            (ops.a, by * geo.block_m, w, geo.side_a(), smem_a)
        } else {
            (ops.b, bx * geo.block_n, w - l, geo.side_b(), smem_b)
        };
        let passes = side.loader_slots() / l;
        for pass in 0..passes {
            let slot = pass * l + wl;
            let track_base = |u: usize| {
                let (m, c) = side.loader_track(slot, u);
                (m, c, (point0 + m * side.micro + c) * k + kt * geo.tile_k)
            };
            // Each lane fetches one `tile_k`-element track as LDG.128s.
            mach.alu(2); // address computation
            let mut track_vals = vec![[0.0f32; 32]; geo.tile_k];
            for chunk in 0..chunks {
                let idx: WarpIdx = std::array::from_fn(|u| Some(track_base(u).2 + 4 * chunk));
                let v = mach.ld_global(buf, &idx, VecWidth::V4);
                if M::FUNCTIONAL {
                    for u in 0..32 {
                        for e in 0..4 {
                            track_vals[4 * chunk + e][u] = v[u][e];
                        }
                    }
                }
            }
            // `tile_k` store phases: phase kk writes one full 32-bank
            // row in the swizzled layout (no store conflicts).
            for (kk, phase_vals) in track_vals.iter().enumerate() {
                let words: [Option<u32>; 32] = std::array::from_fn(|u| {
                    let (m, c, _) = track_base(u);
                    Some(dst + side.word(layout, m, c, kk))
                });
                let vals: [[f32; 4]; 32] = std::array::from_fn(|u| [phase_vals[u], 0.0, 0.0, 0.0]);
                if M::FUNCTIONAL {
                    for v in &vals {
                        staged ^= v[0].to_bits();
                    }
                }
                mach.st_shared(&words, VecWidth::V1, &vals);
            }
        }
    }
    staged
}

/// Re-reads one tile buffer of `words` words and returns the XOR of
/// its bit patterns (0 in traffic mode). The read is conflict-free:
/// each warp covers `words / warps` contiguous words in single-word
/// phases of 32 consecutive words, so the 32 lanes of every phase hit
/// 32 distinct banks.
pub fn audit_tile<M: WarpMachine>(
    mach: &mut M,
    geo: &TileGeometry,
    words: usize,
    base: u32,
) -> u32 {
    let phases = geo.audit_phases(words) as u32;
    let mut digest = 0u32;
    for w in 0..geo.warps_per_block() as u32 {
        mach.begin_warp(w);
        for phase in 0..phases {
            let words: [Option<u32>; 32] =
                std::array::from_fn(|lane| Some(base + (w * phases + phase) * 32 + lane as u32));
            let v = mach.ld_shared(&words, VecWidth::V1);
            if M::FUNCTIONAL {
                for lane in &v {
                    digest ^= lane[0].to_bits();
                }
            }
        }
    }
    digest
}

fn audit_pair<M: WarpMachine>(mach: &mut M, geo: &TileGeometry, smem_a: u32, smem_b: u32) -> u32 {
    audit_tile(mach, geo, geo.a_tile_words(), smem_a)
        ^ audit_tile(mach, geo, geo.b_tile_words(), smem_b)
}

/// One rank-`tile_k` update: every thread multiplies its
/// `microtileA_ty` column slice by its `microtileB_tx` row slice for
/// each of the `tile_k` k-steps, accumulating into `acc` (functional
/// mode only).
pub fn compute_ktile<M: WarpMachine>(
    mach: &mut M,
    geo: &TileGeometry,
    layout: SmemLayout,
    smem_a: u32,
    smem_b: u32,
    acc: &mut AccGrid,
) {
    let (sa, sb) = (geo.side_a(), geo.side_b());
    let txn = geo.threads_x();
    let rpw = geo.rows_per_warp();
    let (mm, mn) = (geo.micro_m, geo.micro_n);
    for w in 0..geo.warps_per_block() {
        mach.begin_warp(w as u32);
        mach.alu(2); // loop/index overhead per warp per tile
        for kk in 0..geo.tile_k {
            // A operand: lane (tx, ty) reads the micro_m track values
            // of microtileA_ty as LDS.64 pairs (2 tracks each).
            let mut a_vals = [[0.0f32; MAX_MICRO]; 32];
            for j in 0..sa.pairs() {
                let words: [Option<u32>; 32] = std::array::from_fn(|lane| {
                    let ty = rpw * w + lane / txn;
                    Some(smem_a + sa.pair_base(layout, ty, kk, j))
                });
                let v = mach.ld_shared(&words, VecWidth::V2);
                if M::FUNCTIONAL {
                    for lane in 0..32 {
                        a_vals[lane][2 * j] = v[lane][0];
                        a_vals[lane][2 * j + 1] = v[lane][1];
                    }
                }
            }
            // B operand: microtileB_tx.
            let mut b_vals = [[0.0f32; MAX_MICRO]; 32];
            for j in 0..sb.pairs() {
                let words: [Option<u32>; 32] = std::array::from_fn(|lane| {
                    let tx = lane % txn;
                    Some(smem_b + sb.pair_base(layout, tx, kk, j))
                });
                let v = mach.ld_shared(&words, VecWidth::V2);
                if M::FUNCTIONAL {
                    for lane in 0..32 {
                        b_vals[lane][2 * j] = v[lane][0];
                        b_vals[lane][2 * j + 1] = v[lane][1];
                    }
                }
            }
            // micro_m × micro_n FFMAs per lane: the rank-1 update.
            mach.ffma((mm * mn) as u64);
            if M::FUNCTIONAL {
                for lane in 0..32 {
                    let tid = w * 32 + lane;
                    for r in 0..mm {
                        let ar = a_vals[lane][r];
                        for cc in 0..mn {
                            *acc.at_mut(tid, r, cc) += ar * b_vals[lane][cc];
                        }
                    }
                }
            }
        }
    }
}

/// Runs the full GEMM phase of one block: Algorithm 2 lines 5–13.
/// Leaves the microtile products in `acc` (functional mode).
///
/// With `audit` (ABFT), every tile pair's staged checksum (the XOR
/// [`load_tiles`] computes while the values pass through registers) is
/// compared against an [`audit_tile`] re-read issued right after the
/// `compute_ktile` that consumed it. Returns `true` iff any consumed
/// tile word differed from what was staged — i.e. a bit flip landed in
/// a live tile buffer between its store and its last read. Flips into
/// dead or about-to-be-overwritten buffers never reach `acc` and are
/// deliberately *not* flagged. Always `false` without `audit` or in
/// traffic mode (both digests are 0).
#[allow(clippy::too_many_arguments)] // mirrors the CUDA kernel's parameter list
pub fn gemm_block<M: WarpMachine>(
    mach: &mut M,
    geo: &TileGeometry,
    ops: &GemmOperands,
    shape: &GemmShape,
    layout: SmemLayout,
    bx: usize,
    by: usize,
    acc: &mut AccGrid,
    audit: bool,
) -> bool {
    let smem = SmemMap::for_geometry(geo);
    let tiles = geo.tiles(shape.k);
    let warps = geo.warps_per_block() as u64;
    let mut corrupt = false;

    if geo.double_buffer_depth == 2 {
        let mut j = 0usize;
        let mut staged = [0u32; 2];
        staged[j] = load_tiles(
            mach, geo, ops, shape, layout, bx, by, 0, smem.a[j], smem.b[j],
        );
        mach.syncthreads(warps);
        for i in 1..tiles {
            let prev = j;
            j ^= 1;
            staged[j] = load_tiles(
                mach, geo, ops, shape, layout, bx, by, i, smem.a[j], smem.b[j],
            );
            compute_ktile(mach, geo, layout, smem.a[prev], smem.b[prev], acc);
            corrupt |= audit && audit_pair(mach, geo, smem.a[prev], smem.b[prev]) != staged[prev];
            mach.syncthreads(warps);
        }
        compute_ktile(mach, geo, layout, smem.a[j], smem.b[j], acc);
        corrupt |= audit && audit_pair(mach, geo, smem.a[j], smem.b[j]) != staged[j];
    } else {
        for i in 0..tiles {
            let staged = load_tiles(
                mach, geo, ops, shape, layout, bx, by, i, smem.a[0], smem.b[0],
            );
            mach.syncthreads(warps);
            compute_ktile(mach, geo, layout, smem.a[0], smem.b[0], acc);
            corrupt |= audit && audit_pair(mach, geo, smem.a[0], smem.b[0]) != staged;
            mach.syncthreads(warps);
        }
    }
    corrupt
}

/// Number of `__syncthreads()` per block for a given configuration
/// (used by tests and the timing documentation).
#[must_use]
pub fn syncs_per_block(geo: &TileGeometry, k: usize) -> u64 {
    let tiles = geo.tiles(k) as u64;
    if geo.double_buffer_depth == 2 {
        tiles // one barrier per tile (the paper's pipelined loop)
    } else {
        2 * tiles // load barrier + compute barrier
    }
}

/// Appends the GEMM phase's declared access patterns to `spec`
/// (see `ks_gpu_sim::access`): the per-warp tile-track global loads,
/// the swizzled (or naive) shared stores and compute-phase loads, and
/// — when `verified` — the ABFT audit re-reads. Mirrors exactly what
/// [`gemm_block`] issues per block, audited or not, at any
/// feasible geometry.
///
/// Shared patterns use the parity-0 buffer bases: the double-buffer
/// toggle shifts every address by a multiple of the tile size, which
/// is bank-invariant on 32 banks, so one canonical pattern carries
/// the combined `tiles` issue count. Barrier counts are *not* set
/// here ([`syncs_per_block`] gives them); callers own `spec.barriers`.
pub fn gemm_access_spec(
    spec: &mut AccessSpec,
    geo: &TileGeometry,
    ops: &GemmOperands,
    shape: &GemmShape,
    layout: SmemLayout,
    verified: bool,
) {
    let k = shape.k;
    let tiles = geo.tiles(k) as u64;
    let smem = SmemMap::for_geometry(geo);
    let l = geo.loader_warps();
    let chunks = geo.tile_k / 4;
    // Tile loads + shared stores (load_tiles, once per k-tile).
    for w in 0..geo.warps_per_block() {
        let (buf, label, wl, side, dst, a_half) = if w < l {
            (ops.a, "a", w, geo.side_a(), smem.a[0], true)
        } else {
            (ops.b, "b", w - l, geo.side_b(), smem.b[0], false)
        };
        let passes = side.loader_slots() / l;
        for pass in 0..passes {
            let slot = pass * l + wl;
            let track = |u: usize| side.loader_track(slot, u);
            for chunk in 0..chunks {
                let mut p = GlobalPattern::new(
                    buf,
                    label,
                    AccessDir::Read,
                    VecWidth::V4,
                    affine_lanes(|u| {
                        let (m, c) = track(u);
                        ((m * side.micro + c) * k + chunk * 4) as i64
                    }),
                )
                .with_loop(tiles, geo.tile_k as i64);
                if a_half {
                    p = p.with_by((geo.block_m * k) as i64);
                } else {
                    p = p.with_bx((geo.block_n * k) as i64);
                }
                spec.global.push(p);
            }
            for kk in 0..geo.tile_k {
                let words: [Option<u32>; 32] = std::array::from_fn(|u| {
                    let (m, c) = track(u);
                    Some(dst + side.word(layout, m, c, kk))
                });
                spec.shared
                    .push(SharedPattern::new(words, VecWidth::V1, AccessDir::Write).times(tiles));
            }
        }
    }
    // Compute-phase operand loads (compute_ktile, once per k-tile).
    let (sa, sb) = (geo.side_a(), geo.side_b());
    let txn = geo.threads_x();
    let rpw = geo.rows_per_warp();
    for w in 0..geo.warps_per_block() {
        for kk in 0..geo.tile_k {
            for j in 0..sa.pairs().max(sb.pairs()) {
                if j < sa.pairs() {
                    let a_words: [Option<u32>; 32] = std::array::from_fn(|lane| {
                        let ty = rpw * w + lane / txn;
                        Some(smem.a[0] + sa.pair_base(layout, ty, kk, j))
                    });
                    spec.shared.push(
                        SharedPattern::new(a_words, VecWidth::V2, AccessDir::Read).times(tiles),
                    );
                }
                if j < sb.pairs() {
                    let b_words: [Option<u32>; 32] = std::array::from_fn(|lane| {
                        let tx = lane % txn;
                        Some(smem.b[0] + sb.pair_base(layout, tx, kk, j))
                    });
                    spec.shared.push(
                        SharedPattern::new(b_words, VecWidth::V2, AccessDir::Read).times(tiles),
                    );
                }
            }
        }
    }
    // ABFT audit re-reads (audit_pair, once per k-tile).
    if verified {
        for (words_n, base) in [
            (geo.a_tile_words(), smem.a[0]),
            (geo.b_tile_words(), smem.b[0]),
        ] {
            let phases = geo.audit_phases(words_n) as u32;
            for w in 0..geo.warps_per_block() as u32 {
                for phase in 0..phases {
                    let words: [Option<u32>; 32] = std::array::from_fn(|lane| {
                        Some(base + (w * phases + phase) * 32 + lane as u32)
                    });
                    spec.shared.push(
                        SharedPattern::new(words, VecWidth::V1, AccessDir::Read).times(tiles),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{FunctionalMachine, TrafficMachine};
    use ks_gpu_sim::buffer::GlobalMem;
    use ks_gpu_sim::cache::Cache;
    use ks_gpu_sim::config::DeviceConfig;
    use ks_gpu_sim::exec::BlockCtx;
    use ks_gpu_sim::traffic::TrafficSink;

    fn upload_ab(mem: &mut GlobalMem, shape: &GemmShape, seed: u64) -> GemmOperands {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let a: Vec<f32> = (0..shape.m * shape.k).map(|_| next()).collect();
        let b: Vec<f32> = (0..shape.k * shape.n).map(|_| next()).collect();
        GemmOperands {
            a: mem.upload(&a),
            b: mem.upload(&b),
        }
    }

    fn reference_c(mem: &GlobalMem, ops: &GemmOperands, shape: &GemmShape) -> Vec<f32> {
        let a = mem.download(ops.a);
        let b = mem.download(ops.b);
        let mut c = vec![0.0f32; shape.m * shape.n];
        for i in 0..shape.m {
            for j in 0..shape.n {
                let mut acc = 0.0f64;
                for p in 0..shape.k {
                    acc += a[i * shape.k + p] as f64 * b[j * shape.k + p] as f64;
                }
                c[i * shape.n + j] = acc as f32;
            }
        }
        c
    }

    fn run_block_functional(
        mem: &GlobalMem,
        geo: &TileGeometry,
        ops: &GemmOperands,
        shape: &GemmShape,
        layout: SmemLayout,
        bx: usize,
        by: usize,
    ) -> AccGrid {
        let smem = SmemMap::for_geometry(geo);
        let mut ctx = BlockCtx::new(mem, smem.words as usize, None);
        let mut acc = AccGrid::for_geometry(geo);
        let mut mach = FunctionalMachine::new(&mut ctx);
        gemm_block(&mut mach, geo, ops, shape, layout, bx, by, &mut acc, false);
        acc
    }

    fn check_block(
        geo: &TileGeometry,
        acc: &AccGrid,
        c_ref: &[f32],
        shape: &GemmShape,
        bx: usize,
        by: usize,
    ) {
        for ty in 0..geo.threads_y() {
            for tx in 0..geo.threads_x() {
                let tid = ty * geo.threads_x() + tx;
                for r in 0..geo.micro_m {
                    for cc in 0..geo.micro_n {
                        let row = by * geo.block_m + ty * geo.micro_m + r;
                        let col = bx * geo.block_n + tx * geo.micro_n + cc;
                        let want = c_ref[row * shape.n + col];
                        let got = acc.at(tid, r, cc);
                        assert!(
                            (want - got).abs() <= 1e-3 * want.abs().max(1.0),
                            "{geo} block ({bx},{by}) thread ({tx},{ty}) \
                             elem ({r},{cc}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    fn paper() -> TileGeometry {
        TileGeometry::paper_default()
    }

    #[test]
    fn single_block_gemm_matches_reference() {
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 32,
        };
        let mut mem = GlobalMem::new();
        let ops = upload_ab(&mut mem, &shape, 7);
        let c_ref = reference_c(&mem, &ops, &shape);
        let geo = paper();
        let acc = run_block_functional(&mem, &geo, &ops, &shape, SmemLayout::Swizzled, 0, 0);
        check_block(&geo, &acc, &c_ref, &shape, 0, 0);
    }

    #[test]
    fn multi_block_offsets_are_correct() {
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 16,
        };
        let mut mem = GlobalMem::new();
        let ops = upload_ab(&mut mem, &shape, 13);
        let c_ref = reference_c(&mem, &ops, &shape);
        let geo = paper();
        for (bx, by) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            let acc = run_block_functional(&mem, &geo, &ops, &shape, SmemLayout::Swizzled, bx, by);
            check_block(&geo, &acc, &c_ref, &shape, bx, by);
        }
    }

    #[test]
    fn every_lattice_geometry_computes_a_correct_block() {
        // The engine-level differential sweep: one block of every
        // feasible geometry against the f64 reference.
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 16,
        };
        let mut mem = GlobalMem::new();
        let ops = upload_ab(&mut mem, &shape, 29);
        let c_ref = reference_c(&mem, &ops, &shape);
        for geo in TileGeometry::lattice(&DeviceConfig::gtx970()) {
            if !geo.divides(shape.m, shape.n, shape.k) {
                continue;
            }
            // Pick the last block in each dimension so non-zero offsets
            // are exercised whenever the grid has more than one block.
            let bx = shape.n / geo.block_n - 1;
            let by = shape.m / geo.block_m - 1;
            let acc = run_block_functional(&mem, &geo, &ops, &shape, SmemLayout::Swizzled, bx, by);
            check_block(&geo, &acc, &c_ref, &shape, bx, by);
        }
    }

    #[test]
    fn naive_layout_computes_the_same_values() {
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 24,
        };
        let mut mem = GlobalMem::new();
        let ops = upload_ab(&mut mem, &shape, 21);
        let geo = paper();
        let a = run_block_functional(&mem, &geo, &ops, &shape, SmemLayout::Swizzled, 0, 0);
        let b = run_block_functional(&mem, &geo, &ops, &shape, SmemLayout::NaiveRowMajor, 0, 0);
        assert_eq!(a, b, "layout must not change numerics");
    }

    #[test]
    fn single_buffer_computes_the_same_values() {
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 24,
        };
        let mut mem = GlobalMem::new();
        let ops = upload_ab(&mut mem, &shape, 22);
        let geo = paper();
        let single = TileGeometry {
            double_buffer_depth: 1,
            ..geo
        };
        let a = run_block_functional(&mem, &geo, &ops, &shape, SmemLayout::Swizzled, 0, 0);
        let b = run_block_functional(&mem, &single, &ops, &shape, SmemLayout::Swizzled, 0, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn m_side_geometry_is_bit_neutral() {
        // The serve router's bit-compatibility contract at engine
        // level: same (block_n, micro_n) ⇒ identical result bits for
        // any row, whatever the M-side tiling, buffering or tile_k.
        let shape = GemmShape {
            m: 256,
            n: 128,
            k: 16,
        };
        let mut mem = GlobalMem::new();
        let ops = upload_ab(&mut mem, &shape, 33);
        let geo = paper();
        let alt = TileGeometry {
            block_m: 64,
            tile_k: 4,
            double_buffer_depth: 1,
            ..geo
        };
        assert!(geo.bit_compatible(&alt));
        // Row 100 lives in block by=0 (ty=12, r=4) under the default
        // and block by=1 (ty=4, r=4) under alt.
        let d = run_block_functional(&mem, &geo, &ops, &shape, SmemLayout::Swizzled, 0, 0);
        let a = run_block_functional(&mem, &alt, &ops, &shape, SmemLayout::Swizzled, 0, 1);
        for col in 0..shape.n {
            let tx = col / geo.micro_n;
            let cc = col % geo.micro_n;
            let want = d.at(12 * 16 + tx, 4, cc);
            let got = a.at(4 * alt.threads_x() + tx, 4, cc);
            assert_eq!(want.to_bits(), got.to_bits(), "col {col}");
        }
    }

    #[test]
    fn traffic_mode_counts_without_data() {
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 32,
        };
        let mut mem = GlobalMem::new();
        let ops = upload_ab(&mut mem, &shape, 5);
        let geo = paper();
        let mut l2 = Cache::new(256 * 1024, 16, 32);
        let mut sink = TrafficSink::new(&mem, &mut l2, 32, 32);
        {
            let mut mach = TrafficMachine::new(&mut sink);
            let mut acc = AccGrid::empty(&geo);
            gemm_block(
                &mut mach,
                &geo,
                &ops,
                &shape,
                SmemLayout::Swizzled,
                0,
                0,
                &mut acc,
                false,
            );
        }
        let c = &sink.counters;
        let tiles = geo.tiles(shape.k) as u64;
        // FFMA: 8 warps × 8 k-steps × 64 per tile.
        assert_eq!(c.ffma_insts, tiles * 8 * 8 * 64);
        // Global loads: 8 warps × 2 LDG.128 per tile.
        assert_eq!(c.global_load_insts, tiles * 8 * 2);
        // Sector traffic: each tile pair is 2×128×8 floats = 8KB = 256
        // unique sectors per tile, but each 32-byte sector is touched
        // by both LDG.128s of its track (two instructions), so the L2
        // sees 512 sector requests per tile (half of them hits).
        assert_eq!(c.l2_read_sectors, tiles * 512);
        assert_eq!(c.sync_insts, syncs_per_block(&geo, shape.k) * 8);
        // Swizzled layout: zero conflicts ⇒ transactions = 2 per LDS.64
        // phase... loads: 8 warps × 8 k × 8 LDS.64, each 2 phases ⇒
        // transactions = insts × 2 / ... every phase is one transaction.
        assert_eq!(c.smem.load_instructions, tiles * 8 * 8 * 8);
        assert_eq!(c.smem.load_transactions, c.smem.load_instructions * 2);
        // Stores: 8 warps × 8 phases per tile, conflict-free.
        assert_eq!(c.smem.store_instructions, tiles * 8 * 8);
        assert_eq!(c.smem.store_transactions, c.smem.store_instructions);
    }

    #[test]
    fn lattice_traffic_is_conflict_free_and_counted() {
        // Generalized counter formulas, checked for a few non-default
        // geometries: instruction counts scale with the geometry and
        // the swizzled stores/loads stay conflict-free.
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 32,
        };
        let mut mem = GlobalMem::new();
        let ops = upload_ab(&mut mem, &shape, 11);
        for geo in [
            TileGeometry {
                block_m: 64,
                block_n: 64,
                ..paper()
            },
            TileGeometry {
                block_m: 256,
                micro_m: 16,
                ..paper()
            },
            TileGeometry {
                tile_k: 16,
                ..paper()
            },
        ] {
            geo.feasibility(&DeviceConfig::gtx970()).unwrap();
            let mut l2 = Cache::new(256 * 1024, 16, 32);
            let mut sink = TrafficSink::new(&mem, &mut l2, 32, 32);
            {
                let mut mach = TrafficMachine::new(&mut sink);
                let mut acc = AccGrid::empty(&geo);
                gemm_block(
                    &mut mach,
                    &geo,
                    &ops,
                    &shape,
                    SmemLayout::Swizzled,
                    0,
                    0,
                    &mut acc,
                    false,
                );
            }
            let c = &sink.counters;
            let tiles = geo.tiles(shape.k) as u64;
            let warps = geo.warps_per_block() as u64;
            let k_steps = geo.tile_k as u64;
            assert_eq!(
                c.ffma_insts,
                tiles * warps * k_steps * (geo.micro_m * geo.micro_n) as u64,
                "{geo}: ffma"
            );
            let slots = (geo.side_a().loader_slots() + geo.side_b().loader_slots()) as u64;
            assert_eq!(
                c.global_load_insts,
                tiles * slots * (geo.tile_k as u64 / 4),
                "{geo}: ldg"
            );
            assert_eq!(
                c.smem.store_instructions,
                tiles * slots * k_steps,
                "{geo}: smem stores"
            );
            assert_eq!(
                c.smem.store_transactions, c.smem.store_instructions,
                "{geo}: store conflicts"
            );
            let pair_loads = (geo.side_a().pairs() + geo.side_b().pairs()) as u64;
            assert_eq!(
                c.smem.load_instructions,
                tiles * warps * k_steps * pair_loads,
                "{geo}: smem loads"
            );
            assert_eq!(
                c.smem.load_transactions,
                c.smem.load_instructions * 2,
                "{geo}: load conflicts"
            );
        }
    }

    #[test]
    fn naive_layout_has_conflicted_loads() {
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 32,
        };
        let mut mem = GlobalMem::new();
        let ops = upload_ab(&mut mem, &shape, 5);
        let geo = paper();
        let count = |layout: SmemLayout| {
            let mut l2 = Cache::new(256 * 1024, 16, 32);
            let mut sink = TrafficSink::new(&mem, &mut l2, 32, 32);
            let mut mach = TrafficMachine::new(&mut sink);
            let mut acc = AccGrid::empty(&geo);
            gemm_block(&mut mach, &geo, &ops, &shape, layout, 0, 0, &mut acc, false);
            sink.counters.smem
        };
        let sw = count(SmemLayout::Swizzled);
        let nv = count(SmemLayout::NaiveRowMajor);
        assert!(
            nv.load_transactions > 2 * sw.load_transactions,
            "naive {} vs swizzled {}",
            nv.load_transactions,
            sw.load_transactions
        );
    }

    #[test]
    fn sync_counts_match_buffering_mode() {
        let geo = paper();
        assert_eq!(syncs_per_block(&geo, 64), 8);
        let single = TileGeometry {
            double_buffer_depth: 1,
            ..geo
        };
        assert_eq!(syncs_per_block(&single, 64), 16);
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn shape_validation_rejects_bad_m() {
        GemmShape {
            m: 100,
            n: 128,
            k: 8,
        }
        .validate();
    }

    #[test]
    fn smem_map_sizes() {
        assert_eq!(SmemMap::new(true).bytes(), 16 * 1024);
        assert_eq!(SmemMap::new(false).bytes(), 8 * 1024);
        let geo = TileGeometry {
            block_m: 64,
            block_n: 128,
            tile_k: 4,
            double_buffer_depth: 2,
            ..paper()
        };
        let m = SmemMap::for_geometry(&geo);
        assert_eq!(m.a, [0, 256]);
        assert_eq!(m.b, [512, 1024]);
        assert_eq!(m.bytes(), 2 * (256 + 512) * 4);
    }
}
