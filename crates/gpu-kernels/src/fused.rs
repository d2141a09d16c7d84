//! Algorithm 2: fused kernel summation — the crate's one fused kernel.
//!
//! One thread block runs the whole chain for its `block_m × block_n`
//! interaction tile: GEMM (rank-`tile_k` updates from shared memory)
//! → Gaussian evaluation on the register-resident `microtileC` →
//! three-level reduction:
//!
//! 1. **intra-thread** (line 16): each thread folds its
//!    `micro_m × micro_n` microtile against its `micro_n` weights,
//!    leaving `micro_m` row partials per weight column in registers;
//! 2. **intra-block** (line 20): the `threads_x` lanes of each row
//!    group combine via warp shuffles, and the per-`ty` results land
//!    in the shared scratch `T` (which reuses an idle GEMM tile
//!    buffer, as the paper notes, to keep occupancy up);
//! 3. **inter-block** (line 21): the block drains the `block_m` row
//!    partials and `atomicAdd`s them into `V` — blocks never wait for
//!    each other ("a thread block immediately retires after it
//!    updates the final result").
//!
//! The only global stores of the entire kernel are those atomics: the
//! `M×N` intermediate never exists in memory. That is the paper's
//! whole point.
//!
//! ## One kernel, three names
//! [`Fused`] evaluates `V = K·W` for `R` weight columns: each Gaussian
//! value is computed once and folded into `R` per-column accumulators
//! (`W` is `N×R` and `V` is `M×R`, both column-major). A kernel holds a
//! list of segments — each one query's operands, norms, `W`, `V`,
//! shape, bandwidth, `R` and optional ABFT buffers — launched at one
//! geometry, layout, reduction and exec model. A [`Naming`] marker
//! decides only the kernel name and the grid:
//!
//! * [`FusedKernelSummation`] (`fused_ks…`) is the paper's
//!   single-weight kernel, `R = 1`, one segment on its own 2-D grid.
//!   It alone takes the ablation parameters: shared-memory layout
//!   ([`with_layout`](FusedKernelSummation::with_layout)), double
//!   buffering, the two-pass reduction
//!   ([`with_reduction`](FusedKernelSummation::with_reduction)) and
//!   the vendor execution model.
//! * [`FusedMultiWeight`] (`fused_multiw{R}…`) is the serving kernel,
//!   `R ∈ 1..=MAX_WEIGHT_COLUMNS`, one segment on its own 2-D grid
//!   (see [`crate::fused_multi`]).
//! * [`FusedMultiPacked`] (`fused_multi_packed{S}w{R}…_{B}b`) is
//!   horizontal fusion: the segments of `S` serving kernels on one 1-D
//!   grid of `B` blocks, each block routed to its segment by the
//!   [`RoutingTable`] (see [`crate::fused_multi_packed`]). It declares
//!   no access spec.
//!
//! Every name runs the same block body, block class, analysis budget,
//! resources and timing hints over its segment list, so one segment
//! agrees in every result bit and counter under all three names; only
//! `name()` and the grid's shape differ.
//!
//! The kernel is parameterized over [`TileGeometry`]
//! ([`Fused::with_geometry`]); the paper's hand-tuned configuration is
//! [`TileGeometry::paper_default`] and every formula below reduces to
//! the seed implementation at that point.

use std::marker::PhantomData;

use ks_gpu_sim::access::{
    affine_lanes, masked_lanes, AccessSpec, BarrierSpec, GlobalPattern, SharedPattern,
};
use ks_gpu_sim::buffer::{BufId, GlobalMem};
use ks_gpu_sim::config::DeviceConfig;
use ks_gpu_sim::dim::{Dim3, LaunchConfig};
use ks_gpu_sim::exec::{BlockCtx, NamedBlocks};
use ks_gpu_sim::kernel::VecWidth;
use ks_gpu_sim::kernel::{
    AnalysisBudget, BlockClass, BufferUse, ExecModel, Kernel, KernelResources, TimingHints,
};
use ks_gpu_sim::memo::key_of;
use ks_gpu_sim::trace::AccessDir;
use ks_gpu_sim::traffic::{TrafficSink, WarpIdx};

use ks_gpu_sim::smem::flip_bit;
use rayon::prelude::*;

use crate::aux_kernels::{gaussian, Bandwidth};
use crate::fused_multi::MAX_WEIGHT_COLUMNS;
use crate::fused_multi_packed::RoutingTable;
use crate::gemm_engine::{
    gemm_access_spec, gemm_block, syncs_per_block, AccGrid, GemmOperands, GemmShape, SmemMap,
    MAX_MICRO,
};
use crate::geometry::TileGeometry;
use crate::layout::SmemLayout;
use crate::machine::{FunctionalMachine, TrafficMachine, WarpMachine};
use crate::oracle::FusedHost;

/// Words per checksum slot: one full 32-byte DRAM sector per
/// `(column, row group)` so block-class replay deltas stay
/// sector-aligned and concurrent atomics never share a sector.
pub const CHECKSUM_SLOT_WORDS: usize = 8;

/// Device buffers of the ABFT verification scheme (DESIGN.md §11).
#[derive(Debug, Clone, Copy)]
pub struct VerifyBufs {
    /// Checksum column: slot `(c·(M/block_m) + by)·CHECKSUM_SLOT_WORDS`
    /// accumulates `σ = Σ_i T_i` of every block in row group `by` of
    /// weight column `c` — the same partials the block drains into
    /// `V`, folded in a second association order.
    pub checksum: BufId,
    /// Corruption flag (`CHECKSUM_SLOT_WORDS` words): every block that
    /// detects an internal mismatch atomically adds 1.0 to word 0.
    /// Clean blocks add 0.0 so traffic stays homogeneous.
    pub flag: BufId,
}

/// Host-side outcome of one verified execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Blocks that flagged an internal mismatch (shared-memory audit,
    /// γ re-fold, or `T` drain digest).
    pub blocks_flagged: u64,
    /// Row-group checksums compared on the host.
    pub checksum_groups: usize,
    /// Row groups whose `Σ V` disagreed with the checksum column
    /// beyond the analytic float tolerance.
    pub checksum_mismatches: usize,
}

impl VerifyReport {
    /// Builds the report from downloaded `V` (`M×R` column-major),
    /// checksum and flag buffers. `group` is the kernel's row-group
    /// size (its geometry's `block_m`).
    ///
    /// # Panics
    /// Panics unless `group` divides `m`.
    #[must_use]
    pub fn from_outputs(
        v: &[f32],
        checksum: &[f32],
        flag: &[f32],
        m: usize,
        r: usize,
        group: usize,
    ) -> Self {
        assert!(
            group > 0 && m.is_multiple_of(group),
            "row group {group} must divide M {m}"
        );
        let gy = m / group;
        let mut mismatches = 0;
        for c in 0..r {
            for g in 0..gy {
                let got = f64::from(checksum[(c * gy + g) * CHECKSUM_SLOT_WORDS]);
                let seg = &v[c * m + g * group..c * m + (g + 1) * group];
                let sum: f64 = seg.iter().map(|&x| f64::from(x)).sum();
                // Tolerance: the two sides sum the same f32 partials in
                // different association orders, so they agree to a few
                // ULPs scaled by the absolute mass; injected DRAM
                // flips target exponent/sign bits and move a value by
                // at least half its own magnitude — far above this. A
                // flip that makes an Inf or a NaN (exponent 255) never
                // agrees: the comparison is false for a NaN, and an
                // infinite sum would make the tolerance infinite.
                let abs: f64 = seg.iter().map(|&x| f64::from(x.abs())).sum::<f64>() + got.abs();
                let agrees =
                    (sum - got).abs() <= 1e-3 * abs + 1e-4 && sum.is_finite() && got.is_finite();
                if !agrees {
                    mismatches += 1;
                }
            }
        }
        let flagged = if flag[0] == 0.0 {
            0
        } else {
            (flag[0].round() as u64).max(1)
        };
        Self {
            blocks_flagged: flagged,
            checksum_groups: r * gy,
            checksum_mismatches: mismatches,
        }
    }

    /// True iff any check tripped — the result must not be trusted.
    #[must_use]
    pub fn corruption_detected(&self) -> bool {
        self.blocks_flagged > 0 || self.checksum_mismatches > 0
    }

    /// Accumulates another report (per-batch aggregation).
    pub fn merge(&mut self, o: &VerifyReport) {
        self.blocks_flagged += o.blocks_flagged;
        self.checksum_groups += o.checksum_groups;
        self.checksum_mismatches += o.checksum_mismatches;
    }
}

/// How partial block results reach the final `V`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    /// The paper's scheme: `atomicAdd` straight into `V` (§III-C).
    Atomic,
    /// Ablation: store per-block partials to a `(N/block_n)×M` buffer
    /// and reduce with a second kernel ([`ReducePartialsKernel`]) —
    /// the "store and reload partialV" alternative the paper rejects.
    TwoPass {
        /// Partial buffer, `(n/block_n) · m` elements, column-major by
        /// block (`partial[bx·m + i]`).
        partials: BufId,
    },
}

/// Picks the name and the grid of one of the fused kernel's three
/// public names (see the module docs).
pub trait Naming {
    /// True for the packed name: one 1-D grid over every segment's
    /// blocks behind the [`RoutingTable`], with no declared access
    /// spec. The other names launch their one segment on its own 2-D
    /// grid.
    const PACKED: bool;

    /// Name prefix for `segments` segments of at most `r` weight
    /// columns.
    fn prefix(segments: usize, r: usize) -> String;
}

/// Marker of the paper pipeline's name, `fused_ks…`.
pub struct Paper;

/// Marker of the serving name, `fused_multiw{R}…`.
pub struct Serving;

/// Marker of the packed name, `fused_multi_packed{S}w{R}…`.
pub struct Packed;

impl Naming for Paper {
    const PACKED: bool = false;

    fn prefix(_segments: usize, _r: usize) -> String {
        "fused_ks".into()
    }
}

impl Naming for Serving {
    const PACKED: bool = false;

    fn prefix(_segments: usize, r: usize) -> String {
        format!("fused_multiw{r}")
    }
}

impl Naming for Packed {
    const PACKED: bool = true;

    fn prefix(segments: usize, r: usize) -> String {
        format!("fused_multi_packed{segments}w{r}")
    }
}

/// The paper's single-weight kernel (Algorithm 2): the fused kernel at
/// `R = 1`, with the ablation parameters.
pub type FusedKernelSummation = Fused<Paper>;

/// The multi-weight serving kernel: the fused kernel at `R` weight
/// columns.
pub type FusedMultiWeight = Fused<Serving>;

/// Horizontal fusion: the fused kernel over many serving segments in
/// one launch (see [`crate::fused_multi_packed`]).
pub type FusedMultiPacked = Fused<Packed>;

/// One query's slice of a fused launch: its buffers, shape, bandwidth
/// and weight columns.
struct Segment {
    ops: GemmOperands,
    a2: BufId,
    b2: BufId,
    /// `N×R` column-major weights.
    w: BufId,
    /// `M×R` column-major output (must be zeroed before launch).
    v: BufId,
    shape: GemmShape,
    bw: Bandwidth,
    r: usize,
    verify: Option<VerifyBufs>,
}

impl Segment {
    /// Whether `other`'s blocks issue this segment's warp streams on
    /// their own buffers. Geometry, layout, reduction and exec model
    /// are launch-wide; the bandwidth enters the numerics only, never
    /// an address or an instruction count.
    fn same_stream(&self, other: &Self) -> bool {
        self.shape == other.shape
            && self.r == other.r
            && self.verify.is_some() == other.verify.is_some()
    }
}

/// The fused kernel-summation kernel (see the module docs): a list of
/// segments launched at one geometry, layout, reduction and exec model.
pub struct Fused<N> {
    segments: Vec<Segment>,
    geometry: TileGeometry,
    layout: SmemLayout,
    reduction: Reduction,
    exec_model: ExecModel,
    /// Each segment's block range in launch order.
    table: RoutingTable,
    /// Per segment, the first segment issuing the same warp streams:
    /// the block class its blocks replay in.
    stream_of: Vec<usize>,
    /// `fn() -> N` keeps the kernel `Send + Sync` whatever the marker.
    naming: PhantomData<fn() -> N>,
}

impl Fused<Paper> {
    /// Creates the single-weight kernel at the paper-default geometry.
    /// `v` must be zeroed before launch (atomic reduction accumulates
    /// into it).
    ///
    /// # Panics
    /// Panics if the shape violates the tiling constraints.
    #[must_use]
    pub fn new(
        ops: GemmOperands,
        a2: BufId,
        b2: BufId,
        w: BufId,
        v: BufId,
        shape: GemmShape,
        bw: Bandwidth,
    ) -> Self {
        Self::one(ops, a2, b2, w, v, shape, bw, 1)
    }

    /// Switches the timing-model execution class. `Vendor` models the
    /// paper's §V projection: "if an SGEMM as good as cuBLAS is
    /// applied, fused implementation is able to achieve up to 3.7X" —
    /// i.e. the same fused kernel hand-scheduled to cuBLAS quality.
    #[must_use]
    pub fn with_exec_model(mut self, exec_model: ExecModel) -> Self {
        self.exec_model = exec_model;
        self
    }

    /// Selects the shared-memory placement (ablation).
    #[must_use]
    pub fn with_layout(mut self, layout: SmemLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Enables/disables double buffering (ablation; shorthand for the
    /// geometry's `double_buffer_depth`).
    #[must_use]
    pub fn with_double_buffer(mut self, on: bool) -> Self {
        self.geometry.double_buffer_depth = if on { 2 } else { 1 };
        self
    }

    /// Selects the inter-block reduction scheme (ablation).
    #[must_use]
    pub fn with_reduction(mut self, reduction: Reduction) -> Self {
        self.reduction = reduction;
        self
    }
}

impl Fused<Serving> {
    /// Creates the kernel with `r` weight columns at the paper-default
    /// geometry.
    ///
    /// # Panics
    /// Panics if the shape violates the tiling constraints or
    /// `r ∉ 1..=MAX_WEIGHT_COLUMNS`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ops: GemmOperands,
        a2: BufId,
        b2: BufId,
        w: BufId,
        v: BufId,
        shape: GemmShape,
        bw: Bandwidth,
        r: usize,
    ) -> Self {
        assert!(
            (1..=MAX_WEIGHT_COLUMNS).contains(&r),
            "weight columns {r} out of range 1..={MAX_WEIGHT_COLUMNS}"
        );
        Self::one(ops, a2, b2, w, v, shape, bw, r)
    }
}

impl Fused<Packed> {
    /// Packs the segments of `kernels` into one launch over their
    /// concatenated grids, in order.
    ///
    /// # Panics
    /// Panics when `kernels` is empty, the kernels do not share one
    /// tile geometry (one launch has one block shape / smem footprint),
    /// or ABFT verification is not uniform across them.
    #[must_use]
    pub fn new(kernels: Vec<FusedMultiWeight>) -> Self {
        assert!(!kernels.is_empty(), "packed launch needs segments");
        let geometry = kernels[0].geometry;
        assert!(
            kernels.iter().all(|k| k.geometry == geometry),
            "packed segments must share one tile geometry"
        );
        let segments: Vec<Segment> = kernels.into_iter().flat_map(|k| k.segments).collect();
        assert!(
            segments
                .iter()
                .all(|s| s.verify.is_some() == segments[0].verify.is_some()),
            "packed segments must uniformly enable or disable ABFT"
        );
        Self::from_segments(segments, geometry)
    }
}

/// The routing table of `segments`' grids at `geometry`.
fn routing(segments: &[Segment], geometry: &TileGeometry) -> RoutingTable {
    let grids: Vec<(u32, u32)> = segments
        .iter()
        .map(|s| s.shape.grid_for(geometry))
        .collect();
    RoutingTable::new(&grids)
}

impl<N: Naming> Fused<N> {
    #[allow(clippy::too_many_arguments)]
    fn one(
        ops: GemmOperands,
        a2: BufId,
        b2: BufId,
        w: BufId,
        v: BufId,
        shape: GemmShape,
        bw: Bandwidth,
        r: usize,
    ) -> Self {
        shape.validate();
        let segment = Segment {
            ops,
            a2,
            b2,
            w,
            v,
            shape,
            bw,
            r,
            verify: None,
        };
        Self::from_segments(vec![segment], TileGeometry::paper_default())
    }

    fn from_segments(segments: Vec<Segment>, geometry: TileGeometry) -> Self {
        let stream_of = (0..segments.len())
            .map(|s| {
                (0..=s)
                    .find(|&o| segments[o].same_stream(&segments[s]))
                    .expect("a segment streams like itself")
            })
            .collect();
        Self {
            table: routing(&segments, &geometry),
            stream_of,
            segments,
            geometry,
            layout: SmemLayout::default(),
            reduction: Reduction::Atomic,
            exec_model: ExecModel::CudaC,
            naming: PhantomData,
        }
    }

    /// Selects the tile geometry (the autotuner's knob). Every
    /// segment's shape must divide it, and its column count must fit
    /// the `T` scratch (`r ≤ tile_k`).
    ///
    /// # Panics
    /// Panics if a shape violates the geometry's tiling constraints or
    /// `r > geometry.tile_k`.
    #[must_use]
    pub fn with_geometry(mut self, geometry: TileGeometry) -> Self {
        for s in &self.segments {
            s.shape.validate_for(&geometry);
            assert!(
                s.r <= geometry.tile_k,
                "{} weight columns exceed the T scratch of {geometry} (tile_k {})",
                s.r,
                geometry.tile_k
            );
        }
        self.table = routing(&self.segments, &geometry);
        self.geometry = geometry;
        self
    }

    /// The kernel's tile geometry.
    #[must_use]
    pub fn geometry(&self) -> &TileGeometry {
        &self.geometry
    }

    /// Enables ABFT verification of the kernel's one segment: the
    /// shared-memory audit, the γ re-fold, the `T` drain digest, and
    /// the checksum column / corruption flag in `bufs`. The checksum
    /// buffer must hold `R·(M/block_m)·CHECKSUM_SLOT_WORDS` zeroed
    /// words (slot `(c·(M/block_m) + by)·CHECKSUM_SLOT_WORDS` for
    /// column `c`, row group `by`) and the flag buffer
    /// `CHECKSUM_SLOT_WORDS` zeroed words.
    ///
    /// # Panics
    /// Panics on a kernel of several segments: packed segments bring
    /// their own buffers.
    #[must_use]
    pub fn with_verify(mut self, bufs: VerifyBufs) -> Self {
        let [segment] = &mut self.segments[..] else {
            panic!("packed segments bring their own verification buffers");
        };
        segment.verify = Some(bufs);
        self
    }

    /// The widest segment's weight columns.
    fn max_r(&self) -> usize {
        self.segments.iter().map(|s| s.r).max().expect("segments")
    }

    /// The segment block `block` belongs to, and the block's
    /// coordinates in that segment's 2-D grid.
    fn route(&self, block: Dim3) -> (usize, Dim3) {
        if N::PACKED {
            self.table.route(block.x)
        } else {
            (0, block)
        }
    }

    /// Block `(bx, by)` of segment `seg` as the launch sees it: its
    /// coordinates in the launch's grid and its launch-order index
    /// (the inverse of [`Fused::route`]).
    fn launch_block(&self, seg: usize, bx: usize, by: usize) -> (Dim3, u64) {
        let (gx, _) = self.table.grid(seg);
        let local = by as u32 * gx + bx as u32;
        if N::PACKED {
            let linear = self.table.segment_start(seg) + local;
            (Dim3::new_1d(linear), linear.into())
        } else {
            (Dim3::new_2d(bx as u32, by as u32), local.into())
        }
    }

    fn body<M: WarpMachine>(&self, seg: &Segment, block: Dim3, mach: &mut M) {
        let (bx, by) = (block.x as usize, block.y as usize);
        let s = seg.bw.inv_2h2();
        let geo = &self.geometry;
        let warps = geo.warps_per_block();
        let (mm, mn) = (geo.micro_m, geo.micro_n);
        let txn = geo.threads_x();
        let rpw = geo.rows_per_warp();
        let threads = geo.threads_per_block();
        let r = seg.r;
        let (n, m) = (seg.shape.n, seg.shape.m);

        // --- GEMM phase (Algorithm 2 lines 5–13) -----------------------
        let mut acc = if M::FUNCTIONAL {
            AccGrid::for_geometry(geo)
        } else {
            AccGrid::empty(geo)
        };
        let mut corrupt = gemm_block(
            mach,
            geo,
            &seg.ops,
            &seg.shape,
            self.layout,
            bx,
            by,
            &mut acc,
            seg.verify.is_some(),
        );

        // Accumulator-register upsets scheduled against this block land
        // on the γ partials (data only — no instructions, so the
        // unverified kernel's counters are untouched and the fault
        // surfaces as a silently wrong result).
        let mut reg_flips: Vec<(usize, usize, usize, u8)> = Vec::new();
        if M::FUNCTIONAL {
            let span = (threads * mm * r) as u64;
            for (pick, bit) in mach.accumulator_faults() {
                let elem = (pick % span) as usize;
                let tid = elem / (mm * r);
                let rest = elem % (mm * r);
                reg_flips.push((tid, rest / mm, rest % mm, bit));
            }
        }

        // --- Gaussian evaluation + intra-thread reduction (lines 14–16)
        // Row partials per (thread, column): γ[c][row] = Σ_j K[row][j]·W[j][c].
        //
        // T reuses a GEMM tile buffer (the paper reuses sharedA0 to keep
        // occupancy at 2 blocks/SM). It must be the A buffer the final
        // `compute_ktile` is NOT still reading in this epoch — with
        // double buffering that compute reads `a[(tiles−1) % 2]`, so T
        // parks in `a[tiles % 2]`; single-buffered, both map to word 0
        // and the extra barrier before the eval loop orders them.
        let tiles = geo.tiles(seg.shape.k);
        let t_off = SmemMap::for_geometry(geo).a[tiles % 2];
        // gamma[(tid·r + col)·micro_m + row]
        let mut gamma = vec![0.0f32; if M::FUNCTIONAL { threads * mm * r } else { 0 }];
        // ABFT digests: γ before/after the register-fault window (the
        // re-fold comparison), and T at store vs drain time.
        let mut gamma_clean_xor = 0u32;
        let mut gamma_parked_xor = 0u32;
        let mut t_store_xor = 0u32;
        let (cm, cn) = (mm / 4, mn / 4);
        for wp in 0..warps {
            mach.begin_warp(wp as u32);
            mach.alu(2);
            // Row norms for the warp's ty groups: micro_m/4 LDG.128.
            let row0 = |lane: usize| (rpw * wp + lane / txn) * mm;
            let col0 = |lane: usize| (lane % txn) * mn;
            let mut a2_chunks = vec![[[0.0f32; 4]; 32]; cm];
            for (chunk, dst) in a2_chunks.iter_mut().enumerate() {
                let idx: WarpIdx =
                    std::array::from_fn(|lane| Some(by * geo.block_m + row0(lane) + 4 * chunk));
                let v = mach.ld_global(seg.a2, &idx, VecWidth::V4);
                if M::FUNCTIONAL {
                    *dst = v;
                }
            }
            // Column norms, then all R weight slices: micro_n/4 LDG.128
            // each (column-major weights: column c at offset c·N).
            let mut b2_chunks = vec![[[0.0f32; 4]; 32]; cn];
            for (chunk, dst) in b2_chunks.iter_mut().enumerate() {
                let idx: WarpIdx =
                    std::array::from_fn(|lane| Some(bx * geo.block_n + col0(lane) + 4 * chunk));
                let v = mach.ld_global(seg.b2, &idx, VecWidth::V4);
                if M::FUNCTIONAL {
                    *dst = v;
                }
            }
            let mut w_chunks = vec![vec![[[0.0f32; 4]; 32]; cn]; r];
            for (c, col_chunks) in w_chunks.iter_mut().enumerate() {
                for (chunk, dst) in col_chunks.iter_mut().enumerate() {
                    let idx: WarpIdx = std::array::from_fn(|lane| {
                        Some(c * n + bx * geo.block_n + col0(lane) + 4 * chunk)
                    });
                    let v = mach.ld_global(seg.w, &idx, VecWidth::V4);
                    if M::FUNCTIONAL {
                        *dst = v;
                    }
                }
            }

            // Per element: FADD (‖α‖²+‖β‖²), 2 FFMA (argument fold),
            // MUFU.EX2 (exp) — once; then R FFMAs against W, one per
            // weight column.
            let elems = (mm * mn) as u64;
            mach.falu(elems);
            mach.ffma(2 * elems);
            mach.sfu(elems);
            mach.ffma(elems * r as u64);
            if M::FUNCTIONAL {
                for lane in 0..32 {
                    let tid = wp * 32 + lane;
                    let a2row: [f32; MAX_MICRO] = std::array::from_fn(|i| {
                        if i < mm {
                            a2_chunks[i / 4][lane][i % 4]
                        } else {
                            0.0
                        }
                    });
                    let b2col: [f32; MAX_MICRO] = std::array::from_fn(|c| {
                        if c < mn {
                            b2_chunks[c / 4][lane][c % 4]
                        } else {
                            0.0
                        }
                    });
                    for row in 0..mm {
                        for cc in 0..mn {
                            let d = a2row[row] + b2col[cc] - 2.0 * acc.at(tid, row, cc);
                            let kv = gaussian(d, s);
                            for c in 0..r {
                                let wv = w_chunks[c][cc / 4][lane][cc % 4];
                                gamma[(tid * r + c) * mm + row] += kv * wv;
                            }
                        }
                    }
                }
            }

            if seg.verify.is_some() {
                // DMR on the R folds: re-evaluate γ from the (ECC-clean)
                // Gaussian values and compare. The simulator's
                // recompute is bit-identical, so the comparison is
                // modelled as an exact digest of the clean γ.
                mach.ffma(elems * r as u64);
                mach.falu(mm as u64);
                if M::FUNCTIONAL {
                    for lane in 0..32 {
                        let tid = wp * 32 + lane;
                        for g in &gamma[tid * r * mm..(tid + 1) * r * mm] {
                            gamma_clean_xor ^= g.to_bits();
                        }
                    }
                }
            }
            if M::FUNCTIONAL {
                for &(tid, col, row, bit) in reg_flips.iter().filter(|f| f.0 / 32 == wp) {
                    let idx = (tid * r + col) * mm + row;
                    gamma[idx] = flip_bit(gamma[idx], bit);
                }
                if seg.verify.is_some() {
                    for lane in 0..32 {
                        let tid = wp * 32 + lane;
                        for g in &gamma[tid * r * mm..(tid + 1) * r * mm] {
                            gamma_parked_xor ^= g.to_bits();
                        }
                    }
                }
            }

            // --- Intra-block reduction: log2(threads_x) shuffle
            //     rounds per column over the tx lanes of each ty group.
            let shuffle_ops = (txn.trailing_zeros() as u64) * (mm * r) as u64;
            mach.alu(shuffle_ops);
            mach.falu(shuffle_ops);
            // Lanes with tx == 0 (rows_per_warp per warp) park the
            // per-ty row sums in T (the idle A tile buffer above);
            // column c parks at word offset t_off + c·block_m, one
            // store phase per microtile row.
            for c in 0..r {
                let t_base: [Option<u32>; 32] = std::array::from_fn(|lane| {
                    (lane % txn == 0).then_some(t_off + (c * geo.block_m + row0(lane)) as u32)
                });
                for row in 0..mm {
                    let words: [Option<u32>; 32] =
                        std::array::from_fn(|lane| t_base[lane].map(|b| b + row as u32));
                    let mut vals = [[0.0f32; 4]; 32];
                    if M::FUNCTIONAL {
                        for h in 0..rpw {
                            let mut sum = 0.0f32;
                            for tx in 0..txn {
                                let tid = wp * 32 + h * txn + tx;
                                // After the shuffle rounds lane tx==0
                                // holds the tx-sum; we model its value
                                // directly.
                                sum += gamma[(tid * r + c) * mm + row];
                            }
                            vals[h * txn][0] = sum;
                            if seg.verify.is_some() {
                                t_store_xor ^= sum.to_bits();
                            }
                        }
                    }
                    mach.st_shared(&words, VecWidth::V1, &vals);
                }
            }
        }
        mach.syncthreads(warps as u64);

        // --- Inter-block reduction (lines 18–22): the leading warps
        //     drain T (32 words per phase, one pass per column) and
        //     atomically update V. --------------------------------------
        let mut t_drain_xor = 0u32;
        let mut sigma = [0.0f32; MAX_WEIGHT_COLUMNS];
        for p in 0..geo.drain_phases() {
            mach.begin_warp((p % warps) as u32);
            for c in 0..r {
                let words: [Option<u32>; 32] = std::array::from_fn(|lane| {
                    Some(t_off + (c * geo.block_m + p * 32 + lane) as u32)
                });
                let t_vals = mach.ld_shared(&words, VecWidth::V1);
                let lane_vals: [f32; 32] = std::array::from_fn(|lane| t_vals[lane][0]);
                if M::FUNCTIONAL && seg.verify.is_some() {
                    for v in &lane_vals {
                        t_drain_xor ^= v.to_bits();
                        sigma[c] += v;
                    }
                }
                match self.reduction {
                    Reduction::Atomic => {
                        let vidx: WarpIdx = std::array::from_fn(|lane| {
                            Some(c * m + by * geo.block_m + p * 32 + lane)
                        });
                        mach.atomic_add(seg.v, &vidx, &lane_vals);
                    }
                    // Only the single-weight name selects it: r == 1.
                    Reduction::TwoPass { partials } => {
                        let pidx: WarpIdx = std::array::from_fn(|lane| {
                            Some(bx * m + by * geo.block_m + p * 32 + lane)
                        });
                        let vals: [[f32; 4]; 32] =
                            std::array::from_fn(|lane| [lane_vals[lane], 0.0, 0.0, 0.0]);
                        mach.st_global(partials, &pidx, VecWidth::V1, &vals);
                    }
                }
            }
        }

        // --- ABFT epilogue: checksum column + corruption flag ---------
        if let Some(vb) = seg.verify {
            corrupt |= gamma_clean_xor != gamma_parked_xor;
            corrupt |= t_store_xor != t_drain_xor;
            let gy = m / geo.block_m;
            mach.begin_warp(0);
            mach.falu(2); // fold σ; combine the corruption predicate
                          // One atomic with R active lanes: lane c updates the slot
                          // of (column c, row group by) — distinct sectors.
            let cidx: WarpIdx = std::array::from_fn(|lane| {
                (lane < r).then_some((lane * gy + by) * CHECKSUM_SLOT_WORDS)
            });
            let mut cvals = [0.0f32; 32];
            cvals[..r].copy_from_slice(&sigma[..r]);
            mach.atomic_add(vb.checksum, &cidx, &cvals);
            // Unconditional: clean blocks add 0.0, so every block
            // issues the identical instruction stream.
            let fidx: WarpIdx = std::array::from_fn(|lane| (lane == 0).then_some(0));
            let mut fvals = [0.0f32; 32];
            fvals[0] = if corrupt { 1.0 } else { 0.0 };
            mach.atomic_add(vb.flag, &fidx, &fvals);
        }
    }
}

impl<N: Naming> Kernel for Fused<N> {
    fn name(&self) -> String {
        let tag = if self.segments[0].verify.is_some() {
            "_abft"
        } else {
            ""
        };
        let gtag = if self.geometry == TileGeometry::paper_default() {
            String::new()
        } else {
            let g = &self.geometry;
            format!(
                "_g{}x{}u{}x{}k{}d{}",
                g.block_m, g.block_n, g.micro_m, g.micro_n, g.tile_k, g.double_buffer_depth
            )
        };
        let launch = if N::PACKED {
            format!("{}b", self.table.total_blocks())
        } else {
            let s = &self.segments[0].shape;
            format!("{}x{}x{}", s.m, s.n, s.k)
        };
        format!(
            "{}{tag}{gtag}_{launch}",
            N::prefix(self.segments.len(), self.max_r())
        )
    }

    fn launch_config(&self) -> LaunchConfig {
        let grid = if N::PACKED {
            Dim3::new_1d(self.table.total_blocks())
        } else {
            let (gx, gy) = self.table.grid(0);
            Dim3::new_2d(gx, gy)
        };
        LaunchConfig::new(
            grid,
            Dim3::new_2d(
                self.geometry.threads_x() as u32,
                self.geometry.threads_y() as u32,
            ),
        )
    }

    fn resources(&self) -> KernelResources {
        // One launch, one register/smem budget: the occupancy cost is
        // set by the widest segment.
        KernelResources {
            threads_per_block: self.geometry.threads_per_block() as u32,
            regs_per_thread: self.geometry.regs_per_thread_multi(self.max_r()).min(255),
            smem_bytes_per_block: SmemMap::for_geometry(&self.geometry).bytes(),
        }
    }

    fn timing_hints(&self) -> TimingHints {
        TimingHints {
            exec_model: self.exec_model,
            mlp: if self.geometry.double_buffer_depth == 2 {
                8.0
            } else {
                3.0
            },
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
        let (seg, local) = self.route(block);
        self.body(&self.segments[seg], local, &mut FunctionalMachine::new(ctx));
    }

    /// The launch on the host ([`crate::oracle`]), segment by segment
    /// in launch order; the two-pass ablation is interpreted. Each row
    /// group, in parallel, adds its blocks' partials in ascending `bx`
    /// to the `V` rows it owns, word by word as the drain's atomics
    /// would ([`GlobalMem::add_owned`]); with verify on, each block
    /// then adds its σ (its rows, ascending from 0.0) to its own
    /// checksum slot the same way and 0.0 to the flag, which every row
    /// group shares, atomically, as a clean block's epilogue does. A
    /// named block is interpreted in its own `bx` slot instead, on the
    /// same thread, so its atomics land in order. Layout, buffering and
    /// exec model change no bit.
    fn execute_exact(&self, mem: &GlobalMem, named: NamedBlocks<'_>) -> bool {
        if let Reduction::TwoPass { .. } = self.reduction {
            return false;
        }
        for (s, seg) in self.segments.iter().enumerate() {
            let (m, n, k, r) = (seg.shape.m, seg.shape.n, seg.shape.k, seg.r);
            let [a, b, a2, b2, w] =
                [seg.ops.a, seg.ops.b, seg.a2, seg.b2, seg.w].map(|buf| mem.download(buf));
            let host = FusedHost::new(
                &a[..m * k],
                &b[..k * n],
                &a2[..m],
                &b2[..n],
                &w[..n * r],
                (m, n, k),
                seg.bw.h,
                r,
            );
            let bm = self.geometry.block_m;
            let gy = m / bm;
            (0..gy).into_par_iter().for_each(|by| {
                let interpret = |bx| {
                    let (block, linear) = self.launch_block(s, bx, by);
                    named.interpret(mem, self, block, linear)
                };
                host.row_group(&self.geometry, by, interpret, |t| {
                    for (c, col) in t.chunks_exact(bm).enumerate() {
                        mem.add_owned(seg.v, c * m + by * bm, col);
                    }
                    if let Some(vb) = seg.verify {
                        for (c, col) in t.chunks_exact(bm).enumerate() {
                            let sigma = col.iter().fold(0.0f32, |s, x| s + x);
                            let slot = (c * gy + by) * CHECKSUM_SLOT_WORDS;
                            mem.add_owned(vb.checksum, slot, &[sigma]);
                        }
                        mem.atomic_add(vb.flag, 0, 0.0);
                    }
                });
            });
        }
        true
    }

    fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink) {
        let (seg, local) = self.route(block);
        self.body(&self.segments[seg], local, &mut TrafficMachine::new(sink));
    }

    /// The one segment's declared pattern; a packed launch's routed
    /// grid has none (see [`crate::fused_multi_packed`]).
    fn access_spec(&self) -> Option<AccessSpec> {
        if N::PACKED {
            return None;
        }
        let seg = &self.segments[0];
        let geo = &self.geometry;
        let (mm, mn) = (geo.micro_m, geo.micro_n);
        let txn = geo.threads_x();
        let rpw = geo.rows_per_warp();
        let warps = geo.warps_per_block();
        let mut spec = AccessSpec::default();
        gemm_access_spec(
            &mut spec,
            geo,
            &seg.ops,
            &seg.shape,
            self.layout,
            seg.verify.is_some(),
        );
        let (n, m, r) = (seg.shape.n, seg.shape.m, seg.r);
        let tiles = geo.tiles(seg.shape.k);
        let t_off = SmemMap::for_geometry(geo).a[tiles % 2];
        // Evaluation phase: per warp, norm/weight vector loads and the
        // micro_m T-park store phases per column (tx == 0 lanes only).
        let (cm, cn) = (mm / 4, mn / 4);
        for wp in 0..warps {
            let row = |lane: usize| ((rpw * wp + lane / txn) * mm) as i64;
            let col = |lane: usize| ((lane % txn) * mn) as i64;
            for chunk in 0..cm {
                spec.global.push(
                    GlobalPattern::new(
                        seg.a2,
                        "a2",
                        AccessDir::Read,
                        VecWidth::V4,
                        affine_lanes(|lane| row(lane) + 4 * chunk as i64),
                    )
                    .with_by(geo.block_m as i64),
                );
            }
            for chunk in 0..cn {
                spec.global.push(
                    GlobalPattern::new(
                        seg.b2,
                        "b2",
                        AccessDir::Read,
                        VecWidth::V4,
                        affine_lanes(|lane| col(lane) + 4 * chunk as i64),
                    )
                    .with_bx(geo.block_n as i64),
                );
            }
            // Column-major weight slices: column c at offset c·N.
            for c in 0..r {
                for chunk in 0..cn {
                    spec.global.push(
                        GlobalPattern::new(
                            seg.w,
                            "w",
                            AccessDir::Read,
                            VecWidth::V4,
                            affine_lanes(|lane| (c * n) as i64 + col(lane) + 4 * chunk as i64),
                        )
                        .with_bx(geo.block_n as i64),
                    );
                }
            }
            for c in 0..r {
                for row_w in 0..mm {
                    let words: [Option<u32>; 32] = std::array::from_fn(|lane| {
                        (lane % txn == 0).then_some(
                            t_off + (c * geo.block_m) as u32 + row(lane) as u32 + row_w as u32,
                        )
                    });
                    spec.shared
                        .push(SharedPattern::new(words, VecWidth::V1, AccessDir::Write));
                }
            }
        }
        // Drain: 32-word phases over T per column, reduced into V.
        for p in 0..geo.drain_phases() {
            for c in 0..r {
                let words: [Option<u32>; 32] = std::array::from_fn(|lane| {
                    Some(t_off + (c * geo.block_m + p * 32 + lane) as u32)
                });
                spec.shared
                    .push(SharedPattern::new(words, VecWidth::V1, AccessDir::Read));
                spec.global.push(match self.reduction {
                    Reduction::Atomic => GlobalPattern::new(
                        seg.v,
                        "v",
                        AccessDir::Atomic,
                        VecWidth::V1,
                        affine_lanes(|lane| (c * m + p * 32 + lane) as i64),
                    )
                    .with_by(geo.block_m as i64),
                    Reduction::TwoPass { partials } => GlobalPattern::new(
                        partials,
                        "partials",
                        AccessDir::Write,
                        VecWidth::V1,
                        affine_lanes(|lane| (p * 32 + lane) as i64),
                    )
                    .with_bx(m as i64)
                    .with_by(geo.block_m as i64),
                });
            }
        }
        // ABFT epilogue: the R-lane checksum atomic and the lane-0 flag.
        if let Some(vb) = seg.verify {
            let gy = m / geo.block_m;
            spec.global.push(
                GlobalPattern::new(
                    vb.checksum,
                    "chk",
                    AccessDir::Atomic,
                    VecWidth::V1,
                    masked_lanes(|lane| {
                        (lane < r).then_some((lane * gy * CHECKSUM_SLOT_WORDS) as i64)
                    }),
                )
                .with_by(CHECKSUM_SLOT_WORDS as i64),
            );
            spec.global.push(GlobalPattern::new(
                vb.flag,
                "flag",
                AccessDir::Atomic,
                VecWidth::V1,
                masked_lanes(|lane| (lane == 0).then_some(0)),
            ));
        }
        spec.barriers = Some(BarrierSpec {
            count: syncs_per_block(geo, seg.shape.k) + 1,
            warps: warps as u64,
        });
        Some(spec)
    }

    fn block_class(&self, block: Dim3) -> Option<BlockClass> {
        // Every block of a segment runs the identical tile schedule;
        // only the tile origin moves. All global accesses are affine in
        // (bx, by): A rows start at by·block_m·k, B columns at
        // bx·block_n·k, the norm / weight vectors at by·block_m /
        // bx·block_n, and the reduction target at by·block_m (atomic)
        // or bx·m + by·block_m (two-pass partials). The c·n / c·m
        // weight and output column offsets are block-independent.
        // Segments issuing one warp stream share a class, keyed by the
        // first such segment; the anchors pair up by position across
        // their buffers.
        let (i, local) = self.route(block);
        let (seg, geo) = (&self.segments[i], &self.geometry);
        let (bx, by) = (local.x as usize, local.y as usize);
        let mut anchors = vec![
            (seg.ops.a, by * geo.block_m * seg.shape.k),
            (seg.ops.b, bx * geo.block_n * seg.shape.k),
            (seg.a2, by * geo.block_m),
            (seg.b2, bx * geo.block_n),
            (seg.w, bx * geo.block_n),
        ];
        match self.reduction {
            Reduction::Atomic => anchors.push((seg.v, by * geo.block_m)),
            Reduction::TwoPass { partials } => {
                anchors.push((partials, bx * seg.shape.m + by * geo.block_m));
            }
        }
        if let Some(vb) = seg.verify {
            // Checksum slots shift by one sector-aligned slot per row
            // group (the c·gy·8 column offsets are block-invariant);
            // the flag never moves.
            anchors.push((vb.checksum, by * CHECKSUM_SLOT_WORDS));
            anchors.push((vb.flag, 0));
        }
        Some(BlockClass {
            key: self.stream_of[i] as u64,
            anchors,
        })
    }

    /// The grid choice, geometry, layout and reduction, and per
    /// segment its shape, `R` and the addresses of its buffers. The
    /// name and exec model reach timing only, and the bandwidth the
    /// numerics only.
    fn traffic_key(&self, mem: &GlobalMem) -> Option<u64> {
        let addr = |b: BufId| mem.base_addr(b);
        let reduction = match self.reduction {
            Reduction::Atomic => None,
            Reduction::TwoPass { partials } => Some(addr(partials)),
        };
        let segments: Vec<_> = self
            .segments
            .iter()
            .map(|s| {
                let bufs = [s.ops.a, s.ops.b, s.a2, s.b2, s.w, s.v].map(addr);
                let verify = s.verify.map(|vb| [vb.checksum, vb.flag].map(addr));
                (s.shape, s.r, bufs, verify)
            })
            .collect();
        Some(key_of(&(
            "fused",
            N::PACKED,
            self.geometry,
            self.layout,
            reduction,
            segments,
        )))
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        let geo = &self.geometry;
        let read = |buf, len, label| BufferUse {
            buf,
            len,
            writes: false,
            label,
        };
        let write = |buf, len, label| BufferUse {
            buf,
            len,
            writes: true,
            label,
        };
        // Every segment's buffers, merged: a buffer several segments
        // share (a deduplicated corpus upload) keeps its widest extent.
        let mut buffers: Vec<BufferUse> = Vec::new();
        for seg in &self.segments {
            let (m, n, k, r) = (seg.shape.m, seg.shape.n, seg.shape.k, seg.r);
            let mut uses = vec![
                read(seg.ops.a, m * k, "a"),
                read(seg.ops.b, k * n, "b"),
                read(seg.a2, m, "a2"),
                read(seg.b2, n, "b2"),
                read(seg.w, n * r, "w"),
                match self.reduction {
                    Reduction::Atomic => write(seg.v, m * r, "v"),
                    Reduction::TwoPass { partials } => {
                        write(partials, (n / geo.block_n) * m, "partials")
                    }
                },
            ];
            if let Some(vb) = seg.verify {
                uses.push(write(
                    vb.checksum,
                    r * (m / geo.block_m) * CHECKSUM_SLOT_WORDS,
                    "chk",
                ));
                uses.push(write(vb.flag, CHECKSUM_SLOT_WORDS, "flag"));
            }
            for us in uses {
                match buffers.iter_mut().find(|b| b.buf == us.buf) {
                    Some(slot) => {
                        slot.len = slot.len.max(us.len);
                        slot.writes |= us.writes;
                    }
                    None => buffers.push(us),
                }
            }
        }
        // Occupancy expectation on the reference device this repo's
        // analysis fixtures run on, from the §III-A register economy:
        // the paper point lands on its measured 2 blocks/SM
        // (register-limited), and R ≥ 2 exceeds 128 regs/thread and
        // halves it to one.
        let occ = ks_gpu_sim::occupancy::occupancy(&DeviceConfig::gtx970(), &self.resources());
        AnalysisBudget {
            // Fig. 5's swizzle is conflict-free; the naive row-major
            // ablation's compute loads are 4-way conflicted (degree 3).
            smem_conflict_budget: match self.layout {
                SmemLayout::Swizzled => 0,
                SmemLayout::NaiveRowMajor => 3,
            },
            expected_blocks_per_sm: Some(occ.blocks_per_sm),
            expected_limiter: Some(occ.limiter),
            buffers,
        }
    }
}

/// Second pass of the [`Reduction::TwoPass`] ablation:
/// `V_i = Σ_bx partial[bx·m + i]`.
pub struct ReducePartialsKernel {
    partials: BufId,
    v: BufId,
    m: usize,
    n_blocks_x: usize,
}

impl ReducePartialsKernel {
    /// Creates the kernel.
    ///
    /// # Panics
    /// Panics unless `m % 256 == 0`.
    #[must_use]
    pub fn new(partials: BufId, v: BufId, m: usize, n_blocks_x: usize) -> Self {
        assert_eq!(m % 256, 0, "M {m} must be a multiple of 256");
        assert!(n_blocks_x > 0);
        Self {
            partials,
            v,
            m,
            n_blocks_x,
        }
    }

    fn body<M: WarpMachine>(&self, block: Dim3, mach: &mut M) {
        for wp in 0..8 {
            mach.begin_warp(wp as u32);
            mach.alu(2);
            let base = block.x as usize * 256 + wp * 32;
            let mut acc = [0.0f32; 32];
            for bx in 0..self.n_blocks_x {
                let idx: WarpIdx = std::array::from_fn(|lane| Some(bx * self.m + base + lane));
                let v = mach.ld_global(self.partials, &idx, VecWidth::V1);
                mach.falu(1);
                if M::FUNCTIONAL {
                    for lane in 0..32 {
                        acc[lane] += v[lane][0];
                    }
                }
            }
            let idx: WarpIdx = std::array::from_fn(|lane| Some(base + lane));
            let vals: [[f32; 4]; 32] = std::array::from_fn(|lane| [acc[lane], 0.0, 0.0, 0.0]);
            mach.st_global(self.v, &idx, VecWidth::V1, &vals);
        }
    }
}

impl Kernel for ReducePartialsKernel {
    fn name(&self) -> String {
        format!("reduce_partials_{}x{}", self.m, self.n_blocks_x)
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(Dim3::new_1d((self.m / 256) as u32), 256u32)
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            threads_per_block: 256,
            regs_per_thread: 24,
            smem_bytes_per_block: 0,
        }
    }

    fn timing_hints(&self) -> TimingHints {
        TimingHints {
            exec_model: ExecModel::CudaC,
            mlp: 8.0,
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
        self.body(block, &mut FunctionalMachine::new(ctx));
    }

    fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink) {
        self.body(block, &mut TrafficMachine::new(sink));
    }

    fn access_spec(&self) -> Option<AccessSpec> {
        let mut spec = AccessSpec::default();
        for wp in 0..8usize {
            spec.global.push(
                GlobalPattern::new(
                    self.partials,
                    "partials",
                    AccessDir::Read,
                    VecWidth::V1,
                    affine_lanes(|lane| (wp * 32 + lane) as i64),
                )
                .with_bx(256)
                .with_loop(self.n_blocks_x as u64, self.m as i64),
            );
            spec.global.push(
                GlobalPattern::new(
                    self.v,
                    "v",
                    AccessDir::Write,
                    VecWidth::V1,
                    affine_lanes(|lane| (wp * 32 + lane) as i64),
                )
                .with_bx(256),
            );
        }
        Some(spec)
    }

    fn block_class(&self, block: Dim3) -> Option<BlockClass> {
        // Block x reduces rows [x·256, x·256+256): every partials read
        // (bx·m + x·256 + …) and the final store shift by 256 elements
        // per block.
        let base = block.x as usize * 256;
        Some(BlockClass {
            key: 0,
            anchors: vec![(self.partials, base), (self.v, base)],
        })
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        AnalysisBudget {
            smem_conflict_budget: 0,
            expected_blocks_per_sm: None,
            expected_limiter: None,
            buffers: vec![
                BufferUse {
                    buf: self.partials,
                    len: self.n_blocks_x * self.m,
                    writes: false,
                    label: "partials",
                },
                BufferUse {
                    buf: self.v,
                    len: self.m,
                    writes: true,
                    label: "v",
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_gpu_sim::device::GpuDevice;

    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        }
    }

    struct Problem {
        a: Vec<f32>,
        b: Vec<f32>,
        w: Vec<f32>,
        shape: GemmShape,
        bw: Bandwidth,
    }

    fn make_problem(shape: GemmShape, seed: u64) -> Problem {
        let mut next = lcg(seed);
        Problem {
            a: (0..shape.m * shape.k).map(|_| next() * 0.5).collect(),
            b: (0..shape.k * shape.n).map(|_| next() * 0.5).collect(),
            w: (0..shape.n).map(|_| next()).collect(),
            shape,
            bw: Bandwidth { h: 1.0 },
        }
    }

    fn cpu_reference(p: &Problem) -> Vec<f32> {
        let s = p.bw.inv_2h2();
        let (m, n, k) = (p.shape.m, p.shape.n, p.shape.k);
        (0..m)
            .map(|i| {
                let mut acc = 0.0f64;
                for j in 0..n {
                    let mut d = 0.0f64;
                    for t in 0..k {
                        let diff = p.a[i * k + t] as f64 - p.b[j * k + t] as f64;
                        d += diff * diff;
                    }
                    acc += (-d * s as f64).exp() * p.w[j] as f64;
                }
                acc as f32
            })
            .collect()
    }

    fn host_norms(points: &[f32], count: usize, k: usize) -> Vec<f32> {
        (0..count)
            .map(|i| points[i * k..(i + 1) * k].iter().map(|v| v * v).sum())
            .collect()
    }

    fn gpu_setup(dev: &mut GpuDevice, p: &Problem) -> (GemmOperands, BufId, BufId, BufId, BufId) {
        let a2 = host_norms(&p.a, p.shape.m, p.shape.k);
        let b2 = host_norms(&p.b, p.shape.n, p.shape.k);
        let ops = GemmOperands {
            a: dev.upload(&p.a),
            b: dev.upload(&p.b),
        };
        let (ba2, bb2, bw_buf) = (dev.upload(&a2), dev.upload(&b2), dev.upload(&p.w));
        let bv = dev.alloc(p.shape.m);
        (ops, ba2, bb2, bw_buf, bv)
    }

    #[test]
    fn fused_matches_cpu_reference() {
        let p = make_problem(
            GemmShape {
                m: 256,
                n: 256,
                k: 16,
            },
            42,
        );
        let mut dev = GpuDevice::gtx970();
        let (ops, a2, b2, w, v) = gpu_setup(&mut dev, &p);
        let k = FusedKernelSummation::new(ops, a2, b2, w, v, p.shape, p.bw);
        dev.run(&k).unwrap();
        let got = dev.download(v);
        let want = cpu_reference(&p);
        for (i, (g, wv)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g - wv).abs() < 2e-3 * wv.abs().max(1.0),
                "row {i}: {g} vs {wv}"
            );
        }
    }

    #[test]
    fn non_default_geometries_match_the_oracle_bit_for_bit() {
        // The differential contract at kernel level: the sequential
        // schedule's bits equal the geometry-aware CPU replay for
        // non-paper points (the full lattice sweep lives in the
        // crate's integration tests).
        let p = make_problem(
            GemmShape {
                m: 256,
                n: 256,
                k: 16,
            },
            48,
        );
        let a2 = host_norms(&p.a, p.shape.m, p.shape.k);
        let b2 = host_norms(&p.b, p.shape.n, p.shape.k);
        for geo in [
            TileGeometry {
                block_m: 64,
                block_n: 64,
                ..TileGeometry::paper_default()
            },
            TileGeometry {
                block_m: 64,
                block_n: 64,
                tile_k: 4,
                double_buffer_depth: 1,
                ..TileGeometry::paper_default()
            },
        ] {
            let mut dev = GpuDevice::gtx970();
            let (ops, ba2, bb2, bw_buf, bv) = gpu_setup(&mut dev, &p);
            dev.run_counted(
                &FusedKernelSummation::new(ops, ba2, bb2, bw_buf, bv, p.shape, p.bw)
                    .with_geometry(geo),
            )
            .unwrap();
            let got = dev.download(bv);
            let want = crate::oracle::fused_oracle(
                &geo, &p.a, &p.b, &a2, &b2, &p.w, p.shape.m, p.shape.n, p.shape.k, p.bw.h,
            );
            for (i, (g, x)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(g.to_bits(), x.to_bits(), "{geo} row {i}: {g} vs {x}");
            }
        }
    }

    #[test]
    fn two_pass_reduction_matches_atomic() {
        let p = make_problem(
            GemmShape {
                m: 256,
                n: 256,
                k: 16,
            },
            43,
        );
        let mut dev = GpuDevice::gtx970();
        let (ops, a2, b2, w, v1) = gpu_setup(&mut dev, &p);
        dev.run(&FusedKernelSummation::new(
            ops, a2, b2, w, v1, p.shape, p.bw,
        ))
        .unwrap();

        let nbx = p.shape.n / 128;
        let partials = dev.alloc(nbx * p.shape.m);
        let v2 = dev.alloc(p.shape.m);
        dev.run(
            &FusedKernelSummation::new(ops, a2, b2, w, v2, p.shape, p.bw)
                .with_reduction(Reduction::TwoPass { partials }),
        )
        .unwrap();
        dev.run(&ReducePartialsKernel::new(partials, v2, p.shape.m, nbx))
            .unwrap();

        let one = dev.download(v1);
        let two = dev.download(v2);
        for (a, b) in one.iter().zip(two.iter()) {
            assert!((a - b).abs() < 1e-4 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn fused_writes_no_intermediate_matrix() {
        let p = make_problem(
            GemmShape {
                m: 256,
                n: 256,
                k: 16,
            },
            44,
        );
        let mut dev = GpuDevice::gtx970();
        let (ops, a2, b2, w, v) = gpu_setup(&mut dev, &p);
        let prof = dev
            .launch(&FusedKernelSummation::new(ops, a2, b2, w, v, p.shape, p.bw))
            .unwrap();
        // The only stores are atomics; global_store_insts must be zero
        // and DRAM writes bounded by |V| (plus nothing else).
        assert_eq!(prof.counters.global_store_insts, 0);
        assert!(
            prof.mem.dram_writes <= (p.shape.m / 8) as u64 + 8,
            "dram writes {}",
            prof.mem.dram_writes
        );
        assert!(prof.counters.atomic_insts > 0);
    }

    #[test]
    fn fused_profile_fast_path_matches_counted() {
        let p = make_problem(
            GemmShape {
                m: 256,
                n: 256,
                k: 16,
            },
            45,
        );
        let mut d1 = GpuDevice::gtx970();
        let (ops, a2, b2, w, v) = gpu_setup(&mut d1, &p);
        let fast = d1
            .launch(&FusedKernelSummation::new(ops, a2, b2, w, v, p.shape, p.bw))
            .unwrap();

        let mut d2 = GpuDevice::gtx970();
        let (ops2, a22, b22, w2, v2) = gpu_setup(&mut d2, &p);
        let slow = d2
            .run_counted(&FusedKernelSummation::new(
                ops2, a22, b22, w2, v2, p.shape, p.bw,
            ))
            .unwrap();
        assert_eq!(fast.counters, slow.counters);
        assert_eq!(fast.mem, slow.mem);
        // The counted functional run must also produce correct values.
        let got = d2.download(v2);
        let want = cpu_reference(&p);
        for (g, wv) in got.iter().zip(want.iter()) {
            assert!((g - wv).abs() < 2e-3 * wv.abs().max(1.0));
        }
    }

    /// Extension of the gpu-sim `run_counted_agrees_with_launch_on_
    /// memory_counters` test to the fused kernel's two-pass mode: the
    /// sequential functional-counting path and the (parallel,
    /// memoized) replay path must agree on every counter for both
    /// reduction ablations, not just the atomic default covered by
    /// `fused_profile_fast_path_matches_counted`.
    #[test]
    fn run_counted_agrees_with_launch_on_fused_two_pass() {
        let p = make_problem(
            GemmShape {
                m: 256,
                n: 256,
                k: 16,
            },
            46,
        );
        let nbx = p.shape.n / 128;
        let build = |dev: &mut GpuDevice| {
            let (ops, a2, b2, w, v) = gpu_setup(dev, &p);
            let partials = dev.alloc(nbx * p.shape.m);
            (
                FusedKernelSummation::new(ops, a2, b2, w, v, p.shape, p.bw)
                    .with_reduction(Reduction::TwoPass { partials }),
                ReducePartialsKernel::new(partials, v, p.shape.m, nbx),
            )
        };
        let mut d1 = GpuDevice::gtx970();
        let (k1, r1) = build(&mut d1);
        let fast = d1.launch(&k1).unwrap();
        let fast_r = d1.launch(&r1).unwrap();

        let mut d2 = GpuDevice::gtx970();
        let (k2, r2) = build(&mut d2);
        let slow = d2.run_counted(&k2).unwrap();
        let slow_r = d2.run_counted(&r2).unwrap();

        assert_eq!(fast.counters, slow.counters);
        assert_eq!(fast.mem, slow.mem);
        assert_eq!(fast_r.counters, slow_r.counters);
        assert_eq!(fast_r.mem, slow_r.mem);
    }

    #[test]
    fn layout_and_buffering_do_not_change_results() {
        let p = make_problem(
            GemmShape {
                m: 128,
                n: 128,
                k: 32,
            },
            46,
        );
        let mut outs = Vec::new();
        for (layout, db) in [
            (SmemLayout::Swizzled, true),
            (SmemLayout::Swizzled, false),
            (SmemLayout::NaiveRowMajor, true),
        ] {
            let mut dev = GpuDevice::gtx970();
            let (ops, a2, b2, w, v) = gpu_setup(&mut dev, &p);
            dev.run(
                &FusedKernelSummation::new(ops, a2, b2, w, v, p.shape, p.bw)
                    .with_layout(layout)
                    .with_double_buffer(db),
            )
            .unwrap();
            outs.push(dev.download(v));
        }
        for o in &outs[1..] {
            for (a, b) in outs[0].iter().zip(o.iter()) {
                assert!((a - b).abs() < 1e-4 * a.abs().max(1.0));
            }
        }
    }

    #[test]
    fn occupancy_is_two_blocks_per_sm() {
        let p = make_problem(
            GemmShape {
                m: 128,
                n: 128,
                k: 8,
            },
            47,
        );
        let mut dev = GpuDevice::gtx970();
        let (ops, a2, b2, w, v) = gpu_setup(&mut dev, &p);
        let prof = dev
            .launch(&FusedKernelSummation::new(ops, a2, b2, w, v, p.shape, p.bw))
            .unwrap();
        assert_eq!(prof.occupancy.blocks_per_sm, 2);
    }

    // ---- ABFT verification -------------------------------------------

    use ks_gpu_sim::FaultSpec;

    /// A GTX 970 with fault injection enabled at the given spec+seed.
    fn faulty_device(spec: &str, seed: u64) -> GpuDevice {
        let mut fs = FaultSpec::parse(spec).expect("valid fault spec");
        fs.seed = seed;
        let mut cfg = DeviceConfig::gtx970();
        cfg.fault = Some(fs);
        GpuDevice::new(cfg)
    }

    /// Runs the ABFT-verified fused kernel (norms precomputed on the
    /// host, so the only launch — and the only DRAM fault targets —
    /// are the fused kernel's own outputs) via the deterministic
    /// sequential `run_counted` path. Returns `(V, report)`.
    fn verified_run(dev: &mut GpuDevice, p: &Problem) -> (Vec<f32>, VerifyReport) {
        let (ops, a2, b2, w, v) = gpu_setup(dev, p);
        let vb = VerifyBufs {
            checksum: dev.alloc((p.shape.m / 128) * CHECKSUM_SLOT_WORDS),
            flag: dev.alloc(CHECKSUM_SLOT_WORDS),
        };
        dev.run_counted(
            &FusedKernelSummation::new(ops, a2, b2, w, v, p.shape, p.bw).with_verify(vb),
        )
        .unwrap();
        let out = dev.download(v);
        let report = VerifyReport::from_outputs(
            &out,
            &dev.download(vb.checksum),
            &dev.download(vb.flag),
            p.shape.m,
            1,
            128,
        );
        (out, report)
    }

    #[test]
    fn verified_clean_run_is_bit_identical_and_unflagged() {
        let p = make_problem(
            GemmShape {
                m: 256,
                n: 256,
                k: 32,
            },
            50,
        );
        let mut d1 = GpuDevice::gtx970();
        let (ops, a2, b2, w, v) = gpu_setup(&mut d1, &p);
        d1.run_counted(&FusedKernelSummation::new(ops, a2, b2, w, v, p.shape, p.bw))
            .unwrap();
        let base = d1.download(v);

        let mut d2 = GpuDevice::gtx970();
        let (got, report) = verified_run(&mut d2, &p);
        // Verification must be a pure observer: same V bits as the
        // unverified kernel on the same sequential schedule.
        for (g, b) in got.iter().zip(base.iter()) {
            assert_eq!(g.to_bits(), b.to_bits());
        }
        assert!(!report.corruption_detected(), "{report:?}");
        assert_eq!(report.checksum_groups, p.shape.m / 128);
        assert_eq!(report.checksum_mismatches, 0);
        assert_eq!(report.blocks_flagged, 0);
    }

    /// Shared oracle for the in-flight fault surfaces: every run whose
    /// output differs bit-for-bit from the clean baseline must be
    /// flagged — no silent corruption — and at least one seed must
    /// actually corrupt, so the sweep cannot pass vacuously.
    fn detection_sweep(spec: &str, surface: &str) {
        let p = make_problem(
            GemmShape {
                m: 256,
                n: 256,
                k: 32,
            },
            51,
        );
        let mut clean = GpuDevice::gtx970();
        let (base, clean_report) = verified_run(&mut clean, &p);
        assert!(!clean_report.corruption_detected());

        let mut corrupted = 0u32;
        let mut injected_total = 0u64;
        for seed in 0..12u64 {
            let mut dev = faulty_device(spec, seed);
            let (got, report) = verified_run(&mut dev, &p);
            let injected = dev.take_fault_counters();
            injected_total += injected.smem_flips + injected.reg_flips;
            let changed = got
                .iter()
                .zip(base.iter())
                .any(|(g, b)| g.to_bits() != b.to_bits());
            if changed {
                corrupted += 1;
                assert!(
                    report.blocks_flagged > 0,
                    "{surface} seed {seed}: silent corruption ({injected:?})"
                );
            }
        }
        assert!(injected_total > 0, "{surface}: no faults were injected");
        assert!(
            corrupted >= 1,
            "{surface}: no seed corrupted V — the sweep is vacuous"
        );
    }

    #[test]
    fn verified_flags_every_effective_smem_flip() {
        detection_sweep("smem=3", "smem");
    }

    #[test]
    fn verified_flags_every_effective_reg_flip() {
        detection_sweep("reg=2", "reg");
    }

    #[test]
    fn host_checksum_catches_tampered_outputs() {
        let p = make_problem(
            GemmShape {
                m: 256,
                n: 256,
                k: 32,
            },
            52,
        );
        let mut dev = GpuDevice::gtx970();
        let (ops, a2, b2, w, v) = gpu_setup(&mut dev, &p);
        let vb = VerifyBufs {
            checksum: dev.alloc((p.shape.m / 128) * CHECKSUM_SLOT_WORDS),
            flag: dev.alloc(CHECKSUM_SLOT_WORDS),
        };
        dev.run_counted(
            &FusedKernelSummation::new(ops, a2, b2, w, v, p.shape, p.bw).with_verify(vb),
        )
        .unwrap();
        let out = dev.download(v);
        let chk = dev.download(vb.checksum);
        let flag = dev.download(vb.flag);

        // An exponent flip on a V element shifts its row-group sum off
        // the checksum column.
        let mut tampered = out.clone();
        tampered[3] = f32::from_bits(tampered[3].to_bits() ^ (1 << 30));
        let r = VerifyReport::from_outputs(&tampered, &chk, &flag, p.shape.m, 1, 128);
        assert!(r.checksum_mismatches >= 1, "{r:?}");

        // Same for a flip on the checksum column itself.
        let mut bad_chk = chk.clone();
        bad_chk[CHECKSUM_SLOT_WORDS] =
            f32::from_bits(bad_chk[CHECKSUM_SLOT_WORDS].to_bits() ^ (1 << 31));
        let r = VerifyReport::from_outputs(&out, &bad_chk, &flag, p.shape.m, 1, 128);
        assert!(r.checksum_mismatches >= 1, "{r:?}");

        // And a flipped device flag surfaces as blocks_flagged.
        let mut bad_flag = flag.clone();
        bad_flag[0] = 1.0;
        let r = VerifyReport::from_outputs(&out, &chk, &bad_flag, p.shape.m, 1, 128);
        assert!(r.blocks_flagged >= 1 && r.corruption_detected());
    }

    /// A DRAM flip of bit 30 on a `V` word in [1, 2) makes its
    /// exponent 255: a NaN from 1.5, +∞ from 1.0. Either one is a
    /// checksum mismatch, though neither compares as out of tolerance.
    #[test]
    fn a_non_finite_row_group_is_a_checksum_mismatch() {
        for (clean, what) in [(1.5f32, "NaN"), (1.0, "+inf")] {
            let mut v = vec![clean; 128];
            v[3] = f32::from_bits(v[3].to_bits() ^ (1 << 30));
            let mut checksum = vec![0.0f32; CHECKSUM_SLOT_WORDS];
            checksum[0] = 128.0 * clean;
            let flag = vec![0.0f32; CHECKSUM_SLOT_WORDS];
            let r = VerifyReport::from_outputs(&v, &checksum, &flag, 128, 1, 128);
            assert_eq!(r.checksum_mismatches, 1, "{what}: {r:?}");
            assert!(r.corruption_detected(), "{what}");
            let clean_v = vec![clean; 128];
            let r = VerifyReport::from_outputs(&clean_v, &checksum, &flag, 128, 1, 128);
            assert_eq!(r.checksum_mismatches, 0, "clean {clean}");
        }
    }

    /// DRAM upsets land *after* the kernel, on its writable buffers
    /// (V, checksum, flag). The model injects exponent/sign flips; the
    /// FP checksum has a noise floor, so the contract is weaker than
    /// for the in-flight surfaces: no row group may deviate beyond the
    /// checksum tolerance without the report noticing (DESIGN.md §11).
    #[test]
    fn verified_bounds_dram_flip_escapes() {
        let p = make_problem(
            GemmShape {
                m: 256,
                n: 256,
                k: 32,
            },
            53,
        );
        let mut clean = GpuDevice::gtx970();
        let (base, _) = verified_run(&mut clean, &p);

        let gy = p.shape.m / 128;
        let mut detected = 0u32;
        for seed in 0..12u64 {
            let mut dev = faulty_device("dram=2", seed);
            let (got, report) = verified_run(&mut dev, &p);
            if report.corruption_detected() {
                detected += 1;
            }
            for g in 0..gy {
                let gs: f64 = got[g * 128..(g + 1) * 128]
                    .iter()
                    .map(|&x| f64::from(x))
                    .sum();
                let bs: f64 = base[g * 128..(g + 1) * 128]
                    .iter()
                    .map(|&x| f64::from(x))
                    .sum();
                let abs: f64 = got[g * 128..(g + 1) * 128]
                    .iter()
                    .map(|&x| f64::from(x.abs()))
                    .sum();
                let drifted = !((gs - bs).abs() <= 2.0 * (1e-3 * abs + 1e-4) && gs.is_finite());
                if drifted {
                    assert!(
                        report.checksum_mismatches >= 1,
                        "dram seed {seed}: group {g} drifted silently"
                    );
                }
            }
        }
        assert!(detected >= 1, "no DRAM seed tripped the checksum");
    }

    /// The verified kernel must keep the traffic/functional counter
    /// equivalence the unverified kernel has: launch (memoized replay)
    /// and run_counted (sequential functional) agree on every counter.
    #[test]
    fn verified_profile_fast_path_matches_counted() {
        let p = make_problem(
            GemmShape {
                m: 256,
                n: 256,
                k: 16,
            },
            54,
        );
        let build = |dev: &mut GpuDevice| {
            let (ops, a2, b2, w, v) = gpu_setup(dev, &p);
            let vb = VerifyBufs {
                checksum: dev.alloc((p.shape.m / 128) * CHECKSUM_SLOT_WORDS),
                flag: dev.alloc(CHECKSUM_SLOT_WORDS),
            };
            FusedKernelSummation::new(ops, a2, b2, w, v, p.shape, p.bw).with_verify(vb)
        };
        let mut d1 = GpuDevice::gtx970();
        let k1 = build(&mut d1);
        let fast = d1.launch(&k1).unwrap();

        let mut d2 = GpuDevice::gtx970();
        let k2 = build(&mut d2);
        let slow = d2.run_counted(&k2).unwrap();
        assert_eq!(fast.counters, slow.counters);
        assert_eq!(fast.mem, slow.mem);
    }

    /// Fault injection must never perturb performance counters: a
    /// faulty run's profile equals the clean profile except for the
    /// `faults` tally (the goldens therefore stay valid).
    #[test]
    fn faults_leave_performance_counters_untouched() {
        let p = make_problem(
            GemmShape {
                m: 256,
                n: 256,
                k: 16,
            },
            55,
        );
        let run = |dev: &mut GpuDevice| {
            let (ops, a2, b2, w, v) = gpu_setup(dev, &p);
            dev.run_counted(&FusedKernelSummation::new(ops, a2, b2, w, v, p.shape, p.bw))
                .unwrap()
        };
        let mut clean = GpuDevice::gtx970();
        let clean_prof = run(&mut clean);
        let mut faulty = faulty_device("smem=4,reg=4,dram=2", 9);
        let faulty_prof = run(&mut faulty);
        assert_eq!(clean_prof.counters, faulty_prof.counters);
        assert_eq!(clean_prof.mem, faulty_prof.mem);
        assert!(clean_prof.faults.is_empty());
        assert!(!faulty_prof.faults.is_empty());
    }
}
