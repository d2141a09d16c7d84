//! The unfused pipeline stages (Algorithm 1 run as separate kernels).
//!
//! * [`NormsKernel`] — `vecα` / `vecβ`: squared norms of 128 points
//!   per block (lines 3–4).
//! * [`EvalSumKernel`] — the paper's "summation kernel": reads the
//!   GEMM output `C` back from global memory, applies the Gaussian
//!   (line 13) and reduces against `W` (line 16) in one pass. This is
//!   the *strong* unfused baseline: evaluation and GEMV are already
//!   fused with each other; only the GEMM is separate — matching the
//!   paper's two-kernel cuBLAS pipeline (§V-A, Table II note).
//! * [`EvalKernel`] / [`GemvKernel`] — the same work as two passes
//!   (materialising the `K` matrix), kept for the ablation bench that
//!   quantifies what eval/GEMV fusion alone buys.
//!
//! All kernels require `N % 128 == 0` (warps never straddle rows);
//! the paper fixes `N = 1024`.

use ks_gpu_sim::access::{affine_lanes, masked_lanes, AccessSpec, GlobalPattern};
use ks_gpu_sim::buffer::{BufId, GlobalMem};
use ks_gpu_sim::dim::{Dim3, LaunchConfig};
use ks_gpu_sim::exec::{BlockCtx, NamedBlocks};
use ks_gpu_sim::kernel::VecWidth;
use ks_gpu_sim::kernel::{
    AnalysisBudget, BlockClass, BufferUse, ExecModel, Kernel, KernelResources, TimingHints,
};
use ks_gpu_sim::memo::key_of;
use ks_gpu_sim::trace::AccessDir;
use ks_gpu_sim::traffic::{TrafficSink, WarpIdx};

use crate::expf::expf;
use crate::machine::{FunctionalMachine, TrafficMachine, WarpMachine};

/// Gaussian-kernel scale `1 / (2h²)` packaged with the bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    /// The paper's `h`.
    pub h: f32,
}

impl Bandwidth {
    /// `1 / (2h²)`.
    ///
    /// # Panics
    /// Panics if `h` is not finite-positive.
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

/// Gaussian kernel value for a squared distance (shared by every
/// implementation so numerics agree bit-for-bit in the oracles), on
/// the repository's own [`expf`], so the bits do not depend on the
/// host's libm.
#[inline]
#[must_use]
pub fn gaussian(dist_sq: f32, inv_2h2: f32) -> f32 {
    expf(-dist_sq * inv_2h2)
}

// ---------------------------------------------------------------------------
// Norms
// ---------------------------------------------------------------------------

/// Squared norms of `n_points` points stored point-contiguously with
/// `dim` coordinates each (covers both A row-major and B col-major).
pub struct NormsKernel {
    points: BufId,
    out: BufId,
    n_points: usize,
    dim: usize,
    label: &'static str,
}

impl NormsKernel {
    /// Creates the kernel.
    ///
    /// # Panics
    /// Panics unless `n_points % 128 == 0` and `dim % 4 == 0`.
    #[must_use]
    pub fn new(
        points: BufId,
        out: BufId,
        n_points: usize,
        dim: usize,
        label: &'static str,
    ) -> Self {
        assert_eq!(
            n_points % 128,
            0,
            "n_points {n_points} must be a multiple of 128"
        );
        assert_eq!(dim % 4, 0, "dim {dim} must be a multiple of 4");
        Self {
            points,
            out,
            n_points,
            dim,
            label,
        }
    }

    fn body<M: WarpMachine>(&self, block: Dim3, mach: &mut M) {
        let base_point = block.x as usize * 128;
        for w in 0..4 {
            mach.begin_warp(w as u32);
            mach.alu(2);
            let mut acc = [0.0f32; 32];
            for j in (0..self.dim).step_by(4) {
                let idx: WarpIdx = std::array::from_fn(|lane| {
                    let p = base_point + w * 32 + lane;
                    Some(p * self.dim + j)
                });
                let v = mach.ld_global(self.points, &idx, VecWidth::V4);
                mach.ffma(4);
                if M::FUNCTIONAL {
                    for lane in 0..32 {
                        for x in v[lane] {
                            acc[lane] += x * x;
                        }
                    }
                }
            }
            let idx: WarpIdx = std::array::from_fn(|lane| Some(base_point + w * 32 + lane));
            let vals: [[f32; 4]; 32] = std::array::from_fn(|lane| [acc[lane], 0.0, 0.0, 0.0]);
            mach.st_global(self.out, &idx, VecWidth::V1, &vals);
        }
    }
}

impl Kernel for NormsKernel {
    fn name(&self) -> String {
        format!("norms_{}_{}x{}", self.label, self.n_points, self.dim)
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(Dim3::new_1d((self.n_points / 128) as u32), 128u32)
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            threads_per_block: 128,
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

    /// Block by block, each point's `x·x` folded over `dim` in order
    /// from 0.0, as a lane accumulates it; a named block is
    /// interpreted instead.
    fn execute_exact(&self, mem: &GlobalMem, named: NamedBlocks<'_>) -> bool {
        let pts = mem.download(self.points);
        let blocks = pts[..self.n_points * self.dim].chunks_exact(128 * self.dim);
        for (b, block) in (0u32..).zip(blocks) {
            if named.interpret(mem, self, Dim3::new_1d(b), b.into()) {
                continue;
            }
            for (i, x) in block.chunks_exact(self.dim).enumerate() {
                let p = b as usize * 128 + i;
                mem.store(self.out, p, x.iter().fold(0.0f32, |acc, v| acc + v * v));
            }
        }
        true
    }

    fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink) {
        self.body(block, &mut TrafficMachine::new(sink));
    }

    fn access_spec(&self) -> Option<AccessSpec> {
        let mut spec = AccessSpec::default();
        let dim = self.dim;
        for w in 0..4usize {
            spec.global.push(
                GlobalPattern::new(
                    self.points,
                    "points",
                    AccessDir::Read,
                    VecWidth::V4,
                    affine_lanes(|lane| ((w * 32 + lane) * dim) as i64),
                )
                .with_bx((128 * dim) as i64)
                .with_loop(dim.div_ceil(4) as u64, 4),
            );
            spec.global.push(
                GlobalPattern::new(
                    self.out,
                    "norms",
                    AccessDir::Write,
                    VecWidth::V1,
                    affine_lanes(|lane| (w * 32 + lane) as i64),
                )
                .with_bx(128),
            );
        }
        Some(spec)
    }

    fn block_class(&self, block: Dim3) -> Option<BlockClass> {
        // Block x norms points [x·128, x·128+128): reads start at
        // x·128·dim, the output store at x·128.
        let b = block.x as usize;
        Some(BlockClass {
            key: 0,
            anchors: vec![(self.points, b * 128 * self.dim), (self.out, b * 128)],
        })
    }

    fn traffic_key(&self, mem: &GlobalMem) -> Option<u64> {
        let bufs = [self.points, self.out].map(|b| mem.base_addr(b));
        Some(key_of(&("norms", self.n_points, self.dim, bufs)))
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        AnalysisBudget {
            buffers: vec![
                BufferUse {
                    buf: self.points,
                    len: self.n_points * self.dim,
                    writes: false,
                    label: "points",
                },
                BufferUse {
                    buf: self.out,
                    len: self.n_points,
                    writes: true,
                    label: "norms",
                },
            ],
            ..AnalysisBudget::default()
        }
    }
}

// ---------------------------------------------------------------------------
// EvalSum (the unfused "summation kernel")
// ---------------------------------------------------------------------------

/// Row-wise evaluation + reduction: `V_i = Σ_j exp(−(‖α_i‖²+‖β_j‖²−2·C_ij)/(2h²)) · W_j`.
///
/// This is the paper's unfused "summation routine" baseline: the
/// *natural* CUDA implementation assigns **one thread per output row**
/// and walks the row of the row-major `C` serially. Threads of a warp
/// then read the same column of 32 different rows — each 4-byte load
/// touches its own 32-byte sector, an 8× L2-traffic amplification.
/// This is exactly the pathology behind the paper's Fig 2 (high L2
/// MPKI of the cuBLAS pipeline at small K): the un-tuned epilogue, not
/// the GEMM, floods the memory system. [`EvalSumCoalescedKernel`] is
/// the tuned warp-per-row version, kept as an ablation.
pub struct EvalSumKernel {
    c_mat: BufId,
    a2: BufId,
    b2: BufId,
    w: BufId,
    v: BufId,
    m: usize,
    n: usize,
    bw: Bandwidth,
}

impl EvalSumKernel {
    /// Creates the kernel. `c_mat` is M×N row-major.
    ///
    /// # Panics
    /// Panics unless `m % 128 == 0`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        c_mat: BufId,
        a2: BufId,
        b2: BufId,
        w: BufId,
        v: BufId,
        m: usize,
        n: usize,
        bw: Bandwidth,
    ) -> Self {
        assert_eq!(m % 128, 0, "M {m} must be a multiple of 128");
        assert!(n > 0);
        Self {
            c_mat,
            a2,
            b2,
            w,
            v,
            m,
            n,
            bw,
        }
    }

    fn body<M: WarpMachine>(&self, block: Dim3, mach: &mut M) {
        let s = self.bw.inv_2h2();
        for wp in 0..4 {
            mach.begin_warp(wp as u32);
            let row = |lane: usize| block.x as usize * 128 + wp * 32 + lane;
            mach.alu(2);
            // Row norm: one per thread, coalesced.
            let ridx: WarpIdx = std::array::from_fn(|lane| Some(row(lane)));
            let a2v = mach.ld_global(self.a2, &ridx, VecWidth::V1);
            let mut acc = [0.0f32; 32];
            for j in 0..self.n {
                // One column of 32 different rows: 32 scattered sectors.
                let cidx: WarpIdx = std::array::from_fn(|lane| Some(row(lane) * self.n + j));
                let bidx: WarpIdx = std::array::from_fn(|_| Some(j));
                let cv = mach.ld_global(self.c_mat, &cidx, VecWidth::V1);
                let b2v = mach.ld_global(self.b2, &bidx, VecWidth::V1);
                let wv = mach.ld_global(self.w, &bidx, VecWidth::V1);
                // FADD (norm sum), 2 FFMA (arg fold), MUFU (exp),
                // FFMA (×W accumulate).
                mach.falu(1);
                mach.ffma(3);
                mach.sfu(1);
                if M::FUNCTIONAL {
                    for lane in 0..32 {
                        let d = a2v[lane][0] + b2v[lane][0] - 2.0 * cv[lane][0];
                        acc[lane] += gaussian(d, s) * wv[lane][0];
                    }
                }
            }
            let vals: [[f32; 4]; 32] = std::array::from_fn(|lane| [acc[lane], 0.0, 0.0, 0.0]);
            mach.st_global(self.v, &ridx, VecWidth::V1, &vals);
        }
    }
}

impl Kernel for EvalSumKernel {
    fn name(&self) -> String {
        format!("eval_sum_{}x{}", self.m, self.n)
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(Dim3::new_1d((self.m / 128) as u32), 128u32)
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            threads_per_block: 128,
            regs_per_thread: 32,
            smem_bytes_per_block: 0,
        }
    }

    fn timing_hints(&self) -> TimingHints {
        TimingHints {
            exec_model: ExecModel::CudaC,
            mlp: 2.0,
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
        let n = self.n;
        for wp in 0..4usize {
            let row = |lane: usize| (wp * 32 + lane) as i64;
            spec.global.push(
                GlobalPattern::new(
                    self.a2,
                    "a2",
                    AccessDir::Read,
                    VecWidth::V1,
                    affine_lanes(row),
                )
                .with_bx(128),
            );
            // The uncoalesced walk: one column of 32 different rows
            // per iteration — the Fig 2 pathology, declared as-is.
            spec.global.push(
                GlobalPattern::new(
                    self.c_mat,
                    "C",
                    AccessDir::Read,
                    VecWidth::V1,
                    affine_lanes(|lane| row(lane) * n as i64),
                )
                .with_bx(128 * n as i64)
                .with_loop(n as u64, 1),
            );
            for (buf, label) in [(self.b2, "b2"), (self.w, "W")] {
                spec.global.push(
                    GlobalPattern::new(
                        buf,
                        label,
                        AccessDir::Read,
                        VecWidth::V1,
                        affine_lanes(|_| 0),
                    )
                    .with_loop(n as u64, 1),
                );
            }
            spec.global.push(
                GlobalPattern::new(
                    self.v,
                    "V",
                    AccessDir::Write,
                    VecWidth::V1,
                    affine_lanes(row),
                )
                .with_bx(128),
            );
        }
        Some(spec)
    }

    fn block_class(&self, block: Dim3) -> Option<BlockClass> {
        // Block x covers rows [x·128, x·128+128): C reads start at
        // x·128·n, the row norms and output at x·128; b2/W are read at
        // block-independent addresses (delta 0, so left unanchored).
        let b = block.x as usize;
        Some(BlockClass {
            key: 0,
            anchors: vec![
                (self.c_mat, b * 128 * self.n),
                (self.a2, b * 128),
                (self.v, b * 128),
            ],
        })
    }

    /// The bandwidth enters the numerics only.
    fn traffic_key(&self, mem: &GlobalMem) -> Option<u64> {
        let bufs = [self.c_mat, self.a2, self.b2, self.w, self.v].map(|b| mem.base_addr(b));
        Some(key_of(&("eval_sum", self.m, self.n, bufs)))
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        AnalysisBudget {
            buffers: eval_sum_buffers(self.c_mat, self.a2, self.b2, self.w, self.v, self.m, self.n),
            ..AnalysisBudget::default()
        }
    }
}

/// Shared buffer-extent declaration for the two eval+sum variants.
fn eval_sum_buffers(
    c_mat: BufId,
    a2: BufId,
    b2: BufId,
    w: BufId,
    v: BufId,
    m: usize,
    n: usize,
) -> Vec<BufferUse> {
    vec![
        BufferUse {
            buf: c_mat,
            len: m * n,
            writes: false,
            label: "C",
        },
        BufferUse {
            buf: a2,
            len: m,
            writes: false,
            label: "a2",
        },
        BufferUse {
            buf: b2,
            len: n,
            writes: false,
            label: "b2",
        },
        BufferUse {
            buf: w,
            len: n,
            writes: false,
            label: "W",
        },
        BufferUse {
            buf: v,
            len: m,
            writes: true,
            label: "V",
        },
    ]
}

/// Tuned warp-per-row evaluation + reduction (ablation: what the
/// unfused baseline becomes if its epilogue is also hand-optimised
/// with `float4` loads and warp shuffles).
pub struct EvalSumCoalescedKernel {
    c_mat: BufId,
    a2: BufId,
    b2: BufId,
    w: BufId,
    v: BufId,
    m: usize,
    n: usize,
    bw: Bandwidth,
}

impl EvalSumCoalescedKernel {
    /// Creates the kernel. `c_mat` is M×N row-major.
    ///
    /// # Panics
    /// Panics unless `m % 8 == 0` and `n % 128 == 0`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        c_mat: BufId,
        a2: BufId,
        b2: BufId,
        w: BufId,
        v: BufId,
        m: usize,
        n: usize,
        bw: Bandwidth,
    ) -> Self {
        assert_eq!(m % 8, 0, "M {m} must be a multiple of 8");
        assert_eq!(n % 128, 0, "N {n} must be a multiple of 128");
        Self {
            c_mat,
            a2,
            b2,
            w,
            v,
            m,
            n,
            bw,
        }
    }

    fn body<M: WarpMachine>(&self, block: Dim3, mach: &mut M) {
        let s = self.bw.inv_2h2();
        for w in 0..8 {
            mach.begin_warp(w as u32);
            let row = block.x as usize * 8 + w;
            mach.alu(2);
            // Broadcast load of the row norm.
            let a2v = mach.ld_global(self.a2, &std::array::from_fn(|_| Some(row)), VecWidth::V1);
            let mut acc = [0.0f32; 32];
            for j0 in (0..self.n).step_by(128) {
                let col = |lane: usize| j0 + 4 * lane;
                let cidx: WarpIdx = std::array::from_fn(|lane| Some(row * self.n + col(lane)));
                let vidx: WarpIdx = std::array::from_fn(|lane| Some(col(lane)));
                let cv = mach.ld_global(self.c_mat, &cidx, VecWidth::V4);
                let b2v = mach.ld_global(self.b2, &vidx, VecWidth::V4);
                let wv = mach.ld_global(self.w, &vidx, VecWidth::V4);
                mach.falu(4);
                mach.ffma(12);
                mach.sfu(4);
                if M::FUNCTIONAL {
                    for lane in 0..32 {
                        for e in 0..4 {
                            let d = a2v[lane][0] + b2v[lane][e] - 2.0 * cv[lane][e];
                            acc[lane] += gaussian(d, s) * wv[lane][e];
                        }
                    }
                }
            }
            // Warp tree-reduction: 5 shuffle+add rounds.
            mach.alu(5);
            mach.falu(5);
            let mut one_lane: WarpIdx = [None; 32];
            one_lane[0] = Some(row);
            let mut vals = [[0.0f32; 4]; 32];
            if M::FUNCTIONAL {
                vals[0][0] = acc.iter().sum();
            }
            mach.st_global(self.v, &one_lane, VecWidth::V1, &vals);
        }
    }
}

impl Kernel for EvalSumCoalescedKernel {
    fn name(&self) -> String {
        format!("eval_sum_coalesced_{}x{}", self.m, self.n)
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(Dim3::new_1d((self.m / 8) as u32), 256u32)
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            threads_per_block: 256,
            regs_per_thread: 32,
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
        let n = self.n;
        let strips = (n / 128) as u64;
        for w in 0..8usize {
            spec.global.push(
                GlobalPattern::new(
                    self.a2,
                    "a2",
                    AccessDir::Read,
                    VecWidth::V1,
                    affine_lanes(|_| w as i64),
                )
                .with_bx(8),
            );
            spec.global.push(
                GlobalPattern::new(
                    self.c_mat,
                    "C",
                    AccessDir::Read,
                    VecWidth::V4,
                    affine_lanes(|lane| (w * n + 4 * lane) as i64),
                )
                .with_bx(8 * n as i64)
                .with_loop(strips, 128),
            );
            for (buf, label) in [(self.b2, "b2"), (self.w, "W")] {
                spec.global.push(
                    GlobalPattern::new(
                        buf,
                        label,
                        AccessDir::Read,
                        VecWidth::V4,
                        affine_lanes(|lane| (4 * lane) as i64),
                    )
                    .with_loop(strips, 128),
                );
            }
            spec.global.push(
                GlobalPattern::new(
                    self.v,
                    "V",
                    AccessDir::Write,
                    VecWidth::V1,
                    masked_lanes(|lane| (lane == 0).then_some(w as i64)),
                )
                .with_bx(8),
            );
        }
        Some(spec)
    }

    fn block_class(&self, block: Dim3) -> Option<BlockClass> {
        // Block x covers rows [x·8, x·8+8): C reads start at x·8·n,
        // the row norms and output at x·8 (32 bytes — exactly one
        // sector, so translations stay aligned).
        let b = block.x as usize;
        Some(BlockClass {
            key: 0,
            anchors: vec![
                (self.c_mat, b * 8 * self.n),
                (self.a2, b * 8),
                (self.v, b * 8),
            ],
        })
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        AnalysisBudget {
            buffers: eval_sum_buffers(self.c_mat, self.a2, self.b2, self.w, self.v, self.m, self.n),
            ..AnalysisBudget::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Two-pass variants (ablation)
// ---------------------------------------------------------------------------

/// Element-wise Gaussian evaluation: `K_ij = exp(−(‖α_i‖²+‖β_j‖²−2·C_ij)/(2h²))`,
/// written to `k_mat` (may alias `c_mat` — in-place is what a real
/// two-pass implementation does).
pub struct EvalKernel {
    c_mat: BufId,
    k_mat: BufId,
    a2: BufId,
    b2: BufId,
    m: usize,
    n: usize,
    bw: Bandwidth,
}

impl EvalKernel {
    /// Creates the kernel.
    ///
    /// # Panics
    /// Panics unless `n % 128 == 0` and `(m·n) % 1024 == 0`.
    #[must_use]
    pub fn new(
        c_mat: BufId,
        k_mat: BufId,
        a2: BufId,
        b2: BufId,
        m: usize,
        n: usize,
        bw: Bandwidth,
    ) -> Self {
        assert_eq!(n % 128, 0, "N {n} must be a multiple of 128");
        assert_eq!((m * n) % 1024, 0, "M·N must be a multiple of 1024");
        Self {
            c_mat,
            k_mat,
            a2,
            b2,
            m,
            n,
            bw,
        }
    }

    fn body<M: WarpMachine>(&self, block: Dim3, mach: &mut M) {
        let s = self.bw.inv_2h2();
        for w in 0..8 {
            mach.begin_warp(w as u32);
            let base = block.x as usize * 1024 + w * 128;
            let row = base / self.n;
            mach.alu(2);
            let a2v = mach.ld_global(self.a2, &std::array::from_fn(|_| Some(row)), VecWidth::V1);
            let eidx: WarpIdx = std::array::from_fn(|lane| Some(base + 4 * lane));
            let vidx: WarpIdx = std::array::from_fn(|lane| Some((base + 4 * lane) % self.n));
            let cv = mach.ld_global(self.c_mat, &eidx, VecWidth::V4);
            let b2v = mach.ld_global(self.b2, &vidx, VecWidth::V4);
            mach.falu(4);
            mach.ffma(8);
            mach.sfu(4);
            let out: [[f32; 4]; 32] = if M::FUNCTIONAL {
                std::array::from_fn(|lane| {
                    std::array::from_fn(|e| {
                        let d = a2v[lane][0] + b2v[lane][e] - 2.0 * cv[lane][e];
                        gaussian(d, s)
                    })
                })
            } else {
                [[0.0; 4]; 32]
            };
            mach.st_global(self.k_mat, &eidx, VecWidth::V4, &out);
        }
    }
}

impl Kernel for EvalKernel {
    fn name(&self) -> String {
        format!("eval_{}x{}", self.m, self.n)
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(Dim3::new_1d((self.m * self.n / 1024) as u32), 256u32)
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
        // The element-linear walk (`base + 4·lane` over C/K) is always
        // affine, but the row-norm broadcast (`base / n`) and the
        // wrapped column index (`(base + 4·lane) mod n`) are affine in
        // `bx` only when n divides the 1024-element block stripe — then
        // `bx·1024` vanishes mod n and divides exactly. Otherwise the
        // patterns are declared honestly as indirect and the analyzer
        // falls back to the dynamic lint.
        let n = self.n;
        let affine = 1024 % n == 0;
        let mut spec = AccessSpec::default();
        for w in 0..8usize {
            let base = w * 128;
            let mut a2p = GlobalPattern::new(
                self.a2,
                "a2",
                AccessDir::Read,
                VecWidth::V1,
                affine_lanes(|_| (base / n) as i64),
            );
            let mut b2p = GlobalPattern::new(
                self.b2,
                "b2",
                AccessDir::Read,
                VecWidth::V4,
                affine_lanes(|lane| ((base + 4 * lane) % n) as i64),
            );
            if affine {
                a2p = a2p.with_bx((1024 / n) as i64);
            } else {
                a2p = a2p.into_indirect();
                b2p = b2p.into_indirect();
            }
            spec.global.push(a2p);
            spec.global.push(b2p);
            spec.global.push(
                GlobalPattern::new(
                    self.c_mat,
                    "C",
                    AccessDir::Read,
                    VecWidth::V4,
                    affine_lanes(|lane| (base + 4 * lane) as i64),
                )
                .with_bx(1024),
            );
            spec.global.push(
                GlobalPattern::new(
                    self.k_mat,
                    "K",
                    AccessDir::Write,
                    VecWidth::V4,
                    affine_lanes(|lane| (base + 4 * lane) as i64),
                )
                .with_bx(1024),
            );
        }
        Some(spec)
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        AnalysisBudget {
            buffers: vec![
                BufferUse {
                    buf: self.c_mat,
                    len: self.m * self.n,
                    writes: false,
                    label: "C",
                },
                BufferUse {
                    buf: self.k_mat,
                    len: self.m * self.n,
                    writes: true,
                    label: "K",
                },
                BufferUse {
                    buf: self.a2,
                    len: self.m,
                    writes: false,
                    label: "a2",
                },
                BufferUse {
                    buf: self.b2,
                    len: self.n,
                    writes: false,
                    label: "b2",
                },
            ],
            ..AnalysisBudget::default()
        }
    }
}

/// Plain GEMV reduction: `V_i = Σ_j K_ij · W_j` (second pass of the
/// two-pass ablation).
pub struct GemvKernel {
    k_mat: BufId,
    w: BufId,
    v: BufId,
    m: usize,
    n: usize,
}

impl GemvKernel {
    /// Creates the kernel.
    ///
    /// # Panics
    /// Panics unless `m % 8 == 0` and `n % 128 == 0`.
    #[must_use]
    pub fn new(k_mat: BufId, w: BufId, v: BufId, m: usize, n: usize) -> Self {
        assert_eq!(m % 8, 0, "M {m} must be a multiple of 8");
        assert_eq!(n % 128, 0, "N {n} must be a multiple of 128");
        Self { k_mat, w, v, m, n }
    }

    fn body<M: WarpMachine>(&self, block: Dim3, mach: &mut M) {
        for w in 0..8 {
            mach.begin_warp(w as u32);
            let row = block.x as usize * 8 + w;
            mach.alu(2);
            let mut acc = [0.0f32; 32];
            for j0 in (0..self.n).step_by(128) {
                let kidx: WarpIdx = std::array::from_fn(|lane| Some(row * self.n + j0 + 4 * lane));
                let vidx: WarpIdx = std::array::from_fn(|lane| Some(j0 + 4 * lane));
                let kv = mach.ld_global(self.k_mat, &kidx, VecWidth::V4);
                let wv = mach.ld_global(self.w, &vidx, VecWidth::V4);
                mach.ffma(4);
                if M::FUNCTIONAL {
                    for lane in 0..32 {
                        for e in 0..4 {
                            acc[lane] += kv[lane][e] * wv[lane][e];
                        }
                    }
                }
            }
            mach.alu(5);
            mach.falu(5);
            let mut one_lane: WarpIdx = [None; 32];
            one_lane[0] = Some(row);
            let mut vals = [[0.0f32; 4]; 32];
            if M::FUNCTIONAL {
                vals[0][0] = acc.iter().sum();
            }
            mach.st_global(self.v, &one_lane, VecWidth::V1, &vals);
        }
    }
}

impl Kernel for GemvKernel {
    fn name(&self) -> String {
        format!("gemv_{}x{}", self.m, self.n)
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(Dim3::new_1d((self.m / 8) as u32), 256u32)
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
        let n = self.n;
        let strips = (n / 128) as u64;
        for w in 0..8usize {
            spec.global.push(
                GlobalPattern::new(
                    self.k_mat,
                    "K",
                    AccessDir::Read,
                    VecWidth::V4,
                    affine_lanes(|lane| (w * n + 4 * lane) as i64),
                )
                .with_bx(8 * n as i64)
                .with_loop(strips, 128),
            );
            spec.global.push(
                GlobalPattern::new(
                    self.w,
                    "W",
                    AccessDir::Read,
                    VecWidth::V4,
                    affine_lanes(|lane| (4 * lane) as i64),
                )
                .with_loop(strips, 128),
            );
            spec.global.push(
                GlobalPattern::new(
                    self.v,
                    "V",
                    AccessDir::Write,
                    VecWidth::V1,
                    masked_lanes(|lane| (lane == 0).then_some(w as i64)),
                )
                .with_bx(8),
            );
        }
        Some(spec)
    }

    fn block_class(&self, block: Dim3) -> Option<BlockClass> {
        // Block x reduces rows [x·8, x·8+8) of K against the shared W.
        let b = block.x as usize;
        Some(BlockClass {
            key: 0,
            anchors: vec![(self.k_mat, b * 8 * self.n), (self.v, b * 8)],
        })
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        AnalysisBudget {
            buffers: vec![
                BufferUse {
                    buf: self.k_mat,
                    len: self.m * self.n,
                    writes: false,
                    label: "K",
                },
                BufferUse {
                    buf: self.w,
                    len: self.n,
                    writes: false,
                    label: "W",
                },
                BufferUse {
                    buf: self.v,
                    len: self.m,
                    writes: true,
                    label: "V",
                },
            ],
            ..AnalysisBudget::default()
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

    #[test]
    fn norms_kernel_matches_cpu() {
        let (n_points, dim) = (256, 16);
        let mut next = lcg(5);
        let pts: Vec<f32> = (0..n_points * dim).map(|_| next()).collect();
        let mut dev = GpuDevice::gtx970();
        let p = dev.upload(&pts);
        let out = dev.alloc(n_points);
        dev.run(&NormsKernel::new(p, out, n_points, dim, "a"))
            .unwrap();
        let got = dev.download(out);
        for i in 0..n_points {
            let want: f32 = pts[i * dim..(i + 1) * dim].iter().map(|v| v * v).sum();
            assert!(
                (got[i] - want).abs() < 1e-4 * want.max(1.0),
                "{} vs {}",
                got[i],
                want
            );
        }
    }

    #[test]
    fn eval_sum_matches_cpu() {
        let (m, n) = (128, 96);
        let bw = Bandwidth { h: 0.8 };
        let mut next = lcg(6);
        let c: Vec<f32> = (0..m * n).map(|_| next()).collect();
        let a2: Vec<f32> = (0..m).map(|_| next().abs()).collect();
        let b2: Vec<f32> = (0..n).map(|_| next().abs()).collect();
        let wv: Vec<f32> = (0..n).map(|_| next()).collect();
        let mut dev = GpuDevice::gtx970();
        let (bc, ba2, bb2, bw_buf, bv) = (
            dev.upload(&c),
            dev.upload(&a2),
            dev.upload(&b2),
            dev.upload(&wv),
            dev.alloc(m),
        );
        dev.run(&EvalSumKernel::new(bc, ba2, bb2, bw_buf, bv, m, n, bw))
            .unwrap();
        let got = dev.download(bv);
        let s = bw.inv_2h2();
        for i in 0..m {
            let want: f32 = (0..n)
                .map(|j| gaussian(a2[i] + b2[j] - 2.0 * c[i * n + j], s) * wv[j])
                .sum();
            assert!(
                (got[i] - want).abs() < 1e-4 * want.abs().max(1.0),
                "row {i}: {} vs {}",
                got[i],
                want
            );
        }
    }

    #[test]
    fn two_pass_matches_eval_sum() {
        let (m, n) = (128, 128);
        let bw = Bandwidth { h: 1.1 };
        let mut next = lcg(9);
        let c: Vec<f32> = (0..m * n).map(|_| next()).collect();
        let a2: Vec<f32> = (0..m).map(|_| next().abs()).collect();
        let b2: Vec<f32> = (0..n).map(|_| next().abs()).collect();
        let wv: Vec<f32> = (0..n).map(|_| next()).collect();

        let mut dev = GpuDevice::gtx970();
        let (bc, ba2, bb2, bw_buf) = (
            dev.upload(&c),
            dev.upload(&a2),
            dev.upload(&b2),
            dev.upload(&wv),
        );
        let v1 = dev.alloc(m);
        dev.run(&EvalSumKernel::new(bc, ba2, bb2, bw_buf, v1, m, n, bw))
            .unwrap();

        let bk = dev.alloc(m * n);
        let v2 = dev.alloc(m);
        dev.run(&EvalKernel::new(bc, bk, ba2, bb2, m, n, bw))
            .unwrap();
        dev.run(&GemvKernel::new(bk, bw_buf, v2, m, n)).unwrap();

        let one = dev.download(v1);
        let two = dev.download(v2);
        for (a, b) in one.iter().zip(two.iter()) {
            assert!((a - b).abs() < 1e-5 * a.abs().max(1.0));
        }
    }

    #[test]
    fn coalesced_eval_sum_matches_naive_values() {
        let (m, n) = (128, 128);
        let bw = Bandwidth { h: 0.7 };
        let mut next = lcg(31);
        let c: Vec<f32> = (0..m * n).map(|_| next()).collect();
        let a2: Vec<f32> = (0..m).map(|_| next().abs()).collect();
        let b2: Vec<f32> = (0..n).map(|_| next().abs()).collect();
        let wv: Vec<f32> = (0..n).map(|_| next()).collect();
        let mut dev = GpuDevice::gtx970();
        let (bc, ba2, bb2, bw_buf) = (
            dev.upload(&c),
            dev.upload(&a2),
            dev.upload(&b2),
            dev.upload(&wv),
        );
        let (v1, v2) = (dev.alloc(m), dev.alloc(m));
        dev.run(&EvalSumKernel::new(bc, ba2, bb2, bw_buf, v1, m, n, bw))
            .unwrap();
        dev.run(&EvalSumCoalescedKernel::new(
            bc, ba2, bb2, bw_buf, v2, m, n, bw,
        ))
        .unwrap();
        let one = dev.download(v1);
        let two = dev.download(v2);
        for (a, b) in one.iter().zip(two.iter()) {
            assert!((a - b).abs() < 1e-4 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn naive_eval_sum_amplifies_l2_traffic_8x() {
        // The uncoalesced baseline touches one 32B sector per 4B load;
        // the coalesced version touches each sector once per 8 floats.
        let (m, n) = (256, 1024);
        let mk = |coalesced: bool| {
            let mut dev = GpuDevice::gtx970();
            let bc = dev.alloc_virtual(m * n);
            let (ba2, bb2, bw_buf, bv) = (
                dev.alloc_virtual(m),
                dev.alloc_virtual(n),
                dev.alloc_virtual(n),
                dev.alloc_virtual(m),
            );
            let bw = Bandwidth { h: 1.0 };
            if coalesced {
                dev.launch(&EvalSumCoalescedKernel::new(
                    bc, ba2, bb2, bw_buf, bv, m, n, bw,
                ))
                .unwrap()
            } else {
                dev.launch(&EvalSumKernel::new(bc, ba2, bb2, bw_buf, bv, m, n, bw))
                    .unwrap()
            }
        };
        let naive = mk(false);
        let coal = mk(true);
        let ratio = naive.mem.l2_reads as f64 / coal.mem.l2_reads as f64;
        // C-only amplification is 8×; the broadcast b2/W loads dilute
        // the pipeline-level ratio to ~2.8.
        assert!(ratio > 2.5, "L2 amplification ratio {ratio}");
        // But unique DRAM traffic is similar (L2 absorbs the re-reads).
        let dram_ratio = naive.mem.dram_reads() as f64 / coal.mem.dram_reads() as f64;
        assert!(dram_ratio < 1.5, "DRAM ratio {dram_ratio}");
    }

    #[test]
    fn eval_sum_traffic_reads_whole_c_matrix() {
        let (m, n) = (128, 1024);
        let mut dev = GpuDevice::gtx970();
        let bc = dev.alloc(m * n);
        let (ba2, bb2, bw_buf, bv) = (dev.alloc(m), dev.alloc(n), dev.alloc(n), dev.alloc(m));
        let p = dev
            .launch(&EvalSumKernel::new(
                bc,
                ba2,
                bb2,
                bw_buf,
                bv,
                m,
                n,
                Bandwidth { h: 1.0 },
            ))
            .unwrap();
        // C is m*n*4 bytes = m*n/8 sectors, all cold misses.
        let c_sectors = (m * n / 8) as u64;
        assert!(
            p.mem.dram_reads() >= c_sectors,
            "dram reads {} < C sectors {c_sectors}",
            p.mem.dram_reads()
        );
        // b2/w re-reads must mostly hit L2.
        assert!(p.mem.l2_reads > c_sectors);
        assert!((p.mem.dram_reads() as f64) < 1.1 * c_sectors as f64);
    }

    #[test]
    fn gaussian_kernel_basics() {
        let s = Bandwidth { h: 1.0 }.inv_2h2();
        assert_eq!(gaussian(0.0, s), 1.0);
        assert!(gaussian(10.0, s) < gaussian(1.0, s));
        assert!((Bandwidth { h: 2.0 }.inv_2h2() - 0.125).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "multiple of 128")]
    fn norms_rejects_bad_point_count() {
        let mut dev = GpuDevice::gtx970();
        let p = dev.alloc(100 * 4);
        let out = dev.alloc(100);
        let _ = NormsKernel::new(p, out, 100, 4, "bad");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bandwidth_rejects_zero_h() {
        let _ = Bandwidth { h: 0.0 }.inv_2h2();
    }
}
