//! Seeded-broken kernels used to prove the detectors actually fire.
//!
//! Shipping a race detector that has only ever been run on correct
//! kernels proves nothing, so this module deliberately re-creates the
//! two §III bug classes the paper's design rules out:
//!
//! * [`BrokenFusedGemm`] — the double-buffered GEMM pipeline with one
//!   `__syncthreads()` swallowed ([`DropNthSync`]), merging a load
//!   epoch into the preceding compute epoch: a read-write race.
//! * [`Stride16Kernel`] — a stride-16 shared-memory placement, the
//!   layout pathology Fig. 5's swizzle exists to prevent: 16-way bank
//!   conflicts against a declared budget of zero.

use ks_gpu_sim::access::{affine_lanes, AccessSpec, GlobalPattern, SharedPattern};
use ks_gpu_sim::buffer::{BufId, GlobalMem};
use ks_gpu_sim::dim::{Dim3, LaunchConfig};
use ks_gpu_sim::exec::BlockCtx;
use ks_gpu_sim::kernel::{AnalysisBudget, BufferUse, Kernel, KernelResources, VecWidth};
use ks_gpu_sim::trace::AccessDir;
use ks_gpu_sim::traffic::{TrafficSink, WarpIdx};

use crate::runner::Probe;

use ks_gpu_kernels::gemm_engine::{self, AccGrid, GemmOperands, GemmShape, SmemMap};
use ks_gpu_kernels::layout::SmemLayout;
use ks_gpu_kernels::machine::{FunctionalMachine, TrafficMachine, WarpMachine};
use ks_gpu_kernels::sgemm::GEMM_REGS_PER_THREAD;
use ks_gpu_kernels::TileGeometry;

/// Warp-machine wrapper that forwards everything except the `nth`
/// `syncthreads` (0-based), which it silently swallows — the
/// trace-level model of deleting one barrier from a kernel.
pub struct DropNthSync<M> {
    inner: M,
    nth: usize,
    seen: usize,
}

impl<M> DropNthSync<M> {
    /// Wraps `inner`, dropping barrier number `nth`.
    pub fn new(inner: M, nth: usize) -> Self {
        Self {
            inner,
            nth,
            seen: 0,
        }
    }
}

impl<M: WarpMachine> WarpMachine for DropNthSync<M> {
    const FUNCTIONAL: bool = M::FUNCTIONAL;

    fn begin_warp(&mut self, warp: u32) {
        self.inner.begin_warp(warp);
    }
    fn ld_global(&mut self, buf: BufId, idx: &WarpIdx, vlen: VecWidth) -> [[f32; 4]; 32] {
        self.inner.ld_global(buf, idx, vlen)
    }
    fn st_global(&mut self, buf: BufId, idx: &WarpIdx, vlen: VecWidth, vals: &[[f32; 4]; 32]) {
        self.inner.st_global(buf, idx, vlen, vals);
    }
    fn atomic_add(&mut self, buf: BufId, idx: &WarpIdx, vals: &[f32; 32]) {
        self.inner.atomic_add(buf, idx, vals);
    }
    fn ld_shared(&mut self, word: &[Option<u32>; 32], vlen: VecWidth) -> [[f32; 4]; 32] {
        self.inner.ld_shared(word, vlen)
    }
    fn st_shared(&mut self, word: &[Option<u32>; 32], vlen: VecWidth, vals: &[[f32; 4]; 32]) {
        self.inner.st_shared(word, vlen, vals);
    }
    fn ffma(&mut self, n: u64) {
        self.inner.ffma(n);
    }
    fn falu(&mut self, n: u64) {
        self.inner.falu(n);
    }
    fn alu(&mut self, n: u64) {
        self.inner.alu(n);
    }
    fn sfu(&mut self, n: u64) {
        self.inner.sfu(n);
    }
    fn syncthreads(&mut self, warps: u64) {
        let idx = self.seen;
        self.seen += 1;
        if idx == self.nth {
            return;
        }
        self.inner.syncthreads(warps);
    }
}

/// The shared double-buffered GEMM block with barrier `drop_sync`
/// removed. Dropping barrier 0 (after the prologue load) lets the
/// tile-1 loads and the tile-0 compute share one epoch: the loader
/// warps' stores race with every warp's reads of the *other* buffer
/// only at the barrier — and with their own buffer immediately.
pub struct BrokenFusedGemm {
    ops: GemmOperands,
    shape: GemmShape,
    /// Which `syncthreads` to drop (0-based).
    pub drop_sync: usize,
}

impl BrokenFusedGemm {
    /// Creates the fixture.
    #[must_use]
    pub fn new(ops: GemmOperands, shape: GemmShape, drop_sync: usize) -> Self {
        shape.validate();
        Self {
            ops,
            shape,
            drop_sync,
        }
    }

    fn body<M: WarpMachine>(&self, block: Dim3, mach: M, acc: &mut AccGrid) {
        let mut broken = DropNthSync::new(mach, self.drop_sync);
        gemm_engine::gemm_block(
            &mut broken,
            &TileGeometry::paper_default(),
            &self.ops,
            &self.shape,
            SmemLayout::Swizzled,
            block.x as usize,
            block.y as usize,
            acc,
            false,
        );
    }
}

impl Kernel for BrokenFusedGemm {
    fn name(&self) -> String {
        format!("broken_fused_drop_sync{}", self.drop_sync)
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(self.shape.grid(), (16u32, 16u32))
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            threads_per_block: 256,
            regs_per_thread: GEMM_REGS_PER_THREAD,
            smem_bytes_per_block: SmemMap::new(true).bytes(),
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
        let mut acc = AccGrid::for_geometry(&TileGeometry::paper_default());
        self.body(block, FunctionalMachine::new(ctx), &mut acc);
    }

    fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink) {
        let mut acc = AccGrid::empty(&TileGeometry::paper_default());
        self.body(block, TrafficMachine::new(sink), &mut acc);
    }
}

/// A kernel staging data with a stride-16 shared layout: lane `l` of
/// every warp touches word `warp·512 + 16·l`, hitting only banks 0 and
/// 16 — a 16-way conflict on every access, against the default budget
/// of zero.
pub struct Stride16Kernel {
    buf: BufId,
    n: usize,
}

impl Stride16Kernel {
    /// Creates the fixture over a buffer of `n >= 2048` elements.
    #[must_use]
    pub fn new(buf: BufId, n: usize) -> Self {
        assert!(n >= 2048, "need at least one element per thread");
        Self { buf, n }
    }

    fn body<M: WarpMachine>(&self, block: Dim3, mach: &mut M) {
        for w in 0..8u32 {
            mach.begin_warp(w);
            let idx: WarpIdx =
                std::array::from_fn(|l| Some(block.x as usize * 2048 + w as usize * 32 + l));
            let v = mach.ld_global(self.buf, &idx, VecWidth::V1);
            // Disjoint words per warp (no races) but stride 16 within
            // the warp: banks (512w + 16l) mod 32 ∈ {0, 16}.
            let words: [Option<u32>; 32] = std::array::from_fn(|l| Some(w * 512 + 16 * l as u32));
            mach.st_shared(&words, VecWidth::V1, &v);
            let _ = mach.ld_shared(&words, VecWidth::V1);
        }
    }
}

impl Kernel for Stride16Kernel {
    fn name(&self) -> String {
        "stride16_smem".to_string()
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new((self.n / 2048) as u32, 256u32)
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            threads_per_block: 256,
            regs_per_thread: 16,
            smem_bytes_per_block: 8 * 512 * 4,
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
        for w in 0..8u32 {
            spec.global.push(
                GlobalPattern::new(
                    self.buf,
                    "data",
                    AccessDir::Read,
                    VecWidth::V1,
                    affine_lanes(|l| i64::from(w) * 32 + l as i64),
                )
                .with_bx(2048),
            );
            let words: [Option<u32>; 32] = std::array::from_fn(|l| Some(w * 512 + 16 * l as u32));
            spec.shared
                .push(SharedPattern::new(words, VecWidth::V1, AccessDir::Write));
            spec.shared
                .push(SharedPattern::new(words, VecWidth::V1, AccessDir::Read));
        }
        Some(spec)
    }
}

/// A kernel whose access pattern provably escapes its declared buffer
/// extent: each block reads 256 contiguous elements, but the declared
/// [`BufferUse`] extent is 64 elements short of what the grid covers.
/// Both the static bounds proof (index hull vs extent) and the dynamic
/// trace check (observed indices vs extent) must flag it.
pub struct OverrunKernel {
    buf: BufId,
    n: usize,
}

impl OverrunKernel {
    /// Creates the fixture over a buffer of `n` elements (a multiple
    /// of 256, at least 512 so the overrunning block is traced).
    #[must_use]
    pub fn new(buf: BufId, n: usize) -> Self {
        assert!(n >= 512 && n.is_multiple_of(256), "need a multi-block grid");
        Self { buf, n }
    }

    fn body<M: WarpMachine>(&self, block: Dim3, mach: &mut M) {
        for w in 0..8usize {
            mach.begin_warp(w as u32);
            let idx: WarpIdx = std::array::from_fn(|l| Some(block.x as usize * 256 + w * 32 + l));
            let _ = mach.ld_global(self.buf, &idx, VecWidth::V1);
        }
    }
}

impl Kernel for OverrunKernel {
    fn name(&self) -> String {
        "overrun_reader".to_string()
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new((self.n / 256) as u32, 256u32)
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            threads_per_block: 256,
            regs_per_thread: 16,
            smem_bytes_per_block: 0,
        }
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        AnalysisBudget {
            buffers: vec![BufferUse {
                buf: self.buf,
                len: self.n - 64,
                writes: false,
                label: "data",
            }],
            ..AnalysisBudget::default()
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
        for w in 0..8usize {
            spec.global.push(
                GlobalPattern::new(
                    self.buf,
                    "data",
                    AccessDir::Read,
                    VecWidth::V1,
                    affine_lanes(|l| (w * 32 + l) as i64),
                )
                .with_bx(256),
            );
        }
        Some(spec)
    }
}

/// Static-only fixture with a genuinely data-dependent gather (a
/// modular permutation the affine IR cannot express). Its spec
/// honestly marks the pattern [`GlobalPattern::indirect`], which must
/// force the analyzer's downgrade to the dynamic lint — never a
/// silent static pass.
pub struct IndirectGatherKernel {
    buf: BufId,
    n: usize,
}

impl IndirectGatherKernel {
    /// Creates the fixture over a buffer of `n >= 256` elements.
    #[must_use]
    pub fn new(buf: BufId, n: usize) -> Self {
        assert!(n >= 256, "need one element per thread");
        Self { buf, n }
    }

    fn body<M: WarpMachine>(&self, block: Dim3, mach: &mut M) {
        for w in 0..4usize {
            mach.begin_warp(w as u32);
            // In-bounds but non-affine: a stride-37 modular walk.
            let idx: WarpIdx = std::array::from_fn(|l| {
                Some((block.x as usize * 128 + (w * 32 + l) * 37) % self.n)
            });
            let _ = mach.ld_global(self.buf, &idx, VecWidth::V1);
        }
    }
}

impl Kernel for IndirectGatherKernel {
    fn name(&self) -> String {
        "indirect_gather".to_string()
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(2u32, 128u32)
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            threads_per_block: 128,
            regs_per_thread: 16,
            smem_bytes_per_block: 0,
        }
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        AnalysisBudget {
            buffers: vec![BufferUse {
                buf: self.buf,
                len: self.n,
                writes: false,
                label: "data",
            }],
            ..AnalysisBudget::default()
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
        // The lane values here are placeholders; `indirect` tells the
        // analyzer not to trust them.
        spec.global.push(
            GlobalPattern::new(
                self.buf,
                "data",
                AccessDir::Read,
                VecWidth::V1,
                affine_lanes(|l| l as i64),
            )
            .into_indirect(),
        );
        Some(spec)
    }
}

/// The fixture registry: deliberately broken (or deliberately
/// unprovable) kernels on probe-sized problems, in the same [`Probe`]
/// shape as [`crate::runner::shipped_probes`]. CI lints these
/// expecting findings — a detector that has only ever seen clean
/// kernels proves nothing.
#[must_use]
pub fn fixture_probes() -> Vec<Probe> {
    let mut probes = Vec::new();
    {
        let mut mem = GlobalMem::new();
        let buf = mem.alloc_virtual(4096);
        probes.push(Probe {
            name: "fixture_stride16",
            mem,
            kernel: Box::new(Stride16Kernel::new(buf, 4096)),
        });
    }
    {
        let mut mem = GlobalMem::new();
        let buf = mem.alloc_virtual(512);
        probes.push(Probe {
            name: "fixture_overrun",
            mem,
            kernel: Box::new(OverrunKernel::new(buf, 512)),
        });
    }
    {
        let mut mem = GlobalMem::new();
        let buf = mem.alloc_virtual(1024);
        probes.push(Probe {
            name: "fixture_indirect",
            mem,
            kernel: Box::new(IndirectGatherKernel::new(buf, 1024)),
        });
    }
    probes
}
