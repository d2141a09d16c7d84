//! Functional block-synchronous execution engine.
//!
//! A kernel's `execute_block` runs the numerics of one thread block
//! against real device buffers. Code is written *warp-synchronously*:
//! memory traffic is issued through warp-level [`BlockCtx`] calls
//! (which also feed the [`TrafficSink`] when profiling), and
//! per-thread compute is ordinary Rust between those calls. Because
//! the engine interprets one block at a time with explicit barriers,
//! `__syncthreads()` semantics hold trivially; blocks themselves may
//! run in parallel across host threads (rayon), mirroring independent
//! CTAs on different SMs.
//!
//! A kernel with an exact host evaluation interprets only the blocks
//! its launch's fault plan names ([`NamedBlocks`]), each at its own
//! place in launch order; a kernel without one interprets every block
//! ([`run_functional`]).

use rayon::prelude::*;

use crate::buffer::{BufId, GlobalMem};
use crate::dim::Dim3;
use crate::fault::{BlockFaults, LaunchFaultPlan};
use crate::kernel::Kernel;
use crate::smem::flip_bit;
use crate::traffic::{TrafficSink, WarpIdx};

/// Execution context of one thread block (functional mode).
pub struct BlockCtx<'a, 'b> {
    mem: &'a GlobalMem,
    smem: Vec<f32>,
    sink: Option<&'b mut TrafficSink<'a>>,
    /// Faults scheduled against this block (see [`crate::fault`]).
    faults: Option<BlockFaults>,
    /// `__syncthreads()` ordinal, counted so scheduled shared-memory
    /// flips can target a specific barrier.
    sync_seen: u32,
}

impl<'a, 'b> BlockCtx<'a, 'b> {
    /// Creates a context with `smem_words` words of shared memory.
    #[must_use]
    pub fn new(
        mem: &'a GlobalMem,
        smem_words: usize,
        sink: Option<&'b mut TrafficSink<'a>>,
    ) -> Self {
        Self {
            mem,
            smem: vec![0.0; smem_words],
            sink,
            faults: None,
            sync_seen: 0,
        }
    }

    /// Arms this block with its scheduled faults. Shared-memory flips
    /// fire at their targeted barrier; register flips wait in the
    /// context until the kernel drains them with
    /// [`BlockCtx::take_accumulator_faults`].
    pub fn arm_faults(&mut self, faults: BlockFaults) {
        self.faults = Some(faults);
    }

    /// Drains every accumulator-register fault scheduled against this
    /// block as `(element draw, bit)` pairs, tallying them as applied.
    /// Kernels that keep partial sums in registers call this once,
    /// after their accumulate phase, and map each element draw onto
    /// their accumulator layout (modulo the accumulator count).
    /// Returns an empty vector when the block is not under attack —
    /// and always in traffic mode, where no data exists to corrupt.
    #[must_use]
    pub fn take_accumulator_faults(&mut self) -> Vec<(u64, u8)> {
        let Some(faults) = self.faults.as_mut() else {
            return Vec::new();
        };
        let drained: Vec<(u64, u8)> = faults.reg.drain(..).map(|f| (f.elem_pick, f.bit)).collect();
        if !drained.is_empty() {
            faults.tally.add_reg(drained.len() as u64);
        }
        drained
    }

    /// Shared-memory size in words.
    #[must_use]
    pub fn smem_words(&self) -> usize {
        self.smem.len()
    }

    /// Announces the warp issuing subsequent events (trace-only; no
    /// counter or functional effect).
    pub fn begin_warp(&mut self, warp: u32) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.begin_warp(warp);
        }
    }

    /// Warp global load, one word per active lane.
    ///
    /// # Panics
    /// Panics if a lane's index is out of bounds (a device fault).
    #[must_use]
    pub fn warp_ld_global(&mut self, buf: BufId, idx: &WarpIdx) -> [f32; 32] {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.global_read(buf, idx, 1);
        }
        std::array::from_fn(|l| idx[l].map_or(0.0, |i| self.mem.load(buf, i)))
    }

    /// Warp global vector load: lane `l` reads `VL` consecutive words
    /// starting at `idx[l]` (VL = 4 models LDG.128 / `float4`).
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    #[must_use]
    pub fn warp_ld_global_vec<const VL: usize>(
        &mut self,
        buf: BufId,
        idx: &WarpIdx,
    ) -> [[f32; VL]; 32] {
        debug_assert!(matches!(VL, 1 | 2 | 4));
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.global_read(buf, idx, VL as u32);
        }
        std::array::from_fn(|l| match idx[l] {
            Some(i) => std::array::from_fn(|j| self.mem.load(buf, i + j)),
            None => [0.0; VL],
        })
    }

    /// Warp global store, one word per active lane.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    pub fn warp_st_global(&mut self, buf: BufId, idx: &WarpIdx, vals: &[f32; 32]) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.global_write(buf, idx, 1);
        }
        for (l, i) in idx.iter().enumerate() {
            if let Some(i) = i {
                self.mem.store(buf, *i, vals[l]);
            }
        }
    }

    /// Warp global vector store (`float4` for VL = 4).
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    pub fn warp_st_global_vec<const VL: usize>(
        &mut self,
        buf: BufId,
        idx: &WarpIdx,
        vals: &[[f32; VL]; 32],
    ) {
        debug_assert!(matches!(VL, 1 | 2 | 4));
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.global_write(buf, idx, VL as u32);
        }
        for (l, i) in idx.iter().enumerate() {
            if let Some(i) = i {
                for j in 0..VL {
                    self.mem.store(buf, *i + j, vals[l][j]);
                }
            }
        }
    }

    /// Warp `atomicAdd`, one word per active lane.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    pub fn warp_atomic_add(&mut self, buf: BufId, idx: &WarpIdx, vals: &[f32; 32]) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.global_atomic(buf, idx);
        }
        for (l, i) in idx.iter().enumerate() {
            if let Some(i) = i {
                self.mem.atomic_add(buf, *i, vals[l]);
            }
        }
    }

    /// Warp shared load, one word per active lane.
    ///
    /// # Panics
    /// Panics if a word index exceeds the block's shared memory.
    #[must_use]
    pub fn warp_ld_shared(&mut self, word: &[Option<u32>; 32]) -> [f32; 32] {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.shared_read(word, 1);
        }
        std::array::from_fn(|l| word[l].map_or(0.0, |w| self.smem[w as usize]))
    }

    /// Warp shared vector load (LDS.128 for VL = 4).
    ///
    /// # Panics
    /// Panics on out-of-bounds shared access.
    #[must_use]
    pub fn warp_ld_shared_vec<const VL: usize>(
        &mut self,
        word: &[Option<u32>; 32],
    ) -> [[f32; VL]; 32] {
        debug_assert!(matches!(VL, 1 | 2 | 4));
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.shared_read(word, VL as u32);
        }
        std::array::from_fn(|l| match word[l] {
            Some(w) => std::array::from_fn(|j| self.smem[w as usize + j]),
            None => [0.0; VL],
        })
    }

    /// Warp shared store, one word per active lane.
    ///
    /// # Panics
    /// Panics on out-of-bounds shared access.
    pub fn warp_st_shared(&mut self, word: &[Option<u32>; 32], vals: &[f32; 32]) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.shared_write(word, 1);
        }
        for (l, w) in word.iter().enumerate() {
            if let Some(w) = w {
                self.smem[*w as usize] = vals[l];
            }
        }
    }

    /// Warp shared vector store (STS.128 for VL = 4).
    ///
    /// # Panics
    /// Panics on out-of-bounds shared access.
    pub fn warp_st_shared_vec<const VL: usize>(
        &mut self,
        word: &[Option<u32>; 32],
        vals: &[[f32; VL]; 32],
    ) {
        debug_assert!(matches!(VL, 1 | 2 | 4));
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.shared_write(word, VL as u32);
        }
        for (l, w) in word.iter().enumerate() {
            if let Some(w) = w {
                for j in 0..VL {
                    self.smem[*w as usize + j] = vals[l][j];
                }
            }
        }
    }

    /// Records `n` full-warp FFMA instructions.
    pub fn ffma(&mut self, n: u64) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.ffma(n);
        }
    }

    /// Records `n` full-warp FADD/FMUL instructions.
    pub fn falu(&mut self, n: u64) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.falu(n);
        }
    }

    /// Records `n` full-warp integer/addressing instructions.
    pub fn alu(&mut self, n: u64) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.alu(n);
        }
    }

    /// Records `n` full-warp special-function instructions.
    pub fn sfu(&mut self, n: u64) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.sfu(n);
        }
    }

    /// Block-wide barrier executed by `warps` warps. (The interpreter
    /// runs warps to completion between barriers, so this is purely a
    /// counting event; ordering is enforced by program structure.)
    ///
    /// When the block is armed with faults, scheduled shared-memory
    /// bit flips targeting this barrier ordinal are applied here —
    /// data only, never counters.
    pub fn syncthreads(&mut self, warps: u64) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.syncthreads(warps);
        }
        let sync_idx = self.sync_seen;
        self.sync_seen += 1;
        if let Some(faults) = self.faults.as_ref() {
            if self.smem.is_empty() {
                return;
            }
            let mut applied = 0u64;
            for f in faults.smem.iter().filter(|f| f.sync_idx == sync_idx) {
                let word = (f.word_pick % self.smem.len() as u64) as usize;
                self.smem[word] = flip_bit(self.smem[word], f.bit);
                applied += 1;
            }
            if applied > 0 {
                faults.tally.add_smem(applied);
            }
        }
    }
}

/// Interprets block `block` of `kernel`, launch-order index `linear`,
/// armed with the faults `plan` aims at it.
fn interpret(
    mem: &GlobalMem,
    kernel: &dyn Kernel,
    smem_words: usize,
    block: Dim3,
    linear: u64,
    plan: Option<&LaunchFaultPlan>,
) {
    let mut ctx = BlockCtx::new(mem, smem_words, None);
    if let Some(f) = plan.and_then(|p| p.block_faults(linear)) {
        ctx.arm_faults(f);
    }
    kernel.execute_block(block, &mut ctx);
}

/// The blocks of one launch its fault plan names (those with
/// shared-memory or register flips scheduled), as
/// [`Kernel::execute_exact`] receives them. A quiet launch names none.
#[derive(Debug, Clone, Copy)]
pub struct NamedBlocks<'p> {
    plan: Option<&'p LaunchFaultPlan>,
}

impl<'p> NamedBlocks<'p> {
    /// The blocks `plan` names; `None` names none.
    #[must_use]
    pub(crate) fn new(plan: Option<&'p LaunchFaultPlan>) -> Self {
        Self { plan }
    }

    /// Interprets block `block` of `kernel`, launch-order index
    /// `linear`, with its faults armed when the plan names it, and
    /// returns whether it did. The flips it applies are tallied on the
    /// plan.
    #[must_use]
    pub fn interpret(
        &self,
        mem: &GlobalMem,
        kernel: &dyn Kernel,
        block: Dim3,
        linear: u64,
    ) -> bool {
        let named = self.plan.is_some_and(|p| p.names(linear));
        if named {
            let smem_words = kernel.resources().smem_bytes_per_block as usize / 4;
            interpret(mem, kernel, smem_words, block, linear, self.plan);
        }
        named
    }
}

/// Runs every block of `kernel` functionally, in parallel over host
/// threads: the path of a kernel without a host evaluation. No
/// counters are collected (use
/// [`crate::device::GpuDevice::run_counted`] for that). With a fault
/// `plan`, each block is armed with the faults aimed at its
/// launch-order (linear) index before it executes. The linear index is
/// the position in the grid's block enumeration order, which is stable
/// under the rayon partitioning.
pub fn run_functional(
    mem: &GlobalMem,
    kernel: &dyn Kernel,
    smem_words: usize,
    plan: Option<&LaunchFaultPlan>,
) {
    let lc = kernel.launch_config();
    let blocks: Vec<_> = lc.grid.iter_indices().enumerate().collect();
    blocks.par_iter().for_each(|&(i, b)| {
        interpret(mem, kernel, smem_words, b, i as u64, plan);
    });
}

/// Runs every block sequentially in launch order, feeding `sink` —
/// functional execution with full profiling (slow; for validation).
/// Each block's counters are harvested separately (the sink's running
/// counters are reset per block), so the caller can merge them through
/// the same deterministic grid-order reduction the traffic replay
/// engine uses. A fault `plan` arms blocks as in [`run_functional`].
/// Faults perturb data, never the harvested counters: the per-block
/// counter vector is bit-identical to a fault-free run because every
/// kernel's instruction stream is data-independent.
pub fn run_functional_counted_per_block<'a>(
    mem: &'a GlobalMem,
    kernel: &dyn Kernel,
    smem_words: usize,
    sink: &mut TrafficSink<'a>,
    plan: Option<&LaunchFaultPlan>,
) -> Vec<crate::profiler::Counters> {
    let lc = kernel.launch_config();
    let mut per_block = Vec::with_capacity(lc.total_blocks() as usize);
    for (i, b) in lc.grid.iter_indices().enumerate() {
        sink.counters = crate::profiler::Counters::default();
        sink.begin_block(i as u64);
        let mut ctx = BlockCtx::new(mem, smem_words, Some(sink));
        if let Some(f) = plan.and_then(|p| p.block_faults(i as u64)) {
            ctx.arm_faults(f);
        }
        kernel.execute_block(b, &mut ctx);
        per_block.push(sink.counters);
    }
    per_block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::dim::{Dim3, LaunchConfig};
    use crate::kernel::KernelResources;
    use crate::traffic::full_warp_idx;

    /// y[i] = 2 * x[i] over one warp per block.
    struct Doubler {
        x: BufId,
        y: BufId,
        n: usize,
    }

    impl Kernel for Doubler {
        fn name(&self) -> String {
            "doubler".into()
        }
        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::new_1d((self.n as u32).div_ceil(32)), 32u32)
        }
        fn resources(&self) -> KernelResources {
            KernelResources {
                threads_per_block: 32,
                regs_per_thread: 8,
                smem_bytes_per_block: 0,
            }
        }
        fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
            let base = block.x as usize * 32;
            let idx: WarpIdx = std::array::from_fn(|l| {
                let i = base + l;
                (i < self.n).then_some(i)
            });
            let v = ctx.warp_ld_global(self.x, &idx);
            ctx.falu(1);
            let out: [f32; 32] = std::array::from_fn(|l| v[l] * 2.0);
            ctx.warp_st_global(self.y, &idx, &out);
        }
        fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink) {
            let base = block.x as usize * 32;
            let idx: WarpIdx = std::array::from_fn(|l| {
                let i = base + l;
                (i < self.n).then_some(i)
            });
            sink.global_read(self.x, &idx, 1);
            sink.falu(1);
            sink.global_write(self.y, &idx, 1);
        }
    }

    #[test]
    fn functional_run_computes_correct_values() {
        let mut mem = GlobalMem::new();
        let n = 100;
        let x = mem.upload(&(0..n).map(|i| i as f32).collect::<Vec<_>>());
        let y = mem.alloc(n);
        let k = Doubler { x, y, n };
        run_functional(&mem, &k, 0, None);
        let out = mem.download(y);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32);
        }
    }

    #[test]
    fn counted_run_matches_traffic_replay() {
        let mut mem = GlobalMem::new();
        let n = 100;
        let x = mem.upload(&vec![1.0; n]);
        let y = mem.alloc(n);
        let k = Doubler { x, y, n };

        let mut l2a = Cache::new(64 * 1024, 16, 32);
        let mut sink_a = TrafficSink::new(&mem, &mut l2a, 32, 32);
        let per_block = run_functional_counted_per_block(&mem, &k, 0, &mut sink_a, None);

        let mut l2b = Cache::new(64 * 1024, 16, 32);
        let mut sink_b = TrafficSink::new(&mem, &mut l2b, 32, 32);
        for b in k.launch_config().grid.iter_indices() {
            k.block_traffic(b, &mut sink_b);
        }

        assert_eq!(crate::replay::merge_grid_order(&per_block), sink_b.counters);
        assert_eq!(l2a.stats(), l2b.stats());
    }

    #[test]
    fn shared_memory_round_trip() {
        let mem = GlobalMem::new();
        let mut ctx = BlockCtx::new(&mem, 64, None);
        let words = crate::traffic::full_warp_words(|l| l as u32);
        let vals: [f32; 32] = std::array::from_fn(|l| l as f32 * 1.5);
        ctx.warp_st_shared(&words, &vals);
        let back = ctx.warp_ld_shared(&words);
        assert_eq!(back, vals);
    }

    #[test]
    fn vector_shared_round_trip() {
        let mem = GlobalMem::new();
        let mut ctx = BlockCtx::new(&mem, 256, None);
        let words = crate::traffic::full_warp_words(|l| 4 * l as u32);
        let vals: [[f32; 4]; 32] =
            std::array::from_fn(|l| std::array::from_fn(|j| (l * 4 + j) as f32));
        ctx.warp_st_shared_vec(&words, &vals);
        assert_eq!(ctx.warp_ld_shared_vec::<4>(&words), vals);
    }

    #[test]
    fn vector_global_round_trip() {
        let mut mem = GlobalMem::new();
        let buf = mem.alloc(128);
        let mut ctx = BlockCtx::new(&mem, 0, None);
        let idx = full_warp_idx(|l| 4 * l);
        let vals: [[f32; 4]; 32] = std::array::from_fn(|l| std::array::from_fn(|j| (l + j) as f32));
        ctx.warp_st_global_vec(buf, &idx, &vals);
        assert_eq!(ctx.warp_ld_global_vec::<4>(buf, &idx), vals);
    }

    #[test]
    fn atomic_add_accumulates_across_blocks() {
        let mut mem = GlobalMem::new();
        let acc = mem.alloc(32);
        struct AtomicK {
            acc: BufId,
        }
        impl Kernel for AtomicK {
            fn name(&self) -> String {
                "atomic".into()
            }
            fn launch_config(&self) -> LaunchConfig {
                LaunchConfig::new(10u32, 32u32)
            }
            fn resources(&self) -> KernelResources {
                KernelResources {
                    threads_per_block: 32,
                    regs_per_thread: 8,
                    smem_bytes_per_block: 0,
                }
            }
            fn execute_block(&self, _: Dim3, ctx: &mut BlockCtx) {
                let idx = full_warp_idx(|l| l);
                ctx.warp_atomic_add(self.acc, &idx, &[1.0; 32]);
            }
            fn block_traffic(&self, _: Dim3, sink: &mut TrafficSink) {
                sink.global_atomic(self.acc, &full_warp_idx(|l| l));
            }
        }
        run_functional(&mem, &AtomicK { acc }, 0, None);
        assert_eq!(mem.download(acc), vec![10.0; 32]);
    }
}
