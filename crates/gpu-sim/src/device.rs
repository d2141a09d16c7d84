//! The simulated GPU device: memory, L2 state, launches, profiles.
//!
//! [`GpuDevice`] ties the pieces together. A *launch* walks the grid
//! in CUDA block-enumeration order (x fastest — the CTA scheduler's
//! dispatch order), replays each block's traffic through the coalescer,
//! bank model and the persistent L2, then runs the timing model on the
//! harvested counters. Dirty L2 lines are flushed (and charged as DRAM
//! writes) at the kernel boundary, so every kernel's DRAM write count
//! reflects the data it actually produced.
//!
//! A device with a [`ReplayMemo`] ([`GpuDevice::with_memo`]) replays a
//! keyed launch once per entering L2 state across every device sharing
//! the memo: what a launch does to the memory system is a function of
//! its block streams and the L2 it enters, never of the data or the
//! fault draw.

use std::sync::Arc;

use crate::buffer::{BufId, GlobalMem};
use crate::cache::{Cache, CacheStats};
use crate::config::DeviceConfig;
use crate::exec::{self, NamedBlocks};
use crate::fault::{FaultCounters, FaultState, LaunchFault, LaunchFaultPlan};
use crate::kernel::{validate_launch, Kernel, LaunchError};
use crate::memo::{self, first_block_digest, MemoKey, Recall, ReplayMemo};
use crate::occupancy::occupancy;
use crate::profiler::{Counters, KernelProfile, MemTraffic};
use crate::replay::{self, ReplayStrategy};
use crate::smem::flip_bit;
use crate::timing::{self, TimingParams};
use crate::traffic::TrafficSink;

/// A simulated GPU: configuration, global memory and L2 state.
pub struct GpuDevice {
    cfg: DeviceConfig,
    mem: GlobalMem,
    l2: Cache,
    /// Per-SM L1s (only when `cfg.l1_cache_global_loads`).
    l1s: Vec<Cache>,
    timing_params: TimingParams,
    replay: ReplayStrategy,
    /// Fault generator (only when `cfg.fault` is set).
    faults: Option<FaultState>,
    /// Applied injections since the last [`GpuDevice::take_fault_counters`].
    fault_counters: FaultCounters,
    /// Replay memo shared with other devices (see
    /// [`GpuDevice::with_memo`]).
    memo: Option<Arc<ReplayMemo>>,
    /// The L2's state id in the memo's chain, `None` when unknown
    /// (see [`crate::memo`]).
    l2_state: Option<u64>,
}

impl GpuDevice {
    /// Creates a device from a configuration.
    #[must_use]
    pub fn new(cfg: DeviceConfig) -> Self {
        let l2 = Cache::new(cfg.l2_bytes as u64, cfg.l2_assoc, cfg.sector_bytes);
        let l1s = if cfg.l1_cache_global_loads {
            (0..cfg.num_sms)
                .map(|_| Cache::new_hashed(cfg.l1_bytes as u64, cfg.l1_assoc, cfg.sector_bytes))
                .collect()
        } else {
            Vec::new()
        };
        let faults = cfg.fault.map(FaultState::new);
        Self {
            l2_state: Some(memo::empty_state(&cfg)),
            cfg,
            mem: GlobalMem::new(),
            l2,
            l1s,
            timing_params: TimingParams::default(),
            replay: ReplayStrategy::default(),
            faults,
            fault_counters: FaultCounters::default(),
            memo: None,
        }
    }

    /// Attaches a replay memo shared with other devices (DESIGN.md §10
    /// part 5). A launch of a kernel with a
    /// [`Kernel::traffic_key`] that a device sharing `memo` already
    /// made from the same L2 state restores the L2 that launch left and
    /// takes its counters and L2 traffic instead of replaying. Timing
    /// still comes from the kernel's hints and this device's
    /// [`TimingParams`], so every profile equals the replayed one. A
    /// device with per-SM L1s never uses the memo.
    #[must_use]
    pub fn with_memo(mut self, memo: Arc<ReplayMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// A GTX970 device (the paper's machine).
    #[must_use]
    pub fn gtx970() -> Self {
        Self::new(DeviceConfig::gtx970())
    }

    /// Device configuration.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Replaces the timing-model constants (ablation studies).
    pub fn set_timing_params(&mut self, p: TimingParams) {
        self.timing_params = p;
    }

    /// Current timing-model constants.
    #[must_use]
    pub fn timing_params(&self) -> &TimingParams {
        &self.timing_params
    }

    /// Selects how launches replay traffic (see
    /// [`ReplayStrategy`]). Every strategy produces bit-identical
    /// counters and cache state; only wall-clock differs.
    pub fn set_replay_strategy(&mut self, s: ReplayStrategy) {
        self.replay = s;
    }

    /// Current replay strategy.
    #[must_use]
    pub fn replay_strategy(&self) -> ReplayStrategy {
        self.replay
    }

    /// Read access to global memory.
    #[must_use]
    pub fn mem(&self) -> &GlobalMem {
        &self.mem
    }

    /// Allocates `len` zeroed `f32` cells.
    pub fn alloc(&mut self, len: usize) -> BufId {
        self.mem.alloc(len)
    }

    /// Reserves address space with no backing data (traffic-only
    /// profiling of paper-scale problems).
    pub fn alloc_virtual(&mut self, len: usize) -> BufId {
        self.mem.alloc_virtual(len)
    }

    /// Allocates and uploads host data.
    pub fn upload(&mut self, src: &[f32]) -> BufId {
        self.mem.upload(src)
    }

    /// Downloads a buffer to the host.
    #[must_use]
    pub fn download(&self, id: BufId) -> Vec<f32> {
        self.mem.download(id)
    }

    /// Zeroes a buffer (like `cudaMemset`).
    pub fn memset_zero(&self, id: BufId) {
        self.mem.fill(id, 0.0);
    }

    /// Invalidates L2 contents (cold-cache start) without touching
    /// statistics.
    pub fn invalidate_l2(&mut self) {
        self.l2.invalidate();
        for l1 in &mut self.l1s {
            l1.invalidate();
        }
        self.l2_state = Some(memo::empty_state(&self.cfg));
    }

    /// Injected-fault counters accumulated since the last call,
    /// resetting them. Includes launch-level faults (which surface as
    /// [`LaunchError`]s and therefore never appear on a profile).
    pub fn take_fault_counters(&mut self) -> FaultCounters {
        std::mem::take(&mut self.fault_counters)
    }

    /// Draws the next launch's fault schedule, charging a launch-level
    /// fault as an error. `None` means the device is fault-free.
    fn draw_faults(&mut self, kernel: &dyn Kernel) -> Result<Option<LaunchFaultPlan>, LaunchError> {
        let Some(state) = self.faults.as_mut() else {
            return Ok(None);
        };
        let total_blocks = kernel.launch_config().total_blocks();
        let draw = state.next_draw(total_blocks, self.cfg.num_sms);
        if let Some(lf) = draw.launch_fault {
            self.fault_counters.launch_faults += 1;
            return Err(match lf {
                LaunchFault::SmLost { sm } => LaunchError::SmLost { sm },
                LaunchFault::Watchdog { limit_ms } => LaunchError::WatchdogTimeout { limit_ms },
            });
        }
        Ok(Some(draw.plan))
    }

    /// Applies the plan's DRAM word flips over the kernel's declared
    /// writable, materialised buffers (a kernel that declares no
    /// [`crate::kernel::BufferUse`] extents cannot be hit). Returns
    /// the number of flips applied.
    fn apply_dram_faults(&self, kernel: &dyn Kernel, plan: &LaunchFaultPlan) -> u64 {
        if plan.dram.is_empty() {
            return 0;
        }
        let targets: Vec<(BufId, u64)> = kernel
            .analysis_budget()
            .buffers
            .iter()
            .filter(|b| b.writes && !self.mem.is_virtual(b.buf))
            .map(|b| (b.buf, b.len.min(self.mem.len(b.buf)) as u64))
            .filter(|&(_, len)| len > 0)
            .collect();
        let total: u64 = targets.iter().map(|&(_, len)| len).sum();
        if total == 0 {
            return 0;
        }
        let mut applied = 0u64;
        for &(word_pick, bit) in &plan.dram {
            let mut idx = word_pick % total;
            for &(buf, len) in &targets {
                if idx < len {
                    let v = self.mem.load(buf, idx as usize);
                    self.mem.store(buf, idx as usize, flip_bit(v, bit));
                    applied += 1;
                    break;
                }
                idx -= len;
            }
        }
        applied
    }

    /// Profiles a kernel: replays its traffic (no numerics) through
    /// the memory system and runs the timing model. A memo hit
    /// ([`GpuDevice::with_memo`]) restores the L2 the same launch left
    /// instead of replaying; launch-level faults are drawn first, so
    /// they fail a hit as they fail a replay.
    ///
    /// # Errors
    /// Returns a [`LaunchError`] if the launch violates device limits.
    pub fn launch(&mut self, kernel: &dyn Kernel) -> Result<KernelProfile, LaunchError> {
        validate_launch(&self.cfg, kernel)?;
        // Launch-level faults can kill a profiling launch too; the
        // bit-flip schedule is irrelevant here (replay touches no
        // functional data) but the draw still advances the epoch so
        // profiling and functional runs stay in lockstep.
        let _plan = self.draw_faults(kernel)?;
        let before = self.l2.stats();
        let counters = self.replay(kernel, &before);
        let after = self.l2.stats();
        Ok(self.finish_profile(kernel, counters, before, after))
    }

    /// Replays `kernel`'s traffic and flushes the L2 at the kernel
    /// boundary, or takes both from the memo, moving the L2 state id.
    /// `before` is the L2's statistics on entry.
    fn replay(&mut self, kernel: &dyn Kernel, before: &CacheStats) -> Counters {
        let memo = self.memo.clone().filter(|_| self.l1s.is_empty());
        let key = match (&memo, self.l2_state) {
            (Some(_), Some(state)) => MemoKey::of(state, kernel, &self.mem),
            _ => None,
        };
        self.l2_state = key.as_ref().map(MemoKey::leaves);
        let memo = memo.zip(key);
        if let Some((memo, key)) = &memo {
            let digest = || first_block_digest(&self.mem, &self.cfg, kernel);
            if let Some(hit) = memo.recall(key, digest) {
                self.l2.restore(&hit.leaves);
                self.l2.add_stats(&hit.delta);
                return hit.counters;
            }
        }
        // L1s are not coherent across kernels: invalidate at launch.
        for l1 in &mut self.l1s {
            l1.invalidate();
        }
        let (counters, digest) = replay::replay(
            &self.mem,
            &mut self.l2,
            &mut self.l1s,
            &self.cfg,
            kernel,
            self.replay,
        );
        self.l2.flush_dirty();
        if let Some((memo, key)) = memo {
            if let Some(leaves) = self.l2.snapshot() {
                let recall = Recall {
                    counters,
                    delta: self.l2.stats().since(before),
                    leaves,
                    digest: digest
                        .unwrap_or_else(|| first_block_digest(&self.mem, &self.cfg, kernel)),
                };
                memo.store(key, recall);
            }
        }
        counters
    }

    /// Runs a kernel functionally (no counters).
    ///
    /// The fault draw comes first. The kernel's exact host evaluation
    /// ([`Kernel::execute_exact`]) then runs the launch, interpreting
    /// only the blocks the plan names, so its bits equal
    /// [`GpuDevice::run_counted`]'s; a kernel without one has every
    /// block interpreted in parallel. DRAM flips land afterwards.
    ///
    /// # Errors
    /// Returns a [`LaunchError`] if the launch violates device limits.
    pub fn run(&mut self, kernel: &dyn Kernel) -> Result<(), LaunchError> {
        validate_launch(&self.cfg, kernel)?;
        let plan = self.draw_faults(kernel)?;
        if !kernel.execute_exact(&self.mem, NamedBlocks::new(plan.as_ref())) {
            let smem_words = kernel.resources().smem_bytes_per_block as usize / 4;
            exec::run_functional(&self.mem, kernel, smem_words, plan.as_ref());
        }
        if let Some(plan) = plan {
            self.fault_counters.merge(&FaultCounters {
                smem_flips: plan.applied_smem(),
                reg_flips: plan.applied_reg(),
                dram_flips: self.apply_dram_faults(kernel, &plan),
                launch_faults: 0,
            });
        }
        Ok(())
    }

    /// Runs a kernel functionally **and** profiles it — used to
    /// validate that `block_traffic` replays exactly what
    /// `execute_block` does.
    ///
    /// Functional counting always walks blocks **sequentially**
    /// regardless of the device's [`ReplayStrategy`]: the numerics
    /// mutate shared global memory, so blocks must observe each
    /// other's writes in launch order. The per-block counters are
    /// still harvested individually and folded through the same
    /// grid-order merge the traffic replay engine uses, so the totals
    /// agree with [`GpuDevice::launch`] by construction.
    ///
    /// # Errors
    /// Returns a [`LaunchError`] if the launch violates device limits.
    pub fn run_counted(&mut self, kernel: &dyn Kernel) -> Result<KernelProfile, LaunchError> {
        validate_launch(&self.cfg, kernel)?;
        let plan = self.draw_faults(kernel)?;
        let smem_words = kernel.resources().smem_bytes_per_block as usize / 4;
        self.l2_state = None;
        let before = self.l2.stats();
        for l1 in &mut self.l1s {
            l1.invalidate();
        }
        let mut sink = TrafficSink::new(
            &self.mem,
            &mut self.l2,
            self.cfg.sector_bytes,
            self.cfg.smem_banks,
        );
        if !self.l1s.is_empty() {
            sink.set_l1s(&mut self.l1s);
        }
        let per_block = exec::run_functional_counted_per_block(
            &self.mem,
            kernel,
            smem_words,
            &mut sink,
            plan.as_ref(),
        );
        let counters = replay::merge_grid_order(&per_block);
        self.l2.flush_dirty();
        let after = self.l2.stats();
        let mut prof = self.finish_profile(kernel, counters, before, after);
        if let Some(plan) = plan {
            prof.faults = FaultCounters {
                smem_flips: plan.applied_smem(),
                reg_flips: plan.applied_reg(),
                dram_flips: self.apply_dram_faults(kernel, &plan),
                launch_faults: 0,
            };
            self.fault_counters.merge(&prof.faults);
        }
        Ok(prof)
    }

    fn finish_profile(
        &self,
        kernel: &dyn Kernel,
        counters: Counters,
        before: CacheStats,
        after: CacheStats,
    ) -> KernelProfile {
        let mem = MemTraffic::from_delta(&before, &after);
        let res = kernel.resources();
        let occ = occupancy(&self.cfg, &res);
        let lc = kernel.launch_config();
        let hints = kernel.timing_hints();
        let timing = timing::estimate(
            &self.cfg,
            &self.timing_params,
            &hints,
            &counters,
            &mem,
            &occ,
            lc.total_blocks(),
        );
        KernelProfile {
            name: kernel.name(),
            launch: lc,
            resources: res,
            occupancy: occ,
            counters,
            mem,
            timing,
            faults: FaultCounters::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::{Dim3, LaunchConfig};
    use crate::exec::BlockCtx;
    use crate::kernel::KernelResources;
    use crate::traffic::full_warp_idx;

    /// Streams `n` words: read x, write y, one warp per block.
    struct Streamer {
        x: BufId,
        y: BufId,
        n: usize,
    }

    impl Kernel for Streamer {
        fn name(&self) -> String {
            "streamer".into()
        }
        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::new_1d((self.n as u32).div_ceil(32)), 32u32)
        }
        fn resources(&self) -> KernelResources {
            KernelResources {
                threads_per_block: 32,
                regs_per_thread: 16,
                smem_bytes_per_block: 0,
            }
        }
        fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
            let base = block.x as usize * 32;
            let idx = full_warp_idx(|l| base + l);
            let v = ctx.warp_ld_global(self.x, &idx);
            ctx.warp_st_global(self.y, &idx, &v);
        }
        fn block_traffic(&self, block: Dim3, sink: &mut crate::traffic::TrafficSink) {
            let base = block.x as usize * 32;
            let idx = full_warp_idx(|l| base + l);
            sink.global_read(self.x, &idx, 1);
            sink.global_write(self.y, &idx, 1);
        }
    }

    #[test]
    fn launch_counts_cold_misses_and_writebacks() {
        let mut dev = GpuDevice::gtx970();
        let n = 32 * 1024;
        let x = dev.alloc(n);
        let y = dev.alloc(n);
        let p = dev.launch(&Streamer { x, y, n }).unwrap();
        // 4KB... n*4 bytes = 128KB each; sectors = n*4/32 = 4096.
        assert_eq!(p.mem.dram_reads(), 4096);
        assert_eq!(
            p.mem.dram_writes, 4096,
            "flush at kernel boundary charges the writes"
        );
        assert_eq!(p.counters.global_load_insts, 1024);
        assert!(p.timing.time_s > 0.0);
    }

    #[test]
    fn l2_persists_across_launches() {
        let mut dev = GpuDevice::gtx970();
        let n = 8 * 1024; // 32KB < L2
        let x = dev.alloc(n);
        let y = dev.alloc(n);
        let k = Streamer { x, y, n };
        let p1 = dev.launch(&k).unwrap();
        let p2 = dev.launch(&k).unwrap();
        assert!(
            p2.mem.dram_reads() < p1.mem.dram_reads() / 10,
            "second pass should hit residual L2 lines: {} vs {}",
            p2.mem.dram_reads(),
            p1.mem.dram_reads()
        );
    }

    #[test]
    fn invalidate_l2_restores_cold_behaviour() {
        let mut dev = GpuDevice::gtx970();
        let n = 8 * 1024;
        let x = dev.alloc(n);
        let y = dev.alloc(n);
        let k = Streamer { x, y, n };
        let p1 = dev.launch(&k).unwrap();
        dev.invalidate_l2();
        let p2 = dev.launch(&k).unwrap();
        assert_eq!(p1.mem.dram_reads(), p2.mem.dram_reads());
    }

    #[test]
    fn run_counted_agrees_with_launch_on_memory_counters() {
        let n = 4096;
        let mk = |dev: &mut GpuDevice| {
            let x = dev.upload(&vec![1.0; n]);
            let y = dev.alloc(n);
            Streamer { x, y, n }
        };
        let mut d1 = GpuDevice::gtx970();
        let k1 = mk(&mut d1);
        let p1 = d1.launch(&k1).unwrap();
        let mut d2 = GpuDevice::gtx970();
        let k2 = mk(&mut d2);
        let p2 = d2.run_counted(&k2).unwrap();
        assert_eq!(p1.counters, p2.counters);
        assert_eq!(p1.mem, p2.mem);
        // And the functional path actually moved the data.
        assert_eq!(d2.download(k2.y), vec![1.0; n]);
    }

    /// Homogeneous tiled kernel declaring a block class: every block
    /// reads/writes a 32-element tile at `block.x * stride`.
    struct Tiled {
        x: BufId,
        y: BufId,
        blocks: u32,
        /// Element stride between consecutive block tiles. 32 keeps
        /// translations sector-aligned; 3 forces the sub-sector
        /// fallback.
        stride: usize,
    }

    impl Kernel for Tiled {
        fn name(&self) -> String {
            "tiled".into()
        }
        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::new_1d(self.blocks), 32u32)
        }
        fn resources(&self) -> KernelResources {
            KernelResources {
                threads_per_block: 32,
                regs_per_thread: 16,
                smem_bytes_per_block: 0,
            }
        }
        fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
            let base = block.x as usize * self.stride;
            let idx = full_warp_idx(|l| base + l);
            let v = ctx.warp_ld_global(self.x, &idx);
            ctx.warp_st_global(self.y, &idx, &v);
        }
        fn block_traffic(&self, block: Dim3, sink: &mut crate::traffic::TrafficSink) {
            let base = block.x as usize * self.stride;
            let idx = full_warp_idx(|l| base + l);
            sink.global_read(self.x, &idx, 1);
            sink.ffma(1);
            sink.global_write(self.y, &idx, 1);
        }
        fn block_class(&self, block: Dim3) -> Option<crate::kernel::BlockClass> {
            let base = block.x as usize * self.stride;
            Some(crate::kernel::BlockClass {
                key: 0,
                anchors: vec![(self.x, base), (self.y, base)],
            })
        }
        fn traffic_key(&self, mem: &GlobalMem) -> Option<u64> {
            let bufs = [self.x, self.y].map(|b| mem.base_addr(b));
            Some(crate::memo::key_of(&(self.stride, bufs)))
        }
    }

    fn profile_with(strategy: ReplayStrategy, stride: usize) -> KernelProfile {
        let mut dev = GpuDevice::gtx970();
        dev.set_replay_strategy(strategy);
        let x = dev.alloc(64 * 64);
        let y = dev.alloc(64 * 64);
        dev.launch(&Tiled {
            x,
            y,
            blocks: 64,
            stride,
        })
        .unwrap()
    }

    #[test]
    fn memoized_replay_matches_serial_on_homogeneous_kernel() {
        for stride in [32usize, 3] {
            let serial = profile_with(ReplayStrategy::Serial, stride);
            let memo = profile_with(ReplayStrategy::Memoized, stride);
            assert_eq!(serial.counters, memo.counters, "stride {stride}");
            assert_eq!(serial.mem, memo.mem, "stride {stride}");
        }
    }

    #[test]
    fn memoized_replay_matches_serial_on_heterogeneous_kernel() {
        let n = 32 * 1024;
        let run = |strategy: ReplayStrategy| {
            let mut dev = GpuDevice::gtx970();
            dev.set_replay_strategy(strategy);
            let x = dev.alloc(n);
            let y = dev.alloc(n);
            dev.launch(&Streamer { x, y, n }).unwrap()
        };
        let serial = run(ReplayStrategy::Serial);
        let memo = run(ReplayStrategy::Memoized);
        assert_eq!(serial.counters, memo.counters);
        assert_eq!(serial.mem, memo.mem);
    }

    /// With per-SM L1s a memoized launch replays serially: an L1
    /// filters each member's L2 stream through its own history.
    #[test]
    fn memoized_replay_matches_serial_with_l1s() {
        let mut cfg = crate::config::DeviceConfig::gtx970();
        cfg.l1_cache_global_loads = true;
        let run = |strategy: ReplayStrategy| {
            let mut dev = GpuDevice::new(cfg.clone());
            dev.set_replay_strategy(strategy);
            let x = dev.alloc(64 * 64);
            let y = dev.alloc(64 * 64);
            dev.launch(&Tiled {
                x,
                y,
                blocks: 64,
                stride: 32,
            })
            .unwrap()
        };
        let serial = run(ReplayStrategy::Serial);
        let memo = run(ReplayStrategy::Memoized);
        assert_eq!(serial.counters, memo.counters);
        assert_eq!(serial.mem, memo.mem);
    }

    /// A kernel that mis-declares its class (all blocks claim the
    /// same key and anchors, but block 1 actually strides
    /// differently): the per-class spot-check must catch it and fall
    /// back to direct replay, keeping memoized == serial.
    struct Liar {
        x: BufId,
    }

    impl Kernel for Liar {
        fn name(&self) -> String {
            "liar".into()
        }
        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::new_1d(4), 32u32)
        }
        fn resources(&self) -> KernelResources {
            KernelResources {
                threads_per_block: 32,
                regs_per_thread: 16,
                smem_bytes_per_block: 0,
            }
        }
        fn execute_block(&self, _: Dim3, _: &mut BlockCtx) {}
        fn block_traffic(&self, block: Dim3, sink: &mut crate::traffic::TrafficSink) {
            // Block 1 secretly reads with a gather the others don't.
            let mul = if block.x == 1 { 2 } else { 1 };
            let idx = full_warp_idx(|l| l * mul);
            sink.global_read(self.x, &idx, 1);
        }
        fn block_class(&self, _: Dim3) -> Option<crate::kernel::BlockClass> {
            Some(crate::kernel::BlockClass {
                key: 7,
                anchors: vec![(self.x, 0)],
            })
        }
    }

    #[test]
    fn memo_spot_check_catches_mis_declared_class() {
        let run = |strategy: ReplayStrategy| {
            let mut dev = GpuDevice::gtx970();
            dev.set_replay_strategy(strategy);
            let x = dev.alloc(256);
            dev.launch(&Liar { x }).unwrap()
        };
        let serial = run(ReplayStrategy::Serial);
        let memo = run(ReplayStrategy::Memoized);
        assert_eq!(serial.counters, memo.counters);
        assert_eq!(serial.mem, memo.mem);
    }

    /// A heterogeneous kernel whose single class is honest about its
    /// global stream but not its compute: odd blocks issue 9 FFMAs,
    /// even blocks 1. Block 1 is the spot-checked member, so only a
    /// spot-check that compares the full counters rejects the class
    /// before block 3 would take block 0's counters.
    struct Uneven {
        x: BufId,
    }

    impl Kernel for Uneven {
        fn name(&self) -> String {
            "uneven".into()
        }
        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::new_1d(4), 32u32)
        }
        fn resources(&self) -> KernelResources {
            KernelResources {
                threads_per_block: 32,
                regs_per_thread: 16,
                smem_bytes_per_block: 0,
            }
        }
        fn execute_block(&self, _: Dim3, _: &mut BlockCtx) {}
        fn block_traffic(&self, block: Dim3, sink: &mut crate::traffic::TrafficSink) {
            let base = block.x as usize * 32;
            sink.global_read(self.x, &full_warp_idx(|l| base + l), 1);
            sink.ffma(if block.x % 2 == 1 { 9 } else { 1 });
        }
        fn block_class(&self, block: Dim3) -> Option<crate::kernel::BlockClass> {
            Some(crate::kernel::BlockClass {
                key: 0,
                anchors: vec![(self.x, block.x as usize * 32)],
            })
        }
    }

    #[test]
    fn memo_spot_check_compares_local_counters_too() {
        let run = |strategy: ReplayStrategy| {
            let mut dev = GpuDevice::gtx970();
            dev.set_replay_strategy(strategy);
            let x = dev.alloc(4 * 32);
            dev.launch(&Uneven { x }).unwrap()
        };
        let serial = run(ReplayStrategy::Serial);
        let memo = run(ReplayStrategy::Memoized);
        assert_eq!(serial.counters.ffma_insts, 2 * 9 + 2);
        assert_eq!(serial.counters, memo.counters);
        assert_eq!(serial.mem, memo.mem);
    }

    #[test]
    fn launch_rejects_invalid_kernel() {
        struct Bad;
        impl Kernel for Bad {
            fn name(&self) -> String {
                "bad".into()
            }
            fn launch_config(&self) -> LaunchConfig {
                LaunchConfig::new(1u32, 2048u32)
            }
            fn resources(&self) -> KernelResources {
                KernelResources {
                    threads_per_block: 2048,
                    regs_per_thread: 8,
                    smem_bytes_per_block: 0,
                }
            }
            fn execute_block(&self, _: Dim3, _: &mut BlockCtx) {}
            fn block_traffic(&self, _: Dim3, _: &mut crate::traffic::TrafficSink) {}
        }
        let mut dev = GpuDevice::gtx970();
        assert!(matches!(
            dev.launch(&Bad),
            Err(LaunchError::TooManyThreads { .. })
        ));
    }

    const SENTINEL: f32 = -7.0;

    /// Interpreted, a block logs itself and writes 1.0 to its 32
    /// words; the exact host path writes a sentinel there instead and
    /// hands the named blocks to the interpreter, so the log and the
    /// output tell which blocks were interpreted.
    struct Sentinel {
        y: BufId,
        n: usize,
        interpreted: std::sync::Mutex<Vec<u32>>,
    }

    impl Kernel for Sentinel {
        fn name(&self) -> String {
            "sentinel".into()
        }
        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::new_1d((self.n / 32) as u32), 32u32)
        }
        fn resources(&self) -> KernelResources {
            KernelResources {
                threads_per_block: 32,
                regs_per_thread: 16,
                smem_bytes_per_block: 0,
            }
        }
        fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
            self.interpreted.lock().unwrap().push(block.x);
            let base = block.x as usize * 32;
            ctx.warp_st_global(self.y, &full_warp_idx(|l| base + l), &[1.0; 32]);
        }
        fn execute_exact(&self, mem: &GlobalMem, named: NamedBlocks<'_>) -> bool {
            for b in 0..(self.n / 32) as u32 {
                if !named.interpret(mem, self, Dim3::new_1d(b), b.into()) {
                    (0..32).for_each(|l| mem.store(self.y, b as usize * 32 + l, SENTINEL));
                }
            }
            true
        }
        fn block_traffic(&self, block: Dim3, sink: &mut crate::traffic::TrafficSink) {
            let base = block.x as usize * 32;
            sink.global_write(self.y, &full_warp_idx(|l| base + l), 1);
        }
        fn analysis_budget(&self) -> crate::kernel::AnalysisBudget {
            crate::kernel::AnalysisBudget {
                buffers: vec![crate::kernel::BufferUse {
                    buf: self.y,
                    len: self.n,
                    writes: true,
                    label: "y",
                }],
                ..crate::kernel::AnalysisBudget::default()
            }
        }
    }

    /// Blocks of the [`Sentinel`] launch [`run_sentinel`] makes.
    const SENTINEL_BLOCKS: u32 = 8;

    /// Runs one [`Sentinel`] launch on a fresh device under `fault`:
    /// its output, the fault tally, and the blocks interpreted, in the
    /// order they ran.
    fn run_sentinel(
        fault: Option<crate::fault::FaultSpec>,
        counted: bool,
    ) -> (Vec<f32>, FaultCounters, Vec<u32>) {
        let mut cfg = crate::config::DeviceConfig::gtx970();
        cfg.fault = fault;
        let mut dev = GpuDevice::new(cfg);
        let n = SENTINEL_BLOCKS as usize * 32;
        let y = dev.alloc(n);
        let k = Sentinel {
            y,
            n,
            interpreted: std::sync::Mutex::default(),
        };
        if counted {
            dev.run_counted(&k).unwrap();
        } else {
            dev.run(&k).unwrap();
        }
        let interpreted = k.interpreted.into_inner().unwrap();
        (dev.download(y), dev.take_fault_counters(), interpreted)
    }

    #[test]
    fn run_interprets_exactly_the_blocks_the_plan_names() {
        use crate::fault::FaultSpec;
        // A clean device, and a fault-configured one whose draw is
        // empty: no block reaches the interpreter.
        for fault in [None, Some(FaultSpec::default())] {
            let (y, tally, interpreted) = run_sentinel(fault, false);
            assert!(y.iter().all(|&v| v == SENTINEL), "{fault:?}: {y:?}");
            assert!(tally.is_empty() && interpreted.is_empty(), "{fault:?}");
        }
        // DRAM flips name no block: the host path runs, then the flips
        // land (exponent and sign bits only, so no word reads 1.0).
        let dram = FaultSpec {
            seed: 3,
            dram_rate: 8.0,
            ..FaultSpec::default()
        };
        let (y, tally, interpreted) = run_sentinel(Some(dram), false);
        assert!(tally.dram_flips > 0 && interpreted.is_empty(), "{tally:?}");
        assert!(y.iter().any(|&v| v != SENTINEL) && y.iter().all(|&v| v != 1.0));
        // Upsets on several blocks: exactly those are interpreted, in
        // launch order, and every other block takes the host path.
        let upsets = FaultSpec {
            seed: 5,
            smem_rate: 4.0,
            reg_rate: 4.0,
            ..FaultSpec::default()
        };
        let num_sms = crate::config::DeviceConfig::gtx970().num_sms;
        let plan = FaultState::new(upsets)
            .next_draw(SENTINEL_BLOCKS.into(), num_sms)
            .plan;
        let named: Vec<u32> = (0..SENTINEL_BLOCKS)
            .filter(|&b| plan.names(b.into()))
            .collect();
        assert!(named.len() >= 2 && named.len() < SENTINEL_BLOCKS as usize);
        let (y, _, interpreted) = run_sentinel(Some(upsets), false);
        assert_eq!(interpreted, named);
        for (b, words) in (0..).zip(y.chunks_exact(32)) {
            let want = if named.contains(&b) { 1.0 } else { SENTINEL };
            assert!(words.iter().all(|&v| v == want), "block {b}: {words:?}");
        }
        // run_counted interprets every block in launch order.
        for fault in [None, Some(upsets)] {
            let (y, _, interpreted) = run_sentinel(fault, true);
            assert!(y.iter().all(|&v| v == 1.0), "{fault:?}");
            assert_eq!(interpreted, (0..SENTINEL_BLOCKS).collect::<Vec<_>>());
        }
    }

    /// Stages a warp's tile through shared memory across
    /// [`crate::fault::MAX_SYNC_TARGET`] barriers and keeps it in
    /// registers before the store, so both SMEM and register upsets
    /// land in `y`.
    struct Stager {
        x: BufId,
        y: BufId,
        blocks: u32,
    }

    impl Kernel for Stager {
        fn name(&self) -> String {
            "stager".into()
        }
        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::new_1d(self.blocks), 32u32)
        }
        fn resources(&self) -> KernelResources {
            KernelResources {
                threads_per_block: 32,
                regs_per_thread: 16,
                smem_bytes_per_block: 32 * 4,
            }
        }
        fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
            let idx = full_warp_idx(|l| block.x as usize * 32 + l);
            let words: [Option<u32>; 32] = std::array::from_fn(|l| Some(l as u32));
            let v = ctx.warp_ld_global(self.x, &idx);
            ctx.warp_st_shared(&words, &v);
            for _ in 0..crate::fault::MAX_SYNC_TARGET {
                ctx.syncthreads(1);
            }
            let mut v = ctx.warp_ld_shared(&words);
            for (pick, bit) in ctx.take_accumulator_faults() {
                let l = (pick % 32) as usize;
                v[l] = flip_bit(v[l], bit);
            }
            ctx.warp_st_global(self.y, &idx, &v);
        }
        fn block_traffic(&self, block: Dim3, sink: &mut crate::traffic::TrafficSink) {
            let idx = full_warp_idx(|l| block.x as usize * 32 + l);
            let words: [Option<u32>; 32] = std::array::from_fn(|l| Some(l as u32));
            sink.global_read(self.x, &idx, 1);
            sink.shared_write(&words, 1);
            sink.syncthreads(u64::from(crate::fault::MAX_SYNC_TARGET));
            sink.shared_read(&words, 1);
            sink.global_write(self.y, &idx, 1);
        }
        fn traffic_key(&self, mem: &GlobalMem) -> Option<u64> {
            let bufs = [self.x, self.y].map(|b| mem.base_addr(b));
            Some(crate::memo::key_of(&(self.blocks, bufs)))
        }
    }

    /// What a two-launch pipeline leaves behind on `dev`: each
    /// launch's profile with the applied faults folded in (as the
    /// serving pipelines fold them), the output bits, and the
    /// device's remaining fault tally.
    fn stage_twice(mut dev: GpuDevice) -> (Vec<KernelProfile>, Vec<u32>, FaultCounters) {
        let blocks = 16;
        let x = dev.upload(&(0..blocks * 32).map(|i| i as f32).collect::<Vec<_>>());
        let y = dev.alloc(blocks * 32);
        let z = dev.alloc(blocks * 32);
        let mut profiles = Vec::new();
        for k in [
            Stager {
                x,
                y,
                blocks: blocks as u32,
            },
            Stager {
                x: y,
                y: z,
                blocks: blocks as u32,
            },
        ] {
            let mut kp = dev.launch(&k).unwrap();
            dev.run(&k).unwrap();
            kp.faults.merge(&dev.take_fault_counters());
            profiles.push(kp);
        }
        let bits = dev.download(z).iter().map(|v| v.to_bits()).collect();
        (profiles, bits, dev.take_fault_counters())
    }

    fn upset_device() -> crate::config::DeviceConfig {
        crate::config::DeviceConfig {
            fault: Some(crate::fault::FaultSpec {
                seed: 11,
                smem_rate: 6.0,
                reg_rate: 6.0,
                ..crate::fault::FaultSpec::default()
            }),
            ..crate::config::DeviceConfig::gtx970()
        }
    }

    /// A fresh device of `cfg` on `memo`.
    fn on_memo(cfg: &DeviceConfig, memo: &Arc<ReplayMemo>) -> GpuDevice {
        GpuDevice::new(cfg.clone()).with_memo(Arc::clone(memo))
    }

    fn memo_stats(hits: u64, misses: u64) -> crate::memo::ReplayMemoStats {
        crate::memo::ReplayMemoStats {
            hits,
            misses,
            retired: 0,
        }
    }

    #[test]
    fn a_memo_hit_keeps_the_bits_and_fault_tally_under_upsets() {
        let cfg = upset_device();
        let (replayed, bits, rest) = stage_twice(GpuDevice::new(cfg.clone()));
        let applied: u64 = replayed
            .iter()
            .map(|p| p.faults.smem_flips + p.faults.reg_flips)
            .sum();
        assert!(
            replayed
                .iter()
                .all(|p| p.faults.smem_flips > 0 && p.faults.reg_flips > 0),
            "both kinds of upset land: {:?}",
            replayed.iter().map(|p| p.faults).collect::<Vec<_>>()
        );
        assert!(applied > 0 && rest.is_empty());
        let want = (replayed, bits, rest);
        let memo = Arc::new(ReplayMemo::new());
        assert_eq!(stage_twice(on_memo(&cfg, &memo)), want);
        assert_eq!(memo.stats(), memo_stats(0, 2));
        assert_eq!(stage_twice(on_memo(&cfg, &memo)), want);
        assert_eq!(memo.stats(), memo_stats(2, 2));
    }

    #[test]
    fn a_launch_fault_still_fails_a_memo_hit() {
        let clean = DeviceConfig::gtx970();
        let memo = Arc::new(ReplayMemo::new());
        let _ = stage_twice(on_memo(&clean, &memo));
        let mut watchdog = clean.clone();
        watchdog.fault = Some(crate::fault::FaultSpec {
            watchdog_rate: 1.0,
            ..crate::fault::FaultSpec::default()
        });
        // The first launch of `stage_twice`, on the same buffers.
        let first = |cfg: &DeviceConfig| {
            let mut dev = on_memo(cfg, &memo);
            let x = dev.alloc(16 * 32);
            let y = dev.alloc(16 * 32);
            let launched = dev.launch(&Stager { x, y, blocks: 16 });
            (launched, dev.take_fault_counters().launch_faults)
        };
        let (launched, faults) = first(&watchdog);
        assert!(matches!(launched, Err(LaunchError::WatchdogTimeout { .. })));
        assert_eq!(faults, 1);
        assert_eq!(memo.stats(), memo_stats(0, 2), "no lookup");
        let (launched, faults) = first(&clean);
        assert!(launched.is_ok() && faults == 0);
        assert_eq!(memo.stats(), memo_stats(1, 2), "the entry was there");
    }

    /// Two devices of different timing constants share a memo: the
    /// second's launches hit, take the first's counters and traffic,
    /// and keep their own timing, equal to a replaying device's.
    #[test]
    fn a_memo_hit_keeps_the_devices_own_timing() {
        let slow = TimingParams {
            cudac_issue_efficiency: 0.3,
            ..TimingParams::default()
        };
        let memo = Arc::new(ReplayMemo::new());
        let run = |params: TimingParams, memo: Option<&Arc<ReplayMemo>>| {
            let mut dev = GpuDevice::gtx970();
            if let Some(memo) = memo {
                dev = dev.with_memo(Arc::clone(memo));
            }
            dev.set_timing_params(params);
            let x = dev.alloc(64 * 64);
            let y = dev.alloc(64 * 64);
            let k = Tiled {
                x,
                y,
                blocks: 64,
                stride: 32,
            };
            [dev.launch(&k).unwrap(), dev.launch(&k).unwrap()]
        };
        let first = run(TimingParams::default(), Some(&memo));
        assert_eq!(memo.stats().misses, 2);
        let second = run(slow, Some(&memo));
        assert_eq!(memo.stats().hits, 2);
        assert_eq!(second, run(slow, None));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!((a.counters, a.mem), (b.counters, b.mem));
            assert_ne!(a.timing, b.timing);
        }
    }

    /// A key that leaves out the output buffer's address claims two
    /// different streams are one: the first hit records the first
    /// block again, finds another stream, retires the entry and
    /// replays.
    #[test]
    fn a_memo_entry_whose_first_block_disagrees_is_retired() {
        struct Careless(Streamer);
        impl Kernel for Careless {
            fn name(&self) -> String {
                self.0.name()
            }
            fn launch_config(&self) -> LaunchConfig {
                self.0.launch_config()
            }
            fn resources(&self) -> KernelResources {
                self.0.resources()
            }
            fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
                self.0.execute_block(block, ctx);
            }
            fn block_traffic(&self, block: Dim3, sink: &mut crate::traffic::TrafficSink) {
                self.0.block_traffic(block, sink);
            }
            fn traffic_key(&self, mem: &GlobalMem) -> Option<u64> {
                Some(crate::memo::key_of(&mem.base_addr(self.0.x)))
            }
        }
        let n = 32 * 64;
        let run = |memo: Option<&Arc<ReplayMemo>>, output: usize| {
            let mut dev = GpuDevice::gtx970();
            if let Some(memo) = memo {
                dev = dev.with_memo(Arc::clone(memo));
            }
            let x = dev.alloc(n);
            let ys: Vec<BufId> = (0..2).map(|_| dev.alloc(n)).collect();
            let y = ys[output];
            dev.launch(&Careless(Streamer { x, y, n })).unwrap()
        };
        let memo = Arc::new(ReplayMemo::new());
        assert_eq!(run(Some(&memo), 0), run(None, 0));
        assert_eq!(run(Some(&memo), 1), run(None, 1));
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.retired), (0, 2, 1));
    }

    #[test]
    fn profile_carries_occupancy() {
        let mut dev = GpuDevice::gtx970();
        let x = dev.alloc(32);
        let y = dev.alloc(32);
        let p = dev.launch(&Streamer { x, y, n: 32 }).unwrap();
        assert_eq!(p.occupancy.blocks_per_sm, 32); // tiny kernel, block-limited
    }
}
