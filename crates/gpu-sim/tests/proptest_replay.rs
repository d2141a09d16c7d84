//! Property-based tests of traffic replay: memoized replay reproduces
//! the serial walk's counters and memory traffic on random grids, with
//! and without block classes; devices sharing a replay memo profile
//! random launch sequences as fresh serial devices do; and counter
//! merging is order-independent.

use std::sync::Arc;

use ks_gpu_sim::dim::{Dim3, LaunchConfig};
use ks_gpu_sim::exec::BlockCtx;
use ks_gpu_sim::kernel::{BlockClass, KernelResources};
use ks_gpu_sim::memo::key_of;
use ks_gpu_sim::traffic::{full_warp_idx, full_warp_words, WarpIdx};
use ks_gpu_sim::{
    BufId, Counters, DeviceConfig, GlobalMem, GpuDevice, Kernel, KernelProfile, ReplayMemo,
    ReplayStrategy, TrafficSink,
};
use proptest::prelude::*;

/// Heterogeneous kernel driven by a per-block table of tile bases:
/// block `i` reads `x[bases[i]..+32]`, writes `y` at the same offset,
/// and every third block also issues an atomic — enough variety to
/// exercise the Full replay mode (reads, writes, atomics, per-block
/// counter differences).
struct Scatter {
    x: BufId,
    y: BufId,
    bases: Vec<usize>,
}

impl Kernel for Scatter {
    fn name(&self) -> String {
        "scatter".into()
    }
    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(Dim3::new_1d(self.bases.len() as u32), 32u32)
    }
    fn resources(&self) -> KernelResources {
        KernelResources {
            threads_per_block: 32,
            regs_per_thread: 16,
            smem_bytes_per_block: 0,
        }
    }
    fn execute_block(&self, _block: Dim3, _ctx: &mut BlockCtx) {
        unreachable!("traffic-only kernel");
    }
    fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink) {
        let base = self.bases[block.x as usize];
        let idx = full_warp_idx(|l| base + l);
        sink.global_read(self.x, &idx, 1);
        sink.ffma(1 + block.x as u64 % 3);
        sink.global_write(self.y, &idx, 1);
        if block.x.is_multiple_of(3) {
            sink.global_atomic(self.y, &idx);
        }
    }
}

/// Heterogeneous kernel with several honestly declared block classes:
/// block `i` is `(class, base)`. Each class has its own compute,
/// shared-memory and atomic mix; every block of a class issues that
/// mix against the tile at its own base, anchored in both buffers.
struct Classes {
    x: BufId,
    y: BufId,
    blocks: Vec<(u64, usize)>,
}

impl Kernel for Classes {
    fn name(&self) -> String {
        "classes".into()
    }
    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(Dim3::new_1d(self.blocks.len() as u32), 32u32)
    }
    fn resources(&self) -> KernelResources {
        KernelResources {
            threads_per_block: 32,
            regs_per_thread: 16,
            smem_bytes_per_block: 4096,
        }
    }
    fn execute_block(&self, _block: Dim3, _ctx: &mut BlockCtx) {
        unreachable!("traffic-only kernel");
    }
    fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink) {
        let (class, base) = self.blocks[block.x as usize];
        let idx = full_warp_idx(|l| base + l);
        sink.global_read(self.x, &idx, 1);
        sink.ffma(1 + class);
        if class % 2 == 1 {
            // Stride class + 1 words: a class-dependent bank-conflict
            // degree.
            let words = full_warp_words(|l| (l as u64 * (class + 1)) as u32);
            sink.shared_write(&words, 1);
            sink.syncthreads(1);
            sink.shared_read(&words, 1);
        }
        sink.global_write(self.y, &idx, 1);
        if class == 2 {
            sink.global_atomic(self.y, &idx);
        }
    }
    fn block_class(&self, block: Dim3) -> Option<BlockClass> {
        let (class, base) = self.blocks[block.x as usize];
        Some(BlockClass {
            key: class,
            anchors: vec![(self.x, base), (self.y, base)],
        })
    }
}

/// Launches a kernel built over two fresh 8192-cell buffers.
fn profile_with(
    strategy: ReplayStrategy,
    kernel: impl Fn(BufId, BufId) -> Box<dyn Kernel>,
) -> ks_gpu_sim::KernelProfile {
    let mut dev = GpuDevice::gtx970();
    let x = dev.alloc(8192);
    let y = dev.alloc(8192);
    dev.set_replay_strategy(strategy);
    dev.launch(kernel(x, y).as_ref()).unwrap()
}

/// The replay memo's probe: block `i` reads `x` and writes `y` at
/// element `i · stride`, with `work` FFMAs between. A block class (when
/// `tiled`) changes only how a launch replays, never its stream, so it
/// stays out of the traffic key; an unkeyed probe is never memoised.
#[derive(Debug, Clone, Copy)]
struct Probe {
    x: BufId,
    y: BufId,
    blocks: u32,
    stride: usize,
    work: u64,
    tiled: bool,
    keyed: bool,
}

impl Probe {
    fn tile(&self, block: Dim3) -> WarpIdx {
        let base = block.x as usize * self.stride;
        full_warp_idx(|l| base + l)
    }
}

impl Kernel for Probe {
    fn name(&self) -> String {
        "probe".into()
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
        let idx = self.tile(block);
        let v = ctx.warp_ld_global(self.x, &idx);
        ctx.warp_st_global(self.y, &idx, &v);
    }
    fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink) {
        let idx = self.tile(block);
        sink.global_read(self.x, &idx, 1);
        sink.ffma(self.work);
        sink.global_write(self.y, &idx, 1);
    }
    fn block_class(&self, block: Dim3) -> Option<BlockClass> {
        let base = block.x as usize * self.stride;
        self.tiled.then(|| BlockClass {
            key: 0,
            anchors: vec![(self.x, base), (self.y, base)],
        })
    }
    fn traffic_key(&self, mem: &GlobalMem) -> Option<u64> {
        let bufs = [self.x, self.y].map(|b| mem.base_addr(b));
        self.keyed.then(|| key_of(&(self.stride, self.work, bufs)))
    }
}

/// A probe over the sequence's buffers: `x` and `y` index them.
#[derive(Debug, Clone, Copy)]
struct Spec {
    x: usize,
    y: usize,
    blocks: u32,
    stride: usize,
    work: u64,
    /// Bit 0: tiled; bits 1–3 nonzero: keyed.
    flags: u32,
}

impl Spec {
    fn probe(&self, bufs: &[BufId]) -> Probe {
        Probe {
            x: bufs[self.x],
            y: bufs[self.y],
            blocks: self.blocks,
            stride: self.stride,
            work: self.work,
            tiled: self.flags & 1 == 1,
            keyed: self.flags >> 1 != 0,
        }
    }
}

/// One step of a device's sequence.
#[derive(Debug, Clone, Copy)]
enum Op {
    Launch(Spec),
    Counted(Spec),
    Invalidate,
}

fn op() -> impl Strategy<Value = Op> {
    let spec = (
        (0usize..3, 0usize..3),
        1u32..9,
        proptest::sample::select(vec![3usize, 8, 32, 64]),
        1u64..3,
        0u32..16,
    )
        .prop_map(|((x, y), blocks, stride, work, flags)| Spec {
            x,
            y,
            blocks,
            stride,
            work,
            flags,
        });
    (0u32..12, spec).prop_map(|(kind, spec)| match kind {
        0..=8 => Op::Launch(spec),
        9 => Op::Counted(spec),
        _ => Op::Invalidate,
    })
}

/// A GTX970 with a 4 KB L2 (8 sets): a few probe launches fill it, so
/// recency order decides evictions.
fn small_l2() -> DeviceConfig {
    DeviceConfig {
        l2_bytes: 4096,
        ..DeviceConfig::gtx970()
    }
}

/// Runs `ops` on `dev` over three fresh 1024-cell buffers.
fn run_ops(mut dev: GpuDevice, ops: &[Op]) -> Vec<KernelProfile> {
    let bufs: Vec<BufId> = (0..3).map(|_| dev.alloc(1024)).collect();
    let mut profiles = Vec::new();
    for op in ops {
        match op {
            Op::Launch(s) => profiles.push(dev.launch(&s.probe(&bufs)).unwrap()),
            Op::Counted(s) => profiles.push(dev.run_counted(&s.probe(&bufs)).unwrap()),
            Op::Invalidate => dev.invalidate_l2(),
        }
    }
    profiles
}

fn counters_strategy() -> impl Strategy<Value = Counters> {
    (
        0u64..1000,
        0u64..1000,
        0u64..1000,
        0u64..1000,
        0u64..1000,
        0u64..1000,
    )
        .prop_map(|(ffma, loads, l2r, atom, flops, thread)| Counters {
            ffma_insts: ffma,
            global_load_insts: loads,
            l2_read_sectors: l2r,
            atomic_sectors: atom,
            flops,
            thread_insts: thread,
            ..Counters::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A kernel that declares no classes replays identically under
    /// both strategies (every counter and the L2/DRAM traffic delta).
    #[test]
    fn memoized_replay_matches_serial_on_scatter(
        bases in proptest::collection::vec(0usize..8000, 1..20),
    ) {
        let kernel = |x, y| -> Box<dyn Kernel> {
            Box::new(Scatter { x, y, bases: bases.clone() })
        };
        let serial = profile_with(ReplayStrategy::Serial, kernel);
        let memo = profile_with(ReplayStrategy::Memoized, kernel);
        prop_assert_eq!(serial.counters, memo.counters);
        prop_assert_eq!(serial.mem, memo.mem);
    }

    /// Several honest classes over random bases — sector-aligned ones
    /// translate, sub-sector ones walk directly — replay identically
    /// under both strategies.
    #[test]
    fn memoized_replay_matches_serial_on_multi_class_kernel(
        blocks in proptest::collection::vec(
            (0u64..4, 0usize..1000, any::<bool>(), 1usize..8),
            1..25,
        ),
    ) {
        let blocks: Vec<(u64, usize)> = blocks
            .into_iter()
            .map(|(class, sector, aligned, off)| {
                (class, sector * 8 + if aligned { 0 } else { off })
            })
            .collect();
        let kernel = |x, y| -> Box<dyn Kernel> {
            Box::new(Classes { x, y, blocks: blocks.clone() })
        };
        let serial = profile_with(ReplayStrategy::Serial, kernel);
        let memo = profile_with(ReplayStrategy::Memoized, kernel);
        prop_assert_eq!(serial.counters, memo.counters);
        prop_assert_eq!(serial.mem, memo.mem);
    }

    /// Per-block counters merge to the same total in any order (the
    /// engine still folds them in grid order; this pins down that the
    /// choice is presentational, not load-bearing).
    #[test]
    fn counter_merge_is_order_independent(
        per_block in proptest::collection::vec(counters_strategy(), 1..32),
        seed in 0u64..10_000,
    ) {
        let mut grid_order = Counters::default();
        for c in &per_block {
            grid_order.merge(c);
        }
        let mut perm: Vec<usize> = (0..per_block.len()).collect();
        let mut state = seed | 1;
        for i in (1..perm.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let mut permuted = Counters::default();
        for &i in &perm {
            permuted.merge(&per_block[i]);
        }
        prop_assert_eq!(grid_order, permuted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Devices sharing one memo run a sequence's keyed launches alone,
    /// then the whole sequence twice — repeated launches, launches on
    /// other buffers and with other parameters, tiled and untiled,
    /// between `invalidate_l2`, `run_counted` and unkeyed launches —
    /// and every profile equals a fresh serial device's without a
    /// memo.
    #[test]
    fn memo_devices_profile_as_fresh_serial_devices(
        ops in proptest::collection::vec(op(), 1..24),
    ) {
        let keyed: Vec<Op> = ops
            .iter()
            .copied()
            .filter(|op| matches!(op, Op::Launch(s) if s.flags >> 1 != 0))
            .collect();
        let memo = Arc::new(ReplayMemo::new());
        for seq in [&keyed, &ops, &ops] {
            let mut serial = GpuDevice::new(small_l2());
            serial.set_replay_strategy(ReplayStrategy::Serial);
            let want = run_ops(serial, seq);
            let got = run_ops(GpuDevice::new(small_l2()).with_memo(Arc::clone(&memo)), seq);
            prop_assert_eq!(got, want, "{:?}", seq);
        }
        prop_assert_eq!(memo.stats().retired, 0);
    }
}
