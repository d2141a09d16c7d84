//! # ks-gpu-sim — Maxwell-class GPGPU simulator
//!
//! The hardware substrate for the kernel-summation reproduction. The
//! paper ran on an NVIDIA GTX970 (Maxwell, CC 5.2) and its results are
//! functions of that machine's memory system: shared-memory bank
//! conflicts, global-access coalescing, L2 hit rates, DRAM transaction
//! counts, occupancy, and an analytical execution-time model. This
//! crate reproduces each of those mechanisms:
//!
//! * [`config`] — device description (Table I of the paper).
//! * [`dim`] — grids, blocks, threads, warps.
//! * [`occupancy`](crate::occupancy()) — the CUDA occupancy
//!   calculator.
//! * [`smem`] — 32-bank shared memory with broadcast-aware conflict
//!   analysis.
//! * [`coalesce`] — global-access → 32-byte-sector transaction model.
//! * [`cache`] — set-associative write-back L2 model.
//! * [`buffer`] — device global memory (flat address space, f32 cells).
//! * [`kernel`] — the [`kernel::Kernel`] trait: every GPU kernel
//!   provides a *functional* block executor (numerics) and a *traffic*
//!   generator (pure access pattern, usable at paper-scale sizes
//!   without materialising data).
//! * [`traffic`] — the sink that turns warp-level accesses into
//!   transaction counts through the coalescer, bank model and L2.
//! * [`trace`] — warp-level access recording for the `ks-analyze`
//!   static checks (races, bank conflicts, barrier divergence).
//! * [`exec`] — functional block-synchronous execution engine.
//! * [`fault`] — deterministic, seeded soft-error injection (SMEM /
//!   register / DRAM bit flips, SM loss, watchdog kills).
//! * [`replay`] — traffic replay: one grid-order walk through the live
//!   L2 on the calling thread, with block-class memoization
//!   bit-identical to the serial walk ([`replay::ReplayStrategy`]).
//! * [`memo`] — the cross-launch replay memo: a keyed launch repeated
//!   from the same L2 state restores the L2 it left instead of
//!   replaying ([`memo::ReplayMemo`]).
//! * [`device`] — [`device::GpuDevice`]: allocation, launch, profiling.
//! * [`profiler`] — nvprof-like counters ([`profiler::Counters`],
//!   [`profiler::KernelProfile`]).
//! * [`timing`] — analytical roofline-with-latency timing model with a
//!   CUDA-C-vs-vendor penalty model (paper §V-A).
//!
//! The simulator is calibrated against the GTX970 datasheet, not
//! against the paper's outputs; see `DESIGN.md` §4.
//!
//! ```
//! use ks_gpu_sim::{occupancy, DeviceConfig, KernelResources};
//!
//! // The paper's §III-A occupancy argument, reproduced:
//! let dev = DeviceConfig::gtx970();
//! let occ = occupancy(&dev, &KernelResources {
//!     threads_per_block: 256,   // 16×16 threads
//!     regs_per_thread: 128,     // 64 accumulators + operands
//!     smem_bytes_per_block: 16 * 1024, // double-buffered tiles
//! });
//! assert_eq!(occ.blocks_per_sm, 2);
//! ```

#![warn(missing_docs)]
// Warp-granular models index explicit lane loops on purpose: the code
// mirrors per-lane hardware behaviour.
#![allow(clippy::needless_range_loop)]

pub mod access;
pub mod buffer;
pub mod cache;
pub mod coalesce;
pub mod config;
pub mod device;
pub mod dim;
pub mod exec;
pub mod fault;
pub mod kernel;
pub mod memo;
pub mod occupancy;
pub mod profiler;
pub mod replay;
pub mod report;
pub mod smem;
pub mod timing;
pub mod trace;
pub mod traffic;

pub use access::{AccessSpec, BarrierSpec, GlobalPattern, LoopDim, SharedPattern};
pub use buffer::{BufId, GlobalMem};
pub use config::{DeviceConfig, Interconnect};
pub use device::GpuDevice;
pub use dim::{Dim3, LaunchConfig};
pub use exec::BlockCtx;
pub use fault::{
    DevicePhase, FaultCounters, FaultSpec, LifecycleSpec, LifecycleState, LinkDraw, LinkFaultSpec,
    LinkFaultState,
};
pub use kernel::{
    AnalysisBudget, BlockClass, BufferUse, ExecModel, Kernel, KernelResources, LaunchError,
    TimingHints, VecWidth,
};
pub use memo::{ReplayMemo, ReplayMemoStats};
pub use occupancy::{occupancy, Occupancy, OccupancyLimiter};
pub use profiler::{Counters, KernelProfile, PipelineProfile, TransferProfile};
pub use replay::ReplayStrategy;
pub use timing::{estimate_transfer, estimate_transfer_faulted, KernelTiming, TimingParams};
pub use trace::{AccessDir, BlockTrace, TraceSink};
pub use traffic::{L2Event, TrafficSink};
