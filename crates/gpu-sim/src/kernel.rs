//! The [`Kernel`] trait — what a GPU kernel looks like to the simulator.
//!
//! Each kernel supplies:
//!
//! * its launch geometry and static resource usage (registers/thread,
//!   shared memory/block) — the inputs to the occupancy calculator;
//! * `execute_block` — the **functional** implementation, run against
//!   real device buffers to validate numerics;
//! * optionally `execute_exact` — a host evaluation of the launch in
//!   the interpreter's exact floating-point order, which functional
//!   runs take instead of interpreting warps, handing only the blocks
//!   a fault plan names to the interpreter;
//! * `block_traffic` — the **traffic** implementation, which replays
//!   exactly the same warp-level access pattern into a
//!   [`crate::traffic::TrafficSink`] without touching data, so
//!   paper-scale problems (`M = 524288`) can be profiled without
//!   materialising the `M×N` intermediate.
//!
//! The two implementations share their address-mapping helpers in
//! `ks-gpu-kernels`; consistency between them is enforced by tests
//! that run both on small problems and compare every counter.

use crate::buffer::{BufId, GlobalMem};
use crate::config::DeviceConfig;
use crate::dim::{Dim3, LaunchConfig};
use crate::exec::{BlockCtx, NamedBlocks};
use crate::occupancy::OccupancyLimiter;
use crate::traffic::TrafficSink;

/// Static per-kernel resource usage (occupancy inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct KernelResources {
    /// Threads per block (product of the block dims).
    pub threads_per_block: u32,
    /// Registers per thread, as the compiler would allocate.
    pub regs_per_thread: u32,
    /// Static shared memory per block in bytes.
    pub smem_bytes_per_block: u32,
}

/// Which instruction-scheduling model the timing estimator applies.
///
/// The paper attributes its 1.5–2.0× GEMM gap vs cuBLAS to CUDA-C
/// limitations (§V-A): no control over register-bank conflicts, only
/// heavyweight `__syncthreads()`, no hand-scheduled dual issue. The
/// `Vendor` model removes those penalties — it is how we model the
/// closed-source cuBLAS kernel (see DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecModel {
    /// Compiler-scheduled CUDA-C code (penalties on).
    #[default]
    CudaC,
    /// Hand-scheduled assembly, cuBLAS-class (penalties off).
    Vendor,
}

/// Per-kernel hints consumed by the timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingHints {
    /// Instruction scheduling model.
    pub exec_model: ExecModel,
    /// Memory-level parallelism: outstanding global loads a single
    /// warp sustains (double buffering with `float4` loads ⇒ ~8).
    pub mlp: f64,
}

impl Default for TimingHints {
    fn default() -> Self {
        Self {
            exec_model: ExecModel::CudaC,
            mlp: 4.0,
        }
    }
}

/// One global buffer a kernel touches, declared for bounds checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferUse {
    /// The buffer.
    pub buf: BufId,
    /// Declared extent in elements; accesses at or past this index are
    /// out of bounds.
    pub len: usize,
    /// Whether the kernel writes (or atomically updates) the buffer.
    pub writes: bool,
    /// Human-readable role for findings ("a", "partials", …).
    pub label: &'static str,
}

/// Budgets and expectations a kernel declares for static analysis
/// (`ks-analyze`); every field has a permissive default so ordinary
/// kernels need not opt in.
#[derive(Debug, Clone, Default)]
pub struct AnalysisBudget {
    /// Worst tolerated shared-memory conflict degree per warp access
    /// phase (0 = every access must be conflict-free, the Fig. 5
    /// guarantee).
    pub smem_conflict_budget: u32,
    /// Expected blocks per SM on the reference device (`None` = not
    /// checked). The fused kernel pins this to 2 per §III-A.
    pub expected_blocks_per_sm: Option<u32>,
    /// Expected occupancy limiter (`None` = not checked).
    pub expected_limiter: Option<OccupancyLimiter>,
    /// Global buffers the kernel may touch, with extents. Empty list =
    /// bounds checking skipped (nothing declared).
    pub buffers: Vec<BufferUse>,
}

/// Declares which translation class a block's global traffic belongs
/// to, enabling memoized replay (see `crate::replay`).
///
/// Two blocks with the same `key` must issue **identical** warp-level
/// instruction streams whose global accesses differ only by where
/// each anchored buffer access lands — the `anchors`, paired by
/// position. For such a pair, every sector address of one block
/// equals the corresponding sector address of the other moved by the
/// distance between the paired anchors' addresses, which may lie in
/// different buffers, provided that distance is a multiple of the
/// sector size (the replay engine verifies this at runtime and falls
/// back to direct replay otherwise). Buffers absent from `anchors`
/// are accessed at block-independent addresses (delta 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockClass {
    /// Class discriminant; blocks sharing a key are
    /// translation-equivalent.
    pub key: u64,
    /// `(buffer, element offset)` anchors of this block's accesses.
    pub anchors: Vec<(BufId, usize)>,
}

/// A simulated GPU kernel. See the module docs.
pub trait Kernel: Sync {
    /// Kernel name (appears in profiles, like nvprof's kernel column).
    fn name(&self) -> String;

    /// Grid/block geometry.
    fn launch_config(&self) -> LaunchConfig;

    /// Registers and shared memory consumed.
    fn resources(&self) -> KernelResources;

    /// Timing-model hints (exec model, MLP).
    fn timing_hints(&self) -> TimingHints {
        TimingHints::default()
    }

    /// Functional execution of one thread block (numerics + optional
    /// tracing through the [`BlockCtx`]).
    fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx);

    /// Exact host evaluation of the launch, taken by every
    /// [`crate::device::GpuDevice::run`]. `named` holds the blocks the
    /// launch's fault plan names (none on a quiet launch): the kernel
    /// offers each block to [`NamedBlocks::interpret`] at its own place
    /// in launch order, which interprets the named ones, and evaluates
    /// every other block on the host.
    /// The contract: either leave `mem` bit for bit as
    /// [`crate::device::GpuDevice::run_counted`] would — every block in
    /// launch order (`x` fastest), the named ones interpreted with
    /// their faults armed — and return `true`; or return `false`
    /// without touching `mem`, and every block is interpreted. (A NaN
    /// input may leave a NaN of another payload: Rust does not specify
    /// which NaN an operation on NaNs returns.) The default has no
    /// host evaluation.
    fn execute_exact(&self, mem: &GlobalMem, named: NamedBlocks<'_>) -> bool {
        let _ = (mem, named);
        false
    }

    /// Pure access-pattern replay of one thread block.
    fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink);

    /// Budgets and expectations for static analysis (`ks-analyze`).
    /// The default declares nothing: conflict budget 0, no occupancy
    /// expectation, no buffer extents (bounds checking skipped).
    fn analysis_budget(&self) -> AnalysisBudget {
        AnalysisBudget::default()
    }

    /// The kernel's declared symbolic access pattern for the static
    /// (zero-execution) lint, or `None` (the default) when the kernel
    /// makes no declaration — the analyzer then falls back to the
    /// dynamic trace-based lint. Specs are *claims*: the differential
    /// validator in `ks-analyze` cross-checks every declared pattern
    /// against recorded traces and simulator counters.
    fn access_spec(&self) -> Option<crate::access::AccessSpec> {
        None
    }

    /// The block's translation class for memoized replay, or `None`
    /// (the default) when the block's traffic is not known to be a
    /// pure translation of some class representative — every block is
    /// then replayed directly. Kernels whose per-block addressing is
    /// affine in the block coordinates (all the tiled kernels in this
    /// workspace) override this with their per-buffer anchors.
    fn block_class(&self, block: Dim3) -> Option<BlockClass> {
        let _ = block;
        None
    }

    /// A hash ([`crate::memo::key_of`]) of everything this launch's
    /// block streams and non-timing counters depend on — its
    /// parameters and the addresses in `mem` of the buffers it
    /// touches, never its name or exec model — so a launch repeated
    /// from the same L2 state replays once ([`crate::memo`]). Two
    /// launches of one launch config with equal keys must issue
    /// identical block streams. The default, `None`, is never
    /// memoised.
    fn traffic_key(&self, mem: &GlobalMem) -> Option<u64> {
        let _ = mem;
        None
    }
}

/// Vector width of a warp memory operation, in 32-bit words per lane.
///
/// Memory operations are typed on this enum so an unsupported width
/// surfaces as [`LaunchError::UnsupportedVectorWidth`] where the width
/// is chosen, rather than as a panic deep inside a kernel body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum VecWidth {
    /// Scalar `float` access.
    V1,
    /// `float2` access.
    V2,
    /// `float4` access.
    V4,
}

impl VecWidth {
    /// Words per lane.
    #[must_use]
    pub fn words(self) -> u32 {
        match self {
            VecWidth::V1 => 1,
            VecWidth::V2 => 2,
            VecWidth::V4 => 4,
        }
    }
}

impl TryFrom<u32> for VecWidth {
    type Error = LaunchError;

    fn try_from(vlen: u32) -> Result<Self, LaunchError> {
        match vlen {
            1 => Ok(VecWidth::V1),
            2 => Ok(VecWidth::V2),
            4 => Ok(VecWidth::V4),
            _ => Err(LaunchError::UnsupportedVectorWidth { vlen }),
        }
    }
}

/// Why a launch was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// Block has zero threads or grid has zero blocks.
    EmptyLaunch,
    /// Threads per block exceeds the device maximum.
    TooManyThreads {
        /// Requested threads per block.
        requested: u32,
        /// Device limit.
        limit: u32,
    },
    /// Registers per thread exceeds the device maximum.
    TooManyRegisters {
        /// Requested registers per thread.
        requested: u32,
        /// Device limit.
        limit: u32,
    },
    /// Shared memory per block exceeds the device maximum.
    TooMuchSharedMemory {
        /// Requested bytes per block.
        requested: u32,
        /// Device limit.
        limit: u32,
    },
    /// Declared `threads_per_block` disagrees with the block dims.
    InconsistentResources {
        /// Threads from the launch config.
        from_launch: u64,
        /// Threads from the resource declaration.
        from_resources: u32,
    },
    /// A memory operation requested a vector width the hardware model
    /// does not support (only 1, 2 and 4 words per lane exist).
    UnsupportedVectorWidth {
        /// Requested words per lane.
        vlen: u32,
    },
    /// An injected launch-level fault: an SM dropped off the bus
    /// mid-launch (see [`crate::fault`]).
    SmLost {
        /// Which SM was lost.
        sm: u32,
    },
    /// An injected launch-level fault: the driver watchdog killed the
    /// launch (see [`crate::fault`]).
    WatchdogTimeout {
        /// The watchdog limit that was exceeded, in milliseconds.
        limit_ms: u32,
    },
}

impl LaunchError {
    /// True for errors produced by the fault-injection subsystem
    /// rather than an invalid launch configuration — the cases a
    /// resilient caller may retry.
    #[must_use]
    pub fn is_injected_fault(&self) -> bool {
        matches!(
            self,
            LaunchError::SmLost { .. } | LaunchError::WatchdogTimeout { .. }
        )
    }
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::EmptyLaunch => write!(f, "empty grid or block"),
            LaunchError::TooManyThreads { requested, limit } => {
                write!(
                    f,
                    "{requested} threads per block exceeds device limit {limit}"
                )
            }
            LaunchError::TooManyRegisters { requested, limit } => {
                write!(
                    f,
                    "{requested} registers per thread exceeds device limit {limit}"
                )
            }
            LaunchError::TooMuchSharedMemory { requested, limit } => {
                write!(
                    f,
                    "{requested} bytes of shared memory exceeds device limit {limit}"
                )
            }
            LaunchError::InconsistentResources {
                from_launch,
                from_resources,
            } => {
                write!(f, "launch config has {from_launch} threads but resources declare {from_resources}")
            }
            LaunchError::UnsupportedVectorWidth { vlen } => {
                write!(f, "unsupported vector width {vlen} (expected 1, 2 or 4)")
            }
            LaunchError::SmLost { sm } => {
                write!(f, "injected fault: SM {sm} lost during launch")
            }
            LaunchError::WatchdogTimeout { limit_ms } => {
                write!(
                    f,
                    "injected fault: watchdog killed launch after {limit_ms} ms"
                )
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// Validates a kernel's launch against device limits — the simulator's
/// `cudaErrorInvalidConfiguration` check.
///
/// # Errors
/// Returns the first violated limit.
pub fn validate_launch(dev: &DeviceConfig, kernel: &dyn Kernel) -> Result<(), LaunchError> {
    let lc = kernel.launch_config();
    let res = kernel.resources();
    if lc.total_blocks() == 0 || lc.threads_per_block() == 0 {
        return Err(LaunchError::EmptyLaunch);
    }
    if lc.threads_per_block() != res.threads_per_block as u64 {
        return Err(LaunchError::InconsistentResources {
            from_launch: lc.threads_per_block(),
            from_resources: res.threads_per_block,
        });
    }
    if res.threads_per_block > dev.max_threads_per_block {
        return Err(LaunchError::TooManyThreads {
            requested: res.threads_per_block,
            limit: dev.max_threads_per_block,
        });
    }
    if res.regs_per_thread > dev.max_regs_per_thread {
        return Err(LaunchError::TooManyRegisters {
            requested: res.regs_per_thread,
            limit: dev.max_regs_per_thread,
        });
    }
    if res.smem_bytes_per_block > dev.max_smem_per_block {
        return Err(LaunchError::TooMuchSharedMemory {
            requested: res.smem_bytes_per_block,
            limit: dev.max_smem_per_block,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy {
        lc: LaunchConfig,
        res: KernelResources,
    }

    impl Kernel for Dummy {
        fn name(&self) -> String {
            "dummy".into()
        }
        fn launch_config(&self) -> LaunchConfig {
            self.lc
        }
        fn resources(&self) -> KernelResources {
            self.res
        }
        fn execute_block(&self, _: Dim3, _: &mut BlockCtx) {}
        fn block_traffic(&self, _: Dim3, _: &mut TrafficSink) {}
    }

    fn dummy(threads: u32, regs: u32, smem: u32) -> Dummy {
        Dummy {
            lc: LaunchConfig::new(4u32, threads),
            res: KernelResources {
                threads_per_block: threads,
                regs_per_thread: regs,
                smem_bytes_per_block: smem,
            },
        }
    }

    #[test]
    fn valid_launch_passes() {
        let dev = DeviceConfig::gtx970();
        assert!(validate_launch(&dev, &dummy(256, 128, 16384)).is_ok());
    }

    #[test]
    fn rejects_too_many_threads() {
        let dev = DeviceConfig::gtx970();
        let e = validate_launch(&dev, &dummy(1056, 32, 0)).unwrap_err();
        assert!(matches!(
            e,
            LaunchError::TooManyThreads {
                requested: 1056,
                ..
            }
        ));
        assert!(e.to_string().contains("1056"));
    }

    #[test]
    fn rejects_too_much_smem() {
        let dev = DeviceConfig::gtx970();
        let e = validate_launch(&dev, &dummy(256, 32, 49 * 1024)).unwrap_err();
        assert!(matches!(e, LaunchError::TooMuchSharedMemory { .. }));
    }

    #[test]
    fn rejects_inconsistent_thread_declaration() {
        let dev = DeviceConfig::gtx970();
        let k = Dummy {
            lc: LaunchConfig::new(1u32, 128u32),
            res: KernelResources {
                threads_per_block: 256,
                regs_per_thread: 32,
                smem_bytes_per_block: 0,
            },
        };
        assert!(matches!(
            validate_launch(&dev, &k).unwrap_err(),
            LaunchError::InconsistentResources { .. }
        ));
    }

    #[test]
    fn rejects_empty_grid() {
        let dev = DeviceConfig::gtx970();
        let k = Dummy {
            lc: LaunchConfig::new(0u32, 128u32),
            res: KernelResources {
                threads_per_block: 128,
                regs_per_thread: 32,
                smem_bytes_per_block: 0,
            },
        };
        assert_eq!(
            validate_launch(&dev, &k).unwrap_err(),
            LaunchError::EmptyLaunch
        );
    }

    #[test]
    fn default_hints() {
        let h = TimingHints::default();
        assert_eq!(h.exec_model, ExecModel::CudaC);
        assert!(h.mlp > 0.0);
    }
}
