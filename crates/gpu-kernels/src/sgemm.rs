//! The standalone SGEMM kernels (`C = A·B`, C row-major).
//!
//! [`CudaSgemm`] is the paper's CUDA-C GEMM: the Fig 4 blocking run
//! under the compiler-scheduled execution model. [`VendorSgemm`] is
//! the stand-in for the closed-source cuBLAS SGEMM: the identical
//! memory behaviour (cuBLAS uses the same 128×128 blocking class on
//! Maxwell) under the hand-scheduled `Vendor` timing model — the gap
//! between the two is exactly the §V-A penalty list (register-bank
//! replays, no dual issue, heavyweight barriers). Fig 7 compares them.

use ks_gpu_sim::access::{affine_lanes, AccessSpec, BarrierSpec, GlobalPattern};
use ks_gpu_sim::buffer::{BufId, GlobalMem};
use ks_gpu_sim::dim::{Dim3, LaunchConfig};
use ks_gpu_sim::exec::BlockCtx;
use ks_gpu_sim::kernel::VecWidth;
use ks_gpu_sim::kernel::{
    AnalysisBudget, BlockClass, BufferUse, ExecModel, Kernel, KernelResources, TimingHints,
};
use ks_gpu_sim::memo::key_of;
use ks_gpu_sim::occupancy::OccupancyLimiter;
use ks_gpu_sim::trace::AccessDir;
use ks_gpu_sim::traffic::{TrafficSink, WarpIdx};

use crate::gemm_engine::{
    gemm_access_spec, gemm_block, syncs_per_block, AccGrid, GemmOperands, GemmShape, SmemMap,
};
use crate::geometry::TileGeometry;
use crate::layout::SmemLayout;
use crate::machine::{FunctionalMachine, TrafficMachine, WarpMachine};
use crate::{BLOCK_TILE, MICRO_TILE, THREADS_XY, WARPS_PER_BLOCK};

/// Registers per thread of the GEMM-structured kernels: 64
/// accumulators + 16 operand registers + addressing/control
/// (§III-A: "96 to 128 registers are consumed by each thread");
/// 128 yields the paper's two blocks per SM.
pub const GEMM_REGS_PER_THREAD: u32 = 128;

/// The paper's CUDA-C SGEMM kernel.
pub struct CudaSgemm {
    ops: GemmOperands,
    c: BufId,
    shape: GemmShape,
    layout: SmemLayout,
    double_buffer: bool,
}

impl CudaSgemm {
    /// Creates the kernel. `c` must hold `m·n` elements (row-major).
    ///
    /// # Panics
    /// Panics if the shape violates the tiling constraints.
    #[must_use]
    pub fn new(ops: GemmOperands, c: BufId, shape: GemmShape) -> Self {
        shape.validate();
        Self {
            ops,
            c,
            shape,
            layout: SmemLayout::default(),
            double_buffer: true,
        }
    }

    /// Selects the shared-memory placement (ablation).
    #[must_use]
    pub fn with_layout(mut self, layout: SmemLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Enables/disables double buffering (ablation).
    #[must_use]
    pub fn with_double_buffer(mut self, on: bool) -> Self {
        self.double_buffer = on;
        self
    }

    /// The paper-point geometry at this kernel's buffering depth.
    fn geometry(&self) -> TileGeometry {
        TileGeometry {
            double_buffer_depth: if self.double_buffer { 2 } else { 1 },
            ..TileGeometry::paper_default()
        }
    }

    /// Shared body: GEMM then the C write-back.
    fn body<M: WarpMachine>(&self, block: Dim3, mach: &mut M) {
        let (bx, by) = (block.x as usize, block.y as usize);
        let geo = self.geometry();
        let mut acc = if M::FUNCTIONAL {
            AccGrid::for_geometry(&geo)
        } else {
            AccGrid::empty(&geo)
        };
        gemm_block(
            mach,
            &geo,
            &self.ops,
            &self.shape,
            self.layout,
            bx,
            by,
            &mut acc,
            false,
        );

        // Write back submatrixC: each thread stores its 8×8 microtile
        // as 8 rows × 2 STG.128 (the unfused pipelines need C in
        // global memory — precisely the traffic fusion eliminates).
        let n = self.shape.n;
        for w in 0..WARPS_PER_BLOCK {
            mach.begin_warp(w as u32);
            mach.alu(2);
            for r in 0..MICRO_TILE {
                for half in 0..2 {
                    let idx: WarpIdx = std::array::from_fn(|lane| {
                        let tx = lane % THREADS_XY;
                        let ty = 2 * w + lane / THREADS_XY;
                        let row = by * BLOCK_TILE + ty * MICRO_TILE + r;
                        let col = bx * BLOCK_TILE + tx * MICRO_TILE + 4 * half;
                        Some(row * n + col)
                    });
                    let vals: [[f32; 4]; 32] = if M::FUNCTIONAL {
                        std::array::from_fn(|lane| {
                            let tid = w * 32 + lane;
                            std::array::from_fn(|j| acc.at(tid, r, 4 * half + j))
                        })
                    } else {
                        [[0.0; 4]; 32]
                    };
                    mach.st_global(self.c, &idx, VecWidth::V4, &vals);
                }
            }
        }
    }
}

impl Kernel for CudaSgemm {
    fn name(&self) -> String {
        format!(
            "sgemm_cudac_{}x{}x{}",
            self.shape.m, self.shape.n, self.shape.k
        )
    }

    fn launch_config(&self) -> LaunchConfig {
        let (gx, gy) = self.shape.grid();
        LaunchConfig::new(
            Dim3::new_2d(gx, gy),
            Dim3::new_2d(THREADS_XY as u32, THREADS_XY as u32),
        )
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            threads_per_block: (THREADS_XY * THREADS_XY) as u32,
            regs_per_thread: GEMM_REGS_PER_THREAD,
            smem_bytes_per_block: SmemMap::new(self.double_buffer).bytes(),
        }
    }

    fn timing_hints(&self) -> TimingHints {
        TimingHints {
            exec_model: ExecModel::CudaC,
            // Double buffering keeps two float4 loads per loader warp in
            // flight across the whole compute phase of the previous
            // tile; without it loads serialise at the barrier.
            mlp: if self.double_buffer { 8.0 } else { 3.0 },
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
        let mut mach = FunctionalMachine::new(ctx);
        self.body(block, &mut mach);
    }

    fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink) {
        let mut mach = TrafficMachine::new(sink);
        self.body(block, &mut mach);
    }

    fn access_spec(&self) -> Option<AccessSpec> {
        let geo = self.geometry();
        let mut spec = AccessSpec::default();
        gemm_access_spec(&mut spec, &geo, &self.ops, &self.shape, self.layout, false);
        // Write-back: warp w stores microtile row r in two STG.128.
        let n = self.shape.n;
        for w in 0..WARPS_PER_BLOCK {
            for r in 0..MICRO_TILE {
                for half in 0..2usize {
                    spec.global.push(
                        GlobalPattern::new(
                            self.c,
                            "c",
                            AccessDir::Write,
                            VecWidth::V4,
                            affine_lanes(|lane| {
                                let tx = lane % THREADS_XY;
                                let ty = 2 * w + lane / THREADS_XY;
                                ((ty * MICRO_TILE + r) * n + tx * MICRO_TILE + 4 * half) as i64
                            }),
                        )
                        .with_by((BLOCK_TILE * n) as i64)
                        .with_bx(BLOCK_TILE as i64),
                    );
                }
            }
        }
        spec.barriers = Some(BarrierSpec {
            count: syncs_per_block(&geo, self.shape.k),
            warps: WARPS_PER_BLOCK as u64,
        });
        Some(spec)
    }

    fn block_class(&self, block: Dim3) -> Option<BlockClass> {
        // A rows anchor at by·128·k, B columns at bx·128·k, and the C
        // write-back tile at by·128·n + bx·128 — all affine in the
        // block coordinates with a fixed intra-block pattern.
        let (bx, by) = (block.x as usize, block.y as usize);
        Some(BlockClass {
            key: 0,
            anchors: vec![
                (self.ops.a, by * BLOCK_TILE * self.shape.k),
                (self.ops.b, bx * BLOCK_TILE * self.shape.k),
                (self.c, by * BLOCK_TILE * self.shape.n + bx * BLOCK_TILE),
            ],
        })
    }

    fn traffic_key(&self, mem: &GlobalMem) -> Option<u64> {
        let bufs = [self.ops.a, self.ops.b, self.c].map(|b| mem.base_addr(b));
        Some(key_of(&(
            "sgemm",
            self.shape,
            self.layout,
            self.double_buffer,
            bufs,
        )))
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        let (m, n, k) = (self.shape.m, self.shape.n, self.shape.k);
        AnalysisBudget {
            smem_conflict_budget: match self.layout {
                SmemLayout::Swizzled => 0,
                SmemLayout::NaiveRowMajor => 3,
            },
            expected_blocks_per_sm: Some(2),
            expected_limiter: Some(OccupancyLimiter::Registers),
            buffers: vec![
                BufferUse {
                    buf: self.ops.a,
                    len: m * k,
                    writes: false,
                    label: "a",
                },
                BufferUse {
                    buf: self.ops.b,
                    len: k * n,
                    writes: false,
                    label: "b",
                },
                BufferUse {
                    buf: self.c,
                    len: m * n,
                    writes: true,
                    label: "c",
                },
            ],
        }
    }
}

/// The cuBLAS-class GEMM model: identical traffic, vendor timing
/// (see module docs and DESIGN.md §2).
pub struct VendorSgemm {
    inner: CudaSgemm,
}

impl VendorSgemm {
    /// Creates the kernel (same contract as [`CudaSgemm::new`]).
    ///
    /// # Panics
    /// Panics if the shape violates the tiling constraints.
    #[must_use]
    pub fn new(ops: GemmOperands, c: BufId, shape: GemmShape) -> Self {
        Self {
            inner: CudaSgemm::new(ops, c, shape),
        }
    }
}

impl Kernel for VendorSgemm {
    fn name(&self) -> String {
        let s = &self.inner.shape;
        format!("sgemm_vendor_{}x{}x{}", s.m, s.n, s.k)
    }

    fn launch_config(&self) -> LaunchConfig {
        self.inner.launch_config()
    }

    fn resources(&self) -> KernelResources {
        self.inner.resources()
    }

    fn timing_hints(&self) -> TimingHints {
        TimingHints {
            exec_model: ExecModel::Vendor,
            mlp: 8.0,
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
        self.inner.execute_block(block, ctx);
    }

    fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink) {
        self.inner.block_traffic(block, sink);
    }

    fn block_class(&self, block: Dim3) -> Option<BlockClass> {
        self.inner.block_class(block)
    }

    fn traffic_key(&self, mem: &GlobalMem) -> Option<u64> {
        self.inner.traffic_key(mem)
    }

    fn access_spec(&self) -> Option<AccessSpec> {
        self.inner.access_spec()
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        self.inner.analysis_budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_gpu_sim::device::GpuDevice;

    fn upload_problem(
        dev: &mut GpuDevice,
        shape: GemmShape,
        seed: u64,
    ) -> (GemmOperands, BufId, Vec<f32>, Vec<f32>) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let a: Vec<f32> = (0..shape.m * shape.k).map(|_| next()).collect();
        let b: Vec<f32> = (0..shape.k * shape.n).map(|_| next()).collect();
        let ba = dev.upload(&a);
        let bb = dev.upload(&b);
        let c = dev.alloc(shape.m * shape.n);
        (GemmOperands { a: ba, b: bb }, c, a, b)
    }

    fn cpu_gemm(a: &[f32], b: &[f32], shape: &GemmShape) -> Vec<f32> {
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

    #[test]
    fn functional_gemm_matches_cpu() {
        let shape = GemmShape {
            m: 256,
            n: 128,
            k: 24,
        };
        let mut dev = GpuDevice::gtx970();
        let (ops, c, a, b) = upload_problem(&mut dev, shape, 3);
        let k = CudaSgemm::new(ops, c, shape);
        dev.run(&k).unwrap();
        let got = dev.download(c);
        let want = cpu_gemm(&a, &b, &shape);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() <= 1e-3 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    #[test]
    fn fast_profile_path_matches_functional_counted() {
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 16,
        };
        let mut d1 = GpuDevice::gtx970();
        let (ops1, c1, ..) = upload_problem(&mut d1, shape, 9);
        let p_fast = d1.launch(&CudaSgemm::new(ops1, c1, shape)).unwrap();

        let mut d2 = GpuDevice::gtx970();
        let (ops2, c2, ..) = upload_problem(&mut d2, shape, 9);
        let p_slow = d2.run_counted(&CudaSgemm::new(ops2, c2, shape)).unwrap();

        assert_eq!(
            p_fast.counters, p_slow.counters,
            "memoized replay must be exact"
        );
        assert_eq!(p_fast.mem, p_slow.mem);
    }

    #[test]
    fn vendor_is_1_5x_to_2x_faster_than_cudac() {
        // Fig 7: "the CUDA-C GEMM is two times slower than the cuBLAS
        // GEMM" (1.5–2.0× over the sweep).
        for k in [32usize, 64, 128, 256] {
            let shape = GemmShape {
                m: 1024,
                n: 1024,
                k,
            };
            let mut dev = GpuDevice::gtx970();
            let (ops, c, ..) = upload_problem(&mut dev, shape, 17);
            let pc = dev.launch(&CudaSgemm::new(ops, c, shape)).unwrap();
            dev.invalidate_l2();
            let pv = dev.launch(&VendorSgemm::new(ops, c, shape)).unwrap();
            let ratio = pc.timing.time_s / pv.timing.time_s;
            assert!(
                (1.30..2.15).contains(&ratio),
                "K={k}: CUDA-C/vendor ratio {ratio}"
            );
        }
    }

    #[test]
    fn occupancy_is_two_blocks_per_sm() {
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 8,
        };
        let mut dev = GpuDevice::gtx970();
        let (ops, c, ..) = upload_problem(&mut dev, shape, 1);
        let p = dev.launch(&CudaSgemm::new(ops, c, shape)).unwrap();
        assert_eq!(p.occupancy.blocks_per_sm, 2);
    }

    #[test]
    fn c_writeback_is_fully_coalesced() {
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 8,
        };
        let mut dev = GpuDevice::gtx970();
        let (ops, c, ..) = upload_problem(&mut dev, shape, 1);
        let p = dev.launch(&CudaSgemm::new(ops, c, shape)).unwrap();
        // C is 128×128 = 64KB = 2048 unique sectors; each sector is
        // touched by the two half-row STG.128s, so the L2 sees 4096
        // write requests but only 2048 distinct dirty sectors.
        assert_eq!(p.counters.l2_write_sectors, 4096);
        assert_eq!(p.mem.dram_writes, 2048);
    }

    #[test]
    fn single_buffer_doubles_barriers() {
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 64,
        };
        let mut dev = GpuDevice::gtx970();
        let (ops, c, ..) = upload_problem(&mut dev, shape, 1);
        let p2 = dev.launch(&CudaSgemm::new(ops, c, shape)).unwrap();
        let p1 = dev
            .launch(&CudaSgemm::new(ops, c, shape).with_double_buffer(false))
            .unwrap();
        assert_eq!(p1.counters.sync_insts, 2 * p2.counters.sync_insts);
        assert!(
            p1.timing.time_s > p2.timing.time_s,
            "double buffering must help"
        );
    }
}
