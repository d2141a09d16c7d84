//! The 4×4-microtile GEMM alternative of §III-A.
//!
//! The paper weighs microtile sizes: *"if 128×128 elements of
//! submatrixC are computed by one thread block and 4×4 C elements per
//! thread, it would then require 1024 threads per block. Occupancy is
//! still two thread blocks per SM due to the device limit of 2048
//! threads per SM"* — but *"computing fewer C elements will transfer
//! the bottleneck to other parts"*. This module implements that
//! alternative for the ablation bench so the claim is measured, not
//! asserted:
//!
//! * 32×32 threads per block; thread `(tx, ty)` owns a 4×4 microtile.
//!   A warp is one full `ty` row (32 `tx` lanes).
//! * Per k-step a thread does 16 FFMAs against 4+4 operand words —
//!   a compute-to-shared-load ratio of 2 FLOP-pairs per word versus
//!   the 8×8 kernel's 4, so the LSU and issue pipes carry twice the
//!   relative load.
//! * Shared placement `word(k, p) = 128k + 32·(p mod 4) + p div 4`
//!   keeps both stores and compute loads conflict-free, but makes each
//!   lane's 4 operand words bank-strided — they must be loaded as four
//!   LDS.32 instead of one LDS.128 (vector loads and conflict freedom
//!   are mutually exclusive here; another hidden cost of the small
//!   microtile).
//! * The tile loaders cover 128 tracks with 512 threads each using
//!   LDG.64 — twice the global-load instruction count of the 8×8
//!   loader's LDG.128s.

use ks_gpu_sim::access::{affine_lanes, AccessSpec, BarrierSpec, GlobalPattern, SharedPattern};
use ks_gpu_sim::buffer::BufId;
use ks_gpu_sim::dim::{Dim3, LaunchConfig};
use ks_gpu_sim::exec::BlockCtx;
use ks_gpu_sim::kernel::VecWidth;
use ks_gpu_sim::kernel::{
    AnalysisBudget, BufferUse, ExecModel, Kernel, KernelResources, TimingHints,
};
use ks_gpu_sim::occupancy::OccupancyLimiter;
use ks_gpu_sim::trace::AccessDir;
use ks_gpu_sim::traffic::{TrafficSink, WarpIdx};

use crate::gemm_engine::{GemmOperands, GemmShape};
use crate::machine::{FunctionalMachine, TrafficMachine, WarpMachine};
use crate::{BLOCK_TILE, K_TILE, TILE_WORDS};

/// Microtile edge of this variant.
pub const SMALL_MICRO: usize = 4;
/// Threads per block dimension (32×32).
pub const SMALL_THREADS_XY: usize = BLOCK_TILE / SMALL_MICRO;
/// Threads per block (1024 — the device maximum).
pub const SMALL_THREADS: usize = SMALL_THREADS_XY * SMALL_THREADS_XY;
/// Warps per block.
pub const SMALL_WARPS: usize = SMALL_THREADS / 32;

/// Shared word of element `(k, point)` in the transposed placement.
#[inline]
#[must_use]
pub fn small_tile_word(k: usize, p: usize) -> u32 {
    debug_assert!(k < K_TILE && p < BLOCK_TILE);
    (k * BLOCK_TILE + (p % 4) * 32 + p / 4) as u32
}

/// The 4×4-microtile SGEMM (`C = A·B`, C row-major).
pub struct Sgemm4x4 {
    ops: GemmOperands,
    c: BufId,
    shape: GemmShape,
}

impl Sgemm4x4 {
    /// Creates the kernel.
    ///
    /// # Panics
    /// Panics if the shape violates the tiling constraints.
    #[must_use]
    pub fn new(ops: GemmOperands, c: BufId, shape: GemmShape) -> Self {
        shape.validate();
        Self { ops, c, shape }
    }

    /// Loads one 128×8 tile pair into shared memory.
    ///
    /// 16 warps per operand: warp `wa` covers quarter `q = wa / 4` of
    /// tracks `p = 4·lane + (wa mod 4)`; each lane issues one LDG.64.
    fn load_tiles<M: WarpMachine>(
        &self,
        mach: &mut M,
        bx: usize,
        by: usize,
        kt: usize,
        smem_a: u32,
        smem_b: u32,
    ) {
        let k = self.shape.k;
        for half in 0..2 {
            let (buf, point0, dst) = if half == 0 {
                (self.ops.a, by * BLOCK_TILE, smem_a)
            } else {
                (self.ops.b, bx * BLOCK_TILE, smem_b)
            };
            for wa in 0..16 {
                mach.begin_warp((half * 16 + wa) as u32);
                let c_off = wa % 4;
                let q = wa / 4;
                mach.alu(2);
                let idx: WarpIdx = std::array::from_fn(|l| {
                    let p = 4 * l + c_off;
                    Some((point0 + p) * k + kt * K_TILE + 2 * q)
                });
                let vals = mach.ld_global(buf, &idx, VecWidth::V2);
                for e in 0..2 {
                    let kk = 2 * q + e;
                    let words: [Option<u32>; 32] =
                        std::array::from_fn(|l| Some(dst + small_tile_word(kk, 4 * l + c_off)));
                    let out: [[f32; 4]; 32] = std::array::from_fn(|l| [vals[l][e], 0.0, 0.0, 0.0]);
                    mach.st_shared(&words, VecWidth::V1, &out);
                }
            }
        }
    }

    /// One rank-8 update with 4×4 microtiles.
    fn compute_ktile<M: WarpMachine>(
        &self,
        mach: &mut M,
        smem_a: u32,
        smem_b: u32,
        acc: &mut [[[f32; 4]; 4]],
    ) {
        for w in 0..SMALL_WARPS {
            mach.begin_warp(w as u32);
            mach.alu(2);
            let ty = w; // a warp is one full row of tx lanes
            for kk in 0..K_TILE {
                // A operand: rows 4ty..4ty+4, broadcast to all lanes.
                let mut a_vals = [0.0f32; 4];
                for j in 0..4 {
                    let words: [Option<u32>; 32] =
                        std::array::from_fn(|_| Some(smem_a + small_tile_word(kk, 4 * ty + j)));
                    let v = mach.ld_shared(&words, VecWidth::V1);
                    if M::FUNCTIONAL {
                        a_vals[j] = v[0][0];
                    }
                }
                // B operand: lane tx reads columns 4tx..4tx+4 — four
                // bank-strided LDS.32 (no vector load possible).
                let mut b_vals = [[0.0f32; 4]; 32];
                for j in 0..4 {
                    let words: [Option<u32>; 32] =
                        std::array::from_fn(|tx| Some(smem_b + small_tile_word(kk, 4 * tx + j)));
                    let v = mach.ld_shared(&words, VecWidth::V1);
                    if M::FUNCTIONAL {
                        for tx in 0..32 {
                            b_vals[tx][j] = v[tx][0];
                        }
                    }
                }
                mach.ffma((SMALL_MICRO * SMALL_MICRO) as u64);
                if M::FUNCTIONAL {
                    for tx in 0..32 {
                        let mt = &mut acc[w * 32 + tx];
                        for (r, av) in a_vals.iter().enumerate() {
                            for (cc, bv) in b_vals[tx].iter().enumerate() {
                                mt[r][cc] += av * bv;
                            }
                        }
                    }
                }
            }
        }
    }

    fn body<M: WarpMachine>(&self, block: Dim3, mach: &mut M) {
        let (bx, by) = (block.x as usize, block.y as usize);
        let mut acc = if M::FUNCTIONAL {
            vec![[[0.0f32; 4]; 4]; SMALL_THREADS]
        } else {
            Vec::new()
        };
        let tiles = self.shape.k / K_TILE;
        let (a0, a1) = (0u32, TILE_WORDS as u32);
        let (b0, b1) = (2 * TILE_WORDS as u32, 3 * TILE_WORDS as u32);
        let bufs = [(a0, b0), (a1, b1)];
        let mut j = 0usize;
        self.load_tiles(mach, bx, by, 0, bufs[j].0, bufs[j].1);
        mach.syncthreads(SMALL_WARPS as u64);
        for i in 1..tiles {
            let prev = j;
            j ^= 1;
            self.load_tiles(mach, bx, by, i, bufs[j].0, bufs[j].1);
            self.compute_ktile(mach, bufs[prev].0, bufs[prev].1, &mut acc);
            mach.syncthreads(SMALL_WARPS as u64);
        }
        self.compute_ktile(mach, bufs[j].0, bufs[j].1, &mut acc);

        // Write back: thread (tx, ty) stores 4 rows × one STG.128.
        let n = self.shape.n;
        for w in 0..SMALL_WARPS {
            mach.begin_warp(w as u32);
            mach.alu(1);
            let ty = w;
            for r in 0..SMALL_MICRO {
                let idx: WarpIdx = std::array::from_fn(|tx| {
                    let row = by * BLOCK_TILE + ty * SMALL_MICRO + r;
                    let col = bx * BLOCK_TILE + tx * SMALL_MICRO;
                    Some(row * n + col)
                });
                let vals: [[f32; 4]; 32] = if M::FUNCTIONAL {
                    std::array::from_fn(|tx| acc[w * 32 + tx][r])
                } else {
                    [[0.0; 4]; 32]
                };
                mach.st_global(self.c, &idx, VecWidth::V4, &vals);
            }
        }
    }
}

impl Kernel for Sgemm4x4 {
    fn name(&self) -> String {
        format!(
            "sgemm_4x4micro_{}x{}x{}",
            self.shape.m, self.shape.n, self.shape.k
        )
    }

    fn launch_config(&self) -> LaunchConfig {
        let (gx, gy) = self.shape.grid();
        LaunchConfig::new(
            Dim3::new_2d(gx, gy),
            Dim3::new_2d(SMALL_THREADS_XY as u32, SMALL_THREADS_XY as u32),
        )
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            threads_per_block: SMALL_THREADS as u32,
            // 16 accumulators + 8 operands + control fits in 32
            // registers — exactly the budget that lets two 1024-thread
            // blocks share an SM's 64K registers.
            regs_per_thread: 32,
            smem_bytes_per_block: (4 * TILE_WORDS * 4) as u32,
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
        let (n, k) = (self.shape.n, self.shape.k);
        let tiles = (k / K_TILE) as u64;
        // Tile loaders: 16 warps per operand, one LDG.64 + two
        // single-word shared stores each, once per k-tile. Canonical
        // parity-0 bases (the toggle is a 1024-word, bank-invariant
        // shift).
        for half in 0..2usize {
            let (buf, label, dst, step_is_by) = if half == 0 {
                (self.ops.a, "a", 0u32, true)
            } else {
                (self.ops.b, "b", 2 * TILE_WORDS as u32, false)
            };
            for wa in 0..16usize {
                let c_off = wa % 4;
                let q = wa / 4;
                let mut p = GlobalPattern::new(
                    buf,
                    label,
                    AccessDir::Read,
                    VecWidth::V2,
                    affine_lanes(|l| ((4 * l + c_off) * k + 2 * q) as i64),
                )
                .with_loop(tiles, K_TILE as i64);
                p = if step_is_by {
                    p.with_by((BLOCK_TILE * k) as i64)
                } else {
                    p.with_bx((BLOCK_TILE * k) as i64)
                };
                spec.global.push(p);
                for e in 0..2 {
                    let kk = 2 * q + e;
                    let words: [Option<u32>; 32] =
                        std::array::from_fn(|l| Some(dst + small_tile_word(kk, 4 * l + c_off)));
                    spec.shared.push(
                        SharedPattern::new(words, VecWidth::V1, AccessDir::Write).times(tiles),
                    );
                }
            }
        }
        // Compute loads: per warp (= ty row), per k-step, 4 broadcast
        // A words and 4 bank-strided B words, once per k-tile.
        for ty in 0..SMALL_WARPS {
            for kk in 0..K_TILE {
                for j in 0..4 {
                    let a_words: [Option<u32>; 32] =
                        std::array::from_fn(|_| Some(small_tile_word(kk, 4 * ty + j)));
                    spec.shared.push(
                        SharedPattern::new(a_words, VecWidth::V1, AccessDir::Read).times(tiles),
                    );
                    let b_words: [Option<u32>; 32] = std::array::from_fn(|tx| {
                        Some(2 * TILE_WORDS as u32 + small_tile_word(kk, 4 * tx + j))
                    });
                    spec.shared.push(
                        SharedPattern::new(b_words, VecWidth::V1, AccessDir::Read).times(tiles),
                    );
                }
            }
        }
        // Write-back: 4 STG.128 rows per warp.
        for ty in 0..SMALL_WARPS {
            for r in 0..SMALL_MICRO {
                spec.global.push(
                    GlobalPattern::new(
                        self.c,
                        "c",
                        AccessDir::Write,
                        VecWidth::V4,
                        affine_lanes(|tx| ((ty * SMALL_MICRO + r) * n + tx * SMALL_MICRO) as i64),
                    )
                    .with_by((BLOCK_TILE * n) as i64)
                    .with_bx(BLOCK_TILE as i64),
                );
            }
        }
        spec.barriers = Some(BarrierSpec {
            count: tiles,
            warps: SMALL_WARPS as u64,
        });
        Some(spec)
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        let (m, n, k) = (self.shape.m, self.shape.n, self.shape.k);
        AnalysisBudget {
            smem_conflict_budget: 0,
            // §III-A: two 1024-thread blocks hit the 2048-threads/SM
            // device limit before any other resource.
            expected_blocks_per_sm: Some(2),
            expected_limiter: Some(OccupancyLimiter::Threads),
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

#[cfg(test)]
mod tests {
    use super::*;
    use ks_gpu_sim::smem::warp_transactions;
    use ks_gpu_sim::GpuDevice;

    #[test]
    fn placement_covers_tile_exactly_once() {
        let mut seen = vec![false; TILE_WORDS];
        for k in 0..K_TILE {
            for p in 0..BLOCK_TILE {
                let w = small_tile_word(k, p) as usize;
                assert!(!seen[w]);
                seen[w] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn compute_loads_are_conflict_free() {
        for k in 0..K_TILE {
            for j in 0..4 {
                let words: [Option<u32>; 32] =
                    std::array::from_fn(|tx| Some(small_tile_word(k, 4 * tx + j)));
                assert_eq!(warp_transactions(&words, 32), 1, "k={k} j={j}");
            }
        }
    }

    #[test]
    fn loader_stores_are_conflict_free() {
        for c_off in 0..4 {
            for k in 0..K_TILE {
                let words: [Option<u32>; 32] =
                    std::array::from_fn(|l| Some(small_tile_word(k, 4 * l + c_off)));
                assert_eq!(warp_transactions(&words, 32), 1, "c={c_off} k={k}");
            }
        }
    }

    #[test]
    fn functional_matches_cpu() {
        let shape = GemmShape {
            m: 128,
            n: 256,
            k: 24,
        };
        let mut state = 9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let a: Vec<f32> = (0..shape.m * shape.k).map(|_| next()).collect();
        let b: Vec<f32> = (0..shape.k * shape.n).map(|_| next()).collect();
        let mut dev = GpuDevice::gtx970();
        let ops = GemmOperands {
            a: dev.upload(&a),
            b: dev.upload(&b),
        };
        let c = dev.alloc(shape.m * shape.n);
        dev.run(&Sgemm4x4::new(ops, c, shape)).unwrap();
        let got = dev.download(c);
        for i in 0..shape.m {
            for j in (0..shape.n).step_by(17) {
                let want: f64 = (0..shape.k)
                    .map(|p| a[i * shape.k + p] as f64 * b[j * shape.k + p] as f64)
                    .sum();
                let g = got[i * shape.n + j] as f64;
                assert!(
                    (g - want).abs() < 1e-3 * want.abs().max(1.0),
                    "({i},{j}): {g} vs {want}"
                );
            }
        }
    }

    #[test]
    fn occupancy_is_two_blocks_thread_limited() {
        // §III-A: "Occupancy is still two thread blocks per SM due to
        // the device limit of 2048 threads per SM."
        let mut dev = GpuDevice::gtx970();
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 8,
        };
        let ops = GemmOperands {
            a: dev.alloc_virtual(128 * 8),
            b: dev.alloc_virtual(8 * 128),
        };
        let c = dev.alloc_virtual(128 * 128);
        let p = dev.launch(&Sgemm4x4::new(ops, c, shape)).unwrap();
        assert_eq!(p.occupancy.blocks_per_sm, 2);
        assert_eq!(p.occupancy.threads_per_sm, 2048);
    }

    #[test]
    fn small_microtile_shifts_the_bottleneck_to_lsu_or_issue() {
        // The measured version of §III-A's warning: same FLOPs, but
        // the 4×4 kernel runs slower because its LSU/issue load per
        // FLOP doubles.
        let shape = GemmShape {
            m: 1024,
            n: 1024,
            k: 64,
        };
        let profile = |small: bool| {
            let mut dev = GpuDevice::gtx970();
            let ops = GemmOperands {
                a: dev.alloc_virtual(shape.m * shape.k),
                b: dev.alloc_virtual(shape.k * shape.n),
            };
            let c = dev.alloc_virtual(shape.m * shape.n);
            if small {
                dev.launch(&Sgemm4x4::new(ops, c, shape)).unwrap()
            } else {
                dev.launch(&crate::sgemm::CudaSgemm::new(ops, c, shape))
                    .unwrap()
            }
        };
        let p4 = profile(true);
        let p8 = profile(false);
        assert_eq!(p4.counters.flops, p8.counters.flops, "identical arithmetic");
        assert!(
            p4.timing.time_s > p8.timing.time_s,
            "4x4 {} vs 8x8 {}",
            p4.timing.time_s,
            p8.timing.time_s
        );
        // Twice the shared-load instructions per FLOP.
        let per_flop4 = p4.counters.smem.load_instructions as f64 / p4.counters.flops as f64;
        let per_flop8 = p8.counters.smem.load_instructions as f64 / p8.counters.flops as f64;
        assert!(per_flop4 > 1.8 * per_flop8, "{per_flop4} vs {per_flop8}");
    }
}
