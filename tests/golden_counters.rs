//! Golden-value regression tests: exact counter values for a fixed
//! reference configuration. Any change to the kernels' instruction
//! streams, the coalescer, the bank model or the L2 shows up here
//! first — these numbers were derived by hand from the paper's tiling
//! (see the per-assertion notes) and cross-checked against the
//! functional engine.

use kernel_summation::gpu_kernels::gemm_engine::GemmShape;
use kernel_summation::gpu_kernels::{
    execute_fused_multi_with, GpuKernelSummation, GpuVariant, SegmentSpec, TileGeometry,
    VerifyReport,
};
use kernel_summation::gpu_sim::profiler::{Counters, PipelineProfile};
use kernel_summation::gpu_sim::{DeviceConfig, GpuDevice};

/// M = 1024, N = 1024, K = 32: 64 blocks, 4 k-tiles per block.
fn fused_profile() -> kernel_summation::gpu_sim::profiler::PipelineProfile {
    let ks = GpuKernelSummation::new(1024, 1024, 32, 1.0);
    let mut dev = GpuDevice::gtx970();
    ks.profile(&mut dev, GpuVariant::Fused).unwrap()
}

#[test]
fn fused_kernel_golden_counters() {
    let prof = fused_profile();
    let k = &prof.kernels[2]; // norms_a, norms_b, fused
    let c = &k.counters;
    let blocks = 64u64;
    let tiles = 4u64;

    // GEMM FFMAs: blocks × tiles × 8 warps × 8 steps × 64,
    // + evaluation (128 + 64 per warp) + W-fold (64 per warp).
    assert_eq!(c.ffma_insts, blocks * (tiles * 8 * 8 * 64 + 8 * (128 + 64)));
    // exp: 64 MUFU per warp.
    assert_eq!(c.sfu_insts, blocks * 8 * 64);
    // Tile loads: 2 LDG.128/warp/tile; epilogue: 2 (a2) + 2 (b2) + 2
    // (w) LDG.128 per warp.
    assert_eq!(c.global_load_insts, blocks * (tiles * 8 * 2 + 8 * 6));
    // No plain stores; 4 atomic warp instructions per block.
    assert_eq!(c.global_store_insts, 0);
    assert_eq!(c.atomic_insts, blocks * 4);
    // Atomics touch 16 sectors per block (128 contiguous floats).
    assert_eq!(c.atomic_sectors, blocks * 16);
    // Shared stores: tile staging (8 warps × 8 phases per tile) + the
    // T scratch (8 warps × 8 single-lane phases).
    assert_eq!(c.smem.store_instructions, blocks * (tiles * 8 * 8 + 8 * 8));
    // Swizzled staging is conflict-free; T stores have 2 active lanes
    // in distinct banks — transactions equal instructions.
    assert_eq!(c.smem.store_transactions, c.smem.store_instructions);
    // Shared loads: GEMM (8 LDS.64 per warp-step ⇒ 2 transactions
    // each) + the drain (4 warps × 1 LDS.32).
    assert_eq!(c.smem.load_instructions, blocks * (tiles * 8 * 8 * 8 + 4));
    assert_eq!(
        c.smem.load_transactions,
        blocks * (tiles * 8 * 8 * 8 * 2 + 4)
    );
    // One barrier per tile + the pre-drain barrier, per warp.
    assert_eq!(c.sync_insts, blocks * 8 * (tiles + 1));
    // FLOPs: GEMM 2·128·128·32 per block + eval/reduce
    // (per thread: 64 FADD + 128·2 FFMA-flops + 64 MUFU + 64·2 FFMA
    // + 32 shuffle-adds) + 128 atomic adds per block.
    let per_block_eval = 256 * (64 + 256 + 64 + 128 + 32) as u64;
    assert_eq!(
        c.flops,
        blocks * (2 * 128 * 128 * 32 + per_block_eval + 128)
    );
}

#[test]
fn fused_pipeline_golden_memory_traffic() {
    let prof = fused_profile();
    let mem = prof.total_mem();
    // Inputs: A and B are each 1024×32 floats = 4096 sectors; read by
    // the norms kernels (cold) and re-read by the fused kernel
    // (partially L2-resident). DRAM reads must be bounded by
    // 3 passes over the inputs and at least 1 pass.
    assert!(mem.dram_reads() >= 2 * 4096, "reads {}", mem.dram_reads());
    assert!(mem.dram_reads() <= 5 * 4096, "reads {}", mem.dram_reads());
    // Writes: the two norm vectors (128 + 128 sectors) and V
    // (128 sectors of atomics), nothing else.
    assert_eq!(mem.dram_writes, 128 + 128 + 128);
}

#[test]
fn unfused_pipeline_golden_memory_traffic() {
    let ks = GpuKernelSummation::new(1024, 1024, 32, 1.0);
    let mut dev = GpuDevice::gtx970();
    let prof = ks.profile(&mut dev, GpuVariant::CublasUnfused).unwrap();
    // The intermediate C is 1024² floats = 131072 sectors: written by
    // the GEMM and read back by the summation kernel.
    let c_sectors = 131_072u64;
    let gemm = &prof.kernels[2];
    assert_eq!(
        gemm.counters.l2_write_sectors,
        2 * c_sectors,
        "two STG.128 touch each sector"
    );
    assert_eq!(gemm.mem.dram_writes, c_sectors);
    let evalsum = &prof.kernels[3];
    // Thread-per-row: every C element is its own scattered sector
    // access (32 per warp instruction); the b2/W loads are broadcasts
    // (1 sector per instruction) and the a2 load covers 32 rows in 4
    // sectors per warp.
    let elems = 1024u64 * 1024;
    let warp_iters = elems / 32;
    let a2_sectors = (1024 / 32) * 4;
    assert_eq!(
        evalsum.counters.l2_read_sectors,
        elems + 2 * warp_iters + a2_sectors
    );
    assert!(
        evalsum.mem.dram_reads() >= c_sectors,
        "C must come back from DRAM"
    );
}

/// The fault model and ABFT verification are strictly additive: with
/// verification off, a profile taken on a device that merely *carries*
/// a (quiet) fault model serializes byte-identically to the pre-fault
/// baseline — same counters, same JSON, no new keys. This pins the
/// golden values above against the resilience subsystem.
#[test]
fn quiet_fault_model_profile_is_bit_identical_to_baseline() {
    let baseline = fused_profile();
    let mut cfg = DeviceConfig::gtx970();
    cfg.fault = Some(kernel_summation::gpu_sim::FaultSpec {
        seed: 1234,
        ..Default::default()
    });
    let mut dev = GpuDevice::new(cfg);
    let quiet = GpuKernelSummation::new(1024, 1024, 32, 1.0)
        .profile(&mut dev, GpuVariant::Fused)
        .unwrap();
    assert_eq!(
        serde_json::to_string(&baseline).unwrap(),
        serde_json::to_string(&quiet).unwrap(),
        "a zero-rate fault model must not perturb profiles or their serialization"
    );
    assert!(
        !serde_json::to_string(&baseline).unwrap().contains("faults"),
        "fault counters stay out of fault-free documents (golden files untouched)"
    );
}

#[test]
fn occupancy_and_launch_golden() {
    let prof = fused_profile();
    let k = &prof.kernels[2];
    assert_eq!(k.occupancy.blocks_per_sm, 2);
    assert_eq!(k.launch.total_blocks(), 64);
    assert_eq!(k.launch.threads_per_block(), 256);
    assert_eq!(k.resources.smem_bytes_per_block, 16 * 1024);
    assert_eq!(k.resources.regs_per_thread, 128);
}

// ---- Serving pipeline goldens --------------------------------------
//
// The fused-multi serving launch on the serve-bench device (GTX970,
// 16 KB L2): unpacked batches at the paper default (R ∈ {1, 3, 8},
// cold and warm, verified and not), one bit-compatible low-power
// geometry, and a three-segment packed wave over a shared corpus with
// mixed warmth. The R = 1 cold case pins its counters explicitly;
// every case pins a 64-bit FNV-1a digest of the whole pipeline
// profile (every `KernelProfile` field, in `Debug` form), the result
// bits and the ABFT reports.

/// The query shape small-query serving launches: 2×2 blocks.
const SERVE_SHAPE: GemmShape = GemmShape {
    m: 256,
    n: 256,
    k: 32,
};

fn serve_device() -> GpuDevice {
    GpuDevice::new(DeviceConfig {
        l2_bytes: 16 * 1024,
        ..DeviceConfig::gtx970()
    })
}

/// `len` values in `[0, 0.5)` from a seeded LCG.
fn lcg(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 0.5
        })
        .collect()
}

/// Host row norms `‖aᵢ‖²` of a row-major `rows×k` panel, accumulated
/// in f64 and rounded once like a source plan's: they differ from the
/// norms kernel's f32 sums in final bits, so warm and cold launches
/// differ too.
fn row_norms(a: &[f32], k: usize) -> Vec<f32> {
    a.chunks(k)
        .map(|row| {
            row.iter()
                .map(|&v| f64::from(v) * f64::from(v))
                .sum::<f64>() as f32
        })
        .collect()
}

/// One query's data at [`SERVE_SHAPE`] with `r` weight columns: `A`,
/// `B` and `W` drawn in that order from one seeded stream.
struct ServeData {
    a: Vec<f32>,
    b: Vec<f32>,
    w: Vec<f32>,
    a2: Vec<f32>,
}

fn serve_data(r: usize, seed: u64) -> ServeData {
    let s = SERVE_SHAPE;
    let mut x = lcg(s.m * s.k + s.k * s.n + s.n * r, seed);
    let w = x.split_off(s.m * s.k + s.k * s.n);
    let b = x.split_off(s.m * s.k);
    ServeData {
        a2: row_norms(&x, s.k),
        a: x,
        b,
        w,
    }
}

fn spec<'a>(d: &'a ServeData, h: f32, warm: bool) -> SegmentSpec<'a> {
    SegmentSpec {
        shape: SERVE_SHAPE,
        h,
        a: &d.a,
        b: &d.b,
        w_cols: &d.w,
        a2: warm.then_some(d.a2.as_slice()),
        a_key: None,
        b_key: None,
    }
}

/// Serves `segs` in one launch on a fresh serve-bench device.
fn serve_launch(
    geo: &TileGeometry,
    segs: &[SegmentSpec],
    verify: bool,
) -> (Vec<Vec<f32>>, PipelineProfile, Vec<VerifyReport>) {
    let out = execute_fused_multi_with(&mut serve_device(), geo, segs, verify).unwrap();
    (out.v, out.profile, out.reports)
}

/// FNV-1a over the profile's `Debug` form, the result bits and the
/// reports' `Debug` form.
fn serve_digest(out: &(Vec<Vec<f32>>, PipelineProfile, Vec<VerifyReport>)) -> u64 {
    let (v, prof, reports) = out;
    let mut bytes = format!("{prof:?}|{reports:?}").into_bytes();
    for x in v.iter().flatten() {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A kernel's counters, in `Counters` field order: FFMA, FALU, ALU,
/// SFU, global load, global store, atomic and sync instructions,
/// thread instructions, flops; shared-memory load instructions and
/// transactions, store instructions and transactions; L2 read, L2
/// write, atomic, L1 read sectors and L1 read hits.
fn counter_row(c: &Counters) -> [u64; 19] {
    [
        c.ffma_insts,
        c.falu_insts,
        c.alu_insts,
        c.sfu_insts,
        c.global_load_insts,
        c.global_store_insts,
        c.atomic_insts,
        c.sync_insts,
        c.thread_insts,
        c.flops,
        c.smem.load_instructions,
        c.smem.load_transactions,
        c.smem.store_instructions,
        c.smem.store_transactions,
        c.l2_read_sectors,
        c.l2_write_sectors,
        c.atomic_sectors,
        c.l1_read_sectors,
        c.l1_read_hits,
    ]
}

/// The paper-default R = 1 cold batch, counter by counter: norms(A),
/// norms(B), then the fused kernel on its 2×2 grid.
#[test]
fn serving_golden_counters() {
    let d = serve_data(1, 101);
    let paper = TileGeometry::paper_default();
    let out = serve_launch(&paper, &[spec(&d, 0.9, false)], false);
    let prof = &out.1;
    assert_eq!(prof.name, "Fused-Multi");
    let norms = [
        256, 0, 16, 0, 64, 8, 0, 0, 11_008, 16_384, 0, 0, 0, 0, 2048, 32, 0, 0, 0,
    ];
    // Per kernel: name, grid, counters, then L2 reads (hits, misses),
    // L2 writes (hits, misses), DRAM writes, and the modelled time.
    type Golden = (&'static str, (u32, u32), [u64; 19], [u64; 7], f64);
    let want: [Golden; 3] = [
        (
            "norms_a_256x32",
            (2, 1),
            norms,
            [2048, 1024, 1024, 32, 0, 32, 32],
            2.834_343_924_326_946_5e-6,
        ),
        (
            "norms_b_256x32",
            (2, 1),
            norms,
            [2048, 1024, 1024, 32, 0, 32, 32],
            2.834_343_924_326_946_5e-6,
        ),
        (
            "fused_multiw1_256x256x32",
            (2, 2),
            [
                71_680, 3072, 1600, 2048, 448, 0, 16, 160, 2_824_704, 4_751_872, 8208, 16_400,
                1280, 1280, 10_368, 0, 64, 0, 0,
            ],
            [10_432, 6080, 4352, 64, 64, 0, 64],
            1.543_047_444_915_017e-5,
        ),
    ];
    assert_eq!(prof.kernels.len(), want.len());
    for (k, (name, (gx, gy), counters, mem, time_s)) in prof.kernels.iter().zip(want) {
        assert_eq!(k.name, name);
        assert_eq!((k.launch.grid.x, k.launch.grid.y), (gx, gy), "{name}");
        assert_eq!(counter_row(&k.counters), counters, "{name}");
        let m = &k.mem;
        assert_eq!(
            [
                m.l2_reads,
                m.l2_read_hits,
                m.l2_read_misses,
                m.l2_writes,
                m.l2_write_hits,
                m.l2_write_misses,
                m.dram_writes,
            ],
            mem,
            "{name}"
        );
        assert_eq!(k.timing.time_s, time_s, "{name}");
        assert!(k.faults.is_empty(), "{name}");
    }
    assert_eq!(serve_digest(&out), 0x744c_bf2a_15a8_cd26);
}

/// Unpacked batches: R ∈ {1, 3, 8} × cold/warm × verify off/on at the
/// paper default, and R = 3 on its bit-compatible low-power variant.
#[test]
fn serving_golden_digests() {
    let paper = TileGeometry::paper_default();
    let low = TileGeometry {
        micro_m: 16,
        ..paper
    };
    assert!(low.bit_compatible(&paper));
    // (geometry, R, warm, verify, digest)
    let cases = [
        (paper, 1, false, false, 0x744c_bf2a_15a8_cd26u64),
        (paper, 1, false, true, 0x0cc9_80d8_e027_8c53),
        (paper, 1, true, false, 0x4c58_a5f6_1db5_45d9),
        (paper, 1, true, true, 0x3bd2_9922_d1fd_65d6),
        (paper, 3, false, false, 0x312c_fdd3_ee07_667e),
        (paper, 3, false, true, 0x8399_e170_46fb_17bb),
        (paper, 3, true, false, 0xbb7d_8e61_abc6_96c4),
        (paper, 3, true, true, 0x5520_a140_eb20_7565),
        (paper, 8, false, false, 0x05f8_2caa_e507_5f14),
        (paper, 8, false, true, 0x909d_8a66_e3c3_2891),
        (paper, 8, true, false, 0xd322_2545_ca35_9555),
        (paper, 8, true, true, 0xfe7f_1ae3_1b66_dc5e),
        (low, 3, false, false, 0xa0a9_322a_d52d_ed23),
        (low, 3, false, true, 0xab03_da1b_2fef_b047),
        (low, 3, true, false, 0x4ad3_4bef_6bfe_90c3),
        (low, 3, true, true, 0x15b5_98b0_2bcf_d3ef),
    ];
    for (geo, r, warm, verify, digest) in cases {
        let d = serve_data(r, 100 + r as u64);
        let out = serve_launch(&geo, &[spec(&d, 0.9, warm)], verify);
        let want_name = if verify {
            "Fused-Multi-ABFT"
        } else {
            "Fused-Multi"
        };
        assert_eq!(out.1.name, want_name);
        assert_eq!(out.1.kernels.len(), if warm { 2 } else { 3 });
        assert_eq!(out.2.len(), usize::from(verify));
        assert_eq!(
            serve_digest(&out),
            digest,
            "{geo} R {r} warm {warm} verify {verify}"
        );
    }
}

/// A packed wave of three segments: 0 and 2 share a corpus (upload
/// key 7), 2 arrives warm and on segment 1's targets and weights, so
/// the shared slot carries both norms variants.
#[test]
fn packed_wave_golden_digests() {
    let paper = TileGeometry::paper_default();
    let base = serve_data(1, 31);
    let other = serve_data(1, 32);
    let segs = [
        SegmentSpec {
            a_key: Some(7),
            ..spec(&base, 1.0, false)
        },
        spec(&other, 1.0, false),
        SegmentSpec {
            a_key: Some(7),
            b: &other.b,
            w_cols: &other.w,
            ..spec(&base, 1.0, true)
        },
    ];
    for (verify, name, digest) in [
        (false, "Fused-Multi-Packed", 0xd382_78ce_07d4_d93bu64),
        (true, "Fused-Multi-Packed-ABFT", 0xc26f_2f26_ba02_d812),
    ] {
        let out = serve_launch(&paper, &segs, verify);
        assert_eq!(out.1.name, name);
        let names: Vec<&str> = out.1.kernels.iter().map(|k| k.name.as_str()).collect();
        let fused = if verify {
            "fused_multi_packed3w1_abft_12b"
        } else {
            "fused_multi_packed3w1_12b"
        };
        assert_eq!(
            names,
            [
                "norms_a_256x32",
                "norms_b_256x32",
                "norms_a_256x32",
                "norms_b_256x32",
                "norms_b_256x32",
                fused,
            ]
        );
        assert_eq!(out.2.len(), if verify { 3 } else { 0 });
        assert_eq!(serve_digest(&out), digest, "verify {verify}");
    }
}
