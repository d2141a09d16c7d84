//! Ablation studies for the design choices of §III (not a paper
//! exhibit — these quantify the decisions DESIGN.md calls out):
//!
//! 1. double buffering on/off (§III-A);
//! 2. swizzled vs naive shared-memory placement (§III-B, Fig 5);
//! 3. atomic vs two-pass inter-block reduction (§III-C);
//! 4. naive vs coalesced unfused summation kernel (baseline strength);
//! 5. occupancy vs registers-per-thread (§III-A's 8×8-microtile
//!    trade-off).

use std::process::ExitCode;

use ks_bench::cli::{Flags, UsageError};
use ks_bench::table::{f3, ms, TableSet, TextTable};
use ks_gpu_kernels::aux_kernels::{Bandwidth, EvalSumCoalescedKernel, EvalSumKernel};
use ks_gpu_kernels::fused::{FusedKernelSummation, ReducePartialsKernel, Reduction};
use ks_gpu_kernels::fused_multi::FusedMultiWeight;
use ks_gpu_kernels::gemm_engine::{GemmOperands, GemmShape};
use ks_gpu_kernels::small_micro::Sgemm4x4;
use ks_gpu_kernels::{CudaSgemm, SmemLayout};
use ks_gpu_sim::kernel::KernelResources;
use ks_gpu_sim::occupancy::occupancy;
use ks_gpu_sim::{DeviceConfig, GpuDevice};

struct Setup {
    dev: GpuDevice,
    ops: GemmOperands,
    a2: ks_gpu_sim::BufId,
    b2: ks_gpu_sim::BufId,
    w: ks_gpu_sim::BufId,
    v: ks_gpu_sim::BufId,
    shape: GemmShape,
    bw: Bandwidth,
}

fn setup(m: usize, n: usize, k: usize) -> Setup {
    let mut dev = GpuDevice::gtx970();
    let shape = GemmShape { m, n, k };
    let ops = GemmOperands {
        a: dev.alloc_virtual(m * k),
        b: dev.alloc_virtual(k * n),
    };
    let a2 = dev.alloc_virtual(m);
    let b2 = dev.alloc_virtual(n);
    let w = dev.alloc_virtual(n);
    let v = dev.alloc_virtual(m);
    Setup {
        dev,
        ops,
        a2,
        b2,
        w,
        v,
        shape,
        bw: Bandwidth { h: 1.0 },
    }
}

/// Runs every ablation and prints (and with `--json`/`--csv`
/// exports) its tables.
pub fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    let flags = Flags::parse(args, &[], &["--json", "--csv"])?;
    let mut tables = TableSet::default();
    let (m, n, k) = (16384, 1024, 64);
    println!("Ablations at M={m}, N={n}, K={k} (simulated GTX970)\n");

    // 1. Double buffering.
    let mut t = TextTable::new(vec!["double_buffer", "time", "syncthreads", "smem_bytes"]);
    for db in [true, false] {
        let mut s = setup(m, n, k);
        let kern = FusedKernelSummation::new(s.ops, s.a2, s.b2, s.w, s.v, s.shape, s.bw)
            .with_double_buffer(db);
        let p = s.dev.launch(&kern).unwrap();
        t.row(vec![
            db.to_string(),
            ms(p.timing.time_s),
            p.counters.sync_insts.to_string(),
            p.resources.smem_bytes_per_block.to_string(),
        ]);
    }
    tables.add("Ablation 1: double buffering (fused kernel)", t);

    // 2. Shared-memory layout.
    let mut t = TextTable::new(vec![
        "layout",
        "time",
        "smem_load_trans",
        "bank_cycles_per_inst",
    ]);
    for (label, layout) in [
        ("swizzled (Fig 5)", SmemLayout::Swizzled),
        ("naive row-major", SmemLayout::NaiveRowMajor),
    ] {
        let mut s = setup(m, n, k);
        let kern = FusedKernelSummation::new(s.ops, s.a2, s.b2, s.w, s.v, s.shape, s.bw)
            .with_layout(layout);
        let p = s.dev.launch(&kern).unwrap();
        t.row(vec![
            label.to_string(),
            ms(p.timing.time_s),
            p.counters.smem.load_transactions.to_string(),
            f3(p.counters.smem.replay_factor()),
        ]);
    }
    tables.add("Ablation 2: shared-memory placement (fused kernel)", t);

    // 3. Reduction scheme.
    let mut t = TextTable::new(vec!["reduction", "time", "dram_writes", "l2_writes"]);
    {
        let mut s = setup(m, n, k);
        let kern = FusedKernelSummation::new(s.ops, s.a2, s.b2, s.w, s.v, s.shape, s.bw);
        let p = s.dev.launch(&kern).unwrap();
        t.row(vec![
            "atomicAdd (paper)".to_string(),
            ms(p.timing.time_s),
            p.mem.dram_writes.to_string(),
            p.mem.l2_writes.to_string(),
        ]);
    }
    {
        let mut s = setup(m, n, k);
        let nbx = n / 128;
        let partials = s.dev.alloc_virtual(nbx * m);
        let kern = FusedKernelSummation::new(s.ops, s.a2, s.b2, s.w, s.v, s.shape, s.bw)
            .with_reduction(Reduction::TwoPass { partials });
        let p1 = s.dev.launch(&kern).unwrap();
        let p2 = s
            .dev
            .launch(&ReducePartialsKernel::new(partials, s.v, m, nbx))
            .unwrap();
        t.row(vec![
            "two-pass store+reduce".to_string(),
            ms(p1.timing.time_s + p2.timing.time_s),
            (p1.mem.dram_writes + p2.mem.dram_writes).to_string(),
            (p1.mem.l2_writes + p2.mem.l2_writes).to_string(),
        ]);
    }
    tables.add("Ablation 3: inter-block reduction (fused kernel)", t);

    // 4. Unfused summation kernel strength.
    let mut t = TextTable::new(vec!["summation kernel", "time", "l2_reads", "dram_reads"]);
    for coalesced in [false, true] {
        let mut dev = GpuDevice::gtx970();
        let c = dev.alloc_virtual(m * n);
        let (a2, b2, w, v) = (
            dev.alloc_virtual(m),
            dev.alloc_virtual(n),
            dev.alloc_virtual(n),
            dev.alloc_virtual(m),
        );
        let bw = Bandwidth { h: 1.0 };
        let p = if coalesced {
            dev.launch(&EvalSumCoalescedKernel::new(c, a2, b2, w, v, m, n, bw))
                .unwrap()
        } else {
            dev.launch(&EvalSumKernel::new(c, a2, b2, w, v, m, n, bw))
                .unwrap()
        };
        t.row(vec![
            if coalesced {
                "warp-per-row (tuned)"
            } else {
                "thread-per-row (naive, paper baseline)"
            }
            .to_string(),
            ms(p.timing.time_s),
            p.mem.l2_reads.to_string(),
            p.mem.dram_reads().to_string(),
        ]);
    }
    tables.add("Ablation 4: unfused evaluation+summation kernel", t);

    // 5. Microtile size: 8×8 (paper) vs 4×4 (§III-A's rejected
    //    alternative) on the plain GEMM.
    let mut t = TextTable::new(vec![
        "microtile",
        "time",
        "smem_load_insts",
        "warp_insts",
        "bound",
    ]);
    {
        let shape = GemmShape { m, n, k };
        let run8 = {
            let mut dev = GpuDevice::gtx970();
            let ops = GemmOperands {
                a: dev.alloc_virtual(m * k),
                b: dev.alloc_virtual(k * n),
            };
            let c = dev.alloc_virtual(m * n);
            dev.launch(&CudaSgemm::new(ops, c, shape)).unwrap()
        };
        let run4 = {
            let mut dev = GpuDevice::gtx970();
            let ops = GemmOperands {
                a: dev.alloc_virtual(m * k),
                b: dev.alloc_virtual(k * n),
            };
            let c = dev.alloc_virtual(m * n);
            dev.launch(&Sgemm4x4::new(ops, c, shape)).unwrap()
        };
        for (label, p) in [("8x8 (paper)", &run8), ("4x4 (1024 threads)", &run4)] {
            t.row(vec![
                label.to_string(),
                ms(p.timing.time_s),
                p.counters.smem.load_instructions.to_string(),
                p.counters.warp_insts().to_string(),
                format!("{:?}", p.timing.bound),
            ]);
        }
    }
    tables.add("Ablation 5: microtile size (GEMM only)", t);

    // 6. Multi-weight fusion vs repeated single-weight passes.
    let mut t = TextTable::new(vec!["strategy", "time", "blocks/SM", "flops"]);
    for r in [2usize, 4] {
        let shape = GemmShape { m, n, k };
        let multi = {
            let mut dev = GpuDevice::gtx970();
            let ops = GemmOperands {
                a: dev.alloc_virtual(m * k),
                b: dev.alloc_virtual(k * n),
            };
            let (a2, b2) = (dev.alloc_virtual(m), dev.alloc_virtual(n));
            let w = dev.alloc_virtual(n * r);
            let v = dev.alloc_virtual(m * r);
            dev.launch(&FusedMultiWeight::new(
                ops,
                a2,
                b2,
                w,
                v,
                shape,
                Bandwidth { h: 1.0 },
                r,
            ))
            .unwrap()
        };
        let single = {
            let mut s = setup(m, n, k);
            let kern = FusedKernelSummation::new(s.ops, s.a2, s.b2, s.w, s.v, s.shape, s.bw);
            s.dev.launch(&kern).unwrap()
        };
        t.row(vec![
            format!("fused multi-weight R={r}"),
            ms(multi.timing.time_s),
            multi.occupancy.blocks_per_sm.to_string(),
            multi.counters.flops.to_string(),
        ]);
        t.row(vec![
            format!("{r}x single-weight passes"),
            ms(single.timing.time_s * r as f64),
            single.occupancy.blocks_per_sm.to_string(),
            (single.counters.flops * r as u64).to_string(),
        ]);
    }
    tables.add("Ablation 6: multi-weight fusion (extension)", t);

    // 7. Occupancy vs registers (the §III-A microtile trade-off).
    let dev = DeviceConfig::gtx970();
    let mut t = TextTable::new(vec![
        "regs/thread",
        "microtile",
        "blocks/SM",
        "warps/SM",
        "occupancy",
    ]);
    for (regs, micro) in [
        (40u32, "4x4"),
        (72, "6x6"),
        (128, "8x8 (paper)"),
        (200, "10x10"),
        (255, "12x12"),
    ] {
        let o = occupancy(
            &dev,
            &KernelResources {
                threads_per_block: 256,
                regs_per_thread: regs,
                smem_bytes_per_block: 16384,
            },
        );
        t.row(vec![
            regs.to_string(),
            micro.to_string(),
            o.blocks_per_sm.to_string(),
            o.warps_per_sm.to_string(),
            format!("{:.0}%", o.fraction * 100.0),
        ]);
    }
    tables.add(
        "Ablation 7: registers per thread vs occupancy (256-thread blocks, 16KB SMEM)",
        t,
    );

    Ok(tables.export(flags.opt("--json"), flags.opt("--csv")))
}
