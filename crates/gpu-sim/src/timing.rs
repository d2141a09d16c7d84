//! Analytical timing model: roofline-with-latency plus a CUDA-C
//! penalty model.
//!
//! The simulator does not execute cycle-by-cycle; it derives a kernel's
//! execution time from its *measured* event counts (the same counters
//! nvprof reports) and the device's documented throughputs:
//!
//! ```text
//! cycles = max( issue, core, sfu, lsu, l2, dram, exposed-latency )
//!          + barrier cost + launch overhead
//! ```
//!
//! * **issue** — warp instructions / (schedulers × SMs × dual-issue).
//! * **core** — FFMA + FADD/FMUL + integer instructions / (4 warp
//!   issues per clock per SM on GM204's 128 cores).
//! * **sfu** — special-function instructions / (1 per clock per SM).
//! * **lsu** — load/store instructions + shared-memory transaction
//!   replays / (1 per clock per SM).
//! * **l2 / dram** — sector bytes over the respective bandwidths.
//! * **exposed latency** — Little's-law residue: if the resident warps
//!   × per-warp memory-level parallelism cannot cover the average
//!   memory latency, the remainder shows up as stall cycles.
//!
//! The **CUDA-C penalty model** applies the three mechanisms the paper
//! blames for its 1.5–2.0× GEMM gap against cuBLAS (§V-A): (1) no
//! control over register-bank conflicts ⇒ FFMA replay factor; (2) no
//! dual issue from compiler-scheduled code; (3) `__syncthreads()` is
//! the only synchronisation primitive and is far costlier than the
//! fine-grained barriers hand-written SASS uses. The `Vendor` model
//! (our stand-in for cuBLAS, see DESIGN.md §2) turns all three off.

use serde::{Deserialize, Serialize};

use crate::config::DeviceConfig;
use crate::kernel::{ExecModel, TimingHints};
use crate::occupancy::Occupancy;
use crate::profiler::{Counters, MemTraffic};

/// Tunable constants of the timing model. Every field is documented
/// with its provenance; none is fitted to the paper's output numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Register-file bank-conflict replay factor on FFMAs for
    /// compiler-scheduled CUDA-C (maxas documentation measures ~25–40%
    /// replay on unscheduled operand patterns; we take the middle).
    pub cudac_ffma_replay: f64,
    /// Scheduler efficiency of compiler-scheduled code (stall slots the
    /// compiler fails to fill; CUDA C Best Practices puts typical
    /// achieved issue at 75–85% for tight ALU loops).
    pub cudac_issue_efficiency: f64,
    /// Dual-issue factor available to hand-scheduled SASS (Maxwell
    /// schedulers can dual-issue one ALU + one LSU/SFU per clock;
    /// maxas GEMM sustains ~1.5 effective issue).
    pub vendor_dual_issue: f64,
    /// Fraction of load/store-pipe work hand-scheduled SASS hides by
    /// dual-issuing LDS/LDG with FFMAs (maxas interleaves them
    /// explicitly; the CUDA-C compiler does not).
    pub vendor_lsu_overlap: f64,
    /// Cycles for a `__syncthreads()` barrier to drain and refill the
    /// pipeline (Maxwell microbenchmarks: 30–60 clocks; we use 40).
    pub syncthreads_cycles: f64,
    /// Fraction of the barrier cost hidden by the *other* resident
    /// blocks on the SM (a second CTA keeps the pipes busy while the
    /// first waits — §III-A's motivation for 2 blocks/SM).
    pub barrier_overlap_per_extra_block: f64,
}

impl Default for TimingParams {
    fn default() -> Self {
        Self {
            cudac_ffma_replay: 1.35,
            cudac_issue_efficiency: 0.70,
            vendor_dual_issue: 1.50,
            vendor_lsu_overlap: 0.5,
            syncthreads_cycles: 40.0,
            barrier_overlap_per_extra_block: 0.5,
        }
    }
}

/// Output of the timing model for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelTiming {
    /// Estimated execution cycles (core clock).
    pub cycles: f64,
    /// Estimated execution time in seconds.
    pub time_s: f64,
    /// Throughput term: instruction issue.
    pub issue_cycles: f64,
    /// Throughput term: FP32/integer core pipe.
    pub core_cycles: f64,
    /// Throughput term: special-function pipe.
    pub sfu_cycles: f64,
    /// Throughput term: load/store pipe incl. shared-memory replays.
    pub lsu_cycles: f64,
    /// Throughput term: L2 bandwidth.
    pub l2_cycles: f64,
    /// Throughput term: DRAM bandwidth.
    pub dram_cycles: f64,
    /// Latency not hidden by warp parallelism.
    pub exposed_latency_cycles: f64,
    /// Serialised `__syncthreads()` cost (CUDA-C only).
    pub barrier_cycles: f64,
    /// Which term bound the kernel.
    pub bound: Bound,
}

/// The binding resource of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bound {
    /// Instruction issue.
    Issue,
    /// FP32 core pipe.
    Core,
    /// Special-function pipe.
    Sfu,
    /// Load/store pipe (incl. bank-conflict replays).
    Lsu,
    /// L2 bandwidth.
    L2,
    /// DRAM bandwidth.
    Dram,
    /// Exposed memory latency.
    Latency,
}

/// Estimates the execution time of a kernel from its counters.
///
/// `occ` must be the occupancy of the launch, `blocks` the total grid
/// size; `mem` the L2/DRAM traffic attributed to the launch.
#[must_use]
pub fn estimate(
    dev: &DeviceConfig,
    params: &TimingParams,
    hints: &TimingHints,
    counters: &Counters,
    mem: &MemTraffic,
    occ: &Occupancy,
    blocks: u64,
) -> KernelTiming {
    let sms = dev.num_sms as f64;
    let c = counters;

    // --- Issue ---------------------------------------------------------
    let (issue_rate, ffma_replay) = match hints.exec_model {
        ExecModel::CudaC => (
            dev.warp_schedulers as f64 * params.cudac_issue_efficiency,
            params.cudac_ffma_replay,
        ),
        ExecModel::Vendor => (dev.warp_schedulers as f64 * params.vendor_dual_issue, 1.0),
    };
    let issue_cycles = c.warp_insts() as f64 / (sms * issue_rate);

    // --- Core (FP32 + integer share the 128 CUDA cores) ----------------
    let core_insts = c.ffma_insts as f64 * ffma_replay + c.falu_insts as f64 + c.alu_insts as f64;
    let core_cycles = core_insts / (sms * dev.ffma_warps_per_clk_per_sm());

    // --- SFU ------------------------------------------------------------
    let sfu_cycles = c.sfu_insts as f64 / (sms * dev.sfu_warps_per_clk_per_sm());

    // --- LSU: one warp ld/st instruction per clock per SM; shared
    //     replays occupy extra slots; atomics go through LSU too. ------
    let smem_replays = (c.smem.load_transactions + c.smem.store_transactions) as f64
        - (c.smem.load_instructions + c.smem.store_instructions) as f64;
    let lsu_insts = (c.global_load_insts
        + c.global_store_insts
        + c.atomic_insts
        + c.smem.load_instructions
        + c.smem.store_instructions) as f64
        + smem_replays.max(0.0);
    let lsu_cycles = match hints.exec_model {
        ExecModel::CudaC => lsu_insts / sms,
        ExecModel::Vendor => lsu_insts * (1.0 - params.vendor_lsu_overlap) / sms,
    };

    // --- L2 bandwidth ----------------------------------------------------
    let l2_bytes = (mem.l2_transactions() + c.atomic_sectors * 2) as f64 * dev.sector_bytes as f64;
    let l2_cycles = l2_bytes / dev.l2_bytes_per_clk;

    // --- DRAM bandwidth --------------------------------------------------
    let dram_bytes = mem.dram_transactions() as f64 * dev.sector_bytes as f64;
    let dram_cycles = dram_bytes / dev.dram_bytes_per_clk();

    // --- Exposed latency (Little's law residue) -------------------------
    // Average latency per global load: weighted by L2 hit rate.
    let loads = (c.global_load_insts + c.atomic_insts) as f64;
    let exposed_latency_cycles = if loads > 0.0 {
        let hit_rate = if mem.l2_reads > 0 {
            mem.l2_read_hits as f64 / mem.l2_reads as f64
        } else {
            1.0
        };
        let avg_lat = hit_rate * dev.l2_latency_clk + (1.0 - hit_rate) * dev.dram_latency_clk;
        // Concurrency: resident warps per SM, each with `mlp`
        // outstanding requests.
        let concurrency = (occ.warps_per_sm as f64 * hints.mlp).max(1.0);
        (loads / sms) * avg_lat / concurrency
    } else {
        0.0
    };

    // --- Barriers (serialised; partially hidden by co-resident CTAs) ---
    let barrier_cycles = if matches!(hints.exec_model, ExecModel::CudaC) {
        let barriers_total = if occ.warps_per_sm > 0 {
            // sync_insts counts per-warp executions; one barrier per
            // block-wide sync ⇒ divide by warps per block.
            c.sync_insts as f64 / (occ.warps_per_sm as f64 / occ.blocks_per_sm as f64).max(1.0)
        } else {
            0.0
        };
        let hide = 1.0
            - params.barrier_overlap_per_extra_block * (occ.blocks_per_sm as f64 - 1.0).min(1.0);
        let concurrency = sms * occ.blocks_per_sm as f64;
        barriers_total * params.syncthreads_cycles * hide.max(0.25) / concurrency.max(1.0)
    } else {
        0.0
    };

    // --- Tail effect: partial last wave -----------------------------------
    // Per-SM throughput terms assume all SMs stay busy; a grid smaller
    // than one full wave (or with a partial last wave) leaves SMs idle.
    // Scale per-SM terms by ceil(waves)/exact(waves) ≥ 1. Device-wide
    // resources (L2, DRAM) are unaffected.
    let blocks_per_wave = (occ.blocks_per_sm as u64 * dev.num_sms as u64).max(1);
    let exact_waves = blocks as f64 / blocks_per_wave as f64;
    let sm_scale = if exact_waves > 0.0 {
        blocks.div_ceil(blocks_per_wave) as f64 / exact_waves
    } else {
        1.0
    };

    let issue_cycles = issue_cycles * sm_scale;
    let core_cycles = core_cycles * sm_scale;
    let sfu_cycles = sfu_cycles * sm_scale;
    let lsu_cycles = lsu_cycles * sm_scale;

    let (bound, throughput) = [
        (Bound::Issue, issue_cycles),
        (Bound::Core, core_cycles),
        (Bound::Sfu, sfu_cycles),
        (Bound::Lsu, lsu_cycles),
        (Bound::L2, l2_cycles),
        (Bound::Dram, dram_cycles),
        (Bound::Latency, exposed_latency_cycles),
    ]
    .into_iter()
    .max_by(|a, b| a.1.total_cmp(&b.1))
    .expect("non-empty");

    let cycles = throughput + barrier_cycles + dev.launch_overhead_us * 1e-6 * dev.clock_hz();
    let time_s = cycles / dev.clock_hz();

    KernelTiming {
        cycles,
        time_s,
        issue_cycles,
        core_cycles,
        sfu_cycles,
        lsu_cycles,
        l2_cycles,
        dram_cycles,
        exposed_latency_cycles,
        barrier_cycles,
        bound,
    }
}

/// Costs one host↔device transfer over `link` and returns the profile
/// entry to attach to a [`crate::profiler::PipelineProfile`]. The
/// alpha-beta model lives on
/// [`Interconnect::transfer_time_s`](crate::config::Interconnect::transfer_time_s);
/// this helper only packages the result with its provenance labels.
#[must_use]
pub fn estimate_transfer(
    link: &crate::config::Interconnect,
    label: impl Into<String>,
    bytes: u64,
) -> crate::profiler::TransferProfile {
    crate::profiler::TransferProfile {
        label: label.into(),
        link: link.name.clone(),
        bytes,
        time_s: link.transfer_time_s(bytes),
        crc_detected: 0,
        retransmits: 0,
        timed_out: false,
    }
}

/// Costs one transfer under a link-fault draw. A zero-byte transfer
/// issues no DMA and cannot fault. A timeout marks the entry
/// `timed_out` without charging extra time — the caller fails the
/// shard attempt and re-serves it, so the wasted wall clock is
/// charged by the retry path, not the ledger. A CRC-detected
/// corruption is recovered by one retransmit: payload bytes are
/// unchanged, time doubles, and the `crc_detected`/`retransmits`
/// counters record the event.
#[must_use]
pub fn estimate_transfer_faulted(
    link: &crate::config::Interconnect,
    label: impl Into<String>,
    bytes: u64,
    draw: crate::fault::LinkDraw,
) -> crate::profiler::TransferProfile {
    let mut t = estimate_transfer(link, label, bytes);
    if bytes == 0 {
        return t;
    }
    if draw.timeout {
        t.timed_out = true;
    } else if draw.corrupt {
        t.crc_detected = 1;
        t.retransmits = 1;
        t.time_s *= 2.0;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelResources;
    use crate::occupancy::occupancy;
    use crate::smem::SmemStats;

    fn dev() -> DeviceConfig {
        DeviceConfig::gtx970()
    }

    fn occ2() -> Occupancy {
        occupancy(
            &dev(),
            &KernelResources {
                threads_per_block: 256,
                regs_per_thread: 128,
                smem_bytes_per_block: 16384,
            },
        )
    }

    fn compute_heavy_counters() -> Counters {
        Counters {
            ffma_insts: 100_000_000,
            thread_insts: 3_200_000_000,
            flops: 6_400_000_000,
            ..Default::default()
        }
    }

    #[test]
    fn compute_bound_kernel_is_core_bound() {
        let c = compute_heavy_counters();
        let m = MemTraffic::default();
        let t = estimate(
            &dev(),
            &TimingParams::default(),
            &TimingHints::default(),
            &c,
            &m,
            &occ2(),
            1000,
        );
        // A pure-FFMA CUDA-C kernel is bound by the compute side:
        // either the core pipe (with the replay penalty) or issue
        // (with the scheduler-efficiency penalty); the two are within
        // a few percent of each other by construction.
        assert!(
            matches!(t.bound, Bound::Core | Bound::Issue),
            "bound {:?}",
            t.bound
        );
        assert!(t.core_cycles > t.dram_cycles);
    }

    #[test]
    fn vendor_model_is_faster_on_the_same_counters() {
        let c = compute_heavy_counters();
        let m = MemTraffic::default();
        let p = TimingParams::default();
        let cudac = estimate(
            &dev(),
            &p,
            &TimingHints {
                exec_model: ExecModel::CudaC,
                mlp: 4.0,
            },
            &c,
            &m,
            &occ2(),
            1000,
        );
        let vendor = estimate(
            &dev(),
            &p,
            &TimingHints {
                exec_model: ExecModel::Vendor,
                mlp: 4.0,
            },
            &c,
            &m,
            &occ2(),
            1000,
        );
        assert!(vendor.time_s < cudac.time_s);
        let ratio = cudac.time_s / vendor.time_s;
        assert!(ratio > 1.1 && ratio < 2.5, "penalty ratio {ratio}");
    }

    #[test]
    fn dram_heavy_kernel_is_dram_bound() {
        let c = Counters {
            global_load_insts: 10_000_000,
            thread_insts: 320_000_000,
            ..Default::default()
        };
        let m = MemTraffic {
            l2_reads: 40_000_000,
            l2_read_hits: 0,
            l2_read_misses: 40_000_000,
            ..Default::default()
        };
        let t = estimate(
            &dev(),
            &TimingParams::default(),
            &TimingHints::default(),
            &c,
            &m,
            &occ2(),
            10_000,
        );
        assert_eq!(t.bound, Bound::Dram);
    }

    #[test]
    fn bank_conflicts_inflate_lsu_time() {
        let base = Counters {
            smem: SmemStats {
                load_instructions: 1_000_000,
                load_transactions: 1_000_000,
                ..Default::default()
            },
            ..Default::default()
        };
        let conflicted = Counters {
            smem: SmemStats {
                load_instructions: 1_000_000,
                load_transactions: 8_000_000,
                ..Default::default()
            },
            ..Default::default()
        };
        let m = MemTraffic::default();
        let p = TimingParams::default();
        let h = TimingHints::default();
        let t0 = estimate(&dev(), &p, &h, &base, &m, &occ2(), 100);
        let t1 = estimate(&dev(), &p, &h, &conflicted, &m, &occ2(), 100);
        assert!(t1.lsu_cycles > 6.0 * t0.lsu_cycles);
    }

    #[test]
    fn low_occupancy_exposes_latency() {
        let c = Counters {
            global_load_insts: 1_000_000,
            thread_insts: 32_000_000,
            ..Default::default()
        };
        let m = MemTraffic {
            l2_reads: 4_000_000,
            l2_read_misses: 4_000_000,
            ..Default::default()
        };
        let p = TimingParams::default();
        let occ_low = occupancy(
            &dev(),
            &KernelResources {
                threads_per_block: 32,
                regs_per_thread: 255,
                smem_bytes_per_block: 0,
            },
        );
        let occ_high = occ2();
        let h = TimingHints {
            exec_model: ExecModel::CudaC,
            mlp: 1.0,
        };
        let t_low = estimate(&dev(), &p, &h, &c, &m, &occ_low, 1000);
        let t_high = estimate(&dev(), &p, &h, &c, &m, &occ_high, 1000);
        assert!(t_low.exposed_latency_cycles > t_high.exposed_latency_cycles);
    }

    #[test]
    fn time_is_positive_and_monotone_in_work() {
        let m = MemTraffic::default();
        let p = TimingParams::default();
        let h = TimingHints::default();
        let mut last = 0.0;
        for scale in [1u64, 10, 100] {
            let c = Counters {
                ffma_insts: 1_000_000 * scale,
                ..Default::default()
            };
            let t = estimate(&dev(), &p, &h, &c, &m, &occ2(), 26 * scale);
            assert!(t.time_s > last);
            last = t.time_s;
        }
    }

    #[test]
    fn empty_kernel_costs_launch_overhead() {
        let t = estimate(
            &dev(),
            &TimingParams::default(),
            &TimingHints::default(),
            &Counters::default(),
            &MemTraffic::default(),
            &occ2(),
            1,
        );
        let overhead_s = dev().launch_overhead_us * 1e-6;
        assert!((t.time_s - overhead_s).abs() / overhead_s < 0.01);
    }

    #[test]
    fn sfu_heavy_kernel_is_sfu_bound() {
        let c = Counters {
            sfu_insts: 50_000_000,
            thread_insts: 1_600_000_000,
            ..Default::default()
        };
        let t = estimate(
            &dev(),
            &TimingParams::default(),
            &TimingHints::default(),
            &c,
            &MemTraffic::default(),
            &occ2(),
            1000,
        );
        assert_eq!(t.bound, Bound::Sfu);
    }

    #[test]
    fn faulted_transfer_charges_retransmits_and_marks_timeouts() {
        use crate::config::Interconnect;
        use crate::fault::LinkDraw;
        let link = Interconnect::pcie3_x16();
        let clean = estimate_transfer(&link, "targets B", 1 << 20);

        // A clean draw is byte-identical to the fault-free estimate.
        let quiet = estimate_transfer_faulted(&link, "targets B", 1 << 20, LinkDraw::default());
        assert_eq!(quiet, clean);

        // CRC-detected corruption: one retransmit, double time, same
        // payload bytes.
        let corrupt = estimate_transfer_faulted(
            &link,
            "targets B",
            1 << 20,
            LinkDraw {
                corrupt: true,
                timeout: false,
            },
        );
        assert_eq!(corrupt.crc_detected, 1);
        assert_eq!(corrupt.retransmits, 1);
        assert!(!corrupt.timed_out);
        assert_eq!(corrupt.bytes, clean.bytes);
        assert!((corrupt.time_s - 2.0 * clean.time_s).abs() < 1e-15);

        // Timeout: marked, no extra time (the retry path pays).
        let lost = estimate_transfer_faulted(
            &link,
            "targets B",
            1 << 20,
            LinkDraw {
                corrupt: false,
                timeout: true,
            },
        );
        assert!(lost.timed_out);
        assert_eq!(lost.crc_detected, 0);
        assert_eq!(lost.time_s, clean.time_s);

        // Zero bytes: no DMA, no fault, regardless of the draw.
        let empty = estimate_transfer_faulted(
            &link,
            "shard A",
            0,
            LinkDraw {
                corrupt: true,
                timeout: true,
            },
        );
        assert!(!empty.timed_out && empty.crc_detected == 0);
        assert_eq!(empty.time_s, 0.0);
    }
}
