//! nvprof-like counters and per-kernel / per-pipeline profiles.
//!
//! The paper's evaluation is driven entirely by profiler counters
//! (§IV: "all the performance metrics and events in this work are
//! measured with the nvprof profiling tool"). This module defines the
//! same counter set for the simulator:
//!
//! * instruction counts by pipe (FFMA, other FP, integer/ALU, SFU,
//!   load/store) at warp and thread granularity;
//! * shared-memory instructions vs transactions (replays = conflicts);
//! * L2 read/write sector transactions, hits and misses;
//! * DRAM read/write transactions (L2 fills and write-backs);
//! * scalar FLOP count (`flop_count_sp` equivalent);
//! * derived metrics: FLOP efficiency, L2 MPKI.

use serde::{Deserialize, Serialize};

use crate::cache::CacheStats;
use crate::dim::LaunchConfig;
use crate::fault::FaultCounters;
use crate::kernel::KernelResources;
use crate::occupancy::Occupancy;
use crate::smem::SmemStats;
use crate::timing::KernelTiming;

/// Raw event counters accumulated by a [`crate::traffic::TrafficSink`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Counters {
    /// Warp-level FFMA instructions.
    pub ffma_insts: u64,
    /// Warp-level non-FMA floating-point instructions (FADD/FMUL…).
    pub falu_insts: u64,
    /// Warp-level integer/addressing/control instructions.
    pub alu_insts: u64,
    /// Warp-level special-function (MUFU: exp, rcp…) instructions.
    pub sfu_insts: u64,
    /// Warp-level global load instructions.
    pub global_load_insts: u64,
    /// Warp-level global store instructions.
    pub global_store_insts: u64,
    /// Warp-level global atomic instructions.
    pub atomic_insts: u64,
    /// Warp-level `__syncthreads()` executions (per warp).
    pub sync_insts: u64,
    /// Thread-level executed instructions (active lanes summed).
    pub thread_insts: u64,
    /// Scalar single-precision FLOPs (FMA = 2, FADD/FMUL = 1,
    /// special = 1 per lane).
    pub flops: u64,
    /// Shared-memory statistics.
    pub smem: SmemStats,
    /// Global sectors requested at L2 by reads (pre-hit/miss).
    pub l2_read_sectors: u64,
    /// Global sectors requested at L2 by writes.
    pub l2_write_sectors: u64,
    /// Sectors touched by atomics (read-modify-write in L2).
    pub atomic_sectors: u64,
    /// L1 sector lookups for global loads (0 unless the device caches
    /// global loads in L1).
    pub l1_read_sectors: u64,
    /// L1 hits among those lookups.
    pub l1_read_hits: u64,
}

impl Counters {
    /// Total warp-level instructions (nvprof `inst_executed`).
    #[must_use]
    pub fn warp_insts(&self) -> u64 {
        self.ffma_insts
            + self.falu_insts
            + self.alu_insts
            + self.sfu_insts
            + self.global_load_insts
            + self.global_store_insts
            + self.atomic_insts
            + self.sync_insts
            + self.smem.load_instructions
            + self.smem.store_instructions
    }

    /// Accumulates another counter block.
    pub fn merge(&mut self, o: &Counters) {
        self.ffma_insts += o.ffma_insts;
        self.falu_insts += o.falu_insts;
        self.alu_insts += o.alu_insts;
        self.sfu_insts += o.sfu_insts;
        self.global_load_insts += o.global_load_insts;
        self.global_store_insts += o.global_store_insts;
        self.atomic_insts += o.atomic_insts;
        self.sync_insts += o.sync_insts;
        self.thread_insts += o.thread_insts;
        self.flops += o.flops;
        self.smem.merge(&o.smem);
        self.l2_read_sectors += o.l2_read_sectors;
        self.l2_write_sectors += o.l2_write_sectors;
        self.atomic_sectors += o.atomic_sectors;
        self.l1_read_sectors += o.l1_read_sectors;
        self.l1_read_hits += o.l1_read_hits;
    }
}

/// L2/DRAM traffic attributed to one kernel launch (delta of the
/// device cache statistics across the launch, including the
/// kernel-boundary flush of dirty lines).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemTraffic {
    /// L2 read sector accesses.
    pub l2_reads: u64,
    /// L2 read hits.
    pub l2_read_hits: u64,
    /// L2 read misses (= DRAM read transactions).
    pub l2_read_misses: u64,
    /// L2 write sector accesses.
    pub l2_writes: u64,
    /// L2 write hits.
    pub l2_write_hits: u64,
    /// L2 write misses (allocated without fill).
    pub l2_write_misses: u64,
    /// DRAM write transactions (dirty write-backs + flush).
    pub dram_writes: u64,
}

impl MemTraffic {
    /// Delta between two cache snapshots.
    #[must_use]
    pub fn from_delta(before: &CacheStats, after: &CacheStats) -> Self {
        Self {
            l2_reads: after.read_accesses - before.read_accesses,
            l2_read_hits: after.read_hits - before.read_hits,
            l2_read_misses: after.read_misses - before.read_misses,
            l2_writes: after.write_accesses - before.write_accesses,
            l2_write_hits: after.write_hits - before.write_hits,
            l2_write_misses: after.write_misses - before.write_misses,
            dram_writes: after.write_backs - before.write_backs,
        }
    }

    /// Total L2 sector transactions (reads + writes), the quantity of
    /// the paper's Fig 8a.
    #[must_use]
    pub fn l2_transactions(&self) -> u64 {
        self.l2_reads + self.l2_writes
    }

    /// DRAM read transactions (sector fills).
    #[must_use]
    pub fn dram_reads(&self) -> u64 {
        self.l2_read_misses
    }

    /// Total DRAM transactions (Fig 8b).
    #[must_use]
    pub fn dram_transactions(&self) -> u64 {
        self.dram_reads() + self.dram_writes
    }

    /// Accumulates another traffic block.
    pub fn merge(&mut self, o: &MemTraffic) {
        self.l2_reads += o.l2_reads;
        self.l2_read_hits += o.l2_read_hits;
        self.l2_read_misses += o.l2_read_misses;
        self.l2_writes += o.l2_writes;
        self.l2_write_hits += o.l2_write_hits;
        self.l2_write_misses += o.l2_write_misses;
        self.dram_writes += o.dram_writes;
    }
}

/// Complete profile of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: String,
    /// Launch geometry.
    pub launch: LaunchConfig,
    /// Static resources.
    pub resources: KernelResources,
    /// Occupancy achieved.
    pub occupancy: Occupancy,
    /// Event counters.
    pub counters: Counters,
    /// L2/DRAM traffic.
    pub mem: MemTraffic,
    /// Timing-model output.
    pub timing: KernelTiming,
    /// Soft errors injected into this launch by the fault model
    /// (all-zero on a fault-free device).
    pub faults: FaultCounters,
}

// Hand-written serde impls (not derived) so the `faults` key is
// *omitted* when no fault was injected and *defaulted* when absent:
// fault-free profiles serialize byte-identically to the
// pre-fault-model schema, and pre-existing golden documents still
// deserialize. Field order matches the struct declaration, like the
// derive would emit.
impl Serialize for KernelProfile {
    fn to_value(&self) -> serde::value::Value {
        let mut obj: Vec<(String, serde::value::Value)> = vec![
            ("name".to_string(), self.name.to_value()),
            ("launch".to_string(), self.launch.to_value()),
            ("resources".to_string(), self.resources.to_value()),
            ("occupancy".to_string(), self.occupancy.to_value()),
            ("counters".to_string(), self.counters.to_value()),
            ("mem".to_string(), self.mem.to_value()),
            ("timing".to_string(), self.timing.to_value()),
        ];
        if !self.faults.is_empty() {
            obj.push(("faults".to_string(), self.faults.to_value()));
        }
        serde::value::Value::Object(obj)
    }
}

impl Deserialize for KernelProfile {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::de::Error> {
        Ok(Self {
            name: serde::de::field(v, "name")?,
            launch: serde::de::field(v, "launch")?,
            resources: serde::de::field(v, "resources")?,
            occupancy: serde::de::field(v, "occupancy")?,
            counters: serde::de::field(v, "counters")?,
            mem: serde::de::field(v, "mem")?,
            timing: serde::de::field(v, "timing")?,
            faults: match v.get("faults") {
                Some(f) => FaultCounters::from_value(f).map_err(|e| e.context("faults"))?,
                None => FaultCounters::default(),
            },
        })
    }
}

impl KernelProfile {
    /// L2 misses per thousand thread-level instructions — the metric
    /// of the paper's Fig 2 ("L2 MPKI").
    #[must_use]
    pub fn l2_mpki(&self) -> f64 {
        if self.counters.thread_insts == 0 {
            return 0.0;
        }
        (self.mem.l2_read_misses + self.mem.l2_write_misses) as f64 * 1000.0
            / self.counters.thread_insts as f64
    }

    /// Achieved fraction of peak single-precision FLOP throughput
    /// (Table II, "FLOP efficiency").
    #[must_use]
    pub fn flop_efficiency(&self, peak_gflops: f64) -> f64 {
        if self.timing.time_s <= 0.0 {
            return 0.0;
        }
        (self.counters.flops as f64 / self.timing.time_s) / (peak_gflops * 1e9)
    }
}

/// One modelled host↔device (or device↔device) transfer attributed to
/// a pipeline: shard upload, weight staging, result download. Costed
/// by [`crate::config::Interconnect::transfer_time_s`]; the CRC
/// ledger fields record what the link-fault model did to it (see
/// [`crate::fault::LinkFaultSpec`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferProfile {
    /// What moved (`"shard A"`, `"weights"`, `"result V"`, …).
    pub label: String,
    /// Link the bytes moved over.
    pub link: String,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Modelled transfer time in seconds (includes retransmits).
    pub time_s: f64,
    /// In-flight corruptions the CRC check caught (each recovered by
    /// a retransmit, so the payload still arrived intact).
    pub crc_detected: u64,
    /// Retransmissions charged after CRC detection.
    pub retransmits: u64,
    /// True when the transfer timed out; the shard attempt that
    /// issued it fails and is re-served elsewhere.
    pub timed_out: bool,
}

// Hand-written serde, same contract as [`KernelProfile`]: the CRC
// ledger keys are omitted when quiet and defaulted when absent, so
// fault-free transfers serialize byte-identically to the pre-ledger
// schema and old golden documents still deserialize.
impl Serialize for TransferProfile {
    fn to_value(&self) -> serde::value::Value {
        let mut obj: Vec<(String, serde::value::Value)> = vec![
            ("label".to_string(), self.label.to_value()),
            ("link".to_string(), self.link.to_value()),
            ("bytes".to_string(), self.bytes.to_value()),
            ("time_s".to_string(), self.time_s.to_value()),
        ];
        if self.crc_detected != 0 {
            obj.push(("crc_detected".to_string(), self.crc_detected.to_value()));
        }
        if self.retransmits != 0 {
            obj.push(("retransmits".to_string(), self.retransmits.to_value()));
        }
        if self.timed_out {
            obj.push(("timed_out".to_string(), self.timed_out.to_value()));
        }
        serde::value::Value::Object(obj)
    }
}

impl Deserialize for TransferProfile {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::de::Error> {
        Ok(Self {
            label: serde::de::field(v, "label")?,
            link: serde::de::field(v, "link")?,
            bytes: serde::de::field(v, "bytes")?,
            time_s: serde::de::field(v, "time_s")?,
            crc_detected: match v.get("crc_detected") {
                Some(c) => u64::from_value(c).map_err(|e| e.context("crc_detected"))?,
                None => 0,
            },
            retransmits: match v.get("retransmits") {
                Some(r) => u64::from_value(r).map_err(|e| e.context("retransmits"))?,
                None => 0,
            },
            timed_out: match v.get("timed_out") {
                Some(t) => bool::from_value(t).map_err(|e| e.context("timed_out"))?,
                None => false,
            },
        })
    }
}

/// Profile of a multi-kernel pipeline (one end-to-end kernel-summation
/// implementation: e.g. `cuBLAS-Unfused` = norms + GEMM + exp + GEMV).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineProfile {
    /// Pipeline label (`Fused`, `CUDA-Unfused`, `cuBLAS-Unfused`).
    pub name: String,
    /// Per-kernel profiles in launch order.
    pub kernels: Vec<KernelProfile>,
    /// Host↔device transfers charged to this pipeline (empty for
    /// single-device pipelines, which assume resident data).
    pub transfers: Vec<TransferProfile>,
}

// Hand-written serde, same contract as [`KernelProfile`]: `transfers`
// is omitted when empty and defaulted when absent, so transfer-free
// profiles serialize byte-identically to the pre-pool schema and old
// golden documents still deserialize.
impl Serialize for PipelineProfile {
    fn to_value(&self) -> serde::value::Value {
        let mut obj: Vec<(String, serde::value::Value)> = vec![
            ("name".to_string(), self.name.to_value()),
            ("kernels".to_string(), self.kernels.to_value()),
        ];
        if !self.transfers.is_empty() {
            obj.push(("transfers".to_string(), self.transfers.to_value()));
        }
        serde::value::Value::Object(obj)
    }
}

impl Deserialize for PipelineProfile {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::de::Error> {
        Ok(Self {
            name: serde::de::field(v, "name")?,
            kernels: serde::de::field(v, "kernels")?,
            transfers: match v.get("transfers") {
                Some(t) => {
                    Vec::<TransferProfile>::from_value(t).map_err(|e| e.context("transfers"))?
                }
                None => Vec::new(),
            },
        })
    }
}

impl PipelineProfile {
    /// New, empty pipeline profile.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            kernels: Vec::new(),
            transfers: Vec::new(),
        }
    }

    /// Total wall time in seconds: kernels serialised on one stream
    /// (as in the paper's pipelines) plus any modelled transfers,
    /// which a single stream also serialises with the kernels.
    #[must_use]
    pub fn total_time_s(&self) -> f64 {
        self.kernels.iter().map(|k| k.timing.time_s).sum::<f64>() + self.transfer_time_s()
    }

    /// Summed modelled transfer time in seconds (0 when no transfers
    /// are charged).
    #[must_use]
    pub fn transfer_time_s(&self) -> f64 {
        self.transfers.iter().map(|t| t.time_s).sum()
    }

    /// Summed transfer payload bytes.
    #[must_use]
    pub fn transfer_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// Summed counters.
    #[must_use]
    pub fn total_counters(&self) -> Counters {
        let mut c = Counters::default();
        for k in &self.kernels {
            c.merge(&k.counters);
        }
        c
    }

    /// Summed L2/DRAM traffic.
    #[must_use]
    pub fn total_mem(&self) -> MemTraffic {
        let mut m = MemTraffic::default();
        for k in &self.kernels {
            m.merge(&k.mem);
        }
        m
    }

    /// Summed injected-fault counters across the pipeline's launches.
    #[must_use]
    pub fn total_faults(&self) -> FaultCounters {
        let mut f = FaultCounters::default();
        for k in &self.kernels {
            f.merge(&k.faults);
        }
        f
    }

    /// Cycle-weighted FLOP efficiency, as the paper computes it for
    /// multi-kernel pipelines (Table II: "the efficiency of
    /// cuBLAS-Unfused kernel summation is a weighted sum … based on
    /// their total cycle count").
    #[must_use]
    pub fn flop_efficiency(&self, peak_gflops: f64) -> f64 {
        let t = self.total_time_s();
        if t <= 0.0 {
            return 0.0;
        }
        let flops: u64 = self.kernels.iter().map(|k| k.counters.flops).sum();
        (flops as f64 / t) / (peak_gflops * 1e9)
    }

    /// Pipeline-level MPKI (all kernels).
    #[must_use]
    pub fn l2_mpki(&self) -> f64 {
        let c = self.total_counters();
        let m = self.total_mem();
        if c.thread_insts == 0 {
            return 0.0;
        }
        (m.l2_read_misses + m.l2_write_misses) as f64 * 1000.0 / c.thread_insts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_and_total() {
        let mut a = Counters {
            ffma_insts: 10,
            alu_insts: 5,
            thread_insts: 480,
            flops: 640,
            ..Default::default()
        };
        let b = Counters {
            ffma_insts: 1,
            sfu_insts: 2,
            sync_insts: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.ffma_insts, 11);
        assert_eq!(a.warp_insts(), 11 + 5 + 2 + 3);
    }

    #[test]
    fn mem_traffic_delta() {
        let before = CacheStats {
            read_accesses: 10,
            read_hits: 4,
            read_misses: 6,
            write_accesses: 2,
            write_hits: 1,
            write_misses: 1,
            write_backs: 1,
        };
        let after = CacheStats {
            read_accesses: 110,
            read_hits: 44,
            read_misses: 66,
            write_accesses: 22,
            write_hits: 11,
            write_misses: 11,
            write_backs: 11,
        };
        let d = MemTraffic::from_delta(&before, &after);
        assert_eq!(d.l2_reads, 100);
        assert_eq!(d.l2_read_misses, 60);
        assert_eq!(d.dram_reads(), 60);
        assert_eq!(d.dram_writes, 10);
        assert_eq!(d.dram_transactions(), 70);
        assert_eq!(d.l2_transactions(), 120);
    }

    #[test]
    fn transfer_free_pipeline_serializes_without_transfers_key() {
        use serde::value::Value;
        let p = PipelineProfile::new("Fused");
        let Value::Object(fields) = p.to_value() else {
            panic!("pipeline must serialize to an object");
        };
        assert!(
            fields.iter().all(|(k, _)| k != "transfers"),
            "empty transfers must be omitted for golden stability"
        );
        // Absent key defaults to no transfers (old documents).
        let back = PipelineProfile::from_value(&Value::Object(fields)).unwrap();
        assert_eq!(back, p);
        // Non-empty transfers round-trip and extend total time.
        let mut q = PipelineProfile::new("Pooled");
        q.transfers.push(TransferProfile {
            label: "shard A".to_string(),
            link: "PCIe 3.0 x16".to_string(),
            bytes: 4096,
            time_s: 1.5e-6,
            crc_detected: 0,
            retransmits: 0,
            timed_out: false,
        });
        let rt = PipelineProfile::from_value(&q.to_value()).unwrap();
        assert_eq!(rt, q);
        assert_eq!(q.transfer_bytes(), 4096);
        assert!((q.total_time_s() - 1.5e-6).abs() < 1e-12);
    }

    #[test]
    fn clean_transfer_serializes_without_crc_ledger_keys() {
        use serde::value::Value;
        let clean = TransferProfile {
            label: "targets B".to_string(),
            link: "NVLink".to_string(),
            bytes: 1024,
            time_s: 2e-6,
            crc_detected: 0,
            retransmits: 0,
            timed_out: false,
        };
        let Value::Object(fields) = clean.to_value() else {
            panic!("transfer must serialize to an object");
        };
        assert!(
            fields
                .iter()
                .all(|(k, _)| !matches!(k.as_str(), "crc_detected" | "retransmits" | "timed_out")),
            "quiet ledger keys must be omitted for golden stability"
        );
        // Absent keys default to a clean transfer (old documents).
        let back = TransferProfile::from_value(&Value::Object(fields)).unwrap();
        assert_eq!(back, clean);
        // A faulted transfer round-trips its ledger.
        let faulted = TransferProfile {
            crc_detected: 1,
            retransmits: 1,
            timed_out: true,
            ..clean
        };
        let rt = TransferProfile::from_value(&faulted.to_value()).unwrap();
        assert_eq!(rt, faulted);
    }

    #[test]
    fn mem_traffic_merge() {
        let mut a = MemTraffic {
            l2_reads: 1,
            dram_writes: 2,
            ..Default::default()
        };
        a.merge(&MemTraffic {
            l2_reads: 9,
            l2_read_misses: 3,
            ..Default::default()
        });
        assert_eq!(a.l2_reads, 10);
        assert_eq!(a.dram_transactions(), 5);
    }
}
