//! Profile rendering: human-readable text (nvprof-style) plus the
//! nvprof-style CSV rows the bench harness exports. The JSON form is
//! the profiles' serde data model.

use std::fmt;

use crate::profiler::{KernelProfile, PipelineProfile};

impl fmt::Display for KernelProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<30} {:>9.3}ms  occ {:>4.0}%  {:>14} flops  l2 {:>12}  dram {:>12}  {:?}-bound",
            self.name,
            self.timing.time_s * 1e3,
            self.occupancy.fraction * 100.0,
            self.counters.flops,
            self.mem.l2_transactions(),
            self.mem.dram_transactions(),
            self.timing.bound,
        )
    }
}

impl fmt::Display for PipelineProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline {:<16} total {:.3}ms, {} kernels",
            self.name,
            self.total_time_s() * 1e3,
            self.kernels.len()
        )?;
        for k in &self.kernels {
            writeln!(f, "  {k}")?;
        }
        Ok(())
    }
}

/// One-line summary of a pipeline (for logs and examples).
#[must_use]
pub fn summary(p: &PipelineProfile, peak_gflops: f64) -> String {
    let mem = p.total_mem();
    format!(
        "{}: {:.3}ms, {:.1}% FLOP efficiency, {} L2 / {} DRAM transactions",
        p.name,
        p.total_time_s() * 1e3,
        p.flop_efficiency(peak_gflops) * 100.0,
        mem.l2_transactions(),
        mem.dram_transactions()
    )
}

/// Column names of the metrics CSV, one row per kernel launch.
/// Counter columns follow nvprof's event names where one exists.
pub const CSV_COLUMNS: &[&str] = &[
    "pipeline",
    "kernel",
    "grid",
    "block",
    "regs_per_thread",
    "smem_bytes_per_block",
    "achieved_occupancy",
    "occupancy_limiter",
    "blocks_per_sm",
    "inst_ffma",
    "inst_falu",
    "inst_alu",
    "inst_sfu",
    "inst_global_load",
    "inst_global_store",
    "inst_atomic",
    "inst_sync",
    "inst_executed",
    "thread_inst_executed",
    "flop_count_sp",
    "shared_load",
    "shared_load_transactions",
    "shared_store",
    "shared_store_transactions",
    "l2_read_sectors",
    "l2_write_sectors",
    "atomic_sectors",
    "l1_read_sectors",
    "l1_read_hits",
    "l2_read_transactions",
    "l2_read_hits",
    "l2_read_misses",
    "l2_write_transactions",
    "l2_write_hits",
    "l2_write_misses",
    "dram_read_transactions",
    "dram_write_transactions",
    "cycles",
    "time_s",
    "bound",
    "injected_smem_flips",
    "injected_reg_flips",
    "injected_dram_flips",
    "injected_launch_faults",
];

/// The CSV header line for [`kernel_csv_row`] rows.
#[must_use]
pub fn csv_header() -> String {
    CSV_COLUMNS.join(",")
}

/// One CSV row of every metric of one kernel launch, in
/// [`CSV_COLUMNS`] order. `pipeline` labels which pipeline the launch
/// belongs to.
#[must_use]
pub fn kernel_csv_row(pipeline: &str, k: &KernelProfile) -> String {
    let c = &k.counters;
    let m = &k.mem;
    let cells: Vec<String> = vec![
        pipeline.to_string(),
        k.name.clone(),
        format!(
            "{}x{}x{}",
            k.launch.grid.x, k.launch.grid.y, k.launch.grid.z
        ),
        format!(
            "{}x{}x{}",
            k.launch.block.x, k.launch.block.y, k.launch.block.z
        ),
        k.resources.regs_per_thread.to_string(),
        k.resources.smem_bytes_per_block.to_string(),
        format!("{:?}", k.occupancy.fraction),
        format!("{:?}", k.occupancy.limiter),
        k.occupancy.blocks_per_sm.to_string(),
        c.ffma_insts.to_string(),
        c.falu_insts.to_string(),
        c.alu_insts.to_string(),
        c.sfu_insts.to_string(),
        c.global_load_insts.to_string(),
        c.global_store_insts.to_string(),
        c.atomic_insts.to_string(),
        c.sync_insts.to_string(),
        c.warp_insts().to_string(),
        c.thread_insts.to_string(),
        c.flops.to_string(),
        c.smem.load_instructions.to_string(),
        c.smem.load_transactions.to_string(),
        c.smem.store_instructions.to_string(),
        c.smem.store_transactions.to_string(),
        c.l2_read_sectors.to_string(),
        c.l2_write_sectors.to_string(),
        c.atomic_sectors.to_string(),
        c.l1_read_sectors.to_string(),
        c.l1_read_hits.to_string(),
        m.l2_reads.to_string(),
        m.l2_read_hits.to_string(),
        m.l2_read_misses.to_string(),
        m.l2_writes.to_string(),
        m.l2_write_hits.to_string(),
        m.l2_write_misses.to_string(),
        m.dram_reads().to_string(),
        m.dram_writes.to_string(),
        format!("{:?}", k.timing.cycles),
        format!("{:?}", k.timing.time_s),
        format!("{:?}", k.timing.bound),
        k.faults.smem_flips.to_string(),
        k.faults.reg_flips.to_string(),
        k.faults.dram_flips.to_string(),
        k.faults.launch_faults.to_string(),
    ];
    debug_assert_eq!(cells.len(), CSV_COLUMNS.len());
    cells.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::LaunchConfig;
    use crate::kernel::KernelResources;
    use crate::occupancy::occupancy;
    use crate::profiler::{Counters, MemTraffic};
    use crate::timing::{estimate, TimingParams};
    use crate::DeviceConfig;

    fn fake_profile() -> KernelProfile {
        let dev = DeviceConfig::gtx970();
        let res = KernelResources {
            threads_per_block: 256,
            regs_per_thread: 64,
            smem_bytes_per_block: 0,
        };
        let occ = occupancy(&dev, &res);
        let counters = Counters {
            ffma_insts: 1000,
            thread_insts: 32000,
            flops: 64000,
            ..Default::default()
        };
        let mem = MemTraffic::default();
        let timing = estimate(
            &dev,
            &TimingParams::default(),
            &Default::default(),
            &counters,
            &mem,
            &occ,
            10,
        );
        KernelProfile {
            name: "demo_kernel".into(),
            launch: LaunchConfig::new(10u32, 256u32),
            resources: res,
            occupancy: occ,
            counters,
            mem,
            timing,
            faults: Default::default(),
        }
    }

    #[test]
    fn kernel_display_mentions_name_and_bound() {
        let s = fake_profile().to_string();
        assert!(s.contains("demo_kernel"));
        assert!(s.contains("bound"));
        assert!(s.contains("flops"));
    }

    #[test]
    fn pipeline_display_lists_kernels() {
        let mut p = PipelineProfile::new("Demo");
        p.kernels.push(fake_profile());
        p.kernels.push(fake_profile());
        let s = p.to_string();
        assert!(s.contains("pipeline Demo"));
        assert_eq!(s.matches("demo_kernel").count(), 2);
    }

    #[test]
    fn summary_contains_efficiency() {
        let mut p = PipelineProfile::new("Demo");
        p.kernels.push(fake_profile());
        let s = summary(&p, 3920.0);
        assert!(s.contains("FLOP efficiency"));
        assert!(s.contains("Demo"));
    }

    #[test]
    fn csv_rows_match_header_width() {
        let k = fake_profile();
        let header = csv_header();
        let row = kernel_csv_row("Demo", &k);
        assert_eq!(header.split(',').count(), CSV_COLUMNS.len());
        assert_eq!(row.split(',').count(), CSV_COLUMNS.len());
        assert!(row.starts_with("Demo,demo_kernel,"));
    }

    #[test]
    fn json_round_trips_every_counter() {
        let mut p = PipelineProfile::new("Demo");
        p.kernels.push(fake_profile());
        let json = serde_json::to_string_pretty(&p).expect("profiles serialise");
        let back: PipelineProfile = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, p, "profile must survive a JSON round trip");
    }
}
