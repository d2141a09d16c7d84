//! Canonical machine-readable sweep export (the `BENCH_sweep.json`
//! schema).
//!
//! [`SweepMetrics::collect`] flattens a profiled [`SweepData`] into a
//! serde-backed tree: per point, per pipeline, every event counter,
//! L2/DRAM transaction count, simulated time, energy breakdown and the
//! full nested [`PipelineProfile`] — plus the point's speedups and
//! host wall time. The same struct deserialises back, which is what
//! the perf-regression harness ([`crate::regress`]) diffs against a
//! checked-in golden.

use ks_energy::{pipeline_energy, EnergyBreakdown, EnergyParams};
use ks_gpu_sim::config::DeviceConfig;
use ks_gpu_sim::profiler::{Counters, MemTraffic, PipelineProfile};
use ks_gpu_sim::report;
use ks_serve::ServeReport;
use serde::{Deserialize, Serialize};

use crate::data::{PointData, SweepData};

/// Version stamped into every export. Bump on any schema change so
/// the regression harness rejects stale goldens instead of producing
/// confusing field-level diffs.
pub const SCHEMA_VERSION: u64 = 1;

/// Summed metrics of one pipeline at one sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineMetrics {
    /// Pipeline label (`Fused`, `CUDA-Unfused`, `cuBLAS-Unfused`).
    pub name: String,
    /// Simulated end-to-end time in seconds.
    pub time_s: f64,
    /// Summed event counters across the pipeline's kernels.
    pub counters: Counters,
    /// Summed L2/DRAM traffic.
    pub mem: MemTraffic,
    /// Total L2 sector transactions (Fig 8a's quantity).
    pub l2_transactions: u64,
    /// Total DRAM transactions (Fig 8b's quantity).
    pub dram_transactions: u64,
    /// Cycle-weighted FLOP efficiency vs device peak (Table II).
    pub flop_efficiency: f64,
    /// L2 misses per thousand thread instructions (Fig 2).
    pub l2_mpki: f64,
    /// Energy breakdown in joules (Figs 1 and 9).
    pub energy: EnergyBreakdown,
    /// The full per-kernel profile this summary was derived from.
    pub profile: PipelineProfile,
}

impl PipelineMetrics {
    fn collect(profile: &PipelineProfile, energy: &EnergyBreakdown, peak_gflops: f64) -> Self {
        let mem = profile.total_mem();
        Self {
            name: profile.name.clone(),
            time_s: profile.total_time_s(),
            counters: profile.total_counters(),
            mem,
            l2_transactions: mem.l2_transactions(),
            dram_transactions: mem.dram_transactions(),
            flop_efficiency: profile.flop_efficiency(peak_gflops),
            l2_mpki: profile.l2_mpki(),
            energy: *energy,
            profile: profile.clone(),
        }
    }
}

/// All metrics of one `(K, M)` sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointMetrics {
    /// Point-space dimension.
    pub k: u64,
    /// Source count.
    pub m: u64,
    /// Target count.
    pub n: u64,
    /// Host wall time spent profiling the point, in milliseconds
    /// (nondeterministic — ignored by the regression diff).
    pub wall_time_ms: f64,
    /// Fused speedup over cuBLAS-Unfused (Fig 6 headline).
    pub speedup_vs_cublas: f64,
    /// Fused speedup over CUDA-Unfused (Fig 6 projection).
    pub speedup_vs_cuda: f64,
    /// Fused pipeline metrics.
    pub fused: PipelineMetrics,
    /// CUDA-Unfused pipeline metrics.
    pub cuda_unfused: PipelineMetrics,
    /// cuBLAS-Unfused pipeline metrics.
    pub cublas_unfused: PipelineMetrics,
}

impl PointMetrics {
    fn collect(p: &PointData, peak_gflops: f64) -> Self {
        Self {
            k: p.k as u64,
            m: p.m as u64,
            n: p.n as u64,
            wall_time_ms: p.wall_time_ms,
            speedup_vs_cublas: p.speedup_vs_cublas(),
            speedup_vs_cuda: p.speedup_vs_cuda(),
            fused: PipelineMetrics::collect(&p.fused, &p.fused_energy, peak_gflops),
            cuda_unfused: PipelineMetrics::collect(&p.cuda_unfused, &p.cuda_energy, peak_gflops),
            cublas_unfused: PipelineMetrics::collect(
                &p.cublas_unfused,
                &p.cublas_energy,
                peak_gflops,
            ),
        }
    }
}

/// The canonical sweep export: one entry per `(K, M)` point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepMetrics {
    /// Export schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Fixed N of the sweep.
    pub n: u64,
    /// Peak single-precision GFLOP/s of the simulated device (the
    /// denominator of every `flop_efficiency`).
    pub peak_sp_gflops: f64,
    /// Per-point metrics, in `sweep.points()` (K-major) order.
    pub points: Vec<PointMetrics>,
}

impl SweepMetrics {
    /// Flattens a profiled sweep into the export schema.
    #[must_use]
    pub fn collect(d: &SweepData) -> Self {
        let peak = d.device.peak_sp_gflops();
        Self {
            schema_version: SCHEMA_VERSION,
            n: d.sweep.n as u64,
            peak_sp_gflops: peak,
            points: d
                .points
                .iter()
                .map(|p| PointMetrics::collect(p, peak))
                .collect(),
        }
    }

    /// Pretty-printed JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        crate::cli::to_json(self)
    }

    /// Parses a document produced by [`SweepMetrics::to_json`].
    ///
    /// # Errors
    /// Returns the underlying parse/shape error message.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// nvprof-style CSV: one row per kernel launch per pipeline per
    /// point, prefixed with the point coordinates.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = format!("k,m,n,{}\n", report::csv_header());
        for pt in &self.points {
            for pm in [&pt.fused, &pt.cuda_unfused, &pt.cublas_unfused] {
                for k in &pm.profile.kernels {
                    out.push_str(&format!(
                        "{},{},{},{}\n",
                        pt.k,
                        pt.m,
                        pt.n,
                        report::kernel_csv_row(&pm.profile.name, k)
                    ));
                }
            }
        }
        out
    }

    /// Writes [`SweepMetrics::to_json`] to `path`.
    ///
    /// # Errors
    /// Propagates the I/O error.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// The `serve-bench` export: end-of-run serving counters plus the
/// merged GPU pipeline summary (when any GPU batch completed),
/// reusing the [`PipelineMetrics`] schema the sweep export uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeMetrics {
    /// Export schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Queries offered to the server.
    pub submitted: u64,
    /// Queries accepted into the queue.
    pub accepted: u64,
    /// Queries bounced by backpressure.
    pub rejected: u64,
    /// Queries that produced a result.
    pub completed: u64,
    /// Queries dropped for a passed deadline.
    pub expired: u64,
    /// Queries failed with a launch error.
    pub failed: u64,
    /// Batches recovered on the CPU after a GPU launch failure.
    pub fallbacks: u64,
    /// Coalesced solves executed.
    pub batches: u64,
    /// Queries served through those solves.
    pub batched_queries: u64,
    /// Simulated kernel launches across all completed GPU batches.
    pub launches: u64,
    /// Horizontally-fused packed launches (one per packed wave per
    /// device; zero when packing is off).
    pub packed_launches: u64,
    /// Batches served as segments of those packed launches.
    pub packed_segments: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses.
    pub plan_cache_misses: u64,
    /// Plan-cache evictions.
    pub plan_cache_evictions: u64,
    /// Plan-cache hit rate over batch lookups.
    pub plan_cache_hit_rate: f64,
    /// Static-admission analyses run (one per distinct launch
    /// geometry; warm shapes hit the memo instead).
    pub static_admission_checks: u64,
    /// Static-admission verdicts served from the memo.
    pub static_admission_hits: u64,
    /// Batches denied the GPU by a static proof and served on the
    /// CPU path.
    pub static_admission_rejects: u64,
    /// Deepest queue occupancy observed.
    pub queue_high_water: u64,
    /// Modelled GPU energy across all batches, joules.
    pub energy_j: f64,
    /// `energy_j / completed` — the serving energy figure of merit.
    pub j_per_query: f64,
    /// Batches routed to a pick's bit-compatible low-power geometry
    /// by the energy budget.
    pub energy_downshifts: u64,
    /// Distinct raw batch shapes whose tile geometry was resolved.
    pub geometry_resolves: u64,
    /// Batches whose geometry came from the per-shape memo.
    pub geometry_hits: u64,
    /// GPU attempts whose pipeline profile came from their device
    /// slot's memo (no traffic replay); host-side accounting.
    pub profile_memo_hits: u64,
    /// GPU attempts that replayed and recorded their profile.
    pub profile_memo_misses: u64,
    /// Merged GPU pipeline metrics (all batches' kernels in execution
    /// order); `None` when no GPU batch completed.
    pub gpu: Option<PipelineMetrics>,
}

impl ServeMetrics {
    /// Flattens a serving run into the export schema. `device` is the
    /// simulated device the server ran batches on (its peak FLOP/s is
    /// the efficiency denominator).
    #[must_use]
    pub fn collect(report: &ServeReport, device: &DeviceConfig) -> Self {
        let gpu = (!report.profiles.is_empty()).then(|| {
            let merged = report.merged_profile();
            let energy = pipeline_energy(&EnergyParams::default(), &merged);
            PipelineMetrics::collect(&merged, &energy, device.peak_sp_gflops())
        });
        Self {
            schema_version: SCHEMA_VERSION,
            submitted: report.submitted,
            accepted: report.accepted,
            rejected: report.rejected,
            completed: report.completed,
            expired: report.expired,
            failed: report.failed,
            fallbacks: report.fallbacks,
            batches: report.batches,
            batched_queries: report.batched_queries,
            launches: report.launches,
            packed_launches: report.packed_launches,
            packed_segments: report.packed_segments,
            plan_cache_hits: report.plan_cache.hits,
            plan_cache_misses: report.plan_cache.misses,
            plan_cache_evictions: report.plan_cache.evictions,
            plan_cache_hit_rate: report.hit_rate(),
            static_admission_checks: report.static_admission.checks,
            static_admission_hits: report.static_admission.hits,
            static_admission_rejects: report.static_admission.rejects,
            queue_high_water: report.queue_high_water as u64,
            energy_j: report.energy_j,
            j_per_query: report.j_per_query(),
            energy_downshifts: report.energy_downshifts,
            geometry_resolves: report.geometry.resolves,
            geometry_hits: report.geometry.hits,
            profile_memo_hits: report.profile_memo.hits,
            profile_memo_misses: report.profile_memo.misses,
            gpu,
        }
    }

    /// Pretty-printed JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        crate::cli::to_json(self)
    }

    /// Parses a document produced by [`ServeMetrics::to_json`].
    ///
    /// # Errors
    /// Returns the underlying parse/shape error message.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Sweep;
    use crate::SweepData;

    fn tiny() -> SweepMetrics {
        let d = SweepData::compute(Sweep {
            k_values: vec![32],
            m_values: vec![1024],
            n: 1024,
        })
        .expect("valid launch");
        SweepMetrics::collect(&d)
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let m = tiny();
        let back = SweepMetrics::from_json(&m.to_json()).expect("parse");
        assert_eq!(back, m);
    }

    #[test]
    fn summaries_match_profiles() {
        let m = tiny();
        let pt = &m.points[0];
        assert_eq!(pt.fused.counters, pt.fused.profile.total_counters());
        assert_eq!(pt.fused.time_s, pt.fused.profile.total_time_s());
        assert_eq!(
            pt.cublas_unfused.dram_transactions,
            pt.cublas_unfused.profile.total_mem().dram_transactions()
        );
    }

    #[test]
    fn csv_covers_every_kernel() {
        let m = tiny();
        let pt = &m.points[0];
        let kernels = pt.fused.profile.kernels.len()
            + pt.cuda_unfused.profile.kernels.len()
            + pt.cublas_unfused.profile.kernels.len();
        assert_eq!(m.to_csv().lines().count(), 1 + kernels);
    }
}
