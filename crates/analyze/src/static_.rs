//! The zero-execution ("static") lint pass over declared access specs.
//!
//! Where [`crate::runner::lint_kernel`] replays a kernel's traffic and
//! inspects the recorded trace, this module proves the same properties
//! symbolically from the kernel's [`AccessSpec`] — no block is ever
//! executed or replayed:
//!
//! * **Bank conflicts** — every
//!   [`SharedPattern`](ks_gpu_sim::access::SharedPattern) is expanded
//!   one word-phase at a time through the same hardware
//!   [`conflict_degree`] model the dynamic lint uses, weighted by its
//!   per-block issue count.
//! * **DRAM sectors** — each affine [`GlobalPattern`]'s launch-total
//!   sector count is computed exactly by residue arithmetic (see
//!   [`pattern_sectors`]), reproducing what a Full-mode
//!   `TrafficSink` with no caches attached would count.
//! * **Bounds** — [`GlobalPattern::index_range`] gives the inclusive
//!   hull of every index the pattern can produce over all blocks and
//!   loop iterations; comparing the hull against the declared
//!   [`BufferUse`] extents proves (not samples) in-bounds-ness.
//!   Writes to read-only roles and undeclared buffers are flagged the
//!   same way the dynamic check flags them.
//! * **Barriers** — the declared [`ks_gpu_sim::access::BarrierSpec`]
//!   warp count must equal the block's warp count.
//! * **Occupancy / overlap** — the trace-free checks from
//!   [`crate::checks`] are reused unchanged.
//!
//! ## The honest-downgrade contract
//!
//! Specs are *claims*. A kernel with no spec, or whose spec contains
//! an [`GlobalPattern::indirect`] pattern, is **downgraded** to the
//! dynamic trace-based lint ([`LintMode::Dynamic`] records why). The
//! static pass never silently passes a kernel it cannot reason about,
//! and the differential validator (`crate::differential`) cross-checks
//! every static verdict against recorded traces and replay counters.
//!
//! ## Why dropping the buffer base is sound
//!
//! Sector prediction works in buffer-relative words and ignores the
//! allocation base. That is exact, not approximate: `GlobalMem` aligns
//! every allocation to 256 bytes, so each base is a whole number of
//! 32-byte sectors and translating a footprint by it never merges or
//! splits sectors.

use std::collections::HashMap;

use ks_gpu_sim::access::{convolve_residues, residue_histogram, AccessSpec, GlobalPattern};
use ks_gpu_sim::buffer::GlobalMem;
use ks_gpu_sim::coalesce;
use ks_gpu_sim::config::DeviceConfig;
use ks_gpu_sim::kernel::{BufferUse, Kernel};
use ks_gpu_sim::smem::conflict_degree;
use ks_gpu_sim::trace::AccessDir;

use crate::checks;
use crate::report::{Finding, FindingKind, Report};
use crate::runner;

/// Words per 32-byte DRAM/L2 sector (4-byte words).
pub const SECTOR_WORDS: usize = 8;
const SECTOR_BYTES: u32 = 32;
const NUM_BANKS: u32 = 32;

/// How a kernel was linted by the hybrid entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintMode {
    /// Affine spec: every verdict proved without executing a block.
    Static,
    /// No spec, or a non-affine one: honest downgrade to the dynamic
    /// (trace-replay) lint, with the reason recorded. Never a silent
    /// pass.
    Dynamic(String),
}

impl LintMode {
    /// True when the kernel was proved statically.
    #[must_use]
    pub fn is_static(&self) -> bool {
        matches!(self, LintMode::Static)
    }
}

impl serde::Serialize for LintMode {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Str(match self {
            LintMode::Static => "static".to_string(),
            LintMode::Dynamic(reason) => format!("dynamic: {reason}"),
        })
    }
}

/// Predicted launch-total sector traffic: what a Full-mode
/// `TrafficSink` with no L1s attached would accumulate in
/// `l2_read_sectors` / `l2_write_sectors` / `atomic_sectors` over
/// every block of the grid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct SectorPrediction {
    /// Sectors reaching L2 from global loads.
    pub read_sectors: u64,
    /// Sectors written through to L2.
    pub write_sectors: u64,
    /// Sectors touched by L2 atomic read-modify-writes.
    pub atomic_sectors: u64,
}

/// Per-pattern coalescing summary: how many sectors the pattern
/// actually touches per launch versus the perfectly coalesced floor
/// for its active-lane footprint. Summary data, **not** a finding —
/// shipped kernels are allowed to be uncoalesced (the paper's
/// `eval_sum` baseline deliberately is).
#[derive(Debug, Clone, serde::Serialize)]
pub struct PatternCoalescing {
    /// Operand label from the pattern.
    pub label: String,
    /// `"read"`, `"write"`, or `"atomic"`.
    pub dir: &'static str,
    /// Warp instructions issued per launch.
    pub issues: u64,
    /// Predicted sectors per launch.
    pub sectors: u64,
    /// Perfectly coalesced floor (active lanes × access bytes, rounded
    /// up to sectors) per launch.
    pub ideal_sectors: u64,
}

/// Everything the static pass concluded about one kernel.
#[derive(Debug, Clone, serde::Serialize)]
pub struct KernelStatic {
    /// Kernel (or probe registry) name.
    pub kernel: String,
    /// Static proof or recorded downgrade.
    pub mode: LintMode,
    /// Worst shared-memory conflict degree over all phases (static
    /// mode only; the Fig. 5 swizzle pins this to 0 for the fused
    /// kernel, 3 for the naive layout).
    pub max_conflict_degree: u32,
    /// Histogram of per-block shared access phases by conflict degree:
    /// `conflict_hist[d]` = phases/block with degree `d`.
    pub conflict_hist: Vec<u64>,
    /// Predicted launch-total sectors (static mode only).
    pub predicted: Option<SectorPrediction>,
    /// Per-pattern coalescing summaries (static mode only).
    pub coalescing: Vec<PatternCoalescing>,
}

fn dir_str(dir: AccessDir) -> &'static str {
    match dir {
        AccessDir::Read => "read",
        AccessDir::Write => "write",
        AccessDir::Atomic => "atomic",
    }
}

/// Bytes each lane moves per instruction, mirroring the traffic
/// model: atomics are word-sized regardless of declared width.
fn access_bytes(p: &GlobalPattern) -> u32 {
    match p.dir {
        AccessDir::Atomic => 4,
        _ => p.vlen.words() * 4,
    }
}

/// Exact launch-total sector count for one affine pattern, plus the
/// perfectly coalesced floor.
///
/// Sector footprints are invariant under shifts by whole sectors
/// ([`SECTOR_WORDS`] words), so the only thing that matters about the
/// block/loop offset `bx·bx_step + by·by_step + Σ i_j·step_j` is its
/// residue mod 8. The residue distribution over the whole launch is
/// the convolution of each symbol's [`residue_histogram`]; the total
/// is `Σ_r dist[r] · sectors(lanes + r)` with the eight shifted
/// footprints evaluated through the same [`coalesce::warp_sectors`]
/// model the replay uses.
#[must_use]
pub fn pattern_sectors(p: &GlobalPattern, grid_x: u64, grid_y: u64) -> (u64, u64) {
    let mut dist = residue_histogram(grid_x, p.bx_step, SECTOR_WORDS);
    dist = convolve_residues(&dist, &residue_histogram(grid_y, p.by_step, SECTOR_WORDS));
    for l in &p.loops {
        dist = convolve_residues(&dist, &residue_histogram(l.trip, l.step, SECTOR_WORDS));
    }

    // Shift lanes into non-negative territory by a whole number of
    // sectors so byte addresses stay unsigned (footprint-preserving).
    let min_lane = p.lanes.iter().flatten().copied().min().unwrap_or(0);
    let off = if min_lane < 0 {
        (-min_lane + SECTOR_WORDS as i64 - 1) / SECTOR_WORDS as i64 * SECTOR_WORDS as i64
    } else {
        0
    };
    let bytes = access_bytes(p);
    let mut total = 0u64;
    for (r, &n) in dist.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let addrs: [Option<u64>; 32] =
            std::array::from_fn(|l| p.lanes[l].map(|i| ((i + off + r as i64) * 4) as u64));
        let mut buf = [0u64; coalesce::MAX_SECTORS_PER_WARP * 2];
        let sectors = coalesce::warp_sectors(&addrs, bytes, SECTOR_BYTES, &mut buf).len() as u64;
        total += n * sectors;
    }

    let active = p.lanes.iter().flatten().count() as u64;
    let per_issue_floor = (active * u64::from(bytes))
        .div_ceil(u64::from(SECTOR_BYTES))
        .max(1);
    (total, per_issue_floor * p.issues_per_launch(grid_x, grid_y))
}

/// Runs every static check against `kernel`'s declared affine `spec`
/// without executing or replaying a single block. Callers are
/// responsible for the affinity gate — use [`lint_kernel_hybrid`] for
/// the spec-or-fallback entry.
#[must_use]
pub fn analyze_spec(
    dev: &DeviceConfig,
    kernel: &dyn Kernel,
    spec: &AccessSpec,
) -> (Report, KernelStatic) {
    let name = kernel.name();
    let budget = kernel.analysis_budget();
    let lc = kernel.launch_config();
    let (gx, gy) = (u64::from(lc.grid.x), u64::from(lc.grid.y));
    let mut findings = Vec::new();
    findings.extend(checks::buffer_overlap(&name, &budget));
    findings.extend(checks::occupancy_budget(dev, kernel));

    // Shared-memory bank conflicts, one word-phase at a time through
    // the same hardware model the dynamic lint replays traces into.
    let mut conflict_hist = vec![0u64; NUM_BANKS as usize + 1];
    let mut max_degree = 0u32;
    let mut violations = 0u64;
    let mut worst_over = 0u32;
    for s in &spec.shared {
        for j in 0..s.vlen.words() {
            let phase: [Option<u32>; 32] = std::array::from_fn(|l| s.lanes[l].map(|w| w + j));
            let degree = conflict_degree(&phase, NUM_BANKS);
            conflict_hist[degree as usize] += s.issues;
            max_degree = max_degree.max(degree);
            if degree > budget.smem_conflict_budget {
                violations += s.issues;
                worst_over = worst_over.max(degree);
            }
        }
    }
    if violations > 0 {
        findings.push(Finding {
            kernel: name.clone(),
            kind: FindingKind::BankConflict,
            block: None,
            count: 1,
            detail: format!(
                "proved {violations} access phase(s)/block over the declared budget of {}; worst \
                 is {worst_over}-way extra conflict",
                budget.smem_conflict_budget
            ),
        });
    }

    // Bounds proofs over the index hull. Mirrors the dynamic
    // convention: no declared buffers = bounds checking skipped.
    if !budget.buffers.is_empty() {
        let decls: HashMap<_, &BufferUse> = budget.buffers.iter().map(|b| (b.buf, b)).collect();
        for g in &spec.global {
            let Some(decl) = decls.get(&g.buf) else {
                findings.push(Finding {
                    kernel: name.clone(),
                    kind: FindingKind::OutOfBounds,
                    block: None,
                    count: 1,
                    detail: format!(
                        "pattern '{}' touches undeclared buffer {:?}",
                        g.label, g.buf
                    ),
                });
                continue;
            };
            if g.dir.is_write() && !decl.writes {
                findings.push(Finding {
                    kernel: name.clone(),
                    kind: FindingKind::OutOfBounds,
                    block: None,
                    count: 1,
                    detail: format!(
                        "pattern '{}' writes read-only buffer '{}'",
                        g.label, decl.label
                    ),
                });
            }
            if let Some((lo, hi)) = g.index_range(gx, gy) {
                let last = hi + i64::from(g.vlen.words());
                if lo < 0 || last > decl.len as i64 {
                    findings.push(Finding {
                        kernel: name.clone(),
                        kind: FindingKind::OutOfBounds,
                        block: None,
                        count: 1,
                        detail: format!(
                            "pattern '{}' index hull [{lo}, {last}) escapes '{}' extent {}",
                            g.label, decl.label, decl.len
                        ),
                    });
                }
            }
        }
    }

    // Barrier shape: every declared barrier must involve the whole
    // block (partial barriers deadlock real hardware).
    if let Some(b) = spec.barriers {
        let warps = lc.warps_per_block();
        if b.warps != warps {
            findings.push(Finding {
                kernel: name.clone(),
                kind: FindingKind::BarrierDivergence,
                block: None,
                count: 1,
                detail: format!(
                    "spec declares {} warp(s) per barrier, block has {warps}",
                    b.warps
                ),
            });
        }
    }

    // Launch-total sector prediction + coalescing summaries.
    let mut predicted = SectorPrediction::default();
    let mut coalescing = Vec::with_capacity(spec.global.len());
    for g in &spec.global {
        let (sectors, ideal) = pattern_sectors(g, gx, gy);
        match g.dir {
            AccessDir::Read => predicted.read_sectors += sectors,
            AccessDir::Write => predicted.write_sectors += sectors,
            AccessDir::Atomic => predicted.atomic_sectors += sectors,
        }
        coalescing.push(PatternCoalescing {
            label: g.label.to_string(),
            dir: dir_str(g.dir),
            issues: g.issues_per_launch(gx, gy),
            sectors,
            ideal_sectors: ideal,
        });
    }

    (
        Report {
            findings,
            checked: vec![name.clone()],
        },
        KernelStatic {
            kernel: name,
            mode: LintMode::Static,
            max_conflict_degree: max_degree,
            conflict_hist,
            predicted: Some(predicted),
            coalescing,
        },
    )
}

fn downgrade(
    dev: &DeviceConfig,
    kernel: &dyn Kernel,
    mem: &GlobalMem,
    reason: &str,
) -> (Report, KernelStatic) {
    let report = runner::lint_kernel(dev, kernel, mem);
    (
        report,
        KernelStatic {
            kernel: kernel.name(),
            mode: LintMode::Dynamic(reason.to_string()),
            max_conflict_degree: 0,
            conflict_hist: Vec::new(),
            predicted: None,
            coalescing: Vec::new(),
        },
    )
}

/// Static-or-fallback lint for one kernel: proves everything from the
/// declared spec when it exists and is affine, otherwise downgrades
/// honestly to the dynamic trace-based lint (see the module docs).
#[must_use]
pub fn lint_kernel_hybrid(
    dev: &DeviceConfig,
    kernel: &dyn Kernel,
    mem: &GlobalMem,
) -> (Report, KernelStatic) {
    match kernel.access_spec() {
        Some(spec) if spec.is_affine() => analyze_spec(dev, kernel, &spec),
        Some(_) => downgrade(dev, kernel, mem, "non-affine (indirect) access pattern"),
        None => downgrade(dev, kernel, mem, "no access spec declared"),
    }
}

/// The result of statically linting a whole registry.
#[derive(Debug, Clone, serde::Serialize)]
pub struct StaticOutcome {
    /// Merged findings (deduplicated).
    pub report: Report,
    /// Per-kernel static summaries, in registry order.
    pub kernels: Vec<KernelStatic>,
}

impl StaticOutcome {
    /// Names of kernels that were downgraded to the dynamic lint.
    #[must_use]
    pub fn downgraded(&self) -> Vec<&str> {
        self.kernels
            .iter()
            .filter(|k| !k.mode.is_static())
            .map(|k| k.kernel.as_str())
            .collect()
    }

    /// Machine-readable export (pretty-printed JSON): the merged
    /// report plus every per-kernel static summary.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("static outcome serialises")
    }

    /// Renders the per-kernel summary as an aligned text table.
    #[must_use]
    pub fn summary_table(&self) -> String {
        let rows: Vec<[String; 5]> = self
            .kernels
            .iter()
            .map(|k| {
                let (mode, conflict, sectors) = match (&k.mode, k.predicted) {
                    (LintMode::Static, Some(p)) => (
                        "static".to_string(),
                        k.max_conflict_degree.to_string(),
                        format!(
                            "{}r+{}w+{}a",
                            p.read_sectors, p.write_sectors, p.atomic_sectors
                        ),
                    ),
                    _ => {
                        let reason = match &k.mode {
                            LintMode::Dynamic(r) => r.clone(),
                            LintMode::Static => String::new(),
                        };
                        (format!("dynamic ({reason})"), "-".into(), "-".into())
                    }
                };
                let issues: u64 = k.coalescing.iter().map(|c| c.issues).sum();
                [
                    k.kernel.clone(),
                    mode,
                    conflict,
                    sectors,
                    issues.to_string(),
                ]
            })
            .collect();
        let header = [
            "KERNEL",
            "MODE",
            "CONFLICT",
            "SECTORS(LAUNCH)",
            "GLOBAL ISSUES",
        ];
        let width = |c: usize| {
            rows.iter()
                .map(|r| r[c].len())
                .chain(std::iter::once(header[c].len()))
                .max()
                .unwrap_or(0)
        };
        let w: Vec<usize> = (0..5).map(width).collect();
        let mut out = String::new();
        let fmt_row = |r: [&str; 5]| {
            format!(
                "{:<w0$}  {:<w1$}  {:>w2$}  {:>w3$}  {:>w4$}\n",
                r[0],
                r[1],
                r[2],
                r[3],
                r[4],
                w0 = w[0],
                w1 = w[1],
                w2 = w[2],
                w3 = w[3],
                w4 = w[4]
            )
        };
        out.push_str(&fmt_row([
            header[0], header[1], header[2], header[3], header[4],
        ]));
        for r in &rows {
            out.push_str(&fmt_row([&r[0], &r[1], &r[2], &r[3], &r[4]]));
        }
        out
    }
}

/// Statically lints every shipped probe (the `ksum lint --static`
/// entry): spec-proved where possible, trace-downgraded where not,
/// with one merged, deduplicated report.
#[must_use]
pub fn lint_report_static(dev: &DeviceConfig) -> StaticOutcome {
    let mut report = Report::default();
    let mut kernels = Vec::new();
    for probe in runner::shipped_probes() {
        let (mut r, mut s) = lint_kernel_hybrid(dev, probe.kernel.as_ref(), &probe.mem);
        r.checked = vec![probe.name.to_string()];
        for f in &mut r.findings {
            f.kernel = probe.name.to_string();
        }
        s.kernel = probe.name.to_string();
        report.merge(r);
        kernels.push(s);
    }
    report.dedup();
    StaticOutcome { report, kernels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_gpu_sim::access::affine_lanes;
    use ks_gpu_sim::kernel::VecWidth;

    fn probe_pattern(lanes: [Option<i64>; 32], vlen: VecWidth) -> GlobalPattern {
        let mut mem = GlobalMem::new();
        let buf = mem.alloc_virtual(1 << 20);
        GlobalPattern::new(buf, "t", AccessDir::Read, vlen, lanes)
    }

    #[test]
    fn coalesced_v4_pattern_is_four_sectors_per_issue() {
        // 32 lanes × float4 = 512 contiguous bytes = 16 sectors.
        let p = probe_pattern(affine_lanes(|l| 4 * l as i64), VecWidth::V4).with_bx(128);
        let (sectors, ideal) = pattern_sectors(&p, 5, 1);
        assert_eq!(sectors, 5 * 16);
        assert_eq!(ideal, 5 * 16);
    }

    #[test]
    fn odd_shift_splits_sectors() {
        // A unit-stride scalar warp normally touches 4 sectors; shifted
        // by a non-sector-multiple it straddles 5.
        let p = probe_pattern(affine_lanes(|l| l as i64), VecWidth::V1).with_bx(3);
        let (sectors, _) = pattern_sectors(&p, 2, 1);
        assert_eq!(sectors, 4 + 5);
    }

    #[test]
    fn broadcast_pattern_hits_one_sector() {
        let p = probe_pattern(affine_lanes(|_| 0), VecWidth::V1).with_loop(7, 8);
        let (sectors, ideal) = pattern_sectors(&p, 1, 1);
        assert_eq!(sectors, 7);
        // The floor is defined on active lanes (32 × 4 B = 4 sectors
        // per issue), so overlapping broadcasts beat it.
        assert_eq!(ideal, 7 * 4);
    }

    #[test]
    fn negative_loop_steps_stay_exact() {
        let p = probe_pattern(affine_lanes(|l| l as i64), VecWidth::V1).with_loop(3, -8);
        let (sectors, _) = pattern_sectors(&p, 1, 1);
        assert_eq!(sectors, 3 * 4);
    }
}
