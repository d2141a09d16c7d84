//! `paper_profile`: the simulator users' workload. Each cycle profiles
//! one paper point per K on fresh GTX970s with virtual buffers —
//! fused, CUDA-unfused and cuBLAS-unfused — through `PointData::compute`.

use std::time::Instant;

use ks_bench::data::PointData;
use ks_gpu_kernels::GpuKernelSummation;
use ks_gpu_sim::{GpuDevice, PipelineProfile};

use crate::stats::{median, percentile, SplitMix};
use crate::trace::{reissue_paper, Spans};
use crate::{
    layer, metric, peak_rss_mb, per_layer, process_cpu_s, write_trace, Kind, Metric, Outcome,
};

/// Target count of every point (the paper's N).
pub const N: usize = 1024;
/// The dimensions profiled, from fused winning (K = 32) to fused
/// losing (K = 256).
pub const KS: [usize; 4] = [32, 64, 128, 256];
/// Smallest corpus profiled; the seed adds 0–3 block rows of 128.
pub const M_BASE: usize = 8192;

/// The seed's points: for each K, M = 8192 + 128·j with j drawn from
/// 0..4, visited in a seeded order.
pub fn points(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = SplitMix::new(seed ^ 0x9A9E_5EED);
    let mut pts: Vec<(usize, usize)> = KS
        .iter()
        .map(|&k| (k, M_BASE + 128 * (rng.next_u64() % 4) as usize))
        .collect();
    for i in (1..pts.len()).rev() {
        pts.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    pts
}

/// Exact simulated content of a pipeline profile: every kernel's
/// counters, traffic and timing, bit for bit.
fn fingerprint(p: &PipelineProfile) -> Vec<u64> {
    p.kernels
        .iter()
        .flat_map(|k| {
            [
                k.counters.warp_insts(),
                k.counters.flops,
                k.counters.smem.load_transactions,
                k.mem.dram_transactions(),
                k.mem.l2_transactions(),
                k.timing.time_s.to_bits(),
            ]
        })
        .collect()
}

struct Cycle {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    latencies_ms: Vec<f64>,
    points: Vec<PointData>,
}

/// Device set-up for every profile of a cycle: the pipeline factory and
/// one fresh GTX970 per variant, as `PointData::compute` builds them.
fn setup(pts: &[(usize, usize)]) -> f64 {
    let t0 = Instant::now();
    for &(k, m) in pts {
        std::hint::black_box(GpuKernelSummation::new(m, N, k, 1.0));
        for _ in 0..3 {
            std::hint::black_box(GpuDevice::gtx970());
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Set-up passes timed per cycle; a pass takes about a millisecond, so
/// the cycle reports their median.
const SETUP_PASSES: usize = 5;

/// A cycle's set-up, then the profiles themselves.
fn cycle(pts: &[(usize, usize)]) -> Cycle {
    let setup_s = median(&(0..SETUP_PASSES).map(|_| setup(pts)).collect::<Vec<_>>());
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let mut latencies_ms = Vec::with_capacity(pts.len());
    let points = pts
        .iter()
        .map(|&(k, m)| {
            let t = Instant::now();
            let p = PointData::compute(k, m, N).expect("paper points launch cleanly");
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            p
        })
        .collect();
    Cycle {
        setup_s,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        latencies_ms,
        points,
    }
}

/// Checks one profiled point: the pipelines have their kernels, every
/// time is finite and positive, and fusion moves less DRAM traffic than
/// the cuBLAS-unfused pipeline (Fig. 8).
fn point_errors(p: &PointData) -> Vec<String> {
    let mut bad = Vec::new();
    let shape = (
        p.fused.kernels.len(),
        p.cuda_unfused.kernels.len(),
        p.cublas_unfused.kernels.len(),
    );
    if shape != (3, 4, 4) {
        bad.push(format!("K={} M={}: kernel counts {shape:?}", p.k, p.m));
    }
    for prof in [&p.fused, &p.cuda_unfused, &p.cublas_unfused] {
        let t = prof.total_time_s();
        if !(t.is_finite() && t > 0.0) {
            bad.push(format!("K={} M={}: {} time {t}", p.k, p.m, prof.name));
        }
    }
    if p.fused.total_mem().dram_transactions() >= p.cublas_unfused.total_mem().dram_transactions() {
        bad.push(format!(
            "K={} M={}: fused DRAM traffic not below unfused",
            p.k, p.m
        ));
    }
    bad
}

fn all_insts(p: &PointData) -> u64 {
    [&p.fused, &p.cuda_unfused, &p.cublas_unfused]
        .iter()
        .map(|prof| prof.total_counters().warp_insts())
        .sum()
}

/// Profiles cycles until about `window` seconds are measured; checks
/// each point and that every cycle repeats the first bit for bit.
fn cycles_for(pts: &[(usize, usize)], window: f64, errors: &mut Vec<String>) -> Vec<Cycle> {
    let mut out: Vec<Cycle> = Vec::new();
    let mut measured = 0.0;
    while out.is_empty() || measured + measured / out.len() as f64 / 2.0 < window {
        let c = cycle(pts);
        measured += c.setup_s + c.wall_s;
        for (i, p) in c.points.iter().enumerate() {
            errors.extend(point_errors(p));
            if let Some(first) = out.first() {
                let f = &first.points[i];
                if [&f.fused, &f.cuda_unfused, &f.cublas_unfused]
                    .iter()
                    .zip([&p.fused, &p.cuda_unfused, &p.cublas_unfused])
                    .any(|(a, b)| fingerprint(a) != fingerprint(b))
                {
                    errors.push(format!(
                        "K={} M={}: simulated counts drifted between cycles",
                        p.k, p.m
                    ));
                }
            }
        }
        out.push(c);
    }
    out
}

/// Median over cycles of `f(cycle)`.
fn per_cycle(cycles: &[Cycle], f: &dyn Fn(&Cycle) -> f64) -> f64 {
    median(&cycles.iter().map(f).collect::<Vec<_>>())
}

fn cycle_insts(c: &Cycle) -> f64 {
    c.points.iter().map(all_insts).sum::<u64>() as f64
}

/// The wall-clock view: points per second, host time per point, and
/// simulated instructions per wall second. Reported, not gated.
fn wall(cycles: &[Cycle]) -> Vec<Metric> {
    let lat: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.latencies_ms.iter().copied())
        .collect();
    let p99 = percentile(&lat, 99.0);
    eprintln!(
        "latency: {} samples over {} cycles; highest supported percentile p{:.2}",
        p99.samples,
        cycles.len(),
        p99.supported
    );
    vec![
        metric(
            "throughput_qps",
            per_cycle(cycles, &|c| c.points.len() as f64 / c.wall_s),
            "queries/s",
        ),
        metric("latency_p50_ms", percentile(&lat, 50.0).value, "ms"),
        metric("latency_p99_ms", p99.value, "ms"),
        metric(
            "sim_minst_per_s",
            per_cycle(cycles, &|c| cycle_insts(c) / c.wall_s / 1e6),
            "Minst/s",
        ),
    ]
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let pts = points(seed);
    let mut errors = Vec::new();
    let window = if traced { seconds / 2.0 } else { seconds };
    let cycles = cycles_for(&pts, window, &mut errors);
    let attempted = (cycles.len() * pts.len()) as u64;
    let failed = if errors.is_empty() { 0 } else { attempted };
    let first = &cycles[0].points;
    let n = first.len() as f64;
    let wall = wall(&cycles);
    let (metrics, info) = if traced {
        (traced_metrics(seed, &pts, &cycles, &wall), Vec::new())
    } else {
        let metrics = vec![
            metric(
                "host_ms_per_query",
                per_cycle(&cycles, &|c| c.cpu_s * 1e3 / c.points.len() as f64),
                "ms",
            ),
            metric(
                "sim_minst_per_cpu_s",
                per_cycle(&cycles, &|c| cycle_insts(c) / c.cpu_s / 1e6),
                "Minst/s",
            ),
            metric(
                "ok_ratio",
                (attempted - failed) as f64 / attempted as f64,
                "fraction",
            ),
            // Every profile runs on the simulated GPU; nothing degrades.
            metric("top_rung_ratio", 1.0, "fraction"),
            metric(
                "sim_us_per_query",
                first.iter().map(|p| p.fused.total_time_s()).sum::<f64>() * 1e6 / n,
                "us",
            ),
            metric(
                "uj_per_query",
                first.iter().map(|p| p.fused_energy.total_j()).sum::<f64>() * 1e6 / n,
                "uJ",
            ),
            metric("setup_s", per_cycle(&cycles, &|c| c.setup_s), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        (metrics, wall)
    };
    Outcome {
        attempted,
        failed,
        errors,
        metrics,
        info,
    }
}

/// The traced half: re-profiles the same points kernel by kernel with a
/// span around each launch, checks the rebuilt launches reproduce the
/// untraced profiles exactly, and reports the simulator's layers.
fn traced_metrics(
    seed: u64,
    pts: &[(usize, usize)],
    plain: &[Cycle],
    wall: &[Metric],
) -> Vec<Metric> {
    let window: f64 = plain.iter().map(|c| c.setup_s + c.wall_s).sum();
    let mut spans = Spans::new();
    let mut traced_points = 0usize;
    // Rebuilt launches that do not reproduce the untraced profile: the
    // rebuild no longer mirrors the pipeline, so its spans are suspect.
    let mut unmatched = 0usize;
    let start = Instant::now();
    while traced_points == 0 || start.elapsed().as_secs_f64() < window {
        for (i, &(k, m)) in pts.iter().enumerate() {
            let rebuilt = reissue_paper(m, N, k, &mut spans);
            let want = &plain[0].points[i];
            for (got, want) in
                rebuilt
                    .iter()
                    .zip([&want.fused, &want.cuda_unfused, &want.cublas_unfused])
            {
                unmatched += want.kernels.len().abs_diff(got.len());
                unmatched += got
                    .iter()
                    .zip(&want.kernels)
                    .filter(|(g, w)| {
                        g.counters != w.counters
                            || g.mem.dram_transactions() != w.mem.dram_transactions()
                    })
                    .count();
            }
        }
        traced_points += pts.len();
    }
    let traced_wall = start.elapsed().as_secs_f64();
    write_trace(&spans, Kind::Paper, seed);
    let plain_points: usize = plain.iter().map(|c| c.points.len()).sum();
    let plain_wall: f64 = plain.iter().map(|c| c.wall_s).sum();
    let overhead = (traced_wall / traced_points as f64) / (plain_wall / plain_points as f64) - 1.0;
    let per_point = |name: &str| spans.total_ms(name) / traced_points as f64;
    let first = &plain[0].points;
    let profiles: Vec<&PipelineProfile> = first
        .iter()
        .flat_map(|p| [&p.fused, &p.cuda_unfused, &p.cublas_unfused])
        .collect();
    let blocks: u64 = profiles
        .iter()
        .flat_map(|p| &p.kernels)
        .map(|k| k.launch.grid.count())
        .sum();
    let mut mem = ks_gpu_sim::profiler::MemTraffic::default();
    for p in &profiles {
        mem.merge(&p.total_mem());
    }
    let launches: usize = profiles.iter().map(|p| p.kernels.len()).sum();
    let replay_ms = spans.total_ms("sim.replay");
    let replayed_blocks = blocks as f64 * (traced_points / pts.len()) as f64;
    let fused_energy = first
        .iter()
        .fold(ks_energy::EnergyBreakdown::default(), |mut e, p| {
            e.merge(&p.fused_energy);
            e
        });
    let n = first.len() as f64;
    let mut measured = vec![
        layer("kernels.pipeline_ms", per_point("kernels.pipeline")),
        layer("kernels.launches", launches as f64),
        layer("sim.replay_ms", replay_ms / traced_points as f64),
        layer("sim.replay_us_per_block", replay_ms * 1e3 / replayed_blocks),
        layer("sim.blocks", blocks as f64),
        layer(
            "sim.warp_insts",
            profiles
                .iter()
                .map(|p| p.total_counters().warp_insts())
                .sum::<u64>() as f64,
        ),
        layer(
            "sim.l2_hit_rate",
            (mem.l2_read_hits + mem.l2_write_hits) as f64 / (mem.l2_reads + mem.l2_writes) as f64,
        ),
        layer("sim.dram_tx_per_query", mem.dram_transactions() as f64 / n),
        layer("sim.device_new_ms", per_point("sim.device_new")),
        layer("energy.dram_share", fused_energy.dram_share()),
        layer("harness.trace_overhead", overhead),
        layer("harness.unattributed_kernels", unmatched as f64),
    ];
    for &k in &KS {
        let p = first.iter().find(|p| p.k == k).expect("one point per K");
        measured.extend([
            layer(
                format!("paper.k{k}.speedup_vs_cublas"),
                p.speedup_vs_cublas(),
            ),
            layer(
                format!("paper.k{k}.dram_ratio"),
                p.fused.total_mem().dram_transactions() as f64
                    / p.cublas_unfused.total_mem().dram_transactions() as f64,
            ),
            layer(
                format!("paper.k{k}.energy_saving"),
                p.fused_energy.saving_vs(&p.cublas_energy),
            ),
        ]);
    }
    measured.extend(
        wall.iter()
            .map(|m| layer(format!("wall.{}", m.name), m.value)),
    );
    print_fidelity(first);
    per_layer(&measured)
}

/// The paper's figures beside the measured ones (EXPERIMENTS.md):
/// Fig. 6 speedup over cuBLAS-unfused, Fig. 8b DRAM ratio and
/// Table III energy saving (M = 131072 column).
fn print_fidelity(points: &[PointData]) {
    const PAPER: [(usize, &str, &str, f64); 4] = [
        (32, "up to 1.8", "< 0.10", 0.325),
        (64, "> 1", "< 0.10", 0.236),
        (128, "~1", "< 0.10", 0.148),
        (256, "< 1", "< 0.10", 0.085),
    ];
    eprintln!("paper fidelity (measured | paper):");
    for (k, speedup, dram, saving) in PAPER {
        if let Some(p) = points.iter().find(|p| p.k == k) {
            eprintln!(
                "  K={k:<3} M={:<5} speedup {:.2} | {speedup}   dram ratio {:.3} | {dram}   energy saving {:.3} | {saving}",
                p.m,
                p.speedup_vs_cublas(),
                p.fused.total_mem().dram_transactions() as f64
                    / p.cublas_unfused.total_mem().dram_transactions() as f64,
                p.fused_energy.saving_vs(&p.cublas_energy),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_are_a_pure_function_of_the_seed() {
        assert_eq!(points(3), points(3));
        let pts = points(3);
        let mut ks: Vec<usize> = pts.iter().map(|p| p.0).collect();
        ks.sort_unstable();
        assert_eq!(ks, KS);
        assert!(pts
            .iter()
            .all(|&(_, m)| (M_BASE..M_BASE + 512).contains(&m) && m % 128 == 0));
        assert!(
            (0..32).any(|s| points(s) != pts),
            "the seed moves the points"
        );
    }
}
