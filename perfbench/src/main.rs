//! The kernel-summation benchmark: one command per workload, printing
//! every metric by name with its unit and, as its last line, one JSON
//! object with the run's verdict and metrics.
//!
//! ```text
//! ks-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the workload untraced for half the time, traced
//! for the other half, re-issues the traced work layer by layer and
//! reports the per-layer metrics. See `perfbench/README.md` and
//! `BENCHMARK.json` for the workloads and metric definitions.

mod check;
mod paper;
mod serving;
mod stats;
mod trace;

use std::process::ExitCode;

use ks_serve::ServeReport;

use crate::check::{check_round, cpu_units, fingerprint, oracle, work_units};
use crate::serving::Round;
use crate::stats::{median, percentile, SplitMix};
use crate::trace::Spans;

const USAGE: &str =
    "usage: ks-perfbench --workload coalesce_backlog|small_open|pool_chaos|paper_profile \
     --seed N --seconds S --trace 0|1";

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them; a layer its workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 58] = [
    ("server.batches", "count"),
    ("server.batch_width", "queries"),
    ("server.launches_per_query", "launches"),
    ("server.retries", "count"),
    ("server.queue_high_water", "count"),
    ("server.self_ms", "ms"),
    ("cache.hit_rate", "fraction"),
    ("cache.evictions", "count"),
    ("plan.build_ms", "ms"),
    ("admission.checks", "count"),
    ("admission.rejects", "count"),
    ("admission.check_ms", "ms"),
    ("packed.launches", "count"),
    ("packed.segments_per_launch", "segments"),
    ("packed.wave_fill", "fraction"),
    ("pool.shard_tasks", "count"),
    ("pool.stolen_tasks", "count"),
    ("pool.transfer_mb", "MB"),
    ("pool.evictions", "count"),
    ("pool.readmissions", "count"),
    ("pool.link_retransmits", "count"),
    ("pool.link_timeouts", "count"),
    ("abft.corruption_detected", "count"),
    ("abft.useful_attempt_ratio", "fraction"),
    ("kernels.pipeline_ms", "ms"),
    ("kernels.launches", "count"),
    ("sim.functional_ms", "ms"),
    ("sim.functional_us_per_block", "us"),
    ("sim.replay_ms", "ms"),
    ("sim.replay_us_per_block", "us"),
    ("sim.blocks", "count"),
    ("sim.warp_insts", "count"),
    ("sim.l2_hit_rate", "fraction"),
    ("sim.dram_tx_per_query", "count"),
    ("sim.device_new_ms", "ms"),
    ("energy.dram_share", "fraction"),
    ("cpu.batches", "count"),
    ("cpu.solve_ms", "ms"),
    ("cpu.host_share", "fraction"),
    ("harness.gen_late_p99_ms", "ms"),
    ("harness.trace_overhead", "fraction"),
    ("harness.unattributed_kernels", "count"),
    ("paper.k32.speedup_vs_cublas", "x"),
    ("paper.k32.dram_ratio", "fraction"),
    ("paper.k32.energy_saving", "fraction"),
    ("paper.k64.speedup_vs_cublas", "x"),
    ("paper.k64.dram_ratio", "fraction"),
    ("paper.k64.energy_saving", "fraction"),
    ("paper.k128.speedup_vs_cublas", "x"),
    ("paper.k128.dram_ratio", "fraction"),
    ("paper.k128.energy_saving", "fraction"),
    ("paper.k256.speedup_vs_cublas", "x"),
    ("paper.k256.dram_ratio", "fraction"),
    ("paper.k256.energy_saving", "fraction"),
    ("wall.throughput_qps", "queries/s"),
    ("wall.latency_p50_ms", "ms"),
    ("wall.latency_p99_ms", "ms"),
    ("wall.sim_minst_per_s", "Minst/s"),
];

/// A measured per-layer value.
fn layer(name: impl Into<String>, value: f64) -> (String, f64) {
    (name.into(), value)
}

/// The full per-layer report from the values a workload measured.
fn per_layer(measured: &[(String, f64)]) -> Vec<Metric> {
    for (name, _) in measured {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |&(_, v)| v);
            metric(name, value, unit)
        })
        .collect()
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    /// Printed beside the metrics but not part of the JSON verdict.
    info: Vec<Metric>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// CPU time this process has used so far, all threads, in seconds
/// (`utime + stime` of `/proc/self/stat`, in 1/100 s ticks). Time the
/// hypervisor steals from the virtual CPUs is not charged to it, which
/// is what makes host figures on this clock repeatable on a shared VM.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // A latency percentile reached by a failed query (+∞).
        "1e300".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kind = match args.workload.as_str() {
        "coalesce_backlog" => Kind::Backlog,
        "small_open" => Kind::Open,
        "pool_chaos" => Kind::Pool,
        "paper_profile" => Kind::Paper,
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match kind {
        Kind::Paper => paper::run(args.seed, args.seconds, args.trace),
        _ => run_serving(kind, args.seed, args.seconds, args.trace),
    };
    for m in &out.metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for m in &out.info {
        println!(
            "{:<34} {:>18.6} {}  (wall clock, not gated)",
            m.name, m.value, m.unit
        );
    }
    for e in &out.errors {
        eprintln!("error: {e}");
    }
    let correct = out.errors.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Backlog,
    Open,
    Pool,
    Paper,
}

/// Served rounds plus the outcome of checking them.
struct Served {
    rounds: Vec<Round>,
    /// Per round, per query: completed with a correct result.
    ok: Vec<Vec<bool>>,
    errors: Vec<String>,
}

impl Served {
    fn correct(&self) -> u64 {
        self.ok.iter().flatten().filter(|&&c| c).count() as u64
    }

    /// Median over rounds of `f(round, correct completions)`.
    fn per_round(&self, f: &dyn Fn(&Round, u64) -> f64) -> f64 {
        let values: Vec<f64> = self
            .rounds
            .iter()
            .zip(&self.ok)
            .map(|(r, ok)| f(r, ok.iter().filter(|&&c| c).count() as u64))
            .collect();
        median(&values)
    }
}

/// Distinct backlog streams a run cycles through. The simulated
/// metrics average one round of each, so they are exact for a seed
/// and vary less between seeds than one stream's would.
const STREAMS: usize = 3;

/// Generator seed of backlog stream `j` of a run seeded `seed`.
fn stream_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(STREAMS as u64).wrapping_add(j as u64)
}

/// The oracle of every distinct stream a run of `kind` serves.
fn oracles(kind: Kind, seed: u64) -> Vec<Vec<Vec<f32>>> {
    match kind {
        Kind::Open => vec![oracle(&ks_serve::generate_small_queries(
            &serving::open_workload(seed),
        ))],
        _ => (0..STREAMS)
            .map(|j| oracle(&serving::backlog_stream(stream_seed(seed, j))))
            .collect(),
    }
}

/// Serves rounds until about `window` seconds of set-up and serving
/// have been measured — a backlog run serves each of its streams at
/// least once — checking each round against its oracle after it ends.
fn serve_for(
    kind: Kind,
    seed: u64,
    window: f64,
    want: &[Vec<Vec<f32>>],
    mut spans: Option<&mut Spans>,
) -> Served {
    let open = serving::open_workload(seed);
    let cfg = match kind {
        Kind::Backlog => serving::backlog_config(),
        Kind::Pool => serving::pool_config(),
        _ => serving::open_config(),
    };
    let mut schedule = SplitMix::new(serving::ARRIVAL_SEED);
    let mut out = Served {
        rounds: Vec::new(),
        ok: Vec::new(),
        errors: Vec::new(),
    };
    let min_rounds = want.len();
    let mut measured = 0.0;
    while out.rounds.len() < min_rounds
        || measured + measured / out.rounds.len() as f64 / 2.0 < window
    {
        let n = out.rounds.len();
        let j = n % want.len();
        let mut round = match kind {
            Kind::Open => {
                serving::open_round(&cfg, &open, schedule.next_u64(), spans.as_deref_mut())
            }
            _ => serving::backlog_round(&cfg, stream_seed(seed, j), spans.as_deref_mut()),
        };
        measured += round.setup_s + round.wall_s;
        let mut errors = Vec::new();
        let ok = check_round(&round.results, &want[j], &round.report, &mut errors);
        // Only the last round's inputs are kept (the traced run
        // re-issues its work); results are dropped once checked.
        round.results = Vec::new();
        if let Some(prev) = out.rounds.last_mut() {
            prev.stream = Vec::new();
        }
        if kind != Kind::Open && n >= want.len() {
            let first = &out.rounds[j].report;
            if fingerprint(first) != fingerprint(&round.report) {
                errors.push(format!(
                    "simulated counts drifted from round {j}, which served the same stream"
                ));
            }
        }
        eprintln!(
            "round {n}: {} queries, wall {:.3} s, setup {:.4} s, p50 {:.2} ms, p99 {:.2} ms",
            round.latencies_ms.len(),
            round.wall_s,
            round.setup_s,
            percentile(&round.latencies_ms, 50.0).value,
            percentile(&round.latencies_ms, 99.0).value
        );
        out.errors
            .extend(errors.into_iter().map(|e| format!("round {n}: {e}")));
        out.ok.push(ok);
        out.rounds.push(round);
    }
    out
}

/// Latencies with every query that produced no correct result at +∞.
fn latencies(s: &Served) -> Vec<f64> {
    s.rounds
        .iter()
        .zip(&s.ok)
        .flat_map(|(r, ok)| {
            r.latencies_ms
                .iter()
                .zip(ok)
                .map(|(&l, &ok)| if ok { l } else { f64::INFINITY })
        })
        .collect()
}

/// Simulated serving time of a round, seconds: the pool's own clock
/// when pooled, else the sum of the batch pipelines.
fn sim_time_s(r: &ServeReport) -> f64 {
    match &r.pool {
        Some(p) => p.sim_time_s,
        None => r.profiles.iter().map(|p| p.total_time_s()).sum(),
    }
}

fn warp_insts(r: &ServeReport) -> u64 {
    r.profiles
        .iter()
        .map(|p| p.total_counters().warp_insts())
        .sum()
}

fn run_serving(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let window = if traced { seconds / 2.0 } else { seconds };
    let want = oracles(kind, seed);
    let plain = serve_for(kind, seed, window, &want, None);
    let attempted: u64 = plain
        .rounds
        .iter()
        .map(|r| r.latencies_ms.len() as u64)
        .sum();
    let correct = plain.correct();
    let wall = serving_wall(&plain);
    if !traced {
        return Outcome {
            attempted,
            failed: attempted - correct,
            metrics: serving_end_to_end(kind, &plain, attempted, correct),
            info: wall,
            errors: plain.errors,
        };
    }
    let mut spans = Spans::new();
    let traced_run = serve_for(kind, seed, window, &want, Some(&mut spans));
    let mut errors = plain.errors.clone();
    errors.extend(traced_run.errors.iter().map(|e| format!("traced {e}")));
    if kind != Kind::Open {
        for (j, (a, b)) in plain
            .rounds
            .iter()
            .zip(&traced_run.rounds)
            .take(STREAMS)
            .enumerate()
        {
            if fingerprint(&a.report) != fingerprint(&b.report) {
                errors.push(format!(
                    "traced round {j}: simulated counts differ from the untraced run"
                ));
            }
        }
    }
    let last = traced_run.rounds.last().expect("at least one traced round");
    let open = serving::open_workload(seed);
    let segment = (open.m.next_multiple_of(128), open.n.next_multiple_of(128));
    let re = trace::reissue_serving(
        &last.stream,
        &last.report,
        &serving::serve_device(),
        segment,
        &mut spans,
    );
    let busy_per_q = |s: &Served| {
        let busy: f64 = s.rounds.iter().map(|r| r.busy_s).sum();
        let q: usize = s.rounds.iter().map(|r| r.latencies_ms.len()).sum();
        busy * 1e3 / q as f64
    };
    let overhead = busy_per_q(&traced_run) / busy_per_q(&plain) - 1.0;
    let late: Vec<f64> = traced_run
        .rounds
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    let late_p99 = if late.is_empty() {
        0.0
    } else {
        percentile(&late, 99.0).value
    };
    write_trace(&spans, kind, seed);
    let mut measured = serving_per_layer(last, &spans, re.blocks);
    measured.extend([
        layer("harness.gen_late_p99_ms", late_p99),
        layer("harness.trace_overhead", overhead),
        layer("harness.unattributed_kernels", re.unmatched as f64),
    ]);
    measured.extend(
        wall.iter()
            .map(|m| layer(format!("wall.{}", m.name), m.value)),
    );
    Outcome {
        attempted,
        failed: attempted - correct,
        metrics: per_layer(&measured),
        info: Vec::new(),
        errors,
    }
}

/// The wall-clock view of a served run: what a client sees, measured
/// with the hypervisor's steal time included. Reported, not gated.
fn serving_wall(s: &Served) -> Vec<Metric> {
    let lat = latencies(s);
    let p99 = percentile(&lat, 99.0);
    eprintln!(
        "latency: {} samples over {} rounds; highest supported percentile p{:.2}",
        p99.samples,
        s.rounds.len(),
        p99.supported
    );
    vec![
        metric(
            "throughput_qps",
            s.per_round(&|r, c| c as f64 / r.wall_s),
            "queries/s",
        ),
        metric("latency_p50_ms", percentile(&lat, 50.0).value, "ms"),
        metric("latency_p99_ms", p99.value, "ms"),
        metric(
            "sim_minst_per_s",
            s.per_round(&|r, _| warp_insts(&r.report) as f64 / r.wall_s / 1e6),
            "Minst/s",
        ),
    ]
}

fn serving_end_to_end(kind: Kind, s: &Served, attempted: u64, correct: u64) -> Vec<Metric> {
    // The simulated figures of a backlog run come from one round of
    // each distinct stream, so they repeat exactly for a seed; open-loop
    // batch composition depends on host timing, so all rounds count.
    let exact = match kind {
        Kind::Open => &s.rounds[..],
        _ => &s.rounds[..STREAMS],
    };
    let sum = |f: &dyn Fn(&ServeReport) -> f64| exact.iter().map(|r| f(&r.report)).sum::<f64>();
    let completed = sum(&|r| r.completed as f64).max(1.0);
    let units = sum(&|r| work_units(r) as f64);
    vec![
        metric(
            "host_ms_per_query",
            s.per_round(&|r, c| r.cpu_s * 1e3 / c.max(1) as f64),
            "ms",
        ),
        metric(
            "sim_minst_per_cpu_s",
            s.per_round(&|r, _| warp_insts(&r.report) as f64 / r.cpu_s / 1e6),
            "Minst/s",
        ),
        metric("ok_ratio", correct as f64 / attempted as f64, "fraction"),
        metric(
            "top_rung_ratio",
            if units == 0.0 {
                1.0
            } else {
                1.0 - sum(&|r| cpu_units(r) as f64) / units
            },
            "fraction",
        ),
        metric("sim_us_per_query", sum(&sim_time_s) * 1e6 / completed, "us"),
        metric("uj_per_query", sum(&|r| r.energy_j) * 1e6 / completed, "uJ"),
        metric("setup_s", s.per_round(&|r, _| r.setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Mean fraction of a full resident wave the packed launches fill.
fn packed_wave_fill(r: &ServeReport) -> f64 {
    let dev = serving::serve_device();
    let fills: Vec<f64> = r
        .profiles
        .iter()
        .flat_map(|p| &p.kernels)
        .filter(|k| k.name.starts_with("fused_multi_packed"))
        .map(|k| {
            let resident = f64::from(dev.num_sms) * f64::from(k.occupancy.blocks_per_sm);
            (k.launch.grid.count() as f64 / resident).min(1.0)
        })
        .collect();
    if fills.is_empty() {
        0.0
    } else {
        fills.iter().sum::<f64>() / fills.len() as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer metrics of the last traced round: exact counts from its
/// report, host times from the re-issued spans, per completed query.
/// The server's self time is its busy wall time per query minus the
/// re-issued child work per query; it goes negative when the children
/// cost more on their own than inside the served run.
fn serving_per_layer(last: &Round, spans: &Spans, blocks: u64) -> Vec<(String, f64)> {
    let r = &last.report;
    let q = r.completed.max(1) as f64;
    let per_q = |name: &str| spans.total_ms(name) / q;
    let busy_ms = last.busy_s * 1e3 / q;
    let pool = r.pool.clone().unwrap_or_default();
    let dev_sum =
        |f: &dyn Fn(&ks_serve::DeviceReport) -> u64| pool.devices.iter().map(f).sum::<u64>() as f64;
    let abft_attempts = r
        .profiles
        .iter()
        .filter(|p| p.kernels.iter().any(|k| k.name.contains("_abft")))
        .count() as f64;
    let mut mem = ks_gpu_sim::profiler::MemTraffic::default();
    let mut energy = ks_energy::EnergyBreakdown::default();
    let params = ks_energy::EnergyParams::default();
    let mut sim_blocks = 0u64;
    for p in &r.profiles {
        mem.merge(&p.total_mem());
        energy.merge(&ks_energy::pipeline_energy(&params, p));
        sim_blocks += p.kernels.iter().map(|k| k.launch.grid.count()).sum::<u64>();
    }
    let functional = spans.total_ms("sim.functional");
    let replay = spans.total_ms("sim.replay");
    vec![
        layer("server.batches", r.batches as f64),
        layer(
            "server.batch_width",
            ratio(r.batched_queries as f64, r.batches as f64),
        ),
        layer("server.launches_per_query", r.launches as f64 / q),
        layer("server.retries", r.retries as f64),
        layer("server.queue_high_water", r.queue_high_water as f64),
        layer("server.self_ms", busy_ms - spans.root_work_ms() / q),
        layer("cache.hit_rate", r.hit_rate()),
        layer("cache.evictions", r.plan_cache.evictions as f64),
        layer("plan.build_ms", per_q("plan.build")),
        layer("admission.checks", r.static_admission.checks as f64),
        layer("admission.rejects", r.static_admission.rejects as f64),
        layer("admission.check_ms", per_q("admission.check")),
        layer("packed.launches", r.packed_launches as f64),
        layer(
            "packed.segments_per_launch",
            ratio(r.packed_segments as f64, r.packed_launches as f64),
        ),
        layer("packed.wave_fill", packed_wave_fill(r)),
        layer("pool.shard_tasks", pool.shard_tasks as f64),
        layer("pool.stolen_tasks", pool.stolen_tasks as f64),
        layer("pool.transfer_mb", dev_sum(&|d| d.transfer_bytes) / 1e6),
        layer("pool.evictions", dev_sum(&|d| d.evictions)),
        layer("pool.readmissions", dev_sum(&|d| d.readmissions)),
        layer("pool.link_retransmits", dev_sum(&|d| d.link_retransmits)),
        layer("pool.link_timeouts", dev_sum(&|d| d.link_timeouts)),
        layer("abft.corruption_detected", r.corruption_detected as f64),
        layer(
            "abft.useful_attempt_ratio",
            ratio(abft_attempts - r.corruption_detected as f64, abft_attempts),
        ),
        layer("kernels.pipeline_ms", per_q("kernels.pipeline")),
        layer("kernels.launches", r.launches as f64),
        layer("sim.functional_ms", functional / q),
        layer(
            "sim.functional_us_per_block",
            ratio(functional * 1e3, blocks as f64),
        ),
        layer("sim.replay_ms", replay / q),
        layer(
            "sim.replay_us_per_block",
            ratio(replay * 1e3, blocks as f64),
        ),
        layer("sim.blocks", sim_blocks as f64),
        layer("sim.warp_insts", warp_insts(r) as f64),
        layer(
            "sim.l2_hit_rate",
            ratio(
                (mem.l2_read_hits + mem.l2_write_hits) as f64,
                (mem.l2_reads + mem.l2_writes) as f64,
            ),
        ),
        layer("sim.dram_tx_per_query", mem.dram_transactions() as f64 / q),
        layer("sim.device_new_ms", per_q("sim.device_new")),
        layer("energy.dram_share", ratio(energy.dram_j, energy.total_j())),
        layer("cpu.batches", cpu_units(r) as f64),
        layer("cpu.solve_ms", per_q("cpu.solve")),
        layer("cpu.host_share", ratio(per_q("cpu.solve"), busy_ms)),
    ]
}

/// Writes the traced run's spans as Chrome trace-event JSON under
/// `perfbench/traces/`.
fn write_trace(spans: &Spans, kind: Kind, seed: u64) {
    let name = match kind {
        Kind::Backlog => "coalesce_backlog",
        Kind::Open => "small_open",
        Kind::Pool => "pool_chaos",
        Kind::Paper => "paper_profile",
    };
    let dir = std::path::Path::new("perfbench/traces");
    let path = dir.join(format!("{name}-seed{seed}.json"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_chrome_json()))
    {
        Ok(()) => eprintln!(
            "trace: {} spans written to {}",
            spans.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
