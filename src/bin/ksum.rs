//! `ksum` — command-line driver for the kernel-summation library.
//!
//! ```bash
//! ksum solve       --m 4096 --n 1024 --k 32 --h 1.0 --backend cpu-fused
//! ksum profile     --m 16384 --n 1024 --k 32 --variant fused
//! ksum compare     --m 8192 --n 1024 --k 64
//! ksum lint        [--static] [--kernel NAME] [--out findings.txt]
//!                  [--json findings.json] [--agreement agreement.json]
//! ksum serve-bench [--smoke] [--clients C] [--queries Q] [--devices N]
//!                  [--energy-budget J] [--pack|--no-pack] [--json PATH]
//! ksum tune        [--smoke] [--seed S] [--json PATH]
//! ```
//!
//! Argument errors (unknown command, flag, backend or variant, a
//! malformed value, or a number out of range) print the usage to
//! stderr and exit with status 2; they never panic.

use std::process::ExitCode;
use std::time::Instant;

use kernel_summation::bench::ServeMetrics;
use kernel_summation::core::gpu::{profile_gpu, try_profile_gpu_on, try_solve_gpu_on, GpuReport};
use kernel_summation::core::Backend;
use kernel_summation::gpu_kernels::TileGeometry;
use kernel_summation::gpu_sim::config::DeviceConfig;
use kernel_summation::gpu_sim::report::summary;
use kernel_summation::gpu_sim::Interconnect;
use kernel_summation::gpu_sim::{FaultSpec, GpuDevice, LifecycleSpec, LinkFaultSpec};
use kernel_summation::prelude::*;
use kernel_summation::serve::{
    run_workload, smoke_workload, PoolConfig, ServeBackend, ServeConfig, WorkloadConfig,
};
use kernel_summation::tune::{tune, ProblemShape, TuneConfig};

const USAGE: &str = "usage: ksum [--threads N] [--faults SPEC] <command> [flags]
  --threads N  global: size of the worker pool used for parallel
               traffic replay (N >= 1; default: machine cores)
  --faults SPEC
               global: seeded soft-error injection on the simulated
               device, e.g. seed=7,smem=0.5,reg=1,dram=0.25,sm=0.01,
               watchdog=0.001 (rates per launch: smem/reg/dram are
               expected flips, at most 10000; sm/watchdog are
               probabilities; applies to the gpu-sim backends of
               solve/profile/compare/serve-bench)
  solve        --m M --n N --k K --h H --seed S --backend B
               (backends: cpu-fused, cpu-unfused, reference,
                gpu-fused, gpu-cuda-unfused, gpu-cublas-unfused)
  profile      --m M --n N --k K --h H --variant V
               (variants: fused, cuda-unfused, cublas-unfused)
  compare      --m M --n N --k K --h H
               (profile and compare: M and N multiples of 128, K of 8;
                every command: H finite and positive)
  lint         [--static] [--kernel NAME] [--out PATH] [--json PATH]
               [--agreement PATH]
               (--static proves coalescing, bank conflicts, bounds and
                occupancy from declared access specs, zero replay;
                --kernel filters to one probe; --json exports findings
                as JSON; --agreement cross-checks every static verdict
                against trace replay and writes the matrix as JSON)
  serve-bench  [--smoke] [--clients C] [--queries Q] [--corpora R]
               [--shared-ratio F] [--large-ratio F] [--m M] [--n N]
               [--k K] [--h H] [--seed S] [--queue DEPTH] [--wave W]
               [--no-cache] [--devices N] [--energy-budget J]
               [--pack | --no-pack]
               [--lifecycle-faults SPEC] [--link-faults SPEC]
               [--backend cpu-fused|gpu-fused|gpu-resilient]
               [--json PATH]
               (--pack fuses mutually-unrelated small batches from one
                scheduling wave into a single routed launch; results
                stay bit-identical to unpacked serving;
                --devices N shards every batch row-wise over a pool of
                N simulated devices on PCIe 3.0 x16 links; results stay
                bit-identical to single-device serving;
                --lifecycle-faults e.g. seed=7,hang=0.1,loss=0.01,
                recover=0.5 flaps pool devices through seeded hang/
                loss/recovery epochs — sick devices drain, evict and
                readmit via the health loop (needs --devices);
                --link-faults e.g. seed=7,corrupt=0.2,timeout=0.05
                injects per-transfer CRC-detected corruption and
                timeouts on every pool link (needs --devices); seeds
                decorrelate per device;
                --energy-budget J downshifts batches to a
                bit-compatible low-power tile geometry once the
                modelled J/query exceeds the budget — result bits
                never change)
  tune         [--smoke] [--seed S] [--json PATH]
               (sweeps the legal tile-geometry lattice through the
                static analyzer, the bit-exact differential gate and
                exact-counter profiling, fits the log-linear cost
                model and prints its per-shape picks; --smoke shrinks
                the training grid; --json exports the picks)";

/// A usage error: printed to stderr with the usage text, exit code 2.
struct UsageError(String);

fn usage_exit(e: &UsageError) -> ExitCode {
    eprintln!("error: {}", e.0);
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_value<T: std::str::FromStr>(flag: &str, val: &str) -> Result<T, UsageError> {
    val.parse()
        .map_err(|_| UsageError(format!("invalid value for {flag}: {val}")))
}

struct Args {
    m: usize,
    n: usize,
    k: usize,
    h: f32,
    seed: u64,
    backend: String,
    variant: String,
}

fn parse(rest: &[String]) -> Result<Args, UsageError> {
    let mut a = Args {
        m: 4096,
        n: 1024,
        k: 32,
        h: 1.0,
        seed: 42,
        backend: "cpu-fused".into(),
        variant: "fused".into(),
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| UsageError(format!("missing value for {flag}")))?;
        match flag.as_str() {
            "--m" => a.m = parse_value(flag, val)?,
            "--n" => a.n = parse_value(flag, val)?,
            "--k" => a.k = parse_value(flag, val)?,
            "--h" => a.h = parse_value(flag, val)?,
            "--seed" => a.seed = parse_value(flag, val)?,
            "--backend" => a.backend = val.clone(),
            "--variant" => a.variant = val.clone(),
            other => return Err(UsageError(format!("unknown flag {other}"))),
        }
    }
    Ok(a)
}

/// Rejects a bandwidth the Gaussian kernel cannot use.
fn check_bandwidth(h: f32) -> Result<(), UsageError> {
    if h.is_finite() && h > 0.0 {
        Ok(())
    } else {
        Err(UsageError(format!(
            "--h must be finite and positive, got {h}"
        )))
    }
}

/// `profile` and `compare` run the paper pipelines unpadded, so the
/// paper tiling must divide the shape.
fn check_paper_shape(a: &Args) -> Result<(), UsageError> {
    check_bandwidth(a.h)?;
    let g = TileGeometry::paper_default();
    if g.divides(a.m, a.n, a.k) {
        Ok(())
    } else {
        Err(UsageError(format!(
            "M={} N={} K={} must be positive multiples of {}, {} and {} (the paper tiling)",
            a.m, a.n, a.k, g.block_m, g.block_n, g.tile_k
        )))
    }
}

fn backend_of(name: &str) -> Result<Backend, UsageError> {
    Ok(match name {
        "reference" => Backend::Reference,
        "cpu-fused" => Backend::CpuFused,
        "cpu-unfused" => Backend::CpuUnfused,
        "gpu-fused" => Backend::GpuSim(GpuVariant::Fused),
        "gpu-cuda-unfused" => Backend::GpuSim(GpuVariant::CudaUnfused),
        "gpu-cublas-unfused" => Backend::GpuSim(GpuVariant::CublasUnfused),
        other => return Err(UsageError(format!("unknown backend {other}"))),
    })
}

fn variant_of(name: &str) -> Result<GpuVariant, UsageError> {
    Ok(match name {
        "fused" => GpuVariant::Fused,
        "cuda-unfused" => GpuVariant::CudaUnfused,
        "cublas-unfused" => GpuVariant::CublasUnfused,
        other => return Err(UsageError(format!("unknown variant {other}"))),
    })
}

fn build(a: &Args) -> KernelSumProblem {
    KernelSumProblem::builder()
        .sources(PointSet::uniform_cube(a.m, a.k, a.seed))
        .targets(PointSet::uniform_cube(a.n, a.k, a.seed + 1))
        .weights(PointSet::uniform_cube(a.n, 1, a.seed + 2).coords().to_vec())
        .kernel(GaussianKernel { h: a.h })
        .build()
}

/// A fresh GTX 970 with the given fault model installed.
fn faulty_device(fault: FaultSpec) -> GpuDevice {
    let mut cfg = DeviceConfig::gtx970();
    cfg.fault = Some(fault);
    GpuDevice::new(cfg)
}

/// Reports injected-fault tallies (if any) after a faulty run.
fn print_fault_tally(dev: &mut GpuDevice) {
    let fc = dev.take_fault_counters();
    if !fc.is_empty() {
        println!(
            "injected faults: {} smem, {} reg, {} dram, {} launch",
            fc.smem_flips, fc.reg_flips, fc.dram_flips, fc.launch_faults
        );
    }
}

fn cmd_solve(a: &Args, fault: Option<FaultSpec>) -> Result<ExitCode, UsageError> {
    let backend = backend_of(&a.backend)?;
    // `solve` pads the shape, so any M and N work on the CPU; the
    // gpu-sim pipelines still need at least one row and column.
    check_bandwidth(a.h)?;
    if a.k == 0 {
        return Err(UsageError("--k must be at least 1".into()));
    }
    if matches!(backend, Backend::GpuSim(_)) && (a.m == 0 || a.n == 0) {
        return Err(UsageError(format!(
            "{} needs --m and --n of at least 1",
            a.backend
        )));
    }
    let p = build(a);
    println!(
        "solving M={} N={} K={} h={} with {}",
        a.m, a.n, a.k, a.h, a.backend
    );
    let t = Instant::now();
    let v = match (fault, backend) {
        (Some(fs), Backend::GpuSim(variant)) => {
            let mut dev = faulty_device(fs);
            match try_solve_gpu_on(&mut dev, &p, variant) {
                Ok(out) => {
                    print_fault_tally(&mut dev);
                    out.v
                }
                Err(e) => {
                    print_fault_tally(&mut dev);
                    eprintln!("error: launch failed: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        _ => p.solve(backend),
    };
    let dt = t.elapsed();
    let sum: f64 = v.iter().map(|&x| x as f64).sum();
    let max = v.iter().cloned().fold(f32::MIN, f32::max);
    println!(
        "done in {dt:?}: Σ V = {sum:.4}, max V = {max:.4}, V[0..4] = {:?}",
        &v[..v.len().min(4)]
    );
    Ok(ExitCode::SUCCESS)
}

fn print_profile_report(r: &GpuReport) {
    print!("{}", r.profile);
    println!("{}", summary(&r.profile, r.peak_gflops));
    println!(
        "energy {:.3} mJ (compute {:.1}%, smem {:.1}%, l2 {:.1}%, dram {:.1}%)",
        r.energy.total_j() * 1e3,
        r.energy.compute_share() * 100.0,
        100.0 * r.energy.smem_j / r.energy.total_j(),
        100.0 * r.energy.l2_j / r.energy.total_j(),
        r.energy.dram_share() * 100.0,
    );
}

fn cmd_profile(a: &Args, fault: Option<FaultSpec>) -> Result<ExitCode, UsageError> {
    let variant = variant_of(&a.variant)?;
    check_paper_shape(a)?;
    println!(
        "profiling {} at M={} N={} K={} on a simulated GTX970",
        variant.label(),
        a.m,
        a.n,
        a.k
    );
    let r = match fault {
        Some(fs) => {
            let mut dev = faulty_device(fs);
            match try_profile_gpu_on(&mut dev, a.m, a.n, a.k, a.h, variant) {
                Ok(r) => r,
                Err(e) => {
                    print_fault_tally(&mut dev);
                    eprintln!("error: launch failed: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        None => profile_gpu(a.m, a.n, a.k, a.h, variant),
    };
    print_profile_report(&r);
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(a: &Args, fault: Option<FaultSpec>) -> Result<ExitCode, UsageError> {
    check_paper_shape(a)?;
    println!(
        "comparing pipelines at M={} N={} K={} (simulated GTX970)",
        a.m, a.n, a.k
    );
    let mut times = Vec::new();
    for variant in GpuVariant::ALL {
        let r = match fault {
            Some(fs) => {
                let mut dev = faulty_device(fs);
                match try_profile_gpu_on(&mut dev, a.m, a.n, a.k, a.h, variant) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("error: launch failed for {}: {e}", variant.label());
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
            None => profile_gpu(a.m, a.n, a.k, a.h, variant),
        };
        println!("  {}", summary(&r.profile, r.peak_gflops));
        times.push((variant.label(), r.profile.total_time_s()));
    }
    let fused = times[0].1;
    for (label, t) in &times[1..] {
        println!("  fused speedup vs {label}: {:.3}x", t / fused);
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes `content` to `path`, mapping I/O failure to exit 1.
fn write_artifact(path: &str, content: &str, what: &str) -> Result<(), ExitCode> {
    match std::fs::write(path, content) {
        Ok(()) => {
            println!("{what} written to {path}");
            Ok(())
        }
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn cmd_lint(rest: &[String]) -> Result<ExitCode, UsageError> {
    let mut out: Option<String> = None;
    let mut json: Option<String> = None;
    let mut agreement: Option<String> = None;
    let mut kernel: Option<String> = None;
    let mut static_mode = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--static" {
            static_mode = true;
            continue;
        }
        let val = it
            .next()
            .ok_or_else(|| UsageError(format!("missing value for {flag}")))?
            .clone();
        match flag.as_str() {
            "--out" => out = Some(val),
            "--json" => json = Some(val),
            "--agreement" => agreement = Some(val),
            "--kernel" => kernel = Some(val),
            other => {
                return Err(UsageError(format!(
                    "unknown flag {other} (lint takes --static, --kernel NAME, \
                     --out PATH, --json PATH, --agreement PATH)"
                )))
            }
        }
    }
    let dev = DeviceConfig::gtx970();

    // Differential artifact: every static verdict cross-checked
    // against trace replay; disagreement is a failure in itself.
    let mut agreement_ok = true;
    if let Some(path) = agreement {
        let diff = kernel_summation::analyze::differential::differential_report(&dev);
        agreement_ok = diff.all_agree();
        println!("static/dynamic agreement over the probe registry:");
        println!("{}", diff.table());
        if let Err(code) = write_artifact(&path, &diff.to_json(), "agreement report") {
            return Ok(code);
        }
    }

    let (report, text) = if static_mode {
        println!(
            "statically linting declared access specs against a simulated {}",
            dev.name
        );
        let mut outcome = kernel_summation::analyze::lint_report_static(&dev);
        if let Some(name) = &kernel {
            outcome.kernels.retain(|k| &k.kernel == name);
            outcome.report.retain_kernel(name);
        }
        println!("{}", outcome.summary_table());
        let table = outcome.report.table();
        println!("{table}");
        if let Some(path) = json {
            if let Err(code) = write_artifact(&path, &outcome.to_json(), "static lint report") {
                return Ok(code);
            }
        }
        let text = format!("{}\n{table}", outcome.summary_table());
        (outcome.report, text)
    } else {
        println!("linting recorded warp traces on a simulated {}", dev.name);
        let mut report = kernel_summation::analyze::lint_report(&dev);
        if let Some(name) = &kernel {
            report.retain_kernel(name);
        }
        let table = report.table();
        println!("{table}");
        if let Some(path) = json {
            if let Err(code) = write_artifact(&path, &report.to_json(), "lint report") {
                return Ok(code);
            }
        }
        (report, String::new())
    };
    let table = if text.is_empty() {
        report.table()
    } else {
        text
    };
    if let Some(path) = out {
        if let Err(code) = write_artifact(&path, &table, "findings table") {
            return Ok(code);
        }
    }
    if let Some(name) = &kernel {
        if report.checked.is_empty() && report.findings.is_empty() {
            eprintln!("warning: no probe named {name} in the registry");
        }
    }
    Ok(if report.is_clean() && agreement_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The serving device: a GTX970 with its effective L2 cut to 16 KB to
/// model inter-request cache pressure, so plan reuse is visible in
/// the DRAM ledger (matches the acceptance test in `ks-bench`).
fn serve_device() -> DeviceConfig {
    let mut d = DeviceConfig::gtx970();
    d.l2_bytes = 16 * 1024;
    d
}

/// Rejects workload and server sizes `run_workload` cannot serve.
fn check_serve_sizes(wl: &WorkloadConfig, cfg: &ServeConfig) -> Result<(), UsageError> {
    check_bandwidth(wl.h)?;
    for (flag, value) in [
        ("--clients", wl.clients),
        ("--queries", wl.queries_per_client),
        ("--corpora", wl.corpora),
        ("--m", wl.m),
        ("--n", wl.n),
        ("--k", wl.k),
        ("--queue", cfg.queue_capacity),
        ("--wave", cfg.wave),
    ] {
        if value == 0 {
            return Err(UsageError(format!("{flag} must be at least 1")));
        }
    }
    for (flag, ratio) in [
        ("--shared-ratio", wl.shared_ratio),
        ("--large-ratio", wl.large_ratio),
    ] {
        if !(0.0..=1.0).contains(&ratio) {
            return Err(UsageError(format!("{flag} must be in [0, 1], got {ratio}")));
        }
    }
    Ok(())
}

fn cmd_serve_bench(rest: &[String], fault: Option<FaultSpec>) -> Result<ExitCode, UsageError> {
    let mut wl = WorkloadConfig::default();
    let mut device = serve_device();
    device.fault = fault;
    let mut cfg = ServeConfig {
        backend: ServeBackend::GpuFused { cpu_fallback: true },
        device,
        wave: 4,
        ..ServeConfig::default()
    };
    let mut json: Option<String> = None;
    let mut devices: usize = 0;
    let mut lifecycle: Option<LifecycleSpec> = None;
    let mut link_fault: Option<LinkFaultSpec> = None;
    let mut it = rest.iter().peekable();
    while let Some(flag) = it.next() {
        // Bare switches first; everything else takes a value.
        match flag.as_str() {
            "--smoke" => {
                wl = smoke_workload();
                continue;
            }
            "--no-cache" => {
                cfg.enable_plan_cache = false;
                continue;
            }
            "--pack" => {
                cfg.pack = true;
                continue;
            }
            "--no-pack" => {
                cfg.pack = false;
                continue;
            }
            _ => {}
        }
        let val = it
            .next()
            .ok_or_else(|| UsageError(format!("missing value for {flag}")))?;
        match flag.as_str() {
            "--clients" => wl.clients = parse_value(flag, val)?,
            "--queries" => wl.queries_per_client = parse_value(flag, val)?,
            "--corpora" => wl.corpora = parse_value(flag, val)?,
            "--shared-ratio" => wl.shared_ratio = parse_value(flag, val)?,
            "--large-ratio" => wl.large_ratio = parse_value(flag, val)?,
            "--m" => wl.m = parse_value(flag, val)?,
            "--n" => wl.n = parse_value(flag, val)?,
            "--k" => wl.k = parse_value(flag, val)?,
            "--h" => wl.h = parse_value(flag, val)?,
            "--seed" => wl.seed = parse_value(flag, val)?,
            "--queue" => cfg.queue_capacity = parse_value(flag, val)?,
            "--devices" => {
                devices = parse_value(flag, val)?;
                if devices == 0 {
                    return Err(UsageError("--devices needs at least 1 device".into()));
                }
            }
            "--wave" => cfg.wave = parse_value(flag, val)?,
            "--backend" => {
                cfg.backend = match val.as_str() {
                    "cpu-fused" => ServeBackend::CpuFused,
                    "gpu-fused" => ServeBackend::GpuFused { cpu_fallback: true },
                    "gpu-resilient" => ServeBackend::GpuResilient,
                    other => {
                        return Err(UsageError(format!(
                        "unknown serve backend {other} (try cpu-fused, gpu-fused, gpu-resilient)"
                    )))
                    }
                };
            }
            "--lifecycle-faults" => {
                lifecycle =
                    Some(LifecycleSpec::parse(val).map_err(|e| {
                        UsageError(format!("invalid --lifecycle-faults spec: {e}"))
                    })?);
            }
            "--link-faults" => {
                link_fault = Some(
                    LinkFaultSpec::parse(val)
                        .map_err(|e| UsageError(format!("invalid --link-faults spec: {e}")))?,
                );
            }
            "--energy-budget" => {
                let budget: f64 = parse_value(flag, val)?;
                if budget <= 0.0 || budget.is_nan() {
                    return Err(UsageError("--energy-budget must be positive".into()));
                }
                cfg.energy_budget_j = Some(budget);
                // The downshift target for shapes without a tuned
                // pick: the default's bit-compatibility class with
                // taller microtile rows (fewer threads, more register
                // reuse), so routing never changes result bits.
                cfg.low_power = Some(TileGeometry {
                    micro_m: 16,
                    ..TileGeometry::paper_default()
                });
            }
            "--json" => json = Some(val.clone()),
            other => return Err(UsageError(format!("unknown flag {other}"))),
        }
    }
    check_serve_sizes(&wl, &cfg)?;
    if (lifecycle.is_some() || link_fault.is_some()) && devices == 0 {
        return Err(UsageError(
            "--lifecycle-faults and --link-faults model pool members; pass --devices N".into(),
        ));
    }
    if devices > 0 {
        // Pool devices clone the final serve device, so the global
        // --faults spec (if any) applies to every pool member.
        let mut pool =
            PoolConfig::homogeneous(devices, cfg.device.clone(), Interconnect::pcie3_x16());
        // Per-device seed decorrelation: one spec on the command line,
        // independent fault trajectories per pool member.
        for (d, member) in pool.devices.iter_mut().enumerate() {
            if let Some(spec) = &lifecycle {
                let mut spec = *spec;
                spec.seed ^= d as u64;
                member.lifecycle = Some(spec);
            }
            if let Some(spec) = &link_fault {
                let mut spec = *spec;
                spec.seed ^= d as u64;
                member.interconnect.fault = Some(spec);
            }
        }
        cfg.pool = Some(pool);
    }
    println!(
        "serve-bench: {} clients x {} queries, {} corpora, shared ratio {}, M={} N={} K={}{}",
        wl.clients,
        wl.queries_per_client,
        wl.corpora,
        wl.shared_ratio,
        wl.m,
        wl.n,
        wl.k,
        if devices > 0 {
            format!(", {devices}-device pool")
        } else {
            String::new()
        }
    );
    let device = cfg.device.clone();
    let t = Instant::now();
    let report = run_workload(cfg, &wl);
    let wall = t.elapsed();
    println!(
        "submitted {} | accepted {} | rejected {} | completed {} | expired {} | shed {} | failed {}",
        report.submitted,
        report.accepted,
        report.rejected,
        report.completed,
        report.expired,
        report.shed,
        report.failed
    );
    println!(
        "batches {} (avg width {:.2}) | plan cache: {} hits / {} misses / {} evictions (hit rate {:.2})",
        report.batches,
        if report.batches > 0 {
            report.batched_queries as f64 / report.batches as f64
        } else {
            0.0
        },
        report.plan_cache.hits,
        report.plan_cache.misses,
        report.plan_cache.evictions,
        report.hit_rate(),
    );
    println!(
        "queue high water {} | fallbacks {} | wall {wall:?}",
        report.queue_high_water, report.fallbacks
    );
    println!(
        "launches {} | packed launches {} carrying {} segments",
        report.launches, report.packed_launches, report.packed_segments
    );
    println!(
        "energy {:.3} mJ | {:.3} uJ/query | {} budget downshifts",
        report.energy_j * 1e3,
        report.j_per_query() * 1e6,
        report.energy_downshifts
    );
    if report.attempts > report.batches
        || report.corruption_detected > 0
        || report.injected_faults > 0
    {
        println!(
            "resilience: {} attempts ({} retries) | corruption detected {} | injected faults {} \
             (undetected {}) | degraded {} | breaker trips {} / resets {}",
            report.attempts,
            report.retries,
            report.corruption_detected,
            report.injected_faults,
            report.undetected_injected,
            report.degraded_completions,
            report.breaker_trips,
            report.breaker_resets,
        );
    }
    if let Some(pool) = &report.pool {
        println!(
            "pool: {} devices | {} shard tasks ({} stolen) | sim time {:.3} ms | \
             {} CPU shard recoveries | breaker trips {}",
            pool.devices.len(),
            pool.shard_tasks,
            pool.stolen_tasks,
            pool.sim_time_s * 1e3,
            pool.total_fallbacks(),
            pool.total_trips(),
        );
        if pool.total_evictions() > 0 || pool.total_readmissions() > 0 {
            println!(
                "pool health: {} evictions | {} readmissions",
                pool.total_evictions(),
                pool.total_readmissions(),
            );
        }
        for d in &pool.devices {
            println!(
                "  {}: {} executed ({} stolen), {} gpu / {} cpu shards, \
                 shard cache {} hits / {} misses, {} B transferred",
                d.name,
                d.executed,
                d.stolen,
                d.gpu_shards,
                d.cpu_fallbacks,
                d.plan_cache.hits,
                d.plan_cache.misses,
                d.transfer_bytes,
            );
            if d.lifecycle_hangs + d.lifecycle_losses + d.evictions > 0 {
                println!(
                    "    lifecycle: {} hang / {} loss epochs | {} evictions, {} readmissions",
                    d.lifecycle_hangs, d.lifecycle_losses, d.evictions, d.readmissions,
                );
            }
            if d.link_crc_detected + d.link_retransmits + d.link_timeouts > 0 {
                println!(
                    "    link: {} crc detections, {} retransmits, {} timeouts",
                    d.link_crc_detected, d.link_retransmits, d.link_timeouts,
                );
            }
        }
    }
    let metrics = ServeMetrics::collect(&report, &device);
    if let Some(gpu) = &metrics.gpu {
        println!(
            "gpu: {} kernels, sim time {:.3} ms, {} DRAM transactions, {:.3} mJ",
            gpu.profile.kernels.len(),
            gpu.time_s * 1e3,
            gpu.dram_transactions,
            gpu.energy.total_j() * 1e3
        );
    }
    if let Some(path) = json {
        if let Err(e) = metrics.write_json(&path) {
            eprintln!("error: cannot write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_tune(rest: &[String]) -> Result<ExitCode, UsageError> {
    let mut cfg = TuneConfig::smoke(DeviceConfig::gtx970());
    let mut json: Option<String> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cfg.train_shapes = vec![
                ProblemShape::new(1024, 1024, 32),
                ProblemShape::new(512, 512, 32),
                ProblemShape::new(256, 256, 64),
            ];
            cfg.pick_shapes = vec![
                ProblemShape::new(1024, 1024, 32),
                ProblemShape::new(256, 256, 64),
            ];
            continue;
        }
        let val = it
            .next()
            .ok_or_else(|| UsageError(format!("missing value for {flag}")))?;
        match flag.as_str() {
            "--seed" => cfg.seed = parse_value(flag, val)?,
            "--json" => json = Some(val.clone()),
            other => {
                return Err(UsageError(format!(
                    "unknown flag {other} (tune takes --smoke, --seed S, --json PATH)"
                )))
            }
        }
    }
    println!(
        "tuning {} geometries x {} training shapes on a simulated {}",
        TileGeometry::lattice(&cfg.device).len(),
        cfg.train_shapes.len(),
        cfg.device.name
    );
    let t = Instant::now();
    let out = tune(&cfg);
    println!(
        "{} admitted, {} rejected, {} profiled samples in {:?}",
        out.admitted.len(),
        out.rejected.len(),
        out.samples.len(),
        t.elapsed()
    );
    println!(
        "fit: {} train / {} holdout, time err mape {:.4} max {:.4},          energy err mape {:.4} max {:.4}",
        out.fit.train_count,
        out.fit.holdout_count,
        out.fit.holdout_mape_time,
        out.fit.holdout_max_rel_time,
        out.fit.holdout_mape_energy,
        out.fit.holdout_max_rel_energy
    );
    for r in &out.rejected {
        println!("  rejected {} at {}: {}", r.geometry, r.stage, r.reason);
    }
    println!("picks (model-only, paper default wins near-ties):");
    for p in &out.picks {
        let low = p
            .choice
            .low_power
            .map_or(String::new(), |g| format!(" (low-power {g})"));
        println!(
            "  {}x{}x{}: {} pred {:.3e} s / {:.3e} J{low}",
            p.m, p.n, p.k, p.choice.geometry, p.choice.pred_time_s, p.choice.pred_energy_j
        );
    }
    if let Some(path) = json {
        let doc = serde_json::to_string_pretty(&out.picks).expect("picks serialise");
        if let Err(code) = write_artifact(&path, &doc, "tuned picks") {
            return Ok(code);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Global flags, valid anywhere on the command line.
struct Globals {
    /// Worker-pool size for parallel traffic replay.
    threads: Option<usize>,
    /// Soft-error injection spec for the simulated device.
    fault: Option<FaultSpec>,
}

/// Strips the global `--threads N` and `--faults SPEC` flags (valid
/// anywhere on the command line) and returns the remaining args plus
/// the parsed globals. `N` must parse as an integer >= 1; `SPEC` must
/// satisfy [`FaultSpec::parse`].
fn extract_globals(args: &[String]) -> Result<(Vec<String>, Globals), UsageError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut g = Globals {
        threads: None,
        fault: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                let val = it
                    .next()
                    .ok_or_else(|| UsageError("missing value for --threads".into()))?;
                let n: usize = parse_value("--threads", val)?;
                if n == 0 {
                    return Err(UsageError("--threads must be >= 1".into()));
                }
                g.threads = Some(n);
            }
            "--faults" => {
                let val = it
                    .next()
                    .ok_or_else(|| UsageError("missing value for --faults".into()))?;
                let spec = FaultSpec::parse(val)
                    .map_err(|e| UsageError(format!("invalid --faults spec: {e}")))?;
                g.fault = Some(spec);
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((rest, g))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().collect();
    let (args, globals) = match extract_globals(&raw) {
        Ok(x) => x,
        Err(e) => return usage_exit(&e),
    };
    let Some(cmd) = args.get(1) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let fault = globals.fault;
    let run = || -> Result<ExitCode, UsageError> {
        match cmd.as_str() {
            "lint" => cmd_lint(&args[2..]),
            "serve-bench" => cmd_serve_bench(&args[2..], fault),
            "tune" => cmd_tune(&args[2..]),
            "solve" => parse(&args[2..]).and_then(|a| cmd_solve(&a, fault)),
            "profile" => parse(&args[2..]).and_then(|a| cmd_profile(&a, fault)),
            "compare" => parse(&args[2..]).and_then(|a| cmd_compare(&a, fault)),
            other => Err(UsageError(format!("unknown command {other}"))),
        }
    };
    let out = match globals.threads {
        Some(n) => {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .map_err(|e| UsageError(format!("cannot build thread pool: {e}")));
            pool.and_then(|p| p.install(run))
        }
        None => run(),
    };
    match out {
        Ok(code) => code,
        Err(e) => usage_exit(&e),
    }
}
