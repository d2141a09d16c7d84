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
//! `serve-bench` serves its whole generated stream as one backlog
//! through [`kernel_summation::serve::serve_backlog`], the runner the
//! `ks-bench` serving gates use, so its export repeats byte for byte,
//! pooled or not.
//!
//! Every command reads its arguments through
//! [`kernel_summation::bench::cli::Flags`]. Argument errors (unknown
//! command, flag, backend or variant, a malformed value, or a number
//! out of range) print the usage to stderr and exit with status 2;
//! they never panic. Output goes through `ks_bench`'s `out!` and
//! `outln!` and logs through its `eoutln!`, so a closed stdout or
//! stderr (`| head`) keeps a command's status.

use std::process::ExitCode;
use std::time::Instant;

use kernel_summation::bench::cli::{to_json, write_all, Flags, UsageError};
use kernel_summation::bench::{eoutln, out, outln, ServeMetrics};
use kernel_summation::core::gpu::{profile_gpu, try_profile_gpu_on, try_solve_gpu_on, GpuReport};
use kernel_summation::core::Backend;
use kernel_summation::gpu_kernels::TileGeometry;
use kernel_summation::gpu_sim::config::DeviceConfig;
use kernel_summation::gpu_sim::report::summary;
use kernel_summation::gpu_sim::Interconnect;
use kernel_summation::gpu_sim::{FaultSpec, GpuDevice, LifecycleSpec, LinkFaultSpec};
use kernel_summation::prelude::*;
use kernel_summation::serve::{
    generate_queries, serve_backlog, smoke_workload, PoolConfig, ServeBackend, ServeConfig,
    WorkloadConfig,
};
use kernel_summation::tune::{tune, ProblemShape, TuneConfig};

const USAGE: &str = "usage: ksum [--threads N] [--faults SPEC] <command> [flags]
  --threads N  global: size of the worker pool used for parallel
               functional execution and CPU solves (N >= 1; default:
               machine cores; traffic replay runs on one thread)
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
               [--k K] [--h H] [--seed S] [--wave W]
               [--no-cache] [--devices N] [--energy-budget J]
               [--pack | --no-pack]
               [--lifecycle-faults SPEC] [--link-faults SPEC]
               [--backend cpu-fused|gpu-fused|gpu-resilient]
               [--json PATH]
               (serves the C x Q query stream as one backlog: queued on
                a paused server, then drained in waves of W, so every
                run serves the same batches; --smoke is a preset that
                explicit workload flags override;
                --pack fuses mutually-unrelated small batches from one
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

/// The flags `solve`, `profile` and `compare` share.
struct Args {
    m: usize,
    n: usize,
    k: usize,
    h: f32,
    seed: u64,
    backend: String,
    variant: String,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, UsageError> {
        let f = Flags::parse(
            args,
            &[],
            &[
                "--m",
                "--n",
                "--k",
                "--h",
                "--seed",
                "--backend",
                "--variant",
            ],
        )?;
        Ok(Self {
            m: f.get("--m", 4096)?,
            n: f.get("--n", 1024)?,
            k: f.get("--k", 32)?,
            h: f.get("--h", 1.0)?,
            seed: f.get("--seed", 42)?,
            backend: f.opt("--backend").unwrap_or("cpu-fused").into(),
            variant: f.opt("--variant").unwrap_or("fused").into(),
        })
    }
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
        outln!(
            "injected faults: {} smem, {} reg, {} dram, {} launch",
            fc.smem_flips,
            fc.reg_flips,
            fc.dram_flips,
            fc.launch_faults
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
    outln!(
        "solving M={} N={} K={} h={} with {}",
        a.m,
        a.n,
        a.k,
        a.h,
        a.backend
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
                    eoutln!("error: launch failed: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        _ => p.solve(backend),
    };
    let dt = t.elapsed();
    let sum: f64 = v.iter().map(|&x| x as f64).sum();
    let max = v.iter().cloned().fold(f32::MIN, f32::max);
    outln!(
        "done in {dt:?}: Σ V = {sum:.4}, max V = {max:.4}, V[0..4] = {:?}",
        &v[..v.len().min(4)]
    );
    Ok(ExitCode::SUCCESS)
}

fn print_profile_report(r: &GpuReport) {
    out!("{}", r.profile);
    outln!("{}", summary(&r.profile, r.peak_gflops));
    outln!(
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
    outln!(
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
                    eoutln!("error: launch failed: {e}");
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
    outln!(
        "comparing pipelines at M={} N={} K={} (simulated GTX970)",
        a.m,
        a.n,
        a.k
    );
    let mut times = Vec::new();
    for variant in GpuVariant::ALL {
        let r = match fault {
            Some(fs) => {
                let mut dev = faulty_device(fs);
                match try_profile_gpu_on(&mut dev, a.m, a.n, a.k, a.h, variant) {
                    Ok(r) => r,
                    Err(e) => {
                        eoutln!("error: launch failed for {}: {e}", variant.label());
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
            None => profile_gpu(a.m, a.n, a.k, a.h, variant),
        };
        outln!("  {}", summary(&r.profile, r.peak_gflops));
        times.push((variant.label(), r.profile.total_time_s()));
    }
    let fused = times[0].1;
    for (label, t) in &times[1..] {
        outln!("  fused speedup vs {label}: {:.3}x", t / fused);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_lint(args: &[String]) -> Result<ExitCode, UsageError> {
    let flags = Flags::parse(
        args,
        &["--static"],
        &["--out", "--json", "--agreement", "--kernel"],
    )?;
    let kernel = flags.opt("--kernel");
    let dev = DeviceConfig::gtx970();
    let mut docs = Vec::new();

    // Differential artifact: every static verdict cross-checked
    // against trace replay; disagreement is a failure in itself.
    let mut agreement_ok = true;
    if let Some(path) = flags.opt("--agreement") {
        let diff = kernel_summation::analyze::differential::differential_report(&dev);
        agreement_ok = diff.all_agree();
        outln!("static/dynamic agreement over the probe registry:");
        outln!("{}", diff.table());
        docs.push((Some(path), diff.to_json()));
    }

    let (report, table) = if flags.has("--static") {
        outln!(
            "statically linting declared access specs against a simulated {}",
            dev.name
        );
        let mut outcome = kernel_summation::analyze::lint_report_static(&dev);
        if let Some(name) = kernel {
            outcome.kernels.retain(|k| k.kernel == name);
            outcome.report.retain_kernel(name);
        }
        outln!("{}", outcome.summary_table());
        let table = outcome.report.table();
        outln!("{table}");
        docs.push((flags.opt("--json"), outcome.to_json()));
        let text = format!("{}\n{table}", outcome.summary_table());
        (outcome.report, text)
    } else {
        outln!("linting recorded warp traces on a simulated {}", dev.name);
        let mut report = kernel_summation::analyze::lint_report(&dev);
        if let Some(name) = kernel {
            report.retain_kernel(name);
        }
        let table = report.table();
        outln!("{table}");
        docs.push((flags.opt("--json"), report.to_json()));
        (report, table)
    };
    docs.push((flags.opt("--out"), table));
    let written = write_all(&docs);
    if let Some(name) = kernel {
        if report.checked.is_empty() && report.findings.is_empty() {
            eoutln!("warning: no probe named {name} in the registry");
        }
    }
    Ok(if report.is_clean() && agreement_ok {
        written
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

/// Rejects workload and server sizes the backlog cannot serve.
fn check_serve_sizes(wl: &WorkloadConfig, wave: usize) -> Result<(), UsageError> {
    check_bandwidth(wl.h)?;
    for (flag, value) in [
        ("--clients", wl.clients),
        ("--queries", wl.queries_per_client),
        ("--corpora", wl.corpora),
        ("--m", wl.m),
        ("--n", wl.n),
        ("--k", wl.k),
        ("--wave", wave),
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

fn cmd_serve_bench(args: &[String], fault: Option<FaultSpec>) -> Result<ExitCode, UsageError> {
    let flags = Flags::parse(
        args,
        &["--smoke", "--no-cache", "--pack", "--no-pack"],
        &[
            "--clients",
            "--queries",
            "--corpora",
            "--shared-ratio",
            "--large-ratio",
            "--m",
            "--n",
            "--k",
            "--h",
            "--seed",
            "--devices",
            "--wave",
            "--backend",
            "--lifecycle-faults",
            "--link-faults",
            "--energy-budget",
            "--json",
        ],
    )?;
    let base = if flags.has("--smoke") {
        smoke_workload()
    } else {
        WorkloadConfig::default()
    };
    let wl = WorkloadConfig {
        clients: flags.get("--clients", base.clients)?,
        queries_per_client: flags.get("--queries", base.queries_per_client)?,
        corpora: flags.get("--corpora", base.corpora)?,
        shared_ratio: flags.get("--shared-ratio", base.shared_ratio)?,
        large_ratio: flags.get("--large-ratio", base.large_ratio)?,
        m: flags.get("--m", base.m)?,
        n: flags.get("--n", base.n)?,
        k: flags.get("--k", base.k)?,
        h: flags.get("--h", base.h)?,
        seed: flags.get("--seed", base.seed)?,
        ..base
    };
    let backend = match flags.opt("--backend").unwrap_or("gpu-fused") {
        "cpu-fused" => ServeBackend::CpuFused,
        "gpu-fused" => ServeBackend::GpuFused { cpu_fallback: true },
        "gpu-resilient" => ServeBackend::GpuResilient,
        other => {
            return Err(UsageError(format!(
                "unknown serve backend {other} (try cpu-fused, gpu-fused, gpu-resilient)"
            )))
        }
    };
    let mut device = serve_device();
    device.fault = fault;
    let mut cfg = ServeConfig {
        backend,
        device,
        wave: flags.get("--wave", 4)?,
        enable_plan_cache: !flags.has("--no-cache"),
        pack: flags.last_of(&["--pack", "--no-pack"]) == Some("--pack"),
        ..ServeConfig::default()
    };
    let devices: usize = flags.get("--devices", 0)?;
    if flags.has("--devices") && devices == 0 {
        return Err(UsageError("--devices needs at least 1 device".into()));
    }
    if let Some(budget) = flags.parsed::<f64>("--energy-budget")? {
        if budget <= 0.0 || budget.is_nan() {
            return Err(UsageError("--energy-budget must be positive".into()));
        }
        cfg.energy_budget_j = Some(budget);
        // The downshift target for shapes without a tuned pick: the
        // default's bit-compatibility class with taller microtile rows
        // (fewer threads, more register reuse), so routing never
        // changes result bits.
        cfg.low_power = Some(TileGeometry {
            micro_m: 16,
            ..TileGeometry::paper_default()
        });
    }
    let lifecycle = flags
        .opt("--lifecycle-faults")
        .map(LifecycleSpec::parse)
        .transpose()
        .map_err(|e| UsageError(format!("invalid --lifecycle-faults spec: {e}")))?;
    let link_fault = flags
        .opt("--link-faults")
        .map(LinkFaultSpec::parse)
        .transpose()
        .map_err(|e| UsageError(format!("invalid --link-faults spec: {e}")))?;
    check_serve_sizes(&wl, cfg.wave)?;
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
    outln!(
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
    let (_, report, _) = serve_backlog(cfg, &generate_queries(&wl));
    let wall = t.elapsed();
    outln!(
        "submitted {} | accepted {} | rejected {} | completed {} | expired {} | shed {} | failed {}",
        report.submitted,
        report.accepted,
        report.rejected,
        report.completed,
        report.expired,
        report.shed,
        report.failed
    );
    outln!(
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
    outln!(
        "queue high water {} | fallbacks {} | wall {wall:?}",
        report.queue_high_water,
        report.fallbacks
    );
    outln!(
        "replay memo: {} hits / {} misses / {} retired",
        report.replay_memo.hits,
        report.replay_memo.misses,
        report.replay_memo.retired
    );
    outln!(
        "launches {} | packed launches {} carrying {} segments",
        report.launches,
        report.packed_launches,
        report.packed_segments
    );
    outln!(
        "energy {:.3} mJ | {:.3} uJ/query | {} budget downshifts",
        report.energy_j * 1e3,
        report.j_per_query() * 1e6,
        report.energy_downshifts
    );
    if report.attempts > report.batches
        || report.corruption_detected > 0
        || report.injected_faults > 0
    {
        outln!(
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
        outln!(
            "pool: {} devices | {} shard tasks | sim time {:.3} ms | \
             {} CPU shard recoveries | breaker trips {}",
            pool.devices.len(),
            pool.shard_tasks,
            pool.sim_time_s * 1e3,
            pool.total_fallbacks(),
            pool.total_trips(),
        );
        if pool.total_evictions() > 0 || pool.total_readmissions() > 0 {
            outln!(
                "pool health: {} evictions | {} readmissions",
                pool.total_evictions(),
                pool.total_readmissions(),
            );
        }
        for d in &pool.devices {
            outln!(
                "  {}: {} executed, {} gpu / {} cpu shards, \
                 shard cache {} hits / {} misses, {} B transferred",
                d.name,
                d.executed,
                d.gpu_shards,
                d.cpu_fallbacks,
                d.plan_cache.hits,
                d.plan_cache.misses,
                d.transfer_bytes,
            );
            if d.lifecycle_hangs + d.lifecycle_losses + d.evictions > 0 {
                outln!(
                    "    lifecycle: {} hang / {} loss epochs | {} evictions, {} readmissions",
                    d.lifecycle_hangs,
                    d.lifecycle_losses,
                    d.evictions,
                    d.readmissions,
                );
            }
            if d.link_crc_detected + d.link_retransmits + d.link_timeouts > 0 {
                outln!(
                    "    link: {} crc detections, {} retransmits, {} timeouts",
                    d.link_crc_detected,
                    d.link_retransmits,
                    d.link_timeouts,
                );
            }
        }
    }
    let metrics = ServeMetrics::collect(&report, &device);
    if let Some(gpu) = &metrics.gpu {
        outln!(
            "gpu: {} kernels, sim time {:.3} ms, {} DRAM transactions, {:.3} mJ",
            gpu.profile.kernels.len(),
            gpu.time_s * 1e3,
            gpu.dram_transactions,
            gpu.energy.total_j() * 1e3
        );
    }
    Ok(write_all(&[(flags.opt("--json"), metrics.to_json())]))
}

fn cmd_tune(args: &[String]) -> Result<ExitCode, UsageError> {
    let flags = Flags::parse(args, &["--smoke"], &["--seed", "--json"])?;
    let mut cfg = TuneConfig::smoke(DeviceConfig::gtx970());
    cfg.seed = flags.get("--seed", cfg.seed)?;
    if flags.has("--smoke") {
        cfg.train_shapes = vec![
            ProblemShape::new(1024, 1024, 32),
            ProblemShape::new(512, 512, 32),
            ProblemShape::new(256, 256, 64),
        ];
        cfg.pick_shapes = vec![
            ProblemShape::new(1024, 1024, 32),
            ProblemShape::new(256, 256, 64),
        ];
    }
    outln!(
        "tuning {} geometries x {} training shapes on a simulated {}",
        TileGeometry::lattice(&cfg.device).len(),
        cfg.train_shapes.len(),
        cfg.device.name
    );
    let t = Instant::now();
    let out = tune(&cfg);
    outln!(
        "{} admitted, {} rejected, {} profiled samples in {:?}",
        out.admitted.len(),
        out.rejected.len(),
        out.samples.len(),
        t.elapsed()
    );
    outln!(
        "fit: {} train / {} holdout, time err mape {:.4} max {:.4},          energy err mape {:.4} max {:.4}",
        out.fit.train_count,
        out.fit.holdout_count,
        out.fit.holdout_mape_time,
        out.fit.holdout_max_rel_time,
        out.fit.holdout_mape_energy,
        out.fit.holdout_max_rel_energy
    );
    for r in &out.rejected {
        outln!("  rejected {} at {}: {}", r.geometry, r.stage, r.reason);
    }
    outln!("picks (model-only, paper default wins near-ties):");
    for p in &out.picks {
        let low = p
            .choice
            .low_power
            .map_or(String::new(), |g| format!(" (low-power {g})"));
        outln!(
            "  {}x{}x{}: {} pred {:.3e} s / {:.3e} J{low}",
            p.m,
            p.n,
            p.k,
            p.choice.geometry,
            p.choice.pred_time_s,
            p.choice.pred_energy_j
        );
    }
    Ok(write_all(&[(flags.opt("--json"), to_json(&out.picks))]))
}

/// Parses the global flags, valid anywhere on the line, and runs the
/// command.
fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    let (globals, args) = Flags::extract(args, &["--threads", "--faults"])?;
    let threads: Option<usize> = globals.parsed("--threads")?;
    if threads == Some(0) {
        return Err(UsageError("--threads must be >= 1".into()));
    }
    let fault = globals
        .opt("--faults")
        .map(FaultSpec::parse)
        .transpose()
        .map_err(|e| UsageError(format!("invalid --faults spec: {e}")))?;
    let Some((cmd, rest)) = args.split_first() else {
        eoutln!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    let run = || -> Result<ExitCode, UsageError> {
        match cmd.as_str() {
            "lint" => cmd_lint(rest),
            "serve-bench" => cmd_serve_bench(rest, fault),
            "tune" => cmd_tune(rest),
            "solve" => cmd_solve(&Args::parse(rest)?, fault),
            "profile" => cmd_profile(&Args::parse(rest)?, fault),
            "compare" => cmd_compare(&Args::parse(rest)?, fault),
            other => Err(UsageError(format!("unknown command {other}"))),
        }
    };
    match threads {
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .map_err(|e| UsageError(format!("cannot build thread pool: {e}")))?
            .install(run),
        None => run(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|e| {
        eoutln!("error: {}", e.0);
        eoutln!("{USAGE}");
        ExitCode::from(2)
    })
}
