//! Seeded lifecycle + link-fault soak of the self-healing device pool
//! (`BENCH_chaos_pool.json`).
//!
//! Three passes over one deterministic query stream:
//!
//! 1. **Chaos** — a 4-device pool with a flapping member (certain
//!    hang, certain recovery: it alternates sick/healthy every epoch)
//!    and a second member behind a lossy link (corruption + timeouts).
//!    Every completion is checked against the CPU fused reference;
//!    anything outside tolerance without a surfaced error is
//!    **silently wrong** and fails the soak. The health loop must
//!    actually cycle (evictions > 0 *and* readmissions > 0), no shard
//!    may be dropped across drain/evict/readmit (`executed` summed
//!    over devices equals the coordinator's dispatch count), and the
//!    brownout accounting identity must hold.
//! 2. **Degraded throughput** — the same pool with one member
//!    permanently lost at epoch one. After eviction the survivors
//!    carry the stream; simulated serving time is gated at ≥ 2× the
//!    single-device baseline.
//! 3. **Quiet** — lifecycle and link specs present but all-zero must
//!    serve bit-identically to spec-free serving, with every
//!    fault counter untouched.
//!
//! ```text
//! ks-bench chaos-pool [--smoke] [--queries N] [--seed S] [--json PATH]
//! ```
//!
//! * default stream: 240 queries; `--smoke`: 96 (CI-sized);
//! * `--seed S`: master seed of the workload and both fault schedules
//!   (default 42);
//! * `--json PATH`: write the [`ChaosPoolMetrics`] document.

use std::process::ExitCode;
use std::time::Instant;

use ks_bench::cli::{Flags, Gates, UsageError};
use ks_bench::eoutln;
use ks_bench::metrics::SCHEMA_VERSION;
use ks_gpu_sim::config::{DeviceConfig, Interconnect};
use ks_gpu_sim::{LifecycleSpec, LinkFaultSpec};
use ks_serve::{
    generate_queries, serve_backlog, HealthConfig, PoolConfig, PoolDevice, Query, ServeBackend,
    ServeConfig, ServeReport, WorkloadConfig,
};
use serde::Serialize;

use super::{accounting_holds, check_against_reference, pool_report, same_outcomes, Outcome};

const DEVICES: usize = 4;
/// Index of the flapping member (chaos pass) / lost member
/// (throughput pass).
const SICK: usize = 1;
/// Index of the member behind the lossy link (chaos pass).
const LOSSY: usize = 2;

/// The `chaos-pool` document (`BENCH_chaos_pool.json`): a seeded
/// lifecycle + link-fault soak over the sharded device pool. Three
/// passes share one stream: a **chaos** pass with a flapping device
/// and a faulted link (the headline gates are
/// `silent_wrong == 0`, no dropped shards, and the evict/readmit loop
/// actually cycling), a **degraded throughput** pass with one device
/// permanently lost (gated at ≥ 2× the single-device simulated
/// throughput), and a **quiet** pass proving that all-zero fault
/// specs leave serving bit-identical to spec-free serving.
#[derive(Debug, Serialize)]
pub struct ChaosPoolMetrics {
    /// Export schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Master seed of the workload and both fault schedules.
    pub seed: u64,
    /// Devices in the pool.
    pub devices: u64,
    /// Queries in the stream (each pass serves the same stream).
    pub queries: u64,
    /// Chaos pass: queries that produced a result.
    pub completed: u64,
    /// Chaos pass: queries shed by the deadline-aware brownout.
    pub shed: u64,
    /// Chaos pass: queries that missed their deadline.
    pub expired: u64,
    /// Chaos pass: queries failed with a surfaced error.
    pub failed: u64,
    /// Completions outside the GPU tolerance of the CPU reference
    /// with no surfaced error. The soak fails unless this is zero.
    pub silent_wrong: u64,
    /// Chaos pass: health-driven device evictions (must be > 0).
    pub evictions: u64,
    /// Chaos pass: probe-success readmissions (must be > 0).
    pub readmissions: u64,
    /// Chaos pass: lifecycle hang epochs observed at launch time.
    pub lifecycle_hangs: u64,
    /// Chaos pass: lifecycle loss epochs observed at launch time.
    pub lifecycle_losses: u64,
    /// Chaos pass: link transfers whose CRC caught a corruption.
    pub link_crc_detected: u64,
    /// Chaos pass: link retransmits charged for those corruptions.
    pub link_retransmits: u64,
    /// Chaos pass: link transfers that timed out (shard fails over).
    pub link_timeouts: u64,
    /// Chaos pass: shard tasks dispatched by the coordinator.
    pub shards_dispatched: u64,
    /// Chaos pass: shard tasks executed across the pool's devices.
    /// Equal to `shards_dispatched` — a drained shard is re-served,
    /// never dropped.
    pub shards_executed: u64,
    /// Chaos pass: shards recovered on the bit-exact CPU path.
    pub cpu_fallbacks: u64,
    /// `submitted == accepted + rejected` and
    /// `accepted == completed + expired + shed + failed` both held.
    pub accounting_consistent: bool,
    /// Throughput pass: simulated serving time of the 1-device pool.
    pub single_sim_time_s: f64,
    /// Throughput pass: simulated serving time of the `devices`-sized
    /// pool with one member permanently lost (and evicted).
    pub degraded_sim_time_s: f64,
    /// `single_sim_time_s / degraded_sim_time_s` (gated at ≥ 2).
    pub degraded_speedup: f64,
    /// Quiet pass: all-zero lifecycle + link specs produced results
    /// bit-identical to spec-free serving with untouched counters.
    pub quiet_bit_identical: bool,
    /// All gates held.
    pub gates_passed: bool,
    /// Host wall time of all passes, in milliseconds
    /// (nondeterministic — informational only).
    pub wall_time_ms: f64,
}

/// `n` quiet GTX970 members on `interconnect`.
fn members(n: usize, interconnect: Interconnect) -> Vec<PoolDevice> {
    (0..n)
        .map(|_| PoolDevice {
            device: DeviceConfig::gtx970(),
            interconnect: interconnect.clone(),
            lifecycle: None,
        })
        .collect()
}

/// Serves the stream through one pool of `devices` with one batch
/// per query, so every batch advances a health epoch.
fn serve_pooled(
    devices: Vec<PoolDevice>,
    health: HealthConfig,
    stream: &[Query],
) -> (Vec<Outcome>, ServeReport) {
    let cfg = ServeConfig {
        backend: ServeBackend::GpuFused { cpu_fallback: true },
        wave: 1,
        pool: Some(PoolConfig {
            devices,
            queue_capacity: stream.len(),
            plan_cache_capacity: 8,
            shard_align: 128,
            health,
        }),
        ..ServeConfig::default()
    };
    let (outcomes, report, _) = serve_backlog(cfg, stream);
    (outcomes, report)
}

/// Runs the chaos, degraded-throughput and quiet passes and gates
/// them.
pub fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    let flags = Flags::parse(args, &["--smoke"], &["--queries", "--seed", "--json"])?;
    let smoke = flags.has("--smoke");
    let seed = flags.get("--seed", 42u64)?;
    let queries = flags.size("--queries", if smoke { 96 } else { 240 }, 1)?;

    // Corpora sized so a 4-device pool shards every batch across all
    // members (640 rows = five 128-row tiles).
    let wl = WorkloadConfig {
        clients: 1,
        queries_per_client: queries,
        corpora: 2,
        shared_ratio: 0.9,
        large_ratio: 0.0,
        m: 640,
        n: 96,
        k: 8,
        h: 1.0,
        deadline: None,
        seed,
    };
    let stream = generate_queries(&wl);
    let t0 = Instant::now();

    // ---- Pass 1: chaos ------------------------------------------------
    let mut devices = members(DEVICES, Interconnect::pcie3_x16());
    devices[SICK].lifecycle = Some(LifecycleSpec {
        seed: seed ^ 0xF1A9,
        hang_rate: 1.0,
        recover_rate: 1.0,
        ..LifecycleSpec::default()
    });
    devices[LOSSY].interconnect.fault = Some(LinkFaultSpec {
        seed: seed ^ 0x11F7,
        corrupt_rate: 0.3,
        timeout_rate: 0.1,
    });
    let health = HealthConfig {
        evict_threshold: 1,
        // Odd cooldown: probes land on the flapper's healthy parity.
        probe_cooldown: 3,
    };
    let (outcomes, report) = serve_pooled(devices, health, &stream);
    let silent_wrong = check_against_reference(&stream, &outcomes).silent_wrong;
    let pool = pool_report(&report);
    let shards_executed: u64 = pool.devices.iter().map(|d| d.executed).sum();
    let evictions = pool.total_evictions();
    let readmissions = pool.total_readmissions();
    let lifecycle_hangs: u64 = pool.devices.iter().map(|d| d.lifecycle_hangs).sum();
    let lifecycle_losses: u64 = pool.devices.iter().map(|d| d.lifecycle_losses).sum();
    let link_crc_detected: u64 = pool.devices.iter().map(|d| d.link_crc_detected).sum();
    let link_retransmits: u64 = pool.devices.iter().map(|d| d.link_retransmits).sum();
    let link_timeouts = pool.total_link_timeouts();
    let cpu_fallbacks = pool.total_fallbacks();
    let accounting_consistent = accounting_holds(&report);

    // ---- Pass 2: degraded throughput ----------------------------------
    // A compute-dominated stream (big corpus, few queries): at small
    // `M` the per-transfer link latency sets the pace and pool size
    // barely moves simulated time, which would make the gate
    // meaningless.
    let throughput_wl = WorkloadConfig {
        clients: 1,
        queries_per_client: if smoke { 12 } else { 20 },
        corpora: 1,
        shared_ratio: 1.0,
        large_ratio: 0.0,
        m: 32_768,
        n: 128,
        k: 16,
        h: 1.0,
        deadline: None,
        seed: seed ^ 0x7492,
    };
    let throughput_stream = generate_queries(&throughput_wl);
    // Throughput-pass devices sit on the fast fabric: at `r = 1` per
    // batch the PCIe setup latency is a fixed per-shard charge that
    // pool size cannot amortize, and the gate would measure the link,
    // not the pool.
    let mut degraded = members(DEVICES, Interconnect::nvlink());
    degraded[SICK].lifecycle = Some(LifecycleSpec {
        seed: seed ^ 0xDEAD,
        loss_rate: 1.0, // lost at the first epoch, absorbing
        ..LifecycleSpec::default()
    });
    let never_probe = HealthConfig {
        evict_threshold: 1,
        probe_cooldown: u64::MAX / 2,
    };
    let (_, degraded_report) = serve_pooled(degraded, never_probe, &throughput_stream);
    let (_, single_report) = serve_pooled(
        members(1, Interconnect::nvlink()),
        HealthConfig::default(),
        &throughput_stream,
    );
    let degraded_sim_time_s = pool_report(&degraded_report).sim_time_s;
    let single_sim_time_s = pool_report(&single_report).sim_time_s;
    let degraded_speedup = single_sim_time_s / degraded_sim_time_s;

    // ---- Pass 3: quiet specs are exactly inert ------------------------
    let mut quiet_specced = members(DEVICES, Interconnect::pcie3_x16());
    for d in &mut quiet_specced {
        d.lifecycle = Some(LifecycleSpec {
            seed,
            ..LifecycleSpec::default() // all-zero rates
        });
        d.interconnect.fault = Some(LinkFaultSpec {
            seed: seed ^ 0x1,
            corrupt_rate: 0.0,
            timeout_rate: 0.0,
        });
    }
    let (specced_out, specced_report) =
        serve_pooled(quiet_specced, HealthConfig::default(), &stream);
    let (bare_out, _) = serve_pooled(
        members(DEVICES, Interconnect::pcie3_x16()),
        HealthConfig::default(),
        &stream,
    );
    let specced_pool = pool_report(&specced_report);
    let quiet_counters_untouched = specced_pool.total_evictions() == 0
        && specced_pool.total_link_timeouts() == 0
        && specced_pool.devices.iter().all(|d| {
            d.lifecycle_hangs == 0
                && d.lifecycle_losses == 0
                && d.link_crc_detected == 0
                && d.link_retransmits == 0
        });
    let quiet_bit_identical = quiet_counters_untouched
        && specced_out.iter().all(Result::is_ok)
        && same_outcomes(&specced_out, &bare_out);

    let wall_time_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut gates = Gates::default();
    gates.check(silent_wrong == 0, "zero silently-wrong results");
    gates.check(report.failed == 0, "the pool never fails a batch");
    gates.check(
        shards_executed == pool.shard_tasks,
        "no shard dropped across drain/evict/readmit",
    );
    gates.check(evictions >= 1, "the flapping device is evicted");
    gates.check(readmissions >= 1, "the flapping device is readmitted");
    gates.check(
        link_crc_detected >= 1 && link_retransmits >= 1,
        "the lossy link trips the CRC ledger",
    );
    gates.check(accounting_consistent, "brownout accounting identity");
    gates.check(
        degraded_speedup >= 2.0,
        "degraded pool sustains 2x single-device throughput",
    );
    gates.check(quiet_bit_identical, "quiet specs are exactly inert");

    let metrics = ChaosPoolMetrics {
        schema_version: SCHEMA_VERSION,
        seed,
        devices: DEVICES as u64,
        queries: stream.len() as u64,
        completed: report.completed,
        shed: report.shed,
        expired: report.expired,
        failed: report.failed,
        silent_wrong,
        evictions,
        readmissions,
        lifecycle_hangs,
        lifecycle_losses,
        link_crc_detected,
        link_retransmits,
        link_timeouts,
        shards_dispatched: pool.shard_tasks,
        shards_executed,
        cpu_fallbacks,
        accounting_consistent,
        single_sim_time_s,
        degraded_sim_time_s,
        degraded_speedup,
        quiet_bit_identical,
        gates_passed: gates.passed(),
        wall_time_ms,
    };

    eoutln!(
        "chaos: {} completed / {} shed / {} expired / {} failed; \
         {} evictions, {} readmissions, {} hang epochs; \
         link: {} crc / {} retransmits / {} timeouts; {} CPU-recovered shards",
        report.completed,
        report.shed,
        report.expired,
        report.failed,
        evictions,
        readmissions,
        lifecycle_hangs,
        link_crc_detected,
        link_retransmits,
        link_timeouts,
        cpu_fallbacks,
    );
    eoutln!(
        "throughput: single {single_sim_time_s:.4}s sim vs degraded {degraded_sim_time_s:.4}s \
         sim = {degraded_speedup:.2}x"
    );
    if gates.passed() {
        eoutln!(
            "chaos pool soak passed in {wall_time_ms:.0} ms: zero silently-wrong results, \
             no dropped shards, evict/readmit cycled, {degraded_speedup:.2}x degraded throughput"
        );
    }
    Ok(gates.finish(&metrics, flags.opt("--json")))
}
