//! The batch server: bounded submission, coalescing worker, tickets.
//!
//! Producers [`Server::submit`] queries into a [`BoundedQueue`]; a
//! single worker thread drains them in *waves*, groups queries that
//! share `(source-set id, h, target set)` into one multi-weight fused
//! solve, resolves the `A`-side plan through the LRU [`PlanCache`],
//! and fulfils per-query [`Ticket`]s. Backpressure is explicit: a full
//! queue returns [`Submit::Rejected`] with the query handed back.
//!
//! Failure policy: queries whose deadline has passed at dequeue time
//! complete with [`ServeError::DeadlineExpired`], and completed
//! batches re-check deadlines at fulfilment (`expired_in_batch`).
//!
//! Resilience: every batch — unpooled or a pool shard, alone or as a
//! packed segment — runs down the one degradation ladder (`ladder`
//! module, DESIGN.md §11), whose budget the backend fixes: one GPU
//! attempt falling back to the bit-deterministic CPU fused path
//! (`cpu_fallback`, the default) or surfacing as
//! [`ServeError::Launch`]; or, on [`ServeBackend::GpuResilient`],
//! ABFT-verified GPU → unverified GPU → CPU fused with bounded retries
//! (exponential backoff, deterministic jitter) and a circuit breaker
//! (see [`ResilienceConfig`]). Lock poisoning never cascades: a
//! panicked worker is drained into explicit [`ServeError::Internal`]
//! completions at shutdown.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ks_core::plan::{SourcePlan, SourceSet};
use ks_core::problem::PointSet;
use ks_core::FusedCpuConfig;
use ks_energy::{pipeline_energy, EnergyParams};
use ks_gpu_kernels::{TileGeometry, FUSED_MULTI_PIPELINE};
use ks_gpu_sim::config::DeviceConfig;
use ks_gpu_sim::fault::DevicePhase;
use ks_gpu_sim::kernel::LaunchError;
use ks_gpu_sim::profiler::PipelineProfile;
use ks_gpu_sim::{ReplayMemo, ReplayMemoStats};

use crate::admission::{self, AdmissionKey, AdmissionStats};
use crate::cache::{GeometryStats, PlanCache, PlanCacheStats, PlanKey};
use crate::executor::MAX_GPU_BATCH;
use crate::ladder::{Breaker, Budget, DeviceSlot, Ladder, LaunchUnit, Rung, Segment, SimLauncher};
use crate::packed;
use crate::pool::{DevicePool, PoolConfig, PoolReport};
use crate::queue::BoundedQueue;

/// One kernel-summation request: evaluate the Gaussian sum over
/// `sources` at bandwidth `h`, weighted by one weight per target.
#[derive(Debug, Clone)]
pub struct Query {
    /// The corpus (`A`); queries sharing a corpus handle coalesce.
    pub sources: SourceSet,
    /// The targets (`B`); shared via `Arc` so coalescing can test
    /// identity instead of comparing coordinates.
    pub targets: Arc<PointSet>,
    /// One weight per target (the query's column of `W`).
    pub weights: Vec<f32>,
    /// Gaussian bandwidth.
    pub h: f32,
    /// Drop the query (with [`ServeError::DeadlineExpired`]) if it is
    /// still queued past this instant.
    pub deadline: Option<Instant>,
}

/// Why a query completed without a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The query was still queued when its deadline passed.
    DeadlineExpired,
    /// Deadline-aware brownout: the wave was running behind and the
    /// query's deadline fell before its chunk's projected start, so it
    /// was shed instead of being executed only to expire.
    Shed,
    /// The GPU launch failed and CPU fallback was disabled.
    Launch(LaunchError),
    /// The server shut down before the query was executed.
    ShutDown,
    /// The server hit an internal failure (e.g. a panicked worker
    /// thread) and drained the query instead of cascading the panic.
    Internal(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::DeadlineExpired => write!(f, "deadline expired before execution"),
            ServeError::Shed => write!(f, "shed by deadline-aware brownout"),
            ServeError::Launch(e) => write!(f, "GPU launch failed: {e}"),
            ServeError::ShutDown => write!(f, "server shut down before execution"),
            ServeError::Internal(why) => write!(f, "internal server error: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

struct TicketInner {
    result: Mutex<Option<Result<Vec<f32>, ServeError>>>,
    done: Condvar,
}

/// A handle to one submitted query's eventual result.
#[derive(Clone)]
pub struct Ticket {
    inner: Arc<TicketInner>,
}

impl Ticket {
    fn new() -> Self {
        Self {
            inner: Arc::new(TicketInner {
                result: Mutex::new(None),
                done: Condvar::new(),
            }),
        }
    }

    // All ticket locks recover from poisoning instead of propagating
    // the panic: the critical sections only move an `Option` in or
    // out, so a poisoned slot is still structurally sound — the Err
    // completions a dying worker leaves behind must reach waiters,
    // not abort them.
    fn fulfil(&self, r: Result<Vec<f32>, ServeError>) {
        let mut g = self
            .inner
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if g.is_none() {
            *g = Some(r);
        }
        drop(g);
        self.inner.done.notify_all();
    }

    /// Blocks until the query completes; returns the potential vector
    /// `V ∈ R^M` or the failure.
    ///
    /// # Errors
    /// The query's [`ServeError`] when it did not produce a result.
    pub fn wait(&self) -> Result<Vec<f32>, ServeError> {
        let mut g = self
            .inner
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(r) = g.take() {
                return r;
            }
            g = self
                .inner
                .done
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking check; consumes the result if present.
    pub fn try_take(&self) -> Option<Result<Vec<f32>, ServeError>> {
        self.inner
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// Outcome of [`Server::submit`].
pub enum Submit {
    /// Queued; await the ticket.
    Accepted(Ticket),
    /// Backpressure: the queue was full (or closing) and the query is
    /// handed back untouched.
    Rejected(Box<Query>),
}

/// Which execution path serves batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeBackend {
    /// Cache-blocked fused CPU solver (bit-deterministic).
    CpuFused,
    /// Simulated-GPU fused multi-weight pipeline.
    GpuFused {
        /// Retry a failed launch on the CPU fused path instead of
        /// failing the batch's queries.
        cpu_fallback: bool,
    },
    /// The resilient ladder: ABFT-verified GPU with bounded retries
    /// and a circuit breaker, degrading through unverified GPU to the
    /// bit-deterministic CPU fused safe harbor. Policy lives in
    /// [`ServeConfig::resilience`].
    GpuResilient,
}

/// Deterministic worker-fault injection for testing poison recovery.
/// Launch faults are injected through the device's
/// [`ks_gpu_sim::FaultSpec`] instead (e.g. `watchdog_rate: 1.0` fails
/// every launch), pooled and unpooled alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// No injected faults.
    None,
    /// The first GPU-capable batch panics the worker thread before it
    /// is dispatched, pooled or not (a stand-in for a GPU software
    /// bug, exercising poison recovery end to end).
    PanicFirst,
}

/// Retry, backoff and circuit-breaker policy of
/// [`ServeBackend::GpuResilient`]. The breaker settings also govern
/// the breaker of every other backend that has a CPU harbor.
///
/// Pooled serving (`--devices N`) keeps its budget of one GPU attempt
/// per shard or packed sub-wave whatever `gpu_attempts` says: a sick
/// shard goes straight to the CPU harbor, no backoff and no unverified
/// rung (DESIGN.md §11–§12). Retrying shards would spend extra GPU
/// attempts per query on a faulty pool; `verify` and the breaker
/// settings still apply.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Launch attempts on the top GPU rung before degrading (≥ 1;
    /// unpooled only).
    pub gpu_attempts: u32,
    /// Base backoff delay; retry `a` sleeps `base·2^a` plus a
    /// deterministic jitter of up to one `base` (see
    /// [`backoff_delay`]).
    pub backoff_base: Duration,
    /// Seed of the deterministic jitter hash.
    pub backoff_seed: u64,
    /// Consecutive GPU-attempt failures that trip the breaker open.
    pub breaker_threshold: u32,
    /// Batches the breaker stays open before probing half-open.
    pub breaker_cooldown: u64,
    /// Run the top rung through the checksum-augmented (ABFT)
    /// pipeline. Off, the ladder starts at unverified GPU.
    pub verify: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            gpu_attempts: 3,
            backoff_base: Duration::from_micros(100),
            backoff_seed: 0x5EED,
            breaker_threshold: 3,
            breaker_cooldown: 4,
            verify: true,
        }
    }
}

/// SplitMix64: the jitter/decorrelation hash. Full-avalanche, so
/// nearby (batch, attempt) pairs give unrelated draws.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic backoff schedule: before retry `attempt`
/// (1-based) of `batch`, the worker sleeps
/// `base·2^min(attempt,10) + base·jitter/256` where `jitter ∈ 0..256`
/// is a `splitmix64` hash of `(seed, batch, attempt)`. Pure in its
/// inputs — a fixed seed replays the exact schedule — and strictly
/// increasing in `attempt` up to the `2^10` clamp (the jitter never
/// exceeds one doubling).
#[must_use]
pub fn backoff_delay(rc: &ResilienceConfig, batch: u64, attempt: u32) -> Duration {
    let exp = 1u32 << attempt.min(10);
    let h = splitmix64(
        rc.backoff_seed
            ^ batch.rotate_left(17)
            ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let jitter = (h % 256) as u32;
    rc.backoff_base * exp + rc.backoff_base * jitter / 256
}

/// One tuned geometry decision the server may apply: batches whose
/// raw `(M, N, K)` shape matches use `geometry` instead of the
/// config-wide default, and — under an energy budget — may downshift
/// to `low_power`, which must be bit-compatible with `geometry` so
/// routing never changes a result bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometryPick {
    /// Raw (unpadded) source count this pick applies to.
    pub m: usize,
    /// Raw target count.
    pub n: usize,
    /// Raw point dimension.
    pub k: usize,
    /// The winning geometry for this shape.
    pub geometry: TileGeometry,
    /// Optional lower-energy variant from the same bit-compatibility
    /// class (validated at [`Server::start`]).
    pub low_power: Option<TileGeometry>,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Submission queue bound (backpressure threshold).
    pub queue_capacity: usize,
    /// Maximum queries drained per scheduling wave.
    pub wave: usize,
    /// Maximum queries coalesced into one solve (clamped to
    /// [`MAX_GPU_BATCH`] on the GPU backend).
    pub max_batch: usize,
    /// LRU plan-cache capacity (plans, not bytes).
    pub plan_cache_capacity: usize,
    /// Disable to rebuild the plan for every batch (ablation).
    pub enable_plan_cache: bool,
    /// Execution path.
    pub backend: ServeBackend,
    /// Device model for unpooled GPU batches (a fresh device per
    /// attempt, so per-batch DRAM accounting is independent).
    pub device: DeviceConfig,
    /// CPU fused-solver blocking.
    pub cpu: FusedCpuConfig,
    /// Statically lint the exact kernel a GPU batch would launch
    /// before its first attempt (see [`crate::admission`]); a proof
    /// failure serves the batch on the bit-exact CPU path instead.
    /// Verdicts are memoized by launch geometry alongside the plan
    /// cache, so warm shapes pay one hash lookup.
    pub static_lint: bool,
    /// Injected worker faults (tests only).
    pub fault_injection: FaultInjection,
    /// Retry/backoff/breaker policy of the resilient backend.
    pub resilience: ResilienceConfig,
    /// Artificial per-batch latency — a slow consumer for soak tests.
    pub batch_delay: Option<Duration>,
    /// Start with the worker gated; queries queue up until
    /// [`Server::resume`]. Gives tests deterministic batch
    /// composition.
    pub start_paused: bool,
    /// Shard every batch across a pool of simulated devices instead
    /// of the single [`ServeConfig::device`]. Results stay
    /// bit-identical to single-device serving (row-wise sharding is an
    /// exact partition); `None` serves unpooled.
    pub pool: Option<PoolConfig>,
    /// Tile geometry GPU batches launch with when no tuned pick
    /// matches their shape.
    pub geometry: TileGeometry,
    /// Bit-compatible lower-energy fallback for shapes without a
    /// tuned pick: the variant energy-budgeted serving downshifts to
    /// when no [`GeometryPick`] matches the batch. Validated at
    /// [`Server::start`] like a pick's `low_power`.
    pub low_power: Option<TileGeometry>,
    /// Tuned per-shape geometry decisions (typically the `ks-tune`
    /// picks). The resolved winner is memoized per raw batch shape
    /// next to the plan cache.
    pub geometry_picks: Vec<GeometryPick>,
    /// Energy budget in joules per query. When the modelled GPU
    /// energy spent per served query exceeds this, subsequent batches
    /// route to their pick's bit-compatible `low_power` variant —
    /// results stay bit-identical to unbudgeted serving by the
    /// bit-compatibility contract. `None` never downshifts.
    pub energy_budget_j: Option<f64>,
    /// Horizontal fusion: pack mutually-unrelated small GPU batches
    /// from one scheduling wave into a single routed launch (see
    /// [`crate::packed`]). Results stay bit-identical to unpacked
    /// serving; only launch count, occupancy and DRAM traffic change.
    /// Ignored on the CPU backend. Off by default.
    pub pack: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            wave: 16,
            max_batch: MAX_GPU_BATCH,
            plan_cache_capacity: 8,
            enable_plan_cache: true,
            backend: ServeBackend::GpuFused { cpu_fallback: true },
            device: DeviceConfig::gtx970(),
            cpu: FusedCpuConfig::default(),
            static_lint: true,
            fault_injection: FaultInjection::None,
            resilience: ResilienceConfig::default(),
            batch_delay: None,
            start_paused: false,
            pool: None,
            geometry: TileGeometry::paper_default(),
            low_power: None,
            geometry_picks: Vec::new(),
            energy_budget_j: None,
            pack: false,
        }
    }
}

/// End-of-run accounting. `submitted == accepted + rejected` and
/// `accepted == completed + expired + shed + failed` always hold
/// after [`Server::shutdown`] when `internal_errors == 0` (a panicked
/// worker loses its counters; its queries drain as
/// [`ServeError::Internal`]). Batch execution obeys
/// `attempts == batches + retries`: every batch makes exactly one
/// first attempt and each extra attempt — GPU retry, rung
/// degradation, or CPU fallback — counts one retry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Queries offered to [`Server::submit`].
    pub submitted: u64,
    /// Queries that entered the queue.
    pub accepted: u64,
    /// Queries bounced by backpressure.
    pub rejected: u64,
    /// Queries that produced a result.
    pub completed: u64,
    /// Queries dropped for a passed deadline.
    pub expired: u64,
    /// Of `expired`: queries still live at batch assembly that
    /// expired while their own batch executed (re-checked at
    /// fulfilment, never completed as on-time).
    pub expired_in_batch: u64,
    /// Queries shed by the deadline-aware brownout: their deadline
    /// fell before their chunk's projected start in a running-behind
    /// wave, so they were dropped (with [`ServeError::Shed`]) instead
    /// of executed only to expire.
    pub shed: u64,
    /// Resilient-ladder backoff sleeps skipped because the delay
    /// would have overrun every live deadline in the batch — the
    /// ladder short-circuits to the CPU safe harbor instead of
    /// sleeping the batch past its deadlines.
    pub backoff_shortcircuits: u64,
    /// Queries failed with a launch error (no fallback).
    pub failed: u64,
    /// Batches recovered on the CPU after GPU failure (the
    /// `cpu_fallback` path and the resilient ladder's safe harbor).
    pub fallbacks: u64,
    /// Coalesced solves executed.
    pub batches: u64,
    /// Queries served through those solves.
    pub batched_queries: u64,
    /// Batch execution attempts across all rungs and backends.
    pub attempts: u64,
    /// Attempts beyond each batch's first (`attempts - batches`).
    pub retries: u64,
    /// Simulated kernel launches across all completed GPU profiles —
    /// the launch-granularity view `batches` lacks (a cold batch is 3
    /// launches, a warm one 2, a packed wave amortises further).
    pub launches: u64,
    /// Horizontally-fused launches executed (one per packed wave per
    /// device; see [`ServeConfig::pack`]).
    pub packed_launches: u64,
    /// Batches served as segments of those packed launches.
    pub packed_segments: u64,
    /// Queries completed below the configured top rung: on the
    /// unverified GPU rung, or on the CPU harbor after the GPU rungs
    /// failed or were refused (any backend, pooled or not).
    pub degraded_completions: u64,
    /// Verified-GPU attempts whose ABFT checks tripped (the result
    /// was discarded and the attempt retried or degraded).
    pub corruption_detected: u64,
    /// Injected data-fault events (SMEM/register/DRAM flips) observed
    /// in completed GPU batch profiles.
    pub injected_faults: u64,
    /// Completed GPU attempts whose profile recorded injected data
    /// faults and that kept at least one segment's result (its checks,
    /// if any, stayed clean) — masked flips or faults outside ABFT
    /// coverage (see DESIGN.md §11).
    pub undetected_injected: u64,
    /// Circuit-breaker transitions to open.
    pub breaker_trips: u64,
    /// Circuit-breaker recoveries (half-open probe succeeded).
    pub breaker_resets: u64,
    /// Worker-side internal failures (panicked worker drained at
    /// shutdown). Non-zero voids the per-query invariants above.
    pub internal_errors: u64,
    /// Plan-cache counters.
    pub plan_cache: PlanCacheStats,
    /// Static-admission counters (checks computed, memo hits, batches
    /// denied the GPU); all zero when `static_lint` is off or the
    /// backend is CPU-only.
    pub static_admission: AdmissionStats,
    /// Winning-geometry memo counters.
    pub geometry: GeometryStats,
    /// Replay-memo counters, one lookup per keyed launch, summed over
    /// the device slots (the members when pooled). A hit skips the
    /// traffic replay and changes no modelled figure. Host-side
    /// accounting that repeats from run to run: every slot runs its
    /// tasks in a fixed order.
    pub replay_memo: ReplayMemoStats,
    /// Modelled GPU energy across all completed batch profiles,
    /// joules (the energy model over the exact simulated counters).
    pub energy_j: f64,
    /// Batches routed to the low-power bit-compatible variant by the
    /// energy budget.
    pub energy_downshifts: u64,
    /// Deepest queue occupancy observed (≤ configured capacity).
    pub queue_high_water: usize,
    /// One pipeline profile per GPU batch, in execution order (per
    /// GPU shard when pooled).
    pub profiles: Vec<PipelineProfile>,
    /// Per-device pool accounting; `Some` iff serving was pooled.
    pub pool: Option<PoolReport>,
}

impl ServeReport {
    /// Total simulated DRAM transactions across all GPU batches.
    #[must_use]
    pub fn total_dram_transactions(&self) -> u64 {
        self.profiles
            .iter()
            .map(|p| p.total_mem().dram_transactions())
            .sum()
    }

    /// Plan-cache hit rate over batch lookups.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.plan_cache.hit_rate()
    }

    /// Modelled GPU joules per completed query (0 when nothing
    /// completed or no GPU batch ran).
    #[must_use]
    pub fn j_per_query(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.energy_j / self.completed as f64
    }

    /// All per-batch profiles merged into one pipeline (for metrics
    /// export and energy modelling).
    #[must_use]
    pub fn merged_profile(&self) -> PipelineProfile {
        let mut merged = PipelineProfile::new(FUSED_MULTI_PIPELINE);
        for p in &self.profiles {
            merged.kernels.extend(p.kernels.iter().cloned());
            merged.transfers.extend(p.transfers.iter().cloned());
        }
        merged
    }
}

/// Grouping key for coalescing: corpus identity, bit-exact bandwidth,
/// and a **content fingerprint** of the target set. Keying targets on
/// the `Arc` pointer looks attractive but is wrong two ways: equal
/// target sets in separate allocations never coalesce (a missed
/// batching opportunity every multi-client workload hits), and a
/// freed-then-reused allocation address could collide queries with
/// *different* targets into one batch. The fingerprint hashes the
/// coordinate bits; grouping additionally verifies equality against
/// the group's prototype, so a hash collision can only split a batch,
/// never corrupt one.
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
struct BatchKey {
    source: u64,
    h_bits: u32,
    targets: u64,
}

impl BatchKey {
    fn of(q: &Query) -> Self {
        Self {
            source: q.sources.id().raw(),
            h_bits: q.h.to_bits(),
            targets: fingerprint_targets(&q.targets),
        }
    }
}

/// Order-sensitive [`splitmix64`] chain over a target set's shape and
/// coordinate bits.
fn fingerprint_targets(t: &PointSet) -> u64 {
    let mut acc = splitmix64(t.len() as u64 ^ ((t.dim() as u64) << 32));
    for &c in t.coords() {
        acc = splitmix64(acc ^ u64::from(c.to_bits()));
    }
    acc
}

/// Bit-exact target-set equality (pointer fast path). The slow path
/// only runs on a fingerprint match, i.e. almost always on genuinely
/// equal sets.
fn same_targets(a: &Arc<PointSet>, b: &Arc<PointSet>) -> bool {
    Arc::ptr_eq(a, b)
        || (a.len() == b.len()
            && a.dim() == b.dim()
            && a.coords()
                .iter()
                .zip(b.coords())
                .all(|(x, y)| x.to_bits() == y.to_bits()))
}

/// The worker's pause gate.
struct Gate {
    paused: Mutex<bool>,
    resumed: Condvar,
}

impl Gate {
    fn set(&self, paused: bool) {
        *self.paused.lock().unwrap_or_else(PoisonError::into_inner) = paused;
        self.resumed.notify_all();
    }

    /// Blocks while the gate is paused.
    fn wait_open(&self) {
        let mut paused = self.paused.lock().unwrap_or_else(PoisonError::into_inner);
        while *paused {
            paused = self
                .resumed
                .wait(paused)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The batch server. See the module docs.
pub struct Server {
    queue: Arc<BoundedQueue<(Query, Ticket)>>,
    gate: Arc<Gate>,
    worker: Option<JoinHandle<ServeReport>>,
    /// One clone per accepted query, so a panicked worker's in-flight
    /// queries can still be drained with an explicit error at
    /// shutdown (fulfilment is first-write-wins, so completed tickets
    /// are untouched).
    outstanding: Vec<Ticket>,
    submitted: u64,
    accepted: u64,
    rejected: u64,
}

impl Server {
    /// Starts the worker thread.
    ///
    /// # Panics
    /// Panics on a zero queue capacity, wave or batch size, or a zero
    /// plan-cache capacity while the cache is enabled.
    #[must_use]
    pub fn start(cfg: ServeConfig) -> Self {
        assert!(cfg.wave > 0, "wave size must be positive");
        assert!(cfg.max_batch > 0, "batch size must be positive");
        assert!(
            cfg.geometry.feasibility(&cfg.device).is_ok(),
            "configured tile geometry is infeasible on the configured device"
        );
        if let Some(low) = &cfg.low_power {
            assert!(
                low.bit_compatible(&cfg.geometry),
                "configured low-power variant is not bit-compatible with the \
                 configured geometry — energy routing would change result bits"
            );
            assert!(
                low.feasibility(&cfg.device).is_ok(),
                "configured low-power variant is infeasible on the configured device"
            );
        }
        for p in &cfg.geometry_picks {
            assert!(
                p.geometry.feasibility(&cfg.device).is_ok(),
                "pick for {}x{}x{} is infeasible on the configured device",
                p.m,
                p.n,
                p.k
            );
            if let Some(low) = &p.low_power {
                assert!(
                    low.bit_compatible(&p.geometry),
                    "low-power variant for {}x{}x{} is not bit-compatible with its pick \
                     — energy routing would change result bits",
                    p.m,
                    p.n,
                    p.k
                );
                assert!(
                    low.feasibility(&cfg.device).is_ok(),
                    "low-power variant for {}x{}x{} is infeasible on the configured device",
                    p.m,
                    p.n,
                    p.k
                );
            }
        }
        let queue = Arc::new(BoundedQueue::new(cfg.queue_capacity));
        let gate = Arc::new(Gate {
            paused: Mutex::new(cfg.start_paused),
            resumed: Condvar::new(),
        });
        let worker = {
            let queue = Arc::clone(&queue);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || worker_loop(&cfg, &queue, &gate))
        };
        Self {
            queue,
            gate,
            worker: Some(worker),
            outstanding: Vec::new(),
            submitted: 0,
            accepted: 0,
            rejected: 0,
        }
    }

    /// Offers a query. Full queue ⇒ [`Submit::Rejected`] with the
    /// query returned; the caller decides whether to retry.
    ///
    /// # Panics
    /// Panics on a malformed query: empty corpus or target set,
    /// mismatched dimensions or weight count, or a non-finite/
    /// non-positive bandwidth.
    pub fn submit(&mut self, q: Query) -> Submit {
        assert!(!q.sources.is_empty(), "query has an empty corpus");
        assert!(!q.targets.is_empty(), "query has an empty target set");
        assert_eq!(
            q.sources.dim(),
            q.targets.dim(),
            "source/target dimensions differ"
        );
        assert_eq!(
            q.weights.len(),
            q.targets.len(),
            "weights length must equal target count"
        );
        assert!(
            q.h.is_finite() && q.h > 0.0,
            "bandwidth must be finite and positive"
        );
        self.submitted += 1;
        let ticket = Ticket::new();
        match self.queue.try_push((q, ticket.clone())) {
            Ok(()) => {
                self.accepted += 1;
                self.outstanding.push(ticket.clone());
                Submit::Accepted(ticket)
            }
            Err((q, _)) => {
                self.rejected += 1;
                Submit::Rejected(Box::new(q))
            }
        }
    }

    /// Opens the gate of a paused server; the worker starts draining.
    pub fn resume(&self) {
        self.gate.set(false);
    }

    /// Closes the gate: the worker finishes its current wave, then
    /// holds the next one until [`Server::resume`] — even a wave whose
    /// first query it was already waiting for. Everything submitted
    /// while paused therefore drains in deterministic waves, as on a
    /// `start_paused` server.
    pub fn pause(&self) {
        self.gate.set(true);
    }

    /// Closes the queue, drains the backlog, joins the worker and
    /// returns the final accounting.
    ///
    /// A panicked worker does **not** propagate: its queued and
    /// in-flight queries are drained with [`ServeError::Internal`],
    /// the report carries `internal_errors = 1`, and the worker-side
    /// counters are lost (the per-query invariants hold only when
    /// `internal_errors == 0`).
    #[must_use]
    pub fn shutdown(mut self) -> ServeReport {
        self.queue.close();
        self.resume();
        let worker = self.worker.take().expect("worker present until shutdown");
        let mut report = match worker.join() {
            Ok(report) => report,
            Err(_) => {
                while let Some((_, t)) = self.queue.try_pop() {
                    t.fulfil(Err(ServeError::Internal("worker thread panicked")));
                }
                for t in &self.outstanding {
                    t.fulfil(Err(ServeError::Internal("worker thread panicked")));
                }
                ServeReport {
                    internal_errors: 1,
                    ..ServeReport::default()
                }
            }
        };
        report.submitted = self.submitted;
        report.accepted = self.accepted;
        report.rejected = self.rejected;
        report.queue_high_water = self.queue.high_water();
        report
    }

    /// Current queue depth (racy; for monitoring).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(w) = self.worker.take() {
            self.queue.close();
            self.resume();
            let _ = w.join();
        }
    }
}

fn worker_loop(
    cfg: &ServeConfig,
    queue: &BoundedQueue<(Query, Ticket)>,
    gate: &Gate,
) -> ServeReport {
    let mut worker = Worker::new(cfg);
    // EWMA of per-chunk wall time, the brownout's service-rate
    // estimate. Zero until the first wave completes, so nothing is
    // ever shed before a real measurement exists.
    let mut chunk_ewma_s = 0.0f64;
    loop {
        gate.wait_open();
        // One wave: block for the first query, then opportunistically
        // drain up to `wave` total so concurrent arrivals coalesce. A
        // pause that lands while the pop blocks holds the wave until
        // resume, so it drains everything submitted meanwhile.
        let Some(first) = queue.pop_blocking() else {
            break;
        };
        gate.wait_open();
        let mut wave = vec![first];
        while wave.len() < cfg.wave {
            match queue.try_pop() {
                Some(item) => wave.push(item),
                None => break,
            }
        }
        // Group by (corpus, h, targets), preserving arrival order
        // across and within groups. Groups are a Vec, not a map: the
        // wave is small, and membership needs the prototype-equality
        // check (fingerprints alone could collide).
        let mut groups: Vec<(BatchKey, Vec<(Query, Ticket)>)> = Vec::new();
        for (q, t) in wave {
            let key = BatchKey::of(&q);
            match groups
                .iter_mut()
                .find(|(k, g)| *k == key && same_targets(&g[0].0.targets, &q.targets))
            {
                Some((_, g)) => g.push((q, t)),
                None => groups.push((key, vec![(q, t)])),
            }
        }
        let max_batch = match cfg.backend {
            ServeBackend::CpuFused => cfg.max_batch,
            ServeBackend::GpuFused { .. } | ServeBackend::GpuResilient => {
                cfg.max_batch.min(MAX_GPU_BATCH)
            }
        };
        // Split each group into owned max_batch-sized chunks — the
        // wave's unit of execution (and of packing, when enabled).
        let mut chunks: Vec<Vec<(Query, Ticket)>> = Vec::new();
        for (_, group) in groups {
            let mut rest = group;
            while rest.len() > max_batch {
                let tail = rest.split_off(max_batch);
                chunks.push(std::mem::replace(&mut rest, tail));
            }
            chunks.push(rest);
        }
        brownout_shed(&mut chunks, chunk_ewma_s, &mut worker.stats);
        let n_chunks = chunks.len();
        let wave_started = Instant::now();
        worker.serve_wave(chunks);
        if n_chunks > 0 {
            let sample = wave_started.elapsed().as_secs_f64() / n_chunks as f64;
            chunk_ewma_s = if chunk_ewma_s == 0.0 {
                sample
            } else {
                0.7 * chunk_ewma_s + 0.3 * sample
            };
        }
    }
    worker.finish()
}

/// Deadline-aware brownout: with `avg_chunk_s` estimating one chunk's
/// service time, chunk `i` of this wave starts roughly `i·avg` from
/// now. A query whose deadline falls before that projected start is
/// doomed — executing it spends a batch column only to expire at the
/// fulfilment re-check — so it is shed now with [`ServeError::Shed`].
/// Chunk 0 starts immediately and is never shed; queries already past
/// their deadline are left for the dequeue check so they count as
/// `expired`, not `shed`; and with no measurement yet (`avg == 0`)
/// nothing sheds.
fn brownout_shed(chunks: &mut [Vec<(Query, Ticket)>], avg_chunk_s: f64, stats: &mut ServeReport) {
    if avg_chunk_s <= 0.0 {
        return;
    }
    let now = Instant::now();
    for (i, chunk) in chunks.iter_mut().enumerate().skip(1) {
        let projected = now + Duration::from_secs_f64(avg_chunk_s * i as f64);
        chunk.retain(|(q, t)| match q.deadline {
            Some(d) if d > now && d < projected => {
                t.fulfil(Err(ServeError::Shed));
                stats.shed += 1;
                false
            }
            _ => true,
        });
    }
}

/// One chunk after plan resolution and admission, ready to serve
/// alone or as a packed segment. Expired queries were already
/// fulfilled during preparation.
struct PreparedChunk {
    live: Vec<(Query, Ticket)>,
    segment: Segment,
    admitted: bool,
}

/// The worker thread's state: the plan cache, the pool (when pooled),
/// the unpooled slot's breaker and replay memo, the ladders and the
/// counters.
struct Worker<'a> {
    cfg: &'a ServeConfig,
    cache: PlanCache,
    pool: Option<DevicePool>,
    breaker: Breaker,
    memo: Arc<ReplayMemo>,
    /// The unpooled ladder of the configured backend.
    ladder: Ladder,
    /// The ladder of batches static admission denied the GPU.
    cpu: Ladder,
    stats: ServeReport,
}

impl<'a> Worker<'a> {
    fn new(cfg: &'a ServeConfig) -> Self {
        let ladder = |budget| Ladder::new(budget, &cfg.resilience, cfg.cpu);
        Self {
            cfg,
            cache: PlanCache::new(cfg.plan_cache_capacity.max(1)),
            pool: cfg
                .pool
                .as_ref()
                .map(|p| DevicePool::new(p, cfg.backend, &cfg.resilience, cfg.cpu)),
            breaker: Breaker::new(&cfg.resilience),
            memo: Arc::new(ReplayMemo::new()),
            ladder: ladder(Budget::of(cfg.backend, &cfg.resilience, false)),
            cpu: ladder(Budget::CPU),
            stats: ServeReport::default(),
        }
    }

    fn finish(self) -> ServeReport {
        let mut stats = self.stats;
        stats.plan_cache = self.cache.stats();
        stats.static_admission = self.cache.admission_stats();
        stats.geometry = self.cache.geometry_stats();
        stats.breaker_trips = self.breaker.trips;
        stats.breaker_resets = self.breaker.resets;
        stats.replay_memo = self.memo.stats();
        stats.pool = self.pool.map(DevicePool::into_report);
        for d in stats.pool.iter().flat_map(|p| &p.devices) {
            let (sum, slot) = (&mut stats.replay_memo, d.replay_memo);
            sum.hits += slot.hits;
            sum.misses += slot.misses;
            sum.retired += slot.retired;
        }
        stats
    }

    /// Executes one scheduling wave. Without packing (or on the CPU
    /// backend) every chunk is prepared then served, in wave order.
    /// With [`ServeConfig::pack`] all chunks are prepared first
    /// (identical plan-cache/admission/geometry side effects, in the
    /// identical order), the [`packed::PackedBatch`] planner groups
    /// the pack-eligible ones by resolved geometry, packed groups
    /// serve as one launch unit each, and the leftovers serve alone
    /// in wave order.
    fn serve_wave(&mut self, chunks: Vec<Vec<(Query, Ticket)>>) {
        if !self.cfg.pack || !uses_gpu(self.cfg) {
            for chunk in chunks {
                if let Some(prep) = self.prepare(chunk) {
                    self.serve(vec![prep]);
                }
            }
            return;
        }
        let mut prepared: Vec<Option<PreparedChunk>> = chunks
            .into_iter()
            .map(|chunk| self.prepare(chunk))
            .collect();
        let classes: Vec<Option<TileGeometry>> = prepared
            .iter()
            .map(|p| {
                p.as_ref().and_then(|p| {
                    let s = &p.segment;
                    let (m, _) = s.plan.dims();
                    (p.admitted && packed::packable(m, s.targets.len(), &s.geometry))
                        .then_some(s.geometry)
                })
            })
            .collect();
        for group in packed::PackedBatch::plan(&classes).groups {
            let preps = group
                .into_iter()
                .map(|i| prepared[i].take().expect("planner indices are distinct"))
                .collect();
            self.serve(preps);
        }
        for prep in prepared.into_iter().flatten() {
            self.serve(vec![prep]);
        }
    }

    /// The front half of serving a chunk: deadline filtering,
    /// plan-cache lookup, weight collection, geometry resolution and
    /// static admission. `None` when every query had already expired.
    fn prepare(&mut self, chunk: Vec<(Query, Ticket)>) -> Option<PreparedChunk> {
        let cfg = self.cfg;
        // Deadline check at dequeue time: expired queries never reach
        // the solver (and never count as a batch column).
        let now = Instant::now();
        let mut live: Vec<(Query, Ticket)> = Vec::with_capacity(chunk.len());
        for (q, t) in chunk {
            match q.deadline {
                Some(d) if d < now => {
                    t.fulfil(Err(ServeError::DeadlineExpired));
                    self.stats.expired += 1;
                }
                _ => live.push((q, t)),
            }
        }
        let proto = &live.first()?.0;
        let key = PlanKey::new(&proto.sources, proto.h);
        let (plan, hit) = if cfg.enable_plan_cache {
            self.cache
                .get_or_build(key, || SourcePlan::build(proto.sources.points()))
        } else {
            (Arc::new(SourcePlan::build(proto.sources.points())), false)
        };
        let weights: Vec<Vec<f32>> = live.iter().map(|(q, _)| q.weights.clone()).collect();
        let geometry = self.resolve_geometry(&plan, proto.targets.len(), weights.len());
        // Plan-time static admission: prove the exact kernel this
        // batch would launch clean before spending any GPU attempt.
        // Verdicts are memoized by padded launch geometry next to the
        // plan cache, so repeat shapes run no analysis.
        let admitted = if cfg.static_lint && uses_gpu(cfg) {
            let (m, k) = plan.dims();
            let key = AdmissionKey::for_batch(m, proto.targets.len(), k, weights.len(), &geometry);
            let (verdict, _) = self
                .cache
                .admission(key, || admission::check_shape(&cfg.device, key));
            if !verdict.admitted {
                self.cache.note_admission_reject();
            }
            verdict.admitted
        } else {
            true
        };
        // The latest instant any backoff sleep may run to: the max
        // member deadline — but only when *every* member has one (a
        // deadline-free member can wait out any backoff, so the
        // ladder keeps its full retry budget).
        let deadline = live
            .iter()
            .map(|(q, _)| q.deadline)
            .collect::<Option<Vec<_>>>()
            .and_then(|ds| ds.into_iter().max());
        let segment = Segment {
            plan,
            key,
            targets: Arc::clone(&proto.targets),
            h: proto.h,
            weights: Arc::new(weights),
            warm: hit,
            resident: hit,
            geometry,
            deadline,
        };
        Some(PreparedChunk {
            live,
            segment,
            admitted,
        })
    }

    /// Resolves the tile geometry for one batch of raw shape
    /// `(M, n, K)` and width `r`: the memoized winning pick for its
    /// raw shape (or the config default), downshifted to the pick's
    /// bit-compatible low-power variant once the energy budget is
    /// exhausted. A geometry whose `tile_k` is narrower than the batch
    /// width cannot launch the batch and falls back to the config
    /// default, then to the paper default (whose `tile_k` equals the
    /// maximum batch width).
    fn resolve_geometry(&mut self, plan: &SourcePlan, n: usize, r: usize) -> TileGeometry {
        let cfg = self.cfg;
        let (m, k) = plan.dims();
        let (base, low_power) = self.cache.geometry_for((m, n, k), || {
            cfg.geometry_picks
                .iter()
                .find(|p| (p.m, p.n, p.k) == (m, n, k))
                .map_or((cfg.geometry, cfg.low_power), |p| (p.geometry, p.low_power))
        });
        let fits = |g: &TileGeometry| r <= g.tile_k;
        let mut geo = if fits(&base) {
            base
        } else if fits(&cfg.geometry) {
            cfg.geometry
        } else {
            TileGeometry::paper_default()
        };
        if let (Some(budget), Some(low)) = (cfg.energy_budget_j, low_power) {
            let s = &mut self.stats;
            let over_budget = s.completed > 0 && s.energy_j / s.completed as f64 > budget;
            if over_budget && fits(&low) && low != geo {
                debug_assert!(low.bit_compatible(&geo));
                s.energy_downshifts += 1;
                geo = low;
            }
        }
        geo
    }

    /// Serves one launch unit — a chunk, or a packed group of two or
    /// more chunks — down the ladder (across the pool's devices when
    /// pooled), then folds its outcome into the counters and fulfils
    /// its queries.
    ///
    /// # Panics
    /// [`FaultInjection::PanicFirst`] panics the worker before its
    /// first GPU-capable unit is dispatched — deliberately, to
    /// exercise the poison-recovery path.
    fn serve(&mut self, preps: Vec<PreparedChunk>) {
        // A packed group holds admitted chunks only.
        let admitted = preps[0].admitted;
        let ladder = if admitted { &self.ladder } else { &self.cpu };
        if ladder.budget.gpu_attempts > 0 && self.cfg.fault_injection == FaultInjection::PanicFirst
        {
            panic!("injected worker panic (FaultInjection::PanicFirst)");
        }
        let (lives, segments): (Vec<_>, Vec<_>) =
            preps.into_iter().map(|p| (p.live, p.segment)).unzip();
        let unit = LaunchUnit { segments };
        let batch = self.stats.batches;
        let out = match &mut self.pool {
            Some(pool) if admitted => pool.run(unit, batch),
            _ => {
                let slot = DeviceSlot {
                    device: &self.cfg.device,
                    link: None,
                    phase: DevicePhase::Healthy,
                    // Unpooled attempts number from 1 (`DeviceSlot::key`).
                    key: batch ^ (1 << 48),
                    breaker: &mut self.breaker,
                    batch,
                };
                let mut launcher = SimLauncher { memo: &self.memo };
                ladder.run(&unit, slot, &mut launcher)
            }
        };
        let s = &mut self.stats;
        s.injected_faults += out.injected_faults;
        s.undetected_injected += out.undetected;
        s.packed_launches += out.packed_launches;
        s.packed_segments += out.packed_segments;
        s.backoff_shortcircuits += out.backoff_shortcircuits;
        // Energy: every profile (all rungs, all shards) through the
        // energy model over exact counters, in execution order.
        let params = EnergyParams::default();
        for p in out.profiles {
            s.launches += p.kernels.len() as u64;
            s.energy_j += pipeline_energy(&params, &p).total_j();
            s.profiles.push(p);
        }
        for (live, seg) in lives.iter().zip(out.segments) {
            s.attempts += u64::from(seg.attempts);
            s.retries += u64::from(seg.attempts - 1);
            s.corruption_detected += seg.corruption;
            let outcome = match seg.result {
                Ok(results) => {
                    if seg.rung == Rung::Harbor {
                        s.fallbacks += 1;
                    }
                    Ok((results, seg.rung != Rung::Top))
                }
                Err(e) => Err(ServeError::Launch(e)),
            };
            finish_chunk(self.cfg, live, outcome, s);
        }
    }
}

/// True when batches can reach a simulated device: the backend has a
/// GPU rung. Static admission and packing apply only then.
fn uses_gpu(cfg: &ServeConfig) -> bool {
    !matches!(cfg.backend, ServeBackend::CpuFused)
}

/// Batch bookkeeping and fulfilment: the artificial consumer delay,
/// the batch counters, the per-query deadline re-check.
fn finish_chunk(
    cfg: &ServeConfig,
    live: &[(Query, Ticket)],
    outcome: Result<(Vec<Vec<f32>>, bool), ServeError>,
    stats: &mut ServeReport,
) {
    if let Some(delay) = cfg.batch_delay {
        std::thread::sleep(delay);
    }
    stats.batches += 1;
    stats.batched_queries += live.len() as u64;
    match outcome {
        Ok((results, degraded)) => {
            // Deadline re-check at fulfilment: plan resolution, the
            // solve and any retries take time — a query that expired
            // while its own batch executed must not complete as
            // on-time.
            let now = Instant::now();
            for ((q, t), v) in live.iter().zip(results) {
                match q.deadline {
                    Some(d) if d < now => {
                        t.fulfil(Err(ServeError::DeadlineExpired));
                        stats.expired += 1;
                        stats.expired_in_batch += 1;
                    }
                    _ => {
                        t.fulfil(Ok(v));
                        stats.completed += 1;
                        if degraded {
                            stats.degraded_completions += 1;
                        }
                    }
                }
            }
        }
        Err(e) => {
            for (_, t) in live {
                t.fulfil(Err(e.clone()));
                stats.failed += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor;
    use ks_core::problem::PointSet;
    use ks_gpu_sim::FaultSpec;

    /// A device whose every launch is killed by the watchdog.
    fn dying_device() -> DeviceConfig {
        DeviceConfig {
            fault: Some(FaultSpec {
                watchdog_rate: 1.0,
                ..FaultSpec::default()
            }),
            ..DeviceConfig::gtx970()
        }
    }

    fn query(sources: &SourceSet, targets: &Arc<PointSet>, seed: u64) -> Query {
        let w = PointSet::uniform_cube(targets.len(), 1, seed)
            .coords()
            .iter()
            .map(|v| v - 0.5)
            .collect();
        Query {
            sources: sources.clone(),
            targets: Arc::clone(targets),
            weights: w,
            h: 0.9,
            deadline: None,
        }
    }

    fn cpu_config() -> ServeConfig {
        ServeConfig {
            backend: ServeBackend::CpuFused,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_a_simple_query() {
        let sources = SourceSet::new(PointSet::uniform_cube(24, 4, 1));
        let targets = Arc::new(PointSet::uniform_cube(16, 4, 2));
        let mut srv = Server::start(cpu_config());
        let Submit::Accepted(t) = srv.submit(query(&sources, &targets, 3)) else {
            panic!("empty queue must accept");
        };
        let v = t.wait().expect("completes");
        assert_eq!(v.len(), 24);
        let report = srv.shutdown();
        assert_eq!(report.submitted, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.batches, 1);
    }

    #[test]
    fn paused_server_coalesces_shared_corpus_queries() {
        let sources = SourceSet::new(PointSet::uniform_cube(32, 4, 5));
        let targets = Arc::new(PointSet::uniform_cube(16, 4, 6));
        let mut cfg = cpu_config();
        cfg.start_paused = true;
        cfg.wave = 8;
        let mut srv = Server::start(cfg);
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| match srv.submit(query(&sources, &targets, 10 + i)) {
                Submit::Accepted(t) => t,
                Submit::Rejected(_) => panic!("capacity 64 cannot reject 4"),
            })
            .collect();
        srv.resume();
        for t in &tickets {
            assert!(t.wait().is_ok());
        }
        let report = srv.shutdown();
        assert_eq!(report.completed, 4);
        assert_eq!(report.batches, 1, "one coalesced solve");
        assert_eq!(report.batched_queries, 4);
        assert_eq!(report.plan_cache.misses, 1);
    }

    #[test]
    fn expired_deadline_is_reported() {
        let sources = SourceSet::new(PointSet::uniform_cube(16, 3, 7));
        let targets = Arc::new(PointSet::uniform_cube(8, 3, 8));
        let mut cfg = cpu_config();
        cfg.start_paused = true;
        let mut srv = Server::start(cfg);
        let mut q = query(&sources, &targets, 9);
        q.deadline = Some(Instant::now() - Duration::from_millis(1));
        let Submit::Accepted(t) = srv.submit(q) else {
            panic!("must accept");
        };
        srv.resume();
        assert_eq!(t.wait(), Err(ServeError::DeadlineExpired));
        let report = srv.shutdown();
        assert_eq!(report.expired, 1);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn backpressure_rejects_and_returns_the_query() {
        let sources = SourceSet::new(PointSet::uniform_cube(16, 3, 11));
        let targets = Arc::new(PointSet::uniform_cube(8, 3, 12));
        let mut cfg = cpu_config();
        cfg.queue_capacity = 2;
        cfg.start_paused = true;
        let mut srv = Server::start(cfg);
        let _t1 = srv.submit(query(&sources, &targets, 13));
        let _t2 = srv.submit(query(&sources, &targets, 14));
        match srv.submit(query(&sources, &targets, 15)) {
            Submit::Rejected(q) => assert_eq!(q.weights.len(), 8),
            Submit::Accepted(_) => panic!("full queue must reject"),
        }
        srv.resume();
        let report = srv.shutdown();
        assert_eq!(report.submitted, 3);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.rejected, 1);
        assert!(report.queue_high_water <= 2);
    }

    #[test]
    fn fault_injection_falls_back_to_cpu() {
        let sources = SourceSet::new(PointSet::uniform_cube(128, 8, 21));
        let targets = Arc::new(PointSet::uniform_cube(128, 8, 22));
        let mut cfg = ServeConfig {
            backend: ServeBackend::GpuFused { cpu_fallback: true },
            device: dying_device(),
            ..ServeConfig::default()
        };
        cfg.start_paused = true;
        let mut srv = Server::start(cfg);
        let Submit::Accepted(t) = srv.submit(query(&sources, &targets, 23)) else {
            panic!("must accept");
        };
        srv.resume();
        assert!(t.wait().is_ok(), "fallback recovers the query");
        let report = srv.shutdown();
        assert_eq!(report.fallbacks, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.degraded_completions, 1, "below the top rung");
        assert_eq!((report.attempts, report.retries), (2, 1));
        assert!(report.profiles.is_empty(), "failed launch has no profile");
    }

    #[test]
    fn fault_without_fallback_fails_the_query() {
        let sources = SourceSet::new(PointSet::uniform_cube(128, 8, 31));
        let targets = Arc::new(PointSet::uniform_cube(128, 8, 32));
        let cfg = ServeConfig {
            backend: ServeBackend::GpuFused {
                cpu_fallback: false,
            },
            device: dying_device(),
            start_paused: true,
            ..ServeConfig::default()
        };
        let mut srv = Server::start(cfg);
        let Submit::Accepted(t) = srv.submit(query(&sources, &targets, 33)) else {
            panic!("must accept");
        };
        srv.resume();
        assert!(matches!(
            t.wait(),
            Err(ServeError::Launch(LaunchError::WatchdogTimeout { .. }))
        ));
        let report = srv.shutdown();
        assert_eq!(report.failed, 1);
        assert_eq!(report.breaker_trips, 0, "no harbor, no breaker");
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_monotonic() {
        let rc = ResilienceConfig::default();
        for batch in [0u64, 1, 17, u64::MAX] {
            for attempt in 0..12u32 {
                assert_eq!(
                    backoff_delay(&rc, batch, attempt),
                    backoff_delay(&rc, batch, attempt),
                    "pure in (seed, batch, attempt)"
                );
            }
            for attempt in 0..10u32 {
                assert!(
                    backoff_delay(&rc, batch, attempt + 1) > backoff_delay(&rc, batch, attempt),
                    "strictly increasing below the clamp (batch {batch}, attempt {attempt})"
                );
            }
        }
        let other = ResilienceConfig {
            backoff_seed: 0xDEAD,
            ..ResilienceConfig::default()
        };
        assert_ne!(
            backoff_delay(&rc, 3, 2),
            backoff_delay(&other, 3, 2),
            "seed moves the jitter"
        );
    }

    #[test]
    fn equal_but_separately_allocated_targets_coalesce() {
        // Regression: keying targets on the Arc pointer split these
        // into two launches (and could alias a recycled allocation).
        let sources = SourceSet::new(PointSet::uniform_cube(32, 4, 41));
        let t1 = Arc::new(PointSet::uniform_cube(16, 4, 42));
        let t2 = Arc::new(PointSet::uniform_cube(16, 4, 42));
        assert!(!Arc::ptr_eq(&t1, &t2), "distinct allocations");
        let mut cfg = cpu_config();
        cfg.start_paused = true;
        let mut srv = Server::start(cfg);
        let Submit::Accepted(a) = srv.submit(query(&sources, &t1, 43)) else {
            panic!("must accept");
        };
        let Submit::Accepted(b) = srv.submit(query(&sources, &t2, 44)) else {
            panic!("must accept");
        };
        srv.resume();
        assert!(a.wait().is_ok());
        assert!(b.wait().is_ok());
        let report = srv.shutdown();
        assert_eq!(report.batches, 1, "equal targets coalesce into one launch");
        assert_eq!(report.batched_queries, 2);
    }

    #[test]
    fn different_targets_with_colliding_shape_do_not_coalesce() {
        let sources = SourceSet::new(PointSet::uniform_cube(32, 4, 51));
        let t1 = Arc::new(PointSet::uniform_cube(16, 4, 52));
        let t2 = Arc::new(PointSet::uniform_cube(16, 4, 53));
        let mut cfg = cpu_config();
        cfg.start_paused = true;
        let mut srv = Server::start(cfg);
        let (Submit::Accepted(a), Submit::Accepted(b)) = (
            srv.submit(query(&sources, &t1, 54)),
            srv.submit(query(&sources, &t2, 55)),
        ) else {
            panic!("must accept");
        };
        srv.resume();
        assert!(a.wait().is_ok() && b.wait().is_ok());
        let report = srv.shutdown();
        assert_eq!(report.batches, 2, "different coordinates stay separate");
    }

    #[test]
    fn brownout_sheds_only_doomed_queries_in_later_chunks() {
        let sources = SourceSet::new(PointSet::uniform_cube(16, 3, 61));
        let targets = Arc::new(PointSet::uniform_cube(8, 3, 62));
        let mut stats = ServeReport::default();
        let now = Instant::now();
        let with_deadline = |seed: u64, d: Option<Instant>| {
            let mut q = query(&sources, &targets, seed);
            q.deadline = d;
            (q, Ticket::new())
        };
        let mut chunks = vec![
            // Chunk 0 starts immediately: never shed, however tight.
            vec![with_deadline(1, Some(now + Duration::from_millis(1)))],
            vec![
                // Doomed: alive now, dead before chunk 1's projected
                // start one avg (1 s) away.
                with_deadline(2, Some(now + Duration::from_millis(200))),
                // Comfortable deadline: kept.
                with_deadline(3, Some(now + Duration::from_secs(30))),
                // Deadline-free: kept.
                with_deadline(4, None),
            ],
        ];
        brownout_shed(&mut chunks, 1.0, &mut stats);
        assert_eq!(stats.shed, 1, "exactly the doomed query sheds");
        assert_eq!(chunks[0].len(), 1, "chunk 0 untouched");
        assert_eq!(chunks[1].len(), 2);
        assert_eq!(
            chunks[1][0].0.deadline,
            Some(now + Duration::from_secs(30)),
            "survivors keep their order"
        );

        // Shed tickets are fulfilled with the explicit error.
        let mut shed_chunks = vec![
            vec![with_deadline(5, None)],
            vec![with_deadline(6, Some(now + Duration::from_millis(100)))],
        ];
        let shed_ticket = shed_chunks[1][0].1.clone();
        brownout_shed(&mut shed_chunks, 1.0, &mut stats);
        assert_eq!(shed_ticket.try_take(), Some(Err(ServeError::Shed)));

        // No measurement yet (avg == 0): nothing sheds.
        let mut cold = vec![
            vec![with_deadline(7, None)],
            vec![with_deadline(8, Some(now + Duration::from_nanos(1)))],
        ];
        let before = stats.shed;
        brownout_shed(&mut cold, 0.0, &mut stats);
        assert_eq!(stats.shed, before, "cold EWMA never sheds");
        assert_eq!(cold[1].len(), 1);
    }

    #[test]
    fn overrunning_backoff_short_circuits_to_the_safe_harbor() {
        let sources = SourceSet::new(PointSet::uniform_cube(128, 8, 71));
        let targets = Arc::new(PointSet::uniform_cube(128, 8, 72));
        let cfg = ServeConfig {
            backend: ServeBackend::GpuResilient,
            // Every GPU attempt fails, so the ladder wants to retry
            // with backoff…
            device: dying_device(),
            resilience: ResilienceConfig {
                // …but the very first backoff (base·2¹ ≥ 1 min) would
                // sleep far past the query's deadline.
                backoff_base: Duration::from_secs(30),
                ..ResilienceConfig::default()
            },
            start_paused: true,
            ..ServeConfig::default()
        };
        let mut srv = Server::start(cfg);
        let mut q = query(&sources, &targets, 73);
        q.deadline = Some(Instant::now() + Duration::from_secs(5));
        let Submit::Accepted(t) = srv.submit(q) else {
            panic!("must accept");
        };
        srv.resume();
        // The deadline-charged ladder skips the sleeps entirely, so
        // the CPU safe harbor answers well within the deadline.
        assert_eq!(t.wait().expect("safe harbor completes").len(), 128);
        let report = srv.shutdown();
        assert_eq!(report.completed, 1);
        assert_eq!(report.expired, 0, "no sleep ran the deadline out");
        assert!(
            report.backoff_shortcircuits >= 1,
            "the overrunning backoff was charged, not slept"
        );
        assert_eq!(report.fallbacks, 1, "landed on the CPU safe harbor");
        assert_eq!(report.degraded_completions, 1);
        assert_eq!(
            report.accepted,
            report.completed + report.expired + report.shed + report.failed
        );
    }

    #[test]
    fn resilient_clean_path_completes_verified_without_degradation() {
        let sources = SourceSet::new(PointSet::uniform_cube(128, 8, 51));
        let targets = Arc::new(PointSet::uniform_cube(128, 8, 52));
        let cfg = ServeConfig {
            backend: ServeBackend::GpuResilient,
            start_paused: true,
            ..ServeConfig::default()
        };
        let mut srv = Server::start(cfg);
        let Submit::Accepted(t) = srv.submit(query(&sources, &targets, 53)) else {
            panic!("must accept");
        };
        srv.resume();
        assert_eq!(t.wait().expect("completes").len(), 128);
        let report = srv.shutdown();
        assert_eq!(report.completed, 1);
        assert_eq!(report.attempts, report.batches, "first attempt succeeds");
        assert_eq!(report.retries, 0);
        assert_eq!(report.degraded_completions, 0, "top rung, not degraded");
        assert_eq!(report.corruption_detected, 0);
        assert_eq!(report.injected_faults, 0);
        assert_eq!(report.breaker_trips, 0);
        assert!(!report.profiles.is_empty(), "verified run is profiled");
    }

    #[test]
    fn resilient_exhaustion_lands_bit_exact_on_the_cpu_safe_harbor() {
        let sources = SourceSet::new(PointSet::uniform_cube(128, 8, 61));
        let targets = Arc::new(PointSet::uniform_cube(128, 8, 62));
        let cfg = ServeConfig {
            backend: ServeBackend::GpuResilient,
            device: dying_device(),
            start_paused: true,
            ..ServeConfig::default()
        };
        let cpu = cfg.cpu;
        let rc = cfg.resilience.clone();
        let mut srv = Server::start(cfg);
        let q = query(&sources, &targets, 63);
        let weights = q.weights.clone();
        let Submit::Accepted(t) = srv.submit(q) else {
            panic!("must accept");
        };
        srv.resume();
        let got = t.wait().expect("safe harbor always completes");
        let plan = SourcePlan::build(sources.points());
        let want = executor::execute_cpu(&plan, &targets, 0.9, &[weights], &cpu);
        for (i, (g, w)) in got.iter().zip(want[0].iter()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "row {i}: CPU rung is bit-exact");
        }
        let report = srv.shutdown();
        assert_eq!(report.completed, 1);
        assert_eq!(report.degraded_completions, 1);
        assert_eq!(report.fallbacks, 1);
        assert_eq!(report.attempts, report.batches + report.retries);
        // Every GPU attempt failed: the breaker tripped at its
        // threshold and the ladder stopped burning attempts.
        assert_eq!(report.breaker_trips, 1);
        assert!(report.retries <= u64::from(rc.gpu_attempts) + 1);
        assert!(report.profiles.is_empty(), "no GPU attempt completed");
    }

    #[test]
    fn resilient_ladder_detects_injected_corruption_and_stays_correct() {
        let sources = SourceSet::new(PointSet::uniform_cube(128, 8, 71));
        let targets = Arc::new(PointSet::uniform_cube(128, 8, 72));
        let mut cfg = ServeConfig {
            backend: ServeBackend::GpuResilient,
            start_paused: true,
            ..ServeConfig::default()
        };
        cfg.device.fault = Some(ks_gpu_sim::FaultSpec {
            seed: 9,
            smem_rate: 4.0,
            ..Default::default()
        });
        let cpu = cfg.cpu;
        let mut srv = Server::start(cfg);
        let q = query(&sources, &targets, 73);
        let weights = q.weights.clone();
        let Submit::Accepted(t) = srv.submit(q) else {
            panic!("must accept");
        };
        srv.resume();
        let got = t.wait().expect("ladder always completes");
        let plan = SourcePlan::build(sources.points());
        let want = executor::execute_cpu(&plan, &targets, 0.9, &[weights], &cpu);
        for (i, (g, w)) in got.iter().zip(want[0].iter()).enumerate() {
            assert!(
                (g - w).abs() <= 5e-3 * w.abs().max(1.0),
                "row {i}: served {g} vs reference {w} — never silently wrong"
            );
        }
        let report = srv.shutdown();
        assert_eq!(report.completed, 1);
        assert!(
            report.corruption_detected >= 1,
            "heavy SMEM flips must trip the ABFT checks: {report:?}"
        );
        assert!(report.injected_faults > 0);
        assert_eq!(report.attempts, report.batches + report.retries);
    }

    #[test]
    fn panicked_worker_drains_tickets_with_internal_error() {
        let sources = SourceSet::new(PointSet::uniform_cube(128, 8, 81));
        let targets = Arc::new(PointSet::uniform_cube(128, 8, 82));
        let cfg = ServeConfig {
            backend: ServeBackend::GpuFused { cpu_fallback: true },
            fault_injection: FaultInjection::PanicFirst,
            start_paused: true,
            ..ServeConfig::default()
        };
        let mut srv = Server::start(cfg);
        let Submit::Accepted(t) = srv.submit(query(&sources, &targets, 83)) else {
            panic!("must accept");
        };
        srv.resume();
        let report = srv.shutdown();
        assert_eq!(report.internal_errors, 1);
        assert_eq!(report.completed, 0, "worker counters are lost");
        assert_eq!(
            t.wait(),
            Err(ServeError::Internal("worker thread panicked")),
            "in-flight queries surface an explicit error, not a hang"
        );
    }

    #[test]
    fn query_expiring_mid_batch_is_counted_separately() {
        let sources = SourceSet::new(PointSet::uniform_cube(16, 3, 91));
        let targets = Arc::new(PointSet::uniform_cube(8, 3, 92));
        let mut cfg = cpu_config();
        cfg.start_paused = true;
        cfg.batch_delay = Some(Duration::from_millis(300));
        let mut srv = Server::start(cfg);
        let mut q = query(&sources, &targets, 93);
        // Alive at batch assembly, expired by the time the (slow)
        // batch fulfils.
        q.deadline = Some(Instant::now() + Duration::from_millis(100));
        let Submit::Accepted(t) = srv.submit(q) else {
            panic!("must accept");
        };
        srv.resume();
        assert_eq!(t.wait(), Err(ServeError::DeadlineExpired));
        let report = srv.shutdown();
        assert_eq!(report.expired, 1);
        assert_eq!(report.expired_in_batch, 1, "expired *inside* its batch");
        assert_eq!(report.completed, 0, "must not complete as on-time");
        assert_eq!(report.batches, 1, "the batch itself ran");
    }

    #[test]
    #[should_panic(expected = "weights length")]
    fn submit_rejects_malformed_query() {
        let sources = SourceSet::new(PointSet::uniform_cube(16, 3, 41));
        let targets = Arc::new(PointSet::uniform_cube(8, 3, 42));
        let mut q = query(&sources, &targets, 43);
        q.weights.pop();
        let mut srv = Server::start(cpu_config());
        let _ = srv.submit(q);
    }

    /// Warm shapes never re-run the static analysis: one check for
    /// the first batch, memo hits for every repeat of the geometry.
    #[test]
    fn static_admission_is_checked_once_per_shape() {
        let sources = SourceSet::new(PointSet::uniform_cube(100, 5, 101));
        let targets = Arc::new(PointSet::uniform_cube(70, 5, 102));
        let cfg = ServeConfig {
            backend: ServeBackend::GpuFused {
                cpu_fallback: false,
            },
            max_batch: 1, // one query per batch → repeat geometry
            start_paused: true,
            ..ServeConfig::default()
        };
        let mut srv = Server::start(cfg);
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| match srv.submit(query(&sources, &targets, 110 + i)) {
                Submit::Accepted(t) => t,
                Submit::Rejected(_) => panic!("must accept"),
            })
            .collect();
        srv.resume();
        for t in &tickets {
            assert!(t.wait().is_ok());
        }
        let report = srv.shutdown();
        assert_eq!(report.batches, 3);
        let adm = report.static_admission;
        assert_eq!(adm.checks, 1, "one fresh verdict for the shape");
        assert_eq!(adm.hits, 2, "repeat batches hit the memo");
        assert_eq!(adm.rejects, 0);
        assert_eq!(report.profiles.len(), 3, "all batches ran on the GPU");
    }

    /// A device the static analyzer can prove the kernel unfit for
    /// never sees a launch: every batch serves on the bit-exact CPU
    /// path, without consuming the fallback/retry machinery.
    #[test]
    fn static_admission_reject_serves_on_cpu() {
        let sources = SourceSet::new(PointSet::uniform_cube(100, 5, 121));
        let targets = Arc::new(PointSet::uniform_cube(70, 5, 122));
        let mut starved = DeviceConfig::gtx970();
        starved.regs_per_sm /= 2;
        let cfg = ServeConfig {
            backend: ServeBackend::GpuFused {
                cpu_fallback: false,
            },
            device: starved,
            start_paused: true,
            ..ServeConfig::default()
        };
        let mut srv = Server::start(cfg);
        let q = query(&sources, &targets, 123);
        let Submit::Accepted(t) = srv.submit(q.clone()) else {
            panic!("must accept");
        };
        srv.resume();
        let got = t.wait().expect("served on the CPU path");
        let report = srv.shutdown();
        assert_eq!(report.static_admission.rejects, 1);
        assert!(report.profiles.is_empty(), "no GPU launch happened");
        assert_eq!(report.fallbacks, 0, "a reject is not a failure fallback");
        assert_eq!(report.completed, 1);
        // The answer is the bit-exact CPU result.
        let plan = SourcePlan::build(q.sources.points());
        let want = executor::execute_cpu(
            &plan,
            &q.targets,
            q.h,
            std::slice::from_ref(&q.weights),
            &FusedCpuConfig::default(),
        );
        for (a, b) in got.iter().zip(want[0].iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Turning the gate off restores unconditional GPU dispatch.
    #[test]
    fn static_lint_off_skips_admission() {
        let sources = SourceSet::new(PointSet::uniform_cube(100, 5, 131));
        let targets = Arc::new(PointSet::uniform_cube(70, 5, 132));
        let cfg = ServeConfig {
            backend: ServeBackend::GpuFused { cpu_fallback: true },
            static_lint: false,
            ..ServeConfig::default()
        };
        let mut srv = Server::start(cfg);
        let Submit::Accepted(t) = srv.submit(query(&sources, &targets, 133)) else {
            panic!("must accept");
        };
        assert!(t.wait().is_ok());
        let report = srv.shutdown();
        assert_eq!(report.static_admission, AdmissionStats::default());
        assert_eq!(report.profiles.len(), 1);
    }

    fn memo_stats(hits: u64, misses: u64) -> ReplayMemoStats {
        ReplayMemoStats {
            hits,
            misses,
            retired: 0,
        }
    }

    /// Serves `batches` one-query batches of one shape, cold every
    /// time (no plan cache), so each makes the same launches.
    fn serve_repeats(pool: Option<PoolConfig>, batches: u64) -> ServeReport {
        let sources = SourceSet::new(PointSet::uniform_cube(256, 5, 141));
        let targets = Arc::new(PointSet::uniform_cube(70, 5, 142));
        let cfg = ServeConfig {
            backend: ServeBackend::GpuFused {
                cpu_fallback: false,
            },
            max_batch: 1,
            enable_plan_cache: false,
            start_paused: true,
            pool,
            ..ServeConfig::default()
        };
        let mut srv = Server::start(cfg);
        let tickets: Vec<Ticket> = (0..batches)
            .map(|i| match srv.submit(query(&sources, &targets, 150 + i)) {
                Submit::Accepted(t) => t,
                Submit::Rejected(_) => panic!("must accept"),
            })
            .collect();
        srv.resume();
        for t in &tickets {
            assert!(t.wait().is_ok());
        }
        srv.shutdown()
    }

    /// A repeated batch's three launches (two norms and the fused
    /// kernel) miss their slot's replay memo once and hit it after,
    /// with the misses' profile; a new server starts empty.
    #[test]
    fn a_repeated_batch_replays_once_per_server() {
        let report = serve_repeats(None, 3);
        assert_eq!(report.batches, 3);
        assert_eq!(report.replay_memo, memo_stats(6, 3));
        assert!(report.profiles.windows(2).all(|p| p[0] == p[1]));
        let again = serve_repeats(None, 1);
        assert_eq!(
            again.replay_memo,
            memo_stats(0, 3),
            "two servers never share an entry"
        );
    }

    /// Pooled, each member keeps its own memo: both shards' three
    /// launches of the first batch miss on their devices, and the
    /// repeat hits on both.
    #[test]
    fn pool_members_memoise_their_own_shards() {
        let pool = PoolConfig::homogeneous(
            2,
            DeviceConfig::gtx970(),
            ks_gpu_sim::config::Interconnect::pcie3_x16(),
        );
        let report = serve_repeats(Some(pool), 2);
        let devices = &report.pool.as_ref().expect("pooled").devices;
        for d in devices {
            assert_eq!(d.replay_memo, memo_stats(3, 3), "{}", d.name);
        }
        assert_eq!(report.replay_memo, memo_stats(6, 6));
    }
}
