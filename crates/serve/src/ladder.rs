//! The degradation ladder: the one place ks-serve takes a launch unit
//! from the GPU down to the CPU safe harbor, pooled or not.
//!
//! A **launch unit** is a row batch, a pooled row shard of one, or a
//! packed segment set (horizontal fusion, [`crate::packed`]). A GPU
//! attempt runs its segments as one launch through the one GPU
//! executor ([`executor::execute_gpu`]), packed exactly when there are
//! two or more. Every [`Segment`] carries its plan, targets,
//! bandwidth, weight columns, the server's plan-cache verdict and its
//! resolved tile geometry. A **device slot** is where the unit runs:
//! a device model, an optional interconnect, the lifecycle phase drawn
//! for the batch, a fault-decorrelation key and the slot's circuit
//! breaker. Each slot
//! also keeps a replay memo ([`SimLauncher`], DESIGN.md §10): a launch
//! the slot has made from the same L2 state replays no traffic. The
//! **budget** is derived from the backend and is not configurable
//! (DESIGN.md §11):
//!
//! | configuration | top rung | GPU attempts | unverified rung | CPU harbor |
//! |---|---|---|---|---|
//! | `CpuFused`, or a batch that static admission rejects | CPU, not degraded | 0 | – | – |
//! | `GpuFused{cpu_fallback}`, unpooled | GPU | 1 | no | iff `cpu_fallback` |
//! | `GpuResilient`, unpooled | GPU, verified iff `verify` | `gpu_attempts`, with deadline-charged backoff | once, unless corruption was seen | yes |
//! | any GPU backend, pooled shard or packed sub-wave | as above | 1 | no | always |
//!
//! These rules hold for every row:
//!
//! * every GPU attempt of a budget with a harbor is gated by the
//!   slot's breaker;
//! * a lifecycle fault or a link timeout fails the attempt the same
//!   way a launch error does;
//! * a packed attempt counts as one attempt of each of its segments;
//!   a segment it fails (a launch error, a timeout, or that segment's
//!   own ABFT flag) continues unpacked with the attempts it has left,
//!   and a flagged segment is tainted, so it never takes the
//!   unverified rung;
//! * a completion below the top rung is degraded;
//! * an attempt that recorded injected data faults and kept any
//!   segment's result counts one undetected-fault surfacing;
//! * each segment counts every rung it ran as one attempt, so
//!   `attempts == batches + retries`.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use ks_core::plan::SourcePlan;
use ks_core::problem::PointSet;
use ks_core::FusedCpuConfig;
use ks_gpu_kernels::TileGeometry;
use ks_gpu_sim::config::{DeviceConfig, Interconnect};
use ks_gpu_sim::device::GpuDevice;
use ks_gpu_sim::fault::{DevicePhase, LinkFaultState};
use ks_gpu_sim::kernel::LaunchError;
use ks_gpu_sim::profiler::PipelineProfile;
use ks_gpu_sim::timing::{estimate_transfer, estimate_transfer_faulted};
use ks_gpu_sim::ReplayMemo;

use crate::cache::PlanKey;
use crate::executor;
use crate::health::ShardHealth;
use crate::server::{backoff_delay, splitmix64, ResilienceConfig, ServeBackend};

/// One segment of a launch unit.
pub(crate) struct Segment {
    /// The `A`-side plan (a row slice of it on a pool shard).
    pub(crate) plan: Arc<SourcePlan>,
    /// Plan-cache key of the whole corpus (pool residency).
    pub(crate) key: PlanKey,
    pub(crate) targets: Arc<PointSet>,
    pub(crate) h: f32,
    /// One weight column per coalesced query.
    pub(crate) weights: Arc<Vec<Vec<f32>>>,
    /// The server's plan-cache verdict. It alone picks the norms path:
    /// warm ships the host norms, cold runs the `norms(A)` kernel, and
    /// the two differ in their final bits (DESIGN.md §15).
    pub(crate) warm: bool,
    /// Whether the slot's device already holds this `A` panel. Decides
    /// only whether the `A`+norms upload is charged.
    pub(crate) resident: bool,
    pub(crate) geometry: TileGeometry,
    /// Latest instant a backoff sleep may run to: the latest member
    /// deadline, `None` when some member has none.
    pub(crate) deadline: Option<Instant>,
}

impl Segment {
    /// This segment on another plan (a pool shard's row slice).
    pub(crate) fn with_plan(&self, plan: Arc<SourcePlan>, resident: bool) -> Self {
        Self {
            plan,
            key: self.key,
            targets: Arc::clone(&self.targets),
            h: self.h,
            weights: Arc::clone(&self.weights),
            warm: self.warm,
            resident,
            geometry: self.geometry,
            deadline: self.deadline,
        }
    }
}

/// A row batch or shard (one segment), or a packed segment set (two
/// or more, launched as one horizontally-fused kernel).
pub(crate) struct LaunchUnit {
    pub(crate) segments: Vec<Segment>,
}

/// Where a unit runs.
pub(crate) struct DeviceSlot<'a> {
    pub(crate) device: &'a DeviceConfig,
    /// The link transfers are charged through (pool slots only).
    pub(crate) link: Option<&'a Interconnect>,
    /// The lifecycle phase drawn for this batch.
    pub(crate) phase: DevicePhase,
    /// Decorrelates the fault and link streams: the key of the unit's
    /// first attempt, to which attempt `n` (from 0) adds `n << 48`.
    /// A pool slot uses `batch ^ (slot << 48)`; the unpooled slot uses
    /// `batch ^ (1 << 48)`, numbering its attempts from 1.
    pub(crate) key: u64,
    /// The slot's breaker; a slot runs one unit at a time.
    pub(crate) breaker: &'a mut Breaker,
    /// The serving batch index: the breaker's clock and the backoff
    /// jitter's input.
    pub(crate) batch: u64,
}

/// What the ladder may try; one row of the module docs' table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Budget {
    /// Top-rung GPU attempts; 0 makes the CPU the undegraded top rung.
    pub(crate) gpu_attempts: u32,
    /// Run the top rung through the ABFT-verified pipeline.
    pub(crate) verify: bool,
    /// One unverified GPU attempt after the top rung.
    pub(crate) unverified_rung: bool,
    /// Sleep the deterministic backoff before every attempt after the
    /// first.
    pub(crate) backoff: bool,
    /// End at the CPU safe harbor instead of failing, and gate every
    /// GPU attempt by the breaker.
    pub(crate) harbor: bool,
}

impl Budget {
    /// The CPU as the top rung.
    pub(crate) const CPU: Self = Self {
        gpu_attempts: 0,
        verify: false,
        unverified_rung: false,
        backoff: false,
        harbor: false,
    };

    /// The budget of `backend`, pooled or not.
    pub(crate) fn of(backend: ServeBackend, rc: &ResilienceConfig, pooled: bool) -> Self {
        match (backend, pooled) {
            (ServeBackend::CpuFused, _) => Self::CPU,
            (ServeBackend::GpuFused { cpu_fallback }, _) => Self {
                gpu_attempts: 1,
                harbor: cpu_fallback || pooled,
                ..Self::CPU
            },
            (ServeBackend::GpuResilient, true) => Self {
                gpu_attempts: 1,
                verify: rc.verify,
                harbor: true,
                ..Self::CPU
            },
            (ServeBackend::GpuResilient, false) => Self {
                gpu_attempts: rc.gpu_attempts.max(1),
                verify: rc.verify,
                unverified_rung: rc.verify,
                backoff: true,
                harbor: true,
            },
        }
    }
}

/// A budget plus the configuration its rungs need.
pub(crate) struct Ladder {
    pub(crate) budget: Budget,
    rc: ResilienceConfig,
    cpu: FusedCpuConfig,
}

/// The rung a segment completed on.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Rung {
    /// The budget's top rung (the CPU for a CPU budget).
    #[default]
    Top,
    /// The unverified GPU rung.
    Unverified,
    /// The CPU safe harbor, after the GPU rungs failed or were refused.
    Harbor,
}

/// How one segment ended.
pub(crate) struct SegmentOutcome {
    /// Per-column results, or the launch error when there is no harbor.
    pub(crate) result: Result<Vec<Vec<f32>>, LaunchError>,
    pub(crate) rung: Rung,
    /// Rungs this segment ran, each one attempt.
    pub(crate) attempts: u32,
    /// ABFT detections on this segment's attempts.
    pub(crate) corruption: u64,
}

/// How one unit ended: one outcome per segment, plus what its GPU
/// attempts cost and revealed.
pub(crate) struct UnitOutcome {
    pub(crate) segments: Vec<SegmentOutcome>,
    /// Every completed GPU attempt's profile, in execution order.
    pub(crate) profiles: Vec<PipelineProfile>,
    pub(crate) injected_faults: u64,
    /// Attempts that recorded injected data faults and kept a result.
    pub(crate) undetected: u64,
    pub(crate) packed_launches: u64,
    pub(crate) packed_segments: u64,
    pub(crate) backoff_shortcircuits: u64,
    /// What the unit revealed about the slot's device.
    pub(crate) health: ShardHealth,
    /// The lifecycle phase that failed an attempt, if any.
    pub(crate) lifecycle: Option<DevicePhase>,
}

impl UnitOutcome {
    /// An outcome with no segments and nothing counted.
    pub(crate) fn empty() -> Self {
        Self {
            segments: Vec::new(),
            profiles: Vec::new(),
            injected_faults: 0,
            undetected: 0,
            packed_launches: 0,
            packed_segments: 0,
            backoff_shortcircuits: 0,
            health: ShardHealth::Passive,
            lifecycle: None,
        }
    }

    /// Folds `other`'s profiles and counters in after this unit's.
    pub(crate) fn absorb(&mut self, other: &mut UnitOutcome) {
        self.profiles.append(&mut other.profiles);
        self.injected_faults += other.injected_faults;
        self.undetected += other.undetected;
        self.packed_launches += other.packed_launches;
        self.packed_segments += other.packed_segments;
        self.backoff_shortcircuits += other.backoff_shortcircuits;
    }
}

/// What a completed GPU attempt hands back.
pub(crate) struct Attempt {
    /// Per segment, per weight column.
    pub(crate) results: Vec<Vec<Vec<f32>>>,
    pub(crate) profile: PipelineProfile,
    /// Per segment: did its ABFT checks trip?
    pub(crate) flags: Vec<bool>,
}

/// Runs one GPU attempt on a fresh device: the seam where a test
/// scripts attempt outcomes.
pub(crate) trait Launcher {
    /// Launches `segs` — one row segment, or a packed set — on a
    /// device built from `device`.
    fn launch(
        &mut self,
        device: DeviceConfig,
        segs: &[&Segment],
        verify: bool,
    ) -> Result<Attempt, LaunchError>;
}

/// The simulated GPU: each attempt runs on a fresh device that shares
/// its slot's replay memo (DESIGN.md §10 part 5), so a launch the slot
/// has made from the same L2 state restores that state instead of
/// replaying. Results and fault draws are a fresh device's.
pub(crate) struct SimLauncher<'m> {
    /// The memo of the slot the unit runs on.
    pub(crate) memo: &'m Arc<ReplayMemo>,
}

impl Launcher for SimLauncher<'_> {
    fn launch(
        &mut self,
        device: DeviceConfig,
        segs: &[&Segment],
        verify: bool,
    ) -> Result<Attempt, LaunchError> {
        let mut dev = GpuDevice::new(device).with_memo(Arc::clone(self.memo));
        executor::execute_gpu(&mut dev, segs, verify)
    }
}

/// Salt decorrelating a packed launch's (two or more segments) fault
/// and link streams from the row attempts of the same slot.
const PACKED_SALT: u64 = 0x9a0c_4ed5 << 16;

/// Salt decorrelating a slot's link-fault stream from its device's
/// soft-error stream.
const LINK_FAULT_SALT: u64 = 0x11f7_ab1e << 24;

impl Ladder {
    pub(crate) fn new(budget: Budget, rc: &ResilienceConfig, cpu: FusedCpuConfig) -> Self {
        Self {
            budget,
            rc: rc.clone(),
            cpu,
        }
    }

    /// Runs `unit` on `slot`: the unit's first attempt is joint (one
    /// packed launch for a packed unit), then every segment it did not
    /// serve descends the remaining rungs alone.
    pub(crate) fn run(
        &self,
        unit: &LaunchUnit,
        slot: DeviceSlot<'_>,
        launcher: &mut dyn Launcher,
    ) -> UnitOutcome {
        let n = unit.segments.len();
        let mut run = Run {
            ladder: self,
            unit,
            slot,
            launcher,
            out: UnitOutcome::empty(),
            climbs: (0..n).map(|_| Climb::default()).collect(),
        };
        if self.budget.gpu_attempts == 0 {
            for i in 0..n {
                run.harbor(i, Rung::Top);
            }
        } else {
            if run.admit() {
                let all: Vec<usize> = (0..n).collect();
                run.gpu(&all, Rung::Top);
            }
            for i in 0..n {
                if run.climbs[i].served.is_none() {
                    run.descend(i);
                }
            }
        }
        let mut out = run.out;
        out.segments = run
            .climbs
            .into_iter()
            .map(|c| SegmentOutcome {
                // Without a harbor only launch errors fail an attempt:
                // no breaker, lifecycle, link or verification applies.
                result: c
                    .served
                    .ok_or_else(|| c.error.unwrap_or(LaunchError::EmptyLaunch)),
                rung: c.rung,
                attempts: c.attempts,
                corruption: c.corruption,
            })
            .collect();
        out
    }
}

/// One segment's way down the ladder.
#[derive(Default)]
struct Climb {
    served: Option<Vec<Vec<f32>>>,
    rung: Rung,
    attempts: u32,
    corruption: u64,
    /// Its own ABFT flag tripped: the unverified rung is off the table.
    tainted: bool,
    /// The last launch error, surfaced when there is no harbor.
    error: Option<LaunchError>,
}

/// One ladder run's state.
struct Run<'r> {
    ladder: &'r Ladder,
    unit: &'r LaunchUnit,
    slot: DeviceSlot<'r>,
    launcher: &'r mut dyn Launcher,
    out: UnitOutcome,
    climbs: Vec<Climb>,
}

impl Run<'_> {
    /// The slot's breaker, when the budget uses one.
    fn breaker(&mut self) -> Option<&mut Breaker> {
        self.ladder.budget.harbor.then_some(&mut *self.slot.breaker)
    }

    /// May a GPU attempt run now?
    fn admit(&mut self) -> bool {
        let batch = self.slot.batch;
        self.breaker().is_none_or(|b| b.allow(batch))
    }

    /// Scores a finished GPU attempt on the breaker and as health
    /// evidence: any failed attempt makes the unit a failure.
    fn score(&mut self, failed: bool) {
        if failed {
            self.out.health = ShardHealth::Failure;
        } else if self.out.health == ShardHealth::Passive {
            self.out.health = ShardHealth::CleanGpu;
        }
        let batch = self.slot.batch;
        if let Some(b) = self.breaker() {
            if failed {
                b.record_failure(batch);
            } else {
                b.record_success();
            }
        }
    }

    /// Sleeps the backoff before segment `i`'s next attempt. A delay
    /// that would overrun the segment's deadline is skipped and
    /// returns false: the ladder short-circuits to the harbor.
    fn back_off(&mut self, i: usize) -> bool {
        let attempts = self.climbs[i].attempts;
        if !self.ladder.budget.backoff || attempts == 0 {
            return true;
        }
        let delay = backoff_delay(&self.ladder.rc, self.slot.batch, attempts);
        if self.unit.segments[i]
            .deadline
            .is_some_and(|d| Instant::now() + delay > d)
        {
            self.out.backoff_shortcircuits += 1;
            return false;
        }
        std::thread::sleep(delay);
        true
    }

    /// The rest of segment `i`'s ladder after the joint attempt.
    fn descend(&mut self, i: usize) {
        let budget = self.ladder.budget;
        let mut shortcircuit = false;
        while self.climbs[i].served.is_none() && self.climbs[i].attempts < budget.gpu_attempts {
            if !self.admit() {
                break;
            }
            if !self.back_off(i) {
                shortcircuit = true;
                break;
            }
            self.gpu(&[i], Rung::Top);
        }
        if self.climbs[i].served.is_none()
            && !shortcircuit
            && budget.unverified_rung
            && !self.climbs[i].tainted
            && self.admit()
            && self.back_off(i)
        {
            self.gpu(&[i], Rung::Unverified);
        }
        if self.climbs[i].served.is_none() && budget.harbor {
            self.harbor(i, Rung::Harbor);
        }
    }

    /// One GPU attempt of segments `members` on `rung`, packed when
    /// there are two or more.
    fn gpu(&mut self, members: &[usize], rung: Rung) {
        let (unit, slot) = (self.unit, &self.slot);
        let packed = members.len() > 1;
        let first = members[0];
        let mut key = slot
            .key
            .wrapping_add(u64::from(self.climbs[first].attempts) << 48)
            ^ ((first as u64) << 40);
        if packed {
            key ^= PACKED_SALT;
        }
        for &i in members {
            self.climbs[i].attempts += 1;
        }
        if !slot.phase.is_healthy() {
            self.out.lifecycle = Some(slot.phase);
            return self.fail(members, None);
        }
        let mut device = slot.device.clone();
        if let Some(f) = &mut device.fault {
            f.seed ^= splitmix64(key);
        }
        let segs: Vec<&Segment> = members.iter().map(|&i| &unit.segments[i]).collect();
        let verify = rung == Rung::Top && self.ladder.budget.verify;
        let Attempt {
            results,
            mut profile,
            flags,
        } = match self.launcher.launch(device, &segs, verify) {
            Ok(a) => a,
            Err(e) => return self.fail(members, Some(e)),
        };
        let injected = injected_data_faults(&profile);
        self.out.injected_faults += injected;
        let timed_out = slot
            .link
            .is_some_and(|ic| charge_transfers(&mut profile, ic, &segs, key));
        // The profile is kept even when the link timed out: the time
        // was spent, and its CRC ledger records what the wire did.
        self.out.profiles.push(profile);
        if timed_out {
            return self.fail(members, None);
        }
        if packed {
            self.out.packed_launches += 1;
            self.out.packed_segments += members.len() as u64;
        }
        let flagged = flags.iter().filter(|&&f| f).count();
        self.score(flagged > 0);
        if injected > 0 && flagged < members.len() {
            self.out.undetected += 1;
        }
        for ((&i, cols), flag) in members.iter().zip(results).zip(flags) {
            let climb = &mut self.climbs[i];
            if flag {
                climb.corruption += 1;
                climb.tainted = true;
            } else {
                climb.served = Some(cols);
                climb.rung = rung;
            }
        }
    }

    /// Records a failed attempt of `members`.
    fn fail(&mut self, members: &[usize], error: Option<LaunchError>) {
        self.score(true);
        if let Some(e) = error {
            for &i in members {
                self.climbs[i].error = Some(e.clone());
            }
        }
    }

    /// Serves segment `i` on the bit-exact CPU fused path.
    fn harbor(&mut self, i: usize, rung: Rung) {
        let seg = &self.unit.segments[i];
        let climb = &mut self.climbs[i];
        climb.attempts += 1;
        climb.served = Some(executor::execute_cpu(
            &seg.plan,
            &seg.targets,
            seg.h,
            &seg.weights,
            &self.ladder.cpu,
        ));
        climb.rung = rung;
    }
}

/// Injected data-fault events recorded in a completed GPU profile
/// (launch faults never produce a profile).
fn injected_data_faults(prof: &PipelineProfile) -> u64 {
    prof.kernels
        .iter()
        .map(|k| k.faults.smem_flips + k.faults.reg_flips + k.faults.dram_flips)
        .sum()
}

/// Charges an attempt's host↔device traffic through `ic` and reports
/// whether any transfer timed out. The `A`+norms upload is charged
/// once per distinct plan the device does not hold, `B` once per
/// distinct target set, `W` and `V` per segment (logical payload
/// sizes; padding is device-side). The link-fault stream is seeded by
/// the attempt's key, so its draws are a pure function of the task.
/// With a quiet (or absent) link-fault spec the entries equal the
/// fault-free model's.
fn charge_transfers(
    prof: &mut PipelineProfile,
    ic: &Interconnect,
    segs: &[&Segment],
    key: u64,
) -> bool {
    const F32: u64 = 4;
    let mut link = ic.fault.map(|mut spec| {
        spec.seed ^= splitmix64(key ^ LINK_FAULT_SALT);
        LinkFaultState::new(spec)
    });
    let mut charge = |label: &str, bytes: usize| {
        let bytes = bytes as u64 * F32;
        prof.transfers.push(match &mut link {
            Some(st) => estimate_transfer_faulted(ic, label, bytes, st.next_draw()),
            None => estimate_transfer(ic, label, bytes),
        });
    };
    let mut a_seen = HashSet::new();
    let mut b_seen = HashSet::new();
    for seg in segs {
        let (rows, k) = seg.plan.dims();
        let n = seg.targets.len();
        let r = seg.weights.len();
        if a_seen.insert(Arc::as_ptr(&seg.plan)) && !seg.resident {
            charge("A+norms", rows * k + rows);
        }
        if b_seen.insert(Arc::as_ptr(&seg.targets)) {
            charge("targets B", n * k);
        }
        charge("weights W", n * r);
        charge("result V", rows * r);
    }
    prof.transfers.iter().any(|t| t.timed_out)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { since_batch: u64 },
    HalfOpen,
}

/// Per-slot circuit breaker over GPU attempts: `threshold` consecutive
/// failures (launch faults, lifecycle faults, link timeouts or
/// detected corruption) trip it open; open batches skip the GPU rungs
/// entirely (straight to the CPU safe harbor); after `cooldown`
/// batches one half-open probe is admitted — success closes the
/// breaker, failure re-opens it.
pub(crate) struct Breaker {
    threshold: u32,
    cooldown: u64,
    state: BreakerState,
    consecutive_failures: u32,
    pub(crate) trips: u64,
    pub(crate) resets: u64,
}

impl Breaker {
    pub(crate) fn new(rc: &ResilienceConfig) -> Self {
        Self {
            threshold: rc.breaker_threshold.max(1),
            cooldown: rc.breaker_cooldown,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
            resets: 0,
        }
    }

    /// May batch `batch_idx` attempt the GPU rungs?
    fn allow(&mut self, batch_idx: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { since_batch } => {
                if batch_idx >= since_batch.saturating_add(self.cooldown) {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn record_success(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.resets += 1;
        }
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    fn record_failure(&mut self, batch_idx: u64) {
        // Saturate: a permanently sick device on a long run would
        // otherwise overflow the counter (a panic in debug, a silent
        // breaker close at the wrap in release).
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let reopen = self.state == BreakerState::HalfOpen;
        if reopen || self.consecutive_failures >= self.threshold {
            if !matches!(self.state, BreakerState::Open { .. }) {
                self.trips += 1;
            }
            self.state = BreakerState::Open {
                since_batch: batch_idx,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::time::Duration;

    use super::*;
    use ks_core::plan::SourceSet;
    use ks_gpu_sim::fault::LinkFaultSpec;
    use ks_gpu_sim::FaultSpec;
    use ks_gpu_sim::ReplayMemoStats;

    /// One scripted GPU attempt.
    enum Step {
        /// The launch fails.
        Fail,
        /// The launch completes on the simulator, then reports these
        /// per-segment ABFT flags and this many injected DRAM flips.
        Done(Vec<bool>, u64),
    }

    /// What the ladder asked the launcher for.
    #[derive(Debug, PartialEq)]
    struct Call {
        segments: usize,
        verify: bool,
        seed: u64,
    }

    /// A launcher that plays a script of attempt outcomes.
    struct Script {
        steps: VecDeque<Step>,
        calls: Vec<Call>,
    }

    impl Launcher for Script {
        fn launch(
            &mut self,
            device: DeviceConfig,
            segs: &[&Segment],
            verify: bool,
        ) -> Result<Attempt, LaunchError> {
            self.calls.push(Call {
                segments: segs.len(),
                verify,
                seed: device.fault.map_or(0, |f| f.seed),
            });
            match self
                .steps
                .pop_front()
                .expect("an attempt beyond the script")
            {
                Step::Fail => Err(LaunchError::WatchdogTimeout { limit_ms: 1 }),
                Step::Done(flags, injected) => {
                    let mut a = executor::execute_gpu(&mut GpuDevice::new(device), segs, false)?;
                    a.flags = flags;
                    a.profile.kernels[0].faults.dram_flips += injected;
                    Ok(a)
                }
            }
        }
    }

    /// A slot's fixed parts; the device carries a quiet fault spec so
    /// the reseeds show in the launcher's calls.
    struct Rig {
        rc: ResilienceConfig,
        device: DeviceConfig,
        link: Option<Interconnect>,
        phase: DevicePhase,
        breaker: Breaker,
    }

    const BATCH: u64 = 5;

    impl Rig {
        fn new() -> Self {
            let rc = ResilienceConfig {
                gpu_attempts: 2,
                backoff_base: Duration::from_micros(1),
                breaker_threshold: 10,
                ..ResilienceConfig::default()
            };
            Self {
                breaker: Breaker::new(&rc),
                rc,
                device: DeviceConfig {
                    fault: Some(FaultSpec {
                        seed: 7,
                        ..FaultSpec::default()
                    }),
                    ..DeviceConfig::gtx970()
                },
                link: None,
                phase: DevicePhase::Healthy,
            }
        }

        fn budget(&self, backend: ServeBackend, pooled: bool) -> Budget {
            Budget::of(backend, &self.rc, pooled)
        }

        fn run(
            &mut self,
            budget: Budget,
            unit: &LaunchUnit,
            steps: Vec<Step>,
        ) -> (UnitOutcome, Vec<Call>) {
            let ladder = Ladder::new(budget, &self.rc, FusedCpuConfig::default());
            let slot = DeviceSlot {
                device: &self.device,
                link: self.link.as_ref(),
                phase: self.phase,
                key: BATCH,
                breaker: &mut self.breaker,
                batch: BATCH,
            };
            let mut script = Script {
                steps: steps.into(),
                calls: Vec::new(),
            };
            let out = ladder.run(unit, slot, &mut script);
            assert!(
                script.steps.is_empty(),
                "the ladder played the whole script"
            );
            (out, script.calls)
        }

        fn failures(&self) -> u32 {
            self.breaker.consecutive_failures
        }
    }

    const RESILIENT: ServeBackend = ServeBackend::GpuResilient;
    const FUSED: ServeBackend = ServeBackend::GpuFused { cpu_fallback: true };

    fn segment(seed: u64) -> Segment {
        let sources = SourceSet::new(PointSet::uniform_cube(16, 3, seed));
        Segment {
            plan: Arc::new(SourcePlan::build(sources.points())),
            key: PlanKey::new(&sources, 0.9),
            targets: Arc::new(PointSet::uniform_cube(8, 3, seed + 100)),
            h: 0.9,
            weights: Arc::new(vec![vec![0.25; 8], vec![-0.5; 8]]),
            warm: false,
            resident: false,
            geometry: TileGeometry::paper_default(),
            deadline: None,
        }
    }

    fn unit(seeds: &[u64]) -> LaunchUnit {
        LaunchUnit {
            segments: seeds.iter().map(|&s| segment(s)).collect(),
        }
    }

    fn rungs(out: &UnitOutcome) -> Vec<(Rung, u32, u64)> {
        out.segments
            .iter()
            .map(|s| (s.rung, s.attempts, s.corruption))
            .collect()
    }

    /// A harbor result is the bit-exact CPU fused answer.
    fn assert_cpu_exact(s: &SegmentOutcome, seg: &Segment) {
        let want = executor::execute_cpu(
            &seg.plan,
            &seg.targets,
            seg.h,
            &seg.weights,
            &FusedCpuConfig::default(),
        );
        let got = s.result.as_ref().expect("served");
        for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn budgets_follow_the_rule_table() {
        let rig = Rig::new();
        assert_eq!(rig.budget(ServeBackend::CpuFused, false), Budget::CPU);
        assert_eq!(rig.budget(ServeBackend::CpuFused, true), Budget::CPU);
        let one = |harbor| Budget {
            gpu_attempts: 1,
            harbor,
            ..Budget::CPU
        };
        assert_eq!(rig.budget(FUSED, false), one(true));
        let bare = ServeBackend::GpuFused {
            cpu_fallback: false,
        };
        assert_eq!(rig.budget(bare, false), one(false));
        assert_eq!(
            rig.budget(bare, true),
            one(true),
            "pooled units always harbor"
        );
        assert_eq!(
            rig.budget(RESILIENT, false),
            Budget {
                gpu_attempts: 2,
                verify: true,
                unverified_rung: true,
                backoff: true,
                harbor: true,
            }
        );
        assert_eq!(
            rig.budget(RESILIENT, true),
            Budget {
                verify: true,
                ..one(true)
            },
            "pooled units keep one attempt whatever gpu_attempts says"
        );
    }

    #[test]
    fn a_cpu_budget_serves_on_the_undegraded_cpu_rung() {
        let mut rig = Rig::new();
        let u = unit(&[1]);
        let (out, calls) = rig.run(Budget::CPU, &u, vec![]);
        assert!(calls.is_empty());
        assert_eq!(rungs(&out), [(Rung::Top, 1, 0)]);
        assert_cpu_exact(&out.segments[0], &u.segments[0]);
        assert_eq!(out.health, ShardHealth::Passive);
    }

    #[test]
    fn retries_stay_on_the_top_rung_with_decorrelated_fault_seeds() {
        let mut rig = Rig::new();
        let (out, calls) = rig.run(
            rig.budget(RESILIENT, false),
            &unit(&[2]),
            vec![Step::Fail, Step::Done(vec![false], 0)],
        );
        assert_eq!(rungs(&out), [(Rung::Top, 2, 0)]);
        assert!(calls.iter().all(|c| c.verify && c.segments == 1));
        assert_eq!(
            calls[0].seed,
            7 ^ splitmix64(BATCH),
            "attempt 0 keys on the slot"
        );
        assert_ne!(calls[0].seed, calls[1].seed, "a retry redraws its faults");
        assert_eq!(out.profiles.len(), 1, "a failed launch leaves no profile");
        assert_eq!(rig.failures(), 0, "the success reset the breaker streak");
    }

    #[test]
    fn the_unverified_rung_follows_launch_failures_but_never_corruption() {
        let mut rig = Rig::new();
        let budget = rig.budget(RESILIENT, false);
        let (out, calls) = rig.run(
            budget,
            &unit(&[3]),
            vec![Step::Fail, Step::Fail, Step::Done(vec![false], 0)],
        );
        assert_eq!(rungs(&out), [(Rung::Unverified, 3, 0)]);
        assert!(!calls[2].verify, "the middle rung drops the checksums");
        let u = unit(&[4]);
        let (out, calls) = rig.run(budget, &u, vec![Step::Done(vec![true], 3), Step::Fail]);
        assert_eq!(
            rungs(&out),
            [(Rung::Harbor, 3, 1)],
            "a flagged segment is tainted: straight from the top rung to the harbor"
        );
        assert_eq!(calls.len(), 2);
        assert_cpu_exact(&out.segments[0], &u.segments[0]);
        assert_eq!(out.undetected, 0, "a flagged result is not kept");
    }

    #[test]
    fn an_open_breaker_refuses_every_gpu_attempt() {
        let mut rig = Rig::new();
        rig.rc.breaker_threshold = 1;
        rig.breaker = Breaker::new(&rig.rc);
        rig.breaker.record_failure(BATCH);
        let (out, calls) = rig.run(rig.budget(RESILIENT, false), &unit(&[5]), vec![]);
        assert!(calls.is_empty(), "no GPU attempt while open");
        assert_eq!(rungs(&out), [(Rung::Harbor, 1, 0)]);
        assert_eq!(out.health, ShardHealth::Passive, "never tried, no evidence");
    }

    #[test]
    fn lifecycle_and_link_failures_fail_the_attempt_like_a_launch_error() {
        let mut rig = Rig::new();
        rig.phase = DevicePhase::Hung;
        let (out, calls) = rig.run(rig.budget(FUSED, true), &unit(&[6]), vec![]);
        assert!(calls.is_empty(), "a hung device never launches");
        assert_eq!(rungs(&out), [(Rung::Harbor, 2, 0)]);
        assert_eq!(out.lifecycle, Some(DevicePhase::Hung));
        assert_eq!(out.health, ShardHealth::Failure);
        assert_eq!(rig.failures(), 1);

        let mut rig = Rig::new();
        rig.link = Some(Interconnect {
            fault: Some(LinkFaultSpec {
                seed: 3,
                corrupt_rate: 0.0,
                timeout_rate: 1.0,
            }),
            ..Interconnect::pcie3_x16()
        });
        let (out, calls) = rig.run(
            rig.budget(RESILIENT, true),
            &unit(&[7]),
            vec![Step::Done(vec![false], 1)],
        );
        assert_eq!(calls.len(), 1);
        assert_eq!(rungs(&out), [(Rung::Harbor, 2, 0)]);
        assert_eq!(
            out.profiles.len(),
            1,
            "the timed-out attempt's time was spent"
        );
        assert!(out.profiles[0].transfers.iter().any(|t| t.timed_out));
        assert_eq!((out.injected_faults, out.undetected), (1, 0));
        assert_eq!(out.health, ShardHealth::Failure);
        assert_eq!(rig.failures(), 1);
    }

    #[test]
    fn a_packed_attempt_keeps_clean_segments_and_surfaces_their_faults() {
        let mut rig = Rig::new();
        let u = unit(&[8, 9, 10]);
        let (out, calls) = rig.run(
            rig.budget(RESILIENT, true),
            &u,
            vec![Step::Done(vec![false, true, false], 2)],
        );
        assert_eq!(
            calls,
            [Call {
                segments: 3,
                verify: true,
                seed: 7 ^ splitmix64(BATCH ^ PACKED_SALT),
            }]
        );
        assert_eq!(
            rungs(&out),
            [(Rung::Top, 1, 0), (Rung::Harbor, 2, 1), (Rung::Top, 1, 0)]
        );
        assert_cpu_exact(&out.segments[1], &u.segments[1]);
        // The launch kept two segments that carry its injected faults,
        // so it surfaces them although a wave-mate was flagged.
        assert_eq!((out.injected_faults, out.undetected), (2, 1));
        assert_eq!((out.packed_launches, out.packed_segments), (1, 3));
        assert_eq!(out.health, ShardHealth::Failure);

        // Unpooled, the flagged segment continues alone with the
        // attempts it has left, verified only.
        let (out, calls) = rig.run(
            rig.budget(RESILIENT, false),
            &u,
            vec![Step::Done(vec![false, true, false], 0), Step::Fail],
        );
        assert_eq!(
            rungs(&out),
            [(Rung::Top, 1, 0), (Rung::Harbor, 3, 1), (Rung::Top, 1, 0)]
        );
        assert!(calls[1].verify && calls[1].segments == 1);
    }

    #[test]
    fn a_failed_packed_launch_continues_every_segment_alone() {
        let mut rig = Rig::new();
        let u = unit(&[11, 12]);
        let (out, _) = rig.run(rig.budget(FUSED, false), &u, vec![Step::Fail]);
        assert_eq!(rungs(&out), [(Rung::Harbor, 2, 0), (Rung::Harbor, 2, 0)]);
        assert_eq!(out.packed_launches, 0);

        let (out, calls) = rig.run(
            rig.budget(RESILIENT, false),
            &u,
            vec![
                Step::Fail,
                Step::Done(vec![false], 0),
                Step::Done(vec![false], 0),
            ],
        );
        assert_eq!(rungs(&out), [(Rung::Top, 2, 0), (Rung::Top, 2, 0)]);
        assert!(calls[1..].iter().all(|c| c.segments == 1));
        assert_ne!(
            calls[1].seed, calls[2].seed,
            "segments draw their own faults"
        );

        let bare = rig.budget(
            ServeBackend::GpuFused {
                cpu_fallback: false,
            },
            false,
        );
        let (out, _) = rig.run(bare, &u, vec![Step::Fail]);
        for s in &out.segments {
            assert!(matches!(s.result, Err(LaunchError::WatchdogTimeout { .. })));
            assert_eq!(s.attempts, 1);
        }
        assert_eq!(rig.failures(), 0, "no harbor, no breaker");
    }

    #[test]
    fn transfers_charge_residency_once_per_distinct_panel() {
        let ic = Interconnect::pcie3_x16();
        let cold = segment(13);
        let resident = cold.with_plan(Arc::clone(&cold.plan), true);
        let charged = |segs: &[&Segment]| {
            let mut prof = PipelineProfile::new("t");
            assert!(!charge_transfers(&mut prof, &ic, segs, 0));
            prof
        };
        let (c, r) = (charged(&[&cold]), charged(&[&resident]));
        assert_eq!(c.transfers.len(), 4, "A+norms, B, W, V");
        assert_eq!(r.transfers.len(), 3, "a resident panel skips A");
        assert_eq!(c.transfer_bytes() - r.transfer_bytes(), (16 * 3 + 16) * 4);
        assert!(c.transfer_time_s() > r.transfer_time_s());
        let mate = cold.with_plan(Arc::clone(&cold.plan), false);
        assert_eq!(
            charged(&[&cold, &mate]).transfers.len(),
            6,
            "wave-mates share one A and one B upload"
        );
    }

    /// One launch on a fresh device, outside any memo.
    fn fresh(device: &DeviceConfig, segs: &[&Segment], verify: bool) -> Attempt {
        let mut dev = GpuDevice::new(device.clone());
        executor::execute_gpu(&mut dev, segs, verify).expect("a fresh launch completes")
    }

    /// Same profile (`==`), flags and result bits.
    fn assert_same_attempt(got: &Attempt, want: &Attempt, case: &str) {
        assert_eq!(got.profile, want.profile, "{case}");
        assert_eq!(got.flags, want.flags, "{case}");
        let bits = |a: &Attempt| -> Vec<u32> {
            a.results
                .iter()
                .flatten()
                .flatten()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(got), bits(want), "{case}");
    }

    /// Launches every case twice through one memoised launcher and
    /// checks both attempts against a fresh device; returns the memo's
    /// counters. Sharing one memo across the cases makes a key that
    /// misses a dependency serve one case another's launch.
    fn memo_exact(
        device: &DeviceConfig,
        cases: &[(String, Vec<&Segment>, bool)],
    ) -> ReplayMemoStats {
        let memo = Arc::new(ReplayMemo::new());
        let mut launcher = SimLauncher { memo: &memo };
        for (case, segs, verify) in cases {
            let want = fresh(device, segs, *verify);
            for _ in 0..2 {
                let got = launcher
                    .launch(device.clone(), segs, *verify)
                    .expect("a memoised launch completes");
                assert_same_attempt(&got, &want, case);
            }
        }
        memo.stats()
    }

    fn memo_stats(hits: u64, misses: u64) -> ReplayMemoStats {
        ReplayMemoStats {
            hits,
            misses,
            retired: 0,
        }
    }

    fn with_columns(seg: &Segment, r: usize, warm: bool, geometry: TileGeometry) -> Segment {
        let n = seg.targets.len();
        Segment {
            weights: Arc::new((0..r).map(|c| vec![0.5 - c as f32 / 8.0; n]).collect()),
            warm,
            geometry,
            ..seg.with_plan(Arc::clone(&seg.plan), false)
        }
    }

    /// The paper default and a bit-compatible low-power variant.
    fn geometries() -> [TileGeometry; 2] {
        let paper = TileGeometry::paper_default();
        let low = TileGeometry {
            micro_m: 16,
            ..paper
        };
        assert!(low.bit_compatible(&paper));
        [paper, low]
    }

    #[test]
    fn a_memo_hit_equals_a_fresh_launch_on_every_unpacked_shape() {
        let base = segment(20);
        let mut segs = Vec::new();
        for r in 1..=8 {
            for warm in [false, true] {
                for geometry in geometries() {
                    segs.push((r, warm, geometry, with_columns(&base, r, warm, geometry)));
                }
            }
        }
        let mut cases = Vec::new();
        for (r, warm, geometry, seg) in &segs {
            for verify in [false, true] {
                let case = format!("R {r}, warm {warm}, verify {verify}, {geometry:?}");
                cases.push((case, vec![seg], verify));
            }
        }
        // 320 launches: a cold case makes three (norms of A and B,
        // then the fused kernel), a warm one two. Each of the 64
        // fused launches misses once. The three norms launches (A,
        // then B, from an empty L2; B alone) miss once each time the
        // 32-entry memo has cleared, and it clears twice over the run.
        assert_eq!(
            memo_exact(&DeviceConfig::gtx970(), &cases),
            memo_stats(320 - 64 - 3 * 3, 64 + 3 * 3)
        );
    }

    #[test]
    fn a_memo_hit_equals_a_fresh_launch_on_packed_sets() {
        let a = segment(21);
        let b = segment(22);
        // Each mate shares one of `a`'s Arcs and differs from `copy`
        // (`a`'s data in Arcs of its own) only in that sharing.
        let corpus_mate = Segment {
            targets: Arc::clone(&b.targets),
            ..a.with_plan(Arc::clone(&a.plan), false)
        };
        let targets_mate = Segment {
            targets: Arc::clone(&a.targets),
            ..b.with_plan(Arc::clone(&b.plan), false)
        };
        let copy = Segment {
            plan: Arc::new((*a.plan).clone()),
            targets: Arc::new((*a.targets).clone()),
            ..a.with_plan(Arc::clone(&a.plan), false)
        };
        // A warm segment on a cold one's corpus: the shared slot
        // carries both norms buffers.
        let warm_mate = Segment {
            warm: true,
            ..corpus_mate.with_plan(Arc::clone(&a.plan), false)
        };
        let mut cases = Vec::new();
        for verify in [false, true] {
            for (name, segs) in [
                ("distinct corpora", vec![&a, &copy]),
                ("shared corpus", vec![&a, &corpus_mate]),
                ("shared targets", vec![&a, &targets_mate]),
                ("shared corpus, warm mate", vec![&a, &warm_mate]),
                ("three, mixed", vec![&a, &corpus_mate, &targets_mate]),
                ("three, a twice", vec![&a, &copy, &a]),
                // Other data in the shapes of "distinct corpora": its
                // keys, so both attempts hit every launch of that case.
                ("other data", vec![&a, &b]),
            ] {
                cases.push((format!("{name}, verify {verify}"), segs, verify));
            }
        }
        // 128 launches. 12 distinct fused launches ("other data"
        // makes "distinct corpora"'s) and 12 distinct norms launches
        // miss once; the norms of equal-sized corpora and targets on
        // one address from one L2 state are one launch.
        assert_eq!(
            memo_exact(&DeviceConfig::gtx970(), &cases),
            memo_stats(128 - 24, 24)
        );
    }

    #[test]
    fn a_memo_hit_keeps_the_fault_draws_of_a_fresh_launch() {
        let upsets = DeviceConfig {
            fault: Some(FaultSpec {
                seed: 5,
                smem_rate: 4.0,
                reg_rate: 4.0,
                ..FaultSpec::default()
            }),
            ..DeviceConfig::gtx970()
        };
        let (a, b) = (segment(23), segment(24));
        let cases = vec![
            ("row, verified".to_owned(), vec![&a], true),
            ("row".to_owned(), vec![&a], false),
            ("packed, verified".to_owned(), vec![&a, &b], true),
        ];
        for (case, segs, verify) in &cases {
            let applied: u64 = fresh(&upsets, segs, *verify)
                .profile
                .kernels
                .iter()
                .map(|k| k.faults.smem_flips + k.faults.reg_flips)
                .sum();
            assert!(applied > 0, "{case}: the upsets land");
        }
        // 22 launches; the three fused launches, the first segment's
        // two norms launches and the packed mate's two miss once.
        assert_eq!(memo_exact(&upsets, &cases), memo_stats(15, 7));

        // A launch-level fault fails a hit as it fails a fresh launch:
        // the fault is drawn before the memo is looked up.
        let memo = Arc::new(ReplayMemo::new());
        let mut launcher = SimLauncher { memo: &memo };
        let clean = DeviceConfig::gtx970();
        launcher.launch(clean.clone(), &[&a], false).unwrap();
        let watchdog = DeviceConfig {
            fault: Some(FaultSpec {
                watchdog_rate: 1.0,
                ..FaultSpec::default()
            }),
            ..clean.clone()
        };
        assert!(matches!(
            launcher.launch(watchdog, &[&a], false),
            Err(LaunchError::WatchdogTimeout { .. })
        ));
        assert_eq!(memo.stats(), memo_stats(0, 3), "no lookup");
        launcher.launch(clean, &[&a], false).unwrap();
        assert_eq!(memo.stats(), memo_stats(3, 3), "the entries were there");
    }

    #[test]
    fn breaker_failure_count_saturates_instead_of_overflowing() {
        let rc = ResilienceConfig {
            breaker_threshold: u32::MAX,
            breaker_cooldown: 1,
            ..ResilienceConfig::default()
        };
        let mut b = Breaker::new(&rc);
        b.consecutive_failures = u32::MAX - 1;
        b.record_failure(0);
        assert_eq!(b.consecutive_failures, u32::MAX);
        assert_eq!(b.trips, 1, "at threshold: trips");
        // The next failure must not wrap to 0 (which would silently
        // restart the count and, in debug builds, panic first).
        b.record_failure(1);
        assert_eq!(b.consecutive_failures, u32::MAX, "saturates at the top");
    }

    #[test]
    fn breaker_trips_cools_down_probes_and_resets() {
        let rc = ResilienceConfig {
            breaker_threshold: 2,
            breaker_cooldown: 3,
            ..ResilienceConfig::default()
        };
        let mut b = Breaker::new(&rc);
        assert!(b.allow(0));
        b.record_failure(0);
        assert!(b.allow(0), "below threshold stays closed");
        b.record_failure(0);
        assert_eq!(b.trips, 1, "threshold consecutive failures trip it");
        assert!(!b.allow(1), "open rejects during cooldown");
        assert!(!b.allow(2));
        assert!(b.allow(3), "cooldown elapsed: half-open probe admitted");
        b.record_failure(3);
        assert_eq!(b.trips, 2, "failed probe re-opens (a fresh trip)");
        assert!(!b.allow(4));
        assert!(b.allow(6), "second probe after renewed cooldown");
        b.record_success();
        assert_eq!(b.resets, 1, "successful probe closes the breaker");
        assert!(b.allow(7));
    }

    #[test]
    fn half_open_probe_failure_reopens_with_a_fresh_window() {
        let rc = ResilienceConfig {
            breaker_threshold: 2,
            breaker_cooldown: 3,
            ..ResilienceConfig::default()
        };
        let mut b = Breaker::new(&rc);
        b.record_failure(0);
        b.record_failure(0); // trips open, since_batch = 0
        assert!(!b.allow(2));
        assert!(b.allow(3), "cooldown over: half-open");
        // The probe fails much later than the trip: the cooldown
        // window restarts from the probe's batch, not the trip's.
        b.record_failure(10);
        assert!(!b.allow(11));
        assert!(!b.allow(12));
        assert!(b.allow(13), "cooldown counts from the failed probe");
        b.record_success();
        assert_eq!(b.resets, 1, "half-open probe success closes");
        assert_eq!(b.consecutive_failures, 0, "…and clears the streak");
        assert!(b.allow(14));
        b.record_failure(14);
        assert!(b.allow(14), "closed again: below threshold stays closed");
        assert_eq!(b.trips, 2, "one trip, one probe-failure re-open");
    }
}
