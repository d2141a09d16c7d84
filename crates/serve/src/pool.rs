//! Multi-device sharded serving: the `ks-pool` routing tier.
//!
//! Kernel summation is a pure sum over the source set, so a row-wise
//! partition of `A` across devices merges *exactly*: output row `i`
//! depends only on its own `A` row (plus all of `B`/`W`), and both
//! backends evaluate that row in a fixed order independent of the
//! partition. The pool exploits this: each batch is sharded over `N`
//! simulated devices with [`shard_ranges`] (128-row aligned, matching
//! the GPU block tile), the per-device partial `V` slices are merged
//! by concatenation in shard order, and the pooled result is
//! **bit-identical** to the single-device solve — the invariant
//! `tests/pool_differential.rs` pins.
//!
//! Architecture:
//!
//! * The **coordinator** (the server's worker thread) owns the pool:
//!   the per-device shard-plan caches and every placement decision,
//!   made synchronously via [`crate::router::place`] — cache-first,
//!   then load-aware over the tasks the unit has already placed. Only
//!   the coordinator routes, so warm/cold accounting (and therefore
//!   transfer bytes and simulated time) is deterministic.
//! * Each unit runs **fork-join**: its owners run in parallel (the
//!   coordinator takes the first, a scoped thread each of the rest),
//!   each owner runs its tasks in slot order, and the unit returns
//!   once every task has finished. A device has no thread or queue of
//!   its own, and a task runs only on its owner, so every host-side
//!   counter repeats from run to run.
//! * Each device has its own [`DeviceConfig`] (including an optional
//!   fault spec), interconnect, circuit breaker and replay memo:
//!   together they are the device slot a task runs on. A task is a
//!   launch unit — a row shard, or the device's share of a packed wave
//!   (a plain one-segment launch when that share is one segment) — and
//!   it runs down the one degradation ladder (`crate::ladder`,
//!   DESIGN.md §11) with a pooled budget: one GPU attempt, then the
//!   bit-exact CPU harbor. A failed attempt records a failure on *its
//!   own* slot's breaker, so a sick device degrades without taking the
//!   pool down — and without ever failing a batch.
//! * Shards launch at the batch's resolved tile geometry and take the
//!   norms path of the server's plan-cache verdict, so pooled results
//!   are bit-identical to unpooled serving. Device residency (the
//!   per-device shard-plan caches) decides placement and whether the
//!   `A`-pack + norms upload is charged over the owner's
//!   [`Interconnect`]; the `B`/`W` uploads and the `V` download are
//!   always charged. The costs land as transfer entries on the shard's
//!   pipeline profile and in the per-device report.
//!
//! Simulated batch latency is the **max** over shard pipelines
//! (kernels + transfers): devices run concurrently, so the slowest
//! shard sets the pace. [`PoolReport::sim_time_s`] accumulates that
//! per-batch max — the quantity `ks-bench pool` compares across pool
//! sizes.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use ks_core::plan::shard_ranges;
use ks_core::FusedCpuConfig;
use ks_gpu_sim::config::{DeviceConfig, Interconnect};
use ks_gpu_sim::fault::{DevicePhase, LifecycleSpec, LifecycleState};
use ks_gpu_sim::profiler::PipelineProfile;
use ks_gpu_sim::{ReplayMemo, ReplayMemoStats};

use crate::cache::{PlanCacheStats, ShardKey, ShardPlanCache};
use crate::health::{HealthConfig, HealthMonitor};
use crate::ladder::{
    Breaker, Budget, DeviceSlot, Ladder, LaunchUnit, Rung, SegmentOutcome, SimLauncher, UnitOutcome,
};
use crate::server::{ResilienceConfig, ServeBackend};

/// Rows per shard-alignment tile: the GPU block tile, so shard
/// boundaries never split a 128-row block and padding stays minimal.
pub const SHARD_ALIGN: usize = 128;

/// One slot of the pool: a device model plus the link it sits on.
#[derive(Debug, Clone)]
pub struct PoolDevice {
    /// The simulated device (its own fault spec, clocks, caches).
    pub device: DeviceConfig,
    /// The host↔device link shard traffic is charged through (its own
    /// optional link-fault spec — see
    /// [`ks_gpu_sim::fault::LinkFaultSpec`]).
    pub interconnect: Interconnect,
    /// Device-lifecycle fault injection (hang/loss/recovery per pool
    /// batch), or `None` for a device that never flaps. A property of
    /// the *slot*, like the interconnect.
    pub lifecycle: Option<LifecycleSpec>,
}

/// Pool shape and sizing.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// The devices; shard count per batch is at most `devices.len()`.
    pub devices: Vec<PoolDevice>,
    /// Unused: the pool keeps no task queues. Kept because the
    /// benchmark package (`perfbench`) names it.
    pub queue_capacity: usize,
    /// Per-device shard-plan cache capacity (entries).
    pub plan_cache_capacity: usize,
    /// Shard alignment in rows. Keep it a multiple of [`SHARD_ALIGN`]
    /// (the GPU block tile) for the bit-identity argument to cover the
    /// GPU backend.
    pub shard_align: usize,
    /// Eviction/readmission policy of the pool's health monitor.
    pub health: HealthConfig,
}

impl PoolConfig {
    /// `n` identical devices on identical links, with default cache,
    /// alignment and health settings.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn homogeneous(n: usize, device: DeviceConfig, interconnect: Interconnect) -> Self {
        assert!(n > 0, "pool needs at least one device");
        Self {
            devices: vec![
                PoolDevice {
                    device,
                    interconnect,
                    lifecycle: None,
                };
                n
            ],
            queue_capacity: (2 * n).max(4),
            plan_cache_capacity: 8,
            shard_align: SHARD_ALIGN,
            health: HealthConfig::default(),
        }
    }
}

/// Per-device accounting, reported at shutdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceReport {
    /// Device name (from its config).
    pub name: String,
    /// Shard tasks placed on (owned by) this device.
    pub shard_tasks: u64,
    /// Segments run on this device's slot: one per row shard it owned,
    /// and each of a packed wave's segments it held. Summed over the
    /// pool it equals [`PoolReport::shard_tasks`].
    pub executed: u64,
    /// Shards completed on this device's GPU model.
    pub gpu_shards: u64,
    /// Shards recovered on the bit-exact CPU path (launch failure,
    /// detected corruption, or an open breaker).
    pub cpu_fallbacks: u64,
    /// ABFT verification failures on this device's attempts.
    pub corruption_detected: u64,
    /// Injected data-fault events observed in completed profiles.
    pub injected_faults: u64,
    /// Circuit-breaker transitions to open.
    pub breaker_trips: u64,
    /// Circuit-breaker recoveries.
    pub breaker_resets: u64,
    /// Health-monitor evictions (flaps count each time).
    pub evictions: u64,
    /// Health-monitor readmissions after a successful probe.
    pub readmissions: u64,
    /// Attempts that hit a lifecycle hang on this device.
    pub lifecycle_hangs: u64,
    /// Attempts that hit a (permanent) lifecycle loss.
    pub lifecycle_losses: u64,
    /// Transfers over this device's link that timed out (each fails
    /// its shard attempt; the shard recovers on the CPU path).
    pub link_timeouts: u64,
    /// In-flight corruptions the link CRC check caught.
    pub link_crc_detected: u64,
    /// Retransmissions recovering those corruptions.
    pub link_retransmits: u64,
    /// Shard-plan cache counters (coordinator-resolved).
    pub plan_cache: PlanCacheStats,
    /// Replay-memo counters of this device's slot, one lookup per
    /// keyed launch.
    pub replay_memo: ReplayMemoStats,
    /// Bytes moved over this device's interconnect.
    pub transfer_bytes: u64,
    /// Modelled time spent moving them, in seconds.
    pub transfer_time_s: f64,
    /// Summed simulated pipeline time of this device's GPU shards
    /// (kernels + transfers).
    pub busy_time_s: f64,
}

impl DeviceReport {
    /// Folds in one finished task of `segments` placed segments.
    fn record(&mut self, segments: usize, outcome: &UnitOutcome, on_gpu: bool) {
        self.shard_tasks += segments as u64;
        self.executed += segments as u64;
        for s in &outcome.segments {
            if s.rung == Rung::Harbor {
                self.cpu_fallbacks += 1;
            } else if on_gpu {
                self.gpu_shards += 1;
            }
            self.corruption_detected += s.corruption;
        }
        self.injected_faults += outcome.injected_faults;
        match outcome.lifecycle {
            Some(DevicePhase::Hung) => self.lifecycle_hangs += 1,
            Some(DevicePhase::Lost) => self.lifecycle_losses += 1,
            _ => {}
        }
        for p in &outcome.profiles {
            self.transfer_bytes += p.transfer_bytes();
            self.transfer_time_s += p.transfer_time_s();
            self.busy_time_s += p.total_time_s();
            for t in &p.transfers {
                self.link_crc_detected += t.crc_detected;
                self.link_retransmits += t.retransmits;
                self.link_timeouts += u64::from(t.timed_out);
            }
        }
    }
}

/// Pool-level accounting, attached to
/// [`crate::server::ServeReport::pool`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolReport {
    /// Per-device reports, in device order.
    pub devices: Vec<DeviceReport>,
    /// Batches the pool executed.
    pub batches: u64,
    /// Shard tasks across all batches.
    pub shard_tasks: u64,
    /// Always 0: every task runs on its owner. Kept because the
    /// benchmark package (`perfbench`) reads it.
    pub stolen_tasks: u64,
    /// Simulated serving time: Σ over batches of the slowest shard's
    /// pipeline time (devices run concurrently).
    pub sim_time_s: f64,
}

impl PoolReport {
    /// Total shards recovered on the CPU path across devices.
    #[must_use]
    pub fn total_fallbacks(&self) -> u64 {
        self.devices.iter().map(|d| d.cpu_fallbacks).sum()
    }

    /// Total breaker trips across devices.
    #[must_use]
    pub fn total_trips(&self) -> u64 {
        self.devices.iter().map(|d| d.breaker_trips).sum()
    }

    /// Total health-monitor evictions across devices.
    #[must_use]
    pub fn total_evictions(&self) -> u64 {
        self.devices.iter().map(|d| d.evictions).sum()
    }

    /// Total readmissions across devices.
    #[must_use]
    pub fn total_readmissions(&self) -> u64 {
        self.devices.iter().map(|d| d.readmissions).sum()
    }

    /// Total link timeouts across devices.
    #[must_use]
    pub fn total_link_timeouts(&self) -> u64 {
        self.devices.iter().map(|d| d.link_timeouts).sum()
    }
}

/// One unit of device work — a row shard of one coalesced batch, or
/// one device's share of a packed wave — placed on its owner.
struct Task {
    owner: usize,
    /// The unit segment each of the task's segments merges into.
    origin: Vec<usize>,
    unit: LaunchUnit,
}

/// One device of the pool: its slot (device model, link, breaker and
/// replay memo, used by one task at a time) and what the coordinator
/// keeps for it.
struct Member {
    device: DeviceConfig,
    interconnect: Interconnect,
    breaker: Breaker,
    memo: Arc<ReplayMemo>,
    report: DeviceReport,
    /// Residency: the row shards and whole corpora the device holds.
    cache: ShardPlanCache,
    /// The lifecycle generator (`None` = never flaps), advanced once
    /// per unit on the coordinator so the phase trajectory is
    /// deterministic and an evicted device keeps aging (a hung device
    /// can recover while out of the placement set).
    lifecycle: Option<LifecycleState>,
}

impl Member {
    /// Runs `unit`, task `index` of `batch`, down `ladder` on this
    /// device's slot in `phase`. A panic inside the ladder is returned,
    /// for the coordinator to resume once the unit's other tasks have
    /// finished.
    fn run(
        &mut self,
        ladder: &Ladder,
        unit: &LaunchUnit,
        phase: DevicePhase,
        batch: u64,
        index: usize,
    ) -> std::thread::Result<UnitOutcome> {
        let slot = DeviceSlot {
            device: &self.device,
            link: Some(&self.interconnect),
            phase,
            key: batch ^ ((index as u64) << 48),
            breaker: &mut self.breaker,
            batch,
        };
        let mut launcher = SimLauncher { memo: &self.memo };
        std::panic::catch_unwind(AssertUnwindSafe(|| ladder.run(unit, slot, &mut launcher)))
    }
}

/// The device pool. Owned by the server's worker thread; one instance
/// lives for the server's lifetime so breakers, replay memos and
/// shard-plan caches persist across batches.
pub(crate) struct DevicePool {
    members: Vec<Member>,
    /// The pooled ladder every task runs.
    ladder: Ladder,
    shard_align: usize,
    /// Membership authority: drain → evict → readmit.
    health: HealthMonitor,
    report: PoolReport,
}

impl DevicePool {
    /// A pool of `pool`'s devices serving `backend`.
    ///
    /// # Panics
    /// Panics on an empty device list or a zero shard alignment.
    pub(crate) fn new(
        pool: &PoolConfig,
        backend: ServeBackend,
        resilience: &ResilienceConfig,
        cpu: FusedCpuConfig,
    ) -> Self {
        assert!(!pool.devices.is_empty(), "pool needs at least one device");
        assert!(pool.shard_align > 0, "shard alignment must be positive");
        Self {
            members: pool
                .devices
                .iter()
                .map(|d| Member {
                    device: d.device.clone(),
                    interconnect: d.interconnect.clone(),
                    breaker: Breaker::new(resilience),
                    memo: Arc::new(ReplayMemo::new()),
                    report: DeviceReport {
                        name: d.device.name.clone(),
                        ..DeviceReport::default()
                    },
                    cache: ShardPlanCache::new(pool.plan_cache_capacity.max(1)),
                    lifecycle: d.lifecycle.map(LifecycleState::new),
                })
                .collect(),
            ladder: Ladder::new(Budget::of(backend, resilience, true), resilience, cpu),
            shard_align: pool.shard_align,
            health: HealthMonitor::new(pool.devices.len(), pool.health),
            report: PoolReport::default(),
        }
    }

    /// Executes one launch unit across the pool and merges the tasks'
    /// outcomes in slot order; returns once every task has finished
    /// and never fails (sick tasks land on the bit-exact CPU harbor).
    /// Only health-eligible devices receive tasks.
    ///
    /// A row unit is sharded row-wise: the shard count shrinks with
    /// the active set, and because the merge concatenates in slot
    /// order the pooled result stays bit-identical for *any* active
    /// count. A unit of two or more segments (a packed wave) places
    /// each segment whole on one device (cache-first on corpus
    /// residency, so wave-mates sharing a corpus cluster and dedup its
    /// upload), and every device owning segments runs them as **one**
    /// launch — packed when it owns two or more, a plain one-segment
    /// launch when it owns one.
    pub(crate) fn run(&mut self, unit: LaunchUnit, batch: u64) -> UnitOutcome {
        // Advance every device's lifecycle one epoch (evicted devices
        // included — a hung device must keep aging toward recovery).
        let phases: Vec<DevicePhase> = self
            .members
            .iter_mut()
            .map(|m| {
                m.lifecycle
                    .as_mut()
                    .map_or(DevicePhase::Healthy, LifecycleState::advance)
            })
            .collect();
        let eligible = self.health.eligible(batch);
        let n_segs = unit.segments.len();
        let tasks = self.place_unit(unit, &eligible);
        let outcomes = self.execute(&tasks, &phases, batch);

        // Merge in slot order — the fixed deterministic order the
        // bit-identity invariant needs. Health is scored in slot
        // order too, after every task has finished: evictions are
        // deterministic and never race a live batch.
        let on_gpu = self.ladder.budget.gpu_attempts > 0;
        let mut out = UnitOutcome::empty();
        let mut merged: Vec<Option<SegmentOutcome>> = (0..n_segs).map(|_| None).collect();
        let mut batch_sim = 0.0f64;
        for (task, mut o) in tasks.into_iter().zip(outcomes) {
            self.health.note_outcome(task.owner, o.health, batch);
            self.members[task.owner]
                .report
                .record(task.origin.len(), &o, on_gpu);
            let slot_sim: f64 = o.profiles.iter().map(PipelineProfile::total_time_s).sum();
            batch_sim = batch_sim.max(slot_sim);
            out.absorb(&mut o);
            self.report.shard_tasks += task.origin.len() as u64;
            for (i, s) in task.origin.into_iter().zip(o.segments) {
                merged[i] = Some(match merged[i].take() {
                    None => s,
                    Some(acc) => concat_rows(acc, s),
                });
            }
        }
        out.segments = merged
            .into_iter()
            .map(|s| s.expect("every unit segment is placed"))
            .collect();
        self.report.batches += 1;
        self.report.sim_time_s += batch_sim;
        out
    }

    /// Picks the owner of a task whose `A` panel is `key`: cache-first
    /// on residency, then load-aware over `placed` (the tasks this
    /// unit already placed on each device), over the health-eligible
    /// devices only.
    fn place(&self, key: &ShardKey, placed: &[usize], eligible: &[bool]) -> usize {
        let warm: Vec<bool> = self.members.iter().map(|m| m.cache.contains(key)).collect();
        crate::router::place_masked(&warm, placed, eligible)
    }

    /// Places `unit` on the eligible devices and returns its tasks in
    /// slot order: one per row shard, or one per device owning
    /// segments of a packed wave.
    fn place_unit(&mut self, unit: LaunchUnit, eligible: &[bool]) -> Vec<Task> {
        let mut placed = vec![0usize; self.members.len()];
        let mut tasks: Vec<Task> = Vec::new();
        if unit.segments.len() > 1 {
            for (i, mut seg) in unit.segments.into_iter().enumerate() {
                let (m, _) = seg.plan.dims();
                let key = ShardKey {
                    plan: seg.key,
                    row0: 0,
                    rows: m,
                };
                let owner = self.place(&key, &placed, eligible);
                placed[owner] += 1;
                seg.resident = self.members[owner].cache.hold(key, &seg.plan);
                match tasks.iter_mut().find(|t| t.owner == owner) {
                    Some(t) => {
                        t.origin.push(i);
                        t.unit.segments.push(seg);
                    }
                    None => tasks.push(Task {
                        owner,
                        origin: vec![i],
                        unit: LaunchUnit {
                            segments: vec![seg],
                        },
                    }),
                }
            }
        } else {
            let seg = &unit.segments[0];
            let (m, _) = seg.plan.dims();
            let active = eligible.iter().filter(|&&e| e).count();
            for rows in shard_ranges(m, active, self.shard_align) {
                let key = ShardKey {
                    plan: seg.key,
                    row0: rows.start,
                    rows: rows.len(),
                };
                let owner = self.place(&key, &placed, eligible);
                placed[owner] += 1;
                let (plan, resident) = self.members[owner].cache.get_or_slice(key, &seg.plan, rows);
                tasks.push(Task {
                    owner,
                    origin: vec![0],
                    unit: LaunchUnit {
                        segments: vec![seg.with_plan(plan, resident)],
                    },
                });
            }
        }
        tasks
    }

    /// Runs every task on its owner's slot — the owners in parallel,
    /// each owner's tasks in slot order — and returns the outcomes in
    /// slot order. If a task panicked, the first panic in slot order
    /// resumes here once every task has finished.
    fn execute(&mut self, tasks: &[Task], phases: &[DevicePhase], batch: u64) -> Vec<UnitOutcome> {
        let ladder = &self.ladder;
        let run_owner = |(d, member): (usize, &mut Member)| {
            tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.owner == d)
                .map(|(s, t)| (s, member.run(ladder, &t.unit, phases[d], batch, s)))
                .collect::<Vec<_>>()
        };
        let mut owners = self
            .members
            .iter_mut()
            .enumerate()
            .filter(|(d, _)| tasks.iter().any(|t| t.owner == *d));
        // The coordinator runs the first owner itself, so a unit with
        // one owner starts no thread.
        let first = owners.next();
        let mut done = std::thread::scope(|scope| {
            let rest: Vec<_> = owners
                .map(|owner| scope.spawn(|| run_owner(owner)))
                .collect();
            let mut done = first.map(run_owner).unwrap_or_default();
            for handle in rest {
                done.extend(
                    handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
                );
            }
            done
        });
        done.sort_unstable_by_key(|&(s, _)| s);
        done.into_iter()
            .map(|(_, o)| o.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    }

    /// Assembles the final report.
    pub(crate) fn into_report(self) -> PoolReport {
        let mut report = self.report;
        for (d, m) in self.members.into_iter().enumerate() {
            let mut dr = m.report;
            dr.breaker_trips = m.breaker.trips;
            dr.breaker_resets = m.breaker.resets;
            dr.plan_cache = m.cache.stats();
            dr.replay_memo = m.memo.stats();
            dr.evictions = self.health.evictions[d];
            dr.readmissions = self.health.readmissions[d];
            report.devices.push(dr);
        }
        report
    }
}

/// Appends a later row shard's outcome to the rows merged so far: the
/// columns concatenate, and the batch ran as deep down the ladder as
/// its deepest shard.
fn concat_rows(mut acc: SegmentOutcome, s: SegmentOutcome) -> SegmentOutcome {
    acc.result = match (acc.result, s.result) {
        (Ok(mut cols), Ok(more)) => {
            for (c, rows) in cols.iter_mut().zip(more) {
                c.extend_from_slice(&rows);
            }
            Ok(cols)
        }
        (Err(e), _) | (_, Err(e)) => Err(e),
    };
    acc.rung = acc.rung.max(s.rung);
    acc.attempts = acc.attempts.max(s.attempts);
    acc.corruption += s.corruption;
    acc
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use ks_core::plan::{SourcePlan, SourceSet};
    use ks_core::problem::PointSet;
    use ks_gpu_kernels::TileGeometry;

    use super::*;
    use crate::cache::PlanKey;
    use crate::ladder::Segment;

    /// A 256-row segment (two 128-row shards on two devices) with `r`
    /// weight columns.
    fn segment(r: usize) -> LaunchUnit {
        let sources = SourceSet::new(PointSet::uniform_cube(256, 3, 11));
        LaunchUnit {
            segments: vec![Segment {
                plan: Arc::new(SourcePlan::build(sources.points())),
                key: PlanKey::new(&sources, 0.9),
                targets: Arc::new(PointSet::uniform_cube(8, 3, 12)),
                h: 0.9,
                weights: Arc::new(vec![vec![0.25; 8]; r]),
                warm: false,
                resident: false,
                geometry: TileGeometry::paper_default(),
                deadline: None,
            }],
        }
    }

    /// A healthy two-device pool on the fused GPU backend.
    fn two_devices() -> DevicePool {
        let cfg = PoolConfig::homogeneous(2, DeviceConfig::gtx970(), Interconnect::pcie3_x16());
        DevicePool::new(
            &cfg,
            ServeBackend::GpuFused { cpu_fallback: true },
            &ResilienceConfig::default(),
            FusedCpuConfig::default(),
        )
    }

    #[test]
    fn a_task_panic_resumes_on_the_coordinator() {
        let (tx, rx) = std::sync::mpsc::channel();
        let coordinator = std::thread::spawn(move || {
            let mut pool = two_devices();
            // Nine columns exceed the GPU batch width, so padding
            // asserts inside the ladder. In this packed unit only
            // device 0's segment is that wide: device 1's task still
            // runs to the end before the panic resumes.
            let mut mixed = segment(9);
            mixed.segments.append(&mut segment(2).segments);
            let packed = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(mixed, 0)));
            let finished = pool.members[1].memo.stats();
            // Here both devices' tasks panic.
            let wide = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(segment(9), 1)));
            // The pool still serves.
            let served = pool.run(segment(2), 2);
            let _ = pool.into_report();
            let seg = &served.segments[0];
            tx.send((
                wide.is_err() && packed.is_err(),
                finished,
                seg.rung,
                seg.result.clone(),
            ))
            .expect("receiver waits");
        });
        let (panicked, finished, rung, result) = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("a panicking task must not hang the pool");
        coordinator
            .join()
            .expect("the coordinator caught the panic");
        assert!(panicked, "each task panic resumes on the coordinator");
        assert_eq!(
            (finished.hits, finished.misses, finished.retired),
            (0, 3, 0),
            "device 1 launched its segment (two norms and the fused kernel) before the panic resumed"
        );
        assert_eq!(rung, Rung::Top);
        let cols = result.expect("the next unit is served");
        assert_eq!(cols.len(), 2);
        assert!(cols.iter().all(|c| c.len() == 256));
    }

    #[test]
    fn an_owner_runs_its_tasks_in_slot_order_on_its_own_slot() {
        let mut pool = two_devices();
        let unit = segment(2);
        // Device 0 holds both shards, so cache-first placement gives
        // it both tasks and device 1 none.
        let seg = &unit.segments[0];
        for rows in [0..128, 128..256] {
            let key = ShardKey {
                plan: seg.key,
                row0: rows.start,
                rows: rows.len(),
            };
            let _ = pool.members[0].cache.get_or_slice(key, &seg.plan, rows);
        }
        let out = pool.run(unit, 0);
        let cols = out.segments[0].result.as_ref().expect("served");
        assert!(cols.iter().all(|c| c.len() == 256));
        assert_eq!(out.profiles.len(), 2, "one launch per shard");
        let report = pool.into_report();
        let [d0, d1] = &report.devices[..] else {
            panic!("two devices")
        };
        let memo = d0.replay_memo;
        assert_eq!(
            (memo.hits, memo.misses, memo.retired),
            (3, 3, 0),
            "the second shard restores the first one's three launches"
        );
        assert_eq!(d1.replay_memo, ReplayMemoStats::default());
        assert_eq!((d0.executed, d1.executed), (2, 0));
        assert_eq!((d0.shard_tasks, d1.shard_tasks), (2, 0));
        assert_eq!((report.shard_tasks, report.stolen_tasks), (2, 0));
    }

    #[test]
    fn homogeneous_pool_config_sizes_sanely() {
        let cfg = PoolConfig::homogeneous(4, DeviceConfig::gtx970(), Interconnect::pcie3_x16());
        assert_eq!(cfg.devices.len(), 4);
        assert_eq!(cfg.queue_capacity, 8);
        assert_eq!(cfg.shard_align, SHARD_ALIGN);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_device_pool_is_rejected() {
        let _ = PoolConfig::homogeneous(0, DeviceConfig::gtx970(), Interconnect::nvlink());
    }
}
