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
//! * The **coordinator** (the server's worker thread) owns the
//!   per-device shard-plan caches and all placement decisions, made
//!   synchronously at enqueue time via [`crate::router::place`] —
//!   cache-first, then load-aware. Keeping routing out of the device
//!   threads makes warm/cold accounting (and therefore transfer bytes
//!   and simulated time) deterministic.
//! * Each device has a bounded task queue and a host thread. Idle
//!   threads **steal** from other queues (deterministic ring scan),
//!   but a stolen task still executes against its *owner's* device
//!   model, breaker and interconnect — stealing parallelises the
//!   host-side simulation without changing any modelled outcome.
//! * Each device has its own [`DeviceConfig`] (including an optional
//!   fault spec), interconnect and circuit breaker: together they are
//!   the device slot a task runs on. A task is a launch unit — a row
//!   shard, or the device's share of a packed wave — and its device
//!   thread runs it down the one degradation ladder (`crate::ladder`,
//!   DESIGN.md §11) with a pooled budget: one GPU attempt, then the
//!   bit-exact CPU harbor. A failed attempt records a failure on *its
//!   own* slot's breaker, so a sick device degrades without taking
//!   the pool down — and without ever failing a batch.
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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use ks_core::plan::shard_ranges;
use ks_core::FusedCpuConfig;
use ks_gpu_sim::config::{DeviceConfig, Interconnect};
use ks_gpu_sim::fault::{DevicePhase, LifecycleSpec, LifecycleState};
use ks_gpu_sim::profiler::PipelineProfile;

use crate::cache::{PlanCacheStats, ShardKey, ShardPlanCache};
use crate::health::{HealthConfig, HealthMonitor};
use crate::ladder::{
    Breaker, Budget, DeviceSlot, Ladder, LaunchUnit, Rung, SegmentOutcome, SimLauncher, UnitOutcome,
};
use crate::queue::BoundedQueue;
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
    /// Per-device task queue bound.
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
    /// `n` identical devices on identical links, with defaults sized
    /// so one batch's shards never deadlock on queue backpressure.
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
#[derive(Debug, Clone, Default)]
pub struct DeviceReport {
    /// Device name (from its config).
    pub name: String,
    /// Shard tasks placed on (owned by) this device.
    pub shard_tasks: u64,
    /// Tasks this device's thread executed (own or stolen).
    pub executed: u64,
    /// Of `executed`: tasks stolen from another device's queue.
    pub stolen: u64,
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
    /// Bytes moved over this device's interconnect.
    pub transfer_bytes: u64,
    /// Modelled time spent moving them, in seconds.
    pub transfer_time_s: f64,
    /// Summed simulated pipeline time of this device's GPU shards
    /// (kernels + transfers).
    pub busy_time_s: f64,
}

/// Pool-level accounting, attached to
/// [`crate::server::ServeReport::pool`].
#[derive(Debug, Clone, Default)]
pub struct PoolReport {
    /// Per-device reports, in device order.
    pub devices: Vec<DeviceReport>,
    /// Batches the pool executed.
    pub batches: u64,
    /// Shard tasks across all batches.
    pub shard_tasks: u64,
    /// Tasks executed by a thread other than their owner's.
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

/// Rendezvous for one batch's tasks (row shards or packed
/// sub-launches).
struct BatchMerge<T> {
    slots: Mutex<Vec<Option<T>>>,
    done: Condvar,
}

impl<T> BatchMerge<T> {
    fn new(slots: usize) -> Self {
        Self {
            slots: Mutex::new((0..slots).map(|_| None).collect()),
            done: Condvar::new(),
        }
    }

    fn complete(&self, slot: usize, outcome: T) {
        let mut g = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(g[slot].is_none(), "merge slot filled twice");
        g[slot] = Some(outcome);
        drop(g);
        self.done.notify_all();
    }

    /// Blocks until every slot is filled; returns outcomes in slot
    /// order.
    fn wait(&self) -> Vec<T> {
        let mut g = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if g.iter().all(Option::is_some) {
                return g
                    .iter_mut()
                    .map(|s| s.take().expect("all filled"))
                    .collect();
            }
            g = self.done.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One unit of device work — a row shard of one coalesced batch, or
/// one device's share of a packed wave — bound at placement time to
/// its owner's slot and lifecycle phase, so a steal changes *which
/// host thread* runs the simulation, never what is simulated.
struct Task {
    unit: LaunchUnit,
    owner: usize,
    /// The owner's lifecycle phase this batch, drawn by the
    /// coordinator and bound here so a steal never re-draws it.
    phase: DevicePhase,
    batch: u64,
    slot: usize,
    merge: Arc<BatchMerge<UnitOutcome>>,
}

/// State shared between the coordinator and the device threads.
struct Shared {
    queues: Vec<Arc<BoundedQueue<Task>>>,
    devices: Vec<PoolDevice>,
    breakers: Vec<Mutex<Breaker>>,
    stats: Vec<Mutex<DeviceReport>>,
    /// The pooled ladder every device thread runs.
    ladder: Ladder,
    /// Bumped (under the lock) whenever work is enqueued.
    work_seq: Mutex<u64>,
    work: Condvar,
    closed: AtomicBool,
}

/// The device pool. Owned by the server's worker thread; one instance
/// lives for the server's lifetime so breakers and shard-plan caches
/// persist across batches.
pub(crate) struct DevicePool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// Coordinator-owned per-device residency: row shards and whole
    /// corpora each device has uploaded.
    caches: Vec<ShardPlanCache>,
    shard_align: usize,
    /// Per-device lifecycle generators (`None` = never flaps),
    /// advanced once per batch/wave on the coordinator so the phase
    /// trajectory is deterministic and evicted devices keep aging
    /// (a hung device can recover while out of the placement set).
    lifecycles: Vec<Option<LifecycleState>>,
    /// Membership authority: drain → evict → readmit.
    health: HealthMonitor,
    report: PoolReport,
}

impl DevicePool {
    /// Spawns the device threads.
    ///
    /// # Panics
    /// Panics on an empty device list or zero sizing.
    pub(crate) fn start(
        pool: &PoolConfig,
        backend: ServeBackend,
        resilience: &ResilienceConfig,
        cpu: FusedCpuConfig,
    ) -> Self {
        assert!(!pool.devices.is_empty(), "pool needs at least one device");
        assert!(
            pool.queue_capacity > 0,
            "pool queue capacity must be positive"
        );
        assert!(pool.shard_align > 0, "shard alignment must be positive");
        let n = pool.devices.len();
        let shared = Arc::new(Shared {
            queues: (0..n)
                .map(|_| Arc::new(BoundedQueue::new(pool.queue_capacity)))
                .collect(),
            devices: pool.devices.clone(),
            breakers: (0..n)
                .map(|_| Mutex::new(Breaker::new(resilience)))
                .collect(),
            stats: pool
                .devices
                .iter()
                .map(|d| {
                    Mutex::new(DeviceReport {
                        name: d.device.name.clone(),
                        ..DeviceReport::default()
                    })
                })
                .collect(),
            ladder: Ladder::new(Budget::of(backend, resilience, true), resilience, cpu),
            work_seq: Mutex::new(0),
            work: Condvar::new(),
            closed: AtomicBool::new(false),
        });
        let threads = (0..n)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || device_loop(me, &shared))
            })
            .collect();
        Self {
            shared,
            threads,
            caches: (0..n)
                .map(|_| ShardPlanCache::new(pool.plan_cache_capacity.max(1)))
                .collect(),
            shard_align: pool.shard_align,
            lifecycles: pool
                .devices
                .iter()
                .map(|d| d.lifecycle.map(LifecycleState::new))
                .collect(),
            health: HealthMonitor::new(n, pool.health),
            report: PoolReport::default(),
        }
    }

    /// Picks the owner of a task whose `A` panel is `key`: cache-first
    /// on residency, then load-aware (queue depth plus what this batch
    /// already placed — queues may drain faster than we enqueue), over
    /// the health-eligible devices only.
    fn place(&self, key: &ShardKey, placed: &[usize], eligible: &[bool]) -> usize {
        let warm: Vec<bool> = self.caches.iter().map(|c| c.contains(key)).collect();
        let depth: Vec<usize> = self
            .shared
            .queues
            .iter()
            .zip(placed)
            .map(|(q, p)| q.len() + p)
            .collect();
        crate::router::place_masked(&warm, &depth, eligible)
    }

    /// Executes one launch unit across the pool and merges the tasks'
    /// outcomes in slot order; blocks until every task completes and
    /// never fails (sick tasks land on the bit-exact CPU harbor). Only
    /// health-eligible devices receive tasks.
    ///
    /// A row unit is sharded row-wise: the shard count shrinks with
    /// the active set, and because the merge concatenates in slot
    /// order the pooled result stays bit-identical for *any* active
    /// count. A packed unit places each segment whole on one device
    /// (cache-first on corpus residency, so wave-mates sharing a
    /// corpus cluster and dedup its upload), and every device owning
    /// segments runs them as **one** packed launch.
    pub(crate) fn run(&mut self, unit: LaunchUnit, batch: u64) -> UnitOutcome {
        // Advance every device's lifecycle one epoch (evicted devices
        // included — a hung device must keep aging toward recovery).
        let phases: Vec<DevicePhase> = self
            .lifecycles
            .iter_mut()
            .map(|l| {
                l.as_mut()
                    .map_or(DevicePhase::Healthy, LifecycleState::advance)
            })
            .collect();
        let eligible = self.health.eligible(batch);
        let n_segs = unit.segments.len();
        let mut placed = vec![0usize; self.caches.len()];
        // Per slot: the owner and the unit segment each task segment
        // merges into.
        let mut slots: Vec<(usize, Vec<usize>)> = Vec::new();
        let merge;
        if unit.packed {
            let mut groups: Vec<(usize, Vec<usize>, LaunchUnit)> = Vec::new();
            for (i, mut seg) in unit.segments.into_iter().enumerate() {
                let (m, _) = seg.plan.dims();
                let key = ShardKey {
                    plan: seg.key,
                    row0: 0,
                    rows: m,
                };
                let owner = self.place(&key, &placed, &eligible);
                placed[owner] += 1;
                seg.resident = self.caches[owner].hold(key, &seg.plan);
                match groups.iter_mut().find(|g| g.0 == owner) {
                    Some((_, members, sub)) => {
                        members.push(i);
                        sub.segments.push(seg);
                    }
                    None => groups.push((
                        owner,
                        vec![i],
                        LaunchUnit {
                            segments: vec![seg],
                            packed: true,
                        },
                    )),
                }
            }
            merge = Arc::new(BatchMerge::new(groups.len()));
            for (slot, (owner, members, sub)) in groups.into_iter().enumerate() {
                slots.push((owner, members));
                self.dispatch(sub, owner, phases[owner], batch, slot, &merge);
            }
        } else {
            let seg = &unit.segments[0];
            let (m, _) = seg.plan.dims();
            let active = eligible.iter().filter(|&&e| e).count();
            let ranges = shard_ranges(m, active, self.shard_align);
            merge = Arc::new(BatchMerge::new(ranges.len()));
            for (slot, rows) in ranges.into_iter().enumerate() {
                let key = ShardKey {
                    plan: seg.key,
                    row0: rows.start,
                    rows: rows.len(),
                };
                let owner = self.place(&key, &placed, &eligible);
                placed[owner] += 1;
                let (plan, resident) = self.caches[owner].get_or_slice(key, &seg.plan, rows);
                let sub = LaunchUnit {
                    segments: vec![seg.with_plan(plan, resident)],
                    packed: false,
                };
                slots.push((owner, vec![0]));
                self.dispatch(sub, owner, phases[owner], batch, slot, &merge);
            }
        }
        let outcomes = merge.wait();

        // Merge in slot order — the fixed deterministic order the
        // bit-identity invariant needs. Health is scored in slot
        // order too, after every in-flight task has drained:
        // evictions are deterministic and never race a live batch.
        let mut out = UnitOutcome::empty();
        let mut merged: Vec<Option<SegmentOutcome>> = (0..n_segs).map(|_| None).collect();
        let mut batch_sim = 0.0f64;
        for ((owner, members), mut o) in slots.into_iter().zip(outcomes) {
            self.health.note_outcome(owner, o.health, batch);
            let slot_sim: f64 = o.profiles.iter().map(PipelineProfile::total_time_s).sum();
            batch_sim = batch_sim.max(slot_sim);
            out.absorb(&mut o);
            self.report.shard_tasks += members.len() as u64;
            for (i, s) in members.into_iter().zip(o.segments) {
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

    /// Binds one task to its owner and queues it (spinning through
    /// backpressure — the device threads are draining), waking the
    /// pool.
    fn dispatch(
        &self,
        unit: LaunchUnit,
        owner: usize,
        phase: DevicePhase,
        batch: u64,
        slot: usize,
        merge: &Arc<BatchMerge<UnitOutcome>>,
    ) {
        self.shared.stats[owner]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shard_tasks += unit.segments.len() as u64;
        let mut item = Task {
            unit,
            owner,
            phase,
            batch,
            slot,
            merge: Arc::clone(merge),
        };
        loop {
            match self.shared.queues[owner].try_push(item) {
                Ok(()) => break,
                Err(back) => {
                    item = back;
                    std::thread::yield_now();
                }
            }
        }
        let mut seq = self
            .shared
            .work_seq
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *seq += 1;
        drop(seq);
        self.shared.work.notify_all();
    }

    /// Joins the device threads and assembles the final report.
    pub(crate) fn shutdown(mut self) -> PoolReport {
        self.shared.closed.store(true, Ordering::SeqCst);
        for q in &self.shared.queues {
            q.close();
        }
        {
            let mut seq = self
                .shared
                .work_seq
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *seq += 1;
        }
        self.shared.work.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let mut report = std::mem::take(&mut self.report);
        for (d, stat) in self.shared.stats.iter().enumerate() {
            let mut dr = stat.lock().unwrap_or_else(PoisonError::into_inner).clone();
            let b = self.shared.breakers[d]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            dr.breaker_trips = b.trips;
            dr.breaker_resets = b.resets;
            dr.plan_cache = self.caches[d].stats();
            dr.evictions = self.health.evictions[d];
            dr.readmissions = self.health.readmissions[d];
            report.stolen_tasks += dr.stolen;
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

/// Device-thread main loop: drain the own queue, steal when idle,
/// park when the pool is quiet, exit when closed and fully drained.
fn device_loop(me: usize, shared: &Arc<Shared>) {
    let n = shared.queues.len();
    loop {
        if let Some(task) = shared.queues[me].try_pop() {
            run_task(task, me, false, shared);
            continue;
        }
        // Deterministic steal scan: ring-wise from the next device.
        let mut stole = false;
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(task) = shared.queues[victim].try_pop() {
                run_task(task, me, true, shared);
                stole = true;
                break;
            }
        }
        if stole {
            continue;
        }
        if shared.closed.load(Ordering::SeqCst) {
            // Queues are closed: nothing new arrives, and the scans
            // above found them all empty.
            return;
        }
        // Park until the coordinator enqueues more work (with a
        // timeout so a lost wakeup only costs latency, not liveness).
        let seq = shared
            .work_seq
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let before = *seq;
        let mut seq = seq;
        while *seq == before && !shared.closed.load(Ordering::SeqCst) {
            let (g, timeout) = shared
                .work
                .wait_timeout(seq, std::time::Duration::from_millis(5))
                .unwrap_or_else(PoisonError::into_inner);
            seq = g;
            if timeout.timed_out() {
                break;
            }
        }
    }
}

/// Runs one task down the ladder on its owner's slot, on the executing
/// thread `me` (`stolen` says it differs from the owner), folds the
/// outcome into the owner's report and posts it to the batch merge.
fn run_task(task: Task, me: usize, stolen: bool, shared: &Shared) {
    let dev = &shared.devices[task.owner];
    let slot = DeviceSlot {
        device: &dev.device,
        link: Some(&dev.interconnect),
        phase: task.phase,
        key: task.batch ^ ((task.slot as u64) << 48),
        breaker: &shared.breakers[task.owner],
        batch: task.batch,
    };
    let outcome = shared.ladder.run(&task.unit, &slot, &mut SimLauncher);
    {
        let mut mine = shared.stats[me]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        mine.executed += 1;
        if stolen {
            mine.stolen += 1;
        }
    }
    {
        let mut owner = shared.stats[task.owner]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let on_gpu = shared.ladder.budget.gpu_attempts > 0;
        for s in &outcome.segments {
            if s.rung == Rung::Harbor {
                owner.cpu_fallbacks += 1;
            } else if on_gpu {
                owner.gpu_shards += 1;
            }
            owner.corruption_detected += s.corruption;
        }
        owner.injected_faults += outcome.injected_faults;
        match outcome.lifecycle {
            Some(DevicePhase::Hung) => owner.lifecycle_hangs += 1,
            Some(DevicePhase::Lost) => owner.lifecycle_losses += 1,
            _ => {}
        }
        for p in &outcome.profiles {
            owner.transfer_bytes += p.transfer_bytes();
            owner.transfer_time_s += p.transfer_time_s();
            owner.busy_time_s += p.total_time_s();
            for t in &p.transfers {
                owner.link_crc_detected += t.crc_detected;
                owner.link_retransmits += t.retransmits;
                owner.link_timeouts += u64::from(t.timed_out);
            }
        }
    }
    task.merge.complete(task.slot, outcome);
}

#[cfg(test)]
mod tests {
    use super::*;

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
