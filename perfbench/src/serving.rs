//! The three serving workloads: a released backlog (unpooled or on a
//! faulty two-device pool) and a seeded open loop of small queries.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ks_gpu_sim::config::{DeviceConfig, Interconnect};
use ks_gpu_sim::{FaultSpec, LifecycleSpec, LinkFaultSpec};
use ks_serve::{
    generate_queries, generate_small_queries, HealthConfig, PoolConfig, PoolDevice, Query,
    ServeBackend, ServeConfig, ServeReport, Server, SmallQueryWorkloadConfig, Submit, Ticket,
    WorkloadConfig,
};

use crate::stats::{poisson_schedule, SplitMix};
use crate::trace::Spans;

/// Queries in one backlog round.
pub const BACKLOG_QUERIES: usize = 256;
/// Queries in one open-loop round (six seconds of arrivals).
pub const OPEN_QUERIES: usize = 270;
/// Open-loop arrival rate, queries per second: under a third of the
/// small-query stream's backlog capacity (~150 queries/s on a 2-core
/// host), where the latency tail stays steady from run to run.
pub const OPEN_RATE: f64 = 45.0;
/// Seed of the open loop's arrival schedules. Arrival times belong to
/// the workload's definition, not to its input: every run offers the
/// same bursts, so the latency tail compares across seeds and commits
/// without the schedule's own sampling spread. The workload seed
/// varies the queries.
pub const ARRIVAL_SEED: u64 = 0x0A11_0CA7;
/// Devices in the `pool_chaos` pool.
pub const POOL_DEVICES: usize = 2;

/// The serve-bench device: a GTX970 with its L2 cut to 16 KB, so plan
/// reuse shows in the DRAM ledger.
pub fn serve_device() -> DeviceConfig {
    let mut d = DeviceConfig::gtx970();
    d.l2_bytes = 16 * 1024;
    d
}

/// The backlog stream: blocks of eight queries, five on a shared
/// M = 2048 corpus, two on its 2M variant and one on a private corpus
/// that always misses the plan cache (87.5 % shared); a quarter of the
/// private corpora are 2M. Every query has N = 256 targets of K = 32.
/// The shared mix per block is fixed and the seed orders each block,
/// so streams of different seeds carry nearly the same work.
pub fn backlog_stream(seed: u64) -> Vec<Query> {
    let blocks = BACKLOG_QUERIES / 8;
    let base = WorkloadConfig {
        clients: 1,
        queries_per_client: 5 * blocks,
        corpora: 1,
        shared_ratio: 1.0,
        large_ratio: 0.0,
        m: 2048,
        n: 256,
        k: 32,
        h: 1.0,
        deadline: None,
        seed,
    };
    let mut small = generate_queries(&base).into_iter();
    let mut large = generate_queries(&WorkloadConfig {
        queries_per_client: 2 * blocks,
        large_ratio: 1.0,
        ..base.clone()
    })
    .into_iter();
    let mut private = generate_queries(&WorkloadConfig {
        queries_per_client: blocks,
        shared_ratio: 0.0,
        large_ratio: 0.25,
        ..base
    })
    .into_iter();
    let mut rng = SplitMix::new(seed ^ 0xB10C_5EED);
    let mut stream = Vec::with_capacity(BACKLOG_QUERIES);
    for _ in 0..blocks {
        let mut block: Vec<Query> = (0..5)
            .filter_map(|_| small.next())
            .chain((0..2).filter_map(|_| large.next()))
            .chain(private.next())
            .collect();
        for i in (1..block.len()).rev() {
            block.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        stream.extend(block);
    }
    stream
}

/// The open-loop stream: 16 distinct (corpus, targets, h)
/// combinations of 256×256×32, cycled.
pub fn open_workload(seed: u64) -> SmallQueryWorkloadConfig {
    SmallQueryWorkloadConfig {
        queries: OPEN_QUERIES,
        seed,
        ..SmallQueryWorkloadConfig::default()
    }
}

/// Unpooled `GpuFused{cpu_fallback}` serving of a paused backlog; the
/// queue holds the whole backlog.
pub fn backlog_config() -> ServeConfig {
    ServeConfig {
        backend: ServeBackend::GpuFused { cpu_fallback: true },
        device: serve_device(),
        queue_capacity: BACKLOG_QUERIES,
        start_paused: true,
        ..ServeConfig::default()
    }
}

/// The `pool_chaos` server: two PCIe devices on the ABFT-verified
/// backend. Both members take seeded shared-memory and register
/// upsets, member 1 flaps (hangs and recovers) and member 0's link
/// corrupts and times out transfers. At these rates about half of the
/// shards recover on the CPU. The fault schedules are part of the
/// modelled environment, not of the input, so their seeds are fixed:
/// the workload seed varies only the queries.
pub fn pool_config() -> ServeConfig {
    let mut rng = SplitMix::new(0xC4A0_5EED);
    let mut devices: Vec<PoolDevice> = (0..POOL_DEVICES)
        .map(|_| {
            let mut device = serve_device();
            device.fault = Some(FaultSpec {
                seed: rng.next_u64(),
                smem_rate: 0.3,
                reg_rate: 0.3,
                ..FaultSpec::default()
            });
            PoolDevice {
                device,
                interconnect: Interconnect::pcie3_x16(),
                lifecycle: None,
            }
        })
        .collect();
    devices[1].lifecycle = Some(LifecycleSpec {
        seed: rng.next_u64(),
        hang_rate: 0.3,
        recover_rate: 0.5,
        ..LifecycleSpec::default()
    });
    devices[0].interconnect.fault = Some(LinkFaultSpec {
        seed: rng.next_u64(),
        corrupt_rate: 0.2,
        timeout_rate: 0.05,
    });
    ServeConfig {
        backend: ServeBackend::GpuResilient,
        pool: Some(PoolConfig {
            devices,
            queue_capacity: 4,
            plan_cache_capacity: 8,
            shard_align: ks_serve::SHARD_ALIGN,
            health: HealthConfig::default(),
        }),
        ..backlog_config()
    }
}

/// Packed open-loop serving; the queue never rejects at this rate.
pub fn open_config() -> ServeConfig {
    ServeConfig {
        backend: ServeBackend::GpuFused { cpu_fallback: true },
        device: serve_device(),
        queue_capacity: OPEN_QUERIES,
        pack: true,
        ..ServeConfig::default()
    }
}

/// One served round.
pub struct Round {
    /// Input generation plus server start (and, for a backlog, the
    /// submissions to the paused server).
    pub setup_s: f64,
    /// First send (release or first scheduled send) to last fulfilment.
    pub wall_s: f64,
    /// Process CPU time over the same interval, all threads.
    pub cpu_s: f64,
    /// Time at least one query was in the system (submitted or
    /// released, not yet fulfilled): the server's busy wall time.
    pub busy_s: f64,
    /// Fulfilment minus scheduled send, per query; +∞ when the query
    /// produced no result.
    pub latencies_ms: Vec<f64>,
    /// Actual minus scheduled send, per query (open loop only).
    pub late_ms: Vec<f64>,
    pub results: Vec<Option<Vec<f32>>>,
    pub stream: Vec<Query>,
    pub report: ServeReport,
}

/// Waits for every ticket in submission order and stamps each
/// fulfilment when the waiter reaches it (a ticket fulfilled out of
/// order is stamped late by at most the wait before it). Records one
/// span per query, from its submission to that stamp.
fn collect(
    tickets: impl Iterator<Item = (usize, Instant, Option<Ticket>)>,
    n: usize,
    spans: &mut Option<&mut Spans>,
) -> (Vec<Option<Vec<f32>>>, Vec<Option<Instant>>) {
    let mut results = vec![None; n];
    let mut done = vec![None; n];
    for (i, submitted, ticket) in tickets {
        let Some(t) = ticket else { continue };
        let r = t.wait().ok();
        let now = Instant::now();
        if let Some(s) = spans.as_deref_mut() {
            s.record("query", None, submitted, now);
        }
        done[i] = Some(now);
        results[i] = r;
    }
    (results, done)
}

/// Length of the union of the intervals `[start_i, end_i]`, seconds.
fn busy_s(mut intervals: Vec<(Instant, Instant)>) -> f64 {
    intervals.sort_by_key(|&(s, _)| s);
    let mut total = 0.0;
    let mut open: Option<(Instant, Instant)> = None;
    for (s, e) in intervals {
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += (oe - os).as_secs_f64();
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + open.map_or(0.0, |(s, e)| (e - s).as_secs_f64())
}

/// Fulfilment minus scheduled send, in ms, or +∞ without a result.
fn latencies(due: &[Instant], done: &[Option<Instant>], results: &[Option<Vec<f32>>]) -> Vec<f64> {
    due.iter()
        .zip(done)
        .zip(results)
        .map(|((d, t), r)| match (t, r) {
            (Some(t), Some(_)) => (*t - *d).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        })
        .collect()
}

/// Generates the stream, fills a paused server with it, releases it
/// and waits for every result. The stream is a pure function of the
/// workload seed, so every round of one seed serves identical inputs.
pub fn backlog_round(cfg: &ServeConfig, seed: u64, spans: Option<&mut Spans>) -> Round {
    let mut spans = spans;
    let t0 = Instant::now();
    let stream = backlog_stream(seed);
    let mut srv = Server::start(cfg.clone());
    let tickets: Vec<(usize, Instant, Option<Ticket>)> = stream
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let submitted = Instant::now();
            let ticket = match srv.submit(q.clone()) {
                Submit::Accepted(t) => Some(t),
                Submit::Rejected(_) => None,
            };
            (i, submitted, ticket)
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    let cpu0 = crate::process_cpu_s();
    let release = Instant::now();
    srv.resume();
    let (results, done) = collect(tickets.into_iter(), stream.len(), &mut spans);
    let last = done.iter().flatten().max().copied().unwrap_or(release);
    let cpu_s = crate::process_cpu_s() - cpu0;
    let report = srv.shutdown();
    Round {
        setup_s,
        wall_s: (last - release).as_secs_f64(),
        cpu_s,
        busy_s: (last - release).as_secs_f64(),
        // The whole backlog is sent at the release.
        latencies_ms: latencies(&vec![release; stream.len()], &done, &results),
        late_ms: Vec::new(),
        results,
        stream,
        report,
    }
}

/// One open-loop round: a generator thread submits each query at its
/// scheduled time, whether or not earlier ones have completed; the
/// calling thread waits for the tickets.
pub fn open_round(
    cfg: &ServeConfig,
    wl: &SmallQueryWorkloadConfig,
    schedule_seed: u64,
    spans: Option<&mut Spans>,
) -> Round {
    let mut spans = spans;
    let t0 = Instant::now();
    let stream = generate_small_queries(wl);
    let srv = Server::start(cfg.clone());
    let setup_s = t0.elapsed().as_secs_f64();
    let schedule = poisson_schedule(schedule_seed, stream.len(), OPEN_RATE);
    let n = stream.len();
    let (tx, rx) = mpsc::channel();
    let start = Instant::now() + Duration::from_millis(5);
    let due: Vec<Instant> = schedule
        .iter()
        .map(|&t| start + Duration::from_secs_f64(t))
        .collect();
    let to_send = stream.clone();
    let sends = due.clone();
    let cpu0 = crate::process_cpu_s();
    let (results, done, late_ms, submitted, srv) = std::thread::scope(|s| {
        let gen = s.spawn(move || {
            let mut srv = srv;
            let mut late = Vec::with_capacity(sends.len());
            let mut submitted_at = Vec::with_capacity(sends.len());
            for (i, (q, due)) in to_send.into_iter().zip(sends).enumerate() {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let submitted = Instant::now();
                late.push((submitted - due).as_secs_f64() * 1e3);
                submitted_at.push(submitted);
                let ticket = match srv.submit(q) {
                    Submit::Accepted(t) => Some(t),
                    Submit::Rejected(_) => None,
                };
                tx.send((i, submitted, ticket))
                    .expect("the waiter outlives the generator");
            }
            (late, submitted_at, srv)
        });
        let (results, done) = collect(rx.iter(), n, &mut spans);
        let (late, submitted, srv) = gen.join().expect("generator thread panicked");
        (results, done, late, submitted, srv)
    });
    let last = done.iter().flatten().max().copied().unwrap_or(start);
    let cpu_s = crate::process_cpu_s() - cpu0;
    let report = srv.shutdown();
    let busy = submitted
        .iter()
        .zip(&done)
        .filter_map(|(&s, d)| d.map(|d| (s, d)))
        .collect();
    Round {
        setup_s,
        wall_s: (last - start).as_secs_f64(),
        cpu_s,
        busy_s: busy_s(busy),
        latencies_ms: latencies(&due, &done, &results),
        late_ms,
        results,
        stream,
        report,
    }
}
