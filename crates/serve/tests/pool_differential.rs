//! Pooled-serving differential harness.
//!
//! Sharding a batch row-wise over N devices is an *exact* partition of
//! the kernel sum: every output row is computed from its own `A` row
//! (plus all of `B`/`W`) in an order independent of the partition, on
//! both backends. These tests pin the resulting invariant — pooled
//! results are **bit-identical** to single-device serving, cold and
//! warm, for N ∈ {1, 2, 4} — and the fault-isolation story: a sick
//! device trips only its own breaker and degrades to the bit-exact
//! CPU path without taking the pool down.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ks_core::plan::SourceSet;
use ks_core::problem::PointSet;
use ks_gpu_kernels::TileGeometry;
use ks_gpu_sim::config::{DeviceConfig, Interconnect};
use ks_gpu_sim::fault::FaultSpec;
use ks_serve::{
    HealthConfig, PoolConfig, PoolDevice, Query, ServeBackend, ServeConfig, ServeError, Server,
    Submit, Ticket,
};
use rand::distributions::{Distribution, Uniform};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A query stream over a few shared corpora sized to span several
/// 128-row GPU tiles, so pools actually shard.
fn pool_queries(seed: u64, count: usize) -> Vec<Query> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weight = Uniform::new(-0.5f32, 0.5f32);
    let dims = [(384usize, 96usize, 8usize), (300, 64, 6)];
    let corpora: Vec<(SourceSet, Arc<PointSet>, f32)> = dims
        .iter()
        .enumerate()
        .map(|(i, &(m, n, k))| {
            (
                SourceSet::new(PointSet::uniform_cube(m, k, seed + 10 + i as u64)),
                Arc::new(PointSet::uniform_cube(n, k, seed + 20 + i as u64)),
                0.7 + 0.2 * i as f32,
            )
        })
        .collect();
    (0..count)
        .map(|_| {
            let (sources, targets, h) = &corpora[rng.gen_range(0..corpora.len())];
            Query {
                sources: sources.clone(),
                targets: Arc::clone(targets),
                weights: (0..targets.len())
                    .map(|_| weight.sample(&mut rng))
                    .collect(),
                h: *h,
                deadline: None,
            }
        })
        .collect()
}

/// Serves the stream twice through one server — a cold pass and a
/// plan-warm pass, each submitted while the worker is paused so wave
/// composition is deterministic — and returns both result sets plus
/// the report.
fn serve_two_passes(
    mut cfg: ServeConfig,
    queries: &[Query],
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>, ks_serve::ServeReport) {
    cfg.start_paused = true;
    cfg.queue_capacity = cfg.queue_capacity.max(queries.len());
    let mut srv = Server::start(cfg);
    let submit_all = |srv: &mut Server| -> Vec<Ticket> {
        queries
            .iter()
            .map(|q| match srv.submit(q.clone()) {
                Submit::Accepted(t) => t,
                Submit::Rejected(_) => panic!("queue sized for the stream"),
            })
            .collect()
    };
    let cold = submit_all(&mut srv);
    srv.resume();
    let cold: Vec<Vec<f32>> = cold.iter().map(|t| t.wait().expect("completes")).collect();
    // Pause again so the warm pass, too, drains in waves that do not
    // depend on host timing.
    srv.pause();
    let warm = submit_all(&mut srv);
    srv.resume();
    let warm: Vec<Vec<f32>> = warm.iter().map(|t| t.wait().expect("completes")).collect();
    (cold, warm, srv.shutdown())
}

fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: row {i}: {g} vs {w}");
    }
}

fn pooled(backend: ServeBackend, devices: usize) -> ServeConfig {
    ServeConfig {
        backend,
        pool: Some(PoolConfig::homogeneous(
            devices,
            DeviceConfig::gtx970(),
            Interconnect::pcie3_x16(),
        )),
        ..ServeConfig::default()
    }
}

fn unpooled(backend: ServeBackend) -> ServeConfig {
    ServeConfig {
        backend,
        ..ServeConfig::default()
    }
}

#[test]
fn pooled_cpu_serving_is_bit_identical_to_unpooled_cold_and_warm() {
    let queries = pool_queries(11, 16);
    let (base_cold, base_warm, base) = serve_two_passes(unpooled(ServeBackend::CpuFused), &queries);
    for devices in [1usize, 2, 4] {
        let (cold, warm, report) =
            serve_two_passes(pooled(ServeBackend::CpuFused, devices), &queries);
        for (qi, (g, w)) in cold.iter().zip(&base_cold).enumerate() {
            assert_bits_eq(g, w, &format!("cpu cold N={devices} query {qi}"));
        }
        for (qi, (g, w)) in warm.iter().zip(&base_warm).enumerate() {
            assert_bits_eq(g, w, &format!("cpu warm N={devices} query {qi}"));
        }
        // Counters must not drift: same stream, same coalescing.
        assert_eq!(report.batches, base.batches, "batch count N={devices}");
        assert_eq!(report.batched_queries, base.batched_queries);
        assert_eq!(report.completed, base.completed);
        assert_eq!(report.failed, 0);
        let pool = report.pool.expect("pooled run reports the pool");
        assert_eq!(pool.batches, report.batches);
        if devices > 1 {
            assert!(
                pool.shard_tasks > pool.batches,
                "multi-device pools must actually shard"
            );
        }
    }
}

#[test]
fn pooled_gpu_serving_is_bit_identical_to_unpooled_cold_and_warm() {
    let queries = pool_queries(22, 12);
    let backend = ServeBackend::GpuFused { cpu_fallback: true };
    let (base_cold, base_warm, base) = serve_two_passes(unpooled(backend), &queries);
    assert!(base.profiles.iter().len() > 0, "GPU batches ran unpooled");
    for devices in [1usize, 2, 4] {
        let (cold, warm, report) = serve_two_passes(pooled(backend, devices), &queries);
        for (qi, (g, w)) in cold.iter().zip(&base_cold).enumerate() {
            assert_bits_eq(g, w, &format!("gpu cold N={devices} query {qi}"));
        }
        for (qi, (g, w)) in warm.iter().zip(&base_warm).enumerate() {
            assert_bits_eq(g, w, &format!("gpu warm N={devices} query {qi}"));
        }
        assert_eq!(report.batches, base.batches, "batch count N={devices}");
        assert_eq!(report.batched_queries, base.batched_queries);
        assert_eq!(report.completed, base.completed);
        let pool = report.pool.expect("pooled run reports the pool");
        assert_eq!(pool.total_fallbacks(), 0, "healthy pool never falls back");
        assert_eq!(pool.total_evictions(), 0);
        // Transfers were charged over the interconnect.
        let moved: u64 = pool.devices.iter().map(|d| d.transfer_bytes).sum();
        assert!(moved > 0, "pooled GPU serving must charge transfers");
        // Warm placements must have skipped re-uploading A: the
        // second pass hits every per-device shard cache.
        let hits: u64 = pool.devices.iter().map(|d| d.plan_cache.hits).sum();
        assert!(hits > 0, "warm pass must hit the shard-plan caches");
    }
}

#[test]
fn one_owner_of_every_shard_keeps_results_bit_identical() {
    // One device owns every shard (the other three are cold and the
    // router is cache-first after batch one), so one slot runs every
    // unit while three sit idle — the owner's semantics alone decide
    // the bits.
    let queries = pool_queries(33, 10);
    let backend = ServeBackend::GpuFused { cpu_fallback: true };
    let (base_cold, base_warm, _) = serve_two_passes(unpooled(backend), &queries);
    let mut cfg = pooled(backend, 4);
    if let Some(p) = &mut cfg.pool {
        p.shard_align = 1 << 20; // one giant shard per batch
    }
    let (cold, warm, report) = serve_two_passes(cfg, &queries);
    for (qi, (g, w)) in cold.iter().zip(&base_cold).enumerate() {
        assert_bits_eq(g, w, &format!("one-owner cold query {qi}"));
    }
    for (qi, (g, w)) in warm.iter().zip(&base_warm).enumerate() {
        assert_bits_eq(g, w, &format!("one-owner warm query {qi}"));
    }
    let pool = report.pool.expect("pool report");
    assert_eq!(
        pool.shard_tasks, pool.batches,
        "alignment beyond M gives exactly one shard per batch"
    );
}

/// Sweep-scale launch-level fault rates on one device: it trips its
/// own breaker, degrades its shards to the bit-exact CPU path, and
/// the rest of the pool never notices.
#[test]
fn faulted_device_trips_only_its_own_breaker() {
    let queries = pool_queries(44, 14);
    let sick = 2usize;
    let mut devices: Vec<PoolDevice> = (0..4)
        .map(|_| PoolDevice {
            device: DeviceConfig::gtx970(),
            interconnect: Interconnect::pcie3_x16(),
            lifecycle: None,
        })
        .collect();
    devices[sick].device.fault = Some(FaultSpec {
        seed: 0xC0FFEE,
        sm_loss_rate: 1.0, // every launch on this device dies
        ..FaultSpec::default()
    });
    let cfg = ServeConfig {
        backend: ServeBackend::GpuFused { cpu_fallback: true },
        wave: 1, // one batch per query: enough batches to trip
        pool: Some(PoolConfig {
            devices,
            queue_capacity: 8,
            plan_cache_capacity: 8,
            shard_align: 128,
            health: HealthConfig::default(),
        }),
        ..ServeConfig::default()
    };
    let (results, _, report) = serve_two_passes(cfg, &queries);
    assert_eq!(report.failed, 0, "the pool never fails a batch");
    assert_eq!(results.len(), queries.len());
    let pool = report.pool.expect("pool report");
    assert!(
        pool.devices[sick].evictions >= 1,
        "the sick device's breaker must trip"
    );
    assert!(
        pool.devices[sick].cpu_fallbacks >= 1,
        "its shards recover on the CPU"
    );
    for (d, dev) in pool.devices.iter().enumerate() {
        if d != sick {
            assert_eq!(dev.evictions, 0, "device {d} breaker must stay closed");
            assert_eq!(dev.cpu_fallbacks, 0, "device {d} must not fall back");
        }
    }
    // Correct-or-surfaced: launch faults cannot corrupt data, so every
    // served result matches the all-CPU serve bit-exactly where the
    // shard fell back, and within float tolerance where it ran on a
    // healthy GPU. Compare against CPU serving with the GPU tolerance.
    let (cpu_results, _, _) = serve_two_passes(
        ServeConfig {
            backend: ServeBackend::CpuFused,
            ..ServeConfig::default()
        },
        &queries,
    );
    for (qi, (got, want)) in results.iter().zip(&cpu_results).enumerate() {
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g - w).abs() < 5e-3 * w.abs().max(1.0),
                "query {qi} row {i}: {g} vs cpu {w}"
            );
        }
    }
}

/// Sweep-scale *data* fault rates under the resilient (ABFT-verified)
/// pool backend: corruption on the sick device is detected, surfaced
/// in the counters, and recovered shard-locally.
#[test]
fn pool_chaos_data_faults_are_surfaced_and_recovered() {
    let queries = pool_queries(55, 12);
    let sick = 1usize;
    let mut devices: Vec<PoolDevice> = (0..4)
        .map(|_| PoolDevice {
            device: DeviceConfig::gtx970(),
            interconnect: Interconnect::pcie3_x16(),
            lifecycle: None,
        })
        .collect();
    devices[sick].device.fault = Some(FaultSpec {
        seed: 7,
        smem_rate: 4.0,
        dram_rate: 2.0,
        ..FaultSpec::default()
    });
    let cfg = ServeConfig {
        backend: ServeBackend::GpuResilient,
        wave: 1,
        pool: Some(PoolConfig {
            devices,
            queue_capacity: 8,
            plan_cache_capacity: 8,
            shard_align: 128,
            health: HealthConfig::default(),
        }),
        ..ServeConfig::default()
    };
    let (results, _, report) = serve_two_passes(cfg, &queries);
    assert_eq!(report.failed, 0, "the pool never fails a batch");
    assert_eq!(results.len(), queries.len());
    assert!(
        report.corruption_detected > 0,
        "sweep-scale flips must be caught by verification"
    );
    let pool = report.pool.expect("pool report");
    assert!(
        pool.devices[sick].corruption_detected > 0,
        "detections attribute to the sick device"
    );
    assert!(pool.devices[sick].cpu_fallbacks > 0);
    for (d, dev) in pool.devices.iter().enumerate() {
        if d != sick {
            assert_eq!(dev.evictions, 0, "device {d} breaker must stay closed");
            assert_eq!(
                dev.corruption_detected, 0,
                "device {d} must stay corruption-free"
            );
        }
    }
    // Aggregate stays correct-or-surfaced: detected corruption was
    // replaced by bit-exact CPU shards; the only way a served value
    // may stray beyond the healthy-GPU tolerance is a fault *outside*
    // ABFT coverage — which must then be surfaced in the
    // `undetected_injected` counter (never silent).
    let (cpu_results, _, _) = serve_two_passes(
        ServeConfig {
            backend: ServeBackend::CpuFused,
            ..ServeConfig::default()
        },
        &queries,
    );
    let mut strayed = 0u64;
    for (got, want) in results.iter().zip(&cpu_results) {
        for (g, w) in got.iter().zip(want.iter()) {
            // NaN counts as strayed, so test the complement explicitly.
            let diff = (g - w).abs();
            if diff.is_nan() || diff >= 5e-3 * w.abs().max(1.0) {
                strayed += 1;
            }
        }
    }
    assert!(
        strayed == 0 || report.undetected_injected > 0,
        "{strayed} values strayed with no undetected-fault surfacing"
    );
    assert!(
        report.injected_faults > 0,
        "sweep-scale rates must record fault events"
    );
}

/// Serves `queries` on a paused server and collects every result,
/// polling with a deadline instead of blocking: a wedged pool fails the
/// test rather than hanging it. The wedged server is leaked, since
/// dropping it would join the stuck worker.
fn serve_within(cfg: ServeConfig, queries: &[Query], limit: Duration) -> Vec<Vec<f32>> {
    let mut cfg = cfg;
    cfg.start_paused = true;
    cfg.queue_capacity = cfg.queue_capacity.max(queries.len());
    let mut srv = Server::start(cfg);
    let tickets: Vec<Ticket> = queries
        .iter()
        .map(|q| match srv.submit(q.clone()) {
            Submit::Accepted(t) => t,
            Submit::Rejected(_) => panic!("queue sized for the stream"),
        })
        .collect();
    srv.resume();
    let until = Instant::now() + limit;
    let mut results: Vec<Option<Result<Vec<f32>, ServeError>>> = vec![None; tickets.len()];
    while results.iter().any(Option::is_none) {
        if Instant::now() > until {
            let done = results.iter().filter(|r| r.is_some()).count();
            std::mem::forget(srv);
            panic!(
                "{done} of {} tickets fulfilled within {limit:?}",
                tickets.len()
            );
        }
        for (r, t) in results.iter_mut().zip(&tickets) {
            if r.is_none() {
                *r = t.try_take();
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = srv.shutdown();
    results
        .into_iter()
        .map(|r| r.expect("polled").expect("completes"))
        .collect()
}

/// Pooled shards launch at the batch's resolved geometry. A configured
/// geometry narrower than the batch (`tile_k` 4 under 8 coalesced
/// queries) resolves to the paper default; launching the configured
/// one instead panics the shard tasks.
#[test]
fn pooled_batches_launch_at_their_resolved_geometry() {
    let sources = SourceSet::new(PointSet::uniform_cube(256, 8, 61));
    let targets = Arc::new(PointSet::uniform_cube(96, 8, 62));
    let queries: Vec<Query> = (0..8)
        .map(|c| Query {
            sources: sources.clone(),
            targets: Arc::clone(&targets),
            weights: (0..96)
                .map(|j| ((j * 5 + c) % 13) as f32 / 13.0 - 0.5)
                .collect(),
            h: 0.8,
            deadline: None,
        })
        .collect();
    let narrow = ServeConfig {
        geometry: TileGeometry {
            tile_k: 4,
            ..TileGeometry::paper_default()
        },
        ..unpooled(ServeBackend::GpuFused { cpu_fallback: true })
    };
    assert!(narrow.geometry.feasibility(&narrow.device).is_ok());
    let limit = Duration::from_secs(20);
    let want = serve_within(narrow.clone(), &queries, limit);
    let pooled = ServeConfig {
        pool: Some(PoolConfig::homogeneous(
            2,
            DeviceConfig::gtx970(),
            Interconnect::pcie3_x16(),
        )),
        ..narrow
    };
    let got = serve_within(pooled, &queries, limit);
    for (qi, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_bits_eq(g, w, &format!("query {qi}"));
    }
}

/// A device that kills every launch lands resilient serving on the
/// CPU harbor, unpooled and pooled alike, with the bits of CPU
/// serving.
#[test]
fn certain_launch_faults_land_every_configuration_on_the_harbor() {
    let queries = pool_queries(66, 10);
    let (want, _, _) = serve_two_passes(unpooled(ServeBackend::CpuFused), &queries);
    let dying = DeviceConfig {
        fault: Some(FaultSpec {
            watchdog_rate: 1.0,
            ..FaultSpec::default()
        }),
        ..DeviceConfig::gtx970()
    };
    let mut unpooled_cfg = unpooled(ServeBackend::GpuResilient);
    unpooled_cfg.device = dying.clone();
    unpooled_cfg.resilience.backoff_base = Duration::from_micros(1);
    let mut configs = vec![("unpooled".to_string(), unpooled_cfg)];
    for devices in [1usize, 2] {
        configs.push((
            format!("pooled N={devices}"),
            ServeConfig {
                pool: Some(PoolConfig::homogeneous(
                    devices,
                    dying.clone(),
                    Interconnect::pcie3_x16(),
                )),
                ..unpooled(ServeBackend::GpuResilient)
            },
        ));
    }
    for (name, cfg) in configs {
        let (got, _, report) = serve_two_passes(cfg, &queries);
        for (qi, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_bits_eq(g, w, &format!("{name} query {qi}"));
        }
        assert!(report.profiles.is_empty(), "{name}: no launch completed");
        assert_eq!(
            report.fallbacks, report.batches,
            "{name}: every batch harbored"
        );
        assert_eq!(report.degraded_completions, report.completed, "{name}");
        assert_eq!(report.attempts, report.batches + report.retries, "{name}");
    }
}
