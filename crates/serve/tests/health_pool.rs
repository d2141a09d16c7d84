//! Self-healing pool differential harness.
//!
//! Pins the drain → evict → readmit loop end to end: a device with a
//! seeded lifecycle fault is drained (its in-flight shards recover on
//! the CPU path, never dropped), evicted (the router stops placing on
//! it and the survivors re-plan shard ranges), and — when the fault is
//! transient — readmitted after a successful probe. The load-bearing
//! invariant is *bit-identity after healing*: once the sick device is
//! out of the placement set, the pool's results are bit-identical to a
//! pool that never faulted, because row-sharding is an exact partition
//! on any active-device count. Link corruption is weaker than a
//! timeout by design — detected and retransmitted on the link, it
//! must not move a single result bit.

use std::sync::Arc;
use std::time::Duration;

use ks_core::plan::SourceSet;
use ks_core::problem::PointSet;
use ks_gpu_sim::config::{DeviceConfig, Interconnect};
use ks_gpu_sim::fault::{LifecycleSpec, LinkFaultSpec};
use ks_serve::{
    HealthConfig, PoolConfig, PoolDevice, Query, ServeBackend, ServeConfig, ServeReport, Server,
    Submit, Ticket,
};
use rand::distributions::{Distribution, Uniform};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A stream over shared corpora sized so every pool device owns a
/// shard each batch (`m = 640` is five 128-row tiles).
fn pool_queries(seed: u64, count: usize) -> Vec<Query> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weight = Uniform::new(-0.5f32, 0.5f32);
    let dims = [(640usize, 96usize, 8usize), (512, 64, 6)];
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

fn pool_cfg(backend: ServeBackend, devices: Vec<PoolDevice>, health: HealthConfig) -> ServeConfig {
    ServeConfig {
        backend,
        wave: 1, // one batch per query: every batch advances the epoch
        pool: Some(PoolConfig {
            devices,
            queue_capacity: 64,
            plan_cache_capacity: 8,
            shard_align: 128,
            health,
        }),
        ..ServeConfig::default()
    }
}

fn quiet_devices(n: usize) -> Vec<PoolDevice> {
    (0..n)
        .map(|_| PoolDevice {
            device: DeviceConfig::gtx970(),
            interconnect: Interconnect::pcie3_x16(),
            lifecycle: None,
        })
        .collect()
}

/// Serves `phase_a` then `phase_b` through one server (the worker
/// paused during each submission so batch composition is
/// deterministic) and returns both result sets plus the report.
fn serve_two_phases(
    mut cfg: ServeConfig,
    phase_a: &[Query],
    phase_b: &[Query],
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>, ServeReport) {
    cfg.start_paused = true;
    cfg.queue_capacity = cfg.queue_capacity.max(phase_a.len() + phase_b.len());
    let mut srv = Server::start(cfg);
    let submit_all = |srv: &mut Server, queries: &[Query]| -> Vec<Ticket> {
        queries
            .iter()
            .map(|q| match srv.submit(q.clone()) {
                Submit::Accepted(t) => t,
                Submit::Rejected(_) => panic!("queue sized for the stream"),
            })
            .collect()
    };
    let a = submit_all(&mut srv, phase_a);
    srv.resume();
    let a: Vec<Vec<f32>> = a.iter().map(|t| t.wait().expect("completes")).collect();
    srv.pause();
    let b = submit_all(&mut srv, phase_b);
    srv.resume();
    let b: Vec<Vec<f32>> = b.iter().map(|t| t.wait().expect("completes")).collect();
    (a, b, srv.shutdown())
}

fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: row {i}: {g} vs {w}");
    }
}

/// Oracle pass: the same stream served unpooled on the CPU backend.
fn cpu_oracle(queries: &[Query]) -> Vec<Vec<f32>> {
    let (a, b, _) = serve_two_phases(
        ServeConfig {
            backend: ServeBackend::CpuFused,
            ..ServeConfig::default()
        },
        queries,
        &[],
    );
    assert!(b.is_empty());
    a
}

/// A permanently lost device is drained, evicted, and the healed pool
/// is **bit-identical** to a never-faulted pool: once the router stops
/// placing on the corpse, the survivors' re-planned shard ranges cover
/// the same rows with the same GPU numerics.
#[test]
fn lost_device_is_evicted_and_the_healed_pool_is_bit_identical() {
    let burn_in = pool_queries(91, 8);
    let compare = pool_queries(92, 10);
    for n in [2usize, 4] {
        let sick = n - 1;
        let mut devices = quiet_devices(n);
        devices[sick].lifecycle = Some(LifecycleSpec {
            seed: 0xDEAD,
            loss_rate: 1.0, // lost at the first epoch, absorbing
            ..LifecycleSpec::default()
        });
        let health = HealthConfig {
            evict_threshold: 1,
            probe_cooldown: u64::MAX / 2, // the corpse is never probed
        };
        let backend = ServeBackend::GpuFused { cpu_fallback: true };
        let (faulted_a, faulted_b, report) =
            serve_two_phases(pool_cfg(backend, devices, health), &burn_in, &compare);
        let (_, clean_b, clean_report) = serve_two_phases(
            pool_cfg(backend, quiet_devices(n), health),
            &burn_in,
            &compare,
        );
        // Healed phase: bit-identical to the never-faulted pool.
        for (qi, (g, w)) in faulted_b.iter().zip(&clean_b).enumerate() {
            assert_bits_eq(g, w, &format!("healed N={n} query {qi}"));
        }
        // Burn-in phase: correct-or-surfaced, never dropped. The sick
        // shards recovered on the CPU path, so compare against the
        // CPU oracle with the GPU tolerance.
        let oracle = cpu_oracle(&burn_in);
        for (qi, (got, want)) in faulted_a.iter().zip(&oracle).enumerate() {
            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                assert!(
                    (g - w).abs() < 5e-3 * w.abs().max(1.0),
                    "burn-in N={n} query {qi} row {i}: {g} vs {w}"
                );
            }
        }
        assert_eq!(report.failed, 0, "the pool never fails a batch");
        let pool = report.pool.expect("pool report");
        assert!(pool.devices[sick].evictions >= 1, "the corpse is evicted");
        assert!(
            pool.devices[sick].lifecycle_losses >= 1,
            "the loss is surfaced in the device report"
        );
        assert_eq!(pool.total_readmissions(), 0, "a corpse never returns");
        assert!(
            pool.devices[sick].cpu_fallbacks >= 1,
            "pre-eviction shards drained to the CPU, not dropped"
        );
        for (d, dev) in pool.devices.iter().enumerate() {
            if d != sick {
                assert_eq!(dev.evictions, 0, "device {d} stays in the pool");
                assert_eq!(dev.lifecycle_losses, 0);
            }
        }
        let clean_pool = clean_report.pool.expect("pool report");
        assert_eq!(clean_pool.total_evictions(), 0, "quiet pool never evicts");
    }
}

/// A flapping device (certain hang, certain recovery: it alternates
/// sick/healthy every epoch) cycles through eviction and probe-success
/// readmission; the pool stays correct-or-surfaced throughout and no
/// shard is ever dropped.
#[test]
fn flapping_device_is_evicted_and_readmitted() {
    let queries = pool_queries(93, 24);
    let sick = 1usize;
    let mut devices = quiet_devices(4);
    devices[sick].lifecycle = Some(LifecycleSpec {
        seed: 5,
        hang_rate: 1.0,
        recover_rate: 1.0,
        ..LifecycleSpec::default()
    });
    let health = HealthConfig {
        evict_threshold: 1,
        // Odd cooldown: the probe lands on the opposite epoch parity,
        // where the flapping device is healthy — so probes succeed.
        probe_cooldown: 3,
    };
    let (results, _, report) = serve_two_phases(
        pool_cfg(ServeBackend::GpuResilient, devices, health),
        &queries,
        &[],
    );
    assert_eq!(report.failed, 0);
    let oracle = cpu_oracle(&queries);
    for (qi, (got, want)) in results.iter().zip(&oracle).enumerate() {
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g - w).abs() < 5e-3 * w.abs().max(1.0),
                "query {qi} row {i}: {g} vs {w}"
            );
        }
    }
    let pool = report.pool.expect("pool report");
    assert!(pool.devices[sick].evictions >= 1, "hangs evict");
    assert!(
        pool.devices[sick].readmissions >= 1,
        "a healthy-epoch probe readmits"
    );
    assert!(pool.devices[sick].lifecycle_hangs >= 1);
    for (d, dev) in pool.devices.iter().enumerate() {
        if d != sick {
            assert_eq!(dev.evictions, 0, "device {d} never evicts");
            assert_eq!(dev.readmissions, 0);
        }
    }
}

/// The CPU pool policy never launches on a device, so even a violent
/// lifecycle spec is inert there: no evidence, no evictions, results
/// bit-identical to a spec-free pool.
#[test]
fn lifecycle_specs_are_inert_on_the_cpu_backend() {
    let queries = pool_queries(94, 12);
    for n in [2usize, 4] {
        let mut devices = quiet_devices(n);
        devices[0].lifecycle = Some(LifecycleSpec {
            seed: 1,
            hang_rate: 1.0,
            loss_rate: 0.5,
            recover_rate: 1.0,
        });
        let health = HealthConfig::default();
        let (faulted, _, report) = serve_two_phases(
            pool_cfg(ServeBackend::CpuFused, devices, health),
            &queries,
            &[],
        );
        let (clean, _, _) = serve_two_phases(
            pool_cfg(ServeBackend::CpuFused, quiet_devices(n), health),
            &queries,
            &[],
        );
        for (qi, (g, w)) in faulted.iter().zip(&clean).enumerate() {
            assert_bits_eq(g, w, &format!("cpu N={n} query {qi}"));
        }
        let pool = report.pool.expect("pool report");
        assert_eq!(pool.total_evictions(), 0, "no launches, no evidence");
        assert_eq!(pool.total_readmissions(), 0);
        let hangs: u64 = pool.devices.iter().map(|d| d.lifecycle_hangs).sum();
        assert_eq!(hangs, 0, "lifecycle counters stay quiet off-GPU");
    }
}

/// Link corruption is detected and retransmitted *on the link*: it
/// charges time and CRC counters but the payload that lands is clean,
/// so results are bit-identical to a fault-free interconnect.
#[test]
fn link_corruption_retransmits_without_moving_result_bits() {
    let queries = pool_queries(95, 10);
    let mut devices = quiet_devices(4);
    for d in &mut devices {
        d.interconnect.fault = Some(LinkFaultSpec {
            seed: 9,
            corrupt_rate: 0.5,
            timeout_rate: 0.0,
        });
    }
    let backend = ServeBackend::GpuFused { cpu_fallback: true };
    let (corrupt, _, report) = serve_two_phases(
        pool_cfg(backend, devices, HealthConfig::default()),
        &queries,
        &[],
    );
    let (clean, _, clean_report) = serve_two_phases(
        pool_cfg(backend, quiet_devices(4), HealthConfig::default()),
        &queries,
        &[],
    );
    for (qi, (g, w)) in corrupt.iter().zip(&clean).enumerate() {
        assert_bits_eq(g, w, &format!("link-corrupt query {qi}"));
    }
    let pool = report.pool.expect("pool report");
    let crc: u64 = pool.devices.iter().map(|d| d.link_crc_detected).sum();
    let retx: u64 = pool.devices.iter().map(|d| d.link_retransmits).sum();
    assert!(crc > 0, "a 0.5 corruption rate must trip the CRC ledger");
    assert_eq!(crc, retx, "every detected corruption retransmits once");
    assert_eq!(pool.total_link_timeouts(), 0);
    assert_eq!(pool.total_evictions(), 0, "corruption alone never evicts");
    // Retransmits charge the link: strictly more transfer time than
    // the clean pool for the same bytes.
    let clean_pool = clean_report.pool.expect("pool report");
    let time =
        |p: &ks_serve::PoolReport| -> f64 { p.devices.iter().map(|d| d.transfer_time_s).sum() };
    let bytes =
        |p: &ks_serve::PoolReport| -> u64 { p.devices.iter().map(|d| d.transfer_bytes).sum() };
    assert_eq!(bytes(&pool), bytes(&clean_pool), "payload bytes unchanged");
    assert!(time(&pool) > time(&clean_pool), "retransmits cost time");
}

/// A certain-timeout interconnect fails every GPU shard on its device:
/// the shards drain to the CPU (never dropped), the timeouts are
/// surfaced, and the device is evicted like any other chronically sick
/// member.
#[test]
fn link_timeouts_fail_shards_and_evict_the_device() {
    let queries = pool_queries(96, 12);
    let sick = 2usize;
    let mut devices = quiet_devices(4);
    devices[sick].interconnect.fault = Some(LinkFaultSpec {
        seed: 3,
        corrupt_rate: 0.0,
        timeout_rate: 1.0,
    });
    let health = HealthConfig {
        evict_threshold: 2,
        probe_cooldown: 4,
    };
    let (results, _, report) = serve_two_phases(
        pool_cfg(
            ServeBackend::GpuFused { cpu_fallback: true },
            devices,
            health,
        ),
        &queries,
        &[],
    );
    assert_eq!(report.failed, 0);
    assert_eq!(results.len(), queries.len(), "every query answered");
    let oracle = cpu_oracle(&queries);
    for (qi, (got, want)) in results.iter().zip(&oracle).enumerate() {
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g - w).abs() < 5e-3 * w.abs().max(1.0),
                "query {qi} row {i}: {g} vs {w}"
            );
        }
    }
    let pool = report.pool.expect("pool report");
    assert!(pool.devices[sick].link_timeouts >= 1, "timeouts surfaced");
    assert!(pool.devices[sick].evictions >= 1, "chronic timeouts evict");
    assert!(
        pool.devices[sick].cpu_fallbacks >= 1,
        "timed-out shards drain to the CPU"
    );
    for (d, dev) in pool.devices.iter().enumerate() {
        if d != sick {
            assert_eq!(dev.link_timeouts, 0, "device {d} links stay clean");
            assert_eq!(dev.evictions, 0);
        }
    }
}

/// The brownout sheds only under pressure: a generous deadline on a
/// healthy pool completes everything with `shed == 0` and the
/// accounting identity intact.
#[test]
fn generous_deadlines_never_shed_and_accounting_holds() {
    let mut queries = pool_queries(97, 10);
    for q in &mut queries {
        q.deadline = Some(std::time::Instant::now() + Duration::from_secs(120));
    }
    let (results, _, report) = serve_two_phases(
        pool_cfg(
            ServeBackend::GpuFused { cpu_fallback: true },
            quiet_devices(2),
            HealthConfig::default(),
        ),
        &queries,
        &[],
    );
    assert_eq!(results.len(), queries.len());
    assert_eq!(report.shed, 0, "no pressure, no shedding");
    assert_eq!(
        report.accepted,
        report.completed + report.expired + report.shed + report.failed
    );
}
