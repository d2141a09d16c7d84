//! A pool member's circuit breaker is its membership: the pool places
//! work only on members whose breaker admits the batch, so a shard
//! never lands on a device whose breaker then refuses it while a
//! healthy member could run it on the GPU.

use ks_gpu_sim::config::{DeviceConfig, Interconnect};
use ks_gpu_sim::FaultSpec;
use ks_serve::{
    generate_queries, serve_backlog, HealthConfig, PoolConfig, ServeBackend, ServeConfig,
    WorkloadConfig,
};

/// Device 1's every launch dies, and its breaker (threshold 1,
/// cooldown 3, unlike the unpooled slot's default 3 and 4) evicts it
/// at its first failure. Every shard it then holds is a half-open
/// probe that fails: it harbors exactly one shard per eviction, and
/// device 0 serves the rest on the GPU.
#[test]
fn an_evicted_member_holds_only_its_probes() {
    let stream = generate_queries(&WorkloadConfig {
        clients: 1,
        queries_per_client: 40,
        corpora: 1,
        shared_ratio: 1.0,
        large_ratio: 0.0,
        m: 256,
        n: 64,
        k: 8,
        seed: 5,
        ..WorkloadConfig::default()
    });
    let mut pool = PoolConfig::homogeneous(2, DeviceConfig::gtx970(), Interconnect::pcie3_x16());
    pool.devices[1].device.fault = Some(FaultSpec {
        watchdog_rate: 1.0,
        ..FaultSpec::default()
    });
    pool.health = HealthConfig {
        evict_threshold: 1,
        probe_cooldown: 3,
    };
    let cfg = ServeConfig {
        backend: ServeBackend::GpuFused { cpu_fallback: true },
        wave: 1,
        pool: Some(pool),
        ..ServeConfig::default()
    };
    let (outcomes, report, _) = serve_backlog(cfg, &stream);
    assert!(outcomes.iter().all(Result::is_ok), "the pool never fails");
    let pool = report.pool.as_ref().expect("pooled");
    let [d0, d1] = &pool.devices[..] else {
        panic!("two devices")
    };
    assert_eq!(d1.gpu_shards, 0, "every launch on device 1 dies");
    assert_eq!(d0.cpu_fallbacks, 0, "the healthy member harbors nothing");
    assert!(d1.evictions > 1, "device 1 is evicted and re-evicted");
    assert_eq!(
        d1.cpu_fallbacks, d1.evictions,
        "every shard device 1 held was a failed probe"
    );
    assert_eq!(d1.readmissions, 0);
    assert_eq!(
        (report.breaker_trips, report.breaker_resets),
        (d1.evictions, 0),
        "the report sums every slot's breaker"
    );
}
