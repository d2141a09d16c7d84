//! Pooled serving repeats exactly. A pool runs each unit fork-join,
//! every task on its owner's slot and each owner's tasks in slot
//! order, so one stream served twice gives the same result bits and
//! the same report — the host-side counters (`executed`, the replay
//! memo's hits and misses, breaker transitions) included.

use ks_gpu_sim::config::{DeviceConfig, Interconnect};
use ks_gpu_sim::fault::{FaultSpec, LifecycleSpec, LinkFaultSpec};
use ks_serve::{
    generate_queries, serve_backlog, smoke_workload, PoolConfig, Query, ServeBackend, ServeConfig,
    ServeError, ServeReport,
};

/// The serve-bench device: a GTX 970 with a 16 KB L2.
fn device() -> DeviceConfig {
    DeviceConfig {
        l2_bytes: 16 * 1024,
        ..DeviceConfig::gtx970()
    }
}

fn pooled(backend: ServeBackend, pool: PoolConfig) -> ServeConfig {
    ServeConfig {
        backend,
        device: device(),
        wave: 4,
        pool: Some(pool),
        ..ServeConfig::default()
    }
}

fn bits(outcomes: &[Result<Vec<f32>, ServeError>]) -> Vec<Result<Vec<u32>, String>> {
    outcomes
        .iter()
        .map(|o| match o {
            Ok(v) => Ok(v.iter().map(|x| x.to_bits()).collect()),
            Err(e) => Err(format!("{e:?}")),
        })
        .collect()
}

/// Serves `stream` twice on `cfg`, checks that both runs agree and
/// returns the report.
fn assert_repeats(cfg: &ServeConfig, stream: &[Query], case: &str) -> ServeReport {
    let (first, a, _) = serve_backlog(cfg.clone(), stream);
    let (second, b, _) = serve_backlog(cfg.clone(), stream);
    assert_eq!(bits(&first), bits(&second), "{case}: result bits");
    let (pa, pb) = (a.pool.as_ref(), b.pool.as_ref());
    let pool = pa.expect("a pooled run reports its pool");
    for (d, (x, y)) in pool
        .devices
        .iter()
        .zip(&pb.expect("pooled").devices)
        .enumerate()
    {
        assert_eq!(x, y, "{case}: device {d}'s report");
    }
    assert_eq!(pa, pb, "{case}: pool report");
    assert_eq!(a.replay_memo, b.replay_memo, "{case}: replay memo");
    for d in &pool.devices {
        assert_eq!(
            d.replay_memo.retired, 0,
            "{case}: {} retired an entry",
            d.name
        );
    }
    assert!(a == b, "{case}: serve reports differ");
    let executed: u64 = pool.devices.iter().map(|d| d.executed).sum();
    assert!(executed > 0, "{case}: the pool ran tasks");
    assert_eq!(
        executed, pool.shard_tasks,
        "{case}: every placed segment runs once"
    );
    assert_eq!(pool.stolen_tasks, 0, "{case}: tasks run on their owner");
    a
}

#[test]
fn a_four_device_pool_repeats_exactly_packed_and_not() {
    let stream = generate_queries(&smoke_workload());
    for pack in [false, true] {
        let pool = PoolConfig::homogeneous(4, device(), Interconnect::pcie3_x16());
        let cfg = ServeConfig {
            pack,
            ..pooled(ServeBackend::GpuFused { cpu_fallback: true }, pool)
        };
        let _ = assert_repeats(&cfg, &stream, if pack { "packed" } else { "unpacked" });
    }
}

#[test]
fn a_faulted_resilient_pool_repeats_exactly() {
    let stream = generate_queries(&smoke_workload());
    let mut pool = PoolConfig::homogeneous(2, device(), Interconnect::pcie3_x16());
    for (d, member) in pool.devices.iter_mut().enumerate() {
        let seed = 0x5EED + d as u64;
        member.device.fault = Some(FaultSpec {
            seed,
            smem_rate: 0.3,
            reg_rate: 0.3,
            ..FaultSpec::default()
        });
        member.lifecycle = Some(LifecycleSpec {
            seed,
            hang_rate: 0.3,
            recover_rate: 0.5,
            ..LifecycleSpec::default()
        });
        member.interconnect.fault = Some(LinkFaultSpec {
            seed,
            corrupt_rate: 0.2,
            timeout_rate: 0.05,
        });
    }
    let report = assert_repeats(
        &pooled(ServeBackend::GpuResilient, pool),
        &stream,
        "faulted",
    );
    let pool = report.pool.as_ref().expect("pooled");
    assert!(
        report.injected_faults > 0
            && pool.devices.iter().any(|d| d.lifecycle_hangs > 0)
            && pool.devices.iter().any(|d| d.link_crc_detected > 0),
        "every fault domain fires: {pool:?}"
    );
}
