//! Energy-aware serving: the budget must change *where* the joules go,
//! never *what* the bits are.
//!
//! With an energy budget and a tuned pick carrying a bit-compatible
//! low-power variant, the server downshifts once the modelled J/query
//! exceeds the budget. The bit-compatibility contract (same `block_n`
//! and `micro_n` ⇒ same per-element reduction order) makes the
//! downshifted batches bit-identical to unbudgeted serving — verified
//! here bit-for-bit, not approximately.

use std::sync::Arc;

use ks_core::plan::SourceSet;
use ks_core::problem::PointSet;
use ks_gpu_kernels::TileGeometry;
use ks_gpu_sim::config::{DeviceConfig, Interconnect};
use ks_serve::{
    GeometryPick, PoolConfig, Query, ServeBackend, ServeConfig, ServeReport, Server, Submit, Ticket,
};
use rand::distributions::{Distribution, Uniform};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const M: usize = 100;
const N: usize = 70;
const K: usize = 5;

/// One shared corpus so every query coalesces onto the same raw batch
/// shape — the shape the tuned pick below applies to.
fn queries(count: usize, seed: u64) -> Vec<Query> {
    let sources = SourceSet::new(PointSet::uniform_cube(M, K, seed + 1));
    let targets = Arc::new(PointSet::uniform_cube(N, K, seed + 2));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weight = Uniform::new(-0.5f32, 0.5f32);
    (0..count)
        .map(|_| Query {
            sources: sources.clone(),
            targets: Arc::clone(&targets),
            weights: (0..N).map(|_| weight.sample(&mut rng)).collect(),
            h: 0.8,
            deadline: None,
        })
        .collect()
}

/// A low-power variant in the paper default's bit-compatibility
/// class: same `block_n`/`micro_n` (reduction order), taller
/// microtile rows — a quarter fewer threads doing the same FFMAs with
/// more register reuse, which the energy model prices below the
/// default on this test's batch shape.
fn low_power_variant() -> TileGeometry {
    TileGeometry {
        micro_m: 16,
        ..TileGeometry::paper_default()
    }
}

fn serve_all(cfg: ServeConfig, queries: &[Query]) -> (Vec<Vec<f32>>, ServeReport) {
    let mut cfg = cfg;
    cfg.start_paused = true;
    cfg.queue_capacity = cfg.queue_capacity.max(queries.len());
    let mut srv = Server::start(cfg);
    let tickets: Vec<Ticket> = queries
        .iter()
        .map(|q| match srv.submit(q.clone()) {
            Submit::Accepted(t) => t,
            Submit::Rejected(_) => panic!("queue sized for the whole stream"),
        })
        .collect();
    srv.resume();
    let results = tickets
        .iter()
        .map(|t| t.wait().expect("query completes"))
        .collect();
    (results, srv.shutdown())
}

fn gpu_config(budget: Option<f64>) -> ServeConfig {
    ServeConfig {
        backend: ServeBackend::GpuFused {
            cpu_fallback: false,
        },
        geometry_picks: vec![GeometryPick {
            m: M,
            n: N,
            k: K,
            geometry: TileGeometry::paper_default(),
            low_power: Some(low_power_variant()),
        }],
        energy_budget_j: budget,
        ..ServeConfig::default()
    }
}

#[test]
fn low_power_variant_is_feasible_and_bit_compatible() {
    let dev = DeviceConfig::gtx970();
    let low = low_power_variant();
    assert!(low.feasibility(&dev).is_ok(), "{low} must be feasible");
    assert!(low.bit_compatible(&TileGeometry::paper_default()));
}

#[test]
fn gpu_serving_reports_positive_energy_per_query() {
    let (_, report) = serve_all(gpu_config(None), &queries(16, 41));
    assert_eq!(report.completed, 16);
    assert!(report.energy_j > 0.0, "GPU batches must account energy");
    assert!(report.j_per_query() > 0.0);
    assert_eq!(report.energy_downshifts, 0, "no budget, no downshift");
    assert!(report.geometry.resolves >= 1);
    assert!(
        report.geometry.hits >= 1,
        "repeat batches of one shape must hit the geometry memo"
    );
}

#[test]
fn exhausted_budget_downshifts_and_stays_bit_identical() {
    let qs = queries(24, 42);
    let (unbudgeted, free) = serve_all(gpu_config(None), &qs);
    // A budget far below one batch's modelled cost: every batch after
    // the first resolves to the low-power variant.
    let (budgeted, capped) = serve_all(gpu_config(Some(1e-9)), &qs);
    assert_eq!(free.completed, 24);
    assert_eq!(capped.completed, 24);
    assert_eq!(free.energy_downshifts, 0);
    assert!(
        capped.energy_downshifts >= 1,
        "an exhausted budget must route batches to the low-power variant"
    );
    assert!(
        capped.energy_j < free.energy_j,
        "downshifted serving must model fewer joules ({} vs {})",
        capped.energy_j,
        free.energy_j
    );
    for (i, (a, b)) in unbudgeted.iter().zip(budgeted.iter()).enumerate() {
        assert_eq!(a.len(), b.len());
        for (j, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "query {i} row {j}: energy routing changed result bits"
            );
        }
    }
}

#[test]
fn config_level_low_power_fallback_downshifts_without_picks() {
    let qs = queries(24, 44);
    let (unbudgeted, _) = serve_all(gpu_config(None), &qs);
    let cfg = ServeConfig {
        backend: ServeBackend::GpuFused {
            cpu_fallback: false,
        },
        low_power: Some(low_power_variant()),
        energy_budget_j: Some(1e-9),
        ..ServeConfig::default()
    };
    let (budgeted, report) = serve_all(cfg, &qs);
    assert_eq!(report.completed, 24);
    assert!(
        report.energy_downshifts >= 1,
        "the config-level fallback must cover shapes without a pick"
    );
    for (a, b) in unbudgeted.iter().zip(budgeted.iter()) {
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn budget_without_a_low_power_variant_never_downshifts() {
    let mut cfg = gpu_config(Some(1e-9));
    cfg.geometry_picks[0].low_power = None;
    let (_, report) = serve_all(cfg, &queries(16, 43));
    assert_eq!(report.completed, 16);
    assert_eq!(
        report.energy_downshifts, 0,
        "no bit-compatible variant means no downshift, budget or not"
    );
}

/// Pooled serving launches the downshifted geometry too: the budget's
/// low-power variant shows in the shards' launched kernels, and the
/// bits still match unbudgeted serving.
#[test]
fn pooled_downshift_reaches_the_launched_kernels() {
    let qs = queries(24, 45);
    let (unbudgeted, _) = serve_all(gpu_config(None), &qs);
    let pooled = |budget| ServeConfig {
        pool: Some(PoolConfig::homogeneous(
            2,
            DeviceConfig::gtx970(),
            Interconnect::pcie3_x16(),
        )),
        ..gpu_config(budget)
    };
    let (budgeted, report) = serve_all(pooled(Some(1e-9)), &qs);
    assert!(report.energy_downshifts >= 1);
    let threads = |g: TileGeometry| g.threads_per_block() as u32;
    let fused: Vec<u32> = report
        .profiles
        .iter()
        .flat_map(|p| &p.kernels)
        .filter(|k| k.name.starts_with("fused"))
        .map(|k| k.resources.threads_per_block)
        .collect();
    assert!(
        fused.contains(&threads(low_power_variant())),
        "a downshifted batch must launch the low-power geometry"
    );
    assert!(fused.contains(&threads(TileGeometry::paper_default())));
    for (a, b) in unbudgeted.iter().zip(budgeted.iter()) {
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
