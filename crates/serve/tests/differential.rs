//! Differential harness: served answers vs the single-shot solvers.
//!
//! The serving pipeline (queue → coalesce → plan cache → fused solve)
//! must be *invisible* numerically. On the CPU backend every served
//! result is required to be **bit-identical** to calling
//! `solve_multi_fused` directly with that query alone — coalescing,
//! caching and fallback may change scheduling, never bits. The f64
//! reference oracle bounds absolute correctness separately.

use std::sync::Arc;

use ks_blas::{Layout, Matrix};
use ks_core::plan::SourceSet;
use ks_core::problem::{KernelSumProblem, PointSet};
use ks_core::{solve_multi_fused, solve_multi_reference, FusedCpuConfig, GaussianKernel};
use ks_gpu_sim::FaultSpec;
use ks_serve::{Query, ServeBackend, ServeConfig, Server, Submit, Ticket, WorkloadConfig};
use rand::distributions::{Distribution, Uniform};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Builds a randomized query stream over a few shared corpora:
/// random corpus choice, random weights, one bandwidth per corpus so
/// sharing actually coalesces.
fn random_queries(seed: u64, count: usize) -> Vec<Query> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weight = Uniform::new(-0.5f32, 0.5f32);
    let dims = [(40usize, 24usize, 5usize), (56, 32, 3), (28, 20, 7)];
    let corpora: Vec<(SourceSet, Arc<PointSet>, f32)> = dims
        .iter()
        .enumerate()
        .map(|(i, &(m, n, k))| {
            (
                SourceSet::new(PointSet::uniform_cube(m, k, seed + 10 + i as u64)),
                Arc::new(PointSet::uniform_cube(n, k, seed + 20 + i as u64)),
                0.6 + 0.2 * i as f32,
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

/// Serves `queries` through a paused server (deterministic batch
/// composition) and returns each query's result in submission order.
fn serve_all(cfg: ServeConfig, queries: &[Query]) -> (Vec<Vec<f32>>, ks_serve::ServeReport) {
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

/// The single-shot answer for one query: `solve_multi_fused` with just
/// this query's weight column.
fn single_shot(q: &Query) -> Vec<f32> {
    let p = KernelSumProblem::builder()
        .sources(q.sources.points().clone())
        .targets((*q.targets).clone())
        .unit_weights()
        .kernel(GaussianKernel { h: q.h })
        .build();
    let w = Matrix::from_fn(q.weights.len(), 1, Layout::RowMajor, |j, _| q.weights[j]);
    let v = solve_multi_fused(&p, &w, &FusedCpuConfig::default());
    (0..v.rows()).map(|i| v.get(i, 0)).collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: row {i}: {g} vs {w}");
    }
}

fn cpu_cfg() -> ServeConfig {
    ServeConfig {
        backend: ServeBackend::CpuFused,
        ..ServeConfig::default()
    }
}

#[test]
fn served_results_bit_match_single_shot_and_approximate_oracle() {
    let queries = random_queries(101, 24);
    let (results, report) = serve_all(cpu_cfg(), &queries);
    assert!(report.batches < 24, "coalescing must batch shared corpora");
    for (qi, (q, got)) in queries.iter().zip(results.iter()).enumerate() {
        assert_bits_eq(got, &single_shot(q), &format!("query {qi}"));
        // And the served numbers are *correct*, not just consistent:
        // compare against the f64 oracle with a tolerance.
        let p = KernelSumProblem::builder()
            .sources(q.sources.points().clone())
            .targets((*q.targets).clone())
            .unit_weights()
            .kernel(GaussianKernel { h: q.h })
            .build();
        let w = Matrix::from_fn(q.weights.len(), 1, Layout::RowMajor, |j, _| q.weights[j]);
        let oracle = solve_multi_reference(&p, &w);
        for (i, g) in got.iter().enumerate() {
            let x = oracle.get(i, 0);
            assert!(
                (g - x).abs() < 1e-3 * x.abs().max(1.0),
                "query {qi} row {i}: {g} vs oracle {x}"
            );
        }
    }
}

#[test]
fn warm_cache_pass_is_bit_identical_to_cold() {
    let queries = random_queries(202, 12);
    let mut cfg = cpu_cfg();
    cfg.start_paused = true;
    cfg.queue_capacity = 64;
    let mut srv = Server::start(cfg);
    let cold: Vec<Ticket> = queries
        .iter()
        .map(|q| match srv.submit(q.clone()) {
            Submit::Accepted(t) => t,
            Submit::Rejected(_) => panic!("capacity 64"),
        })
        .collect();
    srv.resume();
    let cold: Vec<Vec<f32>> = cold.iter().map(|t| t.wait().unwrap()).collect();
    // Second pass: every plan is warm now. Batch composition may
    // differ (the worker is live) — bits must not.
    let warm: Vec<Ticket> = queries
        .iter()
        .map(|q| match srv.submit(q.clone()) {
            Submit::Accepted(t) => t,
            Submit::Rejected(_) => panic!("drained queue accepts"),
        })
        .collect();
    let warm: Vec<Vec<f32>> = warm.iter().map(|t| t.wait().unwrap()).collect();
    let report = srv.shutdown();
    assert!(report.plan_cache.hits > 0, "second pass must hit the cache");
    for (qi, (c, w)) in cold.iter().zip(warm.iter()).enumerate() {
        assert_bits_eq(w, c, &format!("warm query {qi}"));
    }
}

#[test]
fn disabling_the_cache_does_not_change_bits() {
    let queries = random_queries(303, 16);
    let (with_cache, r1) = serve_all(cpu_cfg(), &queries);
    let mut no_cache = cpu_cfg();
    no_cache.enable_plan_cache = false;
    let (without_cache, r2) = serve_all(no_cache, &queries);
    assert!(r1.plan_cache.accesses() > 0);
    assert_eq!(
        r2.plan_cache.accesses(),
        0,
        "disabled cache is never consulted"
    );
    for (qi, (a, b)) in with_cache.iter().zip(without_cache.iter()).enumerate() {
        assert_bits_eq(a, b, &format!("cache-ablation query {qi}"));
    }
}

#[test]
fn gpu_fallback_after_injected_fault_bit_matches_cpu_serving() {
    // Every GPU launch is made to fail, so every batch takes the CPU
    // fallback — the stream's results must be bit-identical to serving
    // on the CPU backend directly.
    let wl = WorkloadConfig {
        m: 48,
        n: 24,
        k: 5,
        ..WorkloadConfig::default()
    };
    let queries = ks_serve::generate_queries(&wl);
    let queries = &queries[..16];
    let mut gpu_cfg = ServeConfig {
        backend: ServeBackend::GpuFused { cpu_fallback: true },
        ..ServeConfig::default()
    };
    gpu_cfg.device.fault = Some(FaultSpec {
        watchdog_rate: 1.0,
        ..FaultSpec::default()
    });
    let (via_fallback, report) = serve_all(gpu_cfg, queries);
    assert!(
        report.fallbacks > 0,
        "injected faults must trigger fallback"
    );
    assert_eq!(report.failed, 0, "fallback rescues every query");
    assert!(report.profiles.is_empty(), "no GPU batch ever completed");
    let (via_cpu, _) = serve_all(cpu_cfg(), queries);
    for (qi, (a, b)) in via_fallback.iter().zip(via_cpu.iter()).enumerate() {
        assert_bits_eq(a, b, &format!("fallback query {qi}"));
    }
}
