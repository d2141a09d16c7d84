//! Wall-clock comparison of the CPU kernel-summation solvers — the
//! paper's fusion argument measured on a real memory hierarchy:
//! the fused solver touches `O(M·K + N·K)` memory, the unfused one
//! materialises (and re-reads) the `M×N` intermediate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ks_core::cpu_fused::{self, FusedCpuConfig};
use ks_core::problem::{KernelSumProblem, PointSet};
use ks_core::{cpu_unfused, GaussianKernel};

fn build(m: usize, n: usize, k: usize) -> KernelSumProblem {
    KernelSumProblem::builder()
        .sources(PointSet::uniform_cube(m, k, 1))
        .targets(PointSet::uniform_cube(n, k, 2))
        .weights(PointSet::uniform_cube(n, 1, 3).coords().to_vec())
        .kernel(GaussianKernel { h: 1.0 })
        .build()
}

fn bench_fused_vs_unfused(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu_kernel_summation");
    g.sample_size(10);
    for &k in &[16usize, 64] {
        let p = build(2048, 1024, k);
        g.bench_with_input(BenchmarkId::new("unfused", k), &p, |b, p| {
            b.iter(|| cpu_unfused::solve(p));
        });
        g.bench_with_input(BenchmarkId::new("fused", k), &p, |b, p| {
            b.iter(|| cpu_fused::solve(p, &FusedCpuConfig::default()));
        });
    }
    g.finish();
}

fn bench_fused_block_sizes(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu_fused_blocking");
    g.sample_size(10);
    let p = build(2048, 1024, 32);
    for mb in [32usize, 128, 512] {
        g.bench_with_input(BenchmarkId::from_parameter(mb), &p, |b, p| {
            b.iter(|| {
                cpu_fused::solve(
                    p,
                    &FusedCpuConfig {
                        mb,
                        ..Default::default()
                    },
                )
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fused_vs_unfused, bench_fused_block_sizes);
criterion_main!(benches);
