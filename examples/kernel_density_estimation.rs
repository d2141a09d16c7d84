//! Kernel density estimation — the statistics workload the paper's
//! introduction motivates (§II-A: "kernel summations are fundamental
//! to non-parametric statistics and machine learning tasks such as
//! density estimation").
//!
//! We draw samples from a mixture of Gaussian clusters and estimate
//! the density at a set of query points with a Gaussian KDE:
//!
//! ```text
//! p̂(q) = (1 / (M · (2πh²)^{K/2})) Σ_i exp(−‖q − x_i‖² / (2h²))
//! ```
//!
//! which is exactly the paper's kernel summation with unit weights —
//! queries as sources (one output per query), samples as targets.
//!
//! ```bash
//! cargo run --release --example kernel_density_estimation
//! ```

use std::f64::consts::PI;
use std::time::Instant;

use kernel_summation::prelude::*;

fn main() {
    let dim = 8;
    let n_samples = 2048; // targets (data)
    let n_queries = 1024; // sources (evaluation points)
    let h = 0.25f32;

    // Data: three tight clusters. Queries: half drawn near the data
    // clusters (same generator, different seed), half uniform noise.
    let data = PointSet::gaussian_clusters(n_samples, dim, 3, 0.05, 7);
    let near = PointSet::gaussian_clusters(n_queries / 2, dim, 3, 0.05, 7);
    let far = PointSet::uniform_cube(n_queries / 2, dim, 99);
    let mut q = near.coords().to_vec();
    q.extend_from_slice(far.coords());
    let queries = PointSet::from_coords(n_queries, dim, q);

    let problem = KernelSumProblem::builder()
        .sources(queries)
        .targets(data)
        .unit_weights()
        .kernel(GaussianKernel { h })
        .build();

    println!("KDE: {n_samples} samples, {n_queries} queries, dim {dim}, bandwidth {h}");

    let t = Instant::now();
    let sums_unfused = problem.solve(Backend::CpuUnfused);
    let t_unfused = t.elapsed();
    let t = Instant::now();
    let sums_fused = problem.solve(Backend::CpuFused);
    let t_fused = t.elapsed();

    println!("cpu unfused: {t_unfused:?} (allocates a {n_queries}x{n_samples} intermediate)");
    println!("cpu fused  : {t_fused:?} (no intermediate in memory)");
    assert!(max_rel_error(&sums_fused, &sums_unfused) < 1e-3);

    // Normalise to densities.
    let norm = 1.0 / (n_samples as f64 * (2.0 * PI * (h as f64).powi(2)).powf(dim as f64 / 2.0));
    let dens: Vec<f64> = sums_fused.iter().map(|&s| s as f64 * norm).collect();

    let on_cluster: f64 = dens[..n_queries / 2].iter().sum::<f64>() / (n_queries / 2) as f64;
    let off_cluster: f64 = dens[n_queries / 2..].iter().sum::<f64>() / (n_queries / 2) as f64;
    println!("mean estimated density near clusters : {on_cluster:.4e}");
    println!("mean estimated density at random pts : {off_cluster:.4e}");
    println!(
        "contrast ratio                        : {:.1}x",
        on_cluster / off_cluster.max(1e-300)
    );
    assert!(
        on_cluster > 10.0 * off_cluster,
        "density on the data manifold should dominate background"
    );
    println!("KDE sanity checks passed ✓");
}
