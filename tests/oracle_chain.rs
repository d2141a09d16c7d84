//! Cross-backend oracle chain: every solver must agree with the naive
//! reference on randomized problems (property-based).

use kernel_summation::core::cpu_fused::{self, FusedCpuConfig};
use kernel_summation::core::{cpu_unfused, reference};
use kernel_summation::prelude::*;
use proptest::prelude::*;

fn build_problem(m: usize, n: usize, k: usize, h: f32, seed: u64) -> KernelSumProblem {
    KernelSumProblem::builder()
        .sources(PointSet::uniform_cube(m, k, seed))
        .targets(PointSet::uniform_cube(n, k, seed.wrapping_add(1)))
        .weights(
            PointSet::uniform_cube(n, 1, seed.wrapping_add(2))
                .coords()
                .iter()
                .map(|v| v * 2.0 - 1.0)
                .collect(),
        )
        .kernel(GaussianKernel { h })
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cpu_backends_agree_with_reference(
        m in 1usize..200,
        n in 1usize..200,
        k in 1usize..48,
        h in 0.2f32..3.0,
        seed in 0u64..1000,
    ) {
        let p = build_problem(m, n, k, h, seed);
        let want = reference::solve(&p);
        let unfused = cpu_unfused::solve(&p);
        prop_assert!(max_rel_error(&unfused, &want) < 2e-3, "unfused err {}", max_rel_error(&unfused, &want));
        let fused = cpu_fused::solve(&p, &FusedCpuConfig::default());
        prop_assert!(max_rel_error(&fused, &want) < 2e-3, "fused err {}", max_rel_error(&fused, &want));
    }

    #[test]
    fn fused_cpu_is_blocking_invariant(
        m in 1usize..120,
        n in 1usize..120,
        k in 1usize..24,
        mb in 1usize..40,
        seed in 0u64..1000,
    ) {
        let p = build_problem(m, n, k, 1.0, seed);
        let base = cpu_fused::solve(&p, &FusedCpuConfig::default());
        let alt = cpu_fused::solve(
            &p,
            &FusedCpuConfig { mb, kc: 8 },
        );
        prop_assert!(max_rel_error(&alt, &base) < 2e-3);
    }

    #[test]
    fn gpu_sim_agrees_with_reference(
        mblocks in 1usize..3,
        nblocks in 1usize..3,
        k in proptest::sample::select(vec![8usize, 16, 24]),
        seed in 0u64..100,
    ) {
        let p = build_problem(mblocks * 128, nblocks * 128, k, 1.0, seed);
        let want = reference::solve(&p);
        for variant in GpuVariant::ALL {
            let got = p.solve(kernel_summation::core::Backend::GpuSim(variant));
            prop_assert!(
                max_rel_error(&got, &want) < 5e-3,
                "{} err {}",
                variant.label(),
                max_rel_error(&got, &want)
            );
        }
    }
}

#[test]
fn kernels_other_than_gaussian_run_through_both_cpu_paths() {
    for (name, p) in [
        (
            "laplace",
            KernelSumProblem::builder()
                .sources(PointSet::uniform_cube(77, 9, 1))
                .targets(PointSet::uniform_cube(55, 9, 2))
                .unit_weights()
                .kernel(LaplaceKernel { h: 0.4 })
                .build(),
        ),
        (
            "cauchy",
            KernelSumProblem::builder()
                .sources(PointSet::uniform_cube(77, 9, 3))
                .targets(PointSet::uniform_cube(55, 9, 4))
                .unit_weights()
                .kernel(CauchyKernel { h: 0.7 })
                .build(),
        ),
        (
            "polynomial",
            KernelSumProblem::builder()
                .sources(PointSet::uniform_cube(77, 9, 5))
                .targets(PointSet::uniform_cube(55, 9, 6))
                .unit_weights()
                .kernel(PolynomialKernel { c: 1.0, degree: 3 })
                .build(),
        ),
    ] {
        let want = reference::solve(&p);
        let a = cpu_unfused::solve(&p);
        let b = cpu_fused::solve(&p, &FusedCpuConfig::default());
        assert!(max_rel_error(&a, &want) < 5e-3, "{name} unfused");
        assert!(max_rel_error(&b, &want) < 5e-3, "{name} fused");
    }
}

#[test]
fn weighted_sums_are_linear_in_weights() {
    // V(w1 + w2) == V(w1) + V(w2): linearity of the summation.
    let src = PointSet::uniform_cube(64, 6, 10);
    let tgt = PointSet::uniform_cube(48, 6, 11);
    let w1: Vec<f32> = (0..48).map(|i| (i as f32 * 0.7).sin()).collect();
    let w2: Vec<f32> = (0..48).map(|i| (i as f32 * 0.3).cos()).collect();
    let solve_with = |w: Vec<f32>| {
        KernelSumProblem::builder()
            .sources(src.clone())
            .targets(tgt.clone())
            .weights(w)
            .kernel(GaussianKernel { h: 0.6 })
            .build()
            .solve(Backend::CpuFused)
    };
    let v1 = solve_with(w1.clone());
    let v2 = solve_with(w2.clone());
    let v12 = solve_with(w1.iter().zip(&w2).map(|(a, b)| a + b).collect());
    for i in 0..v12.len() {
        assert!((v12[i] - (v1[i] + v2[i])).abs() < 1e-3 * v12[i].abs().max(1.0));
    }
}
