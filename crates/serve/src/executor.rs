//! Batch execution: one coalesced multi-weight solve per backend.
//!
//! A batch is `R` queries sharing a corpus, target set and bandwidth;
//! each query contributes one weight column. The CPU path goes through
//! [`ks_core::solve_multi_planned`], so each served column is **bit-identical**
//! to the single-shot `solve_multi_fused` answer for that query alone
//! (per-column accumulation is independent of `R`). The GPU path runs
//! the simulated fused-multi pipeline at the segment's resolved tile
//! geometry, padding to that geometry's tiling constraints; on
//! a plan-cache hit it ships the precomputed row norms and skips the
//! `norms(A)` kernel.

use ks_blas::{Layout, Matrix};
use ks_core::plan::SourcePlan;
use ks_core::problem::PointSet;
use ks_core::{FusedCpuConfig, GaussianKernel};
use ks_gpu_kernels::gemm_engine::GemmShape;
use ks_gpu_kernels::{
    execute_fused_multi_verified_with, execute_fused_multi_with, MAX_WEIGHT_COLUMNS,
};
use ks_gpu_sim::device::GpuDevice;
use ks_gpu_sim::kernel::LaunchError;

use crate::ladder::{Attempt, Segment};

/// Largest coalesced batch the GPU kernel accepts (weight columns).
pub const MAX_GPU_BATCH: usize = MAX_WEIGHT_COLUMNS;

/// Runs a batch on the deterministic CPU fused path. Returns one
/// result vector (length `M`) per query, in input order.
pub(crate) fn execute_cpu(
    plan: &SourcePlan,
    targets: &PointSet,
    h: f32,
    weights: &[Vec<f32>],
    cfg: &FusedCpuConfig,
) -> Vec<Vec<f32>> {
    let n = targets.len();
    let r = weights.len();
    let w = Matrix::from_fn(n, r, Layout::RowMajor, |j, c| weights[c][j]);
    let v = ks_core::solve_multi_planned(plan, targets, &GaussianKernel { h }, &w, cfg);
    let (m, _) = plan.dims();
    (0..r)
        .map(|c| (0..m).map(|i| v.get(i, c)).collect())
        .collect()
}

/// Zero-pads point coordinates to `(count_pad, dim_pad)`. Zero
/// coordinates preserve pairwise distances; padded rows are dropped
/// from the output below.
fn pad_coords(
    coords: &[f32],
    count: usize,
    dim: usize,
    count_pad: usize,
    dim_pad: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; count_pad * dim_pad];
    for p in 0..count {
        out[p * dim_pad..p * dim_pad + dim].copy_from_slice(&coords[p * dim..(p + 1) * dim]);
    }
    out
}

/// A batch padded to the GPU tiling constraints, ready to launch.
/// `pub(crate)` so the horizontal-fusion planner ([`crate::packed`])
/// can pad each segment exactly as the unpacked path would.
pub(crate) struct PaddedBatch {
    pub(crate) a: Vec<f32>,
    pub(crate) b: Vec<f32>,
    pub(crate) w_cols: Vec<f32>,
    pub(crate) a2: Option<Vec<f32>>,
    pub(crate) shape: GemmShape,
    pub(crate) m: usize,
    pub(crate) r: usize,
}

pub(crate) fn pad_batch(seg: &Segment) -> PaddedBatch {
    let geo = &seg.geometry;
    let (m, k) = seg.plan.dims();
    let n = seg.targets.len();
    let r = seg.weights.len();
    assert!(
        (1..=MAX_GPU_BATCH).contains(&r),
        "GPU batch width {r} out of range 1..={MAX_GPU_BATCH}"
    );
    let m_pad = m.next_multiple_of(geo.block_m);
    let n_pad = n.next_multiple_of(geo.block_n);
    assert!(
        r <= geo.tile_k,
        "batch width {r} exceeds the geometry's tile_k {}; the server \
         must resolve a geometry wide enough for the batch",
        geo.tile_k
    );
    let k_pad = k.next_multiple_of(geo.tile_k);
    let a = pad_coords(seg.plan.pack_words(), m, k, m_pad, k_pad);
    let b = pad_coords(seg.targets.coords(), n, k, n_pad, k_pad);
    // N×R column-major; padded targets carry zero weight.
    let mut w_cols = vec![0.0f32; n_pad * r];
    for (c, w) in seg.weights.iter().enumerate() {
        w_cols[c * n_pad..c * n_pad + n].copy_from_slice(w);
    }
    // Padded source rows are all-zero points: their norm is 0, so the
    // precomputed norms extend with zeros.
    let a2 = seg.warm.then(|| {
        let mut norms = seg.plan.row_sq_norms().to_vec();
        norms.resize(m_pad, 0.0);
        norms
    });
    PaddedBatch {
        a,
        b,
        w_cols,
        a2,
        shape: GemmShape {
            m: m_pad,
            n: n_pad,
            k: k_pad,
        },
        m,
        r,
    }
}

impl PaddedBatch {
    /// Slices the padded `M_pad×R` result back to `R` vectors of `M`.
    pub(crate) fn unpad(&self, v: &[f32]) -> Vec<Vec<f32>> {
        (0..self.r)
            .map(|c| v[c * self.shape.m..c * self.shape.m + self.m].to_vec())
            .collect()
    }
}

/// Runs one segment on the simulated GPU at its resolved geometry. A
/// warm segment (plan-cache hit) ships the plan's precomputed row
/// norms and skips the `norms(A)` kernel launch. With `verify` the
/// batch runs through the checksum-augmented (ABFT) pipeline and the
/// attempt's flag says whether any in-kernel check or host-side
/// checksum comparison tripped; a flagged result must not be
/// fulfilled.
///
/// # Errors
/// Propagates launch-validation failures and injected launch-level
/// faults.
pub(crate) fn execute_gpu(
    dev: &mut GpuDevice,
    seg: &Segment,
    verify: bool,
) -> Result<Attempt, LaunchError> {
    let batch = pad_batch(seg);
    let (geo, shape, h, a, b, w, a2) = (
        &seg.geometry,
        batch.shape,
        seg.h,
        &batch.a,
        &batch.b,
        &batch.w_cols,
        batch.a2.as_deref(),
    );
    let (v, profile, flag) = if verify {
        let (v, p, report) = execute_fused_multi_verified_with(dev, geo, shape, h, a, b, w, a2)?;
        (v, p, report.corruption_detected())
    } else {
        let (v, p) = execute_fused_multi_with(dev, geo, shape, h, a, b, w, a2)?;
        (v, p, false)
    };
    Ok(Attempt {
        results: vec![batch.unpad(&v)],
        profile,
        flags: vec![flag],
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use ks_core::plan::SourceSet;
    use ks_core::solve_multi_reference;
    use ks_core::KernelSumProblem;
    use ks_gpu_kernels::TileGeometry;

    fn weights(n: usize, r: usize, seed: u64) -> Vec<Vec<f32>> {
        (0..r)
            .map(|c| {
                PointSet::uniform_cube(n, 1, seed + c as u64)
                    .coords()
                    .iter()
                    .map(|v| v - 0.5)
                    .collect()
            })
            .collect()
    }

    fn segment(
        sources: &SourceSet,
        targets: &PointSet,
        h: f32,
        ws: &[Vec<f32>],
        warm: bool,
    ) -> Segment {
        Segment {
            plan: Arc::new(SourcePlan::build(sources.points())),
            key: crate::cache::PlanKey::new(sources, h),
            targets: Arc::new(targets.clone()),
            h,
            weights: Arc::new(ws.to_vec()),
            warm,
            resident: warm,
            geometry: TileGeometry::paper_default(),
            deadline: None,
        }
    }

    #[test]
    fn cpu_batch_columns_are_bit_identical_to_single_shot() {
        let sources = SourceSet::new(PointSet::uniform_cube(48, 5, 1));
        let targets = PointSet::uniform_cube(36, 5, 2);
        let ws = weights(36, 3, 3);
        let plan = SourcePlan::build(sources.points());
        let cfg = FusedCpuConfig::default();
        let batch = execute_cpu(&plan, &targets, 0.8, &ws, &cfg);
        for (c, w) in ws.iter().enumerate() {
            let single = execute_cpu(&plan, &targets, 0.8, std::slice::from_ref(w), &cfg);
            for (i, (a, b)) in batch[c].iter().zip(single[0].iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "col {c} row {i}");
            }
        }
    }

    #[test]
    fn gpu_batch_matches_oracle_and_pads_awkward_dims() {
        let sources = SourceSet::new(PointSet::uniform_cube(100, 5, 11));
        let targets = PointSet::uniform_cube(70, 5, 12);
        let ws = weights(70, 2, 13);
        let seg = segment(&sources, &targets, 0.9, &ws, false);
        let got = execute_gpu(&mut GpuDevice::gtx970(), &seg, false).unwrap();
        assert_eq!(got.profile.kernels.len(), 3);
        assert_eq!(got.flags, [false]);
        for (c, w) in ws.iter().enumerate() {
            let p = KernelSumProblem::builder()
                .sources(sources.points().clone())
                .targets(targets.clone())
                .weights(w.clone())
                .kernel(GaussianKernel { h: 0.9 })
                .build();
            let want =
                solve_multi_reference(&p, &Matrix::from_fn(70, 1, Layout::RowMajor, |j, _| w[j]));
            assert_eq!(got.results[0][c].len(), 100);
            for (i, g) in got.results[0][c].iter().enumerate() {
                let x = want.get(i, 0);
                assert!((g - x).abs() < 5e-3 * x.abs().max(1.0), "col {c} row {i}");
            }
        }
    }

    #[test]
    fn verified_gpu_batch_is_clean_and_matches_unverified() {
        let sources = SourceSet::new(PointSet::uniform_cube(96, 5, 31));
        let targets = PointSet::uniform_cube(64, 5, 32);
        let ws = weights(64, 3, 33);
        let seg = segment(&sources, &targets, 0.9, &ws, false);
        let plain = execute_gpu(&mut GpuDevice::gtx970(), &seg, false).unwrap();
        let verified = execute_gpu(&mut GpuDevice::gtx970(), &seg, true).unwrap();
        assert_eq!(verified.flags, [false], "fault-free run is clean");
        assert_eq!(verified.profile.kernels.len(), 3);
        for (c, (a, b)) in plain.results[0]
            .iter()
            .zip(&verified.results[0])
            .enumerate()
        {
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert!((x - y).abs() <= 1e-4 * x.abs().max(1.0), "col {c} row {i}");
            }
        }
    }

    #[test]
    fn gpu_warm_path_skips_norms_kernel() {
        let sources = SourceSet::new(PointSet::uniform_cube(128, 8, 21));
        let targets = PointSet::uniform_cube(128, 8, 22);
        let ws = weights(128, 1, 23);
        let seg = segment(&sources, &targets, 1.0, &ws, true);
        let got = execute_gpu(&mut GpuDevice::gtx970(), &seg, false).unwrap();
        assert_eq!(
            got.profile.kernels.len(),
            2,
            "norms(A) skipped on a plan hit"
        );
    }
}
