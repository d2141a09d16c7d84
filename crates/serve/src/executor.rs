//! Batch execution: one launch unit's segments per backend.
//!
//! A segment is `R` queries sharing a corpus, target set and
//! bandwidth; each query contributes one weight column. The CPU path
//! goes through [`ks_core::solve_multi_planned`], so each served column
//! is **bit-identical** to the single-shot `solve_multi_fused` answer
//! for that query alone (per-column accumulation is independent of
//! `R`). The GPU path, `execute_gpu`, is the one GPU executor: it
//! pads every segment to its resolved tile geometry's tiling and runs
//! them all in one simulated fused-multi launch
//! ([`ks_gpu_kernels::execute_fused_multi_with`]) — a row batch or
//! shard is the one-segment case, a packed wave
//! ([`crate::packed`]) the multi-segment one. A warm segment
//! (plan-cache hit) ships the precomputed row norms and skips the
//! `norms(A)` kernel.

use std::sync::Arc;

use ks_blas::{Layout, Matrix};
use ks_core::gpu::pad_points;
use ks_core::plan::SourcePlan;
use ks_core::problem::PointSet;
use ks_core::{FusedCpuConfig, GaussianKernel};
use ks_gpu_kernels::gemm_engine::GemmShape;
use ks_gpu_kernels::{execute_fused_multi_with, FusedMultiOutput, SegmentSpec, MAX_WEIGHT_COLUMNS};
use ks_gpu_sim::device::GpuDevice;
use ks_gpu_sim::kernel::LaunchError;

use crate::ladder::{Attempt, Segment};

/// Largest coalesced batch the GPU kernel accepts (weight columns).
pub const MAX_GPU_BATCH: usize = MAX_WEIGHT_COLUMNS;

/// Runs a batch on the deterministic CPU fused path. Returns one
/// result vector (length `M`) per query, in input order.
///
/// The batch is one `solve_multi_planned` call with one weight column
/// per query. It passes the Gaussian concretely, so the kernel's lane
/// exp inlines into the solver's per-ISA copies. Each column folds on
/// its own, and only `cfg.gemm.kc` of the configuration moves a bit,
/// so a column equals that query solved alone.
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

/// A segment padded to the GPU tiling constraints, ready to launch.
struct PaddedBatch {
    a: Vec<f32>,
    b: Vec<f32>,
    w_cols: Vec<f32>,
    a2: Option<Vec<f32>>,
    shape: GemmShape,
    m: usize,
    r: usize,
}

fn pad_batch(seg: &Segment) -> PaddedBatch {
    let geo = &seg.geometry;
    let (m, k) = seg.plan.dims();
    let n = seg.targets.len();
    let r = seg.weights.len();
    assert!(
        (1..=MAX_GPU_BATCH).contains(&r),
        "GPU batch width {r} out of range 1..={MAX_GPU_BATCH}"
    );
    assert!(
        r <= geo.tile_k,
        "batch width {r} exceeds the geometry's tile_k {}; the server \
         must resolve a geometry wide enough for the batch",
        geo.tile_k
    );
    let shape = GemmShape {
        m: m.next_multiple_of(geo.block_m),
        n: n.next_multiple_of(geo.block_n),
        k: k.next_multiple_of(geo.tile_k),
    };
    let (m_pad, n_pad, k_pad) = (shape.m, shape.n, shape.k);
    // Padded source rows are dropped from the output by `unpad`.
    let a = pad_points(seg.plan.pack_words(), m, k, m_pad, k_pad);
    let b = pad_points(seg.targets.coords(), n, k, n_pad, k_pad);
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
        shape,
        m,
        r,
    }
}

impl PaddedBatch {
    /// Slices the padded `M_pad×R` result back to `R` vectors of `M`.
    fn unpad(&self, v: &[f32]) -> Vec<Vec<f32>> {
        (0..self.r)
            .map(|c| v[c * self.shape.m..c * self.shape.m + self.m].to_vec())
            .collect()
    }
}

/// Runs `segs` on the simulated GPU in one launch at their resolved
/// geometry, which they share (one segment, or a packed wave the
/// planner grouped by geometry). Pads every segment, keys upload
/// deduplication on the plan and target-set identities (clones of one
/// `Arc` are byte-identical, and all `Arc`s are alive for the whole
/// call, so pointer keys cannot alias), and unpads each segment's
/// result. With `verify` the launch runs the checksum-augmented (ABFT)
/// pipeline and each segment's flag says whether any of its in-kernel
/// checks or host-side checksum comparisons tripped; a flagged result
/// must not be fulfilled.
///
/// # Errors
/// Propagates launch-validation failures and injected launch-level
/// faults; the ladder degrades the affected segments individually.
pub(crate) fn execute_gpu(
    dev: &mut GpuDevice,
    segs: &[&Segment],
    verify: bool,
) -> Result<Attempt, LaunchError> {
    let padded: Vec<PaddedBatch> = segs.iter().map(|s| pad_batch(s)).collect();
    let specs: Vec<SegmentSpec> = segs
        .iter()
        .zip(&padded)
        .map(|(s, p)| SegmentSpec {
            shape: p.shape,
            h: s.h,
            a: &p.a,
            b: &p.b,
            w_cols: &p.w_cols,
            a2: p.a2.as_deref(),
            a_key: Some(Arc::as_ptr(&s.plan) as u64),
            b_key: Some(Arc::as_ptr(&s.targets) as u64),
        })
        .collect();
    let FusedMultiOutput {
        v,
        profile,
        reports,
    } = execute_fused_multi_with(dev, &segs[0].geometry, &specs, verify)?;
    Ok(Attempt {
        results: padded.iter().zip(&v).map(|(p, v)| p.unpad(v)).collect(),
        profile,
        flags: (0..segs.len())
            .map(|i| reports.get(i).is_some_and(|r| r.corruption_detected()))
            .collect(),
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
        let got = execute_gpu(&mut GpuDevice::gtx970(), &[&seg], false).unwrap();
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
        let plain = execute_gpu(&mut GpuDevice::gtx970(), &[&seg], false).unwrap();
        let verified = execute_gpu(&mut GpuDevice::gtx970(), &[&seg], true).unwrap();
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

    /// A served report keeps every batch's profile, so each holds
    /// exactly its launches: cold, warm and packed.
    #[test]
    fn served_profiles_hold_no_spare_capacity() {
        let sources = SourceSet::new(PointSet::uniform_cube(128, 8, 41));
        let targets = PointSet::uniform_cube(128, 8, 42);
        let ws = weights(128, 2, 43);
        let cold = segment(&sources, &targets, 1.0, &ws, false);
        let warm = segment(&sources, &targets, 1.0, &ws, true);
        for (case, segs) in [
            ("cold", vec![&cold]),
            ("warm", vec![&warm]),
            ("packed", vec![&cold, &warm]),
        ] {
            let got = execute_gpu(&mut GpuDevice::gtx970(), &segs, false).unwrap();
            let kernels = &got.profile.kernels;
            assert_eq!(kernels.capacity(), kernels.len(), "{case}");
        }
    }

    #[test]
    fn gpu_warm_path_skips_norms_kernel() {
        let sources = SourceSet::new(PointSet::uniform_cube(128, 8, 21));
        let targets = PointSet::uniform_cube(128, 8, 22);
        let ws = weights(128, 1, 23);
        let seg = segment(&sources, &targets, 1.0, &ws, true);
        let got = execute_gpu(&mut GpuDevice::gtx970(), &[&seg], false).unwrap();
        assert_eq!(
            got.profile.kernels.len(),
            2,
            "norms(A) skipped on a plan hit"
        );
    }
}
