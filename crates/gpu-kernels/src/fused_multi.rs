//! Multi-weight serving: [`execute_fused_multi_with`], the one entry
//! every served launch takes, around [`FusedMultiWeight`], the fused
//! kernel under its serving name.
//!
//! Kernel regression evaluates `V = K·W` for several weight columns at
//! once. The fused kernel ([`crate::fused`]) computes each Gaussian
//! value **once** in registers and folds it into `R` per-column
//! accumulators — the incremental cost is `micro_m·micro_n·(R−1)`
//! FFMAs per thread against the GEMM's own FFMA stream.
//!
//! The catch is the paper's §III-A register economy: each extra column
//! costs ~`2·micro_n` registers per thread (`micro_n` accumulator
//! partials + `micro_n` staged weights), so at the paper geometry
//! `R = 2` pushes the kernel past the 128-register line where
//! occupancy halves to **one block per SM**. See the `multi_weight`
//! rows of the ablation bench and this module's tests.
//!
//! Layouts: `W` is `N×R` **column-major** (each weight column
//! contiguous), `V` is `M×R` column-major (each output column receives
//! coalesced atomics).
//!
//! One entry serves any number of segments. In horizontal fusion's
//! terms (Li et al.) an unpacked batch is the one-segment case of a
//! packed wave: one segment launches [`FusedMultiWeight`] on its own
//! 2-D grid (`fused_multiw{R}…`, pipeline `Fused-Multi[-ABFT]`), two
//! or more launch [`FusedMultiPacked`] — the same fused kernel under
//! its packed name — over their concatenated grids
//! (`fused_multi_packed{S}w{R}…`, pipeline
//! `Fused-Multi-Packed[-ABFT]`). Both run one sequence: validate,
//! upload (deduplicated by key), norms, launch, download, verify.

use std::collections::HashMap;

use ks_gpu_sim::buffer::BufId;
use ks_gpu_sim::device::GpuDevice;
use ks_gpu_sim::kernel::{Kernel, LaunchError};
use ks_gpu_sim::profiler::PipelineProfile;

use crate::aux_kernels::{Bandwidth, NormsKernel};
pub use crate::fused::FusedMultiWeight;
use crate::fused::{FusedMultiPacked, VerifyBufs, VerifyReport, CHECKSUM_SLOT_WORDS};
use crate::gemm_engine::{GemmOperands, GemmShape};
use crate::geometry::TileGeometry;

/// Maximum weight columns: the `T` scratch (which reuses an idle GEMM
/// A-tile buffer of `block_m·tile_k` words) holds `block_m·R`
/// partials, so `R ≤ tile_k`; the paper geometry's rank-8 tiles give
/// this serving-batch ceiling.
pub const MAX_WEIGHT_COLUMNS: usize = 8;

/// Label under which served batches appear in profiles and metrics.
pub const FUSED_MULTI_PIPELINE: &str = "Fused-Multi";

/// Pipeline label of the ABFT-verified serving path.
pub const FUSED_MULTI_VERIFIED_PIPELINE: &str = "Fused-Multi-ABFT";

/// Label under which packed waves appear in profiles and metrics.
pub const FUSED_MULTI_PACKED_PIPELINE: &str = "Fused-Multi-Packed";

/// Pipeline label of the ABFT-verified packed path.
pub const FUSED_MULTI_PACKED_VERIFIED_PIPELINE: &str = "Fused-Multi-Packed-ABFT";

/// One query batch's slice of a serving launch, as the host sees it.
///
/// `a_key`/`b_key` enable plan-cache-aware upload deduplication:
/// segments carrying equal keys promise **byte-identical** `a` (resp.
/// `b`) slices and share one uploaded buffer. Norms sharing splits by
/// warmth — cold sharers share one norms pass, warm sharers share the
/// first uploaded `a2` (equal keys promise byte-identical norms too)
/// — but warmth never migrates between sharers: host-precomputed
/// norms are not bit-identical to the kernel's, so upgrading a cold
/// segment would break the bit-identity contract. `None` keys never
/// share.
#[derive(Clone, Copy)]
pub struct SegmentSpec<'a> {
    /// Padded GEMM shape of this segment (must divide the geometry).
    pub shape: GemmShape,
    /// Gaussian bandwidth.
    pub h: f32,
    /// `M×K` row-major source corpus.
    pub a: &'a [f32],
    /// `N×K` row-major target points (stored `K×N` GEMM-wise).
    pub b: &'a [f32],
    /// `N×R` column-major weights (column `c` contiguous at `c·N`).
    pub w_cols: &'a [f32],
    /// Precomputed `‖aᵢ‖²` row norms (plan-cache hit): skips norms(A).
    pub a2: Option<&'a [f32]>,
    /// Upload-dedup key for `a` (e.g. the plan's identity).
    pub a_key: Option<u64>,
    /// Upload-dedup key for `b` (e.g. the target set's identity).
    pub b_key: Option<u64>,
}

/// Per-corpus upload slot shared by all segments with one dedup key.
///
/// The *data* upload is shared unconditionally (equal keys promise
/// byte-identical slices), but norms are split by warmth: precomputed
/// norms are **not** bit-identical to the norms kernel's output (the
/// host accumulates in f64, the kernel in f32), so a warm segment's
/// upload must never serve a cold sharer — each class keeps its own
/// buffer and a mixed slot carries both.
struct CorpusSlot {
    buf: BufId,
    /// Uploaded precomputed norms, shared by the slot's warm segments.
    sq_warm: Option<BufId>,
    /// Kernel-computed norms, shared by the slot's cold segments; a
    /// norms kernel fills this before the fused launch.
    sq_cold: Option<BufId>,
    points: usize,
    dim: usize,
    /// Norms-kernel label ("a" or "b").
    label: &'static str,
}

/// The uploads of one launch: every corpus and target slot in
/// first-use order, indexed by side label and dedup key.
#[derive(Default)]
struct Uploads {
    slots: Vec<CorpusSlot>,
    index: HashMap<(&'static str, u64), usize>,
}

impl Uploads {
    /// The slot holding `data` under `key` on side `label`, uploading
    /// the data on first use.
    fn slot(
        &mut self,
        dev: &mut GpuDevice,
        key: Option<u64>,
        data: &[f32],
        (points, dim): (usize, usize),
        label: &'static str,
    ) -> usize {
        if let Some(&i) = key.and_then(|k| self.index.get(&(label, k))) {
            let slot = &self.slots[i];
            assert_eq!(
                (slot.points, slot.dim),
                (points, dim),
                "segments sharing an upload key must share the padded corpus shape"
            );
            return i;
        }
        let i = self.slots.len();
        if let Some(k) = key {
            self.index.insert((label, k), i);
        }
        self.slots.push(CorpusSlot {
            buf: dev.upload(data),
            sq_warm: None,
            sq_cold: None,
            points,
            dim,
            label,
        });
        i
    }

    /// The norms buffer slot `i`'s segment reads: the uploaded `norms`
    /// when it ships them (warm), else the kernel-filled buffer
    /// (cold), each created on first use.
    fn norms(&mut self, dev: &mut GpuDevice, i: usize, norms: Option<&[f32]>) -> BufId {
        let slot = &mut self.slots[i];
        match norms {
            Some(nm) => {
                assert_eq!(
                    nm.len(),
                    slot.points,
                    "row norms must match the corpus rows"
                );
                *slot.sq_warm.get_or_insert_with(|| dev.upload(nm))
            }
            None => *slot.sq_cold.get_or_insert_with(|| dev.alloc(slot.points)),
        }
    }
}

/// What a serving launch hands back.
pub struct FusedMultiOutput {
    /// Per segment, its `M×R` column-major result.
    pub v: Vec<Vec<f32>>,
    /// The launch's pipeline profile.
    pub profile: PipelineProfile,
    /// Per segment, its ABFT report; empty unless verified.
    pub reports: Vec<VerifyReport>,
}

/// Runs one serving launch end to end on `dev` at `geometry`: one
/// norms pass per **unique** cold corpus or target slot (warm
/// segments upload their precomputed norms instead, and never lend
/// them to cold sharers — see [`SegmentSpec`]), then **one** fused
/// launch over every segment: [`FusedMultiWeight`] on its own grid
/// for one segment, [`FusedMultiPacked`] for two or more.
///
/// Each segment allocates in one order — `A`, `B`, `A` norms, `B`
/// norms, `W`, `V`, then the checksum and flag when verified — and
/// skips a corpus or target set an earlier segment uploaded under the
/// same key.
///
/// Returns each segment's result, the pipeline profile and, when
/// `verify`, one [`VerifyReport`] per segment, so a corrupted launch
/// degrades only the affected segments. A packed launch is
/// bit-identical to launching each of its segments alone: every block
/// executes the same body at the same local coordinates against the
/// same data, and segments write disjoint outputs.
///
/// # Errors
/// Propagates launch-validation failures and injected launch-level
/// faults from any kernel.
///
/// # Panics
/// Panics on an empty segment list, a shape that does not divide
/// `geometry`, buffer lengths that disagree with a shape, `w_cols`
/// that is not a whole number of columns, a column count outside
/// `1..=MAX_WEIGHT_COLUMNS` or above the geometry's `tile_k`, or
/// segments that share a dedup key but disagree on the padded corpus
/// shape.
pub fn execute_fused_multi_with(
    dev: &mut GpuDevice,
    geometry: &TileGeometry,
    segs: &[SegmentSpec],
    verify: bool,
) -> Result<FusedMultiOutput, LaunchError> {
    assert!(!segs.is_empty(), "a serving launch needs segments");
    let mut uploads = Uploads::default();
    let mut kernels: Vec<FusedMultiWeight> = Vec::with_capacity(segs.len());
    // Per segment: its `V` buffer, rows and columns.
    let mut outputs: Vec<(BufId, usize, usize)> = Vec::with_capacity(segs.len());
    let mut verify_bufs: Vec<VerifyBufs> = Vec::new();

    for seg in segs {
        seg.shape.validate_for(geometry);
        let (m, n, k) = (seg.shape.m, seg.shape.n, seg.shape.k);
        assert_eq!(seg.a.len(), m * k, "A must be M·K elements");
        assert_eq!(seg.b.len(), k * n, "B must be K·N elements");
        assert_eq!(
            seg.w_cols.len() % n,
            0,
            "W must be a whole number of columns"
        );
        let r = seg.w_cols.len() / n;
        let bw = Bandwidth { h: seg.h };
        let _ = bw.inv_2h2(); // validates h

        let ai = uploads.slot(dev, seg.a_key, seg.a, (m, k), "a");
        let bi = uploads.slot(dev, seg.b_key, seg.b, (n, k), "b");
        let a2 = uploads.norms(dev, ai, seg.a2);
        let b2 = uploads.norms(dev, bi, None);
        let ops = GemmOperands {
            a: uploads.slots[ai].buf,
            b: uploads.slots[bi].buf,
        };
        let w = dev.upload(seg.w_cols);
        let v = dev.alloc(m * r);
        outputs.push((v, m, r));
        let mut kern =
            FusedMultiWeight::new(ops, a2, b2, w, v, seg.shape, bw, r).with_geometry(*geometry);
        if verify {
            let vb = VerifyBufs {
                checksum: dev.alloc(r * (m / geometry.block_m) * CHECKSUM_SLOT_WORDS),
                flag: dev.alloc(CHECKSUM_SLOT_WORDS),
            };
            verify_bufs.push(vb);
            kern = kern.with_verify(vb);
        }
        kernels.push(kern);
    }

    // One cold-cache point per launch: wave-mates sharing corpora hit
    // L2 instead of re-reading DRAM between back-to-back launches.
    dev.invalidate_l2();
    for &(v, _, _) in &outputs {
        dev.memset_zero(v); // cudaMemset before the atomic reduction
    }
    for vb in &verify_bufs {
        dev.memset_zero(vb.checksum);
        dev.memset_zero(vb.flag);
    }

    let packed = kernels.len() > 1;
    let cold_norms = uploads.slots.iter().filter(|s| s.sq_cold.is_some()).count();
    let mut prof = PipelineProfile {
        // Exactly one slot per launch: a served report keeps every
        // batch's profile.
        kernels: Vec::with_capacity(cold_norms + 1),
        ..PipelineProfile::new(match (packed, verify) {
            (false, false) => FUSED_MULTI_PIPELINE,
            (false, true) => FUSED_MULTI_VERIFIED_PIPELINE,
            (true, false) => FUSED_MULTI_PACKED_PIPELINE,
            (true, true) => FUSED_MULTI_PACKED_VERIFIED_PIPELINE,
        })
    };
    let mut launch_run = |kern: &dyn Kernel| -> Result<(), LaunchError> {
        let mut kp = dev.launch(kern)?;
        dev.run(kern)?;
        // The launch replay schedules upsets; the functional run
        // applies them — fold the applied tally into the profile.
        kp.faults.merge(&dev.take_fault_counters());
        prof.kernels.push(kp);
        Ok(())
    };
    for slot in &uploads.slots {
        if let Some(sq) = slot.sq_cold {
            launch_run(&NormsKernel::new(
                slot.buf,
                sq,
                slot.points,
                slot.dim,
                slot.label,
            ))?;
        }
    }
    if packed {
        launch_run(&FusedMultiPacked::new(kernels))?;
    } else {
        launch_run(&kernels[0])?;
    }

    let v: Vec<Vec<f32>> = outputs.iter().map(|&(v, _, _)| dev.download(v)).collect();
    let reports = verify_bufs
        .iter()
        .zip(&v)
        .zip(&outputs)
        .map(|((vb, v), &(_, m, r))| {
            VerifyReport::from_outputs(
                v,
                &dev.download(vb.checksum),
                &dev.download(vb.flag),
                m,
                r,
                geometry.block_m,
            )
        })
        .collect();
    Ok(FusedMultiOutput {
        v,
        profile: prof,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER: TileGeometry = TileGeometry::paper_default();

    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 0.5
        }
    }

    struct Setup {
        dev: GpuDevice,
        a: Vec<f32>,
        b: Vec<f32>,
        w: Vec<f32>,
        kern_inputs: (GemmOperands, BufId, BufId, BufId, BufId),
        shape: GemmShape,
        bw: Bandwidth,
        r: usize,
    }

    fn setup(shape: GemmShape, r: usize, seed: u64) -> Setup {
        let mut next = lcg(seed);
        let a: Vec<f32> = (0..shape.m * shape.k).map(|_| next()).collect();
        let b: Vec<f32> = (0..shape.k * shape.n).map(|_| next()).collect();
        let w: Vec<f32> = (0..shape.n * r).map(|_| next()).collect();
        let a2: Vec<f32> = (0..shape.m)
            .map(|i| {
                a[i * shape.k..(i + 1) * shape.k]
                    .iter()
                    .map(|v| v * v)
                    .sum()
            })
            .collect();
        let b2: Vec<f32> = (0..shape.n)
            .map(|j| {
                b[j * shape.k..(j + 1) * shape.k]
                    .iter()
                    .map(|v| v * v)
                    .sum()
            })
            .collect();
        let mut dev = GpuDevice::gtx970();
        let ops = GemmOperands {
            a: dev.upload(&a),
            b: dev.upload(&b),
        };
        let (ba2, bb2) = (dev.upload(&a2), dev.upload(&b2));
        let bw_buf = dev.upload(&w);
        let bv = dev.alloc(shape.m * r);
        Setup {
            dev,
            a,
            b,
            w,
            kern_inputs: (ops, ba2, bb2, bw_buf, bv),
            shape,
            bw: Bandwidth { h: 1.0 },
            r,
        }
    }

    /// `s`'s data as one unkeyed segment.
    fn spec(s: &Setup) -> SegmentSpec<'_> {
        SegmentSpec {
            shape: s.shape,
            h: s.bw.h,
            a: &s.a,
            b: &s.b,
            w_cols: &s.w,
            a2: None,
            a_key: None,
            b_key: None,
        }
    }

    fn reference(s: &Setup) -> Vec<f32> {
        let scale = s.bw.inv_2h2() as f64;
        let (m, n, k) = (s.shape.m, s.shape.n, s.shape.k);
        let mut out = vec![0.0f32; m * s.r];
        for c in 0..s.r {
            for i in 0..m {
                let mut acc = 0.0f64;
                for j in 0..n {
                    let d: f64 = (0..k)
                        .map(|t| (s.a[i * k + t] as f64 - s.b[j * k + t] as f64).powi(2))
                        .sum();
                    acc += (-d * scale).exp() * s.w[c * n + j] as f64;
                }
                out[c * m + i] = acc as f32;
            }
        }
        out
    }

    #[test]
    fn functional_matches_reference_for_r2_and_r4() {
        for r in [2usize, 4] {
            let mut s = setup(
                GemmShape {
                    m: 128,
                    n: 256,
                    k: 16,
                },
                r,
                7 + r as u64,
            );
            let (ops, a2, b2, w, v) = s.kern_inputs;
            let kern = FusedMultiWeight::new(ops, a2, b2, w, v, s.shape, s.bw, r);
            s.dev.run(&kern).unwrap();
            let got = s.dev.download(v);
            let want = reference(&s);
            for (i, (g, x)) in got.iter().zip(want.iter()).enumerate() {
                assert!(
                    (g - x).abs() < 3e-3 * x.abs().max(1.0),
                    "r={r} idx {i}: {g} vs {x}"
                );
            }
        }
    }

    /// The two public names are one kernel: at R = 1 they agree in
    /// every output bit (V, checksum, flag), in the applied fault
    /// tally and in every `KernelProfile` field but `name`, at the
    /// paper default and two other lattice points, verified or not, on
    /// clean and faulty devices (sequential `run_counted`), and in a
    /// paper-scale `launch` replay.
    #[test]
    fn r1_matches_the_single_weight_kernel() {
        use crate::fused::FusedKernelSummation;
        use ks_gpu_sim::KernelProfile;

        let shape = GemmShape {
            m: 256,
            n: 128,
            k: 16,
        };
        let s = setup(shape, 1, 21);
        let norms = |p: &[f32]| -> Vec<f32> {
            p.chunks(shape.k)
                .map(|x| x.iter().map(|v| v * v).sum())
                .collect()
        };
        let (a2_host, b2_host) = (norms(&s.a), norms(&s.b));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Launches one name on a fresh device (identical upload order,
        // so identical buffer ids and fault schedule) and returns the
        // profile, the bits of V/checksum/flag and the applied faults.
        let run = |spec: Option<&str>, geo: TileGeometry, verify: bool, multi: bool| {
            let mut dev = spec.map_or_else(GpuDevice::gtx970, |sp| faulty_device(sp, 3));
            let ops = GemmOperands {
                a: dev.upload(&s.a),
                b: dev.upload(&s.b),
            };
            let (a2, b2, w) = (dev.upload(&a2_host), dev.upload(&b2_host), dev.upload(&s.w));
            let v = dev.alloc(shape.m);
            let vb = VerifyBufs {
                checksum: dev.alloc((shape.m / geo.block_m) * CHECKSUM_SLOT_WORDS),
                flag: dev.alloc(CHECKSUM_SLOT_WORDS),
            };
            let prof = if multi {
                let k = FusedMultiWeight::new(ops, a2, b2, w, v, shape, s.bw, 1).with_geometry(geo);
                dev.run_counted(&if verify { k.with_verify(vb) } else { k })
            } else {
                let k =
                    FusedKernelSummation::new(ops, a2, b2, w, v, shape, s.bw).with_geometry(geo);
                dev.run_counted(&if verify { k.with_verify(vb) } else { k })
            }
            .unwrap();
            let outputs = [v, vb.checksum, vb.flag].map(|b| bits(&dev.download(b)));
            (prof, outputs, dev.take_fault_counters())
        };
        let same_but_name = |multi: KernelProfile, single: &KernelProfile, ctx: &str| {
            assert!(multi.name.starts_with("fused_multiw1"), "{}", multi.name);
            assert!(single.name.starts_with("fused_ks"), "{}", single.name);
            let renamed = KernelProfile {
                name: single.name.clone(),
                ..multi
            };
            assert_eq!(&renamed, single, "{ctx}: profiles differ beyond the name");
        };

        let lattice = TileGeometry::lattice(&DeviceConfig::gtx970());
        let geos = [
            PAPER,
            TileGeometry {
                block_m: 64,
                block_n: 64,
                ..PAPER
            },
            TileGeometry {
                block_m: 64,
                block_n: 64,
                tile_k: 4,
                double_buffer_depth: 1,
                ..PAPER
            },
        ];
        for geo in geos {
            assert!(lattice.contains(&geo), "{geo} is not a lattice point");
            for verify in [false, true] {
                for spec in [None, Some("smem=3,reg=2"), Some("dram=2")] {
                    let ctx = format!("{geo} verify={verify} faults={spec:?}");
                    let (pm, om, fm) = run(spec, geo, verify, true);
                    let (ps, os, fs) = run(spec, geo, verify, false);
                    assert_eq!(om, os, "{ctx}: V/checksum/flag bits differ");
                    assert_eq!(fm, fs, "{ctx}: applied faults differ");
                    assert_eq!(fm.is_empty(), spec.is_none(), "{ctx}: {fm:?}");
                    same_but_name(pm, &ps, &ctx);
                }
            }
        }

        // Paper-scale traffic replay over virtual buffers.
        let big = GemmShape {
            m: 1024,
            n: 1024,
            k: 32,
        };
        let replay = |multi: bool| {
            let mut dev = GpuDevice::gtx970();
            let ops = GemmOperands {
                a: dev.alloc_virtual(big.m * big.k),
                b: dev.alloc_virtual(big.k * big.n),
            };
            let (a2, b2) = (dev.alloc_virtual(big.m), dev.alloc_virtual(big.n));
            let (w, v) = (dev.alloc_virtual(big.n), dev.alloc_virtual(big.m));
            if multi {
                dev.launch(&FusedMultiWeight::new(ops, a2, b2, w, v, big, s.bw, 1))
            } else {
                dev.launch(&FusedKernelSummation::new(ops, a2, b2, w, v, big, s.bw))
            }
            .unwrap()
        };
        same_but_name(replay(true), &replay(false), "launch at 1024x1024x32");
    }

    #[test]
    fn non_default_geometry_matches_the_multi_oracle_bit_for_bit() {
        let (mr, nr, kr, r) = (128usize, 128usize, 16usize, 2usize);
        let shape = GemmShape {
            m: mr,
            n: nr,
            k: kr,
        };
        let s = setup(shape, r, 77);
        let a2: Vec<f32> = (0..mr)
            .map(|i| s.a[i * kr..(i + 1) * kr].iter().map(|v| v * v).sum())
            .collect();
        let b2: Vec<f32> = (0..nr)
            .map(|j| s.b[j * kr..(j + 1) * kr].iter().map(|v| v * v).sum())
            .collect();
        let geo = TileGeometry {
            block_m: 64,
            block_n: 64,
            ..TileGeometry::paper_default()
        };
        let mut dev = GpuDevice::gtx970();
        let ops = GemmOperands {
            a: dev.upload(&s.a),
            b: dev.upload(&s.b),
        };
        let (ba2, bb2) = (dev.upload(&a2), dev.upload(&b2));
        let bw_buf = dev.upload(&s.w);
        let bv = dev.alloc(mr * r);
        dev.run_counted(
            &FusedMultiWeight::new(ops, ba2, bb2, bw_buf, bv, shape, s.bw, r).with_geometry(geo),
        )
        .unwrap();
        let got = dev.download(bv);
        let want = crate::oracle::fused_multi_oracle(
            &geo, &s.a, &s.b, &a2, &b2, &s.w, mr, nr, kr, s.bw.h, r,
        );
        for (i, (g, x)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(g.to_bits(), x.to_bits(), "idx {i}: {g} vs {x}");
        }
    }

    #[test]
    fn extra_columns_halve_occupancy() {
        // §III-A register economy: R = 2 needs >128 regs/thread and
        // drops to one block per SM.
        let mut s = setup(
            GemmShape {
                m: 128,
                n: 128,
                k: 8,
            },
            2,
            31,
        );
        let (ops, a2, b2, w, v) = s.kern_inputs;
        let p = s
            .dev
            .launch(&FusedMultiWeight::new(ops, a2, b2, w, v, s.shape, s.bw, 2))
            .unwrap();
        assert_eq!(p.occupancy.blocks_per_sm, 1);
    }

    #[test]
    fn multi_weight_beats_repeated_single_weight_runs() {
        // The whole point: folding R columns into one pass costs far
        // less than R full fused passes (each redoing the GEMM).
        let r = 4usize;
        let shape = GemmShape {
            m: 4096,
            n: 1024,
            k: 64,
        };
        let multi_time = {
            let mut dev = GpuDevice::gtx970();
            let ops = GemmOperands {
                a: dev.alloc_virtual(shape.m * shape.k),
                b: dev.alloc_virtual(shape.k * shape.n),
            };
            let (a2, b2) = (dev.alloc_virtual(shape.m), dev.alloc_virtual(shape.n));
            let w = dev.alloc_virtual(shape.n * r);
            let v = dev.alloc_virtual(shape.m * r);
            let p = dev
                .launch(&FusedMultiWeight::new(
                    ops,
                    a2,
                    b2,
                    w,
                    v,
                    shape,
                    Bandwidth { h: 1.0 },
                    r,
                ))
                .unwrap();
            p.timing.time_s
        };
        let single_time = {
            let mut dev = GpuDevice::gtx970();
            let ops = GemmOperands {
                a: dev.alloc_virtual(shape.m * shape.k),
                b: dev.alloc_virtual(shape.k * shape.n),
            };
            let (a2, b2) = (dev.alloc_virtual(shape.m), dev.alloc_virtual(shape.n));
            let w = dev.alloc_virtual(shape.n);
            let v = dev.alloc_virtual(shape.m);
            let p = dev
                .launch(&crate::fused::FusedKernelSummation::new(
                    ops,
                    a2,
                    b2,
                    w,
                    v,
                    shape,
                    Bandwidth { h: 1.0 },
                ))
                .unwrap();
            p.timing.time_s
        };
        assert!(
            multi_time < 0.5 * r as f64 * single_time,
            "multi {multi_time} vs {r}x single {}",
            r as f64 * single_time
        );
    }

    #[test]
    fn batched_entry_matches_reference_and_profiles_every_kernel() {
        let shape = GemmShape {
            m: 128,
            n: 256,
            k: 16,
        };
        let s = setup(shape, 3, 91);
        let mut dev = GpuDevice::gtx970();
        let FusedMultiOutput {
            v: got,
            profile: prof,
            reports,
        } = execute_fused_multi_with(&mut dev, &PAPER, &[spec(&s)], false).unwrap();
        assert_eq!(prof.name, FUSED_MULTI_PIPELINE);
        assert_eq!(prof.kernels.len(), 3, "norms(A), norms(B), fused-multi");
        assert!(reports.is_empty(), "no reports unless verified");
        let got = &got[0];
        let want = reference(&s);
        for (i, (g, x)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g - x).abs() < 3e-3 * x.abs().max(1.0),
                "idx {i}: {g} vs {x}"
            );
        }
    }

    #[test]
    fn precomputed_norms_skip_a_kernel_and_save_dram() {
        // The DRAM saving shows up when the corpus does not stay
        // L2-resident between the norms pass and the fused pass — the
        // production-serving regime. Model inter-request cache
        // pressure with a 64 KB effective L2 (A alone is 128 KB).
        let small_l2 = || {
            let mut cfg = ks_gpu_sim::config::DeviceConfig::gtx970();
            cfg.l2_bytes = 64 * 1024;
            GpuDevice::new(cfg)
        };
        let shape = GemmShape {
            m: 1024,
            n: 128,
            k: 32,
        };
        let s = setup(shape, 2, 101);
        let a2: Vec<f32> = (0..shape.m)
            .map(|i| {
                s.a[i * shape.k..(i + 1) * shape.k]
                    .iter()
                    .map(|v| v * v)
                    .sum()
            })
            .collect();
        let mut d_cold = small_l2();
        let FusedMultiOutput {
            v: v_cold,
            profile: p_cold,
            ..
        } = execute_fused_multi_with(&mut d_cold, &PAPER, &[spec(&s)], false).unwrap();
        let hit = SegmentSpec {
            a2: Some(&a2),
            ..spec(&s)
        };
        let mut d_hit = small_l2();
        let FusedMultiOutput {
            v: v_hit,
            profile: p_hit,
            ..
        } = execute_fused_multi_with(&mut d_hit, &PAPER, &[hit], false).unwrap();
        assert_eq!(p_cold.kernels.len(), 3);
        assert_eq!(p_hit.kernels.len(), 2, "norms(A) skipped on a plan hit");
        assert!(
            p_hit.total_mem().dram_transactions() < p_cold.total_mem().dram_transactions(),
            "plan reuse must save DRAM: {} vs {}",
            p_hit.total_mem().dram_transactions(),
            p_cold.total_mem().dram_transactions()
        );
        for (i, (a, b)) in v_cold[0].iter().zip(v_hit[0].iter()).enumerate() {
            assert!(
                (a - b).abs() < 2e-3 * a.abs().max(1.0),
                "idx {i}: {a} vs {b}"
            );
        }
    }

    // ---- ABFT verification -------------------------------------------

    use ks_gpu_sim::{DeviceConfig, FaultSpec};

    fn faulty_device(spec: &str, seed: u64) -> GpuDevice {
        let mut fs = FaultSpec::parse(spec).expect("valid fault spec");
        fs.seed = seed;
        let mut cfg = DeviceConfig::gtx970();
        cfg.fault = Some(fs);
        GpuDevice::new(cfg)
    }

    #[test]
    fn verified_entry_matches_unverified_and_reports_clean() {
        let shape = GemmShape {
            m: 128,
            n: 256,
            k: 16,
        };
        let s = setup(shape, 3, 92);
        let mut d1 = GpuDevice::gtx970();
        let FusedMultiOutput { v: plain, .. } =
            execute_fused_multi_with(&mut d1, &PAPER, &[spec(&s)], false).unwrap();
        let mut d2 = GpuDevice::gtx970();
        let FusedMultiOutput {
            v: got,
            profile: prof,
            reports,
        } = execute_fused_multi_with(&mut d2, &PAPER, &[spec(&s)], true).unwrap();
        let report = &reports[0];
        assert_eq!(prof.name, FUSED_MULTI_VERIFIED_PIPELINE);
        assert_eq!(prof.kernels.len(), 3);
        assert!(
            prof.kernels[2].name.contains("_abft"),
            "{}",
            prof.kernels[2].name
        );
        assert!(!report.corruption_detected(), "{report:?}");
        assert_eq!(report.checksum_groups, 3 * (shape.m / 128));
        for (g, p) in got[0].iter().zip(plain[0].iter()) {
            assert!((g - p).abs() < 1e-4 * p.abs().max(1.0), "{g} vs {p}");
        }
    }

    /// In-flight fault sweep over the batched verified entry. With
    /// `n = 256` only two blocks atomically fold into each `V` row, so
    /// the parallel `run` stays bit-deterministic (two-operand float
    /// addition is commutative) and the baseline comparison is exact.
    #[test]
    fn verified_entry_flags_injected_faults() {
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 32,
        };
        let s = setup(shape, 2, 93);
        let mut clean = GpuDevice::gtx970();
        let FusedMultiOutput {
            v: base,
            reports: clean_reports,
            ..
        } = execute_fused_multi_with(&mut clean, &PAPER, &[spec(&s)], true).unwrap();
        assert!(!clean_reports[0].corruption_detected());

        let mut corrupted = 0u32;
        let mut injected_total = 0u64;
        for seed in 0..10u64 {
            let mut dev = faulty_device("smem=3,reg=2", seed);
            let FusedMultiOutput {
                v: got,
                profile: prof,
                reports,
            } = execute_fused_multi_with(&mut dev, &PAPER, &[spec(&s)], true).unwrap();
            let injected: u64 = prof
                .kernels
                .iter()
                .map(|k| k.faults.smem_flips + k.faults.reg_flips)
                .sum();
            injected_total += injected;
            let changed = got[0]
                .iter()
                .zip(base[0].iter())
                .any(|(g, b)| g.to_bits() != b.to_bits());
            if changed {
                corrupted += 1;
                assert!(
                    reports[0].blocks_flagged > 0,
                    "seed {seed}: silent corruption ({injected} flips applied)"
                );
            }
        }
        assert!(injected_total > 0, "no faults were applied");
        assert!(corrupted >= 1, "no seed corrupted V — sweep is vacuous");
    }

    /// The ABFT DRAM gate (DESIGN.md §11) at kernel level, which is
    /// stricter than a pipeline-level ratio (no norms traffic in the
    /// denominator): the paper's smoke grid (R = 1, K = 32, N = 1024,
    /// M ∈ {1024, 8192}) and a serving batch (R = 4, M = 4096).
    #[test]
    fn multi_verification_adds_at_most_two_percent_dram_traffic() {
        for (r, m) in [(1usize, 1024usize), (1, 8192), (4, 4096)] {
            let shape = GemmShape { m, n: 1024, k: 32 };
            let launch = |verify: bool| {
                let mut dev = GpuDevice::gtx970();
                let ops = GemmOperands {
                    a: dev.alloc_virtual(shape.m * shape.k),
                    b: dev.alloc_virtual(shape.k * shape.n),
                };
                let (a2, b2) = (dev.alloc_virtual(shape.m), dev.alloc_virtual(shape.n));
                let w = dev.alloc_virtual(shape.n * r);
                let v = dev.alloc_virtual(shape.m * r);
                let mut kern =
                    FusedMultiWeight::new(ops, a2, b2, w, v, shape, Bandwidth { h: 1.0 }, r);
                if verify {
                    kern = kern.with_verify(VerifyBufs {
                        checksum: dev.alloc_virtual(r * (shape.m / 128) * CHECKSUM_SLOT_WORDS),
                        flag: dev.alloc_virtual(CHECKSUM_SLOT_WORDS),
                    });
                }
                dev.launch(&kern).unwrap()
            };
            let plain = launch(false);
            let verified = launch(true);
            let ratio =
                verified.mem.dram_transactions() as f64 / plain.mem.dram_transactions() as f64;
            assert!(
                (1.0..=1.02).contains(&ratio),
                "R={r} M={m}: verified/plain DRAM ratio {ratio}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_too_many_columns() {
        let mut dev = GpuDevice::gtx970();
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 8,
        };
        let ops = GemmOperands {
            a: dev.alloc_virtual(128 * 8),
            b: dev.alloc_virtual(8 * 128),
        };
        let (a2, b2, w, v) = (
            dev.alloc_virtual(128),
            dev.alloc_virtual(128),
            dev.alloc_virtual(128 * 9),
            dev.alloc_virtual(128 * 9),
        );
        let _ = FusedMultiWeight::new(ops, a2, b2, w, v, shape, Bandwidth { h: 1.0 }, 9);
    }

    #[test]
    #[should_panic(expected = "exceed the T scratch")]
    fn rejects_columns_beyond_the_geometry_scratch() {
        let mut dev = GpuDevice::gtx970();
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 8,
        };
        let ops = GemmOperands {
            a: dev.alloc_virtual(128 * 8),
            b: dev.alloc_virtual(8 * 128),
        };
        let (a2, b2, w, v) = (
            dev.alloc_virtual(128),
            dev.alloc_virtual(128),
            dev.alloc_virtual(128 * 6),
            dev.alloc_virtual(128 * 6),
        );
        let geo = TileGeometry {
            tile_k: 4,
            ..TileGeometry::paper_default()
        };
        let _ = FusedMultiWeight::new(ops, a2, b2, w, v, shape, Bandwidth { h: 1.0 }, 6)
            .with_geometry(geo);
    }
}
