//! Differential harness over the tile-geometry lattice: every
//! feasible [`TileGeometry`] must produce results bit-identical to the
//! geometry-aware CPU oracle under the sequential (`run_counted`)
//! schedule — the same reduction-order contract the serving ladder's
//! CPU/GPU cross-checks rely on. A `run`, which takes the kernels'
//! exact host path and interprets only the blocks a fault plan names,
//! must equal `run_counted` bit for bit in every output — `V`, the
//! ABFT checksum and flag, and the norms — quiet or faulted, with the
//! same applied faults.
//!
//! The shapes here are compact so the sweep stays debug-build fast;
//! the CI `tune-bench` job repeats the same check on the full smoke
//! grid in release through the tuner's admission gate
//! (`ks_tune::admit_geometry`), which refuses to ship any geometry
//! that fails it.

use ks_gpu_kernels::aux_kernels::{Bandwidth, NormsKernel};
use ks_gpu_kernels::fused::FusedKernelSummation;
use ks_gpu_kernels::fused_multi::FusedMultiWeight;
use ks_gpu_kernels::gemm_engine::{GemmOperands, GemmShape};
use ks_gpu_kernels::{
    fused_multi_oracle, fused_oracle, FusedMultiPacked, TileGeometry, VerifyBufs,
    CHECKSUM_SLOT_WORDS,
};
use ks_gpu_sim::buffer::BufId;
use ks_gpu_sim::config::DeviceConfig;
use ks_gpu_sim::fault::{FaultCounters, FaultSpec};
use ks_gpu_sim::kernel::Kernel;
use ks_gpu_sim::GpuDevice;

fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 0.5
        })
        .collect()
}

fn host_norms(pts: &[f32], rows: usize, k: usize) -> Vec<f32> {
    (0..rows)
        .map(|i| pts[i * k..(i + 1) * k].iter().map(|v| v * v).sum())
        .collect()
}

/// What a launch sequence built on a fresh device leaves behind: its
/// kernels, in launch order, and every buffer they write.
type Launches = (Vec<Box<dyn Kernel>>, Vec<BufId>);

/// Builds the launches on a fresh device under `fault`, runs them
/// through `run` (the host path) or `run_counted` (the interpreter),
/// and downloads the written buffers and the applied fault tally.
fn outputs(
    setup: &dyn Fn(&mut GpuDevice) -> Launches,
    counted: bool,
    fault: Option<FaultSpec>,
) -> (Vec<Vec<f32>>, FaultCounters) {
    let mut dev = GpuDevice::new(DeviceConfig {
        fault,
        ..DeviceConfig::gtx970()
    });
    let (kernels, written) = setup(&mut dev);
    for kern in &kernels {
        if counted {
            dev.run_counted(kern.as_ref()).unwrap();
        } else {
            dev.run(kern.as_ref()).unwrap();
        }
    }
    let out = written.iter().map(|&buf| dev.download(buf)).collect();
    (out, dev.take_fault_counters())
}

/// Asserts a `run` under `fault` writes exactly the bits `run_counted`
/// does and applies the same faults, and returns those outputs and the
/// tally. A DRAM flip can turn a norm into a NaN, and Rust leaves
/// which payload an operation on NaNs returns unspecified, so under
/// DRAM flips two NaNs match whatever their payloads.
fn run_equals_run_counted_under(
    what: &str,
    fault: Option<FaultSpec>,
    setup: &dyn Fn(&mut GpuDevice) -> Launches,
) -> (Vec<Vec<f32>>, FaultCounters) {
    let (fast, fast_tally) = outputs(setup, false, fault);
    let (slow, slow_tally) = outputs(setup, true, fault);
    for (o, (f, s)) in fast.iter().zip(&slow).enumerate() {
        assert_eq!(f.len(), s.len());
        for (i, (x, y)) in f.iter().zip(s).enumerate() {
            let both_nan = fault.is_some_and(|f| f.dram_rate > 0.0) && x.is_nan() && y.is_nan();
            assert!(
                x.to_bits() == y.to_bits() || both_nan,
                "{what}: output {o} word {i}: run {x} ({:#010x}) vs run_counted {y} ({:#010x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }
    assert_eq!(fast_tally, slow_tally, "{what}: applied faults");
    (slow, slow_tally)
}

/// Asserts a quiet `run` writes exactly the bits `run_counted` does,
/// and returns those outputs.
fn run_equals_run_counted(what: &str, setup: &dyn Fn(&mut GpuDevice) -> Launches) -> Vec<Vec<f32>> {
    run_equals_run_counted_under(what, None, setup).0
}

/// The seeded fault specs of the faulted cases: upsets that name
/// several blocks of every launch, and DRAM flips only.
fn fault_specs(seed: u64) -> [FaultSpec; 2] {
    [
        FaultSpec {
            seed,
            smem_rate: 4.0,
            reg_rate: 4.0,
            ..FaultSpec::default()
        },
        FaultSpec {
            seed,
            dram_rate: 2.0,
            ..FaultSpec::default()
        },
    ]
}

/// One serving launch on device-computed norms: the norms(A) and
/// norms(B) launches, then the fused kernel at `geo` with `r` columns,
/// verified or not, and the norms, `V`, checksum and flag it writes.
fn fused_pipeline(
    dev: &mut GpuDevice,
    geo: TileGeometry,
    shape: GemmShape,
    r: usize,
    verify: bool,
    seed: u64,
) -> (Vec<Box<dyn Kernel>>, FusedMultiWeight, Vec<BufId>) {
    let (m, n, k) = (shape.m, shape.n, shape.k);
    let ops = GemmOperands {
        a: dev.upload(&rand_vec(m * k, seed)),
        b: dev.upload(&rand_vec(k * n, seed + 1)),
    };
    let (a2, b2) = (dev.alloc(m), dev.alloc(n));
    let w = dev.upload(&rand_vec(n * r, seed + 2));
    let v = dev.alloc(m * r);
    let mut fused =
        FusedMultiWeight::new(ops, a2, b2, w, v, shape, Bandwidth { h: 0.9 }, r).with_geometry(geo);
    let mut written = vec![a2, b2, v];
    if verify {
        let vb = VerifyBufs {
            checksum: dev.alloc(r * (m / geo.block_m) * CHECKSUM_SLOT_WORDS),
            flag: dev.alloc(CHECKSUM_SLOT_WORDS),
        };
        fused = fused.with_verify(vb);
        written.extend([vb.checksum, vb.flag]);
    }
    let norms: Vec<Box<dyn Kernel>> = vec![
        Box::new(NormsKernel::new(ops.a, a2, m, k, "a")),
        Box::new(NormsKernel::new(ops.b, b2, n, k, "b")),
    ];
    (norms, fused, written)
}

/// Runs every feasible lattice geometry that divides `shape` through
/// the full-device sequential schedule and asserts bit-identity with
/// the oracle. Returns how many geometries were exercised.
fn sweep_shape(shape: GemmShape, seed: u64) -> usize {
    let bw = Bandwidth { h: 1.0 };
    let a = rand_vec(shape.m * shape.k, seed);
    let b = rand_vec(shape.k * shape.n, seed + 1);
    let w = rand_vec(shape.n, seed + 2);
    let a2 = host_norms(&a, shape.m, shape.k);
    let b2 = host_norms(&b, shape.n, shape.k);

    let mut exercised = 0;
    for geo in TileGeometry::lattice(&DeviceConfig::gtx970()) {
        if !geo.divides(shape.m, shape.n, shape.k) {
            continue;
        }
        let setup = |dev: &mut GpuDevice| -> Launches {
            let ops = GemmOperands {
                a: dev.upload(&a),
                b: dev.upload(&b),
            };
            let (ba2, bb2, bw_buf, bv) = (
                dev.upload(&a2),
                dev.upload(&b2),
                dev.upload(&w),
                dev.alloc(shape.m),
            );
            let kern =
                FusedKernelSummation::new(ops, ba2, bb2, bw_buf, bv, shape, bw).with_geometry(geo);
            (vec![Box::new(kern)], vec![bv])
        };
        let got = run_equals_run_counted(&geo.to_string(), &setup).remove(0);
        let want = fused_oracle(&geo, &a, &b, &a2, &b2, &w, shape.m, shape.n, shape.k, bw.h);
        for (i, (g, x)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                g.to_bits(),
                x.to_bits(),
                "{geo} shape {}x{}x{} row {i}: {g} vs {x}",
                shape.m,
                shape.n,
                shape.k
            );
        }
        exercised += 1;
    }
    exercised
}

#[test]
fn every_feasible_geometry_matches_the_oracle_bit_for_bit() {
    let n = sweep_shape(
        GemmShape {
            m: 256,
            n: 256,
            k: 16,
        },
        101,
    );
    // The lattice must be a real sweep, not a handful of near-paper
    // points — a feasibility regression that silently empties it would
    // otherwise pass vacuously.
    assert!(n >= 10, "only {n} feasible geometries divided the shape");
}

#[test]
fn non_square_shapes_are_covered_too() {
    let n = sweep_shape(
        GemmShape {
            m: 512,
            n: 256,
            k: 32,
        },
        202,
    );
    assert!(n >= 10, "only {n} feasible geometries divided the shape");
}

#[test]
fn multi_weight_lattice_matches_the_multi_oracle() {
    // The R-column variant under a few non-paper geometries: same
    // contract, column-major output.
    let shape = GemmShape {
        m: 256,
        n: 256,
        k: 16,
    };
    let r = 3;
    let bw = Bandwidth { h: 1.0 };
    let a = rand_vec(shape.m * shape.k, 303);
    let b = rand_vec(shape.k * shape.n, 304);
    let w_flat = rand_vec(shape.n * r, 305);
    let a2 = host_norms(&a, shape.m, shape.k);
    let b2 = host_norms(&b, shape.n, shape.k);

    let mut exercised = 0;
    for geo in TileGeometry::lattice(&DeviceConfig::gtx970()) {
        if !geo.divides(shape.m, shape.n, shape.k) || geo.tile_k < r {
            continue;
        }
        // Keep the debug-build sweep quick: multi-weight only differs
        // from the single-weight path in the per-column epilogue, so a
        // microtile-8 block-diverse subset is representative.
        if geo.micro_m != 8 || geo.micro_n != 8 {
            continue;
        }
        let setup = |dev: &mut GpuDevice| -> Launches {
            let ops = GemmOperands {
                a: dev.upload(&a),
                b: dev.upload(&b),
            };
            let (ba2, bb2, bw_buf, bv) = (
                dev.upload(&a2),
                dev.upload(&b2),
                dev.upload(&w_flat),
                dev.alloc(shape.m * r),
            );
            let kern =
                FusedMultiWeight::new(ops, ba2, bb2, bw_buf, bv, shape, bw, r).with_geometry(geo);
            (vec![Box::new(kern)], vec![bv])
        };
        let got = run_equals_run_counted(&geo.to_string(), &setup).remove(0);
        let want = fused_multi_oracle(
            &geo, &a, &b, &a2, &b2, &w_flat, shape.m, shape.n, shape.k, bw.h, r,
        );
        for (i, (g, x)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(g.to_bits(), x.to_bits(), "{geo} multi elem {i}: {g} vs {x}");
        }
        exercised += 1;
    }
    assert!(exercised >= 4, "only {exercised} multi geometries swept");
}

#[test]
fn quiet_run_equals_run_counted_across_three_column_blocks() {
    // At three or more column blocks the order in which blocks' atomics
    // land in V and the checksum slots decides the bits. A sample of
    // the lattice keeps the debug build quick; every R in {1, 2, 4, 8}
    // that fits the geometry's T scratch runs verified and not.
    let lattice = TileGeometry::lattice(&DeviceConfig::gtx970());
    let mut launches = 0;
    for geo in lattice.iter().copied().step_by(9) {
        // The norms kernel takes whole 128-point blocks.
        let shape = GemmShape {
            m: geo.block_m.max(128),
            n: 3 * geo.block_n.max(128),
            k: 2 * geo.tile_k,
        };
        for r in [1, 2, 4, 8].into_iter().filter(|&r| r <= geo.tile_k) {
            for verify in [false, true] {
                let what = format!("{geo} R {r} verify {verify}");
                run_equals_run_counted(&what, &|dev: &mut GpuDevice| {
                    let (mut kernels, fused, written) =
                        fused_pipeline(dev, geo, shape, r, verify, 400 + launches);
                    kernels.push(Box::new(fused));
                    (kernels, written)
                });
                launches += 1;
            }
        }
    }
    assert!(launches >= 40, "only {launches} launches sampled");
}

/// Three segments with mixed R and shapes in one packed launch,
/// verified or not, every segment at three column blocks.
fn packed_launch(dev: &mut GpuDevice, verify: bool) -> Launches {
    let geo = TileGeometry::paper_default();
    let segments = [(1, 128, 384), (3, 384, 384), (8, 128, 384)];
    let mut kernels: Vec<Box<dyn Kernel>> = Vec::new();
    let mut fused = Vec::new();
    let mut written = Vec::new();
    for (s, &(r, m, n)) in segments.iter().enumerate() {
        let shape = GemmShape { m, n, k: 16 };
        let (norms, seg, seg_written) =
            fused_pipeline(dev, geo, shape, r, verify, 500 + 10 * s as u64);
        kernels.extend(norms);
        fused.push(seg);
        written.extend(seg_written);
    }
    kernels.push(Box::new(FusedMultiPacked::new(fused)));
    (kernels, written)
}

#[test]
fn quiet_packed_run_equals_run_counted() {
    run_equals_run_counted("packed", &|dev: &mut GpuDevice| packed_launch(dev, true));
}

/// Every applied flip of `tallies`, asserting each kind landed.
fn assert_every_kind_applied(what: &str, tallies: &[FaultCounters]) {
    let mut sum = FaultCounters::default();
    tallies.iter().for_each(|t| sum.merge(t));
    assert!(
        sum.smem_flips > 0 && sum.reg_flips > 0 && sum.dram_flips > 0,
        "{what}: a kind of fault never landed: {sum:?}"
    );
}

#[test]
fn faulted_run_equals_run_counted_across_column_blocks() {
    // Upsets on several blocks per launch and DRAM-only plans, at 1, 2
    // and 3 column blocks: from three on, where a named block's atomics
    // land among its row group's decides the bits of V and the
    // checksum slots. Three row groups of 3 blocks: a schedule that
    // split a row group's blocks over host threads would fold them
    // out of launch order.
    let geo = TileGeometry::paper_default();
    let mut tallies = Vec::new();
    for col_blocks in 1..=3 {
        let shape = GemmShape {
            m: 384,
            n: col_blocks * geo.block_n,
            k: 16,
        };
        for r in [1, 3] {
            for verify in [false, true] {
                let seed = 600 + tallies.len() as u64;
                for fault in fault_specs(seed) {
                    let what = format!("{fault:?} N {} R {r} verify {verify}", shape.n);
                    let (_, tally) =
                        run_equals_run_counted_under(&what, Some(fault), &|dev: &mut GpuDevice| {
                            let (mut kernels, fused, written) =
                                fused_pipeline(dev, geo, shape, r, verify, seed);
                            kernels.push(Box::new(fused));
                            (kernels, written)
                        });
                    tallies.push(tally);
                }
            }
        }
    }
    assert_every_kind_applied("unpacked", &tallies);
}

#[test]
fn faulted_packed_run_equals_run_counted() {
    let mut tallies = Vec::new();
    for verify in [false, true] {
        for fault in fault_specs(700 + u64::from(verify)) {
            let what = format!("packed {fault:?} verify {verify}");
            let (_, tally) =
                run_equals_run_counted_under(&what, Some(fault), &|dev: &mut GpuDevice| {
                    packed_launch(dev, verify)
                });
            tallies.push(tally);
        }
    }
    assert_every_kind_applied("packed", &tallies);
}
