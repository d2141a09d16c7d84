//! Horizontal fusion: many unrelated small serving queries in **one**
//! launch of the fused kernel.
//!
//! At serving scale traffic is dominated by small `(source, target, h)`
//! queries that each underfill the grid — a 256×256 query at the paper
//! geometry launches 4 blocks onto a 13-SM device that seats 26 blocks
//! per wave, so every back-to-back launch pays a near-empty tail wave
//! plus a full launch overhead. Horizontal fusion (Li et al.,
//! "Automatic Horizontal Fusion for GPU Kernels") remaps thread blocks
//! instead: a single 1-D grid covers the **concatenation** of the
//! segments' 2-D grids and a per-block routing table maps each linear
//! block index back to (segment, local block), so each block executes
//! the fused kernel's one block body against its own segment's
//! buffers.
//!
//! The packed launch is the fused kernel itself under its third name,
//! [`FusedMultiPacked`](crate::fused::FusedMultiPacked) =
//! `Fused<Packed>` (see [`crate::fused`]). This
//! module holds its [`RoutingTable`]. The one serving entry,
//! [`crate::fused_multi::execute_fused_multi_with`], packs whenever a
//! launch has two or more segments; a single segment launches
//! [`FusedMultiWeight`](crate::fused::FusedMultiWeight) on its own 2-D
//! grid.
//!
//! ## Routing table
//! Segment `i` owns the half-open linear block range
//! `prefix[i]..prefix[i+1]` where `prefix` is the running sum of
//! per-segment grid sizes `gx·gy`. Inside a range the local block is
//! recovered exactly as CUDA linearizes a 2-D grid (x fastest):
//! `bx = (linear − prefix[i]) % gx`, `by = (linear − prefix[i]) / gx`.
//! The ranges partition `0..total` by construction — every block is
//! assigned to exactly one segment and every segment block is covered.
//!
//! ## Bit-exactness
//! A packed launch is bit-identical to running the segments back to
//! back: each block runs the fused block body with the same local
//! coordinates and the same buffer contents it would see unpacked, the
//! segments write disjoint output buffers, and the atomic reduction
//! *within* a segment (which blocks fold into each `V` element, in
//! ascending `bx`) is unchanged by packing.
//!
//! ## Admission
//! The packed name deliberately returns `access_spec() = None` — an
//! honest dynamic-lint downgrade. Each segment's access pattern is
//! affine in its *own* 2-D grid, but the packed launch is a 1-D grid
//! whose block → offset map is piecewise (one piece per segment), which
//! the single-affine `AccessSpec` language cannot express. Static
//! admission still gates packed serving: the serve layer admits every
//! segment *individually* (same `AdmissionKey` as unpacked) before it
//! is eligible for packing, so no un-admitted shape can ride in.

use ks_gpu_sim::dim::Dim3;

/// Block-index → segment routing for a packed launch.
///
/// Public (and separate from the kernel) so the partition property —
/// every linear block maps to exactly one segment with in-range local
/// coordinates — can be property-tested directly.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    grids: Vec<(u32, u32)>,
    /// `prefix[i]` = first linear block of segment `i`;
    /// `prefix[len]` = total blocks.
    prefix: Vec<u32>,
}

impl RoutingTable {
    /// Builds the table from per-segment `(gx, gy)` grids.
    ///
    /// # Panics
    /// Panics on an empty segment list or a zero-sized grid.
    #[must_use]
    pub fn new(grids: &[(u32, u32)]) -> Self {
        assert!(
            !grids.is_empty(),
            "packed launch needs at least one segment"
        );
        let mut prefix = Vec::with_capacity(grids.len() + 1);
        let mut total = 0u32;
        prefix.push(0);
        for &(gx, gy) in grids {
            assert!(gx > 0 && gy > 0, "segment grid must be non-empty");
            total = total
                .checked_add(gx.checked_mul(gy).expect("grid size overflow"))
                .expect("packed grid overflow");
            prefix.push(total);
        }
        Self {
            grids: grids.to_vec(),
            prefix,
        }
    }

    /// Total linear blocks in the packed grid.
    #[must_use]
    pub fn total_blocks(&self) -> u32 {
        *self.prefix.last().expect("prefix never empty")
    }

    /// Number of segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.grids.len()
    }

    /// The `(gx, gy)` grid of segment `seg`.
    #[must_use]
    pub fn grid(&self, seg: usize) -> (u32, u32) {
        self.grids[seg]
    }

    /// First linear block of segment `seg` (its block-range start).
    #[must_use]
    pub fn segment_start(&self, seg: usize) -> u32 {
        self.prefix[seg]
    }

    /// Maps a linear block index to `(segment, local 2-D block)`.
    ///
    /// # Panics
    /// Panics when `linear` is outside the packed grid.
    #[must_use]
    pub fn route(&self, linear: u32) -> (usize, Dim3) {
        assert!(
            linear < self.total_blocks(),
            "block {linear} outside packed grid of {}",
            self.total_blocks()
        );
        // prefix is strictly increasing; find the owning range.
        let seg = self.prefix.partition_point(|&p| p <= linear) - 1;
        let local = linear - self.prefix[seg];
        let (gx, _) = self.grids[seg];
        (seg, Dim3::new_2d(local % gx, local / gx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aux_kernels::Bandwidth;
    use crate::fused::{FusedMultiPacked, FusedMultiWeight};
    use crate::fused_multi::{
        execute_fused_multi_with, FusedMultiOutput, SegmentSpec, FUSED_MULTI_PACKED_PIPELINE,
        FUSED_MULTI_PACKED_VERIFIED_PIPELINE,
    };
    use crate::gemm_engine::{GemmOperands, GemmShape};
    use crate::geometry::TileGeometry;
    use ks_gpu_sim::config::DeviceConfig;
    use ks_gpu_sim::device::GpuDevice;
    use ks_gpu_sim::kernel::Kernel;

    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 0.5
        }
    }

    struct SegData {
        shape: GemmShape,
        h: f32,
        a: Vec<f32>,
        b: Vec<f32>,
        w: Vec<f32>,
    }

    fn seg(shape: GemmShape, r: usize, h: f32, seed: u64) -> SegData {
        let mut next = lcg(seed);
        SegData {
            shape,
            h,
            a: (0..shape.m * shape.k).map(|_| next()).collect(),
            b: (0..shape.k * shape.n).map(|_| next()).collect(),
            w: (0..shape.n * r).map(|_| next()).collect(),
        }
    }

    fn spec(s: &SegData) -> SegmentSpec<'_> {
        SegmentSpec {
            shape: s.shape,
            h: s.h,
            a: &s.a,
            b: &s.b,
            w_cols: &s.w,
            a2: None,
            a_key: None,
            b_key: None,
        }
    }

    #[test]
    fn routing_table_partitions_and_routes_boundaries() {
        let t = RoutingTable::new(&[(2, 2), (1, 3), (2, 1)]);
        assert_eq!(t.total_blocks(), 9);
        assert_eq!(t.route(0), (0, Dim3::new_2d(0, 0)));
        assert_eq!(t.route(3), (0, Dim3::new_2d(1, 1)));
        assert_eq!(t.route(4), (1, Dim3::new_2d(0, 0)));
        assert_eq!(t.route(6), (1, Dim3::new_2d(0, 2)));
        assert_eq!(t.route(7), (2, Dim3::new_2d(0, 0)));
        assert_eq!(t.route(8), (2, Dim3::new_2d(1, 0)));
    }

    #[test]
    #[should_panic(expected = "outside packed grid")]
    fn routing_table_rejects_out_of_range_blocks() {
        let _ = RoutingTable::new(&[(2, 2)]).route(4);
    }

    /// The tentpole invariant: a heterogeneous packed wave (distinct
    /// shapes, bandwidths, and column counts) is bit-identical to
    /// serving each segment through the unpacked entry. All segments
    /// keep `n ≤ 2·block_n`, as the serving planner packs them.
    #[test]
    fn packed_wave_is_bit_identical_to_unpacked_segments() {
        let geo = TileGeometry::paper_default();
        let segs = [
            seg(
                GemmShape {
                    m: 128,
                    n: 128,
                    k: 16,
                },
                1,
                1.0,
                11,
            ),
            seg(
                GemmShape {
                    m: 256,
                    n: 256,
                    k: 32,
                },
                2,
                0.7,
                12,
            ),
            seg(
                GemmShape {
                    m: 128,
                    n: 256,
                    k: 16,
                },
                3,
                1.3,
                13,
            ),
        ];
        let specs: Vec<_> = segs.iter().map(spec).collect();
        let mut dev = GpuDevice::gtx970();
        let FusedMultiOutput {
            v: packed,
            profile: prof,
            ..
        } = execute_fused_multi_with(&mut dev, &geo, &specs, false).unwrap();
        assert_eq!(prof.name, FUSED_MULTI_PACKED_PIPELINE);
        // 2 norms per segment (all cold, no shared keys) + 1 packed.
        assert_eq!(prof.kernels.len(), 2 * segs.len() + 1);
        for (i, s) in segs.iter().enumerate() {
            let mut solo = GpuDevice::gtx970();
            let FusedMultiOutput { v: want, .. } =
                execute_fused_multi_with(&mut solo, &geo, &[spec(s)], false).unwrap();
            let want = &want[0];
            assert_eq!(packed[i].len(), want.len());
            for (j, (g, x)) in packed[i].iter().zip(want.iter()).enumerate() {
                assert_eq!(g.to_bits(), x.to_bits(), "seg {i} idx {j}: {g} vs {x}");
            }
        }
    }

    #[test]
    fn verified_packed_wave_matches_unpacked_and_reports_per_segment() {
        let geo = TileGeometry::paper_default();
        let segs = [
            seg(
                GemmShape {
                    m: 256,
                    n: 256,
                    k: 32,
                },
                2,
                1.0,
                21,
            ),
            seg(
                GemmShape {
                    m: 128,
                    n: 128,
                    k: 32,
                },
                1,
                0.9,
                22,
            ),
        ];
        let specs: Vec<_> = segs.iter().map(spec).collect();
        let mut dev = GpuDevice::gtx970();
        let FusedMultiOutput {
            v: packed,
            profile: prof,
            reports,
        } = execute_fused_multi_with(&mut dev, &geo, &specs, true).unwrap();
        assert_eq!(prof.name, FUSED_MULTI_PACKED_VERIFIED_PIPELINE);
        assert_eq!(reports.len(), segs.len());
        for (i, s) in segs.iter().enumerate() {
            assert!(
                !reports[i].corruption_detected(),
                "seg {i}: {:?}",
                reports[i]
            );
            let mut solo = GpuDevice::gtx970();
            let FusedMultiOutput {
                v: want,
                reports: rep,
                ..
            } = execute_fused_multi_with(&mut solo, &geo, &[spec(s)], true).unwrap();
            assert!(!rep[0].corruption_detected());
            let want = &want[0];
            for (j, (g, x)) in packed[i].iter().zip(want.iter()).enumerate() {
                assert_eq!(g.to_bits(), x.to_bits(), "seg {i} idx {j}");
            }
        }
    }

    /// Memoized replay profiles a verified packed launch (three
    /// segments of mixed R, one block class each) exactly as the
    /// serial walk does, in every field of every kernel profile.
    #[test]
    fn packed_memoized_replay_equals_serial() {
        let geo = TileGeometry::paper_default();
        let shape = |m, n| GemmShape { m, n, k: 32 };
        let segs = [
            seg(shape(256, 256), 1, 1.0, 41),
            seg(shape(256, 128), 3, 0.9, 42),
            seg(shape(128, 256), 8, 1.1, 43),
        ];
        let specs: Vec<_> = segs.iter().map(spec).collect();
        let profile = |strategy| {
            let mut dev = GpuDevice::gtx970();
            dev.set_replay_strategy(strategy);
            execute_fused_multi_with(&mut dev, &geo, &specs, true)
                .unwrap()
                .profile
        };
        let serial = profile(ks_gpu_sim::ReplayStrategy::Serial);
        let memo = profile(ks_gpu_sim::ReplayStrategy::Memoized);
        let packed = serial.kernels.last().expect("packed launch profiled");
        assert_eq!(packed.launch.total_blocks(), 4 + 2 + 2);
        assert_eq!(serial, memo);
    }

    /// Segments of one shape, R and geometry replay as one block
    /// class across their own buffers. The memoized replay still
    /// profiles such a launch exactly as the serial walk does —
    /// distinct and shared corpora and targets, warm and cold norms,
    /// different bandwidths, a segment of another R in between,
    /// verified or not, on the serving 16 KB L2 and the full one.
    #[test]
    fn packed_segments_of_one_stream_replay_exactly() {
        let geo = TileGeometry::paper_default();
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 32,
        };
        let data: Vec<SegData> = (0..3)
            .map(|i| seg(shape, 1, 0.8 + 0.2 * i as f32, 51 + i as u64))
            .collect();
        let wide = seg(shape, 3, 1.0, 54);
        let a2: Vec<f32> = data[0]
            .a
            .chunks(shape.k)
            .map(|row| row.iter().map(|v| v * v).sum())
            .collect();
        fn keyed(d: &SegData, a: u64, b: u64) -> SegmentSpec<'_> {
            SegmentSpec {
                a_key: Some(a),
                b_key: Some(b),
                ..spec(d)
            }
        }
        let specs = vec![
            keyed(&data[0], 1, 10),
            // Another corpus on segment 0's targets.
            SegmentSpec {
                b: &data[0].b,
                ..keyed(&data[1], 2, 10)
            },
            keyed(&wide, 4, 14),
            // Segment 0's corpus, warm, on other targets.
            SegmentSpec {
                a: &data[0].a,
                a2: Some(&a2),
                ..keyed(&data[2], 1, 12)
            },
            keyed(&data[2], 3, 12),
            spec(&data[1]),
        ];
        for l2_bytes in [16 * 1024, DeviceConfig::gtx970().l2_bytes] {
            for verify in [false, true] {
                let profile = |strategy| {
                    let mut dev = GpuDevice::new(DeviceConfig {
                        l2_bytes,
                        ..DeviceConfig::gtx970()
                    });
                    dev.set_replay_strategy(strategy);
                    execute_fused_multi_with(&mut dev, &geo, &specs, verify)
                        .unwrap()
                        .profile
                };
                assert_eq!(
                    profile(ks_gpu_sim::ReplayStrategy::Serial),
                    profile(ks_gpu_sim::ReplayStrategy::Memoized),
                    "L2 {l2_bytes} B, verify {verify}"
                );
            }
        }
    }

    /// The packed kernel keys each segment's blocks by the first
    /// segment issuing the same warp streams.
    #[test]
    fn packed_block_classes_follow_the_warp_stream() {
        let geo = TileGeometry::paper_default();
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 32,
        };
        let mut dev = GpuDevice::gtx970();
        let mut segment = |r: usize, h: f32| {
            let ops = GemmOperands {
                a: dev.alloc(shape.m * shape.k),
                b: dev.alloc(shape.k * shape.n),
            };
            let (a2, b2) = (dev.alloc(shape.m), dev.alloc(shape.n));
            let (w, v) = (dev.alloc(shape.n * r), dev.alloc(shape.m * r));
            FusedMultiWeight::new(ops, a2, b2, w, v, shape, Bandwidth { h }, r).with_geometry(geo)
        };
        let packed = FusedMultiPacked::new(vec![
            segment(1, 1.0),
            segment(2, 1.0),
            segment(1, 0.6),
            segment(2, 0.8),
        ]);
        let table = RoutingTable::new(&[shape.grid_for(&geo); 4]);
        assert_eq!(
            packed.launch_config().total_blocks(),
            u64::from(table.total_blocks())
        );
        let mut keys = [None; 4];
        for b in 0..table.total_blocks() {
            let (seg, _) = table.route(b);
            let key = packed.block_class(Dim3::new_1d(b)).unwrap().key;
            assert!(keys[seg].replace(key).is_none_or(|k| k == key));
        }
        assert_eq!(keys, [Some(0), Some(1), Some(0), Some(1)]);
    }

    /// One segment launched under the serving name and under the
    /// packed name, through `run_counted` on a fresh device (quiet, or
    /// with seeded SMEM and register upsets), returns the same `V`,
    /// checksum, flag and applied faults bit for bit, and the same
    /// profile apart from the name and the grid's shape.
    #[test]
    fn one_segment_runs_alike_under_the_serving_and_packed_names() {
        use crate::fused::{VerifyBufs, CHECKSUM_SLOT_WORDS};
        use ks_gpu_sim::FaultSpec;
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 32,
        };
        let r = 2;
        let data = seg(shape, r, 0.9, 61);
        let norms = |pts: &[f32]| -> Vec<f32> {
            pts.chunks(shape.k)
                .map(|p| p.iter().map(|v| v * v).sum())
                .collect()
        };
        let (a2, b2) = (norms(&data.a), norms(&data.b));
        let run = |faults: Option<&str>, verify: bool, packed: bool| {
            let mut cfg = DeviceConfig::gtx970();
            cfg.fault = faults.map(|spec| FaultSpec {
                seed: 5,
                ..FaultSpec::parse(spec).expect("valid fault spec")
            });
            let mut dev = GpuDevice::new(cfg);
            let ops = GemmOperands {
                a: dev.upload(&data.a),
                b: dev.upload(&data.b),
            };
            let (ba2, bb2, w) = (dev.upload(&a2), dev.upload(&b2), dev.upload(&data.w));
            let v = dev.alloc(shape.m * r);
            let vb = VerifyBufs {
                checksum: dev.alloc(r * (shape.m / 128) * CHECKSUM_SLOT_WORDS),
                flag: dev.alloc(CHECKSUM_SLOT_WORDS),
            };
            let mut kern =
                FusedMultiWeight::new(ops, ba2, bb2, w, v, shape, Bandwidth { h: data.h }, r);
            if verify {
                kern = kern.with_verify(vb);
            }
            let mut prof = if packed {
                dev.run_counted(&FusedMultiPacked::new(vec![kern]))
            } else {
                dev.run_counted(&kern)
            }
            .unwrap();
            let bits =
                |buf| -> Vec<u32> { dev.download(buf).iter().map(|x| x.to_bits()).collect() };
            let outputs = [bits(v), bits(vb.checksum), bits(vb.flag)];
            let applied = dev.take_fault_counters();
            let (name, grid) = (std::mem::take(&mut prof.name), prof.launch.grid);
            (outputs, applied, prof, name, grid)
        };
        for faults in [None, Some("smem=3,reg=2")] {
            for verify in [false, true] {
                let what = format!("faults {faults:?}, verify {verify}");
                let (outputs, applied, mut prof, name, grid) = run(faults, verify, false);
                let (p_outputs, p_applied, p_prof, p_name, p_grid) = run(faults, verify, true);
                assert!(name.starts_with("fused_multiw2"), "{name}");
                assert!(p_name.starts_with("fused_multi_packed1w2"), "{p_name}");
                assert_eq!((grid.count(), p_grid.y), (p_grid.count(), 1), "{what}");
                assert_eq!(outputs, p_outputs, "{what}");
                assert_eq!(applied, p_applied, "{what}");
                assert_eq!(faults.is_some(), applied != Default::default(), "{what}");
                prof.launch.grid = p_grid;
                assert_eq!(prof, p_prof, "{what}");
            }
        }
    }

    /// Plan-cache-aware packing: segments sharing a corpus key share
    /// one upload, cold sharers share one norms pass, and a warm
    /// sharer keeps its own uploaded norms (warmth never migrates:
    /// host norms are f64-accumulated, kernel norms f32, so lending
    /// them to a cold segment would move its bits).
    #[test]
    fn shared_corpus_segments_dedup_uploads_and_norms() {
        let geo = TileGeometry::paper_default();
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 32,
        };
        let base = seg(shape, 1, 1.0, 31);
        let other = seg(shape, 1, 1.0, 32);
        let a2: Vec<f32> = (0..shape.m)
            .map(|i| {
                base.a[i * shape.k..(i + 1) * shape.k]
                    .iter()
                    .map(|v| v * v)
                    .sum()
            })
            .collect();
        // Segments 0 and 2 share the corpus (key 7); 1 is unrelated.
        // Segment 2 arrives warm; segment 0 stays cold on the shared
        // slot, so both norms variants coexist.
        let specs = vec![
            SegmentSpec {
                a_key: Some(7),
                ..spec(&base)
            },
            spec(&other),
            SegmentSpec {
                a_key: Some(7),
                a2: Some(&a2),
                b: &other.b,
                w_cols: &other.w,
                ..spec(&base)
            },
        ];
        let mut dev = GpuDevice::gtx970();
        let FusedMultiOutput {
            v: packed,
            profile: prof,
            ..
        } = execute_fused_multi_with(&mut dev, &geo, &specs, false).unwrap();
        // Norms: the shared A slot runs one cold pass for segment 0
        // (segment 2's warm upload does not serve it), segment 1's A
        // runs its own, and the three distinct B slots (no b_key) run
        // one each: 5 norms + 1 packed.
        let names: Vec<&str> = prof.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(prof.kernels.len(), 6, "{names:?}");
        for (i, (s, my_b, my_w, my_a2)) in [
            (&base, &base.b, &base.w, None),
            (&other, &other.b, &other.w, None),
            (&base, &other.b, &other.w, Some(a2.as_slice())),
        ]
        .iter()
        .enumerate()
        {
            let mut solo = GpuDevice::gtx970();
            let alone = SegmentSpec {
                b: my_b,
                w_cols: my_w,
                a2: *my_a2,
                ..spec(s)
            };
            let FusedMultiOutput { v: want, .. } =
                execute_fused_multi_with(&mut solo, &geo, &[alone], false).unwrap();
            let want = &want[0];
            for (j, (g, x)) in packed[i].iter().zip(want.iter()).enumerate() {
                assert_eq!(g.to_bits(), x.to_bits(), "seg {i} idx {j}");
            }
        }
    }

    /// The perf claim at the launch level: 16 small heterogeneous
    /// queries packed into one launch beat 16 back-to-back launches on
    /// simulated time, and corpus sharing saves DRAM transactions.
    #[test]
    fn packed_wave_beats_back_to_back_small_launches() {
        let geo = TileGeometry::paper_default();
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 32,
        };
        // 4 distinct corpora × 4 target sets = 16 queries.
        let corpora: Vec<SegData> = (0..4).map(|i| seg(shape, 1, 1.0, 41 + i)).collect();
        let targets: Vec<SegData> = (0..4).map(|i| seg(shape, 1, 1.0, 51 + i)).collect();
        let mut specs = Vec::new();
        for (ci, c) in corpora.iter().enumerate() {
            for (ti, t) in targets.iter().enumerate() {
                specs.push(SegmentSpec {
                    a_key: Some(ci as u64),
                    b_key: Some(1000 + ti as u64),
                    b: &t.b,
                    w_cols: &t.w,
                    ..spec(c)
                });
            }
        }
        let mut dev = GpuDevice::gtx970();
        let FusedMultiOutput {
            profile: packed_prof,
            ..
        } = execute_fused_multi_with(&mut dev, &geo, &specs, false).unwrap();
        let packed_time: f64 = packed_prof.kernels.iter().map(|k| k.timing.time_s).sum();
        let packed_dram: u64 = packed_prof
            .kernels
            .iter()
            .map(|k| k.mem.dram_transactions())
            .sum();

        let mut solo_time = 0.0f64;
        let mut solo_dram = 0u64;
        for sp in &specs {
            let mut solo = GpuDevice::gtx970();
            let FusedMultiOutput { profile: p, .. } =
                execute_fused_multi_with(&mut solo, &geo, &[*sp], false).unwrap();
            solo_time += p.kernels.iter().map(|k| k.timing.time_s).sum::<f64>();
            solo_dram += p
                .kernels
                .iter()
                .map(|k| k.mem.dram_transactions())
                .sum::<u64>();
        }
        assert!(
            solo_time >= 2.0 * packed_time,
            "packed wave must be ≥2× faster: packed {packed_time}s vs solo {solo_time}s"
        );
        assert!(
            packed_dram < solo_dram,
            "corpus sharing must save DRAM: packed {packed_dram} vs solo {solo_dram}"
        );
    }
}
