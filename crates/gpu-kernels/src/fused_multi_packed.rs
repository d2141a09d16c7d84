//! Horizontally-fused packed kernel: many unrelated small fused-multi
//! queries in **one** launch.
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
//! the *existing* fused microkernel against its own segment's buffers.
//!
//! This module holds the kernel and its routing table only. The one
//! serving entry, [`crate::fused_multi::execute_fused_multi_with`],
//! launches it whenever a launch has two or more segments; a single
//! segment launches [`FusedMultiWeight`] on its own 2-D grid.
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
//! back: each block runs the [`Fused`](crate::fused::Fused) block body with the same local
//! coordinates and the same buffer contents it would see unpacked, the
//! segments write disjoint output buffers, and the atomic-reduction
//! envelope *within* a segment (how many blocks fold into each `V`
//! element) is unchanged by packing. The serve layer keeps the same
//! determinism envelope it already documents for the unpacked kernel
//! (≤ 2 atomic contributors per output element).
//!
//! ## Admission
//! The packed kernel deliberately returns `access_spec() = None` — an
//! honest dynamic-lint downgrade. Each segment's access pattern is
//! affine in its *own* 2-D grid, but the packed launch is a 1-D grid
//! whose block → offset map is piecewise (one piece per segment), which
//! the single-affine `AccessSpec` language cannot express. Static
//! admission still gates packed serving: the serve layer admits every
//! segment *individually* (same `AdmissionKey` as unpacked) before it
//! is eligible for packing, so no un-admitted shape can ride in.

use std::collections::HashMap;

use ks_gpu_sim::access::AccessSpec;
use ks_gpu_sim::buffer::{BufId, GlobalMem};
use ks_gpu_sim::config::DeviceConfig;
use ks_gpu_sim::dim::{Dim3, LaunchConfig};
use ks_gpu_sim::exec::BlockCtx;
use ks_gpu_sim::kernel::{
    AnalysisBudget, BlockClass, BufferUse, Kernel, KernelResources, TimingHints,
};
use ks_gpu_sim::traffic::TrafficSink;

use crate::fused::FusedMultiWeight;
use crate::gemm_engine::SmemMap;
use crate::geometry::TileGeometry;
use crate::machine::{FunctionalMachine, TrafficMachine};

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

/// The horizontally-fused packed kernel: one 1-D launch over the
/// concatenated grids of many [`FusedMultiWeight`] segments (see the
/// module docs for routing and bit-exactness).
pub struct FusedMultiPacked {
    segments: Vec<FusedMultiWeight>,
    table: RoutingTable,
    geometry: TileGeometry,
    max_r: usize,
    verified: bool,
    /// Per segment, the first segment issuing the same warp streams:
    /// the block class its blocks replay in.
    stream_of: Vec<usize>,
}

impl FusedMultiPacked {
    /// Packs `segments` into one launch.
    ///
    /// # Panics
    /// Panics when `segments` is empty, the segments do not share one
    /// tile geometry (one launch has one block shape / smem footprint),
    /// or ABFT verification is not uniform across segments.
    #[must_use]
    pub fn new(segments: Vec<FusedMultiWeight>) -> Self {
        assert!(!segments.is_empty(), "packed launch needs segments");
        let geometry = segments[0].geometry;
        let verified = segments[0].verify.is_some();
        for seg in &segments {
            assert_eq!(
                seg.geometry, geometry,
                "packed segments must share one tile geometry"
            );
            assert_eq!(
                seg.verify.is_some(),
                verified,
                "packed segments must uniformly enable or disable ABFT"
            );
        }
        let grids: Vec<(u32, u32)> = segments
            .iter()
            .map(|s| s.shape.grid_for(&geometry))
            .collect();
        let max_r = segments.iter().map(|s| s.r).max().expect("non-empty");
        let stream_of = (0..segments.len())
            .map(|s| {
                (0..=s)
                    .find(|&o| segments[o].same_stream(&segments[s]))
                    .expect("a segment streams like itself")
            })
            .collect();
        Self {
            stream_of,
            segments,
            table: RoutingTable::new(&grids),
            geometry,
            max_r,
            verified,
        }
    }

    /// The per-block routing table.
    #[must_use]
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// The shared tile geometry.
    #[must_use]
    pub fn geometry(&self) -> &TileGeometry {
        &self.geometry
    }
}

impl Kernel for FusedMultiPacked {
    fn name(&self) -> String {
        let tag = if self.verified { "_abft" } else { "" };
        let gtag = if self.geometry == TileGeometry::paper_default() {
            String::new()
        } else {
            let g = &self.geometry;
            format!(
                "_g{}x{}u{}x{}k{}d{}",
                g.block_m, g.block_n, g.micro_m, g.micro_n, g.tile_k, g.double_buffer_depth
            )
        };
        format!(
            "fused_multi_packed{}w{}{tag}{gtag}_{}b",
            self.segments.len(),
            self.max_r,
            self.table.total_blocks()
        )
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(
            Dim3::new_1d(self.table.total_blocks()),
            Dim3::new_2d(
                self.geometry.threads_x() as u32,
                self.geometry.threads_y() as u32,
            ),
        )
    }

    fn resources(&self) -> KernelResources {
        // One launch, one register/smem budget: the occupancy cost is
        // set by the widest segment (max column count).
        KernelResources {
            threads_per_block: self.geometry.threads_per_block() as u32,
            regs_per_thread: self.geometry.regs_per_thread_multi(self.max_r).min(255),
            smem_bytes_per_block: SmemMap::for_geometry(&self.geometry).bytes(),
        }
    }

    fn timing_hints(&self) -> TimingHints {
        // Same execution model as the segments it hosts.
        self.segments[0].timing_hints()
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
        let (seg, local) = self.table.route(block.x);
        self.segments[seg].body(local, &mut FunctionalMachine::new(ctx));
    }

    /// Each segment's host evaluation in launch order: a segment's
    /// blocks all precede the next segment's. Serving segments always
    /// reduce atomically, so every segment has one.
    fn execute_exact(&self, mem: &GlobalMem) -> bool {
        self.segments.iter().all(|seg| seg.execute_exact(mem))
    }

    fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink) {
        let (seg, local) = self.table.route(block.x);
        self.segments[seg].body(local, &mut TrafficMachine::new(sink));
    }

    fn traffic_homogeneous(&self) -> bool {
        // Blocks of different segments run different shapes/column
        // counts — never scale one block's counters by the grid.
        false
    }

    fn access_spec(&self) -> Option<AccessSpec> {
        // Honest dynamic-lint downgrade (see module docs): per-segment
        // patterns are affine in the segment-local grid, not in the
        // packed linear grid, so no single AccessSpec describes this
        // launch. Serve-side admission gates each segment individually
        // before it may be packed.
        None
    }

    fn block_class(&self, block: Dim3) -> Option<BlockClass> {
        // Within a segment all blocks share one instruction stream and
        // differ only by the segment's own per-buffer anchors (the
        // unpacked kernel's class, key 0). Segments of one shape, R
        // and geometry issue that same stream on their own buffers, so
        // they share a class, keyed by the first such segment; the
        // anchors pair up by position across their buffers.
        let (seg, local) = self.table.route(block.x);
        let inner = self.segments[seg]
            .block_class(local)
            .expect("segment kernels always classify");
        Some(BlockClass {
            key: self.stream_of[seg] as u64,
            anchors: inner.anchors,
        })
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        // Merge the per-segment buffer inventories; shared buffers
        // (deduplicated corpora uploads) keep their widest extent.
        let mut merged: Vec<BufferUse> = Vec::new();
        let mut index: HashMap<BufId, usize> = HashMap::new();
        for seg in &self.segments {
            for us in seg.analysis_budget().buffers {
                match index.get(&us.buf) {
                    Some(&i) => {
                        let slot: &mut BufferUse = &mut merged[i];
                        slot.len = slot.len.max(us.len);
                        slot.writes |= us.writes;
                    }
                    None => {
                        index.insert(us.buf, merged.len());
                        merged.push(us);
                    }
                }
            }
        }
        let occ = ks_gpu_sim::occupancy::occupancy(&DeviceConfig::gtx970(), &self.resources());
        AnalysisBudget {
            smem_conflict_budget: 0,
            expected_blocks_per_sm: Some(occ.blocks_per_sm),
            expected_limiter: Some(occ.limiter),
            buffers: merged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aux_kernels::Bandwidth;
    use crate::fused_multi::{
        execute_fused_multi_with, FusedMultiOutput, SegmentSpec, FUSED_MULTI_PACKED_PIPELINE,
        FUSED_MULTI_PACKED_VERIFIED_PIPELINE,
    };
    use crate::gemm_engine::{GemmOperands, GemmShape};
    use ks_gpu_sim::device::GpuDevice;

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
    /// keep `n ≤ 2·block_n`, the documented determinism envelope.
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
        let mut keys = [None; 4];
        for b in 0..packed.table().total_blocks() {
            let (seg, _) = packed.table().route(b);
            let key = packed.block_class(Dim3::new_1d(b)).unwrap().key;
            assert!(keys[seg].replace(key).is_none_or(|k| k == key));
        }
        assert_eq!(keys, [Some(0), Some(1), Some(0), Some(1)]);
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
