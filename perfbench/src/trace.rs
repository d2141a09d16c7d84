//! The traced run: an in-memory span recorder, written out at exit as
//! Chrome trace-event JSON, and the re-issue of the work a served
//! round's report lists through the layers' public calls, one span per
//! unit of work.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;

use ks_blas::{Layout, Matrix};
use ks_core::plan::SourcePlan;
use ks_core::{solve_multi_planned, FusedCpuConfig, GaussianKernel};
use ks_energy::{pipeline_energy, EnergyParams};
use ks_gpu_kernels::aux_kernels::{Bandwidth, EvalSumKernel, NormsKernel};
use ks_gpu_kernels::gemm_engine::{GemmOperands, GemmShape};
use ks_gpu_kernels::{
    CudaSgemm, FusedKernelSummation, FusedMultiPacked, FusedMultiWeight, GpuKernelSummation,
    GpuVariant, TileGeometry, VendorSgemm, VerifyBufs, CHECKSUM_SLOT_WORDS,
};
use ks_gpu_sim::config::DeviceConfig;
use ks_gpu_sim::kernel::Kernel;
use ks_gpu_sim::{BufId, GpuDevice, KernelProfile, PipelineProfile};
use ks_serve::admission::check_shape;
use ks_serve::{AdmissionKey, Query, ServeReport};

use crate::check::cpu_units;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// Spans kept in memory until the run ends.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Spans::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    fn ms(s: &Span) -> f64 {
        (s.end - s.start).as_secs_f64() * 1e3
    }

    /// Summed duration of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::ms)
            .fold(0.0, |a, b| a + b)
    }

    /// Summed duration of the spans that have no parent, excluding the
    /// per-query spans (those overlap each other and their children).
    pub fn root_work_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name != "query")
            .map(Self::ms)
            .fold(0.0, |a, b| a + b)
    }

    #[cfg(test)]
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Chrome trace-event JSON ("X" complete events, microseconds),
    /// viewable in chrome://tracing or Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let ts = (s.start - self.origin).as_secs_f64() * 1e6;
            let dur = (s.end - s.start).as_secs_f64() * 1e6;
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}{sep}",
                s.name
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Deterministic synthetic operand data (values in `[0, 0.5)`).
fn synthetic(len: usize, salt: u64) -> Vec<f32> {
    let mut x = salt | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((x >> 40) as f32 / (1u64 << 24) as f32) * 0.5
        })
        .collect()
}

/// Parses `fused_multiw{r}[_abft]_{m}x{n}x{k}` (paper-default geometry).
fn parse_multi(name: &str) -> Option<(usize, bool, usize, usize, usize)> {
    let rest = name.strip_prefix("fused_multiw")?;
    let (r, rest) = rest.split_once('_')?;
    let (abft, dims) = match rest.strip_prefix("abft_") {
        Some(d) => (true, d),
        None => (false, rest),
    };
    let mut it = dims.split('x').map(str::parse::<usize>);
    let (m, n, k) = (it.next()?.ok()?, it.next()?.ok()?, it.next()?.ok()?);
    Some((r.parse().ok()?, abft, m, n, k))
}

/// Parses `fused_multi_packed{segments}w{max_r}[_abft]_{blocks}b`.
fn parse_packed(name: &str) -> Option<(usize, usize, bool)> {
    let rest = name.strip_prefix("fused_multi_packed")?;
    let (s, rest) = rest.split_once('w')?;
    let (r, rest) = rest.split_once('_')?;
    Some((s.parse().ok()?, r.parse().ok()?, rest.starts_with("abft")))
}

/// One fused multi-weight kernel over freshly uploaded synthetic data.
fn multi_kernel(
    dev: &mut GpuDevice,
    shape: GemmShape,
    r: usize,
    abft: bool,
    salt: u64,
) -> FusedMultiWeight {
    let ops = GemmOperands {
        a: dev.upload(&synthetic(shape.m * shape.k, salt)),
        b: dev.upload(&synthetic(shape.k * shape.n, salt ^ 1)),
    };
    let a2 = dev.upload(&synthetic(shape.m, salt ^ 2));
    let b2 = dev.upload(&synthetic(shape.n, salt ^ 3));
    let w = dev.upload(&synthetic(shape.n * r, salt ^ 4));
    let v = dev.alloc(shape.m * r);
    let k = FusedMultiWeight::new(ops, a2, b2, w, v, shape, Bandwidth { h: 1.0 }, r);
    if abft {
        let geo = TileGeometry::paper_default();
        let checksum = dev.alloc(r * (shape.m / geo.block_m) * CHECKSUM_SLOT_WORDS);
        let flag = dev.alloc(CHECKSUM_SLOT_WORDS);
        k.with_verify(VerifyBufs { checksum, flag })
    } else {
        k
    }
}

/// Rebuilds the kernel a serving profile recorded, at its recorded
/// grid and geometry. `k_pad` is the batch's padded point dimension
/// and `segment` the padded (M, N) of each packed segment.
fn serving_kernel(
    dev: &mut GpuDevice,
    kp: &KernelProfile,
    k_pad: usize,
    segment: (usize, usize),
) -> Option<Box<dyn Kernel>> {
    let name = kp.name.as_str();
    if let Some(label) = name.strip_prefix("norms_") {
        let points = kp.launch.grid.count() as usize * 128;
        let src = dev.upload(&synthetic(points * k_pad, 7));
        let out = dev.alloc(points);
        let label = if label.starts_with('a') { "a" } else { "b" };
        return Some(Box::new(NormsKernel::new(src, out, points, k_pad, label)));
    }
    if let Some((r, abft, m, n, k)) = parse_multi(name) {
        return Some(Box::new(multi_kernel(
            dev,
            GemmShape { m, n, k },
            r,
            abft,
            11,
        )));
    }
    let (segments, r, abft) = parse_packed(name)?;
    let shape = GemmShape {
        m: segment.0,
        n: segment.1,
        k: k_pad,
    };
    let kern = FusedMultiPacked::new(
        (0..segments)
            .map(|s| multi_kernel(dev, shape, r, abft, 13 + s as u64))
            .collect(),
    );
    (kern.launch_config().total_blocks() == kp.launch.grid.count())
        .then(|| Box::new(kern) as Box<dyn Kernel>)
}

/// The padded point dimension of a serving pipeline (from its fused
/// kernel's name), or `default`.
fn pipeline_k(p: &PipelineProfile, default: usize) -> usize {
    p.kernels
        .iter()
        .find_map(|k| parse_multi(&k.name).map(|(_, _, _, _, k)| k))
        .unwrap_or(default)
}

/// Counts from re-issuing one round's work.
#[derive(Default)]
pub struct Reissued {
    /// Blocks run functionally and replayed.
    pub blocks: u64,
    /// Kernels whose rebuilt launch did not reproduce the recorded
    /// warp-instruction count, or could not be rebuilt.
    pub unmatched: u64,
}

/// Re-issues, through public calls, the work one served round's report
/// lists: a plan build per plan miss, an admission check per computed
/// verdict, a device set-up, functional run and replay per kernel of
/// every GPU profile, the energy model per profile, and a CPU solve per
/// CPU-served batch or shard. Inputs come from the round's own stream;
/// a CPU-served shard is re-solved on its share of the corpus rows at
/// the round's mean batch width.
pub fn reissue_serving(
    stream: &[Query],
    report: &ServeReport,
    device: &DeviceConfig,
    segment: (usize, usize),
    spans: &mut Spans,
) -> Reissued {
    let mut out = Reissued::default();
    let mut seen = HashSet::new();
    let corpora: Vec<&Query> = stream
        .iter()
        .filter(|q| seen.insert(q.sources.id().raw()))
        .collect();
    for i in 0..report.plan_cache.misses as usize {
        let q = corpora[i % corpora.len()];
        std::hint::black_box(
            spans.time("plan.build", None, || SourcePlan::build(q.sources.points())),
        );
    }

    let geo = TileGeometry::paper_default();
    let mut shapes: Vec<(usize, usize, usize, usize)> = Vec::new();
    for p in &report.profiles {
        for k in &p.kernels {
            if let Some((r, _, m, n, kk)) = parse_multi(&k.name) {
                if !shapes.contains(&(m, n, kk, r)) {
                    shapes.push((m, n, kk, r));
                }
            }
        }
    }
    if !shapes.is_empty() {
        for i in 0..report.static_admission.checks as usize {
            let (m, n, k, r) = shapes[i % shapes.len()];
            let key = AdmissionKey::for_batch(m, n, k, r, &geo);
            std::hint::black_box(spans.time("admission.check", None, || check_shape(device, key)));
        }
    }

    let mut clean = device.clone();
    clean.fault = None;
    let params = EnergyParams::default();
    let k_default = stream
        .first()
        .map_or(32, |q| q.sources.dim().next_multiple_of(geo.tile_k));
    for p in &report.profiles {
        let mut dev = spans.time("sim.device_new", None, || GpuDevice::new(clean.clone()));
        let k_pad = pipeline_k(p, k_default);
        // Operands are staged before the pipeline span opens: the span
        // covers the launches, as the served pipeline's kernels do.
        let kernels: Vec<(Option<Box<dyn Kernel>>, &KernelProfile)> = p
            .kernels
            .iter()
            .map(|kp| (serving_kernel(&mut dev, kp, k_pad, segment), kp))
            .collect();
        dev.invalidate_l2();
        let pipe = spans.open("kernels.pipeline", None);
        for (kern, kp) in &kernels {
            let Some(kern) = kern else {
                out.unmatched += 1;
                continue;
            };
            let replayed = spans.time("sim.replay", Some(pipe), || dev.launch(kern.as_ref()));
            let run = spans.time("sim.functional", Some(pipe), || dev.run(kern.as_ref()));
            match (replayed, run) {
                (Ok(r), Ok(())) => {
                    out.blocks += r.launch.grid.count();
                    let packed = kp.name.starts_with("fused_multi_packed");
                    if !packed && r.counters.warp_insts() != kp.counters.warp_insts() {
                        out.unmatched += 1;
                    }
                }
                _ => out.unmatched += 1,
            }
        }
        spans.close(pipe);
        std::hint::black_box(spans.time("energy", None, || pipeline_energy(&params, p)));
    }

    let width = (report.batched_queries as f64 / report.batches.max(1) as f64)
        .round()
        .max(1.0) as usize;
    let shards = report.pool.as_ref().map_or(1, |p| p.devices.len());
    let cpu = FusedCpuConfig::default();
    for i in 0..cpu_units(report) as usize {
        let q = corpora[i % corpora.len()];
        let plan = SourcePlan::build(q.sources.points());
        let (m, _) = plan.dims();
        let rows = (m / shards).next_multiple_of(ks_serve::SHARD_ALIGN).min(m);
        let plan = plan.shard(0..rows);
        let n = q.targets.len();
        let w = Matrix::from_fn(n, width, Layout::RowMajor, |j, _| q.weights[j]);
        std::hint::black_box(spans.time("cpu.solve", None, || {
            solve_multi_planned(&plan, &q.targets, &GaussianKernel { h: q.h }, &w, &cpu)
        }));
    }
    out
}

/// Virtual buffers in the order the paper pipeline allocates them, so
/// the rebuilt launches touch the same addresses.
struct PaperBufs {
    ops: GemmOperands,
    a2: BufId,
    b2: BufId,
    w: BufId,
    v: BufId,
    c: Option<BufId>,
}

/// The kernels of one paper pipeline variant, built from the
/// pipeline's public configuration exactly as the pipeline builds them.
fn paper_kernels(
    p: &GpuKernelSummation,
    variant: GpuVariant,
    dev: &mut GpuDevice,
) -> Vec<Box<dyn Kernel>> {
    let d = p.dims;
    let b = PaperBufs {
        ops: GemmOperands {
            a: dev.alloc_virtual(d.m * d.k),
            b: dev.alloc_virtual(d.k * d.n),
        },
        a2: dev.alloc_virtual(d.m),
        b2: dev.alloc_virtual(d.n),
        w: dev.alloc_virtual(d.n),
        v: dev.alloc_virtual(d.m),
        c: (variant != GpuVariant::Fused).then(|| dev.alloc_virtual(d.m * d.n)),
    };
    let mut ks: Vec<Box<dyn Kernel>> = vec![
        Box::new(NormsKernel::new(b.ops.a, b.a2, d.m, d.k, "a")),
        Box::new(NormsKernel::new(b.ops.b, b.b2, d.n, d.k, "b")),
    ];
    match (variant, b.c) {
        (GpuVariant::Fused, _) => ks.push(Box::new(
            FusedKernelSummation::new(b.ops, b.a2, b.b2, b.w, b.v, d.shape(), p.bw)
                .with_geometry(p.geometry)
                .with_layout(p.layout)
                .with_double_buffer(p.double_buffer),
        )),
        (GpuVariant::CudaUnfused, Some(c)) => {
            ks.push(Box::new(
                CudaSgemm::new(b.ops, c, d.shape())
                    .with_layout(p.layout)
                    .with_double_buffer(p.double_buffer),
            ));
            ks.push(Box::new(EvalSumKernel::new(
                c, b.a2, b.b2, b.w, b.v, d.m, d.n, p.bw,
            )));
        }
        (_, Some(c)) => {
            ks.push(Box::new(VendorSgemm::new(b.ops, c, d.shape())));
            ks.push(Box::new(EvalSumKernel::new(
                c, b.a2, b.b2, b.w, b.v, d.m, d.n, p.bw,
            )));
        }
        (_, None) => unreachable!("unfused variants allocate the intermediate"),
    }
    ks
}

/// Re-profiles one paper point kernel by kernel, one span around each
/// `GpuDevice::launch`, on a fresh GTX970 per variant. Returns the
/// rebuilt profiles in the order fused, CUDA-unfused, cuBLAS-unfused.
pub fn reissue_paper(m: usize, n: usize, k: usize, spans: &mut Spans) -> Vec<Vec<KernelProfile>> {
    let pipeline = GpuKernelSummation::new(m, n, k, 1.0);
    [
        GpuVariant::Fused,
        GpuVariant::CudaUnfused,
        GpuVariant::CublasUnfused,
    ]
    .into_iter()
    .map(|variant| {
        let mut dev = spans.time("sim.device_new", None, GpuDevice::gtx970);
        let kernels = paper_kernels(&pipeline, variant, &mut dev);
        dev.invalidate_l2();
        let pipe = spans.open("kernels.pipeline", None);
        let profiles = kernels
            .iter()
            .map(|kern| {
                spans
                    .time("sim.replay", Some(pipe), || dev.launch(kern.as_ref()))
                    .expect("paper points launch cleanly")
            })
            .collect();
        spans.close(pipe);
        profiles
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_parse() {
        assert_eq!(
            parse_multi("fused_multiw3_2048x256x32"),
            Some((3, false, 2048, 256, 32))
        );
        assert_eq!(
            parse_multi("fused_multiw8_abft_128x256x32"),
            Some((8, true, 128, 256, 32))
        );
        assert_eq!(
            parse_packed("fused_multi_packed5w1_20b"),
            Some((5, 1, false))
        );
        assert_eq!(
            parse_packed("fused_multi_packed2w3_abft_8b"),
            Some((2, 3, true))
        );
        assert_eq!(parse_multi("norms_a_2048x32"), None);
    }

    #[test]
    fn rebuilt_paper_kernels_reproduce_the_recorded_profiles() {
        let recorded = ks_bench::data::PointData::compute(32, 1024, 1024).expect("valid point");
        let mut spans = Spans::new();
        let rebuilt = reissue_paper(1024, 1024, 32, &mut spans);
        for (got, want) in rebuilt.iter().zip([
            &recorded.fused,
            &recorded.cuda_unfused,
            &recorded.cublas_unfused,
        ]) {
            assert_eq!(got.len(), want.kernels.len());
            for (g, w) in got.iter().zip(&want.kernels) {
                assert_eq!(g.counters, w.counters, "{}", w.name);
                assert_eq!(
                    g.mem.dram_transactions(),
                    w.mem.dram_transactions(),
                    "{}",
                    w.name
                );
            }
        }
        assert_eq!(spans.count("sim.replay"), 11);
        assert_eq!(spans.count("sim.device_new"), 3);
    }
}
