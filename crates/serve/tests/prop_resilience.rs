//! Property tests of the resilient ladder (ISSUE 5): the backoff
//! schedule is pure and bounded, every fault sequence terminates
//! within the attempt budget, and — the load-bearing property — every
//! query ends in either a *correct* result (bit-identical to the CPU
//! reference on the CPU rung, oracle-close on the GPU rungs) or a
//! surfaced error. Never a silent wrong answer.

use std::sync::Arc;
use std::time::Duration;

use ks_blas::{Layout, Matrix};
use ks_core::plan::SourceSet;
use ks_core::problem::{KernelSumProblem, PointSet};
use ks_core::{solve_multi_reference, GaussianKernel};
use ks_gpu_sim::FaultSpec;
use ks_serve::{
    backoff_delay, Query, ResilienceConfig, ServeBackend, ServeConfig, ServeReport, Server, Submit,
    Ticket,
};
use proptest::prelude::*;

fn queries(seed: u64, count: usize) -> Vec<Query> {
    let sources = SourceSet::new(PointSet::uniform_cube(40, 5, seed));
    let targets = Arc::new(PointSet::uniform_cube(24, 5, seed ^ 0xA5));
    (0..count)
        .map(|i| Query {
            sources: sources.clone(),
            targets: Arc::clone(&targets),
            weights: PointSet::uniform_cube(24, 1, seed + 100 + i as u64)
                .coords()
                .iter()
                .map(|v| v - 0.5)
                .collect(),
            h: 0.8,
            deadline: None,
        })
        .collect()
}

/// Serves the stream on a paused server; the ladder must complete
/// every query, so `wait` is unwrapped.
fn serve_all(cfg: ServeConfig, qs: &[Query]) -> (Vec<Vec<f32>>, ServeReport) {
    let mut cfg = cfg;
    cfg.start_paused = true;
    cfg.queue_capacity = cfg.queue_capacity.max(qs.len());
    // Keep retry sleeps negligible under proptest iteration counts.
    cfg.resilience.backoff_base = Duration::from_micros(1);
    let mut srv = Server::start(cfg);
    let tickets: Vec<Ticket> = qs
        .iter()
        .map(|q| match srv.submit(q.clone()) {
            Submit::Accepted(t) => t,
            Submit::Rejected(_) => panic!("queue sized for the stream"),
        })
        .collect();
    srv.resume();
    let results = tickets
        .iter()
        .map(|t| t.wait().expect("the resilient ladder always completes"))
        .collect();
    (results, srv.shutdown())
}

/// The f64 oracle for one query.
fn oracle(q: &Query) -> Vec<f32> {
    let p = KernelSumProblem::builder()
        .sources(q.sources.points().clone())
        .targets((*q.targets).clone())
        .unit_weights()
        .kernel(GaussianKernel { h: q.h })
        .build();
    let w = Matrix::from_fn(q.weights.len(), 1, Layout::RowMajor, |j, _| q.weights[j]);
    let v = solve_multi_reference(&p, &w);
    (0..v.rows()).map(|i| v.get(i, 0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The schedule replays exactly for a fixed seed, grows strictly
    /// until the exponent clamp, and is bounded: every delay is at
    /// most `base·(2^10 + 1)` regardless of attempt number.
    #[test]
    fn backoff_schedule_is_pure_increasing_and_bounded(
        seed in any::<u64>(),
        batch in any::<u64>(),
    ) {
        let rc = ResilienceConfig { backoff_seed: seed, ..ResilienceConfig::default() };
        let replay = ResilienceConfig { backoff_seed: seed, ..ResilienceConfig::default() };
        let cap = rc.backoff_base * (1 << 10) + rc.backoff_base;
        for attempt in 0..64u32 {
            prop_assert_eq!(
                backoff_delay(&rc, batch, attempt),
                backoff_delay(&replay, batch, attempt),
                "fixed seed replays the schedule"
            );
            prop_assert!(backoff_delay(&rc, batch, attempt) <= cap, "bounded at the clamp");
            if attempt < 10 {
                prop_assert!(
                    backoff_delay(&rc, batch, attempt + 1) > backoff_delay(&rc, batch, attempt),
                    "strictly increasing below the clamp"
                );
            }
        }
    }

    /// Any mix of launch faults and device data faults ends with
    /// every query answered correctly (within the GPU tolerance of the
    /// f64 oracle) and the attempt accounting consistent and bounded —
    /// the ladder terminates inside its budget.
    #[test]
    fn fault_sequences_end_correct_or_surfaced_never_silent(
        seed in 0u64..1000,
        launch_rate in 0.01f64..0.99,
        data_faults in 0usize..3,
    ) {
        // Every launch dies with probability `launch_rate` (watchdog).
        // Data faults — 0: none; 1: SMEM flips (ABFT-covered); 2: SMEM
        // flips plus SM loss.
        let cfg = ServeConfig {
            backend: ServeBackend::GpuResilient,
            device: ks_gpu_sim::config::DeviceConfig {
                fault: Some(FaultSpec {
                    seed: seed ^ 0xFA017,
                    smem_rate: if data_faults > 0 { 2.0 } else { 0.0 },
                    sm_loss_rate: if data_faults > 1 { 0.3 } else { 0.0 },
                    watchdog_rate: launch_rate,
                    ..FaultSpec::default()
                }),
                ..ServeConfig::default().device
            },
            ..ServeConfig::default()
        };
        let rc_attempts = u64::from(cfg.resilience.gpu_attempts);
        let qs = queries(seed, 3);
        let (results, report) = serve_all(cfg, &qs);
        prop_assert_eq!(report.completed, qs.len() as u64, "ladder completes everything");
        prop_assert_eq!(report.failed, 0);
        prop_assert_eq!(report.internal_errors, 0);
        // Accounting: every batch makes one first attempt; each extra
        // attempt is one retry; the ladder never exceeds its budget of
        // `gpu_attempts` verified + 1 unverified + 1 CPU per batch.
        prop_assert_eq!(report.attempts, report.batches + report.retries);
        prop_assert!(report.attempts <= report.batches * (rc_attempts + 2));
        for (qi, (q, got)) in qs.iter().zip(results.iter()).enumerate() {
            let want = oracle(q);
            prop_assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                prop_assert!(
                    (g - w).abs() <= 5e-3 * w.abs().max(1.0),
                    "query {} row {}: served {} vs oracle {} — silent wrong answer",
                    qi, i, g, w
                );
            }
        }
    }

    /// When every GPU attempt is made to fail, each query lands on the
    /// CPU safe harbor and the answer is **bit-identical** to serving
    /// the same stream on the CPU backend directly.
    #[test]
    fn exhausted_ladder_is_bit_identical_to_cpu_serving(seed in 0u64..1000) {
        let qs = queries(seed, 3);
        let mut resilient = ServeConfig {
            backend: ServeBackend::GpuResilient,
            ..ServeConfig::default()
        };
        resilient.device.fault = Some(FaultSpec {
            watchdog_rate: 1.0,
            ..FaultSpec::default()
        });
        let (via_ladder, report) = serve_all(resilient, &qs);
        prop_assert_eq!(report.degraded_completions, report.completed);
        prop_assert_eq!(report.fallbacks, report.batches);
        prop_assert!(report.profiles.is_empty(), "no GPU attempt completed");
        let cpu = ServeConfig { backend: ServeBackend::CpuFused, ..ServeConfig::default() };
        let (via_cpu, _) = serve_all(cpu, &qs);
        for (qi, (a, b)) in via_ladder.iter().zip(via_cpu.iter()).enumerate() {
            prop_assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "query {} row {}", qi, i);
            }
        }
    }
}
