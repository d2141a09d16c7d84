//! Synthetic serving workloads: arrival mixes over shared corpora.
//!
//! [`generate_queries`] is deterministic in the seed so tests can
//! replay exactly the stream a benchmark ran; [`run_workload`] drives
//! a [`Server`] with concurrent client threads and returns the final
//! [`ServeReport`].

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ks_core::plan::SourceSet;
use ks_core::problem::PointSet;
use rand::distributions::{Distribution, Uniform};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::server::{ServeConfig, ServeReport, Server, Submit, Ticket};
use crate::Query;

/// Workload shape: who asks what, how often against shared corpora.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Queries each client submits.
    pub queries_per_client: usize,
    /// Number of long-lived shared corpora.
    pub corpora: usize,
    /// Probability a query targets a shared corpus (vs minting a
    /// private one the plan cache can never hit).
    pub shared_ratio: f64,
    /// Probability a query uses the double-size variant of its corpus
    /// (the arrival-size mix).
    pub large_ratio: f64,
    /// Sources per (small) corpus.
    pub m: usize,
    /// Targets per query.
    pub n: usize,
    /// Point dimension.
    pub k: usize,
    /// Gaussian bandwidth.
    pub h: f32,
    /// Per-query deadline, applied at submission time.
    pub deadline: Option<Duration>,
    /// Master seed; everything is deterministic in it.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            clients: 4,
            queries_per_client: 16,
            corpora: 2,
            shared_ratio: 0.8,
            large_ratio: 0.2,
            m: 256,
            n: 128,
            k: 8,
            h: 1.0,
            deadline: None,
            seed: 42,
        }
    }
}

/// The smoke preset used by `ksum serve-bench --smoke` and the
/// acceptance test: small enough for CI, sized so a corpus (32 KB at
/// `m = 256, k = 32`) overflows the serving device's reduced L2 and
/// plan reuse shows up in the DRAM ledger.
#[must_use]
pub fn smoke_workload() -> WorkloadConfig {
    WorkloadConfig {
        clients: 1,
        queries_per_client: 48,
        corpora: 2,
        shared_ratio: 0.8,
        large_ratio: 0.0,
        m: 256,
        n: 128,
        k: 32,
        h: 1.0,
        deadline: None,
        seed: 7,
    }
}

/// Heterogeneous small-query mix: many **distinct** small
/// `(source, target, h)` combinations, the traffic shape horizontal
/// fusion exists for. Unlike [`WorkloadConfig`] — whose queries
/// mostly share one `(corpus, h, targets)` key and coalesce into wide
/// batches — this stream cycles corpora, target sets and bandwidths
/// independently, so a scheduling wave is dominated by mutually
/// unrelated single-column batches that underfill the grid.
#[derive(Debug, Clone)]
pub struct SmallQueryWorkloadConfig {
    /// Total queries in the stream.
    pub queries: usize,
    /// Distinct long-lived small corpora.
    pub corpora: usize,
    /// Distinct shared target sets.
    pub target_sets: usize,
    /// Sources per corpus.
    pub m: usize,
    /// Targets per target set.
    pub n: usize,
    /// Point dimension.
    pub k: usize,
    /// Bandwidths cycled through the stream (each makes its
    /// `(corpus, h)` pair a distinct plan).
    pub h_values: Vec<f32>,
    /// Popularity skew over corpora and target sets: `0.0` visits
    /// combinations round-robin (every wave maximally heterogeneous);
    /// larger values bias draws toward low indices (a hot-corpus
    /// mix), at the cost of occasional repeats within a wave.
    pub skew: f64,
    /// Per-query deadline drawn seeded-uniformly from `[lo, hi]`,
    /// relative to generation time — the mixed-urgency stream the
    /// deadline-aware brownout sheds from. `None` (the default)
    /// leaves every query deadline-free and consumes no RNG draws,
    /// so existing streams replay bit-identically.
    pub deadline_range: Option<(Duration, Duration)>,
    /// Master seed; the stream is deterministic in it.
    pub seed: u64,
}

impl Default for SmallQueryWorkloadConfig {
    fn default() -> Self {
        Self {
            queries: 64,
            corpora: 4,
            target_sets: 4,
            m: 256,
            n: 256,
            k: 32,
            h_values: vec![1.0, 0.8, 1.2, 0.6],
            skew: 0.0,
            deadline_range: None,
            seed: 11,
        }
    }
}

/// The packing smoke preset: waves of 16 mutually-unrelated
/// `(M, N, K) = (256, 256, 32)` queries — 16 distinct
/// `(corpus, target, h)` combinations per wave of 16, with corpora
/// and target sets shared *across* queries so a packed wave dedups
/// uploads. `ks-bench pack` gates its throughput target on this stream.
#[must_use]
pub fn packed_smoke_workload() -> SmallQueryWorkloadConfig {
    SmallQueryWorkloadConfig::default()
}

/// Generates the heterogeneous small-query stream, deterministic in
/// `cfg.seed`.
///
/// # Panics
/// Panics on a zero-sized workload, an empty bandwidth list, a
/// negative skew, or an inverted deadline range.
#[must_use]
pub fn generate_small_queries(cfg: &SmallQueryWorkloadConfig) -> Vec<Query> {
    assert!(cfg.queries > 0, "empty workload");
    assert!(
        cfg.corpora > 0 && cfg.target_sets > 0,
        "need at least one corpus and one target set"
    );
    assert!(!cfg.h_values.is_empty(), "need at least one bandwidth");
    assert!(cfg.skew >= 0.0, "skew must be non-negative");
    if let Some((lo, hi)) = cfg.deadline_range {
        assert!(lo <= hi, "deadline range must be ordered");
    }
    let generated_at = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let unit = Uniform::new(0.0f64, 1.0f64);
    let weight = Uniform::new(-0.5f32, 0.5f32);
    let corpora: Vec<SourceSet> = (0..cfg.corpora)
        .map(|c| {
            let seed = cfg.seed.wrapping_mul(3000).wrapping_add(c as u64);
            SourceSet::new(PointSet::uniform_cube(cfg.m, cfg.k, seed))
        })
        .collect();
    let targets: Vec<Arc<PointSet>> = (0..cfg.target_sets)
        .map(|t| {
            let seed = cfg.seed.wrapping_mul(4000).wrapping_add(t as u64);
            Arc::new(PointSet::uniform_cube(cfg.n, cfg.k, seed ^ 0x5EED))
        })
        .collect();
    // Skewed index draw: u^(1+skew) biases toward low indices; skew 0
    // is handled round-robin below for exact per-wave heterogeneity.
    let skewed = |rng: &mut ChaCha8Rng, len: usize| -> usize {
        let u = unit.sample(rng);
        ((len as f64) * u.powf(1.0 + cfg.skew)).min(len as f64 - 1.0) as usize
    };
    (0..cfg.queries)
        .map(|i| {
            let (ci, ti) = if cfg.skew == 0.0 {
                (i % cfg.corpora, (i / cfg.corpora) % cfg.target_sets)
            } else {
                (
                    skewed(&mut rng, cfg.corpora),
                    skewed(&mut rng, cfg.target_sets),
                )
            };
            let weights = (0..cfg.n).map(|_| weight.sample(&mut rng)).collect();
            let deadline = cfg.deadline_range.map(|(lo, hi)| {
                let span = (hi - lo).as_secs_f64();
                generated_at + lo + Duration::from_secs_f64(span * unit.sample(&mut rng))
            });
            Query {
                sources: corpora[ci].clone(),
                targets: Arc::clone(&targets[ti]),
                weights,
                h: cfg.h_values[i % cfg.h_values.len()],
                deadline,
            }
        })
        .collect()
}

/// Generates the full query stream, deterministic in `wl.seed`.
/// Queries are listed client-major: client `c`'s stream is the slice
/// `[c·queries_per_client, (c+1)·queries_per_client)`.
///
/// # Panics
/// Panics on a zero-sized workload or ratios outside `[0, 1]`.
#[must_use]
pub fn generate_queries(wl: &WorkloadConfig) -> Vec<Query> {
    assert!(
        wl.clients > 0 && wl.queries_per_client > 0,
        "empty workload"
    );
    assert!(wl.corpora > 0, "need at least one shared corpus");
    assert!(
        (0.0..=1.0).contains(&wl.shared_ratio) && (0.0..=1.0).contains(&wl.large_ratio),
        "ratios must be in [0, 1]"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(wl.seed);
    let unit = Uniform::new(0.0f64, 1.0f64);
    let weight = Uniform::new(-0.5f32, 0.5f32);
    // Shared pools: a small and a large (2M) variant per corpus slot,
    // each with its own shared target set.
    let small: Vec<(SourceSet, Arc<PointSet>)> = (0..wl.corpora)
        .map(|c| {
            let seed = wl.seed.wrapping_mul(1000).wrapping_add(c as u64);
            (
                SourceSet::new(PointSet::uniform_cube(wl.m, wl.k, seed)),
                Arc::new(PointSet::uniform_cube(wl.n, wl.k, seed ^ 0x5EED)),
            )
        })
        .collect();
    let large: Vec<(SourceSet, Arc<PointSet>)> = (0..wl.corpora)
        .map(|c| {
            let seed = wl.seed.wrapping_mul(2000).wrapping_add(c as u64);
            (
                SourceSet::new(PointSet::uniform_cube(2 * wl.m, wl.k, seed)),
                Arc::new(PointSet::uniform_cube(wl.n, wl.k, seed ^ 0x5EED)),
            )
        })
        .collect();
    let total = wl.clients * wl.queries_per_client;
    (0..total)
        .map(|_| {
            let is_large = unit.sample(&mut rng) < wl.large_ratio;
            let (sources, targets) = if unit.sample(&mut rng) < wl.shared_ratio {
                let pool = if is_large { &large } else { &small };
                let idx = rng.gen_range(0..wl.corpora);
                (pool[idx].0.clone(), Arc::clone(&pool[idx].1))
            } else {
                // Private corpus: fresh identity, guaranteed cache miss.
                let m = if is_large { 2 * wl.m } else { wl.m };
                let seed = rng.gen::<u64>();
                (
                    SourceSet::new(PointSet::uniform_cube(m, wl.k, seed)),
                    Arc::new(PointSet::uniform_cube(wl.n, wl.k, seed ^ 0x5EED)),
                )
            };
            let weights = (0..wl.n).map(|_| weight.sample(&mut rng)).collect();
            Query {
                sources,
                targets,
                weights,
                h: wl.h,
                deadline: None,
            }
        })
        .collect()
}

/// Drives a server with `wl.clients` concurrent producer threads and
/// returns the final report. The worker is never gated
/// (`start_paused` is overridden to `false` — clients block on their
/// own tickets, so a paused worker would deadlock). Rejected queries
/// are dropped, not retried.
///
/// # Panics
/// Panics on an invalid workload or if a client thread panics.
#[must_use]
pub fn run_workload(mut cfg: ServeConfig, wl: &WorkloadConfig) -> ServeReport {
    cfg.start_paused = false;
    let queries = generate_queries(wl);
    let server = Arc::new(Mutex::new(Server::start(cfg)));
    let mut clients = Vec::with_capacity(wl.clients);
    let mut streams: Vec<Vec<Query>> = Vec::with_capacity(wl.clients);
    {
        let mut rest = queries;
        for _ in 0..wl.clients {
            let tail = rest.split_off(wl.queries_per_client.min(rest.len()));
            streams.push(rest);
            rest = tail;
        }
    }
    for stream in streams {
        let server = Arc::clone(&server);
        let deadline = wl.deadline;
        clients.push(std::thread::spawn(move || {
            let mut tickets: Vec<Ticket> = Vec::with_capacity(stream.len());
            for mut q in stream {
                if let Some(d) = deadline {
                    q.deadline = Some(Instant::now() + d);
                }
                // Recover from poisoning: a sibling client panicking
                // mid-submit must not take the rest of the stream
                // down with it (submit itself never panics).
                match server
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .submit(q)
                {
                    Submit::Accepted(t) => tickets.push(t),
                    Submit::Rejected(_) => {}
                }
            }
            for t in tickets {
                let _ = t.wait();
            }
        }));
    }
    for c in clients {
        c.join().expect("client thread panicked");
    }
    let server = Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("clients joined, server uniquely owned"))
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    server.shutdown()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeBackend;

    #[test]
    fn generation_is_deterministic_and_shares_corpora() {
        let wl = WorkloadConfig {
            clients: 2,
            queries_per_client: 10,
            ..WorkloadConfig::default()
        };
        let a = generate_queries(&wl);
        let b = generate_queries(&wl);
        assert_eq!(a.len(), 20);
        for (qa, qb) in a.iter().zip(b.iter()) {
            // Same streams share weights bit-for-bit; corpus ids differ
            // between runs (identity is mint-on-create) but the points
            // must match.
            assert_eq!(qa.weights, qb.weights);
            assert_eq!(qa.sources.points(), qb.sources.points());
        }
        // With shared_ratio 0.8 over 20 queries, at least two must
        // share a corpus identity.
        let shared = a.iter().any(|q| {
            a.iter()
                .filter(|p| p.sources.id() == q.sources.id())
                .count()
                > 1
        });
        assert!(shared, "workload must exercise corpus sharing");
    }

    #[test]
    fn small_query_stream_is_deterministic_and_wave_heterogeneous() {
        let cfg = packed_smoke_workload();
        let a = generate_small_queries(&cfg);
        let b = generate_small_queries(&cfg);
        assert_eq!(a.len(), cfg.queries);
        for (qa, qb) in a.iter().zip(b.iter()) {
            assert_eq!(qa.weights, qb.weights);
            assert_eq!(qa.sources.points(), qb.sources.points());
            assert_eq!(qa.h, qb.h);
        }
        // Round-robin (skew 0): one wave of 16 holds 16 distinct
        // (corpus, targets, h) combinations — nothing coalesces.
        let wave = cfg.corpora * cfg.target_sets;
        let combos: std::collections::HashSet<_> = a[..wave]
            .iter()
            .map(|q| (q.sources.id(), Arc::as_ptr(&q.targets), q.h.to_bits()))
            .collect();
        assert_eq!(combos.len(), wave, "a wave must be fully heterogeneous");
        // ...while the *next* wave revisits the same combinations, so
        // corpora and target sets are genuinely shared across waves.
        for (early, late) in a[..wave].iter().zip(&a[wave..2 * wave]) {
            assert_eq!(early.sources.id(), late.sources.id());
            assert!(Arc::ptr_eq(&early.targets, &late.targets));
        }
    }

    #[test]
    fn small_query_skew_biases_toward_hot_corpora() {
        let cfg = SmallQueryWorkloadConfig {
            queries: 256,
            corpora: 8,
            m: 16,
            n: 8,
            k: 4,
            skew: 4.0,
            ..SmallQueryWorkloadConfig::default()
        };
        let qs = generate_small_queries(&cfg);
        assert_eq!(qs.len(), 256);
        // u^5 sends ~66% of draws to index 0; well over a uniform
        // 1/8 share lands on the hottest corpus.
        let mut counts = std::collections::HashMap::new();
        for q in &qs {
            *counts.entry(q.sources.id()).or_insert(0usize) += 1;
        }
        let hot_hits = *counts.values().max().unwrap();
        assert!(
            hot_hits > qs.len() / 4,
            "skew 4.0 must concentrate load (got {hot_hits}/256)"
        );
    }

    #[test]
    fn workload_completes_on_cpu_backend() {
        let wl = WorkloadConfig {
            clients: 3,
            queries_per_client: 5,
            m: 32,
            n: 16,
            k: 4,
            ..WorkloadConfig::default()
        };
        let cfg = ServeConfig {
            backend: ServeBackend::CpuFused,
            ..ServeConfig::default()
        };
        let report = run_workload(cfg, &wl);
        assert_eq!(report.submitted, 15);
        assert_eq!(report.accepted + report.rejected, report.submitted);
        assert_eq!(
            report.completed + report.expired + report.shed + report.failed,
            report.accepted
        );
    }

    #[test]
    fn small_query_deadlines_draw_within_the_configured_range() {
        let lo = Duration::from_secs(10);
        let hi = Duration::from_secs(20);
        let cfg = SmallQueryWorkloadConfig {
            queries: 32,
            m: 16,
            n: 8,
            k: 4,
            deadline_range: Some((lo, hi)),
            ..SmallQueryWorkloadConfig::default()
        };
        let start = Instant::now();
        let qs = generate_small_queries(&cfg);
        let end = Instant::now();
        let mut distinct = std::collections::HashSet::new();
        for q in &qs {
            let d = q.deadline.expect("range set: every query has a deadline");
            assert!(d >= start + lo, "deadline below the range");
            assert!(d <= end + hi, "deadline above the range");
            distinct.insert(d);
        }
        assert!(
            distinct.len() > 1,
            "a non-degenerate range draws mixed urgencies"
        );
        // The option consumes no draws when off: the default stream
        // is untouched (weights replay bit-identically).
        let off = SmallQueryWorkloadConfig {
            deadline_range: None,
            ..cfg.clone()
        };
        let a = generate_small_queries(&off);
        let b = generate_small_queries(&off);
        for (qa, qb) in a.iter().zip(&b) {
            assert_eq!(qa.weights, qb.weights);
            assert_eq!(qa.deadline, None);
        }
    }
}
