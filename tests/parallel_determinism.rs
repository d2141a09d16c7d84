//! Golden determinism of sweep-point parallelism at the export layer:
//! a smoke-sized sweep profiled with a 1-thread pool and an 8-thread
//! pool (sweep points run in parallel, each point's replay on its own
//! thread) must produce **byte-identical** `BENCH_sweep.json` documents
//! once the (nondeterministic) host wall-time fields are zeroed. Any
//! state shared between concurrently profiled points, or any drift in
//! counter merging or memoized translation, would surface here as a
//! JSON diff.

use ks_bench::metrics::SweepMetrics;
use ks_bench::{Sweep, SweepData};

fn sweep() -> Sweep {
    Sweep {
        k_values: vec![32, 64],
        m_values: vec![1024, 2048, 4096, 8192],
        n: 1024,
    }
}

/// Profiles the sweep inside a pool of `threads` workers and zeroes
/// the wall-time fields (the only nondeterministic part of the
/// schema).
fn metrics_with(threads: usize) -> SweepMetrics {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool builds");
    let mut m = pool.install(|| {
        SweepMetrics::collect(&SweepData::compute(sweep()).expect("sweep profiles cleanly"))
    });
    for p in &mut m.points {
        p.wall_time_ms = 0.0;
    }
    m
}

#[test]
fn sweep_json_is_byte_identical_across_thread_counts() {
    let one = metrics_with(1);
    let eight = metrics_with(8);
    assert_eq!(one, eight, "sweep metrics differ between 1 and 8 threads");
    assert_eq!(
        one.to_json(),
        eight.to_json(),
        "serialised sweep JSON differs between 1 and 8 threads"
    );
}
