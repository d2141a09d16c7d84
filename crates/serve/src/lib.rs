//! # ks-serve — batched kernel-summation serving
//!
//! Production kernel-summation workloads are *query streams*: many
//! clients evaluate Gaussian sums against a handful of long-lived
//! source corpora. This crate lifts the paper's reuse argument from
//! the kernel to the service: just as the fused kernel amortises the
//! `M×N` intermediate across one query (§III), the server amortises
//! the `A`-side precomputation across the stream.
//!
//! * [`queue`] — bounded submission queue; a full queue *rejects*
//!   (explicit backpressure) instead of blocking or growing.
//! * [`server`] — the scheduler: queries sharing
//!   `(corpus, bandwidth, targets)` coalesce into one multi-weight
//!   fused solve, each contributing a weight column; per-query
//!   deadlines and deadline-aware shedding.
//! * `ladder` — the one degradation ladder every launch unit runs,
//!   pooled or not: GPU attempts gated by a circuit breaker, the
//!   fault and link streams decorrelated per attempt, transfers
//!   charged, ending at the bit-exact CPU safe harbor; each device
//!   slot's replay memo replays a launch once per entering L2 state
//!   and restores the L2 after. The backend
//!   fixes its budget: one attempt with an optional CPU fallback, or
//!   on the `gpu-resilient` backend ABFT-verified launches with
//!   seeded-backoff retries and an unverified middle rung.
//! * [`cache`] — the LRU plan cache keyed by `(corpus id, M, K, h)`;
//!   a hit skips the host-side pack/norms pass and the `norms(A)`
//!   kernel launch.
//! * [`admission`] — plan-time static admission: the exact kernel a
//!   GPU batch would launch is proved clean (conflicts, bounds,
//!   occupancy) from its declared access spec before the first
//!   attempt; verdicts are memoized beside the plan cache and a
//!   reject serves the batch on the bit-exact CPU path.
//! * [`executor`] — a launch unit's segments on either backend. The
//!   CPU path is bit-deterministic and column-wise identical to the
//!   single-shot solver; the one GPU executor pads every segment to
//!   its tiling and runs them in one fused launch, packed exactly when
//!   there are two or more segments.
//! * [`workload`] — deterministic synthetic arrival streams and the
//!   backlog runner behind `ksum serve-bench` and the `ks-bench`
//!   serving gates.
//! * [`packed`] — horizontal fusion: the `PackedBatch` planner groups
//!   mutually-unrelated small GPU batches from one scheduling wave
//!   into one launch unit, which the executor runs as a single routed
//!   launch ([`ks_gpu_kernels::FusedMultiPacked`]) with results
//!   bit-identical to unpacked serving.
//! * [`pool`] — multi-device sharded serving: each batch is
//!   partitioned row-wise over `N` simulated devices (own residency
//!   cache, fault spec, breaker, interconnect), the shards run
//!   fork-join — devices in parallel, each device's shards in slot
//!   order on its own slot — down the ladder with a pooled budget,
//!   and the partial results merge in fixed shard order,
//!   bit-identical to a single-device solve.
//! * [`router`] — the shard placement policy over the eligible
//!   devices: cache-first, then load-aware, deterministic.
//! * [`health`] — the pool's drain → evict → readmit policy: each
//!   member's circuit breaker is its membership, so a member whose
//!   breaker trips leaves placement until its cooldown admits a
//!   half-open probe, and a clean probe readmits it.

#![warn(missing_docs)]
#![forbid(clippy::too_many_arguments)]

pub mod admission;
pub mod cache;
pub mod executor;
pub mod health;
mod ladder;
pub mod packed;
pub mod pool;
pub mod queue;
pub mod router;
pub mod server;
pub mod workload;

pub use admission::{AdmissionKey, AdmissionStats, AdmissionVerdict};
pub use cache::{GeometryStats, PlanCache, PlanCacheStats, PlanKey};
pub use executor::MAX_GPU_BATCH;
pub use health::HealthConfig;
pub use packed::{packable, PACK_MAX_COL_BLOCKS, PACK_MAX_SEGMENT_BLOCKS};
pub use pool::{DeviceReport, PoolConfig, PoolDevice, PoolReport, SHARD_ALIGN};
pub use queue::BoundedQueue;
pub use server::{
    backoff_delay, FaultInjection, GeometryPick, Query, ResilienceConfig, ServeBackend,
    ServeConfig, ServeError, ServeReport, Server, Submit, Ticket,
};
pub use workload::{
    generate_queries, generate_small_queries, packed_smoke_workload, serve_backlog, smoke_workload,
    SmallQueryWorkloadConfig, WorkloadConfig,
};
