//! # ks-bench — experiment harness
//!
//! Regenerates **every table and figure** of the paper's evaluation
//! (§V) and runs the repository's benchmark gates, all through one
//! binary, `ks-bench <command> [flags]`:
//!
//! * `sweep` profiles the sweep once and prints every exhibit
//!   (Tables I–III, Figs 1–9) from the shared data;
//! * the studies `ablations`, `sensitivity`, `projection` and
//!   `device-study` go beyond the paper's tables;
//! * the gates `replay`, `pool`, `pack`, `tune`, `chaos` and
//!   `chaos-pool` each write one `BENCH_*.json` document and exit 1
//!   when a gate fails.
//!
//! Sweeps (`--full` = the paper's exact grid up to `M = 524288`,
//! default = a scaled grid up to `M = 65536`, `--smoke` = CI-sized)
//! are defined in [`sweep`]; the shared profiling engine in [`data`];
//! the per-exhibit computations in [`exhibits`] (returned as
//! structured rows so the integration tests can assert the paper's
//! claims without parsing stdout); flag parsing, document writing and
//! gate reporting for every command in [`cli`].

#![warn(missing_docs)]

pub mod cli;
pub mod data;
pub mod exhibits;
pub mod metrics;
pub mod regress;
pub mod sweep;
pub mod table;

pub use data::{profile_or_exit, PointData, SweepData};
pub use metrics::{ServeMetrics, SweepMetrics};
pub use sweep::Sweep;
pub use table::TextTable;
