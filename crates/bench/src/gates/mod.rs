//! The gate commands, plus what they share: checking results against
//! the CPU fused reference, and the bitwise and tolerance comparisons
//! of results. Each gate serves its streams with
//! [`ks_serve::serve_backlog`].
//!
//! Each gate writes one `BENCH_*.json` document with `--json PATH` and
//! exits 1 when any of its gates fails.

use ks_blas::{Layout, Matrix};
use ks_core::problem::KernelSumProblem;
use ks_core::{solve_multi_fused, FusedCpuConfig, GaussianKernel};
use ks_serve::{PoolReport, Query, ServeError, ServeReport};

pub mod chaos;
pub mod chaos_pool;
pub mod pack;
pub mod pool;
pub mod replay;
pub mod tune;

/// Relative tolerance of a GPU result against the CPU reference (or
/// of a CPU-recovered shard against the GPU shard it replaces): the
/// two paths sum in different orders.
const TOL: f32 = 5e-3;

/// One query's result, or the error its ticket surfaced.
pub type Outcome = Result<Vec<f32>, ServeError>;

/// The pool accounting of a pooled run.
pub fn pool_report(report: &ServeReport) -> &PoolReport {
    report
        .pool
        .as_ref()
        .expect("pooled serving reports its pool")
}

/// The report's per-query identities hold: `submitted == accepted +
/// rejected`, `accepted == completed + expired + shed + failed`, and
/// no internal error voided them.
pub fn accounting_holds(r: &ServeReport) -> bool {
    r.submitted == r.accepted + r.rejected
        && r.accepted == r.completed + r.expired + r.shed + r.failed
        && r.internal_errors == 0
}

/// How a run's outcomes compare with the CPU reference.
#[derive(Debug, Default)]
pub struct Checked {
    /// Completions bit-identical to the reference (every CPU-served
    /// completion must be).
    pub bit_exact: u64,
    /// Other completions within [`TOL`] of it.
    pub tolerant: u64,
    /// Completions outside tolerance with no surfaced error.
    pub silent_wrong: u64,
    /// Queries whose ticket surfaced an error.
    pub errors: u64,
}

/// Checks every outcome against [`cpu_reference`], logging silently
/// wrong completions and surfaced errors to stderr.
pub fn check_against_reference(stream: &[Query], outcomes: &[Outcome]) -> Checked {
    let mut c = Checked::default();
    for (qi, (q, outcome)) in stream.iter().zip(outcomes).enumerate() {
        match outcome {
            Ok(got) => {
                let want = cpu_reference(q);
                if same_bits(got, &want) {
                    c.bit_exact += 1;
                } else if close(got, &want) {
                    c.tolerant += 1;
                } else {
                    c.silent_wrong += 1;
                    eprintln!("SILENT WRONG: query {qi} completed outside tolerance");
                }
            }
            Err(e) => {
                c.errors += 1;
                eprintln!("query {qi} surfaced: {e}");
            }
        }
    }
    c
}

/// The single-shot CPU fused answer for one query: the solver
/// configuration the server's safe harbor and the pool's shard
/// recovery run, so CPU-served results must match it bit for bit.
fn cpu_reference(q: &Query) -> Vec<f32> {
    let p = KernelSumProblem::builder()
        .sources(q.sources.points().clone())
        .targets((*q.targets).clone())
        .unit_weights()
        .kernel(GaussianKernel { h: q.h })
        .build();
    let w = Matrix::from_fn(q.weights.len(), 1, Layout::RowMajor, |j, _| q.weights[j]);
    let v = solve_multi_fused(&p, &w, &FusedCpuConfig::default());
    (0..v.rows()).map(|i| v.get(i, 0)).collect()
}

/// Equal length and equal bits in every element (`-0.0 != 0.0`; NaNs
/// compare by payload).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Two runs' outcomes agree query by query: both results with the
/// same bits, or both errors.
pub fn same_outcomes(a: &[Outcome], b: &[Outcome]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Ok(x), Ok(y)) => same_bits(x, y),
            (Err(_), Err(_)) => true,
            _ => false,
        })
}

/// Equal length and every element within [`TOL`] of `want`, relative
/// to `max(|want|, 1)`.
pub fn close(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= TOL * w.abs().max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bits_tells_signed_zeros_apart() {
        assert!(same_bits(&[0.0], &[0.0]));
        assert!(!same_bits(&[-0.0], &[0.0]));
        assert!(close(&[-0.0], &[0.0]), "numerically equal");
    }

    #[test]
    fn same_bits_compares_nan_payloads() {
        let quiet = f32::NAN;
        let other = f32::from_bits(quiet.to_bits() | 1);
        assert!(same_bits(&[quiet], &[quiet]));
        assert!(!same_bits(&[quiet], &[other]));
    }

    #[test]
    fn a_length_mismatch_is_unequal() {
        assert!(!same_bits(&[1.0], &[1.0, 2.0]));
        assert!(!same_bits(&[], &[1.0]));
        assert!(!close(&[1.0, 2.0], &[1.0]));
        assert!(!same_outcomes(&[Ok(vec![1.0])], &[]));
    }

    #[test]
    fn outcomes_agree_on_bits_or_on_both_failing() {
        let err = || Err(ServeError::Shed);
        assert!(same_outcomes(
            &[Ok(vec![1.0]), err()],
            &[Ok(vec![1.0]), err()]
        ));
        assert!(!same_outcomes(&[Ok(vec![1.0])], &[err()]));
        assert!(!same_outcomes(
            &[Ok(vec![1.0])],
            &[Ok(vec![1.0 + f32::EPSILON])]
        ));
    }

    #[test]
    fn tolerance_is_relative_above_one_and_absolute_below() {
        assert!(close(&[1000.0], &[1004.0]));
        assert!(!close(&[1000.0], &[1006.0]));
        assert!(close(&[0.0], &[0.004]));
        assert!(!close(&[0.0], &[0.006]));
    }
}
