//! Parameter grids (§IV: "The value of dimension K is set to 32, 64,
//! 128, and 256 in each group, and the value of dimension N is fixed
//! to 1024 in all groups. Within each group, the value of M dimension
//! increases from 1024 to 524288.").

use crate::cli::Flags;

/// The paper's K values.
pub const PAPER_K: [usize; 4] = [32, 64, 128, 256];
/// The paper's fixed N.
pub const PAPER_N: usize = 1024;

/// A `(K, M)` grid with fixed `N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sweep {
    /// Point-space dimensions to test.
    pub k_values: Vec<usize>,
    /// Source-point counts to test.
    pub m_values: Vec<usize>,
    /// Target-point count (fixed).
    pub n: usize,
}

/// `from, 2·from, 4·from, …` up to and including `to` (when `to` is a
/// power-of-two multiple of `from`; otherwise the last value ≤ `to`).
///
/// # Panics
/// Panics when `from == 0` (zero never doubles past `to`, so the loop
/// would never terminate) or when `to < from` (the grid would be
/// silently empty, which every caller would misread as "swept
/// nothing and succeeded").
fn doublings(from: usize, to: usize) -> Vec<usize> {
    assert!(from > 0, "doublings: `from` must be non-zero");
    assert!(
        from <= to,
        "doublings: empty range ({from} > {to}); swap the bounds"
    );
    let mut v = Vec::new();
    let mut m = from;
    while m <= to {
        v.push(m);
        match m.checked_mul(2) {
            Some(next) => m = next,
            None => break,
        }
    }
    v
}

impl Sweep {
    /// The paper's full grid: `M ∈ {1024, 2048, …, 524288}`.
    /// Budget ~10–20 minutes of traffic replay.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            k_values: PAPER_K.to_vec(),
            m_values: doublings(1024, 524_288),
            n: PAPER_N,
        }
    }

    /// Default grid: the same shape capped at `M = 65536`
    /// (~1–2 minutes).
    #[must_use]
    pub fn scaled() -> Self {
        Self {
            k_values: PAPER_K.to_vec(),
            m_values: doublings(1024, 65_536),
            n: PAPER_N,
        }
    }

    /// CI-sized grid (seconds).
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            k_values: vec![32, 256],
            m_values: vec![1024, 4096],
            n: PAPER_N,
        }
    }

    /// Chooses a sweep from a command's parsed flags: `--full` /
    /// `--smoke`, default scaled.
    #[must_use]
    pub fn from_flags(flags: &Flags) -> Self {
        if flags.has("--full") {
            Self::paper()
        } else if flags.has("--smoke") {
            Self::smoke()
        } else {
            Self::scaled()
        }
    }

    /// All `(k, m)` points, K-major (the paper's grouping).
    pub fn points(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.k_values
            .iter()
            .flat_map(move |&k| self.m_values.iter().map(move |&m| (k, m)))
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.k_values.len() * self.m_values.len()
    }

    /// True if the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sweep_matches_section_4() {
        let s = Sweep::paper();
        assert_eq!(s.k_values, vec![32, 64, 128, 256]);
        assert_eq!(s.n, 1024);
        assert_eq!(*s.m_values.first().unwrap(), 1024);
        assert_eq!(*s.m_values.last().unwrap(), 524_288);
        assert_eq!(s.m_values.len(), 10);
    }

    #[test]
    fn points_are_k_major() {
        let s = Sweep::smoke();
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts, vec![(32, 1024), (32, 4096), (256, 1024), (256, 4096)]);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn doublings_cover_edges() {
        assert_eq!(doublings(1024, 1024), vec![1024]);
        assert_eq!(doublings(3, 13), vec![3, 6, 12]);
        // Saturating edge: stop instead of overflowing.
        assert_eq!(doublings(usize::MAX / 2 + 1, usize::MAX).len(), 1);
    }

    #[test]
    #[should_panic(expected = "`from` must be non-zero")]
    fn doublings_reject_zero_start() {
        let _ = doublings(0, 1024);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn doublings_reject_inverted_range() {
        let _ = doublings(2048, 1024);
    }

    #[test]
    fn flags_select_sweeps() {
        let sweep = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
            Sweep::from_flags(&Flags::parse(&args, &["--smoke", "--full"], &[]).expect("valid"))
        };
        assert_eq!(sweep(&["--full"]), Sweep::paper());
        assert_eq!(sweep(&["--smoke", "--full"]), Sweep::paper());
        assert_eq!(sweep(&["--smoke"]), Sweep::smoke());
        assert_eq!(sweep(&[]), Sweep::scaled());
    }
}
