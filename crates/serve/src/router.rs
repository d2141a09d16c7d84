//! Shard placement policy for the device pool.
//!
//! The router decides which device owns each shard task. Placement is
//! **load-aware** (fewest tasks already placed wins) but **cache-first**: a
//! device whose shard-plan cache already holds this `(plan, shard)` is
//! preferred over any cold device regardless of load, because a warm
//! placement skips both the `norms(A)` kernel launch and the shard's
//! `A`-pack upload over the interconnect — the pool-level analogue of
//! the paper's intra-kernel reuse argument. Only eligible devices are
//! considered: the pool passes the members whose breaker admits the
//! unit, so an evicted device leaves placement without the policy
//! changing for the rest of the pool.
//!
//! Ties break to the lowest device index, so placement is a pure
//! deterministic function of `(warm, depth, eligible)`: replaying a
//! workload replays the exact shard→device assignment, which the
//! differential suite relies on.

/// Picks the device for one shard task.
///
/// `warm[d]` says whether device `d` has the shard's plan resident;
/// `depth[d]` is its load: the tasks already placed on it this batch;
/// `eligible[d]` says whether it may receive the task at all. Among
/// the eligible devices, warm ones are preferred; within a class the
/// least-loaded device wins; ties go to the lowest index.
///
/// # Panics
/// Panics if the slices are empty, disagree in length, or no device
/// is eligible.
#[must_use]
pub fn place(warm: &[bool], depth: &[usize], eligible: &[bool]) -> usize {
    assert!(!warm.is_empty(), "placement over an empty pool");
    assert_eq!(warm.len(), depth.len(), "warm/depth length mismatch");
    assert_eq!(warm.len(), eligible.len(), "warm/eligible length mismatch");
    let best_in = |class: &mut dyn Iterator<Item = usize>| -> Option<usize> {
        class.min_by_key(|&d| (depth[d], d))
    };
    best_in(&mut (0..warm.len()).filter(|&d| eligible[d] && warm[d]))
        .or_else(|| best_in(&mut (0..warm.len()).filter(|&d| eligible[d])))
        .expect("placement needs at least one eligible device")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Placement over a pool with every device eligible.
    fn place_all(warm: &[bool], depth: &[usize]) -> usize {
        place(warm, depth, &vec![true; warm.len()])
    }

    #[test]
    fn cold_pool_balances_by_depth_with_index_tiebreak() {
        assert_eq!(place_all(&[false; 4], &[0, 0, 0, 0]), 0, "tie → lowest");
        assert_eq!(place_all(&[false; 4], &[1, 0, 0, 0]), 1);
        assert_eq!(place_all(&[false; 4], &[1, 1, 0, 0]), 2);
        assert_eq!(place_all(&[false; 4], &[2, 1, 3, 1]), 1);
    }

    #[test]
    fn warm_device_wins_even_when_deeper() {
        assert_eq!(
            place_all(&[false, false, true, false], &[0, 0, 5, 0]),
            2,
            "cache residency beats load"
        );
        // Among several warm devices, load decides again.
        assert_eq!(place_all(&[true, false, true, false], &[3, 0, 1, 0]), 2);
        assert_eq!(place_all(&[true, true, false, false], &[2, 2, 0, 0]), 0);
    }

    #[test]
    fn placement_is_deterministic() {
        let warm = [false, true, false];
        let depth = [1, 4, 1];
        assert_eq!(place_all(&warm, &depth), place_all(&warm, &depth));
    }

    #[test]
    #[should_panic(expected = "empty pool")]
    fn rejects_empty_pool() {
        let _ = place(&[], &[], &[]);
    }

    #[test]
    fn masked_placement_skips_evicted_devices() {
        // The warm winner is ineligible: warmth on eligible devices
        // still beats load, then load decides.
        assert_eq!(
            place(
                &[false, true, false, true],
                &[0, 0, 0, 5],
                &[true, false, true, true],
            ),
            3,
            "the only eligible warm device wins despite its depth"
        );
        assert_eq!(
            place(
                &[false, true, false, false],
                &[0, 0, 1, 0],
                &[true, false, true, true]
            ),
            0,
            "no eligible warmth: shallowest eligible queue, lowest index"
        );
    }

    #[test]
    #[should_panic(expected = "at least one eligible")]
    fn rejects_a_fully_masked_pool() {
        let _ = place(&[false, false], &[0, 0], &[false, false]);
    }
}
