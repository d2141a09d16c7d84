//! Shared-memory bank-conflict model.
//!
//! Maxwell shared memory is organised as 32 banks of 4-byte words
//! (Table I). A warp's shared-memory instruction is serviced in one
//! transaction unless two or more lanes touch *different words that
//! map to the same bank*, in which case the instruction replays once
//! per extra conflicting word (paper §II-C). Lanes reading the *same*
//! word are satisfied by the broadcast network and never conflict —
//! including multi-casts to any subset of lanes (§III-B).
//!
//! Addresses here are **word indices** into the block's shared-memory
//! array (`byte address / 4`), which matches how the kernels in
//! `ks-gpu-kernels` address their `f32` shared arrays.

/// Number of transactions (1 = conflict-free, `n` = `n−1` replays)
/// needed to service one warp-wide shared-memory access.
///
/// `addrs[lane]` is the word index accessed by `lane`, or `None` if the
/// lane is inactive. An all-inactive warp costs zero transactions.
#[must_use]
pub fn warp_transactions(addrs: &[Option<u32>; 32], num_banks: u32) -> u32 {
    // For each bank, count the number of *distinct* words accessed.
    // The transaction count is the maximum over banks (banks are
    // serviced in parallel; replays re-issue the whole warp).
    let mut worst = 0u32;
    let mut seen: [heapless_set::WordSet; 32] = Default::default();
    // Validated in release builds too: `num_banks = 0` would divide by
    // zero below, and `num_banks > 32` would index past the 32-slot
    // per-bank sets.
    assert!(
        (1..=32).contains(&num_banks),
        "num_banks must be in 1..=32, got {num_banks}"
    );
    for addr in addrs.iter().flatten() {
        let bank = (addr % num_banks) as usize;
        if seen[bank].insert(*addr) {
            let n = seen[bank].len();
            worst = worst.max(n);
        }
    }
    worst
}

/// Degree of the worst bank conflict (0 = conflict-free or inactive).
#[must_use]
pub fn conflict_degree(addrs: &[Option<u32>; 32], num_banks: u32) -> u32 {
    warp_transactions(addrs, num_banks).saturating_sub(1)
}

/// Flips bit `bit & 31` of the IEEE-754 bit pattern of `v` — the
/// primitive single-event upset applied by the fault model
/// ([`crate::fault`]) to shared-memory words, accumulator registers
/// and DRAM cells.
#[must_use]
pub fn flip_bit(v: f32, bit: u8) -> f32 {
    f32::from_bits(v.to_bits() ^ (1u32 << (u32::from(bit) & 31)))
}

/// Tiny fixed-capacity set used by the conflict model: a warp has at
/// most 32 lanes, so each bank sees at most 32 distinct words.
mod heapless_set {
    /// Set of up to 32 `u32` values with linear-scan insert.
    #[derive(Default, Clone, Copy)]
    pub struct WordSet {
        items: [u32; 32],
        len: u8,
    }

    impl WordSet {
        /// Inserts `v`; returns `true` if it was not already present.
        pub fn insert(&mut self, v: u32) -> bool {
            for i in 0..self.len as usize {
                if self.items[i] == v {
                    return false;
                }
            }
            self.items[self.len as usize] = v;
            self.len += 1;
            true
        }

        /// Number of distinct values inserted.
        pub fn len(&self) -> u32 {
            self.len as u32
        }
    }
}

/// Aggregate shared-memory statistics for a kernel.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct SmemStats {
    /// Warp-level shared load instructions issued.
    pub load_instructions: u64,
    /// Transactions needed for those loads (≥ instructions).
    pub load_transactions: u64,
    /// Warp-level shared store instructions issued.
    pub store_instructions: u64,
    /// Transactions needed for those stores.
    pub store_transactions: u64,
}

impl SmemStats {
    /// Replay overhead: `transactions / instructions` (1.0 = conflict-free).
    #[must_use]
    pub fn replay_factor(&self) -> f64 {
        let insts = self.load_instructions + self.store_instructions;
        if insts == 0 {
            return 1.0;
        }
        (self.load_transactions + self.store_transactions) as f64 / insts as f64
    }

    /// Accumulates another statistics block.
    pub fn merge(&mut self, other: &SmemStats) {
        self.load_instructions += other.load_instructions;
        self.load_transactions += other.load_transactions;
        self.store_instructions += other.store_instructions;
        self.store_transactions += other.store_transactions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_warp(f: impl Fn(u32) -> u32) -> [Option<u32>; 32] {
        std::array::from_fn(|lane| Some(f(lane as u32)))
    }

    #[test]
    fn unit_stride_is_conflict_free() {
        let a = full_warp(|l| l);
        assert_eq!(warp_transactions(&a, 32), 1);
    }

    #[test]
    fn broadcast_same_word_is_one_transaction() {
        // §III-B: "if all 32 threads access the same four bytes in a
        // single bank, all requests can be serviced in a single cycle".
        let a = full_warp(|_| 7);
        assert_eq!(warp_transactions(&a, 32), 1);
    }

    #[test]
    fn multicast_subsets_are_one_transaction() {
        // Eight threads per value, four distinct words in four banks.
        let a = full_warp(|l| l / 8);
        assert_eq!(warp_transactions(&a, 32), 1);
    }

    #[test]
    fn stride_two_gives_two_way_conflict() {
        let a = full_warp(|l| l * 2);
        assert_eq!(warp_transactions(&a, 32), 2);
        assert_eq!(conflict_degree(&a, 32), 1);
    }

    #[test]
    fn stride_32_gives_32_way_conflict() {
        // The classic worst case: a column of a 32-wide row-major tile.
        let a = full_warp(|l| l * 32);
        assert_eq!(warp_transactions(&a, 32), 32);
    }

    #[test]
    fn stride_33_is_conflict_free() {
        // Padding trick: leading dimension 33 spreads a column over all banks.
        let a = full_warp(|l| l * 33);
        assert_eq!(warp_transactions(&a, 32), 1);
    }

    #[test]
    fn same_bank_distinct_words_conflict_even_with_broadcast_mix() {
        // Lanes 0..16 read word 0, lanes 16..32 read word 32 (same bank 0).
        let a = full_warp(|l| if l < 16 { 0 } else { 32 });
        assert_eq!(warp_transactions(&a, 32), 2);
    }

    #[test]
    fn inactive_lanes_do_not_count() {
        let mut a = [None; 32];
        a[3] = Some(64);
        a[9] = Some(96); // same bank (0) as 64, distinct word
        assert_eq!(warp_transactions(&a, 32), 2);
        let empty = [None; 32];
        assert_eq!(warp_transactions(&empty, 32), 0);
    }

    #[test]
    fn matches_brute_force_on_pseudorandom_patterns() {
        // Brute-force oracle: simulate replays directly.
        fn oracle(addrs: &[Option<u32>; 32], banks: u32) -> u32 {
            let mut pending: Vec<u32> = addrs.iter().flatten().copied().collect();
            let mut txns = 0;
            while !pending.is_empty() {
                txns += 1;
                // One transaction services, per bank, all lanes that
                // agree on a single word; pick the first word per bank.
                let mut chosen: [Option<u32>; 32] = [None; 32];
                for &w in &pending {
                    let b = (w % banks) as usize;
                    if chosen[b].is_none() {
                        chosen[b] = Some(w);
                    }
                }
                pending.retain(|&w| chosen[(w % banks) as usize] != Some(w));
            }
            txns
        }
        let mut state = 0x1234_5678_u64;
        for trial in 0..200 {
            let a: [Option<u32>; 32] = std::array::from_fn(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> 60 == 0 {
                    None
                } else {
                    Some(((state >> 33) % 256) as u32)
                }
            });
            assert_eq!(
                warp_transactions(&a, 32),
                oracle(&a, 32),
                "trial {trial}: {a:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "num_banks must be in 1..=32")]
    fn zero_banks_is_rejected_in_release() {
        let a = full_warp(|l| l);
        let _ = warp_transactions(&a, 0);
    }

    #[test]
    #[should_panic(expected = "num_banks must be in 1..=32")]
    fn more_than_32_banks_is_rejected_in_release() {
        let a = full_warp(|l| l);
        let _ = warp_transactions(&a, 33);
    }

    #[test]
    fn smem_stats_replay_factor() {
        let s = SmemStats {
            load_instructions: 10,
            load_transactions: 25,
            store_instructions: 10,
            store_transactions: 15,
        };
        assert!((s.replay_factor() - 2.0).abs() < 1e-12);
        let mut t = SmemStats::default();
        assert_eq!(t.replay_factor(), 1.0);
        t.merge(&s);
        assert_eq!(t, s);
    }
}
