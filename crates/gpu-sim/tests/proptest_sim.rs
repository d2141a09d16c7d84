//! Property-based tests of the simulator substrate: invariants of the
//! bank-conflict model, the coalescer, the cache, and the occupancy
//! calculator under random inputs, plus an operation-by-operation
//! comparison of `Cache` with a straightforward reference model and of
//! a restored cache snapshot with the cache it was taken of.

use ks_gpu_sim::cache::{Access, Cache, CacheStats};
use ks_gpu_sim::coalesce::{warp_sectors, warp_transaction_count, MAX_SECTORS_PER_WARP};
use ks_gpu_sim::config::DeviceConfig;
use ks_gpu_sim::kernel::KernelResources;
use ks_gpu_sim::occupancy::occupancy;
use ks_gpu_sim::smem::warp_transactions;
use proptest::prelude::*;

fn warp_words() -> impl Strategy<Value = [Option<u32>; 32]> {
    proptest::collection::vec(proptest::option::of(0u32..2048), 32)
        .prop_map(|v| std::array::from_fn(|i| v[i]))
}

fn warp_addrs() -> impl Strategy<Value = [Option<u64>; 32]> {
    proptest::collection::vec(proptest::option::of(0u64..(1 << 20)), 32)
        .prop_map(|v| std::array::from_fn(|i| v[i]))
}

/// The straightforward cache model `Cache` must match: an
/// array-of-structs set scanned twice per miss, and a divide for both
/// the line address and the set index.
mod reference {
    use ks_gpu_sim::cache::{Access, CacheStats};

    #[derive(Clone, Copy)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        /// Monotone timestamp of last touch (LRU).
        lru: u64,
    }

    const INVALID: Line = Line {
        tag: 0,
        valid: false,
        dirty: false,
        lru: 0,
    };

    /// Services one access against the ways of a single set (per-set
    /// LRU clock; invalid lines always lose the `min_by_key` because a
    /// valid stamp is ≥ 1).
    #[inline]
    fn access_set(
        ways: &mut [Line],
        clock: &mut u64,
        stats: &mut CacheStats,
        tag: u64,
        write: bool,
    ) -> Access {
        *clock += 1;
        if write {
            stats.write_accesses += 1;
        } else {
            stats.read_accesses += 1;
        }
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = *clock;
            if write {
                line.dirty = true;
                stats.write_hits += 1;
            } else {
                stats.read_hits += 1;
            }
            return Access::Hit;
        }
        if write {
            stats.write_misses += 1;
        } else {
            stats.read_misses += 1;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("assoc > 0");
        if victim.valid && victim.dirty {
            stats.write_backs += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: write,
            lru: *clock,
        };
        Access::Miss
    }

    /// The reference cache, with `Cache`'s public API.
    pub struct RefCache {
        lines: Vec<Line>,
        sets: usize,
        assoc: usize,
        line_bytes: u64,
        hashed_index: bool,
        clocks: Vec<u64>,
        stats: CacheStats,
    }

    impl RefCache {
        pub fn build(capacity_bytes: u64, assoc: u32, line_bytes: u32, hashed_index: bool) -> Self {
            assert!(line_bytes > 0 && assoc > 0, "degenerate cache geometry");
            assert!(
                line_bytes.is_power_of_two(),
                "line size must be a power of two"
            );
            let total_lines = capacity_bytes / line_bytes as u64;
            assert!(total_lines >= assoc as u64, "capacity below one set");
            let sets = (total_lines / assoc as u64) as usize;
            Self {
                lines: vec![INVALID; sets * assoc as usize],
                sets,
                assoc: assoc as usize,
                line_bytes: line_bytes as u64,
                hashed_index,
                clocks: vec![0; sets],
                stats: CacheStats::default(),
            }
        }

        pub fn capacity_bytes(&self) -> u64 {
            self.sets as u64 * self.assoc as u64 * self.line_bytes
        }

        pub fn stats(&self) -> CacheStats {
            self.stats
        }

        pub fn reset(&mut self) {
            self.lines.fill(INVALID);
            self.clocks.fill(0);
            self.stats = CacheStats::default();
        }

        #[inline]
        fn set_of(&self, addr: u64) -> (usize, u64) {
            let line_addr = addr / self.line_bytes;
            let key = if self.hashed_index {
                line_addr ^ (line_addr >> 7) ^ (line_addr >> 14)
            } else {
                line_addr
            };
            let set = (key % self.sets as u64) as usize;
            (set, line_addr)
        }

        pub fn access(&mut self, addr: u64, write: bool) -> Access {
            let (set, tag) = self.set_of(addr);
            access_set(
                &mut self.lines[set * self.assoc..(set + 1) * self.assoc],
                &mut self.clocks[set],
                &mut self.stats,
                tag,
                write,
            )
        }

        pub fn flush_dirty(&mut self) -> u64 {
            let mut n = 0;
            for line in &mut self.lines {
                if line.valid && line.dirty {
                    line.dirty = false;
                    n += 1;
                }
            }
            self.stats.write_backs += n;
            n
        }

        pub fn invalidate(&mut self) {
            self.lines.fill(INVALID);
        }

        pub fn invalidate_addr(&mut self, addr: u64) {
            let (set, tag) = self.set_of(addr);
            for line in &mut self.lines[set * self.assoc..(set + 1) * self.assoc] {
                if line.valid && line.tag == tag {
                    *line = INVALID;
                }
            }
        }
    }
}

/// A cache geometry: capacity, ways, line bytes, hashed index.
type Geometry = (u64, u32, u32, bool);

/// Random geometries (set counts 1, 2, 7, 3,584 or small, capacities
/// that do not divide evenly into sets) plus the GTX970's L2 and L1.
fn cache_geometry() -> impl Strategy<Value = Geometry> {
    let random = (
        prop_oneof![1u32..17, Just(32u32)],
        prop_oneof![Just(1u64), Just(2u64), Just(7u64), Just(3584u64), 1u64..64],
        proptest::sample::select(vec![32u32, 64, 128]),
        any::<bool>(),
        0u64..1000,
    )
        .prop_map(|(assoc, sets, line, hashed, slack)| {
            let set_bytes = u64::from(assoc) * u64::from(line);
            (
                sets * set_bytes + slack * set_bytes / 1000,
                assoc,
                line,
                hashed,
            )
        });
    let dev = DeviceConfig::gtx970();
    prop_oneof![
        random,
        Just((
            u64::from(dev.l2_bytes),
            dev.l2_assoc,
            dev.sector_bytes,
            false
        )),
        Just((
            u64::from(dev.l1_bytes),
            dev.l1_assoc,
            dev.sector_bytes,
            true
        )),
    ]
}

/// Raw operations `(kind, region, set, way, byte)`, mapped onto a
/// geometry by [`cache_op`].
fn cache_ops() -> impl Strategy<Value = Vec<(u32, usize, u64, u64, u64)>> {
    proptest::collection::vec(
        (0u32..200, 0usize..5, 0u64..3, 0u64..40, 0u64..128),
        1..1200,
    )
}

/// One operation on a cache under test.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Read(u64),
    Write(u64),
    InvalidateAddr(u64),
    Flush,
    Invalidate,
    Reset,
}

/// Maps a raw operation onto `geometry`. Addresses fall in three sets
/// of five regions — low memory, set keys straddling 2^32, past 2^37,
/// past 2^40 and near `u64::MAX` — each region starting at a multiple
/// of the set count, so an unhashed set holds lines of every region,
/// and a few more lines than it has ways: sets fill, evict and hit,
/// and keys pass 32 bits (and 2^52, where a 32-bit reciprocal of 3,584
/// sets goes wrong). Whole-cache operations are rare, so sets get full
/// between them.
fn cache_op(
    (kind, region, set, way, byte): (u32, usize, u64, u64, u64),
    geometry: Geometry,
) -> CacheOp {
    let (capacity, assoc, line, _) = geometry;
    let line = u64::from(line);
    let sets = capacity / line / u64::from(assoc);
    let first_line = [
        0,
        u64::from(u32::MAX) - 2 * sets,
        (1 << 37) / line,
        (1 << 40) / line + 12_345,
        (u64::MAX - (1 << 24)) / line,
    ][region]
        / sets
        * sets;
    let line_addr = first_line + set + (way % (u64::from(assoc) + 2)) * sets;
    let addr = line_addr * line + byte % line;
    match kind {
        0..=119 => CacheOp::Read(addr),
        120..=189 => CacheOp::Write(addr),
        190..=195 => CacheOp::InvalidateAddr(addr),
        196 | 197 => CacheOp::Flush,
        198 => CacheOp::Invalidate,
        _ => CacheOp::Reset,
    }
}

/// Applies `op` to `c`, returning the access outcome or flush count.
fn apply(c: &mut Cache, op: CacheOp) -> Option<Result<Access, u64>> {
    match op {
        CacheOp::Read(addr) => Some(Ok(c.read(addr))),
        CacheOp::Write(addr) => Some(Ok(c.write(addr))),
        CacheOp::InvalidateAddr(addr) => {
            c.invalidate_addr(addr);
            None
        }
        CacheOp::Flush => Some(Err(c.flush_dirty())),
        CacheOp::Invalidate => {
            c.invalidate();
            None
        }
        CacheOp::Reset => {
            c.reset();
            None
        }
    }
}

/// `now − base`, field by field.
fn stats_since(now: CacheStats, base: CacheStats) -> CacheStats {
    CacheStats {
        read_accesses: now.read_accesses - base.read_accesses,
        read_hits: now.read_hits - base.read_hits,
        read_misses: now.read_misses - base.read_misses,
        write_accesses: now.write_accesses - base.write_accesses,
        write_hits: now.write_hits - base.write_hits,
        write_misses: now.write_misses - base.write_misses,
        write_backs: now.write_backs - base.write_backs,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn smem_transactions_are_bounded(words in warp_words()) {
        let active = words.iter().filter(|w| w.is_some()).count() as u32;
        let t = warp_transactions(&words, 32);
        prop_assert!(t <= active, "txns {t} > active lanes {active}");
        if active > 0 {
            prop_assert!(t >= 1);
            // Can never exceed the worst distinct-words-per-bank count.
            prop_assert!(t <= 32);
        } else {
            prop_assert_eq!(t, 0);
        }
    }

    #[test]
    fn smem_any_permutation_of_one_row_is_conflict_free(seed in 0u64..10_000) {
        // Any permutation of the 32 words of one bank row touches all
        // 32 banks exactly once.
        let mut perm: Vec<u32> = (0..32).collect();
        let mut state = seed | 1;
        for i in (1..32usize).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let words: [Option<u32>; 32] = std::array::from_fn(|i| Some(perm[i]));
        prop_assert_eq!(warp_transactions(&words, 32), 1);
    }

    #[test]
    fn smem_transactions_invariant_under_lane_permutation(words in warp_words(), seed in 0u64..10_000) {
        let mut lanes: Vec<usize> = (0..32).collect();
        let mut state = seed | 1;
        for i in (1..32usize).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            lanes.swap(i, j);
        }
        let permuted: [Option<u32>; 32] = std::array::from_fn(|i| words[lanes[i]]);
        prop_assert_eq!(warp_transactions(&words, 32), warp_transactions(&permuted, 32));
    }

    #[test]
    fn coalescer_counts_exactly_the_distinct_sectors(addrs in warp_addrs()) {
        let mut expected: Vec<u64> = addrs
            .iter()
            .flatten()
            .flat_map(|&a| vec![a / 32, (a + 3) / 32])
            .collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(warp_transaction_count(&addrs, 4, 32) as usize, expected.len());
    }

    #[test]
    fn coalescer_sector_list_is_unique_and_aligned(addrs in warp_addrs()) {
        let mut buf = [0u64; MAX_SECTORS_PER_WARP * 2];
        let sectors = warp_sectors(&addrs, 16, 32, &mut buf).to_vec();
        let mut sorted = sectors.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), sectors.len(), "duplicates in sector list");
        for s in &sectors {
            prop_assert_eq!(s % 32, 0);
        }
    }

    #[test]
    fn vector_width_never_reduces_sector_count(addrs in warp_addrs()) {
        // A 16B access per lane covers at least the sectors of a 4B
        // access at the same base.
        let narrow = warp_transaction_count(&addrs, 4, 32);
        let wide = warp_transaction_count(&addrs, 16, 32);
        prop_assert!(wide >= narrow);
    }

    #[test]
    fn cache_conservation_laws(ops in proptest::collection::vec((any::<bool>(), 0u64..(1 << 14)), 1..400)) {
        let mut c = Cache::new(4096, 4, 32);
        for (is_write, addr) in &ops {
            if *is_write {
                c.write(*addr);
            } else {
                c.read(*addr);
            }
        }
        let s = c.stats();
        prop_assert_eq!(s.read_hits + s.read_misses, s.read_accesses);
        prop_assert_eq!(s.write_hits + s.write_misses, s.write_accesses);
        // Write-backs can never exceed total writes (each write dirties
        // at most one line; flushes clean them).
        let flushed = c.flush_dirty();
        prop_assert!(c.stats().write_backs <= s.write_accesses);
        prop_assert!(flushed <= s.write_accesses);
        // Second flush is a no-op.
        prop_assert_eq!(c.flush_dirty(), 0);
    }

    #[test]
    fn cache_matches_reference_model(geometry in cache_geometry(), ops in cache_ops()) {
        let (capacity, assoc, line, hashed) = geometry;
        let (mut c, mut r) = if hashed {
            (Cache::new_hashed(capacity, assoc, line), reference::RefCache::build(capacity, assoc, line, true))
        } else {
            (Cache::new(capacity, assoc, line), reference::RefCache::build(capacity, assoc, line, false))
        };
        prop_assert_eq!(c.capacity_bytes(), r.capacity_bytes());
        for (i, &raw) in ops.iter().enumerate() {
            let op = cache_op(raw, geometry);
            match op {
                CacheOp::Read(addr) => prop_assert_eq!(c.read(addr), r.access(addr, false), "op {} {:?}", i, op),
                CacheOp::Write(addr) => prop_assert_eq!(c.write(addr), r.access(addr, true), "op {} {:?}", i, op),
                CacheOp::InvalidateAddr(addr) => {
                    c.invalidate_addr(addr);
                    r.invalidate_addr(addr);
                }
                CacheOp::Flush => prop_assert_eq!(c.flush_dirty(), r.flush_dirty(), "op {}", i),
                CacheOp::Invalidate => {
                    c.invalidate();
                    r.invalidate();
                }
                CacheOp::Reset => {
                    c.reset();
                    r.reset();
                }
            }
            prop_assert_eq!(c.stats(), r.stats(), "op {} {:?}", i, op);
        }
        prop_assert_eq!(c.flush_dirty(), r.flush_dirty());
        prop_assert_eq!(c.stats(), r.stats());
    }

    /// After random operations and a flush, a snapshot restored into
    /// a fresh cache continues exactly as the original: every access,
    /// flush count and statistic over the same random operations. Only
    /// a hashed index or a line past `u32::MAX` sets has no snapshot
    /// (regions 0–2 of [`cache_op`] keep the quotients small unless a
    /// set count of one meets region 2).
    #[test]
    fn a_restored_snapshot_continues_as_the_original(
        geometry in cache_geometry(),
        before in cache_ops(),
        after in cache_ops(),
    ) {
        let (capacity, assoc, line, hashed) = geometry;
        let build = || if hashed {
            Cache::new_hashed(capacity, assoc, line)
        } else {
            Cache::new(capacity, assoc, line)
        };
        let low = |(kind, region, set, way, byte): (u32, usize, u64, u64, u64)| {
            cache_op((kind, region % 3, set, way, byte), geometry)
        };
        let mut c = build();
        for &raw in &before {
            apply(&mut c, low(raw));
        }
        c.flush_dirty();
        let sets = capacity / u64::from(line) / u64::from(assoc);
        match c.snapshot() {
            None => prop_assert!(hashed || sets == 1, "a plain cache of {} sets has a snapshot", sets),
            Some(snap) => {
                prop_assert!(!hashed);
                let mut r = build();
                r.restore(&snap);
                let mut base = c.stats();
                for (i, &raw) in after.iter().enumerate() {
                    let op = low(raw);
                    prop_assert_eq!(apply(&mut c, op), apply(&mut r, op), "op {} {:?}", i, op);
                    if matches!(op, CacheOp::Reset) {
                        base = CacheStats::default();
                    }
                    prop_assert_eq!(stats_since(c.stats(), base), r.stats(), "op {} {:?}", i, op);
                }
            }
        }
    }

    #[test]
    fn cache_working_set_within_capacity_has_no_capacity_misses(
        lines in 1usize..32,
        passes in 2usize..5,
    ) {
        // Touch `lines` distinct sectors repeatedly: with LRU and
        // capacity 128 lines, ≤ 32 lines always fit.
        let mut c = Cache::new(4096, 4, 32);
        let mut misses_after_first = 0;
        for pass in 0..passes {
            for i in 0..lines {
                let before = c.stats().read_misses;
                c.read((i * 32) as u64);
                if pass > 0 {
                    misses_after_first += c.stats().read_misses - before;
                }
            }
        }
        prop_assert_eq!(misses_after_first, 0);
    }

    #[test]
    fn occupancy_is_monotone_in_resources(
        threads_exp in 5u32..10,
        regs in 16u32..255,
        smem in 0u32..48_000,
    ) {
        let dev = DeviceConfig::gtx970();
        let threads = 1 << threads_exp;
        let base = occupancy(&dev, &KernelResources { threads_per_block: threads, regs_per_thread: regs, smem_bytes_per_block: smem });
        // More registers can never increase occupancy.
        if regs + 8 <= 255 {
            let more_regs = occupancy(&dev, &KernelResources { threads_per_block: threads, regs_per_thread: regs + 8, smem_bytes_per_block: smem });
            prop_assert!(more_regs.blocks_per_sm <= base.blocks_per_sm);
        }
        // More shared memory can never increase occupancy.
        if smem + 1024 <= 48 * 1024 {
            let more_smem = occupancy(&dev, &KernelResources { threads_per_block: threads, regs_per_thread: regs, smem_bytes_per_block: smem + 1024 });
            prop_assert!(more_smem.blocks_per_sm <= base.blocks_per_sm);
        }
        // Fraction is consistent with warp counts.
        prop_assert!((base.fraction - base.warps_per_sm as f64 / 64.0).abs() < 1e-12);
        // Hardware limits always hold.
        prop_assert!(base.threads_per_sm <= dev.max_threads_per_sm);
        prop_assert!(base.blocks_per_sm <= dev.max_blocks_per_sm);
    }
}
