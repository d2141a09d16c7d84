//! Set-associative write-back cache model (used for the unified L2).
//!
//! The L2 is modelled at **sector granularity** (32-byte lines): every
//! miss fill and every dirty write-back is exactly one DRAM
//! transaction, which matches how nvprof's `dram_read_transactions` /
//! `dram_write_transactions` counters relate to `l2_*_transactions`
//! on Maxwell. Replacement is true LRU within a set. Stores allocate
//! without a fill (GPU stores are write-validate: a full-sector store
//! does not need the old data), so a store miss costs a DRAM write
//! only when the victim line is dirty or at the final flush.
//!
//! Every simulated sector passes through [`Cache::read`] or
//! [`Cache::write`] (a memoized replay streams whole recorded blocks),
//! so the host representation is built for the lookup: each set's tags
//! are one contiguous run of words, beside a parallel run of LRU stamps
//! that carry the dirty bit; all-zero memory is an empty cache; and the
//! set index is a multiply by a precomputed reciprocal instead of a
//! divide. None of this is observable: every [`Access`], every
//! [`CacheStats`] field and every flush count are those of the plain
//! model with one record per line (see [`Cache`]).

/// Result of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Line present.
    Hit,
    /// Line absent; for reads this implies a fill from DRAM.
    Miss,
}

/// Running hit/miss/write-back statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses (sectors).
    pub read_accesses: u64,
    /// Read hits.
    pub read_hits: u64,
    /// Read misses (⇒ DRAM read transactions).
    pub read_misses: u64,
    /// Write accesses (sectors).
    pub write_accesses: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Write misses (allocated without fill).
    pub write_misses: u64,
    /// Dirty lines written back to DRAM on eviction or flush
    /// (⇒ DRAM write transactions).
    pub write_backs: u64,
}

impl CacheStats {
    /// Counts one access and its outcome.
    #[inline]
    fn count(&mut self, write: bool, access: Access) {
        let hit = access == Access::Hit;
        if write {
            self.write_accesses += 1;
            self.write_hits += u64::from(hit);
            self.write_misses += u64::from(!hit);
        } else {
            self.read_accesses += 1;
            self.read_hits += u64::from(hit);
            self.read_misses += u64::from(!hit);
        }
    }

    /// Read hit rate in [0, 1]; 1.0 when there were no reads.
    #[must_use]
    pub fn read_hit_rate(&self) -> f64 {
        if self.read_accesses == 0 {
            1.0
        } else {
            self.read_hits as f64 / self.read_accesses as f64
        }
    }

    /// What was counted between `before` and `self`.
    pub(crate) fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            read_accesses: self.read_accesses - before.read_accesses,
            read_hits: self.read_hits - before.read_hits,
            read_misses: self.read_misses - before.read_misses,
            write_accesses: self.write_accesses - before.write_accesses,
            write_hits: self.write_hits - before.write_hits,
            write_misses: self.write_misses - before.write_misses,
            write_backs: self.write_backs - before.write_backs,
        }
    }
}

/// Lemire's reciprocal of `sets` for [`reduce`]: `ceil(2^64 / sets)`,
/// which wraps to 0 for `sets == 1` (every key then reduces to set 0).
fn reciprocal(sets: u64) -> u64 {
    (u64::MAX / sets).wrapping_add(1)
}

/// `key % sets` without a divide when both fit in 32 bits (Lemire,
/// Kaser & Kurz, "Faster remainder by direct computation", 2019): the
/// low 64 bits of `magic * key` are the fractional part of
/// `key / sets`, and scaling them by `sets` yields the remainder
/// exactly for every 32-bit `key` and `sets`. Wider keys (line
/// addresses past 2^32: byte addresses past 2^37 with 32-byte lines)
/// take the divide.
#[inline]
fn reduce(key: u64, sets: u64, magic: u64) -> u64 {
    if (key | sets) <= u64::from(u32::MAX) {
        ((u128::from(magic.wrapping_mul(key)) * u128::from(sets)) >> 64) as u64
    } else {
        key % sets
    }
}

/// The low bit of a stamp word: the way holds data newer than DRAM's.
const DIRTY: u64 = 1;

/// The way of one set's `tags` and `stamps` holding `tag`, if any.
#[inline]
fn find(tags: &[u64], stamps: &[u64], tag: u64) -> Option<usize> {
    if tag != 0 {
        tags.iter().position(|&t| t == tag)
    } else {
        // Only the line at `u64::MAX` with 1-byte lines wraps to the
        // empty tag; a way holds it only if the way has a stamp.
        tags.iter()
            .zip(stamps)
            .position(|(&t, &s)| t == 0 && s != 0)
    }
}

/// A set-associative LRU cache over a flat byte address space.
///
/// The ways are stored as two parallel arrays, set after set: a lookup
/// scans one set's contiguous tags (a 16-way set is two host cache
/// lines) and only a miss scans the stamps. All-zero memory is an empty
/// cache, so construction is one zeroed allocation:
///
/// * `tags` hold `line_addr + 1`, so an empty way's 0 matches no line
///   (but the one at address `u64::MAX` with 1-byte lines, which the
///   lookup tells apart by its stamp);
/// * `stamps` hold the set clock at the way's last touch, shifted left
///   one, with the way's dirty bit below it. An empty way's word
///   is 0; a valid way's is ≥ 2, because the clock advances before it
///   is read.
///
/// LRU bookkeeping is **per set**: each set carries its own monotone
/// clock. Replacement only ever compares stamps within one set, so
/// per-set clocks are observably identical to a single global clock.
/// Valid stamps within a set are distinct, so the dirty bit never
/// decides an order. A miss evicts the first way with the smallest
/// stamp word: the first empty way if there is one, else the least
/// recently used line. That is the rule of the one-record-per-line
/// model this layout replaced (the first line by `min_by_key`, an
/// invalid line keyed 0, a valid one by its last touch), which
/// `tests/proptest_sim.rs` keeps as the reference.
pub struct Cache {
    /// `line_addr + 1` per way (0 when empty).
    tags: Vec<u64>,
    /// `clock << 1 | dirty` at the way's last touch (0 when empty).
    stamps: Vec<u64>,
    /// One LRU clock per set.
    clocks: Vec<u64>,
    sets: u64,
    /// [`reciprocal`] of `sets`.
    magic: u64,
    assoc: usize,
    line_shift: u32,
    hashed_index: bool,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache of `capacity_bytes` with `assoc` ways and
    /// `line_bytes` lines. Non-power-of-two set counts are kept exact
    /// (index = modulo), matching how GM204 hashes addresses across its
    /// non-power-of-two L2 slice count — and preserving the full
    /// 1.75 MB capacity Table I specifies.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero sizes, capacity
    /// smaller than one way of lines).
    #[must_use]
    pub fn new(capacity_bytes: u64, assoc: u32, line_bytes: u32) -> Self {
        Self::build(capacity_bytes, assoc, line_bytes, false)
    }

    /// Like [`Cache::new`] but with an XOR-hashed set index, as GPU
    /// L1s use to break power-of-two stride pathologies (a warp of
    /// row-strided accesses would otherwise alias into a handful of
    /// sets).
    #[must_use]
    pub fn new_hashed(capacity_bytes: u64, assoc: u32, line_bytes: u32) -> Self {
        Self::build(capacity_bytes, assoc, line_bytes, true)
    }

    fn build(capacity_bytes: u64, assoc: u32, line_bytes: u32, hashed_index: bool) -> Self {
        assert!(line_bytes > 0 && assoc > 0, "degenerate cache geometry");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let total_lines = capacity_bytes / u64::from(line_bytes);
        assert!(total_lines >= u64::from(assoc), "capacity below one set");
        let sets = total_lines / u64::from(assoc);
        let ways = (sets * u64::from(assoc)) as usize;
        Self {
            tags: vec![0; ways],
            stamps: vec![0; ways],
            clocks: vec![0; sets as usize],
            sets,
            magic: reciprocal(sets),
            assoc: assoc as usize,
            line_shift: line_bytes.trailing_zeros(),
            hashed_index,
            stats: CacheStats::default(),
        }
    }

    /// Effective capacity in bytes after set rounding.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.assoc as u64) << self.line_shift
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.invalidate();
        self.clocks.fill(0);
        self.stats = CacheStats::default();
    }

    /// The set holding `addr`, and the line's tag (`line_addr + 1`).
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        let key = if self.hashed_index {
            // Fold high line-address bits into the index so strided
            // streams spread across all sets.
            line_addr ^ (line_addr >> 7) ^ (line_addr >> 14)
        } else {
            line_addr
        };
        let set = reduce(key, self.sets, self.magic) as usize;
        (set, line_addr.wrapping_add(1))
    }

    /// One set's tags and stamps.
    #[inline]
    fn ways_mut(&mut self, set: usize) -> (&mut [u64], &mut [u64]) {
        let ways = set * self.assoc..(set + 1) * self.assoc;
        (&mut self.tags[ways.clone()], &mut self.stamps[ways])
    }

    /// Services one access, counting it in `stats` (a copy of
    /// `self.stats` the caller writes back, so a whole stream can keep
    /// the counters in registers).
    #[inline]
    fn access(&mut self, stats: &mut CacheStats, addr: u64, write: bool) -> Access {
        let (set, tag) = self.locate(addr);
        self.clocks[set] += 1;
        let now = self.clocks[set] << 1 | u64::from(write);
        let (tags, stamps) = self.ways_mut(set);
        if let Some(w) = find(tags, stamps, tag) {
            stamps[w] = now | (stamps[w] & DIRTY);
            stats.count(write, Access::Hit);
            return Access::Hit;
        }
        stats.count(write, Access::Miss);
        let (mut victim, mut oldest) = (0, stamps[0]);
        for (w, &s) in stamps.iter().enumerate().skip(1) {
            if s < oldest {
                (victim, oldest) = (w, s);
            }
        }
        stats.write_backs += oldest & DIRTY;
        tags[victim] = tag;
        stamps[victim] = now;
        Access::Miss
    }

    /// Services a read of the sector containing `addr`. A miss fills
    /// the line (counts one DRAM read) and may write back a dirty
    /// victim (counts one DRAM write).
    pub fn read(&mut self, addr: u64) -> Access {
        let mut stats = self.stats;
        let a = self.access(&mut stats, addr, false);
        self.stats = stats;
        a
    }

    /// Services a write of the sector containing `addr`. Write misses
    /// allocate without a fill (write-validate); the data reaches DRAM
    /// when the dirty line is evicted or flushed.
    pub fn write(&mut self, addr: u64) -> Access {
        let mut stats = self.stats;
        let a = self.access(&mut stats, addr, true);
        self.stats = stats;
        a
    }

    /// Services a stream of `(addr, write)` accesses in order, exactly
    /// as the same sequence of [`Cache::read`] and [`Cache::write`]
    /// calls would, with the statistics held in locals throughout.
    pub(crate) fn stream(&mut self, accesses: impl Iterator<Item = (u64, bool)>) {
        let mut stats = self.stats;
        for (addr, write) in accesses {
            self.access(&mut stats, addr, write);
        }
        self.stats = stats;
    }

    /// Writes back every dirty line (end-of-run accounting) and marks
    /// them clean. Returns the number of lines flushed.
    pub fn flush_dirty(&mut self) -> u64 {
        let mut n = 0;
        for s in &mut self.stamps {
            n += *s & DIRTY;
            *s &= !DIRTY;
        }
        self.stats.write_backs += n;
        n
    }

    /// Invalidates everything without counting write-backs (used when a
    /// fresh logical device state is needed but statistics continue).
    /// The per-set clocks keep running.
    pub fn invalidate(&mut self) {
        self.tags.fill(0);
        self.stamps.fill(0);
    }

    /// Invalidates the line holding `addr` if present (write-through
    /// no-allocate caches invalidate on store to stay coherent).
    pub fn invalidate_addr(&mut self, addr: u64) {
        let (set, tag) = self.locate(addr);
        let (tags, stamps) = self.ways_mut(set);
        if let Some(w) = find(tags, stamps, tag) {
            tags[w] = 0;
            stamps[w] = 0;
        }
    }

    /// The contents in compact form, or `None` when they have none: a
    /// dirty line (flush first), a hashed set index, or a line whose
    /// `line / sets + 1` passes `u32::MAX`.
    ///
    /// Only which lines each set holds and their recency order are
    /// observable (every [`Access`], [`CacheStats`] field and flush
    /// count follows from them), so a set is stored as its valid
    /// lines, least recently used first, each as `line / sets + 1`:
    /// the set index is the rest of the line address.
    #[must_use]
    pub fn snapshot(&self) -> Option<CacheSnapshot> {
        if self.hashed_index {
            return None;
        }
        let mut words = vec![0u32; self.tags.len()];
        let mut order: Vec<usize> = Vec::with_capacity(self.assoc);
        for (set, out) in words.chunks_exact_mut(self.assoc).enumerate() {
            let ways = set * self.assoc..(set + 1) * self.assoc;
            let (tags, stamps) = (&self.tags[ways.clone()], &self.stamps[ways]);
            order.clear();
            order.extend((0..self.assoc).filter(|&w| stamps[w] != 0));
            order.sort_unstable_by_key(|&w| stamps[w]);
            for (slot, &w) in out.iter_mut().zip(&order) {
                if stamps[w] & DIRTY != 0 {
                    return None;
                }
                let quotient = tags[w].wrapping_sub(1) / self.sets;
                *slot = u32::try_from(quotient.checked_add(1)?).ok()?;
            }
        }
        Some(CacheSnapshot {
            sets: self.sets,
            words: words.into(),
        })
    }

    /// Replaces the contents with `snap`'s, leaving the statistics
    /// untouched. Each set's lines go into its first ways with
    /// ascending stamps, so the restored cache decides every later
    /// access as the one the snapshot was taken of.
    ///
    /// # Panics
    /// Panics when `snap` was taken of a cache of another geometry.
    pub fn restore(&mut self, snap: &CacheSnapshot) {
        assert!(
            snap.sets == self.sets && snap.words.len() == self.tags.len() && !self.hashed_index,
            "snapshot of another cache geometry"
        );
        for (set, lines) in snap.words.chunks_exact(self.assoc).enumerate() {
            let mut valid = 0;
            let (tags, stamps) = self.ways_mut(set);
            for (w, &q) in lines.iter().enumerate() {
                if q == 0 {
                    tags[w] = 0;
                    stamps[w] = 0;
                } else {
                    tags[w] = (u64::from(q) - 1) * snap.sets + set as u64 + 1;
                    stamps[w] = (w as u64 + 1) << 1;
                    valid = w as u64 + 1;
                }
            }
            self.clocks[set] = valid;
        }
    }

    /// Counts `delta` as if its accesses had just been serviced.
    pub(crate) fn add_stats(&mut self, delta: &CacheStats) {
        let s = &mut self.stats;
        s.read_accesses += delta.read_accesses;
        s.read_hits += delta.read_hits;
        s.read_misses += delta.read_misses;
        s.write_accesses += delta.write_accesses;
        s.write_hits += delta.write_hits;
        s.write_misses += delta.write_misses;
        s.write_backs += delta.write_backs;
    }
}

/// A clean cache's contents, 4 bytes per way (see [`Cache::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    sets: u64,
    /// `assoc` words per set: its valid lines' `line / sets + 1`, least
    /// recently used first, then zeros.
    words: Box<[u32]>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_keeps_exact_capacity() {
        // GTX970 L2: 1.75MB / 32B / 16 ways = 3584 sets, kept exactly.
        let c = Cache::new(1792 * 1024, 16, 32);
        assert_eq!(c.capacity_bytes(), 1792 * 1024);
    }

    #[test]
    fn repeated_read_hits() {
        let mut c = Cache::new(1024, 2, 32);
        assert_eq!(c.read(0x40), Access::Miss);
        assert_eq!(c.read(0x40), Access::Hit);
        assert_eq!(c.read(0x5f), Access::Hit); // same 32B sector
        assert_eq!(c.read(0x60), Access::Miss); // next sector
        let s = c.stats();
        assert_eq!(s.read_hits, 2);
        assert_eq!(s.read_misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2 ways, 32B lines, 2 sets (128B capacity).
        let mut c = Cache::new(128, 2, 32);
        // Set 0 gets line addrs 0, 2, 4 (addr 0, 64, 128).
        assert_eq!(c.read(0), Access::Miss);
        assert_eq!(c.read(64), Access::Miss);
        assert_eq!(c.read(0), Access::Hit); // 0 is now MRU
        assert_eq!(c.read(128), Access::Miss); // evicts 64
        assert_eq!(c.read(0), Access::Hit);
        assert_eq!(c.read(64), Access::Miss); // was evicted
    }

    #[test]
    fn write_miss_allocates_without_fill_and_writes_back_on_eviction() {
        let mut c = Cache::new(128, 2, 32);
        assert_eq!(c.write(0), Access::Miss);
        assert_eq!(c.stats().write_backs, 0, "no fill, no write-back yet");
        assert_eq!(c.write(64), Access::Miss);
        assert_eq!(c.read(128), Access::Miss); // evicts dirty 0
        assert_eq!(c.stats().write_backs, 1);
    }

    #[test]
    fn flush_counts_remaining_dirty_lines() {
        let mut c = Cache::new(1024, 4, 32);
        c.write(0);
        c.write(32);
        c.write(64);
        c.read(96);
        assert_eq!(c.flush_dirty(), 3);
        assert_eq!(c.flush_dirty(), 0, "second flush is a no-op");
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = Cache::new(1024, 4, 32);
        c.read(0); // clean fill
        c.write(0); // hit, now dirty
        assert_eq!(c.stats().write_hits, 1);
        assert_eq!(c.flush_dirty(), 1);
    }

    #[test]
    fn reset_clears_stats_and_contents() {
        let mut c = Cache::new(1024, 4, 32);
        c.read(0);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.read(0), Access::Miss);
    }

    #[test]
    fn streaming_larger_than_capacity_always_misses() {
        let mut c = Cache::new(1024, 4, 32);
        // Stream 4KB twice: second pass still misses (capacity 1KB).
        for pass in 0..2 {
            for i in 0..128u64 {
                assert_eq!(c.read(i * 32), Access::Miss, "pass {pass} i {i}");
            }
        }
        assert_eq!(c.stats().read_hits, 0);
    }

    #[test]
    fn working_set_within_capacity_hits_on_second_pass() {
        let mut c = Cache::new(4096, 4, 32);
        for i in 0..64u64 {
            c.read(i * 32);
        }
        for i in 0..64u64 {
            assert_eq!(c.read(i * 32), Access::Hit);
        }
    }

    #[test]
    fn hit_rate_helper() {
        let mut c = Cache::new(1024, 4, 32);
        c.read(0);
        c.read(0);
        assert!((c.stats().read_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().read_hit_rate(), 1.0);
    }

    #[test]
    fn top_line_of_one_byte_lines_is_not_an_empty_way() {
        // With 1-byte lines the line at `u64::MAX` encodes to the
        // empty tag, 0.
        let mut c = Cache::new(64, 4, 1);
        assert_eq!(c.read(u64::MAX), Access::Miss);
        assert_eq!(c.read(u64::MAX), Access::Hit);
        assert_eq!(c.write(u64::MAX - 4), Access::Miss);
        c.invalidate_addr(u64::MAX);
        assert_eq!(c.write(u64::MAX), Access::Miss);
        assert_eq!(c.write(u64::MAX), Access::Hit);
        assert_eq!(c.flush_dirty(), 2);
        let s = c.stats();
        assert_eq!((s.read_hits, s.read_misses), (1, 1));
        assert_eq!((s.write_hits, s.write_misses), (1, 2));
    }

    #[test]
    fn reciprocal_set_index_equals_modulo() {
        for sets in [1u64, 2, 3, 7, 3584, 28672] {
            let magic = reciprocal(sets);
            let edges = [
                0,
                sets - 1,
                sets,
                u64::from(u32::MAX),
                1 << 32,
                u64::MAX >> 5,
            ];
            let sweep = (0..=u64::from(u32::MAX)).step_by(65_521);
            for key in edges.into_iter().chain(sweep) {
                assert_eq!(
                    reduce(key, sets, magic),
                    key % sets,
                    "key {key} sets {sets}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity below one set")]
    fn rejects_capacity_below_one_set() {
        let _ = Cache::new(64, 16, 32);
    }
}
