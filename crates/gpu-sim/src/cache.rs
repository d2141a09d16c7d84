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
    /// Read hit rate in [0, 1]; 1.0 when there were no reads.
    #[must_use]
    pub fn read_hit_rate(&self) -> f64 {
        if self.read_accesses == 0 {
            1.0
        } else {
            self.read_hits as f64 / self.read_accesses as f64
        }
    }
}

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

/// Services one access against the ways of a single set.
///
/// LRU bookkeeping is **per set**: each set carries its own monotone
/// clock. Replacement only ever compares `lru` stamps within one set,
/// so per-set clocks are observably identical to a single global
/// clock (relative order within a set is preserved, and invalid lines
/// always lose the `min_by_key` because a valid stamp is ≥ 1).
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

/// A set-associative LRU cache over a flat byte address space.
pub struct Cache {
    lines: Vec<Line>,
    sets: usize,
    assoc: usize,
    line_bytes: u64,
    hashed_index: bool,
    /// One LRU clock per set (see [`access_set`]).
    clocks: Vec<u64>,
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

    /// Effective capacity in bytes after set rounding.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.assoc as u64 * self.line_bytes
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.lines.fill(INVALID);
        self.clocks.fill(0);
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_of(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr / self.line_bytes;
        let key = if self.hashed_index {
            // Fold high line-address bits into the index so strided
            // streams spread across all sets.
            line_addr ^ (line_addr >> 7) ^ (line_addr >> 14)
        } else {
            line_addr
        };
        let set = (key % self.sets as u64) as usize;
        (set, line_addr)
    }

    /// Services a read of the sector containing `addr`. A miss fills
    /// the line (counts one DRAM read) and may write back a dirty
    /// victim (counts one DRAM write).
    pub fn read(&mut self, addr: u64) -> Access {
        let (set, tag) = self.set_of(addr);
        access_set(
            &mut self.lines[set * self.assoc..(set + 1) * self.assoc],
            &mut self.clocks[set],
            &mut self.stats,
            tag,
            false,
        )
    }

    /// Services a write of the sector containing `addr`. Write misses
    /// allocate without a fill (write-validate); the data reaches DRAM
    /// when the dirty line is evicted or flushed.
    pub fn write(&mut self, addr: u64) -> Access {
        let (set, tag) = self.set_of(addr);
        access_set(
            &mut self.lines[set * self.assoc..(set + 1) * self.assoc],
            &mut self.clocks[set],
            &mut self.stats,
            tag,
            true,
        )
    }

    /// Writes back every dirty line (end-of-run accounting) and marks
    /// them clean. Returns the number of lines flushed.
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

    /// Invalidates everything without counting write-backs (used when a
    /// fresh logical device state is needed but statistics continue).
    pub fn invalidate(&mut self) {
        self.lines.fill(INVALID);
    }

    /// Invalidates the line holding `addr` if present (write-through
    /// no-allocate caches invalidate on store to stay coherent).
    pub fn invalidate_addr(&mut self, addr: u64) {
        let (set, tag) = self.set_of(addr);
        for line in &mut self.lines[set * self.assoc..(set + 1) * self.assoc] {
            if line.valid && line.tag == tag {
                *line = INVALID;
            }
        }
    }
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
    #[should_panic(expected = "capacity below one set")]
    fn rejects_capacity_below_one_set() {
        let _ = Cache::new(64, 16, 32);
    }
}
