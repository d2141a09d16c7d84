//! The plan cache: LRU-evicted `A`-side precomputation per corpus.
//!
//! Keyed by `(source-set id, M, K, h)` — everything the cached
//! [`SourcePlan`] (packed `A` + row square norms) is valid for. The
//! cache is the cross-request analogue of the paper's intra-kernel
//! reuse: a hit skips the `O(M·K)` host pack/norms pass *and* lets the
//! GPU path skip the `norms(A)` kernel launch entirely.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use ks_core::plan::{SourcePlan, SourceSet, SourceSetId};
use ks_gpu_kernels::TileGeometry;

use crate::admission::{AdmissionKey, AdmissionStats, AdmissionVerdict};

/// Cache key: the corpus identity plus every parameter the plan
/// depends on (dimensions pin the id against corpus reuse across
/// rebuilds; `h` is carried bit-exactly so distinct bandwidths never
/// alias).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Corpus identity.
    pub source: SourceSetId,
    /// Source count `M`.
    pub m: usize,
    /// Point dimension `K`.
    pub k: usize,
    /// Gaussian bandwidth, bit-exact.
    pub h_bits: u32,
}

impl PlanKey {
    /// Builds the key for a corpus/bandwidth pair.
    #[must_use]
    pub fn new(source: &SourceSet, h: f32) -> Self {
        Self {
            source: source.id(),
            m: source.len(),
            k: source.dim(),
            h_bits: h.to_bits(),
        }
    }
}

/// Hit/miss/eviction counters. `hits + misses` equals the number of
/// [`PlanCache::get_or_build`] calls.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build the plan.
    pub misses: u64,
    /// Entries displaced by the LRU policy.
    pub evictions: u64,
}

impl PlanCacheStats {
    /// Total lookups.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when unused).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            return 0.0;
        }
        self.hits as f64 / self.accesses() as f64
    }
}

/// Sentinel index terminating the recency list.
const NIL: usize = usize::MAX;

/// One slab slot of the recency list.
struct Entry<K> {
    key: K,
    plan: Arc<SourcePlan>,
    /// Towards LRU.
    prev: usize,
    /// Towards MRU.
    next: usize,
}

/// A bounded LRU map from a key to shared [`SourcePlan`]s, the one
/// LRU behind both the server's [`PlanCache`] and the pool's
/// per-device [`ShardPlanCache`]s.
///
/// Recency is an intrusive doubly-linked list threaded through a slab
/// of entries, with the key map pointing at slab slots — every
/// operation (hit touch, miss insert, eviction) is O(1), so cache
/// maintenance stays negligible however many corpora a device pool
/// keeps warm.
struct Lru<K> {
    capacity: usize,
    map: HashMap<K, usize>,
    slab: Vec<Entry<K>>,
    /// Recycled slab slots.
    free: Vec<usize>,
    /// Least-recently-used slot.
    head: usize,
    /// Most-recently-used slot.
    tail: usize,
    stats: PlanCacheStats,
}

impl<K: Copy + Eq + Hash> Lru<K> {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache capacity must be positive");
        Self {
            capacity,
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: PlanCacheStats::default(),
        }
    }

    /// Detaches slot `idx` from the recency list.
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    /// Appends slot `idx` at the MRU end.
    fn push_mru(&mut self, idx: usize) {
        self.slab[idx].prev = self.tail;
        self.slab[idx].next = NIL;
        if self.tail == NIL {
            self.head = idx;
        } else {
            self.slab[self.tail].next = idx;
        }
        self.tail = idx;
    }

    /// Looks up `key`, inserting `make()` on a miss. Returns the plan
    /// and whether it was a hit. Eviction is strict LRU over these
    /// accesses.
    fn get_or_insert_with(
        &mut self,
        key: K,
        make: impl FnOnce() -> Arc<SourcePlan>,
    ) -> (Arc<SourcePlan>, bool) {
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.push_mru(idx);
            self.stats.hits += 1;
            return (Arc::clone(&self.slab[idx].plan), true);
        }
        self.stats.misses += 1;
        if self.map.len() >= self.capacity {
            let victim = self.head;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
            self.stats.evictions += 1;
        }
        let plan = make();
        let entry = Entry {
            key,
            plan: Arc::clone(&plan),
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.push_mru(idx);
        self.map.insert(key, idx);
        (plan, false)
    }

    fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }
}

/// A bounded LRU map from [`PlanKey`] to shared [`SourcePlan`]s.
pub struct PlanCache {
    lru: Lru<PlanKey>,
    /// Static-admission verdict memo. A verdict depends only on the
    /// padded launch geometry (and the device model, fixed per
    /// server), so unlike plans there is no LRU pressure: distinct
    /// padded shapes number in the handfuls.
    admission: CappedMemo<AdmissionKey, Arc<AdmissionVerdict>>,
    admission_rejects: u64,
    /// Winning-geometry memo: the tile geometry the server resolved
    /// for a raw batch shape `(M, N, K)` on this server's device.
    geometry: CappedMemo<(usize, usize, usize), (TileGeometry, Option<TileGeometry>)>,
}

/// Counters of the winning-geometry memo.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GeometryStats {
    /// Fresh resolutions (pick-table consultations).
    pub resolves: u64,
    /// Resolutions served from the memo.
    pub hits: u64,
}

/// Hit/miss counters of a [`CappedMemo`], one per lookup.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoStats {
    /// Lookups served from the memo.
    pub(crate) hits: u64,
    /// Lookups that found nothing and computed the value.
    pub(crate) misses: u64,
}

/// Entry bound of every [`CappedMemo`].
const MEMO_CAP: usize = 256;

/// A memo of values that are pure functions of their key, bounded by
/// [`MEMO_CAP`] entries. Reaching the bound clears it: its values are
/// cheap to recompute next to LRU bookkeeping, and distinct keys
/// number in the handfuls, so only a degenerate stream of shapes
/// ever fills it.
pub(crate) struct CappedMemo<K, V> {
    map: HashMap<K, V>,
    stats: MemoStats,
}

impl<K: Eq + Hash, V: Clone> CappedMemo<K, V> {
    pub(crate) fn new() -> Self {
        Self {
            map: HashMap::new(),
            stats: MemoStats::default(),
        }
    }

    /// The value memoised for `key`, counting the lookup as a hit or
    /// a miss.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        let value = self.map.get(key).cloned();
        if value.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        value
    }

    /// Memoises `value` for `key`, clearing the memo first when full.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.map.len() >= MEMO_CAP {
            self.map.clear();
        }
        self.map.insert(key, value);
    }

    /// The value memoised for `key`, computed by `make` and memoised
    /// on a miss; the flag says whether it was a hit.
    fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> (V, bool) {
        if let Some(value) = self.get(&key) {
            return (value, true);
        }
        let value = make();
        self.insert(key, value.clone());
        (value, false)
    }

    pub(crate) fn stats(&self) -> MemoStats {
        self.stats
    }
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            lru: Lru::new(capacity),
            admission: CappedMemo::new(),
            admission_rejects: 0,
            geometry: CappedMemo::new(),
        }
    }

    /// Looks up the winning tile geometry (and its bit-compatible
    /// low-power alternative) for a raw batch shape, resolving and
    /// memoizing on a miss — warm shapes pay one hash lookup and never
    /// re-consult the pick table.
    pub fn geometry_for(
        &mut self,
        shape: (usize, usize, usize),
        resolve: impl FnOnce() -> (TileGeometry, Option<TileGeometry>),
    ) -> (TileGeometry, Option<TileGeometry>) {
        self.geometry.get_or_insert_with(shape, resolve).0
    }

    /// Geometry-memo counter snapshot.
    #[must_use]
    pub fn geometry_stats(&self) -> GeometryStats {
        let MemoStats { hits, misses } = self.geometry.stats();
        GeometryStats {
            resolves: misses,
            hits,
        }
    }

    /// Looks up the static-admission verdict for `key`, computing and
    /// memoizing it on a miss. Returns the verdict and whether it was
    /// served from the memo — a warm shape pays one hash lookup and
    /// runs no analysis.
    pub fn admission(
        &mut self,
        key: AdmissionKey,
        check: impl FnOnce() -> AdmissionVerdict,
    ) -> (Arc<AdmissionVerdict>, bool) {
        self.admission.get_or_insert_with(key, || Arc::new(check()))
    }

    /// Records one batch denied the GPU by a static-admission reject.
    pub fn note_admission_reject(&mut self) {
        self.admission_rejects += 1;
    }

    /// Admission-memo counter snapshot.
    #[must_use]
    pub fn admission_stats(&self) -> AdmissionStats {
        let MemoStats { hits, misses } = self.admission.stats();
        AdmissionStats {
            checks: misses,
            hits,
            rejects: self.admission_rejects,
        }
    }

    /// Looks up `key`, building (and inserting) the plan on a miss.
    /// Returns the plan and whether it was a hit. Eviction is strict
    /// LRU over `get_or_build` accesses.
    pub fn get_or_build(
        &mut self,
        key: PlanKey,
        build: impl FnOnce() -> SourcePlan,
    ) -> (Arc<SourcePlan>, bool) {
        self.lru.get_or_insert_with(key, || Arc::new(build()))
    }

    /// True if `key` is currently cached (no recency effect).
    #[must_use]
    pub fn contains(&self, key: &PlanKey) -> bool {
        self.lru.contains(key)
    }

    /// Cached plan count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lru.map.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lru.map.is_empty()
    }

    /// The configured bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.lru.capacity
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> PlanCacheStats {
        self.lru.stats
    }
}

/// Key of the pool's per-device shard-plan caches: the batch-level
/// plan key plus the shard's full row range. Both endpoints matter —
/// shards of one corpus share a start row whenever an eviction or
/// readmission re-plans the shard count (`0..128` in a four-way split,
/// `0..256` in the three-way split that replaces it), and equal-length
/// shards share an extent — so either alone would alias.
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
pub(crate) struct ShardKey {
    pub(crate) plan: PlanKey,
    pub(crate) row0: usize,
    pub(crate) rows: usize,
}

/// One pool device's resident plans: which `A` panels (row shards, or
/// whole corpora a packed segment uploaded) the device holds, so a
/// placement there skips the `A`+norms upload. Residency only prices
/// transfers; the norms path is always the server's plan-cache verdict.
pub(crate) struct ShardPlanCache {
    lru: Lru<ShardKey>,
}

impl ShardPlanCache {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            lru: Lru::new(capacity),
        }
    }

    /// True if the device holds `key` (no recency effect).
    pub(crate) fn contains(&self, key: &ShardKey) -> bool {
        self.lru.contains(key)
    }

    /// Returns `(shard plan, was resident)`, slicing `full` on a miss.
    pub(crate) fn get_or_slice(
        &mut self,
        key: ShardKey,
        full: &SourcePlan,
        rows: std::ops::Range<usize>,
    ) -> (Arc<SourcePlan>, bool) {
        self.lru
            .get_or_insert_with(key, || Arc::new(full.shard(rows)))
    }

    /// Marks a whole plan resident; returns whether it already was.
    pub(crate) fn hold(&mut self, key: ShardKey, plan: &Arc<SourcePlan>) -> bool {
        self.lru.get_or_insert_with(key, || Arc::clone(plan)).1
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        self.lru.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_core::problem::PointSet;

    fn corpus(n: usize, seed: u64) -> SourceSet {
        SourceSet::new(PointSet::uniform_cube(n, 4, seed))
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let (a, b, c) = (corpus(8, 1), corpus(8, 2), corpus(8, 3));
        let (ka, kb, kc) = (
            PlanKey::new(&a, 1.0),
            PlanKey::new(&b, 1.0),
            PlanKey::new(&c, 1.0),
        );
        let mut cache = PlanCache::new(2);
        let (_, hit) = cache.get_or_build(ka, || SourcePlan::build(a.points()));
        assert!(!hit);
        let (_, hit) = cache.get_or_build(kb, || SourcePlan::build(b.points()));
        assert!(!hit);
        let (_, hit) = cache.get_or_build(ka, || SourcePlan::build(a.points()));
        assert!(hit, "a is warm");
        // Inserting c evicts b (LRU after a's touch), not a.
        let (_, hit) = cache.get_or_build(kc, || SourcePlan::build(c.points()));
        assert!(!hit);
        assert!(cache.contains(&ka));
        assert!(!cache.contains(&kb));
        assert_eq!(cache.len(), 2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1));
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn distinct_bandwidths_do_not_alias() {
        let a = corpus(8, 9);
        let mut cache = PlanCache::new(4);
        let _ = cache.get_or_build(PlanKey::new(&a, 0.5), || SourcePlan::build(a.points()));
        let (_, hit) = cache.get_or_build(PlanKey::new(&a, 0.7), || SourcePlan::build(a.points()));
        assert!(!hit, "different h is a different plan key");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = PlanCache::new(0);
    }

    #[test]
    fn shard_plan_cache_is_lru_and_range_keyed() {
        let pts = PointSet::uniform_cube(8, 3, 7);
        let full = SourcePlan::build(&pts);
        let source = PlanKey::new(&SourceSet::new(pts), 1.0);
        let key = |row0, rows| ShardKey {
            plan: source,
            row0,
            rows,
        };
        let mut cache = ShardPlanCache::new(3);
        // Equal-length shards at different offsets are distinct keys.
        let (_, hit) = cache.get_or_slice(key(0, 4), &full, 0..4);
        assert!(!hit);
        let (_, hit) = cache.get_or_slice(key(4, 4), &full, 4..8);
        assert!(!hit, "same length, different offset: no aliasing");
        let (p, hit) = cache.get_or_slice(key(0, 4), &full, 0..4);
        assert!(hit);
        assert_eq!(p.dims(), (4, 3));
        // Same start, different extent — what an eviction's re-plan
        // produces — must miss, not serve the stale shorter plan.
        let (p, hit) = cache.get_or_slice(key(0, 8), &full, 0..8);
        assert!(!hit, "same offset, different extent: no aliasing");
        assert_eq!(p.dims(), (8, 3));
        assert!(
            cache.hold(key(0, 8), &Arc::new(full)),
            "the whole plan is resident"
        );
        assert_eq!(cache.stats().evictions, 0);
    }
}
