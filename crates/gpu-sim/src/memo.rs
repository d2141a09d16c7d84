//! The cross-launch replay memo (DESIGN.md §10 part 5).
//!
//! Replay reads addresses only, so what a launch does to the memory
//! system — its counters, its L2 statistics and the L2 it leaves — is a
//! function of the L2 it enters and of its block streams, never of the
//! data, the fault draw or the timing model. A [`ReplayMemo`] maps
//! (the device's L2 state id, the kernel's
//! [`crate::kernel::Kernel::traffic_key`], the launch config) to those
//! three things, so a launch repeated from the same L2 state replays
//! once. Devices share one memo through an `Arc`
//! ([`crate::device::GpuDevice::with_memo`]); each still computes its
//! own timing from the kernel's hints and its own `TimingParams`.
//!
//! **State ids.** A fresh device, and one after `invalidate_l2`, is in
//! its configuration's empty state. A keyed launch, hit or miss, moves
//! the id to the hash of (id, key, launch config). Everything else that
//! changes the L2 outside that chain — `run_counted` or a keyless
//! launch — leaves the id unknown, and so does every launch on a device
//! with per-SM L1s, which never uses the memo. An unknown id never
//! hits.
//!
//! **Trust.** A declared key is a claim. A miss stores a digest of the
//! launch's first block as recorded (counters and L2 sector stream),
//! taken from the replay's own recording of that block when it made
//! one; the first hit on the entry records that block again and
//! compares. A mismatch retires the entry and the launch replays.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::buffer::GlobalMem;
use crate::cache::{CacheSnapshot, CacheStats};
use crate::config::DeviceConfig;
use crate::dim::LaunchConfig;
use crate::kernel::Kernel;
use crate::profiler::Counters;
use crate::replay::record_block;
use crate::traffic::L2Event;

/// Entry bound; a store into a full memo evicts the least recently
/// used entry (by hit or store). A paper point stores five entries,
/// `ks-bench sensitivity` ten, and a serving slot at most 20 over one
/// round of a benchmark serving workload.
const CAPACITY: usize = 32;

/// Hashes `parts` into a 64-bit key: a kernel's
/// [`crate::kernel::Kernel::traffic_key`], or a state id.
#[must_use]
pub fn key_of(parts: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

/// The state id of an empty L2 on `cfg`. It covers what replay reads
/// from the configuration, so devices of different memory systems
/// never share an entry.
pub(crate) fn empty_state(cfg: &DeviceConfig) -> u64 {
    key_of(&(cfg.l2_bytes, cfg.l2_assoc, cfg.sector_bytes, cfg.smem_banks))
}

/// One launch as the memo knows it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    state: u64,
    traffic: u64,
    launch: LaunchConfig,
}

impl MemoKey {
    /// A launch of `kernel` from L2 state `state`, or `None` when the
    /// kernel declares no traffic key.
    pub(crate) fn of(state: u64, kernel: &dyn Kernel, mem: &GlobalMem) -> Option<Self> {
        Some(Self {
            state,
            traffic: kernel.traffic_key(mem)?,
            launch: kernel.launch_config(),
        })
    }

    /// The id of the L2 state this launch leaves.
    pub(crate) fn leaves(&self) -> u64 {
        key_of(self)
    }
}

/// What a memoised launch did to the memory system.
pub(crate) struct Recall {
    /// The launch's counters (compute, shared and global).
    pub(crate) counters: Counters,
    /// Its L2 statistics, kernel-boundary flush included.
    pub(crate) delta: CacheStats,
    /// The L2 it left, flushed.
    pub(crate) leaves: CacheSnapshot,
    /// [`first_block_digest`] of the launch.
    pub(crate) digest: u64,
}

/// Digest of one block's recording: its counters and its L2 sector
/// stream.
pub(crate) fn digest_of(counters: &Counters, events: &[L2Event]) -> u64 {
    let mut h = DefaultHasher::new();
    counters.hash(&mut h);
    for e in events {
        (e.addr, e.write).hash(&mut h);
    }
    h.finish()
}

/// [`digest_of`] `kernel`'s first block as recorded on `mem`.
pub(crate) fn first_block_digest(mem: &GlobalMem, cfg: &DeviceConfig, kernel: &dyn Kernel) -> u64 {
    let first = kernel
        .launch_config()
        .grid
        .iter_indices()
        .next()
        .expect("a validated launch has a block");
    let (counters, events) = record_block(mem, cfg, kernel, first, 0);
    digest_of(&counters, &events)
}

/// Lookup counters of a [`ReplayMemo`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplayMemoStats {
    /// Launches that restored a memoised L2 instead of replaying.
    pub hits: u64,
    /// Keyed launches from a known state that replayed.
    pub misses: u64,
    /// Entries retired because a launch's first block disagreed with
    /// their digest (each also counts as a miss).
    pub retired: u64,
}

/// One memoised launch.
struct Entry {
    recall: Arc<Recall>,
    /// Whether a hit has checked its digest.
    checked: bool,
    /// The clock at its last hit or store.
    used: u64,
}

#[derive(Default)]
struct Entries {
    map: HashMap<MemoKey, Entry>,
    /// Ticks on every hit and store.
    clock: u64,
    stats: ReplayMemoStats,
}

impl Entries {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// A replay memo shared by devices (see the module docs).
#[derive(Default)]
pub struct ReplayMemo {
    entries: Mutex<Entries>,
}

impl ReplayMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookup counters so far.
    #[must_use]
    pub fn stats(&self) -> ReplayMemoStats {
        self.lock().stats
    }

    fn lock(&self) -> MutexGuard<'_, Entries> {
        self.entries
            .lock()
            .expect("a replay memo lock holder panicked")
    }

    /// The entry for `key`, or `None` (a miss). An entry's first hit
    /// compares its digest with `digest()`, computed outside the lock,
    /// and retires the entry when they differ.
    pub(crate) fn recall(
        &self,
        key: &MemoKey,
        digest: impl FnOnce() -> u64,
    ) -> Option<Arc<Recall>> {
        let found = self
            .lock()
            .map
            .get(key)
            .map(|e| (Arc::clone(&e.recall), e.checked));
        let found = found.map(|(recall, checked)| (checked || digest() == recall.digest, recall));
        let mut entries = self.lock();
        let Some((trusted, recall)) = found else {
            entries.stats.misses += 1;
            return None;
        };
        let used = entries.tick();
        // The entry may have been replaced or evicted meanwhile.
        if let Some(entry) = entries
            .map
            .get_mut(key)
            .filter(|e| Arc::ptr_eq(&e.recall, &recall))
        {
            entry.checked = true;
            entry.used = used;
            if !trusted {
                entries.map.remove(key);
            }
        }
        entries.stats.hits += u64::from(trusted);
        entries.stats.misses += u64::from(!trusted);
        entries.stats.retired += u64::from(!trusted);
        trusted.then_some(recall)
    }

    /// Stores what a launch under `key` did, evicting the least
    /// recently used entry first when the memo is full.
    pub(crate) fn store(&self, key: MemoKey, recall: Recall) {
        let mut entries = self.lock();
        if entries.map.len() >= CAPACITY && !entries.map.contains_key(&key) {
            let lru = entries
                .map
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| *k);
            if let Some(lru) = lru {
                entries.map.remove(&lru);
            }
        }
        let used = entries.tick();
        let entry = Entry {
            recall: Arc::new(recall),
            checked: false,
            used,
        };
        entries.map.insert(key, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;

    fn key(traffic: u64) -> MemoKey {
        MemoKey {
            state: 0,
            traffic,
            launch: LaunchConfig::new(1u32, 32u32),
        }
    }

    fn recall() -> Recall {
        Recall {
            counters: Counters::default(),
            delta: CacheStats::default(),
            leaves: Cache::new(1024, 4, 32).snapshot().expect("a clean cache"),
            digest: 0,
        }
    }

    /// A full memo evicts its least recently used entry, so an entry
    /// hit before every store outlives any number of other stores.
    #[test]
    fn an_entry_hit_before_each_store_survives_a_full_memo() {
        let memo = ReplayMemo::new();
        memo.store(key(0), recall());
        let stores = CAPACITY as u64 + 1;
        for traffic in 1..=stores {
            assert!(memo.recall(&key(0), || 0).is_some(), "store {traffic}");
            memo.store(key(traffic), recall());
        }
        assert!(memo.recall(&key(0), || 0).is_some());
        assert_eq!(memo.lock().map.len(), CAPACITY);
        // The two stores past the bound evicted the two oldest others.
        assert!(memo.recall(&key(1), || 0).is_none());
        assert!(memo.recall(&key(2), || 0).is_none());
        assert!(memo.recall(&key(3), || 0).is_some());
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (stores + 2, 2));
    }
}
