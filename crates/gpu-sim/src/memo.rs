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

/// Entry bound; reaching it clears the memo. A paper point stores
/// five entries, `ks-bench sensitivity` ten, and a serving slot at
/// most 20 over one round of a benchmark serving workload.
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

#[derive(Default)]
struct Entries {
    /// Each entry with whether a hit has checked its digest.
    map: HashMap<MemoKey, (Arc<Recall>, bool)>,
    stats: ReplayMemoStats,
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
        let found = self.lock().map.get(key).cloned();
        let recall = match found {
            None => None,
            Some((recall, true)) => Some(recall),
            Some((recall, false)) => {
                let trusted = digest() == recall.digest;
                let mut entries = self.lock();
                if entries
                    .map
                    .get(key)
                    .is_some_and(|(stored, _)| Arc::ptr_eq(stored, &recall))
                {
                    if trusted {
                        entries.map.insert(*key, (Arc::clone(&recall), true));
                    } else {
                        entries.map.remove(key);
                    }
                }
                entries.stats.retired += u64::from(!trusted);
                trusted.then_some(recall)
            }
        };
        let mut entries = self.lock();
        if recall.is_some() {
            entries.stats.hits += 1;
        } else {
            entries.stats.misses += 1;
        }
        recall
    }

    /// Stores what a launch under `key` did, clearing the memo first
    /// when it is full.
    pub(crate) fn store(&self, key: MemoKey, recall: Recall) {
        let mut entries = self.lock();
        if entries.map.len() >= CAPACITY {
            entries.map.clear();
        }
        entries.map.insert(key, (Arc::new(recall), false));
    }
}
