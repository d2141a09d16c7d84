//! The traffic sink: warp-level accesses → transactions → counters.
//!
//! A [`TrafficSink`] is handed to a kernel (either directly through
//! [`crate::kernel::Kernel::block_traffic`], or indirectly by the
//! functional engine's [`crate::exec::BlockCtx`]). Every warp-level
//! event is expanded by the appropriate hardware model:
//!
//! * global accesses → [`crate::coalesce`] → 32B sectors → the L2
//!   [`crate::cache::Cache`];
//! * shared accesses → [`crate::smem`] bank-conflict analysis;
//! * compute events → instruction/FLOP counters.
//!
//! Vector accesses (`float4`) are a single instruction whose words are
//! serviced in `vlen` word-phases (shared memory) or as 16-byte lane
//! footprints (global memory), matching Maxwell LDS.128 / LDG.128.

use crate::buffer::{BufId, GlobalMem};
use crate::cache::Cache;
use crate::coalesce;
use crate::profiler::Counters;
use crate::smem;
use crate::trace::{AccessDir, TraceSink};

/// Lane activity + word index for one warp access: `idx[lane]` is the
/// element index accessed by the lane, or `None` if inactive.
pub type WarpIdx = [Option<usize>; 32];

/// One L2 sector transaction captured by a recording sink: the sector
/// address, the buffer it belongs to (so block-class memoization can
/// translate the stream per buffer) and the direction. An atomic
/// records its read-modify-write as a read event followed by a write
/// event, preserving the in-order L2 interaction. An event is 16 bytes,
/// so a memoized replay's stream of recorded sectors stays compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Event {
    /// Sector byte address.
    pub addr: u64,
    /// Index of the buffer the sector belongs to.
    pub buf: u32,
    /// True for a write, false for a read.
    pub write: bool,
}

impl L2Event {
    /// An event on `buf`, whose index must fit in 32 bits.
    pub(crate) fn new(addr: u64, buf: BufId, write: bool) -> Self {
        Self {
            addr,
            buf: u32::try_from(buf.0).expect("buffer index fits in u32"),
            write,
        }
    }
}

/// Where a sink's L2 sector transactions go: straight into the live
/// cache model, or into an in-order event log (a memoized replay's
/// class representatives, see [`crate::replay`]).
enum L2Backend<'a> {
    Live(&'a mut Cache),
    Record(Vec<L2Event>),
}

impl L2Backend<'_> {
    #[inline]
    fn read(&mut self, buf: BufId, addr: u64) {
        match self {
            L2Backend::Live(c) => {
                c.read(addr);
            }
            L2Backend::Record(log) => log.push(L2Event::new(addr, buf, false)),
        }
    }

    #[inline]
    fn write(&mut self, buf: BufId, addr: u64) {
        match self {
            L2Backend::Live(c) => {
                c.write(addr);
            }
            L2Backend::Record(log) => log.push(L2Event::new(addr, buf, true)),
        }
    }
}

/// Sink translating warp-level events into counters (see module docs).
pub struct TrafficSink<'a> {
    /// Accumulated counters (public so the device can harvest them).
    pub counters: Counters,
    mem: &'a GlobalMem,
    l2: L2Backend<'a>,
    /// Per-SM L1s (present only when the device caches global loads in
    /// L1, §II-C). Indexed by the round-robin CTA→SM assignment.
    l1s: Option<&'a mut [Cache]>,
    current_sm: usize,
    sector_bytes: u32,
    num_banks: u32,
    /// Optional access-trace recorder (see [`crate::trace`]).
    trace: Option<&'a mut TraceSink>,
}

impl<'a> TrafficSink<'a> {
    /// Creates a sink bound to device memory and the L2 model.
    #[must_use]
    pub fn new(mem: &'a GlobalMem, l2: &'a mut Cache, sector_bytes: u32, num_banks: u32) -> Self {
        Self {
            counters: Counters::default(),
            mem,
            l2: L2Backend::Live(l2),
            l1s: None,
            current_sm: 0,
            sector_bytes,
            num_banks,
            trace: None,
        }
    }

    /// Creates a **recording** sink: counters accumulate exactly as in
    /// a live sink, but L2 sector transactions are appended to an
    /// in-order [`L2Event`] log (drained with
    /// [`TrafficSink::take_recorded`]) instead of driving a cache.
    /// L1s, when attached, still filter loads live — only the sectors
    /// that would reach L2 are logged.
    #[must_use]
    pub fn new_recording(mem: &'a GlobalMem, sector_bytes: u32, num_banks: u32) -> Self {
        Self {
            counters: Counters::default(),
            mem,
            l2: L2Backend::Record(Vec::new()),
            l1s: None,
            current_sm: 0,
            sector_bytes,
            num_banks,
            trace: None,
        }
    }

    /// Drains the recorded L2 event log (recording sinks only; a live
    /// sink returns an empty vector).
    pub fn take_recorded(&mut self) -> Vec<L2Event> {
        match &mut self.l2 {
            L2Backend::Live(_) => Vec::new(),
            L2Backend::Record(log) => std::mem::take(log),
        }
    }

    /// Attaches per-SM L1 caches (global loads become L1-cached).
    pub fn set_l1s(&mut self, l1s: &'a mut [Cache]) {
        self.l1s = Some(l1s);
    }

    /// Attaches a trace recorder; every subsequent warp event is also
    /// forwarded to it.
    pub fn set_trace(&mut self, trace: &'a mut TraceSink) {
        self.trace = Some(trace);
    }

    /// Announces the start of a block: the round-robin CTA scheduler
    /// pins it to an SM, selecting which L1 its loads see.
    pub fn begin_block(&mut self, linear_block_idx: u64) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.begin_block(linear_block_idx);
        }
        if let Some(l1s) = &self.l1s {
            self.current_sm = (linear_block_idx % l1s.len() as u64) as usize;
        }
    }

    /// Announces the warp issuing subsequent events. Only meaningful
    /// for tracing; counters are warp-agnostic, so this never changes
    /// profiled numbers.
    pub fn begin_warp(&mut self, warp: u32) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.begin_warp(warp);
        }
    }

    fn active(idx: &WarpIdx) -> u64 {
        idx.iter().filter(|l| l.is_some()).count() as u64
    }

    fn lane_byte_addrs(&self, buf: BufId, idx: &WarpIdx) -> [Option<u64>; 32] {
        std::array::from_fn(|l| idx[l].map(|i| self.mem.addr_of(buf, i)))
    }

    /// Warp global load of `vlen` consecutive words per lane
    /// (`vlen`=1: LDG.32, 4: LDG.128). One instruction; sectors are
    /// deduplicated then serviced by the L2.
    pub fn global_read(&mut self, buf: BufId, idx: &WarpIdx, vlen: u32) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.global(buf, idx, vlen, AccessDir::Read);
        }
        debug_assert!(matches!(vlen, 1 | 2 | 4));
        self.counters.global_load_insts += 1;
        self.counters.thread_insts += Self::active(idx);
        let addrs = self.lane_byte_addrs(buf, idx);
        let mut buf_sec = [0u64; coalesce::MAX_SECTORS_PER_WARP * 2];
        let sectors = coalesce::warp_sectors(&addrs, vlen * 4, self.sector_bytes, &mut buf_sec);
        if let Some(l1s) = self.l1s.as_deref_mut() {
            // Loads are filtered by the block's per-SM L1; only misses
            // travel to L2.
            let l1 = &mut l1s[self.current_sm];
            self.counters.l1_read_sectors += sectors.len() as u64;
            for &s in sectors {
                if l1.read(s) == crate::cache::Access::Hit {
                    self.counters.l1_read_hits += 1;
                } else {
                    self.counters.l2_read_sectors += 1;
                    self.l2.read(buf, s);
                }
            }
        } else {
            self.counters.l2_read_sectors += sectors.len() as u64;
            for &s in sectors {
                self.l2.read(buf, s);
            }
        }
    }

    /// Warp global store of `vlen` consecutive words per lane.
    pub fn global_write(&mut self, buf: BufId, idx: &WarpIdx, vlen: u32) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.global(buf, idx, vlen, AccessDir::Write);
        }
        debug_assert!(matches!(vlen, 1 | 2 | 4));
        self.counters.global_store_insts += 1;
        self.counters.thread_insts += Self::active(idx);
        let addrs = self.lane_byte_addrs(buf, idx);
        let mut buf_sec = [0u64; coalesce::MAX_SECTORS_PER_WARP * 2];
        let sectors = coalesce::warp_sectors(&addrs, vlen * 4, self.sector_bytes, &mut buf_sec);
        self.counters.l2_write_sectors += sectors.len() as u64;
        for &s in sectors {
            // Global stores are write-through/no-allocate with respect
            // to L1: invalidate any stale copy, then write to L2.
            if let Some(l1s) = self.l1s.as_deref_mut() {
                l1s[self.current_sm].invalidate_addr(s);
            }
            self.l2.write(buf, s);
        }
    }

    /// Warp global atomic (`atomicAdd` on one word per lane). Atomics
    /// are resolved by the L2 atomic unit on Maxwell: each touched
    /// sector performs a read-modify-write in L2.
    pub fn global_atomic(&mut self, buf: BufId, idx: &WarpIdx) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.global(buf, idx, 1, AccessDir::Atomic);
        }
        self.counters.atomic_insts += 1;
        self.counters.thread_insts += Self::active(idx);
        let addrs = self.lane_byte_addrs(buf, idx);
        let mut buf_sec = [0u64; coalesce::MAX_SECTORS_PER_WARP * 2];
        let sectors = coalesce::warp_sectors(&addrs, 4, self.sector_bytes, &mut buf_sec);
        self.counters.atomic_sectors += sectors.len() as u64;
        for &s in sectors {
            // Atomics resolve in L2 and must not leave stale L1 copies.
            if let Some(l1s) = self.l1s.as_deref_mut() {
                l1s[self.current_sm].invalidate_addr(s);
            }
            self.l2.read(buf, s); // fetch for the RMW
            self.l2.write(buf, s); // modified result stays dirty in L2
        }
        // The adds themselves are FLOPs performed by the L2 ROP units.
        self.counters.flops += Self::active(idx);
    }

    /// Warp shared load: lane `l` reads `vlen` consecutive words
    /// starting at word index `word[l]`. One instruction, `vlen`
    /// word-phases of bank-conflict analysis.
    pub fn shared_read(&mut self, word: &[Option<u32>; 32], vlen: u32) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.shared(word, vlen, AccessDir::Read);
        }
        self.counters.smem.load_instructions += 1;
        self.counters.thread_insts += word.iter().filter(|l| l.is_some()).count() as u64;
        for j in 0..vlen {
            let phase: [Option<u32>; 32] = std::array::from_fn(|l| word[l].map(|w| w + j));
            self.counters.smem.load_transactions +=
                smem::warp_transactions(&phase, self.num_banks) as u64;
        }
    }

    /// Warp shared store (see [`TrafficSink::shared_read`]).
    pub fn shared_write(&mut self, word: &[Option<u32>; 32], vlen: u32) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.shared(word, vlen, AccessDir::Write);
        }
        self.counters.smem.store_instructions += 1;
        self.counters.thread_insts += word.iter().filter(|l| l.is_some()).count() as u64;
        for j in 0..vlen {
            let phase: [Option<u32>; 32] = std::array::from_fn(|l| word[l].map(|w| w + j));
            self.counters.smem.store_transactions +=
                smem::warp_transactions(&phase, self.num_banks) as u64;
        }
    }

    /// `n` full-warp FFMA instructions (2 FLOPs per lane).
    pub fn ffma(&mut self, n: u64) {
        self.counters.ffma_insts += n;
        self.counters.thread_insts += 32 * n;
        self.counters.flops += 64 * n;
    }

    /// `n` full-warp FADD/FMUL instructions (1 FLOP per lane).
    pub fn falu(&mut self, n: u64) {
        self.counters.falu_insts += n;
        self.counters.thread_insts += 32 * n;
        self.counters.flops += 32 * n;
    }

    /// `n` full-warp integer/addressing/control instructions.
    pub fn alu(&mut self, n: u64) {
        self.counters.alu_insts += n;
        self.counters.thread_insts += 32 * n;
    }

    /// `n` full-warp special-function instructions (MUFU.EX2 …,
    /// 1 special FLOP per lane).
    pub fn sfu(&mut self, n: u64) {
        self.counters.sfu_insts += n;
        self.counters.thread_insts += 32 * n;
        self.counters.flops += 32 * n;
    }

    /// One `__syncthreads()` executed by `warps` warps of the block.
    pub fn syncthreads(&mut self, warps: u64) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.barrier(warps);
        }
        self.counters.sync_insts += warps;
        self.counters.thread_insts += 32 * warps;
    }
}

/// Helper to build a fully-active warp index from a lane mapping.
#[must_use]
pub fn full_warp_idx(f: impl Fn(usize) -> usize) -> WarpIdx {
    std::array::from_fn(|l| Some(f(l)))
}

/// Helper to build a fully-active shared-word index from a lane mapping.
#[must_use]
pub fn full_warp_words(f: impl Fn(usize) -> u32) -> [Option<u32>; 32] {
    std::array::from_fn(|l| Some(f(l)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (GlobalMem, Cache) {
        let mem = GlobalMem::new();
        let l2 = Cache::new(64 * 1024, 16, 32);
        (mem, l2)
    }

    #[test]
    fn coalesced_read_counts_four_sectors() {
        let (mut mem, mut l2) = fixture();
        let buf = mem.alloc(1024);
        let mut sink = TrafficSink::new(&mem, &mut l2, 32, 32);
        sink.global_read(buf, &full_warp_idx(|l| l), 1);
        assert_eq!(sink.counters.global_load_insts, 1);
        assert_eq!(sink.counters.l2_read_sectors, 4);
        assert_eq!(sink.counters.thread_insts, 32);
        assert_eq!(l2.stats().read_misses, 4);
    }

    #[test]
    fn second_read_hits_l2() {
        let (mut mem, mut l2) = fixture();
        let buf = mem.alloc(1024);
        let mut sink = TrafficSink::new(&mem, &mut l2, 32, 32);
        sink.global_read(buf, &full_warp_idx(|l| l), 1);
        sink.global_read(buf, &full_warp_idx(|l| l), 1);
        assert_eq!(l2.stats().read_hits, 4);
        assert_eq!(l2.stats().read_misses, 4);
    }

    #[test]
    fn float4_read_is_one_inst_sixteen_sectors() {
        let (mut mem, mut l2) = fixture();
        let buf = mem.alloc(1024);
        let mut sink = TrafficSink::new(&mem, &mut l2, 32, 32);
        sink.global_read(buf, &full_warp_idx(|l| l * 4), 4);
        assert_eq!(sink.counters.global_load_insts, 1);
        assert_eq!(sink.counters.l2_read_sectors, 16);
    }

    #[test]
    fn write_traffic_counts() {
        let (mut mem, mut l2) = fixture();
        let buf = mem.alloc(1024);
        let mut sink = TrafficSink::new(&mem, &mut l2, 32, 32);
        sink.global_write(buf, &full_warp_idx(|l| l), 1);
        assert_eq!(sink.counters.l2_write_sectors, 4);
        assert_eq!(l2.stats().write_misses, 4);
        assert_eq!(l2.flush_dirty(), 4);
    }

    #[test]
    fn atomics_do_rmw_in_l2() {
        let (mut mem, mut l2) = fixture();
        let buf = mem.alloc(64);
        let mut sink = TrafficSink::new(&mem, &mut l2, 32, 32);
        sink.global_atomic(buf, &full_warp_idx(|l| l));
        assert_eq!(sink.counters.atomic_insts, 1);
        assert_eq!(sink.counters.atomic_sectors, 4);
        assert_eq!(sink.counters.flops, 32);
        assert_eq!(l2.stats().read_misses, 4);
        assert_eq!(l2.stats().write_hits, 4);
    }

    #[test]
    fn shared_vector_read_has_vlen_phases() {
        let (mem, mut l2) = fixture();
        let mut sink = TrafficSink::new(&mem, &mut l2, 32, 32);
        // Conflict-free base: lane l -> word 4l; each phase unit-offset.
        sink.shared_read(&full_warp_words(|l| 4 * l as u32), 4);
        assert_eq!(sink.counters.smem.load_instructions, 1);
        // Phase j: addresses 4l + j -> 4-way conflict per phase? No:
        // words 4l+j for fixed j hit banks (4l+j) % 32 -> 8 distinct
        // banks, 4 words each -> 4 transactions per phase, 16 total.
        assert_eq!(sink.counters.smem.load_transactions, 16);
    }

    #[test]
    fn compute_counters() {
        let (mem, mut l2) = fixture();
        let mut sink = TrafficSink::new(&mem, &mut l2, 32, 32);
        sink.ffma(10);
        sink.falu(2);
        sink.sfu(1);
        sink.alu(5);
        sink.syncthreads(8);
        let c = &sink.counters;
        assert_eq!(c.flops, 640 + 64 + 32);
        assert_eq!(c.warp_insts(), 10 + 2 + 1 + 5 + 8);
        assert_eq!(c.thread_insts, 32 * 26);
    }

    #[test]
    fn recorded_event_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<L2Event>(), 16);
    }

    #[test]
    fn recording_sink_matches_live_counters_and_replays_identically() {
        let (mut mem, mut l2) = fixture();
        let buf = mem.alloc(1024);
        let live_counters = {
            let mut live = TrafficSink::new(&mem, &mut l2, 32, 32);
            live.global_read(buf, &full_warp_idx(|l| l), 1);
            live.global_write(buf, &full_warp_idx(|l| l + 32), 1);
            live.global_atomic(buf, &full_warp_idx(|l| l));
            live.counters
        };
        let mut rec = TrafficSink::new_recording(&mem, 32, 32);
        rec.global_read(buf, &full_warp_idx(|l| l), 1);
        rec.global_write(buf, &full_warp_idx(|l| l + 32), 1);
        rec.global_atomic(buf, &full_warp_idx(|l| l));
        assert_eq!(rec.counters, live_counters);
        let events = rec.take_recorded();
        // 4 read sectors, 4 write sectors, 4 atomic sectors × RMW pair.
        assert_eq!(events.len(), 4 + 4 + 8);
        // Replaying the log in order against a fresh cache reproduces
        // the live cache's statistics exactly.
        let mut fresh = Cache::new(64 * 1024, 16, 32);
        for e in &events {
            if e.write {
                fresh.write(e.addr);
            } else {
                fresh.read(e.addr);
            }
        }
        assert_eq!(fresh.stats(), l2.stats());
        assert!(rec.take_recorded().is_empty(), "log drains once");
    }

    #[test]
    fn partially_active_warp_counts_active_lanes() {
        let (mut mem, mut l2) = fixture();
        let buf = mem.alloc(64);
        let mut sink = TrafficSink::new(&mem, &mut l2, 32, 32);
        let idx: WarpIdx = std::array::from_fn(|l| if l < 8 { Some(l) } else { None });
        sink.global_read(buf, &idx, 1);
        assert_eq!(sink.counters.thread_insts, 8);
        assert_eq!(sink.counters.l2_read_sectors, 1);
    }
}
