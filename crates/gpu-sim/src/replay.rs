//! Traffic replay (DESIGN.md §10).
//!
//! [`crate::device::GpuDevice::launch`] profiles a kernel by replaying
//! every block's global-memory traffic through the shared L2: one walk
//! of the grid, in grid order, on the calling thread. Both strategies
//! leave every counter and the cache state **bit-identical**:
//!
//! 1. **Grid-order fold.** Per-block [`Counters`] are summed in grid
//!    order — the launch's canonical reduction, shared with the
//!    counted functional path (`merge_grid_order`).
//! 2. **Block-class memoization** ([`ReplayStrategy::Memoized`]).
//!    Tiled kernels declare a [`crate::kernel::BlockClass`]: blocks
//!    with the same key issue identical warp streams modulo a constant
//!    per-buffer address offset. The first block of a class (its
//!    representative) is recorded in full — compute, shared and global
//!    counters plus its L2 sector stream. A later member takes the
//!    representative's counters and streams its recorded sectors,
//!    shifted per buffer, straight into the live L2 in the member's own
//!    grid slot, so the L2 sees exactly the serial access order. A
//!    shift that is not a whole number of sectors walks the block
//!    directly, and every class spot-checks its first translatable
//!    member against a direct recording (counters and translated
//!    stream) before any member is translated.
//!
//!    A class may span buffers: a member whose anchors name other
//!    buffers than its representative's (a packed launch's segments
//!    that share one warp stream) streams the representative's sectors
//!    moved onto its own buffers. Such cross-buffer members are
//!    spot-checked separately: the first one is recorded and compared
//!    before any other is translated.
//!
//! A device with per-SM L1s replays serially: an L1 filters the L2
//! stream through history that differs per member.

use std::collections::hash_map::{Entry, HashMap};

use crate::buffer::{BufId, GlobalMem};
use crate::cache::Cache;
use crate::config::DeviceConfig;
use crate::dim::Dim3;
use crate::kernel::Kernel;
use crate::memo::digest_of;
use crate::profiler::Counters;
use crate::traffic::{L2Event, TrafficSink};

/// How a launch replays traffic through the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayStrategy {
    /// Every block walks its traffic through the live L2 — the
    /// reference semantics.
    Serial,
    /// Class members replay their representative's recorded sectors
    /// (see module docs). Counters and cache state are bit-identical to
    /// [`ReplayStrategy::Serial`].
    #[default]
    Memoized,
}

/// Replays `kernel`'s traffic per `strategy`, returning the merged
/// counters and, when the walk recorded the first block in full (a
/// memoized walk records it as its class's representative), that
/// recording's [`digest_of`]. The L2 (and any L1s) are updated exactly
/// as a serial in-order replay would.
pub(crate) fn replay(
    mem: &GlobalMem,
    l2: &mut Cache,
    l1s: &mut [Cache],
    cfg: &DeviceConfig,
    kernel: &dyn Kernel,
    strategy: ReplayStrategy,
) -> (Counters, Option<u64>) {
    let lc = kernel.launch_config();
    let memoize = strategy == ReplayStrategy::Memoized
        && l1s.is_empty()
        && lc.total_blocks() > 1
        && lc
            .grid
            .iter_indices()
            .next()
            .is_some_and(|b| kernel.block_class(b).is_some());
    if memoize {
        replay_memoized(mem, l2, cfg, kernel)
    } else {
        (replay_serial(mem, l2, l1s, cfg, kernel), None)
    }
}

/// Merges per-block counters in grid order (the launch's canonical
/// reduction — also used by the counted functional path so both
/// engines share one merge semantics).
pub(crate) fn merge_grid_order(per_block: &[Counters]) -> Counters {
    let mut total = Counters::default();
    for c in per_block {
        total.merge(c);
    }
    total
}

/// The reference serial replay: one live sink, blocks in grid order.
fn replay_serial(
    mem: &GlobalMem,
    l2: &mut Cache,
    l1s: &mut [Cache],
    cfg: &DeviceConfig,
    kernel: &dyn Kernel,
) -> Counters {
    let mut sink = TrafficSink::new(mem, l2, cfg.sector_bytes, cfg.smem_banks);
    if !l1s.is_empty() {
        sink.set_l1s(l1s);
    }
    for (i, b) in kernel.launch_config().grid.iter_indices().enumerate() {
        sink.begin_block(i as u64);
        kernel.block_traffic(b, &mut sink);
    }
    sink.counters
}

/// Whether a class's members may take the representative's recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trust {
    /// No member has been checked yet: the next translatable member is
    /// recorded directly and compared.
    Unchecked,
    /// A member reproduced the translated recording exactly.
    Trusted,
    /// A member disagreed; every later member is walked directly.
    Rejected,
}

/// One block class: its representative's full recording.
struct MemoClass {
    /// The representative's per-buffer anchors (element offsets).
    anchors: Vec<(BufId, usize)>,
    /// The representative's counters (compute, shared and global).
    counters: Counters,
    /// The representative's L2 sector stream.
    events: Vec<L2Event>,
    /// Trust in members on the representative's own buffers.
    trust: Trust,
    /// Trust in members on other buffers.
    cross: Trust,
}

/// The memoized walk (see module docs): one pass over the grid in grid
/// order. Representatives and spot-checked members are recorded, then
/// streamed into the L2 in their own grid slot; members of a trusted
/// class stream the representative's sectors shifted per buffer; every
/// other block walks its traffic through a live sink. Returns the
/// counters and, when it has a class, the first block's digest.
fn replay_memoized(
    mem: &GlobalMem,
    l2: &mut Cache,
    cfg: &DeviceConfig,
    kernel: &dyn Kernel,
) -> (Counters, Option<u64>) {
    let sector_bytes = u64::from(cfg.sector_bytes);
    let mut classes: HashMap<u64, MemoClass> = HashMap::new();
    // Dense per-buffer byte shift of the current member and the
    // buffer each of the representative's buffers moves to (buffer ids
    // are small dense indices).
    let mut shift: Vec<i64> = Vec::new();
    let mut remap: Vec<Option<u32>> = Vec::new();
    let mut total = Counters::default();
    let mut first = None;
    for (gi, b) in kernel.launch_config().grid.iter_indices().enumerate() {
        let Some(bc) = kernel.block_class(b) else {
            total.merge(&walk_block(mem, l2, cfg, kernel, b, gi));
            continue;
        };
        let cl = match classes.entry(bc.key) {
            Entry::Vacant(slot) => {
                let (counters, events) = record_block(mem, cfg, kernel, b, gi);
                if gi == 0 {
                    first = Some(digest_of(&counters, &events));
                }
                stream(l2, &events, &[]);
                total.merge(&counters);
                slot.insert(MemoClass {
                    anchors: bc.anchors,
                    counters,
                    events,
                    trust: Trust::Unchecked,
                    cross: Trust::Unchecked,
                });
                continue;
            }
            Entry::Occupied(slot) => slot.into_mut(),
        };
        let Some(crosses) = fill_shift(
            mem,
            &cl.anchors,
            &bc.anchors,
            sector_bytes,
            &mut shift,
            &mut remap,
        ) else {
            total.merge(&walk_block(mem, l2, cfg, kernel, b, gi));
            continue;
        };
        let trust = if crosses {
            &mut cl.cross
        } else {
            &mut cl.trust
        };
        match *trust {
            Trust::Rejected => total.merge(&walk_block(mem, l2, cfg, kernel, b, gi)),
            Trust::Trusted => {
                stream(l2, &cl.events, &shift);
                total.merge(&cl.counters);
            }
            Trust::Unchecked => {
                let (counters, events) = record_block(mem, cfg, kernel, b, gi);
                let agrees = counters == cl.counters
                    && events.len() == cl.events.len()
                    && events.iter().zip(&cl.events).all(|(d, r)| {
                        d.buf == moved(r, &remap)
                            && d.write == r.write
                            && d.addr == shifted(r, &shift)
                    });
                *trust = if agrees {
                    Trust::Trusted
                } else {
                    Trust::Rejected
                };
                stream(l2, &events, &[]);
                total.merge(&counters);
            }
        }
    }
    (total, first)
}

/// Walks one block's traffic through a live sink in Full mode.
fn walk_block(
    mem: &GlobalMem,
    l2: &mut Cache,
    cfg: &DeviceConfig,
    kernel: &dyn Kernel,
    block: Dim3,
    linear_idx: usize,
) -> Counters {
    let mut sink = TrafficSink::new(mem, l2, cfg.sector_bytes, cfg.smem_banks);
    sink.begin_block(linear_idx as u64);
    kernel.block_traffic(block, &mut sink);
    sink.counters
}

/// Records one block's traffic in Full mode: its counters and its L2
/// sector stream.
pub(crate) fn record_block(
    mem: &GlobalMem,
    cfg: &DeviceConfig,
    kernel: &dyn Kernel,
    block: Dim3,
    linear_idx: usize,
) -> (Counters, Vec<L2Event>) {
    let mut sink = TrafficSink::new_recording(mem, cfg.sector_bytes, cfg.smem_banks);
    sink.begin_block(linear_idx as u64);
    kernel.block_traffic(block, &mut sink);
    let events = sink.take_recorded();
    (sink.counters, events)
}

/// Streams recorded sectors into the L2 in order, each shifted by its
/// buffer's entry in `shift`.
fn stream(l2: &mut Cache, events: &[L2Event], shift: &[i64]) {
    l2.stream(events.iter().map(|e| (shifted(e, shift), e.write)));
}

/// The event's address shifted by its buffer's byte delta (buffers
/// past the end of `shift` do not move).
#[inline]
fn shifted(e: &L2Event, shift: &[i64]) -> u64 {
    e.addr
        .wrapping_add_signed(shift.get(e.buf as usize).copied().unwrap_or(0))
}

/// The buffer the event's sector lands in for the current member:
/// its own buffer moved through `remap` (unanchored buffers stay).
fn moved(e: &L2Event, remap: &[Option<u32>]) -> u32 {
    remap
        .get(e.buf as usize)
        .copied()
        .flatten()
        .unwrap_or(e.buf)
}

/// Fills `shift` with a member's per-buffer byte deltas and `remap`
/// with the buffer each of the representative's anchored buffers
/// moves to, from the paired anchors (element offsets into their
/// buffers). Returns whether any anchor moves to another buffer, or
/// `None` — the member is walked directly — when the anchor lists
/// differ in length, one representative buffer would move two ways,
/// or a delta is not a whole number of sectors, since a sub-sector
/// shift would change how lane footprints coalesce.
fn fill_shift(
    mem: &GlobalMem,
    rep: &[(BufId, usize)],
    member: &[(BufId, usize)],
    sector_bytes: u64,
    shift: &mut Vec<i64>,
    remap: &mut Vec<Option<u32>>,
) -> Option<bool> {
    if rep.len() != member.len() {
        return None;
    }
    shift.clear();
    remap.clear();
    let mut crosses = false;
    for (r, m) in rep.iter().zip(member) {
        let d = mem.addr_of(m.0, m.1) as i64 - mem.addr_of(r.0, r.1) as i64;
        if d.rem_euclid(sector_bytes as i64) != 0 {
            return None;
        }
        let buf = r.0 .0;
        if shift.len() <= buf {
            shift.resize(buf + 1, 0);
            remap.resize(buf + 1, None);
        }
        let to = u32::try_from(m.0 .0).expect("buffer index fits in u32");
        match remap[buf] {
            None => {
                remap[buf] = Some(to);
                shift[buf] = d;
            }
            Some(prev) if prev == to && shift[buf] == d => {}
            Some(_) => return None,
        }
        crosses |= r.0 != m.0;
    }
    Some(crosses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_strategy_is_memoized() {
        assert_eq!(ReplayStrategy::default(), ReplayStrategy::Memoized);
    }

    #[test]
    fn translate_shifts_only_anchored_buffer() {
        let mut mem = GlobalMem::new();
        let a = mem.alloc(1024);
        let b = mem.alloc(1024);
        let c = mem.alloc(1024);
        let events = [
            L2Event::new(mem.addr_of(a, 0), a, false),
            L2Event::new(mem.addr_of(b, 8), b, true),
            L2Event::new(mem.addr_of(c, 16), c, false),
        ];
        // Member anchored 64 elements (256 bytes) further into `a`;
        // `c` is not anchored at all.
        let (mut shift, mut remap) = (Vec::new(), Vec::new());
        assert_eq!(
            fill_shift(
                &mem,
                &[(a, 0), (b, 8)],
                &[(a, 64), (b, 8)],
                32,
                &mut shift,
                &mut remap
            ),
            Some(false)
        );
        assert_eq!(shifted(&events[0], &shift), mem.addr_of(a, 64));
        assert_eq!(shifted(&events[1], &shift), events[1].addr);
        assert_eq!(shifted(&events[2], &shift), events[2].addr);
        assert_eq!(
            events.map(|e| moved(&e, &remap)),
            [a, b, c].map(|x| x.0 as u32)
        );
    }

    #[test]
    fn translate_moves_a_member_onto_its_own_buffers() {
        let mut mem = GlobalMem::new();
        let a = mem.alloc(1024);
        let b = mem.alloc(1024);
        let a2 = mem.alloc(1024);
        let b2 = mem.alloc(1024);
        let (mut shift, mut remap) = (Vec::new(), Vec::new());
        // A member on `a2` and `b2` at the representative's offsets
        // plus 8 elements (one sector) into `a2`.
        assert_eq!(
            fill_shift(
                &mem,
                &[(a, 0), (b, 16)],
                &[(a2, 8), (b2, 16)],
                32,
                &mut shift,
                &mut remap
            ),
            Some(true)
        );
        let ea = L2Event::new(mem.addr_of(a, 40), a, false);
        let eb = L2Event::new(mem.addr_of(b, 16), b, true);
        assert_eq!(shifted(&ea, &shift), mem.addr_of(a2, 48));
        assert_eq!(shifted(&eb, &shift), mem.addr_of(b2, 16));
        assert_eq!(moved(&ea, &remap), a2.0 as u32);
        assert_eq!(moved(&eb, &remap), b2.0 as u32);
        // One representative buffer moving two ways never translates.
        assert_eq!(
            fill_shift(
                &mem,
                &[(a, 0), (a, 0)],
                &[(a, 0), (a2, 0)],
                32,
                &mut shift,
                &mut remap
            ),
            None
        );
        // Twice the same way does.
        assert_eq!(
            fill_shift(
                &mem,
                &[(a, 0), (a, 0)],
                &[(a2, 8), (a2, 8)],
                32,
                &mut shift,
                &mut remap
            ),
            Some(true)
        );
    }

    #[test]
    fn translate_rejects_subsector_shift() {
        let mut mem = GlobalMem::new();
        let a = mem.alloc(64);
        let b = mem.alloc(64);
        let (mut shift, mut remap) = (Vec::new(), Vec::new());
        let mut fill = |rep: &[(BufId, usize)], member: &[(BufId, usize)]| {
            fill_shift(&mem, rep, member, 32, &mut shift, &mut remap)
        };
        // 3 elements = 12 bytes: not a whole 32B sector.
        assert_eq!(fill(&[(a, 0)], &[(a, 3)]), None);
        // 8 elements = 32 bytes: exactly one sector.
        assert_eq!(fill(&[(a, 0)], &[(a, 8)]), Some(false));
        // Another buffer at a whole-sector distance: a cross member.
        assert_eq!(fill(&[(a, 0)], &[(b, 0)]), Some(true));
        assert_eq!(fill(&[(a, 0)], &[(b, 3)]), None);
        // Anchor lists must pair up.
        assert_eq!(fill(&[(a, 0)], &[(a, 0), (b, 0)]), None);
    }

    #[test]
    fn merge_grid_order_sums_counters() {
        let a = Counters {
            flops: 3,
            ..Default::default()
        };
        let b = Counters {
            flops: 4,
            ..Default::default()
        };
        let m = merge_grid_order(&[a, b]);
        assert_eq!(m.flops, 7);
    }
}
