//! Deterministic soft-error fault model.
//!
//! Real GPUs suffer transient bit-flips (SEUs) in SRAM cells, register
//! files and DRAM, plus coarser launch-level failures (a lost SM, a
//! driver watchdog kill). Because the fused kernel keeps its `M×N`
//! intermediate entirely on-chip, such an upset leaves **no
//! DRAM-visible trace** — which is exactly the failure mode the ABFT
//! checksum layer in `ks-gpu-kernels` exists to catch. This module
//! models those upsets reproducibly:
//!
//! * [`FaultSpec`] — per-launch fault rates plus a seed, configured on
//!   [`crate::DeviceConfig::fault`] or via `ksum --faults SPEC`;
//! * [`FaultState`] — the device-resident generator: each launch
//!   (traffic or functional) advances an epoch counter and derives an
//!   independent ChaCha8 stream from `seed ⊕ f(epoch)`, so a fault
//!   schedule is a pure function of `(spec, launch ordinal)` and
//!   replays bit-identically across runs and thread counts;
//! * [`LaunchFaultPlan`] — the per-launch schedule: shared-memory word
//!   flips (applied at a chosen `__syncthreads()` boundary inside the
//!   victim block), accumulator-register flips (drained by kernels
//!   that expose accumulators through
//!   [`crate::exec::BlockCtx::take_accumulator_faults`]), and DRAM
//!   word flips (applied to the kernel's declared writable buffers
//!   after the launch completes);
//! * [`FaultCounters`] — how many upsets were actually applied,
//!   surfaced on [`crate::KernelProfile`] and the CSV report schema.
//!
//! Faults corrupt **functional data only** — never instruction or
//! transaction counters — so profiles of a faulted run stay
//! bit-identical to a clean run and the golden-counter suite is
//! unaffected by this subsystem.
//!
//! Scheduled events can miss their target: an SMEM flip aimed at sync
//! index 7 of a kernel with 3 barriers never fires, register flips
//! aimed at kernels with no accumulator hook are dropped, and DRAM
//! flips aimed at kernels that declare no writable buffers are
//! dropped. Counters tally *applied* upsets, not scheduled ones.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Simulated driver watchdog limit reported by
/// [`crate::LaunchError::WatchdogTimeout`].
pub const WATCHDOG_LIMIT_MS: u32 = 2000;

/// Upper bound on the `__syncthreads()` ordinal an SMEM flip can
/// target. Events drawn past a block's actual barrier count never
/// fire (see the module docs).
pub const MAX_SYNC_TARGET: u32 = 8;

/// Ceiling on the expected-event-count rates (`smem`, `reg`, `dram`)
/// that [`FaultSpec::parse`] accepts. Every expected event is drawn
/// one at a time per launch, so an unbounded rate would stall or
/// exhaust memory; no workload needs more than a few dozen.
pub const MAX_EVENT_RATE: f64 = 10_000.0;

/// Seeded per-launch fault rates. Rates `smem`/`reg`/`dram` are
/// *expected event counts per launch* (may exceed 1, at most
/// [`MAX_EVENT_RATE`] when parsed); `sm` and `watchdog` are
/// *probabilities per launch* in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Base seed of the fault stream.
    pub seed: u64,
    /// Expected shared-memory word flips per launch (at most
    /// [`MAX_EVENT_RATE`]).
    pub smem_rate: f64,
    /// Expected accumulator-register flips per launch (at most
    /// [`MAX_EVENT_RATE`]).
    pub reg_rate: f64,
    /// Expected DRAM word flips per launch (at most
    /// [`MAX_EVENT_RATE`]).
    pub dram_rate: f64,
    /// Probability a launch dies losing an SM.
    pub sm_loss_rate: f64,
    /// Probability a launch is killed by the watchdog.
    pub watchdog_rate: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            smem_rate: 0.0,
            reg_rate: 0.0,
            dram_rate: 0.0,
            sm_loss_rate: 0.0,
            watchdog_rate: 0.0,
        }
    }
}

impl FaultSpec {
    /// Parses a `key=value` comma list, e.g.
    /// `"seed=7,smem=0.5,reg=1,dram=0.25,sm=0.01,watchdog=0.001"`.
    /// Unknown keys, malformed values, negative rates, `smem`/`reg`/
    /// `dram` rates above [`MAX_EVENT_RATE`], and `sm`/`watchdog`
    /// probabilities above 1 are rejected.
    ///
    /// # Errors
    /// Returns a human-readable description of the first problem.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (seed, [smem_rate, reg_rate, dram_rate, sm_loss_rate, watchdog_rate]) = parse_spec(
            spec,
            "fault",
            [
                ("smem", "smem rate", MAX_EVENT_RATE),
                ("reg", "reg rate", MAX_EVENT_RATE),
                ("dram", "dram rate", MAX_EVENT_RATE),
                ("sm", "sm probability", 1.0),
                ("watchdog", "watchdog probability", 1.0),
            ],
        )?;
        Ok(Self {
            seed,
            smem_rate,
            reg_rate,
            dram_rate,
            sm_loss_rate,
            watchdog_rate,
        })
    }

    /// True if no fault can ever fire under this spec.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.smem_rate == 0.0
            && self.reg_rate == 0.0
            && self.dram_rate == 0.0
            && self.sm_loss_rate == 0.0
            && self.watchdog_rate == 0.0
    }
}

/// Parses the `key=value` comma list of a `kind` spec: `seed=N` and
/// one rate per `(key, name in messages, upper bound)` in `rates`.
/// Returns the seed and the rates in `rates` order; a key not given
/// reads 0, a repeated one keeps its last value.
fn parse_spec<const N: usize>(
    spec: &str,
    kind: &str,
    rates: [(&str, &str, f64); N],
) -> Result<(u64, [f64; N]), String> {
    let mut seed = 0;
    let mut out = [0.0; N];
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("{kind} spec entry `{part}` is not key=value"))?;
        let (key, value) = (key.trim(), value.trim());
        if key == "seed" {
            seed = value
                .parse()
                .map_err(|_| format!("invalid seed value `{value}`"))?;
            continue;
        }
        let (slot, (_, what, max)) = out
            .iter_mut()
            .zip(rates)
            .find(|(_, (k, _, _))| *k == key)
            .ok_or_else(|| format!("unknown {kind} spec key `{key}`"))?;
        let r: f64 = value
            .parse()
            .map_err(|_| format!("invalid {what} value `{value}`"))?;
        if !r.is_finite() || r < 0.0 {
            return Err(format!("{what} must be a finite non-negative number"));
        }
        if r > max {
            return Err(format!("{what} must be <= {max}"));
        }
        *slot = r;
    }
    Ok((seed, out))
}

/// Counts of *applied* fault injections.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Shared-memory word flips applied at barriers.
    pub smem_flips: u64,
    /// Accumulator-register flips drained by kernels.
    pub reg_flips: u64,
    /// DRAM word flips applied to writable buffers post-launch.
    pub dram_flips: u64,
    /// Launches killed by SM loss or the watchdog.
    pub launch_faults: u64,
}

impl FaultCounters {
    /// True when no fault was applied (the serialized profile then
    /// omits the `faults` key, keeping fault-free JSON byte-identical
    /// to the pre-fault-model schema).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Accumulates another counter block.
    pub fn merge(&mut self, o: &FaultCounters) {
        self.smem_flips += o.smem_flips;
        self.reg_flips += o.reg_flips;
        self.dram_flips += o.dram_flips;
        self.launch_faults += o.launch_faults;
    }
}

/// One scheduled shared-memory bit flip inside a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmemFlip {
    /// Which `__syncthreads()` ordinal (0-based) the flip lands on.
    pub sync_idx: u32,
    /// Raw word draw; reduced modulo the block's shared size at
    /// application time.
    pub word_pick: u64,
    /// Bit position `0..32`.
    pub bit: u8,
}

/// One scheduled accumulator-register bit flip inside a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegFlip {
    /// Raw element draw; the kernel maps it onto its accumulator
    /// layout modulo the accumulator count.
    pub elem_pick: u64,
    /// Bit position `0..32`.
    pub bit: u8,
}

/// Launch-level failure drawn for one launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchFault {
    /// An SM dropped off the bus mid-launch.
    SmLost {
        /// Which SM was lost.
        sm: u32,
    },
    /// The driver watchdog killed the launch.
    Watchdog {
        /// The watchdog limit that was exceeded.
        limit_ms: u32,
    },
}

/// Shared tally of faults applied by concurrently-executing blocks.
#[derive(Debug, Default)]
pub struct FaultTally {
    smem: AtomicU64,
    reg: AtomicU64,
}

impl FaultTally {
    /// Records `n` applied shared-memory flips.
    pub fn add_smem(&self, n: u64) {
        self.smem.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` applied register flips.
    pub fn add_reg(&self, n: u64) {
        self.reg.fetch_add(n, Ordering::Relaxed);
    }

    /// Applied shared-memory flips so far.
    #[must_use]
    pub fn smem(&self) -> u64 {
        self.smem.load(Ordering::Relaxed)
    }

    /// Applied register flips so far.
    #[must_use]
    pub fn reg(&self) -> u64 {
        self.reg.load(Ordering::Relaxed)
    }
}

/// The faults scheduled against one specific block of a launch.
#[derive(Debug, Clone)]
pub struct BlockFaults {
    /// Shared-memory flips, keyed by barrier ordinal.
    pub(crate) smem: Vec<SmemFlip>,
    /// Accumulator flips, drained on first request.
    pub(crate) reg: Vec<RegFlip>,
    /// Where applied flips are tallied.
    pub(crate) tally: Arc<FaultTally>,
}

/// The complete fault schedule of one launch.
#[derive(Debug, Clone, Default)]
pub struct LaunchFaultPlan {
    smem: HashMap<u64, Vec<SmemFlip>>,
    reg: HashMap<u64, Vec<RegFlip>>,
    /// `(word draw, bit)` DRAM flips, applied by the device after the
    /// launch over the kernel's declared writable buffers.
    pub(crate) dram: Vec<(u64, u8)>,
    tally: Arc<FaultTally>,
}

impl LaunchFaultPlan {
    /// The faults aimed at block `linear` (launch-order index), if any.
    #[must_use]
    pub fn block_faults(&self, linear: u64) -> Option<BlockFaults> {
        let smem = self.smem.get(&linear).cloned().unwrap_or_default();
        let reg = self.reg.get(&linear).cloned().unwrap_or_default();
        if smem.is_empty() && reg.is_empty() {
            return None;
        }
        Some(BlockFaults {
            smem,
            reg,
            tally: Arc::clone(&self.tally),
        })
    }

    /// True when block `linear` (launch-order index) has shared-memory
    /// or register flips scheduled against it: two lookups, no clone.
    #[must_use]
    pub fn names(&self, linear: u64) -> bool {
        self.smem.contains_key(&linear) || self.reg.contains_key(&linear)
    }

    /// Applied shared-memory flips so far.
    #[must_use]
    pub fn applied_smem(&self) -> u64 {
        self.tally.smem()
    }

    /// Applied register flips so far.
    #[must_use]
    pub fn applied_reg(&self) -> u64 {
        self.tally.reg()
    }
}

/// Everything drawn for one launch: an optional fatal launch fault
/// plus the in-flight bit-flip schedule.
#[derive(Debug, Clone)]
pub struct LaunchDraw {
    /// Fatal failure of the whole launch, if drawn.
    pub launch_fault: Option<LaunchFault>,
    /// Bit-flip schedule (empty when a launch fault fires — the launch
    /// never completes).
    pub plan: LaunchFaultPlan,
}

/// Device-resident fault generator: the spec plus a launch epoch.
#[derive(Debug, Clone)]
pub struct FaultState {
    spec: FaultSpec,
    epoch: u64,
}

/// Expected-count draw: `floor(rate)` events plus one more with
/// probability `frac(rate)`.
fn draw_count(rate: f64, rng: &mut ChaCha8Rng) -> u64 {
    let base = rate.floor();
    let frac = rate - base;
    base as u64 + u64::from(rng.gen_bool(frac))
}

impl FaultState {
    /// New state at epoch 0.
    #[must_use]
    pub fn new(spec: FaultSpec) -> Self {
        Self { spec, epoch: 0 }
    }

    /// The configured spec.
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Launches drawn so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Draws the fault schedule of the next launch and advances the
    /// epoch. The draw sequence is fixed (launch faults, then SMEM,
    /// register and DRAM events) and always fully consumed, so a
    /// schedule depends only on `(spec, epoch, total_blocks, num_sms)`.
    pub fn next_draw(&mut self, total_blocks: u64, num_sms: u32) -> LaunchDraw {
        let epoch = self.epoch;
        self.epoch += 1;
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.spec.seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));

        let sm_lost = rng.gen_bool(self.spec.sm_loss_rate);
        let sm = rng.gen_range(0..num_sms.max(1));
        let watchdog = rng.gen_bool(self.spec.watchdog_rate);

        let mut plan = LaunchFaultPlan::default();
        let blocks = total_blocks.max(1);
        for _ in 0..draw_count(self.spec.smem_rate, &mut rng) {
            let block = rng.gen_range(0..blocks);
            let flip = SmemFlip {
                sync_idx: rng.gen_range(0..MAX_SYNC_TARGET),
                word_pick: rng.gen::<u64>(),
                bit: rng.gen_range(0..32u8),
            };
            plan.smem.entry(block).or_default().push(flip);
        }
        for _ in 0..draw_count(self.spec.reg_rate, &mut rng) {
            let block = rng.gen_range(0..blocks);
            let flip = RegFlip {
                elem_pick: rng.gen::<u64>(),
                bit: rng.gen_range(0..32u8),
            };
            plan.reg.entry(block).or_default().push(flip);
        }
        for _ in 0..draw_count(self.spec.dram_rate, &mut rng) {
            // Exponent/sign bits only: flips large enough to clear the
            // FP checksum noise floor (see DESIGN.md §11), modelling
            // the detectable end of the DRAM upset spectrum.
            plan.dram.push((rng.gen::<u64>(), rng.gen_range(23..32u8)));
        }

        let launch_fault = if sm_lost {
            Some(LaunchFault::SmLost { sm })
        } else if watchdog {
            Some(LaunchFault::Watchdog {
                limit_ms: WATCHDOG_LIMIT_MS,
            })
        } else {
            None
        };
        LaunchDraw { launch_fault, plan }
    }
}

/// Phase of a device's lifecycle, drawn per pool batch by
/// [`LifecycleState::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevicePhase {
    /// Fully operational: launches run normally.
    Healthy,
    /// Transiently hung (driver stall, thermal throttle-to-zero):
    /// every launch fails until a recovery is drawn.
    Hung,
    /// Permanently lost (fell off the bus): never serves again.
    Lost,
}

impl DevicePhase {
    /// True when the device can execute launches.
    #[must_use]
    pub fn is_healthy(self) -> bool {
        matches!(self, DevicePhase::Healthy)
    }
}

/// Seeded device-lifecycle fault rates: per-epoch probabilities of a
/// transient hang, a permanent loss, and — while hung — a recovery.
/// All three are probabilities in `[0, 1]`; an epoch corresponds to
/// one pool batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifecycleSpec {
    /// Base seed of the lifecycle stream.
    pub seed: u64,
    /// Probability a healthy device hangs this epoch.
    pub hang_rate: f64,
    /// Probability a healthy device is permanently lost this epoch.
    pub loss_rate: f64,
    /// Probability a hung device recovers this epoch (flapping).
    pub recover_rate: f64,
}

impl Default for LifecycleSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            hang_rate: 0.0,
            loss_rate: 0.0,
            recover_rate: 0.0,
        }
    }
}

impl LifecycleSpec {
    /// Parses a `key=value` comma list, e.g.
    /// `"seed=7,hang=0.1,loss=0.01,recover=0.5"`. Unknown keys,
    /// malformed values, and probabilities outside `[0, 1]` are
    /// rejected.
    ///
    /// # Errors
    /// Returns a human-readable description of the first problem.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (seed, [hang_rate, loss_rate, recover_rate]) = parse_spec(
            spec,
            "lifecycle",
            [
                ("hang", "hang probability", 1.0),
                ("loss", "loss probability", 1.0),
                ("recover", "recover probability", 1.0),
            ],
        )?;
        Ok(Self {
            seed,
            hang_rate,
            loss_rate,
            recover_rate,
        })
    }

    /// True if the device can never leave [`DevicePhase::Healthy`]
    /// under this spec.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.hang_rate == 0.0 && self.loss_rate == 0.0
    }
}

/// Device-resident lifecycle generator: the spec, an epoch counter,
/// and the current [`DevicePhase`]. Like [`FaultState`], every epoch
/// derives an independent ChaCha8 stream from `seed ⊕ f(epoch)` and
/// the draw order is fixed and always fully consumed, so the phase
/// trajectory is a pure function of `(spec, epoch)`.
#[derive(Debug, Clone)]
pub struct LifecycleState {
    spec: LifecycleSpec,
    epoch: u64,
    phase: DevicePhase,
}

impl LifecycleState {
    /// New state: healthy at epoch 0.
    #[must_use]
    pub fn new(spec: LifecycleSpec) -> Self {
        Self {
            spec,
            epoch: 0,
            phase: DevicePhase::Healthy,
        }
    }

    /// The configured spec.
    #[must_use]
    pub fn spec(&self) -> &LifecycleSpec {
        &self.spec
    }

    /// Current phase (after the last [`advance`](Self::advance)).
    #[must_use]
    pub fn phase(&self) -> DevicePhase {
        self.phase
    }

    /// Epochs drawn so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances one epoch and returns the new phase. Loss, hang and
    /// recovery are drawn in that fixed order (all three always
    /// consumed); `Lost` is absorbing, a `Hung` device returns to
    /// `Healthy` when a recovery is drawn, and a `Healthy` device
    /// prefers loss over hang when both fire.
    pub fn advance(&mut self) -> DevicePhase {
        let epoch = self.epoch;
        self.epoch += 1;
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.spec.seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let loss = rng.gen_bool(self.spec.loss_rate);
        let hang = rng.gen_bool(self.spec.hang_rate);
        let recover = rng.gen_bool(self.spec.recover_rate);
        self.phase = match self.phase {
            DevicePhase::Lost => DevicePhase::Lost,
            DevicePhase::Hung => {
                if recover {
                    DevicePhase::Healthy
                } else {
                    DevicePhase::Hung
                }
            }
            DevicePhase::Healthy => {
                if loss {
                    DevicePhase::Lost
                } else if hang {
                    DevicePhase::Hung
                } else {
                    DevicePhase::Healthy
                }
            }
        };
        self.phase
    }
}

/// Seeded per-transfer interconnect fault rates: probabilities that a
/// host↔device transfer is corrupted in flight (caught by the CRC
/// check and retransmitted) or times out (the transfer — and with it
/// the shard attempt — fails).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFaultSpec {
    /// Base seed of the link-fault stream.
    pub seed: u64,
    /// Probability a transfer is corrupted (CRC-detected, retransmit).
    pub corrupt_rate: f64,
    /// Probability a transfer times out (attempt fails).
    pub timeout_rate: f64,
}

impl Default for LinkFaultSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            corrupt_rate: 0.0,
            timeout_rate: 0.0,
        }
    }
}

impl LinkFaultSpec {
    /// Parses a `key=value` comma list, e.g.
    /// `"seed=3,corrupt=0.05,timeout=0.01"`. Unknown keys, malformed
    /// values, and probabilities outside `[0, 1]` are rejected.
    ///
    /// # Errors
    /// Returns a human-readable description of the first problem.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (seed, [corrupt_rate, timeout_rate]) = parse_spec(
            spec,
            "link",
            [
                ("corrupt", "corrupt probability", 1.0),
                ("timeout", "timeout probability", 1.0),
            ],
        )?;
        Ok(Self {
            seed,
            corrupt_rate,
            timeout_rate,
        })
    }

    /// True if no transfer fault can ever fire under this spec.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.corrupt_rate == 0.0 && self.timeout_rate == 0.0
    }
}

/// The fault outcome drawn for one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkDraw {
    /// Transfer was corrupted in flight; the CRC check catches it and
    /// a retransmit recovers the payload (time doubles).
    pub corrupt: bool,
    /// Transfer timed out; the shard attempt fails.
    pub timeout: bool,
}

impl LinkDraw {
    /// True when the transfer completed cleanly first try.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        !self.corrupt && !self.timeout
    }
}

/// Per-task link-fault generator: the spec plus a transfer epoch.
/// Deliberately *task-scoped*, not device-resident: each pool task
/// attempt binds a fresh state (seed decorrelated by batch and slot)
/// and its transfers advance it task-locally. A draw sequence is then
/// a pure function of `(spec, batch, slot, transfer ordinal)`, so it
/// does not depend on which other tasks the device ran or in what
/// order.
#[derive(Debug, Clone)]
pub struct LinkFaultState {
    spec: LinkFaultSpec,
    epoch: u64,
}

impl LinkFaultState {
    /// New state at transfer epoch 0.
    #[must_use]
    pub fn new(spec: LinkFaultSpec) -> Self {
        Self { spec, epoch: 0 }
    }

    /// The configured spec.
    #[must_use]
    pub fn spec(&self) -> &LinkFaultSpec {
        &self.spec
    }

    /// Draws the fault outcome of the next transfer and advances the
    /// epoch. Both draws are always consumed; a timeout preempts a
    /// simultaneous corruption (the transfer never finishes, so there
    /// is nothing for the CRC to catch).
    pub fn next_draw(&mut self) -> LinkDraw {
        let epoch = self.epoch;
        self.epoch += 1;
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.spec.seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let corrupt = rng.gen_bool(self.spec.corrupt_rate);
        let timeout = rng.gen_bool(self.spec.timeout_rate);
        LinkDraw {
            corrupt: corrupt && !timeout,
            timeout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> FaultSpec {
        FaultSpec::parse(s).expect("valid spec")
    }

    #[test]
    fn parse_full_spec() {
        let s = spec("seed=7,smem=0.5,reg=1,dram=0.25,sm=0.01,watchdog=0.001");
        assert_eq!(s.seed, 7);
        assert_eq!(s.smem_rate, 0.5);
        assert_eq!(s.reg_rate, 1.0);
        assert_eq!(s.dram_rate, 0.25);
        assert_eq!(s.sm_loss_rate, 0.01);
        assert_eq!(s.watchdog_rate, 0.001);
        assert!(!s.is_quiet());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("smem").is_err());
        assert!(FaultSpec::parse("smem=-1").is_err());
        assert!(FaultSpec::parse("sm=1.5").is_err());
        assert!(FaultSpec::parse("watchdog=2").is_err());
        assert!(FaultSpec::parse("seed=abc").is_err());
        assert!(FaultSpec::parse("smem=nan").is_err());
    }

    #[test]
    fn empty_spec_is_quiet() {
        assert!(spec("").is_quiet());
        assert!(spec("seed=9").is_quiet());
    }

    #[test]
    fn draws_are_deterministic_per_epoch() {
        let s = spec("seed=42,smem=3,reg=2,dram=1.5");
        let mut a = FaultState::new(s);
        let mut b = FaultState::new(s);
        for _ in 0..4 {
            let da = a.next_draw(64, 13);
            let db = b.next_draw(64, 13);
            assert_eq!(da.launch_fault, db.launch_fault);
            assert_eq!(da.plan.smem, db.plan.smem);
            assert_eq!(da.plan.reg, db.plan.reg);
            assert_eq!(da.plan.dram, db.plan.dram);
        }
    }

    #[test]
    fn epochs_draw_different_schedules() {
        let mut st = FaultState::new(spec("seed=1,smem=4,dram=4"));
        let d0 = st.next_draw(1024, 13);
        let d1 = st.next_draw(1024, 13);
        assert_eq!(st.epoch(), 2);
        assert!(
            d0.plan.smem != d1.plan.smem || d0.plan.dram != d1.plan.dram,
            "consecutive epochs should not repeat the schedule"
        );
    }

    #[test]
    fn integer_rates_guarantee_event_counts() {
        let mut st = FaultState::new(spec("seed=5,smem=3"));
        let d = st.next_draw(16, 13);
        let total: usize = d.plan.smem.values().map(Vec::len).sum();
        assert_eq!(total, 3, "rate 3.0 must schedule exactly 3 events");
        assert!(d.plan.reg.is_empty() && d.plan.dram.is_empty());
    }

    #[test]
    fn quiet_spec_never_faults() {
        let mut st = FaultState::new(FaultSpec::default());
        for _ in 0..32 {
            let d = st.next_draw(64, 13);
            assert!(d.launch_fault.is_none());
            assert!(d.plan.smem.is_empty() && d.plan.reg.is_empty() && d.plan.dram.is_empty());
        }
    }

    #[test]
    fn certain_sm_loss_kills_every_launch() {
        let mut st = FaultState::new(spec("sm=1"));
        for _ in 0..8 {
            let d = st.next_draw(64, 13);
            match d.launch_fault {
                Some(LaunchFault::SmLost { sm }) => assert!(sm < 13),
                other => panic!("expected SmLost, got {other:?}"),
            }
        }
    }

    #[test]
    fn block_faults_groups_by_block() {
        let mut st = FaultState::new(spec("seed=3,smem=8,reg=8"));
        let d = st.next_draw(4, 13);
        let mut seen = 0usize;
        for b in 0..4u64 {
            if let Some(f) = d.plan.block_faults(b) {
                seen += f.smem.len() + f.reg.len();
            }
        }
        assert_eq!(seen, 16, "every scheduled event belongs to some block");
        assert!(d.plan.block_faults(99).is_none());
        for b in [0, 1, 2, 3, 99] {
            assert_eq!(d.plan.names(b), d.plan.block_faults(b).is_some(), "{b}");
        }
        let dram = FaultState::new(spec("seed=3,dram=8")).next_draw(4, 13).plan;
        assert!(!dram.dram.is_empty() && (0..4).all(|b| !dram.names(b)));
    }

    #[test]
    fn counters_merge_and_emptiness() {
        let mut c = FaultCounters::default();
        assert!(c.is_empty());
        c.merge(&FaultCounters {
            smem_flips: 1,
            reg_flips: 2,
            dram_flips: 3,
            launch_faults: 4,
        });
        assert!(!c.is_empty());
        assert_eq!(
            c.smem_flips + c.reg_flips + c.dram_flips + c.launch_faults,
            10
        );
    }

    #[test]
    fn spec_serde_round_trips() {
        use serde::{Deserialize, Serialize};
        let s = spec("seed=11,smem=0.25,sm=0.5");
        let back = FaultSpec::from_value(&s.to_value()).expect("round trip");
        assert_eq!(s, back);
    }

    fn lifecycle(s: &str) -> LifecycleSpec {
        LifecycleSpec::parse(s).expect("valid lifecycle spec")
    }

    #[test]
    fn lifecycle_parse_full_spec() {
        let s = lifecycle("seed=7,hang=0.1,loss=0.01,recover=0.5");
        assert_eq!(s.seed, 7);
        assert_eq!(s.hang_rate, 0.1);
        assert_eq!(s.loss_rate, 0.01);
        assert_eq!(s.recover_rate, 0.5);
        assert!(!s.is_quiet());
    }

    #[test]
    fn lifecycle_parse_rejects_garbage() {
        assert!(LifecycleSpec::parse("bogus=1").is_err());
        assert!(LifecycleSpec::parse("hang").is_err());
        assert!(LifecycleSpec::parse("hang=-1").is_err());
        assert!(LifecycleSpec::parse("hang=1.5").is_err());
        assert!(LifecycleSpec::parse("loss=2").is_err());
        assert!(LifecycleSpec::parse("recover=nan").is_err());
        assert!(LifecycleSpec::parse("seed=abc").is_err());
    }

    #[test]
    fn lifecycle_empty_and_recover_only_specs_are_quiet() {
        assert!(lifecycle("").is_quiet());
        assert!(lifecycle("seed=9,recover=1").is_quiet());
        assert!(!lifecycle("hang=0.1").is_quiet());
        assert!(!lifecycle("loss=0.1").is_quiet());
    }

    #[test]
    fn quiet_lifecycle_stays_healthy_forever() {
        let mut st = LifecycleState::new(LifecycleSpec::default());
        for _ in 0..64 {
            assert_eq!(st.advance(), DevicePhase::Healthy);
        }
        assert_eq!(st.epoch(), 64);
    }

    #[test]
    fn lifecycle_trajectory_is_deterministic() {
        let s = lifecycle("seed=42,hang=0.3,loss=0.05,recover=0.4");
        let mut a = LifecycleState::new(s);
        let mut b = LifecycleState::new(s);
        for _ in 0..64 {
            assert_eq!(a.advance(), b.advance());
        }
    }

    #[test]
    fn certain_hang_and_recover_flap() {
        // hang=1, recover=1: the device alternates Hung/Healthy every
        // epoch — the flapping pattern the pool members' breakers must ride.
        let mut st = LifecycleState::new(lifecycle("hang=1,recover=1"));
        assert_eq!(st.advance(), DevicePhase::Hung);
        assert_eq!(st.advance(), DevicePhase::Healthy);
        assert_eq!(st.advance(), DevicePhase::Hung);
        assert_eq!(st.advance(), DevicePhase::Healthy);
    }

    #[test]
    fn loss_is_absorbing_even_with_certain_recovery() {
        let mut st = LifecycleState::new(lifecycle("loss=1,recover=1"));
        for _ in 0..8 {
            assert_eq!(st.advance(), DevicePhase::Lost);
        }
        assert!(!DevicePhase::Lost.is_healthy());
        assert!(!DevicePhase::Hung.is_healthy());
        assert!(DevicePhase::Healthy.is_healthy());
    }

    #[test]
    fn lifecycle_spec_serde_round_trips() {
        use serde::{Deserialize, Serialize};
        let s = lifecycle("seed=11,hang=0.25,loss=0.5");
        let back = LifecycleSpec::from_value(&s.to_value()).expect("round trip");
        assert_eq!(s, back);
    }

    fn link(s: &str) -> LinkFaultSpec {
        LinkFaultSpec::parse(s).expect("valid link spec")
    }

    #[test]
    fn link_parse_full_spec() {
        let s = link("seed=3,corrupt=0.05,timeout=0.01");
        assert_eq!(s.seed, 3);
        assert_eq!(s.corrupt_rate, 0.05);
        assert_eq!(s.timeout_rate, 0.01);
        assert!(!s.is_quiet());
    }

    #[test]
    fn link_parse_rejects_garbage() {
        assert!(LinkFaultSpec::parse("bogus=1").is_err());
        assert!(LinkFaultSpec::parse("corrupt").is_err());
        assert!(LinkFaultSpec::parse("corrupt=-1").is_err());
        assert!(LinkFaultSpec::parse("corrupt=1.5").is_err());
        assert!(LinkFaultSpec::parse("timeout=2").is_err());
        assert!(LinkFaultSpec::parse("seed=abc").is_err());
    }

    #[test]
    fn quiet_link_spec_never_faults() {
        assert!(link("").is_quiet());
        assert!(link("seed=5").is_quiet());
        let mut st = LinkFaultState::new(LinkFaultSpec::default());
        for _ in 0..64 {
            assert!(st.next_draw().is_clean());
        }
    }

    #[test]
    fn link_draws_are_deterministic_and_vary_by_epoch() {
        let s = link("seed=9,corrupt=0.5,timeout=0.25");
        let mut a = LinkFaultState::new(s);
        let mut b = LinkFaultState::new(s);
        let da: Vec<LinkDraw> = (0..64).map(|_| a.next_draw()).collect();
        let db: Vec<LinkDraw> = (0..64).map(|_| b.next_draw()).collect();
        assert_eq!(da, db);
        assert!(
            da.iter().any(|d| d.corrupt) && da.iter().any(|d| d.is_clean()),
            "a 50% corrupt stream must mix clean and corrupt draws"
        );
    }

    #[test]
    fn link_timeout_preempts_corruption() {
        let mut st = LinkFaultState::new(link("corrupt=1,timeout=1"));
        for _ in 0..8 {
            let d = st.next_draw();
            assert!(d.timeout && !d.corrupt, "timeout wins over corruption");
        }
    }

    #[test]
    fn link_spec_serde_round_trips() {
        use serde::{Deserialize, Serialize};
        let s = link("seed=4,corrupt=0.125,timeout=0.0625");
        let back = LinkFaultSpec::from_value(&s.to_value()).expect("round trip");
        assert_eq!(s, back);
    }
}
