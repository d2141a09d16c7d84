//! Pool health monitoring: the drain → evict → readmit control loop.
//!
//! The [`HealthMonitor`] scores each pool device from the evidence its
//! shard attempts produce — launch failures, ABFT-detected corruption,
//! lifecycle faults (hang/loss) and interconnect timeouts. A device
//! that fails [`HealthConfig::evict_threshold`] consecutive attempts
//! is **evicted**: the router stops placing on it and the remaining
//! devices re-plan shard ranges, so merged results stay bit-identical
//! to single-device serving (shards merge by concatenation in slot
//! order regardless of the active-device count). In-flight shards are
//! **drained**, never dropped — the coordinator blocks on the batch
//! merge and a sick shard recovers on the bit-exact CPU path before
//! the eviction takes effect. After [`HealthConfig::probe_cooldown`]
//! batches the device re-enters on **probation**: it receives real
//! traffic again, a clean GPU completion **readmits** it, and a
//! probation failure re-evicts it with a fresh cooldown window — so a
//! flapping device converges to serving only while it is actually
//! healthy.
//!
//! Passive CPU fallbacks (an open breaker, or a CPU-only policy)
//! carry **no health evidence**: the device was never tried, so they
//! neither accumulate failures nor readmit a probation device.
//!
//! If every device is sick the monitor re-opens the whole pool rather
//! than deadlocking: a pool must keep serving, and the CPU safe
//! harbor keeps results correct while it does.

/// Eviction/readmission policy knobs, configured on
/// [`crate::pool::PoolConfig::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Consecutive failed shard attempts before a device is evicted.
    pub evict_threshold: u32,
    /// Batches an evicted device sits out before a readmission probe.
    pub probe_cooldown: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            evict_threshold: 3,
            probe_cooldown: 4,
        }
    }
}

/// What one completed shard (or packed sub-launch) attempt revealed
/// about its owner device's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShardHealth {
    /// A GPU attempt completed cleanly: the device is demonstrably
    /// serving.
    CleanGpu,
    /// The GPU attempt failed — launch error, detected corruption,
    /// lifecycle fault, or link timeout — and the shard recovered on
    /// the CPU path.
    Failure,
    /// The device was never tried (CPU-only policy or an open
    /// breaker): no evidence either way.
    Passive,
}

/// Membership state of one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeviceHealth {
    /// Serving normally.
    Active,
    /// Out of the placement set since `since_batch`.
    Evicted {
        /// Batch index of the (latest) eviction.
        since_batch: u64,
    },
    /// Cooldown expired: receiving probe traffic; one clean GPU
    /// completion readmits, one failure re-evicts.
    Probation,
}

/// Per-pool health scorer and membership authority. Owned by the
/// coordinator; all transitions happen synchronously in batch/slot
/// order, so membership is a pure function of the outcome history and
/// replays deterministically.
#[derive(Debug)]
pub(crate) struct HealthMonitor {
    cfg: HealthConfig,
    states: Vec<DeviceHealth>,
    /// Consecutive failed attempts while active.
    consecutive: Vec<u32>,
    /// Evictions per device (flaps count each time).
    pub(crate) evictions: Vec<u64>,
    /// Readmissions per device.
    pub(crate) readmissions: Vec<u64>,
}

impl HealthMonitor {
    /// All devices active.
    pub(crate) fn new(devices: usize, cfg: HealthConfig) -> Self {
        Self {
            cfg,
            states: vec![DeviceHealth::Active; devices],
            consecutive: vec![0; devices],
            evictions: vec![0; devices],
            readmissions: vec![0; devices],
        }
    }

    /// The placement mask for batch `batch`: active and probation
    /// devices are eligible, and an evicted device whose cooldown has
    /// expired transitions to probation (and into the mask) here. If
    /// no device would be eligible the whole pool re-opens — serving
    /// must continue, and the CPU safe harbor keeps it correct.
    pub(crate) fn eligible(&mut self, batch: u64) -> Vec<bool> {
        let mut mask: Vec<bool> = self
            .states
            .iter_mut()
            .map(|s| match *s {
                DeviceHealth::Active | DeviceHealth::Probation => true,
                DeviceHealth::Evicted { since_batch } => {
                    if batch >= since_batch.saturating_add(self.cfg.probe_cooldown) {
                        *s = DeviceHealth::Probation;
                        true
                    } else {
                        false
                    }
                }
            })
            .collect();
        if !mask.iter().any(|&e| e) {
            mask = vec![true; self.states.len()];
        }
        mask
    }

    /// Scores one completed attempt on `device`. Called by the
    /// coordinator in slot order after the batch merge, so every
    /// in-flight shard has already drained by the time its evidence
    /// can evict anyone.
    pub(crate) fn note_outcome(&mut self, device: usize, outcome: ShardHealth, batch: u64) {
        match outcome {
            ShardHealth::Passive => {}
            ShardHealth::CleanGpu => {
                self.consecutive[device] = 0;
                if self.states[device] != DeviceHealth::Active {
                    self.states[device] = DeviceHealth::Active;
                    self.readmissions[device] += 1;
                }
            }
            ShardHealth::Failure => match self.states[device] {
                DeviceHealth::Active => {
                    self.consecutive[device] = self.consecutive[device].saturating_add(1);
                    if self.consecutive[device] >= self.cfg.evict_threshold {
                        self.evict(device, batch);
                    }
                }
                DeviceHealth::Probation => self.evict(device, batch),
                // Only reachable through the all-sick fallback: push
                // the probe window out without counting a new flap.
                DeviceHealth::Evicted { .. } => {
                    self.states[device] = DeviceHealth::Evicted { since_batch: batch };
                    self.consecutive[device] = 0;
                }
            },
        }
    }

    fn evict(&mut self, device: usize, batch: u64) {
        self.states[device] = DeviceHealth::Evicted { since_batch: batch };
        self.evictions[device] += 1;
        self.consecutive[device] = 0;
    }

    /// True while `device` is excluded from placement.
    #[cfg(test)]
    fn is_evicted(&self, device: usize) -> bool {
        matches!(self.states[device], DeviceHealth::Evicted { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(threshold: u32, cooldown: u64) -> HealthMonitor {
        HealthMonitor::new(
            3,
            HealthConfig {
                evict_threshold: threshold,
                probe_cooldown: cooldown,
            },
        )
    }

    #[test]
    fn default_config_is_sane() {
        let c = HealthConfig::default();
        assert!(c.evict_threshold > 0 && c.probe_cooldown > 0);
    }

    #[test]
    fn consecutive_failures_evict_and_success_resets_the_count() {
        let mut h = monitor(3, 4);
        h.note_outcome(1, ShardHealth::Failure, 0);
        h.note_outcome(1, ShardHealth::Failure, 1);
        h.note_outcome(1, ShardHealth::CleanGpu, 2);
        assert!(!h.is_evicted(1), "a success resets the streak");
        h.note_outcome(1, ShardHealth::Failure, 3);
        h.note_outcome(1, ShardHealth::Failure, 4);
        assert!(!h.is_evicted(1));
        h.note_outcome(1, ShardHealth::Failure, 5);
        assert!(h.is_evicted(1), "third consecutive failure evicts");
        assert_eq!(h.evictions[1], 1);
        assert_eq!(h.eligible(6), vec![true, false, true]);
    }

    #[test]
    fn passive_fallbacks_carry_no_evidence() {
        let mut h = monitor(2, 4);
        for b in 0..16 {
            h.note_outcome(0, ShardHealth::Passive, b);
        }
        assert!(!h.is_evicted(0));
        // ...and cannot readmit a probation device either.
        h.note_outcome(2, ShardHealth::Failure, 0);
        h.note_outcome(2, ShardHealth::Failure, 1);
        assert!(h.is_evicted(2));
        let _ = h.eligible(5); // cooldown expired → probation
        h.note_outcome(2, ShardHealth::Passive, 5);
        assert_eq!(h.readmissions[2], 0, "passive outcome must not readmit");
    }

    #[test]
    fn cooldown_gates_probation_and_probe_success_readmits() {
        let mut h = monitor(1, 4);
        h.note_outcome(0, ShardHealth::Failure, 2);
        assert!(h.is_evicted(0));
        assert_eq!(h.eligible(3), vec![false, true, true], "cooling down");
        assert_eq!(h.eligible(5), vec![false, true, true], "still cooling");
        assert_eq!(
            h.eligible(6),
            vec![true, true, true],
            "cooldown expired: probe traffic flows"
        );
        h.note_outcome(0, ShardHealth::CleanGpu, 6);
        assert!(!h.is_evicted(0));
        assert_eq!(h.readmissions[0], 1);
        assert_eq!(h.eligible(7), vec![true, true, true]);
    }

    #[test]
    fn probe_failure_re_evicts_with_a_fresh_window() {
        let mut h = monitor(1, 4);
        h.note_outcome(2, ShardHealth::Failure, 0);
        let _ = h.eligible(4); // → probation
        h.note_outcome(2, ShardHealth::Failure, 4);
        assert!(h.is_evicted(2));
        assert_eq!(h.evictions[2], 2, "the flap counts again");
        assert_eq!(
            h.eligible(7),
            vec![true, true, false],
            "the cooldown restarts from the probe failure"
        );
        assert_eq!(h.eligible(8), vec![true, true, true]);
    }

    #[test]
    fn an_all_sick_pool_reopens_instead_of_deadlocking() {
        let mut h = monitor(1, 100);
        for d in 0..3 {
            h.note_outcome(d, ShardHealth::Failure, 0);
        }
        assert_eq!(
            h.eligible(1),
            vec![true, true, true],
            "no eligible device → the whole pool serves (CPU-safe)"
        );
        // Evidence from the reopened pool still updates membership.
        h.note_outcome(0, ShardHealth::CleanGpu, 1);
        assert!(!h.is_evicted(0));
        assert_eq!(h.readmissions[0], 1);
        assert_eq!(h.eligible(2), vec![true, false, false]);
    }
}
