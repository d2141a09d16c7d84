//! Pool membership policy: drain → evict → readmit.
//!
//! A pool member's circuit breaker (the ladder's per-slot breaker) is
//! its membership: each unit places only on members whose breaker
//! admits the batch. [`HealthConfig::evict_threshold`] consecutive
//! failed GPU attempts (launch failures, detected corruption,
//! lifecycle faults, link timeouts) trip it, **evicting** the member;
//! the shard that failed is **drained** to the bit-exact CPU harbor,
//! never dropped, and the survivors re-plan shard ranges, so merged
//! results stay bit-identical. After [`HealthConfig::probe_cooldown`]
//! batches the breaker admits a half-open probe: a clean GPU
//! completion **readmits** the member, a failure re-evicts it with a
//! fresh cooldown. A shard that never reaches the GPU records nothing.
//! If every member refuses a unit, it is placed on all of them and
//! their open breakers send it to the harbor: the pool keeps serving.

/// Eviction/readmission policy of the pool members' breakers,
/// configured on [`crate::pool::PoolConfig::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Consecutive failed GPU attempts that trip a member's breaker
    /// open, taking the member out of placement.
    pub evict_threshold: u32,
    /// Batches a tripped member sits out before its breaker admits a
    /// half-open readmission probe.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = HealthConfig::default();
        assert!(c.evict_threshold > 0 && c.probe_cooldown > 0);
    }
}
