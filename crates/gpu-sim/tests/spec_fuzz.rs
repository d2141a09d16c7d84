//! Fuzzes the `--faults`, `--lifecycle-faults` and `--link-faults`
//! spec parsers with entries composed from valid and invalid keys,
//! separators and values: no input panics a parser, and every spec a
//! parser accepts has finite rates within its documented bounds.

use ks_gpu_sim::fault::MAX_EVENT_RATE;
use ks_gpu_sim::{FaultSpec, LifecycleSpec, LinkFaultSpec};
use proptest::prelude::*;
use proptest::sample::select;

/// Value tokens: the edge cases (not a number, infinite, negative,
/// huge, empty) next to ordinary rates and probabilities.
const VALUES: [&str; 9] = ["nan", "inf", "-1", "1e300", "", "0", "0.5", "1", "1e4"];

/// One to three `key<sep>value` entries over `keys`, joined by a
/// (sometimes doubled) comma.
fn spec(keys: &[&'static str]) -> impl Strategy<Value = String> {
    let entry = (
        select(keys.to_vec()),
        select(vec!["=", "=", "=", ":"]),
        select(VALUES.to_vec()),
    )
        .prop_map(|(key, sep, value)| format!("{key}{sep}{value}"));
    (
        proptest::collection::vec(entry, 1..4),
        select(vec![",", ", ", ",,"]),
    )
        .prop_map(|(entries, joiner)| entries.join(joiner))
}

fn within(rate: f64, max: f64) -> bool {
    rate.is_finite() && (0.0..=max).contains(&rate)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn fault_specs_parse_within_bounds(
        s in spec(&["seed", "smem", "reg", "dram", "sm", "watchdog", "bogus", ""])
    ) {
        if let Ok(f) = FaultSpec::parse(&s) {
            for rate in [f.smem_rate, f.reg_rate, f.dram_rate] {
                prop_assert!(within(rate, MAX_EVENT_RATE), "{s:?} accepted as {f:?}");
            }
            for p in [f.sm_loss_rate, f.watchdog_rate] {
                prop_assert!(within(p, 1.0), "{s:?} accepted as {f:?}");
            }
        }
    }

    #[test]
    fn lifecycle_specs_parse_within_bounds(
        s in spec(&["seed", "hang", "loss", "recover", "bogus", ""])
    ) {
        if let Ok(l) = LifecycleSpec::parse(&s) {
            for p in [l.hang_rate, l.loss_rate, l.recover_rate] {
                prop_assert!(within(p, 1.0), "{s:?} accepted as {l:?}");
            }
        }
    }

    #[test]
    fn link_specs_parse_within_bounds(
        s in spec(&["seed", "corrupt", "timeout", "bogus", ""])
    ) {
        if let Ok(l) = LinkFaultSpec::parse(&s) {
            for p in [l.corrupt_rate, l.timeout_rate] {
                prop_assert!(within(p, 1.0), "{s:?} accepted as {l:?}");
            }
        }
    }
}

#[test]
fn event_rates_stop_at_the_ceiling() {
    for key in ["smem", "reg", "dram"] {
        assert!(FaultSpec::parse(&format!("{key}=1e4")).is_ok());
        let err = FaultSpec::parse(&format!("{key}=10000.5")).expect_err("above the ceiling");
        assert!(err.contains("must be <= 10000"), "{err}");
    }
}
