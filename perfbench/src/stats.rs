//! Seeded randomness, arrival schedules and order statistics.

/// SplitMix64: a small, full-avalanche generator whose stream is a pure
/// function of its seed.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Send offsets, in seconds from the start of the loop, of `count`
/// arrivals of a Poisson process of `rate` per second, conditioned on
/// exactly `count` arrivals in the window `count / rate`. Conditioned
/// that way, the arrival times are `count` sorted uniform draws over
/// the window, so every round offers the same load over the same
/// window while the gaps stay exponential-like and bursty. A pure
/// function of its arguments.
pub fn poisson_schedule(seed: u64, count: usize, rate: f64) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let window = count as f64 / rate;
    let mut rng = SplitMix::new(seed);
    let mut at: Vec<f64> = (0..count).map(|_| rng.next_f64() * window).collect();
    at.sort_by(f64::total_cmp);
    at
}

/// A nearest-rank percentile of a sample in which every failed
/// operation is recorded as `f64::INFINITY`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value; infinite when failures reach into this percentile.
    pub value: f64,
    /// Sample size.
    pub samples: usize,
    /// The highest percentile with at least ten samples beyond it
    /// (0 when the sample has fewer than eleven values).
    pub supported: f64,
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> Percentile {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let n = samples.len();
    let supported = if n > 10 {
        100.0 * (n - 10) as f64 / n as f64
    } else {
        0.0
    };
    if n == 0 {
        return Percentile {
            value: f64::INFINITY,
            samples: 0,
            supported,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Percentile {
        value: sorted[rank.clamp(1, n) - 1],
        samples: n,
        supported,
    }
}

/// Median (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(7, 500, 60.0);
        let b = poisson_schedule(7, 500, 60.0);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_ne!(a, poisson_schedule(8, 500, 60.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let window = 500.0 / 60.0;
        assert!(a.iter().all(|&t| (0.0..window).contains(&t)));
        // Mean gap matches the rate and gaps are bursty (exponential:
        // coefficient of variation near 1, not a fixed tick).
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean * 60.0 - 1.0).abs() < 0.05, "mean gap {mean}");
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.2,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn percentile_counts_failures_as_infinite() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0).value, 50.0);
        assert_eq!(percentile(&xs, 99.0).value, 99.0);
        // Two failures push the 99th percentile to infinity but leave
        // the median finite.
        xs[3] = f64::INFINITY;
        xs[70] = f64::INFINITY;
        assert!(percentile(&xs, 99.0).value.is_infinite());
        assert!(percentile(&xs, 50.0).value.is_finite());
        assert!(percentile(&[], 50.0).value.is_infinite());
    }

    #[test]
    fn percentile_reports_the_supported_percentile() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let p = percentile(&xs, 99.0);
        assert_eq!(p.samples, 1000);
        assert!((p.supported - 99.0).abs() < 1e-12, "{}", p.supported);
        assert!(percentile(&xs[..200], 99.0).supported < 99.0);
        assert_eq!(percentile(&xs[..10], 50.0).supported, 0.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
