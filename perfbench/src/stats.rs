//! Exact quantiles over raw samples.
//!
//! Every latency the benchmark reports is computed here from the raw
//! observations it holds, never from the program's power-of-two
//! histogram buckets (those bound a quantile, they do not measure it).

/// A percentile is reported only when at least this many samples lie
/// strictly above it; below that it would be set by a handful of runs.
pub const MIN_BEYOND: usize = 10;

/// The fewest samples a median may be reported from.
pub const MIN_MEDIAN_SAMPLES: usize = 2 * MIN_BEYOND;

/// Percentiles tried, highest first, when looking for the tail figure.
const TAIL_CANDIDATES: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Sorted raw samples of one measured quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// 1-based nearest rank of quantile `q`: the smallest observation
    /// with at least `q · n` samples at or below it.
    fn rank(&self, q: f64) -> usize {
        let n = self.sorted.len();
        ((q * n as f64).ceil() as usize).clamp(1, n)
    }

    /// Samples strictly beyond quantile `q`.
    pub fn beyond(&self, q: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - self.rank(q)
    }

    /// The nearest-rank quantile `q` — an actual observation — or
    /// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() || self.beyond(q) < MIN_BEYOND {
            return None;
        }
        Some(self.sorted[self.rank(q) - 1])
    }

    /// The median even below the reporting floor (smoke runs, and the
    /// hard time cap); callers say so when they use it.
    pub fn median_unchecked(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(0.5) - 1]
    }

    /// The highest of p99.9/p99/p90/p50 that has enough samples beyond it.
    pub fn tail(&self) -> Option<(f64, f64)> {
        TAIL_CANDIDATES
            .iter()
            .find_map(|&q| self.quantile(q).map(|v| (q, v)))
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observations() {
        let s = Samples::new((1..=100).map(f64::from).collect());
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.9), Some(90.0));
        // p99 has one sample beyond it: not reportable.
        assert_eq!(s.quantile(0.99), None);
        assert_eq!(s.tail(), Some((0.9, 90.0)));
    }

    #[test]
    fn median_needs_twenty_samples() {
        let s = Samples::new((0..19).map(f64::from).collect());
        assert_eq!(s.quantile(0.5), None);
        let s = Samples::new((0..20).map(f64::from).collect());
        assert_eq!(s.quantile(0.5), Some(9.0));
    }
}
