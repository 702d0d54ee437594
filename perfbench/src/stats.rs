//! Sample summaries: medians and the tail-percentile rule.

/// The percentiles a tail may be reported at, in tenths of a percent.
const TAIL_LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile for it to count as a tail.
const TAIL_BEYOND: usize = 10;

/// A timing distribution reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples when `n` is even).
    pub median: f64,
    /// Value at the tail percentile.
    pub tail: f64,
    /// The tail percentile, or `None` when no percentile of the ladder
    /// has ten samples beyond it and the tail is the maximum.
    pub tail_pct: Option<f64>,
}

impl Summary {
    /// Summarizes `samples` (in any order). An empty slice summarizes to
    /// zeros with `n == 0`.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Summary {
                n,
                median: 0.0,
                tail: 0.0,
                tail_pct: None,
            };
        }
        let (tail, tail_pct) = match tail_percentile(n) {
            Some(p) => (sorted[nearest_rank(n, p) - 1], Some(p as f64 / 10.0)),
            None => (sorted[n - 1], None),
        };
        Summary {
            n,
            median: median_sorted(&sorted),
            tail,
            tail_pct,
        }
    }

    /// `p90 of 108`, or `max of 6` when no percentile qualifies.
    pub fn tail_label(&self) -> String {
        match self.tail_pct {
            Some(p) => format!("p{p} of {}", self.n),
            None => format!("max of {}", self.n),
        }
    }
}

/// 1-based nearest rank of the percentile `tenths / 10` among `n` samples.
fn nearest_rank(n: usize, tenths: usize) -> usize {
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// The highest ladder percentile (in tenths of a percent) with at least
/// ten of `n` samples beyond its nearest rank.
fn tail_percentile(n: usize) -> Option<usize> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - nearest_rank(n, p) >= TAIL_BEYOND)
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).rev().collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None, "p50 of 19 has only 9 beyond");
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(39), Some(500));
        assert_eq!(tail_percentile(40), Some(750));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(199), Some(900));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
    }

    #[test]
    fn summary_reports_value_and_sample_count() {
        let s = Summary::of(&ramp(100));
        assert_eq!(
            (s.n, s.median, s.tail, s.tail_pct),
            (100, 50.5, 90.0, Some(90.0))
        );
        assert_eq!(s.tail_label(), "p90 of 100");
        let beyond = ramp(100).iter().filter(|&&v| v > s.tail).count();
        assert_eq!(beyond, 10);

        let s = Summary::of(&ramp(6));
        assert_eq!((s.median, s.tail, s.tail_pct), (3.5, 6.0, None));
        assert_eq!(s.tail_label(), "max of 6");
        assert_eq!(Summary::of(&[]).n, 0);
    }
}
