//! Streaming summary statistics.

/// A streaming accumulator of count, sum, mean, min and max.
///
/// ```
/// use gwc_stats::RunningStat;
///
/// let mut s = RunningStat::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStat {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl RunningStat {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStat { count: 0, sum: 0.0, sum_sq: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RunningStat) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population variance; `0.0` when empty.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let m = self.mean();
        (self.sum_sq / self.count as f64 - m * m).max(0.0)
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for RunningStat {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStat {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStat::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stat_is_sane() {
        let s = RunningStat::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn mean_min_max() {
        let s: RunningStat = [4.0, 1.0, 7.0, 0.0].into_iter().collect();
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 7.0);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        let s: RunningStat = std::iter::repeat_n(5.0, 100).collect();
        assert!(s.variance() < 1e-9);
    }

    #[test]
    fn variance_known_value() {
        let s: RunningStat = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert!((s.variance() - 4.0).abs() < 1e-9);
        assert!((s.std_dev() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_combined() {
        let mut a: RunningStat = [1.0, 2.0, 3.0].into_iter().collect();
        let b: RunningStat = [10.0, 20.0].into_iter().collect();
        a.merge(&b);
        let c: RunningStat = [1.0, 2.0, 3.0, 10.0, 20.0].into_iter().collect();
        assert_eq!(a.count(), c.count());
        assert!((a.mean() - c.mean()).abs() < 1e-12);
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
    }
}
