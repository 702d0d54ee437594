//! Fixed-width-bin histograms.

/// A histogram with `bins` equal-width buckets spanning `[lo, hi)`, plus
/// underflow/overflow buckets.
///
/// ```
/// use gwc_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// for x in [0.5, 1.5, 1.7, 9.9, 12.0] {
///     h.record(x);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "invalid histogram range [{lo}, {hi})");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram { lo, hi, counts: vec![0; bins], underflow: 0, overflow: 0, total: 0 }
    }

    /// Records a sample.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let bin = ((x - self.lo) / (self.hi - self.lo) * self.counts.len() as f64) as usize;
            let last = self.counts.len() - 1;
            self.counts[bin.min(last)] += 1;
        }
    }

    /// Total number of recorded samples (including under/overflow).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the top of the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Per-bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.counts
    }

    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.lo + (self.hi - self.lo) * i as f64 / self.counts.len() as f64
    }

    /// Merges another histogram into this one bin by bin.
    ///
    /// Merging is associative and commutative: sharded workers can each
    /// record into a private histogram and any reduction order yields the
    /// exact counts a single-stream accumulation would have produced.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different range or bin geometry.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "histogram geometry mismatch: [{}, {})x{} vs [{}, {})x{}",
            self.lo,
            self.hi,
            self.counts.len(),
            other.lo,
            other.hi,
            other.counts.len()
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Approximate quantile `q in [0,1]` using linear interpolation within
    /// the containing bin; returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.total as f64;
        let mut acc = self.underflow as f64;
        if acc >= target && self.underflow > 0 {
            return Some(self.lo);
        }
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        for (i, &c) in self.counts.iter().enumerate() {
            if acc + c as f64 >= target {
                let inside = if c == 0 { 0.0 } else { (target - acc) / c as f64 };
                return Some(self.bin_lo(i) + inside * w);
            }
            acc += c as f64;
        }
        Some(self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0);
        h.record(0.99);
        h.record(5.5);
        h.record(9.999);
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[5], 1);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.1);
        h.record(1.0);
        h.record(100.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantile_uniform() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 50.0).abs() < 2.0, "median = {median}");
        assert!(h.quantile(0.0).unwrap() <= 1.0);
        assert!(h.quantile(1.0).unwrap() >= 99.0);
    }

    #[test]
    fn quantile_empty_is_none() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert!(h.quantile(0.5).is_none());
    }

    #[test]
    #[should_panic(expected = "invalid histogram range")]
    fn bad_range_panics() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }

    #[test]
    fn merge_matches_single_stream() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        let mut all = Histogram::new(0.0, 10.0, 5);
        for (i, x) in [-1.0, 0.5, 3.3, 9.9, 12.0, 4.4, 7.7].iter().enumerate() {
            if i % 2 == 0 { a.record(*x) } else { b.record(*x) }
            all.record(*x);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn merge_geometry_mismatch_panics() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }

    #[test]
    fn bin_lo_edges() {
        let h = Histogram::new(10.0, 20.0, 5);
        assert_eq!(h.bin_lo(0), 10.0);
        assert_eq!(h.bin_lo(4), 18.0);
    }
}
