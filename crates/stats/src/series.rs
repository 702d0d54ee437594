//! Per-frame time series (the raw material of the paper's figures).

use crate::RunningStat;

/// A named per-frame series of values.
///
/// The paper plots several metrics frame by frame (batches per frame, index
/// bandwidth per frame, vertex cache hit rate, …). A `TimeSeries` collects
/// one value per frame and offers the summary statistics the tables report.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries { name: name.into(), values: Vec::new() }
    }

    /// The display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one frame's value.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of frames recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no frames have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The recorded values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean over all frames; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.summary().mean()
    }

    /// Summary statistics over all frames.
    pub fn summary(&self) -> RunningStat {
        self.values.iter().copied().collect()
    }

    /// Mean over the half-open frame range `[from, to)`, clamped to the
    /// series length. Used for Oblivion's two-region vertex shader average.
    pub fn mean_range(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.values.len());
        if from >= to {
            return 0.0;
        }
        self.values[from..to].iter().sum::<f64>() / (to - from) as f64
    }

    /// Down-samples to at most `buckets` points by averaging equal spans —
    /// used to render long series as compact charts.
    pub fn bucketed(&self, buckets: usize) -> Vec<f64> {
        if self.values.is_empty() || buckets == 0 {
            return Vec::new();
        }
        if self.values.len() <= buckets {
            return self.values.clone();
        }
        let n = self.values.len();
        (0..buckets)
            .map(|b| {
                let lo = b * n / buckets;
                let hi = ((b + 1) * n / buckets).max(lo + 1);
                self.values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    }

    /// Emits `frame,value` CSV lines (with a header).
    pub fn to_csv(&self) -> String {
        let mut out = format!("frame,{}\n", self.name);
        for (i, v) in self.values.iter().enumerate() {
            out.push_str(&format!("{},{v}\n", i + 1));
        }
        out
    }
}

impl Extend<f64> for TimeSeries {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

/// Renders one or more series as a fixed-size ASCII chart (the `repro`
/// binary's stand-in for the paper's figures).
///
/// Each series is drawn with its own glyph; values are linearly mapped into
/// `height` rows between the global min and max. When `log_scale` is set,
/// values are transformed by `log10(max(v, 1))` first (Figure 3 in the paper
/// uses a log axis).
pub fn ascii_chart(series: &[&TimeSeries], width: usize, height: usize, log_scale: bool) -> String {
    const GLYPHS: [char; 6] = ['*', '+', 'o', 'x', '#', '@'];
    let width = width.max(8);
    let height = height.max(2);
    let transformed: Vec<(String, Vec<f64>)> = series
        .iter()
        .map(|s| {
            let vals = s
                .bucketed(width)
                .into_iter()
                .map(|v| if log_scale { v.max(1.0).log10() } else { v })
                .collect();
            (s.name().to_owned(), vals)
        })
        .collect();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, vals) in &transformed {
        for &v in vals {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || !hi.is_finite() {
        return String::from("(empty chart)\n");
    }
    if hi - lo < 1e-12 {
        hi = lo + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, vals)) in transformed.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for (x, &v) in vals.iter().enumerate() {
            let y = ((v - lo) / (hi - lo) * (height - 1) as f64).round() as usize;
            let row = height - 1 - y.min(height - 1);
            grid[row][x] = glyph;
        }
    }
    let mut out = String::new();
    let label = |v: f64| {
        if log_scale {
            format!("{:>10.1}", 10f64.powf(v))
        } else {
            format!("{v:>10.1}")
        }
    };
    for (r, row) in grid.iter().enumerate() {
        let axis_val = hi - (hi - lo) * r as f64 / (height - 1) as f64;
        out.push_str(&label(axis_val));
        out.push_str(" |");
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(width)));
    let mut legend = format!("{:>12}", "");
    for (si, (name, _)) in transformed.iter().enumerate() {
        legend.push_str(&format!("[{}] {}  ", GLYPHS[si % GLYPHS.len()], name));
    }
    out.push_str(&legend);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_len() {
        let mut s = TimeSeries::new("x");
        s.extend([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.mean(), 2.5);
    }

    #[test]
    fn empty_series_mean_zero() {
        assert_eq!(TimeSeries::new("e").mean(), 0.0);
        assert!(TimeSeries::new("e").is_empty());
    }

    #[test]
    fn mean_range_clamps() {
        let mut s = TimeSeries::new("x");
        s.extend([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean_range(0, 2), 1.5);
        assert_eq!(s.mean_range(2, 100), 3.5);
        assert_eq!(s.mean_range(3, 3), 0.0);
        assert_eq!(s.mean_range(5, 2), 0.0);
    }

    #[test]
    fn bucketed_preserves_short_series() {
        let mut s = TimeSeries::new("x");
        s.extend([1.0, 2.0, 3.0]);
        assert_eq!(s.bucketed(10), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn bucketed_averages_spans() {
        let mut s = TimeSeries::new("x");
        s.extend((0..100).map(|i| i as f64));
        let b = s.bucketed(10);
        assert_eq!(b.len(), 10);
        // First bucket = mean of 0..10 = 4.5.
        assert!((b[0] - 4.5).abs() < 1e-9);
        assert!((b[9] - 94.5).abs() < 1e-9);
    }

    #[test]
    fn bucketed_total_mean_preserved() {
        let mut s = TimeSeries::new("x");
        s.extend((0..128).map(|i| (i % 13) as f64));
        let b = s.bucketed(16); // 128/16 = equal spans
        let mb = b.iter().sum::<f64>() / b.len() as f64;
        assert!((mb - s.mean()).abs() < 1e-9);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut s = TimeSeries::new("batches");
        s.extend([5.0, 6.0]);
        let csv = s.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("frame,batches"));
        assert_eq!(lines.next(), Some("1,5"));
        assert_eq!(lines.next(), Some("2,6"));
    }

    #[test]
    fn chart_renders_nonempty() {
        let mut s = TimeSeries::new("x");
        s.extend((0..50).map(|i| (i as f64).sin() * 10.0 + 20.0));
        let chart = ascii_chart(&[&s], 40, 8, false);
        assert!(chart.contains('*'));
        assert!(chart.contains("[*] x"));
        assert_eq!(chart.lines().count(), 10);
    }

    #[test]
    fn chart_handles_empty_and_constant() {
        let e = TimeSeries::new("e");
        assert!(ascii_chart(&[&e], 20, 5, false).contains("empty"));
        let mut c = TimeSeries::new("c");
        c.extend([3.0; 10]);
        let chart = ascii_chart(&[&c], 20, 5, false);
        assert!(chart.contains('*'));
    }

    #[test]
    fn chart_log_scale_labels_in_linear_units() {
        let mut s = TimeSeries::new("calls");
        s.extend([10.0, 100.0, 1000.0, 10000.0]);
        let chart = ascii_chart(&[&s], 20, 5, true);
        assert!(chart.contains("10000"), "chart was:\n{chart}");
    }
}
