//! Aligned ASCII / CSV table rendering.

/// Column alignment for [`Table`] rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (labels).
    #[default]
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple table builder that renders to aligned ASCII or CSV.
///
/// ```
/// use gwc_stats::{Align, Table};
///
/// let mut t = Table::new("Demo", &["Game", "Batches"]);
/// t.align(1, Align::Right);
/// t.row(vec!["Doom3".into(), "275".into()]);
/// let s = t.to_ascii();
/// assert!(s.contains("Doom3"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            aligns: vec![Align::Left; headers.len()],
            rows: Vec::new(),
        }
    }

    /// Sets the alignment of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn align(&mut self, col: usize, align: Align) -> &mut Self {
        self.aligns[col] = align;
        self
    }

    /// Right-aligns every column except the first (the usual layout for the
    /// paper's tables: a game name column followed by numbers).
    pub fn numeric(&mut self) -> &mut Self {
        for c in 1..self.aligns.len() {
            self.aligns[c] = Align::Right;
        }
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders to aligned ASCII with a title line and a header separator.
    pub fn to_ascii(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String], widths: &[usize], aligns: &[Align]| -> String {
            let mut line = String::new();
            for c in 0..ncols {
                if c > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[c];
                match aligns[c] {
                    Align::Left => line.push_str(&format!("{cell:<w$}", w = widths[c])),
                    Align::Right => line.push_str(&format!("{cell:>w$}", w = widths[c])),
                }
            }
            line.push('\n');
            line
        };
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&fmt_row(&self.headers, &widths, &vec![Align::Left; ncols]));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths, &self.aligns));
        }
        out
    }

    /// Renders to CSV (header row first; fields containing commas or quotes
    /// are quoted).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats an `f64` with `digits` decimal places (helper for table cells).
pub fn fmt_f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats a ratio as a percentage with `digits` decimal places.
pub fn fmt_pct(v: f64, digits: usize) -> String {
    format!("{:.digits$}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_alignment() {
        let mut t = Table::new("T", &["name", "value"]);
        t.numeric();
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let s = t.to_ascii();
        assert!(s.contains("== T =="));
        // Numbers right-aligned: "1" should be preceded by spaces up to width 5.
        assert!(s.contains("a          "), "got:\n{s}");
        assert!(s.lines().any(|l| l.ends_with("    1")), "got:\n{s}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("T", &["name", "note"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_f(3.456, 2), "3.46");
        assert_eq!(fmt_pct(0.375, 1), "37.5%");
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new("T", &["a"]);
        assert!(t.is_empty());
        t.row(vec!["x".into()]);
        assert_eq!(t.len(), 1);
    }
}
