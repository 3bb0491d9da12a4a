//! # tdc-bench
//!
//! The benchmark harness that regenerates every table and figure of the TDC
//! paper's evaluation (Section 7). Each `src/bin/*` binary prints the rows of
//! one table or the series of one figure; the Criterion benches in `benches/`
//! time the underlying computational kernels. Each binary is named after the
//! table or figure it prints; README.md's "Substitutions" section states what
//! stands in for the paper's datasets and GPUs.

pub mod figures;

use std::fmt::Write as _;

/// Geometric mean of a slice of positive numbers (used for the "average
/// speedup" summaries the paper quotes).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// A simple fixed-width text table builder for the binaries' stdout reports.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must have the same arity as the headers).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "| {:width$} ", cell, width = widths[i]);
            }
            out.push_str("|\n");
        };
        write_row(&self.headers, &mut out);
        for (i, w) in widths.iter().enumerate() {
            let _ = write!(out, "|{:-<width$}", "", width = w + 2);
            if i + 1 == widths.len() {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

/// Format milliseconds with enough precision for sub-millisecond kernels.
pub fn fmt_ms(ms: f64) -> String {
    if ms < 0.01 {
        format!("{ms:.5}")
    } else if ms < 1.0 {
        format!("{ms:.4}")
    } else {
        format!("{ms:.3}")
    }
}

/// Format a speedup factor.
pub fn fmt_x(x: f64) -> String {
    format!("{x:.2}x")
}

/// Format a percentage.
pub fn fmt_pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn table_renders_aligned_rows() {
        let mut t = TextTable::new(&["shape", "ms"]);
        t.row(&["(64,32,28,28)".into(), "0.0123".into()]);
        t.row(&["(32,32,7,7)".into(), "0.002".into()]);
        let text = t.render();
        assert!(text.contains("shape"));
        assert!(text.lines().count() >= 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        // Every line has the same number of column separators.
        let pipes: Vec<usize> = text.lines().map(|l| l.matches('|').count()).collect();
        assert!(pipes.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn wrong_arity_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_x(2.345), "2.35x");
        assert_eq!(fmt_pct(0.631), "63.1%");
        assert!(fmt_ms(0.00123).starts_with("0.0012"));
        assert!(fmt_ms(12.3456).starts_with("12.346"));
    }
}
