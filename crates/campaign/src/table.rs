//! Aligned text tables and cell formatting for rendered figures.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Formats a confidence interval as `mean±hw`.
#[must_use]
pub fn ci_cell(ci: &vsched_stats::ConfidenceInterval) -> String {
    format!("{:.3}±{:.3}", ci.mean, ci.half_width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header", "b"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long_header"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn ci_cell_format() {
        let ci = vsched_stats::ConfidenceInterval {
            mean: 0.5,
            half_width: 0.012,
            level: 0.95,
            n: 5,
        };
        assert_eq!(ci_cell(&ci), "0.500±0.012");
    }
}
