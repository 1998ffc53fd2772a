//! Terminal-friendly table rendering for experiment output.

use std::fmt;

/// A simple column-aligned text table.
///
/// Used by every figure and table of `repro` to print the rows/series the
/// paper's figures report.
///
/// # Example
///
/// ```
/// use notebookos_metrics::Table;
///
/// let mut t = Table::new("policies", &["policy", "p50", "p99"]);
/// t.row_owned(vec!["Reservation".into(), "0.9".into(), "2.1".into()]);
/// t.row_owned(vec!["NotebookOS".into(), "1.0".into(), "8.4".into()]);
/// let text = t.to_string();
/// assert!(text.contains("Reservation"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of pre-formatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    #[cfg(test)]
    pub(crate) fn row(&mut self, cells: &[&str]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width mismatch in table `{}`",
            self.title
        );
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends a row of owned cells (convenient with `format!`).
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
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
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(rule))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a", "1"]).row(&["longer-name", "2"]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer-name"));
        let lines: Vec<&str> = s.lines().collect();
        // header + rule + 2 rows + title
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn row_owned_works() {
        let mut t = Table::new("demo", &["a"]);
        t.row_owned(vec![format!("{}", 42)]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one"]);
    }
}
