//! Plain-text table rendering for the figure-harness binaries.

/// A simple column-aligned text table with an optional TSV form, so the
//  harness output can be both read in a terminal and piped into plotting.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Table {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    /// Tab-separated rendering (header first).
    pub fn to_tsv(&self) -> String {
        let mut out = self.header.join("\t");
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join("\t"));
            out.push('\n');
        }
        out
    }

    /// Column-aligned rendering for terminals.
    pub fn to_aligned(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(r[c].len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(c, cell)| format!("{:>width$}", cell, width = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = render_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&render_row(r));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_round_trip_shape() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]).row(vec!["3", "4"]);
        let tsv = t.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines, vec!["a\tb", "1\t2", "3\t4"]);
        assert_eq!(t.rows.len(), 2);
        assert!(!t.rows.is_empty());
    }

    #[test]
    fn aligned_pads_columns() {
        let mut t = Table::new(vec!["name", "v"]);
        t.row(vec!["x", "10000"]);
        let s = t.to_aligned();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        // value column right-aligned to width 5
        assert!(lines[2].ends_with("10000"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_rejected() {
        Table::new(vec!["a", "b"]).row(vec!["only-one"]);
    }
}
