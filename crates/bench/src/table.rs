//! Plain-text table rendering (fixed-width columns + optional CSV).

use std::fmt::Write as _;
use std::process::ExitCode;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns and a title line.
    #[must_use]
    pub fn render(&self, title: &str) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {title} ==");
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:>width$}", cells[i], width = widths[i]);
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// CSV rendering (no quoting — cells are numeric/simple labels).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table (and CSV when `csv` is set).
    pub fn print(&self, title: &str, csv: bool) {
        if csv {
            print!("{}", self.to_csv());
        } else {
            println!("{}", self.render(title));
        }
    }

    /// JSON form: `{"title", "columns", "rows"}` with rows as string
    /// arrays (cells keep their rendered formatting).
    #[must_use]
    pub fn to_json_value(&self, title: &str) -> serde_json::Value {
        serde_json::Value::Object(vec![
            (
                "title".to_string(),
                serde_json::Value::Str(title.to_string()),
            ),
            (
                "columns".to_string(),
                serde::Serialize::to_value(&self.headers),
            ),
            ("rows".to_string(), serde::Serialize::to_value(&self.rows)),
        ])
    }
}

/// Collects titled tables so a command can print them as it goes and
/// still export the full set through its `--json <path>` /
/// `--csv <path>` flags afterwards.
#[derive(Debug, Default)]
pub struct TableSet {
    tables: Vec<(String, TextTable)>,
}

impl TableSet {
    /// Prints the table immediately and records it for export.
    pub fn add(&mut self, title: &str, t: TextTable) {
        t.print(title, false);
        self.tables.push((title.to_string(), t));
    }

    /// All tables as a pretty JSON array of
    /// [`TextTable::to_json_value`] objects.
    #[must_use]
    pub fn to_json(&self) -> String {
        let v: Vec<serde_json::Value> = self
            .tables
            .iter()
            .map(|(title, t)| t.to_json_value(title))
            .collect();
        crate::cli::to_json(&v)
    }

    /// All tables as CSV sections separated by `# title` comments.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (title, t) in &self.tables {
            let _ = writeln!(out, "# {title}");
            out.push_str(&t.to_csv());
        }
        out
    }

    /// Writes the recorded tables to the given JSON and CSV paths
    /// (see [`crate::cli::write_all`] for the exit code).
    #[must_use]
    pub fn export(&self, json: Option<&str>, csv: Option<&str>) -> ExitCode {
        crate::cli::write_all(&[(json, self.to_json()), (csv, self.to_csv())])
    }
}

/// Formats a float with 3 significant decimals.
#[must_use]
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a ratio as a percentage with one decimal.
#[must_use]
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats seconds as engineering-friendly milliseconds.
#[must_use]
pub fn ms(v_s: f64) -> String {
    format!("{:.3}ms", v_s * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["K", "value"]);
        t.row(vec!["32", "1.5"]);
        t.row(vec!["256", "10.25"]);
        let r = t.render("demo");
        assert!(r.contains("== demo =="));
        assert!(r.contains("K"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_output() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["1"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.125), "12.5%");
        assert_eq!(ms(0.001234), "1.234ms");
    }

    #[test]
    fn table_set_exports_json_and_csv() {
        let mut set = TableSet::default();
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        set.add("demo", t);
        let json = set.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("parse");
        assert_eq!(v[0]["title"].as_str(), Some("demo"));
        assert_eq!(v[0]["rows"][0][1].as_str(), Some("2"));
        let csv = set.to_csv();
        assert!(csv.starts_with("# demo\n"));
        assert!(csv.contains("a,b\n1,2\n"));
    }
}
