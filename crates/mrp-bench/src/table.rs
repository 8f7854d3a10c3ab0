//! A figure as data: rows of [`Value`] objects beside the one ordered
//! list of their columns. The table a bench prints and the artifact it
//! writes are the same rows, so a column is named once — where its cell
//! is computed.

use crate::harness::Scale;
use crate::json::{write_artifact, Value};
use std::fmt::Write as _;

/// Rows and their column order (a JSON object keeps none).
#[derive(Clone, Debug, Default)]
pub struct Figure {
    columns: Vec<&'static str>,
    rows: Vec<Value>,
}

impl Figure {
    /// A figure without rows; the first [`Figure::push`] names its columns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row, given as its cells in column order.
    ///
    /// # Panics
    ///
    /// Panics when a later row names other columns than the first.
    pub fn push(&mut self, cells: impl IntoIterator<Item = (&'static str, Value)>) {
        let (columns, cells): (Vec<_>, Vec<_>) = cells.into_iter().map(|c| (c.0, c)).unzip();
        if self.rows.is_empty() {
            self.columns = columns;
        } else {
            assert_eq!(columns, self.columns, "a row of other columns");
        }
        self.rows.push(Value::object(cells));
    }

    /// The rows, one object per row.
    pub fn rows(&self) -> &[Value] {
        &self.rows
    }

    /// The rows as the array an artifact holds.
    pub fn json(&self) -> Value {
        Value::Array(self.rows.clone())
    }

    /// Title, columns and rows as an aligned plain-text table. Columns
    /// whose cells are arrays or objects (an artifact's nested detail)
    /// are left out.
    pub fn render(&self, title: &str) -> String {
        let cell = |row: &Value, column: &str| match row.get(column) {
            Some(Value::String(s)) => s.clone(),
            Some(Value::Number(n)) if n.is_finite() && n.fract() == 0.0 => format!("{n:.0}"),
            Some(Value::Number(n)) if n.is_finite() => fmt_f(*n),
            Some(Value::Bool(b)) => b.to_string(),
            _ => "-".to_string(),
        };
        let first = |c: &str| self.rows.first().and_then(|row| row.get(c));
        let columns: Vec<&str> = self
            .columns
            .iter()
            .copied()
            .filter(|c| !matches!(first(c), Some(Value::Array(_) | Value::Object(_))))
            .collect();
        // Text reads from the left, numbers align on the right.
        let text: Vec<bool> = columns
            .iter()
            .map(|c| matches!(first(c), Some(Value::String(_))))
            .collect();
        let header = columns.iter().map(ToString::to_string).collect();
        let body = self
            .rows
            .iter()
            .map(|row| columns.iter().map(|c| cell(row, c)).collect());
        let lines: Vec<Vec<String>> = std::iter::once(header).chain(body).collect();
        let widths: Vec<usize> = (0..columns.len())
            .map(|i| {
                lines
                    .iter()
                    .map(|l| l[i].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "\n== {title} ==");
        for (n, line) in lines.iter().enumerate() {
            let cells: Vec<String> = (0..columns.len())
                .map(|i| match (text[i], &line[i], widths[i]) {
                    (true, c, w) => format!("{c:<w$}"),
                    (false, c, w) => format!("{c:>w$}"),
                })
                .collect();
            let _ = writeln!(out, "{}", cells.join("  ").trim_end());
            if n == 0 {
                let rule = widths.iter().sum::<usize>() + 2 * widths.len();
                let _ = writeln!(out, "{}", "-".repeat(rule));
            }
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self, title: &str) {
        print!("{}", self.render(title));
    }

    /// What a bench does with its figure: prints it under `title` and
    /// writes the rows as the artifact `name` (see [`Scale::artifact`]).
    pub fn report(&self, scale: Scale, name: &str, title: &str) {
        self.print(title);
        let what = format!("{} rows", self.rows.len());
        write_artifact(&scale.artifact(name), &self.json(), &what);
    }
}

/// Formats a float with sensible precision for reports.
pub fn fmt_f(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_in_the_order_the_first_row_states() {
        let mut f = Figure::new();
        f.push([
            ("name", "alpha".into()),
            ("value", 1u64.into()),
            ("detail", Value::Array(vec![])),
            ("ms", Value::rounded(0.125, 2)),
        ]);
        f.push([
            ("name", "b".into()),
            ("value", 22222u64.into()),
            ("detail", Value::Array(vec![])),
            ("ms", Value::Number(f64::INFINITY)),
        ]);
        let r = f.render("demo");
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[1], "== demo ==");
        assert_eq!(lines[2], "name   value    ms");
        assert_eq!(lines[4], "alpha      1  0.13");
        assert_eq!(lines[5], "b      22222     -");
        assert_eq!(f.rows().len(), 2);
        // The artifact keeps every cell, nested ones included.
        assert!(f.json().as_array().unwrap()[0].get("detail").is_some());
    }

    #[test]
    #[should_panic(expected = "other columns")]
    fn a_row_of_other_columns_is_refused() {
        let mut f = Figure::new();
        f.push([("a", 1u64.into())]);
        f.push([("b", 1u64.into())]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(12345.6), "12346");
        assert_eq!(fmt_f(99.94), "99.9");
        assert_eq!(fmt_f(1.234), "1.23");
    }
}
