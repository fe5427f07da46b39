//! Result rendering: aligned ASCII tables (what the experiment drivers
//! print) and JSON export for regeneration/diffing.

use serde::Serialize;

/// A simple column-aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render as aligned ASCII.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Serialize any result object as pretty JSON (the machine-readable twin of
/// each printed table/figure).
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("results serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["carrier", "rtt (ms)", "loss (%)"]);
        t.row(vec!["AT&T".into(), "70.06".into(), "0.03".into()]);
        t.row(vec!["Verizon".into(), "92.41".into(), "~".into()]);
        t
    }

    #[test]
    fn renders_aligned() {
        let s = sample().render();
        assert!(s.contains("== Demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Header and both rows present.
        assert!(lines[1].starts_with("carrier"));
        assert!(lines[3].starts_with("AT&T"));
        assert!(lines[4].starts_with("Verizon"));
        // Columns align: "rtt" begins at the same offset in header and rows.
        let off = lines[1].find("rtt").unwrap();
        assert_eq!(&lines[3][off..off + 5], "70.06");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_is_enforced() {
        Table::new("x", &["a", "b"]).row(vec!["only one".into()]);
    }

    #[test]
    fn json_roundtrips() {
        #[derive(serde::Serialize)]
        struct R {
            x: u32,
        }
        assert!(to_json(&R { x: 5 }).contains("\"x\": 5"));
    }
}
