//! Lint report: human and machine-readable output.
//!
//! The JSON report is what CI uploads as an artifact: every finding with
//! `rule`/`file`/`line`/`col`/`message`, and the number of files scanned.
//! It is emitted by hand (ASCII escapes) — the engine is dependency-free,
//! and byte-stable output keeps artifact diffs meaningful.

use super::Finding;

/// Everything one engine run produced.
pub struct Report {
    /// The findings, sorted by position (the gate fails if non-empty).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
}

impl Report {
    /// Human-readable findings and summary line.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "lint: {} finding(s) across {} files\n",
            self.findings.len(),
            self.files
        ));
        out
    }

    /// The machine-readable artifact.
    pub fn json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}",
                js(&f.rule),
                js(&f.file),
                f.line,
                f.col,
                js(&f.message)
            ));
        }
        s.push_str(if self.findings.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str(&format!("  \"files\": {}\n}}\n", self.files));
        s
    }
}

/// Minimal JSON string escaping.
fn js(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(js("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_shape_is_stable() {
        let rep = Report { findings: vec![], files: 3 };
        assert_eq!(rep.json(), "{\n  \"findings\": [],\n  \"files\": 3\n}\n");
    }
}
