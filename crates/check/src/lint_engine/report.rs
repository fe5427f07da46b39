//! Lint report: human and machine-readable output, plus the
//! `LINT_budgets.json` ratchet.
//!
//! The JSON report is what CI uploads as an artifact: every finding with
//! `rule`/`file`/`line`/`col`/`message`, every *used* allow marker with
//! its reason, and per-rule allow counts.
//! The budgets file pins the per-rule allow counts: any unallowed finding
//! fails the gate outright, and allow-count *growth* beyond the checked-in
//! budget fails too, so opt-outs cannot accrete silently. Shrinking below
//! budget prints a ratchet hint instead, and a row naming a rule that does
//! not exist (a wall that was retired, a typo) fails like growth does.
//!
//! JSON is emitted by hand (sorted keys, `\u{…}`-free ASCII escapes) —
//! the engine is dependency-free, and byte-stable output keeps artifact
//! diffs meaningful.

use std::collections::BTreeMap;

use super::{Allow, Finding, Workspace, RULES};

/// Everything one engine run produced.
pub struct Report {
    /// Unallowed findings (the gate fails if non-empty).
    pub findings: Vec<Finding>,
    /// Used allow markers, each carrying its reason.
    pub allows: Vec<(String, Allow)>,
    /// Per-rule used-allow counts.
    pub allow_counts: BTreeMap<String, usize>,
    /// Files scanned.
    pub files: usize,
    /// Fn items discovered.
    pub fns: usize,
    /// AST parse fallbacks across the workspace (must be zero: a fallback
    /// is a construct the analyses silently cannot see into).
    pub parse_fallbacks: usize,
}

impl Report {
    /// Assemble a report from an engine run's outputs. Each allow is
    /// tagged with the workspace-relative file its marker lives in.
    pub fn new(ws: &Workspace, findings: Vec<Finding>, allows: Vec<(String, Allow)>) -> Report {
        let mut allow_counts: BTreeMap<String, usize> = BTreeMap::new();
        for (_, a) in &allows {
            *allow_counts.entry(a.rule.clone()).or_insert(0) += 1;
        }
        Report {
            findings,
            allows,
            allow_counts,
            files: ws.files.len(),
            fns: ws.files.iter().map(|f| f.ast.fn_count()).sum(),
            parse_fallbacks: ws.files.iter().map(|f| f.ast.fallbacks.len()).sum(),
        }
    }

    /// Human-readable summary to a writer-ish string.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        let allows: Vec<String> = self
            .allow_counts
            .iter()
            .map(|(r, n)| format!("{r}={n}"))
            .collect();
        out.push_str(&format!(
            "lint: {} finding(s), {} allow marker(s) [{}] across {} files / {} fns \
             ({} parse fallbacks)\n",
            self.findings.len(),
            self.allow_counts.values().sum::<usize>(),
            allows.join(", "),
            self.files,
            self.fns,
            self.parse_fallbacks,
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
                "\n    {{\"id\": {}, \"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \
                 \"message\": {}}}",
                js(&f.id()),
                js(&f.rule),
                js(&f.file),
                f.line,
                f.col,
                js(&f.message)
            ));
        }
        s.push_str(if self.findings.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str("  \"allows\": [");
        for (i, (file, a)) in self.allows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}",
                js(&a.rule),
                js(file),
                a.marker_line,
                js(&a.reason)
            ));
        }
        s.push_str(if self.allows.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str("  \"allow_counts\": {");
        for (i, (r, n)) in self.allow_counts.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{}: {}", js(r), n));
        }
        s.push_str("},\n");
        s.push_str(&format!(
            "  \"files\": {},\n  \"fns\": {},\n  \"parse_fallbacks\": {}\n}}\n",
            self.files, self.fns, self.parse_fallbacks
        ));
        s
    }

    /// Gate against `LINT_budgets.json`: unallowed findings always fail;
    /// per-rule allow counts may not exceed their budgeted ceiling, and
    /// every budget row must name a rule that exists.
    /// Returns human-readable violations (empty = pass) and ratchet hints.
    pub fn gate(&self, budgets_src: &str) -> (Vec<String>, Vec<String>) {
        let mut violations = Vec::new();
        let mut hints = Vec::new();
        if !self.findings.is_empty() {
            violations.push(format!("{} unallowed finding(s)", self.findings.len()));
        }
        for rule in budgets_src.split("\"allow/").skip(1).filter_map(|r| r.split('"').next()) {
            if !RULES.contains(&rule) {
                violations.push(format!(
                    "LINT_budgets.json row \"allow/{rule}\" names no rule (known: {})",
                    RULES.join(", ")
                ));
            }
        }
        for (rule, &n) in &self.allow_counts {
            match budget_value(budgets_src, &format!("allow/{rule}")) {
                Some(max) if n > max => violations.push(format!(
                    "allow-{rule} count {n} exceeds budget {max} (LINT_budgets.json): \
                     justify by raising the budget in the same change, or fix the code"
                )),
                Some(max) if n < max => hints.push(format!(
                    "allow-{rule} count {n} is below budget {max}: ratchet LINT_budgets.json down"
                )),
                Some(_) => {}
                None => violations.push(format!(
                    "LINT_budgets.json lacks \"allow/{rule}\" (count {n})"
                )),
            }
        }
        (violations, hints)
    }
}

/// Read a flat `"key": number` value out of a budgets file (same format
/// family as `ALLOC_budgets.json`).
fn budget_value(src: &str, key: &str) -> Option<usize> {
    let needle = format!("\"{key}\"");
    let at = src.find(&needle)?;
    let rest = src[at + needle.len()..].trim_start().strip_prefix(':')?;
    let digits: String = rest.trim_start().chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
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
    fn budget_value_parses_flat_json() {
        let src = "{\n  \"allow/panic\": 12,\n  \"allow/alloc\": 6\n}\n";
        assert_eq!(budget_value(src, "allow/panic"), Some(12));
        assert_eq!(budget_value(src, "allow/alloc"), Some(6));
        assert_eq!(budget_value(src, "allow/determinism"), None);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(js("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn gate_flags_growth_and_hints_shrink() {
        let ws = Workspace::from_sources(vec![]);
        let mut rep = Report::new(&ws, vec![], vec![]);
        rep.allow_counts.insert("panic".into(), 3);
        let budgets = "{\"allow/panic\": 2}";
        let (v, _) = rep.gate(budgets);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("exceeds budget"));
        let budgets = "{\"allow/panic\": 5}";
        let (v, h) = rep.gate(budgets);
        assert!(v.is_empty());
        assert_eq!(h.len(), 1);
        assert!(h[0].contains("ratchet"));
    }

    #[test]
    fn gate_rejects_a_budget_row_for_a_rule_that_does_not_exist() {
        // Neither `seq-arith` nor `unsafe` is a rule (the compiler enforces
        // both): a budget row for either would ratchet nothing.
        let ws = Workspace::from_sources(vec![]);
        let rep = Report::new(&ws, vec![], vec![]);
        let (v, _) = rep.gate("{\"allow/panic\": 0, \"allow/seq-arith\": 4, \"allow/unsafe\": 9}");
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("\"allow/seq-arith\" names no rule"), "{v:?}");
        assert!(v[1].contains("\"allow/unsafe\" names no rule"), "{v:?}");
        assert!(rep.gate("{\"allow/panic\": 0, \"allow/alloc\": 0}").0.is_empty());
    }

    #[test]
    fn json_shape_is_stable() {
        let ws = Workspace::from_sources(vec![]);
        let rep = Report::new(&ws, vec![], vec![]);
        let j = rep.json();
        assert!(j.contains("\"findings\": []"));
        assert!(j.contains("\"allow_counts\": {}"));
    }
}
