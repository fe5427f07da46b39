//! Scenario file parsing: JSON and a TOML subset, both total over
//! arbitrary input.
//!
//! Scenario files are a byte-facing surface (operators hand-edit them, CI
//! feeds them to campaigns), so this module is part of the strict decode
//! surface: no indexing, no asserts, no unwraps — malformed input must come
//! back as a [`ScenarioError`], never a panic.
//!
//! JSON goes through the (vendored) `serde_json` text parser into the
//! mini-serde `Value` tree. TOML is hand-rolled here — the workspace has no
//! toml crate — over the subset scenario files need:
//!
//! * `key = value` pairs with bare (`[A-Za-z0-9_-]`) or quoted keys;
//! * basic strings with `\" \\ \b \t \n \f \r \uXXXX` escapes;
//! * integers (with `_` separators), floats, booleans;
//! * single-line arrays `[1, 2, 3]` and inline tables `{ a = 1 }`;
//! * `[table]` / `[table.sub]` headers and `[[array.of.tables]]` headers,
//!   descending into the last element of arrays like real TOML;
//! * `#` comments.
//!
//! Both formats produce the same `Value` tree, so one `Scenario`
//! deserializer serves both and a scenario survives a format round-trip
//! bit-identically (the fuzz target's fixpoint oracle).

// Strict decode surface (DESIGN.md §5.12): on top of the crate's panic
// wall, no indexing and no assert (the list is in the root `clippy.toml`).
#![deny(clippy::indexing_slicing, clippy::disallowed_macros)]

use serde::{Deserialize, Value};

use crate::error::ScenarioError;
use crate::model::{Action, Scenario};

/// Maximum nesting depth of arrays/inline tables, bounding recursion on
/// adversarial input.
const MAX_DEPTH: u32 = 32;

fn syntax(line: usize, msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Syntax { line, msg: msg.into() }
}

/// Parse a scenario from JSON text.
pub fn from_json(text: &str) -> Result<Scenario, ScenarioError> {
    let value: Value = serde_json::from_str(text)
        .map_err(|e| syntax(0, e.to_string()))?;
    let scenario =
        Scenario::from_value(&value).map_err(|e| ScenarioError::Shape(e.to_string()))?;
    check_finite(&scenario)?;
    Ok(scenario)
}

/// Parse a scenario from TOML text (see the module docs for the subset).
pub fn from_toml(text: &str) -> Result<Scenario, ScenarioError> {
    let value = toml_to_value(text)?;
    let scenario =
        Scenario::from_value(&value).map_err(|e| ScenarioError::Shape(e.to_string()))?;
    check_finite(&scenario)?;
    Ok(scenario)
}

/// Reject non-finite floats at the shape layer. An overflowed exponent
/// (`1e999`) parses to infinity, which canonical JSON can only serialize
/// as `null` — so a file carrying one would silently change meaning on a
/// save/reload cycle. Rejecting it here keeps the serialize→reparse
/// fixpoint: every accepted scenario round-trips. (Found by the `scenario`
/// fuzz target's fixpoint oracle.)
fn check_finite(scenario: &Scenario) -> Result<(), ScenarioError> {
    for (i, ev) in scenario.events.iter().enumerate() {
        let finite = match &ev.action {
            Action::SetLoss { mean_loss, .. } => mean_loss.is_finite(),
            Action::LossBurst { mean_loss, settle_loss, .. } => {
                mean_loss.is_finite() && settle_loss.is_finite()
            }
            _ => true,
        };
        if !finite {
            return Err(ScenarioError::Shape(format!(
                "event #{i}: non-finite loss probability"
            )));
        }
    }
    Ok(())
}

/// Parse a scenario from either format, sniffing by the first
/// non-whitespace, non-comment character (`{` means JSON).
pub fn from_str(text: &str) -> Result<Scenario, ScenarioError> {
    for line in text.lines() {
        let t = line.trim_start();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if t.starts_with('{') {
            return from_json(text);
        }
        break;
    }
    from_toml(text)
}

/// Render a scenario as canonical JSON (the round-trip format: parsing the
/// result yields an equal `Scenario`).
pub fn to_json(scenario: &Scenario) -> String {
    serde_json::to_string_pretty(scenario).unwrap_or_default()
}

// ------------------------------------------------------------ TOML subset

/// Parse TOML text into a mini-serde [`Value`] tree. Public so the fuzz
/// target can exercise the grammar without a `Scenario` shape on top.
pub fn toml_to_value(text: &str) -> Result<Value, ScenarioError> {
    let mut root = Value::Map(Vec::new());
    // Path of the currently open `[table]` / `[[array]]` header.
    let mut ctx: Vec<String> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let mut cur = Cursor::new(raw, line_no);
        cur.skip_ws();
        match cur.peek() {
            None | Some('#') => continue,
            Some('[') => {
                cur.bump();
                let is_array = cur.eat('[');
                let path = parse_key_path(&mut cur)?;
                if !cur.eat(']') {
                    return Err(cur.err("expected `]` closing table header"));
                }
                if is_array && !cur.eat(']') {
                    return Err(cur.err("expected `]]` closing table-array header"));
                }
                cur.expect_line_end()?;
                if path.is_empty() {
                    return Err(cur.err("empty table header"));
                }
                open_header(&mut root, &path, is_array, line_no)?;
                ctx = path;
            }
            Some(_) => {
                let key = parse_key(&mut cur)?;
                cur.skip_ws();
                if !cur.eat('=') {
                    return Err(cur.err("expected `=` after key"));
                }
                cur.skip_ws();
                let value = parse_value(&mut cur, 0)?;
                cur.expect_line_end()?;
                let table = navigate(&mut root, &ctx, line_no)?;
                insert_unique(table, key, value, line_no)?;
            }
        }
    }
    Ok(root)
}

/// Character cursor over one line.
struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: usize,
}

impl Cursor {
    fn new(s: &str, line: usize) -> Cursor {
        Cursor { chars: s.chars().collect(), pos: 0, line }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn eat(&mut self, want: char) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.pos += 1;
        }
    }

    fn err(&self, msg: impl Into<String>) -> ScenarioError {
        syntax(self.line, msg)
    }

    /// After a complete construct: only whitespace or a comment may remain.
    fn expect_line_end(&mut self) -> Result<(), ScenarioError> {
        self.skip_ws();
        match self.peek() {
            None | Some('#') => Ok(()),
            Some(c) => Err(self.err(format!("unexpected `{c}` after value"))),
        }
    }
}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// One key: bare or quoted.
fn parse_key(cur: &mut Cursor) -> Result<String, ScenarioError> {
    cur.skip_ws();
    match cur.peek() {
        Some('"') => parse_string(cur),
        Some(c) if is_bare_key_char(c) => {
            let mut out = String::new();
            while let Some(c) = cur.peek() {
                if !is_bare_key_char(c) {
                    break;
                }
                out.push(c);
                cur.pos += 1;
            }
            Ok(out)
        }
        Some(c) => Err(cur.err(format!("invalid key character `{c}`"))),
        None => Err(cur.err("expected a key")),
    }
}

/// Dotted key path inside a `[...]` header.
fn parse_key_path(cur: &mut Cursor) -> Result<Vec<String>, ScenarioError> {
    let mut path = Vec::new();
    loop {
        let key = parse_key(cur)?;
        if key.is_empty() {
            return Err(cur.err("empty key segment in header"));
        }
        path.push(key);
        cur.skip_ws();
        if !cur.eat('.') {
            return Ok(path);
        }
    }
}

/// A basic `"..."` string with escapes.
fn parse_string(cur: &mut Cursor) -> Result<String, ScenarioError> {
    if !cur.eat('"') {
        return Err(cur.err("expected `\"`"));
    }
    let mut out = String::new();
    loop {
        match cur.bump() {
            None => return Err(cur.err("unterminated string")),
            Some('"') => return Ok(out),
            Some('\\') => match cur.bump() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('b') => out.push('\u{0008}'),
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('f') => out.push('\u{000C}'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let mut code: u32 = 0;
                    for _ in 0..4 {
                        let d = cur
                            .bump()
                            .and_then(|c| c.to_digit(16))
                            .ok_or_else(|| cur.err("invalid \\u escape"))?;
                        code = code * 16 + d;
                    }
                    let c = char::from_u32(code)
                        .ok_or_else(|| cur.err("\\u escape is not a scalar value"))?;
                    out.push(c);
                }
                _ => return Err(cur.err("unknown string escape")),
            },
            Some(c) => out.push(c),
        }
    }
}

/// A number token: integers become `U64`/`I64`, anything with `.`/`e`
/// becomes `F64`. TOML `_` separators are accepted and stripped.
fn parse_number(cur: &mut Cursor) -> Result<Value, ScenarioError> {
    let mut text = String::new();
    if matches!(cur.peek(), Some('+' | '-')) {
        // `+` is valid TOML but not valid Rust-parse input; keep `-` only.
        if let Some(c) = cur.bump() {
            if c == '-' {
                text.push(c);
            }
        }
    }
    let mut is_float = false;
    while let Some(c) = cur.peek() {
        match c {
            '0'..='9' => text.push(c),
            '_' => {}
            '.' | 'e' | 'E' => {
                is_float = true;
                text.push(c);
            }
            '+' | '-' if is_float => text.push(c), // exponent sign
            _ => break,
        }
        cur.pos += 1;
    }
    if text.is_empty() || text == "-" {
        return Err(cur.err("expected a number"));
    }
    if is_float {
        let n: f64 = text
            .parse()
            .map_err(|_| cur.err(format!("invalid float `{text}`")))?;
        Ok(Value::F64(n))
    } else if let Some(rest) = text.strip_prefix('-') {
        let n: i64 = rest
            .parse::<i64>()
            .map(|v| -v)
            .map_err(|_| cur.err(format!("invalid integer `{text}`")))?;
        Ok(Value::I64(n))
    } else {
        let n: u64 = text
            .parse()
            .map_err(|_| cur.err(format!("invalid integer `{text}`")))?;
        Ok(Value::U64(n))
    }
}

/// One value: string, number, boolean, array, or inline table.
fn parse_value(cur: &mut Cursor, depth: u32) -> Result<Value, ScenarioError> {
    if depth > MAX_DEPTH {
        return Err(cur.err("value nesting too deep"));
    }
    cur.skip_ws();
    match cur.peek() {
        Some('"') => parse_string(cur).map(Value::Str),
        Some('[') => {
            cur.bump();
            let mut items = Vec::new();
            loop {
                cur.skip_ws();
                if cur.eat(']') {
                    return Ok(Value::Seq(items));
                }
                items.push(parse_value(cur, depth + 1)?);
                cur.skip_ws();
                if !cur.eat(',') && cur.peek() != Some(']') {
                    return Err(cur.err("expected `,` or `]` in array"));
                }
            }
        }
        Some('{') => {
            cur.bump();
            let mut entries: Vec<(String, Value)> = Vec::new();
            cur.skip_ws();
            if cur.eat('}') {
                return Ok(Value::Map(entries));
            }
            loop {
                let key = parse_key(cur)?;
                cur.skip_ws();
                if !cur.eat('=') {
                    return Err(cur.err("expected `=` in inline table"));
                }
                let value = parse_value(cur, depth + 1)?;
                if entries.iter().any(|(k, _)| *k == key) {
                    return Err(cur.err(format!("duplicate key `{key}`")));
                }
                entries.push((key, value));
                cur.skip_ws();
                if cur.eat('}') {
                    return Ok(Value::Map(entries));
                }
                if !cur.eat(',') {
                    return Err(cur.err("expected `,` or `}` in inline table"));
                }
            }
        }
        Some('t' | 'f') => {
            let word: String = {
                let mut w = String::new();
                while let Some(c) = cur.peek() {
                    if !c.is_ascii_alphabetic() {
                        break;
                    }
                    w.push(c);
                    cur.pos += 1;
                }
                w
            };
            match word.as_str() {
                "true" => Ok(Value::Bool(true)),
                "false" => Ok(Value::Bool(false)),
                other => Err(cur.err(format!("expected a value, got `{other}`"))),
            }
        }
        Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => parse_number(cur),
        Some(c) => Err(cur.err(format!("expected a value, got `{c}`"))),
        None => Err(cur.err("expected a value")),
    }
}

/// Find-or-insert `key` in a map value, returning the child. The child of
/// an array-of-tables key is the *last* element, like real TOML.
fn child_mut<'a>(
    table: &'a mut Value,
    key: &str,
    line: usize,
) -> Result<&'a mut Value, ScenarioError> {
    let Value::Map(entries) = table else {
        return Err(syntax(line, format!("`{key}` is not inside a table")));
    };
    let idx = match entries.iter().position(|(k, _)| k == key) {
        Some(i) => i,
        None => {
            entries.push((key.to_string(), Value::Map(Vec::new())));
            entries.len() - 1
        }
    };
    let child = entries
        .get_mut(idx)
        .map(|(_, v)| v)
        .ok_or_else(|| syntax(line, "internal: table entry vanished"))?;
    match child {
        Value::Seq(items) => items
            .last_mut()
            .ok_or_else(|| syntax(line, format!("table array `{key}` is empty"))),
        other => Ok(other),
    }
}

/// Walk `path` from the root, creating tables as needed.
fn navigate<'a>(
    root: &'a mut Value,
    path: &[String],
    line: usize,
) -> Result<&'a mut Value, ScenarioError> {
    let mut cur = root;
    for seg in path {
        cur = child_mut(cur, seg, line)?;
    }
    Ok(cur)
}

/// Apply a `[table]` or `[[array]]` header.
fn open_header(
    root: &mut Value,
    path: &[String],
    is_array: bool,
    line: usize,
) -> Result<(), ScenarioError> {
    let (last, parents) = match path.split_last() {
        Some(p) => p,
        None => return Err(syntax(line, "empty table header")),
    };
    let parent = navigate(root, parents, line)?;
    let Value::Map(entries) = parent else {
        return Err(syntax(line, "header parent is not a table"));
    };
    let idx = entries.iter().position(|(k, _)| k == last);
    if is_array {
        match idx {
            None => entries.push((last.clone(), Value::Seq(vec![Value::Map(Vec::new())]))),
            Some(i) => match entries.get_mut(i) {
                Some((_, Value::Seq(items))) => items.push(Value::Map(Vec::new())),
                _ => return Err(syntax(line, format!("`{last}` is not a table array"))),
            },
        }
    } else {
        match idx {
            None => entries.push((last.clone(), Value::Map(Vec::new()))),
            Some(i) => match entries.get(i) {
                // Re-opening an existing (sub)table is fine; anything else
                // (a scalar, an array) is a type clash.
                Some((_, Value::Map(_))) => {}
                _ => return Err(syntax(line, format!("`{last}` is not a table"))),
            },
        }
    }
    Ok(())
}

/// Insert a key into a table, rejecting duplicates.
fn insert_unique(
    table: &mut Value,
    key: String,
    value: Value,
    line: usize,
) -> Result<(), ScenarioError> {
    let Value::Map(entries) = table else {
        return Err(syntax(line, format!("`{key}` is not inside a table")));
    };
    if entries.iter().any(|(k, _)| *k == key) {
        return Err(syntax(line, format!("duplicate key `{key}`")));
    }
    entries.push((key, value));
    Ok(())
}

#[cfg(test)]
#[allow(clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::model::{Action, Direction};

    const FADE_TOML: &str = r#"
# WiFi fade into LTE handover.
name = "wifi-fade"
description = "walk out of AP range at t=3s"

[[events]]
at_ms = 3000
path = 0
label = "fade"

[events.action.WifiFade]
from_bps = 20000000
floor_bps = 500000
over_ms = 1000
steps = 4

[[events]]
at_ms = 9000
path = 0
label = "recover"
action = "LinkUp"

[[events]]
at_ms = 9000
path = 0
action = { SetBackup = { backup = false } }
"#;

    #[test]
    fn toml_fade_scenario_parses() {
        let s = from_toml(FADE_TOML).expect("parse");
        assert_eq!(s.name, "wifi-fade");
        assert_eq!(s.events.len(), 3);
        assert!(matches!(s.events[0].action, Action::WifiFade { steps: 4, .. }));
        assert_eq!(s.events[0].label.as_deref(), Some("fade"));
        assert!(matches!(s.events[1].action, Action::LinkUp));
        assert!(matches!(s.events[2].action, Action::SetBackup { backup: false }));
        s.validate().expect("valid");
    }

    #[test]
    fn json_and_toml_agree() {
        let from_t = from_toml(FADE_TOML).expect("toml");
        let json = to_json(&from_t);
        let from_j = from_json(&json).expect("json");
        assert_eq!(from_t, from_j);
        // Sniffing picks the right format for both texts.
        assert_eq!(from_str(FADE_TOML).expect("sniff toml"), from_t);
        assert_eq!(from_str(&json).expect("sniff json"), from_t);
    }

    #[test]
    fn inline_tables_arrays_and_escapes() {
        let text = r#"
name = "t\u0041b\n"
[[events]]
at_ms = 1
dir = "Uplink"
action = { SetRate = { bits_per_sec = 1_000_000 } }
"#;
        let s = from_toml(text).expect("parse");
        assert_eq!(s.name, "tAb\n");
        assert_eq!(s.events[0].dir, Direction::Uplink);
        assert!(matches!(
            s.events[0].action,
            Action::SetRate { bits_per_sec: 1_000_000 }
        ));
    }

    #[test]
    fn negative_and_float_numbers() {
        let v = toml_to_value("a = -3\nb = 1.5\nc = 2e3\n").expect("parse");
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(-3));
        assert_eq!(v.get("b").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("c").and_then(Value::as_f64), Some(2000.0));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = from_toml("name = \"x\"\nbogus line\n").expect_err("bad");
        assert!(matches!(err, ScenarioError::Syntax { line: 2, .. }), "{err}");
        let err = from_toml("a = \"unterminated\n").expect_err("bad");
        assert!(matches!(err, ScenarioError::Syntax { line: 1, .. }), "{err}");
        let err = from_toml("a = 1\na = 2\n").expect_err("dup");
        assert!(matches!(err, ScenarioError::Syntax { line: 2, .. }), "{err}");
    }

    #[test]
    fn shape_errors_are_distinct_from_syntax() {
        // Well-formed TOML, but not a scenario.
        let err = from_toml("title = \"nope\"\n").expect_err("shape");
        assert!(matches!(err, ScenarioError::Shape(_)), "{err}");
        let err = from_json("{\"title\": 3}").expect_err("shape");
        assert!(matches!(err, ScenarioError::Shape(_)), "{err}");
        let err = from_json("{nope").expect_err("syntax");
        assert!(matches!(err, ScenarioError::Syntax { .. }), "{err}");
    }

    /// Regression: the scenario fuzz target's fixpoint oracle found that
    /// an overflowed float exponent parses to infinity, which `to_json`
    /// can only render as `null` — breaking serialize→reparse. Non-finite
    /// floats are now shape errors in both formats.
    #[test]
    fn nonfinite_floats_are_rejected_at_the_shape_layer() {
        let json = r#"{"name":"inf","events":[
            {"at_ms":0,"action":{"SetLoss":{"mean_loss":1e999}}}]}"#;
        let err = from_json(json).expect_err("infinite loss");
        assert!(matches!(err, ScenarioError::Shape(_)), "{err}");
        let toml = "name = \"inf\"\n[[events]]\nat_ms = 0\n\
                    action = { LossBurst = { mean_loss = 0.1, for_ms = 1, settle_loss = 1e999 } }\n";
        let err = from_toml(toml).expect_err("infinite settle");
        assert!(matches!(err, ScenarioError::Shape(_)), "{err}");
    }

    #[test]
    fn deep_nesting_is_bounded_not_fatal() {
        let mut text = String::from("a = ");
        for _ in 0..100 {
            text.push('[');
        }
        let err = from_toml(&text).expect_err("too deep");
        assert!(matches!(err, ScenarioError::Syntax { .. }));
    }

    #[test]
    fn totality_smoke_on_hostile_lines() {
        // None of these may panic; all must error cleanly.
        for bad in [
            "[", "[[", "[]", "[[]]", "[a.]", "a", "a =", "a = @", "= 1",
            "a = \"\\q\"", "a = \"\\u00\"", "a = 1__2x", "a = truu",
            "a = [1,", "a = {x = }", "[a]\n[a.b]\na = 1",
            "x = 1\n[x]\n", "[[x]]\nx = 1\n[x.y]\n",
        ] {
            let _ = from_toml(bad);
        }
    }
}
