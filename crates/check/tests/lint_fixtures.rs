//! End-to-end proof that every lint wall fires and every opt-out works.
//!
//! `tests/lint_fixtures/` holds a miniature workspace with planted
//! violations per rule — including the three constructs the old
//! line-based scanners got wrong (tokens inside strings/comments, one
//! marker suppressing a whole line, multi-line constructs) and the two
//! constructs a token-only scan gets wrong (same-named methods conflated
//! in the call graph, an early return that skips the invariant oracle) —
//! and this suite pins the engine's behavior on it. The last test then runs the real
//! workspace config against the real repo and asserts the walls are
//! green and within `LINT_budgets.json`.

use std::path::{Path, PathBuf};

use mpw_check::lint_engine::{self, report::Report, resolve::Resolved, rules, Config, Workspace};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures")
}

fn fixture_cfg() -> Config {
    let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
    Config {
        determinism_paths: s(&["crates/proto"]),
        parser_modules: s(&["crates/proto/src/wire.rs"]),
        alloc_modules: s(&["crates/proto/src/alloc_path.rs"]),
        reach_paths: s(&["crates/proto/src"]),
        entry_files: s(&["crates/proto/src/engine.rs"]),
        entry_prefixes: s(&["on_"]),
        parse_entry_prefixes: s(&["parse", "read", "decode"]),
    }
}

fn fixture_ws() -> Workspace {
    Workspace::load(&fixture_root()).expect("fixture tree loads")
}

fn run_fixtures() -> Report {
    lint_engine::run(&fixture_ws(), &fixture_cfg()).expect("engine runs")
}

fn count(rep: &Report, rule: &str) -> usize {
    rep.findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn every_wall_fires_on_its_planted_violation() {
    let rep = run_fixtures();
    let by_rule: Vec<String> = rep.findings.iter().map(|f| f.to_string()).collect();
    assert_eq!(count(&rep, "panic"), 4, "{by_rule:#?}");
    assert_eq!(count(&rep, "determinism"), 2, "{by_rule:#?}");
    assert_eq!(count(&rep, "handler-oracle"), 1, "{by_rule:#?}");
    assert_eq!(count(&rep, "alloc"), 2, "{by_rule:#?}");
    assert_eq!(count(&rep, "marker"), 3, "{by_rule:#?}");
    assert_eq!(rep.findings.len(), 12, "{by_rule:#?}");
    // The hand-rolled parser understood every fixture construct.
    assert_eq!(rep.parse_fallbacks, 0);
}

#[test]
fn marker_suppresses_exactly_one_token() {
    let rep = run_fixtures();
    // wire.rs line 8 has two unwraps and one standalone marker above: one
    // finding must survive.
    let on_pair_line: Vec<_> = rep
        .findings
        .iter()
        .filter(|f| f.file == "crates/proto/src/wire.rs" && f.line == 8)
        .collect();
    assert_eq!(on_pair_line.len(), 1, "{on_pair_line:?}");
    // state.rs line 16 has two HashMap tokens and one trailing marker:
    // one finding must survive.
    let on_map_line: Vec<_> = rep
        .findings
        .iter()
        .filter(|f| f.file == "crates/proto/src/state.rs" && f.line == 16)
        .collect();
    assert_eq!(on_map_line.len(), 1, "{on_map_line:?}");
    // All markers were consumed (not stale) and carry their reasons.
    assert_eq!(rep.allow_counts.get("panic"), Some(&2));
    assert_eq!(rep.allow_counts.get("determinism"), Some(&1));
    assert_eq!(rep.allow_counts.get("handler-oracle"), Some(&1));
    assert!(rep
        .allows
        .iter()
        .all(|(_, a)| a.used && a.reason.starts_with("fixture:")));
}

#[test]
fn panic_reachability_renders_the_two_hop_path() {
    let rep = run_fixtures();
    let f = rep
        .findings
        .iter()
        .find(|f| f.rule == "panic" && f.file == "crates/proto/src/engine.rs")
        .expect("two-hop panic found");
    assert!(
        f.message
            .contains("engine::on_frame → engine::relay → engine::sink"),
        "path not rendered: {}",
        f.message
    );
}

#[test]
fn conflated_methods_stay_separate() {
    // Two `commit` methods, both unwrapping; the handler chain reaches
    // only `Hot::commit`, through a typed receiver. A name-keyed graph
    // would flag both bodies; the wall flags exactly the live one.
    let ws = fixture_ws();
    let hot_line = fixture_line("crates/proto/src/conflated.rs", "*v.first().unwrap()");
    let cold_line = fixture_line("crates/proto/src/conflated.rs", "*v.last().unwrap()");
    let (found, _) = rules::panic(&ws, &fixture_cfg(), &Resolved::build(&ws));
    let at = |line: u32| {
        found
            .iter()
            .filter(|f| f.file == "crates/proto/src/conflated.rs" && f.line == line)
            .count()
    };
    assert_eq!(at(hot_line), 1, "the live method must be flagged");
    assert_eq!(at(cold_line), 0, "the dead method must not be conflated with it");
}

#[test]
fn early_return_skipping_the_oracle_is_one_finding() {
    let ws = fixture_ws();
    let cfg = fixture_cfg();
    let return_line = fixture_line("crates/proto/src/engine.rs", "return;");
    let raw = lint_engine::raw_findings(&ws, &cfg);
    let on_tick: Vec<_> = raw
        .iter()
        .filter(|f| f.rule == "handler-oracle" && f.message.contains("on_tick`"))
        .collect();
    assert_eq!(on_tick.len(), 1, "{on_tick:?}");
    assert_eq!(on_tick[0].line, return_line);
    assert!(on_tick[0].message.contains("returns early"));
    // Suppressed by its one allow; `on_frame`'s fall-off-the-end finding
    // (no allow) is the wall's planted unallowed violation.
    let rep = run_fixtures();
    let survivors: Vec<_> = rep
        .findings
        .iter()
        .filter(|f| f.rule == "handler-oracle")
        .collect();
    assert_eq!(survivors.len(), 1, "{survivors:?}");
    assert!(survivors[0].message.contains("on_frame`"), "{survivors:?}");
}

#[test]
fn multi_line_constructs_are_caught() {
    // Regression vs the old line-based scanners, which matched substrings
    // within single lines and missed both of these.
    let rep = run_fixtures();
    assert!(
        rep.findings
            .iter()
            .any(|f| f.file == "crates/proto/src/alloc_path.rs"
                && f.line == 4
                && f.message.contains("Vec<TcpOption>")),
        "multi-line Vec<TcpOption> missed"
    );
    assert!(
        rep.findings
            .iter()
            .any(|f| f.file == "crates/proto/src/state.rs"
                && f.line == 10
                && f.message.contains("Instant::now")),
        "line-split Instant::now missed"
    );
}

#[test]
fn strings_and_comments_never_fire() {
    // Regression vs the old scanners' `contains()` false positives: the
    // fixture mentions HashMap in a doc comment (state.rs line 2) and in a
    // string literal (line 5); neither may produce a finding.
    let rep = run_fixtures();
    assert!(
        !rep.findings
            .iter()
            .any(|f| f.file == "crates/proto/src/state.rs" && (f.line == 2 || f.line == 5)),
        "comment/string token flagged"
    );
}

#[test]
fn stale_unknown_and_reasonless_markers_are_findings() {
    let rep = run_fixtures();
    let markers: Vec<_> = rep
        .findings
        .iter()
        .filter(|f| f.rule == "marker")
        .collect();
    assert!(
        markers.iter().any(|f| f.message.contains("stale")),
        "{markers:?}"
    );
    assert!(
        markers.iter().any(|f| f.message.contains("names no rule")),
        "{markers:?}"
    );
    assert!(
        markers
            .iter()
            .any(|f| f.message.contains("without a (reason)")),
        "{markers:?}"
    );
}

#[test]
fn gate_fails_on_findings_and_json_carries_them() {
    let rep = run_fixtures();
    let (violations, _) = rep.gate("{\"allow/panic\": 1, \"allow/determinism\": 1}");
    assert!(
        violations.iter().any(|v| v.contains("unallowed finding")),
        "{violations:?}"
    );
    let json = rep.json();
    for rule in ["panic", "determinism", "handler-oracle", "alloc", "marker"] {
        assert!(json.contains(&format!("\"rule\": \"{rule}\"")), "{rule} missing from JSON");
    }
    assert!(json.contains("fixture: suppresses exactly the first unwrap"));
    assert!(json.contains("\"parse_fallbacks\": 0"));
}

#[test]
fn real_workspace_is_clean_and_within_budgets() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("workspace loads");
    let cfg = Config::default_workspace();
    let rep = lint_engine::run(&ws, &cfg).expect("engine runs");
    assert!(
        rep.findings.is_empty(),
        "lint findings in the real workspace:\n{}",
        rep.findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Every construct in the real tree must parse: a fallback is code the
    // analyses silently cannot see into.
    assert_eq!(rep.parse_fallbacks, 0, "parse fallbacks in the real workspace");
    let budgets = std::fs::read_to_string(root.join("LINT_budgets.json")).expect("budgets file");
    let (violations, _) = rep.gate(&budgets);
    assert!(violations.is_empty(), "{violations:?}");
}

/// 1-based line of the first occurrence of `needle` in a fixture file —
/// keeps the tests pinned to constructs, not hard-coded line numbers.
fn fixture_line(rel: &str, needle: &str) -> u32 {
    let src = std::fs::read_to_string(fixture_root().join(rel)).expect("fixture file");
    for (i, l) in src.lines().enumerate() {
        if l.contains(needle) {
            return (i + 1) as u32;
        }
    }
    panic!("{needle:?} not found in {rel}");
}
