//! End-to-end proof that both lint walls fire.
//!
//! `tests/lint_fixtures/` holds a miniature workspace with planted
//! violations per wall — including the constructs a line-based scan gets
//! wrong (tokens inside strings/comments, constructs split across lines)
//! and the edge of the `#[cfg(test)]` exemption — and this suite pins the
//! engine's behavior on it. The last test then runs the real workspace
//! config against the real repo and asserts the walls are green.

use std::path::{Path, PathBuf};

use mpw_check::lint_engine::{self, report::Report, Config, Workspace};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures")
}

fn run_fixtures() -> Report {
    let cfg = Config {
        determinism_paths: vec!["crates/proto".into()],
        alloc_modules: vec!["crates/proto/src/alloc_path.rs".into()],
    };
    let ws = Workspace::load(&fixture_root()).expect("fixture tree loads");
    lint_engine::run(&ws, &cfg).expect("engine runs")
}

/// `(rule, line)` of every finding in one fixture file.
fn found(rep: &Report, file: &str) -> Vec<(String, u32)> {
    rep.findings
        .iter()
        .filter(|f| f.file == format!("crates/proto/src/{file}"))
        .map(|f| (f.rule.clone(), f.line))
        .collect()
}

#[test]
fn the_determinism_wall_fires_on_tokens_only_and_in_tests_too() {
    let rep = run_fixtures();
    // Not the HashMap in a doc comment (line 2) or in a string (line 5);
    // `Instant::now` split over lines 10–11; both tokens on line 16; and
    // the `HashSet` inside the `#[cfg(test)]` mod.
    let want = [10, 16, 16, fixture_line("state.rs", "HashSet")];
    assert_eq!(found(&rep, "state.rs"), want.map(|l| ("determinism".to_string(), l)));
    let msgs: Vec<&str> = rep.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("Instant::now")), "{msgs:?}");
}

#[test]
fn the_alloc_wall_fires_across_lines_and_exempts_exactly_the_test_mod() {
    let rep = run_fixtures();
    // The `Vec<TcpOption>` split over lines 4–6 and the `.to_vec()` *after*
    // the test mod; not the `.to_vec()` inside it.
    let exempt = fixture_line("alloc_path.rs", "d.to_vec()");
    let caught = fixture_line("alloc_path.rs", "pub fn copy") + 1;
    assert!(exempt < caught);
    assert_eq!(
        found(&rep, "alloc_path.rs"),
        [("alloc".to_string(), 4), ("alloc".to_string(), caught)]
    );
}

#[test]
fn findings_fail_the_gate_and_json_carries_them() {
    let rep = run_fixtures();
    assert_eq!(rep.findings.len(), 6);
    assert!(rep.human().ends_with("lint: 6 finding(s) across 3 files\n"));
    let json = rep.json();
    for rule in lint_engine::RULES {
        assert!(json.contains(&format!("\"rule\": \"{rule}\"")), "{rule} missing from JSON");
    }
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("workspace loads");
    let rep = lint_engine::run(&ws, &Config::default_workspace()).expect("engine runs");
    assert!(
        rep.findings.is_empty(),
        "lint findings in the real workspace:\n{}",
        rep.findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// 1-based line of the first occurrence of `needle` in a fixture file —
/// keeps the tests pinned to constructs, not hard-coded line numbers.
fn fixture_line(file: &str, needle: &str) -> u32 {
    let path = fixture_root().join("crates/proto/src").join(file);
    let src = std::fs::read_to_string(path).expect("fixture file");
    let at = src.lines().position(|l| l.contains(needle));
    at.unwrap_or_else(|| panic!("{needle:?} not found in {file}")) as u32 + 1
}
