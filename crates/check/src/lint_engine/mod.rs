//! The lint engine behind every wall (DESIGN.md §5.12): dependency-free,
//! hand-rolled, one pass per layer.
//!
//! * [`lexer`] — a full Rust lexer (strings, raw strings, byte literals,
//!   nested block comments, lifetimes vs char literals) producing exact
//!   token spans, so comments and string literals can never fire a wall;
//! * [`parse`] — a total recursive-descent parser structuring every
//!   workspace file into an AST with token spans (zero fallbacks and
//!   well-nested spans, both asserted over the whole tree) that also
//!   records which nodes a `#[cfg(test)]` gates;
//! * [`resolve`] — name resolution over the AST: typed fn nodes, struct
//!   field tables, and a call graph whose method edges are resolved
//!   through receiver types (same-named methods on different types do not
//!   conflate), degrading soundly to name fallback;
//! * [`flow`] — the handler/oracle exit analysis: every handler exit must
//!   run the `debug_check`/`validate` oracle ([`flow::handler_oracle`]);
//! * [`rules`] — the token-scanning walls: `determinism`, `panic` (strict
//!   decode surface **and** relaxed reachability on the resolved graph —
//!   see [`rules::panic`]) and `alloc`;
//! * [`report`] — human and machine-readable (JSON) output plus the
//!   `LINT_budgets.json` ratchet on opt-out counts.
//!
//! Opt-outs are per-token `// lint: allow-<rule>(reason)` comments: a
//! marker suppresses **exactly one** finding of its rule on its own line
//! (trailing form) or on the next code-bearing line (standalone form).
//! Every marker must carry a reason; unused (stale) markers and unknown
//! rule names are themselves findings, so the allowlist cannot rot.
//!
//! Two things one might look for here are compile errors instead: raw
//! arithmetic on a 32-bit sequence number (`mpw_tcp::SeqNum`'s bits are
//! private to `tcp/seq.rs`) and `unsafe` (`[workspace.lints.rust]
//! unsafe_code = "deny"`, inherited by every member;
//! `tests/workspace_lints.rs` keeps the manifests honest).

pub mod flow;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod resolve;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{lex, Tok};

/// Rule names a marker may reference.
pub const RULES: [&str; 4] = ["determinism", "panic", "alloc", "handler-oracle"];

/// The marker prefix. A comment opts a token out with
/// `lint: allow-<rule>(reason)`.
pub const MARKER_PREFIX: &str = "lint:";

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which wall fired (one of [`RULES`], or `marker` for marker-syntax
    /// problems).
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What and why.
    pub message: String,
}

impl Finding {
    /// Stable id used by `lint --explain`: `rule@file:line:col`.
    pub fn id(&self) -> String {
        format!("{}@{}:{}:{}", self.rule, self.file, self.line, self.col)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// One parsed `allow-<rule>(reason)` marker.
#[derive(Clone, Debug)]
pub struct Allow {
    /// The rule the marker opts out of.
    pub rule: String,
    /// The justification inside the parentheses.
    pub reason: String,
    /// Line the marker comment sits on.
    pub marker_line: u32,
    /// Line whose first finding of `rule` the marker suppresses.
    pub target_line: u32,
    /// Set once a finding has consumed this marker.
    pub used: bool,
}

/// One lexed and parsed source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Full source text.
    pub src: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Structured AST.
    pub ast: parse::Ast,
    /// Opt-out markers (outside test code), in source order.
    pub allows: Vec<Allow>,
    /// Marker-syntax findings discovered while parsing allows.
    pub marker_findings: Vec<Finding>,
}

impl SourceFile {
    /// Lex and parse one file from source text.
    pub fn parse(rel: &str, src: String) -> SourceFile {
        let toks = lex(&src);
        let ast = parse::parse(&src, &toks);
        let mut f = SourceFile {
            rel: rel.to_string(),
            src,
            toks,
            ast,
            allows: Vec::new(),
            marker_findings: Vec::new(),
        };
        collect_allows(&mut f);
        f
    }

    /// Whether the file lies under any of the given `/`-separated dir
    /// prefixes.
    pub fn under_any(&self, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| {
            self.rel == *p
                || (self.rel.starts_with(p.as_str())
                    && self.rel.as_bytes().get(p.len()) == Some(&b'/'))
        })
    }
}

/// Scan a file's comments for `lint: allow-<rule>(reason)` markers.
///
/// The reason runs to the first `)` — keep parentheses out of it (several
/// markers may share one comment, so the first close must terminate).
///
/// Attachment: a comment with code before it on its own line targets that
/// line; a standalone comment targets the next line bearing a code token.
/// Markers inside `#[cfg(test)]` code are ignored entirely (test code may
/// panic/allocate freely, so there is nothing to suppress).
fn collect_allows(f: &mut SourceFile) {
    for (ti, t) in f.toks.iter().enumerate() {
        if !t.is_comment() || f.ast.in_test(ti) {
            continue;
        }
        let text = t.text(&f.src);
        // A marker must open the comment (`// lint: …`); prose that merely
        // mentions the syntax mid-sentence is not a marker.
        let content = text
            .trim_start_matches('/')
            .trim_start_matches(['!', '*'])
            .trim_start();
        let Some(body) = content.strip_prefix(MARKER_PREFIX) else { continue };
        if !body.contains("allow-") {
            continue;
        }
        // Trailing or standalone? Standalone iff no code token earlier on
        // the marker's starting line.
        let trailing = f.toks[..ti]
            .iter()
            .any(|p| !p.is_comment() && p.line == t.line);
        let target_line = if trailing {
            t.line
        } else {
            // Next code token's line (skipping comments); a dangling
            // marker at EOF targets its own line and will read as stale.
            f.toks[ti + 1..]
                .iter()
                .find(|p| !p.is_comment())
                .map(|p| p.line)
                .unwrap_or(t.line)
        };
        let mut rest = body;
        while let Some(ap) = rest.find("allow-") {
            rest = &rest[ap + "allow-".len()..];
            let rule_end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
                .unwrap_or(rest.len());
            let rule = rest[..rule_end].trim_end_matches('-').to_string();
            let after = rest[rule_end..].trim_start();
            let known = RULES.contains(&rule.as_str());
            if !known {
                f.marker_findings.push(Finding {
                    rule: "marker".into(),
                    file: f.rel.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`allow-{rule}` names no rule (known: {})",
                        RULES.join(", ")
                    ),
                });
                continue;
            }
            let reason = after.strip_prefix('(').and_then(|a| {
                a.find(')').map(|c| a[..c].trim().to_string())
            });
            match reason {
                Some(r) if !r.is_empty() => f.allows.push(Allow {
                    rule,
                    reason: r,
                    marker_line: t.line,
                    target_line,
                    used: false,
                }),
                _ => f.marker_findings.push(Finding {
                    rule: "marker".into(),
                    file: f.rel.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!("`allow-{rule}` marker without a (reason)"),
                }),
            }
        }
    }
}

/// The whole scanned workspace.
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Every first-party `.rs` file under `crates/`, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Load every `.rs` file under `crates/*/{src,tests,benches}` rooted
    /// at `root`.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut paths = Vec::new();
        let crates_dir = root.join("crates");
        let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for cd in crate_dirs {
            for sub in ["src", "tests", "benches", "examples"] {
                let dir = cd.join(sub);
                if dir.is_dir() {
                    walk(&dir, &mut paths)?;
                }
            }
        }
        let mut files = Vec::new();
        for p in paths {
            let src = std::fs::read_to_string(&p)?;
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile::parse(&rel, src));
        }
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }

    /// Build a workspace from in-memory sources (fixtures and tests).
    pub fn from_sources(sources: Vec<(&str, String)>) -> Workspace {
        Workspace {
            root: PathBuf::new(),
            files: sources
                .into_iter()
                .map(|(rel, src)| SourceFile::parse(rel, src))
                .collect(),
        }
    }

    /// The file at a workspace-relative path.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            // `lint_fixtures/` trees are engine test *data* — miniature
            // workspaces full of planted violations — not first-party code.
            if p.file_name().is_some_and(|n| n == "lint_fixtures") {
                continue;
            }
            walk(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Which files each rule covers. [`Config::default_workspace`] is the real
/// wall; fixtures construct custom configs.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crate dirs under the determinism wall (src + tests + benches: test
    /// schedules must stay deterministic too).
    pub determinism_paths: Vec<String>,
    /// Exact parser-module files under the strict panic surface
    /// (panicking macros, `unwrap`/`expect`, and expression indexing all
    /// forbidden outside test code). Every file must exist.
    pub parser_modules: Vec<String>,
    /// Exact data-path files under the allocation wall. Every file must
    /// exist.
    pub alloc_modules: Vec<String>,
    /// Dir prefixes whose fns participate in the panic-reachability call
    /// graph.
    pub reach_paths: Vec<String>,
    /// Files whose `on_*`/`handle_*` fns are reachability entry points
    /// (parser-module fns are always entries).
    pub entry_files: Vec<String>,
    /// Fn-name prefixes marking an entry point within `entry_files`.
    pub entry_prefixes: Vec<String>,
    /// Fn-name prefixes marking a *decode* entry point within the parser
    /// modules. The strict panic surface covers exactly the
    /// parser-module fns reachable from these (wire bytes flow through
    /// them); encoder fns in the same files fall back to the relaxed
    /// reachability rule, where asserts and indexing are the legal
    /// invariant-oracle idiom.
    pub parse_entry_prefixes: Vec<String>,
}

impl Config {
    /// The real workspace walls.
    pub fn default_workspace() -> Config {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        Config {
            determinism_paths: s(&["crates/tcp", "crates/core", "crates/sim", "crates/fleet"]),
            parser_modules: s(&[
                "crates/tcp/src/wire.rs",
                "crates/capture/src/pcapng.rs",
                "crates/capture/src/analyze.rs",
                "crates/scenario/src/parse.rs",
            ]),
            alloc_modules: s(&[
                "crates/tcp/src/wire.rs",
                "crates/capture/src/pcapng.rs",
                "crates/core/src/conn.rs",
            ]),
            reach_paths: s(&[
                "crates/tcp/src",
                "crates/core/src",
                "crates/sim/src",
                "crates/capture/src",
                "crates/scenario/src",
                "crates/link/src",
            ]),
            entry_files: s(&[
                "crates/tcp/src/socket.rs",
                "crates/core/src/conn.rs",
                "crates/core/src/host.rs",
            ]),
            entry_prefixes: s(&["on_", "handle_"]),
            parse_entry_prefixes: s(&["parse", "read", "decode"]),
        }
    }
}

/// Every wall's raw findings (before allow-marker filtering), sorted and
/// deduped by position. `lint --explain` uses this to locate suppressed
/// findings too.
pub fn raw_findings(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let r = resolve::Resolved::build(ws);
    let mut raw: Vec<Finding> = Vec::new();
    raw.extend(rules::determinism(ws, cfg));
    raw.extend(rules::panic(ws, cfg, &r).0);
    raw.extend(flow::handler_oracle(ws, cfg, &r));
    raw.extend(rules::alloc(ws, cfg));
    // Deterministic order: by file, line, col, rule.
    raw.sort_by(|a, b| {
        (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule))
    });
    // One finding per (file, line, col, rule): nested fns can be reached
    // twice (once via the outer body, once directly) with different call
    // paths — keep the first.
    raw.dedup_by(|a, b| {
        (&a.file, a.line, a.col, &a.rule) == (&b.file, b.line, b.col, &b.rule)
    });
    raw
}

/// Run every wall over a loaded workspace: rule findings filtered through
/// the allow markers, marker problems, and stale-marker findings.
pub fn run(ws: &Workspace, cfg: &Config) -> Result<report::Report, String> {
    // Loud failure on a renamed walled file.
    for want in cfg.parser_modules.iter().chain(&cfg.alloc_modules) {
        if ws.file(want).is_none() && !ws.files.is_empty() {
            return Err(format!(
                "walled module {want} not found (renamed? update Config)"
            ));
        }
    }

    let raw = raw_findings(ws, cfg);

    // Filter through allow markers: each marker suppresses exactly one
    // finding of its rule on its target line, in source order.
    let mut allows: Vec<(String, Allow)> = Vec::new();
    let mut findings = Vec::new();
    let mut per_file: std::collections::BTreeMap<&str, Vec<Allow>> = ws
        .files
        .iter()
        .map(|f| (f.rel.as_str(), f.allows.clone()))
        .collect();
    for fd in raw {
        let consumed = per_file.get_mut(fd.file.as_str()).and_then(|list| {
            list.iter_mut()
                .find(|a| !a.used && a.rule == fd.rule && a.target_line == fd.line)
        });
        match consumed {
            Some(a) => a.used = true,
            None => findings.push(fd),
        }
    }
    for f in &ws.files {
        findings.extend(f.marker_findings.iter().cloned());
    }
    for (rel, list) in per_file {
        for a in list {
            if !a.used {
                findings.push(Finding {
                    rule: "marker".into(),
                    file: rel.to_string(),
                    line: a.marker_line,
                    col: 1,
                    message: format!(
                        "stale `allow-{}` marker suppresses nothing (reason: {})",
                        a.rule, a.reason
                    ),
                });
            } else {
                allows.push((rel.to_string(), a));
            }
        }
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule))
    });
    allows.sort_by(|a, b| (&a.0, a.1.marker_line).cmp(&(&b.0, b.1.marker_line)));

    Ok(report::Report::new(ws, findings, allows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::from_sources(vec![("crates/x/src/lib.rs", src.to_string())])
    }

    #[test]
    fn trailing_marker_targets_its_own_line() {
        let w = ws("fn f() { g(); } // lint: allow-panic(reason here)\n");
        let f = &w.files[0];
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "panic");
        assert_eq!(f.allows[0].reason, "reason here");
        assert_eq!(f.allows[0].target_line, 1);
    }

    #[test]
    fn standalone_marker_targets_next_code_line() {
        let w = ws("fn f() {\n    // lint: allow-panic(checked above)\n\n    let x = 1;\n}\n");
        let f = &w.files[0];
        assert_eq!(f.allows[0].target_line, 4);
    }

    #[test]
    fn two_markers_in_one_comment() {
        let w = ws("x(); // lint: allow-panic(a) allow-panic(b)\n");
        assert_eq!(w.files[0].allows.len(), 2);
    }

    #[test]
    fn missing_reason_and_unknown_rule_are_marker_findings() {
        let w = ws("x(); // lint: allow-panic()\ny(); // lint: allow-bogus(why)\n");
        let f = &w.files[0];
        assert_eq!(f.allows.len(), 0);
        assert_eq!(f.marker_findings.len(), 2);
        assert!(f.marker_findings[0].message.contains("without a (reason)"));
        assert!(f.marker_findings[1].message.contains("names no rule"));
    }

    #[test]
    fn markers_inside_cfg_test_are_ignored() {
        let w = ws("#[cfg(test)]\nmod t {\n // lint: allow-panic(x)\n fn f() {}\n}\n");
        assert!(w.files[0].allows.is_empty());
        assert!(w.files[0].marker_findings.is_empty());
    }

    #[test]
    fn under_any_matches_whole_path_components() {
        let w = ws("fn f() {}\n");
        let f = &w.files[0];
        assert!(f.under_any(&["crates/x/src".into()]));
        assert!(f.under_any(&["crates/x".into()]));
        assert!(!f.under_any(&["crates/xy".into()]));
    }
}
