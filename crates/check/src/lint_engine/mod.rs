//! The lint engine behind the two token walls (DESIGN.md §5.12):
//! dependency-free, one pass over each file's tokens.
//!
//! * [`lexer`] — a full Rust lexer (strings, raw strings, byte literals,
//!   nested block comments, lifetimes vs char literals) producing exact
//!   token spans, so comments and string literals can never fire a wall;
//! * [`rules`] — the walls: `determinism` (wall clocks, ambient randomness
//!   and hash-ordered collections in the protocol crates, their tests
//!   included) and `alloc` (no per-segment heap construct in the data-path
//!   modules, outside `#[cfg(test)]` code);
//! * [`report`] — human and machine-readable (JSON) output.
//!
//! Neither wall has an opt-out: a finding fails the gate.
//!
//! What else one might look for here needs types, and belongs to the tools
//! that have them. A panic on the decode surface or in the six stack crates
//! is a `cargo clippy` error (crate- and module-level `#![deny(clippy::…)]`,
//! waived per site by `#[expect(clippy::…, reason = "…")]`); raw arithmetic
//! on a 32-bit sequence number does not compile (`mpw_tcp::SeqNum`'s bits
//! are private to `tcp/seq.rs`); `unsafe` is denied by `[workspace.lints.rust]`.
//! `tests/workspace_lints.rs` keeps those attributes and manifests honest.

pub mod lexer;
pub mod report;
pub mod rules;

use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

use lexer::{lex, Tok};

/// The walls, by the name a [`Finding`] carries.
pub const RULES: [&str; 2] = ["determinism", "alloc"];

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which wall fired (one of [`RULES`]).
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

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// One lexed source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Full source text.
    pub src: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Token ranges gated on `cfg(test)` (see [`test_ranges`]).
    test_ranges: Vec<Range<usize>>,
}

impl SourceFile {
    /// Lex one file from source text.
    pub fn parse(rel: &str, src: String) -> SourceFile {
        let toks = lex(&src);
        let test_ranges = test_ranges(&src, &toks);
        SourceFile { rel: rel.to_string(), src, toks, test_ranges }
    }

    /// Whether token index `tok` lies in code gated on `cfg(test)`.
    pub fn in_test(&self, tok: usize) -> bool {
        self.test_ranges.iter().any(|r| r.contains(&tok))
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

/// The token ranges that only a test build compiles: from the `#` of each
/// `#[cfg(..)]` whose predicate names `test` outside any `not(..)`
/// (`cfg(test)`, `cfg(any(test, ..))`, `cfg(all(test, ..))` — code under
/// `cfg(not(test))` ships, so it stays walled) to the end of what the
/// attribute sits on: the `}` matching its first `{`, or the `;` or `,` that
/// ends it first. Token-level, so one shape is read long: a `<` comparison
/// in a gated match arm's guard hides the arm's closing `,`.
fn test_ranges(src: &str, toks: &[Tok]) -> Vec<Range<usize>> {
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let text = |p: usize| code.get(p).map_or("", |&i| toks[i].text(src));
    let mut out = Vec::new();
    for start in 0..code.len() {
        if [0, 1, 2, 3].map(|k| text(start + k)) != ["#", "[", "cfg", "("] {
            continue;
        }
        // The predicate: is `test` named outside any `not(..)`?
        let (mut p, mut depth, mut not_depth, mut gates) = (start + 3, 0usize, None, false);
        while p < code.len() {
            match text(p) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if not_depth == Some(depth) {
                        not_depth = None; // that was the `not(..)`'s own `)`
                    }
                }
                "not" if not_depth.is_none() => not_depth = Some(depth),
                "test" if not_depth.is_none() => gates = true,
                _ => {}
            }
            p += 1;
            if depth == 0 {
                break;
            }
        }
        if !gates {
            continue;
        }
        // What the attribute sits on, from past its `]`.
        let (mut depth, mut angle) = (0i32, 0i32);
        p += 1;
        while p < code.len() {
            let t = text(p);
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                _ => {}
            }
            if depth < 0 {
                break; // a last field or arm: the group around it closes
            }
            p += 1;
            if depth == 0 && (t == "}" || t == ";" || (t == "," && angle <= 0)) {
                break;
            }
        }
        out.push(code[start]..code.get(p).copied().unwrap_or(toks.len()));
    }
    out
}

/// The whole scanned workspace.
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Every first-party `.rs` file under `crates/`, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Load every `.rs` file under `crates/*/{src,tests,benches,examples}`
    /// rooted at `root`.
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

/// Which files each wall covers. [`Config::default_workspace`] is the real
/// wall; fixtures construct custom configs.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crate dirs under the determinism wall (src + tests + benches: test
    /// schedules must stay deterministic too).
    pub determinism_paths: Vec<String>,
    /// Exact data-path files under the allocation wall. Every file must
    /// exist.
    pub alloc_modules: Vec<String>,
}

impl Config {
    /// The real workspace walls.
    pub fn default_workspace() -> Config {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        Config {
            determinism_paths: s(&["crates/tcp", "crates/core", "crates/sim", "crates/fleet"]),
            alloc_modules: s(&[
                "crates/tcp/src/wire.rs",
                "crates/capture/src/pcapng.rs",
                "crates/core/src/conn.rs",
            ]),
        }
    }
}

/// Run both walls over a loaded workspace; the findings come sorted by
/// position.
pub fn run(ws: &Workspace, cfg: &Config) -> Result<report::Report, String> {
    // Loud failure on a renamed walled file.
    for want in &cfg.alloc_modules {
        if ws.file(want).is_none() && !ws.files.is_empty() {
            return Err(format!(
                "walled module {want} not found (renamed? update Config)"
            ));
        }
    }
    let mut findings = rules::determinism(ws, cfg);
    findings.extend(rules::alloc(ws, cfg));
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule))
    });
    Ok(report::Report { findings, files: ws.files.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the first token spelled `word` is test-gated.
    fn gated(src: &str, word: &str) -> bool {
        let f = SourceFile::parse("crates/x/src/lib.rs", src.to_string());
        let at = f.toks.iter().position(|t| t.text(src) == word).expect("word present");
        f.in_test(at)
    }

    #[test]
    fn cfg_test_gates_exactly_its_item() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests { #[test] fn t() { real(); } }\n\
                   #[test]\nfn also_real() {}";
        assert!(!gated(src, "real"));
        assert!(gated(src, "cfg"), "the attribute itself is inside the range");
        assert!(gated(src, "t"));
        assert!(!gated(src, "also_real"), "code after a cfg(test) mod is not test code");
    }

    #[test]
    fn cfg_any_and_all_test_gate_but_not_test_does_not() {
        assert!(gated("#[cfg(any(test, feature = \"x\"))]\nmod helpers { fn h() {} }", "h"));
        assert!(gated("#[cfg(all(test, unix))]\nfn h() {}", "h"));
        // `cfg(not(test))` code is exactly what ships: it must stay walled.
        assert!(!gated("#[cfg(not(test))]\nfn h() {}", "h"));
        assert!(!gated("#[cfg(all(unix, not(any(test, miri))))]\nfn h() {}", "h"));
        assert!(gated("#[cfg(any(not(unix), test))]\nfn h() {}", "h"));
        assert!(!gated("#[cfg(feature = \"test\")]\nfn h() {}", "h"));
        assert!(!gated("#[cfg_attr(test, derive(Debug))]\nstruct h;", "h"));
    }

    #[test]
    fn cfg_test_gates_statements_arms_and_fields_not_their_neighbours() {
        let src = "struct S { #[cfg(test)] probe: Map<u8, u8>, live: u32, #[cfg(test)] last: u8 }\n\
                   #[cfg(test)]\n#[derive(Debug)]\nstruct Unit;\n\
                   fn f<A, B>(k: u8) -> u8 {\n\
                       #[cfg(test)]\n    let traced = k < 3;\n\
                       match k { #[cfg(test)] 9 => nine(), _ => other() }\n\
                   }";
        for (word, want) in [
            ("probe", true),
            ("live", false),
            ("last", true),
            ("Unit", true),
            ("f", false),
            ("traced", true),
            ("nine", true),
            ("other", false),
        ] {
            assert_eq!(gated(src, word), want, "{word}");
        }
    }

    #[test]
    fn under_any_matches_whole_path_components() {
        let f = SourceFile::parse("crates/x/src/lib.rs", "fn f() {}\n".to_string());
        assert!(f.under_any(&["crates/x/src".into()]));
        assert!(f.under_any(&["crates/x".into()]));
        assert!(!f.under_any(&["crates/xy".into()]));
    }
}
