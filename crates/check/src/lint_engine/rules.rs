//! The two walls: `determinism` and `alloc`.
//!
//! Each is a pure function from a scanned [`Workspace`] + [`Config`] to
//! [`Finding`]s over the token stream (comments and string literals can
//! never fire a wall). `alloc` exempts `#[cfg(test)]` code exactly;
//! `determinism` does not — test schedules must stay deterministic too.

use super::lexer::{Tok, TokKind};
use super::{Config, Finding, SourceFile, Workspace};

fn finding(rule: &str, f: &SourceFile, t: &Tok, message: String) -> Finding {
    Finding {
        rule: rule.to_string(),
        file: f.rel.clone(),
        line: t.line,
        col: t.col,
        message,
    }
}

/// Index of the next non-comment token after `i`, within `f`.
fn next_code(f: &SourceFile, i: usize) -> Option<usize> {
    f.toks[i + 1..]
        .iter()
        .position(|t| !t.is_comment())
        .map(|p| i + 1 + p)
}

/// Index of the previous non-comment token before `i`, within `f`.
fn prev_code(f: &SourceFile, i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| !f.toks[j].is_comment())
}

fn text(f: &SourceFile, i: usize) -> &str {
    f.toks[i].text(&f.src)
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

/// Forbidden sources of nondeterminism and why (`ident` form and
/// `base :: method` form).
const NONDET_IDENTS: [(&str, &str); 3] = [
    ("HashMap", "nondeterministic iteration order; use BTreeMap"),
    ("HashSet", "nondeterministic iteration order; use BTreeSet"),
    ("thread_rng", "ambient randomness; use the seeded SimRng streams"),
];
const NONDET_PATHS: [(&str, &str, &str); 3] = [
    ("Instant", "now", "wall clock; use mpw_sim::SimTime"),
    ("SystemTime", "now", "wall clock; use mpw_sim::SimTime"),
    ("rand", "random", "ambient randomness; use the seeded SimRng streams"),
];

/// The determinism wall: wall clocks, ambient randomness, and hash-ordered
/// collections are forbidden in the protocol crates — including their
/// tests and benches, whose schedules feed determinism proofs.
pub fn determinism(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in ws.files.iter().filter(|f| f.under_any(&cfg.determinism_paths)) {
        for (i, t) in f.toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let name = t.text(&f.src);
            for (tok, why) in NONDET_IDENTS {
                if name == tok {
                    out.push(finding("determinism", f, t, format!("`{tok}` — {why}")));
                }
            }
            for (base, method, why) in NONDET_PATHS {
                if name == base {
                    let colon = next_code(f, i);
                    let m = colon.and_then(|c| {
                        (text(f, c) == "::").then(|| next_code(f, c)).flatten()
                    });
                    if m.is_some_and(|m| text(f, m) == method) {
                        out.push(finding(
                            "determinism",
                            f,
                            t,
                            format!("`{base}::{method}` — {why}"),
                        ));
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// alloc
// ---------------------------------------------------------------------------

/// The allocation wall: the data-path modules must not reintroduce a
/// per-segment `Vec<TcpOption>` or a per-packet `.to_vec()` copy outside
/// test code (DESIGN.md §5.10; the dynamic half is `mpw-experiments`'
/// `alloc_gate` bench).
pub fn alloc(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for rel in &cfg.alloc_modules {
        let Some(f) = ws.file(rel) else { continue };
        for (i, t) in f.toks.iter().enumerate() {
            if t.kind != TokKind::Ident || f.in_test(i) {
                continue;
            }
            let name = t.text(&f.src);
            if name == "Vec"
                && next_code(f, i).is_some_and(|n| text(f, n) == "<")
                && next_code(f, i)
                    .and_then(|n| next_code(f, n))
                    .is_some_and(|n2| text(f, n2) == "TcpOption")
            {
                out.push(finding(
                    "alloc",
                    f,
                    t,
                    "`Vec<TcpOption>` allocates per segment; use the inline `OptionList`"
                        .into(),
                ));
            }
            if name == "to_vec"
                && prev_code(f, i).is_some_and(|p| text(f, p) == ".")
                && next_code(f, i).is_some_and(|n| text(f, n) == "(")
            {
                out.push(finding(
                    "alloc",
                    f,
                    t,
                    "`.to_vec()` copies per packet; return a pooled/refcounted `Bytes` \
                     sub-slice"
                        .into(),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(src: &str) -> (Workspace, Config) {
        let rel = "crates/x/src/lib.rs";
        (
            Workspace::from_sources(vec![(rel, src.to_string())]),
            Config {
                determinism_paths: vec!["crates/x".into()],
                alloc_modules: vec![rel.to_string()],
            },
        )
    }

    #[test]
    fn determinism_flags_tokens_not_lines() {
        let (ws, cfg) = one("use std::collections::HashMap;\nfn f() { let t = Instant::now(); }\n");
        let fs = determinism(&ws, &cfg);
        assert_eq!(fs.len(), 2);
        assert!(fs[0].message.contains("HashMap"));
        assert!(fs[1].message.contains("Instant::now"));
    }

    #[test]
    fn determinism_ignores_comments_and_strings() {
        let (ws, cfg) = one("// a HashMap would break this\nfn f() { let s = \"HashSet\"; }\n");
        assert!(determinism(&ws, &cfg).is_empty());
    }

    #[test]
    fn determinism_catches_path_split_across_lines() {
        // A line-based scan for the substring `Instant::now` misses this;
        // the token stream does not care about the line break.
        let (ws, cfg) = one("fn f() { let t = Instant::\n    now(); }\n");
        assert_eq!(determinism(&ws, &cfg).len(), 1);
    }

    #[test]
    fn alloc_flags_multiline_vec_tcpoption() {
        let (ws, cfg) = one("struct S {\n    options: Vec<\n        TcpOption,\n    >,\n}\nfn f(d: &[u8]) { let v = d.to_vec(); let _ = v; }\n");
        let fs = alloc(&ws, &cfg);
        assert_eq!(fs.len(), 2, "{fs:?}");
    }

    #[test]
    fn alloc_ignores_the_test_mod_exactly() {
        // The copy in the test mod is exempt; the one *after* the test mod
        // is caught.
        let (ws, cfg) = one(
            "fn p() {}\n#[cfg(test)]\nmod t { fn f(d: &[u8]) { d.to_vec(); } }\n\
             fn q(d: &[u8]) -> Vec<u8> { d.to_vec() }\n",
        );
        let fs = alloc(&ws, &cfg);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].line, 4);
    }

    #[test]
    fn cfg_not_test_code_stays_under_the_wall() {
        // `cfg(not(test))` is the code that ships: the `test` ident inside
        // `not(..)` must not exempt it.
        let bare = "pub fn copy(b: &[u8]) -> Vec<u8> { b.to_vec() }\n";
        let gated = format!("#[cfg(not(test))]\n{bare}");
        for src in [bare, gated.as_str()] {
            let (ws, cfg) = one(src);
            let fs = alloc(&ws, &cfg);
            assert_eq!(fs.len(), 1, "{src:?}: {fs:?}");
            assert!(fs[0].message.contains("to_vec"));
        }
    }
}
