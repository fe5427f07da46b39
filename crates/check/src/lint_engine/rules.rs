//! The token-scanning walls: `determinism`, `panic`, `alloc`.
//!
//! Each rule is a pure function from a scanned [`Workspace`] + [`Config`]
//! to raw [`Finding`]s; the engine in [`super::run`] filters them through
//! the per-token allow markers afterwards. All rules operate on the token
//! stream (comments and string literals can never fire a wall) and exempt
//! `#[cfg(test)]` code exactly — except the determinism wall, where test
//! schedules must stay deterministic too.

use super::lexer::{Tok, TokKind};
use super::resolve::Resolved;
use super::{Config, Finding, SourceFile, Workspace};

/// Keywords that can directly precede `[` without it being an index
/// expression (`if let [a] = …`, `return [x]`, `in [..]`).
fn keyword_before_bracket(s: &str) -> bool {
    matches!(
        s,
        "let" | "in" | "return" | "else" | "match" | "if" | "while" | "box" | "mut" | "ref"
            | "move" | "as" | "const" | "static" | "break" | "continue" | "yield" | "do" | "dyn"
            | "impl" | "for" | "where" | "loop" | "unsafe" | "fn" | "pub" | "use" | "mod"
            | "struct" | "enum" | "trait" | "type"
    )
}

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
// panic (strict decode surface + relaxed reachability, both on the resolved
// call graph)
// ---------------------------------------------------------------------------

/// Macros that abort on wire-derived data.
const PANIC_MACROS: [&str; 10] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Macros flagged by the reachability pass (asserts are exempt there: they
/// *are* the invariant-oracle mechanism outside the parser surface).
const PANIC_MACROS_REACH: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Scan one fn body's token range for panicking constructs. `strict` adds
/// asserts and expression indexing (the decode surface).
fn panic_tokens_in(
    f: &SourceFile,
    range: std::ops::Range<usize>,
    strict: bool,
    via: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let macros: &[&str] = if strict { &PANIC_MACROS } else { &PANIC_MACROS_REACH };
    for i in range.clone() {
        let t = &f.toks[i];
        if t.is_comment() || f.ast.in_test(i) {
            continue;
        }
        if t.kind == TokKind::Ident {
            let name = t.text(&f.src);
            if macros.contains(&name)
                && next_code(f, i).is_some_and(|n| text(f, n) == "!")
            {
                out.push(finding(
                    "panic",
                    f,
                    t,
                    format!("`{name}!` can panic{via}"),
                ));
                continue;
            }
            if (name == "unwrap" || name == "expect")
                && prev_code(f, i).is_some_and(|p| text(f, p) == ".")
                && next_code(f, i).is_some_and(|n| text(f, n) == "(")
            {
                out.push(finding(
                    "panic",
                    f,
                    t,
                    format!("`.{name}()` can panic{via}"),
                ));
                continue;
            }
        }
        if strict && t.kind == TokKind::Punct && t.text(&f.src) == "[" {
            let Some(p) = prev_code(f, i) else { continue };
            let pt = &f.toks[p];
            let ptxt = pt.text(&f.src);
            let indexes = match pt.kind {
                TokKind::Ident => !keyword_before_bracket(ptxt),
                TokKind::Num => true,
                TokKind::Punct => matches!(ptxt, ")" | "]" | "?"),
                _ => false,
            };
            if indexes {
                out.push(finding(
                    "panic",
                    f,
                    t,
                    format!("indexing `[...]` can panic{via}"),
                ));
            }
        }
    }
    out
}

/// One fn's rendered call path for `lint --explain`: every hop from the
/// entry point down to the fn containing the finding.
pub struct PanicPath {
    /// Qualified name of the fn the findings sit in.
    pub qname: String,
    /// File of that fn.
    pub file: String,
    /// 1-based line range of the fn body (inclusive).
    pub lines: (u32, u32),
    /// Hops entry-first: (qualified name, file, line of the fn item).
    pub hops: Vec<(String, String, u32)>,
}

/// The panic wall on the resolved call graph (DESIGN.md §5.12), with the
/// per-fn entry paths `lint --explain` prints.
///
/// Two tiers, both BFS over [`Resolved::calls`] (typed edges where the
/// receiver resolves, name fallback otherwise — so same-named methods on
/// different types do not conflate):
///
/// * **Strict decode surface.** Parser-module fns reachable from
///   parser-module fns whose name starts with a
///   [`Config::parse_entry_prefixes`] prefix (`parse_packet`,
///   `read_pcapng`, …). Wire bytes flow through these unsanitized: every
///   panicking macro, `.unwrap()`/`.expect(`, and expression index is
///   forbidden. Encoder fns in the same files are *not* decode-reachable
///   and drop to the relaxed tier — their asserts are invariant oracles
///   on data the program itself built.
/// * **Relaxed reachability.** Everything else reachable from the decode
///   entries or the `on_*`/`handle_*` handler entries: aborting macros
///   and `unwrap`/`expect` are flagged; asserts and indexing are the
///   legal oracle idiom.
pub fn panic(ws: &Workspace, cfg: &Config, r: &Resolved) -> (Vec<Finding>, Vec<PanicPath>) {
    let in_scope = |fid: usize| -> bool {
        let node = &r.fns[fid];
        if node.is_test {
            return false;
        }
        let f = &ws.files[node.file];
        f.under_any(&cfg.reach_paths)
            || cfg.parser_modules.contains(&f.rel)
            || cfg.entry_files.contains(&f.rel)
    };
    let bfs = |starts: &[usize]| -> (Vec<bool>, Vec<Option<usize>>) {
        let mut seen = vec![false; r.fns.len()];
        let mut parent: Vec<Option<usize>> = vec![None; r.fns.len()];
        let mut queue: std::collections::VecDeque<usize> = Default::default();
        for &s in starts {
            if !seen[s] {
                seen[s] = true;
                queue.push_back(s);
            }
        }
        while let Some(n) = queue.pop_front() {
            for e in &r.calls[n] {
                if !seen[e.to] && in_scope(e.to) {
                    seen[e.to] = true;
                    parent[e.to] = Some(n);
                    queue.push_back(e.to);
                }
            }
        }
        (seen, parent)
    };

    let is_parser = |fid: usize| cfg.parser_modules.contains(&ws.files[r.fns[fid].file].rel);
    let decode_entries: Vec<usize> = (0..r.fns.len())
        .filter(|&fid| {
            in_scope(fid)
                && is_parser(fid)
                && cfg
                    .parse_entry_prefixes
                    .iter()
                    .any(|p| r.fns[fid].name.starts_with(p.as_str()))
        })
        .collect();
    let handler_entries: Vec<usize> = (0..r.fns.len())
        .filter(|&fid| {
            in_scope(fid)
                && cfg.entry_files.contains(&ws.files[r.fns[fid].file].rel)
                && cfg.entry_prefixes.iter().any(|p| r.fns[fid].name.starts_with(p.as_str()))
        })
        .collect();

    let (decode_seen, decode_parent) = bfs(&decode_entries);
    let all_entries: Vec<usize> =
        decode_entries.iter().chain(&handler_entries).copied().collect();
    let (all_seen, all_parent) = bfs(&all_entries);

    let render = |fid: usize, parent: &[Option<usize>]| -> (String, Vec<(String, String, u32)>) {
        let mut chain = vec![fid];
        let mut cur = fid;
        while let Some(p) = parent[cur] {
            chain.push(p);
            cur = p;
            if chain.len() > 12 {
                break;
            }
        }
        chain.reverse();
        let hops: Vec<(String, String, u32)> = chain
            .iter()
            .map(|&h| {
                let n = &r.fns[h];
                (n.qname.clone(), ws.files[n.file].rel.clone(), n.line)
            })
            .collect();
        let names: Vec<&str> = hops.iter().map(|(q, _, _)| q.as_str()).collect();
        (names.join(" → "), hops)
    };

    let mut out = Vec::new();
    let mut paths = Vec::new();
    for fid in 0..r.fns.len() {
        if !all_seen[fid] && !decode_seen[fid] {
            continue;
        }
        let node = &r.fns[fid];
        let Some((lo, hi)) = node.body else { continue };
        let f = &ws.files[node.file];
        let strict = decode_seen[fid] && is_parser(fid);
        let parent = if strict { &decode_parent } else { &all_parent };
        let (path, hops) = render(fid, parent);
        let via = if strict {
            format!(" on wire-derived data (decode path: {path})")
        } else {
            format!(" (reachable from entry point: {path})")
        };
        let found = panic_tokens_in(f, lo..hi, strict, &via);
        if !found.is_empty() {
            let lines = (
                f.toks.get(lo).map(|t| t.line).unwrap_or(0),
                f.toks.get(hi.saturating_sub(1)).map(|t| t.line).unwrap_or(u32::MAX),
            );
            paths.push(PanicPath {
                qname: node.qname.clone(),
                file: f.rel.clone(),
                lines,
                hops,
            });
        }
        out.extend(found);
    }
    (out, paths)
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
            if t.kind != TokKind::Ident || f.ast.in_test(i) {
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
    use crate::lint_engine::Workspace;

    fn cfg_one(rel: &str) -> Config {
        Config {
            determinism_paths: vec!["crates/x".into()],
            parser_modules: vec![rel.to_string()],
            alloc_modules: vec![rel.to_string()],
            reach_paths: vec!["crates/x/src".into()],
            entry_files: vec![],
            entry_prefixes: vec![],
            parse_entry_prefixes: vec!["parse".into(), "read".into(), "decode".into()],
        }
    }

    fn one(src: &str) -> (Workspace, Config) {
        let rel = "crates/x/src/lib.rs";
        (
            Workspace::from_sources(vec![(rel, src.to_string())]),
            cfg_one(rel),
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
        // The old line-based scanner searched for the exact substring
        // `Instant::now` and missed this; the token stream does not care
        // about the line break.
        let (ws, cfg) = one("fn f() { let t = Instant::\n    now(); }\n");
        assert_eq!(determinism(&ws, &cfg).len(), 1);
    }

    fn panic_findings(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
        panic(ws, cfg, &Resolved::build(ws)).0
    }

    #[test]
    fn surface_flags_panics_indexing_but_not_patterns() {
        let (ws, cfg) = one(
            "fn parse_p(b: &[u8]) -> [u8; 4] {\n    let x = b[0];\n    let y = b.first().unwrap();\n    \
             if let [a] = b { let _ = a; }\n    panic!(\"{x} {y}\");\n}\n",
        );
        let fs = panic_findings(&ws, &cfg);
        let msgs: Vec<&str> = fs.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(fs.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("indexing")));
        assert!(msgs.iter().any(|m| m.contains(".unwrap()")));
        assert!(msgs.iter().any(|m| m.contains("`panic!`")));
    }

    #[test]
    fn surface_ignores_test_mod_exactly() {
        let src = "fn parse_p() {}\n#[cfg(test)]\nmod t { fn parse_f() { x.unwrap(); } }\n\
                   fn parse_q(v: &[u8]) -> u8 { v[0] }\n";
        let (ws, cfg) = one(src);
        let fs = panic_findings(&ws, &cfg);
        // The unwrap in the test mod is exempt; the indexing *after* the
        // test mod is caught.
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("indexing"));
    }

    #[test]
    fn cfg_not_test_code_stays_under_the_wall() {
        // `cfg(not(test))` is the code that ships: the `test` ident inside
        // `not(..)` must neither exempt it nor hide its allow markers.
        let bare = "pub fn parse_x(b: &[u8]) -> u8 { b[0] }\n";
        let gated = format!("#[cfg(not(test))]\n{bare}");
        for src in [bare, gated.as_str()] {
            let (ws, cfg) = one(src);
            let fs = panic_findings(&ws, &cfg);
            assert_eq!(fs.len(), 1, "{src:?}: {fs:?}");
            assert!(fs[0].message.contains("indexing"));
        }
        let (ws, _) = one(
            "#[cfg(not(test))]\npub fn parse_x(b: &[u8]) -> u8 {\n    \
             b[0] // lint: allow-panic(length checked by the caller)\n}\n",
        );
        assert_eq!(ws.files[0].allows.len(), 1);
    }

    #[test]
    fn reachability_walks_two_hops() {
        let rel_a = "crates/x/src/entry.rs";
        let rel_b = "crates/x/src/helper.rs";
        let ws = Workspace::from_sources(vec![
            (rel_a, "pub fn parse_entry(b: &[u8]) { hop_one(b); }".to_string()),
            (
                rel_b,
                "pub fn hop_one(b: &[u8]) { hop_two(b); }\n\
                 pub fn hop_two(b: &[u8]) { b.first().unwrap(); }\n\
                 pub fn not_reached() { never_called.unwrap(); }"
                    .to_string(),
            ),
        ]);
        let mut cfg = cfg_one(rel_a);
        cfg.alloc_modules = vec![];
        let fs = panic_findings(&ws, &cfg);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(
            fs[0].message.contains("entry::parse_entry → helper::hop_one → helper::hop_two"),
            "{}",
            fs[0].message
        );
        assert_eq!(fs[0].file, rel_b);
    }

    #[test]
    fn reachability_exempts_asserts_and_indexing() {
        let rel = "crates/x/src/entry.rs";
        let mut cfg = cfg_one(rel);
        // entry.rs is a parser module (strict); helper sits in another
        // file, covered only by reachability, where asserts and indexing
        // are the invariant-oracle idiom and stay legal.
        let rel_b = "crates/x/src/other.rs";
        let ws = Workspace::from_sources(vec![
            (rel, "pub fn parse_entry(v: &[u8]) { helper(v); }".to_string()),
            (
                rel_b,
                "pub fn helper(v: &[u8]) { debug_assert!(v.len() > 1); let x = v[0]; let _ = x; }"
                    .to_string(),
            ),
        ]);
        cfg.alloc_modules = vec![];
        assert!(panic_findings(&ws, &cfg).is_empty());
    }

    #[test]
    fn alloc_flags_multiline_vec_tcpoption() {
        let (ws, cfg) = one("struct S {\n    options: Vec<\n        TcpOption,\n    >,\n}\nfn f(d: &[u8]) { let v = d.to_vec(); let _ = v; }\n");
        let fs = alloc(&ws, &cfg);
        assert_eq!(fs.len(), 2, "{fs:?}");
    }
}
