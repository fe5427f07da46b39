//! Parser coverage proof over (a) every first-party `.rs` file in the
//! workspace and (b) a proptest-generated corpus of synthetic fn bodies.
//!
//! Two properties per file:
//!
//! 1. **Zero fallbacks.** `parse` structures every construct in the
//!    workspace — no `UnsupportedConstruct` spans. CI asserts the same via
//!    `lint-report.json`, so a new syntax gap fails loudly instead of
//!    silently weakening an analysis.
//! 2. **Well-nested spans.** `Ast::check_spans` holds: every child span
//!    lies inside its parent's, siblings are in source order and disjoint,
//!    and the top-level items lie inside the file.
//!
//! The mutation tests at the bottom show property 2 can fail: a widened
//! inner span, two swapped statements and a shifted item are each rejected.

use std::path::{Path, PathBuf};

use mpw_check::lint_engine::lexer::lex;
use mpw_check::lint_engine::parse::{parse, Ast, ExprKind, ItemKind, StmtKind};
use proptest::prelude::*;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            // Fixture trees are test *data* (planted violations, some with
            // deliberately odd shapes); the workspace wall covers them via
            // their own pinned tests.
            if p.file_name().is_some_and(|n| n == "lint_fixtures") {
                continue;
            }
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn check_file(name: &str, src: &str) -> Result<(), String> {
    let toks = lex(src);
    let ast = parse(src, &toks);
    if !ast.fallbacks.is_empty() {
        let mut msg = format!("{name}: {} fallback(s):", ast.fallbacks.len());
        for sp in &ast.fallbacks {
            let t = &toks[sp.lo.min(toks.len() - 1)];
            msg.push_str(&format!(
                " [line {} col {}: {:?}…]",
                t.line,
                t.col,
                &src[t.start..t.end.min(t.start + 30)]
            ));
        }
        return Err(msg);
    }
    ast.check_spans(toks.len()).map_err(|e| format!("{name}: {e}"))
}

#[test]
fn every_workspace_file_parses_with_zero_fallbacks_and_nested_spans() {
    let root = workspace_root();
    let mut files = Vec::new();
    rs_files(&root.join("crates"), &mut files);
    assert!(
        files.len() > 50,
        "workspace scan found only {} files — wrong root?",
        files.len()
    );
    let mut errors = Vec::new();
    for p in &files {
        let src = std::fs::read_to_string(p).expect("readable source");
        let rel = p.strip_prefix(&root).unwrap_or(p).display().to_string();
        if let Err(e) = check_file(&rel, &src) {
            errors.push(e);
        }
    }
    assert!(
        errors.is_empty(),
        "{} of {} files failed:\n{}",
        errors.len(),
        files.len(),
        errors.join("\n")
    );
}

// ---------------------------------------------------------------------------
// Property-based corpus: synthetic fn bodies built from the construct
// grammar that bit the old token-level scanners — nested closures, casts,
// ranges, method chains, struct literals, tuple indexing, let-else, match
// guards. Programs are grown deterministically from a proptest-drawn seed.
// ---------------------------------------------------------------------------

/// Tiny splitmix64 over the proptest seed; keeps the grammar a plain
/// recursive function instead of a strategy tree (the vendored
/// mini-proptest has no `prop_recursive`).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    fn expr(&mut self, depth: u32) -> String {
        if depth == 0 {
            return match self.below(6) {
                0 => format!("v{}", self.below(4)),
                1 => self.below(999).to_string(),
                2 => "self.seq".into(),
                3 => "x.0".into(),
                4 => "buf[i]".into(),
                _ => "\"s\"".into(),
            };
        }
        let d = depth - 1;
        match self.below(9) {
            0 => format!("({} + {})", self.expr(d), self.expr(d)),
            1 => format!("{}.wrapping_add({})", self.expr(d), self.expr(d)),
            2 => format!("{} as u64", self.expr(d)),
            3 => format!("({} as u32) < 7", self.expr(d)),
            4 => format!("{}..{}", self.expr(d), self.expr(d)),
            5 => format!("q.iter().map(|t| t + {}).sum::<u64>()", self.expr(d)),
            // Parenthesized: a bare struct literal is illegal in scrutinee
            // and condition positions, and stmt() may splice it anywhere.
            6 => format!("(S {{ f: {}, ..d() }})", self.expr(d)),
            7 => format!(
                "if {} > 0 {{ {} }} else {{ {} }}",
                self.expr(d),
                self.expr(d),
                self.expr(d)
            ),
            _ => format!("(|k: u64| k + {})({})", self.expr(d), self.expr(d)),
        }
    }

    fn stmt(&mut self) -> String {
        let depth = 1 + self.below(2) as u32;
        let e = self.expr(depth);
        match self.below(6) {
            0 => format!("let a = {e};"),
            1 => format!("let Some(w) = o.get({e} as usize) else {{ return; }};"),
            2 => format!("match {e} {{ 0 => {{}}, n if n > 2 => {{ h(n); }}, _ => {{}} }}"),
            3 => format!("for i in 0..3 {{ acc += i + {e}; }}"),
            4 => format!("while c < 9 {{ c += 1; g({e}); }}"),
            _ => format!("let cl = move |k: u64| k + {e};"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn synthetic_fn_bodies_parse_with_nested_spans(seed in 1u64..u64::MAX, n_stmts in 1usize..6) {
        let mut gen = Gen(seed);
        let stmts: Vec<String> = (0..n_stmts).map(|_| gen.stmt()).collect();
        let src = format!(
            "struct S {{ f: u64 }}\nfn f(o: &[u64], q: &[u64]) {{\n    {}\n}}\n",
            stmts.join("\n    ")
        );
        if let Err(e) = check_file("synthetic", &src) {
            // Show the generated program on failure.
            panic!("{e}\n--- source ---\n{src}");
        }
    }
}

// ---------------------------------------------------------------------------
// The span check bites: each mutation of a correctly parsed file is rejected.
// ---------------------------------------------------------------------------

const MUTANT_SRC: &str = "fn first(v: &[u8]) -> u8 {\n    let a = v[0] + 1;\n    g(a);\n    a\n}\n\
                          fn second() {}\n";

/// Parse [`MUTANT_SRC`], check it is accepted, apply `mutate`, and return
/// what `check_spans` says about the result.
fn check_mutant(mutate: impl FnOnce(&mut Ast)) -> Result<(), String> {
    let toks = lex(MUTANT_SRC);
    let mut ast = parse(MUTANT_SRC, &toks);
    assert!(ast.fallbacks.is_empty());
    ast.check_spans(toks.len()).expect("the unmutated tree is accepted");
    mutate(&mut ast);
    ast.check_spans(toks.len())
}

fn first_fn_stmts(ast: &mut Ast) -> &mut Vec<mpw_check::lint_engine::parse::Stmt> {
    let ItemKind::Fn(f) = &mut ast.items[0].kind else { panic!("fn item") };
    &mut f.body.as_mut().expect("body").stmts
}

#[test]
fn check_spans_rejects_an_inner_expr_widened_past_its_parent() {
    let res = check_mutant(|ast| {
        let StmtKind::Let { init: Some(init), .. } = &mut first_fn_stmts(ast)[0].kind else {
            panic!("let with init")
        };
        let ExprKind::Binary { rhs, .. } = &mut init.kind else { panic!("binary init") };
        rhs.span.hi += 2; // past the `;` and into the next statement
    });
    assert!(res.is_err_and(|e| e.starts_with("expr span")), "mutant accepted");
}

#[test]
fn check_spans_rejects_two_swapped_sibling_statements() {
    let res = check_mutant(|ast| first_fn_stmts(ast).swap(0, 1));
    assert!(res.is_err_and(|e| e.starts_with("stmt span")), "mutant accepted");
}

#[test]
fn check_spans_rejects_a_shifted_item() {
    let res = check_mutant(|ast| {
        ast.items[0].span.lo += 3;
        ast.items[0].span.hi += 3;
    });
    assert!(res.is_err_and(|e| e.starts_with("item span")), "mutant accepted");
}
