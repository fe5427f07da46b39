//! The oracle-exit (handler exhaustiveness) analysis over the parsed AST
//! and the resolved call graph (DESIGN.md §5.12).
//!
//! Every `on_*`/`handle_*` handler in the entry files must run a
//! `debug_check`/`validate` oracle on every return path. A fn is
//! **exit-checked** when every exit path — tail expression, every
//! `if`/`match` branch tail, and every early `return` — ends in an oracle
//! call, immediately follows an oracle statement, or tail-calls another
//! exit-checked fn (the `post_event_inner → post_event → debug_check`
//! delegation idiom). Handlers that are *not* exit-checked may instead be
//! **covered**: every non-test caller is exit-checked or covered, so the
//! oracle still runs after the handler's effects (the `on_segment →
//! on_segment_inner` wrapper idiom). Both sets are fixpoints over the
//! resolved call graph; a handler in neither set has a concrete unprotected
//! exit, and each such exit is one finding.

use super::parse::{Block, Expr, ExprKind, Node, Stmt, StmtKind};
use super::resolve::{find_fn, Resolved};
use super::{Config, Finding, Workspace};

/// Names that *are* the oracle: a call to either satisfies an exit path.
pub const ORACLE_NAMES: [&str; 2] = ["debug_check", "validate"];

/// Result of the two call-graph fixpoints (indexed by fn id).
pub struct OracleSets {
    /// Every exit path ends in an oracle action.
    pub exit_checked: Vec<bool>,
    /// Every non-test caller is exit-checked or covered.
    pub covered: Vec<bool>,
}

/// One unprotected exit out of a fn body.
struct BadExit {
    /// Token index to attach the finding to.
    tok: usize,
    what: &'static str,
}

/// Compute the exit-checked and covered sets over the resolved graph.
pub fn oracle_sets(ws: &Workspace, cfg: &Config, r: &Resolved) -> OracleSets {
    // Least fixpoint for exit-checked: a tail call into the set counts as
    // an oracle action, so delegation chains settle over a few rounds.
    let mut exit_checked = vec![false; r.fns.len()];
    loop {
        let mut changed = false;
        for fid in 0..r.fns.len() {
            if exit_checked[fid] || r.fns[fid].is_test {
                continue;
            }
            let f = &ws.files[r.fns[fid].file];
            if !f.under_any(&cfg.reach_paths) && !cfg.entry_files.contains(&f.rel) {
                continue;
            }
            let Some((fd, _)) = find_fn(&f.ast.items, &r.fns[fid]) else { continue };
            let Some(body) = &fd.body else { continue };
            if bad_exits(body, fid, r, &exit_checked).is_empty() {
                exit_checked[fid] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Least fixpoint for covered: seeded from exit-checked callers only —
    // call cycles with no checked ancestor can never cover each other.
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); r.fns.len()];
    for (from, edges) in r.calls.iter().enumerate() {
        if r.fns[from].is_test {
            continue;
        }
        for e in edges {
            if e.to != from {
                callers[e.to].push(from);
            }
        }
    }
    let mut covered = vec![false; r.fns.len()];
    loop {
        let mut changed = false;
        for fid in 0..r.fns.len() {
            if covered[fid] || exit_checked[fid] || callers[fid].is_empty() {
                continue;
            }
            if callers[fid].iter().all(|&c| exit_checked[c] || covered[c]) {
                covered[fid] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    OracleSets { exit_checked, covered }
}

/// The handler-oracle wall: every `on_*`/`handle_*` fn in the entry files
/// must be exit-checked or covered; each unprotected exit of a handler
/// that is neither becomes one finding.
pub fn handler_oracle(ws: &Workspace, cfg: &Config, r: &Resolved) -> Vec<Finding> {
    let sets = oracle_sets(ws, cfg, r);
    let mut out = Vec::new();
    for fid in 0..r.fns.len() {
        let node = &r.fns[fid];
        let f = &ws.files[node.file];
        if node.is_test
            || !cfg.entry_files.contains(&f.rel)
            || !cfg.entry_prefixes.iter().any(|p| node.name.starts_with(p.as_str()))
        {
            continue;
        }
        if sets.exit_checked[fid] || sets.covered[fid] {
            continue;
        }
        let Some((fd, _)) = find_fn(&f.ast.items, node) else { continue };
        let Some(body) = &fd.body else { continue };
        for bad in bad_exits(body, fid, r, &sets.exit_checked) {
            let t = &f.toks[bad.tok.min(f.toks.len().saturating_sub(1))];
            out.push(Finding {
                rule: "handler-oracle".into(),
                file: f.rel.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "handler `{}` {} without a debug_check/validate oracle \
                     (every return path must end in the invariant check)",
                    node.qname, bad.what
                ),
            });
        }
    }
    out
}

/// Collect the unprotected exits of a body: the tail path (recursively
/// through `if`/`match`/block tails) plus every early `return`.
fn bad_exits(body: &Block, fid: usize, r: &Resolved, exit_checked: &[bool]) -> Vec<BadExit> {
    let mut bad = Vec::new();
    scan_returns(body, fid, r, exit_checked, &mut bad);
    tail_of_block(body, fid, r, exit_checked, &mut bad);
    bad
}

/// Whether `e` (paren-stripped) is an oracle action: a call to an
/// oracle-named fn/method, or a call whose every possible callee is
/// already exit-checked (delegation). `fid` is excluded so self-recursion
/// cannot vouch for itself.
fn oracle_action(e: &Expr, fid: usize, r: &Resolved, exit_checked: &[bool]) -> bool {
    let name = match &e.kind {
        ExprKind::Paren(x) => return oracle_action(x, fid, r, exit_checked),
        ExprKind::MethodCall { name, .. } => name,
        ExprKind::Call { callee, .. } => match &callee.kind {
            ExprKind::Path(segs) => match segs.last() {
                Some((n, _)) => n,
                None => return false,
            },
            _ => return false,
        },
        _ => return false,
    };
    if ORACLE_NAMES.contains(&name.as_str()) {
        return true;
    }
    let cands: Vec<usize> = r
        .candidates(name)
        .iter()
        .copied()
        .filter(|&c| c != fid && !r.fns[c].is_test)
        .collect();
    !cands.is_empty() && cands.iter().all(|&c| exit_checked[c])
}

/// Whether a statement is an oracle statement (used for "immediately
/// preceded by the oracle" checks on early returns and value tails).
fn oracle_stmt(s: &Stmt, fid: usize, r: &Resolved, exit_checked: &[bool]) -> bool {
    match &s.kind {
        StmtKind::Expr { expr, .. } => oracle_action(expr, fid, r, exit_checked),
        _ => false,
    }
}

/// Recursively flag `return` statements not protected by a preceding
/// oracle statement (or returning an oracle call's value). Closure bodies
/// are skipped — their returns exit the closure, not the handler.
fn scan_returns(b: &Block, fid: usize, r: &Resolved, ec: &[bool], bad: &mut Vec<BadExit>) {
    for (i, s) in b.stmts.iter().enumerate() {
        let StmtKind::Expr { expr, .. } = &s.kind else { continue };
        if let ExprKind::Return(v) = &expr.kind {
            let value_ok = v.as_ref().is_some_and(|x| oracle_action(x, fid, r, ec));
            let prev_ok = i > 0 && oracle_stmt(&b.stmts[i - 1], fid, r, ec);
            if !value_ok && !prev_ok {
                bad.push(BadExit { tok: expr.span.lo, what: "returns early" });
            }
            continue;
        }
        scan_returns_expr(expr, fid, r, ec, bad);
    }
}

fn scan_returns_expr(e: &Expr, fid: usize, r: &Resolved, ec: &[bool], bad: &mut Vec<BadExit>) {
    match &e.kind {
        ExprKind::Closure { .. } => {} // separate exit domain
        ExprKind::Return(_) => {
            // A bare-expression `return` nested in some larger expression
            // (`x.then(|| …)` handled above; `let y = return` is illegal):
            // reaching here means it had no preceding statement to check.
            bad.push(BadExit { tok: e.span.lo, what: "returns early" });
        }
        _ => Node::Expr(e).each_child(&mut |c| match c {
            Node::Expr(x) => scan_returns_expr(x, fid, r, ec, bad),
            Node::Block(b) => scan_returns(b, fid, r, ec, bad),
            Node::Stmt(_) | Node::Item(_) => {}
        }),
    }
}

/// Check the implicit tail exit of a block: the last statement must be an
/// oracle action, a branch whose every arm tail-checks, or a value tail
/// immediately preceded by an oracle statement.
fn tail_of_block(b: &Block, fid: usize, r: &Resolved, ec: &[bool], bad: &mut Vec<BadExit>) {
    let last = b.stmts.iter().rposition(|s| !matches!(s.kind, StmtKind::Empty));
    let Some(i) = last else {
        bad.push(BadExit { tok: b.span.hi.saturating_sub(1), what: "falls off an empty body" });
        return;
    };
    let prev_oracle = || i > 0 && oracle_stmt(&b.stmts[i - 1], fid, r, ec);
    match &b.stmts[i].kind {
        StmtKind::Expr { expr, semi } => {
            if oracle_action(expr, fid, r, ec) {
                return;
            }
            match &expr.kind {
                // `return` tails were already judged by scan_returns.
                ExprKind::Return(_) => {}
                ExprKind::Block(inner) => tail_of_block(inner, fid, r, ec, bad),
                ExprKind::If { then, else_, .. } => {
                    tail_of_block(then, fid, r, ec, bad);
                    match else_ {
                        Some(x) => tail_expr(x, fid, r, ec, bad),
                        // No else: the false path falls through unchecked
                        // unless an oracle statement precedes the `if`.
                        None => {
                            if !prev_oracle() {
                                bad.push(BadExit {
                                    tok: expr.span.lo,
                                    what: "falls through an `if` without an else",
                                });
                            }
                        }
                    }
                }
                ExprKind::IfLet { then, else_, .. } => {
                    tail_of_block(then, fid, r, ec, bad);
                    match else_ {
                        Some(x) => tail_expr(x, fid, r, ec, bad),
                        None => {
                            if !prev_oracle() {
                                bad.push(BadExit {
                                    tok: expr.span.lo,
                                    what: "falls through an `if let` without an else",
                                });
                            }
                        }
                    }
                }
                ExprKind::Match { arms, .. } => {
                    for a in arms {
                        tail_expr(&a.body, fid, r, ec, bad);
                    }
                }
                // A `loop` tail only exits via `return`/`break`, both
                // covered elsewhere; other tails are a plain unprotected
                // exit unless the previous statement ran the oracle.
                ExprKind::Loop { .. } => {}
                _ => {
                    let value_tail = !*semi;
                    if !(value_tail && prev_oracle()) {
                        bad.push(BadExit {
                            tok: expr.span.hi.saturating_sub(1),
                            what: if value_tail {
                                "returns its tail value"
                            } else {
                                "falls off the end"
                            },
                        });
                    }
                }
            }
        }
        _ => bad.push(BadExit {
            tok: b.span.hi.saturating_sub(1),
            what: "falls off the end",
        }),
    }
}

/// Tail-check an arm/else expression (block or bare expression).
fn tail_expr(e: &Expr, fid: usize, r: &Resolved, ec: &[bool], bad: &mut Vec<BadExit>) {
    if oracle_action(e, fid, r, ec) {
        return;
    }
    match &e.kind {
        ExprKind::Block(b) => tail_of_block(b, fid, r, ec, bad),
        ExprKind::If { then, else_, .. } | ExprKind::IfLet { then, else_, .. } => {
            tail_of_block(then, fid, r, ec, bad);
            match else_ {
                Some(x) => tail_expr(x, fid, r, ec, bad),
                None => bad.push(BadExit {
                    tok: e.span.lo,
                    what: "falls through an `if` without an else",
                }),
            }
        }
        ExprKind::Match { arms, .. } => {
            for a in arms {
                tail_expr(&a.body, fid, r, ec, bad);
            }
        }
        ExprKind::Return(_) | ExprKind::Loop { .. } => {}
        _ => bad.push(BadExit {
            tok: e.span.hi.saturating_sub(1),
            what: "returns its tail value",
        }),
    }
}

// ---------------------------------------------------------------------------
// Unit tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_engine::Workspace;

    fn cfg() -> Config {
        Config {
            determinism_paths: vec![],
            parser_modules: vec!["crates/x/src/wire.rs".into()],
            alloc_modules: vec![],
            reach_paths: vec!["crates/x/src".into()],
            entry_files: vec!["crates/x/src/host.rs".into()],
            entry_prefixes: vec!["on_".into(), "handle_".into()],
            parse_entry_prefixes: vec!["parse".into(), "read".into(), "decode".into()],
        }
    }

    fn oracle(files: Vec<(&str, &str)>) -> Vec<Finding> {
        let ws =
            Workspace::from_sources(files.into_iter().map(|(r, s)| (r, s.to_string())).collect());
        let r = Resolved::build(&ws);
        handler_oracle(&ws, &cfg(), &r)
    }

    const HOST_OK: &str = "pub struct H;\n\
        impl H {\n\
            fn validate(&self) -> Result<(), String> { Ok(()) }\n\
            fn debug_check(&self, _s: &str) {}\n\
            pub fn on_tick(&mut self) { self.on_tick_inner(); self.debug_check(\"t\"); }\n\
            fn on_tick_inner(&mut self) { if true { return; } }\n\
        }\n";

    #[test]
    fn wrapper_idiom_passes_and_covers_inner() {
        assert!(oracle(vec![("crates/x/src/host.rs", HOST_OK)]).is_empty());
    }

    #[test]
    fn early_return_without_oracle_is_one_finding() {
        let fs = oracle(vec![(
            "crates/x/src/host.rs",
            "pub struct H;\n\
             impl H {\n\
                 fn debug_check(&self, _s: &str) {}\n\
                 pub fn on_tick(&mut self, stop: bool) {\n\
                     if stop { return; }\n\
                     self.debug_check(\"t\");\n\
                 }\n\
             }\n",
        )]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("returns early"), "{}", fs[0].message);
        assert_eq!(fs[0].line, 5);
    }

    #[test]
    fn delegation_to_exit_checked_fn_counts() {
        let fs = oracle(vec![(
            "crates/x/src/host.rs",
            "pub struct H;\n\
             impl H {\n\
                 fn debug_check(&self, _s: &str) {}\n\
                 fn post(&mut self) { self.debug_check(\"p\"); }\n\
                 pub fn on_tick(&mut self) { self.post(); }\n\
             }\n",
        )]);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn match_tails_must_all_check() {
        let fs = oracle(vec![(
            "crates/x/src/host.rs",
            "pub struct H;\n\
             impl H {\n\
                 fn debug_check(&self, _s: &str) {}\n\
                 pub fn on_tick(&mut self, k: u32) {\n\
                     match k {\n\
                         0 => self.debug_check(\"a\"),\n\
                         _ => {}\n\
                     }\n\
                 }\n\
             }\n",
        )]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("falls off"), "{}", fs[0].message);
    }

    #[test]
    fn value_tail_preceded_by_oracle_passes() {
        let fs = oracle(vec![(
            "crates/x/src/host.rs",
            "pub struct H;\n\
             impl H {\n\
                 fn debug_check(&self, _s: &str) {}\n\
                 pub fn on_make(&mut self) -> u32 {\n\
                     let v = 7;\n\
                     self.debug_check(\"m\");\n\
                     v\n\
                 }\n\
             }\n",
        )]);
        assert!(fs.is_empty(), "{fs:?}");
    }
}
