//! Intraprocedural forward dataflow over the parsed AST (DESIGN.md §5.12).
//!
//! Two analyses share the local type environment below:
//!
//! * **Seq-number taint.** A value is *tainted* when it provably originates
//!   from sequence-number state: extraction of the `.0` payload of an
//!   audited wrapper type (`SeqNum`), a contract-named integer field of a
//!   wire struct (declared in a parser module) or of an unknown-typed
//!   receiver, a contract-named fn parameter or pattern binding, or the
//!   return value of a fn whose summary says it returns taint. Taint flows
//!   through `let` bindings, assignments, casts, arithmetic, branches, and
//!   (via bottom-up summaries) calls. Raw `+`/`-`/`+=`/`-=`, truncating
//!   `as u32`, and `.wrapping_*` on a tainted value **outside the audited
//!   seq module** is a finding regardless of what the value is named —
//!   renaming a sequence number does not launder it. Conversely, a
//!   contract-*named* counter whose declared type proves it is not a wire
//!   sequence (`engine.rs`'s u64 event tiebreakers) is not flagged,
//!   and arithmetic that dispatches to the audited wrapper's `impl Add`/
//!   `impl Sub` (an operand is `SeqNum`-typed) is recognized as funneling
//!   through `tcp/seq.rs` rather than bypassing it.
//!
//! * **Oracle-exit (handler exhaustiveness).** Every `on_*`/`handle_*`
//!   handler in the entry files must run a `debug_check`/`validate` oracle
//!   on every return path. A fn is **exit-checked** when every exit path —
//!   tail expression, every `if`/`match` branch tail, and every early
//!   `return` — ends in an oracle call, immediately follows an oracle
//!   statement, or tail-calls another exit-checked fn (the
//!   `post_event_inner → post_event → debug_check` delegation idiom).
//!   Handlers that are *not* exit-checked may instead be **covered**: every
//!   non-test caller is exit-checked or covered, so the oracle still runs
//!   after the handler's effects (the `on_segment → on_segment_inner`
//!   wrapper idiom). Both sets are fixpoints over the resolved call graph;
//!   a handler in neither set has a concrete unprotected exit, and each
//!   such exit is one finding.

use std::collections::BTreeSet;

use super::parse::{Block, Expr, ExprKind, Node, Pat, PatKind, Stmt, StmtKind};
use super::resolve::{find_fn, strip_shells, Resolved};
use super::rules::seq_contract;
use super::{Config, Finding, SourceFile, Workspace};

// ---------------------------------------------------------------------------
// Seq-number taint
// ---------------------------------------------------------------------------

/// Why a value is tainted — threaded through the dataflow so findings can
/// explain their origin, not just their site.
type Taint = Option<String>;

/// One (type head, taint) dataflow fact.
#[derive(Clone, Default)]
struct Fact {
    ty: String,
    taint: Taint,
}

impl Fact {
    fn clean(ty: &str) -> Fact {
        Fact { ty: ty.to_string(), taint: None }
    }
}

/// The seq-arith wall, rebased on taint: see the module docs. Returns raw
/// findings for [`super::run`] to filter through allow markers.
pub fn seq_taint(ws: &Workspace, cfg: &Config, r: &Resolved) -> Vec<Finding> {
    // Types declared in the audited seq module carry their own audited
    // arithmetic impls; types declared in parser modules hold raw wire
    // fields.
    let mut audited_tys: BTreeSet<&str> = BTreeSet::new();
    let mut wire_tys: BTreeSet<&str> = BTreeSet::new();
    for (name, &fi) in &r.struct_file {
        let rel = &ws.files[fi].rel;
        if cfg.seq_audited.contains(rel) {
            audited_tys.insert(name);
        }
        if cfg.parser_modules.contains(rel) {
            wire_tys.insert(name);
        }
    }

    // Bottom-up return-taint summaries: iterate until stable (call cycles
    // settle in a couple of rounds; the cap is a safety net).
    let mut ret_taint: Vec<Taint> = vec![None; r.fns.len()];
    for round in 0..8 {
        let mut changed = false;
        let mut findings = Vec::new();
        for fid in 0..r.fns.len() {
            let node = &r.fns[fid];
            let f = &ws.files[node.file];
            if node.is_test
                || !f.under_any(&cfg.seq_paths)
                || cfg.seq_audited.contains(&f.rel)
            {
                continue;
            }
            let Some((fd, self_ty)) = find_fn(&f.ast.items, node) else { continue };
            let Some(body) = &fd.body else { continue };
            let mut cx = TaintCx {
                r,
                file: f,
                self_ty,
                audited_tys: &audited_tys,
                wire_tys: &wire_tys,
                ret_taint: &ret_taint,
                locals: Vec::new(),
                findings: &mut findings,
                returns: None,
            };
            for (pname, ty) in &fd.params {
                let Some(p) = pname else { continue };
                let head = strip_shells(ty);
                let taint = (seq_contract(p) && !audited_tys.contains(head.as_str()))
                    .then(|| format!("contract-named parameter `{p}`"));
                cx.locals.push((p.clone(), Fact { ty: head, taint }));
            }
            let tail = cx.block(body);
            let ret = cx.returns.take().or(tail.taint);
            if ret.is_some() != ret_taint[fid].is_some() {
                ret_taint[fid] = ret;
                changed = true;
            }
        }
        if !changed || round == 7 {
            // Findings from the converged round are the real ones.
            findings.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
            findings.dedup_by(|a, b| (&a.file, a.line, a.col) == (&b.file, b.line, b.col));
            return findings;
        }
    }
    unreachable!("loop always returns");
}

/// Per-body taint walker. Local type inference mirrors
/// [`super::resolve`]'s `BodyCx` (kept separate: this one threads taint
/// through every fact and records findings at the offending operator).
struct TaintCx<'a> {
    r: &'a Resolved,
    file: &'a SourceFile,
    self_ty: Option<String>,
    audited_tys: &'a BTreeSet<&'a str>,
    wire_tys: &'a BTreeSet<&'a str>,
    ret_taint: &'a [Taint],
    /// Shadowing stack of (name, fact).
    locals: Vec<(String, Fact)>,
    findings: &'a mut Vec<Finding>,
    /// Taint of the first tainted `return` value seen, if any.
    returns: Taint,
}

impl TaintCx<'_> {
    fn audited(&self, ty: &str) -> bool {
        self.audited_tys.contains(ty)
    }

    fn flag(&mut self, tok: usize, msg: String) {
        let Some(t) = self.file.toks.get(tok) else { return };
        if self.file.ast.in_test(tok) {
            return;
        }
        self.findings.push(Finding {
            rule: "seq-arith".into(),
            file: self.file.rel.clone(),
            line: t.line,
            col: t.col,
            message: msg,
        });
    }

    fn field_ty(&self, base_ty: &str, name: &str) -> Option<String> {
        self.r
            .struct_fields
            .get(base_ty)
            .and_then(|tbl| tbl.get(name))
            .map(strip_shells)
    }

    /// Walk a block; returns the fact of its tail expression (unit/clean
    /// when the last statement is not a tail expression).
    fn block(&mut self, b: &Block) -> Fact {
        let depth = self.locals.len();
        let mut tail = Fact::default();
        for (i, s) in b.stmts.iter().enumerate() {
            let last = i + 1 == b.stmts.len();
            match &s.kind {
                StmtKind::Let { pat, ty, init, else_block } => {
                    let fact = match init {
                        Some(e) => self.eval(e),
                        None => Fact::default(),
                    };
                    if let Some(eb) = else_block {
                        self.block(eb);
                    }
                    let fact = match ty.as_ref().map(strip_shells) {
                        Some(h) if !h.is_empty() => Fact { ty: h, ..fact },
                        _ => fact,
                    };
                    self.bind_pat(pat, &fact);
                }
                StmtKind::Expr { expr, semi } => {
                    let f = self.eval(expr);
                    if last && !*semi {
                        tail = f;
                    }
                }
                StmtKind::Item(_) | StmtKind::Empty => {}
            }
        }
        self.locals.truncate(depth);
        tail
    }

    /// Bind a pattern against the scrutinee's fact. A contract-named ident
    /// binding seeds taint on its own (the naming contract marks sequence
    /// numbers destructured out of untyped tuples and records).
    fn bind_pat(&mut self, p: &Pat, scrut: &Fact) {
        match &p.kind {
            PatKind::Ident { name, sub } => {
                let mut fact = scrut.clone();
                if fact.taint.is_none()
                    && seq_contract(name)
                    && !self.audited(&fact.ty)
                {
                    fact.taint = Some(format!("contract-named binding `{name}`"));
                }
                self.locals.push((name.clone(), fact));
                if let Some(s) = sub {
                    self.bind_pat(s, scrut);
                }
            }
            PatKind::TupleStruct { elems, .. } => {
                // Variant payloads are untyped; element bindings may still
                // seed by name. The scrutinee's own taint flows in.
                let inner = Fact { ty: String::new(), taint: scrut.taint.clone() };
                for x in elems {
                    self.bind_pat(x, &inner);
                }
            }
            PatKind::Struct { path, fields } => {
                let sname = path.last().cloned().unwrap_or_default();
                for (fname, sub) in fields {
                    let fact = self.field_fact(&sname, scrut, fname);
                    match sub {
                        Some(sp) => self.bind_pat(sp, &fact),
                        None => self.locals.push((fname.clone(), fact)),
                    }
                }
            }
            PatKind::Tuple(es) | PatKind::Slice(es) | PatKind::Or(es) => {
                let inner = Fact { ty: String::new(), taint: scrut.taint.clone() };
                for x in es {
                    self.bind_pat(x, &inner);
                }
            }
            PatKind::Ref(inner) => self.bind_pat(inner, scrut),
            _ => {}
        }
    }

    /// The fact for field `name` read off a base of type `base_ty` (may be
    /// "" when unknown) carrying `base`'s taint.
    fn field_fact(&self, base_ty: &str, base: &Fact, name: &str) -> Fact {
        // `.0` of an audited wrapper extracts the raw sequence payload.
        if self.audited(base_ty) {
            if name == "0" {
                return Fact {
                    ty: "u32".into(),
                    taint: Some(format!("`.0` extraction of audited `{base_ty}`")),
                };
            }
            return Fact::default();
        }
        let fty = if base_ty.is_empty() { None } else { self.field_ty(base_ty, name) };
        let taint = if seq_contract(name) {
            match &fty {
                // An audited-wrapper field is already funneled: every op
                // on it dispatches to the audited impls.
                Some(t) if self.audited(t) => None,
                // Declared u32: wire sequence width. Declared in a parser
                // module: a raw wire field. Anything else typed (u64
                // counters on sim structs) is proven clean.
                Some(t) if t == "u32" || self.wire_tys.contains(base_ty) => Some(format!(
                    "contract-named field `{base_ty}.{name}: {t}`"
                )),
                Some(_) => None,
                // Unknown receiver: the naming contract stands.
                None => Some(format!("contract-named field `.{name}` (untyped receiver)")),
            }
        } else if name == "0" {
            // Tuple access forwards the base's taint.
            base.taint.clone()
        } else {
            None
        };
        Fact { ty: fty.unwrap_or_default(), taint }
    }

    /// Evaluate an expression to a fact, recording findings at raw
    /// arithmetic on tainted operands.
    fn eval(&mut self, e: &Expr) -> Fact {
        match &e.kind {
            ExprKind::Lit | ExprKind::Continue | ExprKind::Err => Fact::default(),
            ExprKind::Path(segs) => {
                if segs.len() == 1 {
                    let name = &segs[0].0;
                    if name == "self" {
                        return Fact::clean(self.self_ty.as_deref().unwrap_or(""));
                    }
                    for (n, fact) in self.locals.iter().rev() {
                        if n == name {
                            return fact.clone();
                        }
                    }
                    if self.r.struct_fields.contains_key(name) {
                        return Fact::clean(name);
                    }
                }
                Fact::default()
            }
            ExprKind::Field { base, name } => {
                let b = self.eval(base);
                self.field_fact(&b.ty.clone(), &b, name)
            }
            ExprKind::Unary { operand, .. } => self.eval(operand),
            ExprKind::Paren(x) | ExprKind::Try(x) | ExprKind::Ref { expr: x, .. } => self.eval(x),
            ExprKind::Cast { expr, ty, as_tok } => {
                let inner = self.eval(expr);
                let head = strip_shells(ty);
                if head == "u32" {
                    if let Some(origin) = &inner.taint {
                        self.flag(
                            *as_tok,
                            format!(
                                "`as u32` truncates a seq-tainted value ({origin}): \
                                 conversions must funnel through tcp/seq.rs (SeqNum)"
                            ),
                        );
                    }
                }
                Fact { ty: head, taint: inner.taint }
            }
            ExprKind::Binary { op, op_tok, lhs, rhs } => {
                let l = self.eval(lhs);
                let r_ = self.eval(rhs);
                let audited_op = self.audited(&l.ty) || self.audited(&r_.ty);
                if matches!(op.as_str(), "+" | "-") && !audited_op {
                    if let Some(origin) = l.taint.as_ref().or(r_.taint.as_ref()) {
                        self.flag(
                            *op_tok,
                            format!(
                                "raw `{op}` on a seq-tainted value ({origin}): wraparound \
                                 math must funnel through tcp/seq.rs (SeqNum)"
                            ),
                        );
                    }
                }
                if matches!(op.as_str(), "==" | "!=" | "<" | "<=" | ">" | ">=" | "&&" | "||") {
                    return Fact::clean("bool");
                }
                if audited_op {
                    // Dispatches to the audited impl: `SeqNum + u32` yields
                    // the wrapper, `SeqNum - SeqNum` a clean distance.
                    if self.audited(&l.ty) && self.audited(&r_.ty) {
                        return Fact::clean("u32");
                    }
                    return Fact::clean(if self.audited(&l.ty) { &l.ty } else { &r_.ty });
                }
                Fact {
                    ty: if l.ty.is_empty() { r_.ty } else { l.ty },
                    taint: l.taint.or(r_.taint),
                }
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let rf = self.eval(rhs);
                let lf = self.eval(lhs);
                if matches!(op.as_str(), "+=" | "-=") && !self.audited(&lf.ty) {
                    if let Some(origin) = lf.taint.as_ref().or(rf.taint.as_ref()) {
                        let tok = lhs.span.hi.saturating_sub(1);
                        self.flag(
                            tok,
                            format!(
                                "raw `{op}` on a seq-tainted value ({origin}): wraparound \
                                 math must funnel through tcp/seq.rs (SeqNum)"
                            ),
                        );
                    }
                }
                // Plain re-assignment retargets a simple local's fact.
                if op == "=" {
                    if let ExprKind::Path(segs) = &lhs.kind {
                        if segs.len() == 1 {
                            if let Some(slot) =
                                self.locals.iter_mut().rev().find(|(n, _)| n == &segs[0].0)
                            {
                                slot.1.taint = rf.taint;
                            }
                        }
                    }
                }
                Fact::default()
            }
            ExprKind::MethodCall { recv, name, name_tok, args } => {
                let rv = self.eval(recv);
                for a in args {
                    self.eval(a);
                }
                if name.starts_with("wrapping_") {
                    if let Some(origin) = &rv.taint {
                        self.flag(
                            *name_tok,
                            format!(
                                "`{name}` on a seq-tainted value ({origin}): wraparound \
                                 math must funnel through tcp/seq.rs (SeqNum)"
                            ),
                        );
                    }
                    return rv;
                }
                // Width/ordering helpers preserve the receiver's fact.
                if matches!(
                    name.as_str(),
                    "min" | "max" | "clamp" | "clone" | "saturating_add" | "saturating_sub"
                        | "borrow" | "borrow_mut" | "as_ref" | "as_mut"
                ) {
                    return rv;
                }
                // Return-taint summary through a typed method resolution.
                if !rv.ty.is_empty() {
                    if let Some(&id) = self.r.by_qname.get(&format!("{}::{name}", rv.ty)) {
                        if let Some(origin) = &self.ret_taint[id] {
                            return Fact {
                                ty: String::new(),
                                taint: Some(format!(
                                    "return of `{}` ({origin})",
                                    self.r.fns[id].qname
                                )),
                            };
                        }
                    }
                }
                Fact::default()
            }
            ExprKind::Call { callee, args } => {
                for a in args {
                    self.eval(a);
                }
                if let ExprKind::Path(segs) = &callee.kind {
                    // Tuple-struct constructor: `SeqNum(x)` wraps the raw
                    // value back into the audited type — clean by design.
                    if segs.len() == 1 && self.r.struct_fields.contains_key(&segs[0].0) {
                        return Fact::clean(&segs[0].0);
                    }
                    if let Some(id) = self.resolve_call(segs) {
                        if let Some(origin) = &self.ret_taint[id] {
                            return Fact {
                                ty: String::new(),
                                taint: Some(format!(
                                    "return of `{}` ({origin})",
                                    self.r.fns[id].qname
                                )),
                            };
                        }
                        // Constructor-style typing as in resolve.
                        let node = &self.r.fns[id];
                        if let Some(st) = &node.self_ty {
                            if node.name == "new"
                                || node.name == "default"
                                || node.name.starts_with("from")
                            {
                                return Fact::clean(st);
                            }
                        }
                    }
                } else {
                    self.eval(callee);
                }
                Fact::default()
            }
            ExprKind::StructLit { path, fields, base } => {
                for (_, v) in fields {
                    if let Some(v) = v {
                        self.eval(v);
                    }
                }
                if let Some(b) = base {
                    self.eval(b);
                }
                let name = path.last().map(|(s, _)| s.as_str()).unwrap_or("");
                Fact::clean(if name == "Self" {
                    self.self_ty.as_deref().unwrap_or("")
                } else {
                    name
                })
            }
            ExprKind::Tuple(xs) | ExprKind::Array { elems: xs } => {
                let mut taint = None;
                for x in xs {
                    let f = self.eval(x);
                    taint = taint.or(f.taint);
                }
                Fact { ty: String::new(), taint }
            }
            ExprKind::Index { base, index } => {
                let b = self.eval(base);
                self.eval(index);
                Fact { ty: String::new(), taint: b.taint }
            }
            ExprKind::Block(b) => self.block(b),
            ExprKind::If { cond, then, else_ } => {
                self.eval(cond);
                let t = self.block(then);
                let e = else_.as_ref().map(|x| self.eval(x)).unwrap_or_default();
                Fact {
                    ty: if t.ty.is_empty() { e.ty } else { t.ty },
                    taint: t.taint.or(e.taint),
                }
            }
            ExprKind::IfLet { pat, scrutinee, then, else_ } => {
                let s = self.eval(scrutinee);
                let depth = self.locals.len();
                self.bind_pat(pat, &s);
                let t = self.block(then);
                self.locals.truncate(depth);
                let e = else_.as_ref().map(|x| self.eval(x)).unwrap_or_default();
                Fact {
                    ty: if t.ty.is_empty() { e.ty } else { t.ty },
                    taint: t.taint.or(e.taint),
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                let s = self.eval(scrutinee);
                let mut out = Fact::default();
                for a in arms {
                    let depth = self.locals.len();
                    self.bind_pat(&a.pat, &s);
                    if let Some(g) = &a.guard {
                        self.eval(g);
                    }
                    let f = self.eval(&a.body);
                    self.locals.truncate(depth);
                    if out.ty.is_empty() {
                        out.ty = f.ty;
                    }
                    out.taint = out.taint.or(f.taint);
                }
                out
            }
            ExprKind::While { cond, body } => {
                self.eval(cond);
                self.block(body);
                Fact::default()
            }
            ExprKind::WhileLet { pat, scrutinee, body } => {
                let s = self.eval(scrutinee);
                let depth = self.locals.len();
                self.bind_pat(pat, &s);
                self.block(body);
                self.locals.truncate(depth);
                Fact::default()
            }
            ExprKind::Loop { body } => {
                self.block(body);
                Fact::default()
            }
            ExprKind::For { pat, iter, body } => {
                let it = self.eval(iter);
                let depth = self.locals.len();
                // Iterating a tainted collection yields tainted elements.
                self.bind_pat(pat, &Fact { ty: String::new(), taint: it.taint });
                self.block(body);
                self.locals.truncate(depth);
                Fact::default()
            }
            ExprKind::Closure { params, body } => {
                let depth = self.locals.len();
                for (pname, ty) in params {
                    let Some(p) = pname else { continue };
                    let head = ty.as_ref().map(strip_shells).unwrap_or_default();
                    let taint = (seq_contract(p) && !self.audited(&head))
                        .then(|| format!("contract-named closure parameter `{p}`"));
                    self.locals.push((p.clone(), Fact { ty: head, taint }));
                }
                self.eval(body);
                self.locals.truncate(depth);
                Fact::default()
            }
            ExprKind::Return(v) => {
                if let Some(v) = v {
                    let f = self.eval(v);
                    if self.returns.is_none() {
                        self.returns = f.taint;
                    }
                }
                Fact::default()
            }
            ExprKind::Break(v) => {
                if let Some(v) = v {
                    self.eval(v);
                }
                Fact::default()
            }
            ExprKind::Range { lo, hi } => {
                if let Some(l) = lo {
                    self.eval(l);
                }
                if let Some(h) = hi {
                    self.eval(h);
                }
                Fact::default()
            }
            ExprKind::MacroCall { .. } => Fact::default(),
        }
    }

    /// Resolve a path call to a unique fn id (typed head, module tail, or
    /// an unambiguous bare name).
    fn resolve_call(&self, segs: &[(String, usize)]) -> Option<usize> {
        let (last, _) = segs.last()?;
        if segs.len() >= 2 {
            let head = &segs[segs.len() - 2].0;
            let head = if head == "Self" {
                self.self_ty.clone().unwrap_or_default()
            } else {
                head.clone()
            };
            if let Some(&id) = self.r.by_qname.get(&format!("{head}::{last}")) {
                return Some(id);
            }
        }
        match self.r.candidates(last) {
            [only] => Some(*only),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle-exit analysis
// ---------------------------------------------------------------------------

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
            seq_paths: vec!["crates/x/src".into()],
            seq_audited: vec!["crates/x/src/seq.rs".into()],
            reach_paths: vec!["crates/x/src".into()],
            entry_files: vec!["crates/x/src/host.rs".into()],
            entry_prefixes: vec!["on_".into(), "handle_".into()],
            parse_entry_prefixes: vec!["parse".into(), "read".into(), "decode".into()],
        }
    }

    const SEQ_RS: &str = "pub struct SeqNum(pub u32);\n\
        impl SeqNum { pub fn dist(self, o: SeqNum) -> u32 { self.0.wrapping_sub(o.0) } }\n";

    fn taint(files: Vec<(&str, &str)>) -> Vec<Finding> {
        let mut all = vec![("crates/x/src/seq.rs", SEQ_RS.to_string())];
        all.extend(files.into_iter().map(|(r, s)| (r, s.to_string())));
        let ws = Workspace::from_sources(all);
        let r = Resolved::build(&ws);
        seq_taint(&ws, &cfg(), &r)
    }

    #[test]
    fn taint_flows_through_renamed_local() {
        let fs = taint(vec![
            ("crates/x/src/wire.rs", "pub struct Hdr { pub seq: u32 }\n"),
            (
                "crates/x/src/use.rs",
                "use crate::wire::Hdr;\n\
                 pub fn f(h: &Hdr) -> u32 { let cursor = h.seq; cursor + 1 }\n",
            ),
        ]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("raw `+`"), "{}", fs[0].message);
        assert!(fs[0].message.contains("Hdr.seq"), "{}", fs[0].message);
    }

    #[test]
    fn named_counter_with_clean_type_is_not_tainted() {
        // A u64 field named `seq` on a non-wire struct is an event counter
        // under the declared-type rule; the name alone would flag it.
        let fs = taint(vec![(
            "crates/x/src/eng.rs",
            "pub struct Eng { seq: u64 }\n\
             impl Eng { pub fn push(&mut self) { self.seq += 1; } }\n",
        )]);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn seqnum_extraction_taints_and_wrapper_arith_does_not() {
        let fs = taint(vec![(
            "crates/x/src/hot.rs",
            "use crate::seq::SeqNum;\n\
             pub fn f(a: SeqNum, n: u32) -> u32 {\n\
                 let safe = a + n;\n\
                 let raw = a.0;\n\
                 raw + 1\n\
             }\n",
        )]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains(".0"), "{}", fs[0].message);
    }

    #[test]
    fn return_summary_carries_taint_across_calls() {
        let fs = taint(vec![(
            "crates/x/src/lib.rs",
            "pub struct W;\n\
             impl W { pub fn cur(&self, dseq: u64) -> u64 { dseq } }\n\
             pub fn g(w: &W) -> u64 { w.cur(7) - 1 }\n",
        )]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("W::cur"), "{}", fs[0].message);
    }

    #[test]
    fn wrapping_on_tainted_pattern_binding_fires() {
        let fs = taint(vec![(
            "crates/x/src/lib.rs",
            "pub fn f(v: &[(u64, u64)]) -> u64 {\n\
                 let mut out = 0u64;\n\
                 for &(dseq, len) in v { out = dseq.wrapping_add(len); }\n\
                 out\n\
             }\n",
        )]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("wrapping_add"));
    }

    #[test]
    fn raw_ops_truncating_casts_and_wrapping_fire_once_each() {
        let fs = taint(vec![(
            "crates/x/src/lib.rs",
            "pub fn f(dseq: u64, seq: u32, len: u64) -> (u64, u32, u32) {\n    let a = dseq\n        + len;\n    \
             let b = seq.wrapping_add(1);\n    let c = dseq as u32;\n    (a, b, c)\n}\n",
        )]);
        assert_eq!(fs.len(), 3, "{fs:?}");
        // The finding sits on the operator, which landed on line 3.
        assert!(fs.iter().any(|f| f.message.contains("raw `+`") && f.line == 3));
        assert!(fs.iter().any(|f| f.message.contains("wrapping_add")));
        assert!(fs.iter().any(|f| f.message.contains("as u32")));
    }

    #[test]
    fn wrapping_on_a_receiver_chain_fires_and_len_names_are_exempt() {
        let fs = taint(vec![(
            "crates/x/src/lib.rs",
            "pub fn f(s: S, seq_len: u32, seq_off: u32) {\n    let a = s.seq.wrapping_add(s.len);\n    \
             let b = seq_len() + seq_len + seq_off - 4;\n    let c = s.seq.before(x);\n    \
             let _ = (a, b, c);\n}\n",
        )]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("wrapping_add"));
        assert!(fs[0].message.contains("`.seq`"), "{}", fs[0].message);
    }

    #[test]
    fn comparisons_ranges_and_ordering_helpers_do_not_fire() {
        let fs = taint(vec![(
            "crates/x/src/lib.rs",
            "pub fn f(dseq: u64, end: u64) {\n    if dseq < end { }\n    for _ in dseq..end { }\n    \
             let m = dseq.max(end);\n    let _ = m;\n}\n",
        )]);
        assert!(fs.is_empty(), "{fs:?}");
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
