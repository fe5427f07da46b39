//! Name resolution over the parsed workspace (DESIGN.md §5.12).
//!
//! Recovers just enough global structure for the precise walls:
//!
//! * a **module tree** per crate, derived from file paths (`lib.rs` is the
//!   crate root, `foo.rs`/`foo/mod.rs` are child modules, files under
//!   `tests/`/`benches/`/`examples/` are their own roots);
//! * **type tables**: every struct's fields (name → declared type head)
//!   and every impl block's methods keyed by the `Self` type, so a method
//!   call with a known receiver type resolves to *that* type's method and
//!   not every same-named method in the workspace;
//! * a **call graph** whose nodes are typed (`SendBuffer::read` and
//!   `PcapReader::read` are distinct). When a receiver type cannot be
//!   inferred the edge degrades to a *name fallback* — edges to every
//!   same-named method — so typing only removes edges that provably cannot
//!   exist, never one that might.
//!
//! Resolution is deliberately approximate where the walls don't need
//! exactness (generics are erased, trait dispatch fans out to every
//! implementing type, macros are opaque), and exact where they do: the
//! receiver typing below resolves most method calls in this workspace to a
//! unique `Type::method` node.

use std::collections::{BTreeMap, BTreeSet};

use super::parse::{Block, Expr, ExprKind, FnDef, Item, ItemKind, Node, Pat, PatKind, Stmt, StmtKind, Ty};
use super::{SourceFile, Workspace};

/// A resolved function node in the call graph.
#[derive(Debug)]
pub struct FnNode {
    /// Qualified name: `Type::method` for impl methods, `module_path::fn`
    /// for free fns (module path relative to the crate root).
    pub qname: String,
    /// Bare fn name (`read`).
    pub name: String,
    /// `Self` type head for impl methods.
    pub self_ty: Option<String>,
    /// Trait being implemented, if a trait-impl method.
    pub trait_name: Option<String>,
    /// File index into `Workspace::files`.
    pub file: usize,
    /// 1-based line of the `fn` name token.
    pub line: u32,
    /// Whether the fn sits inside `#[cfg(test)]` code.
    pub is_test: bool,
    /// Body token span (`lo..hi` original-token indices), if any.
    pub body: Option<(usize, usize)>,
}

/// One call edge out of a fn body.
#[derive(Clone, Debug)]
pub struct CallEdge {
    /// Caller fn id.
    pub from: usize,
    /// Callee fn id.
    pub to: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
    /// True when the receiver type was inferred (typed edge); false when
    /// the edge exists only via the name fallback.
    pub typed: bool,
}

/// The resolved workspace: typed fn nodes, call edges, and type tables.
pub struct Resolved {
    pub fns: Vec<FnNode>,
    /// Out-edges per fn id, deduped by (callee, line).
    pub calls: Vec<Vec<CallEdge>>,
    /// Struct name → (field name → declared type). Tracks every struct in
    /// the workspace (first definition wins on cross-crate name
    /// collisions, which the walls tolerate: field *types* matter).
    pub struct_fields: BTreeMap<String, BTreeMap<String, Ty>>,
    /// Fn name → fn ids (the name-fallback index).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// `Type::method` / `module::fn` → fn id.
    pub by_qname: BTreeMap<String, usize>,
    /// Trait name → implementing type heads.
    pub trait_impls: BTreeMap<String, BTreeSet<String>>,
}

impl Resolved {
    /// Resolve the whole workspace.
    pub fn build(ws: &Workspace) -> Resolved {
        let mut r = Resolved {
            fns: Vec::new(),
            calls: Vec::new(),
            struct_fields: BTreeMap::new(),
            by_name: BTreeMap::new(),
            by_qname: BTreeMap::new(),
            trait_impls: BTreeMap::new(),
        };
        // Pass 1: fn nodes, struct tables, impl tables.
        for (fi, f) in ws.files.iter().enumerate() {
            collect_decls(&mut r, f, fi, &f.ast.items, &mut Vec::new());
        }
        // Pass 2: call edges from every fn body.
        r.calls = vec![Vec::new(); r.fns.len()];
        for fid in 0..r.fns.len() {
            if r.fns[fid].body.is_none() {
                continue;
            }
            let f = &ws.files[r.fns[fid].file];
            let Some((fd, self_ty)) = find_fn(&f.ast.items, &r.fns[fid]) else { continue };
            let Some(block) = &fd.body else { continue };
            let mut cx = BodyCx {
                r: &r,
                file: f,
                self_ty,
                locals: Vec::new(),
                edges: Vec::new(),
                from: fid,
            };
            for (pname, ty) in &fd.params {
                if let Some(p) = pname {
                    let head = strip_shells(ty);
                    if !head.is_empty() {
                        cx.locals.push((p.clone(), head));
                    }
                }
            }
            cx.block(block);
            let mut edges = cx.edges;
            edges.sort_by_key(|e| (e.to, e.line, !e.typed));
            edges.dedup_by(|a, b| (a.to, a.line) == (b.to, b.line));
            r.calls[fid] = edges;
        }
        r
    }

    /// All fn ids whose bare name matches.
    pub fn candidates(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

/// Derive the module path of a file within its crate (`["wire"]` for
/// `crates/tcp/src/wire.rs`, `[]` for `lib.rs` and non-`src` roots).
fn module_path_of(rel: &str) -> Vec<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() >= 4 && parts[0] == "crates" && parts[2] == "src" {
        let mut mods: Vec<String> =
            parts[3..parts.len() - 1].iter().map(|s| s.to_string()).collect();
        let stem = parts[parts.len() - 1].trim_end_matches(".rs");
        if stem != "lib" && stem != "mod" && stem != "main" {
            mods.push(stem.to_string());
        }
        return mods;
    }
    Vec::new()
}

fn collect_decls(
    r: &mut Resolved,
    f: &SourceFile,
    fi: usize,
    items: &[Item],
    mod_stack: &mut Vec<String>,
) {
    for it in items {
        match &it.kind {
            ItemKind::Struct(s) => {
                let tbl = r.struct_fields.entry(s.name.clone()).or_default();
                for (fname, ty) in &s.fields {
                    tbl.entry(fname.clone()).or_insert_with(|| ty.clone());
                }
                for (i, ty) in s.tuple_fields.iter().enumerate() {
                    tbl.entry(i.to_string()).or_insert_with(|| ty.clone());
                }
            }
            ItemKind::Fn(fd) => push_fn(r, f, fi, fd, None, None, mod_stack),
            ItemKind::Impl(im) => {
                if let Some(tn) = &im.trait_name {
                    r.trait_impls
                        .entry(tn.clone())
                        .or_default()
                        .insert(im.self_ty.clone());
                }
                for sub in &im.items {
                    if let ItemKind::Fn(fd) = &sub.kind {
                        push_fn(
                            r,
                            f,
                            fi,
                            fd,
                            Some(im.self_ty.as_str()),
                            im.trait_name.as_deref(),
                            mod_stack,
                        );
                    }
                }
            }
            ItemKind::Trait { items: tis, .. } => {
                // Default trait-method bodies become free nodes; calls to
                // the trait method fan out through `trait_impls`.
                for sub in tis {
                    if let ItemKind::Fn(fd) = &sub.kind {
                        if fd.body.is_some() {
                            push_fn(r, f, fi, fd, None, None, mod_stack);
                        }
                    }
                }
            }
            ItemKind::Mod { name, items: mis, inline: true } => {
                mod_stack.push(name.clone());
                collect_decls(r, f, fi, mis, mod_stack);
                mod_stack.pop();
            }
            _ => {}
        }
    }
}

fn push_fn(
    r: &mut Resolved,
    f: &SourceFile,
    fi: usize,
    fd: &FnDef,
    self_ty: Option<&str>,
    trait_name: Option<&str>,
    mod_stack: &[String],
) {
    let line = f.toks.get(fd.name_tok).map(|t| t.line).unwrap_or(0);
    let qname = match self_ty {
        Some(st) => format!("{st}::{}", fd.name),
        None => {
            let mut mp = module_path_of(&f.rel);
            mp.extend(mod_stack.iter().cloned());
            if mp.is_empty() {
                fd.name.clone()
            } else {
                format!("{}::{}", mp.join("::"), fd.name)
            }
        }
    };
    let id = r.fns.len();
    r.fns.push(FnNode {
        qname: qname.clone(),
        name: fd.name.clone(),
        self_ty: self_ty.map(|s| s.to_string()),
        trait_name: trait_name.map(|s| s.to_string()),
        file: fi,
        line,
        is_test: f.ast.in_test(fd.name_tok),
        body: fd.body.as_ref().map(|b| (b.span.lo, b.span.hi)),
    });
    r.by_name.entry(fd.name.clone()).or_default().push(id);
    r.by_qname.entry(qname).or_insert(id);
}

/// Locate the `FnDef` (and its impl `Self` type) behind a node, by the
/// name token recorded at collection time.
pub fn find_fn<'a>(items: &'a [Item], node: &FnNode) -> Option<(&'a FnDef, Option<String>)> {
    fn walk<'a>(
        items: &'a [Item],
        name_tok_target: &FnNode,
        self_ty: Option<&str>,
    ) -> Option<(&'a FnDef, Option<String>)> {
        for it in items {
            match &it.kind {
                ItemKind::Fn(fd) if fd.name == name_tok_target.name => {
                    // Disambiguate same-named fns by the recorded span.
                    if let Some((lo, hi)) = name_tok_target.body {
                        if let Some(b) = &fd.body {
                            if b.span.lo == lo && b.span.hi == hi {
                                return Some((fd, self_ty.map(|s| s.to_string())));
                            }
                        }
                    } else if fd.body.is_none() {
                        return Some((fd, self_ty.map(|s| s.to_string())));
                    }
                }
                ItemKind::Impl(im) => {
                    if let Some(hit) = walk(&im.items, name_tok_target, Some(&im.self_ty)) {
                        return Some(hit);
                    }
                }
                ItemKind::Trait { items: tis, .. } => {
                    if let Some(hit) = walk(tis, name_tok_target, self_ty) {
                        return Some(hit);
                    }
                }
                ItemKind::Mod { items: mis, .. } => {
                    if let Some(hit) = walk(mis, name_tok_target, self_ty) {
                        return Some(hit);
                    }
                }
                _ => {}
            }
        }
        None
    }
    walk(items, node, None)
}

/// Per-body context for edge extraction with local type inference.
struct BodyCx<'a> {
    r: &'a Resolved,
    file: &'a SourceFile,
    /// `Self` type of the enclosing impl, if any.
    self_ty: Option<String>,
    /// Shadowing stack of (name, type head); "" marks an untyped binding
    /// that still shadows any typed outer binding.
    locals: Vec<(String, String)>,
    edges: Vec<CallEdge>,
    from: usize,
}

impl BodyCx<'_> {
    fn line_of(&self, tok: usize) -> u32 {
        self.file.toks.get(tok).map(|t| t.line).unwrap_or(0)
    }

    /// Infer the type head of an expression, or "" when unknown.
    fn ty_of(&self, e: &Expr) -> String {
        match &e.kind {
            ExprKind::Path(segs) => {
                if segs.len() == 1 {
                    let name = &segs[0].0;
                    if name == "self" {
                        return self.self_ty.clone().unwrap_or_default();
                    }
                    for (n, t) in self.locals.iter().rev() {
                        if n == name {
                            return t.clone();
                        }
                    }
                    // Unit-struct literal (`let x = B;`).
                    if self.r.struct_fields.contains_key(name) {
                        return name.clone();
                    }
                }
                String::new()
            }
            ExprKind::Field { base, name } => {
                let bty = self.ty_of(base);
                if bty.is_empty() {
                    return String::new();
                }
                self.r
                    .struct_fields
                    .get(&bty)
                    .and_then(|tbl| tbl.get(name))
                    .map(strip_shells)
                    .unwrap_or_default()
            }
            ExprKind::Call { callee, .. } => {
                // `Type::new(...)` / `Type::from_x(...)` / `SeqNum(x)`.
                if let ExprKind::Path(segs) = &callee.kind {
                    if segs.len() >= 2 {
                        let head = &segs[segs.len() - 2].0;
                        let head = if head == "Self" {
                            self.self_ty.clone().unwrap_or_default()
                        } else {
                            head.clone()
                        };
                        let tail = &segs[segs.len() - 1].0;
                        let ctorish = tail == "new"
                            || tail == "default"
                            || tail == "with_capacity"
                            || tail.starts_with("from");
                        if ctorish
                            && (self.r.struct_fields.contains_key(&head)
                                || self.r.by_qname.contains_key(&format!("{head}::new")))
                        {
                            return head;
                        }
                    }
                    if segs.len() == 1 && self.r.struct_fields.contains_key(&segs[0].0) {
                        return segs[0].0.clone();
                    }
                }
                String::new()
            }
            ExprKind::MethodCall { recv, name, .. } => {
                // A few std methods preserve the receiver type.
                if matches!(
                    name.as_str(),
                    "clone" | "borrow" | "borrow_mut" | "as_ref" | "as_mut"
                ) {
                    return self.ty_of(recv);
                }
                String::new()
            }
            ExprKind::StructLit { path, .. } => path
                .last()
                .map(|(s, _)| {
                    if s == "Self" {
                        self.self_ty.clone().unwrap_or_default()
                    } else {
                        s.clone()
                    }
                })
                .unwrap_or_default(),
            ExprKind::Ref { expr, .. }
            | ExprKind::Paren(expr)
            | ExprKind::Try(expr)
            | ExprKind::Unary { operand: expr, .. } => self.ty_of(expr),
            ExprKind::Cast { ty, .. } => strip_shells(ty),
            ExprKind::Block(b) => b
                .stmts
                .last()
                .and_then(|s| match &s.kind {
                    StmtKind::Expr { expr, semi: false } => Some(self.ty_of(expr)),
                    _ => None,
                })
                .unwrap_or_default(),
            _ => String::new(),
        }
    }

    fn edge_all(&mut self, targets: &[usize], line: u32, typed: bool) {
        for &to in targets {
            self.edges.push(CallEdge { from: self.from, to, line, typed });
        }
    }

    fn block(&mut self, b: &Block) {
        let depth = self.locals.len();
        for s in &b.stmts {
            self.stmt(s);
        }
        self.locals.truncate(depth);
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Let { pat, ty, init, else_block } => {
                if let Some(e) = init {
                    self.expr(e);
                }
                if let Some(b) = else_block {
                    self.block(b);
                }
                // Bind after the initializer (shadowing reads the old
                // binding inside its own init).
                let head = ty
                    .as_ref()
                    .map(strip_shells)
                    .filter(|h| !h.is_empty())
                    .or_else(|| {
                        init.as_ref().map(|e| self.ty_of(e)).filter(|h| !h.is_empty())
                    })
                    .unwrap_or_default();
                self.bind_pat(pat, &head);
            }
            StmtKind::Expr { expr, .. } => self.expr(expr),
            StmtKind::Item(_) => {
                // Nested items get their own fn nodes in pass 1.
            }
            StmtKind::Empty => {}
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Call { callee, args } => {
                for a in args {
                    self.expr(a);
                }
                if let ExprKind::Path(segs) = &callee.kind {
                    let line = segs.last().map(|(_, t)| self.line_of(*t)).unwrap_or(0);
                    self.resolve_path_call(segs, line);
                } else {
                    self.expr(callee);
                }
            }
            ExprKind::MethodCall { recv, name, name_tok, args } => {
                self.expr(recv);
                for a in args {
                    self.expr(a);
                }
                let line = self.line_of(*name_tok);
                let rty = self.ty_of(recv);
                if !rty.is_empty() {
                    if let Some(&id) = self.r.by_qname.get(&format!("{rty}::{name}")) {
                        self.edge_all(&[id], line, true);
                        return;
                    }
                    // Receiver head is a trait (object or generic bound):
                    // fan out to every implementing type's method.
                    if let Some(impls) = self.r.trait_impls.get(&rty) {
                        let ids: Vec<usize> = impls
                            .iter()
                            .filter_map(|t| {
                                self.r.by_qname.get(&format!("{t}::{name}")).copied()
                            })
                            .collect();
                        if !ids.is_empty() {
                            self.edge_all(&ids, line, true);
                            return;
                        }
                    }
                }
                // Unknown receiver: name fallback.
                let fallback: Vec<usize> = self.r.candidates(name).to_vec();
                self.edge_all(&fallback, line, false);
            }
            ExprKind::IfLet { pat, scrutinee, then, else_ } => {
                self.expr(scrutinee);
                let depth = self.locals.len();
                let sty = self.ty_of(scrutinee);
                self.bind_pat(pat, &sty);
                self.block(then);
                self.locals.truncate(depth);
                if let Some(x) = else_ {
                    self.expr(x);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                self.expr(scrutinee);
                let sty = self.ty_of(scrutinee);
                for a in arms {
                    let depth = self.locals.len();
                    self.bind_pat(&a.pat, &sty);
                    if let Some(g) = &a.guard {
                        self.expr(g);
                    }
                    self.expr(&a.body);
                    self.locals.truncate(depth);
                }
            }
            ExprKind::WhileLet { pat, scrutinee, body } => {
                self.expr(scrutinee);
                let depth = self.locals.len();
                let sty = self.ty_of(scrutinee);
                self.bind_pat(pat, &sty);
                self.block(body);
                self.locals.truncate(depth);
            }
            ExprKind::For { pat, iter, body } => {
                self.expr(iter);
                let depth = self.locals.len();
                self.bind_pat(pat, "");
                self.block(body);
                self.locals.truncate(depth);
            }
            ExprKind::Closure { params, body } => {
                let depth = self.locals.len();
                for (pname, ty) in params {
                    if let Some(p) = pname {
                        let head = ty.as_ref().map(strip_shells).unwrap_or_default();
                        self.locals.push((p.clone(), head));
                    }
                }
                self.expr(body);
                self.locals.truncate(depth);
            }
            // Macro bodies are opaque (the token-level panic scan sees
            // panicking macros directly); everything else binds nothing
            // and calls nothing itself.
            _ => Node::Expr(e).each_child(&mut |c| match c {
                Node::Expr(x) => self.expr(x),
                Node::Block(b) => self.block(b),
                Node::Stmt(_) | Node::Item(_) => {}
            }),
        }
    }

    /// Bind pattern idents. An `Ident` pattern against a known scrutinee
    /// type takes that type; destructuring bindings take their declared
    /// struct-field types where the table knows them.
    fn bind_pat(&mut self, p: &Pat, scrutinee_ty: &str) {
        match &p.kind {
            PatKind::Ident { name, sub } => {
                self.locals.push((name.clone(), scrutinee_ty.to_string()));
                if let Some(s) = sub {
                    self.bind_pat(s, scrutinee_ty);
                }
            }
            PatKind::TupleStruct { elems, .. } => {
                for x in elems {
                    self.bind_pat(x, "");
                }
            }
            PatKind::Struct { path, fields } => {
                let sname = path.last().cloned().unwrap_or_default();
                for (fname, sub) in fields {
                    let fty = self
                        .r
                        .struct_fields
                        .get(&sname)
                        .and_then(|t| t.get(fname))
                        .map(strip_shells)
                        .unwrap_or_default();
                    match sub {
                        Some(sp) => self.bind_pat(sp, &fty),
                        None => self.locals.push((fname.clone(), fty)),
                    }
                }
            }
            PatKind::Tuple(es) | PatKind::Slice(es) | PatKind::Or(es) => {
                for x in es {
                    self.bind_pat(x, "");
                }
            }
            PatKind::Ref(inner) => self.bind_pat(inner, scrutinee_ty),
            _ => {}
        }
    }

    /// Resolve a path call `a::b::f(...)` / `f(...)` / `Self::f(...)`.
    fn resolve_path_call(&mut self, segs: &[(String, usize)], line: u32) {
        let Some((last, _)) = segs.last() else { return };
        if segs.len() >= 2 {
            let head = &segs[segs.len() - 2].0;
            let head_resolved = if head == "Self" {
                self.self_ty.clone().unwrap_or_default()
            } else {
                head.clone()
            };
            if let Some(&id) = self.r.by_qname.get(&format!("{head_resolved}::{last}")) {
                self.edge_all(&[id], line, true);
                return;
            }
            // Module-qualified free fn: match on the qname tail.
            let tail2 = format!("{head}::{last}");
            let hit: Vec<usize> = self
                .r
                .by_qname
                .iter()
                .filter(|(q, _)| q.as_str() == tail2 || q.ends_with(&format!("::{tail2}")))
                .map(|(_, &id)| id)
                .collect();
            if !hit.is_empty() {
                self.edge_all(&hit, line, true);
                return;
            }
        }
        // Unqualified or unresolved: name fallback.
        let fallback: Vec<usize> = self.r.candidates(last).to_vec();
        self.edge_all(&fallback, line, false);
    }
}

/// Strip reference/pointer/smart-pointer shells off a type and return the
/// base head (`&mut wire::TcpSegment` → `TcpSegment`; `Box<dyn Agent>` →
/// `Agent`; `Vec<u8>` stays `Vec`).
fn strip_shells(ty: &Ty) -> String {
    for s in &ty.segs {
        match s.as_str() {
            "&" | "*" | "[]" | "()" => continue,
            other => {
                if matches!(other, "Box" | "Rc" | "Arc" | "RefCell" | "Cell" | "Option") {
                    if let Some(inner) = ty.args.first() {
                        let h = strip_shells(inner);
                        if !h.is_empty() {
                            return h;
                        }
                    }
                }
                return other.to_string();
            }
        }
    }
    String::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: Vec<(&str, &str)>) -> Workspace {
        Workspace::from_sources(files.into_iter().map(|(r, s)| (r, s.to_string())).collect())
    }

    #[test]
    fn same_named_methods_get_distinct_nodes() {
        let w = ws(vec![(
            "crates/x/src/lib.rs",
            "struct SendBuffer; struct PcapReader;\n\
             impl SendBuffer { fn read(&self) -> u8 { 0 } }\n\
             impl PcapReader { fn read(&self) -> u8 { panic!(\"io\") } }\n",
        )]);
        let r = Resolved::build(&w);
        assert!(r.by_qname.contains_key("SendBuffer::read"));
        assert!(r.by_qname.contains_key("PcapReader::read"));
        assert_eq!(r.candidates("read").len(), 2);
    }

    #[test]
    fn typed_receiver_resolves_to_one_callee() {
        let w = ws(vec![(
            "crates/x/src/lib.rs",
            "pub struct A; pub struct B;\n\
             impl A { pub fn go(&self) {} }\n\
             impl B { pub fn go(&self) {} }\n\
             pub struct H { a: A }\n\
             impl H { pub fn run(&self, b: &B) { self.a.go(); b.go(); } }\n",
        )]);
        let r = Resolved::build(&w);
        let run = r.by_qname["H::run"];
        let edges = &r.calls[run];
        assert_eq!(edges.len(), 2, "{edges:?}");
        assert!(edges.iter().all(|e| e.typed), "{edges:?}");
        let targets: Vec<&str> = edges.iter().map(|e| r.fns[e.to].qname.as_str()).collect();
        assert!(targets.contains(&"A::go"));
        assert!(targets.contains(&"B::go"));
    }

    #[test]
    fn unknown_receiver_degrades_to_name_fallback() {
        let w = ws(vec![(
            "crates/x/src/lib.rs",
            "pub struct A; pub struct B;\n\
             impl A { pub fn go(&self) {} }\n\
             impl B { pub fn go(&self) {} }\n\
             pub fn run(x: &UnknownExtern) { x.go(); }\n",
        )]);
        let r = Resolved::build(&w);
        let run = r.by_qname["run"];
        let edges = &r.calls[run];
        assert_eq!(edges.len(), 2, "{edges:?}");
        assert!(edges.iter().all(|e| !e.typed), "{edges:?}");
    }

    #[test]
    fn local_let_and_ctor_inference() {
        let w = ws(vec![(
            "crates/x/src/lib.rs",
            "pub struct A; impl A { pub fn new() -> A { A } pub fn go(&self) {} }\n\
             pub struct B; impl B { pub fn go(&self) {} }\n\
             pub fn run() { let a = A::new(); a.go(); }\n",
        )]);
        let r = Resolved::build(&w);
        let run = r.by_qname["run"];
        let go_edges: Vec<_> =
            r.calls[run].iter().filter(|e| r.fns[e.to].name == "go").collect();
        assert_eq!(go_edges.len(), 1, "{go_edges:?}");
        assert_eq!(r.fns[go_edges[0].to].qname, "A::go");
    }

    #[test]
    fn trait_object_fans_out_to_impls() {
        let w = ws(vec![(
            "crates/x/src/lib.rs",
            "pub trait Agent { fn handle(&mut self); }\n\
             pub struct H1; impl Agent for H1 { fn handle(&mut self) {} }\n\
             pub struct H2; impl Agent for H2 { fn handle(&mut self) {} }\n\
             pub fn drive(a: &mut Box<dyn Agent>) { a.handle(); }\n",
        )]);
        let r = Resolved::build(&w);
        let drive = r.by_qname["drive"];
        let edges = &r.calls[drive];
        assert_eq!(edges.len(), 2, "{edges:?}");
        assert!(edges.iter().all(|e| e.typed));
    }

    #[test]
    fn struct_field_types_feed_receiver_inference() {
        let w = ws(vec![(
            "crates/x/src/lib.rs",
            "pub struct Inner; impl Inner { pub fn tick(&self) {} }\n\
             pub struct Outer { pub inner: Inner }\n\
             impl Outer { pub fn run(&self) { self.inner.tick(); } }\n",
        )]);
        let r = Resolved::build(&w);
        let run = r.by_qname["Outer::run"];
        assert_eq!(r.calls[run].len(), 1);
        assert!(r.calls[run][0].typed);
        assert_eq!(r.fns[r.calls[run][0].to].qname, "Inner::tick");
    }

    #[test]
    fn module_paths_qualify_free_fns() {
        let w = ws(vec![
            ("crates/x/src/wire.rs", "pub fn parse_packet() {}\n"),
            ("crates/x/src/lib.rs", "pub mod wire;\npub fn top() {}\n"),
        ]);
        let r = Resolved::build(&w);
        assert!(r.by_qname.contains_key("wire::parse_packet"), "{:?}", r.by_qname);
        assert!(r.by_qname.contains_key("top"));
    }

    #[test]
    fn shadowed_local_retypes_receiver() {
        let w = ws(vec![(
            "crates/x/src/lib.rs",
            "pub struct A; impl A { pub fn go(&self) {} }\n\
             pub struct B; impl B { pub fn go(&self) {} }\n\
             pub fn run(x: &A) { x.go(); let x = B; x.go(); }\n",
        )]);
        let r = Resolved::build(&w);
        let run = r.by_qname["run"];
        let targets: Vec<&str> =
            r.calls[run].iter().map(|e| r.fns[e.to].qname.as_str()).collect();
        assert!(targets.contains(&"A::go"), "{targets:?}");
        assert!(targets.contains(&"B::go"), "{targets:?}");
        assert!(r.calls[run].iter().all(|e| e.typed), "{:?}", r.calls[run]);
    }
}
