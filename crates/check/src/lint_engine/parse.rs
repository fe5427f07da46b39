//! A hand-rolled recursive-descent Rust parser over the [`lexer`] token
//! stream (DESIGN.md §5.12).
//!
//! The walls need structure, not just tokens: a call graph keyed by bare
//! names conflates `SendBuffer::read` with `PcapReader::read`, and "is this
//! ident a sequence number" is a type fact, not a naming convention. This
//! parser recovers that structure — items, impl blocks with their `Self`
//! types, and fn bodies as real expression trees — while staying
//! dependency-free and total over arbitrary input.
//!
//! Design rules:
//!
//! * **Every node carries a token span** (`[lo, hi)` in *original* token
//!   indices, comments included in the numbering). [`Ast::check_spans`]
//!   verifies the nesting — every child inside its parent, siblings in
//!   source order and disjoint, top-level items inside the file — and
//!   `tests/parse_fixpoint.rs` runs it over every workspace file, next to
//!   mutated trees it must reject.
//! * **Totality with *counted* fallbacks.** Constructs the grammar does not
//!   cover parse into [`ExprKind::Err`]/[`ItemKind::Err`] nodes and are
//!   recorded in [`Ast::fallbacks`]. The workspace must parse with **zero**
//!   fallbacks (CI asserts it), so a future syntax gap fails the build
//!   instead of silently weakening an analysis.
//! * **Opaque where structure is not needed.** Attributes, generic
//!   parameter lists, `where` clauses, `use` trees, `enum` bodies and macro
//!   bodies are carved as balanced token runs; the analyses never look
//!   inside them. The one thing read out of an attribute is whether it
//!   gates its node on `cfg(test)` ([`Ast::in_test`]).

use super::lexer::{Tok, TokKind};

/// Original-token-index span, `[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub lo: usize,
    pub hi: usize,
}

impl Span {
    fn new(lo: usize, hi: usize) -> Span {
        Span { lo, hi }
    }
}

/// One parsed file.
#[derive(Debug, Default)]
pub struct Ast {
    pub items: Vec<Item>,
    /// Spans the parser could not structure (`UnsupportedConstruct`).
    pub fallbacks: Vec<Span>,
    /// Spans of nodes gated on `test` by a `#[cfg(..)]` attribute, the
    /// attribute included.
    test_gated: Vec<Span>,
}

/// A top-level or nested item.
#[derive(Debug)]
pub struct Item {
    pub span: Span,
    pub kind: ItemKind,
}

#[derive(Debug)]
pub enum ItemKind {
    /// `use a::b::{c, d as e, *};` — the tree is opaque.
    Use,
    Fn(FnDef),
    Struct(StructDef),
    /// `enum Name { .. }` — the body is opaque.
    Enum { name: String },
    /// `impl [Trait for] SelfTy { items }`.
    Impl(ImplDef),
    /// `trait Name { items }`.
    Trait { name: String, items: Vec<Item> },
    /// Inline `mod name { items }` or out-of-line `mod name;`.
    Mod { name: String, items: Vec<Item>, inline: bool },
    /// `const NAME: Ty = expr;` / `static NAME: Ty = expr;`.
    Const { name: String, ty: Ty, init: Option<Expr> },
    /// `type Name = Ty;` (free or associated).
    TypeAlias { name: String },
    /// Item-position macro invocation.
    MacroCall { name: String, body: Span },
    /// Inner attribute `#![...]` at file/module top.
    InnerAttr,
    /// Unsupported item — recorded in [`Ast::fallbacks`].
    Err,
}

#[derive(Debug)]
pub struct FnDef {
    pub name: String,
    /// Token index of the name ident.
    pub name_tok: usize,
    /// Declared self receiver, if a method (`&self`, `&mut self`, `self`).
    pub has_self: bool,
    /// Non-self parameters: (binding name if simple, declared type).
    pub params: Vec<(Option<String>, Ty)>,
    /// Declared return type.
    pub ret: Option<Ty>,
    /// `None` for bodyless trait-method declarations.
    pub body: Option<Block>,
}

#[derive(Debug)]
pub struct StructDef {
    pub name: String,
    /// Named fields (empty for tuple/unit structs).
    pub fields: Vec<(String, Ty)>,
    /// Tuple-struct positional field types.
    pub tuple_fields: Vec<Ty>,
}

#[derive(Debug)]
pub struct ImplDef {
    /// Head ident of the implemented trait, if a trait impl.
    pub trait_name: Option<String>,
    /// Head ident of the self type (`TcpSocket` for `impl TcpSocket`,
    /// `SeqNum` for `impl Add<u32> for SeqNum`).
    pub self_ty: String,
    pub items: Vec<Item>,
}

/// A type, structured just enough for resolution: the head path and
/// generic arguments; reference/slice/tuple shells are unwrapped into
/// `head` markers.
#[derive(Clone, Debug)]
pub struct Ty {
    pub span: Span,
    /// Path segments of the base type (`["wire", "TcpSegment"]`), or a
    /// marker: `"&"` (reference), `"[]"` (slice/array), `"()"` (tuple),
    /// `"fn"` (fn pointer), `"dyn"`/`"impl"` shells keep the inner head.
    pub segs: Vec<String>,
    /// Generic arguments (types only; lifetimes and bindings skipped).
    pub args: Vec<Ty>,
}

impl Ty {
    /// The bare head name (`TcpSegment` for `&mut wire::TcpSegment`).
    pub fn head(&self) -> &str {
        self.segs.last().map(|s| s.as_str()).unwrap_or("")
    }
}

#[derive(Debug)]
pub struct Block {
    pub span: Span,
    pub stmts: Vec<Stmt>,
}

#[derive(Debug)]
pub struct Stmt {
    pub span: Span,
    pub kind: StmtKind,
}

#[derive(Debug)]
pub enum StmtKind {
    /// `let pat(: ty)? (= init (else else_block)?)? ;`
    Let {
        pat: Pat,
        ty: Option<Ty>,
        init: Option<Expr>,
        else_block: Option<Block>,
    },
    /// Expression statement; `semi` records the trailing `;`.
    Expr { expr: Expr, semi: bool },
    Item(Item),
    Empty,
}

#[derive(Debug)]
pub struct Pat {
    pub span: Span,
    pub kind: PatKind,
}

#[derive(Debug)]
pub enum PatKind {
    Wild,
    /// `..` rest pattern.
    Rest,
    /// Simple binding, possibly `name @ subpat`.
    Ident { name: String, sub: Option<Box<Pat>> },
    /// Literal or literal range pattern.
    Lit,
    /// Unit path pattern (`TcpState::Closed`, `None`).
    Path(Vec<String>),
    /// `Some(x)`, `Ok(a, b)`.
    TupleStruct { path: Vec<String>, elems: Vec<Pat> },
    /// `Point { x, y: py, .. }` — field name plus sub-pattern if renamed.
    Struct { path: Vec<String>, fields: Vec<(String, Option<Pat>)> },
    Tuple(Vec<Pat>),
    Slice(Vec<Pat>),
    Ref(Box<Pat>),
    Or(Vec<Pat>),
    Err,
}

#[derive(Debug)]
pub struct Expr {
    pub span: Span,
    pub kind: ExprKind,
}

#[derive(Debug)]
pub struct Arm {
    pub pat: Pat,
    pub guard: Option<Expr>,
    pub body: Expr,
}

#[derive(Debug)]
pub enum ExprKind {
    /// Literal token (number, string, char, `true`/`false`).
    Lit,
    /// Path expression: segments with the token index of each segment.
    Path(Vec<(String, usize)>),
    Unary { operand: Box<Expr> },
    Binary { lhs: Box<Expr>, rhs: Box<Expr> },
    Assign { lhs: Box<Expr>, rhs: Box<Expr> },
    Cast { expr: Box<Expr>, ty: Ty },
    /// Free/path call: `callee(args)`.
    Call { callee: Box<Expr>, args: Vec<Expr> },
    /// `recv.name(args)` — `name_tok` is the method ident token.
    MethodCall { recv: Box<Expr>, name: String, name_tok: usize, args: Vec<Expr> },
    /// `base.name` — field access or tuple index.
    Field { base: Box<Expr>, name: String },
    Index { base: Box<Expr>, index: Box<Expr> },
    /// `expr?`.
    Try(Box<Expr>),
    Ref { mutable: bool, expr: Box<Expr> },
    Tuple(Vec<Expr>),
    Paren(Box<Expr>),
    /// `[a, b]` or `[elem; len]`.
    Array { elems: Vec<Expr> },
    StructLit { path: Vec<(String, usize)>, fields: Vec<(String, Option<Expr>)>, base: Option<Box<Expr>> },
    Block(Block),
    If { cond: Box<Expr>, then: Block, else_: Option<Box<Expr>> },
    IfLet { pat: Pat, scrutinee: Box<Expr>, then: Block, else_: Option<Box<Expr>> },
    Match { scrutinee: Box<Expr>, arms: Vec<Arm> },
    While { cond: Box<Expr>, body: Block },
    WhileLet { pat: Pat, scrutinee: Box<Expr>, body: Block },
    Loop { body: Block },
    For { pat: Pat, iter: Box<Expr>, body: Block },
    Closure { params: Vec<(Option<String>, Option<Ty>)>, body: Box<Expr> },
    Return(Option<Box<Expr>>),
    Break(Option<Box<Expr>>),
    Continue,
    Range { lo: Option<Box<Expr>>, hi: Option<Box<Expr>> },
    /// `name!(...)` / `name![...]` / `name! {...}`.
    MacroCall { name: String, name_tok: usize, body: Span },
    /// Unsupported expression — recorded in [`Ast::fallbacks`].
    Err,
}

// ---------------------------------------------------------------------------
// Generic tree walk
// ---------------------------------------------------------------------------

/// Any span-carrying structural node, for walks that treat every kind
/// alike. Patterns, types and opaque runs are leaves of their parent.
#[derive(Clone, Copy, Debug)]
pub enum Node<'a> {
    Item(&'a Item),
    Block(&'a Block),
    Stmt(&'a Stmt),
    Expr(&'a Expr),
}

impl<'a> Node<'a> {
    pub fn span(self) -> Span {
        match self {
            Node::Item(x) => x.span,
            Node::Block(x) => x.span,
            Node::Stmt(x) => x.span,
            Node::Expr(x) => x.span,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Node::Item(_) => "item",
            Node::Block(_) => "block",
            Node::Stmt(_) => "stmt",
            Node::Expr(_) => "expr",
        }
    }

    /// Call `f` on every direct child, in source order.
    pub fn each_child(self, f: &mut dyn FnMut(Node<'a>)) {
        match self {
            Node::Item(it) => match &it.kind {
                ItemKind::Fn(d) => d.body.iter().for_each(|b| f(Node::Block(b))),
                ItemKind::Impl(ImplDef { items, .. })
                | ItemKind::Trait { items, .. }
                | ItemKind::Mod { items, .. } => items.iter().for_each(|i| f(Node::Item(i))),
                ItemKind::Const { init, .. } => init.iter().for_each(|x| f(Node::Expr(x))),
                _ => {}
            },
            Node::Block(b) => b.stmts.iter().for_each(|s| f(Node::Stmt(s))),
            Node::Stmt(s) => match &s.kind {
                StmtKind::Let { init, else_block, .. } => {
                    init.iter().for_each(|x| f(Node::Expr(x)));
                    else_block.iter().for_each(|b| f(Node::Block(b)));
                }
                StmtKind::Expr { expr, .. } => f(Node::Expr(expr)),
                StmtKind::Item(it) => f(Node::Item(it)),
                StmtKind::Empty => {}
            },
            Node::Expr(e) => expr_children(e, f),
        }
    }
}

fn expr_children<'a>(e: &'a Expr, f: &mut dyn FnMut(Node<'a>)) {
    use ExprKind::*;
    let mut ex = |x: &'a Expr| f(Node::Expr(x));
    match &e.kind {
        Lit | Path(_) | Continue | MacroCall { .. } | Err => {}
        Unary { operand: x, .. }
        | Cast { expr: x, .. }
        | Field { base: x, .. }
        | Try(x)
        | Ref { expr: x, .. }
        | Paren(x)
        | Closure { body: x, .. } => ex(x),
        Binary { lhs, rhs, .. } | Assign { lhs, rhs, .. } | Index { base: lhs, index: rhs } => {
            ex(lhs);
            ex(rhs);
        }
        Call { callee: head, args } | MethodCall { recv: head, args, .. } => {
            ex(head);
            args.iter().for_each(ex);
        }
        Tuple(xs) | Array { elems: xs } => xs.iter().for_each(ex),
        StructLit { fields, base, .. } => {
            fields.iter().filter_map(|(_, v)| v.as_ref()).for_each(&mut ex);
            base.iter().for_each(|x| ex(x));
        }
        Return(v) | Break(v) => v.iter().for_each(|x| ex(x)),
        Range { lo, hi } => lo.iter().chain(hi).for_each(|x| ex(x)),
        Match { scrutinee, arms } => {
            ex(scrutinee);
            for a in arms {
                a.guard.iter().for_each(&mut ex);
                ex(&a.body);
            }
        }
        Block(b) | Loop { body: b } => f(Node::Block(b)),
        If { cond: head, then: b, else_ } | IfLet { scrutinee: head, then: b, else_, .. } => {
            ex(head);
            f(Node::Block(b));
            else_.iter().for_each(|x| f(Node::Expr(x)));
        }
        While { cond: head, body: b }
        | WhileLet { scrutinee: head, body: b, .. }
        | For { iter: head, body: b, .. } => {
            ex(head);
            f(Node::Block(b));
        }
    }
}

impl Ast {
    /// Whether token index `tok` lies in a node gated on `cfg(test)`.
    pub fn in_test(&self, tok: usize) -> bool {
        self.test_gated.iter().any(|s| (s.lo..s.hi).contains(&tok))
    }

    /// Number of `fn` items, nested and bodyless ones included.
    pub fn fn_count(&self) -> usize {
        fn count(n: Node<'_>, total: &mut usize) {
            if let Node::Item(Item { kind: ItemKind::Fn(_), .. }) = n {
                *total += 1;
            }
            n.each_child(&mut |c| count(c, total));
        }
        let mut total = 0;
        self.items.iter().for_each(|it| count(Node::Item(it), &mut total));
        total
    }

    /// Verify the span nesting of the whole tree for a file of `n_toks`
    /// tokens: no span is empty, every child span lies inside its parent's,
    /// siblings are in source order and disjoint, and the top-level items
    /// lie inside the file. `flow` reports findings at `span.lo` and the
    /// panic wall scans fn-body spans as token ranges, so a wrong span is a
    /// wrong verdict.
    pub fn check_spans(&self, n_toks: usize) -> Result<(), String> {
        /// Place `child` after `*prev` inside `outer`; advances `*prev`.
        fn place(outer: Span, prev: &mut usize, child: Node<'_>) -> Result<(), String> {
            let s = child.span();
            if !(*prev <= s.lo && s.lo < s.hi && s.hi <= outer.hi) {
                return Err(format!(
                    "{} span {}..{} does not follow token {} inside parent {}..{}",
                    child.label(),
                    s.lo,
                    s.hi,
                    *prev,
                    outer.lo,
                    outer.hi
                ));
            }
            *prev = s.hi;
            let (mut at, mut res) = (s.lo, Ok(()));
            child.each_child(&mut |c| {
                if res.is_ok() {
                    res = place(s, &mut at, c);
                }
            });
            res
        }
        let file = Span::new(0, n_toks);
        let mut at = 0;
        self.items.iter().try_for_each(|it| place(file, &mut at, Node::Item(it)))
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parse a lexed file. Total: never panics, records fallbacks.
pub fn parse(src: &str, toks: &[Tok]) -> Ast {
    let code: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect();
    let mut p = Parser {
        src,
        toks,
        code,
        pos: 0,
        fallbacks: Vec::new(),
        test_gated: Vec::new(),
        gt_debt: false,
    };
    let items = p.items_until_end();
    Ast {
        items,
        fallbacks: p.fallbacks,
        test_gated: p.test_gated,
    }
}

struct Parser<'s> {
    src: &'s str,
    toks: &'s [Tok],
    /// Indices of non-comment tokens into `toks`.
    code: Vec<usize>,
    /// Position in `code`.
    pos: usize,
    fallbacks: Vec<Span>,
    test_gated: Vec<Span>,
    /// A `>>` token of which one `>` has been consumed (generics).
    gt_debt: bool,
}

impl<'s> Parser<'s> {
    // -- token helpers ---------------------------------------------------

    fn eof(&self) -> bool {
        self.pos >= self.code.len()
    }

    /// Original token index of the code token at `pos + n`.
    fn tid(&self, n: usize) -> usize {
        self.code.get(self.pos + n).copied().unwrap_or(self.toks.len())
    }

    /// Text of the code token at `pos + n` ("" past EOF). A pending `>>`
    /// with one `>` consumed reads as `>` at offset 0.
    fn at(&self, n: usize) -> &'s str {
        if n == 0 && self.gt_debt {
            return ">";
        }
        match self.code.get(self.pos + n) {
            Some(&i) => self.toks[i].text(self.src),
            None => "",
        }
    }

    fn kind(&self, n: usize) -> Option<TokKind> {
        self.code.get(self.pos + n).map(|&i| self.toks[i].kind)
    }

    /// Advance one code token (resolving `>` debt first).
    fn bump(&mut self) -> usize {
        let t = self.tid(0);
        if self.gt_debt {
            self.gt_debt = false;
        }
        self.pos += 1;
        t
    }

    /// Consume one `>` where the lexer may have produced `>>`.
    fn bump_gt(&mut self) {
        if self.gt_debt {
            self.gt_debt = false;
            self.pos += 1;
        } else if self.at(0) == ">>" {
            self.gt_debt = true; // consumed the first `>` only
        } else {
            self.pos += 1;
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.at(0) == s {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Span starting at the current token.
    fn start(&self) -> usize {
        self.tid(0)
    }

    /// Span ending just past the previously consumed token.
    fn end(&self) -> usize {
        if self.pos == 0 {
            0
        } else if self.gt_debt {
            // Mid-`>>`: the token is still current.
            self.tid(0) + 1
        } else {
            self.code[self.pos - 1] + 1
        }
    }

    fn is_ident(&self, n: usize) -> bool {
        self.kind(n) == Some(TokKind::Ident)
    }

    /// Record a fallback spanning `lo..` current position after skipping
    /// to a sync token.
    fn fallback(&mut self, lo: usize, sync: &[&str]) -> Span {
        // Skip tokens until a sync point at bracket depth 0.
        let mut depth = 0i32;
        while !self.eof() {
            let t = self.at(0);
            match t {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                _ if depth == 0 && sync.contains(&t) => {
                    self.bump();
                    break;
                }
                _ => {}
            }
            self.bump();
        }
        let sp = Span::new(lo, self.end().max(lo + 1));
        self.fallbacks.push(sp);
        sp
    }

    /// Skip a balanced `(..)`/`[..]`/`{..}` group (current token must be
    /// the opener); returns once past the closer.
    fn skip_group(&mut self) {
        let open = self.at(0).to_string();
        let close = match open.as_str() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => {
                self.bump();
                return;
            }
        };
        self.bump();
        let mut depth = 1;
        while !self.eof() && depth > 0 {
            let t = self.at(0);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
            }
            self.bump();
        }
    }

    /// Skip leading outer attributes `#[...]`. If one of them gates the
    /// node they sit on to test builds, returns its `#` token for
    /// [`Parser::close_gate`].
    fn skip_attrs(&mut self) -> Option<usize> {
        let mut gate = None;
        while self.at(0) == "#" && self.at(1) == "[" {
            let hash = self.bump();
            let from = self.pos;
            self.skip_group(); // [...]
            if gate.is_none() && self.is_cfg_test(from, self.pos) {
                gate = Some(hash);
            }
        }
        gate
    }

    /// Whether the attribute group at code positions `[from, to)` is a
    /// `[cfg(..)]` whose predicate names `test` outside any `not(..)`:
    /// `cfg(test)`, `cfg(any(test, ..))`, `cfg(all(test, ..))`. Code under
    /// `cfg(not(test))` ships, so it stays walled.
    fn is_cfg_test(&self, from: usize, to: usize) -> bool {
        let text = |p: usize| self.toks[self.code[p]].text(self.src);
        if to < from + 2 || text(from + 1) != "cfg" {
            return false;
        }
        // Paren depth inside the outermost open `not(`, if any.
        let mut not_at: Option<usize> = None;
        let mut depth = 0usize;
        for p in from + 2..to {
            match text(p) {
                "(" => depth += 1,
                ")" => {
                    depth = depth.saturating_sub(1);
                    not_at = not_at.filter(|&d| d <= depth);
                }
                "not" if not_at.is_none() && p + 1 < to && text(p + 1) == "(" => {
                    not_at = Some(depth + 1);
                }
                "test" if not_at.is_none() => return true,
                _ => {}
            }
        }
        false
    }

    /// Record the node that began at a gating attribute (see
    /// [`Parser::skip_attrs`]) and ends at the last consumed token.
    fn close_gate(&mut self, gate: Option<usize>) {
        if let Some(lo) = gate {
            self.test_gated.push(Span::new(lo, self.end()));
        }
    }

    /// Skip to (not past) the `;` ending the current item, over balanced
    /// groups.
    fn skip_to_semi(&mut self) {
        while !self.eof() && self.at(0) != ";" {
            match self.at(0) {
                "(" | "[" | "{" => self.skip_group(),
                "<" => self.skip_generics(),
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Skip a generics declaration `<...>` if present (balanced angles).
    fn skip_generics(&mut self) {
        if self.at(0) != "<" {
            return;
        }
        let mut depth = 0i32;
        while !self.eof() {
            match self.at(0) {
                "<" => depth += 1,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                // `(` groups inside bounds (Fn traits) skip wholesale.
                "(" | "[" => {
                    self.skip_group();
                    continue;
                }
                _ => {}
            }
            self.bump();
            if depth <= 0 {
                return;
            }
        }
    }

    /// Skip a `where` clause: everything until `{` or `;` at depth 0.
    fn skip_where(&mut self) {
        if self.at(0) != "where" {
            return;
        }
        self.bump();
        while !self.eof() {
            match self.at(0) {
                "{" | ";" => return,
                "(" | "[" => self.skip_group(),
                "<" => self.skip_generics(),
                _ => {
                    self.bump();
                }
            }
        }
    }

    // -- items -----------------------------------------------------------

    fn items_until_end(&mut self) -> Vec<Item> {
        let mut out = Vec::new();
        while !self.eof() {
            let before = self.pos;
            out.push(self.item());
            self.force_progress(before);
        }
        out
    }

    fn items_until_close(&mut self) -> Vec<Item> {
        let mut out = Vec::new();
        while !self.eof() && self.at(0) != "}" {
            let before = self.pos;
            out.push(self.item());
            self.force_progress(before);
        }
        out
    }

    /// Termination backstop: if a loop iteration consumed nothing (a
    /// desynced parse stuck on an unexpected token), consume one token and
    /// record a fallback so the loop provably advances.
    fn force_progress(&mut self, before: usize) {
        if self.pos == before && !self.eof() {
            let lo = self.start();
            self.bump();
            self.fallbacks.push(Span::new(lo, self.end().max(lo + 1)));
        }
    }

    /// Parse one item (with attributes and visibility).
    fn item(&mut self) -> Item {
        let lo = self.start();
        // Inner attributes `#![...]`.
        if self.at(0) == "#" && self.at(1) == "!" {
            self.bump();
            self.bump();
            if self.at(0) == "[" {
                self.skip_group();
            }
            return Item { span: Span::new(lo, self.end()), kind: ItemKind::InnerAttr };
        }
        let gate = self.skip_attrs();
        // Visibility.
        if self.eat("pub") && self.at(0) == "(" {
            self.skip_group();
        }
        // Modifiers.
        let mut is_const_item = false;
        loop {
            match self.at(0) {
                "unsafe" | "async" => {
                    self.bump();
                }
                "extern" => {
                    self.bump();
                    if self.kind(0) == Some(TokKind::Str) {
                        self.bump();
                    }
                }
                "const" if self.at(1) == "fn" => {
                    self.bump();
                }
                "const" => {
                    is_const_item = true;
                    break;
                }
                _ => break,
            }
        }
        let kind = match self.at(0) {
            "fn" => ItemKind::Fn(self.fn_def()),
            "use" => {
                self.skip_to_semi();
                self.eat(";");
                ItemKind::Use
            }
            "struct" => self.struct_item(),
            "enum" => {
                self.bump();
                let name = self.ident_or("_");
                self.skip_generics();
                self.skip_where();
                if self.at(0) == "{" {
                    self.skip_group();
                } else {
                    self.eat(";");
                }
                ItemKind::Enum { name }
            }
            "impl" => self.impl_item(),
            "trait" => self.trait_item(),
            "mod" => self.mod_item(),
            "static" => self.const_item(),
            "const" if is_const_item => self.const_item(),
            "type" => {
                self.bump();
                let name = self.ident_or("_");
                self.skip_to_semi();
                self.eat(";");
                ItemKind::TypeAlias { name }
            }
            _ if self.is_ident(0) && (self.at(1) == "!" || self.at(1) == "::") => {
                // Item-position macro, possibly path-qualified:
                // `name! { ... }` / `name!(...);` / `proptest::proptest! {}`.
                let mut name = self.at(0).to_string();
                self.bump();
                while self.at(0) == "::" && self.is_ident(1) {
                    self.bump();
                    name = self.at(0).to_string();
                    self.bump();
                }
                if self.eat("!") {
                    let blo = self.start();
                    if matches!(self.at(0), "(" | "[" | "{") {
                        let brace = self.at(0) == "{";
                        self.skip_group();
                        if !brace {
                            self.eat(";");
                        }
                    } else {
                        self.eat(";");
                    }
                    ItemKind::MacroCall { name, body: Span::new(blo, self.end()) }
                } else {
                    self.fallback(lo, &[";", "}"]);
                    ItemKind::Err
                }
            }
            _ => {
                self.fallback(lo, &[";", "}"]);
                ItemKind::Err
            }
        };
        self.close_gate(gate);
        Item { span: Span::new(lo, self.end()), kind }
    }

    fn ident_or(&mut self, dflt: &str) -> String {
        if self.is_ident(0) {
            let s = self.at(0).trim_start_matches("r#").to_string();
            self.bump();
            s
        } else {
            dflt.to_string()
        }
    }

    fn fn_def(&mut self) -> FnDef {
        self.bump(); // fn
        let name_tok = self.tid(0);
        let name = self.ident_or("_");
        self.skip_generics();
        // Parameters.
        let mut has_self = false;
        let mut params = Vec::new();
        if self.at(0) == "(" {
            self.bump();
            while !self.eof() && self.at(0) != ")" {
                let gate = self.skip_attrs();
                // Self receiver: `self`, `&self`, `&mut self`, `mut self`.
                let save = self.pos;
                let mut is_self = false;
                while matches!(self.at(0), "&" | "&&" | "mut") || self.kind(0) == Some(TokKind::Lifetime) {
                    self.bump();
                }
                if self.at(0) == "self" {
                    self.bump();
                    is_self = true;
                    has_self = true;
                    // `self: &Rc<Self>` style annotations: skip to , or ).
                    while !self.eof() && self.at(0) != "," && self.at(0) != ")" {
                        match self.at(0) {
                            "(" | "[" => self.skip_group(),
                            "<" => self.skip_generics(),
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                if !is_self {
                    self.pos = save;
                    // `pat: Ty`.
                    let pat = self.pattern();
                    let pname = match &pat.kind {
                        PatKind::Ident { name, .. } => Some(name.clone()),
                        _ => None,
                    };
                    let ty = if self.eat(":") {
                        self.ty()
                    } else {
                        Ty { span: Span::new(self.end(), self.end()), segs: vec![], args: vec![] }
                    };
                    params.push((pname, ty));
                }
                self.close_gate(gate);
                if !self.eat(",") {
                    break;
                }
            }
            self.eat(")");
        }
        let ret = if self.eat("->") { Some(self.ty()) } else { None };
        self.skip_where();
        let body = if self.at(0) == "{" {
            Some(self.block())
        } else {
            self.eat(";");
            None
        };
        FnDef { name, name_tok, has_self, params, ret, body }
    }

    fn struct_item(&mut self) -> ItemKind {
        self.bump(); // struct
        let name = self.ident_or("_");
        self.skip_generics();
        self.skip_where();
        let mut fields = Vec::new();
        let mut tuple_fields = Vec::new();
        if self.at(0) == "(" {
            // Tuple struct.
            self.bump();
            while !self.eof() && self.at(0) != ")" {
                let gate = self.skip_attrs();
                if self.eat("pub") && self.at(0) == "(" && self.at(1) != ")" {
                    // pub(crate) — but beware `pub (Ty)`: visibility parens
                    // only contain crate/super/self/in.
                    if matches!(self.at(1), "crate" | "super" | "self" | "in") {
                        self.skip_group();
                    }
                }
                tuple_fields.push(self.ty());
                self.close_gate(gate);
                if !self.eat(",") {
                    break;
                }
            }
            self.eat(")");
            self.skip_where();
            self.eat(";");
        } else if self.at(0) == "{" {
            self.bump();
            while !self.eof() && self.at(0) != "}" {
                let gate = self.skip_attrs();
                if self.eat("pub") && self.at(0) == "(" {
                    self.skip_group();
                }
                let fname = self.ident_or("_");
                if self.eat(":") {
                    fields.push((fname, self.ty()));
                }
                self.close_gate(gate);
                if !self.eat(",") {
                    break;
                }
            }
            self.eat("}");
        } else {
            self.eat(";"); // unit struct
        }
        ItemKind::Struct(StructDef { name, fields, tuple_fields })
    }

    fn impl_item(&mut self) -> ItemKind {
        self.bump(); // impl
        self.skip_generics();
        let first = self.ty();
        let (trait_name, self_ty) = if self.eat("for") {
            let st = self.ty();
            (Some(first.head().to_string()), st.head().to_string())
        } else {
            (None, first.head().to_string())
        };
        self.skip_where();
        let mut items = Vec::new();
        if self.at(0) == "{" {
            self.bump();
            items = self.items_until_close();
            self.eat("}");
        }
        ItemKind::Impl(ImplDef { trait_name, self_ty, items })
    }

    fn trait_item(&mut self) -> ItemKind {
        self.bump(); // trait
        let name = self.ident_or("_");
        self.skip_generics();
        // Supertraits `: Bound + Bound`.
        if self.eat(":") {
            while !self.eof() && self.at(0) != "{" && self.at(0) != "where" {
                match self.at(0) {
                    "(" | "[" => self.skip_group(),
                    "<" => self.skip_generics(),
                    _ => {
                        self.bump();
                    }
                }
            }
        }
        self.skip_where();
        let mut items = Vec::new();
        if self.at(0) == "{" {
            self.bump();
            items = self.items_until_close();
            self.eat("}");
        }
        ItemKind::Trait { name, items }
    }

    fn mod_item(&mut self) -> ItemKind {
        self.bump(); // mod
        let name = self.ident_or("_");
        if self.at(0) == "{" {
            self.bump();
            let items = self.items_until_close();
            self.eat("}");
            ItemKind::Mod { name, items, inline: true }
        } else {
            self.eat(";");
            ItemKind::Mod { name, items: Vec::new(), inline: false }
        }
    }

    fn const_item(&mut self) -> ItemKind {
        self.bump(); // const | static
        self.eat("mut");
        let name = self.ident_or("_");
        let ty = if self.eat(":") {
            self.ty()
        } else {
            Ty { span: Span::new(self.end(), self.end()), segs: vec![], args: vec![] }
        };
        let init = if self.eat("=") { Some(self.expr_bp(0, true)) } else { None };
        self.eat(";");
        ItemKind::Const { name, ty, init }
    }

    // -- types -----------------------------------------------------------

    /// Parse a type. Total: unknown shapes consume one token and mark an
    /// empty head (NOT counted as a fallback — type structure beyond the
    /// head is advisory; the gap printer never relies on it).
    fn ty(&mut self) -> Ty {
        let lo = self.start();
        let mut segs = Vec::new();
        let mut args = Vec::new();
        match self.at(0) {
            "&" | "&&" => {
                let double = self.at(0) == "&&";
                self.bump();
                if self.kind(0) == Some(TokKind::Lifetime) {
                    self.bump();
                }
                self.eat("mut");
                let inner = self.ty();
                segs.push("&".into());
                if double {
                    // `&&T` — two references; model one level.
                }
                segs.extend(inner.segs);
                args = inner.args;
            }
            "*" => {
                self.bump();
                let _ = self.eat("const") || self.eat("mut");
                let inner = self.ty();
                segs.push("*".into());
                segs.extend(inner.segs);
                args = inner.args;
            }
            "[" => {
                self.bump();
                let inner = self.ty();
                if self.eat(";") {
                    let _ = self.expr_bp(0, true);
                }
                self.eat("]");
                segs.push("[]".into());
                args.push(inner);
            }
            "(" => {
                self.bump();
                let mut elems = Vec::new();
                while !self.eof() && self.at(0) != ")" {
                    elems.push(self.ty());
                    if !self.eat(",") {
                        break;
                    }
                }
                self.eat(")");
                if elems.len() == 1 {
                    // Parenthesized type.
                    let inner = elems.pop().unwrap_or(Ty {
                        span: Span::new(lo, self.end()),
                        segs: vec![],
                        args: vec![],
                    });
                    segs = inner.segs;
                    args = inner.args;
                } else {
                    segs.push("()".into());
                    args = elems;
                }
            }
            "fn" => {
                self.bump();
                if self.at(0) == "(" {
                    self.skip_group();
                }
                if self.eat("->") {
                    let _ = self.ty();
                }
                segs.push("fn".into());
            }
            "!" => {
                self.bump();
                segs.push("!".into());
            }
            "_" => {
                self.bump();
                segs.push("_".into());
            }
            "dyn" | "impl" => {
                self.bump();
                let inner = self.ty();
                segs = inner.segs;
                args = inner.args;
                // Additional bounds `+ Send + 'a`.
                while self.eat("+") {
                    if self.kind(0) == Some(TokKind::Lifetime) {
                        self.bump();
                    } else if self.at(0) == "?" {
                        self.bump();
                        let _ = self.ty();
                    } else {
                        let _ = self.ty();
                    }
                }
            }
            "<" => {
                // Qualified path `<T as Trait>::Out` — carve the angle
                // group and the trailing path.
                self.skip_generics();
                while self.eat("::") {
                    if self.is_ident(0) {
                        segs.push(self.at(0).to_string());
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            _ if self.is_ident(0) || matches!(self.at(0), "crate" | "super" | "self" | "Self") => {
                loop {
                    let seg = self.at(0).trim_start_matches("r#").to_string();
                    self.bump();
                    segs.push(seg);
                    // Generic args directly after a segment (type position).
                    if self.at(0) == "<" {
                        args = self.generic_args();
                    }
                    if self.at(0) == "::" && (self.is_ident(1) || self.at(1) == "<") {
                        self.bump();
                        if self.at(0) == "<" {
                            args = self.generic_args();
                            if !self.eat("::") {
                                break;
                            }
                            continue;
                        }
                        continue;
                    }
                    break;
                }
                // `Fn(A) -> B` sugar.
                if self.at(0) == "(" {
                    self.skip_group();
                    if self.eat("->") {
                        let _ = self.ty();
                    }
                }
            }
            _ => {
                // Unknown type token: consume one to guarantee progress.
                if !self.eof() {
                    self.bump();
                }
            }
        }
        Ty { span: Span::new(lo, self.end()), segs, args }
    }

    /// Parse `<...>` generic arguments in type position. Collects type
    /// arguments; lifetimes, const-expr args, and `Ident = Ty` bindings are
    /// skipped.
    fn generic_args(&mut self) -> Vec<Ty> {
        let mut out = Vec::new();
        if self.at(0) != "<" {
            return out;
        }
        self.bump();
        loop {
            if self.eof() {
                break;
            }
            match self.at(0) {
                ">" => {
                    self.bump();
                    break;
                }
                ">>" => {
                    self.bump_gt();
                    break;
                }
                "," => {
                    self.bump();
                }
                _ if self.kind(0) == Some(TokKind::Lifetime) => {
                    self.bump();
                }
                _ if self.is_ident(0) && self.at(1) == "=" => {
                    // Associated binding `Item = Ty`.
                    self.bump();
                    self.bump();
                    let _ = self.ty();
                }
                _ if self.kind(0) == Some(TokKind::Num) => {
                    self.bump(); // const generic literal
                }
                "{" => self.skip_group(), // const generic block
                _ => out.push(self.ty()),
            }
        }
        out
    }

    // -- patterns --------------------------------------------------------

    fn pattern(&mut self) -> Pat {
        let lo = self.start();
        let first = self.pattern_single();
        if self.at(0) != "|" {
            return first;
        }
        let mut alts = vec![first];
        while self.eat("|") {
            alts.push(self.pattern_single());
        }
        Pat { span: Span::new(lo, self.end()), kind: PatKind::Or(alts) }
    }

    fn pattern_single(&mut self) -> Pat {
        let lo = self.start();
        let kind = self.pattern_kind();
        let mut pat = Pat { span: Span::new(lo, self.end()), kind };
        // Range patterns `a..=b`, `a..b`, `..=b`.
        if matches!(self.at(0), "..=" | "...") || (self.at(0) == ".." && self.at(1) != "}" && self.at(1) != ",") {
            self.bump();
            if self.kind(0) == Some(TokKind::Num)
                || self.kind(0) == Some(TokKind::Char)
                || self.is_ident(0)
                || self.at(0) == "-"
            {
                let _ = self.pattern_kind();
            }
            pat = Pat { span: Span::new(lo, self.end()), kind: PatKind::Lit };
        }
        pat
    }

    fn pattern_kind(&mut self) -> PatKind {
        match self.at(0) {
            "_" => {
                self.bump();
                PatKind::Wild
            }
            ".." => {
                self.bump();
                PatKind::Rest
            }
            "&" | "&&" => {
                let double = self.at(0) == "&&";
                self.bump();
                self.eat("mut");
                let inner = self.pattern_single();
                if double {
                    return PatKind::Ref(Box::new(Pat {
                        span: inner.span,
                        kind: PatKind::Ref(Box::new(inner)),
                    }));
                }
                PatKind::Ref(Box::new(inner))
            }
            "(" => {
                self.bump();
                let mut elems = Vec::new();
                while !self.eof() && self.at(0) != ")" {
                    elems.push(self.pattern());
                    if !self.eat(",") {
                        break;
                    }
                }
                self.eat(")");
                if elems.len() == 1 {
                    let p = elems.pop();
                    p.map(|p| p.kind).unwrap_or(PatKind::Err)
                } else {
                    PatKind::Tuple(elems)
                }
            }
            "[" => {
                self.bump();
                let mut elems = Vec::new();
                while !self.eof() && self.at(0) != "]" {
                    elems.push(self.pattern());
                    if !self.eat(",") {
                        break;
                    }
                }
                self.eat("]");
                PatKind::Slice(elems)
            }
            "-" => {
                // Negative literal pattern.
                self.bump();
                if !self.eof() {
                    self.bump();
                }
                PatKind::Lit
            }
            "mut" | "ref" => {
                self.bump();
                self.eat("mut");
                let name = self.ident_or("_");
                let sub = if self.eat("@") { Some(Box::new(self.pattern_single())) } else { None };
                PatKind::Ident { name, sub }
            }
            _ => {
                if matches!(self.kind(0), Some(TokKind::Num) | Some(TokKind::Str) | Some(TokKind::Char)) {
                    self.bump();
                    return PatKind::Lit;
                }
                if self.is_ident(0) || matches!(self.at(0), "crate" | "super" | "self" | "Self") {
                    if matches!(self.at(0), "true" | "false") {
                        self.bump();
                        return PatKind::Lit;
                    }
                    let mut segs = vec![self.at(0).trim_start_matches("r#").to_string()];
                    self.bump();
                    while self.at(0) == "::" {
                        self.bump();
                        if self.at(0) == "<" {
                            let _ = self.generic_args();
                            continue;
                        }
                        segs.push(self.ident_or("_"));
                    }
                    if self.at(0) == "(" {
                        self.bump();
                        let mut elems = Vec::new();
                        while !self.eof() && self.at(0) != ")" {
                            elems.push(self.pattern());
                            if !self.eat(",") {
                                break;
                            }
                        }
                        self.eat(")");
                        return PatKind::TupleStruct { path: segs, elems };
                    }
                    if self.at(0) == "{" {
                        self.bump();
                        let mut fields = Vec::new();
                        while !self.eof() && self.at(0) != "}" {
                            let gate = self.skip_attrs();
                            if self.at(0) == ".." {
                                self.bump();
                                continue;
                            }
                            self.eat("ref");
                            self.eat("mut");
                            let fname = self.ident_or("_");
                            let sub = if self.eat(":") { Some(self.pattern()) } else { None };
                            fields.push((fname, sub));
                            self.close_gate(gate);
                            if !self.eat(",") {
                                break;
                            }
                        }
                        self.eat("}");
                        return PatKind::Struct { path: segs, fields };
                    }
                    if segs.len() > 1 {
                        return PatKind::Path(segs);
                    }
                    let name = segs.pop().unwrap_or_default();
                    // A single capitalized segment with no payload is a
                    // unit-variant path (None, Closed); heuristic: bindings
                    // are snake_case in this workspace.
                    let is_const_like = name.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                    if is_const_like {
                        return PatKind::Path(vec![name]);
                    }
                    let sub = if self.eat("@") { Some(Box::new(self.pattern_single())) } else { None };
                    return PatKind::Ident { name, sub };
                }
                // Unknown pattern token: consume one for progress.
                if !self.eof() {
                    self.bump();
                }
                PatKind::Err
            }
        }
    }

    // -- blocks & statements ----------------------------------------------

    fn block(&mut self) -> Block {
        let lo = self.start();
        self.eat("{");
        let mut stmts = Vec::new();
        while !self.eof() && self.at(0) != "}" {
            let before = self.pos;
            stmts.push(self.stmt());
            self.force_progress(before);
        }
        self.eat("}");
        Block { span: Span::new(lo, self.end()), stmts }
    }

    fn stmt(&mut self) -> Stmt {
        let lo = self.start();
        // Inner attribute `#![...]` at the top of a block.
        if self.at(0) == "#" && self.at(1) == "!" {
            self.bump();
            self.bump();
            if self.at(0) == "[" {
                self.skip_group();
            }
            return Stmt { span: Span::new(lo, self.end()), kind: StmtKind::Empty };
        }
        let gate = self.skip_attrs();
        let kind = self.stmt_kind();
        self.close_gate(gate);
        Stmt { span: Span::new(lo, self.end()), kind }
    }

    /// One statement, its outer attributes already consumed.
    fn stmt_kind(&mut self) -> StmtKind {
        if self.eat(";") {
            return StmtKind::Empty;
        }
        // Items in statement position.
        let t = self.at(0);
        let item_like = matches!(
            t,
            "fn" | "use" | "struct" | "enum" | "impl" | "trait" | "mod" | "static" | "type"
        ) || (t == "const" && self.at(1) != "{")
            || (t == "pub")
            || (t == "unsafe" && self.at(1) == "fn")
            || (t == "extern" && self.at(1) != "\"");
        if item_like {
            return StmtKind::Item(self.item());
        }
        if t == "let" {
            self.bump();
            let pat = self.pattern();
            let ty = if self.eat(":") { Some(self.ty()) } else { None };
            let mut init = None;
            let mut else_block = None;
            if self.eat("=") {
                init = Some(self.expr_bp(0, true));
                if self.at(0) == "else" && self.at(1) == "{" {
                    self.bump();
                    else_block = Some(self.block());
                }
            }
            self.eat(";");
            return StmtKind::Let { pat, ty, init, else_block };
        }
        let expr = self.expr_bp(0, true);
        let semi = self.eat(";");
        StmtKind::Expr { expr, semi }
    }

    // -- expressions ------------------------------------------------------

    /// Pratt parser. `allow_struct` gates `Path { .. }` struct literals
    /// (false inside `if`/`while`/`for`/`match` headers).
    fn expr_bp(&mut self, min_bp: u8, allow_struct: bool) -> Expr {
        let lo = self.start();
        let mut lhs = self.prefix(allow_struct);
        loop {
            if self.eof() {
                break;
            }
            // Postfix operators bind tightest.
            match self.at(0) {
                "." => {
                    self.bump();
                    if self.at(0) == "await" {
                        self.bump();
                        lhs = Expr { span: Span::new(lo, self.end()), kind: ExprKind::Try(Box::new(lhs)) };
                        continue;
                    }
                    // Tuple index (possibly `0.1` lexed as a float).
                    if self.kind(0) == Some(TokKind::Num) {
                        let txt = self.at(0).to_string();
                        self.bump();
                        for (i, part) in txt.split('.').enumerate() {
                            let _ = i;
                            lhs = Expr {
                                span: Span::new(lo, self.end()),
                                kind: ExprKind::Field { base: Box::new(lhs), name: part.to_string() },
                            };
                        }
                        continue;
                    }
                    let name = self.at(0).trim_start_matches("r#").to_string();
                    let name_tok = self.tid(0);
                    self.bump();
                    // Method turbofish.
                    if self.at(0) == "::" && self.at(1) == "<" {
                        self.bump();
                        let _ = self.generic_args();
                    }
                    if self.at(0) == "(" {
                        let args = self.call_args();
                        lhs = Expr {
                            span: Span::new(lo, self.end()),
                            kind: ExprKind::MethodCall { recv: Box::new(lhs), name, name_tok, args },
                        };
                    } else {
                        lhs = Expr {
                            span: Span::new(lo, self.end()),
                            kind: ExprKind::Field { base: Box::new(lhs), name },
                        };
                    }
                    continue;
                }
                "?" => {
                    self.bump();
                    lhs = Expr { span: Span::new(lo, self.end()), kind: ExprKind::Try(Box::new(lhs)) };
                    continue;
                }
                "(" => {
                    let args = self.call_args();
                    lhs = Expr {
                        span: Span::new(lo, self.end()),
                        kind: ExprKind::Call { callee: Box::new(lhs), args },
                    };
                    continue;
                }
                "[" => {
                    self.bump();
                    let index = self.expr_bp(0, true);
                    self.eat("]");
                    lhs = Expr {
                        span: Span::new(lo, self.end()),
                        kind: ExprKind::Index { base: Box::new(lhs), index: Box::new(index) },
                    };
                    continue;
                }
                "as" => {
                    if 23 < min_bp {
                        break;
                    }
                    self.bump();
                    let ty = self.cast_ty();
                    lhs = Expr {
                        span: Span::new(lo, self.end()),
                        kind: ExprKind::Cast { expr: Box::new(lhs), ty },
                    };
                    continue;
                }
                _ => {}
            }
            // Binary / assignment / range operators.
            let (lbp, rbp, assign, range) = match self.at(0) {
                "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>=" => (2, 1, true, false),
                ".." | "..=" => (3, 4, false, true),
                "||" => (5, 6, false, false),
                "&&" => (7, 8, false, false),
                "==" | "!=" | "<" | ">" | "<=" | ">=" => (9, 10, false, false),
                "|" => (11, 12, false, false),
                "^" => (13, 14, false, false),
                "&" => (15, 16, false, false),
                "<<" | ">>" => (17, 18, false, false),
                "+" | "-" => (19, 20, false, false),
                "*" | "/" | "%" => (21, 22, false, false),
                _ => break,
            };
            if lbp < min_bp {
                break;
            }
            self.bump();
            if range {
                // Open-ended `a..` when no operand can follow.
                let hi_expr = if self.expr_can_start(allow_struct) {
                    Some(Box::new(self.expr_bp(rbp, allow_struct)))
                } else {
                    None
                };
                lhs = Expr {
                    span: Span::new(lo, self.end()),
                    kind: ExprKind::Range { lo: Some(Box::new(lhs)), hi: hi_expr },
                };
                continue;
            }
            let rhs = self.expr_bp(rbp, allow_struct);
            lhs = Expr {
                span: Span::new(lo, self.end()),
                kind: if assign {
                    ExprKind::Assign { lhs: Box::new(lhs), rhs: Box::new(rhs) }
                } else {
                    ExprKind::Binary { lhs: Box::new(lhs), rhs: Box::new(rhs) }
                },
            };
        }
        lhs
    }

    /// Whether the current token can begin an expression (used for
    /// open-ended ranges).
    fn expr_can_start(&self, _allow_struct: bool) -> bool {
        if self.eof() {
            return false;
        }
        !matches!(
            self.at(0),
            ")" | "]"
                | "}"
                | ","
                | ";"
                | "{"
                | "=>"
                | ".."
                | "..="
                | "="
                | "=="
                | "&&"
                | "||"
                | "as"
                | "?"
                | "."
        )
    }

    fn call_args(&mut self) -> Vec<Expr> {
        self.eat("(");
        let mut args = Vec::new();
        while !self.eof() && self.at(0) != ")" {
            args.push(self.expr_bp(0, true));
            if !self.eat(",") {
                break;
            }
        }
        self.eat(")");
        args
    }

    /// Cast target type: like [`Parser::ty`] but a `<` after a primitive
    /// head is a comparison, not generics (`len as u32 > limit`).
    fn cast_ty(&mut self) -> Ty {
        const PRIMITIVE: [&str; 17] = [
            "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
            "isize", "f32", "f64", "bool", "char", "str",
        ];
        if self.is_ident(0) && PRIMITIVE.contains(&self.at(0)) && self.at(1) != "::" {
            let lo = self.start();
            let seg = self.at(0).to_string();
            self.bump();
            return Ty { span: Span::new(lo, self.end()), segs: vec![seg], args: vec![] };
        }
        self.ty()
    }

    fn prefix(&mut self, allow_struct: bool) -> Expr {
        let lo = self.start();
        let kind = match self.at(0) {
            "-" | "!" | "*" => {
                self.bump();
                let operand = self.expr_bp(25, allow_struct);
                ExprKind::Unary { operand: Box::new(operand) }
            }
            "&" | "&&" => {
                let double = self.at(0) == "&&";
                self.bump();
                let mutable = self.eat("mut");
                let expr = self.expr_bp(25, allow_struct);
                if double {
                    ExprKind::Ref {
                        mutable: false,
                        expr: Box::new(Expr {
                            span: Span::new(lo, self.end()),
                            kind: ExprKind::Ref { mutable, expr: Box::new(expr) },
                        }),
                    }
                } else {
                    ExprKind::Ref { mutable, expr: Box::new(expr) }
                }
            }
            ".." | "..=" => {
                self.bump();
                let hi = if self.expr_can_start(allow_struct) {
                    Some(Box::new(self.expr_bp(4, allow_struct)))
                } else {
                    None
                };
                ExprKind::Range { lo: None, hi }
            }
            "(" => {
                self.bump();
                let mut elems = Vec::new();
                let mut trailing_comma = false;
                while !self.eof() && self.at(0) != ")" {
                    elems.push(self.expr_bp(0, true));
                    if self.eat(",") {
                        trailing_comma = true;
                    } else {
                        trailing_comma = false;
                        break;
                    }
                }
                self.eat(")");
                if elems.len() == 1 && !trailing_comma {
                    ExprKind::Paren(Box::new(elems.pop().expect("len checked")))
                } else {
                    ExprKind::Tuple(elems)
                }
            }
            "[" => {
                self.bump();
                let mut elems = Vec::new();
                while !self.eof() && self.at(0) != "]" {
                    let e = self.expr_bp(0, true);
                    elems.push(e);
                    if self.eat(";") {
                        // `[elem; len]` repeat.
                        elems.push(self.expr_bp(0, true));
                        break;
                    }
                    if !self.eat(",") {
                        break;
                    }
                }
                self.eat("]");
                ExprKind::Array { elems }
            }
            "{" => ExprKind::Block(self.block()),
            "unsafe" | "const" if self.at(1) == "{" => {
                // `unsafe { … }` block or inline-const expression.
                self.bump();
                ExprKind::Block(self.block())
            }
            "if" => return self.if_expr(),
            "match" => {
                self.bump();
                let scrutinee = self.expr_bp(0, false);
                let mut arms = Vec::new();
                self.eat("{");
                while !self.eof() && self.at(0) != "}" {
                    let before = self.pos;
                    let gate = self.skip_attrs();
                    let pat = self.pattern();
                    let guard = if self.eat("if") { Some(self.expr_bp(0, false)) } else { None };
                    self.eat("=>");
                    let body = self.expr_bp(0, true);
                    self.close_gate(gate);
                    self.eat(",");
                    arms.push(Arm { pat, guard, body });
                    self.force_progress(before);
                }
                self.eat("}");
                ExprKind::Match { scrutinee: Box::new(scrutinee), arms }
            }
            "while" => {
                self.bump();
                if self.eat("let") {
                    let pat = self.pattern();
                    self.eat("=");
                    let scrutinee = self.expr_bp(0, false);
                    let body = self.block();
                    ExprKind::WhileLet { pat, scrutinee: Box::new(scrutinee), body }
                } else {
                    let cond = self.expr_bp(0, false);
                    let body = self.block();
                    ExprKind::While { cond: Box::new(cond), body }
                }
            }
            "loop" => {
                self.bump();
                ExprKind::Loop { body: self.block() }
            }
            "for" => {
                self.bump();
                let pat = self.pattern();
                self.eat("in");
                let iter = self.expr_bp(0, false);
                let body = self.block();
                ExprKind::For { pat, iter: Box::new(iter), body }
            }
            "return" => {
                self.bump();
                let v = if self.expr_can_start(allow_struct) {
                    Some(Box::new(self.expr_bp(0, allow_struct)))
                } else {
                    None
                };
                ExprKind::Return(v)
            }
            "break" => {
                self.bump();
                if self.kind(0) == Some(TokKind::Lifetime) {
                    self.bump();
                }
                let v = if self.expr_can_start(allow_struct) {
                    Some(Box::new(self.expr_bp(0, allow_struct)))
                } else {
                    None
                };
                ExprKind::Break(v)
            }
            "continue" => {
                self.bump();
                if self.kind(0) == Some(TokKind::Lifetime) {
                    self.bump();
                }
                ExprKind::Continue
            }
            "move" | "|" | "||" => {
                let _ = self.eat("move");
                let mut params = Vec::new();
                if self.eat("||") {
                    // no params
                } else {
                    self.eat("|");
                    while !self.eof() && self.at(0) != "|" {
                        // Closure params cannot carry top-level `|`
                        // or-patterns (ambiguous with the closing pipe).
                        let pat = self.pattern_single();
                        let pname = match &pat.kind {
                            PatKind::Ident { name, .. } => Some(name.clone()),
                            _ => None,
                        };
                        let ty = if self.eat(":") { Some(self.ty()) } else { None };
                        params.push((pname, ty));
                        if !self.eat(",") {
                            break;
                        }
                    }
                    self.eat("|");
                }
                let body = if self.eat("->") {
                    let _ = self.ty();
                    let b = self.block();
                    Expr { span: b.span, kind: ExprKind::Block(b) }
                } else {
                    self.expr_bp(1, allow_struct)
                };
                ExprKind::Closure { params, body: Box::new(body) }
            }
            "<" => {
                // Qualified path expression `<S as T>::h(...)`: carve the
                // angle group, then collect trailing path segments.
                self.skip_generics();
                let mut segs: Vec<(String, usize)> = Vec::new();
                while self.at(0) == "::" {
                    self.bump();
                    if self.at(0) == "<" {
                        let _ = self.generic_args();
                        continue;
                    }
                    if self.is_ident(0) {
                        segs.push((self.at(0).to_string(), self.tid(0)));
                        self.bump();
                    } else {
                        break;
                    }
                }
                ExprKind::Path(segs)
            }
            _ if self.kind(0) == Some(TokKind::Lifetime) && self.at(1) == ":" => {
                // Labeled loop.
                self.bump();
                self.bump();
                return self.expr_bp(25, allow_struct);
            }
            _ if matches!(
                self.kind(0),
                Some(TokKind::Num) | Some(TokKind::Str) | Some(TokKind::Char)
            ) =>
            {
                self.bump();
                ExprKind::Lit
            }
            _ if self.is_ident(0) || matches!(self.at(0), "crate" | "super" | "self" | "Self") => {
                return self.path_expr(allow_struct);
            }
            _ => {
                self.fallback(lo, &[";"]);
                ExprKind::Err
            }
        };
        Expr { span: Span::new(lo, self.end()), kind }
    }

    fn if_expr(&mut self) -> Expr {
        let lo = self.start();
        self.bump(); // if
        let kind = if self.eat("let") {
            let pat = self.pattern();
            self.eat("=");
            let scrutinee = self.expr_bp(0, false);
            let then = self.block();
            let else_ = self.else_tail();
            ExprKind::IfLet { pat, scrutinee: Box::new(scrutinee), then, else_ }
        } else {
            let cond = self.expr_bp(0, false);
            let then = self.block();
            let else_ = self.else_tail();
            ExprKind::If { cond: Box::new(cond), then, else_ }
        };
        Expr { span: Span::new(lo, self.end()), kind }
    }

    fn else_tail(&mut self) -> Option<Box<Expr>> {
        if !self.eat("else") {
            return None;
        }
        if self.at(0) == "if" {
            return Some(Box::new(self.if_expr()));
        }
        let b = self.block();
        Some(Box::new(Expr { span: b.span, kind: ExprKind::Block(b) }))
    }

    /// Path-headed expression: path, macro call, struct literal, or the
    /// literal keywords.
    fn path_expr(&mut self, allow_struct: bool) -> Expr {
        let lo = self.start();
        if matches!(self.at(0), "true" | "false") {
            self.bump();
            return Expr { span: Span::new(lo, self.end()), kind: ExprKind::Lit };
        }
        let mut segs: Vec<(String, usize)> = Vec::new();
        loop {
            if self.is_ident(0) || matches!(self.at(0), "crate" | "super" | "self" | "Self") {
                segs.push((self.at(0).trim_start_matches("r#").to_string(), self.tid(0)));
                self.bump();
            } else {
                break;
            }
            if self.at(0) == "::" {
                if self.at(1) == "<" {
                    // Turbofish.
                    self.bump();
                    let _ = self.generic_args();
                    if self.at(0) == "::" {
                        self.bump();
                        continue;
                    }
                    break;
                }
                if self.is_ident(1) || matches!(self.at(1), "crate" | "super" | "self" | "Self") {
                    self.bump();
                    continue;
                }
                break;
            }
            break;
        }
        // Macro call (`vec![…]`, `wire::err!(…)` — last segment names it).
        if self.at(0) == "!" && matches!(self.at(1), "(" | "[" | "{") && !segs.is_empty() {
            let (name, name_tok) = segs.pop().expect("non-empty checked");
            self.bump(); // !
            let blo = self.start();
            self.skip_group();
            return Expr {
                span: Span::new(lo, self.end()),
                kind: ExprKind::MacroCall { name, name_tok, body: Span::new(blo, self.end()) },
            };
        }
        // Struct literal.
        if self.at(0) == "{" && allow_struct && self.struct_lit_ahead() {
            self.bump();
            let mut fields = Vec::new();
            let mut base = None;
            while !self.eof() && self.at(0) != "}" {
                let gate = self.skip_attrs();
                if self.at(0) == ".." {
                    self.bump();
                    if self.expr_can_start(true) {
                        base = Some(Box::new(self.expr_bp(0, true)));
                    }
                    break;
                }
                let fname = self.ident_or("_");
                let val = if self.eat(":") { Some(self.expr_bp(0, true)) } else { None };
                fields.push((fname, val));
                self.close_gate(gate);
                if !self.eat(",") {
                    break;
                }
            }
            self.eat("}");
            return Expr {
                span: Span::new(lo, self.end()),
                kind: ExprKind::StructLit { path: segs, fields, base },
            };
        }
        Expr { span: Span::new(lo, self.end()), kind: ExprKind::Path(segs) }
    }

    /// Disambiguate `Path {` struct literal from a path followed by a
    /// block: inside the braces a struct literal has `ident:`, `ident,`,
    /// `ident}`, or `..`.
    fn struct_lit_ahead(&self) -> bool {
        // at(0) == "{"
        if self.at(1) == "}" {
            return true; // `Path {}`
        }
        if self.at(1) == ".." {
            return true;
        }
        if self.kind(1) == Some(TokKind::Ident) {
            return matches!(self.at(2), ":" | "," | "}") && self.at(3) != ":";
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_engine::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(src, &lex(src))
    }

    /// Parses with no fallback and with well-nested spans.
    fn roundtrip(src: &str) {
        let toks = lex(src);
        let ast = parse(src, &toks);
        assert!(ast.fallbacks.is_empty(), "fallbacks on {src:?}: {:?}", ast.fallbacks);
        ast.check_spans(toks.len()).unwrap_or_else(|e| panic!("{e} in {src:?}"));
    }

    #[test]
    fn fn_items_and_bodies() {
        let ast = parse_src("pub fn f(x: u32, seg: &TcpSegment) -> u32 { x + 1 }");
        let ItemKind::Fn(f) = &ast.items[0].kind else { panic!() };
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[1].1.head(), "TcpSegment");
        assert_eq!(f.ret.as_ref().map(|t| t.head().to_string()), Some("u32".into()));
        assert!(f.body.is_some());
    }

    #[test]
    fn impl_blocks_record_self_type() {
        let ast = parse_src(
            "impl SendBuffer { fn read(&mut self) -> u8 { 0 } }\n\
             impl Iterator for PcapReader { fn next(&mut self) -> Option<u8> { None } }",
        );
        let ItemKind::Impl(a) = &ast.items[0].kind else { panic!() };
        assert_eq!(a.self_ty, "SendBuffer");
        assert_eq!(a.trait_name, None);
        let ItemKind::Impl(b) = &ast.items[1].kind else { panic!() };
        assert_eq!(b.self_ty, "PcapReader");
        assert_eq!(b.trait_name.as_deref(), Some("Iterator"));
        let ItemKind::Fn(m) = &a.items[0].kind else { panic!() };
        assert!(m.has_self);
    }

    #[test]
    fn use_trees_and_enum_bodies_are_opaque_items() {
        let src = "use mpw_tcp::wire::{parse_packet, TcpSegment as Seg, options::*};\n\
                   enum Transport { Mp(MptcpConnection), Named { a: u32 }, D = 4 }\n\
                   fn after() {}";
        let ast = parse_src(src);
        assert!(matches!(ast.items[0].kind, ItemKind::Use));
        assert!(matches!(&ast.items[1].kind, ItemKind::Enum { name } if name == "Transport"));
        assert!(matches!(ast.items[2].kind, ItemKind::Fn(_)));
        roundtrip(src);
    }

    #[test]
    fn fn_count_sees_methods_nested_and_bodyless_fns_but_not_fn_pointer_types() {
        let ast = parse_src(
            "fn top(cb: fn(u32) -> u32) { fn nested() {} let _ = || { fn deeper() {} }; }\n\
             impl Foo { pub fn method(&self) {} }\n\
             trait T { fn decl(&self); fn with_default(&self) {} }\n\
             mod m { const fn in_mod() {} }",
        );
        assert_eq!(ast.fn_count(), 7);
    }

    /// Whether the first token spelled `word` is test-gated.
    fn gated(src: &str, word: &str) -> bool {
        let toks = lex(src);
        let at = toks.iter().position(|t| t.text(src) == word).expect("word present");
        parse(src, &toks).in_test(at)
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
        let src = "struct S { #[cfg(test)] probe: u32, live: u32 }\n\
                   fn f(k: u8) -> u8 {\n\
                       #[cfg(test)]\n    let traced = k;\n\
                       match k { #[cfg(test)] 9 => nine(), _ => other() }\n\
                   }";
        for (word, want) in [
            ("probe", true),
            ("live", false),
            ("traced", true),
            ("nine", true),
            ("other", false),
        ] {
            assert_eq!(gated(src, word), want, "{word}");
        }
    }

    #[test]
    fn struct_fields_and_types() {
        let ast = parse_src("struct S { seq: SeqNum, dseq: u64, buf: Vec<u8> }");
        let ItemKind::Struct(s) = &ast.items[0].kind else { panic!() };
        assert_eq!(s.fields[0].1.head(), "SeqNum");
        assert_eq!(s.fields[1].1.head(), "u64");
        assert_eq!(s.fields[2].1.head(), "Vec");
        assert_eq!(s.fields[2].1.args[0].head(), "u8");
    }

    #[test]
    fn method_calls_and_fields() {
        let src = "fn f(s: &S) { s.buf.read(1, 2); t::g::<u8>(3); }";
        let ast = parse_src(src);
        let ItemKind::Fn(f) = &ast.items[0].kind else { panic!() };
        let b = f.body.as_ref().unwrap();
        let StmtKind::Expr { expr, .. } = &b.stmts[0].kind else { panic!() };
        let ExprKind::MethodCall { recv, name, .. } = &expr.kind else { panic!() };
        assert_eq!(name, "read");
        assert!(matches!(recv.kind, ExprKind::Field { .. }));
        roundtrip(src);
    }

    #[test]
    fn let_else_match_guards_nested_closures() {
        roundtrip(
            "fn f(v: &[u8]) -> u32 {\n\
               let Some(x) = v.first() else { return 0; };\n\
               let g = |a: u32| v.iter().map(|b| *b as u32 + a).sum::<u32>();\n\
               match *x { 0 => g(1), n if n > 5 => n as u32, _ => 2 }\n\
             }",
        );
    }

    #[test]
    fn multiline_generics_and_where() {
        roundtrip(
            "fn g<T, U>(x: T, y: U) -> impl Iterator<Item = (T, U)>\n\
             where\n  T: Clone + Send,\n  U: Default,\n\
             { std::iter::once((x, y)) }",
        );
    }

    #[test]
    fn struct_literals_vs_blocks() {
        roundtrip("fn f() -> S { if x == y { return S { a: 1, ..d }; } S { a: 2, b } }");
        roundtrip("fn f() { for i in 0..n { h(i); } while a < b { a += 1; } }");
        roundtrip("fn f() { match e { E::V { x, .. } => x, _ => 0 }; }");
    }

    #[test]
    fn ranges_casts_shifts() {
        roundtrip("fn f(a: u32) -> u32 { let b = &x[1..4]; (a as u64 >> 2) as u32 + b[0] as u32 }");
        roundtrip("fn f() { q(..); r(..=3); s(1..); }");
    }

    #[test]
    fn if_let_chains_loops_labels() {
        roundtrip("fn f() { if let Some(v) = o { g(v); } else if c { h(); } else { k(); } }");
        roundtrip("fn f() { loop { break; } while let Some(x) = it.next() { use_x(x); } }");
    }

    #[test]
    fn macros_attrs_and_nested_items() {
        roundtrip(
            "#[derive(Clone, Debug)]\nstruct S;\n\
             fn f() { println!(\"{} {}\", a, b); vec![1, 2]; assert!(x, \"m\"); }\n\
             #[cfg(test)]\nmod t { use super::*; #[test] fn u() { f(); } }",
        );
    }

    #[test]
    fn enums_and_const_items() {
        let src = "enum Transport { Mp(MptcpConnection), Sp(TcpSocket), Named { a: u32 } }\n\
                   const N: usize = 4 * 2;\nstatic Z: &str = \"s\";";
        let ast = parse_src(src);
        let ItemKind::Const { name, init, .. } = &ast.items[1].kind else { panic!() };
        assert_eq!(name, "N");
        assert!(matches!(init.as_ref().map(|e| &e.kind), Some(ExprKind::Binary { .. })));
        roundtrip(src);
    }

    #[test]
    fn zero_fallbacks_on_tricky_constructs() {
        for src in [
            "fn f() { let v: Vec<Vec<u8>> = Vec::new(); }",
            "fn f() { x.collect::<Vec<_>>(); }",
            "fn f() { let (a, mut b): (u32, u8) = (1, 2); }",
            "fn f() { let [a, b, rest @ ..] = arr; }",
            "fn f() { s.0.wrapping_add(1); t.1.0; }",
            "fn f() { let c = move || -> u32 { 1 }; }",
            "fn f(x: &dyn Fn(u32) -> u32) { x(1); }",
            "fn f() { m.entry(k).or_insert_with(Vec::new).push(v); }",
            "trait T { type Out; fn d(&self) -> Self::Out; }",
            "impl T for S { type Out = u8; fn d(&self) -> u8 { 0 } }",
            "fn f() { if a && (b || !c) { } }",
            "fn f() { let _ = matches!(x, A | B); }",
            "fn f() { let s: &'static str = \"x\"; }",
            "fn f<'a>(x: &'a [u8]) -> &'a [u8] { &x[..] }",
            "fn f() { arr.iter().rev().enumerate().find(|(_, t)| t.is_x()); }",
            "fn f() { Self::g(1); <S as T>::h(); }",
            "fn f() { r#type(); let r#match = 1; }",
            "fn f() { a = b'x' as u32; }",
            "fn f() { 'outer: for i in 0..3 { break 'outer; } }",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn fallback_is_counted_not_fatal() {
        // Genuinely unsupported garbage still parses to an Err node.
        let ast = parse_src("fn f() { @ @ @; let x = 1; }");
        assert!(!ast.fallbacks.is_empty());
    }
}
