//! Workspace symbol table and call graph.
//!
//! The interprocedural layer (DESIGN.md §8.4) starts here: every
//! library-class function the workspace owns becomes a [`FnNode`], and
//! call expressions are resolved to node indices through a deliberately
//! conservative strategy — an edge is only recorded when the callee is
//! *known*, never guessed by name alone:
//!
//! * `Self::helper(…)` / `Type::helper(…)` — associated-function lookup
//!   on the named type (impl blocks and trait-declaration defaults).
//! * `recv.method(…)` — the receiver is typed through the light type
//!   environment ([`TypeEnv`]): `self` maps to the impl's self type,
//!   `self.field` through the struct field table, plain locals through
//!   parameter annotations, `let` annotations and constructor-shaped
//!   initializers. A receiver typed as a known *trait* resolves
//!   class-hierarchy style: edges to every impl of that trait (plus the
//!   trait default), which is exactly what `dyn` dispatch can reach.
//! * bare `helper(…)` — free-function lookup, same file first, else
//!   only when the name is unique across the workspace.
//!
//! Unresolvable calls (std methods, macros, closures passed as values)
//! get **no** edge: the effect system under-approximates through them
//! rather than poisoning summaries with name-collision edges.
//!
//! Each node also carries the two facts the reset-completeness pass
//! needs: the set of `self.<field>` locations the body writes (direct
//! assignments, `&mut self.field` borrows, mutating method calls) and
//! the struct-literal field list when the function is a constructor.
//!
//! Everything is collected through [`walk_release`], which prunes
//! `if cfg!(debug_assertions)` subtrees and `debug_assert*` macro
//! arguments — debug-only diagnostics must not make a release hot path
//! look panicky.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use syn::expr::{self, Block, Expr, Stmt};
use syn::{Item, TokenTree};

use crate::dataflow::LoweredFn;
use crate::engine::{is_hot_path, FileClass, ParsedFile};

/// One resolved call site.
#[derive(Debug, Clone, Copy)]
pub struct CallEdge {
    /// Index of the callee in [`Graph::fns`].
    pub callee: usize,
    /// 1-based line of the call expression.
    pub line: usize,
}

/// Constructor facts: the struct-literal fields a no-receiver associated
/// function initializes.
#[derive(Debug, Clone)]
pub struct CtorInfo {
    /// Field names across every `Self { … }` literal in the body.
    pub fields: BTreeSet<String>,
    /// False when any literal uses `..rest` functional update (the field
    /// list is then not exhaustive and the type is exempt).
    pub exhaustive: bool,
}

/// One function in the workspace call graph.
#[derive(Debug)]
pub struct FnNode<'a> {
    /// Index of the owning file in the workspace file list.
    pub file: usize,
    /// Workspace-relative path of the owning file.
    pub rel: &'a Path,
    /// Whether the owning file is a simulator hot path.
    pub hot: bool,
    /// Crate the file belongs to (`cache` for `crates/cache/…`, `root`
    /// for top-level sources) — disambiguates same-named types.
    pub crate_name: String,
    /// The lowered function and its impl/trait context.
    pub lf: &'a LoweredFn<'a>,
    /// Resolved outgoing call edges.
    pub calls: Vec<CallEdge>,
    /// First-level `self` fields the body writes.
    pub field_writes: BTreeSet<String>,
    /// Whether the body assigns `*self = …` (every field is restored).
    pub writes_whole_self: bool,
    /// Constructor facts, when the body builds `Self { … }`.
    pub ctor: Option<CtorInfo>,
}

impl FnNode<'_> {
    /// `Owner::name` (or bare `name`) for diagnostics.
    pub fn display_name(&self) -> String {
        match &self.lf.owner {
            Some(o) => format!("{o}::{}", self.lf.unit.name),
            None => self.lf.unit.name.clone(),
        }
    }
}

/// The workspace call graph plus the type tables resolution used.
#[derive(Debug)]
pub struct Graph<'a> {
    /// All library-class functions, in file order.
    pub fns: Vec<FnNode<'a>>,
    /// Struct name → field name → principal type name.
    pub struct_fields: BTreeMap<String, BTreeMap<String, String>>,
    /// Type name → traits it implements.
    pub impl_traits: BTreeMap<String, BTreeSet<String>>,
    /// Every name that is a trait somewhere in the workspace.
    pub trait_names: BTreeSet<String>,
}

/// Build the graph over one workspace: `lowered` runs parallel to
/// `files` (empty for files the rules skip — tests).
pub fn build<'a>(files: &'a [ParsedFile], lowered: &'a [Vec<LoweredFn<'a>>]) -> Graph<'a> {
    let mut g = Graph {
        fns: Vec::new(),
        struct_fields: BTreeMap::new(),
        impl_traits: BTreeMap::new(),
        trait_names: BTreeSet::new(),
    };
    // Mut-method candidates per node, settled once the type tables exist.
    let mut candidates: Vec<Vec<(String, String)>> = Vec::new();
    for (fi, pf) in files.iter().enumerate() {
        if pf.source.class != FileClass::Library {
            continue;
        }
        collect_types(&pf.ast.items, &mut g);
        let rel = pf.source.rel.as_path();
        let hot = is_hot_path(rel);
        let crate_name = crate_of(rel);
        for lf in &lowered[fi] {
            let (field_writes, cands, writes_whole_self) = field_writes(&lf.unit.block);
            let ctor = ctor_info(lf);
            candidates.push(cands);
            g.fns.push(FnNode {
                file: fi,
                rel,
                hot,
                crate_name: crate_name.clone(),
                lf,
                calls: Vec::new(),
                field_writes,
                writes_whole_self,
                ctor,
            });
        }
    }
    resolve_field_candidates(&mut g, &candidates);
    resolve_calls(&mut g);
    g
}

/// Crate a workspace-relative path belongs to.
fn crate_of(rel: &Path) -> String {
    let s = rel.to_string_lossy().replace('\\', "/");
    let mut parts = s.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => "root".to_string(),
    }
}

/// Record struct field types and impl→trait facts from one item tree.
fn collect_types(items: &[Item], g: &mut Graph<'_>) {
    for item in items {
        match item {
            Item::Struct(s) => {
                let entry = g.struct_fields.entry(s.ident.text.clone()).or_default();
                for field in &s.fields {
                    if let (Some(name), Some(ty)) = (&field.ident, principal_type_name(&field.ty)) {
                        entry.insert(name.text.clone(), ty);
                    }
                }
            }
            Item::Impl(i) => {
                if let (Some(ty), Some(tr)) = (&i.self_ty_name, &i.trait_name) {
                    g.impl_traits
                        .entry(ty.clone())
                        .or_default()
                        .insert(tr.clone());
                    g.trait_names.insert(tr.clone());
                }
            }
            Item::Trait(t) => {
                g.trait_names.insert(t.ident.text.clone());
            }
            Item::Mod(m) => {
                if let Some(content) = &m.content {
                    collect_types(content, g);
                }
            }
            _ => {}
        }
    }
}

/// The principal type name of a raw type token stream: the last segment
/// of the leading path, skipping references, `mut`, `dyn` and `impl`.
/// `&mut FastMap<u16, u32>` → `FastMap`; `&dyn ReplacementPolicy` →
/// `ReplacementPolicy`; tuples and slices have none.
pub fn principal_type_name(tokens: &[TokenTree]) -> Option<String> {
    let mut last: Option<&str> = None;
    for t in tokens {
        match t {
            TokenTree::Ident(id) => {
                if matches!(id.text.as_str(), "mut" | "dyn" | "impl" | "const") {
                    continue;
                }
                last = Some(&id.text);
            }
            TokenTree::Punct(p) if p.text == "&" || p.text == "::" => {}
            TokenTree::Lifetime(_) => {}
            // `<` opens generic arguments: the path is complete.
            _ => break,
        }
    }
    last.map(str::to_string)
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(char::is_uppercase)
}

/// Name-to-type bindings for one function body, used to type method-call
/// receivers.
#[derive(Debug, Default)]
struct TypeEnv {
    vars: BTreeMap<String, String>,
}

impl TypeEnv {
    fn of(lf: &LoweredFn<'_>) -> TypeEnv {
        let mut env = TypeEnv::default();
        // Parameter annotations.
        if let Some(params) = lf
            .unit
            .sig
            .iter()
            .find_map(|t| t.group(syn::Delimiter::Parenthesis))
        {
            for chunk in syn::split_top_level(&params.stream, ",") {
                let Some(colon) = chunk.iter().position(|t| t.is_punct(":")) else {
                    continue;
                };
                let Some(name) = chunk[..colon].iter().rev().find_map(TokenTree::ident) else {
                    continue;
                };
                if name == "self" {
                    continue;
                }
                if let Some(ty) = principal_type_name(&chunk[colon + 1..]) {
                    if starts_upper(&ty) {
                        env.vars.insert(name.to_string(), ty);
                    }
                }
            }
        }
        // `let` annotations and constructor-shaped initializers.
        visit_lets(&lf.unit.block, &mut |l| {
            let Some(name) = l.ident.as_ref().map(|i| i.text.clone()) else {
                return;
            };
            let ty =
                l.ty.as_ref()
                    .and_then(|t| principal_type_name(t))
                    .or_else(|| {
                        l.init
                            .as_ref()
                            .and_then(|i| init_type(i, lf.owner.as_deref()))
                    });
            if let Some(ty) = ty.filter(|t| starts_upper(t)) {
                env.vars.insert(name, ty);
            }
        });
        env
    }
}

/// Every `let` statement of a block, nested blocks included.
fn visit_lets<F: FnMut(&expr::StmtLet)>(block: &Block, f: &mut F) {
    let visit = |b: &Block, f: &mut F| {
        for stmt in &b.stmts {
            if let Stmt::Let(l) = stmt {
                f(l);
            }
        }
    };
    visit(block, f);
    expr::visit_block(block, &mut |e| {
        let nested: &Block = match e {
            Expr::Block { block, .. } => block,
            Expr::If(i) => &i.then_branch,
            Expr::While { body, .. } | Expr::Loop { body, .. } => body,
            Expr::ForLoop(fl) => &fl.body,
            _ => return,
        };
        visit(nested, f);
    });
}

/// The constructed type of an initializer: `Type::new(…)` shapes, struct
/// literals (with `Self` mapped to the surrounding impl's type).
fn init_type(init: &Expr, owner: Option<&str>) -> Option<String> {
    match init {
        Expr::Call { callee, .. } => callee.as_path().and_then(|p| {
            let n = p.segments.len();
            if n < 2 {
                return None;
            }
            let (prev, last) = (&p.segments[n - 2], &p.segments[n - 1]);
            if starts_upper(prev) && !starts_upper(last) {
                if prev == "Self" {
                    return owner.map(str::to_string);
                }
                return Some(prev.clone());
            }
            None
        }),
        Expr::Struct { path, .. } => match path.last() {
            Some("Self") => owner.map(str::to_string),
            Some(name) => Some(name.to_string()),
            None => None,
        },
        Expr::Ref { expr, .. } | Expr::Try { expr, .. } => init_type(expr, owner),
        Expr::Paren { exprs, tuple, .. } if !*tuple && exprs.len() == 1 => {
            init_type(&exprs[0], owner)
        }
        _ => None,
    }
}

/// Pre-order expression walk that skips what release builds skip:
/// `if cfg!(debug_assertions)` subtrees and `debug_assert*` macros.
pub fn walk_release<F: FnMut(&Expr)>(block: &Block, f: &mut F) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    walk_expr(init, f);
                }
                if let Some(b) = &l.else_block {
                    walk_release(b, f);
                }
            }
            Stmt::Expr { expr, .. } => walk_expr(expr, f),
            Stmt::Item(_) => {}
        }
    }
}

// One match arm per expression variant; splitting the visitor would
// only scatter the mirror of `Expr` across helper functions.
#[allow(clippy::too_many_lines)]
fn walk_expr<F: FnMut(&Expr)>(e: &Expr, f: &mut F) {
    if let Expr::If(i) = e {
        if is_debug_guard(&i.cond) {
            // The else branch (if any) *is* the release path.
            if let Some(el) = &i.else_branch {
                walk_expr(el, f);
            }
            return;
        }
    }
    if let Expr::Macro(m) = e {
        if m.path.last().is_some_and(|n| n.starts_with("debug_assert")) {
            return;
        }
    }
    f(e);
    match e {
        Expr::Path(_) | Expr::Lit(_) | Expr::Continue { .. } | Expr::Other { .. } => {}
        Expr::Unary { expr, .. }
        | Expr::Ref { expr, .. }
        | Expr::Cast { expr, .. }
        | Expr::Try { expr, .. } => walk_expr(expr, f),
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Assign { target, value, .. } => {
            walk_expr(target, f);
            walk_expr(value, f);
        }
        Expr::Range { lo, hi, .. } => {
            for side in [lo, hi].into_iter().flatten() {
                walk_expr(side, f);
            }
        }
        Expr::Call { callee, args, .. } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::MethodCall(m) => {
            walk_expr(&m.recv, f);
            for a in &m.args {
                walk_expr(a, f);
            }
        }
        Expr::Field { base, .. } => walk_expr(base, f),
        Expr::Index { base, index, .. } => {
            walk_expr(base, f);
            walk_expr(index, f);
        }
        Expr::Paren { exprs, .. } | Expr::Array { elems: exprs, .. } => {
            for x in exprs {
                walk_expr(x, f);
            }
        }
        Expr::Struct { fields, rest, .. } => {
            for (_, x) in fields {
                walk_expr(x, f);
            }
            if let Some(r) = rest {
                walk_expr(r, f);
            }
        }
        Expr::Block { block, .. } => walk_release(block, f),
        Expr::If(i) => {
            walk_expr(&i.cond, f);
            walk_release(&i.then_branch, f);
            if let Some(el) = &i.else_branch {
                walk_expr(el, f);
            }
        }
        Expr::Match(m) => {
            walk_expr(&m.scrutinee, f);
            for arm in &m.arms {
                if let Some(guard) = &arm.guard {
                    walk_expr(guard, f);
                }
                walk_expr(&arm.body, f);
            }
        }
        Expr::While { cond, body, .. } => {
            walk_expr(cond, f);
            walk_release(body, f);
        }
        Expr::ForLoop(fl) => {
            walk_expr(&fl.iter, f);
            walk_release(&fl.body, f);
        }
        Expr::Loop { body, .. } => walk_release(body, f),
        Expr::Closure { body, .. } => walk_expr(body, f),
        Expr::Return { value, .. } | Expr::Break { value, .. } => {
            if let Some(v) = value {
                walk_expr(v, f);
            }
        }
        Expr::LetCond { value, .. } => walk_expr(value, f),
        Expr::Macro(m) => {
            for a in &m.args {
                walk_expr(a, f);
            }
        }
    }
}

/// Whether a condition is debug-only: mentions `cfg!(debug_assertions)`.
fn is_debug_guard(cond: &Expr) -> bool {
    let mut debug = false;
    expr::visit_expr(cond, &mut |e| {
        if let Expr::Macro(m) = e {
            if m.path.last().is_some_and(|n| n == "cfg")
                && m.raw.iter().any(|t| t.is_ident("debug_assertions"))
            {
                debug = true;
            }
        }
    });
    debug
}

/// Methods that mutate their receiver in place; the fallback when a
/// method call on `self.field` cannot be resolved to a workspace
/// definition (see [`resolve_field_candidates`]).
const MUT_METHODS: [&str; 30] = [
    "push",
    "pop",
    "insert",
    "remove",
    "clear",
    "fill",
    "fill_with",
    "resize",
    "truncate",
    "extend",
    "extend_from_slice",
    "swap",
    "rotate_left",
    "rotate_right",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "drain",
    "retain",
    "reset",
    "reset_for_reuse",
    "copy_from_slice",
    "clone_from",
    "take",
    "replace",
    "store",
    "sort",
    "sort_unstable",
    "shrink_to_fit",
];

fn is_mut_method(name: &str) -> bool {
    MUT_METHODS.contains(&name)
        || name.starts_with("set_")
        || name.starts_with("sort_")
        || name.starts_with("fetch_")
}

/// The first-level `self` field an lvalue chain goes through:
/// `self.tbl[i].x` → `tbl`.
fn self_root_field(e: &Expr) -> Option<&str> {
    match e {
        Expr::Field { base, member, .. } => match base.as_ref() {
            Expr::Path(p) if p.segments.len() == 1 && p.segments[0] == "self" => Some(member),
            _ => self_root_field(base),
        },
        Expr::Index { base, .. } | Expr::Try { expr: base, .. } => self_root_field(base),
        Expr::Unary { expr, .. } | Expr::Ref { expr, .. } => self_root_field(expr),
        Expr::Paren { exprs, tuple, .. } if !*tuple && exprs.len() == 1 => {
            self_root_field(&exprs[0])
        }
        _ => None,
    }
}

/// Direct `self` field writes of one body: assignments through a field
/// chain and `&mut self.field` borrows are definite writes. Every method
/// call on a field is returned as a `(field, method)` *candidate*
/// instead — [`resolve_field_candidates`] decides each one from the
/// callee's actual receiver mutability when the method is in the
/// workspace, falling back to [`is_mut_method`] for library methods.
/// (Ground truth matters: `CacheConfig::set_of(&self, addr)` is the
/// cache-set *index* getter, not a setter.)
fn field_writes(block: &Block) -> (BTreeSet<String>, Vec<(String, String)>, bool) {
    let mut writes = BTreeSet::new();
    let mut candidates = Vec::new();
    let mut whole = false;
    walk_release(block, &mut |e| match e {
        Expr::Assign { target, .. } => {
            if let Some(f) = self_root_field(target) {
                writes.insert(f.to_string());
            }
            if let Expr::Unary { op, expr, .. } = target.as_ref() {
                if op == "*" && expr.as_path().is_some_and(|p| p.segments == ["self"]) {
                    whole = true;
                }
            }
        }
        Expr::MethodCall(m) => {
            if let Some(f) = self_root_field(&m.recv) {
                candidates.push((f.to_string(), m.method.text.clone()));
            }
        }
        Expr::Ref {
            mutable: true,
            expr,
            ..
        } => {
            if let Some(f) = self_root_field(expr) {
                writes.insert(f.to_string());
            }
        }
        _ => {}
    });
    (writes, candidates, whole)
}

/// Settle the `(field, method)` candidates of every node into actual
/// field writes. The field's declared type (from the struct table) plus
/// the workspace method index give ground truth: a resolved `&self`
/// method mutates nothing, a resolved `&mut self` method mutates the
/// field. Only methods the workspace does not define (std collections,
/// `Option::take`, …) fall back to the name heuristic.
fn resolve_field_candidates(g: &mut Graph<'_>, candidates: &[Vec<(String, String)>]) {
    // (type, method) → any definition takes `&mut self`.
    let mut receiver_mut: BTreeMap<(&str, &str), bool> = BTreeMap::new();
    for node in &g.fns {
        if let (Some(owner), true) = (&node.lf.owner, node.lf.has_self) {
            *receiver_mut
                .entry((owner, &node.lf.unit.name))
                .or_insert(false) |= node.lf.self_mut;
        }
    }
    let mut settled: Vec<(usize, String)> = Vec::new();
    for (i, cands) in candidates.iter().enumerate() {
        let owner = g.fns[i].lf.owner.as_deref();
        for (field, method) in cands {
            let field_ty = owner
                .and_then(|o| g.struct_fields.get(o))
                .and_then(|fields| fields.get(field));
            let mutates =
                match field_ty.and_then(|ty| receiver_mut.get(&(ty.as_str(), method.as_str()))) {
                    Some(&m) => m,
                    None => is_mut_method(method),
                };
            if mutates {
                settled.push((i, field.clone()));
            }
        }
    }
    for (i, field) in settled {
        g.fns[i].field_writes.insert(field);
    }
}

/// Constructor facts for a no-receiver associated function that builds
/// `Self { … }` (or `Owner { … }`).
fn ctor_info(lf: &LoweredFn<'_>) -> Option<CtorInfo> {
    if lf.has_self || lf.owner.is_none() {
        return None;
    }
    let owner = lf.owner.as_deref();
    let mut fields = BTreeSet::new();
    let mut exhaustive = true;
    let mut found = false;
    walk_release(&lf.unit.block, &mut |e| {
        if let Expr::Struct {
            path,
            fields: fs,
            rest,
            ..
        } = e
        {
            let last = path.last();
            if last == Some("Self") || last == owner {
                found = true;
                exhaustive &= rest.is_none();
                fields.extend(fs.iter().map(|(name, _)| name.clone()));
            }
        }
    });
    found.then_some(CtorInfo { fields, exhaustive })
}

/// Candidate-index tables for call resolution.
struct Indices {
    /// `(owner, fn)` → node indices (impls and trait defaults).
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// Free-function name → node indices.
    free: BTreeMap<String, Vec<usize>>,
    /// Trait name → node indices of every impl method with that name —
    /// populated lazily per lookup from `impl_traits`.
    trait_impl_methods: BTreeMap<(String, String), Vec<usize>>,
}

fn build_indices(g: &Graph<'_>) -> Indices {
    let mut methods: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, node) in g.fns.iter().enumerate() {
        match &node.lf.owner {
            Some(owner) => methods
                .entry((owner.clone(), node.lf.unit.name.clone()))
                .or_default()
                .push(i),
            None => free.entry(node.lf.unit.name.clone()).or_default().push(i),
        }
    }
    // Class-hierarchy table: a call through a trait-typed receiver can
    // reach the matching method of every type implementing that trait.
    let mut trait_impl_methods: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (ty, traits) in &g.impl_traits {
        for tr in traits {
            for ((owner, name), ids) in &methods {
                if owner == ty {
                    trait_impl_methods
                        .entry((tr.clone(), name.clone()))
                        .or_default()
                        .extend(ids.iter().copied());
                }
            }
        }
    }
    Indices {
        methods,
        free,
        trait_impl_methods,
    }
}

impl Indices {
    /// Resolve `ty::name` / `recv.name` where `recv: ty`: direct methods
    /// first, then trait defaults, then (for trait-typed receivers) all
    /// implementing types.
    fn method_targets(&self, g: &Graph<'_>, ty: &str, name: &str) -> Vec<usize> {
        let key = (ty.to_string(), name.to_string());
        if let Some(ids) = self.methods.get(&key) {
            // When `ty` is a trait, the direct hit is the default body;
            // the real dispatch targets are the impls, so merge both.
            if g.trait_names.contains(ty) {
                let mut all = ids.clone();
                if let Some(impls) = self.trait_impl_methods.get(&key) {
                    all.extend(impls.iter().copied());
                }
                return all;
            }
            return ids.clone();
        }
        if g.trait_names.contains(ty) {
            if let Some(impls) = self.trait_impl_methods.get(&key) {
                return impls.clone();
            }
        }
        // A concrete type without a direct hit may still get the method
        // from a trait default.
        if let Some(traits) = g.impl_traits.get(ty) {
            for tr in traits {
                if let Some(ids) = self.methods.get(&(tr.clone(), name.to_string())) {
                    return ids.clone();
                }
            }
        }
        Vec::new()
    }
}

/// The receiver's principal type, when the environment can name it.
fn type_of(e: &Expr, owner: Option<&str>, env: &TypeEnv, g: &Graph<'_>) -> Option<String> {
    match e {
        Expr::Path(p) => match p.segments.as_slice() {
            [one] if one == "self" => owner.map(str::to_string),
            [one] => env.vars.get(one).cloned(),
            _ => None,
        },
        Expr::Field { base, member, .. } => {
            let base_ty = type_of(base, owner, env, g)?;
            g.struct_fields.get(&base_ty)?.get(member).cloned()
        }
        Expr::Ref { expr, .. } | Expr::Unary { expr, .. } | Expr::Try { expr, .. } => {
            type_of(expr, owner, env, g)
        }
        Expr::Paren { exprs, tuple, .. } if !*tuple && exprs.len() == 1 => {
            type_of(&exprs[0], owner, env, g)
        }
        // A struct literal receiver: `RunSpec { … }.run(threads)`.
        Expr::Struct { .. } => init_type(e, owner),
        _ => None,
    }
}

/// Resolve every call expression of every node into [`CallEdge`]s.
fn resolve_calls(g: &mut Graph<'_>) {
    let indices = build_indices(g);
    let mut all_edges: Vec<Vec<CallEdge>> = Vec::with_capacity(g.fns.len());
    for node in &g.fns {
        let env = TypeEnv::of(node.lf);
        let owner = node.lf.owner.as_deref();
        let mut edges: Vec<CallEdge> = Vec::new();
        let push_all = |ids: &[usize], line: usize, edges: &mut Vec<CallEdge>| {
            for &callee in ids {
                edges.push(CallEdge { callee, line });
            }
        };
        walk_release(&node.lf.unit.block, &mut |e| match e {
            Expr::Call { callee, span, .. } => {
                let Some(path) = callee.as_path() else {
                    return;
                };
                let segs = &path.segments;
                let Some(last) = segs.last().filter(|s| !starts_upper(s.as_str())) else {
                    return; // tuple-struct / enum-variant construction
                };
                if segs.len() >= 2 {
                    let qualifier = &segs[segs.len() - 2];
                    if qualifier == "Self" {
                        if let Some(o) = owner {
                            push_all(&indices.method_targets(g, o, last), span.line, &mut edges);
                        }
                        return;
                    }
                    if starts_upper(qualifier) {
                        push_all(
                            &indices.method_targets(g, qualifier, last),
                            span.line,
                            &mut edges,
                        );
                        return;
                    }
                }
                // Bare or module-qualified free function: same file
                // first, else only a workspace-unique name.
                if let Some(ids) = indices.free.get(last.as_str()) {
                    let same_file: Vec<usize> = ids
                        .iter()
                        .copied()
                        .filter(|&i| g.fns[i].file == node.file)
                        .collect();
                    if !same_file.is_empty() {
                        push_all(&same_file, span.line, &mut edges);
                    } else if ids.len() == 1 {
                        push_all(ids, span.line, &mut edges);
                    }
                }
            }
            Expr::MethodCall(m) => {
                if let Some(ty) = type_of(&m.recv, owner, &env, g) {
                    push_all(
                        &indices.method_targets(g, &ty, &m.method.text),
                        m.span.line,
                        &mut edges,
                    );
                }
            }
            _ => {}
        });
        edges.sort_by_key(|e| (e.line, e.callee));
        edges.dedup_by_key(|e| (e.line, e.callee));
        all_edges.push(edges);
    }
    for (node, edges) in g.fns.iter_mut().zip(all_edges) {
        node.calls = edges;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn principal_types() {
        let cases = [
            ("&mut FastMap<u16, u32>", Some("FastMap")),
            ("&dyn ReplacementPolicy", Some("ReplacementPolicy")),
            ("std::time::Instant", Some("Instant")),
            ("u64", Some("u64")),
        ];
        for (src, want) in cases {
            let ts = syn::lexer::lex(src).expect("lexes");
            assert_eq!(principal_type_name(&ts).as_deref(), want, "{src}");
        }
    }

    #[test]
    fn debug_guard_subtrees_are_pruned() {
        let src = "fn f(x: Option<u8>) {\n\
                   if cfg!(debug_assertions) { x.unwrap(); }\n\
                   debug_assert!(x.unwrap() > 0);\n\
                   let _ = x;\n\
                   }";
        let file = syn::parse_file(src).expect("parses");
        let lfs = crate::dataflow::lower_fns_ctx(&file.items);
        let mut unwraps = 0;
        walk_release(&lfs[0].unit.block, &mut |e| {
            if let Expr::MethodCall(m) = e {
                if m.method.text == "unwrap" {
                    unwraps += 1;
                }
            }
        });
        assert_eq!(unwraps, 0);
    }

    #[test]
    fn field_writes_see_assign_borrow_and_mut_methods() {
        let src = "impl Lru { fn reset(&mut self) {\n\
                   self.stamps.fill(0);\n\
                   self.clock = 0;\n\
                   touch(&mut self.aux);\n\
                   self.tbl[3].x = 1;\n\
                   } }";
        let file = syn::parse_file(src).expect("parses");
        let lfs = crate::dataflow::lower_fns_ctx(&file.items);
        let (writes, cands, whole) = field_writes(&lfs[0].unit.block);
        let got: Vec<&str> = writes.iter().map(String::as_str).collect();
        // `self.stamps.fill(0)` is a candidate, not a definite write —
        // the resolver settles it from receiver mutability later.
        assert_eq!(got, ["aux", "clock", "tbl"]);
        assert_eq!(cands, [("stamps".to_string(), "fill".to_string())]);
        assert!(!whole);
    }

    #[test]
    fn ctor_fields_and_functional_update() {
        let src = "impl Lru {\n\
                   fn new(ways: usize) -> Self { Self { ways, stamps: Vec::new(), clock: 0 } }\n\
                   fn variant() -> Self { Self { clock: 1, ..Self::new(4) } }\n\
                   }";
        let file = syn::parse_file(src).expect("parses");
        let lfs = crate::dataflow::lower_fns_ctx(&file.items);
        let a = ctor_info(&lfs[0]).expect("ctor");
        assert!(a.exhaustive);
        let got: Vec<&str> = a.fields.iter().map(String::as_str).collect();
        assert_eq!(got, ["clock", "stamps", "ways"]);
        let b = ctor_info(&lfs[1]).expect("ctor");
        assert!(!b.exhaustive);
    }
}
