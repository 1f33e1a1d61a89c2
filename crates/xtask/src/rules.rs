//! The project lint rules, matched on the expression AST.
//!
//! Legacy rules (reproduced bit-for-bit against the golden corpus):
//!
//! 1. **no-panic** — no `.unwrap()` / `.expect(…)` calls in simulator
//!    hot paths (`cache.rs`, anything under `policy/`, anything under
//!    `crates/core/src/`, the scheduler). Hot-path invariant failures
//!    must be `debug_assert!`s or structured fallbacks, not aborts.
//! 2. **pow2-mask** — no raw `%` whose right-hand operand is a
//!    set/way/entry count; power-of-two structures index through
//!    `fe_cache::index::{mask, idx}`.
//! 3. **forbid-unsafe** — every owned source file carries a
//!    `#![forbid(unsafe_code)]` header, so the guarantee survives file
//!    moves between crates.
//! 4. **checked-index** — no `as`-narrowing cast inside an index
//!    expression; narrowing for table lookups goes through the checked
//!    `idx()` / `mask()` helpers.
//!
//! Dataflow rules (see [`crate::passes`] and DESIGN.md §8.3):
//!
//! 5. **nondet-taint** — unordered-map iteration escaping into ordered
//!    results or serialized output without an ordering sink.
//! 6. **float-order** — float accumulation ordered by unordered
//!    iteration or task completion.
//! 7. **alloc-in-hot-loop** — per-iteration heap churn in hot loops.
//!
//! Function bodies are lowered to the expression AST
//! ([`syn::expr`]) once per file and every body rule runs on that
//! lowering; the original token scanners survive only for the streams
//! that stay raw — signatures, const types/initializers, struct/enum
//! field types, unparsed items — and for raw islands inside bodies
//! (macro arguments, nested items, `Expr::Other` fallbacks), so nothing
//! the old scanner saw goes dark. Text inside string literals, comments,
//! chars and lifetimes is invisible by construction, `#[cfg(test)]`
//! subtrees are skipped precisely, and rule scope follows the file's
//! [`FileClass`]: integration tests are only held to `forbid-unsafe`;
//! benches and examples additionally to the two indexing rules;
//! hot-path panic/allocation rules only matter in library code.

#![forbid(unsafe_code)]

use syn::expr::{self, Block, Expr, Stmt};
use syn::{Attribute, Delimiter, Item, TokenTree};

use crate::allow::Allows;
use crate::dataflow::{FnUnit, Hit, LoweredFn};
use crate::engine::{is_hot_path, is_index_helper, FileClass, ParsedFile};
use crate::passes;
use crate::Finding;

/// The rule identifiers accepted by the allow-annotation.
pub const RULES: [&str; 10] = [
    "no-panic",
    "pow2-mask",
    "forbid-unsafe",
    "checked-index",
    "nondet-taint",
    "float-order",
    "alloc-in-hot-loop",
    "panic-path",
    "render-purity",
    "reset-complete",
];

/// The rules the pre-AST line scanner implemented; the golden corpus
/// test compares exactly these against the recorded legacy findings.
pub const LEGACY_RULES: [&str; 4] = ["no-panic", "pow2-mask", "forbid-unsafe", "checked-index"];

/// Identifiers that mark a `%` right-hand operand as a bucket count.
/// Matched by substring (`num_sets` contains `sets`); `table.len()` is
/// matched structurally as a `len` call with no arguments.
const COUNT_WORDS: [&str; 5] = ["sets", "ways", "entries", "buckets", "capacity"];

/// Narrowing cast targets the `checked-index` rule rejects inside `[…]`.
const NARROW: [&str; 4] = ["usize", "u32", "u16", "u8"];

/// Run all per-file rules over one parsed file, appending surviving
/// findings. `lowered` is the file's shared function lowering (computed
/// once in `run_lint` and reused by the call-graph layer); it is empty
/// for files the body rules skip entirely (integration tests,
/// `#![cfg(test)]` files).
pub fn lint_file(
    pf: &ParsedFile,
    lowered: &[LoweredFn<'_>],
    allows: &Allows,
    out: &mut Vec<Finding>,
) {
    let rel = &pf.source.rel;
    let mut hits: Vec<Hit> = Vec::new();

    // Annotation hygiene: unjustified or unknown-rule annotations are
    // findings themselves and never suppress anything.
    for ann in &allows.annotations {
        if ann.active() {
            continue;
        }
        let (rule, message) = if ann.known {
            (
                RULES
                    .iter()
                    .find(|r| **r == ann.rule)
                    .copied()
                    .unwrap_or("unknown-rule"),
                "allow-annotation without a `: justification`".to_string(),
            )
        } else {
            (
                "unknown-rule",
                format!("allow-annotation names unknown rule `{}`", ann.rule),
            )
        };
        hits.push(Hit {
            line: ann.line,
            rule,
            message,
        });
    }

    // Rule 3: forbid(unsafe_code) inner attribute, every file class.
    let has_forbid = pf
        .ast
        .attrs
        .iter()
        .any(|a| a.is("forbid") && a.arg_mentions("unsafe_code"));
    if !has_forbid {
        hits.push(Hit {
            line: 1,
            rule: "forbid-unsafe",
            message: "missing `#![forbid(unsafe_code)]` header".into(),
        });
    }

    // Body rules, scoped by class; a `#![cfg(test)]` file is all test
    // code.
    let file_is_test = pf.ast.attrs.iter().any(is_test_attr);
    if pf.source.class != FileClass::IntegrationTest && !file_is_test {
        let hot = pf.source.class == FileClass::Library && is_hot_path(rel);
        let helper = is_index_helper(rel);
        let library = pf.source.class == FileClass::Library;

        // Streams that never reach the expression parser keep the token
        // scanners: signatures, const types/initializers, field types,
        // unparsed items.
        visit_token_streams(&pf.ast.items, &mut |stream| {
            token_scan(stream, hot, helper, &mut hits);
        });

        for lf in lowered {
            let unit = &lf.unit;
            legacy_rules_on_unit(unit, hot, helper, &mut hits);
            if library {
                passes::nondet::run(unit, &mut hits);
            }
            if hot {
                passes::hotloop::run(unit, &mut hits);
            }
        }
    }

    // At most one finding per (rule, line), as the line scanner reported.
    hits.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    hits.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    for hit in hits {
        if allows.suppresses(hit.rule, hit.line) {
            continue;
        }
        out.push(Finding {
            file: rel.clone(),
            line: hit.line,
            rule: hit.rule,
            message: hit.message,
        });
    }
}

fn is_test_attr(a: &Attribute) -> bool {
    a.is("cfg") && a.arg_mentions("test")
}

/// Run the applicable token scanners over one raw stream.
fn token_scan(stream: &[TokenTree], hot: bool, helper: bool, hits: &mut Vec<Hit>) {
    if hot {
        scan_no_panic(stream, hits);
    }
    if !helper {
        scan_pow2_mask(stream, hits);
        scan_checked_index(stream, hits);
    }
}

/// Visit every token stream that stays raw after expression lowering,
/// skipping `#[cfg(test)]` subtrees exactly. Function *bodies* are
/// deliberately absent — they are analyzed via [`dataflow::lower_fns`].
fn visit_token_streams(items: &[Item], f: &mut dyn FnMut(&[TokenTree])) {
    for item in items {
        if item.attrs().iter().any(is_test_attr) {
            continue;
        }
        match item {
            Item::Fn(i) => f(&i.sig),
            Item::Const(i) => {
                f(&i.ty);
                f(&i.expr);
            }
            Item::Struct(i) => {
                for field in &i.fields {
                    f(&field.ty);
                }
            }
            Item::Enum(i) => {
                for v in &i.variants {
                    f(&v.fields);
                }
            }
            Item::Impl(i) => visit_token_streams(&i.items, f),
            Item::Trait(i) => visit_token_streams(&i.items, f),
            Item::Mod(i) => {
                if let Some(content) = &i.content {
                    visit_token_streams(content, f);
                }
            }
            Item::Other(i) => f(&i.tokens),
        }
    }
}

/// The three legacy rules on one lowered body, plus token scans over the
/// raw islands the lowering preserves (macro arguments, nested items,
/// `Expr::Other` fallbacks) so coverage never shrinks below the old
/// whole-stream scan.
fn legacy_rules_on_unit(unit: &FnUnit<'_>, hot: bool, helper: bool, hits: &mut Vec<Hit>) {
    expr::visit_block(&unit.block, &mut |e| {
        match e {
            Expr::MethodCall(m)
                if hot && (m.method.text == "unwrap" || m.method.text == "expect") =>
            {
                hits.push(Hit {
                    line: m.span.line,
                    rule: "no-panic",
                    message: format!(
                        "`.{}(…)` in a simulator hot path; use a checked \
                         fallback or debug_assert!",
                        m.method.text
                    ),
                });
            }
            Expr::Binary { op, rhs, span, .. } if op == "%" && !helper => {
                if let Some(word) = count_word_in_expr(rhs) {
                    hits.push(Hit {
                        line: span.line,
                        rule: "pow2-mask",
                        message: format!(
                            "raw `% {word}` indexing; use fe_cache::index::mask \
                             (power-of-two bucket counts)"
                        ),
                    });
                }
            }
            Expr::Index { index, .. } if !helper => {
                narrowing_casts_in(index, hits);
            }
            // Raw islands: the tolerant parser keeps these as tokens.
            Expr::Macro(m) => token_scan(&m.raw, hot, helper, hits),
            Expr::Other { tokens, .. } => token_scan(tokens, hot, helper, hits),
            _ => {}
        }
    });
    for_each_item_stmt(&unit.block, &mut |tokens| {
        token_scan(tokens, hot, helper, hits);
    });
}

/// First bucket-count mention in an expression subtree: any identifier
/// (path segment, field member, called method) containing a count word,
/// or a no-argument `len` call. Mirrors the token scanner's rightward
/// scan, restricted to the `%` right-hand operand the AST delimits.
fn count_word_in_expr(e: &Expr) -> Option<String> {
    let mut found: Option<String> = None;
    expr::visit_expr(e, &mut |x| {
        if found.is_some() {
            return;
        }
        match x {
            Expr::Path(p) => {
                found = p
                    .segments
                    .iter()
                    .find(|s| COUNT_WORDS.iter().any(|w| s.contains(w)))
                    .cloned();
            }
            Expr::Field { member, .. } if COUNT_WORDS.iter().any(|w| member.contains(w)) => {
                found = Some(member.clone());
            }
            Expr::MethodCall(m) => {
                let name = &m.method.text;
                if COUNT_WORDS.iter().any(|w| name.contains(w)) {
                    found = Some(name.clone());
                } else if name == "len" && m.args.is_empty() {
                    found = Some("len()".into());
                }
            }
            Expr::Call { callee, args, .. }
                if callee.as_path().and_then(syn::expr::ExprPath::last) == Some("len")
                    && args.is_empty() =>
            {
                found = Some("len()".into());
            }
            Expr::Macro(m) => {
                found = count_word_in_tokens(&m.raw);
            }
            Expr::Other { tokens, .. } => {
                found = count_word_in_tokens(tokens);
            }
            _ => {}
        }
    });
    found
}

/// First bucket-count mention in a raw token stream (macro arguments and
/// parser fallbacks inside a `%` operand).
fn count_word_in_tokens(stream: &[TokenTree]) -> Option<String> {
    for (j, t) in stream.iter().enumerate() {
        match t {
            TokenTree::Ident(id) => {
                if COUNT_WORDS.iter().any(|w| id.text.contains(w)) {
                    return Some(id.text.clone());
                }
                if id.text == "len"
                    && stream
                        .get(j + 1)
                        .and_then(|n| n.group(Delimiter::Parenthesis))
                        .is_some_and(|g| g.stream.is_empty())
                {
                    return Some("len()".into());
                }
            }
            TokenTree::Group(g) => {
                if let Some(w) = count_word_in_tokens(&g.stream) {
                    return Some(w);
                }
            }
            _ => {}
        }
    }
    None
}

/// Narrowing `as` casts anywhere inside an index operand.
fn narrowing_casts_in(index: &Expr, hits: &mut Vec<Hit>) {
    expr::visit_expr(index, &mut |x| {
        if let Expr::Cast { ty, span, .. } = x {
            if ty
                .first()
                .and_then(TokenTree::ident)
                .is_some_and(|n| NARROW.contains(&n))
            {
                hits.push(Hit {
                    line: span.line,
                    rule: "checked-index",
                    message: "narrowing `as` cast inside an index expression; \
                              route it through fe_cache::index::{idx, mask}"
                        .into(),
                });
            }
        }
    });
}

/// Call `f` with the raw tokens of every nested-item statement in the
/// body, including inside nested blocks.
fn for_each_item_stmt<F: FnMut(&[TokenTree])>(block: &Block, f: &mut F) {
    for stmt in &block.stmts {
        if let Stmt::Item(tokens) = stmt {
            f(tokens);
        }
    }
    expr::visit_block(block, &mut |e| {
        let nested: &Block = match e {
            Expr::Block { block, .. } => block,
            Expr::If(i) => &i.then_branch,
            Expr::While { body, .. } | Expr::Loop { body, .. } => body,
            Expr::ForLoop(fl) => &fl.body,
            _ => return,
        };
        for stmt in &nested.stmts {
            if let Stmt::Item(tokens) = stmt {
                f(tokens);
            }
        }
    });
}

/// Rule 1 on raw streams: `.unwrap()` / `.expect(…)` token triples, at
/// any nesting depth.
fn scan_no_panic(stream: &[TokenTree], hits: &mut Vec<Hit>) {
    for (i, t) in stream.iter().enumerate() {
        if let TokenTree::Group(g) = t {
            scan_no_panic(&g.stream, hits);
        }
        if !t.is_punct(".") {
            continue;
        }
        let Some(name) = stream.get(i + 1).and_then(TokenTree::ident) else {
            continue;
        };
        if (name == "unwrap" || name == "expect")
            && stream
                .get(i + 2)
                .is_some_and(|n| n.group(Delimiter::Parenthesis).is_some())
        {
            hits.push(Hit {
                line: stream[i + 1].span().line,
                rule: "no-panic",
                message: format!(
                    "`.{name}(…)` in a simulator hot path; use a checked \
                     fallback or debug_assert!"
                ),
            });
        }
    }
}

/// Rule 2 on raw streams: `%` whose right-hand operand mentions a bucket
/// count. The right-hand side extends to the next comparison/assignment/
/// statement boundary at the same nesting depth.
fn scan_pow2_mask(stream: &[TokenTree], hits: &mut Vec<Hit>) {
    for (i, t) in stream.iter().enumerate() {
        if let TokenTree::Group(g) = t {
            scan_pow2_mask(&g.stream, hits);
        }
        if !t.is_punct("%") {
            continue;
        }
        let mut j = i + 1;
        while let Some(rhs) = stream.get(j) {
            if ends_rhs(rhs) {
                break;
            }
            if let Some(word) = count_word_at(stream, j) {
                hits.push(Hit {
                    line: t.span().line,
                    rule: "pow2-mask",
                    message: format!(
                        "raw `% {word}` indexing; use fe_cache::index::mask \
                         (power-of-two bucket counts)"
                    ),
                });
                break;
            }
            j += 1;
        }
    }
}

/// Tokens that terminate a `%` right-hand operand: statement/item
/// boundaries, assignments and comparisons (incl. shifts, which share
/// the `<`/`>` spellings).
fn ends_rhs(t: &TokenTree) -> bool {
    match t {
        TokenTree::Punct(p) => p
            .text
            .chars()
            .any(|c| matches!(c, ';' | ',' | '=' | '<' | '>')),
        TokenTree::Group(g) => g.delimiter == Delimiter::Brace,
        _ => false,
    }
}

/// If the token at `j` mentions a bucket count — a count-word
/// identifier, a `len()` call, or a group containing either — the
/// offending spelling.
fn count_word_at(stream: &[TokenTree], j: usize) -> Option<String> {
    match &stream[j] {
        TokenTree::Ident(id) => {
            if COUNT_WORDS.iter().any(|w| id.text.contains(w)) {
                Some(id.text.clone())
            } else if id.text == "len"
                && stream
                    .get(j + 1)
                    .and_then(|n| n.group(Delimiter::Parenthesis))
                    .is_some_and(|g| g.stream.is_empty())
            {
                Some("len()".into())
            } else {
                None
            }
        }
        TokenTree::Group(g) => count_word_in_tokens(&g.stream),
        _ => None,
    }
}

/// Rule 4 on raw streams: `as usize`/`as u32`/`as u16`/`as u8` casts
/// anywhere inside an index expression (`expr[…]`). Brackets in type or
/// array-literal position are not index expressions and are ignored.
fn scan_checked_index(stream: &[TokenTree], hits: &mut Vec<Hit>) {
    for (i, t) in stream.iter().enumerate() {
        let TokenTree::Group(g) = t else {
            continue;
        };
        if g.delimiter == Delimiter::Bracket && i > 0 && is_indexable_tail(&stream[i - 1]) {
            scan_narrowing_cast(&g.stream, hits);
        }
        scan_checked_index(&g.stream, hits);
    }
}

/// Whether a token can end an expression that a following `[…]` would
/// index — an identifier (not a keyword that introduces a type or
/// pattern position), a literal, or any closed group.
fn is_indexable_tail(t: &TokenTree) -> bool {
    const NON_EXPR_KEYWORDS: [&str; 24] = [
        "mut", "ref", "dyn", "as", "in", "if", "else", "match", "return", "break", "continue",
        "move", "loop", "while", "for", "impl", "fn", "where", "let", "pub", "use", "static",
        "const", "unsafe",
    ];
    match t {
        TokenTree::Ident(id) => !NON_EXPR_KEYWORDS.contains(&id.text.as_str()),
        TokenTree::Literal(_) | TokenTree::Group(_) => true,
        TokenTree::Punct(_) | TokenTree::Lifetime(_) => false,
    }
}

/// Narrowing `as` casts at any depth inside an index group.
fn scan_narrowing_cast(stream: &[TokenTree], hits: &mut Vec<Hit>) {
    for (i, t) in stream.iter().enumerate() {
        if let TokenTree::Group(g) = t {
            scan_narrowing_cast(&g.stream, hits);
        }
        if t.is_ident("as")
            && stream
                .get(i + 1)
                .and_then(TokenTree::ident)
                .is_some_and(|n| NARROW.contains(&n))
        {
            hits.push(Hit {
                line: t.span().line,
                rule: "checked-index",
                message: "narrowing `as` cast inside an index expression; \
                          route it through fe_cache::index::{idx, mask}"
                    .into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow;

    /// Run the production body path (expr rules + raw-island token
    /// scans) as a hot, non-helper library file.
    fn hits_for(src: &str) -> Vec<(usize, &'static str)> {
        let ast = syn::parse_file(src).expect("fixture parses");
        let mut hits = Vec::new();
        visit_token_streams(&ast.items, &mut |stream| {
            token_scan(stream, true, false, &mut hits);
        });
        for unit in dataflow::lower_fns(&ast.items) {
            legacy_rules_on_unit(&unit, true, false, &mut hits);
        }
        let mut keys: Vec<_> = hits.iter().map(|h| (h.line, h.rule)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    fn only(keys: Vec<(usize, &'static str)>, rule: &str) -> Vec<(usize, &'static str)> {
        keys.into_iter().filter(|(_, r)| *r == rule).collect()
    }

    #[test]
    fn no_panic_matches_calls_not_text() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   let s = \".unwrap()\";\n\
                   let v = x.unwrap();\n\
                   let w = x.expect(\"reason\");\n\
                   let n = x.unwrap_or(0);\n\
                   v + w + n\n}\n";
        assert_eq!(
            only(hits_for(src), "no-panic"),
            [(3, "no-panic"), (4, "no-panic")]
        );
    }

    #[test]
    fn pow2_mask_matches_count_operands() {
        let src = "fn f(block: u64, i: usize, t: Vec<u8>, num_sets: u64) {\n\
                   let a = block % num_sets;\n\
                   let b = i % t.len();\n\
                   let c = (i + 1) % (self_capacity());\n\
                   let even = i % 2 == 0;\n\
                   let d = i % compute(num_entries, 3);\n\
                   }\n";
        assert_eq!(
            only(hits_for(src), "pow2-mask"),
            [
                (2, "pow2-mask"),
                (3, "pow2-mask"),
                (4, "pow2-mask"),
                (6, "pow2-mask")
            ]
        );
    }

    #[test]
    fn pow2_mask_rhs_stops_at_boundaries() {
        // The count word is left of the `%` or beyond a comparison: clean.
        let src = "fn f(num_sets: u64, x: u64) {\n\
                   let a = num_sets % x;\n\
                   let b = x % 7 < num_sets;\n\
                   }\n";
        assert!(only(hits_for(src), "pow2-mask").is_empty());
    }

    #[test]
    fn pow2_mask_sees_cast_operands_and_macro_args() {
        let src = "fn f(block: u64, i: usize) {\n\
                   let a = block % self.num_sets as u64;\n\
                   assert_eq!(i % num_buckets, 0);\n\
                   }\n";
        assert_eq!(
            only(hits_for(src), "pow2-mask"),
            [(2, "pow2-mask"), (3, "pow2-mask")]
        );
    }

    #[test]
    fn checked_index_requires_index_position() {
        let src = "fn f(tags: &[u64], addr: u64, k: u8) {\n\
                   let a = tags[(addr >> 6) as usize];\n\
                   let t: [u64; 4] = [0; 4];\n\
                   let i = addr as usize;\n\
                   let b = tags[i];\n\
                   let c = t[usize::from(k)];\n\
                   let d = nested[outer[k as usize]];\n\
                   }\n";
        assert_eq!(
            only(hits_for(src), "checked-index"),
            [(2, "checked-index"), (7, "checked-index")]
        );
    }

    #[test]
    fn cfg_test_subtrees_are_exact() {
        let src = "fn hot(x: Option<u8>) { let _ = x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests { fn t(x: Option<u8>) { x.unwrap(); } }\n\
                   fn also_hot(x: Option<u8>) { let _ = x.expect(\"y\"); }\n";
        assert_eq!(
            only(hits_for(src), "no-panic"),
            [(1, "no-panic"), (4, "no-panic")]
        );
    }

    #[test]
    fn nested_item_bodies_are_still_scanned() {
        // A fn nested inside a fn body stays a raw-token island; the
        // token fallbacks must keep covering it.
        let src = "fn outer(x: Option<u8>) {\n\
                   fn inner(y: Option<u8>) -> u8 {\n\
                   y.unwrap()\n\
                   }\n\
                   let _ = inner(x);\n\
                   }\n";
        assert_eq!(only(hits_for(src), "no-panic"), [(3, "no-panic")]);
    }
}
