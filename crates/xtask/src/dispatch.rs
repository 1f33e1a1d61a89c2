//! Dispatch-exhaustiveness: drift detection for the `AnyPolicy` sum.
//!
//! The simulator dispatches policies through a closed enum
//! (`AnyPolicy`) instead of `Box<dyn ReplacementPolicy>`, so
//! adding a policy takes four coordinated edits: the
//! `impl ReplacementPolicy`, an `AnyPolicy` variant, a construction arm
//! in `try_build_pair` (the one construction site; `build_pair` and the
//! engine's lanes both go through it), and a `PolicyKind` spelling in
//! the config-string parser. Nothing in the type system ties the last two to the first
//! two — a forgotten arm surfaces as a policy that silently can't be
//! selected from an experiment config. This pass cross-references all
//! four sites from the AST:
//!
//! * every non-generic `impl ReplacementPolicy for T` in library code
//!   (excluding `src/bin/` one-offs and `#[cfg(test)]` doubles) must
//!   appear as an `AnyPolicy` variant payload;
//! * every variant payload must have such an impl;
//! * every variant must be constructed somewhere in `try_build_pair`;
//! * every `PolicyKind` variant must be producible by
//!   `PolicyKind::parse`.
//!
//! The pass is self-disabling: a tree with no `ReplacementPolicy` trait
//! definition (e.g. a lint fixture corpus) produces no findings.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::PathBuf;

use syn::{Item, TokenTree};

use crate::engine::{is_dispatch_scope, Workspace};
use crate::Finding;

const TRAIT_NAME: &str = "ReplacementPolicy";
const ENUM_NAME: &str = "AnyPolicy";
const CTOR_NAME: &str = "try_build_pair";
const KIND_ENUM: &str = "PolicyKind";
const KIND_PARSE: &str = "parse";

/// Where something was found (for diagnostics).
#[derive(Debug, Clone)]
struct Site {
    file: PathBuf,
    line: usize,
}

#[derive(Debug, Default)]
struct Survey {
    /// Trait definition site, if any.
    trait_site: Option<Site>,
    /// `self_ty_name` of each qualifying trait impl.
    impls: BTreeMap<String, Site>,
    /// Enum variants: variant name → (payload type name, site).
    variants: BTreeMap<String, (String, Site)>,
    enum_site: Option<Site>,
    /// Variant names constructed as `AnyPolicy::V(...)` in `try_build_pair`.
    constructed: Vec<String>,
    ctor_site: Option<Site>,
    /// `PolicyKind` variant names.
    kind_variants: BTreeMap<String, Site>,
    /// Variant names produced in `PolicyKind::parse`.
    parsed_kinds: Vec<String>,
    parse_site: Option<Site>,
}

/// Run the pass over a loaded workspace.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut survey = Survey::default();
    for pf in &ws.files {
        if !is_dispatch_scope(&pf.source.rel) {
            continue;
        }
        survey_items(&pf.ast.items, &pf.source.rel, false, &mut survey);
    }
    let Some(_trait_site) = &survey.trait_site else {
        return Vec::new(); // nothing to cross-reference in this tree
    };
    let mut findings = Vec::new();
    let mut push = |site: &Site, message: String| {
        findings.push(Finding {
            file: site.file.clone(),
            line: site.line,
            rule: "dispatch-drift",
            message,
        });
    };

    let Some(enum_site) = survey.enum_site.clone() else {
        let site = survey.trait_site.clone().unwrap_or(Site {
            file: PathBuf::new(),
            line: 0,
        });
        push(
            &site,
            format!(
                "trait `{TRAIT_NAME}` is implemented but dispatch enum `{ENUM_NAME}` was not found"
            ),
        );
        return findings;
    };

    let payloads: BTreeMap<&str, &str> = survey
        .variants
        .iter()
        .map(|(v, (p, _))| (p.as_str(), v.as_str()))
        .collect();

    // impl without a variant.
    for (ty, site) in &survey.impls {
        if !payloads.contains_key(ty.as_str()) {
            push(
                site,
                format!(
                    "`impl {TRAIT_NAME} for {ty}` has no `{ENUM_NAME}` variant; \
                     the policy cannot be dispatched"
                ),
            );
        }
    }
    // Variant without an impl.
    for (variant, (payload, site)) in &survey.variants {
        if !survey.impls.contains_key(payload) {
            push(
                site,
                format!(
                    "`{ENUM_NAME}::{variant}` wraps `{payload}`, which has no \
                     `impl {TRAIT_NAME}` in library code"
                ),
            );
        }
    }
    // Variant never constructed.
    match &survey.ctor_site {
        Some(_) => {
            for (variant, (_, site)) in &survey.variants {
                if !survey.constructed.iter().any(|c| c == variant) {
                    push(
                        site,
                        format!("`{ENUM_NAME}::{variant}` is never constructed by `{CTOR_NAME}`"),
                    );
                }
            }
        }
        None => push(
            &enum_site,
            format!("constructor `{CTOR_NAME}` was not found"),
        ),
    }
    // PolicyKind variant unreachable from the config-string parser.
    if !survey.kind_variants.is_empty() {
        if survey.parse_site.is_some() {
            for (variant, site) in &survey.kind_variants {
                if !survey.parsed_kinds.iter().any(|p| p == variant) {
                    push(
                        site,
                        format!(
                            "`{KIND_ENUM}::{variant}` is not producible by \
                             `{KIND_ENUM}::{KIND_PARSE}`; no config string selects it"
                        ),
                    );
                }
            }
        } else {
            let site = survey
                .kind_variants
                .values()
                .next()
                .cloned()
                .unwrap_or(enum_site);
            push(&site, format!("`{KIND_ENUM}::{KIND_PARSE}` was not found"));
        }
    }
    findings
}

/// Walk items recursively, skipping `#[cfg(test)]` subtrees, recording
/// every dispatch surface.
fn survey_items(items: &[Item], rel: &std::path::Path, in_kind_impl: bool, out: &mut Survey) {
    for item in items {
        if item
            .attrs()
            .iter()
            .any(|a| a.is("cfg") && a.arg_mentions("test"))
        {
            continue;
        }
        let site = Site {
            file: rel.to_path_buf(),
            line: item.span().line,
        };
        match item {
            Item::Trait(t) if t.ident.text == TRAIT_NAME => {
                out.trait_site.get_or_insert(site);
            }
            Item::Impl(i) => {
                if !i.is_generic
                    && i.trait_name.as_deref() == Some(TRAIT_NAME)
                    && i.self_ty_name.as_deref() != Some(ENUM_NAME)
                {
                    if let Some(ty) = &i.self_ty_name {
                        out.impls.entry(ty.clone()).or_insert(site.clone());
                    }
                }
                let kind_impl = i.self_ty_name.as_deref() == Some(KIND_ENUM);
                survey_items(&i.items, rel, kind_impl, out);
            }
            Item::Enum(e) if e.ident.text == ENUM_NAME => {
                out.enum_site.get_or_insert(site.clone());
                for v in &e.variants {
                    let payload = v
                        .fields
                        .iter()
                        .find_map(TokenTree::ident)
                        .unwrap_or(&v.ident.text)
                        .to_string();
                    out.variants
                        .insert(v.ident.text.clone(), (payload, site.clone()));
                }
            }
            Item::Enum(e) if e.ident.text == KIND_ENUM => {
                for v in &e.variants {
                    out.kind_variants.insert(v.ident.text.clone(), site.clone());
                }
            }
            Item::Fn(f) => {
                if let Some(body) = &f.body {
                    if f.ident.text == CTOR_NAME {
                        out.ctor_site.get_or_insert(site.clone());
                        collect_enum_refs(&body.stream, ENUM_NAME, &mut out.constructed);
                    }
                    if in_kind_impl && f.ident.text == KIND_PARSE {
                        out.parse_site.get_or_insert(site.clone());
                        collect_enum_refs(&body.stream, KIND_ENUM, &mut out.parsed_kinds);
                        collect_enum_refs(&body.stream, "Self", &mut out.parsed_kinds);
                    }
                }
            }
            Item::Mod(m) => {
                if let Some(content) = &m.content {
                    survey_items(content, rel, in_kind_impl, out);
                }
            }
            _ => {}
        }
    }
}

/// Record every `Enum::Variant` path reference in a token stream.
fn collect_enum_refs(stream: &[TokenTree], enum_name: &str, out: &mut Vec<String>) {
    for (i, t) in stream.iter().enumerate() {
        if let TokenTree::Group(g) = t {
            collect_enum_refs(&g.stream, enum_name, out);
        }
        if t.is_ident(enum_name) && stream.get(i + 1).is_some_and(|n| n.is_punct("::")) {
            if let Some(variant) = stream.get(i + 2).and_then(TokenTree::ident) {
                out.push(variant.to_string());
            }
        }
    }
}
