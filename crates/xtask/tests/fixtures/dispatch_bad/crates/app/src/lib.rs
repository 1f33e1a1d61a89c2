//! Drifted dispatch fixture: four coordinated-edit failures the pass
//! must report — an impl with no variant, a variant with no impl, a
//! variant `try_build_pair` never constructs, and a `PolicyKind` no config
//! string can select.

#![forbid(unsafe_code)]

pub trait ReplacementPolicy {
    fn name(&self) -> &'static str;
}

pub struct Alpha;
pub struct Beta;
pub struct Extra;
pub struct Ghost;

impl ReplacementPolicy for Alpha {
    fn name(&self) -> &'static str {
        "alpha"
    }
}

impl ReplacementPolicy for Beta {
    fn name(&self) -> &'static str {
        "beta"
    }
}

// Drift 1: implemented but never added to the enum.
impl ReplacementPolicy for Extra {
    fn name(&self) -> &'static str {
        "extra"
    }
}

pub enum AnyPolicy {
    Alpha(Alpha),
    Beta(Beta),
    // Drift 2: `Ghost` has no `impl ReplacementPolicy`.
    Ghost(Ghost),
}

#[derive(Clone, Copy)]
pub enum PolicyKind {
    Alpha,
    Beta,
    Ghost,
}

impl PolicyKind {
    // Drift 4: `Ghost` is missing a spelling here.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "alpha" => Some(PolicyKind::Alpha),
            "beta" => Some(Self::Beta),
            _ => None,
        }
    }
}

// Drift 3: `AnyPolicy::Ghost` is never constructed.
pub fn try_build_pair(kind: PolicyKind) -> AnyPolicy {
    match kind {
        PolicyKind::Alpha => AnyPolicy::Alpha(Alpha),
        _ => AnyPolicy::Beta(Beta),
    }
}
