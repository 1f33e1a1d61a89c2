//! Consistent dispatch fixture: impls, variants, constructor arms and
//! config spellings all line up — the drift pass must stay silent.

#![forbid(unsafe_code)]

pub trait ReplacementPolicy {
    fn name(&self) -> &'static str;
}

pub struct Alpha;
pub struct Beta;

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

pub enum AnyPolicy {
    Alpha(Alpha),
    Beta(Beta),
}

#[derive(Clone, Copy)]
pub enum PolicyKind {
    Alpha,
    Beta,
}

impl PolicyKind {
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "alpha" => Some(PolicyKind::Alpha),
            "beta" => Some(Self::Beta),
            _ => None,
        }
    }
}

pub fn try_build_pair(kind: PolicyKind) -> AnyPolicy {
    match kind {
        PolicyKind::Alpha => AnyPolicy::Alpha(Alpha),
        PolicyKind::Beta => AnyPolicy::Beta(Beta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A test double must not count as a dispatchable policy.
    struct Fake;
    impl ReplacementPolicy for Fake {
        fn name(&self) -> &'static str {
            "fake"
        }
    }
}
