//! Terms: variables, language constants and canonical constants.

use core::fmt;

/// A first-order term as used in the paper's Section 2.
///
/// * [`Term::Var`] — a variable (e.g. `x1`, `y2`);
/// * [`Term::Const`] — a *language* constant (e.g. `c1`, `a`);
/// * [`Term::CanonConst`] — the *canonical* constant `x̂` associated with the
///   variable `x` by the bijection `can(·)` of the paper. Canonical constants
///   are disjoint from language constants and appear in canonical instances
///   and probe tuples.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Term {
    /// A variable.
    Var(String),
    /// A language constant.
    Const(String),
    /// The canonical constant `x̂` associated with variable `x` (the stored
    /// string is the underlying variable name).
    CanonConst(String),
}

impl Term {
    /// Convenience constructor for a variable.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// Convenience constructor for a language constant.
    pub fn constant(name: impl Into<String>) -> Term {
        Term::Const(name.into())
    }

    /// Convenience constructor for the canonical constant of a variable.
    pub fn canon(var_name: impl Into<String>) -> Term {
        Term::CanonConst(var_name.into())
    }

    /// `true` iff the term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// `true` iff the term is a constant of either kind (i.e. not a variable).
    pub fn is_constant(&self) -> bool {
        !self.is_var()
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Applies the `can(·)` bijection: variables become their canonical
    /// constants; constants are untouched (the paper's grounding of a query
    /// into its canonical instance).
    pub(crate) fn canonicalize(&self) -> Term {
        match self {
            Term::Var(v) => Term::CanonConst(v.clone()),
            other => other.clone(),
        }
    }

    /// Inverse of [`Term::canonicalize`]: canonical constants become their
    /// variables; other terms are untouched.
    pub(crate) fn decanonicalize(&self) -> Term {
        match self {
            Term::CanonConst(v) => Term::Var(v.clone()),
            other => other.clone(),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "'{c}'"),
            Term::CanonConst(v) => write!(f, "^{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_predicates() {
        let x = Term::var("x1");
        let c = Term::constant("c1");
        let xc = Term::canon("x1");
        assert!(x.is_var() && !x.is_constant());
        assert!(!c.is_var() && c.is_constant());
        assert!(!xc.is_var() && xc.is_constant());
        assert_eq!(x.as_var(), Some("x1"));
        assert_eq!(c.as_var(), None);
    }

    #[test]
    fn canonicalisation_roundtrip() {
        let x = Term::var("x1");
        assert_eq!(x.canonicalize(), Term::canon("x1"));
        assert_eq!(x.canonicalize().decanonicalize(), x);
        let c = Term::constant("c1");
        assert_eq!(c.canonicalize(), c);
        assert_eq!(c.decanonicalize(), c);
    }

    #[test]
    fn canonical_constants_differ_from_language_constants() {
        // The bijection can(·) lands in a domain disjoint from language constants.
        assert_ne!(Term::canon("c1"), Term::constant("c1"));
        assert_ne!(Term::canon("x"), Term::var("x"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::var("x1").to_string(), "x1");
        assert_eq!(Term::constant("c1").to_string(), "'c1'");
        assert_eq!(Term::canon("x1").to_string(), "^x1");
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut terms = vec![Term::canon("a"), Term::constant("a"), Term::var("a")];
        terms.sort();
        // Ordering follows the enum variant order: Var < Const < CanonConst.
        assert_eq!(terms, vec![Term::var("a"), Term::constant("a"), Term::canon("a")]);
    }
}
