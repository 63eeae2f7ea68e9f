//! Substitutions: finite mappings from variables to terms.

use core::fmt;
use std::collections::BTreeMap;

use crate::atom::Atom;
use crate::term::Term;

/// A substitution `σ = {x1 ↦ t1; …; xn ↦ tn}` mapping variable names to
/// terms. Variables outside the domain are left unchanged when applying the
/// substitution (exactly as in the paper's Section 2).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Substitution {
    map: BTreeMap<String, Term>,
}

impl Substitution {
    /// The empty (identity) substitution.
    pub fn identity() -> Self {
        Substitution { map: BTreeMap::new() }
    }

    /// Builds a substitution from `(variable, term)` pairs.
    ///
    /// # Panics
    /// Panics if the same variable is bound twice to different terms.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (String, Term)>) -> Self {
        let mut s = Substitution::identity();
        for (var, term) in pairs {
            s.bind(&var, term).expect("conflicting bindings in from_pairs");
        }
        s
    }

    /// The number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The bound variables and their images.
    pub fn bindings(&self) -> impl Iterator<Item = (&str, &Term)> {
        self.map.iter().map(|(v, t)| (v.as_str(), t))
    }

    /// Looks up the image of a variable, if bound.
    pub fn get(&self, var: &str) -> Option<&Term> {
        self.map.get(var)
    }

    /// Binds `var ↦ term`. Returns `Err(existing)` if the variable is already
    /// bound to a *different* term (binding the same term again is a no-op).
    pub(crate) fn bind(&mut self, var: &str, term: Term) -> Result<(), Term> {
        match self.map.get(var) {
            Some(existing) if *existing != term => Err(existing.clone()),
            Some(_) => Ok(()),
            None => {
                self.map.insert(var.to_string(), term);
                Ok(())
            }
        }
    }

    /// Applies the substitution to a term.
    fn apply_term(&self, term: &Term) -> Term {
        match term {
            Term::Var(v) => self.map.get(v).cloned().unwrap_or_else(|| term.clone()),
            other => other.clone(),
        }
    }

    /// Applies the substitution to every argument of an atom.
    pub fn apply_atom(&self, atom: &Atom) -> Atom {
        Atom::new(atom.relation(), atom.terms().iter().map(|t| self.apply_term(t)).collect())
    }

    /// Applies the substitution to a tuple of terms.
    pub fn apply_tuple(&self, terms: &[Term]) -> Vec<Term> {
        terms.iter().map(|t| self.apply_term(t)).collect()
    }

    /// Attempts to extend this substitution so that it unifies the tuple of
    /// terms `pattern` with the tuple of *ground* terms `target`
    /// (componentwise). Constants in the pattern must match exactly.
    ///
    /// Returns `false` (leaving `self` possibly partially extended) when
    /// unification fails; callers that need rollback should clone first.
    pub fn unify_tuples(&mut self, pattern: &[Term], target: &[Term]) -> bool {
        if pattern.len() != target.len() {
            return false;
        }
        for (p, t) in pattern.iter().zip(target) {
            match p {
                Term::Var(v) => {
                    if self.bind(v, t.clone()).is_err() {
                        return false;
                    }
                }
                other => {
                    if other != t {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl fmt::Display for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{v} -> {t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigma() -> Substitution {
        Substitution::from_pairs([
            ("x".to_string(), Term::constant("c1")),
            ("y".to_string(), Term::var("z")),
        ])
    }

    #[test]
    fn identity_leaves_everything_unchanged() {
        let id = Substitution::identity();
        assert!(id.is_empty());
        assert_eq!(id.apply_term(&Term::var("x")), Term::var("x"));
        let a = Atom::new("R", vec![Term::var("x"), Term::constant("c")]);
        assert_eq!(id.apply_atom(&a), a);
    }

    #[test]
    fn application_to_terms_and_atoms() {
        let s = sigma();
        assert_eq!(s.apply_term(&Term::var("x")), Term::constant("c1"));
        assert_eq!(s.apply_term(&Term::var("y")), Term::var("z"));
        // Variables outside the domain are untouched.
        assert_eq!(s.apply_term(&Term::var("w")), Term::var("w"));
        // Constants are never touched.
        assert_eq!(s.apply_term(&Term::constant("x")), Term::constant("x"));
        let a = Atom::new("R", vec![Term::var("x"), Term::var("y"), Term::var("w")]);
        assert_eq!(
            s.apply_atom(&a),
            Atom::new("R", vec![Term::constant("c1"), Term::var("z"), Term::var("w")])
        );
    }

    #[test]
    fn binding_conflicts_are_reported() {
        let mut s = Substitution::identity();
        assert!(s.bind("x", Term::constant("c1")).is_ok());
        // Re-binding to the same term is fine.
        assert!(s.bind("x", Term::constant("c1")).is_ok());
        // Conflicting binding fails and reports the existing image.
        assert_eq!(s.bind("x", Term::constant("c2")), Err(Term::constant("c1")));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn tuple_unification() {
        let mut s = Substitution::identity();
        // (x, y, x) unifies with (c1, c2, c1).
        assert!(s.unify_tuples(
            &[Term::var("x"), Term::var("y"), Term::var("x")],
            &[Term::constant("c1"), Term::constant("c2"), Term::constant("c1")]
        ));
        assert_eq!(s.get("x"), Some(&Term::constant("c1")));

        // (x, x) does not unify with (c1, c2).
        let mut s2 = Substitution::identity();
        assert!(!s2.unify_tuples(
            &[Term::var("x"), Term::var("x")],
            &[Term::constant("c1"), Term::constant("c2")]
        ));

        // Constants in the pattern must match exactly.
        let mut s3 = Substitution::identity();
        assert!(!s3.unify_tuples(&[Term::constant("a")], &[Term::constant("b")]));
        assert!(s3.unify_tuples(&[Term::constant("a")], &[Term::constant("a")]));

        // Arity mismatch never unifies.
        let mut s4 = Substitution::identity();
        assert!(!s4.unify_tuples(&[Term::var("x")], &[]));
    }

    #[test]
    fn unification_respects_earlier_bindings() {
        // A variable bound before the call keeps its image: unification
        // extends the substitution and never rebinds.
        let mut s = Substitution::identity();
        s.bind("x", Term::constant("c1")).unwrap();
        assert!(!s.unify_tuples(&[Term::var("x")], &[Term::constant("c2")]));
        assert_eq!(s.get("x"), Some(&Term::constant("c1")));

        let mut s = Substitution::identity();
        s.bind("x", Term::constant("c1")).unwrap();
        assert!(s.unify_tuples(
            &[Term::var("x"), Term::var("y")],
            &[Term::constant("c1"), Term::constant("c2")]
        ));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get("y"), Some(&Term::constant("c2")));
        // The grown substitution maps the pattern onto the target.
        let pattern = Atom::new("R", vec![Term::var("x"), Term::var("y")]);
        assert_eq!(
            s.apply_atom(&pattern),
            Atom::new("R", vec![Term::constant("c1"), Term::constant("c2")])
        );
    }

    #[test]
    fn display() {
        let s = sigma();
        assert_eq!(s.to_string(), "{x -> 'c1'; y -> z}");
    }
}
