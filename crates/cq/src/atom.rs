//! Atoms `R(t1, …, tn)` over relation names and terms.

use core::fmt;
use std::collections::BTreeSet;

use crate::term::Term;

/// An atom: a relation name applied to a tuple of terms.
///
/// A *ground* atom (a.k.a. a fact) has no variables; relation instances and
/// canonical instances are sets of ground atoms.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Atom {
    relation: String,
    terms: Vec<Term>,
}

impl Atom {
    /// Builds an atom from a relation name and its argument terms.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom { relation: relation.into(), terms }
    }

    /// The relation name.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// The argument terms.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The arity (number of arguments).
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// `true` iff the atom contains no variables (it is a fact).
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(Term::is_constant)
    }

    /// The set of variable names occurring in the atom.
    pub fn variables(&self) -> BTreeSet<String> {
        self.terms.iter().filter_map(|t| t.as_var().map(str::to_string)).collect()
    }

    /// The set of constants (language and canonical) occurring in the atom.
    pub fn constants(&self) -> BTreeSet<Term> {
        self.terms.iter().filter(|t| t.is_constant()).cloned().collect()
    }

    /// Applies the `can(·)` bijection to every variable, producing the ground
    /// atom used in canonical instances.
    pub(crate) fn canonicalize(&self) -> Atom {
        Atom {
            relation: self.relation.clone(),
            terms: self.terms.iter().map(Term::canonicalize).collect(),
        }
    }

    /// `true` iff the two atoms share relation name and arity (so they could
    /// potentially be unified / matched).
    pub(crate) fn same_schema(&self, other: &Atom) -> bool {
        self.relation == other.relation && self.arity() == other.arity()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom_rxy() -> Atom {
        Atom::new("R", vec![Term::var("x"), Term::var("y")])
    }

    #[test]
    fn accessors() {
        let a = atom_rxy();
        assert_eq!(a.relation(), "R");
        assert_eq!(a.arity(), 2);
        assert!(!a.is_ground());
        assert_eq!(a.variables(), BTreeSet::from(["x".to_string(), "y".to_string()]));
        assert!(a.constants().is_empty());
    }

    #[test]
    fn ground_atoms() {
        let fact = Atom::new("R", vec![Term::constant("c1"), Term::constant("c2")]);
        assert!(fact.is_ground());
        assert!(fact.variables().is_empty());
        assert_eq!(fact.constants().len(), 2);
        let half = Atom::new("R", vec![Term::var("x"), Term::constant("c2")]);
        assert!(!half.is_ground());
    }

    #[test]
    fn canonicalisation() {
        let a = Atom::new("R", vec![Term::var("x"), Term::constant("c")]);
        let canon = a.canonicalize();
        assert!(canon.is_ground());
        assert_eq!(canon.terms()[0], Term::canon("x"));
        assert_eq!(canon.terms()[1], Term::constant("c"));
    }

    #[test]
    fn schema_compatibility() {
        let a = atom_rxy();
        let b = Atom::new("R", vec![Term::constant("c1"), Term::constant("c2")]);
        let c = Atom::new("P", vec![Term::var("x"), Term::var("y")]);
        let d = Atom::new("R", vec![Term::var("x")]);
        assert!(a.same_schema(&b));
        assert!(!a.same_schema(&c));
        assert!(!a.same_schema(&d));
    }

    #[test]
    fn display() {
        let a = Atom::new("R", vec![Term::var("x1"), Term::constant("c2"), Term::canon("y")]);
        assert_eq!(a.to_string(), "R(x1, 'c2', ^y)");
        let nullary = Atom::new("T", vec![]);
        assert_eq!(nullary.to_string(), "T()");
    }

    #[test]
    fn equality_and_ordering() {
        // Atoms are value types: same relation and terms means equal.
        assert_eq!(atom_rxy(), Atom::new("R", vec![Term::var("x"), Term::var("y")]));
        let mut set = BTreeSet::new();
        set.insert(atom_rxy());
        set.insert(atom_rxy());
        assert_eq!(set.len(), 1);
    }
}
