//! Conjunctive queries in bag representation.

use core::fmt;
use std::collections::{BTreeMap, BTreeSet};

use crate::atom::Atom;
use crate::substitution::Substitution;
use crate::term::Term;

/// A conjunctive query `q(x) ← R₁^{m₁}(…), …, Rₖ^{mₖ}(…)` in **bag
/// representation** `⟨x, µ_q⟩` (Section 2 of the paper): the body is the set
/// of *distinct* atoms together with the multiplicity of each atom in the
/// original conjunction.
///
/// The head is a tuple of terms; for queries as written by users these are
/// variables, but grounded queries `q(t)` (obtained by substituting a probe
/// tuple for the head variables) carry constants in the head.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConjunctiveQuery {
    name: String,
    head: Vec<Term>,
    body: BTreeMap<Atom, u64>,
}

impl ConjunctiveQuery {
    /// Builds a query from its head and `(atom, multiplicity)` pairs;
    /// multiplicities of repeated atoms accumulate, zero multiplicities are
    /// dropped.
    pub fn new(
        name: impl Into<String>,
        head: Vec<Term>,
        body: impl IntoIterator<Item = (Atom, u64)>,
    ) -> Self {
        let mut map: BTreeMap<Atom, u64> = BTreeMap::new();
        for (atom, mult) in body {
            if mult == 0 {
                continue;
            }
            *map.entry(atom).or_insert(0) += mult;
        }
        ConjunctiveQuery { name: name.into(), head, body: map }
    }

    /// Builds a query from a plain list of (possibly repeated) body atoms,
    /// counting repetitions — the translation from the classical syntactic
    /// form `∃y ⋀ᵢ Rᵢ(x, y)` to the bag representation.
    pub fn from_atom_list(name: impl Into<String>, head: Vec<Term>, atoms: Vec<Atom>) -> Self {
        ConjunctiveQuery::new(name, head, atoms.into_iter().map(|a| (a, 1)))
    }

    /// The query name (used only for display).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The head tuple (free variables, or constants after grounding).
    pub fn head(&self) -> &[Term] {
        &self.head
    }

    /// The arity of the query (length of the head tuple).
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// `true` iff the query is Boolean (empty head).
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// Iterates over the distinct body atoms with their multiplicities, in a
    /// deterministic order.
    pub fn body(&self) -> impl Iterator<Item = (&Atom, u64)> {
        self.body.iter().map(|(a, &m)| (a, m))
    }

    /// The set of distinct body atoms (`body(q)` in the paper).
    pub fn body_atoms(&self) -> impl ExactSizeIterator<Item = &Atom> + Clone {
        self.body.keys()
    }

    /// The multiplicity `µ_q(atom)` of a body atom (0 if absent).
    pub fn multiplicity(&self, atom: &Atom) -> u64 {
        self.body.get(atom).copied().unwrap_or(0)
    }

    /// Number of distinct body atoms.
    pub fn distinct_atom_count(&self) -> usize {
        self.body.len()
    }

    /// Total number of atom occurrences (counting multiplicities).
    pub fn total_atom_count(&self) -> u64 {
        self.body.values().sum()
    }

    /// All variable names occurring in the head.
    pub fn head_variables(&self) -> BTreeSet<String> {
        self.head.iter().filter_map(|t| t.as_var().map(str::to_string)).collect()
    }

    /// All variable names occurring in the body.
    pub fn body_variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for atom in self.body.keys() {
            out.extend(atom.variables());
        }
        out
    }

    /// All variable names occurring anywhere in the query (`var(q)`).
    pub fn variables(&self) -> BTreeSet<String> {
        let mut out = self.head_variables();
        out.extend(self.body_variables());
        out
    }

    /// The existential variables: body variables that are not free.
    pub fn existential_variables(&self) -> BTreeSet<String> {
        let head = self.head_variables();
        self.body_variables().into_iter().filter(|v| !head.contains(v)).collect()
    }

    /// `true` iff the query is projection-free (no existential variables).
    pub fn is_projection_free(&self) -> bool {
        self.existential_variables().is_empty()
    }

    /// `true` iff every head variable also occurs in the body (the usual
    /// safety condition; required by the containment deciders).
    pub fn is_safe(&self) -> bool {
        let body = self.body_variables();
        self.head_variables().iter().all(|v| body.contains(v))
    }

    /// The constants (language and canonical) occurring in the query
    /// (`adom(q)` in the paper).
    pub fn constants(&self) -> BTreeSet<Term> {
        let mut out: BTreeSet<Term> =
            self.head.iter().filter(|t| t.is_constant()).cloned().collect();
        for atom in self.body.keys() {
            out.extend(atom.constants());
        }
        out
    }

    /// The canonical instance `I_q`: the set of ground atoms obtained by
    /// replacing every variable `x` with its canonical constant `x̂`.
    pub fn canonical_instance(&self) -> BTreeSet<Atom> {
        self.body.keys().map(Atom::canonicalize).collect()
    }

    /// Applies a substitution `σ` to the query, producing `σ(q)`:
    /// the head becomes `σ(x)` and body multiplicities accumulate over atoms
    /// that become equal (Equation 1 of the paper).
    pub fn apply_substitution(&self, sigma: &Substitution) -> ConjunctiveQuery {
        let head = sigma.apply_tuple(&self.head);
        let mut body: BTreeMap<Atom, u64> = BTreeMap::new();
        for (atom, mult) in &self.body {
            *body.entry(sigma.apply_atom(atom)).or_insert(0) += mult;
        }
        ConjunctiveQuery { name: self.name.clone(), head, body }
    }

    /// Grounds the query with a tuple `t`: unifies the head with `t` and
    /// applies the resulting substitution, yielding `q(t)`.
    ///
    /// Returns `None` if the head is not unifiable with `t` (repeated head
    /// variables that would need two different values, or a head constant
    /// that differs from the corresponding component of `t`).
    pub fn ground_with(&self, tuple: &[Term]) -> Option<ConjunctiveQuery> {
        self.ground_with_tuple(tuple.to_vec())
    }

    /// [`Self::ground_with`] taking ownership of the tuple, which becomes the
    /// grounded head — the probe-compilation hot path materialises the tuple
    /// anyway and hands it over instead of re-cloning every component.
    pub fn ground_with_tuple(&self, tuple: Vec<Term>) -> Option<ConjunctiveQuery> {
        if tuple.len() != self.head.len() {
            return None;
        }
        // A variable's image is the tuple component at the first head
        // position that holds it: heads are short, and the substitution
        // machinery would allocate owned names and term clones per probe on
        // the compilation hot path. Body variables outside the head
        // (non-projection-free queries) are left unchanged, exactly as an
        // under-defined substitution would.
        let image = |v: &str| {
            let position = self.head.iter().position(|h| h.as_var() == Some(v))?;
            Some(&tuple[position])
        };
        for (pattern, target) in self.head.iter().zip(&tuple) {
            let expected = match pattern.as_var() {
                Some(v) => image(v).expect("a head variable is in the head"),
                None => pattern,
            };
            if expected != target {
                return None;
            }
        }
        // Unification succeeded, so the grounded head is the tuple itself;
        // multiplicities of body atoms that collapse under the grounding
        // accumulate in ConjunctiveQuery::new (Equation 1).
        let subst = |t: &Term| match t.as_var().and_then(image) {
            Some(img) => img.clone(),
            None => t.clone(),
        };
        let body = self.body.iter().map(|(atom, &mult)| {
            (Atom::new(atom.relation(), atom.terms().iter().map(&subst).collect()), mult)
        });
        // The body borrows the tuple's terms, so the tuple moves in last.
        let mut grounded = ConjunctiveQuery::new(self.name.clone(), Vec::new(), body);
        grounded.head = tuple;
        Some(grounded)
    }

    /// The *most-general grounding* `q(t*)`: every head variable is replaced
    /// by its canonical constant (Theorem 5.3's most-general probe tuple).
    pub fn most_general_grounding(&self) -> ConjunctiveQuery {
        let tuple: Vec<Term> = self.head.iter().map(Term::canonicalize).collect();
        self.ground_with_tuple(tuple)
            .expect("the most-general probe tuple always unifies with the head")
    }

    /// Renames the query (display only).
    pub fn with_name(mut self, name: impl Into<String>) -> ConjunctiveQuery {
        self.name = name.into();
        self
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ") <- ")?;
        if self.body.is_empty() {
            write!(f, "true")?;
        } else {
            for (i, (atom, mult)) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                if mult == &1 {
                    write!(f, "{atom}")?;
                } else {
                    write!(f, "{}^{}(", atom.relation(), mult)?;
                    for (j, t) in atom.terms().iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{t}")?;
                    }
                    write!(f, ")")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    /// The paper's Section 2 example:
    /// q(x1,x2) ← R²(x1,y1), R(x1,y2), P²(y2,y3), P(x2,y4).
    pub(crate) fn paper_q3() -> ConjunctiveQuery {
        ConjunctiveQuery::from_atom_list(
            "q",
            vec![v("x1"), v("x2")],
            vec![
                Atom::new("R", vec![v("x1"), v("y1")]),
                Atom::new("R", vec![v("x1"), v("y1")]),
                Atom::new("R", vec![v("x1"), v("y2")]),
                Atom::new("P", vec![v("y2"), v("y3")]),
                Atom::new("P", vec![v("y2"), v("y3")]),
                Atom::new("P", vec![v("x2"), v("y4")]),
            ],
        )
    }

    #[test]
    fn bag_representation_matches_paper() {
        let q = paper_q3();
        assert_eq!(q.distinct_atom_count(), 4);
        assert_eq!(q.total_atom_count(), 6);
        assert_eq!(q.multiplicity(&Atom::new("R", vec![v("x1"), v("y1")])), 2);
        assert_eq!(q.multiplicity(&Atom::new("R", vec![v("x1"), v("y2")])), 1);
        assert_eq!(q.multiplicity(&Atom::new("P", vec![v("y2"), v("y3")])), 2);
        assert_eq!(q.multiplicity(&Atom::new("P", vec![v("x2"), v("y4")])), 1);
        assert_eq!(q.multiplicity(&Atom::new("P", vec![v("z"), v("z")])), 0);
    }

    #[test]
    fn variable_classification() {
        let q = paper_q3();
        assert_eq!(q.arity(), 2);
        assert!(!q.is_boolean());
        assert_eq!(q.head_variables().len(), 2);
        assert_eq!(
            q.existential_variables(),
            BTreeSet::from(["y1".into(), "y2".into(), "y3".into(), "y4".into()])
        );
        assert!(!q.is_projection_free());
        assert!(q.is_safe());

        // A projection-free query.
        let pf = ConjunctiveQuery::from_atom_list(
            "p",
            vec![v("x1"), v("x2")],
            vec![Atom::new("R", vec![v("x1"), v("x2")]), Atom::new("P", vec![v("x2"), v("x2")])],
        );
        assert!(pf.is_projection_free());
        assert!(pf.is_safe());

        // An unsafe query: head variable not in body.
        let unsafe_q = ConjunctiveQuery::from_atom_list(
            "u",
            vec![v("x"), v("z")],
            vec![Atom::new("R", vec![v("x"), v("x")])],
        );
        assert!(!unsafe_q.is_safe());
        // z is free but never occurs existentially, so the query is still
        // projection-free by the definition (no existential variables).
        assert!(unsafe_q.is_projection_free());
    }

    #[test]
    fn substitution_merges_atoms_per_equation_1() {
        // The paper: σ = {y1,y2,y3,y4 ↦ x2} gives σ(q) = R³(x1,x2), P³(x2,x2).
        let q = paper_q3();
        let sigma = Substitution::from_pairs([
            ("y1".to_string(), v("x2")),
            ("y2".to_string(), v("x2")),
            ("y3".to_string(), v("x2")),
            ("y4".to_string(), v("x2")),
        ]);
        let sq = q.apply_substitution(&sigma);
        assert_eq!(sq.distinct_atom_count(), 2);
        assert_eq!(sq.total_atom_count(), 6);
        assert_eq!(sq.multiplicity(&Atom::new("R", vec![v("x1"), v("x2")])), 3);
        assert_eq!(sq.multiplicity(&Atom::new("P", vec![v("x2"), v("x2")])), 3);
        assert_eq!(sq.head(), &[v("x1"), v("x2")]);
    }

    #[test]
    fn grounding_with_probe_tuples() {
        let q = ConjunctiveQuery::from_atom_list(
            "q",
            vec![v("x1"), v("x2")],
            vec![
                Atom::new("R", vec![v("x1"), v("x2")]),
                Atom::new("R", vec![Term::constant("c1"), v("x2")]),
                Atom::new("R", vec![v("x1"), Term::constant("c2")]),
            ],
        );
        // Ground with (^x1, ^x2): nothing merges.
        let g = q.ground_with(&[Term::canon("x1"), Term::canon("x2")]).unwrap();
        assert_eq!(g.distinct_atom_count(), 3);
        assert!(g.body_atoms().all(Atom::is_ground));
        // Ground with (c1, c2): R(c1,c2) appears from all three atoms? No:
        // R(x1,x2) -> R(c1,c2), R(c1,x2) -> R(c1,c2), R(x1,c2) -> R(c1,c2): all merge.
        let g2 = q.ground_with(&[Term::constant("c1"), Term::constant("c2")]).unwrap();
        assert_eq!(g2.distinct_atom_count(), 1);
        assert_eq!(
            g2.multiplicity(&Atom::new("R", vec![Term::constant("c1"), Term::constant("c2")])),
            3
        );
        // Arity mismatch.
        assert!(q.ground_with(&[Term::constant("c1")]).is_none());
        // Repeated head variables need equal components.
        let rep = ConjunctiveQuery::from_atom_list(
            "r",
            vec![v("x"), v("x")],
            vec![Atom::new("R", vec![v("x"), v("x")])],
        );
        assert!(rep.ground_with(&[Term::constant("c1"), Term::constant("c2")]).is_none());
        assert!(rep.ground_with(&[Term::constant("c1"), Term::constant("c1")]).is_some());
    }

    #[test]
    fn most_general_grounding_uses_canonical_constants() {
        let q = paper_q3();
        let g = q.most_general_grounding();
        assert_eq!(g.head(), &[Term::canon("x1"), Term::canon("x2")]);
        // Existential variables stay as variables in the body.
        assert!(!g.body_variables().is_empty());
        assert_eq!(g.distinct_atom_count(), 4);
    }

    #[test]
    fn canonical_instance() {
        let q = paper_q3();
        let inst = q.canonical_instance();
        assert_eq!(inst.len(), 4);
        assert!(inst.contains(&Atom::new("R", vec![Term::canon("x1"), Term::canon("y1")])));
        assert!(inst.iter().all(Atom::is_ground));
    }

    #[test]
    fn constants_and_adom() {
        let q = ConjunctiveQuery::from_atom_list(
            "q",
            vec![v("x")],
            vec![
                Atom::new("R", vec![v("x"), Term::constant("c1")]),
                Atom::new("R", vec![Term::constant("c2"), v("x")]),
            ],
        );
        assert_eq!(q.constants(), BTreeSet::from([Term::constant("c1"), Term::constant("c2")]));
    }

    #[test]
    fn zero_multiplicity_atoms_are_dropped() {
        let q = ConjunctiveQuery::new(
            "q",
            vec![v("x")],
            [(Atom::new("R", vec![v("x"), v("x")]), 0u64), (Atom::new("S", vec![v("x")]), 2u64)],
        );
        assert_eq!(q.distinct_atom_count(), 1);
        assert_eq!(q.total_atom_count(), 2);
    }

    #[test]
    fn display_shows_multiplicities() {
        let q = paper_q3();
        let s = q.to_string();
        assert!(s.starts_with("q(x1, x2) <- "));
        assert!(s.contains("R^2(x1, y1)"));
        assert!(s.contains("R(x1, y2)"));
        let empty = ConjunctiveQuery::from_atom_list("b", vec![], vec![]);
        assert_eq!(empty.to_string(), "b() <- true");
    }

    #[test]
    fn boolean_queries() {
        let b = ConjunctiveQuery::from_atom_list(
            "b",
            vec![],
            vec![Atom::new("R", vec![Term::constant("a"), Term::constant("b")])],
        );
        assert!(b.is_boolean());
        assert!(b.is_projection_free() == b.existential_variables().is_empty());
        assert!(b.is_safe());
    }
}
