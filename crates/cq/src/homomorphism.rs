//! Homomorphism and containment-mapping enumeration.
//!
//! A homomorphism of a set of atoms `I₁` into a set of atoms `I₂` is a
//! substitution `h` defined on all variables of `I₁` with `h(I₁) ⊆ I₂`.
//! `Hom(q(x), I)` collects the homomorphisms of `body(q(x))` into `I`, and a
//! *containment mapping* from `q₂(x₂)` to `q₁(x₁)` is a homomorphism of
//! bodies with `h(x₂) = x₁` (Chandra–Merlin). The bag-containment pipeline
//! needs the variant `CM(q₂(x₂), q₁(t))`: homomorphisms of `body(q₂)` into
//! the canonical instance `I_{q₁(t)}` mapping the head of `q₂` to the probe
//! tuple `t`.
//!
//! Enumeration is a straightforward backtracking search over the distinct
//! body atoms, matching each against the facts of the target instance with
//! the same relation and arity. Atoms are ordered so that the most
//! constrained (fewest candidate facts) are matched first, which keeps the
//! search shallow on the instances arising from canonical databases.

use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;

use crate::atom::Atom;
use crate::query::ConjunctiveQuery;
use crate::substitution::Substitution;
use crate::term::Term;

/// Enumerates every homomorphism of `atoms` into the ground `instance`,
/// extending the partial substitution `seed`.
///
/// The returned substitutions bind every variable occurring in `atoms`
/// (plus whatever `seed` already bound).
///
/// # Panics
/// Panics if `instance` contains a non-ground atom.
pub fn homomorphisms_into(
    atoms: &[Atom],
    instance: &BTreeSet<Atom>,
    seed: &Substitution,
) -> Vec<Substitution> {
    for fact in instance {
        assert!(fact.is_ground(), "homomorphism target must be a set of ground atoms");
    }

    // Index the instance by (relation, arity) for candidate lookup.
    let mut index: HashMap<(&str, usize), Vec<&Atom>> = HashMap::new();
    for fact in instance {
        index.entry((fact.relation(), fact.arity())).or_default().push(fact);
    }

    // Memoise each atom's candidate list up front: the backtracking search
    // revisits every depth once per partial assignment, and re-hashing the
    // (relation, arity) key at each node dominated the hot loop. One lookup
    // per atom here, zero lookups inside the search.
    let mut ordered: Vec<(&Atom, &[&Atom])> = atoms
        .iter()
        .map(|a| {
            let candidates =
                index.get(&(a.relation(), a.arity())).map(Vec::as_slice).unwrap_or(&[]);
            (a, candidates)
        })
        .collect();
    // Order atoms by ascending number of candidate facts (most constrained
    // first); the sort is stable, so equal counts keep the body order.
    ordered.sort_by_key(|(_, candidates)| candidates.len());

    let mut results = Vec::new();
    let mut current = seed.clone();
    search(&ordered, 0, &mut current, &mut results);
    results
}

fn search(
    atoms: &[(&Atom, &[&Atom])],
    depth: usize,
    current: &mut Substitution,
    results: &mut Vec<Substitution>,
) {
    let Some(&(atom, candidates)) = atoms.get(depth) else {
        results.push(current.clone());
        return;
    };
    for fact in candidates {
        let mut attempt = current.clone();
        if attempt.unify_tuples(atom.terms(), fact.terms()) {
            std::mem::swap(current, &mut attempt);
            search(atoms, depth + 1, current, results);
            std::mem::swap(current, &mut attempt);
        }
    }
}

/// `Hom(q(x), I)`: all homomorphisms of `body(q)` into the ground instance
/// `instance`.
pub fn query_homomorphisms(
    query: &ConjunctiveQuery,
    instance: &BTreeSet<Atom>,
) -> Vec<Substitution> {
    let atoms: Vec<Atom> = query.body_atoms().cloned().collect();
    homomorphisms_into(&atoms, instance, &Substitution::identity())
}

/// `Hom_{h(x)=t}(q(x), I)`: homomorphisms of `body(q)` into `instance` whose
/// restriction to the head maps it (componentwise) onto the ground tuple `t`.
///
/// Returns an empty vector when the head is not unifiable with `t`.
pub fn query_homomorphisms_with_answer(
    query: &ConjunctiveQuery,
    instance: &BTreeSet<Atom>,
    answer: &[Term],
) -> Vec<Substitution> {
    if answer.len() != query.arity() {
        return Vec::new();
    }
    let mut seed = Substitution::identity();
    if !seed.unify_tuples(query.head(), answer) {
        return Vec::new();
    }
    let atoms: Vec<Atom> = query.body_atoms().cloned().collect();
    homomorphisms_into(&atoms, instance, &seed)
}

/// `CM(q₂(x₂), q₁(x₁))`: classical containment mappings — homomorphisms of
/// `body(q₂)` into `body(q₁)` (viewed as the canonical instance of `q₁`) that
/// map the head of `q₂` to the head of `q₁`.
///
/// The mapping is returned "de-canonicalised": its images are variables and
/// constants of `q₁`, so that `h(q₂)` is a sub-query of `q₁` as in the paper.
pub fn containment_mappings(
    containing: &ConjunctiveQuery,
    containee: &ConjunctiveQuery,
) -> Vec<Substitution> {
    if containing.arity() != containee.arity() {
        return Vec::new();
    }
    let instance = containee.canonical_instance();
    let canonical_head: Vec<Term> = containee.head().iter().map(Term::canonicalize).collect();
    let mappings = query_homomorphisms_with_answer(containing, &instance, &canonical_head);
    mappings.into_iter().map(|m| decanonicalize_substitution(&m)).collect()
}

/// `CM(q₂(x₂), q₁(t))` for a *ground* query `q₁(t)` (Definition 3.3 and the
/// abuse of notation described in Section 2): homomorphisms of `body(q₂)`
/// into the canonical instance `I_{q₁(t)}` mapping the head of `q₂` to `t`.
pub fn containment_mappings_to_grounded(
    containing: &ConjunctiveQuery,
    grounded_containee: &ConjunctiveQuery,
) -> Vec<Substitution> {
    debug_assert!(
        grounded_containee.head().iter().all(Term::is_constant),
        "containment mappings to a grounded query need a ground head"
    );
    if !grounded_containee.body_atoms().all(Atom::is_ground) {
        // Body variables survive grounding only outside the projection-free
        // fragment; take the materialising route over the canonical instance.
        let tuple: Vec<Term> = grounded_containee.head().to_vec();
        let instance = grounded_containee.canonical_instance();
        return query_homomorphisms_with_answer(containing, &instance, &tuple);
    }
    let mut out = Vec::new();
    for_each_containment_mapping_to_grounded(containing, grounded_containee, |b| {
        out.push(Substitution::from_pairs(b.bindings().map(|(v, t)| (v.to_string(), t.clone()))));
    });
    out
}

/// The variable bindings of one containment mapping found by
/// [`for_each_containment_mapping_to_grounded`]: every variable of the
/// containing query paired with its image in the target instance, borrowed —
/// nothing is cloned or materialised.
#[derive(Debug)]
pub struct MappingBindings<'a> {
    /// Distinct variables in first-occurrence order (head first, then body).
    vars: Vec<&'a str>,
    /// Image of each variable; all `Some` when a visitor observes the value.
    images: Vec<Option<&'a Term>>,
}

impl<'a> MappingBindings<'a> {
    /// The image `h(var)`, if bound.
    pub fn image_of(&self, var: &str) -> Option<&'a Term> {
        self.vars.iter().position(|v| *v == var).and_then(|i| self.images[i])
    }

    /// The bound variables and their images.
    pub fn bindings(&self) -> impl Iterator<Item = (&'a str, &'a Term)> + '_ {
        self.vars.iter().zip(&self.images).filter_map(|(v, i)| i.map(|t| (*v, t)))
    }

    fn slot(&mut self, var: &'a str) -> usize {
        if let Some(i) = self.vars.iter().position(|v| *v == var) {
            i
        } else {
            self.vars.push(var);
            self.images.push(None);
            self.vars.len() - 1
        }
    }
}

/// A pre-resolved pattern term: a binding slot for a variable, or a ground
/// term matched by equality — so the search never touches variable names.
enum Pat<'a> {
    Slot(usize),
    Ground(&'a Term),
}

/// Visitor form of [`containment_mappings_to_grounded`] for the compilation
/// hot path: enumerates `CM(q₂(x₂), q₁(t))` without materialising
/// substitutions, cloning terms or building the canonical instance. The
/// backtracking search binds borrowed term images in a slot table and
/// unwinds them through a trail, so a whole enumeration performs only the
/// handful of set-up allocations — independent of how many mappings exist.
///
/// Mappings are visited in the same order [`containment_mappings_to_grounded`]
/// returns them.
///
/// # Panics
/// Panics if the grounded containee's body contains a variable (its head is
/// only debug-asserted ground, matching the materialising route).
pub fn for_each_containment_mapping_to_grounded<'a>(
    containing: &'a ConjunctiveQuery,
    grounded_containee: &'a ConjunctiveQuery,
    mut visit: impl FnMut(&MappingBindings<'a>),
) {
    let _ = try_for_each_containment_mapping_to_grounded(containing, grounded_containee, |h| {
        visit(h);
        ControlFlow::Continue(())
    });
}

/// [`for_each_containment_mapping_to_grounded`] with early exit: the search
/// stops at the first mapping whose visitor returns
/// [`ControlFlow::Break`], and the break is returned. Mappings before it are
/// visited in the same order as the full enumeration.
///
/// # Panics
/// As [`for_each_containment_mapping_to_grounded`].
pub fn try_for_each_containment_mapping_to_grounded<'a>(
    containing: &'a ConjunctiveQuery,
    grounded_containee: &'a ConjunctiveQuery,
    mut visit: impl FnMut(&MappingBindings<'a>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if containing.arity() != grounded_containee.arity() {
        return ControlFlow::Continue(());
    }
    let tuple = grounded_containee.head();
    debug_assert!(
        tuple.iter().all(Term::is_constant),
        "containment mappings to a grounded query need a ground head"
    );

    // Seed: the head of the containing query must map componentwise onto the
    // probe tuple (constants by equality, variables by consistent binding).
    let mut bindings = MappingBindings { vars: Vec::new(), images: Vec::new() };
    for (pattern, target) in containing.head().iter().zip(tuple) {
        match pattern {
            Term::Var(v) => {
                let i = bindings.slot(v);
                match bindings.images[i] {
                    Some(existing) if existing != target => return ControlFlow::Continue(()),
                    _ => bindings.images[i] = Some(target),
                }
            }
            other if other != target => return ControlFlow::Continue(()),
            _ => {}
        }
    }

    // The facts are the distinct body atoms of the grounded containee (its
    // canonical instance is itself, since grounding left no variables).
    let facts: Vec<&Atom> = grounded_containee.body_atoms().collect();
    assert!(
        facts.iter().all(|f| f.is_ground()),
        "containment mappings into a grounded query need a ground body"
    );

    // Pre-resolve each distinct containing atom to slot/ground patterns and
    // its candidate facts, then order most-constrained-first (stable, so
    // equal candidate counts keep the deterministic body order).
    let mut ordered: Vec<(Vec<Pat<'a>>, Vec<&'a Atom>)> = containing
        .body_atoms()
        .map(|atom| {
            let pats = atom
                .terms()
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Pat::Slot(bindings.slot(v)),
                    ground => Pat::Ground(ground),
                })
                .collect();
            let candidates = facts.iter().copied().filter(|f| f.same_schema(atom)).collect();
            (pats, candidates)
        })
        .collect();
    ordered.sort_by_key(|(_, candidates)| candidates.len());

    let mut trail: Vec<usize> = Vec::new();
    search_bindings(&ordered, 0, &mut bindings, &mut trail, &mut visit)
}

fn search_bindings<'a>(
    atoms: &[(Vec<Pat<'a>>, Vec<&'a Atom>)],
    depth: usize,
    bindings: &mut MappingBindings<'a>,
    trail: &mut Vec<usize>,
    visit: &mut impl FnMut(&MappingBindings<'a>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Some((pats, candidates)) = atoms.get(depth) else {
        return visit(bindings);
    };
    for fact in candidates {
        let mark = trail.len();
        let mut ok = true;
        for (pat, target) in pats.iter().zip(fact.terms()) {
            match pat {
                Pat::Slot(i) => match bindings.images[*i] {
                    Some(existing) => {
                        if existing != target {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        bindings.images[*i] = Some(target);
                        trail.push(*i);
                    }
                },
                Pat::Ground(g) => {
                    if *g != target {
                        ok = false;
                        break;
                    }
                }
            }
        }
        let flow = if ok {
            search_bindings(atoms, depth + 1, bindings, trail, visit)
        } else {
            ControlFlow::Continue(())
        };
        while trail.len() > mark {
            let i = trail.pop().expect("trail entries past the mark were just pushed");
            bindings.images[i] = None;
        }
        flow?;
    }
    ControlFlow::Continue(())
}

/// Replaces canonical constants by their variables in every image of the
/// substitution.
fn decanonicalize_substitution(sigma: &Substitution) -> Substitution {
    Substitution::from_pairs(sigma.bindings().map(|(v, t)| (v.to_string(), t.decanonicalize())))
}

/// Decides classical **set containment** `q1 ⊑s q2` via the Chandra–Merlin
/// criterion: `q1 ⊑s q2` iff there is a containment mapping from `q2` to `q1`.
pub fn is_set_contained(containee: &ConjunctiveQuery, containing: &ConjunctiveQuery) -> bool {
    !containment_mappings(containing, containee).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_examples;

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    fn c(n: &str) -> Term {
        Term::constant(n)
    }

    #[test]
    fn homomorphisms_into_small_instance() {
        // body: R(x, y), R(y, z); instance: R(a,b), R(b,c), R(b,b).
        let atoms =
            vec![Atom::new("R", vec![v("x"), v("y")]), Atom::new("R", vec![v("y"), v("z")])];
        let instance: BTreeSet<Atom> = [
            Atom::new("R", vec![c("a"), c("b")]),
            Atom::new("R", vec![c("b"), c("c")]),
            Atom::new("R", vec![c("b"), c("b")]),
        ]
        .into_iter()
        .collect();
        let homs = homomorphisms_into(&atoms, &instance, &Substitution::identity());
        // Paths of length 2: a->b->c, a->b->b, b->b->c, b->b->b.
        assert_eq!(homs.len(), 4);
        for h in &homs {
            for a in &atoms {
                assert!(instance.contains(&h.apply_atom(a)));
            }
        }
    }

    #[test]
    fn seed_constrains_the_search() {
        let atoms = vec![Atom::new("R", vec![v("x"), v("y")])];
        let instance: BTreeSet<Atom> = [
            Atom::new("R", vec![c("a"), c("b")]),
            Atom::new("R", vec![c("a"), c("c")]),
            Atom::new("R", vec![c("d"), c("b")]),
        ]
        .into_iter()
        .collect();
        let mut seed = Substitution::identity();
        seed.bind("x", c("a")).unwrap();
        let homs = homomorphisms_into(&atoms, &instance, &seed);
        assert_eq!(homs.len(), 2);
        assert!(homs.iter().all(|h| h.get("x") == Some(&c("a"))));
    }

    #[test]
    fn no_matching_relation_means_no_homomorphism() {
        let atoms = vec![Atom::new("S", vec![v("x")])];
        let instance: BTreeSet<Atom> = [Atom::new("R", vec![c("a")])].into_iter().collect();
        assert!(homomorphisms_into(&atoms, &instance, &Substitution::identity()).is_empty());
    }

    #[test]
    #[should_panic(expected = "ground atoms")]
    fn non_ground_instance_is_rejected() {
        let instance: BTreeSet<Atom> = [Atom::new("R", vec![v("x")])].into_iter().collect();
        let _ = homomorphisms_into(&[], &instance, &Substitution::identity());
    }

    #[test]
    fn paper_section2_homomorphism_counts() {
        // Paper Section 2: q(x1,x2) over instance I has exactly the four
        // homomorphisms h1..h4 (two per answer tuple).
        let q = paper_examples::section2_query_q3();
        let instance: BTreeSet<Atom> = [
            Atom::new("R", vec![c("c1"), c("c2")]),
            Atom::new("R", vec![c("c1"), c("c3")]),
            Atom::new("P", vec![c("c2"), c("c4")]),
            Atom::new("P", vec![c("c5"), c("c4")]),
        ]
        .into_iter()
        .collect();
        let all = query_homomorphisms(&q, &instance);
        assert_eq!(all.len(), 4);
        let to_c1c2 = query_homomorphisms_with_answer(&q, &instance, &[c("c1"), c("c2")]);
        assert_eq!(to_c1c2.len(), 2);
        let to_c1c5 = query_homomorphisms_with_answer(&q, &instance, &[c("c1"), c("c5")]);
        assert_eq!(to_c1c5.len(), 2);
        // Tuples that are not answers have no homomorphisms.
        assert!(query_homomorphisms_with_answer(&q, &instance, &[c("c2"), c("c2")]).is_empty());
    }

    #[test]
    fn paper_section2_containment_mappings() {
        // q1, q2, q3 from the paper's Section 2 containment example.
        let q1 = paper_examples::section2_query_q1();
        let q2 = paper_examples::section2_query_q2();
        let q3 = paper_examples::section2_query_q3();

        // The identity is the unique containment mapping between q1 and q2.
        assert_eq!(containment_mappings(&q1, &q2).len(), 1);
        assert_eq!(containment_mappings(&q2, &q1).len(), 1);
        // σ = {y1,y2,y3,y4 ↦ x2} is the unique containment mapping of q3 into q1 and q2.
        let cm31 = containment_mappings(&q3, &q1);
        assert_eq!(cm31.len(), 1);
        assert_eq!(cm31[0].get("y1"), Some(&v("x2")));
        assert_eq!(cm31[0].get("y4"), Some(&v("x2")));
        assert_eq!(containment_mappings(&q3, &q2).len(), 1);
        // No containment mappings from q1 or q2 to q3.
        assert!(containment_mappings(&q1, &q3).is_empty());
        assert!(containment_mappings(&q2, &q3).is_empty());
    }

    #[test]
    fn paper_section2_set_containment_relations() {
        let q1 = paper_examples::section2_query_q1();
        let q2 = paper_examples::section2_query_q2();
        let q3 = paper_examples::section2_query_q3();
        // From the paper: q1 ⊑s q2, q2 ⊑s q1, q1 ⊑s q3, q2 ⊑s q3, q3 ⋢s q1, q3 ⋢s q2.
        assert!(is_set_contained(&q1, &q2));
        assert!(is_set_contained(&q2, &q1));
        assert!(is_set_contained(&q1, &q3));
        assert!(is_set_contained(&q2, &q3));
        assert!(!is_set_contained(&q3, &q1));
        assert!(!is_set_contained(&q3, &q2));
    }

    #[test]
    fn paper_section3_containment_mappings_to_grounded() {
        // Section 3: q1(x1,x2) ← R²(x1,x2), R(c1,x2), R³(x1,c2) with probe x̂1x̂2,
        // and q2(x1,x2) ← R³(x1,x2), R²(x1,y1), R²(y2,y1) has exactly three
        // containment mappings h1, h2, h3 into q1(x̂1, x̂2).
        let q1 = paper_examples::section3_query_q1();
        let q2 = paper_examples::section3_query_q2();
        let grounded = q1.ground_with(&[Term::canon("x1"), Term::canon("x2")]).unwrap();
        let mappings = containment_mappings_to_grounded(&q2, &grounded);
        assert_eq!(mappings.len(), 3);
        for h in &mappings {
            assert_eq!(h.get("x1"), Some(&Term::canon("x1")));
            assert_eq!(h.get("x2"), Some(&Term::canon("x2")));
        }
        // The images of (y1, y2) across the three mappings are exactly
        // {(x̂2, x̂1), (x̂2, c1), (c2, x̂1)}.
        let mut images: Vec<(Term, Term)> = mappings
            .iter()
            .map(|h| (h.get("y1").unwrap().clone(), h.get("y2").unwrap().clone()))
            .collect();
        images.sort();
        let mut expected = vec![
            (Term::canon("x2"), Term::canon("x1")),
            (Term::canon("x2"), Term::constant("c1")),
            (Term::constant("c2"), Term::canon("x1")),
        ];
        expected.sort();
        assert_eq!(images, expected);
    }

    #[test]
    fn arity_mismatch_yields_no_containment_mappings() {
        let q1 = ConjunctiveQuery::from_atom_list(
            "q1",
            vec![v("x")],
            vec![Atom::new("R", vec![v("x"), v("x")])],
        );
        let q2 = ConjunctiveQuery::from_atom_list(
            "q2",
            vec![v("x"), v("y")],
            vec![Atom::new("R", vec![v("x"), v("y")])],
        );
        assert!(containment_mappings(&q2, &q1).is_empty());
        assert!(!is_set_contained(&q1, &q2));
    }
}
