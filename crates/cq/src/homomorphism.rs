//! Containment-mapping enumeration.
//!
//! A homomorphism of a set of atoms `I₁` into a set of atoms `I₂` is a
//! substitution `h` defined on all variables of `I₁` with `h(I₁) ⊆ I₂`, and
//! a *containment mapping* from `q₂(x₂)` to `q₁(x₁)` is a homomorphism of
//! bodies with `h(x₂) = x₁` (Chandra–Merlin). The bag-containment pipeline
//! needs the variant `CM(q₂(x₂), q₁(t))`: homomorphisms of `body(q₂)` into
//! the canonical instance `I_{q₁(t)}` mapping the head of `q₂` to the probe
//! tuple `t`.
//!
//! One backtracking search serves every caller. It matches the distinct body
//! atoms of the containing query against a list of ground facts, binding
//! borrowed term images in a slot table that a trail unwinds, so it clones
//! no term and materialises no substitution. For each mapping found, the
//! visitor sees a [`MappingBindings`]: the image of every variable, and the
//! index of the fact that each distinct body atom matched. The facts are
//! the grounded containee's body atoms (probe compilation) or the canonical
//! instance of the containee (set containment). Atoms are matched most
//! constrained first (fewest candidate facts; the sort is stable, so ties
//! keep the body order) and candidates are tried in fact order, so mappings
//! arrive in a deterministic order.
//!
//! `dioph-bagdb`'s Equation-2 evaluator does not use this search: it keeps
//! its own naive one, so the re-check of a counterexample stays independent
//! of the decider.

use std::ops::{ControlFlow, Range};

use crate::atom::Atom;
use crate::query::ConjunctiveQuery;
use crate::substitution::Substitution;
use crate::term::Term;

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
    let mut out = Vec::new();
    let _ = try_for_each_containment_mapping(containing, containee, |h| {
        out.push(decanonicalize(h));
        ControlFlow::Continue(())
    });
    out
}

/// The first mapping [`containment_mappings`] would return, found without
/// enumerating the rest.
pub fn first_containment_mapping(
    containing: &ConjunctiveQuery,
    containee: &ConjunctiveQuery,
) -> Option<Substitution> {
    let mut first = None;
    let _ = try_for_each_containment_mapping(containing, containee, |h| {
        first = Some(decanonicalize(h));
        ControlFlow::Break(())
    });
    first
}

/// Decides classical **set containment** `q1 ⊑s q2` via the Chandra–Merlin
/// criterion: `q1 ⊑s q2` iff there is a containment mapping from `q2` to `q1`.
pub fn is_set_contained(containee: &ConjunctiveQuery, containing: &ConjunctiveQuery) -> bool {
    try_for_each_containment_mapping(containing, containee, |_| ControlFlow::Break(())).is_break()
}

/// Runs the search over the canonical instance of `containee`, with the
/// canonicalised head of `containee` as the target tuple.
fn try_for_each_containment_mapping(
    containing: &ConjunctiveQuery,
    containee: &ConjunctiveQuery,
    mut visit: impl FnMut(&MappingBindings<'_>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let instance = containee.canonical_instance();
    let head: Vec<Term> = containee.head().iter().map(Term::canonicalize).collect();
    search(containing, instance.iter(), &head, &mut visit)
}

/// Replaces canonical constants by their variables in every image.
fn decanonicalize(h: &MappingBindings<'_>) -> Substitution {
    Substitution::from_pairs(h.bindings().map(|(v, t)| (v.to_string(), t.decanonicalize())))
}

/// One containment mapping found by the search, borrowed — nothing is cloned
/// or materialised.
#[derive(Debug)]
pub struct MappingBindings<'a> {
    /// Every variable of the containing query, in first-occurrence order
    /// (head first, then body), with its image; all images are `Some` when a
    /// visitor observes the value.
    slots: Vec<(&'a str, Option<&'a Term>)>,
    /// For each distinct body atom of the containing query, in body order,
    /// the index of the fact it maps to.
    facts: Vec<usize>,
}

impl<'a> MappingBindings<'a> {
    /// The bound variables and their images.
    pub fn bindings(&self) -> impl Iterator<Item = (&'a str, &'a Term)> + '_ {
        self.slots.iter().filter_map(|&(v, image)| image.map(|t| (v, t)))
    }

    /// For each distinct body atom of the containing query, in its body
    /// order, the index of the fact `h(atom)` in the target. For
    /// [`for_each_containment_mapping_to_grounded`] the facts are the
    /// grounded containee's distinct body atoms in its body order.
    pub fn facts(&self) -> &[usize] {
        &self.facts
    }

    fn slot(&mut self, var: &'a str) -> usize {
        if let Some(i) = self.slots.iter().position(|(v, _)| *v == var) {
            i
        } else {
            self.slots.push((var, None));
            self.slots.len() - 1
        }
    }
}

/// A pre-resolved pattern term: a binding slot for a variable, or a ground
/// term matched by equality — so the search never touches variable names.
enum Pat<'a> {
    Slot(usize),
    Ground(&'a Term),
}

/// One distinct body atom of the containing query, resolved for the search.
struct Step {
    /// The atom's position in the containing query's body order.
    atom: usize,
    /// Its patterns, a range of [`Plan::pats`].
    pats: Range<usize>,
    /// The facts with the atom's relation and arity, a range of
    /// [`Plan::candidates`].
    candidates: Range<usize>,
}

/// Every step's patterns and candidates in two shared buffers, so the
/// set-up allocates a fixed handful of vectors whatever the body size.
struct Plan<'a> {
    /// The steps, most constrained first.
    steps: Vec<Step>,
    pats: Vec<Pat<'a>>,
    /// Candidate facts as `(index, fact)`.
    candidates: Vec<(usize, &'a Atom)>,
}

/// Enumerates `CM(q₂(x₂), q₁(t))` for a grounded containee `q₁(t)`: the
/// facts are its distinct body atoms and `t` is its head. A whole
/// enumeration performs only the handful of set-up allocations of the
/// search, independent of how many mappings exist.
///
/// # Panics
/// Panics if the grounded containee's body contains a variable (its head is
/// only debug-asserted ground).
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
    debug_assert!(
        grounded_containee.head().iter().all(Term::is_constant),
        "containment mappings to a grounded query need a ground head"
    );
    // The canonical instance of a grounded projection-free query is its own
    // body, since grounding left no variables.
    search(containing, grounded_containee.body_atoms(), grounded_containee.head(), &mut visit)
}

/// The containment-mapping search: homomorphisms of `body(containing)` into
/// the ground `facts` that map the head of `containing` onto `tuple`.
fn search<'a>(
    containing: &'a ConjunctiveQuery,
    facts: impl Iterator<Item = &'a Atom> + Clone,
    tuple: &'a [Term],
    visit: &mut impl FnMut(&MappingBindings<'a>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if containing.arity() != tuple.len() {
        return ControlFlow::Continue(());
    }
    // Every variable occupies a head or body position, which bounds the
    // slot count.
    let body_positions: usize = containing.body_atoms().map(|a| a.terms().len()).sum();
    let mut bindings = MappingBindings {
        slots: Vec::with_capacity(containing.arity() + body_positions),
        facts: vec![0; containing.distinct_atom_count()],
    };

    // Seed: the head of the containing query must map componentwise onto the
    // tuple (constants by equality, variables by consistent binding).
    for (pattern, target) in containing.head().iter().zip(tuple) {
        match pattern {
            Term::Var(v) => {
                let i = bindings.slot(v);
                match bindings.slots[i].1 {
                    Some(existing) if existing != target => return ControlFlow::Continue(()),
                    _ => bindings.slots[i].1 = Some(target),
                }
            }
            other if other != target => return ControlFlow::Continue(()),
            _ => {}
        }
    }

    assert!(
        facts.clone().all(Atom::is_ground),
        "containment mappings into a grounded query need a ground body"
    );

    // Pre-resolve each distinct containing atom to slot/ground patterns and
    // its candidate facts, then order most-constrained-first.
    let candidate_count = containing
        .body_atoms()
        .map(|atom| facts.clone().filter(|f| f.same_schema(atom)).count())
        .sum();
    let mut plan = Plan {
        steps: Vec::with_capacity(containing.distinct_atom_count()),
        pats: Vec::with_capacity(body_positions),
        candidates: Vec::with_capacity(candidate_count),
    };
    for (index, atom) in containing.body_atoms().enumerate() {
        let (pats_start, candidates_start) = (plan.pats.len(), plan.candidates.len());
        plan.pats.extend(atom.terms().iter().map(|t| match t {
            Term::Var(v) => Pat::Slot(bindings.slot(v)),
            ground => Pat::Ground(ground),
        }));
        plan.candidates.extend(facts.clone().enumerate().filter(|(_, f)| f.same_schema(atom)));
        plan.steps.push(Step {
            atom: index,
            pats: pats_start..plan.pats.len(),
            candidates: candidates_start..plan.candidates.len(),
        });
    }
    plan.steps.sort_by_key(|step| step.candidates.len());

    // A slot is bound at most once along a branch, so the trail never
    // outgrows the slot table.
    let mut trail: Vec<usize> = Vec::with_capacity(bindings.slots.len());
    backtrack(&plan, &plan.steps, &mut bindings, &mut trail, visit)
}

fn backtrack<'a>(
    plan: &Plan<'a>,
    steps: &[Step],
    bindings: &mut MappingBindings<'a>,
    trail: &mut Vec<usize>,
    visit: &mut impl FnMut(&MappingBindings<'a>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Some((step, rest)) = steps.split_first() else {
        return visit(bindings);
    };
    let pats = &plan.pats[step.pats.clone()];
    for &(index, fact) in &plan.candidates[step.candidates.clone()] {
        let mark = trail.len();
        let mut ok = true;
        for (pat, target) in pats.iter().zip(fact.terms()) {
            match pat {
                Pat::Slot(i) => match bindings.slots[*i].1 {
                    Some(existing) => {
                        if existing != target {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        bindings.slots[*i].1 = Some(target);
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
            bindings.facts[step.atom] = index;
            backtrack(plan, rest, bindings, trail, visit)
        } else {
            ControlFlow::Continue(())
        };
        while trail.len() > mark {
            let i = trail.pop().expect("trail entries past the mark were just pushed");
            bindings.slots[i].1 = None;
        }
        flow?;
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_examples;

    fn v(n: &str) -> Term {
        Term::var(n)
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
    fn first_containment_mapping_is_the_first_of_all() {
        let queries = [
            paper_examples::section2_query_q1(),
            paper_examples::section2_query_q2(),
            paper_examples::section2_query_q3(),
            paper_examples::section3_query_q1(),
            paper_examples::section3_query_q2(),
        ];
        for containing in &queries {
            for containee in &queries {
                assert_eq!(
                    first_containment_mapping(containing, containee),
                    containment_mappings(containing, containee).into_iter().next(),
                    "{containing} into {containee}"
                );
            }
        }
    }

    /// Collects the mappings of `containing` into a grounded containee as
    /// owned substitutions.
    fn mappings_to_grounded(
        containing: &ConjunctiveQuery,
        grounded: &ConjunctiveQuery,
    ) -> Vec<Substitution> {
        let mut out = Vec::new();
        for_each_containment_mapping_to_grounded(containing, grounded, |h| {
            out.push(Substitution::from_pairs(
                h.bindings().map(|(v, t)| (v.to_string(), t.clone())),
            ));
        });
        out
    }

    #[test]
    fn paper_section3_containment_mappings_to_grounded() {
        // Section 3: q1(x1,x2) ← R²(x1,x2), R(c1,x2), R³(x1,c2) with probe x̂1x̂2,
        // and q2(x1,x2) ← R³(x1,x2), R²(x1,y1), R²(y2,y1) has exactly three
        // containment mappings h1, h2, h3 into q1(x̂1, x̂2).
        let q1 = paper_examples::section3_query_q1();
        let q2 = paper_examples::section3_query_q2();
        let grounded = q1.ground_with(&[Term::canon("x1"), Term::canon("x2")]).unwrap();
        let mappings = mappings_to_grounded(&q2, &grounded);
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
    fn facts_name_the_image_of_each_body_atom() {
        let q1 = paper_examples::section3_query_q1();
        let q2 = paper_examples::section3_query_q2();
        let grounded = q1.ground_with(&[Term::canon("x1"), Term::canon("x2")]).unwrap();
        let facts: Vec<&Atom> = grounded.body_atoms().collect();
        let mut seen = 0;
        for_each_containment_mapping_to_grounded(&q2, &grounded, |h| {
            seen += 1;
            let sigma =
                Substitution::from_pairs(h.bindings().map(|(v, t)| (v.to_string(), t.clone())));
            assert_eq!(h.facts().len(), q2.distinct_atom_count());
            for (atom, &j) in q2.body_atoms().zip(h.facts()) {
                assert_eq!(facts[j], &sigma.apply_atom(atom));
            }
        });
        assert_eq!(seen, 3);
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
