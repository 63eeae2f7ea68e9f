//! Evaluation of conjunctive queries under set and bag semantics.
//!
//! Set semantics is the classical one: an answer is any tuple `c` for which a
//! homomorphism of the query body into the instance maps the head to `c`.
//!
//! Bag semantics follows Equation 2 of the paper exactly: the multiplicity of
//! an answer tuple `c` over a bag `µ` is
//!
//! ```text
//!     qᵘ(c)  =  Σ_{h ∈ Hom(q, I), h(x) = c}   Π_{α ∈ body(h(q))}  µ(α)^{µ_{h(q)}(α)}
//! ```
//!
//! — the sum over homomorphisms of the product, over the distinct atoms of
//! the *image query* `h(q)`, of the atom's bag multiplicity raised to the
//! atom's multiplicity in `h(q)` (which accounts for body atoms that collapse
//! under `h`, per Equation 1).
//!
//! The homomorphisms come from a naive search private to this module, not
//! from the containment-mapping search of `dioph-cq`: the containment
//! decider compiles its MPIs from that search, so re-checking its
//! counterexamples with a separate one keeps the check independent.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dioph_arith::Natural;
use dioph_cq::{Atom, ConjunctiveQuery, Substitution, Term};

use crate::instance::{BagInstance, SetInstance};

/// Enumerates every homomorphism of `atoms` into the ground `instance`,
/// extending the partial substitution `seed`.
///
/// The returned substitutions bind every variable occurring in `atoms`
/// (plus whatever `seed` already bound).
///
/// # Panics
/// Panics if `instance` contains a non-ground atom.
fn homomorphisms_into(
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

    // Each atom's candidate list, looked up once; atoms with fewer
    // candidates are matched first (the sort is stable, so equal counts
    // keep the body order).
    let mut ordered: Vec<(&Atom, &[&Atom])> = atoms
        .iter()
        .map(|a| {
            let candidates =
                index.get(&(a.relation(), a.arity())).map(Vec::as_slice).unwrap_or(&[]);
            (a, candidates)
        })
        .collect();
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
fn query_homomorphisms(query: &ConjunctiveQuery, instance: &BTreeSet<Atom>) -> Vec<Substitution> {
    let atoms: Vec<Atom> = query.body_atoms().cloned().collect();
    homomorphisms_into(&atoms, instance, &Substitution::identity())
}

/// The answers of a query under **set semantics**: the set of head images of
/// homomorphisms into the instance.
pub fn set_answers(query: &ConjunctiveQuery, instance: &SetInstance) -> BTreeSet<Vec<Term>> {
    query_homomorphisms(query, instance.facts())
        .into_iter()
        .map(|h| h.apply_tuple(query.head()))
        .collect()
}

/// The answers of a query under **bag semantics** (Equation 2): a map from
/// answer tuples to their (positive) multiplicities.
///
/// Tuples that are not set-semantics answers have multiplicity zero and are
/// omitted from the map.
pub fn bag_answers(query: &ConjunctiveQuery, bag: &BagInstance) -> BTreeMap<Vec<Term>, Natural> {
    let support = bag.support();
    let mut out: BTreeMap<Vec<Term>, Natural> = BTreeMap::new();
    for h in query_homomorphisms(query, support.facts()) {
        let tuple = h.apply_tuple(query.head());
        let contribution = homomorphism_contribution(query, &h, bag);
        out.entry(tuple).and_modify(|m| *m += &contribution).or_insert(contribution);
    }
    // Homomorphisms can contribute zero only if the bag assigns zero to a
    // fact of its image, which cannot happen because the support is derived
    // from the bag itself; still, drop zeros defensively.
    out.retain(|_, m| !m.is_zero());
    out
}

/// The multiplicity of a single answer tuple under bag semantics.
pub fn bag_answer_multiplicity(
    query: &ConjunctiveQuery,
    bag: &BagInstance,
    tuple: &[Term],
) -> Natural {
    bag_answers(query, bag).remove(tuple).unwrap_or_else(Natural::zero)
}

/// The contribution of one homomorphism `h` to the multiplicity of its answer
/// tuple: `Π_{α ∈ body(h(q))} µ(α)^{µ_{h(q)}(α)}`.
fn homomorphism_contribution(
    query: &ConjunctiveQuery,
    h: &Substitution,
    bag: &BagInstance,
) -> Natural {
    // Build the image query h(q) with merged multiplicities (Equation 1).
    let image = query.apply_substitution(h);
    let mut product = Natural::one();
    for (atom, mult) in image.body() {
        let base = bag.multiplicity(atom);
        product = &product * &base.pow(mult);
        if product.is_zero() {
            break;
        }
    }
    product
}

/// A witness that one particular bag instance violates a containment
/// `containee ⊑b containing`: an answer tuple whose multiplicity in the
/// containee's bag answer strictly exceeds its multiplicity in the containing
/// query's answer.
///
/// Returned by [`bag_containment_holds_on`] so disagreement reports (and the
/// fuzzing oracle's shrinker) can say *which* tuple broke the containment,
/// not merely that one did.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BagViolation {
    /// The violating answer tuple.
    pub tuple: Vec<Term>,
    /// Multiplicity of `tuple` in the containee's answer over the bag.
    pub containee_multiplicity: Natural,
    /// Multiplicity of `tuple` in the containing query's answer over the bag.
    pub containing_multiplicity: Natural,
}

impl std::fmt::Display for BagViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tuple (")?;
        for (i, t) in self.tuple.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(
            f,
            ") has containee multiplicity {} > containing multiplicity {}",
            self.containee_multiplicity, self.containing_multiplicity
        )
    }
}

/// Checks that the bag answer of `containee` is a sub-bag of the bag answer
/// of `containing` on this particular bag instance — i.e. the containment
/// `containee ⊑b containing` is not *violated* by `bag`. On violation the
/// first offending tuple (in tuple order, so the result is deterministic) is
/// returned with both multiplicities.
///
/// This is the per-instance check used to validate extracted counterexamples,
/// by the random-refutation baseline and by the differential fuzzing oracle;
/// the full containment decision (quantifying over all bags) lives in
/// `dioph-containment`.
///
/// # Errors
/// The violation witness, when `bag` violates the containment.
pub fn bag_containment_holds_on(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
    bag: &BagInstance,
) -> Result<(), BagViolation> {
    let lhs = bag_answers(containee, bag);
    for (tuple, mult) in lhs {
        let rhs = bag_answer_multiplicity(containing, bag, &tuple);
        if mult > rhs {
            return Err(BagViolation {
                tuple,
                containee_multiplicity: mult,
                containing_multiplicity: rhs,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_cq::paper_examples;

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    fn c(n: &str) -> Term {
        Term::constant(n)
    }

    /// `Hom_{h(x)=t}(q(x), I)`: the homomorphisms of `body(q)` into
    /// `instance` that map the head onto `answer`.
    fn query_homomorphisms_with_answer(
        query: &ConjunctiveQuery,
        instance: &BTreeSet<Atom>,
        answer: &[Term],
    ) -> Vec<Substitution> {
        let mut seed = Substitution::identity();
        if !seed.unify_tuples(query.head(), answer) {
            return Vec::new();
        }
        let atoms: Vec<Atom> = query.body_atoms().cloned().collect();
        homomorphisms_into(&atoms, instance, &seed)
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
        let seed = Substitution::from_pairs([("x".to_string(), c("a"))]);
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

    fn nat(v: u64) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn paper_section2_bag_answers() {
        // The paper computes qµ = {c1c2^10, c1c5^30}.
        let q = paper_examples::section2_query_q3();
        let bag = BagInstance::from_u64_multiplicities(paper_examples::section2_bag());
        let answers = bag_answers(&q, &bag);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[&vec![c("c1"), c("c2")]], nat(10));
        assert_eq!(answers[&vec![c("c1"), c("c5")]], nat(30));
        assert_eq!(bag_answer_multiplicity(&q, &bag, &[c("c1"), c("c2")]), nat(10));
        // Non-answers have multiplicity zero.
        assert_eq!(bag_answer_multiplicity(&q, &bag, &[c("c2"), c("c2")]), nat(0));
    }

    #[test]
    fn paper_section2_set_answers() {
        let q = paper_examples::section2_query_q3();
        let inst = SetInstance::from_facts(paper_examples::section2_instance());
        let answers = set_answers(&q, &inst);
        assert_eq!(answers.len(), 2);
        assert!(answers.contains(&vec![c("c1"), c("c2")]));
        assert!(answers.contains(&vec![c("c1"), c("c5")]));
    }

    #[test]
    fn paper_section2_q1_q2_counterexample_bag() {
        // On Iµ = {R²(c1,c2), P(c2,c2)}: q1µ(c1,c2) = 4 and q2µ(c1,c2) = 8,
        // which shows q2 ⋢b q1 (and is consistent with q1 ⊑b q2).
        let q1 = paper_examples::section2_query_q1();
        let q2 = paper_examples::section2_query_q2();
        let bag =
            BagInstance::from_u64_multiplicities(paper_examples::section2_counterexample_bag());
        assert_eq!(bag_answer_multiplicity(&q1, &bag, &[c("c1"), c("c2")]), nat(4));
        assert_eq!(bag_answer_multiplicity(&q2, &bag, &[c("c1"), c("c2")]), nat(8));
        assert!(bag_containment_holds_on(&q1, &q2, &bag).is_ok());
        let violation = bag_containment_holds_on(&q2, &q1, &bag).unwrap_err();
        assert_eq!(violation.tuple, vec![c("c1"), c("c2")]);
        assert_eq!(violation.containee_multiplicity, nat(8));
        assert_eq!(violation.containing_multiplicity, nat(4));
        assert!(violation.to_string().contains("8 > containing multiplicity 4"));
    }

    #[test]
    fn uniform_bag_counts_homomorphisms() {
        // With all multiplicities 1, the bag answer of a tuple equals the
        // number of homomorphisms producing it.
        let q = paper_examples::section2_query_q3();
        let inst = SetInstance::from_facts(paper_examples::section2_instance());
        let ones = BagInstance::uniform_ones(&inst);
        let answers = bag_answers(&q, &ones);
        assert_eq!(answers[&vec![c("c1"), c("c2")]], nat(2));
        assert_eq!(answers[&vec![c("c1"), c("c5")]], nat(2));
    }

    #[test]
    fn boolean_query_multiplicity() {
        // b() <- R(a, b), R(a, b): multiplicity is µ(R(a,b))^2.
        let q = ConjunctiveQuery::new("b", vec![], [(Atom::new("R", vec![c("a"), c("b")]), 2u64)]);
        let bag = BagInstance::from_u64_multiplicities([(Atom::new("R", vec![c("a"), c("b")]), 5)]);
        assert_eq!(bag_answer_multiplicity(&q, &bag, &[]), nat(25));
        // On a bag missing the fact entirely the query has no answers.
        let empty = BagInstance::new();
        assert!(bag_answers(&q, &empty).is_empty());
    }

    #[test]
    fn existential_variables_sum_over_matches() {
        // q(x) <- R(x, y): multiplicity of 'a' is the sum of µ(R(a, *)).
        let q = dioph_cq::parse_query("q(x) <- R(x, y)").unwrap();
        let bag = BagInstance::from_u64_multiplicities([
            (Atom::new("R", vec![c("a"), c("b")]), 3),
            (Atom::new("R", vec![c("a"), c("d")]), 4),
            (Atom::new("R", vec![c("e"), c("d")]), 9),
        ]);
        assert_eq!(bag_answer_multiplicity(&q, &bag, &[c("a")]), nat(7));
        assert_eq!(bag_answer_multiplicity(&q, &bag, &[c("e")]), nat(9));
    }

    #[test]
    fn repeated_atoms_square_the_multiplicity() {
        // q(x) <- R^2(x, y): each match contributes µ(R(x,y))^2.
        let q = dioph_cq::parse_query("q(x) <- R^2(x, y)").unwrap();
        let bag = BagInstance::from_u64_multiplicities([
            (Atom::new("R", vec![c("a"), c("b")]), 3),
            (Atom::new("R", vec![c("a"), c("d")]), 4),
        ]);
        assert_eq!(bag_answer_multiplicity(&q, &bag, &[c("a")]), nat(9 + 16));
    }

    #[test]
    fn collapsing_homomorphism_merges_exponents() {
        // q(x) <- R(x, y1), R(x, y2): the homomorphism mapping y1 and y2 to
        // the same value makes the two atoms collapse, so its contribution is
        // µ^2 and not µ·µ per-atom (they coincide here, but the collapsed
        // image query must have a single atom of multiplicity 2 — Equation 1).
        let q = dioph_cq::parse_query("q(x) <- R(x, y1), R(x, y2)").unwrap();
        let bag = BagInstance::from_u64_multiplicities([
            (Atom::new("R", vec![c("a"), c("b")]), 2),
            (Atom::new("R", vec![c("a"), c("d")]), 3),
        ]);
        // Homomorphisms: (y1,y2) ∈ {b,d}²: contributions 4, 6, 6, 9 → 25.
        assert_eq!(bag_answer_multiplicity(&q, &bag, &[c("a")]), nat(25));
    }

    #[test]
    fn huge_multiplicities_stay_exact() {
        let q = dioph_cq::parse_query("q(x) <- R^3(x, y)").unwrap();
        let big = Natural::from(10u64).pow(20);
        let bag =
            BagInstance::from_multiplicities([(Atom::new("R", vec![c("a"), c("b")]), big.clone())]);
        assert_eq!(bag_answer_multiplicity(&q, &bag, &[c("a")]), big.pow(3));
    }
}
