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

use std::collections::{BTreeMap, BTreeSet};

use dioph_arith::Natural;
use dioph_cq::{query_homomorphisms, ConjunctiveQuery, Substitution, Term};

use crate::instance::{BagInstance, SetInstance};

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
    use dioph_cq::Atom;

    fn c(n: &str) -> Term {
        Term::constant(n)
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
