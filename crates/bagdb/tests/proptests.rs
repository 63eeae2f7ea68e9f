//! Property-based tests for the bag relational engine.
//!
//! The central object is Equation 2 of the paper; the properties below pin
//! down its interaction with the bag structure (monotonicity, scaling,
//! support restriction, consistency with set semantics).

use dioph_arith::Natural;
use dioph_bagdb::{bag_answer_multiplicity, bag_answers, set_answers, BagInstance, SetInstance};
use std::collections::BTreeSet;

use dioph_cq::{for_each_containment_mapping_to_grounded, Atom, ConjunctiveQuery, Term};
use proptest::prelude::*;

fn constant(i: usize) -> Term {
    Term::constant(format!("c{i}"))
}

/// Random bag instances over a small universe of binary R-facts and unary
/// S-facts.
fn bag_strategy() -> impl Strategy<Value = BagInstance> {
    proptest::collection::vec(((0usize..3, 0usize..3), 0u64..4), 0..8).prop_map(|facts| {
        let mut bag = BagInstance::new();
        for ((a, b), mult) in facts {
            bag.add(Atom::new("R", vec![constant(a), constant(b)]), Natural::from(mult));
            if mult % 2 == 0 {
                bag.add(Atom::new("S", vec![constant(a)]), Natural::from(mult / 2));
            }
        }
        bag
    })
}

/// A small pool of fixed queries exercising joins, self-joins, constants and
/// repeated atoms.
fn query_pool() -> Vec<ConjunctiveQuery> {
    [
        "q0(x) <- R(x, y)",
        "q1(x, y) <- R(x, y)",
        "q2(x) <- R(x, x)",
        "q3(x) <- R(x, y), S(y)",
        "q4(x) <- R^2(x, y)",
        "q5(x, z) <- R(x, y), R(y, z)",
        "q6(x) <- R(x, 'c0')",
        "q7(x) <- R(x, y), R(x, w)",
    ]
    .iter()
    .map(|s| dioph_cq::parse_query(s).unwrap())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Set semantics = bag semantics with multiplicities erased: a tuple has a
    /// positive bag multiplicity iff it is a set answer over the support.
    #[test]
    fn bag_support_agrees_with_set_semantics(bag in bag_strategy(), qi in 0usize..8) {
        let query = &query_pool()[qi];
        let support: SetInstance = bag.support();
        let set = set_answers(query, &support);
        let bag_ans = bag_answers(query, &bag);
        for tuple in &set {
            prop_assert!(bag_ans.get(tuple).map(|m| !m.is_zero()).unwrap_or(false),
                "set answer {:?} missing from bag answers", tuple);
        }
        for tuple in bag_ans.keys() {
            prop_assert!(set.contains(tuple));
        }
    }

    /// Monotonicity: growing the bag (adding occurrences) never decreases any
    /// answer multiplicity.
    #[test]
    fn evaluation_is_monotone_in_the_bag(bag in bag_strategy(), extra in bag_strategy(), qi in 0usize..8) {
        let query = &query_pool()[qi];
        let mut bigger = bag.clone();
        for (fact, mult) in extra.iter() {
            bigger.add(fact.clone(), mult.clone());
        }
        let before = bag_answers(query, &bag);
        let after = bag_answers(query, &bigger);
        for (tuple, mult) in &before {
            let new_mult = after.get(tuple).cloned().unwrap_or_else(Natural::zero);
            prop_assert!(new_mult >= *mult, "answer {:?} decreased from {} to {}", tuple, mult, new_mult);
        }
    }

    /// Scaling: multiplying every fact multiplicity by k multiplies each
    /// answer multiplicity by k^(total atom count of the image query); in
    /// particular by at least k for non-empty bodies.
    #[test]
    fn uniform_scaling_scales_answers(bag in bag_strategy(), k in 2u64..4, qi in 0usize..8) {
        let query = &query_pool()[qi];
        let scaled = BagInstance::from_multiplicities(
            bag.iter().map(|(f, m)| (f.clone(), m * &Natural::from(k))),
        );
        let total_atoms = query.total_atom_count();
        let factor = Natural::from(k).pow(total_atoms);
        for (tuple, mult) in bag_answers(query, &bag) {
            let scaled_mult = bag_answer_multiplicity(query, &scaled, &tuple);
            prop_assert_eq!(&mult * &factor, scaled_mult);
        }
    }

    /// Restriction: restricting a bag to its own support changes nothing, and
    /// the subbag relation is reflexive and antisymmetric on the generated bags.
    #[test]
    fn restriction_and_subbag_laws(bag in bag_strategy(), other in bag_strategy()) {
        prop_assert_eq!(bag.restrict_to(&bag.support()), bag.clone());
        prop_assert!(bag.is_subbag_of(&bag));
        if bag.is_subbag_of(&other) && other.is_subbag_of(&bag) {
            prop_assert_eq!(bag, other);
        }
    }

    /// The all-ones bag counts homomorphisms: for every tuple over the
    /// support's constants, the answer multiplicity equals the number of
    /// homomorphisms producing that tuple — counted by `dioph-cq`'s
    /// containment-mapping search into the support with the tuple as head,
    /// a search this crate's evaluator does not use.
    #[test]
    fn ones_bag_counts_homomorphisms(bag in bag_strategy(), qi in 0usize..8) {
        let query = &query_pool()[qi];
        let support = bag.support();
        let ones = BagInstance::uniform_ones(&support);
        let answers = bag_answers(query, &ones);
        let domain: BTreeSet<Term> =
            support.facts().iter().flat_map(|f| f.terms().iter().cloned()).collect();
        let mut tuples: Vec<Vec<Term>> = vec![Vec::new()];
        for _ in 0..query.arity() {
            tuples = tuples
                .iter()
                .flat_map(|t| domain.iter().map(move |c| [t.clone(), vec![c.clone()]].concat()))
                .collect();
        }
        for tuple in tuples {
            let grounded = ConjunctiveQuery::new(
                "support",
                tuple.clone(),
                support.facts().iter().map(|f| (f.clone(), 1)),
            );
            let mut count = 0u64;
            for_each_containment_mapping_to_grounded(query, &grounded, |_| count += 1);
            let expected = (count > 0).then(|| Natural::from(count));
            prop_assert_eq!(answers.get(&tuple).cloned(), expected, "tuple {:?}", tuple);
        }
    }
}
