//! Property-based tests for the conjunctive-query model.

use std::collections::BTreeSet;

use dioph_cq::{
    containment_mappings, is_set_contained, parse_query, probe_tuples, Atom, ConjunctiveQuery,
    Substitution, Term,
};
use proptest::prelude::*;

/// A strategy for random terms over a small universe of variables/constants.
fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0usize..4).prop_map(|i| Term::var(format!("x{i}"))),
        (0usize..2).prop_map(|i| Term::var(format!("y{i}"))),
        (0usize..2).prop_map(|i| Term::constant(format!("c{i}"))),
    ]
}

fn atom_strategy() -> impl Strategy<Value = Atom> {
    (prop_oneof![Just("R"), Just("S"), Just("P")], proptest::collection::vec(term_strategy(), 1..3))
        .prop_map(|(rel, terms)| Atom::new(rel, terms))
}

/// Random CQs with a head drawn from the variables that occur in the body
/// (so the query is always safe).
fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    (proptest::collection::vec((atom_strategy(), 1u64..3), 1..5), any::<u64>()).prop_map(
        |(body, pick)| {
            let vars: Vec<String> = {
                let mut set = BTreeSet::new();
                for (a, _) in &body {
                    set.extend(a.variables());
                }
                set.into_iter().collect()
            };
            let head: Vec<Term> = if vars.is_empty() {
                Vec::new()
            } else {
                let arity = (pick as usize % vars.len().min(3)) + 1;
                (0..arity)
                    .map(|i| Term::var(vars[(pick as usize + i) % vars.len()].clone()))
                    .collect()
            };
            ConjunctiveQuery::new("q", head, body)
        },
    )
}

/// A substitution mapping each existential variable of the query to one of
/// its head variables or constants (a "specialisation").
fn specializing_substitution(query: &ConjunctiveQuery, salt: u64) -> Substitution {
    let mut targets: Vec<Term> = query.head().to_vec();
    targets.extend(query.constants());
    if targets.is_empty() {
        targets.push(Term::constant("c0"));
    }
    Substitution::from_pairs(
        query
            .existential_variables()
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, targets[(i + salt as usize) % targets.len()].clone())),
    )
}

/// The query with its head dropped.
fn boolean(query: &ConjunctiveQuery) -> ConjunctiveQuery {
    ConjunctiveQuery::new(query.name(), Vec::new(), query.body().map(|(a, m)| (a.clone(), m)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Display → parse is the identity on random queries.
    #[test]
    fn display_parse_roundtrip(q in query_strategy()) {
        let reparsed = parse_query(&q.to_string()).expect("display output must parse");
        prop_assert_eq!(reparsed, q);
    }

    /// Applying a substitution preserves the total atom count (Equation 1
    /// only merges atoms, it never loses occurrences).
    #[test]
    fn substitution_preserves_total_atom_count(q in query_strategy(), salt in any::<u64>()) {
        let sigma = specializing_substitution(&q, salt);
        let image = q.apply_substitution(&sigma);
        prop_assert_eq!(image.total_atom_count(), q.total_atom_count());
        prop_assert!(image.distinct_atom_count() <= q.distinct_atom_count());
        // The image of a specialisation is projection-free.
        prop_assert!(image.is_projection_free());
    }

    /// The canonical instance has exactly one fact per distinct body atom and
    /// is entirely ground.
    #[test]
    fn canonical_instance_shape(q in query_strategy()) {
        let inst = q.canonical_instance();
        prop_assert_eq!(inst.len(), q.distinct_atom_count());
        prop_assert!(inst.iter().all(Atom::is_ground));
    }

    /// Every query maps homomorphically onto its own canonical instance, and
    /// set containment is reflexive.
    #[test]
    fn canonical_homomorphism_exists(q in query_strategy()) {
        let homs = containment_mappings(&q, &q);
        prop_assert!(!homs.is_empty());
        prop_assert!(is_set_contained(&q, &q));
    }

    /// Homomorphisms returned by the search are genuine: applying them maps
    /// every body atom into the target's body. The heads are dropped so
    /// that the search ranges over all of `Hom(q, I_target)`.
    #[test]
    fn homomorphisms_are_valid(q in query_strategy(), target in query_strategy()) {
        let q = boolean(&q);
        let target = boolean(&target);
        for h in containment_mappings(&q, &target) {
            for atom in q.body_atoms() {
                let image = h.apply_atom(atom);
                prop_assert!(target.multiplicity(&image) > 0, "{} not in the target", image);
            }
        }
    }

    /// Chandra–Merlin soundness on specialisations: σ(q) is always
    /// set-contained in q (the containment mapping is σ itself).
    #[test]
    fn specialisations_are_set_contained(q in query_strategy(), salt in any::<u64>()) {
        let sigma = specializing_substitution(&q, salt);
        let image = q.apply_substitution(&sigma);
        prop_assert!(is_set_contained(&image, &q), "σ(q) must be set-contained in q for {q}");
        // And the witnessing containment-mapping set is non-empty.
        prop_assert!(!containment_mappings(&q, &image).is_empty());
    }

    /// Probe tuples: the most-general probe tuple is always present, every
    /// probe tuple is unifiable with the head, and the count is bounded by
    /// |domain|^arity.
    #[test]
    fn probe_tuple_properties(q in query_strategy()) {
        prop_assume!(q.head().iter().all(Term::is_var));
        let tuples = probe_tuples(&q);
        let domain = dioph_cq::canonical_active_domain(&q);
        prop_assert!(tuples.len() <= domain.len().pow(q.arity() as u32).max(1));
        let most_general = dioph_cq::most_general_probe_tuple(&q);
        prop_assert!(tuples.contains(&most_general));
        for t in &tuples {
            prop_assert!(q.ground_with(t).is_some(), "probe tuple {:?} must unify with the head", t);
        }
    }

    /// Grounding with the most-general probe tuple never merges distinct
    /// head variables' atoms beyond what canonicalisation does.
    #[test]
    fn most_general_grounding_is_canonical(q in query_strategy()) {
        prop_assume!(q.head().iter().all(Term::is_var));
        let grounded = q.most_general_grounding();
        prop_assert_eq!(grounded.total_atom_count(), q.total_atom_count());
        prop_assert!(grounded.head().iter().all(Term::is_constant));
    }
}
