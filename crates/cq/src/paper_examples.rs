//! The worked examples of the paper, as reusable constructors.
//!
//! These queries and instances appear verbatim in Sections 2–4 of
//! *"Attacking Diophantus"* and are used throughout the workspace as
//! correctness fixtures (experiments E1 and E2 in the README's experiments table).

use std::collections::{BTreeMap, BTreeSet};

use crate::atom::Atom;
use crate::query::ConjunctiveQuery;
use crate::term::Term;

fn v(name: &str) -> Term {
    Term::var(name)
}

fn c(name: &str) -> Term {
    Term::constant(name)
}

/// Section 2: `q1(x1,x2) ← R²(x1,x2), P³(x2,x2)`.
pub fn section2_query_q1() -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        "q1",
        vec![v("x1"), v("x2")],
        [(Atom::new("R", vec![v("x1"), v("x2")]), 2), (Atom::new("P", vec![v("x2"), v("x2")]), 3)],
    )
}

/// Section 2: `q2(x1,x2) ← R³(x1,x2), P³(x2,x2)`.
pub fn section2_query_q2() -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        "q2",
        vec![v("x1"), v("x2")],
        [(Atom::new("R", vec![v("x1"), v("x2")]), 3), (Atom::new("P", vec![v("x2"), v("x2")]), 3)],
    )
}

/// Section 2: `q3(x1,x2) ← R²(x1,y1), R(x1,y2), P²(y2,y3), P(x2,y4)`
/// (the query whose bag representation opens Section 2, called `q` there and
/// `q3` in the containment example).
pub fn section2_query_q3() -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        "q3",
        vec![v("x1"), v("x2")],
        [
            (Atom::new("R", vec![v("x1"), v("y1")]), 2),
            (Atom::new("R", vec![v("x1"), v("y2")]), 1),
            (Atom::new("P", vec![v("y2"), v("y3")]), 2),
            (Atom::new("P", vec![v("x2"), v("y4")]), 1),
        ],
    )
}

/// Section 2: the set instance `I = {R(c1,c2), R(c1,c3), P(c2,c4), P(c5,c4)}`.
pub fn section2_instance() -> BTreeSet<Atom> {
    [
        Atom::new("R", vec![c("c1"), c("c2")]),
        Atom::new("R", vec![c("c1"), c("c3")]),
        Atom::new("P", vec![c("c2"), c("c4")]),
        Atom::new("P", vec![c("c5"), c("c4")]),
    ]
    .into_iter()
    .collect()
}

/// Section 2: the bag `Iµ = {R²(c1,c2), R(c1,c3), P(c2,c4), P³(c5,c4)}` over
/// [`section2_instance`], represented as fact → multiplicity.
pub fn section2_bag() -> BTreeMap<Atom, u64> {
    [
        (Atom::new("R", vec![c("c1"), c("c2")]), 2),
        (Atom::new("R", vec![c("c1"), c("c3")]), 1),
        (Atom::new("P", vec![c("c2"), c("c4")]), 1),
        (Atom::new("P", vec![c("c5"), c("c4")]), 3),
    ]
    .into_iter()
    .collect()
}

/// Section 2: the bag instance `Iµ = {R²(c1,c2), P(c2,c2)}` used to show
/// `q2 ⋢b q1`.
pub fn section2_counterexample_bag() -> BTreeMap<Atom, u64> {
    [(Atom::new("R", vec![c("c1"), c("c2")]), 2), (Atom::new("P", vec![c("c2"), c("c2")]), 1)]
        .into_iter()
        .collect()
}

/// Section 3: the projection-free query
/// `q(x1,x2) ← R(x1,x2), R(c1,x2), R(x1,c2)` used to illustrate probe tuples
/// (it has sixteen probe tuples).
pub fn section3_probe_example() -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        "q",
        vec![v("x1"), v("x2")],
        [
            (Atom::new("R", vec![v("x1"), v("x2")]), 1),
            (Atom::new("R", vec![c("c1"), v("x2")]), 1),
            (Atom::new("R", vec![v("x1"), c("c2")]), 1),
        ],
    )
}

/// Section 3: the "bag variation" projection-free containee
/// `q1(x1,x2) ← R²(x1,x2), R(c1,x2), R³(x1,c2)`.
pub fn section3_query_q1() -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        "q1",
        vec![v("x1"), v("x2")],
        [
            (Atom::new("R", vec![v("x1"), v("x2")]), 2),
            (Atom::new("R", vec![c("c1"), v("x2")]), 1),
            (Atom::new("R", vec![v("x1"), c("c2")]), 3),
        ],
    )
}

/// Section 3: the containing query
/// `q2(x1,x2) ← R³(x1,x2), R²(x1,y1), R²(y2,y1)`.
pub fn section3_query_q2() -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        "q2",
        vec![v("x1"), v("x2")],
        [
            (Atom::new("R", vec![v("x1"), v("x2")]), 3),
            (Atom::new("R", vec![v("x1"), v("y1")]), 2),
            (Atom::new("R", vec![v("y2"), v("y1")]), 2),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section2_queries_have_expected_shape() {
        let q1 = section2_query_q1();
        let q2 = section2_query_q2();
        let q3 = section2_query_q3();
        assert!(q1.is_projection_free() && q2.is_projection_free());
        assert!(!q3.is_projection_free());
        assert_eq!(q1.total_atom_count(), 5);
        assert_eq!(q2.total_atom_count(), 6);
        assert_eq!(q3.total_atom_count(), 6);
        assert_eq!(q3.distinct_atom_count(), 4);
    }

    #[test]
    fn section2_instance_and_bag_are_consistent() {
        let instance = section2_instance();
        let bag = section2_bag();
        assert_eq!(instance.len(), 4);
        assert_eq!(bag.len(), 4);
        for atom in bag.keys() {
            assert!(instance.contains(atom), "bag fact {atom} must be in the set instance");
        }
        assert_eq!(bag[&Atom::new("P", vec![c("c5"), c("c4")])], 3);
    }

    #[test]
    fn section3_queries_have_expected_shape() {
        let probe_q = section3_probe_example();
        assert!(probe_q.is_projection_free());
        assert_eq!(probe_q.constants().len(), 2);
        let q1 = section3_query_q1();
        assert!(q1.is_projection_free());
        assert_eq!(q1.total_atom_count(), 6);
        let q2 = section3_query_q2();
        assert!(!q2.is_projection_free());
        assert_eq!(q2.existential_variables().len(), 2);
    }
}
