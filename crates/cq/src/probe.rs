//! Probe tuples (Definition 3.1 of the paper).
//!
//! Given a projection-free CQ `q(x)` over an n-tuple of free variables, a
//! *probe tuple* is an n-tuple of constants drawn from the active domain of
//! the canonical instance `I_{q(x)}` — i.e. from the canonical constants of
//! the variables of `q` plus the language constants of `q` — that is
//! unifiable with `x` (positions carrying the same variable receive the same
//! constant).
//!
//! Theorem 3.1 checks bag containment over every probe tuple; Theorem 5.3
//! later shows the single *most-general* probe tuple suffices. Both sets are
//! produced here.

use std::collections::BTreeSet;

use crate::query::ConjunctiveQuery;
use crate::term::Term;

/// The active domain of the canonical instance `I_{q(x)}`: canonical
/// constants of the query's variables plus its language constants.
pub fn canonical_active_domain(query: &ConjunctiveQuery) -> BTreeSet<Term> {
    let mut domain: BTreeSet<Term> = query.variables().into_iter().map(Term::CanonConst).collect();
    domain.extend(query.constants());
    domain
}

/// The indexed space of candidate probe tuples of a query: every
/// `|head|`-tuple over the canonical active domain, addressable by a dense
/// raw index in `0..raw_len()`.
///
/// Candidate tuples are ordered lexicographically over the sorted domain
/// (position 0 is the most significant digit), which is exactly the order
/// [`probe_tuples`] has always produced — so any consumer that resolves raw
/// indices in ascending order sees the same probe sequence as the
/// materialising enumeration. Random access is what lets a parallel decider
/// hand out probe *indices* to worker threads instead of cloning an
/// exponential `Vec` of tuples: each worker decodes only the tuples it
/// claims, in O(arity) per tuple.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProbeSpace {
    arity: usize,
    /// `(i, j)` for each head position `i` whose variable first occurs at
    /// position `j < i`: a candidate tuple unifies with the head iff it
    /// agrees on every such pair.
    ties: Vec<(usize, usize)>,
    domain: Vec<Term>,
    raw_len: usize,
}

impl ProbeSpace {
    /// Builds the probe space of `query`.
    ///
    /// # Panics
    /// Panics if a head term is a constant (probe tuples are defined for
    /// queries whose head is a tuple of variables), or if
    /// `|domain|^{arity}` overflows `usize` (such a space could never be
    /// enumerated anyway).
    pub fn new(query: &ConjunctiveQuery) -> ProbeSpace {
        for t in query.head() {
            assert!(
                t.is_var(),
                "probe tuples are defined for queries with an all-variable head, found {t}"
            );
        }
        let head = query.head();
        let ties = (0..head.len())
            .filter_map(|i| {
                let j = head.iter().position(|t| *t == head[i]).expect("head[i] is in the head");
                (j < i).then_some((i, j))
            })
            .collect();
        let domain: Vec<Term> = canonical_active_domain(query).into_iter().collect();
        let arity = query.arity();
        let raw_len = if arity == 0 {
            // A Boolean query has exactly one (empty) candidate tuple.
            1
        } else {
            domain
                .len()
                .checked_pow(u32::try_from(arity).expect("query arity fits in u32"))
                .expect("probe space size overflows usize")
        };
        ProbeSpace { arity, ties, domain, raw_len }
    }

    /// Number of candidate tuples (before the unifiability filter):
    /// `|adom(I_q)|^{arity}`, or 1 for a Boolean query.
    pub fn raw_len(&self) -> usize {
        self.raw_len
    }

    /// The sorted canonical active domain the tuples draw from.
    pub fn domain(&self) -> &[Term] {
        &self.domain
    }

    /// Decodes raw index `index` into its candidate tuple, returning `None`
    /// when the tuple is not unifiable with the head (and therefore not a
    /// probe tuple at all).
    ///
    /// # Panics
    /// Panics if `index >= raw_len()`.
    pub fn tuple(&self, index: usize) -> Option<Vec<Term>> {
        assert!(index < self.raw_len, "probe index {index} out of range {}", self.raw_len);
        let n = self.domain.len();
        // The domain index at head position `pos`; `n^(arity - 1)` divides
        // `raw_len`, so the power cannot overflow.
        let digit = |pos: usize| index / n.pow((self.arity - 1 - pos) as u32) % n;
        if !self.ties.iter().all(|&(i, j)| digit(i) == digit(j)) {
            return None;
        }
        Some((0..self.arity).map(|pos| self.domain[digit(pos)].clone()).collect())
    }

    /// Iterates over the probe tuples (the unifiable candidates) in raw-index
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = Vec<Term>> + '_ {
        (0..self.raw_len).filter_map(|i| self.tuple(i))
    }
}

/// Enumerates all probe tuples of a query (Definition 3.1): every
/// `|head|`-tuple over the canonical active domain that is unifiable with the
/// head.
///
/// The number of probe tuples is `|adom(I_q)|^{arity}` before the
/// unifiability filter, so this is exponential in the arity; Theorem 5.3
/// (`most_general_probe_tuple`) avoids the enumeration in the decision
/// procedure, but the full set is still used for differential testing
/// (Corollary 3.1) and for the paper's Section 3 example. Callers that only
/// need indexed access (e.g. a parallel decider) should use [`ProbeSpace`]
/// directly and skip the materialisation.
///
/// # Panics
/// Panics if a head term is a constant (probe tuples are defined for queries
/// whose head is a tuple of variables).
pub fn probe_tuples(query: &ConjunctiveQuery) -> Vec<Vec<Term>> {
    // An empty domain with positive arity gives raw_len = 0^arity = 0, so
    // the iterator is empty exactly when no probe tuple exists.
    ProbeSpace::new(query).iter().collect()
}

/// The *most-general* probe tuple `t*` (Theorem 5.3): each head variable is
/// replaced by its own canonical constant.
pub fn most_general_probe_tuple(query: &ConjunctiveQuery) -> Vec<Term> {
    query.head().iter().map(Term::canonicalize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::paper_examples;

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    #[test]
    fn paper_section3_sixteen_probe_tuples() {
        // q(x1,x2) ← R(x1,x2), R(c1,x2), R(x1,c2) has 16 probe tuples:
        // all pairs over {x̂1, x̂2, c1, c2}.
        let q = paper_examples::section3_probe_example();
        let domain = canonical_active_domain(&q);
        assert_eq!(domain.len(), 4);
        let tuples = probe_tuples(&q);
        assert_eq!(tuples.len(), 16);
        // Spot-check a few members listed in the paper.
        assert!(tuples.contains(&vec![Term::canon("x1"), Term::canon("x1")]));
        assert!(tuples.contains(&vec![Term::canon("x1"), Term::constant("c1")]));
        assert!(tuples.contains(&vec![Term::constant("c2"), Term::constant("c1")]));
        // Every tuple is over the domain and has the right arity.
        for t in &tuples {
            assert_eq!(t.len(), 2);
            assert!(t.iter().all(|x| domain.contains(x)));
        }
    }

    #[test]
    fn most_general_probe_is_canonical_head() {
        let q = paper_examples::section3_query_q1();
        assert_eq!(most_general_probe_tuple(&q), vec![Term::canon("x1"), Term::canon("x2")]);
        // It is always one of the probe tuples.
        assert!(probe_tuples(&q).contains(&most_general_probe_tuple(&q)));
    }

    #[test]
    fn repeated_head_variables_restrict_probe_tuples() {
        // q(x, x) ← R(x, x): only "diagonal" tuples are unifiable with the head.
        let q = ConjunctiveQuery::from_atom_list(
            "q",
            vec![v("x"), v("x")],
            vec![Atom::new("R", vec![v("x"), v("x")])],
        );
        let tuples = probe_tuples(&q);
        // Domain is {x̂}, and only (x̂, x̂) unifies.
        assert_eq!(tuples, vec![vec![Term::canon("x"), Term::canon("x")]]);
    }

    #[test]
    fn constants_enlarge_the_domain() {
        // q(x) ← R(x, c1): domain {x̂, c1}, probe tuples (x̂) and (c1).
        let q = ConjunctiveQuery::from_atom_list(
            "q",
            vec![v("x")],
            vec![Atom::new("R", vec![v("x"), Term::constant("c1")])],
        );
        let tuples = probe_tuples(&q);
        assert_eq!(tuples.len(), 2);
        assert!(tuples.contains(&vec![Term::canon("x")]));
        assert!(tuples.contains(&vec![Term::constant("c1")]));
    }

    #[test]
    fn boolean_query_has_one_empty_probe_tuple() {
        let q = ConjunctiveQuery::from_atom_list(
            "b",
            vec![],
            vec![Atom::new("R", vec![Term::constant("a"), Term::constant("b")])],
        );
        assert_eq!(probe_tuples(&q), vec![Vec::<Term>::new()]);
        assert_eq!(most_general_probe_tuple(&q), Vec::<Term>::new());
    }

    #[test]
    fn existential_variables_contribute_canonical_constants() {
        // Even for a non-projection-free query, the canonical active domain
        // includes canonical constants of existential variables (they are
        // part of the canonical instance).
        let q = paper_examples::section2_query_q3();
        let domain = canonical_active_domain(&q);
        assert!(domain.contains(&Term::canon("y1")));
        assert!(domain.contains(&Term::canon("x1")));
        assert_eq!(domain.len(), 6);
    }

    #[test]
    #[should_panic(expected = "all-variable head")]
    fn grounded_heads_are_rejected() {
        let q = paper_examples::section3_query_q1().most_general_grounding();
        let _ = probe_tuples(&q);
    }

    #[test]
    fn probe_space_indexing_matches_the_materialised_enumeration() {
        for q in [
            paper_examples::section3_probe_example(),
            paper_examples::section3_query_q1(),
            ConjunctiveQuery::from_atom_list(
                "diag",
                vec![v("x"), v("x")],
                vec![Atom::new("R", vec![v("x"), v("x")])],
            ),
        ] {
            let space = ProbeSpace::new(&q);
            let via_index: Vec<Vec<Term>> =
                (0..space.raw_len()).filter_map(|i| space.tuple(i)).collect();
            assert_eq!(via_index, probe_tuples(&q), "{q}");
            assert_eq!(space.iter().collect::<Vec<_>>(), probe_tuples(&q), "{q}");
        }
    }

    #[test]
    fn probe_space_boolean_query_has_raw_len_one() {
        let q = ConjunctiveQuery::from_atom_list(
            "b",
            vec![],
            vec![Atom::new("R", vec![Term::constant("a")])],
        );
        let space = ProbeSpace::new(&q);
        assert_eq!(space.raw_len(), 1);
        assert_eq!(space.tuple(0), Some(Vec::new()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn probe_space_rejects_out_of_range_indices() {
        let q = paper_examples::section3_query_q1();
        let space = ProbeSpace::new(&q);
        let _ = space.tuple(space.raw_len());
    }

    #[test]
    fn probe_tuple_count_grows_with_domain_and_arity() {
        // q(x1,x2,x3) ← R(x1,x2,x3): 27 probe tuples (3 canonical constants).
        let q = ConjunctiveQuery::from_atom_list(
            "q",
            vec![v("x1"), v("x2"), v("x3")],
            vec![Atom::new("R", vec![v("x1"), v("x2"), v("x3")])],
        );
        assert_eq!(probe_tuples(&q).len(), 27);
    }
}
