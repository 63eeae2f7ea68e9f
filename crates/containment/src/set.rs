//! Set-semantics and bag-set-semantics containment.
//!
//! These are the classical baselines the paper builds on:
//!
//! * **Set containment** `q1 ⊑s q2` is the Chandra–Merlin criterion: a
//!   containment mapping from `q2` to `q1` exists. Bag containment implies
//!   set containment (Section 2), so the set decider is both a baseline and a
//!   cheap necessary-condition filter.
//! * **Bag-set containment** (set database, bag answers): as remarked at the
//!   start of the paper's Section 3, for a projection-free containee the
//!   problem coincides with set containment, so it is exposed here under that
//!   restriction.

use dioph_cq::{first_containment_mapping, is_set_contained, ConjunctiveQuery, Substitution};

use crate::certificate::ContainmentError;
use crate::compile::validate_containee;

/// Result of a set-containment check, carrying the witnessing containment
/// mapping when containment holds.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SetContainment {
    /// `containee ⊑s containing`, witnessed by a containment mapping from the
    /// containing query into the containee.
    Contained(Box<Substitution>),
    /// No containment mapping exists.
    NotContained,
}

impl SetContainment {
    /// `true` iff containment holds.
    pub fn holds(&self) -> bool {
        matches!(self, SetContainment::Contained(_))
    }

    /// The witnessing containment mapping, if any.
    pub fn witness(&self) -> Option<&Substitution> {
        match self {
            SetContainment::Contained(w) => Some(w),
            SetContainment::NotContained => None,
        }
    }
}

/// Decides set containment `containee ⊑s containing` (Chandra–Merlin),
/// returning a witnessing containment mapping when it holds.
pub fn set_containment(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
) -> SetContainment {
    match first_containment_mapping(containing, containee) {
        Some(witness) => SetContainment::Contained(Box::new(witness)),
        None => SetContainment::NotContained,
    }
}

/// Decides set equivalence: containment in both directions.
pub fn are_set_equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    is_set_contained(q1, q2) && is_set_contained(q2, q1)
}

/// Decides bag-set containment (set databases, bag answers) for a
/// **projection-free** containee: per the paper's Section 3 remark this is
/// equivalent to set containment.
///
/// # Panics
/// Panics if the containee has existential variables — the equivalence with
/// set containment is only claimed for the projection-free case. Use
/// [`bag_set_containment`] for a non-panicking, witness-carrying variant.
pub fn is_bag_set_contained(containee: &ConjunctiveQuery, containing: &ConjunctiveQuery) -> bool {
    assert!(
        containee.is_projection_free(),
        "bag-set containment is reduced to set containment only for projection-free containees"
    );
    is_set_contained(containee, containing)
}

/// Decides bag-set containment `containee ⊑bs containing` with a certificate:
/// the witnessing containment mapping when it holds.
///
/// The containee must lie in the same fragment the bag decider accepts
/// (non-empty body, projection-free, safe) — the Section 3 reduction to set
/// containment is only claimed there — otherwise the corresponding
/// [`ContainmentError`] is returned instead of panicking, mirroring
/// [`CompiledPair::new`](crate::CompiledPair::new).
pub fn bag_set_containment(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
) -> Result<SetContainment, ContainmentError> {
    validate_containee(containee)?;
    Ok(set_containment(containee, containing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_cq::paper_examples;
    use dioph_cq::{parse_query, Term};

    #[test]
    fn paper_set_containment_relations_with_witnesses() {
        let q1 = paper_examples::section2_query_q1();
        let q2 = paper_examples::section2_query_q2();
        let q3 = paper_examples::section2_query_q3();

        let r = set_containment(&q1, &q2);
        assert!(r.holds());
        // The witness is the identity on {x1, x2}.
        let w = r.witness().unwrap();
        assert_eq!(w.get("x1"), Some(&Term::var("x1")));
        assert_eq!(w.get("x2"), Some(&Term::var("x2")));

        let r = set_containment(&q1, &q3);
        assert!(r.holds());
        assert_eq!(r.witness().unwrap().get("y4"), Some(&Term::var("x2")));

        assert!(!set_containment(&q3, &q1).holds());
        assert!(set_containment(&q3, &q1).witness().is_none());
    }

    #[test]
    fn set_equivalence() {
        let q1 = paper_examples::section2_query_q1();
        let q2 = paper_examples::section2_query_q2();
        let q3 = paper_examples::section2_query_q3();
        // q1 and q2 are set-equivalent (the paper: q1 ⊑s q2 and q2 ⊑s q1).
        assert!(are_set_equivalent(&q1, &q2));
        assert!(!are_set_equivalent(&q1, &q3));
        assert!(are_set_equivalent(&q3, &q3));
    }

    #[test]
    fn bag_set_containment_matches_set_containment() {
        let q1 = paper_examples::section2_query_q1();
        let q2 = paper_examples::section2_query_q2();
        assert!(is_bag_set_contained(&q1, &q2));
        assert!(is_bag_set_contained(&q2, &q1));
        let disjoint = parse_query("p(x) <- S(x, x)").unwrap();
        assert!(!is_bag_set_contained(&q1, &disjoint));
    }

    #[test]
    #[should_panic(expected = "projection-free")]
    fn bag_set_containment_rejects_projections() {
        let q3 = paper_examples::section2_query_q3();
        let q1 = paper_examples::section2_query_q1();
        let _ = is_bag_set_contained(&q3, &q1);
    }

    #[test]
    fn bag_set_certificates_carry_witnesses_and_fragment_errors() {
        let q1 = paper_examples::section2_query_q1();
        let q2 = paper_examples::section2_query_q2();
        let q3 = paper_examples::section2_query_q3();

        let r = bag_set_containment(&q1, &q2).unwrap();
        assert!(r.holds());
        assert_eq!(r.witness().unwrap().get("x1"), Some(&Term::var("x1")));

        let disjoint = parse_query("p(x) <- S(x, x)").unwrap();
        assert_eq!(bag_set_containment(&q1, &disjoint).unwrap(), SetContainment::NotContained);

        // Out-of-fragment containees error instead of panicking.
        let err = bag_set_containment(&q3, &q1).unwrap_err();
        assert!(matches!(err, crate::ContainmentError::ContaineeNotProjectionFree { .. }));
        let empty = parse_query("e() <- true").unwrap();
        assert!(matches!(
            bag_set_containment(&empty, &q1).unwrap_err(),
            crate::ContainmentError::EmptyBody { .. }
        ));
    }
}
