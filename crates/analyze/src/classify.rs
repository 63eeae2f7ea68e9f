//! The fragment classifier: the first row of the ROADMAP's
//! decidability-frontier matrix, computed statically per pair.
//!
//! Bag containment of conjunctive queries is open in general and
//! undecidable with inequalities (Jayram–Kolaitis–Vee, PODS 2006); the
//! source paper decides the projection-free-containee fragment. The
//! classifier places each `(containee, containing)` pair in the strongest
//! regime known to apply:
//!
//! | label | condition | what is decidable |
//! |---|---|---|
//! | `paper-decidable` | containee non-empty, safe, projection-free | bag containment (Theorem 4.1); bag-set coincides with set (Section 3); set (Chandra–Merlin) |
//! | `bag-set` | containee has projections; both queries safe and non-empty; all multiplicities 1 | the pair is a pure "real conjunctive query" instance: bag-set *equivalence* is decidable (Chaudhuri–Vardi isomorphism); containment is the open homomorphism-domination frontier; set containment is a decidable necessary condition |
//! | `set-semantics-only` | containee has projections and bag multiplicities are present | only set containment (Chandra–Merlin) is known decidable; bag containment is at the open frontier |
//! | `unknown-frontier` | a query is unsafe or the containee is empty | no implemented criterion applies |

use core::fmt;

use dioph_cq::ConjunctiveQuery;

/// The decidability-matrix cell a pair falls in. See the module
/// documentation for the exact cascade.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FragmentClass {
    /// The source paper's fragment: bag containment is decidable by this
    /// repository's engine (`CompiledPair::new` accepts the pair).
    PaperDecidable,
    /// A multiplicity-free pair with a projection-bearing containee:
    /// bag-set equivalence is decidable (Chaudhuri–Vardi), bag-set
    /// containment is the open homomorphism-domination problem.
    BagSet,
    /// Only Chandra–Merlin set containment is known decidable; the bag
    /// question is at the open frontier.
    SetSemanticsOnly,
    /// Malformed for every implemented criterion (unsafe query or empty
    /// containee body).
    UnknownFrontier,
}

impl FragmentClass {
    /// The stable kebab-case label used in JSON output and docs.
    pub fn label(self) -> &'static str {
        match self {
            FragmentClass::PaperDecidable => "paper-decidable",
            FragmentClass::BagSet => "bag-set",
            FragmentClass::SetSemanticsOnly => "set-semantics-only",
            FragmentClass::UnknownFrontier => "unknown-frontier",
        }
    }

    /// Whether this repository's bag-containment engine accepts the pair
    /// (`diophantus decide` succeeds without a fragment error).
    pub(crate) fn engine_decidable(self) -> bool {
        matches!(self, FragmentClass::PaperDecidable)
    }
}

impl fmt::Display for FragmentClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

fn multiplicity_free(query: &ConjunctiveQuery) -> bool {
    query.body().all(|(_, m)| m == 1)
}

/// Classifies a `(containee, containing)` pair into its decidability-matrix
/// cell. Purely syntactic — nothing is compiled or decided.
///
/// ```
/// use dioph_analyze::{classify_pair, FragmentClass};
/// use dioph_cq::parse_query;
///
/// let q1 = parse_query("q1(x1, x2) <- P^3(x2, x2), R^2(x1, x2)").unwrap();
/// let q3 = parse_query("q3(x1, x2) <- P(x2, y4), R^2(x1, y1)").unwrap();
/// assert_eq!(classify_pair(&q1, &q3), FragmentClass::PaperDecidable);
/// assert_eq!(classify_pair(&q3, &q1), FragmentClass::SetSemanticsOnly);
/// ```
pub fn classify_pair(containee: &ConjunctiveQuery, containing: &ConjunctiveQuery) -> FragmentClass {
    // The engine's own admission check (`validate_containee`) only inspects
    // the containee, so a well-formed containee makes the pair
    // paper-decidable regardless of the containing query's shape — the
    // containing side of `⊑b` may have projections (the paper's Section 2
    // example pairs q1 against the projection-bearing q3).
    let containee_well_formed = containee.distinct_atom_count() > 0 && containee.is_safe();
    if containee_well_formed && containee.is_projection_free() {
        return FragmentClass::PaperDecidable;
    }
    let containing_well_formed = containing.distinct_atom_count() > 0 && containing.is_safe();
    if containee_well_formed && containing_well_formed {
        if multiplicity_free(containee) && multiplicity_free(containing) {
            FragmentClass::BagSet
        } else {
            FragmentClass::SetSemanticsOnly
        }
    } else {
        FragmentClass::UnknownFrontier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_cq::parse_query;

    fn q(text: &str) -> ConjunctiveQuery {
        parse_query(text).unwrap()
    }

    #[test]
    fn paper_fragment_mirrors_the_engine_admission_check() {
        let containee = q("q1(x1, x2) <- P^3(x2, x2), R^2(x1, x2)");
        let containing = q("q3(x1, x2) <- P(x2, y4), P^2(y2, y3), R^2(x1, y1), R(x1, y2)");
        assert_eq!(classify_pair(&containee, &containing), FragmentClass::PaperDecidable);
        assert!(classify_pair(&containee, &containing).engine_decidable());
        // The engine agrees: the pair compiles.
        assert!(dioph_containment::CompiledPair::new(containee, containing.clone()).is_ok());
        // …and the reverse direction does not.
        let reversed = classify_pair(&containing, &q("q1(x1, x2) <- P^3(x2, x2), R^2(x1, x2)"));
        assert_eq!(reversed, FragmentClass::SetSemanticsOnly);
        assert!(!reversed.engine_decidable());
    }

    #[test]
    fn multiplicity_free_projection_pairs_are_bag_set() {
        // A Boolean graph query against a ground triangle: projections on
        // the containee, no multiplicities anywhere — the Chaudhuri–Vardi
        // real-CQ shape.
        let graph = q("qg() <- E(v0, v1), E(v1, v0)");
        let triangle = q("qt() <- E('a', 'b'), E('b', 'a')");
        assert_eq!(classify_pair(&graph, &triangle), FragmentClass::BagSet);
        // One bag multiplicity anywhere demotes the pair to set-only.
        let bag_triangle = q("qt() <- E^2('a', 'b'), E('b', 'a')");
        assert_eq!(classify_pair(&graph, &bag_triangle), FragmentClass::SetSemanticsOnly);
        let bag_graph = q("qg() <- E^2(v0, v1), E(v1, v0)");
        assert_eq!(classify_pair(&bag_graph, &triangle), FragmentClass::SetSemanticsOnly);
    }

    #[test]
    fn pathological_pairs_land_on_the_frontier() {
        let ok = q("p(x) <- R(x, x)");
        // Unsafe containee.
        assert_eq!(classify_pair(&q("u(x, z) <- R(x, x)"), &ok), FragmentClass::UnknownFrontier);
        // Empty containee body.
        assert_eq!(classify_pair(&q("e() <- true"), &ok), FragmentClass::UnknownFrontier);
        // Unsafe containing query with a projection-bearing containee.
        assert_eq!(
            classify_pair(&q("c(x) <- R(x, y)"), &q("u(x, z) <- R(x, x)")),
            FragmentClass::UnknownFrontier
        );
        // …but an unsafe containing query with a paper-fragment containee
        // stays paper-decidable (the engine never inspects the right side).
        assert_eq!(classify_pair(&ok, &q("u(x, z) <- R(x, x)")), FragmentClass::PaperDecidable);
        // An empty containing body is fine for set semantics.
        assert_eq!(
            classify_pair(&q("c(x) <- R(x, y)"), &q("t() <- true")),
            FragmentClass::UnknownFrontier,
            "empty containing body has no canonical instance to map into"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FragmentClass::PaperDecidable.label(), "paper-decidable");
        assert_eq!(FragmentClass::BagSet.label(), "bag-set");
        assert_eq!(FragmentClass::SetSemanticsOnly.label(), "set-semantics-only");
        assert_eq!(FragmentClass::UnknownFrontier.to_string(), "unknown-frontier");
    }
}
