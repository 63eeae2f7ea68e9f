//! Random conjunctive-query workload generators.
//!
//! Two kinds of instances are produced for the benchmarks and property tests:
//!
//! * [`random_projection_free_cq`] / [`random_cq`] — unconstrained random
//!   queries over a small schema (the "adversarial" workload: containment
//!   rarely holds);
//! * [`specialization_pair`] — pairs `(σ(q2), q2)` where the containee is a
//!   grounding of the containing query by a substitution `σ` sending every
//!   existential variable to a head variable or constant. As observed in the
//!   paper's Section 2 example (`σ(q3) = q2` implies `q2 ⊑b q3`), such pairs
//!   are bag-contained **by construction**: the containee's multiplicity is
//!   one summand of the containing query's Equation-2 sum.
//!
//! All generators are deterministic given the caller-provided RNG, so every
//! benchmark and test is reproducible.

use rand::Rng;

use dioph_cq::{Atom, ConjunctiveQuery, Substitution, Term};

/// Configuration for the random query generators.
#[derive(Clone, Debug)]
pub struct QueryShape {
    /// Relation names and arities to draw atoms from.
    pub relations: Vec<(String, usize)>,
    /// Number of body atom *occurrences* (multiplicities included).
    pub atom_occurrences: usize,
    /// Number of head (free) variables.
    pub head_variables: usize,
    /// Number of additional existential variables (ignored by the
    /// projection-free generator).
    pub existential_variables: usize,
    /// Number of language constants available.
    pub constants: usize,
    /// Maximum multiplicity a single atom may be repeated with.
    pub max_multiplicity: u64,
}

impl Default for QueryShape {
    fn default() -> Self {
        QueryShape {
            relations: vec![("R".to_string(), 2), ("S".to_string(), 2), ("T".to_string(), 1)],
            atom_occurrences: 4,
            head_variables: 2,
            existential_variables: 2,
            constants: 1,
            max_multiplicity: 3,
        }
    }
}

fn head_var(i: usize) -> Term {
    Term::var(format!("x{i}"))
}

fn exist_var(i: usize) -> Term {
    Term::var(format!("y{i}"))
}

fn constant(i: usize) -> Term {
    Term::constant(format!("c{i}"))
}

fn random_term(shape: &QueryShape, projection_free: bool, rng: &mut impl Rng) -> Term {
    let head = shape.head_variables;
    let exist = if projection_free { 0 } else { shape.existential_variables };
    let consts = shape.constants;
    let total = (head + exist + consts).max(1);
    let pick = rng.random_range(0..total);
    if pick < head {
        head_var(pick)
    } else if pick < head + exist {
        exist_var(pick - head)
    } else if pick < head + exist + consts {
        constant(pick - head - exist)
    } else {
        // Degenerate shape with no terms at all: fall back to a head variable.
        head_var(0)
    }
}

fn random_body(shape: &QueryShape, projection_free: bool, rng: &mut impl Rng) -> Vec<(Atom, u64)> {
    assert!(!shape.relations.is_empty(), "the schema needs at least one relation");
    let mut atoms = Vec::new();
    let mut occurrences = 0;
    while occurrences < shape.atom_occurrences {
        let (name, arity) = &shape.relations[rng.random_range(0..shape.relations.len())];
        let terms: Vec<Term> =
            (0..*arity).map(|_| random_term(shape, projection_free, rng)).collect();
        let remaining = (shape.atom_occurrences - occurrences) as u64;
        let mult = rng.random_range(1..=shape.max_multiplicity.min(remaining).max(1));
        atoms.push((Atom::new(name.clone(), terms), mult));
        occurrences += mult as usize;
    }
    atoms
}

/// Ensures every head variable occurs in the body (safety), by appending an
/// atom mentioning the missing ones if needed.
fn make_safe(shape: &QueryShape, head: &[Term], body: &mut Vec<(Atom, u64)>) {
    let body_vars: std::collections::BTreeSet<String> =
        body.iter().flat_map(|(a, _)| a.variables()).collect();
    let missing: Vec<Term> = head
        .iter()
        .filter(|t| t.as_var().map(|v| !body_vars.contains(v)).unwrap_or(false))
        .cloned()
        .collect();
    if missing.is_empty() {
        return;
    }
    let (name, arity) = &shape.relations[0];
    for chunk in missing.chunks((*arity).max(1)) {
        let mut terms: Vec<Term> = chunk.to_vec();
        while terms.len() < *arity {
            terms.push(chunk[0].clone());
        }
        body.push((Atom::new(name.clone(), terms), 1));
    }
}

/// Generates a random **projection-free** conjunctive query (every body
/// variable is a head variable), safe by construction.
pub fn random_projection_free_cq(
    name: &str,
    shape: &QueryShape,
    rng: &mut impl Rng,
) -> ConjunctiveQuery {
    let head: Vec<Term> = (0..shape.head_variables).map(head_var).collect();
    let mut body = random_body(shape, true, rng);
    make_safe(shape, &head, &mut body);
    ConjunctiveQuery::new(name, head, body)
}

/// Generates a random conjunctive query that may use existential variables.
pub fn random_cq(name: &str, shape: &QueryShape, rng: &mut impl Rng) -> ConjunctiveQuery {
    let head: Vec<Term> = (0..shape.head_variables).map(head_var).collect();
    let mut body = random_body(shape, false, rng);
    make_safe(shape, &head, &mut body);
    ConjunctiveQuery::new(name, head, body)
}

/// Generates a pair `(containee, containing)` that is bag-contained **by
/// construction**: the containing query is random (with existential
/// variables) and the containee is its image under a substitution sending
/// every existential variable to a random head variable or constant.
pub fn specialization_pair(
    shape: &QueryShape,
    rng: &mut impl Rng,
) -> (ConjunctiveQuery, ConjunctiveQuery) {
    let containing = random_cq("q_containing", shape, rng);
    let head_vars: Vec<Term> = containing.head().to_vec();
    let mut targets: Vec<Term> = head_vars;
    for i in 0..shape.constants {
        targets.push(constant(i));
    }
    if targets.is_empty() {
        targets.push(constant(0));
    }
    let sigma = Substitution::from_pairs(
        containing
            .existential_variables()
            .into_iter()
            .map(|v| (v, targets[rng.random_range(0..targets.len())].clone())),
    );
    let containee = containing.apply_substitution(&sigma).with_name("q_containee");
    (containee, containing)
}

/// Generates a pair that is *usually not* bag-contained: a specialization
/// pair whose containee gets one extra copy of one of its atoms, inflating
/// the containee's multiplicity beyond what the containing query can match.
pub fn inflated_pair(
    shape: &QueryShape,
    rng: &mut impl Rng,
) -> (ConjunctiveQuery, ConjunctiveQuery) {
    let (containee, containing) = specialization_pair(shape, rng);
    let atoms: Vec<(Atom, u64)> = containee.body().map(|(a, m)| (a.clone(), m)).collect();
    let bump = rng.random_range(0..atoms.len());
    let body =
        atoms.into_iter().enumerate().map(|(i, (a, m))| (a, if i == bump { m + 1 } else { m }));
    let inflated = ConjunctiveQuery::new("q_containee_inflated", containee.head().to_vec(), body);
    (inflated, containing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_containment::is_bag_contained;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shape_with_binary_relations() {
        // A shape over five binary relations only: both generators draw
        // every atom from them, at arity 2.
        let shape = QueryShape {
            relations: (0..5).map(|i| (format!("R{i}"), 2)).collect(),
            ..QueryShape::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            for q in
                [random_projection_free_cq("q", &shape, &mut rng), random_cq("q", &shape, &mut rng)]
            {
                assert!(q
                    .body_atoms()
                    .all(|a| a.arity() == 2
                        && shape.relations.iter().any(|(r, _)| r == a.relation())));
            }
        }
    }

    #[test]
    fn projection_free_generator_respects_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let shape = QueryShape::default();
        for _ in 0..20 {
            let q = random_projection_free_cq("q", &shape, &mut rng);
            assert!(q.is_projection_free(), "{q}");
            assert!(q.is_safe(), "{q}");
            assert!(q.total_atom_count() >= shape.atom_occurrences as u64);
            assert_eq!(q.arity(), shape.head_variables);
            assert!(q.body_atoms().all(|a| shape
                .relations
                .iter()
                .any(|(r, k)| r == a.relation() && *k == a.arity())));
        }
    }

    #[test]
    fn general_generator_is_safe_and_reproducible() {
        let shape = QueryShape::default();
        let a = random_cq("q", &shape, &mut StdRng::seed_from_u64(9));
        let b = random_cq("q", &shape, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        for seed in 0..20 {
            let q = random_cq("q", &shape, &mut StdRng::seed_from_u64(seed));
            assert!(q.is_safe(), "{q}");
        }
    }

    #[test]
    fn specialization_pairs_are_bag_contained() {
        let shape = QueryShape::default();
        for seed in 0..15 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (containee, containing) = specialization_pair(&shape, &mut rng);
            assert!(containee.is_projection_free(), "{containee}");
            let result = is_bag_contained(&containee, &containing)
                .expect("specialization containee is projection-free and safe");
            assert!(
                result.holds(),
                "seed {seed}: specialization pair must be contained\n containee: {containee}\n containing: {containing}"
            );
        }
    }

    #[test]
    fn inflated_pairs_often_break_containment_and_always_decide() {
        let shape = QueryShape::default();
        let mut broken = 0;
        for seed in 0..15 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (containee, containing) = inflated_pair(&shape, &mut rng);
            let result = is_bag_contained(&containee, &containing).expect("decidable");
            if let Some(ce) = result.counterexample() {
                assert!(ce.verify(&containee, &containing));
                broken += 1;
            }
        }
        assert!(broken > 0, "inflating multiplicities should break containment at least once");
    }
}
