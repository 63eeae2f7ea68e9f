//! Named, seed-reproducible workload suites.
//!
//! This is the generator plumbing behind `diophantus gen`: every family of
//! query pairs used by the experiments (E4/E5/E6/E9) is addressable through
//! one [`WorkloadKind`] value, and [`generate_pairs`] expands a kind into a
//! concrete list of [`WorkloadPair`]s. Generation is **deterministic**: the
//! same `(kind, count, seed)` triple always produces byte-for-byte identical
//! pairs (random kinds draw from a single `StdRng` stream seeded with
//! `seed`; deterministic sweeps ignore the seed entirely).

use rand::rngs::StdRng;
use rand::SeedableRng;

use dioph_cq::{Atom, ConjunctiveQuery, Term};

use crate::graphs::Graph;
use crate::joins::{chain_pair, clique_pair, star_pair};
use crate::random::{inflated_pair, specialization_pair, QueryShape};
use crate::threecol::three_colorability_instance;

/// A generated `(containee, containing)` pair with a human-readable label.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WorkloadPair {
    /// Short description of how the pair was built (family and parameters).
    pub label: String,
    /// The containee (left-hand side of `⊑b`), projection-free.
    pub containee: ConjunctiveQuery,
    /// The containing query (right-hand side of `⊑b`).
    pub containing: ConjunctiveQuery,
}

/// The workload families `diophantus gen` can emit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadKind {
    /// Specialisation pairs `(σ(q), q)` — bag-contained by construction
    /// (the Section 2 observation; the E6/E9 "contained" workload family).
    Specialization {
        /// Number of body atom occurrences of the containing query.
        atoms: usize,
    },
    /// Specialisation pairs with one multiplicity bumped on the containee —
    /// usually **not** contained, and every failure carries a witness bag.
    Inflated {
        /// Number of body atom occurrences of the containing query.
        atoms: usize,
    },
    /// The exact E6/E9 benchmark shape (two binary relations, two head and
    /// two existential variables, one constant, multiplicities ≤ 2).
    Contained {
        /// Number of body atom occurrences of the containing query.
        atoms: usize,
    },
    /// E4 containee-scaling sweep: path queries paired with themselves,
    /// lengths `length, length+1, …` (deterministic — the seed is ignored).
    Path {
        /// Length (number of binary atoms) of the first path in the sweep.
        length: usize,
    },
    /// E4 containing-query sweep: instances with `2^k` containment mappings,
    /// `k = mappings_log2, mappings_log2+1, …` (deterministic).
    ExponentialMapping {
        /// Base-2 logarithm of the mapping count of the first instance.
        mappings_log2: usize,
    },
    /// Theorem 5.4 reductions: `G` is 3-colorable iff `q_T ⊑b q_T ∧ q_G`,
    /// over Erdős–Rényi graphs `G(vertices, 1/2)` (the E5 workload).
    ThreeColorability {
        /// Number of vertices of each random graph.
        vertices: usize,
    },
    /// Optimizer-style linear join chains with specialisation containees —
    /// contained by construction (see [`crate::joins::chain_pair`]).
    Chain {
        /// Number of binary edge atoms in the chain.
        length: usize,
    },
    /// Star joins (one hub, `rays` existential satellites) with
    /// specialisation containees (see [`crate::joins::star_pair`]).
    Star {
        /// Number of satellite atoms joined to the hub.
        rays: usize,
    },
    /// Clique joins (an edge atom per unordered vertex pair) with
    /// specialisation containees (see [`crate::joins::clique_pair`]).
    Clique {
        /// Number of clique vertices.
        vertices: usize,
    },
}

/// E4 (containee scaling): a projection-free "path" containee with `length`
/// binary atoms `R(x0,x1), …, R(x_{length-1}, x_length)`, paired with itself
/// as the containing query (a contained instance, so the decider does the
/// full infeasibility proof).
pub fn path_self_containment(length: usize) -> (ConjunctiveQuery, ConjunctiveQuery) {
    assert!(length >= 1);
    let var = |name: String| Term::var(name);
    let head: Vec<Term> = (0..=length).map(|i| var(format!("x{i}"))).collect();
    let body: Vec<Atom> = (0..length)
        .map(|i| Atom::new("R", vec![var(format!("x{i}")), var(format!("x{}", i + 1))]))
        .collect();
    let q = ConjunctiveQuery::from_atom_list("q_path", head, body);
    (q.clone(), q)
}

/// E4 (containing-query scaling): a fixed three-atom containee
/// `q1(x) ← R(x,x), E(x,'a'), E(x,'b')` against a containing query with
/// `k` existential edge atoms `E(x, z_i)`, which admits `2^k` containment
/// mappings (each `z_i` maps to `'a'` or `'b'`). This isolates the
/// exponential dependence on the containing query that Theorem 5.2 allows.
fn exponential_mapping_instance(k: usize) -> (ConjunctiveQuery, ConjunctiveQuery) {
    let x = Term::var("x");
    let containee = ConjunctiveQuery::from_atom_list(
        "q_containee",
        vec![x.clone()],
        vec![
            Atom::new("R", vec![x.clone(), x.clone()]),
            Atom::new("E", vec![x.clone(), Term::constant("a")]),
            Atom::new("E", vec![x.clone(), Term::constant("b")]),
        ],
    );
    let mut body = vec![Atom::new("R", vec![x.clone(), x.clone()])];
    for i in 0..k {
        body.push(Atom::new("E", vec![x.clone(), Term::var(format!("z{i}"))]));
    }
    let containing = ConjunctiveQuery::from_atom_list("q_containing", vec![x], body);
    (containee, containing)
}

fn random_shape(atoms: usize) -> QueryShape {
    QueryShape { atom_occurrences: atoms, ..QueryShape::default() }
}

/// The E6/E9 workload shape with the given number of atom occurrences —
/// the single definition behind [`WorkloadKind::Contained`], so
/// `diophantus gen contained` and the tests that decide the family cannot
/// drift apart.
fn contained_shape(atoms: usize) -> QueryShape {
    QueryShape {
        relations: vec![("R".to_string(), 2), ("S".to_string(), 2)],
        atom_occurrences: atoms,
        head_variables: 2,
        existential_variables: 2,
        constants: 1,
        max_multiplicity: 2,
    }
}

/// Expands a workload kind into `count` pairs, deterministically in
/// `(kind, count, seed)`. Queries are renamed `q{i}a` (containee) and
/// `q{i}b` (containing) with `i` the 1-based pair index, so emitted
/// workload files stay readable.
pub fn generate_pairs(kind: WorkloadKind, count: usize, seed: u64) -> Vec<WorkloadPair> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=count)
        .map(|i| {
            let (label, (containee, containing)) = match kind {
                WorkloadKind::Specialization { atoms } => (
                    format!("specialization(atoms={atoms}, seed={seed})"),
                    specialization_pair(&random_shape(atoms), &mut rng),
                ),
                WorkloadKind::Inflated { atoms } => (
                    format!("inflated(atoms={atoms}, seed={seed})"),
                    inflated_pair(&random_shape(atoms), &mut rng),
                ),
                WorkloadKind::Contained { atoms } => (
                    format!("contained(atoms={atoms}, seed={seed})"),
                    specialization_pair(&contained_shape(atoms), &mut rng),
                ),
                WorkloadKind::Path { length } => {
                    let length = length + i - 1;
                    (format!("path(length={length})"), path_self_containment(length))
                }
                WorkloadKind::ExponentialMapping { mappings_log2 } => {
                    let k = mappings_log2 + i - 1;
                    (format!("expmap(k={k})"), exponential_mapping_instance(k))
                }
                WorkloadKind::ThreeColorability { vertices } => (
                    format!("threecol(vertices={vertices}, seed={seed})"),
                    three_colorability_instance(&Graph::random(vertices, 0.5, &mut rng)),
                ),
                WorkloadKind::Chain { length } => {
                    (format!("chain(length={length}, seed={seed})"), chain_pair(length, &mut rng))
                }
                WorkloadKind::Star { rays } => {
                    (format!("star(rays={rays}, seed={seed})"), star_pair(rays, &mut rng))
                }
                WorkloadKind::Clique { vertices } => (
                    format!("clique(vertices={vertices}, seed={seed})"),
                    clique_pair(vertices, &mut rng),
                ),
            };
            WorkloadPair {
                label,
                containee: containee.with_name(format!("q{i}a")),
                containing: containing.with_name(format!("q{i}b")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_containment::{
        is_bag_contained, set_containment, Algorithm, BagContainmentDecider, CompiledProbe,
        ContainmentError,
    };
    use dioph_cq::most_general_probe_tuple;

    const ALL_KINDS: [WorkloadKind; 9] = [
        WorkloadKind::Specialization { atoms: 4 },
        WorkloadKind::Inflated { atoms: 4 },
        WorkloadKind::Contained { atoms: 4 },
        WorkloadKind::Path { length: 2 },
        WorkloadKind::ExponentialMapping { mappings_log2: 1 },
        WorkloadKind::ThreeColorability { vertices: 5 },
        WorkloadKind::Chain { length: 3 },
        WorkloadKind::Star { rays: 3 },
        WorkloadKind::Clique { vertices: 3 },
    ];

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for kind in ALL_KINDS {
            let a = generate_pairs(kind, 3, 42);
            let b = generate_pairs(kind, 3, 42);
            assert_eq!(a, b, "{kind:?} must be reproducible");
            assert_eq!(a.len(), 3);
        }
        // Different seeds give different random pairs.
        let a = generate_pairs(WorkloadKind::Specialization { atoms: 4 }, 3, 1);
        let b = generate_pairs(WorkloadKind::Specialization { atoms: 4 }, 3, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn every_kind_yields_decidable_pairs() {
        for kind in ALL_KINDS {
            for pair in generate_pairs(kind, 2, 7) {
                assert!(pair.containee.is_projection_free(), "{}", pair.label);
                assert!(pair.containee.is_safe(), "{}", pair.label);
                let result = is_bag_contained(&pair.containee, &pair.containing)
                    .unwrap_or_else(|e| panic!("{} must be decidable: {e}", pair.label));
                if let Some(ce) = result.counterexample() {
                    assert!(ce.verify(&pair.containee, &pair.containing), "{}", pair.label);
                }
            }
        }
    }

    #[test]
    fn contained_kinds_are_contained() {
        for kind in [
            WorkloadKind::Specialization { atoms: 4 },
            WorkloadKind::Contained { atoms: 2 },
            WorkloadKind::Contained { atoms: 4 },
            WorkloadKind::Contained { atoms: 8 },
            WorkloadKind::Path { length: 1 },
            WorkloadKind::Chain { length: 3 },
            WorkloadKind::Star { rays: 3 },
            WorkloadKind::Clique { vertices: 3 },
        ] {
            for pair in generate_pairs(kind, 3, 11) {
                assert!(
                    is_bag_contained(&pair.containee, &pair.containing).unwrap().holds(),
                    "{} must be contained by construction",
                    pair.label
                );
                // Bag containment implies set containment (Section 2).
                assert!(
                    set_containment(&pair.containee, &pair.containing).holds(),
                    "{}",
                    pair.label
                );
            }
        }
    }

    #[test]
    fn path_instances_are_valid_and_contained() {
        for length in [1, 3, 6] {
            let (containee, containing) = path_self_containment(length);
            assert!(containee.is_projection_free());
            assert_eq!(containee.total_atom_count(), length as u64);
            assert!(is_bag_contained(&containee, &containing).unwrap().holds());
        }
    }

    #[test]
    fn exponential_mapping_instances_have_two_to_the_k_mappings() {
        for k in [1, 3, 5] {
            let (containee, containing) = exponential_mapping_instance(k);
            let probe = most_general_probe_tuple(&containee);
            let compiled = CompiledProbe::compile(&containee, &containing, &probe).unwrap();
            assert_eq!(compiled.mapping_count(), 1 << k);
        }
    }

    #[test]
    fn guess_check_enumeration_exceeds_its_budget_where_the_lp_decides() {
        // The LP route (Theorem 4.2) against the Lemma 5.1 enumeration on the
        // contained family: both decide every 1-atom pair, but from 2 atoms
        // on the enumeration runs out of vectors on some pairs.
        let lp = BagContainmentDecider::new(Algorithm::MostGeneralProbe);
        let enumeration = BagContainmentDecider::new(Algorithm::GuessCheck { budget: 200_000 });
        for atoms in [1, 2] {
            let mut exceeded = 0;
            for pair in generate_pairs(WorkloadKind::Contained { atoms }, 5, 7) {
                let (containee, containing) = (&pair.containee, &pair.containing);
                assert!(lp.decide(containee, containing).unwrap().holds(), "{}", pair.label);
                match enumeration.decide(containee, containing) {
                    Err(ContainmentError::BudgetExceeded { budget: 200_000 }) => exceeded += 1,
                    Ok(verdict) => assert!(verdict.holds(), "{}", pair.label),
                    Err(e) => panic!("{}: {e}", pair.label),
                }
            }
            if atoms == 1 {
                assert_eq!(exceeded, 0, "guess-check decides every 1-atom pair");
            } else {
                assert!(exceeded > 0, "guess-check exceeds its budget on some 2-atom pair");
            }
        }
    }

    #[test]
    fn deterministic_sweeps_scale_with_the_pair_index() {
        let pairs = generate_pairs(WorkloadKind::Path { length: 2 }, 3, 0);
        let lengths: Vec<u64> = pairs.iter().map(|p| p.containee.total_atom_count()).collect();
        assert_eq!(lengths, vec![2, 3, 4]);
        let pairs = generate_pairs(WorkloadKind::ExponentialMapping { mappings_log2: 1 }, 3, 0);
        // k existential edge atoms plus one R atom on the containing side.
        let atoms: Vec<u64> = pairs.iter().map(|p| p.containing.total_atom_count()).collect();
        assert_eq!(atoms, vec![2, 3, 4]);
    }

    #[test]
    fn pairs_are_renamed_by_index() {
        let pairs = generate_pairs(WorkloadKind::Inflated { atoms: 4 }, 2, 3);
        assert_eq!(pairs[0].containee.name(), "q1a");
        assert_eq!(pairs[0].containing.name(), "q1b");
        assert_eq!(pairs[1].containee.name(), "q2a");
        assert_eq!(pairs[1].containing.name(), "q2b");
    }
}
