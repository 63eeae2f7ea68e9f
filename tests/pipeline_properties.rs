//! Cross-crate property-based tests for the whole decision pipeline.
//!
//! The key soundness and completeness invariants checked on randomly
//! generated instances:
//!
//! * specialization pairs are always bag-contained (containment by
//!   construction survives the whole pipeline);
//! * all deciders (most-general probe / all probes, simplex / Fourier–Motzkin)
//!   agree on every instance;
//! * every non-containment verdict carries a counterexample bag that the
//!   independent Equation-2 evaluator confirms;
//! * bag containment implies set containment;
//! * a verdict of containment is never refuted by random-bag sampling;
//! * the 3-colorability reduction agrees with a direct graph search;
//! * the differential fuzzing oracle finds no disagreement on generated
//!   pairs, with identical outcomes across LP routes and thread counts;
//! * every compiled probe's MPI evaluates to the Equation-2 multiplicities
//!   that `dioph-bagdb`'s separate homomorphism search computes;
//! * the all-probes early-stop memo agrees with the full compilation of
//!   every probe, and deciding from it gives the verdicts of deciding every
//!   full compilation.

use diophantus::containment::{CompiledPair, EarlyStop, Rung};
use diophantus::fuzz::{check_pair, generate_case, FuzzConfig};
use diophantus::workloads::random::{
    inflated_pair, random_projection_free_cq, specialization_pair,
};
use diophantus::workloads::suite::{generate_pairs, WorkloadKind};
use diophantus::workloads::threecol::three_colorable_via_containment;
use diophantus::workloads::{refute_by_random_bags, Graph, QueryShape, RefutationConfig};
use diophantus::{
    set_containment, Algorithm, BagContainment, BagContainmentDecider, ConjunctiveQuery,
    DecisionEngine, EngineConfig, FeasibilityEngine,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_shape() -> QueryShape {
    QueryShape {
        relations: vec![("R".to_string(), 2), ("S".to_string(), 1)],
        atom_occurrences: 3,
        head_variables: 2,
        existential_variables: 2,
        constants: 1,
        max_multiplicity: 2,
    }
}

fn deciders() -> Vec<BagContainmentDecider> {
    vec![
        BagContainmentDecider::new(Algorithm::MostGeneralProbe),
        BagContainmentDecider::new(Algorithm::MostGeneralProbe)
            .with_engine(FeasibilityEngine::FourierMotzkin),
        BagContainmentDecider::new(Algorithm::AllProbes),
    ]
}

/// Decides with every configured decider and asserts they agree; returns the
/// common verdict.
fn unanimous_verdict(containee: &ConjunctiveQuery, containing: &ConjunctiveQuery) -> bool {
    let verdicts: Vec<(String, bool)> = deciders()
        .iter()
        .map(|d| {
            let result = d.decide(containee, containing).expect("valid instance");
            if let Some(ce) = result.counterexample() {
                assert!(
                    ce.verify(containee, containing),
                    "unverifiable counterexample for {containee} vs {containing}"
                );
            }
            (format!("{d:?}"), result.holds())
        })
        .collect();
    let first = verdicts[0].1;
    for (name, verdict) in &verdicts {
        assert_eq!(*verdict, first, "decider {name} disagrees on {containee} vs {containing}");
    }
    first
}

/// The all-probes route before the early-stop memo: every probe compiled
/// in full through [`CompiledPair::probe`] and decided, in raw-index order.
fn decide_every_probe_in_full(pair: &CompiledPair) -> BagContainment {
    let decider = BagContainmentDecider::new(Algorithm::AllProbes);
    let mut checked = 0;
    for index in 0..pair.probe_space().raw_len() {
        let Some(probe) = pair.probe(index) else { continue };
        checked += 1;
        if let Some(assignment) = decider.decide_probe(probe).expect("the LP decides") {
            let ce = pair.counterexample(probe, &assignment);
            return BagContainment::NotContained(Box::new(ce));
        }
    }
    BagContainment::Contained { probes_checked: checked }
}

/// At every raw index the early-stop memo is not-a-probe iff the full
/// compilation is, `Dominated` iff the full probe's rung is dominance, and
/// otherwise the full probe itself. All-probes verdicts from the memo, at 1
/// and 2 jobs, equal deciding every full compilation: verdict,
/// counterexample and `probes_checked`. Returns how many probes the memo
/// held as dominated and as compiled.
fn assert_memo_matches_full_compilation(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
) -> (usize, usize) {
    let pair = CompiledPair::new(containee.clone(), containing.clone()).expect("in the fragment");
    let (mut dominated, mut compiled) = (0, 0);
    for index in 0..pair.probe_space().raw_len() {
        match (pair.probe_rung(index), pair.probe(index)) {
            (None, None) => {}
            (Some(EarlyStop::Dominated), Some(full)) => {
                assert_eq!(full.rung(), Rung::Dominance, "{containee} vs {containing} at {index}");
                dominated += 1;
            }
            (Some(EarlyStop::Compiled(early)), Some(full)) => {
                assert_eq!(early, full, "{containee} vs {containing} at {index}");
                assert_ne!(full.rung(), Rung::Dominance, "{containee} vs {containing} at {index}");
                compiled += 1;
            }
            (early, full) => panic!(
                "{containee} vs {containing} at {index}: memo {early:?}, full {:?}",
                full.map(diophantus::containment::CompiledProbe::probe)
            ),
        }
    }
    let reference = decide_every_probe_in_full(&pair);
    for jobs in [1, 2] {
        let engine = DecisionEngine::new(EngineConfig {
            jobs,
            algorithm: Algorithm::AllProbes,
            ..EngineConfig::default()
        });
        let fresh =
            CompiledPair::new(containee.clone(), containing.clone()).expect("in the fragment");
        let verdict = engine.decide_pair(&fresh).expect("the LP decides");
        assert_eq!(verdict, reference, "jobs={jobs}: {containee} vs {containing}");
    }
    (dominated, compiled)
}

#[test]
fn early_stop_memo_matches_full_compilation_on_the_suite_kinds() {
    let (mut dominated, mut compiled) = (0, 0);
    for kind in [
        WorkloadKind::Specialization { atoms: 4 },
        WorkloadKind::Inflated { atoms: 4 },
        WorkloadKind::Contained { atoms: 4 },
        WorkloadKind::Path { length: 2 },
        WorkloadKind::ExponentialMapping { mappings_log2: 1 },
        WorkloadKind::ThreeColorability { vertices: 4 },
        WorkloadKind::Chain { length: 3 },
        WorkloadKind::Star { rays: 3 },
        WorkloadKind::Clique { vertices: 3 },
    ] {
        for pair in generate_pairs(kind, 3, 2019) {
            let (d, c) = assert_memo_matches_full_compilation(&pair.containee, &pair.containing);
            (dominated, compiled) = (dominated + d, compiled + c);
        }
    }
    // Both kinds of memo entry are exercised.
    assert!(dominated > 0 && compiled > 0, "{dominated} dominated, {compiled} compiled");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Specialisation pairs are bag-contained by construction.
    #[test]
    fn specialization_pairs_are_contained(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (containee, containing) = specialization_pair(&small_shape(), &mut rng);
        prop_assert!(unanimous_verdict(&containee, &containing));
    }

    /// All deciders agree on arbitrary (mostly non-contained) random pairs,
    /// counterexamples verify, and bag containment implies set containment.
    #[test]
    fn deciders_agree_on_random_pairs(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = small_shape();
        let containee = random_projection_free_cq("q_containee", &shape, &mut rng);
        let containing = random_projection_free_cq("q_containing", &shape, &mut rng);
        let bag = unanimous_verdict(&containee, &containing);
        let set = set_containment(&containee, &containing).holds();
        if bag {
            prop_assert!(set, "bag containment must imply set containment");
        }
    }

    /// Inflated pairs still produce unanimous, verified verdicts (often
    /// non-containment), and containment verdicts are never refuted by
    /// random-bag sampling.
    #[test]
    fn verdicts_are_consistent_with_random_refutation(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (containee, containing) = inflated_pair(&small_shape(), &mut rng);
        let verdict = unanimous_verdict(&containee, &containing);
        let refuted = refute_by_random_bags(
            &containee,
            &containing,
            RefutationConfig { attempts: 60, max_multiplicity: 4 },
            &mut rng,
        );
        if let Some(ce) = refuted {
            prop_assert!(!verdict, "a sampled violating bag contradicts a containment verdict");
            prop_assert!(ce.verify(&containee, &containing));
        }
    }

    /// The Theorem 5.4 reduction agrees with direct 3-colorability search on
    /// random graphs.
    #[test]
    fn three_coloring_reduction_agrees(seed in 0u64..10_000, n in 3usize..6, p in 0.2f64..0.9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = Graph::random(n, p, &mut rng);
        let direct = graph.is_three_colorable();
        let via = three_colorable_via_containment(
            &graph,
            &BagContainmentDecider::new(Algorithm::MostGeneralProbe),
        );
        prop_assert_eq!(direct, via, "reduction disagrees on {:?}", graph);
    }

    /// Reflexivity: every projection-free query is bag-contained in itself.
    #[test]
    fn containment_is_reflexive(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_projection_free_cq("q", &small_shape(), &mut rng);
        prop_assert!(unanimous_verdict(&q, &q));
    }

    /// The differential fuzzing oracle on generated pairs: no disagreement
    /// between the MPI decider, the brute-force bag sweep, certificate
    /// replay and the set-containment necessary condition — and the whole
    /// outcome (verdict, certificate, database counts) is identical under
    /// jobs 1/2/4.
    #[test]
    fn fuzz_oracle_agrees_across_jobs(seed in 0u64..10_000) {
        let case = generate_case(seed, 0);
        let db_seed = diophantus::fuzz::derive_seed(seed, u64::MAX);
        let mut reference = None;
        for jobs in [1usize, 2, 4] {
            let config = FuzzConfig { jobs, samples: 8, ..FuzzConfig::default() };
            let outcome = check_pair(&case.containee, &case.containing, &config, db_seed);
            prop_assert!(
                outcome.disagreement.is_none(),
                "jobs={}: {:?}",
                jobs,
                outcome.disagreement
            );
            match &reference {
                None => reference = Some(outcome),
                Some(expected) => {
                    prop_assert_eq!(expected, &outcome, "outcome diverged under jobs={}", jobs);
                }
            }
        }
    }

    /// The compiler's containment-mapping search against the bag engine's
    /// own: on every probe `t` of random pairs (arbitrary and specialised),
    /// `P(u)` and `M(u)` equal the Equation-2 multiplicities of `t` in the
    /// containing query and the containee over the bag `u` (multiplicities
    /// 0–3), and the mapping count equals the containing query's
    /// multiplicity over the all-ones bag.
    #[test]
    fn compiled_probes_agree_with_equation_2(seed in 0u64..10_000) {
        use diophantus::arith::Natural;
        use diophantus::containment::CompiledPair;
        use diophantus::bag_answer_multiplicity;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = small_shape();
        let random = (
            random_projection_free_cq("q_containee", &shape, &mut rng),
            random_projection_free_cq("q_containing", &shape, &mut rng),
        );
        let specialised = specialization_pair(&shape, &mut rng);
        for (containee, containing) in [random, specialised] {
            let pair = CompiledPair::new(containee.clone(), containing.clone())
                .expect("projection-free containee");
            for index in 0..pair.probe_space().raw_len() {
                let Some(probe) = pair.probe(index) else { continue };
                let t = probe.probe();
                let ones = vec![Natural::one(); probe.dimension()];
                prop_assert_eq!(
                    Natural::from(probe.mapping_count() as u64),
                    bag_answer_multiplicity(&containing, &probe.assignment_to_bag(&ones), t),
                    "mapping count of {} into {} at {:?}", containing, containee, t
                );
                for _ in 0..4 {
                    let u: Vec<Natural> = (0..probe.dimension())
                        .map(|_| Natural::from(rng.random_range(0u64..=3)))
                        .collect();
                    let bag = probe.assignment_to_bag(&u);
                    prop_assert_eq!(
                        probe.mpi().polynomial().evaluate(&u),
                        bag_answer_multiplicity(&containing, &bag, t),
                        "P(u) of {} into {} at {:?}, u = {:?}", containing, containee, t, u
                    );
                    prop_assert_eq!(
                        probe.mpi().monomial().evaluate(&u),
                        bag_answer_multiplicity(&containee, &bag, t),
                        "M(u) of {} at {:?}, u = {:?}", containee, t, u
                    );
                }
            }
        }
    }

    /// The early-stop memo against the full compilation on random and
    /// specialised pairs (see [`assert_memo_matches_full_compilation`]).
    #[test]
    fn early_stop_memo_matches_full_compilation(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = small_shape();
        let random = (
            random_projection_free_cq("q_containee", &shape, &mut rng),
            random_projection_free_cq("q_containing", &shape, &mut rng),
        );
        let specialised = specialization_pair(&shape, &mut rng);
        for (containee, containing) in [random, specialised] {
            let _ = assert_memo_matches_full_compilation(&containee, &containing);
        }
    }

    /// Transitivity on specialisation chains: σ2(σ1(q)) ⊑b σ1(q) ⊑b q, and the
    /// composed pair is also directly decided as contained.
    #[test]
    fn containment_along_specialisation_chains(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = small_shape();
        let (middle, top) = specialization_pair(&shape, &mut rng);
        // Specialise once more by merging the two head variables.
        let sigma = diophantus::cq::Substitution::from_pairs([(
            "x1".to_string(),
            diophantus::Term::var("x0"),
        )]);
        let bottom = middle.apply_substitution(&sigma).with_name("q_bottom");
        prop_assert!(unanimous_verdict(&bottom, &middle));
        prop_assert!(unanimous_verdict(&middle, &top));
        prop_assert!(unanimous_verdict(&bottom, &top));
    }
}

/// Simplex and Fourier–Motzkin agree on seeded strict homogeneous systems of
/// 2–6 unknowns and 8 rows with coefficients in −4..=6: past the linalg
/// proptests' sizes, where the simplex runs its Gordan dual on a tableau of
/// `d + 1` rows.
#[test]
fn engines_agree_on_eight_row_strict_systems() {
    use diophantus::arith::Integer;
    use diophantus::linalg::StrictHomogeneousSystem;
    use rand::Rng;
    for dimension in 2..=6 {
        let mut rng = StdRng::seed_from_u64(0x2019_0630);
        for _ in 0..6 {
            let mut sys = StrictHomogeneousSystem::new(dimension);
            for _ in 0..8 {
                sys.push_row(
                    (0..dimension).map(|_| Integer::from(rng.random_range(-4i64..=6))).collect(),
                );
            }
            assert_eq!(
                sys.is_feasible(FeasibilityEngine::Simplex).unwrap(),
                sys.is_feasible(FeasibilityEngine::FourierMotzkin).unwrap(),
                "engines disagree on {sys:?}"
            );
        }
    }
}
