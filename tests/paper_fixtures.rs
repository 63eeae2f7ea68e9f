//! End-to-end integration tests reproducing every worked example of the
//! paper (experiments E1 and E2 in the README's experiments table),
//! exercised through the public facade crate only.

use diophantus::containment::CompiledProbe;
use diophantus::cq::paper_examples;
use diophantus::cq::{probe_tuples, Term};
use diophantus::{
    bag_answer_multiplicity, is_bag_contained, parse_query, set_containment, Algorithm,
    BagContainmentDecider, BagInstance, FeasibilityEngine, Natural,
};

fn c(name: &str) -> Term {
    Term::constant(name)
}

fn nat(v: u64) -> Natural {
    Natural::from(v)
}

/// Section 2: the bag answer of the running query on the worked bag instance
/// is exactly {c1c2 ↦ 10, c1c5 ↦ 30}.
#[test]
fn section2_equation2_worked_example() {
    let q = paper_examples::section2_query_q3();
    let bag = BagInstance::from_u64_multiplicities(paper_examples::section2_bag());
    assert_eq!(bag_answer_multiplicity(&q, &bag, &[c("c1"), c("c2")]), nat(10));
    assert_eq!(bag_answer_multiplicity(&q, &bag, &[c("c1"), c("c5")]), nat(30));
    assert_eq!(diophantus::bag_answers(&q, &bag).len(), 2);
}

/// Section 2: the full containment table between q1, q2 and q3:
/// (1) q1 ⊑b q2, q2 ⊑s q1, q2 ⋢b q1;  (2) q1 ⊑b q3, q2 ⊑b q3;
/// (3) q3 ⋢s q1, q3 ⋢s q2 (hence also not bag-contained).
#[test]
fn section2_containment_table() {
    let q1 = paper_examples::section2_query_q1();
    let q2 = paper_examples::section2_query_q2();
    let q3 = paper_examples::section2_query_q3();

    // (1)
    assert!(is_bag_contained(&q1, &q2).unwrap().holds());
    assert!(set_containment(&q2, &q1).holds());
    let q2_not_in_q1 = is_bag_contained(&q2, &q1).unwrap();
    assert!(!q2_not_in_q1.holds());
    let witness = q2_not_in_q1.counterexample().unwrap();
    assert!(witness.verify(&q2, &q1));

    // (2)
    assert!(is_bag_contained(&q1, &q3).unwrap().holds());
    assert!(is_bag_contained(&q2, &q3).unwrap().holds());
    assert!(set_containment(&q1, &q3).holds());
    assert!(set_containment(&q2, &q3).holds());

    // (3)
    assert!(!set_containment(&q3, &q1).holds());
    assert!(!set_containment(&q3, &q2).holds());
}

/// Section 2: the specific counterexample bag Iµ = {R²(c1,c2), P(c2,c2)} gives
/// q1µ(c1,c2) = 4 and q2µ(c1,c2) = 8.
#[test]
fn section2_counterexample_bag_values() {
    let q1 = paper_examples::section2_query_q1();
    let q2 = paper_examples::section2_query_q2();
    let bag = BagInstance::from_u64_multiplicities(paper_examples::section2_counterexample_bag());
    assert_eq!(bag_answer_multiplicity(&q1, &bag, &[c("c1"), c("c2")]), nat(4));
    assert_eq!(bag_answer_multiplicity(&q2, &bag, &[c("c1"), c("c2")]), nat(8));
}

/// Section 3: the probe-tuple example — sixteen probe tuples over
/// {x̂1, x̂2, c1, c2}.
#[test]
fn section3_probe_tuples() {
    let q = paper_examples::section3_probe_example();
    let tuples = probe_tuples(&q);
    assert_eq!(tuples.len(), 16);
    assert!(tuples.contains(&vec![Term::canon("x1"), Term::canon("x2")]));
    assert!(tuples.contains(&vec![c("c2"), c("c2")]));
}

/// Sections 3–4: the running example compiles to the printed monomial and
/// polynomial, the MPI is solvable, the paper's solutions check out, and the
/// decision procedure concludes non-containment with a verified witness.
#[test]
fn section3_and_4_running_example_end_to_end() {
    let q1 = paper_examples::section3_query_q1();
    let q2 = paper_examples::section3_query_q2();
    let probe = vec![Term::canon("x1"), Term::canon("x2")];
    let compiled = CompiledProbe::compile(&q1, &q2, &probe).unwrap();

    // Three containment mappings → three monomials; total degree 7 vs 6.
    assert_eq!(compiled.mapping_count(), 3);
    assert_eq!(compiled.mpi().polynomial().degree(), 7);
    assert_eq!(compiled.mpi().monomial().degree(), 6);

    // The paper's Diophantine solutions of the MPI, in the paper's unknown
    // order (u1, u2, u3) = (R(x̂1,x̂2), R(c1,x̂2), R(x̂1,c2)).
    let position = |s: &str| compiled.atoms().position(|a| a.to_string() == s).unwrap();
    let u1 = position("R(^x1, ^x2)");
    let u2 = position("R('c1', ^x2)");
    let u3 = position("R(^x1, 'c2')");
    let mut point = vec![nat(0); 3];
    point[u1] = nat(1);
    point[u2] = nat(4);
    point[u3] = nat(3);
    assert_eq!(compiled.mpi().polynomial().evaluate(&point), nat(98));
    assert_eq!(compiled.mpi().monomial().evaluate(&point), nat(108));
    assert!(compiled.mpi().is_solution(&point));
    point[u2] = nat(9);
    assert_eq!(compiled.mpi().polynomial().evaluate(&point), nat(163));
    assert_eq!(compiled.mpi().monomial().evaluate(&point), nat(243));
    assert!(compiled.mpi().is_solution(&point));

    // The decision procedure agrees and extracts a verified witness bag.
    for engine in [FeasibilityEngine::Simplex, FeasibilityEngine::FourierMotzkin] {
        for algorithm in [Algorithm::MostGeneralProbe, Algorithm::AllProbes] {
            let decider = BagContainmentDecider::new(algorithm).with_engine(engine);
            let result = decider.decide(&q1, &q2).unwrap();
            let ce = result.counterexample().expect("the paper shows non-containment");
            assert!(ce.verify(&q1, &q2));
        }
    }
}

/// Section 2's first containment claim re-parsed from datalog text: the whole
/// pipeline works from strings.
#[test]
fn textual_roundtrip_of_section2_claim() {
    let q1 = parse_query("q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)").unwrap();
    let q2 = parse_query("q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)").unwrap();
    assert!(is_bag_contained(&q1, &q2).unwrap().holds());
    assert!(!is_bag_contained(&q2, &q1).unwrap().holds());
}

/// The bag-answer example from the facade doc: q1 ⊑b q2 and q2 ⊑b q1 both
/// decided through every algorithm/engine combination, agreeing everywhere.
#[test]
fn all_algorithms_agree_on_the_paper_pairs() {
    let q1 = paper_examples::section2_query_q1();
    let q2 = paper_examples::section2_query_q2();
    let pairs = [(q1.clone(), q2.clone()), (q2, q1)];
    for (containee, containing) in pairs {
        let mut verdicts = Vec::new();
        for engine in [FeasibilityEngine::Simplex, FeasibilityEngine::FourierMotzkin] {
            for algorithm in [Algorithm::MostGeneralProbe, Algorithm::AllProbes] {
                let decider = BagContainmentDecider::new(algorithm).with_engine(engine);
                verdicts.push(decider.decide(&containee, &containing).unwrap().holds());
            }
        }
        verdicts.push(
            BagContainmentDecider::new(Algorithm::GuessCheck { budget: 500_000 })
                .decide(&containee, &containing)
                .unwrap()
                .holds(),
        );
        assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "algorithms disagree on {containee} vs {containing}: {verdicts:?}"
        );
    }
}
