//! Property-based tests for monomials, polynomials and MPIs.

use dioph_arith::Natural;
use dioph_linalg::FeasibilityEngine;
use dioph_poly::{Monomial, Mpi, OneDimMpi, Polynomial};
use proptest::prelude::*;

fn nat(v: u64) -> Natural {
    Natural::from(v)
}

fn monomial_strategy(dim: usize) -> impl Strategy<Value = Monomial> {
    proptest::collection::vec(0u64..=5, dim).prop_map(Monomial::new)
}

fn polynomial_strategy(dim: usize) -> impl Strategy<Value = Polynomial> {
    proptest::collection::vec((1u64..4, monomial_strategy(dim)), 0..6).prop_map(move |terms| {
        Polynomial::from_terms(dim, terms.into_iter().map(|(c, m)| (nat(c), m)))
    })
}

fn point_strategy(dim: usize) -> impl Strategy<Value = Vec<Natural>> {
    proptest::collection::vec(0u64..6, dim).prop_map(|v| v.into_iter().map(nat).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Monomial multiplication is evaluation-homomorphic: (m1·m2)(ξ) = m1(ξ)·m2(ξ).
    #[test]
    fn monomial_mul_is_pointwise_product(
        m1 in monomial_strategy(4),
        m2 in monomial_strategy(4),
        point in point_strategy(4),
    ) {
        let lhs = m1.mul(&m2).evaluate(&point);
        let rhs = &m1.evaluate(&point) * &m2.evaluate(&point);
        prop_assert_eq!(lhs, rhs);
    }

    /// Monomial degree is additive under multiplication and weighted degree
    /// is linear in the weights.
    #[test]
    fn monomial_degree_laws(m1 in monomial_strategy(4), m2 in monomial_strategy(4)) {
        prop_assert_eq!(m1.mul(&m2).degree(), m1.degree() + m2.degree());
        let ones = vec![Natural::one(); 4];
        prop_assert_eq!(m1.weighted_degree(&ones), nat(m1.degree()));
    }

    /// Polynomial evaluation is a ring homomorphism at every point:
    /// (P+Q)(ξ) = P(ξ)+Q(ξ) and (P·Q)(ξ) = P(ξ)·Q(ξ).
    #[test]
    fn polynomial_evaluation_is_a_homomorphism(
        p in polynomial_strategy(3),
        q in polynomial_strategy(3),
        point in point_strategy(3),
    ) {
        let mut sum = p.clone();
        sum.add_assign(&q);
        prop_assert_eq!(sum.evaluate(&point), &p.evaluate(&point) + &q.evaluate(&point));
        let prod = p.mul(&q);
        prop_assert_eq!(prod.evaluate(&point), &p.evaluate(&point) * &q.evaluate(&point));
    }

    /// The coefficient sum equals the value at the all-ones point.
    #[test]
    fn coefficient_sum_is_value_at_ones(p in polynomial_strategy(3)) {
        let ones = vec![Natural::one(); 3];
        prop_assert_eq!(p.coefficient_sum(), p.evaluate(&ones));
    }

    /// MPI decision soundness: whatever witness the solver returns solves the
    /// MPI, and both feasibility engines agree on solvability, on 3 and 4
    /// unknowns.
    #[test]
    fn mpi_witnesses_are_sound_and_engines_agree(
        (poly, mono_exp) in (3usize..=4).prop_flat_map(|dim| {
            (polynomial_strategy(dim), proptest::collection::vec(1u64..=5, dim))
        }),
    ) {
        let mpi = Mpi::new(poly, Monomial::new(mono_exp));
        let simplex = mpi.has_diophantine_solution(FeasibilityEngine::Simplex).unwrap();
        let fm = mpi.has_diophantine_solution(FeasibilityEngine::FourierMotzkin).unwrap();
        prop_assert_eq!(simplex, fm, "engines disagree on {}", mpi);
        match mpi.diophantine_solution(FeasibilityEngine::Simplex).unwrap() {
            Some(witness) => {
                prop_assert!(simplex);
                prop_assert!(mpi.is_solution(&witness), "witness {:?} does not solve {}", witness, mpi);
            }
            None => prop_assert!(!simplex),
        }
    }

    /// MPI decision completeness (bounded): if exhaustive search over a small
    /// grid finds a solution, the decision procedure must also report one.
    #[test]
    fn mpi_decision_agrees_with_bounded_search(
        poly in polynomial_strategy(2),
        mono_exp in proptest::collection::vec(1u64..4, 2),
    ) {
        let mpi = Mpi::new(poly, Monomial::new(mono_exp));
        let mut brute_force = false;
        'outer: for a in 0u64..8 {
            for b in 0u64..8 {
                if mpi.is_solution(&[nat(a), nat(b)]) {
                    brute_force = true;
                    break 'outer;
                }
            }
        }
        let decided = mpi.has_diophantine_solution(FeasibilityEngine::Simplex).unwrap();
        if brute_force {
            prop_assert!(decided, "grid found a solution but the decision procedure says unsolvable: {}", mpi);
        }
        // (The converse need not be checked: a solution may lie outside the grid.)
    }

    /// Proposition 4.1 on arbitrary MPIs with a non-zero polynomial side:
    /// neither the all-zeros nor the all-ones vector is ever a solution.
    #[test]
    fn proposition_4_1_holds(
        poly in polynomial_strategy(3).prop_filter("non-zero", |p| !p.is_zero()),
        mono_exp in proptest::collection::vec(1u64..5, 3),
    ) {
        let mpi = Mpi::new(poly, Monomial::new(mono_exp));
        prop_assert!(!mpi.is_solution(&vec![Natural::zero(); 3]));
        prop_assert!(!mpi.is_solution(&vec![Natural::one(); 3]));
    }

    /// Lemma 4.1 for one-dimensional MPIs: solvability coincides with the
    /// degree criterion, and the smallest solution (when it exists) solves it.
    #[test]
    fn lemma_4_1_one_dimensional(
        terms in proptest::collection::vec((1u64..4, 0u64..6), 1..5),
        mono_exp in 1u64..7,
    ) {
        let one_dim = OneDimMpi::new(
            terms.into_iter().map(|(c, e)| (nat(c), nat(e))).collect(),
            nat(mono_exp),
        );
        let solvable_by_degree = one_dim.polynomial_degree() < nat(mono_exp);
        prop_assert_eq!(one_dim.is_solvable(), solvable_by_degree);
        match one_dim.smallest_solution() {
            Some(u) => {
                prop_assert!(one_dim.is_solvable());
                prop_assert!(one_dim.is_solution(&u));
                // Minimality: no smaller positive value solves it.
                let mut smaller = Natural::one();
                while smaller < u {
                    prop_assert!(!one_dim.is_solution(&smaller));
                    smaller = &smaller + &Natural::one();
                }
            }
            None => prop_assert!(!one_dim.is_solvable()),
        }
    }
}
