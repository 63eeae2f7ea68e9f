//! Direct use of the Diophantine layer: Monomial–Polynomial Inequalities,
//! the Theorem 4.1 reduction, both feasibility engines, and Lemma 4.1 in one
//! dimension.
//!
//! Run with `cargo run --example diophantine_lab`.

use diophantus::linalg::{FeasibilityEngine, StrictHomogeneousSystem};
use diophantus::poly::{Monomial, Mpi, OneDimGmpi, OneDimMpi, Polynomial};
use diophantus::{Natural, Rational};

fn nat(v: u64) -> Natural {
    Natural::from(v)
}

fn main() {
    // ------------------------------------------------------------------
    // 1. The paper's running 3-MPI:  u1^7 + u1^5 u2^2 + u1^3 u3^4 < u1^2 u2 u3^3
    // ------------------------------------------------------------------
    let polynomial = Polynomial::from_terms(
        3,
        [
            (nat(1), Monomial::new(vec![7, 0, 0])),
            (nat(1), Monomial::new(vec![5, 2, 0])),
            (nat(1), Monomial::new(vec![3, 0, 4])),
        ],
    );
    let mpi = Mpi::new(polynomial, Monomial::new(vec![2, 1, 3]));
    println!("MPI: {mpi}");

    let system = mpi.to_strict_system();
    println!("\nTheorem 4.1 system (one row per polynomial monomial):");
    for row in system.rows() {
        let rendered: Vec<String> =
            row.to_dense_vec().iter().map(std::string::ToString::to_string).collect();
        println!("  ({}) · ε > 0", rendered.join(", "));
    }

    for engine in [FeasibilityEngine::Simplex, FeasibilityEngine::FourierMotzkin] {
        let direction = system.natural_solution(engine).expect("within budget");
        println!("\n{engine:?} direction ε: {direction:?}");
    }

    let witness = mpi
        .diophantine_solution(FeasibilityEngine::Simplex)
        .expect("within budget")
        .expect("solvable");
    println!("\nextracted Diophantine solution ξ: {witness:?}");
    println!("  P(ξ) = {}", mpi.polynomial().evaluate(&witness));
    println!("  M(ξ) = {}", mpi.monomial().evaluate(&witness));
    assert!(mpi.is_solution(&witness));

    // The paper's own solutions.
    for point in [[nat(1), nat(4), nat(3)], [nat(1), nat(9), nat(3)]] {
        println!(
            "  paper solution {:?}: P = {}, M = {}",
            point.iter().map(Natural::to_decimal_string).collect::<Vec<_>>(),
            mpi.polynomial().evaluate(&point),
            mpi.monomial().evaluate(&point),
        );
        assert!(mpi.is_solution(&point));
    }

    // ------------------------------------------------------------------
    // 2. An unsolvable MPI and Lemma 4.1 in one dimension.
    // ------------------------------------------------------------------
    let unsolvable = Mpi::new(
        Polynomial::from_terms(
            1,
            [(nat(1), Monomial::new(vec![4])), (nat(1), Monomial::new(vec![2]))],
        ),
        Monomial::new(vec![4]),
    );
    println!("\nunsolvable MPI: {unsolvable}");
    println!(
        "  has Diophantine solution? {}",
        unsolvable.has_diophantine_solution(FeasibilityEngine::Simplex).expect("within budget")
    );

    let one_dim = OneDimMpi::new(vec![(nat(2), nat(4)), (nat(1), nat(0))], nat(5));
    println!("\nLemma 4.1 on {one_dim}:");
    println!("  deg(P) = {}, deg(M) = {}", one_dim.polynomial_degree(), one_dim.monomial_degree());
    println!("  smallest solution: {:?}", one_dim.smallest_solution());

    let gmpi = OneDimGmpi::new(
        vec![(Rational::from(1), Rational::from_i64s(7, 2))],
        Rational::from_i64s(15, 4),
    );
    println!("\ngeneralized (rational-exponent) 1-GMPI {gmpi}:");
    println!("  solvable per the degree criterion? {}", gmpi.is_solvable());

    // ------------------------------------------------------------------
    // 3. A tiny ad-hoc system solved with both engines, as a sanity check
    //    that they agree.
    // ------------------------------------------------------------------
    let mut system = StrictHomogeneousSystem::new(2);
    system.push_row_i64(&[2, -1]);
    system.push_row_i64(&[-1, 2]);
    let a = system.is_feasible(FeasibilityEngine::Simplex).expect("within budget");
    let b = system.is_feasible(FeasibilityEngine::FourierMotzkin).expect("within budget");
    println!("\nengines agree on a 2-unknown system: {a} == {b}");
    assert_eq!(a, b);
}
