//! Property-based tests for the feasibility engines.
//!
//! The central invariants:
//! * the Fourier–Motzkin oracle and the exact fraction-free simplex agree on
//!   feasibility of strict homogeneous systems (the shape produced by the
//!   paper's Theorem 4.1);
//! * every witness returned actually satisfies the system it was asked about;
//! * natural witnesses scale correctly from rational ones;
//! * the sparse fraction-free elimination step matches a dense reference
//!   computation value for value, and keeps its storage canonical.

use dioph_arith::{Integer, Rational};
use dioph_linalg::{
    bareiss, Constraint, FeasibilityEngine, FmOutcome, IntRow, LinearSystem, LpScratch, Relation,
    RowPool, SimplexOutcome, StrictHomogeneousSystem,
};
use proptest::prelude::*;

/// A random strict homogeneous system with small integer coefficients.
fn shs_strategy() -> impl Strategy<Value = StrictHomogeneousSystem> {
    (1usize..5, 1usize..6).prop_flat_map(|(dim, rows)| {
        proptest::collection::vec(proptest::collection::vec(-5i64..=5, dim), rows).prop_map(
            move |rows| {
                let mut sys = StrictHomogeneousSystem::new(dim);
                for row in rows {
                    sys.push_row(row.into_iter().map(Integer::from).collect());
                }
                sys
            },
        )
    })
}

/// A random general (non-homogeneous) linear system for the FM engine.
fn linear_system_strategy() -> impl Strategy<Value = LinearSystem> {
    (1usize..4, 1usize..5).prop_flat_map(|(dim, rows)| {
        let row = (
            proptest::collection::vec(-4i64..=4, dim),
            prop_oneof![
                Just(Relation::Le),
                Just(Relation::Lt),
                Just(Relation::Ge),
                Just(Relation::Gt),
                Just(Relation::Eq)
            ],
            -6i64..=6,
        );
        proptest::collection::vec(row, rows).prop_map(move |rows| {
            let mut sys = LinearSystem::new(dim);
            for (coeffs, rel, rhs) in rows {
                sys.push(Constraint::from_i64s(&coeffs, rel, rhs));
            }
            sys
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The two engines must agree on every strict homogeneous system.
    #[test]
    fn engines_agree_on_strict_homogeneous_systems(sys in shs_strategy()) {
        let simplex = sys.is_feasible(FeasibilityEngine::Simplex).unwrap();
        let fm = sys.is_feasible(FeasibilityEngine::FourierMotzkin).unwrap();
        prop_assert_eq!(simplex, fm, "engines disagree on {:?}", sys);
    }

    /// Natural witnesses must satisfy the system (both engines).
    #[test]
    fn natural_witnesses_are_valid(sys in shs_strategy()) {
        for engine in [FeasibilityEngine::Simplex, FeasibilityEngine::FourierMotzkin] {
            if let Some(w) = sys.natural_solution(engine).unwrap() {
                prop_assert_eq!(w.len(), sys.dimension());
                prop_assert!(sys.is_satisfied_by_naturals(&w), "{:?} gave invalid witness {:?} for {:?}", engine, w, sys);
            }
        }
    }

    /// Scaling the system's rows by positive constants does not change
    /// feasibility (homogeneity).
    #[test]
    fn row_scaling_preserves_feasibility(sys in shs_strategy(), scale in 1i64..8) {
        let mut scaled = StrictHomogeneousSystem::new(sys.dimension());
        for row in sys.rows() {
            scaled.push_row(
                row.to_dense_vec().iter().map(|c| c * &Integer::from(scale)).collect(),
            );
        }
        prop_assert_eq!(
            sys.is_feasible(FeasibilityEngine::Simplex).unwrap(),
            scaled.is_feasible(FeasibilityEngine::Simplex).unwrap()
        );
    }

    /// Adding a row can only shrink the feasible set.
    #[test]
    fn adding_rows_is_monotone(sys in shs_strategy(), extra in proptest::collection::vec(-5i64..=5, 1..5)) {
        let feasible_before = sys.is_feasible(FeasibilityEngine::Simplex).unwrap();
        let mut bigger = sys.clone();
        let mut row = extra;
        row.resize(sys.dimension(), 0);
        bigger.push_row(row.into_iter().map(Integer::from).collect());
        let feasible_after = bigger.is_feasible(FeasibilityEngine::Simplex).unwrap();
        if feasible_after {
            prop_assert!(feasible_before, "adding a constraint made an infeasible system feasible");
        }
    }

    /// Three-way differential: the verdict of the Gordan dual that
    /// `natural_solution` runs equals both the primal kernel's on
    /// `A·x ≥ 1` and the Fourier–Motzkin oracle's, and its witness is
    /// exact — it satisfies the strict system itself, not a rounded copy.
    /// An infeasible system carries a Gordan certificate `λ` with
    /// `Σ_h λ_h·A[h] ≤ 0`, and a feasible one carries none.
    #[test]
    fn simplex_witness_is_exact(sys in shs_strategy()) {
        let witness = sys.natural_solution(FeasibilityEngine::Simplex).unwrap();
        prop_assert_eq!(
            witness.is_some(),
            sys.is_feasible(FeasibilityEngine::FourierMotzkin).unwrap(),
            "verdict diverged from the oracle on {:?}", sys
        );
        let b = vec![Integer::one(); sys.len()];
        let primal = bareiss::feasible_point_int(sys.dimension(), sys.rows().to_vec(), b).unwrap();
        prop_assert_eq!(
            primal.is_feasible(),
            witness.is_some(),
            "verdict diverged from the primal kernel on {:?}", sys
        );
        if let Some(w) = &witness {
            prop_assert!(sys.is_satisfied_by_naturals(w), "{:?} misses {:?}", w, sys);
        }
        let lambda = sys.dual_weights().unwrap();
        prop_assert_eq!(lambda.is_some(), witness.is_none(), "certificate on {:?}", sys);
        if let Some(lambda) = lambda {
            prop_assert!(lambda.iter().any(|l| !l.is_zero()), "zero weights on {:?}", sys);
            prop_assert!(lambda.iter().filter(|l| !l.is_zero()).count() <= sys.dimension() + 1);
            for j in 0..sys.dimension() {
                let mut sum = Integer::zero();
                for (row, weight) in sys.rows().iter().zip(&lambda) {
                    if let Some(coeff) = row.get(j) {
                        sum += &(coeff * &Integer::from(weight));
                    }
                }
                prop_assert!(!sum.is_positive(), "λ = {:?} fails column {} of {:?}", lambda, j, sys);
            }
        }
    }

    /// The simplex outcome does not depend on how the rows were handed in:
    /// dense coefficients (`push_row`) and non-zero entries drawn from a
    /// recycled pool (`push_sparse_row` after `reset_with_pool`) store the
    /// same rows, and a scratch warmed on another system returns the fresh
    /// scratch's witness.
    #[test]
    fn simplex_outcome_is_representation_independent(
        sys in shs_strategy(),
        warm_up in shs_strategy(),
    ) {
        let mut pool = RowPool::new();
        let mut sparse = warm_up.clone();
        sparse.reset_with_pool(sys.dimension(), &mut pool);
        for row in sys.rows() {
            let mut entries = pool.take();
            entries.extend(
                row.to_dense_vec().into_iter().enumerate().filter(|(_, v)| !v.is_zero()),
            );
            sparse.push_sparse_row(entries);
        }
        prop_assert_eq!(sparse.rows(), sys.rows());
        let engine = FeasibilityEngine::Simplex;
        let mut scratch = LpScratch::new();
        warm_up.natural_solution_in(engine, &mut scratch).unwrap();
        let warmed = sparse.natural_solution_in(engine, &mut scratch).unwrap();
        prop_assert_eq!(warmed, sys.natural_solution(engine).unwrap(), "diverged on {:?}", sys);
    }

    /// Exactness holds where cross-multiplied pivot values no longer fit the
    /// inline `i64` variant: coefficients near 2^40 force products past
    /// 2^80, so the hybrid Integer must promote (and the gcd normalisation
    /// must not lose exactness on the way back down). Scaling every unknown's
    /// column by `s > 0` is a change of variables `x = y / s` that Bland's
    /// rule cannot see (reduced-cost signs and per-column ratio orders are
    /// scale-invariant), so the scaled run must return the small run's
    /// witness divided by `s` — on general right-hand sides, through the raw
    /// kernel.
    #[test]
    fn bareiss_exact_division_survives_the_word_boundary(
        base in proptest::collection::vec(proptest::collection::vec(-5i64..=5, 3), 1..5),
        b in proptest::collection::vec(-3i64..=3, 1..5),
        shift in 30u32..45,
    ) {
        let rows = base.len().min(b.len());
        let scale = Integer::from(1i64 << shift);
        let int_rows = |factor: &Integer| -> Vec<IntRow> {
            base[..rows]
                .iter()
                .map(|row| {
                    IntRow::from_dense(
                        &row.iter().map(|&v| Integer::from(v) * factor.clone()).collect::<Vec<_>>(),
                    )
                })
                .collect()
        };
        let b_int: Vec<Integer> = b[..rows].iter().map(|&v| Integer::from(v)).collect();
        let small = bareiss::feasible_point_int(3, int_rows(&Integer::one()), b_int.clone()).unwrap();
        let wide = bareiss::feasible_point_int(3, int_rows(&scale), b_int).unwrap();
        let expected = match small {
            SimplexOutcome::Feasible(x) => {
                let s = Rational::from(scale);
                SimplexOutcome::Feasible(x.iter().map(|v| v / &s).collect())
            }
            SimplexOutcome::Infeasible => SimplexOutcome::Infeasible,
        };
        prop_assert_eq!(wide, expected);
    }

    /// The sparse elimination step computes `pivot·t − factor·s` with the
    /// skip column of `s` left out — checked value for value against a
    /// dense `Vec<Integer>` reference over a chain of eliminations sharing
    /// one spare buffer — and its storage stays canonical: strictly
    /// increasing columns, no stored zeros.
    #[test]
    fn eliminate_fraction_free_matches_dense_reference(
        target in proptest::collection::vec(-3i64..=3, 4..12),
        srcs in proptest::collection::vec(
            (proptest::collection::vec(-3i64..=3, 4..12), -3i64..=3, -2i64..=2, 0usize..16),
            1..6,
        ),
    ) {
        let dim = target.len();
        let ints = |vals: &[i64]| -> Vec<Integer> { vals.iter().map(|&v| Integer::from(v)).collect() };
        let mut expect = ints(&target);
        let mut row = IntRow::from_dense(&expect);
        let mut spare = Vec::new();
        for (src, pivot, factor, skip) in srcs {
            let mut padded = src;
            padded.resize(dim, 0);
            let src = ints(&padded);
            let (pivot, factor) = (Integer::from(pivot), Integer::from(factor));
            expect = (0..dim)
                .map(|c| {
                    let scaled = &pivot * &expect[c];
                    if c == skip { scaled } else { &scaled - &(&factor * &src[c]) }
                })
                .collect();
            row.eliminate_fraction_free(&pivot, &factor, &IntRow::from_dense(&src), skip, &mut spare);
            prop_assert_eq!(row.to_dense_vec(), expect.clone());
            prop_assert!(
                row.entries().windows(2).all(|w| w[0].0 < w[1].0),
                "columns not strictly increasing: {:?}", row.entries()
            );
            prop_assert!(row.entries().iter().all(|(_, v)| !v.is_zero()), "stored zero in {:?}", row.entries());
        }
    }

    /// An [`IntRow`] built from dense coefficients keeps exactly their
    /// non-zeros, round-trips back to them, and displays like the strict
    /// constraint the Fourier–Motzkin oracle reads for it.
    #[test]
    fn int_row_round_trips_its_dense_coefficients(coeffs in proptest::collection::vec(-4i64..=4, 0..10)) {
        let dense: Vec<Integer> = coeffs.iter().map(|&v| Integer::from(v)).collect();
        let row = IntRow::from_dense(&dense);
        let nonzero: Vec<(usize, Integer)> =
            dense.iter().cloned().enumerate().filter(|(_, v)| !v.is_zero()).collect();
        prop_assert_eq!(&row, &IntRow::new(dense.len(), nonzero));
        prop_assert_eq!(row.to_dense_vec(), dense.clone());
        prop_assert_eq!(
            format!("{row} > 0"),
            Constraint::from_integers(&dense, Relation::Gt, Integer::zero()).to_string()
        );
    }

    /// FM witnesses for general systems satisfy all constraints.
    #[test]
    fn fm_witnesses_satisfy_general_systems(sys in linear_system_strategy()) {
        match dioph_linalg::fourier_motzkin::solve(&sys) {
            FmOutcome::Feasible(w) => prop_assert!(sys.is_satisfied_by(&w)),
            FmOutcome::Infeasible => {
                // Spot-check: a handful of small integer points must all fail.
                let dim = sys.dimension();
                let candidates: Vec<Vec<dioph_arith::Rational>> = (-2i64..=2)
                    .flat_map(|v| {
                        (0..dim).map(move |i| {
                            let mut p = vec![dioph_arith::Rational::zero(); dim];
                            p[i] = dioph_arith::Rational::from(v);
                            p
                        })
                    })
                    .collect();
                for p in candidates {
                    prop_assert!(!sys.is_satisfied_by(&p), "FM said infeasible but {:?} satisfies it", p);
                }
            }
        }
    }
}
