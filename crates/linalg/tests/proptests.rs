//! Property-based tests for the feasibility engines.
//!
//! The central invariants:
//! * the Fourier–Motzkin oracle and the exact fraction-free simplex agree on
//!   feasibility of strict homogeneous systems (the shape produced by the
//!   paper's Theorem 4.1);
//! * every witness returned actually satisfies the system it was asked about;
//! * natural witnesses scale correctly from rational ones;
//! * dense and sparse [`IntRow`] inputs drive the simplex to identical
//!   outcomes (the pivot order under Bland's rule is
//!   representation-independent).

use dioph_arith::{Integer, Rational};
use dioph_linalg::{
    bareiss, Constraint, FeasibilityEngine, FmOutcome, IntRow, LinearSystem, Relation, Row,
    SimplexOutcome, StrictHomogeneousSystem,
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

    /// The simplex must behave identically — same outcome, same witness —
    /// whether a system's rows arrive dense or sparse: Bland's rule is a
    /// function of coefficient *values*, never of their storage.
    #[test]
    fn simplex_outcome_is_representation_independent(sys in shs_strategy()) {
        let dim = sys.dimension();
        let dense_rows: Vec<IntRow> =
            sys.rows().iter().map(|row| IntRow::dense(row.to_dense_vec())).collect();
        let b = vec![Integer::one(); sys.len()];
        let from_dense = bareiss::feasible_point_int(dim, dense_rows, b.clone()).unwrap();
        let from_stored = bareiss::feasible_point_int(dim, sys.rows().to_vec(), b).unwrap();
        prop_assert_eq!(&from_dense, &from_stored, "representations diverged on {:?}", sys);
        // And both agree with the scratch-threaded front door.
        let front = sys.rational_solution(FeasibilityEngine::Simplex).unwrap();
        prop_assert_eq!(from_dense.witness().map(<[Rational]>::to_vec), front);
    }

    /// Row combination (the FM kernel) matches its dense reference for any
    /// mix of representations.
    #[test]
    fn row_linear_combination_matches_dense_reference(
        a in proptest::collection::vec(-5i64..=5, 1..8),
        b_mask in proptest::collection::vec(-5i64..=5, 1..8),
        ca in -4i64..=4, cb in -4i64..=4,
    ) {
        let dim = a.len().min(b_mask.len());
        let a = &a[..dim];
        let b = &b_mask[..dim];
        let expect: Vec<Rational> = (0..dim)
            .map(|i| {
                &(&Rational::from(ca) * &Rational::from(a[i]))
                    + &(&Rational::from(cb) * &Rational::from(b[i]))
            })
            .collect();
        let dense = |vals: &[i64]| Row::dense(vals.iter().map(|&v| Rational::from(v)).collect());
        let sparse = |vals: &[i64]| {
            Row::sparse(
                vals.len(),
                vals.iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0)
                    .map(|(i, &v)| (i, Rational::from(v)))
                    .collect(),
            )
        };
        for ra in [dense(a), sparse(a)] {
            for rb in [dense(b), sparse(b)] {
                let combined =
                    Row::linear_combination(&Rational::from(ca), &ra, &Rational::from(cb), &rb);
                prop_assert_eq!(combined.to_dense_vec(), expect.clone());
            }
        }
    }

    /// The rational witness is exact: it satisfies the strict system itself
    /// (not just a rounded copy), and its verdict is the Fourier–Motzkin
    /// oracle's.
    #[test]
    fn simplex_rational_witness_is_exact(sys in shs_strategy()) {
        let witness = sys.rational_solution(FeasibilityEngine::Simplex).unwrap();
        prop_assert_eq!(
            witness.is_some(),
            sys.is_feasible(FeasibilityEngine::FourierMotzkin).unwrap(),
            "verdict diverged from the oracle on {:?}", sys
        );
        if let Some(w) = witness {
            prop_assert!(sys.to_linear_system().is_satisfied_by(&w), "{:?} misses {:?}", w, sys);
        }
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
                    IntRow::from_dense_auto(
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

    /// The dense/sparse representation stays canonical through elimination:
    /// `eliminate_fraction_free` densifies past the threshold, and `resparsify` (the pivot
    /// boundary call) brings receded rows back — the ratchet releases.
    #[test]
    fn row_representation_stays_canonical_under_elimination(
        target in proptest::collection::vec(-3i64..=3, 4..12),
        srcs in proptest::collection::vec(
            (proptest::collection::vec(-3i64..=3, 4..12), 1i64..=3, -2i64..=2),
            1..6,
        ),
    ) {
        let dim = target.len();
        let mut row = IntRow::from_dense_auto(
            &target.iter().map(|&v| Integer::from(v)).collect::<Vec<_>>(),
        );
        prop_assert!(row.representation_is_canonical());
        let mut spare = Vec::new();
        for (src, pivot, factor) in srcs {
            let mut padded = src;
            padded.resize(dim, 0);
            let src_row = IntRow::from_dense_auto(
                &padded.iter().map(|&v| Integer::from(v)).collect::<Vec<_>>(),
            );
            row.eliminate_fraction_free(
                &Integer::from(pivot),
                &Integer::from(factor),
                &src_row,
                usize::MAX,
                &mut spare,
            );
            row.resparsify();
            prop_assert!(
                row.representation_is_canonical(),
                "non-canonical representation: nnz={} dim={}",
                row.nnz(),
                row.dim()
            );
        }
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
