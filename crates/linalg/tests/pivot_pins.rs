//! Pivot-identity pins for the fraction-free kernel.
//!
//! Every Bland entering choice, ratio test and tie-break of the phase-1
//! simplex shows up in two observables: the exact witness and the number of
//! iterations (`lp.bareiss.pivots`). The kernel's own pins (the primal
//! `A·x ≥ b` runs below) were recorded from the full-width tableau
//! (explicit artificial columns, per-row denominators, reduced costs
//! rebuilt every pivot); any storage or pricing change to the kernel must
//! reproduce them literally. The Gordan-dual pins of
//! `StrictHomogeneousSystem::natural_solution` were recorded when the
//! strict systems moved onto the dual.
//!
//! The registry counters are process-global, so this binary holds a single
//! test: no other kernel run can interleave with a counter delta.

use dioph_arith::{Integer, Natural, Rational};
use dioph_linalg::{bareiss, FeasibilityEngine, IntRow, LinalgError, StrictHomogeneousSystem};
use dioph_obs::registry::LP_BAREISS_PIVOTS;

/// The Theorem 4.1 system of a Boolean unary star pair (the benchmark's
/// `lp_star` shape): containee `A^{m_i}('c_i')` for `i < 5`, containing
/// `A^{r_j}(z_j)` for `j < 3`. Mapping `h` sends `z_j` to `c_{h_j}`, in
/// lexicographic order with `z_0` most significant, and contributes the row
/// `m − e_h` where `e_h[i] = Σ_{h_j = i} r_j`.
fn star(m: [i64; 5], rays: [i64; 3]) -> StrictHomogeneousSystem {
    let mut sys = StrictHomogeneousSystem::new(5);
    for h in 0..125 {
        let mut row = m;
        for (ray, target) in rays.iter().zip([h / 25, h / 5 % 5, h % 5]) {
            row[target] -= ray;
        }
        sys.push_row_i64(&row);
    }
    sys
}

fn rationals(components: &[&str]) -> Vec<Rational> {
    components.iter().map(|c| c.parse().unwrap()).collect()
}

/// A pinned star: containee multiplicities and rays, then the witness and
/// pivots of the primal kernel on `A·x ≥ 1` and of the Gordan dual that
/// `natural_solution` runs.
type Pin = ([i64; 5], [i64; 3], Option<Vec<Rational>>, u64, Option<Vec<Natural>>, u64);

/// Runs `solve` and returns its result with the pivots it took.
fn counted<T>(solve: impl FnOnce() -> T) -> (T, u64) {
    let before = LP_BAREISS_PIVOTS.get();
    let out = solve();
    (out, LP_BAREISS_PIVOTS.get() - before)
}

#[test]
fn witnesses_and_pivot_counts_are_pinned() {
    let fifth = rationals(&["1/5"; 5]);
    let first_three: Vec<Natural> = [1u64, 1, 1, 0, 0].map(Natural::from).to_vec();
    // On `A·x ≥ 1` the two refuted systems make Bland re-enter an
    // artificial column (41 and 6 times on the full-width tableau) after
    // its row left the basis. The dual has 6 rows and one artificial.
    let stars: [Pin; 4] = [
        ([2, 2, 1, 1, 1], [2, 4, 1], None, 272, None, 20),
        ([4, 3, 4, 2, 1], [4, 3, 2], Some(fifth.clone()), 303, Some(first_three.clone()), 16),
        ([2, 1, 1, 1, 1], [1, 2, 3], None, 221, None, 9),
        ([2, 1, 4, 2, 2], [1, 2, 3], Some(fifth), 285, Some(first_three), 7),
    ];
    for (m, rays, primal, primal_pivots, dual, dual_pivots) in stars {
        let sys = star(m, rays);
        let b = vec![Integer::one(); sys.len()];
        let (outcome, taken) =
            counted(|| bareiss::feasible_point_int(5, sys.rows().to_vec(), b).unwrap());
        assert_eq!(outcome.witness().map(<[Rational]>::to_vec), primal, "star {m:?} vs {rays:?}");
        assert_eq!(taken, primal_pivots, "primal pivots of star {m:?} against {rays:?}");
        let (solution, taken) =
            counted(|| sys.natural_solution(FeasibilityEngine::Simplex).unwrap());
        assert_eq!(solution, dual, "dual witness of star {m:?} against {rays:?}");
        assert_eq!(taken, dual_pivots, "dual pivots of star {m:?} against {rays:?}");
    }

    // A general system whose rows with `b_i ≤ 0` are flipped and start on
    // their surplus column (no artificial), mixed with artificial rows.
    let rows: [[i64; 4]; 6] =
        [[1, -2, 0, 3], [2, 1, -1, 0], [-1, 0, 2, -1], [0, 3, 1, -2], [1, 1, 1, 1], [-2, 1, 0, 1]];
    let a = || -> Vec<IntRow> {
        rows.iter().map(|row| IntRow::from_dense(&row.map(Integer::from))).collect()
    };
    let b = || [0i64, -1, 4, 1, 6, -3].map(Integer::from).to_vec();
    let (outcome, taken) = counted(|| bareiss::feasible_point_int(4, a(), b()));
    assert_eq!(outcome.unwrap().witness(), Some(&rationals(&["1", "1/4", "13/4", "3/2"])[..]));
    assert_eq!(taken, 8);
    // The count is the whole run: one iteration fewer is a budget error.
    let short = bareiss::feasible_point_int_with_budget(4, a(), b(), 7);
    assert_eq!(short.unwrap_err(), LinalgError::IterationBudget { iterations: 7 });
}
