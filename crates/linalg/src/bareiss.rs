//! The exact LP kernel: a fraction-free (Bareiss/Edmonds-style) phase-1
//! simplex over integer rows.
//!
//! It decides whether the polyhedron
//!
//! ```text
//!     { x ∈ ℚⁿ  :  A·x ≥ b,  x ≥ 0 }
//! ```
//!
//! is non-empty and, if so, returns a rational point inside it — the
//! engine behind Theorem 4.2 of the paper (polynomial-time decidability of
//! the Diophantine-solution problem for MPIs). Bland's rule guarantees
//! termination (no cycling). Strict inequalities are handled one level up,
//! by [`StrictHomogeneousSystem`](crate::StrictHomogeneousSystem), via the
//! homogeneity of the systems produced by the paper's reduction:
//! `A·x > 0, x ≥ 0` is rationally feasible iff `A·x ≥ 1, x ≥ 0` is.
//!
//! A textbook rational tableau reduces every entry to lowest terms after
//! every arithmetic operation — one gcd **per entry per pivot**, which
//! dominates the run once pivot values outgrow machine words. This kernel
//! keeps the whole tableau in integers instead:
//!
//! * each row `i` stores integer coefficients plus one positive denominator
//!   `d_i`, representing the rational row `r_i / d_i`;
//! * a pivot on `(leave, enter)` with stored pivot `L` updates every other
//!   row by the two-term cross-multiplication `r_i ← L·r_i − r_i[enter]·r_l`
//!   (the Bareiss step, [`IntRow::eliminate_fraction_free`]), with a
//!   **single** exact division per row — the row is reduced by the gcd of
//!   its entries, rhs and denominator, via [`Integer::checked_exact_div`];
//! * the strict Bareiss variant divides by the previous pivot instead, but
//!   it needs a denominator shared by *all* rows, which forces every row —
//!   including the untouched ones — to be rescaled on every pivot. On the
//!   sparse tableaus of Theorem 4.1 that throws away the zero-skipping the
//!   row representation exists for, so this kernel uses the gcd-normalised
//!   per-row form: rows whose pivot-column entry is zero are skipped
//!   entirely, and the per-row gcd bounds coefficient growth at least as
//!   tightly as the previous-pivot division.
//!
//! Every decision the simplex takes — Bland's entering column (sign of a
//! reduced cost), the ratio test (comparison of `rhs_i/coeff_i` across
//! rows), tie-breaking, termination — is invariant under scaling a row by a
//! positive constant, so the pivot sequence is exactly that of the rational
//! tableau on the same input, and witness components are read off as
//! canonical [`Rational`]s. The Fourier–Motzkin differential proptests pin
//! the verdicts, and the `tests/golden/` fixtures pin the witnesses. The
//! kernel deliberately has no shortcut around the tableau (such as
//! rejecting a row with no positive coefficient up front), so the
//! `lp.bareiss.pivots` counter stays a pure function of the pivot sequence.

use dioph_arith::{Integer, Natural, Rational};

use crate::error::{iteration_budget, LinalgError};
use crate::row::IntRow;
use crate::scratch::LpScratch;

/// Result of a phase-1 simplex run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexOutcome {
    /// A feasible point `x ≥ 0` with `A·x ≥ b` was found.
    Feasible(Vec<Rational>),
    /// The polyhedron is empty.
    Infeasible,
}

impl SimplexOutcome {
    /// Returns the witness if feasible.
    pub fn witness(&self) -> Option<&[Rational]> {
        match self {
            SimplexOutcome::Feasible(w) => Some(w),
            SimplexOutcome::Infeasible => None,
        }
    }

    /// `true` iff a feasible point was found.
    pub fn is_feasible(&self) -> bool {
        matches!(self, SimplexOutcome::Feasible(_))
    }
}

/// Finds `x ≥ 0` with `A·x ≥ b` for integer rows, by fraction-free phase-1
/// simplex.
///
/// # Errors
/// [`LinalgError::IterationBudget`] if the run exceeds its iteration budget
/// (a defensive bound — Bland's rule excludes cycling, so a terminating
/// implementation never reaches it; reporting it as a value keeps a worker
/// thread from panicking and poisoning the engine pool).
///
/// # Panics
/// Panics if a row's dimension differs from `n`, or if the number of rows
/// differs from the length of `b`.
pub fn feasible_point_int(
    n: usize,
    a: Vec<IntRow>,
    b: Vec<Integer>,
) -> Result<SimplexOutcome, LinalgError> {
    let budget = iteration_budget(n + 2 * a.len(), a.len());
    feasible_point_int_with_budget(n, a, b, budget)
}

/// [`feasible_point_int`] with an explicit iteration budget.
///
/// # Errors
/// [`LinalgError::IterationBudget`] after `max_iterations` pivots.
///
/// # Panics
/// As [`feasible_point_int`].
pub fn feasible_point_int_with_budget(
    n: usize,
    a: Vec<IntRow>,
    b: Vec<Integer>,
    max_iterations: usize,
) -> Result<SimplexOutcome, LinalgError> {
    let mut scratch = LpScratch::default();
    feasible_point_int_in(n, &a, &b, max_iterations, &mut scratch)
}

/// [`feasible_point_int_with_budget`] through a caller-provided scratch:
/// every working buffer (standard-form staging, tableau rows, per-pivot
/// reduced costs and basis bitmap, elimination merge output) is drawn from
/// `scratch` and recycled there, so a warmed scratch makes the whole run
/// allocation-free apart from the returned witness. Reuse is capacity-only:
/// pivots and outcome are bit-identical to the fresh-allocation route.
pub(crate) fn feasible_point_int_in(
    n: usize,
    a: &[IntRow],
    b: &[Integer],
    max_iterations: usize,
    scratch: &mut LpScratch,
) -> Result<SimplexOutcome, LinalgError> {
    assert_eq!(a.len(), b.len(), "row count mismatch between A and b");
    for row in a {
        assert_eq!(row.dim(), n, "row dimension mismatch in simplex input");
    }
    if a.is_empty() {
        return Ok(SimplexOutcome::Feasible(vec![Rational::zero(); n])); // alloc-ok: returned witness
    }

    // Standard form: a_i·x - s_i = b_i with s_i ≥ 0, rows normalised to a
    // non-negative rhs. A row whose rhs was ≤ 0 can start on its surplus
    // (flipped to +1); every other row receives an artificial variable.
    //
    // Column layout: [ x (n) | s (m) | artificials (k) ].
    scratch.reset();
    for (i, (a_row, b_i)) in a.iter().zip(b).enumerate() {
        let mut entries = scratch.pool.take();
        entries.extend_from_slice(a_row.entries());
        entries.push((n + i, Integer::minus_one()));
        let mut rhs_i = b_i.clone();
        if rhs_i.is_negative() || rhs_i.is_zero() {
            // Flip the equation so the rhs is non-negative and the surplus
            // column carries +1 (it then serves as the initial basis).
            for (_, value) in entries.iter_mut() {
                let taken = core::mem::take(value);
                *value = -taken;
            }
            rhs_i = -rhs_i;
            scratch.needs_artificial.push(false);
        } else {
            scratch.needs_artificial.push(true);
        }
        scratch.staged.push(entries);
        scratch.rhs.push(rhs_i);
    }

    attach_artificials_and_run(n, max_iterations, scratch)
}

/// The feasibility front door for MPI-derived systems: decides
/// `A·x ≥ 1, x ≥ 0` (the homogeneity scaling of `A·x > 0`) for the stored
/// integer rows directly, with no materialised `b` and no row clones.
/// Pivots and outcome are bit-identical to [`feasible_point_int`] on cloned
/// rows with `b = 1`.
pub(crate) fn feasible_point_scaled_in(
    n: usize,
    a: &[IntRow],
    scratch: &mut LpScratch,
) -> Result<SimplexOutcome, LinalgError> {
    let max_iterations = iteration_budget(n + 2 * a.len(), a.len());
    if a.is_empty() {
        return Ok(SimplexOutcome::Feasible(vec![Rational::zero(); n])); // alloc-ok: returned witness
    }
    scratch.reset();
    for (i, a_row) in a.iter().enumerate() {
        debug_assert_eq!(a_row.dim(), n, "row dimension mismatch in simplex input");
        let mut entries = scratch.pool.take();
        entries.extend_from_slice(a_row.entries());
        entries.push((n + i, Integer::minus_one()));
        // rhs = 1 is positive, so every row starts on an artificial variable
        // (the `b_i > 0` arm of the general construction).
        scratch.needs_artificial.push(true);
        scratch.staged.push(entries);
        scratch.rhs.push(Integer::one());
    }

    attach_artificials_and_run(n, max_iterations, scratch)
}

/// Second construction pass plus the pivot loop: artificial columns are
/// attached once the artificial count is known (every row must be staged
/// first), then the fraction-free pivoting runs to optimality.
fn attach_artificials_and_run(
    n: usize,
    max_iterations: usize,
    scratch: &mut LpScratch,
) -> Result<SimplexOutcome, LinalgError> {
    let m = scratch.staged.len();
    let k = scratch.needs_artificial.iter().filter(|&&needs| needs).count();
    let total = n + m + k;

    // Per-row positive denominators: row i represents rows[i] / dens[i].
    scratch.dens.resize(m, Natural::one());
    {
        let mut art_idx = 0;
        for i in 0..m {
            let mut entries = core::mem::take(&mut scratch.staged[i]);
            if scratch.needs_artificial[i] {
                entries.push((n + m + art_idx, Integer::one()));
                scratch.basis.push(n + m + art_idx);
                art_idx += 1;
            } else {
                scratch.basis.push(n + i);
            }
            scratch.rows.push(IntRow::new(total, entries));
        }
        scratch.staged.clear();
    }

    let LpScratch { rows, rhs, dens, basis, in_basis, reduced, merge_buf, .. } = scratch;
    let mut iterations = 0usize;

    loop {
        iterations += 1;
        dioph_obs::registry::LP_BAREISS_PIVOTS.incr();
        if iterations > max_iterations {
            return Err(LinalgError::IterationBudget { iterations: max_iterations });
        }

        // Reduced costs. The phase-1 cost vector is 0/1 (1 exactly on the
        // artificial columns), so r_j = c_j − Σ r_i[j] / d_i over the
        // artificial-basic rows. Scaled by the positive common denominator
        // L = lcm(d_i) of those rows, L·r_j = L·c_j − Σ r_i[j]·(L / d_i) is
        // an integer with the sign of r_j — and signs are all Bland's rule
        // reads. While every d_i is 1 (the first iteration, and whenever the
        // gcd normalisation brought a row back down) this is plain integer
        // subtraction.
        in_basis.clear();
        in_basis.resize(total, false);
        for &basic in basis.iter() {
            in_basis[basic] = true;
        }
        let mut lcm = Natural::one();
        for (den, &basic) in dens.iter().zip(basis.iter()) {
            if basic >= n + m && !den.is_one() {
                lcm = lcm.lcm(den);
            }
        }
        let scaled_cost = Integer::from(lcm.clone());
        reduced.clear();
        for j in 0..total {
            reduced.push(if j >= n + m { scaled_cost.clone() } else { Integer::zero() });
        }
        for ((row, den), &basic) in rows.iter().zip(dens.iter()).zip(basis.iter()) {
            if basic < n + m {
                continue;
            }
            if *den == lcm {
                for (j, value) in row.entries() {
                    reduced[*j] -= value;
                }
            } else {
                let multiplier = Integer::from(&lcm / den);
                for (j, value) in row.entries() {
                    reduced[*j] -= &(value * &multiplier);
                }
            }
        }
        // Entering variable: smallest index with negative reduced cost (Bland).
        let entering = (0..total).find(|&j| !in_basis[j] && reduced[j].is_negative());

        let Some(enter) = entering else {
            // Optimal. The objective is Σ rhs_i / d_i over the artificial
            // basics; every basic value is non-negative, so it is zero iff
            // each of those right-hand sides is.
            debug_assert!(rhs.iter().all(|value| !value.is_negative()));
            if basis
                .iter()
                .zip(rhs.iter())
                .any(|(&basic, value)| basic >= n + m && !value.is_zero())
            {
                return Ok(SimplexOutcome::Infeasible);
            }
            let mut x = vec![Rational::zero(); n]; // alloc-ok: returned witness
            for i in 0..m {
                if basis[i] < n {
                    // Canonical rational: the value a rational tableau
                    // would carry.
                    x[basis[i]] = Rational::new(rhs[i].clone(), dens[i].clone());
                }
            }
            return Ok(SimplexOutcome::Feasible(x));
        };

        // Ratio test. Within a row the denominator cancels
        // (`(rhs_i/d_i) / (coeff_i/d_i) = rhs_i/coeff_i`), so the cross-row
        // comparison `rhs_i/coeff_i < rhs_l/coeff_l` is the integer
        // comparison `rhs_i·coeff_l < rhs_l·coeff_i` (both coeffs positive).
        // Bland tie-breaking by smallest basic variable index.
        let mut leaving: Option<usize> = None;
        let mut best: Option<(Integer, Integer)> = None; // (rhs, coeff) of the leader
        for i in 0..m {
            let Some(coeff) = rows[i].get(enter) else { continue };
            if !coeff.is_positive() {
                continue;
            }
            let better = match (&best, leaving) {
                (None, _) => true,
                (Some((best_rhs, best_coeff)), Some(leader)) => {
                    let lhs = &rhs[i] * best_coeff;
                    let rhs_side = best_rhs * coeff;
                    lhs < rhs_side || (lhs == rhs_side && basis[i] < basis[leader])
                }
                _ => unreachable!("best and leaving are set together"),
            };
            if better {
                best = Some((rhs[i].clone(), coeff.clone()));
                leaving = Some(i);
            }
        }

        let Some(leave) = leaving else {
            // The phase-1 objective is bounded below by zero, so an unbounded
            // direction cannot occur.
            unreachable!("phase-1 simplex objective cannot be unbounded");
        };

        // Pivot. The stored pivot L is positive; the leave row itself stays
        // untouched — its denominator simply becomes L (rational value
        // r_l / L, i.e. the normalised pivot row with a 1 in the enter
        // column). Every other row with a non-zero enter coefficient F takes
        // the fraction-free cross-multiplication
        //     r_i ← L·r_i − F·r_l ,   d_i ← d_i·L ,
        // followed by one exact gcd reduction of the whole row. Rows with
        // F = 0 are not touched at all — the zero-skipping a shared
        // denominator would lose.
        let pivot = rows[leave].get(enter).cloned().expect("ratio test picked a non-zero pivot");
        for i in 0..m {
            if i == leave {
                continue;
            }
            let factor = rows[i].take(enter);
            if factor.is_zero() {
                continue;
            }
            let (leave_row, target_row) = if leave < i {
                let (head, tail) = rows.split_at_mut(i);
                (&head[leave], &mut tail[0])
            } else {
                let (head, tail) = rows.split_at_mut(leave);
                (&tail[0], &mut head[i])
            };
            target_row.eliminate_fraction_free(&pivot, &factor, leave_row, enter, merge_buf);
            rhs[i] = &(&pivot * &rhs[i]) - &(&factor * &rhs[leave]);
            dens[i] = &dens[i] * &pivot.magnitude();
            normalise_row(target_row, &mut rhs[i], &mut dens[i]);
        }
        dens[leave] = pivot.magnitude();
        normalise_row(&mut rows[leave], &mut rhs[leave], &mut dens[leave]);
        basis[leave] = enter;
    }
}

/// Divides a row, its rhs and its denominator by their common gcd — the
/// single exact division of the fraction-free step. The gcd always includes
/// the (positive) denominator, so the reduced denominator stays positive and
/// the row's rational value is untouched.
fn normalise_row(row: &mut IntRow, rhs: &mut Integer, den: &mut Natural) {
    let mut g: Natural = rhs.gcd(&Integer::from(den.clone()));
    for (_, value) in row.entries() {
        if g.is_one() {
            return;
        }
        g = value.gcd(&Integer::from(g));
    }
    if g.is_one() {
        return;
    }
    debug_assert!(!g.is_zero(), "a positive denominator keeps the row gcd positive");
    let divisor = Integer::from(g.clone());
    row.exact_div_assign(&divisor);
    *rhs = rhs.exact_div(&divisor);
    *den = &*den / &g;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_rows(rows: &[&[i64]]) -> Vec<IntRow> {
        rows.iter()
            .map(|row| {
                IntRow::from_dense(&row.iter().map(|&v| Integer::from(v)).collect::<Vec<_>>())
            })
            .collect()
    }

    fn run(rows: &[&[i64]], b: &[i64]) -> SimplexOutcome {
        let n = rows.first().map_or(0, |r| r.len());
        feasible_point_int(n, int_rows(rows), b.iter().map(|&v| Integer::from(v)).collect())
            .unwrap()
    }

    fn witness(components: &[&str]) -> SimplexOutcome {
        SimplexOutcome::Feasible(components.iter().map(|c| c.parse().unwrap()).collect())
    }

    #[test]
    fn witnesses_are_pinned_exactly() {
        // Exact outcomes of the Bland-rule phase-1 pivot sequence, recorded
        // from the rational tableau this kernel replaced: any change to the
        // pivot order or the witness read-off shows up here.
        assert_eq!(run(&[&[1, 2], &[3, -1]], &[0, -5]), witness(&["0", "0"]));
        assert_eq!(run(&[&[1, 1]], &[3]), witness(&["3", "0"]));
        assert_eq!(run(&[&[-1, -1]], &[1]), SimplexOutcome::Infeasible);
        assert_eq!(run(&[&[1, -1], &[-1, 3]], &[2, 1]), witness(&["7/2", "3/2"]));
        assert_eq!(run(&[&[1], &[-1]], &[5, -2]), SimplexOutcome::Infeasible);
        // The paper's running example, scaled to ≥ 1: the kernel lands on
        // the paper's own solution (0, 2, 1).
        assert_eq!(
            run(&[&[-5, 1, 3], &[-3, -1, 3], &[-1, 1, -1]], &[1, 1, 1]),
            witness(&["0", "2", "1"])
        );
        assert_eq!(run(&[&[0, 0, 0]], &[1]), SimplexOutcome::Infeasible);
        assert_eq!(run(&[&[1, -1], &[0, 1]], &[0, 2]), witness(&["2", "2"]));
        assert_eq!(
            run(
                &[&[1, 1, 1, 1], &[2, -1, 0, 1], &[-1, 2, -1, 1], &[0, 0, 3, -2], &[1, 0, 0, 0]],
                &[10, 4, 7, 1, 1],
            ),
            witness(&["1", "23/7", "27/7", "37/7"])
        );
        assert_eq!(
            run(&[&[1, 0, 0, -1, 0], &[0, 2, 0, 0, -1], &[-1, 0, 3, 0, 0]], &[1, 2, 3]),
            witness(&["1", "1", "4/3", "0", "0"])
        );
        assert_eq!(
            run(&[&[2, -3, 1], &[-1, 4, -2], &[3, 1, -5]], &[1, 1, 1]),
            witness(&["15/8", "21/16", "19/16"])
        );
    }

    #[test]
    fn tableau_rows_stay_canonical_through_the_pivots() {
        // After a run the scratch still holds the final tableau: every row
        // must keep the sparse invariants (strictly increasing columns, no
        // stored zeros) through eliminations, cancellations and gcd
        // normalisation — including the word-boundary promotions.
        let big = 1i64 << 40;
        let systems: [(&[&[i64]], &[i64]); 3] = [
            (
                &[&[1, 1, 1, 1], &[2, -1, 0, 1], &[-1, 2, -1, 1], &[0, 0, 3, -2], &[1, 0, 0, 0]],
                &[10, 4, 7, 1, 1],
            ),
            (&[&[big, -big + 1, 3], &[-big + 3, big, -2], &[1, -2, big]], &[1, 1, 1]),
            (&[&[2, -3, 1], &[-1, 4, -2], &[3, 1, -5]], &[1, 1, 1]),
        ];
        let mut scratch = LpScratch::default();
        for (rows, b) in systems {
            let b: Vec<Integer> = b.iter().map(|&v| Integer::from(v)).collect();
            let outcome =
                feasible_point_int_in(rows[0].len(), &int_rows(rows), &b, 1_000, &mut scratch);
            assert!(outcome.unwrap().is_feasible());
            assert_eq!(scratch.rows.len(), rows.len());
            for row in &scratch.rows {
                let entries = row.entries();
                assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "unsorted: {entries:?}");
                assert!(
                    entries.iter().all(|(col, v)| *col < row.dim() && !v.is_zero()),
                    "{entries:?}"
                );
            }
        }
    }

    #[test]
    fn empty_system_is_feasible() {
        let outcome = feasible_point_int(3, vec![], vec![]).unwrap();
        assert_eq!(outcome, SimplexOutcome::Feasible(vec![Rational::zero(); 3]));
    }

    #[test]
    fn nonpositive_rows_are_refuted_by_the_first_optimality_check() {
        // All coefficients ≤ 0 against b > 0: no reduced cost is negative,
        // so the first iteration already finds the phase-1 optimum with a
        // positive objective — infeasible within a budget of one, and never
        // without building the tableau.
        for row in [&[-1i64, -2][..], &[0, 0][..]] {
            let outcome =
                feasible_point_int_with_budget(2, int_rows(&[row]), vec![Integer::one()], 1);
            assert_eq!(outcome.unwrap(), SimplexOutcome::Infeasible, "{row:?}");
            let err = feasible_point_int_with_budget(2, int_rows(&[row]), vec![Integer::one()], 0);
            assert_eq!(err.unwrap_err(), LinalgError::IterationBudget { iterations: 0 });
        }
    }

    #[test]
    fn coefficients_past_the_machine_word_survive() {
        // Entries around 2^40: a single cross-multiplication already
        // overflows i64 (the inline Integer variant), so the kernel must
        // promote — and the gcd normalisation must bring values back down
        // without losing exactness.
        let big = 1i64 << 40;
        let rows: Vec<Vec<i64>> =
            vec![vec![big, -big + 1, 3], vec![-big + 3, big, -2], vec![1, -2, big]];
        let refs: Vec<&[i64]> = rows.iter().map(std::vec::Vec::as_slice).collect();
        assert_eq!(
            run(&refs, &[1, 1, 1]),
            witness(&[
                "1099511627773/2199023255547",
                "604462909806215075725313/1208925819614079418892283",
                "1649267441662/1208925819614079418892283",
            ])
        );
    }

    #[test]
    fn budget_blowout_is_a_structured_error() {
        // Regression: the kernel used to `assert!` on the budget, panicking
        // the engine-pool worker that held the pair.
        let err = feasible_point_int_with_budget(
            2,
            int_rows(&[&[1, -1], &[-1, 3]]),
            vec![Integer::from(2), Integer::one()],
            1,
        )
        .expect_err("one iteration cannot finish this system");
        assert_eq!(err, LinalgError::IterationBudget { iterations: 1 });
        assert!(err.to_string().contains("iteration budget of 1"), "{err}");
    }
}
