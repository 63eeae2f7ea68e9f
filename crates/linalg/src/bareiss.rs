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
//! transposed (Gordan) system it builds from the rows of `A·x > 0`.
//!
//! A textbook rational tableau reduces every entry to lowest terms after
//! every arithmetic operation — one gcd **per entry per pivot**, which
//! dominates the run once pivot values outgrow machine words. This kernel
//! keeps the whole tableau in integers instead:
//!
//! * row `i` stores integers representing the rational row `r_i / d_i`; the
//!   denominator `d_i > 0` is the row's own entry in its basic column, so it
//!   is not stored;
//! * a pivot on `(leave, enter)` with stored pivot `L` updates every other
//!   row by the two-term cross-multiplication `r_i ← L·r_i − r_i[enter]·r_l`
//!   (the Bareiss step, [`IntRow::eliminate_fraction_free`]) and then
//!   divides the row and its rhs by their gcd — a **single** exact division
//!   per row, on machine words (one `u64` binary GCD) whenever every value
//!   fits `i64`. The step multiplies the basic entry by `L` (the leave row
//!   is zero there) and the division divides it with the rest, so it stays
//!   the denominator; the leave row's new basic entry is `L` itself;
//! * the strict Bareiss variant divides by the previous pivot instead, but
//!   it needs a denominator shared by *all* rows, which forces every row —
//!   including the untouched ones — to be rescaled on every pivot. On the
//!   sparse tableaus of Theorem 4.1 that throws away the zero-skipping the
//!   row representation exists for, so this kernel uses the gcd-normalised
//!   per-row form: rows whose pivot-column entry is zero are skipped
//!   entirely, and the per-row gcd bounds coefficient growth at least as
//!   tightly as the previous-pivot division.
//!
//! The phase-1 tableau is stored at half its textbook width. Row `i` reads
//! `a_i·x − s_i = b_i` with a surplus `s_i ≥ 0`, and a row with `b_i > 0`
//! also gets an artificial `a_i` whose column starts as `+e_i`, the
//! negation of the surplus column. Row operations are linear, so the two
//! columns stay negations of each other in every row after every pivot:
//! only the `x | s` columns (width `n + m`) are stored, and an artificial is
//! read and eliminated through its surplus column with the sign flipped.
//! Prices come from one maintained objective row: `S / σ` (`σ > 0`) is the
//! phase-1 reduced-cost row over the stored columns, and each pivot
//! eliminates it with the same Bareiss step (`σ ← L·σ`). Basic columns are
//! exactly zero in `S`, and artificial `a_i` prices at `1 − S[s_i] / σ`, so
//! Bland's rule takes the first negative entry of `S` and otherwise the
//! first artificial with `σ − S[s_i] < 0`.
//!
//! The run leaves its final tableau, basis and objective row in the
//! [`LpScratch`]; callers read what they need from there and nothing else
//! is materialised. The primal point is the basic solution. The surplus
//! prices are the phase-1 duals: surplus `s_i` has cost 0 and column `−e_i`,
//! so its reduced cost is `0 − (−e_i)·y = y_i` for the simplex multipliers
//! `y = c_B·B⁻¹`, and at the optimum `S[s_i] / σ = y_i ≥ 0` with
//! `b·y` equal to the optimal phase-1 objective. Row flips are row
//! operations, which leave reduced costs unchanged, so this holds for
//! flipped rows too.
//!
//! Every decision the simplex takes — Bland's entering column (sign of a
//! reduced cost), the ratio test (comparison of `rhs_i/coeff_i` across
//! rows), tie-breaking, termination — is invariant under scaling a row by a
//! positive constant, so the pivot sequence is exactly that of the rational
//! tableau on the same input, and witness components are read off as
//! canonical [`Rational`]s. The fold changes no stored row (artificial
//! entries are multiples of surplus entries, so every row gcd is the same)
//! and no sign, and artificials keep their textbook indices `n + m + j` in
//! the basis, so tie-breaks compare the same numbers. `tests/pivot_pins.rs`
//! pins witnesses and pivot counts recorded from the full-width tableau,
//! the Fourier–Motzkin differential proptests pin the verdicts, and the
//! `tests/golden/` fixtures pin the witnesses. The kernel deliberately has
//! no shortcut around the tableau (such as rejecting a row with no positive
//! coefficient up front), so the `lp.bareiss.pivots` counter stays a pure
//! function of the pivot sequence.

use dioph_arith::{Integer, Rational};

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
/// every working buffer (tableau rows, objective row, basis, elimination
/// merge output) is drawn from `scratch` and recycled there, so a warmed
/// scratch makes the whole run allocation-free apart from the returned
/// witness. Reuse is capacity-only: pivots and outcome are bit-identical to
/// the fresh-allocation route.
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
    let width = n + a.len();
    scratch.reset();
    for (a_row, b_i) in a.iter().zip(b) {
        // A cold pool hands out empty vectors: size each in one allocation.
        let mut entries = scratch.pool.take();
        entries.reserve(a_row.entries().len() + 1);
        entries.extend_from_slice(a_row.entries());
        push_row(scratch, n, width, entries, b_i.clone());
    }
    Ok(if solve(n, max_iterations, scratch)? {
        SimplexOutcome::Feasible(basic_point(scratch, n))
    } else {
        SimplexOutcome::Infeasible
    })
}

/// Appends the row `a·x ≥ rhs` to the tableau being loaded in `scratch`:
/// `entries` holds the non-zeros of `a` over the `n` structural columns,
/// and `width = n + m` for the `m` rows the finished tableau holds. As the
/// `i`-th row loaded it reads `a·x − s_i = rhs`, with its surplus at column
/// `n + i`. A row whose rhs is `≤ 0` is flipped and starts on its surplus
/// (now `+1`); every other row starts on an artificial, whose column is the
/// negated surplus column and is not stored. In the basis, artificial `j`
/// keeps its textbook column index `width + j`.
pub(crate) fn push_row(
    scratch: &mut LpScratch,
    n: usize,
    width: usize,
    mut entries: Vec<(usize, Integer)>,
    mut rhs: Integer,
) {
    let i = scratch.rows.len();
    entries.push((n + i, Integer::minus_one()));
    if rhs.is_positive() {
        scratch.basis.push(width + scratch.art_row.len());
        scratch.art_row.push(i);
    } else {
        for (_, value) in entries.iter_mut() {
            let taken = core::mem::take(value);
            *value = -taken;
        }
        rhs = -rhs;
        scratch.basis.push(n + i);
    }
    scratch.rows.push(IntRow::new(width, entries));
    scratch.rhs.push(rhs);
}

/// The basic solution of the final tableau in `scratch` over its first `n`
/// columns: the feasible point after [`solve`] returned `true`.
pub(crate) fn basic_point(scratch: &LpScratch, n: usize) -> Vec<Rational> {
    let mut x = vec![Rational::zero(); n]; // alloc-ok: returned witness
    for ((row, value), &basic) in scratch.rows.iter().zip(&scratch.rhs).zip(&scratch.basis) {
        if basic < n {
            // Canonical rational over the basic-column denominator: the
            // value a rational tableau would carry.
            let den = row.get(basic).expect("a basic column holds its row's denominator");
            x[basic] = Rational::new(value.clone(), den.magnitude());
        }
    }
    x
}

/// Pivots the half-width phase-1 tableau loaded in `scratch` (by
/// [`push_row`], over `n` structural columns) to optimality. Returns `true`
/// iff the polyhedron is non-empty. The final tableau and objective row
/// stay in `scratch` for the caller to read: [`basic_point`] for the
/// feasible point, and the objective row for the phase-1 duals.
pub(crate) fn solve(
    n: usize,
    max_iterations: usize,
    scratch: &mut LpScratch,
) -> Result<bool, LinalgError> {
    // Stored column layout: [ x (n) | s (m) ].
    let m = scratch.rows.len();
    let width = n + m;
    let LpScratch { rows, rhs, basis, art_row, objective, merge_buf, .. } = scratch;

    // The phase-1 objective row, scaled: S / σ is the reduced-cost row over
    // the stored columns. With every artificial basic and cost 1 on the
    // artificials, that is −Σ r_i over the artificial rows (the artificial
    // columns themselves price at zero): −Σ a_i on x, summed densely in the
    // merge buffer, and +1 on each of those rows' surplus columns.
    merge_buf.clear();
    merge_buf.extend((0..n).map(|j| (j, Integer::zero())));
    for &i in art_row.iter() {
        for (col, value) in rows[i].entries().iter().take_while(|(col, _)| *col < n) {
            merge_buf[*col].1 -= value;
        }
    }
    let mut cost = core::mem::take(objective).into_entries();
    cost.clear();
    cost.extend(merge_buf.drain(..).filter(|(_, value)| !value.is_zero()));
    cost.extend(art_row.iter().map(|&i| (n + i, Integer::one())));
    *objective = IntRow::new(width, cost);
    let mut scale = Integer::one();
    let mut iterations = 0usize;

    loop {
        iterations += 1;
        dioph_obs::registry::LP_BAREISS_PIVOTS.incr();
        if iterations > max_iterations {
            return Err(LinalgError::IterationBudget { iterations: max_iterations });
        }

        // Entering variable (Bland): the smallest index with a negative
        // reduced cost. Stored columns come first; the artificials follow in
        // row order, which is the column order of their surplus entries.
        let stored = objective.entries().iter().find(|(_, value)| value.is_negative());
        let artificial = || {
            objective.entries().iter().find_map(|(col, value)| {
                if *col < n || *value <= scale {
                    return None;
                }
                let j = art_row.binary_search(&(col - n)).ok()?;
                Some((*col, width + j))
            })
        };
        // (the stored column to read, its basis index, read negated?)
        let entering = match stored {
            Some(&(col, _)) => Some((col, col, false)),
            None => artificial().map(|(col, index)| (col, index, true)),
        };

        let Some((col, enter, negated)) = entering else {
            // Optimal. The objective is the sum of the artificial basics'
            // values; every basic value is non-negative, so it is zero iff
            // each of those right-hand sides is.
            debug_assert!(rhs.iter().all(|value| !value.is_negative()));
            return Ok(!basis
                .iter()
                .zip(rhs.iter())
                .any(|(&basic, value)| basic >= width && !value.is_zero()));
        };
        let column_entry = |stored: &Integer| if negated { -stored } else { stored.clone() };

        // Ratio test. Within a row the denominator cancels
        // (`(rhs_i/d_i) / (coeff_i/d_i) = rhs_i/coeff_i`), so the cross-row
        // comparison `rhs_i/coeff_i < rhs_l/coeff_l` is the integer
        // comparison `rhs_i·coeff_l < rhs_l·coeff_i` (both coeffs positive).
        // Bland tie-breaking by smallest basic variable index.
        let mut leaving: Option<(usize, Integer)> = None; // (row, coeff) of the leader
        for (i, row) in rows.iter().enumerate() {
            let Some(coeff) = row.get(col).map(column_entry) else { continue };
            if !coeff.is_positive() {
                continue;
            }
            let better = leaving.as_ref().is_none_or(|(leader, best_coeff)| {
                let lhs = &rhs[i] * best_coeff;
                let rhs_side = &rhs[*leader] * &coeff;
                lhs < rhs_side || (lhs == rhs_side && basis[i] < basis[*leader])
            });
            if better {
                leaving = Some((i, coeff));
            }
        }

        let Some((leave, pivot)) = leaving else {
            // The phase-1 objective is bounded below by zero, so an unbounded
            // direction cannot occur.
            unreachable!("phase-1 simplex objective cannot be unbounded");
        };

        // Pivot. The stored pivot L is positive; the leave row itself is only
        // normalised, and L becomes its denominator. Every other row with a
        // non-zero enter coefficient F takes the fraction-free
        // cross-multiplication r_i ← L·r_i − F·r_l, followed by one exact
        // gcd reduction of the whole row. Its stored entry in `col` cancels
        // to zero: F·L − L·F for a stored column, and for an artificial
        // L·(−F) − F·(−L) on the surplus that carries it negated. Rows with
        // F = 0 are not touched at all — the zero-skipping a shared
        // denominator would lose.
        for i in 0..m {
            if i == leave {
                continue;
            }
            let factor = rows[i].take(col);
            if factor.is_zero() {
                continue;
            }
            let factor = column_entry(&factor);
            let (leave_row, target_row) = if leave < i {
                let (head, tail) = rows.split_at_mut(i);
                (&head[leave], &mut tail[0])
            } else {
                let (head, tail) = rows.split_at_mut(leave);
                (&tail[0], &mut head[i])
            };
            target_row.eliminate_fraction_free(&pivot, &factor, leave_row, col, merge_buf);
            rhs[i] = &(&pivot * &rhs[i]) - &(&factor * &rhs[leave]);
            normalise_row(target_row, &mut rhs[i]);
        }
        // The objective row takes the same step. Its entry for an entering
        // artificial is σ − S[s_i]; the surplus entry then becomes L·σ, so
        // the artificial prices at zero, and is kept (no column is skipped).
        let (cost_factor, skip) = if negated {
            (&scale - objective.get(col).expect("S[s_i] > σ picked this artificial"), usize::MAX)
        } else {
            (objective.take(col), col)
        };
        objective.eliminate_fraction_free(&pivot, &cost_factor, &rows[leave], skip, merge_buf);
        scale = &pivot * &scale;
        normalise_row(objective, &mut scale);
        normalise_row(&mut rows[leave], &mut rhs[leave]);
        basis[leave] = enter;
    }
}

/// Divides a row and its rhs by the gcd of all their values — the single
/// exact division of the fraction-free step. The gcd includes the row's
/// positive basic entry (or, for the objective row, the positive scale in
/// the rhs slot), so it is positive and the row's rational value is
/// untouched. When every value read fits `i64` the gcd and the division run
/// on machine words; otherwise they run on limbs.
fn normalise_row(row: &mut IntRow, rhs: &mut Integer) {
    let values = core::iter::once(&*rhs).chain(row.entries().iter().map(|(_, value)| value));
    if let Some(g) = Integer::word_gcd(values) {
        if g > 1 {
            row.exact_div_word_assign(g);
            *rhs = Integer::from(rhs.to_i64().expect("the word path read the rhs") / g);
        }
        return;
    }
    let mut g = rhs.magnitude();
    for (_, value) in row.entries() {
        if g.is_one() {
            return;
        }
        g = value.gcd(&Integer::from(g));
    }
    if g.is_one() {
        return;
    }
    debug_assert!(!g.is_zero(), "a positive basic entry keeps the row gcd positive");
    let divisor = Integer::from(g);
    row.exact_div_assign(&divisor);
    *rhs = rhs.exact_div(&divisor);
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
        // Coefficients and right-hand sides at i64::MIN, whose flips and
        // cross-multiplications leave the machine word (recorded from the
        // full-width fraction-free tableau).
        let min = i64::MIN;
        assert_eq!(run(&[&[min, 1], &[1, min], &[1, 1]], &[min, min, 1]), witness(&["1", "0"]));
        assert_eq!(run(&[&[min, i64::MAX], &[2, -1]], &[min, 1]), witness(&["1/2", "0"]));
        assert_eq!(
            run(&[&[min, min, 3], &[1, 0, min], &[0, 1, 1]], &[1, min, 2]),
            SimplexOutcome::Infeasible
        );
        assert_eq!(run(&[&[1, -1], &[-1, 1]], &[min, min]), witness(&["0", "0"]));
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
    fn row_normalisation_is_exact_at_the_word_boundary() {
        // A row and rhs before and after normalisation, and whether the
        // machine-word gcd may take the row. |i64::MIN| = 2^63 fits no
        // positive i64, so a row gcd of exactly 2^63 goes to the limb path.
        let row = |entries: &[(usize, i128)]| {
            IntRow::new(4, entries.iter().map(|&(col, v)| (col, Integer::from(v))).collect())
        };
        let check =
            |entries: &[(usize, i128)], rhs: i128, want: &[(usize, i128)], want_rhs: i128| {
                let (mut r, mut b) = (row(entries), Integer::from(rhs));
                let values = core::iter::once(&b).chain(r.entries().iter().map(|(_, v)| v));
                let on_words = Integer::word_gcd(values).is_some();
                normalise_row(&mut r, &mut b);
                assert_eq!((r, b), (row(want), Integer::from(want_rhs)), "{entries:?}");
                on_words
            };
        let min = i128::from(i64::MIN);
        assert!(check(&[(0, min), (2, 1 << 62)], 0, &[(0, -2), (2, 1)], 0));
        assert!(check(&[(1, 3)], min, &[(1, 3)], min));
        assert!(check(&[(0, min), (1, 1 << 62)], min, &[(0, -2), (1, 1)], -2));
        assert!(!check(&[(1, min)], min, &[(1, -1)], -1));
        assert!(!check(&[(0, min), (3, min)], 0, &[(0, -1), (3, -1)], 0));
        assert!(!check(&[(0, min), (1, -min)], min, &[(0, -1), (1, 1)], -1));
        assert!(!check(&[(0, 3 << 64), (1, 6)], 9, &[(0, 1 << 64), (1, 2)], 3));
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
