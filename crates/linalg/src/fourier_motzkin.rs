//! Fourier–Motzkin elimination over the rationals.
//!
//! This is the "obviously correct" feasibility engine: it decides whether a
//! [`LinearSystem`] (mixing strict and non-strict inequalities and equalities)
//! has a rational solution, and if so produces a witness point by
//! back-substitution. Its worst case is doubly exponential in the number of
//! variables, which is acceptable for the moderate dimensions arising from
//! bag-containment instances and invaluable as a cross-check for the exact
//! simplex kernel (see `bareiss.rs` and experiment E7).
//!
//! Constraint rows are plain dense `Vec<Rational>`s, the form
//! [`Constraint`] already stores: the oracle shares no row code with the
//! kernel it checks.

use dioph_arith::Rational;

use crate::system::{Constraint, LinearSystem, Relation};

/// A constraint normalised to `row · x  ≤/<  constant`.
struct UpperForm {
    row: Vec<Rational>,
    strict: bool,
    constant: Rational,
}

impl UpperForm {
    /// The normalised negation `-row · x ≤/< -constant` of this form's
    /// underlying `≥/>` reading (helper for building inputs).
    fn negated(row: &[Rational], strict: bool, constant: &Rational) -> UpperForm {
        UpperForm { row: row.iter().map(|v| -v).collect(), strict, constant: -constant }
    }
}

/// Normalises an arbitrary constraint into one or two `≤ / <` forms.
fn normalise(c: &Constraint) -> Vec<UpperForm> {
    let row = c.coeffs.clone();
    match c.relation {
        Relation::Le => {
            vec![UpperForm { row, strict: false, constant: c.constant.clone() }]
        }
        Relation::Lt => vec![UpperForm { row, strict: true, constant: c.constant.clone() }],
        Relation::Ge => vec![UpperForm::negated(&row, false, &c.constant)],
        Relation::Gt => vec![UpperForm::negated(&row, true, &c.constant)],
        Relation::Eq => {
            let flipped = UpperForm::negated(&row, false, &c.constant);
            vec![UpperForm { row, strict: false, constant: c.constant.clone() }, flipped]
        }
    }
}

/// The pair-combination step `a_coeff·a + b_coeff·b`.
fn linear_combination(
    a_coeff: &Rational,
    a: &[Rational],
    b_coeff: &Rational,
    b: &[Rational],
) -> Vec<Rational> {
    a.iter().zip(b).map(|(x, y)| &(a_coeff * x) + &(b_coeff * y)).collect()
}

/// The back-substitution dot product `row · point`, skipping the column
/// `skip` (the variable being solved for).
fn dot_skip(row: &[Rational], point: &[Rational], skip: usize) -> Rational {
    let mut acc = Rational::zero();
    for (col, (coeff, value)) in row.iter().zip(point).enumerate() {
        if col != skip && !coeff.is_zero() && !value.is_zero() {
            acc += &(coeff * value);
        }
    }
    acc
}

/// Bounds recorded when a variable is eliminated, used for back-substitution.
struct EliminationStep {
    /// Index of the eliminated variable.
    var: usize,
    /// Lower bounds: `x_var >/≥ (constant - row·x_rest) / neg_coeff` stored
    /// in raw upper form (`row` still includes the eliminated column).
    lowers: Vec<UpperForm>,
    /// Upper bounds in raw upper form.
    uppers: Vec<UpperForm>,
}

/// Outcome of running Fourier–Motzkin elimination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FmOutcome {
    /// The system is feasible; a rational witness point is attached.
    Feasible(Vec<Rational>),
    /// The system has no rational solution.
    Infeasible,
}

impl FmOutcome {
    /// Returns the witness if feasible.
    pub fn witness(&self) -> Option<&[Rational]> {
        match self {
            FmOutcome::Feasible(w) => Some(w),
            FmOutcome::Infeasible => None,
        }
    }

    /// `true` iff the system was found feasible.
    pub fn is_feasible(&self) -> bool {
        matches!(self, FmOutcome::Feasible(_))
    }
}

/// Decides rational feasibility of `system` by Fourier–Motzkin elimination.
///
/// Returns a witness point when feasible. The witness is guaranteed to
/// satisfy every constraint of the input system (this is also asserted in
/// debug builds).
pub fn solve(system: &LinearSystem) -> FmOutcome {
    let dim = system.dimension();
    let mut current: Vec<UpperForm> = system.constraints().iter().flat_map(normalise).collect();
    let mut steps: Vec<EliminationStep> = Vec::with_capacity(dim);

    // Eliminate variables from the highest index down to 0.
    for var in (0..dim).rev() {
        let mut lowers = Vec::new();
        let mut uppers = Vec::new();
        let mut rest = Vec::new();
        for c in current {
            let coeff = &c.row[var];
            if coeff.is_zero() {
                rest.push(c);
            } else if coeff.is_positive() {
                uppers.push(c);
            } else {
                lowers.push(c);
            }
        }
        // Combine every (lower, upper) pair.
        for lo in &lowers {
            for up in &uppers {
                // lo: a·x + l·x_var ≤ c_l with l < 0 and up: b·x + u·x_var ≤
                // c_u with u > 0 combine to u·lo + (−l)·up (both multipliers
                // positive), in which x_var cancels.
                let l = &lo.row[var]; // negative
                let u = &up.row[var]; // positive
                let minus_l = -l;
                let row = linear_combination(u, &lo.row, &minus_l, &up.row);
                debug_assert!(row[var].is_zero(), "eliminated column must cancel exactly");
                let constant = &(&lo.constant * u) + &(&up.constant * &minus_l);
                rest.push(UpperForm { row, strict: lo.strict || up.strict, constant });
            }
        }
        dioph_obs::registry::LP_FM_ELIMINATIONS.incr();
        steps.push(EliminationStep { var, lowers, uppers });
        current = rest;
    }

    // All variables eliminated: the remaining constraints are ground.
    for c in &current {
        debug_assert!(c.row.iter().all(Rational::is_zero));
        let zero = Rational::zero();
        let ok = if c.strict { zero < c.constant } else { zero <= c.constant };
        if !ok {
            return FmOutcome::Infeasible;
        }
    }

    // Back-substitution: steps were pushed from the highest variable down, so
    // processing them in reverse order assigns x_0 first.
    let mut point = vec![Rational::zero(); dim];
    for step in steps.iter().rev() {
        let var = step.var;
        // Compute the numeric lower/upper bounds implied by the recorded
        // constraints given the already chosen values of lower-indexed vars.
        let mut best_lower: Option<(Rational, bool)> = None; // (bound, strict)
        for lo in &step.lowers {
            let coeff = &lo.row[var]; // negative
            let rest_val = dot_skip(&lo.row, &point, var);
            // coeff * x_var ≤ constant - rest  with coeff < 0
            //   =>  x_var ≥ (constant - rest) / coeff
            let bound = &(&lo.constant - &rest_val) / coeff;
            let candidate = (bound, lo.strict);
            best_lower = Some(match best_lower {
                None => candidate,
                Some(prev) => tighter_lower(prev, candidate),
            });
        }
        let mut best_upper: Option<(Rational, bool)> = None;
        for up in &step.uppers {
            let coeff = &up.row[var]; // positive
            let rest_val = dot_skip(&up.row, &point, var);
            let bound = &(&up.constant - &rest_val) / coeff;
            let candidate = (bound, up.strict);
            best_upper = Some(match best_upper {
                None => candidate,
                Some(prev) => tighter_upper(prev, candidate),
            });
        }
        point[var] = pick_value(best_lower, best_upper);
    }

    debug_assert!(system.is_satisfied_by(&point), "FM witness must satisfy the input system");
    FmOutcome::Feasible(point)
}

fn tighter_lower(a: (Rational, bool), b: (Rational, bool)) -> (Rational, bool) {
    match a.0.cmp(&b.0) {
        core::cmp::Ordering::Greater => a,
        core::cmp::Ordering::Less => b,
        core::cmp::Ordering::Equal => (a.0, a.1 || b.1),
    }
}

fn tighter_upper(a: (Rational, bool), b: (Rational, bool)) -> (Rational, bool) {
    match a.0.cmp(&b.0) {
        core::cmp::Ordering::Less => a,
        core::cmp::Ordering::Greater => b,
        core::cmp::Ordering::Equal => (a.0, a.1 || b.1),
    }
}

/// Picks a value inside the (guaranteed non-empty) interval described by the
/// optional lower and upper bounds.
fn pick_value(lower: Option<(Rational, bool)>, upper: Option<(Rational, bool)>) -> Rational {
    match (lower, upper) {
        (None, None) => Rational::zero(),
        (Some((l, strict)), None) => {
            if strict {
                &l + &Rational::one()
            } else {
                l
            }
        }
        (None, Some((u, strict))) => {
            if strict {
                &u - &Rational::one()
            } else {
                u
            }
        }
        (Some((l, ls)), Some((u, us))) => {
            debug_assert!(l <= u, "empty interval during back-substitution");
            if l == u {
                debug_assert!(!ls && !us, "point interval with a strict bound");
                l
            } else if !ls {
                // Prefer the lower endpoint when it is achievable: this keeps
                // witnesses small and integral more often.
                l
            } else if !us {
                u
            } else {
                &(&l + &u) / &Rational::from(2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{Constraint, LinearSystem, Relation};

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_i64s(n, d)
    }

    fn check_feasible(sys: &LinearSystem) -> Vec<Rational> {
        match solve(sys) {
            FmOutcome::Feasible(w) => {
                assert!(sys.is_satisfied_by(&w), "witness {w:?} must satisfy system");
                w
            }
            FmOutcome::Infeasible => panic!("expected feasible system"),
        }
    }

    #[test]
    fn empty_system_is_feasible() {
        let sys = LinearSystem::new(3);
        let w = check_feasible(&sys);
        assert_eq!(w, vec![r(0, 1), r(0, 1), r(0, 1)]);
    }

    #[test]
    fn simple_bounded_region() {
        // 1 <= x <= 3, 2 <= y <= 5, x + y <= 6
        let mut sys = LinearSystem::new(2);
        sys.push(Constraint::from_i64s(&[1, 0], Relation::Ge, 1));
        sys.push(Constraint::from_i64s(&[1, 0], Relation::Le, 3));
        sys.push(Constraint::from_i64s(&[0, 1], Relation::Ge, 2));
        sys.push(Constraint::from_i64s(&[0, 1], Relation::Le, 5));
        sys.push(Constraint::from_i64s(&[1, 1], Relation::Le, 6));
        check_feasible(&sys);
    }

    #[test]
    fn infeasible_contradiction() {
        // x >= 2 and x <= 1
        let mut sys = LinearSystem::new(1);
        sys.push(Constraint::from_i64s(&[1], Relation::Ge, 2));
        sys.push(Constraint::from_i64s(&[1], Relation::Le, 1));
        assert_eq!(solve(&sys), FmOutcome::Infeasible);
    }

    #[test]
    fn strictness_matters() {
        // x >= 1 and x <= 1 is feasible; x > 1 and x <= 1 is not.
        let mut feasible = LinearSystem::new(1);
        feasible.push(Constraint::from_i64s(&[1], Relation::Ge, 1));
        feasible.push(Constraint::from_i64s(&[1], Relation::Le, 1));
        let w = check_feasible(&feasible);
        assert_eq!(w[0], r(1, 1));

        let mut infeasible = LinearSystem::new(1);
        infeasible.push(Constraint::from_i64s(&[1], Relation::Gt, 1));
        infeasible.push(Constraint::from_i64s(&[1], Relation::Le, 1));
        assert_eq!(solve(&infeasible), FmOutcome::Infeasible);
    }

    #[test]
    fn equality_constraints() {
        // x + y = 4, x - y = 2  =>  x = 3, y = 1
        let mut sys = LinearSystem::new(2);
        sys.push(Constraint::from_i64s(&[1, 1], Relation::Eq, 4));
        sys.push(Constraint::from_i64s(&[1, -1], Relation::Eq, 2));
        let w = check_feasible(&sys);
        assert_eq!(w, vec![r(3, 1), r(1, 1)]);
    }

    #[test]
    fn strict_open_interval_needs_midpoint() {
        // 0 < x < 1
        let mut sys = LinearSystem::new(1);
        sys.push(Constraint::from_i64s(&[1], Relation::Gt, 0));
        sys.push(Constraint::from_i64s(&[1], Relation::Lt, 1));
        let w = check_feasible(&sys);
        assert!(w[0] > r(0, 1) && w[0] < r(1, 1));
    }

    #[test]
    fn paper_running_example_system() {
        // The homogeneous system derived from the paper's 3-MPI (Section 4):
        //   -5e1 +  e2 + 3e3 > 0
        //   -3e1 -  e2 + 3e3 > 0
        //   - e1 +  e2 -  e3 > 0   (corrected from the paper's typo; see dioph-poly::mpi tests)
        // together with e_i >= 0. The paper exhibits the solution (0, 2, 1).
        let mut sys = LinearSystem::new(3);
        sys.push(Constraint::from_i64s(&[-5, 1, 3], Relation::Gt, 0));
        sys.push(Constraint::from_i64s(&[-3, -1, 3], Relation::Gt, 0));
        sys.push(Constraint::from_i64s(&[-1, 1, -1], Relation::Gt, 0));
        sys.push_nonnegativity();
        let w = check_feasible(&sys);
        // The witness must satisfy the paper's inequalities (checked by
        // check_feasible); also verify the paper's own solution satisfies it.
        assert!(sys.is_satisfied_by(&[r(0, 1), r(2, 1), r(1, 1)]));
        assert!(sys.is_satisfied_by(&w));
    }

    #[test]
    fn unsolvable_homogeneous_system() {
        // From the unsolvable 1-MPI u^4 + u^2 < u^4: exponents give
        // (4-4)ε > 0 and (4-2)ε > 0 with ε >= 0 — the first is impossible.
        let mut sys = LinearSystem::new(1);
        sys.push(Constraint::from_i64s(&[0], Relation::Gt, 0));
        sys.push(Constraint::from_i64s(&[2], Relation::Gt, 0));
        sys.push_nonnegativity();
        assert_eq!(solve(&sys), FmOutcome::Infeasible);
    }

    #[test]
    fn unbounded_direction_found() {
        // x - y > 3 with both nonnegative: feasible, e.g. (5, 0).
        let mut sys = LinearSystem::new(2);
        sys.push(Constraint::from_i64s(&[1, -1], Relation::Gt, 3));
        sys.push_nonnegativity();
        check_feasible(&sys);
    }

    #[test]
    fn witnesses_are_pinned_exactly() {
        // The exact back-substitution witnesses (recorded before the rows
        // moved to dense storage), not just their validity: a change to
        // the elimination order or the interval pick shows up here.
        let system = |dim: usize, rows: &[(&[i64], Relation, i64)], nonnegative: bool| {
            let mut sys = LinearSystem::new(dim);
            for &(coeffs, relation, constant) in rows {
                sys.push(Constraint::from_i64s(coeffs, relation, constant));
            }
            if nonnegative {
                sys.push_nonnegativity();
            }
            sys
        };
        let witness = |components: &[&str]| -> Vec<Rational> {
            components.iter().map(|c| c.parse().unwrap()).collect()
        };
        use Relation::{Eq, Ge, Gt, Le, Lt};
        let cases: [(LinearSystem, Vec<Rational>); 7] = [
            (
                system(
                    2,
                    &[
                        (&[1, 0], Ge, 1),
                        (&[1, 0], Le, 3),
                        (&[0, 1], Ge, 2),
                        (&[0, 1], Le, 5),
                        (&[1, 1], Le, 6),
                    ],
                    false,
                ),
                witness(&["1", "2"]),
            ),
            (system(1, &[(&[1], Ge, 1), (&[1], Le, 1)], false), witness(&["1"])),
            (system(2, &[(&[1, 1], Eq, 4), (&[1, -1], Eq, 2)], false), witness(&["3", "1"])),
            (system(1, &[(&[1], Gt, 0), (&[1], Lt, 1)], false), witness(&["1/2"])),
            (
                system(
                    3,
                    &[(&[-5, 1, 3], Gt, 0), (&[-3, -1, 3], Gt, 0), (&[-1, 1, -1], Gt, 0)],
                    true,
                ),
                witness(&["0", "1", "2/3"]),
            ),
            (system(2, &[(&[1, -1], Gt, 3)], true), witness(&["4", "0"])),
            (
                system(
                    4,
                    &[
                        (&[1, 1, 1, 1], Eq, 10),
                        (&[1, -1, 0, 0], Eq, 0),
                        (&[0, 0, 1, 0], Ge, 4),
                        (&[0, 0, 0, 1], Gt, 1),
                    ],
                    true,
                ),
                witness(&["0", "0", "4", "6"]),
            ),
        ];
        for (sys, expected) in cases {
            assert_eq!(solve(&sys), FmOutcome::Feasible(expected), "{sys}");
        }
    }

    #[test]
    fn linear_combination_cancels_exactly() {
        // u*lo + (-l)*up with lo = (-2, 1), up = (3, 5) on column 0:
        // 3*(-2) + 2*3 = 0 — the eliminated column vanishes.
        let row = |vals: &[i64]| -> Vec<Rational> { vals.iter().map(|&v| r(v, 1)).collect() };
        let combined = linear_combination(&r(3, 1), &row(&[-2, 1]), &r(2, 1), &row(&[3, 5]));
        assert_eq!(combined, row(&[0, 13]));
    }

    #[test]
    fn dot_skip_leaves_out_the_solved_column() {
        let row: Vec<Rational> = [2, 0, -1].iter().map(|&v| r(v, 1)).collect();
        let point = [r(1, 1), r(2, 1), r(3, 1)];
        assert_eq!(dot_skip(&row, &point, usize::MAX), r(-1, 1));
        assert_eq!(dot_skip(&row, &point, 2), r(2, 1));
    }

    #[test]
    fn higher_dimensional_equalities_and_inequalities() {
        // x0 + x1 + x2 + x3 = 10, x0 = x1, x2 >= 4, x3 > 1, all >= 0.
        let mut sys = LinearSystem::new(4);
        sys.push(Constraint::from_i64s(&[1, 1, 1, 1], Relation::Eq, 10));
        sys.push(Constraint::from_i64s(&[1, -1, 0, 0], Relation::Eq, 0));
        sys.push(Constraint::from_i64s(&[0, 0, 1, 0], Relation::Ge, 4));
        sys.push(Constraint::from_i64s(&[0, 0, 0, 1], Relation::Gt, 1));
        sys.push_nonnegativity();
        check_feasible(&sys);
    }
}
