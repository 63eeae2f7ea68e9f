//! Feasibility of strict homogeneous linear systems.
//!
//! Theorem 4.1 of the paper reduces the Diophantine-solution problem for an
//! n-MPI `P(u) < M(u)` to the question of whether the system
//!
//! ```text
//!     (e − e_i)ᵀ · ε > 0     for i = 1..m,      ε ≥ 0
//! ```
//!
//! has a solution over the naturals, which (as observed in the paper's proof)
//! is equivalent to rational feasibility because the system is homogeneous
//! with rational coefficients: any rational solution can be scaled by the
//! least common multiple of its denominators into a natural one.
//!
//! [`StrictHomogeneousSystem`] captures exactly that shape and decides it
//! with the exact fraction-free simplex of [`crate::bareiss`], extracting
//! natural witnesses. The rows are stored as sparse **integer** [`IntRow`]s
//! built straight from the non-zero exponent differences. Fourier–Motzkin
//! elimination stays reachable through [`FeasibilityEngine::FourierMotzkin`]
//! as the differential oracle that the tests compare the kernel
//! against. The simplex's witness is a natural vector from the start (the
//! dual's prices over their gcd, below); only the Fourier–Motzkin oracle's
//! rational point is scaled by the lcm of its denominators.
//!
//! # The Gordan dual
//!
//! Write `A` for the `k × d` matrix of the rows. The kernel does not solve
//! `A·ε ≥ 1, ε ≥ 0` (`k` rows, one artificial per row). By Gordan's
//! alternative (Ville's form), exactly one of these holds:
//!
//! ```text
//!     ∃ ε ≥ 0 :  A·ε > 0          or          ∃ λ ≥ 0, λ ≠ 0 :  Aᵀ·λ ≤ 0
//! ```
//!
//! so the kernel decides the transposed system instead, over the `k`
//! weights `λ_h`: one row `Σ_h −A[h][j]·λ_h ≥ 0` per unknown `j`, and the
//! normalisation `Σ_h λ_h ≥ 1`. That is `d + 1` rows and a single
//! artificial (the zero right-hand sides start on their surplus). For an
//! MPI, `A[h] = e − e_h`, so `λ` weights the mappings' exponent vectors
//! into a combination that dominates `e`; a one-hot `λ` is the onto-mapping
//! (dominance) condition of Ioannidis and Ramakrishnan.
//!
//! * Dual feasible: the strict system has no solution, and the run stops
//!   there without reading `λ` ([`StrictHomogeneousSystem::dual_weights`]
//!   reads it, off the hot path).
//! * Dual infeasible: `ε_j` is the final price `S[k + j]` of surplus `j`,
//!   divided by the gcd of those `d` prices. Proof: the surplus prices are
//!   the phase-1 duals `y ≥ 0` (see [`crate::bareiss`]). The dual of the
//!   phase-1 LP `min a` reads, on column `λ_h`,
//!   `−Σ_j A[h][j]·y_j + y_d ≤ 0`, that is `A[h]·y[..d] ≥ y_d`; and
//!   `y_d = b·y` is the optimal phase-1 objective, which is `> 0` exactly
//!   when the dual is infeasible. So `A·y[..d] > 0` with `y[..d] ≥ 0`, and
//!   dividing by a positive gcd keeps both.

use dioph_arith::{Integer, Natural, Rational};

use crate::bareiss;
use crate::error::{iteration_budget, LinalgError};
use crate::fourier_motzkin::{self, FmOutcome};
use crate::row::IntRow;
use crate::scratch::{LpScratch, RowPool};
use crate::system::{Constraint, LinearSystem, Relation};

/// Which engine to use when deciding feasibility.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FeasibilityEngine {
    /// The exact fraction-free phase-1 simplex of [`crate::bareiss`]
    /// (default, and the only production route; polynomial in practice).
    #[default]
    Simplex,
    /// Fourier–Motzkin elimination (simple, doubly exponential worst case):
    /// the differential oracle for tests.
    FourierMotzkin,
}

/// A system `{ rows[i] · ε > 0 }` over non-negative unknowns `ε`.
///
/// Rows have integer coefficients (the exponent differences `e − e_i` of the
/// paper are integer vectors) and are stored as sparse [`IntRow`]s.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StrictHomogeneousSystem {
    dimension: usize,
    rows: Vec<IntRow>,
}

impl StrictHomogeneousSystem {
    /// Creates an empty system over `dimension` unknowns.
    pub fn new(dimension: usize) -> Self {
        StrictHomogeneousSystem { dimension, rows: Vec::new() } // alloc-ok: empty constructor
    }

    /// Number of unknowns.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// The coefficient rows.
    pub fn rows(&self) -> &[IntRow] {
        &self.rows
    }

    /// Number of rows (strict inequalities).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff the system has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Adds the strict inequality `row · ε > 0` from dense coefficients.
    ///
    /// # Panics
    /// Panics if the row length differs from the system dimension.
    pub fn push_row(&mut self, row: Vec<Integer>) {
        assert_eq!(row.len(), self.dimension, "row dimension mismatch");
        self.rows.push(IntRow::from_dense(&row));
    }

    /// Adds the strict inequality `row · ε > 0` directly from its non-zero
    /// entries (strictly increasing columns, no explicit zeros) — the
    /// handover path for MPI-derived systems, whose exponent-difference rows
    /// are mostly zeros.
    ///
    /// # Panics
    /// Panics if the entries violate the row invariants (see
    /// [`IntRow::new`]) or mention a column `>= dimension`.
    pub fn push_sparse_row(&mut self, entries: Vec<(usize, Integer)>) {
        self.rows.push(IntRow::new(self.dimension, entries));
    }

    /// Adds a row given as `i64` coefficients (convenience).
    pub fn push_row_i64(&mut self, row: &[i64]) {
        self.push_row(row.iter().map(|&c| Integer::from(c)).collect());
    }

    /// Clears the system for reuse at a (possibly different) dimension,
    /// tearing the old rows back down into `pool` — the recycling half of
    /// the scratch-memory discipline: a caller that owns one system and one
    /// pool rebuilds MPI-derived systems with no fresh row allocations in
    /// the steady state (pair with [`Self::push_sparse_row`] on entries
    /// obtained from [`RowPool::take`]).
    pub fn reset_with_pool(&mut self, dimension: usize, pool: &mut RowPool) {
        self.dimension = dimension;
        for row in self.rows.drain(..) {
            pool.reclaim(row);
        }
    }

    /// Checks whether a natural-number assignment satisfies every row.
    pub fn is_satisfied_by_naturals(&self, point: &[Natural]) -> bool {
        assert_eq!(point.len(), self.dimension, "point dimension mismatch");
        self.rows.iter().all(|row| {
            let mut acc = Integer::zero();
            for (col, coeff) in row.entries() {
                if point[*col].is_zero() {
                    continue;
                }
                acc += &(coeff * &Integer::from(&point[*col]));
            }
            acc.is_positive()
        })
    }

    /// Renders the system as a [`LinearSystem`] with strict rows and explicit
    /// non-negativity constraints: the Fourier–Motzkin oracle's input (the
    /// simplex runs on the stored rows).
    fn to_linear_system(&self) -> LinearSystem {
        let mut sys = LinearSystem::new(self.dimension);
        for row in &self.rows {
            sys.push(Constraint::from_integers(&row.to_dense_vec(), Relation::Gt, Integer::zero()));
        }
        sys.push_nonnegativity();
        sys
    }

    /// Decides feasibility and returns a **natural-number** witness if one
    /// exists (Theorem 4.1's "Diophantine solution" of the linear system).
    ///
    /// The simplex reads the witness off the Gordan dual's final prices,
    /// which are integers, divided by their gcd (see the module docs).
    /// Fourier–Motzkin finds a rational point, which is scaled by the least
    /// common multiple of its denominators; since the system is homogeneous
    /// and every component is non-negative, the scaled vector is a valid
    /// natural solution.
    ///
    /// An empty system (no rows) over at least one unknown is trivially
    /// feasible (witness: all zeros); over zero unknowns it is also feasible
    /// with the empty witness.
    ///
    /// # Examples
    ///
    /// The system of the paper's running example, whose own solution is
    /// `(0, 2, 1)`, and two rows that contradict each other:
    ///
    /// ```
    /// use dioph_arith::Natural;
    /// use dioph_linalg::{FeasibilityEngine, StrictHomogeneousSystem};
    ///
    /// let mut sys = StrictHomogeneousSystem::new(3);
    /// sys.push_row_i64(&[-5, 1, 3]);
    /// sys.push_row_i64(&[-3, -1, 3]);
    /// sys.push_row_i64(&[-1, 1, -1]);
    /// let witness = sys.natural_solution(FeasibilityEngine::Simplex).unwrap().unwrap();
    /// assert_eq!(witness, [0u64, 2, 1].map(Natural::from));
    /// assert!(sys.is_satisfied_by_naturals(&witness));
    ///
    /// let mut contradiction = StrictHomogeneousSystem::new(1);
    /// contradiction.push_row_i64(&[1]);
    /// contradiction.push_row_i64(&[-1]);
    /// assert_eq!(contradiction.natural_solution(FeasibilityEngine::Simplex).unwrap(), None);
    /// ```
    ///
    /// # Errors
    /// [`LinalgError::IterationBudget`] if the simplex exhausts its
    /// (defensive, generous) iteration budget.
    pub fn natural_solution(
        &self,
        engine: FeasibilityEngine,
    ) -> Result<Option<Vec<Natural>>, LinalgError> {
        let mut scratch = LpScratch::default();
        self.natural_solution_in(engine, &mut scratch)
    }

    /// [`Self::natural_solution`] through a caller-provided scratch: the
    /// simplex draws every working buffer from `scratch` (recycled there
    /// afterwards), so a warmed scratch decides a system with no heap
    /// allocation beyond the returned witness. Reuse is capacity-only —
    /// verdicts and witnesses are bit-identical to the fresh-allocation
    /// route. The Fourier–Motzkin engine ignores the scratch (it is not on
    /// any hot path).
    ///
    /// # Errors
    /// As [`Self::natural_solution`].
    pub fn natural_solution_in(
        &self,
        engine: FeasibilityEngine,
        scratch: &mut LpScratch,
    ) -> Result<Option<Vec<Natural>>, LinalgError> {
        dioph_obs::registry::LP_FEASIBILITY_CALLS.incr();
        let _lp_span = dioph_obs::span(dioph_obs::Phase::Lp);
        if self.rows.is_empty() {
            return Ok(Some(vec![Natural::zero(); self.dimension])); // alloc-ok: returned witness
        }
        // A row of all zeros can never be strictly positive.
        if self.rows.iter().any(IntRow::is_zero_row) {
            return Ok(None);
        }
        match engine {
            FeasibilityEngine::Simplex => {
                if self.solve_dual_in(scratch)? {
                    return Ok(None);
                }
                Ok(Some(self.witness_from_prices(scratch)))
            }
            FeasibilityEngine::FourierMotzkin => {
                // Each strict row A_i·ε > 0 normalises to -A_i·ε < 0, and
                // each non-negativity ε_j ≥ 0 to -ε_j ≤ 0.
                match fourier_motzkin::solve(&self.to_linear_system()) {
                    FmOutcome::Feasible(x) => Ok(Some(scale_to_naturals(&x))),
                    FmOutcome::Infeasible => Ok(None),
                }
            }
        }
    }

    /// `true` iff the system admits a solution (equivalently: the associated
    /// MPI admits a Diophantine solution, by Theorem 4.1).
    ///
    /// # Errors
    /// As [`Self::natural_solution`].
    pub fn is_feasible(&self, engine: FeasibilityEngine) -> Result<bool, LinalgError> {
        Ok(self.natural_solution(engine)?.is_some())
    }

    /// The Gordan certificate of infeasibility: natural weights `λ ≥ 0`,
    /// one per row, with `Σ λ > 0` and `Σ_h λ_h·rows[h] ≤ 0` in every
    /// coordinate, supported on at most `dimension + 1` rows (a basic
    /// solution of the transposed system). `None` iff the strict system is
    /// feasible. Not on the decision path: the verdict never reads `λ`.
    ///
    /// # Errors
    /// As [`Self::natural_solution`].
    pub fn dual_weights(&self) -> Result<Option<Vec<Natural>>, LinalgError> {
        let mut scratch = LpScratch::default();
        if !self.solve_dual_in(&mut scratch)? {
            return Ok(None);
        }
        Ok(Some(scale_to_naturals(&bareiss::basic_point(&scratch, self.rows.len()))))
    }

    /// Loads the transposed system (see the module docs) into `scratch`,
    /// its rows drawn from the scratch's pool, and runs the kernel on it.
    /// Returns `true` iff the dual is feasible, i.e. the strict system is
    /// not.
    fn solve_dual_in(&self, scratch: &mut LpScratch) -> Result<bool, LinalgError> {
        let (k, d) = (self.rows.len(), self.dimension);
        let width = k + d + 1;
        scratch.reset();
        for j in 0..d {
            let mut entries = scratch.pool.take();
            entries.extend(
                self.rows.iter().enumerate().filter_map(|(h, row)| Some((h, -row.get(j)?))),
            );
            bareiss::push_row(scratch, k, width, entries, Integer::zero());
        }
        let mut entries = scratch.pool.take();
        entries.reserve(k + 1);
        entries.extend((0..k).map(|h| (h, Integer::one())));
        bareiss::push_row(scratch, k, width, entries, Integer::one());
        bareiss::solve(k, iteration_budget(k + 2 * (d + 1), d + 1), scratch)
    }

    /// Reads `ε` off the final prices of an infeasible dual run: the
    /// surplus prices of the `d` unknown rows over their gcd.
    fn witness_from_prices(&self, scratch: &LpScratch) -> Vec<Natural> {
        let k = self.rows.len();
        let prices = scratch.objective.entries();
        let start = prices.partition_point(|(col, _)| *col < k);
        let end = prices.partition_point(|(col, _)| *col < k + self.dimension);
        let prices = &prices[start..end];
        let gcd = match Integer::word_gcd(prices.iter().map(|(_, price)| price)) {
            Some(g) => Integer::from(g),
            None => Integer::from(
                prices.iter().fold(Natural::zero(), |g, (_, price)| price.gcd(&Integer::from(g))),
            ),
        };
        debug_assert!(gcd.is_positive(), "an infeasible dual prices some surplus above zero");
        let mut epsilon = vec![Natural::zero(); self.dimension]; // alloc-ok: returned witness
        for (col, price) in prices {
            epsilon[col - k] = price.exact_div(&gcd).into_magnitude();
        }
        epsilon
    }
}

/// Scales a non-negative rational vector by the LCM of its denominators,
/// producing a natural vector pointing in the same direction.
///
/// # Panics
/// Panics if any component is negative.
fn scale_to_naturals(point: &[Rational]) -> Vec<Natural> {
    let mut lcm = Natural::one();
    for value in point {
        assert!(!value.is_negative(), "cannot scale a negative rational to a natural");
        lcm = lcm.lcm(value.denom());
    }
    point.iter().map(|value| &value.numer().magnitude() * &(&lcm / value.denom())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENGINES: [FeasibilityEngine; 2] =
        [FeasibilityEngine::Simplex, FeasibilityEngine::FourierMotzkin];

    #[test]
    fn empty_system_is_feasible() {
        for engine in ENGINES {
            let sys = StrictHomogeneousSystem::new(3);
            assert!(sys.is_feasible(engine).unwrap());
            assert_eq!(sys.natural_solution(engine).unwrap().unwrap().len(), 3);
        }
    }

    #[test]
    fn paper_running_example_is_feasible() {
        // {-5ε1 + ε2 + 3ε3 > 0, -3ε1 - ε2 + 3ε3 > 0, -ε1 + ε2 - ε3 > 0}
        // The paper exhibits the solution (0, 2, 1).
        for engine in ENGINES {
            let mut sys = StrictHomogeneousSystem::new(3);
            sys.push_row_i64(&[-5, 1, 3]);
            sys.push_row_i64(&[-3, -1, 3]);
            sys.push_row_i64(&[-1, 1, -1]);
            let nat = sys.natural_solution(engine).unwrap().expect("feasible");
            assert!(sys.is_satisfied_by_naturals(&nat), "{engine:?}: witness {nat:?}");
            // The paper's own solution works too.
            let paper = vec![Natural::zero(), Natural::from(2u64), Natural::from(1u64)];
            assert!(sys.is_satisfied_by_naturals(&paper));
        }
    }

    #[test]
    fn zero_row_is_infeasible() {
        for engine in ENGINES {
            let mut sys = StrictHomogeneousSystem::new(2);
            sys.push_row_i64(&[0, 0]);
            sys.push_row_i64(&[1, 1]);
            assert!(!sys.is_feasible(engine).unwrap());
        }
    }

    #[test]
    fn all_negative_row_is_infeasible() {
        for engine in ENGINES {
            let mut sys = StrictHomogeneousSystem::new(2);
            sys.push_row_i64(&[-1, -2]);
            assert!(!sys.is_feasible(engine).unwrap());
        }
    }

    #[test]
    fn opposing_rows_are_infeasible() {
        // ε1 - ε2 > 0 and ε2 - ε1 > 0 cannot both hold.
        for engine in ENGINES {
            let mut sys = StrictHomogeneousSystem::new(2);
            sys.push_row_i64(&[1, -1]);
            sys.push_row_i64(&[-1, 1]);
            assert!(!sys.is_feasible(engine).unwrap());
        }
    }

    #[test]
    fn single_positive_direction() {
        for engine in ENGINES {
            let mut sys = StrictHomogeneousSystem::new(1);
            sys.push_row_i64(&[3]);
            let nat = sys.natural_solution(engine).unwrap().unwrap();
            assert!(sys.is_satisfied_by_naturals(&nat));
        }
    }

    #[test]
    fn engines_agree_on_structured_instances() {
        // A family of instances where feasibility flips with a parameter.
        for k in -4i64..=4 {
            let mut sys = StrictHomogeneousSystem::new(3);
            sys.push_row_i64(&[k, 1, -1]);
            sys.push_row_i64(&[1, -2, 1]);
            sys.push_row_i64(&[-1, 1, 1]);
            let reference = sys.is_feasible(FeasibilityEngine::Simplex).unwrap();
            for engine in ENGINES {
                assert_eq!(
                    sys.is_feasible(engine).unwrap(),
                    reference,
                    "{engine:?} disagrees at k={k}"
                );
            }
            if let Some(nat) = sys.natural_solution(FeasibilityEngine::Simplex).unwrap() {
                assert!(sys.is_satisfied_by_naturals(&nat));
            }
        }
    }

    #[test]
    fn simplex_witnesses_are_primitive() {
        // The dual's prices are divided by their gcd, so a simplex witness
        // has no common factor: it is the least natural point on its ray.
        let systems: &[&[&[i64]]] = &[
            &[&[-5, 1, 3], &[-3, -1, 3], &[-1, 1, -1]],
            &[&[2, 0], &[0, 4]],
            &[&[6, -2, 0], &[-2, 6, -2], &[0, -2, 6]],
            &[&[1, -3, 9], &[-9, 27, -1]],
        ];
        for rows in systems {
            let mut sys = StrictHomogeneousSystem::new(rows[0].len());
            for row in *rows {
                sys.push_row_i64(row);
            }
            let witness = sys
                .natural_solution(FeasibilityEngine::Simplex)
                .unwrap()
                .unwrap_or_else(|| panic!("{rows:?} is feasible"));
            assert!(sys.is_satisfied_by_naturals(&witness), "{witness:?} misses {rows:?}");
            let gcd = witness.iter().fold(Natural::zero(), |g, w| g.gcd(w));
            assert!(gcd.is_one(), "{witness:?} is not primitive");
        }
    }

    #[test]
    fn paper_running_example_witness_is_pinned() {
        // Not just the verdict: the exact witness is what the JSON
        // certificates print, so it is pinned literally — the paper's own
        // solution (0, 2, 1), recorded from the rational tableau the
        // fraction-free kernel replaced. Fourier–Motzkin is the verdict
        // oracle.
        let mut sys = StrictHomogeneousSystem::new(3);
        sys.push_row_i64(&[-5, 1, 3]);
        sys.push_row_i64(&[-3, -1, 3]);
        sys.push_row_i64(&[-1, 1, -1]);
        let witness = sys.natural_solution(FeasibilityEngine::Simplex).unwrap();
        assert_eq!(witness, Some(vec![Natural::zero(), Natural::from(2u64), Natural::one()]));
        assert!(sys.is_feasible(FeasibilityEngine::FourierMotzkin).unwrap());
    }

    #[test]
    fn reset_with_pool_recycles_rows_and_keeps_witnesses() {
        // A system torn down into a pool and rebuilt from the pool's entry
        // vectors (at a new dimension) stores the same rows, and decides to
        // the same witness, as one built fresh.
        let mut pool = RowPool::new();
        let mut sys = StrictHomogeneousSystem::new(2);
        sys.push_row_i64(&[1, -1]);
        sys.push_row_i64(&[-1, 1]);
        assert!(!sys.is_feasible(FeasibilityEngine::Simplex).unwrap());
        sys.reset_with_pool(3, &mut pool);
        assert!(sys.is_empty());
        assert_eq!(sys.dimension(), 3);
        assert_eq!(pool.held(), 2, "both rows must be recycled");
        for row in [[-5i64, 1, 3], [-3, -1, 3], [-1, 1, -1]] {
            let mut entries = pool.take();
            entries.extend(row.iter().enumerate().map(|(col, &v)| (col, Integer::from(v))));
            sys.push_sparse_row(entries);
        }
        assert_eq!(pool.held(), 0);
        let mut fresh = StrictHomogeneousSystem::new(3);
        fresh.push_row_i64(&[-5, 1, 3]);
        fresh.push_row_i64(&[-3, -1, 3]);
        fresh.push_row_i64(&[-1, 1, -1]);
        assert_eq!(sys.rows(), fresh.rows());
        let engine = FeasibilityEngine::Simplex;
        assert_eq!(sys.natural_solution(engine).unwrap(), fresh.natural_solution(engine).unwrap());
    }

    #[test]
    fn e7_witnesses_are_pinned_for_both_engines() {
        // Systems of the E7 ablation's shape (8 rows, coefficients in
        // -4..=6), drawn with the bench seed, plus the paper's running
        // example. Both engines' exact witnesses are pinned literally, so a
        // changed pivot or elimination order cannot go unnoticed: the
        // Fourier–Motzkin ones were recorded before the row storage was
        // simplified, the simplex ones from the Gordan dual's prices (each
        // is checked against its system as well). The Fourier–Motzkin
        // engine's natural witness is its rational point over the lcm of
        // the denominators.
        let pinned = |rows: &[&[i64]], fm: Option<&[&str]>, simplex: Option<&[&str]>| {
            let mut sys = StrictHomogeneousSystem::new(rows[0].len());
            for row in rows {
                sys.push_row_i64(row);
            }
            let fm: Option<Vec<Rational>> =
                fm.map(|w| w.iter().map(|c| c.parse().unwrap()).collect());
            let point = match fourier_motzkin::solve(&sys.to_linear_system()) {
                FmOutcome::Feasible(x) => Some(x),
                FmOutcome::Infeasible => None,
            };
            assert_eq!(point, fm, "{rows:?}");
            let engine = FeasibilityEngine::FourierMotzkin;
            let scaled = fm.as_deref().map(scale_to_naturals);
            assert_eq!(sys.natural_solution(engine).unwrap(), scaled, "{rows:?}");
            let engine = FeasibilityEngine::Simplex;
            let witness = sys.natural_solution(engine).unwrap();
            let simplex: Option<Vec<Natural>> =
                simplex.map(|w| w.iter().map(|c| c.parse().unwrap()).collect());
            assert_eq!(witness, simplex, "{rows:?}");
            if let Some(w) = witness {
                assert!(sys.is_satisfied_by_naturals(&w), "{w:?} misses {rows:?}");
            }
        };
        pinned(
            &[&[-5, 1, 3], &[-3, -1, 3], &[-1, 1, -1]],
            Some(&["0", "1", "2/3"]),
            Some(&["0", "2", "1"]),
        );
        pinned(
            &[&[3, 5], &[1, 6], &[-1, 6], &[-2, 6], &[2, 1], &[4, 0], &[5, 0], &[1, 5]],
            Some(&["1", "4/3"]),
            Some(&["5", "4"]),
        );
        pinned(
            &[
                &[3, 5, 1],
                &[6, -1, 6],
                &[-2, 6, 2],
                &[1, 4, 0],
                &[5, 0, 1],
                &[5, 1, 5],
                &[-1, 1, -4],
                &[1, 1, -2],
            ],
            Some(&["0", "1", "5/24"]),
            Some(&["2", "7", "0"]),
        );
        pinned(
            &[
                &[6, 3, -1],
                &[-2, -3, 4],
                &[1, 2, -1],
                &[-1, -3, 6],
                &[6, -3, 2],
                &[4, 0, -2],
                &[-3, 2, 1],
                &[1, -4, 3],
            ],
            Some(&["1", "9/8", "107/64"]),
            Some(&["7", "8", "11"]),
        );
        pinned(
            &[
                &[-4, 4, 1, 5],
                &[-1, -4, 5, -4],
                &[3, 6, 6, 5],
                &[4, 1, 5, 6],
                &[-2, -4, 3, -3],
                &[-1, 0, 6, 1],
                &[0, 5, -1, 6],
                &[-3, 0, -2, 3],
            ],
            Some(&["0", "0", "1", "5/6"]),
            Some(&["0", "0", "6", "5"]),
        );
        pinned(
            &[
                &[6, 3, -1, -2],
                &[-3, 4, 1, 2],
                &[-1, -1, -3, 6],
                &[6, -3, 2, 4],
                &[0, -2, -3, 2],
                &[1, 1, -4, 3],
                &[-2, -1, 6, -2],
                &[4, -1, 4, 2],
            ],
            Some(&["1", "0", "31/28", "223/112"]),
            Some(&["16", "0", "12", "19"]),
        );
        pinned(
            &[
                &[0, 5, -1],
                &[6, -3, 0],
                &[-2, 3, -4],
                &[5, -1, 3],
                &[-2, 0, 3],
                &[-1, -2, -4],
                &[2, -3, -1],
                &[3, -4, -4],
            ],
            None,
            None,
        );
    }

    #[test]
    fn kernel_decides_wide_coefficients_and_large_tableaus() {
        // A coefficient past i64: the kernel promotes instead of overflowing,
        // and agrees with the Fourier–Motzkin oracle.
        let mut wide = StrictHomogeneousSystem::new(2);
        wide.push_row(vec![Integer::from(i64::MAX) * Integer::from(4), Integer::from(-1)]);
        let witness = wide.natural_solution(FeasibilityEngine::Simplex).unwrap().unwrap();
        assert!(wide.is_satisfied_by_naturals(&witness));
        assert!(wide.is_feasible(FeasibilityEngine::FourierMotzkin).unwrap());
        // A 16 × 48 tableau (past the old machine-word cliff): the cyclic
        // chain ε_i > ε_{i+1} cannot close, so the system is infeasible.
        let mut big = StrictHomogeneousSystem::new(16);
        for i in 0..48 {
            let mut row = vec![0i64; 16];
            row[i % 16] = 1;
            row[(i + 1) % 16] = -1;
            big.push_row_i64(&row);
        }
        assert!(!big.is_feasible(FeasibilityEngine::Simplex).unwrap());
        // A fixed pseudo-random 24 × 72 system, coefficients in −4..=6: the
        // kernel finishes and its witness satisfies every row.
        let mut state = 7u64;
        let mut random = StrictHomogeneousSystem::new(24);
        for _ in 0..72 {
            let row: Vec<i64> = (0..24)
                .map(|_| {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (state >> 33) as i64 % 11 - 4
                })
                .collect();
            random.push_row_i64(&row);
        }
        let witness = random.natural_solution(FeasibilityEngine::Simplex).unwrap().unwrap();
        assert!(random.is_satisfied_by_naturals(&witness));
    }

    #[test]
    fn dense_and_sparse_pushes_store_the_same_rows() {
        let mut sys = StrictHomogeneousSystem::new(5);
        sys.push_row_i64(&[0, 3, 0, -2, 0]);
        sys.push_sparse_row(vec![(1, Integer::from(3)), (3, Integer::from(-2))]);
        assert_eq!(sys.rows()[0], sys.rows()[1]);
        assert_eq!(sys.rows()[0].entries(), &[(1, Integer::from(3)), (3, Integer::from(-2))]);
        let fm_input = sys.to_linear_system();
        assert_eq!(fm_input.len(), 2 + 5, "two strict rows plus non-negativity");
        assert_eq!(fm_input.constraints()[0].to_string(), "3*x1 - 2*x3 > 0");
    }

    #[test]
    fn scale_to_naturals_clears_denominators() {
        let point =
            vec![Rational::from_i64s(1, 2), Rational::from_i64s(2, 3), Rational::from_i64s(0, 1)];
        let nat = scale_to_naturals(&point);
        assert_eq!(nat, vec![Natural::from(3u64), Natural::from(4u64), Natural::zero()]);
    }

    #[test]
    #[should_panic(expected = "negative rational")]
    fn scale_to_naturals_rejects_negative() {
        let _ = scale_to_naturals(&[Rational::from_i64s(-1, 2)]);
    }
}
