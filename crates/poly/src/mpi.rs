//! Monomial–Polynomial Inequalities (MPIs) and their Diophantine-solution
//! problem (Section 4 of the paper).
//!
//! An n-MPI is the syntactic expression `P(u) < M(u)` where `P` is a
//! polynomial with positive coefficients and natural exponents and `M` is a
//! coefficient-one monomial over the same `n` unknowns (Definition 4.1). A
//! *Diophantine solution* is a natural vector `ξ` with `P(ξ) < M(ξ)`.
//!
//! Theorem 4.1 shows the n-MPI has a Diophantine solution iff the strict
//! homogeneous linear system `{(e − e_i)ᵀ·ε > 0}` does; Theorem 4.2 then
//! concludes PTime decidability via linear-programming feasibility. This
//! module implements both directions, including the *constructive* half:
//! from a natural solution `d` of the linear system we build the collapsed
//! 1-MPI, find a base `ζ*`, and return the explicit witness `ξ_j = ζ*^{d_j}`.

use core::fmt;

use dioph_arith::{Integer, Natural};
use dioph_linalg::{FeasibilityEngine, LinalgError, StrictHomogeneousSystem};

use crate::monomial::Monomial;
use crate::polynomial::Polynomial;
use crate::scratch::MpiScratch;

/// An n-dimensional Monomial–Polynomial Inequality `P(u) < M(u)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Mpi {
    polynomial: Polynomial,
    monomial: Monomial,
}

impl Mpi {
    /// Builds the MPI `polynomial < monomial`.
    ///
    /// # Panics
    /// Panics if the two sides have different dimensions.
    pub fn new(polynomial: Polynomial, monomial: Monomial) -> Self {
        assert_eq!(
            polynomial.dimension(),
            monomial.dimension(),
            "MPI sides must range over the same unknowns"
        );
        Mpi { polynomial, monomial }
    }

    /// The polynomial (left, smaller) side `P(u)`.
    pub fn polynomial(&self) -> &Polynomial {
        &self.polynomial
    }

    /// The monomial (right, larger) side `M(u)`.
    pub fn monomial(&self) -> &Monomial {
        &self.monomial
    }

    /// Number of unknowns `n`.
    pub fn dimension(&self) -> usize {
        self.monomial.dimension()
    }

    /// `true` iff `ξ` satisfies `P(ξ) < M(ξ)`.
    pub fn is_solution(&self, point: &[Natural]) -> bool {
        self.polynomial.evaluate(point) < self.monomial.evaluate(point)
    }

    /// Builds the strict homogeneous linear system `{(e − e_i)ᵀ·ε > 0}` of
    /// Theorem 4.1, one row per polynomial term.
    pub fn to_strict_system(&self) -> StrictHomogeneousSystem {
        let n = self.dimension();
        let e = self.monomial.exponents();
        let mut sys = StrictHomogeneousSystem::new(n);
        for (_, mono) in self.polynomial.terms() {
            // Exponent differences computed directly on the machine words
            // (widened so u64::MAX − 0 stays exact); the hybrid Integer
            // stores each of them inline, and only the non-zero differences
            // are handed over — real MPI rows touch the unknowns of two
            // monomials, so the system stores them sparsely end to end.
            let entries: Vec<(usize, Integer)> = e
                .iter()
                .zip(mono.exponents())
                .enumerate()
                .filter(|(_, (&a, &b))| a != b)
                .map(|(j, (&a, &b))| (j, Integer::from(a as i128 - b as i128)))
                .collect();
            sys.push_sparse_row(entries);
        }
        sys
    }

    /// [`Self::to_strict_system`] into a caller-provided scratch: the system
    /// lives in `scratch`, its rows built from — and, at the next call, torn
    /// back down into — the scratch's recycled entry pool. The produced
    /// system is equal to the one [`Self::to_strict_system`] returns; reuse
    /// is capacity-only.
    pub(crate) fn to_strict_system_in<'s>(
        &self,
        scratch: &'s mut MpiScratch,
    ) -> &'s StrictHomogeneousSystem {
        let n = self.dimension();
        let e = self.monomial.exponents();
        let MpiScratch { sys, lp } = scratch;
        let pool = lp.int_pool();
        sys.reset_with_pool(n, pool);
        for (_, mono) in self.polynomial.terms() {
            // Same entry values and order as `to_strict_system`, written into
            // a pooled vector instead of a fresh one.
            let mut entries = pool.take();
            entries.extend(
                e.iter()
                    .zip(mono.exponents())
                    .enumerate()
                    .filter(|(_, (&a, &b))| a != b)
                    .map(|(j, (&a, &b))| (j, Integer::from(a as i128 - b as i128))),
            );
            sys.push_sparse_row(entries);
        }
        sys
    }

    /// Decides whether the MPI admits a Diophantine solution (Theorem 4.1 +
    /// Theorem 4.2), without constructing one.
    ///
    /// # Errors
    /// [`LinalgError::IterationBudget`] if the LP engine exhausts its
    /// defensive iteration budget.
    pub fn has_diophantine_solution(&self, engine: FeasibilityEngine) -> Result<bool, LinalgError> {
        if self.polynomial.is_zero() {
            // 0 < M(ξ) holds at the all-ones point.
            return Ok(true);
        }
        self.to_strict_system().is_feasible(engine)
    }

    /// Finds an explicit Diophantine solution, if one exists.
    ///
    /// Following the constructive direction of Theorem 4.1:
    /// 1. solve the associated linear system for a natural vector `d`;
    /// 2. collapse the n-MPI to the 1-MPI
    ///    `Σ aᵢ ζ^{eᵢ·d} < ζ^{e·d}` (whose degrees now satisfy Lemma 4.1);
    /// 3. find the smallest base `ζ* ≥ 2` satisfying it (such a base exists
    ///    and is at most `Σ aᵢ + 1`);
    /// 4. return `ξ_j = ζ*^{d_j}`.
    ///
    /// The returned vector is verified against the MPI before being returned
    /// (a defensive check that the whole pipeline is consistent).
    ///
    /// # Errors
    /// [`LinalgError::IterationBudget`] if the LP engine exhausts its
    /// defensive iteration budget.
    pub fn diophantine_solution(
        &self,
        engine: FeasibilityEngine,
    ) -> Result<Option<Vec<Natural>>, LinalgError> {
        let n = self.dimension();
        if self.polynomial.is_zero() {
            return Ok(Some(vec![Natural::one(); n])); // alloc-ok: returned witness
        }
        let Some(d) = self.to_strict_system().natural_solution(engine)? else {
            return Ok(None);
        };
        let zeta = self.smallest_base_for(&d).expect("a base must exist for a valid direction d");
        let point: Vec<Natural> = d
            .iter()
            .map(|dj| {
                let exp = dj.to_u64().expect("LP-derived exponent should fit in u64");
                zeta.pow(exp)
            })
            .collect();
        debug_assert!(self.is_solution(&point), "constructed witness must satisfy the MPI");
        Ok(Some(point))
    }

    /// [`Self::diophantine_solution`] through a caller-provided scratch: both
    /// the Theorem 4.1 system and the LP kernel's working set draw on
    /// `scratch`, so the returned witness is the only allocation a warmed
    /// scratch leaves behind, and it is bit-identical to the scratch-free
    /// route's.
    ///
    /// # Errors
    /// As [`Self::diophantine_solution`].
    pub fn diophantine_solution_in(
        &self,
        engine: FeasibilityEngine,
        scratch: &mut MpiScratch,
    ) -> Result<Option<Vec<Natural>>, LinalgError> {
        let n = self.dimension();
        if self.polynomial.is_zero() {
            return Ok(Some(vec![Natural::one(); n])); // alloc-ok: returned witness
        }
        self.to_strict_system_in(scratch);
        let MpiScratch { sys, lp } = scratch;
        let Some(d) = sys.natural_solution_in(engine, lp)? else {
            return Ok(None);
        };
        let zeta = self.smallest_base_for(&d).expect("a base must exist for a valid direction d");
        let point: Vec<Natural> = d
            .iter()
            .map(|dj| {
                let exp = dj.to_u64().expect("LP-derived exponent should fit in u64");
                zeta.pow(exp)
            })
            .collect(); // alloc-ok: returned witness
        debug_assert!(self.is_solution(&point), "constructed witness must satisfy the MPI");
        Ok(Some(point))
    }

    /// Given a direction `d` (a natural solution of the strict system), finds
    /// the smallest `ζ ≥ 2` such that `ξ_j = ζ^{d_j}` solves the MPI.
    ///
    /// Returns `None` only if `d` is not actually a solution of the system
    /// (in which case no base can work).
    pub fn smallest_base_for(&self, d: &[Natural]) -> Option<Natural> {
        assert_eq!(d.len(), self.dimension(), "direction dimension mismatch");
        // Hoist the exponent conversions out of the search loop: every ζ
        // candidate reuses the same machine-word exponents.
        let exponents: Vec<u64> =
            d.iter().map(|dj| dj.to_u64().expect("direction exponent should fit in u64")).collect();
        // Upper bound: ζ = Σ aᵢ + 1 always works when the degree gap is ≥ 1
        // (see module docs); searching from 2 gives the smallest witness.
        let bound = &self.polynomial.coefficient_sum() + &Natural::from(2u64);
        let mut zeta = Natural::from(2u64);
        while zeta <= bound {
            let point: Vec<Natural> = exponents.iter().map(|&exp| zeta.pow(exp)).collect();
            if self.is_solution(&point) {
                return Some(zeta);
            }
            zeta.add_assign_u64(1);
        }
        None
    }

    /// Renders the MPI with custom unknown names.
    pub fn display_with<'a>(&'a self, names: &'a [String]) -> MpiDisplay<'a> {
        MpiDisplay { mpi: self, names: Some(names) }
    }
}

/// Helper for displaying an MPI with custom unknown names.
pub struct MpiDisplay<'a> {
    mpi: &'a Mpi,
    names: Option<&'a [String]>,
}

impl fmt::Display for MpiDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.names {
            Some(names) => write!(
                f,
                "{} < {}",
                self.mpi.polynomial.display_with(names),
                self.mpi.monomial.display_with(names)
            ),
            None => write!(f, "{} < {}", self.mpi.polynomial, self.mpi.monomial),
        }
    }
}

impl fmt::Display for Mpi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} < {}", self.polynomial, self.monomial)
    }
}

/// A one-dimensional MPI `Σ aᵢ u^{eᵢ} < u^{e}` with natural data, used as the
/// collapsed form in the constructive direction of Theorem 4.1 and directly
/// testable against Lemma 4.1.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OneDimMpi {
    /// Terms `(coefficient, exponent)` of the polynomial side.
    terms: Vec<(Natural, Natural)>,
    /// Exponent of the monomial side.
    monomial_exponent: Natural,
}

impl OneDimMpi {
    /// Builds a 1-MPI from polynomial terms and the monomial exponent.
    pub fn new(terms: Vec<(Natural, Natural)>, monomial_exponent: Natural) -> Self {
        OneDimMpi { terms, monomial_exponent }
    }

    /// Degree of the polynomial side (0 for the zero polynomial).
    pub fn polynomial_degree(&self) -> Natural {
        self.terms
            .iter()
            .filter(|(c, _)| !c.is_zero())
            .map(|(_, e)| e.clone())
            .max()
            .unwrap_or_else(Natural::zero)
    }

    /// Degree of the monomial side.
    pub fn monomial_degree(&self) -> &Natural {
        &self.monomial_exponent
    }

    /// Lemma 4.1: the 1-MPI has a positive Diophantine solution iff
    /// `deg(P) < deg(M)` (given all coefficients are ≥ 1).
    pub fn is_solvable(&self) -> bool {
        if self.terms.iter().all(|(c, _)| c.is_zero()) {
            return true;
        }
        self.polynomial_degree() < self.monomial_exponent
    }

    /// Evaluates the polynomial side at `u`.
    fn evaluate_polynomial(&self, u: &Natural) -> Natural {
        let mut acc = Natural::zero();
        for (c, e) in &self.terms {
            if c.is_zero() {
                continue;
            }
            let exp = e.to_u64().expect("1-MPI exponent should fit in u64");
            acc += &(c * &u.pow(exp));
        }
        acc
    }

    /// Evaluates the monomial side at `u`.
    fn evaluate_monomial(&self, u: &Natural) -> Natural {
        u.pow(self.monomial_exponent.to_u64().expect("1-MPI exponent should fit in u64"))
    }

    /// `true` iff `u` satisfies the inequality.
    pub fn is_solution(&self, u: &Natural) -> bool {
        self.evaluate_polynomial(u) < self.evaluate_monomial(u)
    }

    /// Finds the smallest positive solution, if one exists (Lemma 4.1 makes
    /// the search finite: when solvable, `Σ aᵢ + 1` is always a solution).
    pub fn smallest_solution(&self) -> Option<Natural> {
        if !self.is_solvable() {
            return None;
        }
        let bound = {
            let mut acc = Natural::one();
            for (c, _) in &self.terms {
                acc += c;
            }
            acc
        };
        let mut u = Natural::one();
        while u <= bound {
            if self.is_solution(&u) {
                return Some(u);
            }
            u = &u + &Natural::one();
        }
        unreachable!("Lemma 4.1 guarantees a solution no larger than the coefficient sum + 1")
    }
}

impl fmt::Display for OneDimMpi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            write!(f, "0")?;
        } else {
            for (i, (c, e)) in self.terms.iter().enumerate() {
                if i > 0 {
                    write!(f, " + ")?;
                }
                if c.is_one() {
                    write!(f, "u^{e}")?;
                } else {
                    write!(f, "{c}*u^{e}")?;
                }
            }
        }
        write!(f, " < u^{}", self.monomial_exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat(v: u64) -> Natural {
        Natural::from(v)
    }

    /// The paper's running 3-MPI: u1^7 + u1^5*u2^2 + u1^3*u3^4 < u1^2*u2*u3^3.
    fn paper_mpi() -> Mpi {
        let p = Polynomial::from_terms(
            3,
            [
                (nat(1), Monomial::new(vec![7, 0, 0])),
                (nat(1), Monomial::new(vec![5, 2, 0])),
                (nat(1), Monomial::new(vec![3, 0, 4])),
            ],
        );
        let m = Monomial::new(vec![2, 1, 3]);
        Mpi::new(p, m)
    }

    const ENGINES: [FeasibilityEngine; 2] =
        [FeasibilityEngine::Simplex, FeasibilityEngine::FourierMotzkin];

    #[test]
    fn paper_mpi_solutions_from_the_text() {
        let mpi = paper_mpi();
        // (1, 4, 3): 98 < 108 — a solution (paper, Section 4).
        assert!(mpi.is_solution(&[nat(1), nat(4), nat(3)]));
        // (1, 9, 3): 163 < 243 — also a solution.
        assert!(mpi.is_solution(&[nat(1), nat(9), nat(3)]));
        // All ones: 3 < 1 fails (Proposition 4.1).
        assert!(!mpi.is_solution(&[nat(1), nat(1), nat(1)]));
        // Any zero: both sides zero on the left? P=0 only if u1=0; M=0 too, so fails.
        assert!(!mpi.is_solution(&[nat(0), nat(4), nat(3)]));
        assert!(!mpi.is_solution(&[nat(1), nat(0), nat(3)]));
    }

    #[test]
    fn paper_mpi_strict_system_matches_text() {
        // The paper's unsimplified system is
        //   7ε1 < 2ε1 + ε2 + 3ε3,  5ε1 + 2ε2 < 2ε1 + ε2 + 3ε3,  3ε1 + 4ε3 < 2ε1 + ε2 + 3ε3,
        // i.e. -5ε1 + ε2 + 3ε3 > 0, -3ε1 - ε2 + 3ε3 > 0, -ε1 + ε2 - ε3 > 0.
        // (The third simplified inequality printed in the paper, "-ε1 - ε2 + 3ε3 > 0",
        // is a typo: it does not follow from the third original constraint, while the
        // paper's own solution ε = (0, 2, 1) and derived 1-MPI 2u^4 + 1 < u^5 are
        // consistent with the corrected row (-1, 1, -1) used here.)
        let sys = paper_mpi().to_strict_system();
        assert_eq!(sys.dimension(), 3);
        assert_eq!(sys.len(), 3);
        let rows: Vec<Vec<i64>> = sys
            .rows()
            .iter()
            .map(|r| r.to_dense_vec().iter().map(|c| c.to_i64().unwrap()).collect())
            .collect();
        assert!(rows.contains(&vec![-5, 1, 3]));
        assert!(rows.contains(&vec![-3, -1, 3]));
        assert!(rows.contains(&vec![-1, 1, -1]));
        // The paper's solution ε = (0, 2, 1) satisfies the derived system.
        let paper_solution = [Natural::zero(), nat(2), nat(1)];
        assert!(sys.is_satisfied_by_naturals(&paper_solution));
    }

    #[test]
    fn paper_mpi_is_decided_solvable_and_witnessed() {
        let mpi = paper_mpi();
        for engine in ENGINES {
            assert!(mpi.has_diophantine_solution(engine).unwrap());
            let w = mpi.diophantine_solution(engine).unwrap().unwrap();
            assert!(mpi.is_solution(&w), "witness {w:?} must solve the MPI");
        }
    }

    #[test]
    fn unsolvable_mpi_u4_plus_u2() {
        // u^4 + u^2 < u^4 is unsolvable (paper, Section 4).
        let p = Polynomial::from_terms(
            1,
            [(nat(1), Monomial::new(vec![4])), (nat(1), Monomial::new(vec![2]))],
        );
        let mpi = Mpi::new(p, Monomial::new(vec![4]));
        for engine in ENGINES {
            assert!(!mpi.has_diophantine_solution(engine).unwrap());
            assert!(mpi.diophantine_solution(engine).unwrap().is_none());
        }
    }

    #[test]
    fn solvable_1mpi_from_paper() {
        // 2u^4 + 1 < u^5 has 3 as a solution (paper, Section 4).
        let p = Polynomial::from_terms(
            1,
            [(nat(2), Monomial::new(vec![4])), (nat(1), Monomial::new(vec![0]))],
        );
        let mpi = Mpi::new(p, Monomial::new(vec![5]));
        assert!(mpi.is_solution(&[nat(3)]));
        assert!(!mpi.is_solution(&[nat(2)]));
        for engine in ENGINES {
            let w = mpi.diophantine_solution(engine).unwrap().unwrap();
            assert!(mpi.is_solution(&w));
            // The smallest base the search can find is exactly 3.
            assert_eq!(w, vec![nat(3)]);
        }
    }

    #[test]
    fn zero_polynomial_mpi_is_trivially_solvable() {
        let mpi = Mpi::new(Polynomial::zero(2), Monomial::new(vec![1, 2]));
        for engine in ENGINES {
            assert!(mpi.has_diophantine_solution(engine).unwrap());
            let w = mpi.diophantine_solution(engine).unwrap().unwrap();
            assert!(mpi.is_solution(&w));
            assert_eq!(w, vec![nat(1), nat(1)]);
        }
    }

    #[test]
    fn lower_degree_polynomial_is_always_solvable() {
        // u1*u2 < u1^2*u2^2 is solvable (e.g. at (2,2): 4 < 16).
        let p = Polynomial::from_terms(2, [(nat(1), Monomial::new(vec![1, 1]))]);
        let mpi = Mpi::new(p, Monomial::new(vec![2, 2]));
        for engine in ENGINES {
            assert!(mpi.has_diophantine_solution(engine).unwrap());
            assert!(mpi.is_solution(&mpi.diophantine_solution(engine).unwrap().unwrap()));
        }
    }

    #[test]
    fn proposition_4_1_zero_and_all_ones_never_solve() {
        let mpi = paper_mpi();
        let n = mpi.dimension();
        assert!(!mpi.is_solution(&vec![Natural::zero(); n]));
        assert!(!mpi.is_solution(&vec![Natural::one(); n]));
    }

    #[test]
    fn scratch_route_matches_fresh_route() {
        // The `_in` entry points must produce the identical system and
        // witness as their scratch-free twins — warmed or cold.
        let mut scratch = MpiScratch::new();
        let cases = [
            paper_mpi(),
            Mpi::new(
                Polynomial::from_terms(
                    1,
                    [(nat(1), Monomial::new(vec![4])), (nat(1), Monomial::new(vec![2]))],
                ),
                Monomial::new(vec![4]),
            ),
            Mpi::new(Polynomial::zero(2), Monomial::new(vec![1, 2])),
        ];
        let engine = FeasibilityEngine::Simplex;
        // Reuse one scratch across all cases: later cases run warmed.
        for mpi in &cases {
            assert_eq!(&mpi.to_strict_system(), mpi.to_strict_system_in(&mut scratch));
            assert_eq!(
                mpi.diophantine_solution(engine).unwrap(),
                mpi.diophantine_solution_in(engine, &mut scratch).unwrap(),
            );
        }
    }

    #[test]
    fn display_is_readable() {
        let mpi = paper_mpi();
        let s = mpi.to_string();
        assert!(s.contains('<'));
        assert!(s.contains("u0^2*u1*u2^3"));
    }

    // ------------------------- OneDimMpi -------------------------

    #[test]
    fn one_dim_lemma_4_1() {
        // u^4 + u^2 < u^4: deg 4 !< 4, unsolvable.
        let bad = OneDimMpi::new(vec![(nat(1), nat(4)), (nat(1), nat(2))], nat(4));
        assert!(!bad.is_solvable());
        assert_eq!(bad.smallest_solution(), None);

        // 2u^4 + 1 < u^5: solvable, smallest solution 3.
        let good = OneDimMpi::new(vec![(nat(2), nat(4)), (nat(1), nat(0))], nat(5));
        assert!(good.is_solvable());
        assert_eq!(good.smallest_solution(), Some(nat(3)));
        assert!(good.is_solution(&nat(3)));
        assert!(!good.is_solution(&nat(2)));
    }

    #[test]
    fn one_dim_sides_evaluate_exactly() {
        // 2u^4 + 1 < u^5 at its smallest solution u = 3 (163 < 243) and
        // just below it (33 vs 32).
        let good = OneDimMpi::new(vec![(nat(2), nat(4)), (nat(1), nat(0))], nat(5));
        assert_eq!(good.evaluate_polynomial(&nat(3)), nat(163));
        assert_eq!(good.evaluate_monomial(&nat(3)), nat(243));
        assert_eq!(good.evaluate_polynomial(&nat(2)), nat(33));
        assert_eq!(good.evaluate_monomial(&nat(2)), nat(32));
        // 0^0 = 1: the constant term survives at u = 0.
        assert_eq!(good.evaluate_polynomial(&nat(0)), nat(1));
        assert_eq!(good.evaluate_monomial(&nat(0)), nat(0));
        // Zero coefficients contribute nothing; values past u64 stay exact.
        let wide = OneDimMpi::new(vec![(nat(0), nat(9)), (nat(3), nat(2))], nat(3));
        let u = nat(1 << 40);
        assert_eq!(wide.evaluate_polynomial(&u), &nat(3) * &(&Natural::one() << 80));
        assert_eq!(wide.evaluate_monomial(&u), &Natural::one() << 120);
    }

    #[test]
    fn one_dim_degenerate_cases() {
        // Zero polynomial: always solvable, smallest solution is 1... but the
        // monomial must evaluate > 0, so u = 1 works when the exponent is anything.
        let zero_poly = OneDimMpi::new(vec![], nat(3));
        assert!(zero_poly.is_solvable());
        assert_eq!(zero_poly.smallest_solution(), Some(nat(1)));

        // Coefficient-zero terms are ignored for the degree.
        let ghost = OneDimMpi::new(vec![(nat(0), nat(9)), (nat(1), nat(1))], nat(2));
        assert_eq!(ghost.polynomial_degree(), nat(1));
        assert!(ghost.is_solvable());
    }

    #[test]
    fn one_dim_display() {
        let m = OneDimMpi::new(vec![(nat(2), nat(4)), (nat(1), nat(0))], nat(5));
        assert_eq!(m.to_string(), "2*u^4 + u^0 < u^5");
    }
}
