//! Generalized Monomial–Polynomial Inequalities (GMPIs).
//!
//! Definition 4.1 of the paper also introduces *generalized* MPIs, in which
//! exponents may be non-negative reals. They are only used in the proofs
//! (the collapsed parametric 1-GMPI of Theorem 4.1's "only if" direction uses
//! exponents `logζ*(ξ_j)` which are genuinely real), but Lemma 4.1 — the
//! degree criterion for one-dimensional GMPIs — is an executable statement
//! and is reproduced here over **rational** exponents and coefficients, the
//! exactly-representable subset of the reals.

use core::fmt;

use dioph_arith::Rational;

/// A one-dimensional GMPI `Σ aᵢ·u^{eᵢ} < u^{e}` with rational coefficients
/// `aᵢ ≥ 1` and non-negative rational exponents.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OneDimGmpi {
    terms: Vec<(Rational, Rational)>,
    monomial_exponent: Rational,
}

impl OneDimGmpi {
    /// Builds a 1-GMPI from `(coefficient, exponent)` terms and the monomial
    /// exponent.
    ///
    /// # Panics
    /// Panics if any coefficient is smaller than 1, or any exponent (on
    /// either side) is negative — the shapes excluded by Definition 4.1 and
    /// Lemma 4.1.
    pub fn new(terms: Vec<(Rational, Rational)>, monomial_exponent: Rational) -> Self {
        for (c, e) in &terms {
            assert!(*c >= Rational::one(), "GMPI coefficients must be >= 1 (Lemma 4.1 hypothesis)");
            assert!(!e.is_negative(), "GMPI exponents must be non-negative");
        }
        assert!(!monomial_exponent.is_negative(), "GMPI exponents must be non-negative");
        OneDimGmpi { terms, monomial_exponent }
    }

    /// The polynomial terms `(coefficient, exponent)`.
    pub fn terms(&self) -> &[(Rational, Rational)] {
        &self.terms
    }

    /// Degree of the polynomial side (0 for the empty polynomial).
    pub fn polynomial_degree(&self) -> Rational {
        self.terms.iter().map(|(_, e)| e.clone()).max().unwrap_or_else(Rational::zero)
    }

    /// Degree (exponent) of the monomial side.
    pub fn monomial_degree(&self) -> &Rational {
        &self.monomial_exponent
    }

    /// Lemma 4.1: the 1-GMPI admits a positive Diophantine solution iff the
    /// degree of the polynomial side is strictly smaller than the degree of
    /// the monomial side.
    pub fn is_solvable(&self) -> bool {
        if self.terms.is_empty() {
            return true;
        }
        self.polynomial_degree() < self.monomial_exponent
    }
}

impl fmt::Display for OneDimGmpi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            write!(f, "0")?;
        } else {
            for (i, (c, e)) in self.terms.iter().enumerate() {
                if i > 0 {
                    write!(f, " + ")?;
                }
                write!(f, "{c}*u^({e})")?;
            }
        }
        write!(f, " < u^({})", self.monomial_exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_i64s(n, d)
    }

    #[test]
    fn integer_exponent_cases_match_lemma() {
        // u^4 + u^2 < u^4: unsolvable.
        let bad = OneDimGmpi::new(vec![(r(1, 1), r(4, 1)), (r(1, 1), r(2, 1))], r(4, 1));
        assert!(!bad.is_solvable());

        // 2u^4 + 1 < u^5: solvable.
        let good = OneDimGmpi::new(vec![(r(2, 1), r(4, 1)), (r(1, 1), r(0, 1))], r(5, 1));
        assert!(good.is_solvable());
    }

    #[test]
    fn fractional_exponents() {
        // u^(7/2) < u^(15/4): solvable (degree 7/2 < 15/4).
        let g = OneDimGmpi::new(vec![(r(1, 1), r(7, 2))], r(15, 4));
        assert!(g.is_solvable());

        // u^(15/4) < u^(7/2): unsolvable.
        let g2 = OneDimGmpi::new(vec![(r(1, 1), r(15, 4))], r(7, 2));
        assert!(!g2.is_solvable());
    }

    #[test]
    fn empty_polynomial_is_solvable() {
        let g = OneDimGmpi::new(vec![], r(3, 2));
        assert!(g.is_solvable());
    }

    #[test]
    fn verdicts_are_checked_by_exact_evaluation() {
        // Every exponent below is a multiple of 1/4, so at a perfect fourth
        // power u = t^4 each power is exact: u^(a/4) = t^a.
        let quarters = |e: &Rational| {
            let q = e * &r(4, 1);
            assert!(q.is_integer(), "{e} is not a multiple of 1/4");
            q.numer().to_i64().and_then(|q| u64::try_from(q).ok()).expect("small exponent")
        };
        let sides = |g: &OneDimGmpi, t: u64| {
            let t = Rational::from(t);
            let p = g
                .terms()
                .iter()
                .fold(Rational::zero(), |acc, (c, e)| &acc + &(c * &t.pow(quarters(e))));
            (p, t.pow(quarters(g.monomial_degree())))
        };
        let cases = [
            OneDimGmpi::new(vec![(r(1, 1), r(4, 1)), (r(1, 1), r(2, 1))], r(4, 1)),
            OneDimGmpi::new(vec![(r(2, 1), r(4, 1)), (r(1, 1), r(0, 1))], r(5, 1)),
            OneDimGmpi::new(vec![(r(1, 1), r(7, 2))], r(15, 4)),
            OneDimGmpi::new(vec![(r(1, 1), r(15, 4))], r(7, 2)),
            OneDimGmpi::new(vec![(r(5, 2), r(1, 2)), (r(3, 1), r(3, 4))], r(1, 1)),
            OneDimGmpi::new(vec![(r(7, 3), r(9, 4))], r(9, 4)),
            OneDimGmpi::new(vec![], r(3, 2)),
        ];
        let mut solvable = 0;
        for g in &cases {
            if g.is_solvable() {
                // The constructive half of Lemma 4.1: for t > Σ aᵢ,
                // P(t^4) ≤ (Σ aᵢ)·t^(4·deg P) < t^(4·deg P + 1) ≤ M(t^4).
                let sum = g.terms().iter().fold(Rational::zero(), |acc, (c, _)| &acc + c);
                let t = sum.ceil().to_i64().and_then(|s| u64::try_from(s).ok()).unwrap() + 1;
                let (p, m) = sides(g, t);
                assert!(p < m, "{g} fails at u = {t}^4");
                solvable += 1;
            } else {
                // deg P ≥ deg M with every coefficient ≥ 1: P(u) ≥ M(u) for
                // every u ≥ 1.
                for t in 1..=12 {
                    let (p, m) = sides(g, t);
                    assert!(p >= m, "{g} is solved by u = {t}^4");
                }
            }
        }
        assert_eq!(solvable, 4);
    }

    #[test]
    #[should_panic(expected = "coefficients must be >= 1")]
    fn small_coefficients_are_rejected() {
        let _ = OneDimGmpi::new(vec![(r(1, 2), r(1, 1))], r(2, 1));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_exponents_are_rejected() {
        let _ = OneDimGmpi::new(vec![(r(1, 1), r(-1, 1))], r(2, 1));
    }

    #[test]
    fn display() {
        let g = OneDimGmpi::new(vec![(r(2, 1), r(4, 1))], r(9, 2));
        assert_eq!(g.to_string(), "2*u^(4) < u^(9/2)");
    }
}
