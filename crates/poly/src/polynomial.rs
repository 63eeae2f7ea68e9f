//! Multivariate polynomials with natural coefficients and exponents.

use core::fmt;
use std::collections::BTreeMap;

use dioph_arith::Natural;

use crate::monomial::Monomial;

/// A polynomial `Σ aᵢ · uᵉⁱ` with natural coefficients `aᵢ ≥ 1` over a fixed
/// vector of unknowns.
///
/// This is exactly the shape of the polynomial `P^{q2}_{q1(t)}(u)` associated
/// with a containing query in Definition 3.3 of the paper: each containment
/// mapping contributes one monomial, and mappings producing the same monomial
/// accumulate into its coefficient.
///
/// The zero polynomial (no terms) is allowed and arises when a containing
/// query admits no containment mapping into the canonical instance.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Polynomial {
    dimension: usize,
    /// Terms keyed by monomial, coefficient strictly positive.
    terms: BTreeMap<Monomial, Natural>,
}

impl Polynomial {
    /// The zero polynomial over `dimension` unknowns.
    pub fn zero(dimension: usize) -> Self {
        Polynomial { dimension, terms: BTreeMap::new() }
    }

    /// Builds a polynomial from a list of `(coefficient, monomial)` terms,
    /// accumulating like terms and dropping zero coefficients.
    ///
    /// # Panics
    /// Panics if any monomial's dimension differs from `dimension`.
    pub fn from_terms(
        dimension: usize,
        terms: impl IntoIterator<Item = (Natural, Monomial)>,
    ) -> Self {
        let mut p = Polynomial::zero(dimension);
        for (coeff, mono) in terms {
            p.add_term(coeff, mono);
        }
        p
    }

    /// Number of unknowns.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Number of (distinct) monomial terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// `true` iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(coefficient, monomial)` pairs in a deterministic order.
    pub fn terms(&self) -> impl Iterator<Item = (&Natural, &Monomial)> {
        self.terms.iter().map(|(m, c)| (c, m))
    }

    /// Adds `coeff · mono` to the polynomial.
    ///
    /// # Panics
    /// Panics if the monomial dimension differs from the polynomial's.
    fn add_term(&mut self, coeff: Natural, mono: Monomial) {
        assert_eq!(mono.dimension(), self.dimension, "monomial dimension mismatch");
        if coeff.is_zero() {
            return;
        }
        self.terms.entry(mono).and_modify(|c| *c += &coeff).or_insert(coeff);
    }

    /// Adds a monomial with coefficient one (the common case when summing
    /// over containment mappings).
    pub fn add_monomial(&mut self, mono: Monomial) {
        self.add_term(Natural::one(), mono);
    }

    /// Adds another polynomial into this one.
    pub fn add_assign(&mut self, other: &Polynomial) {
        assert_eq!(self.dimension, other.dimension, "polynomial dimension mismatch");
        for (coeff, mono) in other.terms() {
            self.add_term(coeff.clone(), mono.clone());
        }
    }

    /// Multiplies two polynomials (convolution of terms).
    pub fn mul(&self, other: &Polynomial) -> Polynomial {
        assert_eq!(self.dimension, other.dimension, "polynomial dimension mismatch");
        let mut out = Polynomial::zero(self.dimension);
        for (ca, ma) in self.terms() {
            for (cb, mb) in other.terms() {
                out.add_term(ca * cb, ma.mul(mb));
            }
        }
        out
    }

    /// Total degree: the maximum degree over all monomials (zero polynomial
    /// has degree 0 by convention).
    pub fn degree(&self) -> u64 {
        self.terms.keys().map(Monomial::degree).max().unwrap_or(0)
    }

    /// Sum of all coefficients (`P(1,…,1)`), useful for bounding the base of
    /// a counterexample (see `Mpi::diophantine_solution`).
    pub fn coefficient_sum(&self) -> Natural {
        let mut acc = Natural::zero();
        for (c, _) in self.terms() {
            acc += c;
        }
        acc
    }

    /// Evaluates the polynomial at a natural-number point.
    pub fn evaluate(&self, point: &[Natural]) -> Natural {
        let mut acc = Natural::zero();
        for (coeff, mono) in self.terms() {
            acc += &(coeff * &mono.evaluate(point));
        }
        acc
    }

    /// Renders the polynomial using custom unknown names.
    pub fn display_with<'a>(&'a self, names: &'a [String]) -> PolynomialDisplay<'a> {
        PolynomialDisplay { polynomial: self, names: Some(names) }
    }
}

/// Helper for displaying a polynomial with custom unknown names.
pub struct PolynomialDisplay<'a> {
    polynomial: &'a Polynomial,
    names: Option<&'a [String]>,
}

impl fmt::Display for PolynomialDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_polynomial(f, self.polynomial, self.names)
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_polynomial(f, self, None)
    }
}

fn format_polynomial(
    f: &mut fmt::Formatter<'_>,
    p: &Polynomial,
    names: Option<&[String]>,
) -> fmt::Result {
    if p.is_zero() {
        return write!(f, "0");
    }
    let mut first = true;
    for (coeff, mono) in p.terms() {
        if !first {
            write!(f, " + ")?;
        }
        first = false;
        let mono_str = match names {
            Some(names) => mono.display_with(names).to_string(),
            None => mono.to_string(),
        };
        if coeff.is_one() && !mono.is_constant() {
            write!(f, "{mono_str}")?;
        } else if mono.is_constant() {
            write!(f, "{coeff}")?;
        } else {
            write!(f, "{coeff}*{mono_str}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat(v: u64) -> Natural {
        Natural::from(v)
    }

    /// The paper's running polynomial: u1^7 + u1^5*u2^2 + u1^3*u3^4.
    fn paper_polynomial() -> Polynomial {
        Polynomial::from_terms(
            3,
            [
                (nat(1), Monomial::new(vec![7, 0, 0])),
                (nat(1), Monomial::new(vec![5, 2, 0])),
                (nat(1), Monomial::new(vec![3, 0, 4])),
            ],
        )
    }

    #[test]
    fn zero_polynomial() {
        let p = Polynomial::zero(2);
        assert!(p.is_zero());
        assert_eq!(p.degree(), 0);
        assert_eq!(p.evaluate(&[nat(5), nat(7)]), nat(0));
        assert_eq!(p.to_string(), "0");
        assert_eq!(p.coefficient_sum(), nat(0));
    }

    #[test]
    fn paper_polynomial_evaluations() {
        let p = paper_polynomial();
        assert_eq!(p.degree(), 7);
        assert_eq!(p.term_count(), 3);
        // Paper, Section 4: P(1,4,3) = 1 + 16 + 81 = 98 and P(1,9,3) = 1 + 81 + 81 = 163.
        assert_eq!(p.evaluate(&[nat(1), nat(4), nat(3)]), nat(98));
        assert_eq!(p.evaluate(&[nat(1), nat(9), nat(3)]), nat(163));
        // At all ones the value is the number of terms: 3 (used in Prop. 4.1).
        assert_eq!(p.evaluate(&[nat(1), nat(1), nat(1)]), nat(3));
        // At any zero the value collapses to 0 for this polynomial.
        assert_eq!(p.evaluate(&[nat(0), nat(9), nat(3)]), nat(0));
    }

    #[test]
    fn like_terms_accumulate() {
        let mut p = Polynomial::zero(2);
        p.add_monomial(Monomial::new(vec![1, 1]));
        p.add_monomial(Monomial::new(vec![1, 1]));
        p.add_term(nat(3), Monomial::new(vec![1, 1]));
        assert_eq!(p.term_count(), 1);
        assert_eq!(p.coefficient_sum(), nat(5));
        assert_eq!(p.evaluate(&[nat(2), nat(3)]), nat(30));
    }

    #[test]
    fn zero_coefficient_is_dropped() {
        let mut p = Polynomial::zero(1);
        p.add_term(nat(0), Monomial::new(vec![4]));
        assert!(p.is_zero());
    }

    #[test]
    fn addition_and_multiplication() {
        let a = Polynomial::from_terms(
            2,
            [(nat(2), Monomial::new(vec![1, 0])), (nat(1), Monomial::constant(2))],
        );
        let b = Polynomial::from_terms(2, [(nat(3), Monomial::new(vec![0, 1]))]);
        // (2x + 1)(3y) = 6xy + 3y
        let prod = a.mul(&b);
        assert_eq!(prod.term_count(), 2);
        assert_eq!(prod.evaluate(&[nat(2), nat(5)]), nat(6 * 2 * 5 + 3 * 5));
        let mut sum = a.clone();
        sum.add_assign(&b);
        assert_eq!(sum.evaluate(&[nat(2), nat(5)]), nat(2 * 2 + 1 + 3 * 5));
    }

    #[test]
    fn display_formats() {
        let p = paper_polynomial();
        // Terms are ordered by the monomial's Ord (deterministic, not paper order).
        let s = p.to_string();
        assert!(s.contains("u0^7"));
        assert!(s.contains("u0^5*u1^2"));
        assert!(s.contains("u0^3*u2^4"));
        let constant = Polynomial::from_terms(1, [(nat(4), Monomial::constant(1))]);
        assert_eq!(constant.to_string(), "4");
    }

    #[test]
    fn degree_of_mixed_terms() {
        let p = Polynomial::from_terms(
            3,
            [(nat(1), Monomial::new(vec![1, 1, 1])), (nat(5), Monomial::new(vec![0, 0, 2]))],
        );
        assert_eq!(p.degree(), 3);
    }
}
