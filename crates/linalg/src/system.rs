//! Representation of systems of linear constraints over the rationals.

use core::fmt;

use dioph_arith::{Integer, Rational};

/// Comparison operator of a single linear constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Relation {
    /// `lhs ≤ rhs`
    Le,
    /// `lhs < rhs`
    Lt,
    /// `lhs ≥ rhs`
    Ge,
    /// `lhs > rhs`
    Gt,
    /// `lhs = rhs`
    Eq,
}

impl Relation {
    /// Evaluates the relation on two rationals.
    pub fn holds(self, lhs: &Rational, rhs: &Rational) -> bool {
        match self {
            Relation::Le => lhs <= rhs,
            Relation::Lt => lhs < rhs,
            Relation::Ge => lhs >= rhs,
            Relation::Gt => lhs > rhs,
            Relation::Eq => lhs == rhs,
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Relation::Le => "<=",
            Relation::Lt => "<",
            Relation::Ge => ">=",
            Relation::Gt => ">",
            Relation::Eq => "=",
        };
        f.write_str(s)
    }
}

/// A single linear constraint `coeffs · x  REL  constant`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Constraint {
    /// Coefficient of each variable (dense, length = system dimension).
    pub coeffs: Vec<Rational>,
    /// The comparison operator.
    pub relation: Relation,
    /// Right-hand-side constant.
    pub constant: Rational,
}

impl Constraint {
    /// Builds a constraint from rational coefficients.
    pub fn new(coeffs: Vec<Rational>, relation: Relation, constant: Rational) -> Self {
        Constraint { coeffs, relation, constant }
    }

    /// Builds a constraint from integer coefficients and constant.
    pub fn from_integers(coeffs: &[Integer], relation: Relation, constant: Integer) -> Self {
        Constraint {
            coeffs: coeffs.iter().cloned().map(Rational::from).collect(),
            relation,
            constant: Rational::from(constant),
        }
    }

    /// Builds a constraint from `i64` coefficients (convenience for tests).
    pub fn from_i64s(coeffs: &[i64], relation: Relation, constant: i64) -> Self {
        Constraint {
            coeffs: coeffs.iter().map(|&c| Rational::from(c)).collect(),
            relation,
            constant: Rational::from(constant),
        }
    }

    /// Number of variables mentioned (dense length).
    pub fn dimension(&self) -> usize {
        self.coeffs.len()
    }

    /// `true` iff the constraint is satisfied at `point`.
    pub fn is_satisfied_by(&self, point: &[Rational]) -> bool {
        self.relation.holds(&dot(&self.coeffs, point), &self.constant)
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, c) in self.coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            if first {
                write!(f, "{c}*x{i}")?;
                first = false;
            } else if c.is_negative() {
                write!(f, " - {}*x{i}", -c)?;
            } else {
                write!(f, " + {c}*x{i}")?;
            }
        }
        if first {
            write!(f, "0")?;
        }
        write!(f, " {} {}", self.relation, self.constant)
    }
}

/// Dot product of two equally sized rational slices.
pub fn dot(a: &[Rational], b: &[Rational]) -> Rational {
    debug_assert_eq!(a.len(), b.len(), "dot product dimension mismatch");
    let mut acc = Rational::zero();
    for (x, y) in a.iter().zip(b) {
        if !x.is_zero() && !y.is_zero() {
            acc += &(x * y);
        }
    }
    acc
}

/// A system of linear constraints over `dimension` rational variables.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LinearSystem {
    dimension: usize,
    constraints: Vec<Constraint>,
}

impl LinearSystem {
    /// Creates an empty system over `dimension` variables.
    pub fn new(dimension: usize) -> Self {
        LinearSystem { dimension, constraints: Vec::new() }
    }

    /// Number of variables.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// The constraints of the system.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// `true` iff there are no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Adds a constraint.
    ///
    /// # Panics
    /// Panics if the constraint's dimension does not match the system's.
    pub fn push(&mut self, c: Constraint) {
        assert_eq!(c.dimension(), self.dimension, "constraint dimension mismatch");
        self.constraints.push(c);
    }

    /// Adds the constraint `x_i ≥ 0` for every variable.
    pub(crate) fn push_nonnegativity(&mut self) {
        for i in 0..self.dimension {
            let mut coeffs = vec![Rational::zero(); self.dimension];
            coeffs[i] = Rational::one();
            self.constraints.push(Constraint::new(coeffs, Relation::Ge, Rational::zero()));
        }
    }

    /// `true` iff `point` satisfies every constraint.
    pub fn is_satisfied_by(&self, point: &[Rational]) -> bool {
        assert_eq!(point.len(), self.dimension, "point dimension mismatch");
        self.constraints.iter().all(|c| c.is_satisfied_by(point))
    }
}

impl fmt::Display for LinearSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "linear system over {} variables:", self.dimension)?;
        for c in &self.constraints {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_i64s(n, d)
    }

    #[test]
    fn relation_semantics() {
        assert!(Relation::Le.holds(&r(1, 2), &r(1, 2)));
        assert!(!Relation::Lt.holds(&r(1, 2), &r(1, 2)));
        assert!(Relation::Ge.holds(&r(3, 2), &r(1, 2)));
        assert!(Relation::Gt.holds(&r(3, 2), &r(1, 2)));
        assert!(Relation::Eq.holds(&r(2, 4), &r(1, 2)));
    }

    #[test]
    fn constraint_evaluation() {
        // 2x - 3y >= 1 at (2, 1) -> 1 >= 1 holds; at (1, 1) -> -1 >= 1 fails.
        let c = Constraint::from_i64s(&[2, -3], Relation::Ge, 1);
        assert!(c.is_satisfied_by(&[r(2, 1), r(1, 1)]));
        assert!(!c.is_satisfied_by(&[r(1, 1), r(1, 1)]));
        // At (1/2, 1/3) the left-hand side is exactly 0.
        assert!(!c.is_satisfied_by(&[r(1, 2), r(1, 3)]));
        assert!(
            Constraint::from_i64s(&[2, -3], Relation::Eq, 0).is_satisfied_by(&[r(1, 2), r(1, 3)])
        );
    }

    #[test]
    fn dot_products() {
        assert_eq!(dot(&[r(1, 2), r(2, 1)], &[r(4, 1), r(3, 1)]), r(8, 1));
    }

    #[test]
    fn system_building_and_satisfaction() {
        let mut sys = LinearSystem::new(2);
        sys.push(Constraint::from_i64s(&[1, 1], Relation::Le, 4));
        sys.push(Constraint::from_i64s(&[1, -1], Relation::Gt, 0));
        sys.push_nonnegativity();
        assert_eq!(sys.len(), 4);
        assert!(sys.is_satisfied_by(&[r(2, 1), r(1, 1)]));
        assert!(!sys.is_satisfied_by(&[r(1, 1), r(1, 1)])); // strict fails
        assert!(!sys.is_satisfied_by(&[r(5, 1), r(1, 1)])); // first fails
        assert!(!sys.is_satisfied_by(&[r(2, 1), r(-1, 1)])); // nonnegativity fails
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut sys = LinearSystem::new(2);
        sys.push(Constraint::from_i64s(&[1, 1, 1], Relation::Le, 4));
    }

    #[test]
    fn display_is_readable() {
        let c = Constraint::from_i64s(&[2, 0, -3], Relation::Lt, 7);
        assert_eq!(c.to_string(), "2*x0 - 3*x2 < 7");
        let zero = Constraint::from_i64s(&[0, 0], Relation::Ge, 0);
        assert_eq!(zero.to_string(), "0 >= 0");
    }
}
