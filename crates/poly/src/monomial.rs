//! Multivariate monomials with natural-number exponents, stored in an
//! inline small-vector: exponent vectors of dimension ≤ [`INLINE_EXPONENTS`]
//! live on the stack, longer ones spill to the heap, and `Eq`/`Ord`/`Hash`
//! are canonical across the split (both representations compare and hash
//! exactly as the exponent *slice* does) — the same hybrid discipline as
//! `dioph_arith::Natural`'s inline/limb split.

use core::fmt;
use core::hash::{Hash, Hasher};

use dioph_arith::Natural;
use dioph_obs::registry;

/// Exponent vectors up to this dimension are stored inline on the stack.
///
/// The paper's systems keep the unknown count at the containee's body-atom
/// count; the committed workloads and the generators rarely exceed a
/// handful, so eight machine words cover the common case without making
/// every `Monomial` enormous.
pub const INLINE_EXPONENTS: usize = 8;

/// The hybrid exponent storage: inline up to [`INLINE_EXPONENTS`], heap
/// past it. Comparison/hash always go through [`ExpVec::as_slice`], so the
/// representation never leaks into ordering (the `Polynomial` term order —
/// and with it every golden-pinned byte of output — is the plain
/// lexicographic slice order the old `Vec<u64>` storage had).
#[derive(Clone, Debug)]
enum ExpVec {
    /// Dimension ≤ [`INLINE_EXPONENTS`]: exponents on the stack.
    Inline { len: u8, buf: [u64; INLINE_EXPONENTS] },
    /// Dimension past the cap: the classic heap vector.
    Heap(Vec<u64>),
}

impl ExpVec {
    /// All-zero exponents of the given dimension.
    fn zeros(len: usize) -> Self {
        if len <= INLINE_EXPONENTS {
            registry::ALLOC_MONOMIAL_INLINE.incr();
            ExpVec::Inline { len: len as u8, buf: [0; INLINE_EXPONENTS] }
        } else {
            registry::ALLOC_MONOMIAL_SPILLS.incr();
            ExpVec::Heap(vec![0; len])
        }
    }

    /// Builds from a slice without taking ownership (allocation-free within
    /// the inline cap).
    fn from_slice(exponents: &[u64]) -> Self {
        if exponents.len() <= INLINE_EXPONENTS {
            registry::ALLOC_MONOMIAL_INLINE.incr();
            let mut buf = [0; INLINE_EXPONENTS];
            buf[..exponents.len()].copy_from_slice(exponents);
            ExpVec::Inline { len: exponents.len() as u8, buf }
        } else {
            registry::ALLOC_MONOMIAL_SPILLS.incr();
            ExpVec::Heap(exponents.to_vec())
        }
    }

    /// Takes ownership of a vector, moving short ones inline (the vector's
    /// allocation is dropped; past the cap it is kept as-is).
    fn from_vec(exponents: Vec<u64>) -> Self {
        if exponents.len() <= INLINE_EXPONENTS {
            registry::ALLOC_MONOMIAL_INLINE.incr();
            let mut buf = [0; INLINE_EXPONENTS];
            buf[..exponents.len()].copy_from_slice(&exponents);
            ExpVec::Inline { len: exponents.len() as u8, buf }
        } else {
            registry::ALLOC_MONOMIAL_SPILLS.incr();
            ExpVec::Heap(exponents)
        }
    }

    fn as_slice(&self) -> &[u64] {
        match self {
            ExpVec::Inline { len, buf } => &buf[..*len as usize],
            ExpVec::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u64] {
        match self {
            ExpVec::Inline { len, buf } => &mut buf[..*len as usize],
            ExpVec::Heap(v) => v,
        }
    }
}

/// A monomial `u₁^{e₁} · u₂^{e₂} · … · uₙ^{eₙ}` over a fixed vector of `n`
/// unknowns, represented densely by its exponent vector.
///
/// The monomial's coefficient is always 1; coefficients live in
/// [`crate::Polynomial`] terms. This mirrors Definition 3.2 of the paper,
/// where the monomial associated with a projection-free query has coefficient
/// one and natural exponents (the body multiplicities).
#[derive(Clone, Debug)]
pub struct Monomial {
    exponents: ExpVec,
}

// Equality, ordering and hashing are all over the exponent *slice*, never
// the representation: `Inline` and `Heap` monomials with equal exponents
// are one value. The `Ord` is the lexicographic slice order the derived
// `Vec<u64>` impl had, which `Polynomial`'s `BTreeMap` term order — and
// therefore every byte of golden-pinned JSON — depends on.
impl PartialEq for Monomial {
    fn eq(&self, other: &Self) -> bool {
        self.exponents() == other.exponents()
    }
}

impl Eq for Monomial {}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Monomial {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.exponents().cmp(other.exponents())
    }
}

impl Hash for Monomial {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Slice hashing (what `Vec<u64>` hashes as too): canonical across
        // the inline/heap split.
        self.exponents().hash(state);
    }
}

impl Monomial {
    /// The constant monomial `1` over `dimension` unknowns (all exponents 0).
    pub fn constant(dimension: usize) -> Self {
        Monomial { exponents: ExpVec::zeros(dimension) }
    }

    /// Builds a monomial from its exponent vector.
    pub fn new(exponents: Vec<u64>) -> Self {
        Monomial { exponents: ExpVec::from_vec(exponents) }
    }

    /// Builds a monomial from an exponent slice — allocation-free within the
    /// inline cap, which is what lets compilation stage exponents in one
    /// recycled buffer instead of allocating a `Vec` per monomial.
    pub fn from_slice(exponents: &[u64]) -> Self {
        Monomial { exponents: ExpVec::from_slice(exponents) }
    }

    /// A single unknown `u_i` over `dimension` unknowns.
    ///
    /// # Panics
    /// Panics if `index >= dimension`.
    pub fn unknown(dimension: usize, index: usize) -> Self {
        assert!(index < dimension, "unknown index out of range");
        let mut exponents = ExpVec::zeros(dimension);
        exponents.as_mut_slice()[index] = 1;
        Monomial { exponents }
    }

    /// Number of unknowns (the dimension `n` of the paper's n-MPI).
    pub fn dimension(&self) -> usize {
        self.exponents().len()
    }

    /// The exponent vector.
    pub fn exponents(&self) -> &[u64] {
        self.exponents.as_slice()
    }

    /// The exponent of unknown `i`.
    pub fn exponent(&self, i: usize) -> u64 {
        self.exponents()[i]
    }

    /// Total degree: the sum of all exponents.
    pub fn degree(&self) -> u64 {
        self.exponents().iter().sum()
    }

    /// `true` iff this is the constant monomial 1.
    pub fn is_constant(&self) -> bool {
        self.exponents().iter().all(|&e| e == 0)
    }

    /// Multiplies two monomials over the same unknowns (adds exponents).
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        assert_eq!(self.dimension(), other.dimension(), "monomial dimension mismatch");
        let mut out = self.clone();
        for (a, b) in out.exponents.as_mut_slice().iter_mut().zip(other.exponents()) {
            *a = a.checked_add(*b).expect("monomial exponent overflow");
        }
        out
    }

    /// Raises the exponent of unknown `i` by `by`.
    pub fn raise(&mut self, i: usize, by: u64) {
        let slot = &mut self.exponents.as_mut_slice()[i];
        *slot = slot.checked_add(by).expect("monomial exponent overflow");
    }

    /// Evaluates the monomial at a natural-number point.
    ///
    /// # Panics
    /// Panics if the point's dimension differs from the monomial's.
    pub fn evaluate(&self, point: &[Natural]) -> Natural {
        assert_eq!(point.len(), self.dimension(), "evaluation point dimension mismatch");
        let mut acc = Natural::one();
        for (value, &exp) in point.iter().zip(self.exponents()) {
            if exp == 0 {
                continue;
            }
            acc = &acc * &value.pow(exp);
            if acc.is_zero() {
                // Once zero, the whole product stays zero.
                return Natural::zero();
            }
        }
        acc
    }

    /// The "weighted degree" `e · d` used when collapsing an n-MPI to a
    /// parametric 1-MPI (Section 4 of the paper): the dot product of the
    /// exponent vector with a natural vector `d`.
    pub fn weighted_degree(&self, d: &[Natural]) -> Natural {
        assert_eq!(d.len(), self.dimension(), "weight vector dimension mismatch");
        let mut acc = Natural::zero();
        for (&e, w) in self.exponents().iter().zip(d) {
            if e != 0 && !w.is_zero() {
                acc += &(&Natural::from(e) * w);
            }
        }
        acc
    }

    /// Renders the monomial using the provided unknown names; names beyond
    /// the provided slice fall back to `u{i}`.
    pub fn display_with<'a>(&'a self, names: &'a [String]) -> MonomialDisplay<'a> {
        MonomialDisplay { monomial: self, names }
    }
}

/// Helper for displaying a monomial with custom unknown names.
pub struct MonomialDisplay<'a> {
    monomial: &'a Monomial,
    names: &'a [String],
}

impl fmt::Display for MonomialDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_monomial(f, self.monomial, |i| {
            self.names.get(i).cloned().unwrap_or_else(|| format!("u{i}"))
        })
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_monomial(f, self, |i| format!("u{i}"))
    }
}

fn format_monomial(
    f: &mut fmt::Formatter<'_>,
    m: &Monomial,
    name: impl Fn(usize) -> String,
) -> fmt::Result {
    if m.is_constant() {
        return write!(f, "1");
    }
    let mut first = true;
    for (i, &e) in m.exponents().iter().enumerate() {
        if e == 0 {
            continue;
        }
        if !first {
            write!(f, "*")?;
        }
        first = false;
        if e == 1 {
            write!(f, "{}", name(i))?;
        } else {
            write!(f, "{}^{}", name(i), e)?;
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

    #[test]
    fn constant_monomial() {
        let m = Monomial::constant(3);
        assert!(m.is_constant());
        assert_eq!(m.degree(), 0);
        assert_eq!(m.evaluate(&[nat(5), nat(7), nat(0)]), nat(1));
        assert_eq!(m.to_string(), "1");
    }

    #[test]
    fn paper_monomial_example() {
        // M_{q1(x̂1,x̂2)}(u) = u1^2 * u2 * u3^3 (paper, Section 3).
        let m = Monomial::new(vec![2, 1, 3]);
        assert_eq!(m.degree(), 6);
        assert_eq!(m.to_string(), "u0^2*u1*u2^3");
        // Evaluated at (1, 4, 3): 1 * 4 * 27 = 108 (paper, Section 4).
        assert_eq!(m.evaluate(&[nat(1), nat(4), nat(3)]), nat(108));
        // Evaluated at (1, 9, 3): 9 * 27 = 243.
        assert_eq!(m.evaluate(&[nat(1), nat(9), nat(3)]), nat(243));
    }

    #[test]
    fn multiplication_adds_exponents() {
        let a = Monomial::new(vec![1, 2, 0]);
        let b = Monomial::new(vec![3, 0, 4]);
        assert_eq!(a.mul(&b), Monomial::new(vec![4, 2, 4]));
        assert_eq!(a.mul(&Monomial::constant(3)), a);
    }

    #[test]
    fn unknown_and_raise() {
        let mut m = Monomial::unknown(3, 1);
        assert_eq!(m.to_string(), "u1");
        m.raise(1, 2);
        m.raise(0, 1);
        assert_eq!(m, Monomial::new(vec![1, 3, 0]));
    }

    #[test]
    fn evaluation_with_zero() {
        let m = Monomial::new(vec![1, 1]);
        assert_eq!(m.evaluate(&[nat(0), nat(100)]), nat(0));
        // Zero exponent ignores a zero value.
        let m2 = Monomial::new(vec![0, 2]);
        assert_eq!(m2.evaluate(&[nat(0), nat(5)]), nat(25));
    }

    #[test]
    fn weighted_degree() {
        let m = Monomial::new(vec![2, 1, 3]);
        // e·d for d = (0, 2, 1): 0 + 2 + 3 = 5 (paper's running example: the
        // monomial side becomes u^5 under ε = (0,2,1)).
        assert_eq!(m.weighted_degree(&[nat(0), nat(2), nat(1)]), nat(5));
    }

    #[test]
    fn display_with_names() {
        let m = Monomial::new(vec![2, 0, 1]);
        let names = vec!["u_R(a,b)".to_string(), "x".to_string(), "u_P(b,c)".to_string()];
        assert_eq!(m.display_with(&names).to_string(), "u_R(a,b)^2*u_P(b,c)");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _ = Monomial::new(vec![1]).mul(&Monomial::new(vec![1, 2]));
    }

    #[test]
    fn inline_and_heap_monomials_are_one_value() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Around the inline cap: dimension at the cap stays inline, one past
        // it spills — and none of Eq/Ord/Hash can tell the difference.
        for dim in [INLINE_EXPONENTS - 1, INLINE_EXPONENTS, INLINE_EXPONENTS + 1, 31] {
            let exps: Vec<u64> = (0..dim as u64).collect();
            let via_vec = Monomial::new(exps.clone());
            let via_slice = Monomial::from_slice(&exps);
            assert_eq!(via_vec, via_slice);
            assert_eq!(via_vec.cmp(&via_slice), core::cmp::Ordering::Equal);
            let hash = |m: &Monomial| {
                let mut h = DefaultHasher::new();
                m.hash(&mut h);
                h.finish()
            };
            assert_eq!(hash(&via_vec), hash(&via_slice), "dim {dim}");
            assert_eq!(via_vec.exponents(), exps.as_slice());
        }
    }

    #[test]
    fn ordering_is_the_lexicographic_slice_order() {
        // The Polynomial term order (and with it golden JSON bytes) depends
        // on Monomial's Ord being exactly the Vec<u64>-derived lexicographic
        // order, across representations and lengths.
        let mut raw: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![0, 5],
            vec![1],
            vec![1, 0, 0, 0, 0, 0, 0, 0, 0],
            vec![1, 2],
            vec![2, 1, 3],
            vec![2, 1, 3, 0, 0, 0, 0, 0, 1],
        ];
        let mut monos: Vec<Monomial> = raw.iter().map(|v| Monomial::from_slice(v)).collect();
        raw.sort();
        monos.sort();
        let resorted: Vec<Vec<u64>> = monos.iter().map(|m| m.exponents().to_vec()).collect();
        assert_eq!(resorted, raw);
    }

    #[test]
    fn big_evaluation_exceeds_machine_integers() {
        let m = Monomial::new(vec![50, 50]);
        let v = m.evaluate(&[nat(3), nat(5)]);
        assert_eq!(v, &Natural::from(3u64).pow(50) * &Natural::from(5u64).pow(50));
        assert!(v.bit_len() > 128);
    }
}
