//! Set and bag database instances.

use core::fmt;
use std::collections::{BTreeMap, BTreeSet};

use dioph_arith::Natural;
use dioph_cq::Atom;

/// A set database instance: a finite set of facts (ground atoms).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SetInstance {
    facts: BTreeSet<Atom>,
}

impl SetInstance {
    /// The empty instance.
    pub fn new() -> Self {
        SetInstance { facts: BTreeSet::new() }
    }

    /// Builds an instance from an iterator of facts.
    ///
    /// # Panics
    /// Panics if any atom is not ground.
    pub(crate) fn from_facts(facts: impl IntoIterator<Item = Atom>) -> Self {
        let mut inst = SetInstance::new();
        for f in facts {
            inst.insert(f);
        }
        inst
    }

    /// Inserts a fact; returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if the atom is not ground.
    pub fn insert(&mut self, fact: Atom) -> bool {
        assert!(fact.is_ground(), "instances contain only ground atoms, got {fact}");
        self.facts.insert(fact)
    }

    /// `true` iff the fact is present.
    pub fn contains(&self, fact: &Atom) -> bool {
        self.facts.contains(fact)
    }

    /// The facts of the instance.
    pub fn facts(&self) -> &BTreeSet<Atom> {
        &self.facts
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// `true` iff the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }
}

impl FromIterator<Atom> for SetInstance {
    fn from_iter<I: IntoIterator<Item = Atom>>(iter: I) -> Self {
        SetInstance::from_facts(iter)
    }
}

impl fmt::Display for SetInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, fact) in self.facts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fact}")?;
        }
        write!(f, "}}")
    }
}

/// A bag database instance: a function from facts to positive multiplicities
/// (facts with multiplicity zero are simply absent).
///
/// Multiplicities are arbitrary-precision naturals because counterexample
/// bags extracted from the Diophantine machinery can have multiplicities like
/// `ζ*^{d_j}` that overflow any machine integer.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BagInstance {
    multiplicities: BTreeMap<Atom, Natural>,
}

impl BagInstance {
    /// The empty bag.
    pub fn new() -> Self {
        BagInstance { multiplicities: BTreeMap::new() }
    }

    /// Builds a bag from `(fact, multiplicity)` pairs; zero multiplicities
    /// are dropped, repeated facts accumulate.
    ///
    /// # Panics
    /// Panics if any atom is not ground.
    pub fn from_multiplicities(pairs: impl IntoIterator<Item = (Atom, Natural)>) -> Self {
        let mut bag = BagInstance::new();
        for (fact, mult) in pairs {
            bag.add(fact, mult);
        }
        bag
    }

    /// Builds a bag from `u64` multiplicities (convenience).
    pub fn from_u64_multiplicities(pairs: impl IntoIterator<Item = (Atom, u64)>) -> Self {
        BagInstance::from_multiplicities(pairs.into_iter().map(|(a, m)| (a, Natural::from(m))))
    }

    /// The uniform bag assigning multiplicity 1 to every fact of a set
    /// instance.
    pub fn uniform_ones(instance: &SetInstance) -> Self {
        BagInstance::from_multiplicities(
            instance.facts().iter().cloned().map(|f| (f, Natural::one())),
        )
    }

    /// Adds `mult` occurrences of `fact`.
    ///
    /// # Panics
    /// Panics if the atom is not ground.
    pub fn add(&mut self, fact: Atom, mult: Natural) {
        assert!(fact.is_ground(), "bag instances contain only ground atoms, got {fact}");
        if mult.is_zero() {
            return;
        }
        self.multiplicities.entry(fact).and_modify(|m| *m += &mult).or_insert(mult);
    }

    /// Sets the multiplicity of `fact` (removing it when zero).
    pub fn set(&mut self, fact: Atom, mult: Natural) {
        assert!(fact.is_ground(), "bag instances contain only ground atoms, got {fact}");
        if mult.is_zero() {
            self.multiplicities.remove(&fact);
        } else {
            self.multiplicities.insert(fact, mult);
        }
    }

    /// The multiplicity of a fact (zero if absent).
    pub fn multiplicity(&self, fact: &Atom) -> Natural {
        self.multiplicities.get(fact).cloned().unwrap_or_else(Natural::zero)
    }

    /// Iterates over `(fact, multiplicity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Atom, &Natural)> {
        self.multiplicities.iter()
    }

    /// Number of distinct facts with positive multiplicity.
    pub fn support_size(&self) -> usize {
        self.multiplicities.len()
    }

    /// `true` iff the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.multiplicities.is_empty()
    }

    /// The underlying set instance (the support of the bag).
    pub fn support(&self) -> SetInstance {
        SetInstance::from_facts(self.multiplicities.keys().cloned())
    }

    /// `true` iff `self ⊆ other` as bags: every fact's multiplicity here is
    /// at most its multiplicity there.
    pub fn is_subbag_of(&self, other: &BagInstance) -> bool {
        self.multiplicities.iter().all(|(fact, mult)| *mult <= other.multiplicity(fact))
    }

    /// Restricts the bag to the facts of the given set instance (the `µ′`
    /// construction in the proof of Theorem 3.1).
    pub fn restrict_to(&self, instance: &SetInstance) -> BagInstance {
        BagInstance {
            multiplicities: self
                .multiplicities
                .iter()
                .filter(|(fact, _)| instance.contains(fact))
                .map(|(f, m)| (f.clone(), m.clone()))
                .collect(),
        }
    }
}

impl FromIterator<(Atom, Natural)> for BagInstance {
    fn from_iter<I: IntoIterator<Item = (Atom, Natural)>>(iter: I) -> Self {
        BagInstance::from_multiplicities(iter)
    }
}

impl fmt::Display for BagInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (fact, mult)) in self.multiplicities.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fact}^{mult}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_cq::{paper_examples, Term};

    fn c(n: &str) -> Term {
        Term::constant(n)
    }

    #[test]
    fn set_instance_basics() {
        let mut inst = SetInstance::new();
        assert!(inst.is_empty());
        assert!(inst.insert(Atom::new("R", vec![c("a"), c("b")])));
        assert!(!inst.insert(Atom::new("R", vec![c("a"), c("b")])));
        assert!(inst.contains(&Atom::new("R", vec![c("a"), c("b")])));
        assert_eq!(inst.len(), 1);
    }

    #[test]
    #[should_panic(expected = "ground")]
    fn non_ground_facts_are_rejected() {
        let mut inst = SetInstance::new();
        inst.insert(Atom::new("R", vec![Term::var("x")]));
    }

    #[test]
    fn from_facts_ignores_order_and_duplicates() {
        let ab = Atom::new("R", vec![c("a"), c("b")]);
        let ba = Atom::new("R", vec![c("b"), c("a")]);
        let forward = SetInstance::from_facts([ab.clone(), ba.clone(), ab.clone()]);
        let backward = SetInstance::from_facts([ba, ab]);
        assert_eq!(forward, backward);
        assert_eq!(forward.len(), 2);
        assert_eq!(forward, backward.facts().iter().cloned().collect::<SetInstance>());
    }

    #[test]
    fn paper_section2_instance() {
        let inst = SetInstance::from_facts(paper_examples::section2_instance());
        assert_eq!(inst.len(), 4);
    }

    #[test]
    fn bag_instance_basics() {
        let bag = BagInstance::from_u64_multiplicities(paper_examples::section2_bag());
        assert_eq!(bag.support_size(), 4);
        assert_eq!(bag.multiplicity(&Atom::new("P", vec![c("c5"), c("c4")])), Natural::from(3u64));
        assert_eq!(bag.multiplicity(&Atom::new("P", vec![c("c9"), c("c4")])), Natural::zero());
        assert_eq!(bag.support().len(), 4);
    }

    #[test]
    fn add_accumulates_and_zero_is_dropped() {
        let mut bag = BagInstance::new();
        let fact = Atom::new("R", vec![c("a")]);
        bag.add(fact.clone(), Natural::zero());
        assert!(bag.is_empty());
        bag.add(fact.clone(), Natural::from(2u64));
        bag.add(fact.clone(), Natural::from(3u64));
        assert_eq!(bag.multiplicity(&fact), Natural::from(5u64));
        bag.set(fact.clone(), Natural::zero());
        assert!(bag.is_empty());
    }

    #[test]
    fn subbag_relation() {
        let small = BagInstance::from_u64_multiplicities([
            (Atom::new("R", vec![c("a")]), 1),
            (Atom::new("S", vec![c("b")]), 2),
        ]);
        let big = BagInstance::from_u64_multiplicities([
            (Atom::new("R", vec![c("a")]), 3),
            (Atom::new("S", vec![c("b")]), 2),
            (Atom::new("T", vec![c("c")]), 1),
        ]);
        assert!(small.is_subbag_of(&big));
        assert!(!big.is_subbag_of(&small));
        assert!(small.is_subbag_of(&small));
        assert!(BagInstance::new().is_subbag_of(&small));
    }

    #[test]
    fn uniform_ones_and_restrict() {
        let inst = SetInstance::from_facts(paper_examples::section2_instance());
        let ones = BagInstance::uniform_ones(&inst);
        assert_eq!(ones.support_size(), 4);
        assert!(ones.iter().all(|(_, m)| m.is_one()));
        let sub = SetInstance::from_facts([Atom::new("R", vec![c("c1"), c("c2")])]);
        let restricted = ones.restrict_to(&sub);
        assert_eq!(restricted.support_size(), 1);
    }

    #[test]
    fn huge_multiplicities_are_exact() {
        let mut bag = BagInstance::new();
        let fact = Atom::new("R", vec![c("a")]);
        bag.add(fact.clone(), Natural::from(2u64).pow(200));
        assert_eq!(bag.multiplicity(&fact), Natural::from(2u64).pow(200));
    }

    #[test]
    fn display() {
        let bag = BagInstance::from_u64_multiplicities([(Atom::new("R", vec![c("a"), c("b")]), 2)]);
        assert_eq!(bag.to_string(), "{R('a', 'b')^2}");
        let inst = SetInstance::from_facts([Atom::new("R", vec![c("a"), c("b")])]);
        assert_eq!(inst.to_string(), "{R('a', 'b')}");
    }
}
