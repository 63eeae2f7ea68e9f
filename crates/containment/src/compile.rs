//! Compilation of a bag-containment instance into a Monomial–Polynomial
//! Inequality (Definitions 3.2 and 3.3 of the paper).
//!
//! Fixing a projection-free containee `q1(x1)`, a probe tuple `t` and the
//! containing query `q2(x2)`:
//!
//! * the **unknowns** are the distinct atoms of `body(q1(t))` (equivalently,
//!   the facts of the canonical instance `I_{q1(t)}`), each standing for the
//!   unknown multiplicity that a bag assigns to that fact;
//! * the **monomial** `M_{q1(t)}(u)` has exponent `µ_{q1(t)}(α)` for the
//!   unknown of atom `α`;
//! * the **polynomial** `P^{q2}_{q1(t)}(u)` has one monomial per containment
//!   mapping `h ∈ CM(q2(x2), q1(t))`, namely the monomial of the collapsed
//!   image query `h(q2)`; mappings with identical images accumulate into the
//!   coefficient.
//!
//! Corollary 3.1 / Theorem 5.3 then reduce the containment question to the
//! (un)solvability of `P(u) < M(u)` over the naturals.
//!
//! Many probes are decided from the exponent vectors alone, ahead of any LP
//! ([`Rung`]): every row of the Theorem 4.1 system is `(e − e_h)·ε > 0`, and
//! every Equation-1 vector `e_h` has coordinate sum `|q2|` (each atom of `q2`
//! lands on exactly one unknown), while `e` sums to `|q1(t)|`.

use std::ops::ControlFlow;
use std::sync::OnceLock;

use dioph_arith::Natural;
use dioph_bagdb::{bag_answer_multiplicity, BagInstance};
use dioph_cq::{
    most_general_probe_tuple, try_for_each_containment_mapping_to_grounded, Atom, ConjunctiveQuery,
    ProbeSpace, Term,
};
use dioph_poly::{Monomial, Mpi, Polynomial};

use crate::certificate::{ContainmentError, Counterexample};

/// A bag-containment instance compiled to an MPI for one probe tuple.
///
/// The probe tuple and the unknown vector are not stored separately: the
/// probe is the grounded containee's head, and unknown `u_j` is the `j`-th
/// distinct atom of its body (in the deterministic body order).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompiledProbe {
    /// The grounded containee `q1(t)`; its head is the probe tuple `t` and
    /// its distinct body atoms are the unknowns.
    grounded_containee: ConjunctiveQuery,
    /// The MPI `P^{q2}_{q1(t)}(u) < M_{q1(t)}(u)`.
    mpi: Mpi,
    /// Number of containment mappings found (before accumulation).
    mapping_count: usize,
}

impl CompiledProbe {
    /// Compiles the MPI for containee `q1`, containing query `q2` and probe
    /// tuple `probe`.
    ///
    /// Returns `None` when the probe tuple is not unifiable with the head of
    /// `q1` (such tuples are not probe tuples of `q1` at all).
    pub fn compile(
        containee: &ConjunctiveQuery,
        containing: &ConjunctiveQuery,
        probe: &[Term],
    ) -> Option<CompiledProbe> {
        CompiledProbe::compile_owned(containee, containing, probe.to_vec())
    }

    /// [`Self::compile`] taking ownership of the probe tuple, so callers that
    /// materialise the tuple anyway (the probe-space resolution of
    /// [`CompiledPair::probe`]) hand it over instead of copying it again.
    fn compile_owned(
        containee: &ConjunctiveQuery,
        containing: &ConjunctiveQuery,
        probe: Vec<Term>,
    ) -> Option<CompiledProbe> {
        let Compiled::Full(compiled) = compile_probe(containee, containing, probe, false)? else {
            unreachable!("the search stops at a dominating mapping only when asked to")
        };
        Some(compiled)
    }

    /// The rung of the exponent-vector ladder that decides this probe.
    pub fn rung(&self) -> Rung {
        let e = self.mpi.monomial();
        let polynomial = self.mpi.polynomial();
        if polynomial.terms().any(|(_, m)| dominates(m.exponents(), e.exponents())) {
            Rung::Dominance
        } else if polynomial.is_zero() {
            Rung::NoMapping
        } else {
            Rung::Lp
        }
    }

    /// The probe tuple: the head of the grounded containee.
    pub fn probe(&self) -> &[Term] {
        self.grounded_containee.head()
    }

    /// The grounded containee `q1(t)`.
    pub fn grounded_containee(&self) -> &ConjunctiveQuery {
        &self.grounded_containee
    }

    /// The unknown vector: the atom associated with each unknown, in the
    /// grounded containee's deterministic (sorted) body order.
    pub fn atoms(&self) -> impl ExactSizeIterator<Item = &Atom> {
        self.grounded_containee.body_atoms()
    }

    /// The number of unknowns.
    pub fn dimension(&self) -> usize {
        self.grounded_containee.distinct_atom_count()
    }

    /// The compiled MPI `P(u) < M(u)`.
    pub fn mpi(&self) -> &Mpi {
        &self.mpi
    }

    /// The number of containment mappings from the containing query into
    /// `q1(t)` (the number of monomial contributions before accumulation).
    pub fn mapping_count(&self) -> usize {
        self.mapping_count
    }

    /// Human-readable unknown names `u_{α}` for display.
    pub fn unknown_names(&self) -> Vec<String> {
        self.atoms().map(|a| format!("u_{a}")).collect()
    }

    /// Turns a natural assignment to the unknowns into the corresponding bag
    /// over the canonical instance `I_{q1(t)}`.
    ///
    /// # Panics
    /// Panics if the assignment's length differs from the number of unknowns.
    pub fn assignment_to_bag(&self, assignment: &[Natural]) -> BagInstance {
        assert_eq!(assignment.len(), self.dimension(), "assignment dimension mismatch");
        BagInstance::from_multiplicities(self.atoms().cloned().zip(assignment.iter().cloned()))
    }
}

/// What decides a probe, cheapest first. Every row of the Theorem 4.1
/// system is `(e − e_h)·ε > 0` over natural `ε ≠ 0`, and every `e_h` has
/// coordinate sum `|q2|`. If some `e_h ≥ e` componentwise, row `h` is `≤ 0`
/// for every natural `ε`, so the system is unsolvable and the probe is
/// contained ([`Rung::Dominance`]; the onto-mapping condition of Ioannidis
/// and Ramakrishnan). That needs `|q2| ≥ |q1(t)|`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rung {
    /// A containment mapping's exponents dominate the monomial: contained.
    Dominance,
    /// No containment mapping: the zero polynomial, refuted by the all-ones
    /// bag.
    NoMapping,
    /// The Theorem 4.1 LP decides.
    Lp,
}

/// Is `exponents ≥ bound` componentwise?
fn dominates(exponents: &[u64], bound: &[u64]) -> bool {
    exponents.iter().zip(bound).all(|(x, b)| x >= b)
}

/// The result of compiling one probe.
enum Compiled {
    /// The search stopped at a mapping whose exponents dominate the monomial.
    Dominated,
    /// The full compilation.
    Full(CompiledProbe),
}

/// Compiles the MPI for `probe`. With `stop_at_dominance`, the mapping
/// search stops at the first mapping whose Equation-1 exponents dominate the
/// monomial; the flag is ignored when `|q1(t)| > |q2|`, where no mapping can
/// dominate. Returns `None` when the probe tuple does not unify with the
/// head of the containee.
fn compile_probe(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
    probe: Vec<Term>,
    stop_at_dominance: bool,
) -> Option<Compiled> {
    // Memoised slots reach this function only on their first fill, so the
    // counter reads as "cold compilations".
    dioph_obs::registry::CACHE_PROBE_COMPILED.incr();
    let _compile_span = dioph_obs::span(dioph_obs::Phase::Compile);
    let grounded = containee.ground_with_tuple(probe)?;
    // Unknowns: the distinct atoms of body(q1(t)), in deterministic order.
    // They are borrowed straight from the grounded query rather than
    // cloned into a side vector; the grounded containee is kept alive in
    // the compiled probe as the single owner of both the probe tuple (its
    // head) and the unknown vector (its distinct body atoms).
    let n = grounded.distinct_atom_count();

    // Monomial side: exponents are the body multiplicities of q1(t), in
    // the same deterministic (sorted) order as the unknowns.
    let mut exponents: Vec<u64> = grounded.body().map(|(_atom, mult)| mult).collect();
    let monomial = Monomial::from_slice(&exponents);
    let stop_at_dominance = stop_at_dominance && monomial.degree() <= containing.total_atom_count();

    // Polynomial side: one monomial per containment mapping h ∈ CM(q2, q1(t)).
    // The search names the fact (= unknown) each atom of q2 maps to, so the
    // image query h(q2) is never materialised: multiplicities of atoms that
    // collapse under h accumulate directly into the exponent buffer, reused
    // from the monomial (Equation 1).
    let mut polynomial = Polynomial::zero(n);
    let mut mapping_count = 0usize;
    let flow = try_for_each_containment_mapping_to_grounded(containing, &grounded, |h| {
        mapping_count += 1;
        exponents.iter_mut().for_each(|e| *e = 0);
        for ((_, mult), &fact) in containing.body().zip(h.facts()) {
            exponents[fact] += mult;
        }
        if stop_at_dominance && dominates(&exponents, monomial.exponents()) {
            return ControlFlow::Break(());
        }
        polynomial.add_monomial(Monomial::from_slice(&exponents));
        ControlFlow::Continue(())
    });
    dioph_obs::registry::CONTAINMENT_MAPPINGS.add(mapping_count as u64);
    if flow.is_break() {
        return Some(Compiled::Dominated);
    }
    Some(Compiled::Full(CompiledProbe {
        grounded_containee: grounded,
        mpi: Mpi::new(polynomial, monomial),
        mapping_count,
    }))
}

/// A probe as far as deciding it needs: the early-stop outcome of its
/// compilation ([`CompiledPair::most_general_rung`],
/// [`CompiledPair::probe_rung`]).
#[derive(Clone, Copy, Debug)]
pub enum EarlyStop<'a> {
    /// A containment mapping dominates the monomial: the probe is contained,
    /// and the mapping search stopped there.
    Dominated,
    /// No mapping dominates: the full compiled probe.
    Compiled(&'a CompiledProbe),
}

/// The most-general probe's [`EarlyStop`] outcome.
pub type MostGeneral<'a> = EarlyStop<'a>;

/// The memoised early-stop outcome of one raw probe index. The full probe
/// is boxed so that the slot of a dominated probe, nearly every probe on
/// the all-probes route, stays a few words wide.
#[derive(Debug)]
enum ProbeMemo {
    /// The candidate tuple is not unifiable with the head.
    NotAProbe,
    /// A containment mapping dominates the monomial.
    Dominated,
    /// No mapping dominates: the full compiled probe.
    Compiled(Box<CompiledProbe>),
}

/// A whole containment pair compiled once and shared **read-only** across
/// probes, worker threads and repeated decisions.
///
/// This is the compilation cache behind `dioph-engine`: validation of the
/// containee happens exactly once (in [`CompiledPair::new`]), and each
/// probe's compilation is memoised in a [`OnceLock`] slot keyed by the
/// probe's raw index in the pair's [`ProbeSpace`]. The MPI routes read the
/// early-stop memo of [`Self::probe_rung`]: a dominated probe keeps one
/// word saying so, and only the rest keep their compiled MPI.
/// [`Self::probe`] keeps the full compilation of every probe in a second
/// table, allocated on its first call. All state is immutable after
/// initialisation, so a `CompiledPair` is `Send + Sync` and can sit behind
/// an `Arc` (or a scoped borrow) while any number of threads resolve
/// disjoint — or even overlapping — probe indices concurrently; a probe
/// raced by two threads is still compiled only once per table.
///
/// Deciding the same pair again (a `bench --repeat` loop, a batch stream
/// replaying a pair, the two directions of an equivalence check each hitting
/// their own pair) reuses every memoised outcome instead of re-enumerating
/// the containment mappings.
#[derive(Debug)]
pub struct CompiledPair {
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    most_general: OnceLock<CompiledProbe>,
    /// Whether a containment mapping dominates the most-general monomial.
    most_general_dominated: OnceLock<bool>,
    space: OnceLock<ProbeSpace>,
    /// The early-stop outcome of each raw probe index ([`Self::probe_rung`]).
    memo: OnceLock<Vec<OnceLock<ProbeMemo>>>,
    /// The full compilation of each raw probe index ([`Self::probe`]);
    /// `None` marks an index whose candidate tuple is not unifiable with the
    /// head (not a probe tuple).
    slots: OnceLock<Vec<OnceLock<Option<CompiledProbe>>>>,
}

impl CompiledPair {
    /// Validates the containee and wraps the pair for shared compilation.
    ///
    /// # Errors
    /// The same validation errors as `BagContainmentDecider::decide`:
    /// [`ContainmentError::EmptyBody`],
    /// [`ContainmentError::ContaineeNotProjectionFree`] and
    /// [`ContainmentError::UnsafeQuery`].
    pub fn new(
        containee: ConjunctiveQuery,
        containing: ConjunctiveQuery,
    ) -> Result<CompiledPair, ContainmentError> {
        validate_containee(&containee)?;
        Ok(CompiledPair {
            containee,
            containing,
            most_general: OnceLock::new(),
            most_general_dominated: OnceLock::new(),
            space: OnceLock::new(),
            memo: OnceLock::new(),
            slots: OnceLock::new(),
        })
    }

    /// The containee `q1` (left side of `⊑b`).
    pub fn containee(&self) -> &ConjunctiveQuery {
        &self.containee
    }

    /// The containing query `q2` (right side of `⊑b`).
    pub fn containing(&self) -> &ConjunctiveQuery {
        &self.containing
    }

    /// The compiled most-general probe (Theorem 5.3), compiled on first use.
    pub fn most_general(&self) -> &CompiledProbe {
        self.most_general.get_or_init(|| {
            let probe = most_general_probe_tuple(&self.containee);
            CompiledProbe::compile_owned(&self.containee, &self.containing, probe)
                .expect("the most-general probe tuple always unifies with the head")
        })
    }

    /// The most-general probe's first rung, memoised: [`MostGeneral::Dominated`]
    /// when the mapping search meets a mapping whose Equation-1 exponents
    /// dominate the monomial (it stops there), otherwise the full compiled
    /// probe. A search that ends without dominance fills the slot
    /// [`Self::most_general`] reads, so the enumeration runs once.
    pub fn most_general_rung(&self) -> MostGeneral<'_> {
        let dominated = *self.most_general_dominated.get_or_init(|| {
            if let Some(full) = self.most_general.get() {
                return full.rung() == Rung::Dominance;
            }
            let probe = most_general_probe_tuple(&self.containee);
            match compile_probe(&self.containee, &self.containing, probe, true)
                .expect("the most-general probe tuple always unifies with the head")
            {
                Compiled::Dominated => true,
                Compiled::Full(full) => {
                    // A concurrent `most_general()` may have filled the slot
                    // first; both compilations are equal.
                    let _ = self.most_general.set(full);
                    false
                }
            }
        });
        if dominated {
            MostGeneral::Dominated
        } else {
            MostGeneral::Compiled(self.most_general())
        }
    }

    /// The indexed probe space of the containee, computed on first use.
    pub fn probe_space(&self) -> &ProbeSpace {
        self.space.get_or_init(|| ProbeSpace::new(&self.containee))
    }

    /// The number of claimable probe units this pair exposes to a scheduler:
    /// the raw probe-space length, floored at one so a degenerate (empty)
    /// probe space still publishes a single no-op unit whose retirement
    /// finalizes the pair. Indices `0..probe_units()` are exactly the values
    /// [`Self::probe`] accepts, except in the degenerate case, which a
    /// claimer must guard with [`ProbeSpace::raw_len`].
    pub fn probe_units(&self) -> usize {
        self.probe_space().raw_len().max(1)
    }

    /// Resolves (and memoises) the full compilation of the probe with raw
    /// index `index` in [`Self::probe_space`]; `None` when that index is not
    /// a probe tuple. Safe to call from many threads at once.
    ///
    /// # Panics
    /// Panics if `index` is out of range for the probe space.
    pub fn probe(&self, index: usize) -> Option<&CompiledProbe> {
        let space = self.probe_space();
        let slots =
            self.slots.get_or_init(|| (0..space.raw_len()).map(|_| OnceLock::new()).collect());
        slots[index]
            .get_or_init(|| {
                space.tuple(index).map(|probe| {
                    CompiledProbe::compile_owned(&self.containee, &self.containing, probe)
                        .expect("probe tuples are unifiable with the head by construction")
                })
            })
            .as_ref()
    }

    /// The probe with raw index `index` as far as deciding it needs,
    /// memoised: `None` when that index is not a probe tuple,
    /// [`EarlyStop::Dominated`] when the mapping search meets a mapping whose
    /// Equation-1 exponents dominate the monomial (it stops there), otherwise
    /// the full compiled probe, equal to [`Self::probe`]'s. Safe to call from
    /// many threads at once; each index is compiled once.
    ///
    /// # Panics
    /// Panics if `index` is out of range for the probe space.
    pub fn probe_rung(&self, index: usize) -> Option<EarlyStop<'_>> {
        let space = self.probe_space();
        let memo =
            self.memo.get_or_init(|| (0..space.raw_len()).map(|_| OnceLock::new()).collect());
        let outcome = memo[index].get_or_init(|| {
            let Some(probe) = space.tuple(index) else { return ProbeMemo::NotAProbe };
            match compile_probe(&self.containee, &self.containing, probe, true)
                .expect("probe tuples are unifiable with the head by construction")
            {
                Compiled::Dominated => ProbeMemo::Dominated,
                Compiled::Full(full) => ProbeMemo::Compiled(Box::new(full)),
            }
        });
        match outcome {
            ProbeMemo::NotAProbe => None,
            ProbeMemo::Dominated => Some(EarlyStop::Dominated),
            ProbeMemo::Compiled(full) => Some(EarlyStop::Compiled(full)),
        }
    }

    /// Builds (and soundness-checks) the counterexample bag for a probe of
    /// this pair from a satisfying MPI assignment.
    ///
    /// # Panics
    /// Panics if the extracted bag does not actually violate containment —
    /// that would be an internal soundness bug, re-checked here with the
    /// independent Equation-2 evaluator.
    pub fn counterexample(
        &self,
        compiled: &CompiledProbe,
        assignment: &[Natural],
    ) -> Counterexample {
        let bag = compiled.assignment_to_bag(assignment);
        let probe: Vec<Term> = compiled.probe().to_vec();
        let containee_multiplicity = bag_answer_multiplicity(&self.containee, &bag, &probe);
        let containing_multiplicity = bag_answer_multiplicity(&self.containing, &bag, &probe);
        assert!(
            containee_multiplicity > containing_multiplicity,
            "internal soundness violation: extracted bag does not violate containment \
             (containee {containee_multiplicity} vs containing {containing_multiplicity})"
        );
        Counterexample { probe, bag, containee_multiplicity, containing_multiplicity }
    }
}

/// Checks that `containee` lies in the fragment the paper's decision
/// procedure covers: non-empty body, projection-free, safe.
pub(crate) fn validate_containee(containee: &ConjunctiveQuery) -> Result<(), ContainmentError> {
    if containee.distinct_atom_count() == 0 {
        return Err(ContainmentError::EmptyBody { query: containee.name().to_string() });
    }
    let existential: Vec<String> = containee.existential_variables().into_iter().collect();
    if !existential.is_empty() {
        return Err(ContainmentError::ContaineeNotProjectionFree {
            existential_variables: existential,
        });
    }
    if !containee.is_safe() {
        let body = containee.body_variables();
        let missing: Vec<String> =
            containee.head_variables().into_iter().filter(|v| !body.contains(v)).collect();
        return Err(ContainmentError::UnsafeQuery {
            query: containee.name().to_string(),
            missing_variables: missing,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_arith::Natural;
    use dioph_cq::paper_examples;
    use dioph_linalg::FeasibilityEngine;

    fn nat(v: u64) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn paper_section3_running_example_compiles_to_the_printed_mpi() {
        // q1(x1,x2) ← R²(x1,x2), R(c1,x2), R³(x1,c2), probe (x̂1, x̂2),
        // q2(x1,x2) ← R³(x1,x2), R²(x1,y1), R²(y2,y1).
        // The paper derives M = u1²·u2·u3³ and P = u1⁷ + u1⁵·u2² + u1³·u3⁴
        // with u1 = u_{R(x̂1,x̂2)}, u2 = u_{R(c1,x̂2)}, u3 = u_{R(x̂1,c2)}.
        let q1 = paper_examples::section3_query_q1();
        let q2 = paper_examples::section3_query_q2();
        let probe = vec![Term::canon("x1"), Term::canon("x2")];
        let compiled = CompiledProbe::compile(&q1, &q2, &probe).unwrap();

        assert_eq!(compiled.dimension(), 3);
        assert_eq!(compiled.mapping_count(), 3);

        // Identify the positions of the three unknowns.
        let pos = |atom: &Atom| compiled.atoms().position(|a| a == atom).unwrap();
        let u1 = pos(&Atom::new("R", vec![Term::canon("x1"), Term::canon("x2")]));
        let u2 = pos(&Atom::new("R", vec![Term::constant("c1"), Term::canon("x2")]));
        let u3 = pos(&Atom::new("R", vec![Term::canon("x1"), Term::constant("c2")]));

        // Monomial exponents: (2, 1, 3) on (u1, u2, u3).
        let mono = compiled.mpi().monomial();
        assert_eq!(mono.exponent(u1), 2);
        assert_eq!(mono.exponent(u2), 1);
        assert_eq!(mono.exponent(u3), 3);

        // Polynomial terms: u1^7, u1^5*u2^2, u1^3*u3^4, all with coefficient 1.
        let poly = compiled.mpi().polynomial();
        assert_eq!(poly.term_count(), 3);
        let mut expected = vec![(7u64, 0u64, 0u64), (5, 2, 0), (3, 0, 4)];
        let mut actual: Vec<(u64, u64, u64)> = poly
            .terms()
            .map(|(c, m)| {
                assert!(c.is_one());
                (m.exponent(u1), m.exponent(u2), m.exponent(u3))
            })
            .collect();
        expected.sort_unstable();
        actual.sort_unstable();
        assert_eq!(actual, expected);

        // The paper's evaluation: at (u1,u2,u3) = (1,4,3), P = 98 < 108 = M.
        let mut point = vec![Natural::zero(); 3];
        point[u1] = nat(1);
        point[u2] = nat(4);
        point[u3] = nat(3);
        assert!(compiled.mpi().is_solution(&point));
    }

    #[test]
    fn compile_fails_for_non_unifiable_probe() {
        // Head (x, x) cannot be grounded with two distinct constants.
        let q1 = dioph_cq::parse_query("q(x, x) <- R(x, x)").unwrap();
        let q2 = dioph_cq::parse_query("p(x, y) <- R(x, y)").unwrap();
        assert!(
            CompiledProbe::compile(&q1, &q2, &[Term::canon("x"), Term::constant("c")]).is_none()
        );
        assert!(CompiledProbe::compile(&q1, &q2, &[Term::canon("x"), Term::canon("x")]).is_some());
    }

    #[test]
    fn zero_polynomial_when_no_containment_mapping_exists() {
        // q2 uses a relation S that q1 does not mention: no containment mapping.
        let q1 = dioph_cq::parse_query("q(x) <- R(x, x)").unwrap();
        let q2 = dioph_cq::parse_query("p(x) <- S(x, x)").unwrap();
        let probe = vec![Term::canon("x")];
        let compiled = CompiledProbe::compile(&q1, &q2, &probe).unwrap();
        assert_eq!(compiled.mapping_count(), 0);
        assert!(compiled.mpi().polynomial().is_zero());
        // The MPI is then trivially solvable (containment fails).
        assert!(compiled.mpi().has_diophantine_solution(FeasibilityEngine::Simplex).unwrap());
    }

    #[test]
    fn identical_images_accumulate_coefficients() {
        // q1(x) ← R(x,x); q2(x) ← R(x,y1), R(y2,x): on the probe x̂ both
        // existential variables must map to x̂, and the two mappings' images
        // are distinct mappings but... here there is exactly one mapping.
        // Use a containing query with two interchangeable existential atoms
        // instead: q2(x) ← R(x,y1), R(x,y2) over q1(x) ← R(x,c1), R(x,c2):
        // mappings send (y1,y2) to (c1,c1), (c1,c2), (c2,c1), (c2,c2); the
        // images for (c1,c2) and (c2,c1) coincide, so that monomial gets
        // coefficient 2.
        let q1 = dioph_cq::parse_query("q(x) <- R(x, 'c1'), R(x, 'c2')").unwrap();
        let q2 = dioph_cq::parse_query("p(x) <- R(x, y1), R(x, y2)").unwrap();
        let probe = vec![Term::canon("x")];
        let compiled = CompiledProbe::compile(&q1, &q2, &probe).unwrap();
        assert_eq!(compiled.mapping_count(), 4);
        assert_eq!(compiled.mpi().polynomial().term_count(), 3);
        let coeffs: Vec<Natural> =
            compiled.mpi().polynomial().terms().map(|(c, _)| c.clone()).collect();
        assert!(coeffs.contains(&nat(2)));
        assert_eq!(compiled.mpi().polynomial().coefficient_sum(), nat(4));
    }

    #[test]
    fn assignment_to_bag_roundtrip() {
        let q1 = paper_examples::section3_query_q1();
        let q2 = paper_examples::section3_query_q2();
        let probe = vec![Term::canon("x1"), Term::canon("x2")];
        let compiled = CompiledProbe::compile(&q1, &q2, &probe).unwrap();
        let assignment = vec![nat(1), nat(4), nat(3)];
        let bag = compiled.assignment_to_bag(&assignment);
        assert_eq!(bag.support_size(), 3);
        for (atom, value) in compiled.atoms().zip(&assignment) {
            assert_eq!(&bag.multiplicity(atom), value);
        }
    }

    #[test]
    fn compiled_pair_memoises_and_matches_direct_compilation() {
        let q1 = paper_examples::section3_query_q1();
        let q2 = paper_examples::section3_query_q2();
        let pair = CompiledPair::new(q1.clone(), q2.clone()).unwrap();

        // The most-general probe is compiled once and shared by reference.
        let first = pair.most_general() as *const CompiledProbe;
        let second = pair.most_general() as *const CompiledProbe;
        assert_eq!(first, second, "repeated access must hit the same compilation");
        assert_eq!(
            pair.most_general(),
            &CompiledProbe::compile(&q1, &q2, &dioph_cq::most_general_probe_tuple(&q1)).unwrap()
        );

        // Every raw index resolves to exactly the probes the materialising
        // enumeration produces, in the same order.
        let space_len = pair.probe_space().raw_len();
        let via_pair: Vec<&CompiledProbe> = (0..space_len).filter_map(|i| pair.probe(i)).collect();
        let expected: Vec<CompiledProbe> = dioph_cq::probe_tuples(&q1)
            .iter()
            .map(|t| CompiledProbe::compile(&q1, &q2, t).unwrap())
            .collect();
        assert_eq!(via_pair.len(), expected.len());
        for (got, want) in via_pair.iter().zip(&expected) {
            assert_eq!(*got, want);
        }
        // Memoised: resolving an index again returns the same allocation.
        let a = pair.probe(0).unwrap() as *const CompiledProbe;
        let b = pair.probe(0).unwrap() as *const CompiledProbe;
        assert_eq!(a, b);
    }

    #[test]
    fn compiled_pair_is_send_sync_and_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledPair>();

        let q1 = paper_examples::section3_probe_example();
        let q2 = paper_examples::section3_probe_example();
        let pair = CompiledPair::new(q1, q2).unwrap();
        let n = pair.probe_space().raw_len();
        std::thread::scope(|s| {
            for worker in 0..4 {
                let pair = &pair;
                s.spawn(move || {
                    // Overlapping strides: every thread touches every index.
                    for i in 0..n {
                        let _ = pair.probe((i + worker) % n);
                    }
                });
            }
        });
        assert_eq!((0..n).filter_map(|i| pair.probe(i)).count(), 16);
    }

    #[test]
    fn an_early_stop_memo_slot_is_three_words() {
        // One slot per raw probe index is allocated up front; the full
        // compilation's slot is 192 bytes.
        assert!(std::mem::size_of::<OnceLock<ProbeMemo>>() <= 24);
    }

    #[test]
    fn compiled_pair_rejects_out_of_fragment_containees() {
        let ok = dioph_cq::parse_query("p(x) <- R(x, x)").unwrap();
        let not_pf = dioph_cq::parse_query("q(x) <- R(x, y)").unwrap();
        assert!(matches!(
            CompiledPair::new(not_pf, ok.clone()),
            Err(crate::ContainmentError::ContaineeNotProjectionFree { .. })
        ));
        let empty = ConjunctiveQuery::from_atom_list("e", vec![], vec![]);
        assert!(matches!(
            CompiledPair::new(empty, ok),
            Err(crate::ContainmentError::EmptyBody { .. })
        ));
    }

    #[test]
    fn grounding_merges_atoms_in_the_monomial() {
        // q1(x1,x2) ← R(x1,x2), R(x2,x1): on the diagonal probe (x̂, x̂) the two
        // atoms merge into a single unknown with monomial exponent 2.
        let q1 = dioph_cq::parse_query("q(x1, x2) <- R(x1, x2), R(x2, x1)").unwrap();
        let q2 = dioph_cq::parse_query("p(x1, x2) <- R(x1, x2)").unwrap();
        let diag = vec![Term::canon("z"), Term::canon("z")];
        // (x̂z, x̂z) is unifiable with (x1, x2) — both map to the same constant.
        let compiled = CompiledProbe::compile(&q1, &q2, &diag).unwrap();
        assert_eq!(compiled.dimension(), 1);
        assert_eq!(compiled.mpi().monomial().exponent(0), 2);
        assert_eq!(compiled.mpi().polynomial().term_count(), 1);
    }
}
