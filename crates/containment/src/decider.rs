//! The bag-containment decision procedures.
//!
//! Three algorithms are provided, all deciding `q1 ⊑b q2` for a
//! projection-free containee `q1` and an arbitrary containing CQ `q2`:
//!
//! * [`Algorithm::MostGeneralProbe`] — the paper's headline procedure
//!   (Theorem 5.3): compile a single MPI for the most-general probe tuple and
//!   decide its solvability through the linear-system reduction
//!   (Theorems 4.1 and 4.2).
//! * [`Algorithm::AllProbes`] — the Corollary 3.1 characterisation: one MPI
//!   per probe tuple. Exponentially many probes, used for differential
//!   testing and the E6 crossover experiment.
//! * [`Algorithm::GuessCheck`] — the enumeration underlying the Π₂ᵖ
//!   procedure of Theorem 5.1: instead of solving an LP, enumerate candidate
//!   natural vectors `d` up to the small-solution bound of Lemma 5.1 and
//!   check each against every containment mapping. Exponential; serves as
//!   the baseline the LP route is compared against.
//!
//! Whenever containment fails, an explicit, independently verifiable
//! [`Counterexample`] bag is produced.

use dioph_arith::Natural;
use dioph_cq::ConjunctiveQuery;
use dioph_linalg::FeasibilityEngine;

use crate::certificate::{BagContainment, ContainmentError, Counterexample};
use crate::compile::{CompiledPair, CompiledProbe, EarlyStop, MostGeneral, Rung};
use crate::scratch::ProbeScratch;

/// A decided probe: the witness assignment, if any, and the deciding rung
/// (as [`BagContainmentDecider::decide_probe_rung_in`] returns them).
type ProbeDecision = (Option<Vec<Natural>>, Option<Rung>);

/// Which decision algorithm to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Algorithm {
    /// Theorem 5.3: single MPI for the most-general probe tuple (default).
    #[default]
    MostGeneralProbe,
    /// Corollary 3.1: one MPI per probe tuple.
    AllProbes,
    /// Theorem 5.1 / Lemma 5.1: bounded enumeration of candidate vectors,
    /// with a budget on the number of enumerated vectors (the decider reports
    /// [`ContainmentError::BudgetExceeded`] when the bound would be passed).
    GuessCheck {
        /// Maximum number of candidate vectors to enumerate per probe tuple.
        budget: u64,
    },
}

/// A configured bag-containment decider.
#[derive(Clone, Copy, Debug, Default)]
pub struct BagContainmentDecider {
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// The LP feasibility engine used by the MPI-based algorithms.
    pub engine: FeasibilityEngine,
}

impl BagContainmentDecider {
    /// A decider with the given algorithm and the default (simplex) engine.
    pub fn new(algorithm: Algorithm) -> Self {
        BagContainmentDecider { algorithm, engine: FeasibilityEngine::default() }
    }

    /// Overrides the feasibility engine.
    pub fn with_engine(mut self, engine: FeasibilityEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Decides `containee ⊑b containing`.
    ///
    /// # Errors
    /// * [`ContainmentError::ContaineeNotProjectionFree`] if the containee
    ///   has existential variables (outside the fragment solved by the paper);
    /// * [`ContainmentError::UnsafeQuery`] if the containee has a head
    ///   variable that does not occur in its body;
    /// * [`ContainmentError::EmptyBody`] if the containee has no body atoms;
    /// * [`ContainmentError::BudgetExceeded`] if the guess-and-check
    ///   enumeration would exceed its configured budget.
    pub fn decide(
        &self,
        containee: &ConjunctiveQuery,
        containing: &ConjunctiveQuery,
    ) -> Result<BagContainment, ContainmentError> {
        let pair = CompiledPair::new(containee.clone(), containing.clone())?;
        self.decide_pair(&pair)
    }

    /// Decides a pre-compiled pair, reusing (and filling) its compilation
    /// cache. Repeated decisions of the same [`CompiledPair`] — a benchmark
    /// repeat loop, a batch stream replaying a pair — skip the
    /// containment-mapping enumeration entirely.
    ///
    /// # Errors
    /// [`ContainmentError::BudgetExceeded`] for an exhausted guess-and-check
    /// budget (validation errors are caught earlier, by [`CompiledPair::new`]).
    pub fn decide_pair(&self, pair: &CompiledPair) -> Result<BagContainment, ContainmentError> {
        dioph_obs::registry::ENGINE_PAIRS_DECIDED.incr();
        let result = self.decide_pair_inner(pair);
        if let Ok((verdict, rung)) = &result {
            observe_verdict(verdict, *rung);
        }
        result.map(|(verdict, _)| verdict)
    }

    /// The sequential decision loop behind [`Self::decide_pair`] (split out so
    /// the public entry point records registry counters exactly once). Also
    /// returns the rung the verdict is attributed to (see [`observe_verdict`]).
    fn decide_pair_inner(
        &self,
        pair: &CompiledPair,
    ) -> Result<(BagContainment, Option<Rung>), ContainmentError> {
        // One scratch for the whole pair: every probe after the first runs
        // through warmed buffers.
        let mut scratch = ProbeScratch::new();
        if self.algorithm == Algorithm::MostGeneralProbe {
            let (witness, rung) = self.decide_most_general_in(pair, &mut scratch)?;
            let verdict = match witness {
                Some(assignment) => BagContainment::NotContained(Box::new(
                    pair.counterexample(pair.most_general(), &assignment),
                )),
                None => BagContainment::Contained { probes_checked: 1 },
            };
            return Ok((verdict, rung));
        }
        let mut checked = 0usize;
        let mut hardest = None;
        for index in 0..pair.probe_space().raw_len() {
            let Some(outcome) = self.decide_probe_at(pair, index, &mut scratch) else { continue };
            checked += 1;
            let (witness, rung) = outcome?;
            if let Some(assignment) = witness {
                let ce = self.counterexample_at(pair, index, &assignment);
                return Ok((BagContainment::NotContained(Box::new(ce)), rung));
            }
            hardest = hardest.max(rung);
        }
        Ok((BagContainment::Contained { probes_checked: checked }, hardest))
    }

    /// Decides a single compiled probe: `Ok(Some(ξ))` returns an MPI
    /// assignment witnessing non-containment at this probe, `Ok(None)` means
    /// the probe's MPI is unsolvable (this probe cannot break containment).
    ///
    /// This is the unit of work the parallel engine distributes across
    /// worker threads; the sequential [`Self::decide_pair`] loop calls the
    /// exact same function, which is what makes parallel verdicts
    /// bit-identical to sequential ones.
    ///
    /// # Errors
    /// [`ContainmentError::BudgetExceeded`] when the guess-and-check
    /// enumeration would pass its per-probe budget.
    pub fn decide_probe(
        &self,
        compiled: &CompiledProbe,
    ) -> Result<Option<Vec<Natural>>, ContainmentError> {
        let mut scratch = ProbeScratch::new();
        self.decide_probe_in(compiled, &mut scratch)
    }

    /// [`Self::decide_probe`] through a caller-provided [`ProbeScratch`]:
    /// every working buffer — the Theorem 4.1 system, the LP kernel tableau,
    /// the guess-and-check enumeration state — is drawn from `scratch` and
    /// recycled there, so a warmed scratch decides a probe with no heap
    /// allocation beyond the returned witness. Reuse is capacity-only;
    /// verdicts and witnesses are bit-identical to [`Self::decide_probe`],
    /// which is what keeps parallel workers (one scratch each) byte-identical
    /// to the sequential loop.
    ///
    /// # Errors
    /// As [`Self::decide_probe`].
    pub fn decide_probe_in(
        &self,
        compiled: &CompiledProbe,
        scratch: &mut ProbeScratch,
    ) -> Result<Option<Vec<Natural>>, ContainmentError> {
        self.decide_probe_rung_in(compiled, scratch).map(|(witness, _)| witness)
    }

    /// [`Self::decide_probe_in`], also returning the [`Rung`] that decided
    /// the probe. The MPI routes climb the rungs in order: a dominating
    /// mapping means contained; no mapping at all is the zero-polynomial
    /// path; only the rest reaches the LP. Guess-and-check runs no ladder
    /// and reports no rung.
    ///
    /// # Errors
    /// As [`Self::decide_probe`].
    pub fn decide_probe_rung_in(
        &self,
        compiled: &CompiledProbe,
        scratch: &mut ProbeScratch,
    ) -> Result<(Option<Vec<Natural>>, Option<Rung>), ContainmentError> {
        dioph_obs::registry::CONTAINMENT_PROBES_DECIDED.incr();
        let _probe_span = dioph_obs::span(dioph_obs::Phase::Probe);
        scratch.note_probe();
        match self.algorithm {
            Algorithm::MostGeneralProbe | Algorithm::AllProbes => {
                let rung = compiled.rung();
                let witness = match rung {
                    Rung::Dominance => None,
                    Rung::NoMapping | Rung::Lp => {
                        compiled.mpi().diophantine_solution_in(self.engine, &mut scratch.mpi)?
                    }
                };
                Ok((witness, Some(rung)))
            }
            Algorithm::GuessCheck { budget } => {
                Ok((guess_check_probe(compiled, budget, scratch)?, None))
            }
        }
    }

    /// Decides the probe with raw index `index` of `pair` (the all-probes
    /// unit): `None` when that index is not a probe tuple, otherwise the
    /// outcome of [`Self::decide_probe_rung_in`]. The MPI routes decide from
    /// the early-stop memo ([`CompiledPair::probe_rung`]), so a probe with a
    /// dominating mapping is contained without its full MPI. Guess-and-check
    /// runs no ladder and decides the full compilation
    /// ([`CompiledPair::probe`]).
    pub fn decide_probe_at(
        &self,
        pair: &CompiledPair,
        index: usize,
        scratch: &mut ProbeScratch,
    ) -> Option<Result<ProbeDecision, ContainmentError>> {
        Some(match self.indexed_probe(pair, index)? {
            EarlyStop::Dominated => {
                dioph_obs::registry::CONTAINMENT_PROBES_DECIDED.incr();
                let _probe_span = dioph_obs::span(dioph_obs::Phase::Probe);
                scratch.note_probe();
                Ok((None, Some(Rung::Dominance)))
            }
            EarlyStop::Compiled(compiled) => self.decide_probe_rung_in(compiled, scratch),
        })
    }

    /// The counterexample for a witness that [`Self::decide_probe_at`]
    /// returned at probe `index` of `pair`, built from the compilation that
    /// probe was decided on.
    ///
    /// # Panics
    /// Panics if no compiled probe at `index` was decided: a dominated
    /// probe or a non-probe index has no witness.
    pub fn counterexample_at(
        &self,
        pair: &CompiledPair,
        index: usize,
        assignment: &[Natural],
    ) -> Counterexample {
        let Some(EarlyStop::Compiled(compiled)) = self.indexed_probe(pair, index) else {
            panic!("a witness comes from a compiled probe");
        };
        pair.counterexample(compiled, assignment)
    }

    /// The compilation of probe `index` this decider decides: the early-stop
    /// memo on the MPI routes, the full compilation for guess-and-check.
    fn indexed_probe<'p>(&self, pair: &'p CompiledPair, index: usize) -> Option<EarlyStop<'p>> {
        match self.algorithm {
            Algorithm::MostGeneralProbe | Algorithm::AllProbes => pair.probe_rung(index),
            Algorithm::GuessCheck { .. } => pair.probe(index).map(EarlyStop::Compiled),
        }
    }

    /// Decides the most-general probe of `pair` (the Theorem 5.3 unit) from
    /// its memoised rung: a pair whose mapping search met a dominating
    /// mapping is contained without the rest of the enumeration (under any
    /// algorithm: no natural vector satisfies a row `≤ 0`); any other goes
    /// through [`Self::decide_probe_rung_in`] on the full probe.
    ///
    /// # Errors
    /// As [`Self::decide_probe`].
    pub fn decide_most_general_in(
        &self,
        pair: &CompiledPair,
        scratch: &mut ProbeScratch,
    ) -> Result<(Option<Vec<Natural>>, Option<Rung>), ContainmentError> {
        match pair.most_general_rung() {
            MostGeneral::Dominated => {
                dioph_obs::registry::CONTAINMENT_PROBES_DECIDED.incr();
                Ok((None, Some(Rung::Dominance)))
            }
            MostGeneral::Compiled(compiled) => self.decide_probe_rung_in(compiled, scratch),
        }
    }
}

/// Tallies one verdict into the registry: the verdict counters and, for the
/// MPI routes, the `containment.decided_by.*` counter of the rung the
/// verdict is attributed to. A not-contained verdict belongs to the rung of
/// its witness probe; a contained one to the costliest rung among its
/// probes (the LP if any probe reached it). Public so the probe-parallel
/// pool in `dioph-engine` — which assembles its [`BagContainment`] from
/// merged probe events rather than through
/// [`BagContainmentDecider::decide_pair`] — counts identically to the
/// sequential loop.
pub fn observe_verdict(verdict: &BagContainment, rung: Option<Rung>) {
    match verdict {
        BagContainment::Contained { .. } => {
            dioph_obs::registry::ENGINE_VERDICTS_CONTAINED.incr();
        }
        BagContainment::NotContained(_) => {
            dioph_obs::registry::ENGINE_VERDICTS_NOT_CONTAINED.incr();
        }
    }
    let counter = match rung {
        None => return,
        Some(Rung::Dominance) => &dioph_obs::registry::CONTAINMENT_DECIDED_BY_DOMINANCE,
        Some(Rung::NoMapping) => &dioph_obs::registry::CONTAINMENT_DECIDED_BY_NO_MAPPING,
        Some(Rung::Lp) => &dioph_obs::registry::CONTAINMENT_DECIDED_BY_LP,
    };
    counter.incr();
}

/// The Lemma 5.1 bounded enumeration for one probe: searches for a natural
/// direction vector satisfying every strict inequality of the probe's MPI
/// system, within `budget` enumerated candidates.
fn guess_check_probe(
    compiled: &CompiledProbe,
    budget: u64,
    scratch: &mut ProbeScratch,
) -> Result<Option<Vec<Natural>>, ContainmentError> {
    let n = compiled.dimension();
    let e = compiled.mpi().monomial().exponents();
    // Exponent differences computed straight on the machine words (widened
    // so u64::MAX − 0 stays exact), written into recycled row storage. Split
    // borrow: the rows stay immutably borrowed while the enumeration mutates
    // the composition buffer.
    let ProbeScratch { gc_rows, gc_current, .. } = scratch;
    let mut term_count = 0usize;
    for (_, m) in compiled.mpi().polynomial().terms() {
        if gc_rows.len() == term_count {
            gc_rows.push(Vec::new()); // alloc-ok: outer growth, once per warm-up
        }
        let row = &mut gc_rows[term_count];
        row.clear();
        row.extend(e.iter().zip(m.exponents()).map(|(&a, &b)| a as i128 - b as i128));
        term_count += 1;
    }
    // Rows past `term_count` are previous probes' leftovers: ignored here,
    // kept warm for the next probe.
    let rows = &gc_rows[..term_count];

    if rows.is_empty() {
        // No containment mapping at all: the all-ones bag already violates
        // containment for this probe tuple.
        return Ok(Some(vec![Natural::one(); n])); // alloc-ok: returned witness
    }

    // Small-solution bound (Lemma 5.1): a solution exists iff one exists
    // with component sum at most 6·n³·φ. We use the safe over-approximation
    // φ = max_h (1 + Σ_j |(e − e_h)_j|).
    let phi: u64 = rows
        .iter()
        .map(|row| 1 + row.iter().map(|c| c.unsigned_abs() as u64).sum::<u64>())
        .max()
        .unwrap_or(1);
    let bound = 6u64
        .saturating_mul(n as u64)
        .saturating_mul(n as u64)
        .saturating_mul(n as u64)
        .saturating_mul(phi);

    // Enumerate candidate vectors by increasing component sum, so the
    // smallest violating directions are found first.
    let mut enumerated = 0u64;
    let mut found = false;
    let current = gc_current;
    current.clear();
    current.resize(n, 0);
    'sums: for total in 0..=bound {
        let control = enumerate_compositions(current, 0, total, &mut |candidate| {
            enumerated += 1;
            if enumerated > budget {
                return EnumerationControl::Abort;
            }
            let satisfies_all = rows.iter().all(|row| {
                row.iter().zip(candidate).map(|(&c, &d)| c * d as i128).sum::<i128>() > 0
            });
            if satisfies_all {
                found = true;
                EnumerationControl::Stop
            } else {
                EnumerationControl::Continue
            }
        });
        match control {
            EnumerationControl::Continue => {}
            EnumerationControl::Stop | EnumerationControl::Abort => break 'sums,
        }
    }
    if enumerated > budget {
        return Err(ContainmentError::BudgetExceeded { budget });
    }
    if !found {
        return Ok(None);
    }
    // On `Stop`, `enumerate_compositions` leaves the winning candidate in the
    // composition buffer untouched — read it from there instead of cloning it
    // inside the visitor.
    let direction: &[u64] = current;
    let naturals: Vec<Natural> = direction.iter().copied().map(Natural::from).collect(); // alloc-ok: base search input
    let base = compiled
        .mpi()
        .smallest_base_for(&naturals)
        .expect("a direction satisfying every inequality yields a base");
    // ξ_j = ζ*^{d_j}: raise the base straight from the enumerated
    // machine-word exponents (no round trip through Natural and back).
    Ok(Some(direction.iter().map(|&d| base.pow(d)).collect())) // alloc-ok: returned witness
}

/// Convenience wrapper: decides `containee ⊑b containing` with the default
/// decider (most-general probe tuple + exact simplex).
pub fn is_bag_contained(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
) -> Result<BagContainment, ContainmentError> {
    BagContainmentDecider::default().decide(containee, containing)
}

/// Decides bag **equivalence** of two projection-free conjunctive queries:
/// containment in both directions. Returns the two directional results, so a
/// failed equivalence still exposes which direction broke and with which
/// witness bag.
///
/// # Errors
/// Propagates the validation errors of [`BagContainmentDecider::decide`]
/// (both queries must be projection-free, safe and non-empty, since each acts
/// as the containee in one direction).
pub fn bag_equivalence(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
) -> Result<(BagContainment, BagContainment), ContainmentError> {
    let decider = BagContainmentDecider::default();
    let forward = decider.decide(q1, q2)?;
    let backward = decider.decide(q2, q1)?;
    Ok((forward, backward))
}

/// `true` iff both directions of [`bag_equivalence`] hold.
pub fn are_bag_equivalent(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
) -> Result<bool, ContainmentError> {
    let (forward, backward) = bag_equivalence(q1, q2)?;
    Ok(forward.holds() && backward.holds())
}

/// Flow control for [`enumerate_compositions`].
enum EnumerationControl {
    Continue,
    Stop,
    Abort,
}

/// Enumerates every vector of naturals of the current length whose components
/// sum to exactly `remaining`, invoking `visit` on each. Returns the first
/// non-`Continue` control requested by the visitor (or `Continue` if the
/// enumeration ran to completion).
fn enumerate_compositions(
    current: &mut Vec<u64>,
    position: usize,
    remaining: u64,
    visit: &mut impl FnMut(&[u64]) -> EnumerationControl,
) -> EnumerationControl {
    if position + 1 == current.len() {
        current[position] = remaining;
        return visit(current);
    }
    if position == current.len() {
        // Zero-dimensional vector: only the empty composition of 0 exists.
        return if remaining == 0 { visit(current) } else { EnumerationControl::Continue };
    }
    for value in 0..=remaining {
        current[position] = value;
        match enumerate_compositions(current, position + 1, remaining - value, visit) {
            EnumerationControl::Continue => {}
            stop => return stop,
        }
    }
    current[position] = 0;
    EnumerationControl::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_cq::paper_examples;
    use dioph_cq::{parse_query, Term};

    const ENGINES: [FeasibilityEngine; 2] =
        [FeasibilityEngine::Simplex, FeasibilityEngine::FourierMotzkin];

    fn all_deciders() -> Vec<BagContainmentDecider> {
        let mut out = Vec::new();
        for engine in ENGINES {
            out.push(BagContainmentDecider::new(Algorithm::MostGeneralProbe).with_engine(engine));
            out.push(BagContainmentDecider::new(Algorithm::AllProbes).with_engine(engine));
        }
        out.push(BagContainmentDecider::new(Algorithm::GuessCheck { budget: 2_000_000 }));
        out
    }

    fn assert_contained(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) {
        for decider in all_deciders() {
            let result = decider.decide(q1, q2).expect("decision should succeed");
            assert!(result.holds(), "{decider:?} claims {q1} is not contained in {q2}: {result}");
        }
    }

    fn assert_not_contained(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) {
        for decider in all_deciders() {
            let result = decider.decide(q1, q2).expect("decision should succeed");
            assert!(!result.holds(), "{decider:?} wrongly claims {q1} ⊑b {q2}");
            let ce = result.counterexample().expect("non-containment must carry a witness");
            assert!(ce.verify(q1, q2), "counterexample {ce} fails verification for {q1} vs {q2}");
        }
    }

    #[test]
    fn paper_section2_containment_relations() {
        // From the paper: q1 ⊑b q2, q2 ⋢b q1, q1 ⊑b q3, q2 ⊑b q3.
        let q1 = paper_examples::section2_query_q1();
        let q2 = paper_examples::section2_query_q2();
        let q3 = paper_examples::section2_query_q3();
        assert_contained(&q1, &q2);
        assert_not_contained(&q2, &q1);
        assert_contained(&q1, &q3);
        assert_contained(&q2, &q3);
    }

    #[test]
    fn paper_section3_running_example_is_not_contained() {
        // The Section 3/4 running example: the MPI has Diophantine solutions
        // (the paper exhibits (1, 4, 3)), so q1 ⋢b q2.
        let q1 = paper_examples::section3_query_q1();
        let q2 = paper_examples::section3_query_q2();
        assert_not_contained(&q1, &q2);
    }

    #[test]
    fn identical_queries_are_contained() {
        let q = paper_examples::section2_query_q1();
        assert_contained(&q, &q.clone());
        let q3 = parse_query("q(x) <- R(x, x), S(x)").unwrap();
        assert_contained(&q3, &q3.clone());
    }

    #[test]
    fn extra_atoms_break_containment_under_bag_semantics() {
        // Under SET semantics, q1(x) ← R(x,x), S(x) is contained in
        // q2(x) ← R(x,x) (drop a conjunct). Under BAG semantics it is NOT:
        // with µ(R(c,c)) = 1 and µ(S(c)) = 2 the containee's multiplicity is
        // 2 while the containing query's is 1. The MPI view makes this
        // immediate: u_R < u_R·u_S is solvable.
        let q1 = parse_query("q(x) <- R(x, x), S(x)").unwrap();
        let q2 = parse_query("p(x) <- R(x, x)").unwrap();
        assert!(dioph_cq::is_set_contained(&q1, &q2));
        assert_not_contained(&q1, &q2);
        // The converse also fails (q2 has answers on bags with no S at all).
        assert_not_contained(&q2, &q1);
    }

    #[test]
    fn higher_multiplicity_on_containing_side_is_not_contained() {
        // q2 ⋢b q1 from the paper is one instance; a minimal one:
        // p(x) ← R²(x,x) is not bag-contained in q(x) ← R(x,x)? Wait: the
        // containee is the query whose multiplicities must be dominated:
        // R²(x,x) gives µ², R(x,x) gives µ; µ² > µ as soon as µ ≥ 2.
        let containee = parse_query("p(x) <- R^2(x, x)").unwrap();
        let containing = parse_query("q(x) <- R(x, x)").unwrap();
        assert_not_contained(&containee, &containing);
        // The other direction holds: µ ≤ µ² for µ ≥ 1 and equals at µ = 1... but
        // at µ = 0 both are 0, so containment holds.
        assert_contained(&containing, &containee);
    }

    #[test]
    fn disjoint_relations_are_never_contained() {
        let q1 = parse_query("q(x) <- R(x, x)").unwrap();
        let q2 = parse_query("p(x) <- S(x, x)").unwrap();
        assert_not_contained(&q1, &q2);
        assert_not_contained(&q2, &q1);
    }

    #[test]
    fn arity_mismatch_is_not_contained() {
        let q1 = parse_query("q(x, y) <- R(x, y)").unwrap();
        let q2 = parse_query("p(x) <- R(x, x)").unwrap();
        assert_not_contained(&q1, &q2);
    }

    #[test]
    fn repeated_head_variables_constrain_the_containing_query() {
        // q1(x,x) asks for the diagonal; q2(x,y) ← R(x,y) contains it.
        let q1 = parse_query("q(x, x) <- R(x, x)").unwrap();
        let q2 = parse_query("p(x, y) <- R(x, y)").unwrap();
        assert_contained(&q1, &q2);
        // The converse is false (q2 returns non-diagonal tuples).
        assert_not_contained(&q2, &q1);
    }

    #[test]
    fn constants_in_the_containing_query() {
        // q1(x) ← R(x,'c')  ⊑b  q2(x) ← R(x,y) (projecting away the constant).
        let q1 = parse_query("q(x) <- R(x, 'c')").unwrap();
        let q2 = parse_query("p(x) <- R(x, y)").unwrap();
        assert_contained(&q1, &q2);
    }

    #[test]
    fn containment_with_existential_multiplication() {
        // Paper-style phenomenon: the containing query can use an existential
        // variable to pick up extra multiplicity.
        // q1(x) ← R²(x,x)  vs  q2(x) ← R(x,y), R(y,x):
        // On the canonical instance {R(x̂,x̂)} the only mapping gives u², equal
        // to the containee's u², so containment holds.
        let q1 = parse_query("q(x) <- R^2(x, x)").unwrap();
        let q2 = parse_query("p(x) <- R(x, y), R(y, x)").unwrap();
        assert_contained(&q1, &q2);
    }

    #[test]
    fn boolean_queries_work() {
        // A ground Boolean containee (its body mentions only constants) is
        // bag-contained in the Boolean query asking for a symmetric pair of
        // edges anywhere: the containing query's sum includes the containee's
        // product as one of its terms.
        let q1 = parse_query("b1() <- E('a', 'b'), E('b', 'a')").unwrap();
        let q2 = parse_query("b2() <- E(x, y), E(y, x)").unwrap();
        assert_contained(&q1, &q2);
    }

    #[test]
    fn validation_errors() {
        let not_pf = parse_query("q(x) <- R(x, y)").unwrap();
        let ok = parse_query("p(x) <- R(x, x)").unwrap();
        let err = is_bag_contained(&not_pf, &ok).unwrap_err();
        assert!(matches!(err, ContainmentError::ContaineeNotProjectionFree { .. }));

        let unsafe_q = ConjunctiveQuery::from_atom_list(
            "u",
            vec![Term::var("x"), Term::var("z")],
            vec![dioph_cq::Atom::new("R", vec![Term::var("x"), Term::var("x")])],
        );
        let err = is_bag_contained(&unsafe_q, &ok).unwrap_err();
        assert!(matches!(err, ContainmentError::UnsafeQuery { .. }));

        let empty = ConjunctiveQuery::from_atom_list("e", vec![], vec![]);
        let err = is_bag_contained(&empty, &ok).unwrap_err();
        assert!(matches!(err, ContainmentError::EmptyBody { .. }));

        // The containing query may freely have projections — only the
        // containee is restricted.
        let has_proj = parse_query("p(x) <- R(x, y), R(y, y)").unwrap();
        assert!(is_bag_contained(&ok, &has_proj).is_ok());
    }

    #[test]
    fn bag_equivalence_checks_both_directions() {
        let q1 = paper_examples::section2_query_q1();
        let q2 = paper_examples::section2_query_q2();
        // Set-equivalent but not bag-equivalent: the backward direction fails.
        let (forward, backward) = bag_equivalence(&q1, &q2).unwrap();
        assert!(forward.holds());
        assert!(!backward.holds());
        assert!(backward.counterexample().unwrap().verify(&q2, &q1));
        assert!(!are_bag_equivalent(&q1, &q2).unwrap());
        // Every query is bag-equivalent to itself.
        assert!(are_bag_equivalent(&q1, &q1.clone()).unwrap());
        // Projections anywhere make the equivalence question leave the fragment.
        let q3 = paper_examples::section2_query_q3();
        assert!(bag_equivalence(&q1, &q3).is_err());
    }

    #[test]
    fn guess_check_budget_is_enforced() {
        let q1 = paper_examples::section3_query_q1();
        let q2 = paper_examples::section3_query_q2();
        let decider = BagContainmentDecider::new(Algorithm::GuessCheck { budget: 3 });
        let err = decider.decide(&q1, &q2).unwrap_err();
        assert!(matches!(err, ContainmentError::BudgetExceeded { budget: 3 }));
    }

    /// Decides the most-general probe of `pair` and returns the witness and
    /// the rung that decided it.
    fn most_general_outcome(pair: &CompiledPair) -> (Option<Vec<Natural>>, Option<Rung>) {
        BagContainmentDecider::default()
            .decide_most_general_in(pair, &mut ProbeScratch::new())
            .expect("the LP route decides")
    }

    #[test]
    fn a_dominating_mapping_decides_containment_without_the_lp() {
        // Four mappings send (y1, y2) into {c1, c2}²; the one onto (c1, c2)
        // has exponents (1, 1) = e, so the search stops there.
        let q1 = parse_query("q(x) <- R(x, 'c1'), R(x, 'c2')").unwrap();
        let q2 = parse_query("p(x) <- R(x, y1), R(x, y2)").unwrap();
        let pair = CompiledPair::new(q1.clone(), q2.clone()).unwrap();
        assert!(matches!(pair.most_general_rung(), MostGeneral::Dominated));
        assert_eq!(most_general_outcome(&pair), (None, Some(Rung::Dominance)));
        // The full route stays reachable: the complete MPI, every mapping.
        assert_eq!(pair.most_general().mapping_count(), 4);
        assert_eq!(pair.most_general().rung(), Rung::Dominance);
        assert_contained(&q1, &q2);
    }

    #[test]
    fn the_residual_contained_pair_needs_the_lp() {
        // Contained, yet no containment mapping dominates the monomial: the
        // one pair among 5,000 seed-7 fuzz cases that only the LP settles.
        let q1 =
            parse_query("q(x0, x1) <- R(x1, x1), S(x0, x0), S(x0, 'c0'), S('c0', 'c0')").unwrap();
        let q2 = parse_query("p(x0, x1) <- R(x1, x1), S(x0, y0), S^2(y1, y0)").unwrap();
        let pair = CompiledPair::new(q1.clone(), q2.clone()).unwrap();
        let MostGeneral::Compiled(compiled) = pair.most_general_rung() else {
            panic!("no mapping dominates the residual pair");
        };
        assert_eq!(compiled.rung(), Rung::Lp);
        assert_eq!(most_general_outcome(&pair), (None, Some(Rung::Lp)));
        // Guess-and-check is left out: proving a contained probe means
        // exhausting its Lemma 5.1 bound, far past any test budget here.
        for decider in all_deciders()
            .into_iter()
            .filter(|d| !matches!(d.algorithm, Algorithm::GuessCheck { .. }))
        {
            assert!(decider.decide(&q1, &q2).unwrap().holds(), "{decider:?}");
        }
    }

    #[test]
    fn bag_containment_implies_set_containment_on_fixtures() {
        // Sanity check of the basic observation from Section 2 on the
        // paper fixtures and a few crafted pairs.
        let pairs = [
            (paper_examples::section2_query_q1(), paper_examples::section2_query_q2()),
            (paper_examples::section2_query_q1(), paper_examples::section2_query_q3()),
            (
                parse_query("q(x) <- R(x, x), S(x)").unwrap(),
                parse_query("p(x) <- R(x, x)").unwrap(),
            ),
        ];
        for (q1, q2) in pairs {
            let bag = is_bag_contained(&q1, &q2).unwrap().holds();
            let set = dioph_cq::is_set_contained(&q1, &q2);
            if bag {
                assert!(set, "bag containment must imply set containment ({q1} vs {q2})");
            }
        }
    }
}
