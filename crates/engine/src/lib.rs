//! # dioph-engine — parallel batch decision engine
//!
//! The decision procedures in `dioph-containment` decide one pair at a time,
//! one probe tuple at a time. Both loops are embarrassingly parallel — every
//! probe tuple of a pair is decided independently (Corollary 3.1), and every
//! pair of a workload stream is decided independently — so this crate owns
//! the machinery that exploits it with nothing beyond `std::thread` and
//! `std::sync::mpsc` (the build environment is offline; no rayon, no
//! crossbeam):
//!
//! Both fronts are served by **one scheduler** whose unit of work is a
//! **(pair, probe-index) claim** from a shared queue (the
//! [`dioph_cq::ProbeSpace`] makes probes randomly addressable, and
//! [`CompiledPair::probe_units`] is the claiming surface):
//!
//! * [`DecisionEngine::decide`] admits **one pair** and fans its probe
//!   units across a worker pool (capped at the unit count — `--jobs 8` on
//!   a 3-probe pair spawns 3 threads). Workers claim unit chunks with a
//!   relaxed atomic cursor, decide them with the exact same per-probe
//!   routine the sequential decider uses, and the merge keeps the event
//!   with the **lowest probe index** — so verdicts, counterexample bags
//!   and JSON certificates are bit-identical to a sequential run, for any
//!   thread count.
//! * [`DecisionEngine::run_batch`] is the streaming front-end: a feeder
//!   thread pulls [`Job`]s from an input iterator, parses + compiles them,
//!   and publishes every admitted pair's probe space into the same shared
//!   queue; workers pull unit chunks from *any* in-flight pair (a giant
//!   pair amid small ones is drained by the whole pool instead of starving
//!   one worker), and the collector emits [`Verdict`]s strictly in
//!   submission order while later jobs are still in flight. Compilation is
//!   amortised across the stream through a [`CompiledPair`] cache keyed by
//!   the pair's (name-normalised) text, so a stream that replays a pair
//!   reuses its containment-mapping enumeration.
//! * [`JobReader`] turns any `BufRead` (stdin, a file) into a stream of
//!   [`Job`]s without waiting for end of input, which is what lets
//!   `diophantus batch` answer pair 1 while pair 1000 is still being typed.
//!
//! Per-pair failures are values, not aborts: a [`Verdict`] carries either a
//! [`PairOutcome`] or a structured [`BatchError`], so a driver can implement
//! `--keep-going` by simply not stopping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod pool;

pub use batch::{BatchError, BatchStats, CompilationCache, Job, JobReader, PairOutcome, Verdict};

use dioph_containment::{
    Algorithm, BagContainment, BagContainmentDecider, CompiledPair, ContainmentError,
    FeasibilityEngine,
};
use dioph_cq::ConjunctiveQuery;

/// Configuration of a [`DecisionEngine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of worker threads (clamped to at least 1).
    pub jobs: usize,
    /// The decision algorithm every worker runs.
    pub algorithm: Algorithm,
    /// The LP feasibility engine behind the MPI-based algorithms.
    pub engine: FeasibilityEngine,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 1,
            algorithm: Algorithm::default(),
            engine: FeasibilityEngine::default(),
        }
    }
}

/// A parallel bag-containment decision engine.
///
/// Construct one per configuration and reuse it freely: the engine is
/// stateless between calls (each call builds its own scoped worker pool, so
/// no threads linger when the engine is idle).
#[derive(Clone, Copy, Debug, Default)]
pub struct DecisionEngine {
    config: EngineConfig,
}

impl DecisionEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        DecisionEngine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The equivalent sequential decider (same algorithm, same LP engine).
    pub(crate) fn sequential_decider(&self) -> BagContainmentDecider {
        BagContainmentDecider::new(self.config.algorithm).with_engine(self.config.engine)
    }

    /// Decides `containee ⊑b containing`, fanning probe tuples across the
    /// configured number of worker threads. The verdict — including the
    /// counterexample bag, when containment fails — is bit-identical to
    /// [`BagContainmentDecider::decide`] for every `jobs` value.
    ///
    /// # Errors
    /// The same errors as [`BagContainmentDecider::decide`].
    pub fn decide(
        &self,
        containee: &ConjunctiveQuery,
        containing: &ConjunctiveQuery,
    ) -> Result<BagContainment, ContainmentError> {
        let pair = CompiledPair::new(containee.clone(), containing.clone())?;
        self.decide_pair(&pair)
    }

    /// Decides a pre-compiled pair, reusing its compilation cache.
    ///
    /// # Errors
    /// The same errors as [`BagContainmentDecider::decide`].
    pub fn decide_pair(&self, pair: &CompiledPair) -> Result<BagContainment, ContainmentError> {
        let decider = self.sequential_decider();
        // The most-general-probe algorithm decides a single probe — there is
        // nothing to fan out — and a single worker is the sequential loop.
        if self.config.jobs <= 1 || self.config.algorithm == Algorithm::MostGeneralProbe {
            return decider.decide_pair(pair);
        }
        pool::decide_pair_parallel(&decider, pair, self.config.jobs)
    }

    /// Decides bag equivalence (containment in both directions), each
    /// direction probe-parallel. Mirrors
    /// [`bag_equivalence`](dioph_containment::bag_equivalence): the forward
    /// direction is decided (and its errors surface) first.
    ///
    /// # Errors
    /// The same errors as [`BagContainmentDecider::decide`], for either
    /// direction.
    pub fn equivalence(
        &self,
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
    ) -> Result<(BagContainment, BagContainment), ContainmentError> {
        let forward = self.decide(q1, q2)?;
        let backward = self.decide(q2, q1)?;
        Ok((forward, backward))
    }

    /// Runs a streaming batch: pulls [`Job`]s from `jobs` as they become
    /// available, decides them on the worker pool, and calls `emit` with
    /// each [`Verdict`] strictly in submission order (verdict `k` is emitted
    /// as soon as jobs `1..=k` have finished, while later jobs are still in
    /// flight). `emit` returns whether to continue: `false` stops the feeder
    /// and discards in-flight work, which is how a driver aborts on the
    /// first error when resilience was not requested. One caveat: the feeder
    /// notices the stop only between items, so if `jobs` is blocked waiting
    /// for more input (an idle interactive stream), the call returns once
    /// that read yields or the stream closes — drivers of interactive
    /// streams should therefore report failures *before* returning `false`,
    /// as the CLI does. Returns throughput statistics, including how often
    /// the shared compilation cache was hit.
    pub fn run_batch<I, F>(&self, jobs: I, emit: F) -> BatchStats
    where
        I: Iterator<Item = Job> + Send,
        F: FnMut(Verdict) -> bool,
    {
        batch::run_batch(self, jobs, emit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_cq::parse_query;

    fn q(text: &str) -> ConjunctiveQuery {
        parse_query(text).unwrap()
    }

    fn engines(jobs: usize) -> Vec<DecisionEngine> {
        [
            Algorithm::MostGeneralProbe,
            Algorithm::AllProbes,
            Algorithm::GuessCheck { budget: 2_000_000 },
        ]
        .into_iter()
        .map(|algorithm| {
            DecisionEngine::new(EngineConfig {
                jobs,
                algorithm,
                engine: FeasibilityEngine::default(),
            })
        })
        .collect()
    }

    #[test]
    fn parallel_verdicts_match_sequential_on_the_paper_examples() {
        use dioph_cq::paper_examples;
        let cases = [
            (paper_examples::section2_query_q1(), paper_examples::section2_query_q2()),
            (paper_examples::section2_query_q2(), paper_examples::section2_query_q1()),
            (paper_examples::section3_query_q1(), paper_examples::section3_query_q2()),
            (q("q(x) <- R(x, x), S(x)"), q("p(x) <- R(x, x)")),
        ];
        for (containee, containing) in cases {
            for jobs in [1usize, 2, 4] {
                for engine in engines(jobs) {
                    let sequential =
                        engine.sequential_decider().decide(&containee, &containing).unwrap();
                    let parallel = engine.decide(&containee, &containing).unwrap();
                    assert_eq!(
                        parallel,
                        sequential,
                        "jobs={jobs} {:?} must match sequential",
                        engine.config().algorithm
                    );
                    assert_eq!(parallel.to_json(), sequential.to_json());
                }
            }
        }
    }

    #[test]
    fn fraction_free_lp_route_is_verdict_identical_through_the_pool() {
        // The fraction-free simplex must reach the Fourier–Motzkin oracle's
        // verdict through the probe-parallel pool, with a certificate that
        // verifies and is identical for every thread count.
        use dioph_cq::paper_examples;
        let cases = [
            (paper_examples::section3_query_q1(), paper_examples::section3_query_q2()),
            (q("q(x) <- R(x, x), S(x)"), q("p(x) <- R(x, x)")),
            (q("q(x) <- R^2(x, x)"), q("p(x) <- R(x, y), R(y, x)")),
        ];
        for (containee, containing) in cases {
            let oracle = BagContainmentDecider::new(Algorithm::AllProbes)
                .with_engine(FeasibilityEngine::FourierMotzkin)
                .decide(&containee, &containing)
                .unwrap();
            let mut certificates = Vec::new();
            for jobs in [1usize, 2, 4] {
                let engine = DecisionEngine::new(EngineConfig {
                    jobs,
                    algorithm: Algorithm::AllProbes,
                    engine: FeasibilityEngine::Simplex,
                });
                let routed = engine.decide(&containee, &containing).unwrap();
                assert_eq!(routed.holds(), oracle.holds(), "jobs={jobs}");
                if let Some(ce) = routed.counterexample() {
                    assert!(ce.verify(&containee, &containing), "jobs={jobs}");
                }
                certificates.push(routed.to_json());
            }
            assert!(certificates.windows(2).all(|w| w[0] == w[1]), "{certificates:?}");
        }
    }

    #[test]
    fn equivalence_matches_the_sequential_helper() {
        use dioph_cq::paper_examples;
        let q1 = paper_examples::section2_query_q1();
        let q2 = paper_examples::section2_query_q2();
        let engine = DecisionEngine::new(EngineConfig { jobs: 4, ..Default::default() });
        let (forward, backward) = engine.equivalence(&q1, &q2).unwrap();
        let (sf, sb) = dioph_containment::bag_equivalence(&q1, &q2).unwrap();
        assert_eq!(forward, sf);
        assert_eq!(backward, sb);
    }

    #[test]
    fn errors_propagate_from_either_direction() {
        let engine = DecisionEngine::new(EngineConfig { jobs: 2, ..Default::default() });
        let pf = q("q(x) <- R(x, x)");
        let not_pf = q("p(x) <- R(x, y), R(y, y)");
        assert!(engine.decide(&not_pf, &pf).is_err());
        assert!(engine.equivalence(&pf, &not_pf).is_err());
    }

    #[test]
    fn budget_errors_are_deterministic_across_thread_counts() {
        use dioph_cq::paper_examples;
        let q1 = paper_examples::section3_query_q1();
        let q2 = paper_examples::section3_query_q2();
        for jobs in [1usize, 2, 4] {
            let engine = DecisionEngine::new(EngineConfig {
                jobs,
                algorithm: Algorithm::GuessCheck { budget: 3 },
                engine: FeasibilityEngine::default(),
            });
            let err = engine.decide(&q1, &q2).unwrap_err();
            assert!(matches!(err, ContainmentError::BudgetExceeded { budget: 3 }), "jobs={jobs}");
        }
    }
}
