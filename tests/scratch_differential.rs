//! Differential tests for the scratch-memory discipline.
//!
//! The zero-allocation probe loop reuses one [`ProbeScratch`] across every
//! probe a worker decides. Reuse is supposed to be **capacity-only**: a
//! probe decided through a warmed, shared scratch must produce the
//! bit-identical outcome — verdict, witness assignment, even the error — as
//! the same probe decided through fresh allocations. These tests pin that
//! equivalence over every workload family `diophantus gen` can emit and
//! every algorithm, with the scratch deliberately
//! carried across probes, deciders and pairs so it is maximally "dirty"
//! when each comparison runs.

use diophantus::containment::{
    Algorithm, BagContainmentDecider, CompiledPair, FeasibilityEngine, ProbeScratch,
};
use diophantus::workloads::{generate_pairs, WorkloadKind};
use proptest::prelude::*;

/// One representative of every workload family (matching the suite's own
/// coverage list), at sizes small enough for per-probe differential runs.
const ALL_KINDS: [WorkloadKind; 9] = [
    WorkloadKind::Specialization { atoms: 4 },
    WorkloadKind::Inflated { atoms: 4 },
    WorkloadKind::Contained { atoms: 4 },
    WorkloadKind::Path { length: 2 },
    WorkloadKind::ExponentialMapping { mappings_log2: 1 },
    WorkloadKind::ThreeColorability { vertices: 4 },
    WorkloadKind::Chain { length: 3 },
    WorkloadKind::Star { rays: 3 },
    WorkloadKind::Clique { vertices: 3 },
];

/// Every algorithm, each with its scratch-threaded hot path (the simplex
/// kernel; Fourier–Motzkin ignores the scratch by design, so it adds
/// nothing here).
fn deciders() -> [BagContainmentDecider; 3] {
    [
        BagContainmentDecider::new(Algorithm::MostGeneralProbe),
        BagContainmentDecider::new(Algorithm::AllProbes),
        BagContainmentDecider::new(Algorithm::GuessCheck { budget: 2_000 }),
    ]
}

/// Compares the fresh-scratch route against the shared warmed scratch on
/// every probe of `pair` (capped so giant probe spaces stay differential
/// tests, not benchmarks). Errors must match too: a guess-and-check budget
/// blowup through recycled buffers is the same blowup.
fn assert_probe_parity(pair: &CompiledPair, warmed: &mut ProbeScratch) {
    for decider in deciders() {
        let probes = pair.probe_space().raw_len().min(32);
        for index in 0..probes {
            let Some(compiled) = pair.probe(index) else { continue };
            let fresh = decider.decide_probe(compiled);
            let reused = decider.decide_probe_in(compiled, warmed);
            assert_eq!(
                format!("{fresh:?}"),
                format!("{reused:?}"),
                "warmed scratch diverged from fresh allocation: {decider:?}, probe {index}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Warmed-scratch decisions are bit-identical to fresh-allocation
    /// decisions on every workload family, for every seed.
    #[test]
    fn warmed_scratch_is_bit_identical_to_fresh(kind_index in 0usize..ALL_KINDS.len(), seed in 0u64..10_000) {
        let kind = ALL_KINDS[kind_index];
        // ONE scratch across both pairs and all deciders: by the time the
        // last comparison runs it has been through LP tableaus and
        // enumeration buffers of entirely different shapes.
        let mut warmed = ProbeScratch::new();
        for pair in generate_pairs(kind, 2, seed) {
            let compiled = CompiledPair::new(pair.containee, pair.containing)
                .expect("generated workloads are decidable");
            assert_probe_parity(&compiled, &mut warmed);
        }
    }
}

/// The whole-pair entry point (which holds one scratch across its probe
/// loop) agrees with probe-by-probe fresh decisions on every family — a
/// deterministic spot check that needs no proptest shrinking to debug —
/// and with the Fourier–Motzkin oracle's verdict.
#[test]
fn decide_pair_matches_fresh_probe_decisions() {
    let decider = BagContainmentDecider::new(Algorithm::AllProbes);
    let oracle = decider.with_engine(FeasibilityEngine::FourierMotzkin);
    for kind in ALL_KINDS {
        for pair in generate_pairs(kind, 1, 7) {
            let compiled = CompiledPair::new(pair.containee.clone(), pair.containing.clone())
                .expect("generated workloads are decidable");
            let verdict = decider.decide_pair(&compiled).expect("decidable");
            // Re-derive the verdict with per-probe fresh scratches: the
            // first probe with a witness decides the pair.
            let mut witnessed = None;
            for index in 0..compiled.probe_space().raw_len() {
                let Some(probe) = compiled.probe(index) else { continue };
                if let Some(assignment) = decider.decide_probe(probe).expect("decidable") {
                    witnessed = Some(assignment);
                    break;
                }
            }
            assert_eq!(
                verdict.holds(),
                witnessed.is_none(),
                "{}: pair verdict diverges from fresh probe sweep",
                pair.label
            );
            assert_eq!(
                verdict.holds(),
                oracle.decide_pair(&compiled).expect("decidable").holds(),
                "{}: pair verdict diverges from the Fourier–Motzkin oracle",
                pair.label
            );
        }
    }
}
