//! # dioph-fuzz — differential fuzzing oracle for the bag-containment decider
//!
//! Every correctness claim in this workspace used to bottom out in golden
//! fixtures generated from the decider itself. This crate closes the loop
//! with an *independent* refutation harness: seeded random query pairs in
//! the paper fragment are decided by the MPI/LP route (through the
//! `dioph-engine` probe pool, so `--jobs` is exercised)
//! and the verdicts are cross-checked three ways:
//!
//! 1. **Bounded bag-database ground truth** — a `Contained` verdict must
//!    survive brute-force Equation-2 evaluation
//!    ([`dioph_bagdb::bag_containment_holds_on`]) over every bag below the
//!    configured multiplicity bound on the containee's canonical facts
//!    (exhaustive when the space is small, sampled otherwise), plus random
//!    bags over the schema and a bounded active domain.
//! 2. **Certificate replay** — a `NotContained` verdict's counterexample bag
//!    must reproduce its claimed multiplicities under the independent
//!    evaluator ([`dioph_containment::Counterexample::verify`]). A
//!    `Contained` verdict whose most-general probe was decided by the LP
//!    must come with a Gordan certificate: weights `λ ≥ 0` over the
//!    containment mappings, `Σ λ > 0`, supported on at most `d + 1` of them,
//!    with `Σ_h λ_h·e_h ≥ (Σ λ)·e` in every coordinate, checked in plain
//!    integer arithmetic.
//! 3. **Chandra–Merlin set containment as a necessary condition** — bag
//!    containment implies set containment, and for projection-free
//!    containees the bag-set verdict must coincide with the set verdict
//!    (the Section 3 remark, checked through
//!    [`dioph_containment::bag_set_containment`]).
//!
//! Any disagreement is **shrunk** to a minimal reproducer (greedily removing
//! body atoms, decrementing multiplicities and dropping database facts while
//! the disagreement persists) and reported with a machine-checkable witness.
//! The whole run is deterministic in the seed — and, by construction, the
//! report is byte-identical across thread counts, which is itself one of
//! the properties under test.
//!
//! ```
//! use dioph_fuzz::{run_fuzz, FuzzConfig};
//!
//! let report = run_fuzz(&FuzzConfig { cases: 5, ..FuzzConfig::default() });
//! assert_eq!(report.disagreements.len(), 0);
//! assert_eq!(report.cases.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generate;
mod oracle;
mod report;

pub use generate::{generate_case, FuzzCase};
pub use oracle::{check_pair, derive_seed, CaseOutcome, Disagreement, DisagreementKind, Injection};
pub use report::{run_fuzz, run_replay, CaseReport, FuzzReport};

/// Configuration of a fuzzing run. Everything that influences generated
/// cases or the brute-force sweep is part of the seed-stable report header;
/// `jobs` and `injection` deliberately are **not** — verdicts must be
/// identical across thread counts, so the report must be too.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Master seed; every case derives its own RNG stream from it.
    pub seed: u64,
    /// Number of generated cases.
    pub cases: usize,
    /// Active-domain bound for the random schema databases (constants
    /// `c0..c{max_adom-1}`, merged with the constants the queries mention).
    pub max_adom: usize,
    /// Multiplicity bound for every swept or sampled bag database.
    pub max_mult: u64,
    /// Number of sampled bags when the bounded space is too large to
    /// enumerate, and the budget for the random schema databases.
    pub samples: usize,
    /// Exhaustive-enumeration threshold: sweep every bounded bag when the
    /// space has at most this many, sample otherwise.
    pub enumeration_cap: u128,
    /// Worker threads for the probe pool deciding each case.
    pub jobs: usize,
    /// Deliberate decider corruption for self-tests: proves the oracle
    /// catches (and minimises) an injected bug.
    pub injection: Option<Injection>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0x2019_0630,
            cases: 100,
            max_adom: 3,
            max_mult: 2,
            samples: 32,
            enumeration_cap: 512,
            jobs: 1,
            injection: None,
        }
    }
}
