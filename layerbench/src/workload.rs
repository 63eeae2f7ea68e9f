//! The three workloads, their shared set-up and the verdict check.

use dioph_analyze::first_fragment_error;
use dioph_containment::{Algorithm, BagContainment};
use dioph_cq::{parse_program_spanned, ConjunctiveQuery, SpannedQuery};
use dioph_engine::{DecisionEngine, EngineConfig};

use crate::gen::{self, Expect, Pair};

/// Pairs in the `compile_clique` workload text (about 0.5 MB of datalog).
const CLIQUE_PAIRS: usize = 256;
/// Pairs in the `lp_star` workload text.
const STAR_PAIRS: usize = 8192;
/// Jobs in the `probe_stream` workload text; a run cycles through them.
const STREAM_JOBS: usize = 4096;

/// How a workload hands pairs to the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// One client calling `decide_pair` and waiting for each verdict.
    ClosedLoop,
    /// `run_batch`, whose feeder pulls the next job as capacity frees.
    Batch,
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Clique-6 self-containment with pendants: containment-mapping search.
    CompileClique,
    /// Boolean unary stars: the Theorem 4.1 LP.
    LpStar,
    /// A batch stream of small pairs and path-4 giants at jobs=2.
    ProbeStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::CompileClique, Workload::LpStar, Workload::ProbeStream];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileClique => "compile_clique",
            Workload::LpStar => "lp_star",
            Workload::ProbeStream => "probe_stream",
        }
    }

    /// The workload's pairs, generated from `seed`.
    pub fn pairs(self, seed: u64) -> Vec<Pair> {
        match self {
            Workload::CompileClique => gen::family(CLIQUE_PAIRS, seed, gen::clique_pendant),
            Workload::LpStar => gen::family(STAR_PAIRS, seed, gen::unary_star),
            Workload::ProbeStream => gen::probe_stream(STREAM_JOBS, seed),
        }
    }

    /// The engine configuration: library defaults, except that
    /// `probe_stream` names all-probes at jobs=2.
    pub fn config(self) -> EngineConfig {
        match self {
            Workload::CompileClique | Workload::LpStar => {
                EngineConfig { jobs: 1, ..EngineConfig::default() }
            }
            Workload::ProbeStream => {
                EngineConfig { jobs: 2, algorithm: Algorithm::AllProbes, ..EngineConfig::default() }
            }
        }
    }

    /// How pairs reach the engine.
    pub fn front(self) -> Front {
        match self {
            Workload::CompileClique | Workload::LpStar => Front::ClosedLoop,
            Workload::ProbeStream => Front::Batch,
        }
    }

    /// Whether the closed loop of this workload visits pair `index`, which
    /// expects `expect`. The stream's warm pass re-decides only its
    /// contained giants, whose warm decision is their whole probe fan-out.
    /// A warm decision of a small pair at jobs=2 is two thread spawns around
    /// a few microseconds of probe work, and so is that of an inflated
    /// giant, which stops at its first unit; that hand-off time moved by a
    /// third between runs on a busy host, and mixing it in made the warm
    /// median jump between two clusters from seed to seed.
    pub fn visits(self, index: usize, expect: Expect) -> bool {
        match self {
            Workload::CompileClique | Workload::LpStar => true,
            Workload::ProbeStream => {
                gen::GIANT_POSITIONS.contains(&(index % gen::STREAM_BLOCK))
                    && expect == Expect::Contained
            }
        }
    }

    /// The fixed prefix of pairs the traced run replays. Fixed, not timed,
    /// so two traced runs do identical work and their counts must agree.
    pub fn traced_pairs(self) -> usize {
        match self {
            Workload::CompileClique => 24,
            Workload::LpStar => 32,
            Workload::ProbeStream => 50,
        }
    }
}

/// A workload after set-up: the parsed text and what each pair expects.
pub struct Prepared {
    /// Each pair's own source text (the batch front hands these out).
    pub sources: Vec<String>,
    /// Each pair's expected verdict.
    pub expects: Vec<Expect>,
    /// The whole workload text.
    pub text: String,
}

impl Prepared {
    /// Joins the generated pairs into one workload text.
    pub fn new(pairs: Vec<Pair>) -> Prepared {
        let text = pairs.iter().map(|p| p.source.as_str()).collect();
        let expects = pairs.iter().map(|p| p.expect).collect();
        let sources = pairs.into_iter().map(|p| p.source).collect();
        Prepared { sources, expects, text }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.expects.len()
    }
}

/// The CLI's parse and check phases over the whole workload text, then
/// engine construction: everything between receiving the text and the
/// first decide call.
///
/// # Errors
/// A parse error, a pair count that does not match, or a pair the
/// fragment gate rejects; the generators never produce any of these.
pub fn set_up(
    prepared: &Prepared,
    config: EngineConfig,
) -> Result<(Vec<SpannedQuery>, DecisionEngine), String> {
    let queries = parse_program_spanned(&prepared.text).map_err(|e| e.to_string())?;
    if queries.len() != 2 * prepared.len() {
        return Err(format!("parsed {} queries for {} pairs", queries.len(), prepared.len()));
    }
    for pair in queries.chunks(2) {
        if let Some(error) = first_fragment_error(&pair[0], &prepared.text) {
            return Err(error);
        }
    }
    Ok((queries, DecisionEngine::new(config)))
}

/// Whether a verdict is verified: it matches what the pair's construction
/// promises, and a not-contained verdict carries a counterexample that
/// `Counterexample::verify` re-checks by independent evaluation.
pub fn verdict_ok(
    expect: Expect,
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
    verdict: &BagContainment,
) -> bool {
    expect.admits(verdict.holds())
        && verdict.counterexample().is_none_or(|ce| ce.verify(containee, containing))
}
