//! The traced run: per-layer metrics from spans around public calls.
//!
//! Three passes over a fixed prefix of the workload:
//!
//! 1. the **engine pass** runs the workload's own front end untraced (the
//!    closed loop, or `run_batch` at jobs=2 for the stream), bracketed by
//!    the CPU clock, the allocation count and the counter adapter;
//! 2. the **traced replay** decides every pair twice at jobs=1. First
//!    untraced, through `BagContainmentDecider::decide_pair`: that is the
//!    reference verdict the engine pass must reproduce, and the baseline of
//!    `trace.overhead_share`. Then by calling the layers' public functions
//!    in the decider's own order, a span around each call:
//!    `containment.validate` (`CompiledPair::new`), `containment.compile`
//!    (the first `most_general()`/`probe(i)`), `containment.decide_probe`
//!    and `containment.counterexample`, all children of one
//!    `engine.verdict` span per pair. Under a `layers` span the inner layers
//!    are then timed directly on the same compiled probes: `cq.search`
//!    (`for_each_containment_mapping_to_grounded`), `poly.strict_system`
//!    (`Mpi::to_strict_system`) and `linalg.lp` (`natural_solution`);
//!    `bagdb.verify` re-checks each witness;
//! 3. a **second traced replay** must reproduce the exact counts of the
//!    first, or the run fails loudly.

use std::time::Instant;

use dioph_analyze::first_fragment_error;
use dioph_containment::{
    Algorithm, BagContainment, BagContainmentDecider, CompiledPair, CompiledProbe,
    ContainmentError, ProbeScratch,
};
use dioph_cq::{for_each_containment_mapping_to_grounded, parse_program_spanned, SpannedQuery};
use dioph_engine::{BatchStats, DecisionEngine, EngineConfig, Job};

use crate::counters;
use crate::sys;
use crate::trace::Trace;
use crate::workload::{verdict_ok, Front, Prepared, Workload};

/// Deterministic work counts of one traced replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Containment mappings found by the direct search.
    pub mappings: u64,
    /// LP pivots of the direct LP calls.
    pub pivots: u64,
    /// Direct LP calls.
    pub lp_calls: u64,
    /// Rows of the Theorem 4.1 systems.
    pub mpi_rows: u64,
    /// Unknowns of the Theorem 4.1 systems.
    pub mpi_cols: u64,
    /// Probes compiled (compile calls that yielded a probe).
    pub probes_compiled: u64,
    /// Probe units a sequential decision visits (raw indices for
    /// all-probes, one for most-general).
    pub units_needed: u64,
    /// Raw probe-space sizes, summed over pairs.
    pub probe_space: u64,
}

/// One metric line: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a traced run measured.
pub struct Layered {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Pairs whose verdicts were checked.
    pub attempted: u64,
    /// Pairs that errored, failed a check or disagreed between passes.
    pub failed: u64,
    /// The first replay's spans, with the set-up spans.
    pub trace: Trace,
}

/// The engine pass's measurements.
struct EnginePass {
    /// The engine's verdicts; `None` for an error.
    verdicts: Vec<Option<BagContainment>>,
    wall_s: f64,
    cpu_s: f64,
    allocations: u64,
    work: counters::Work,
    batch: Option<BatchStats>,
}

/// What one replay decided and counted.
struct Replay {
    counts: Counts,
    /// The traced verdicts.
    verdicts: Vec<Result<BagContainment, ContainmentError>>,
    /// Untraced `BagContainmentDecider::decide_pair` verdicts, each taken
    /// just before the pair's traced one.
    reference: Vec<Option<BagContainment>>,
    /// Their summed time, in milliseconds: the tracing-overhead baseline,
    /// interleaved pair by pair so that drifts in machine speed cancel.
    reference_ms: f64,
}

/// Runs the traced passes of `workload`.
///
/// # Errors
/// A set-up failure, or two traced replays whose exact counts differ.
pub fn run(workload: Workload, seed: u64) -> Result<Layered, String> {
    let mut prepared = Prepared::new(workload.pairs(seed));
    let config = workload.config();
    let mut trace = Trace::new();

    // Set-up, traced: the CLI's parse and check phases.
    let queries = trace
        .span("cq.parse", 0, |_| parse_program_spanned(&prepared.text))
        .map_err(|e| e.to_string())?;
    for (i, pair) in queries.chunks(2).enumerate() {
        if let Some(error) =
            trace.span("analyze.gate", i + 1, |_| first_fragment_error(&pair[0], &prepared.text))
        {
            return Err(error);
        }
    }
    let subset = workload.traced_pairs().min(prepared.len());
    prepared.sources.truncate(subset);
    let queries = &queries[..2 * subset];

    let pass = engine_pass(&DecisionEngine::new(config), workload.front(), &prepared, queries);
    let before = counters::read();
    let first = replay(queries, config, &mut trace);
    let arith = counters::read().since(&before);
    let second = replay(queries, config, &mut Trace::new());
    if first.counts != second.counts {
        return Err(format!(
            "two traced replays of the same pairs disagree on exact counts:\n  {:?}\n  {:?}",
            first.counts, second.counts
        ));
    }

    let mut failed = 0u64;
    for (i, ((engine, reference), replayed)) in
        pass.verdicts.iter().zip(&first.reference).zip(&first.verdicts).enumerate()
    {
        let (containee, containing) = (&queries[2 * i].query, &queries[2 * i + 1].query);
        let ok = |verdict| verdict_ok(prepared.expects[i], containee, containing, verdict);
        let verified = match replayed {
            Ok(verdict @ BagContainment::NotContained(_)) => {
                trace.span("bagdb.verify", i + 1, |_| ok(verdict))
            }
            Ok(verdict) => ok(verdict),
            Err(_) => false,
        };
        let agrees = reference.is_some()
            && engine == reference
            && replayed.as_ref().ok() == reference.as_ref();
        if !(agrees && verified) {
            failed += 1;
        }
    }

    let metrics = metrics(config, &trace, &first, arith, &pass, subset);
    Ok(Layered { metrics, attempted: subset as u64, failed, trace })
}

/// Runs the workload's own front end on the prefix, untraced: the closed
/// loop at jobs=1, or `run_batch` for the stream.
fn engine_pass(
    engine: &DecisionEngine,
    front: Front,
    prepared: &Prepared,
    queries: &[SpannedQuery],
) -> EnginePass {
    let (cpu, allocations, work, start) =
        (sys::cpu_seconds(), sys::allocations(), counters::read(), Instant::now());
    let (verdicts, batch) = match front {
        Front::ClosedLoop => {
            let verdicts = queries
                .chunks(2)
                .map(|pair| {
                    CompiledPair::new(pair[0].query.clone(), pair[1].query.clone())
                        .and_then(|compiled| engine.decide_pair(&compiled))
                        .ok()
                })
                .collect();
            (verdicts, None)
        }
        Front::Batch => {
            let jobs = prepared.sources.iter().enumerate().map(|(k, source)| Job {
                id: k as u64 + 1,
                source: source.clone(),
                read_error: None,
            });
            let mut verdicts = Vec::new();
            let stats = engine.run_batch(jobs, |v| {
                verdicts.push(v.outcome.ok().map(|outcome| outcome.verdict));
                true
            });
            (verdicts, Some(stats))
        }
    };
    EnginePass {
        verdicts,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: sys::cpu_seconds() - cpu,
        allocations: sys::allocations() - allocations,
        work: counters::read().since(&work),
        batch,
    }
}

/// Decides every pair at jobs=1 twice: untraced through
/// `BagContainmentDecider::decide_pair`, and through the layers' public
/// calls with one span per call; then times the inner layers directly on
/// the compiled probes.
fn replay(queries: &[SpannedQuery], config: EngineConfig, trace: &mut Trace) -> Replay {
    let decider = BagContainmentDecider::new(config.algorithm).with_engine(config.engine);
    let mut counts = Counts::default();
    let (mut reference, mut reference_ms) = (Vec::new(), 0.0);
    let verdicts = queries
        .chunks(2)
        .enumerate()
        .map(|(i, pair)| {
            let id = i + 1;
            let (containee, containing) = (&pair[0].query, &pair[1].query);
            let mut untraced = || {
                let start = Instant::now();
                let decided = CompiledPair::new(containee.clone(), containing.clone())
                    .and_then(|fresh| decider.decide_pair(&fresh).map(|verdict| (fresh, verdict)));
                reference_ms += start.elapsed().as_secs_f64() * 1e3;
                // Dropped untimed, as the traced pair is.
                decided.ok().map(|(_, verdict)| verdict)
            };
            // Alternate which of the two decisions goes first, so neither
            // always inherits the other's freed memory and warm caches.
            let untraced_first = i % 2 == 0;
            if untraced_first {
                reference.push(untraced());
            }
            let decided = trace.span("engine.verdict", id, |t| -> Result<_, ContainmentError> {
                let pair = t.span("containment.validate", id, |_| {
                    CompiledPair::new(containee.clone(), containing.clone())
                })?;
                let (verdict, probes) = decide_traced(&decider, &pair, id, t, &mut counts)?;
                Ok((pair, verdict, probes))
            });
            let (pair, verdict, probes) = decided?;
            counts.probe_space += pair.probe_space().raw_len() as u64;
            trace.span("layers", id, |t| {
                for probe in probes {
                    let compiled = match probe {
                        None => pair.most_general(),
                        Some(index) => pair.probe(index).expect("a decided probe compiled"),
                    };
                    time_layers(&pair, compiled, config, id, t, &mut counts);
                }
            });
            // Each decision starts right after a pair of the same size was
            // freed, whichever goes first.
            drop(pair);
            if !untraced_first {
                reference.push(untraced());
            }
            Ok(verdict)
        })
        .collect();
    Replay { counts, verdicts, reference, reference_ms }
}

/// The decider's per-pair loop, with a span per public call. Returns the
/// verdict and the probes it decided (`None` for the most-general probe).
fn decide_traced(
    decider: &BagContainmentDecider,
    pair: &CompiledPair,
    id: usize,
    t: &mut Trace,
    counts: &mut Counts,
) -> Result<(BagContainment, Vec<Option<usize>>), ContainmentError> {
    let units: Vec<Option<usize>> = if decider.algorithm == Algorithm::MostGeneralProbe {
        vec![None]
    } else {
        (0..pair.probe_space().raw_len()).map(Some).collect()
    };
    let mut scratch = ProbeScratch::new();
    let mut decided = Vec::new();
    for unit in units {
        counts.units_needed += 1;
        let compiled = t.span("containment.compile", id, |_| match unit {
            None => Some(pair.most_general()),
            Some(index) => pair.probe(index),
        });
        let Some(compiled) = compiled else { continue };
        counts.probes_compiled += 1;
        decided.push(unit);
        let witness = t.span("containment.decide_probe", id, |_| {
            decider.decide_probe_in(compiled, &mut scratch)
        })?;
        if let Some(assignment) = witness {
            let ce = t.span("containment.counterexample", id, |_| {
                pair.counterexample(compiled, &assignment)
            });
            return Ok((BagContainment::NotContained(Box::new(ce)), decided));
        }
    }
    Ok((BagContainment::Contained { probes_checked: decided.len() }, decided))
}

/// Times the inner layers directly on one compiled probe.
fn time_layers(
    pair: &CompiledPair,
    compiled: &CompiledProbe,
    config: EngineConfig,
    id: usize,
    t: &mut Trace,
    counts: &mut Counts,
) {
    let mut found = 0u64;
    t.span("cq.search", id, |_| {
        for_each_containment_mapping_to_grounded(
            pair.containing(),
            compiled.grounded_containee(),
            |_| found += 1,
        );
    });
    assert_eq!(
        found,
        compiled.mapping_count() as u64,
        "the direct search finds the compiled mappings"
    );
    counts.mappings += found;
    let system = t.span("poly.strict_system", id, |_| compiled.mpi().to_strict_system());
    counts.mpi_rows += system.len() as u64;
    counts.mpi_cols += compiled.mpi().dimension() as u64;
    let before = counters::read();
    let solved = t.span("linalg.lp", id, |_| system.natural_solution(config.engine));
    solved.expect("the LP decided this system inside the verdict already");
    counts.pivots += counters::read().since(&before).pivots;
    counts.lp_calls += 1;
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn metrics(
    config: EngineConfig,
    trace: &Trace,
    replay: &Replay,
    arith: counters::Work,
    pass: &EnginePass,
    pairs: usize,
) -> Vec<Metric> {
    let counts = &replay.counts;
    let totals = trace.totals();
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.ms);
    let verdict_ms = total_ms("engine.verdict");
    let compile_ms = total_ms("containment.compile");
    let search_ms = total_ms("cq.search");
    let lp_ms = total_ms("linalg.lp");
    let verify_ms = total_ms("bagdb.verify");
    let work = pass.work;
    // Without the scheduler (most-general at jobs=1) nothing is claimed and
    // nothing is decided speculatively.
    let useful = if work.units == 0 { 1.0 } else { counts.units_needed as f64 / work.units as f64 };
    let cache_hit_rate = pass
        .batch
        .map_or(0.0, |s| ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64));
    vec![
        ("cq.parse_ms", total_ms("cq.parse"), "ms"),
        ("analyze.gate_ms", total_ms("analyze.gate"), "ms"),
        ("cq.search_ms", search_ms, "ms"),
        ("cq.search_share", ratio(search_ms, verdict_ms), "ratio"),
        ("cq.mappings", counts.mappings as f64, "count"),
        ("cq.probe_space", counts.probe_space as f64, "count"),
        ("containment.compile_ms", compile_ms, "ms"),
        ("containment.compile_share", ratio(compile_ms, verdict_ms), "ratio"),
        ("containment.probes_compiled", counts.probes_compiled as f64, "count"),
        ("poly.mpi_rows", counts.mpi_rows as f64, "count"),
        ("poly.mpi_cols", counts.mpi_cols as f64, "count"),
        ("poly.strict_system_ms", total_ms("poly.strict_system"), "ms"),
        ("linalg.lp_ms", lp_ms, "ms"),
        ("linalg.lp_share", ratio(lp_ms, verdict_ms), "ratio"),
        ("linalg.pivots", counts.pivots as f64, "count"),
        ("linalg.pivots_per_call", ratio(counts.pivots as f64, counts.lp_calls as f64), "count"),
        (
            "arith.small_hit_rate",
            ratio(arith.arith_small as f64, (arith.arith_small + arith.arith_big) as f64),
            "ratio",
        ),
        ("bagdb.verify_ms", verify_ms, "ms"),
        ("bagdb.verify_share", ratio(verify_ms, verdict_ms), "ratio"),
        ("engine.verdict_ms", verdict_ms, "ms"),
        ("engine.units_claimed", work.units as f64, "count"),
        ("engine.steals", work.steals as f64, "count"),
        ("engine.claim_spread_max", work.claim_spread_max as f64, "count"),
        ("engine.worker_busy_share", ratio(pass.cpu_s, config.jobs as f64 * pass.wall_s), "ratio"),
        ("engine.useful_probe_share", useful, "ratio"),
        ("engine.cache_hit_rate", cache_hit_rate, "ratio"),
        ("engine.queue_depth_max", work.queue_depth_max as f64, "count"),
        ("alloc.per_verdict", ratio(pass.allocations as f64, pairs as f64), "count"),
        ("alloc.per_probe", ratio(pass.allocations as f64, counts.units_needed as f64), "count"),
        ("trace.overhead_share", verdict_ms / replay.reference_ms - 1.0, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Expect};

    fn expect_all(expects: &[Expect], want: Expect) -> bool {
        expects.iter().all(|&e| e == want)
    }

    /// One test, so no other test's LP work can leak into the pivot count.
    #[test]
    fn generator_signatures_at_a_fixed_seed() {
        let config = Workload::LpStar.config();

        let clique = Prepared::new(gen::family(4, 2019, gen::clique_pendant));
        assert!(expect_all(&clique.expects, Expect::Contained));
        let queries = parse_program_spanned(&clique.text).unwrap();
        let Replay { counts, verdicts, .. } = replay(&queries, config, &mut Trace::new());
        assert_eq!(counts.mappings, 4 * 265, "D(6) = 265 mappings per clique-6 pair");
        assert!(verdicts.iter().all(|v| v.as_ref().unwrap().holds()));
        assert_eq!(counts.pivots, 4, "one pivot per clique pair");

        let star = Prepared::new(gen::family(8, 2019, gen::unary_star));
        let queries = parse_program_spanned(&star.text).unwrap();
        let Replay { counts, verdicts, reference, .. } =
            replay(&queries, config, &mut Trace::new());
        assert_eq!(counts.mappings, 8 * 125, "5^3 = 125 mappings per star pair");
        assert_eq!(counts.pivots, STAR_PIVOTS_AT_2019);
        for (pair, verdict) in queries.chunks(2).zip(&verdicts) {
            let verdict = verdict.as_ref().unwrap();
            assert!(verdict_ok(Expect::Either, &pair[0].query, &pair[1].query, verdict));
        }
        for (reference, verdict) in reference.iter().zip(&verdicts) {
            assert_eq!(
                reference.as_ref(),
                verdict.as_ref().ok(),
                "the replay is the decider's loop"
            );
        }

        let stream = gen::probe_stream(40, 2019);
        for (k, job) in stream.iter().enumerate() {
            let queries = parse_program_spanned(&job.source).unwrap();
            let pair =
                CompiledPair::new(queries[0].query.clone(), queries[1].query.clone()).unwrap();
            if gen::GIANT_POSITIONS.contains(&(k % gen::STREAM_BLOCK)) {
                assert_eq!(pair.probe_units(), 3125, "a path-4 giant has 5^5 probe units");
            } else {
                assert!(pair.probe_units() <= 9, "small jobs stay small: {}", job.source);
            }
        }
    }

    /// The exact pivot total of the eight star pairs at seed 2019.
    const STAR_PIVOTS_AT_2019: u64 = 4286;
}
