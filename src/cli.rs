//! The `diophantus` command-line interface.
//!
//! The binary (`src/bin/diophantus.rs`) is a thin wrapper around [`run`];
//! everything — argument parsing included — is hand-rolled here so the CLI
//! stays as dependency-free as the rest of the workspace (the build
//! environment has no crates.io access).
//!
//! The subcommands drive the pipeline end to end:
//!
//! * `decide` — parse datalog query pairs from files or stdin and decide
//!   set/bag/bag-set containment, printing verdicts and counterexample bags;
//! * `equiv` — decide bag equivalence (mutual containment) per pair;
//! * `batch` — the streaming front-end of `dioph-engine`: decide a
//!   continuous stream of pairs on a worker pool (`--jobs`), emitting one
//!   verdict line per pair (JSON lines with `--json`), optionally surviving
//!   per-pair failures (`--keep-going`);
//! * `verify` — re-check the counterexample bags of a `--json` output file
//!   with the independent Equation-2 bag evaluator;
//! * `fuzz` — the differential fuzzing oracle of `dioph-fuzz`: seeded
//!   random pairs are decided through the probe pool and cross-checked
//!   against brute-force bag-database ground truth, certificate replay and
//!   Chandra–Merlin set containment; disagreements are shrunk to minimal
//!   reproducers;
//! * `gen` — emit seed-reproducible random workloads (specialisation pairs,
//!   3-colorability reductions, E4/E6/E9 shapes, optimizer join shapes) in
//!   the same datalog notation `decide` reads;
//! * `bench` — time a workload file and print per-pair latency statistics.
//!
//! `decide` and `equiv` also take `--jobs N`: with more than one job they
//! route through [`DecisionEngine`], whose worker pool claims (pair,
//! probe-index) units from one shared queue — verdicts are bit-identical
//! to the sequential path.
//!
//! Every deciding subcommand has a `--json` mode whose output embeds the
//! [`BagContainment::to_json`] /
//! [`Counterexample::to_json`](dioph_containment::Counterexample::to_json)
//! certificates. The input grammar is documented in `docs/grammar.md`.

use std::fmt::Write as _;
use std::io::{BufReader, Read, Write};
use std::time::Instant;

use dioph_analyze::{analyze_source, containee_fragment_diagnostics, LintConfig, Severity};
use dioph_arith::Natural;
use dioph_bagdb::{bag_answer_multiplicity, BagInstance};
use dioph_containment::{
    bag_set_containment, json, set_containment, Algorithm, BagContainment, BagContainmentDecider,
    CompiledPair, SetContainment,
};
use dioph_cq::{parse_program_spanned, parse_query, Atom, ConjunctiveQuery, SpannedQuery, Term};
use dioph_engine::{DecisionEngine, EngineConfig, JobReader, Verdict};
use dioph_fuzz::{run_fuzz, run_replay, FuzzConfig, Injection};
use dioph_workloads::suite::{generate_pairs, WorkloadKind, WorkloadPair};

use crate::jsonv::Json;

/// Default budget for the `guess-check` enumeration algorithm.
const DEFAULT_BUDGET: u64 = 1_000_000;
/// Default seed for `gen` (the same constant the benchmark harness uses).
const DEFAULT_SEED: u64 = 0x2019_0630;
/// Default number of pairs `gen` emits.
const DEFAULT_COUNT: usize = 5;
/// Default number of timed runs per pair in `bench`.
const DEFAULT_REPEAT: usize = 5;

const HELP: &str = "\
diophantus — bag containment for conjunctive queries (PODS 2019)

USAGE:
    diophantus <COMMAND> [OPTIONS] [FILE...]

COMMANDS:
    decide    Decide containment for consecutive (containee, containing)
              query pairs read from FILEs (or stdin). Non-containment
              verdicts come with an independently verified counterexample
              bag.
    equiv     Decide bag equivalence (containment in both directions) for
              each pair.
    batch     Decide a continuous stream of pairs on a worker pool, one
              verdict line per pair, emitted in input order as soon as each
              pair (and all before it) is done. Compilation is shared across
              identical pairs in the stream. An empty stream is not an error.
    check     Statically analyse query programs without deciding anything:
              span-carrying lints with stable codes (D001 unsafe-query,
              D013 duplicate-atom, …), a decidability-fragment label per
              pair, and static cost advisories. Exits with the worst
              severity found: 0 (clean or notes), 1 (warnings), 2 (errors).
    verify    Re-check the counterexample bags recorded in `--json` output
              (from decide, equiv, batch or fuzz) with the independent
              Equation-2 bag evaluator; `--metrics` blocks are structurally
              validated alongside. Exits 1 if any certificate fails.
    fuzz      Differential fuzzing: seeded random pairs in the paper
              fragment are decided through the probe pool and cross-checked
              against brute-force bag-database ground truth, certificate
              replay and set containment as a necessary condition.
              Disagreements are shrunk to minimal reproducers; exits 1 if
              any disagreement survives.
    gen       Emit a seed-reproducible random workload in the same datalog
              notation `decide` reads.
    bench     Time the decision procedure on a workload and print per-pair
              latency statistics.
    help      Show this message.
    version   Show the version.

OPTIONS (decide, equiv, batch, bench):
    --bag                Bag semantics (default).
    --set                Set semantics (Chandra–Merlin); decide/equiv only.
    --bag-set            Bag-set semantics (bag queries over set databases);
                         decide/equiv only. Requires a projection-free
                         containee, where the verdict coincides with set
                         containment (the paper's Section 3 remark).
    --algorithm <NAME>   most-general (default) | all-probes | guess-check
    --budget <N>         Enumeration budget for guess-check (default 1000000).
    --jobs <N>           Worker threads (default 1). Every mode schedules
                         (pair, probe-index) units from one shared queue;
                         batch lets the pool drain each pair's probe space
                         in chunks. Verdicts are identical for any N.
    --json               Machine-readable output (JSON lines for batch).
    --metrics            Append this command's observability counters to the
                         output: a human table, or a \"metrics\" member on
                         --json envelopes (batch emits one trailing
                         {\"metrics\":...} line). Deterministic counters are
                         identical for any --jobs choice; timings and
                         per-worker figures are labelled volatile. `verify`
                         acknowledges the block.
    --trace-out <FILE>   Write a Chrome trace-event JSON timeline of the
                         pipeline phases (parse, check, compile, probe, LP,
                         merge) with one track per worker thread; load it in
                         chrome://tracing or Perfetto.

OPTIONS (batch):
    --keep-going         A pair that fails to read, parse or decide emits a
                         structured error line and the stream continues;
                         the exit status is still 1 if anything failed.

OPTIONS (check):
    --deny <LINT>        Promote a lint (code or name) to an error; the
                         special value `warnings` promotes every warning.
    --allow <LINT>       Suppress a lint entirely.
    -W, --warn <LINT>    Set a lint to warning (enables allow-by-default
                         lints like D010 unused-variable). The last flag
                         naming a lint wins. Codes and severities are
                         catalogued in docs/diagnostics.md.
    --json               One machine-readable document for the whole run.

OPTIONS (fuzz):
    --seed <S>           Master seed (default 538510896); every case and
                         database stream derives from it deterministically.
    --cases <N>          Generated cases (default 100); not with --replay.
    --max-adom <N>       Active-domain bound for random schema databases
                         (default 3).
    --max-mult <N>       Multiplicity bound for every swept bag (default 2).
    --samples <N>        Sampled bags when exhaustive enumeration is too
                         large, and the random-database budget (default 32).
    --replay <DIR>       Replay the *.dl corpus files in DIR (sorted by
                         name, consecutive pairs) instead of generating.
    --inject <BUG>       Self-test: corrupt the decider with flip-verdict or
                         tamper-certificate and prove the oracle catches it.
    --jobs <N>           Worker threads for the probe pool (default 1); the
                         report is byte-identical across values by
                         construction.
    --json               Machine-readable report; `diophantus verify`
                         re-checks its certificates and shrunk witnesses.
    --metrics            As for decide: counters on the report (a \"metrics\"
                         member under --json).
    --trace-out <FILE>   As for decide: Chrome trace-event JSON timeline.

OPTIONS (gen):
    <KIND>               spec (default) | inflated | contained | path |
                         expmap | threecol | chain | star | clique
    --count <N>          Number of pairs to emit (default 5).
    --size <K>           Size parameter: atom occurrences (spec, inflated,
                         contained), path length (path), log2 of the mapping
                         count (expmap), vertices (threecol, clique), chain
                         length (chain), rays (star).
    --seed <S>           RNG seed; output is byte-for-byte reproducible.
    --json               Machine-readable output.

OPTIONS (bench):
    --repeat <N>         Timed runs per pair (default 5).

INPUT FORMAT:
    Queries are written in the paper's datalog notation, one '.'-terminated
    query at a time; '%' and '#' start line comments:

        q(x) <- R^2(x, x).
        p(x) <- R(x, y), R(y, x).

    Queries are decided in consecutive pairs (first ⊑ second); each input
    file must therefore hold an even number of queries. The full
    grammar — multiplicities R^2(…), constants 'c1' and 42, canonical
    constants ^x, the `true` body — is documented in docs/grammar.md; the
    pipeline itself is described in ARCHITECTURE.md.

EXIT STATUS:
    0 on success (whatever the verdicts), 1 on input/decision errors,
    2 on usage errors. check maps its worst diagnostic severity to the
    same scale: notes 0, warnings 1, errors 2.
";

/// Runs the CLI with the given arguments (excluding the program name),
/// reading stdin if a reading subcommand receives no input files. Returns
/// the process exit code: 0 on success, 1 on input or decision errors, 2 on
/// usage errors.
pub fn run(args: &[String]) -> i32 {
    let mut stdout = std::io::stdout().lock();
    // `Stdin` (not the lock) because batch hands the reader to a feeder
    // thread, which needs `Send`.
    let code = match dispatch(args, &mut std::io::stdin(), &mut stdout) {
        Ok(()) => 0,
        // A closed stdout (e.g. `diophantus gen … | head`) is a normal way
        // for a pipeline to end, not an error worth a panic.
        Err(CliError::BrokenPipe) => 0,
        Err(CliError::Failure(message)) => {
            eprintln!("diophantus: {message}");
            1
        }
        Err(CliError::Reported) => 1,
        Err(CliError::Lints(code)) => code,
        Err(CliError::Usage(message)) => {
            eprintln!("diophantus: {message}\nRun `diophantus help` for usage.");
            2
        }
    };
    match stdout.flush() {
        Ok(()) => code,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => code,
        Err(e) => {
            eprintln!("diophantus: stdout: {e}");
            code.max(1)
        }
    }
}

enum CliError {
    /// Bad command line — exit code 2.
    Usage(String),
    /// Bad input or an undecidable pair — exit code 1.
    Failure(String),
    /// Exit code 1, but the diagnostic already went to stderr (a streaming
    /// command reporting mid-stream) — nothing more to print.
    Reported,
    /// The consumer closed stdout mid-stream — a clean exit, code 0.
    BrokenPipe,
    /// `check` found diagnostics; the report already went to stdout. Carries
    /// the exit code of the worst severity (1 warnings, 2 errors).
    Lints(i32),
}

type CliResult = Result<String, CliError>;

/// Writes `text`, translating a closed pipe into the clean-exit sentinel.
fn write_out(out: &mut dyn Write, text: &str) -> Result<(), CliError> {
    match out.write_all(text.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Err(CliError::BrokenPipe),
        Err(e) => Err(CliError::Failure(format!("stdout: {e}"))),
    }
}

fn dispatch(
    args: &[String],
    stdin: &mut (dyn Read + Send),
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("missing command".to_string()));
    };
    let rendered = match command.as_str() {
        "decide" => cmd_decide(&args[1..], stdin, false),
        "equiv" => cmd_decide(&args[1..], stdin, true),
        // batch and verify stream to `out` themselves: their output must
        // appear as results arrive, not when the whole input is consumed.
        "batch" => return cmd_batch(&args[1..], stdin, out),
        "verify" => return cmd_verify(&args[1..], stdin, out),
        // fuzz writes its report itself: the verdict lines must reach the
        // user even when disagreements make the run exit non-zero.
        "fuzz" => return cmd_fuzz(&args[1..], out),
        // check writes its report itself: the diagnostics must reach the
        // user even when the run ends with a non-zero lint exit code.
        "check" => return cmd_check(&args[1..], stdin, out),
        "gen" => cmd_gen(&args[1..]),
        "bench" => cmd_bench(&args[1..], stdin),
        "help" | "--help" | "-h" => Ok(HELP.to_string()),
        "version" | "--version" | "-V" => Ok(format!("diophantus {}\n", env!("CARGO_PKG_VERSION"))),
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    };
    write_out(out, &rendered?)
}

// ---------------------------------------------------------------------------
// Option parsing
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Semantics {
    Bag,
    Set,
    /// Bag queries over set-valued databases: for the projection-free
    /// containees the bag fragment admits, the verdict coincides with set
    /// containment (the paper's Section 3 remark), but the mode still
    /// enforces the fragment so out-of-scope pairs error instead of
    /// silently degrading to plain set semantics.
    BagSet,
}

impl Semantics {
    fn name(self) -> &'static str {
        match self {
            Semantics::Bag => "bag",
            Semantics::Set => "set",
            Semantics::BagSet => "bag-set",
        }
    }

    /// The containment symbol used in human-readable verdict lines.
    fn symbol(self) -> &'static str {
        match self {
            Semantics::Bag => "⊑b",
            Semantics::Set => "⊑s",
            Semantics::BagSet => "⊑bs",
        }
    }
}

struct DecideOpts {
    semantics: Semantics,
    algorithm: Algorithm,
    algorithm_name: &'static str,
    json: bool,
    repeat: usize,
    repeat_set: bool,
    jobs: usize,
    jobs_set: bool,
    keep_going: bool,
    metrics: bool,
    trace_out: Option<String>,
    files: Vec<String>,
}

impl DecideOpts {
    /// The engine configuration these options select.
    fn engine_config(&self) -> EngineConfig {
        EngineConfig { jobs: self.jobs, algorithm: self.algorithm, ..EngineConfig::default() }
    }
}

fn next_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, CliError> {
    it.next().cloned().ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
}

fn parse_count(text: &str, flag: &str) -> Result<usize, CliError> {
    text.parse().map_err(|_| CliError::Usage(format!("{flag} needs a number, got '{text}'")))
}

fn parse_decide_opts(args: &[String]) -> Result<DecideOpts, CliError> {
    let mut semantics = Semantics::Bag;
    let mut algorithm_name = "most-general".to_string();
    let mut algorithm_set = false;
    let mut budget = DEFAULT_BUDGET;
    let mut budget_set = false;
    let mut json = false;
    let mut repeat = DEFAULT_REPEAT;
    let mut repeat_set = false;
    let mut jobs = 1usize;
    let mut jobs_set = false;
    let mut keep_going = false;
    let mut metrics = false;
    let mut trace_out: Option<String> = None;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bag" => semantics = Semantics::Bag,
            "--set" => semantics = Semantics::Set,
            "--bag-set" => semantics = Semantics::BagSet,
            "--json" => json = true,
            "--jobs" => {
                jobs = parse_count(&next_value(&mut it, "--jobs")?, "--jobs")?;
                jobs_set = true;
            }
            "--keep-going" => keep_going = true,
            "--metrics" => metrics = true,
            "--trace-out" => trace_out = Some(next_value(&mut it, "--trace-out")?),
            "--algorithm" => {
                algorithm_name = next_value(&mut it, "--algorithm")?;
                algorithm_set = true;
            }
            "--budget" => {
                let text = next_value(&mut it, "--budget")?;
                budget = text.parse().map_err(|_| {
                    CliError::Usage(format!("--budget needs a number, got '{text}'"))
                })?;
                budget_set = true;
            }
            "--repeat" => {
                repeat = parse_count(&next_value(&mut it, "--repeat")?, "--repeat")?;
                repeat_set = true;
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option '{flag}'")))
            }
            file => files.push(file.to_string()),
        }
    }
    // Flag combinations that would be silently ignored are rejected instead:
    // neither the set- nor the bag-set-semantics check touches the bag
    // machinery, and the budget only configures guess-check enumeration.
    if semantics != Semantics::Bag {
        for (set, flag) in [
            (algorithm_set, "--algorithm"),
            (budget_set, "--budget"),
            (jobs_set, "--jobs"),
            // The observability layer instruments the bag pipeline; the set
            // and bag-set checks never touch it, so a metrics request there
            // would silently report zeros.
            (metrics, "--metrics"),
            (trace_out.is_some(), "--trace-out"),
        ] {
            if set {
                return Err(CliError::Usage(format!(
                    "{flag} only applies to bag semantics; drop --{}",
                    semantics.name()
                )));
            }
        }
    }
    if budget_set && algorithm_name != "guess-check" {
        return Err(CliError::Usage(
            "--budget only applies to --algorithm guess-check".to_string(),
        ));
    }
    let (algorithm, algorithm_name) = match algorithm_name.as_str() {
        "most-general" | "most-general-probe" | "mgp" => {
            (Algorithm::MostGeneralProbe, "most-general")
        }
        "all-probes" => (Algorithm::AllProbes, "all-probes"),
        "guess-check" => (Algorithm::GuessCheck { budget }, "guess-check"),
        other => {
            return Err(CliError::Usage(format!(
                "unknown algorithm '{other}' (expected most-general, all-probes or guess-check)"
            )))
        }
    };
    if repeat == 0 {
        return Err(CliError::Usage("--repeat must be at least 1".to_string()));
    }
    if jobs == 0 {
        return Err(CliError::Usage("--jobs must be at least 1".to_string()));
    }
    Ok(DecideOpts {
        semantics,
        algorithm,
        algorithm_name,
        json,
        repeat,
        repeat_set,
        jobs,
        jobs_set,
        keep_going,
        metrics,
        trace_out,
        files,
    })
}

// ---------------------------------------------------------------------------
// Metrics / tracing
// ---------------------------------------------------------------------------

/// Registry and phase readings taken at command start, so everything a
/// command reports is a delta of its own work — never a process-lifetime
/// total (in-process callers like the test harness run many commands in one
/// process).
struct MetricsBaseline {
    registry: dioph_obs::MetricsSnapshot,
    phases: [dioph_obs::PhaseStat; 6],
}

/// Arms the observability layer for one command and records the baseline:
/// spans are timed for `--metrics` and `--trace-out` runs, trace events are
/// collected for `--trace-out`, and the per-worker table restarts so the
/// command reports only its own workers.
fn start_observability(metrics: bool, trace_out: Option<&str>) -> MetricsBaseline {
    if metrics || trace_out.is_some() {
        dioph_obs::phase::set_timing(true);
        dioph_obs::pool::reset();
    }
    if trace_out.is_some() {
        dioph_obs::trace::enable();
        dioph_obs::trace::name_current_thread("main");
    }
    MetricsBaseline { registry: dioph_obs::snapshot(), phases: dioph_obs::phase::snapshot() }
}

/// Renders the `"metrics"` envelope member. The `"counters"` block holds
/// exactly the [`Deterministic`](dioph_obs::Stability::Deterministic)
/// registry cells — a pure function of the input and the algorithm,
/// byte-identical across `--jobs` (pinned by tests). Implementation work
/// and everything scheduling-dependent lands in `"volatile"`,
/// `"phases"` and `"workers"`, which `verify` checks structurally only.
fn metrics_json(baseline: &MetricsBaseline) -> String {
    let registry = dioph_obs::snapshot().since(&baseline.registry);
    let phases = dioph_obs::phase::since(&dioph_obs::phase::snapshot(), &baseline.phases);
    let mut deterministic: Vec<String> = Vec::new();
    let mut volatile: Vec<String> = Vec::new();
    for (cell, value) in registry.iter() {
        let block = match cell.stability() {
            dioph_obs::Stability::Deterministic => &mut deterministic,
            dioph_obs::Stability::Volatile => &mut volatile,
        };
        block.push(format!("\"{}\":{value}", cell.name()));
    }
    let phases: Vec<String> = phases
        .iter()
        .map(|stat| {
            format!(
                "{{\"phase\":\"{}\",\"calls\":{},\"wall_ns\":{}}}",
                stat.phase.name(),
                stat.calls,
                stat.wall_ns
            )
        })
        .collect();
    let workers: Vec<String> = dioph_obs::pool::snapshot()
        .iter()
        .map(|w| {
            format!(
                "{{\"pool\":\"{}\",\"worker\":{},\"claims\":{},\"busy_ns\":{},\
                 \"max_unit_ns\":{}}}",
                w.pool, w.worker, w.claims, w.busy_ns, w.max_unit_ns
            )
        })
        .collect();
    format!(
        "{{\"counters\":{{{}}},\"volatile\":{{{}}},\"phases\":[{}],\"workers\":[{}]}}",
        deterministic.join(","),
        volatile.join(","),
        phases.join(","),
        workers.join(",")
    )
}

/// The human-readable metrics breakdown (`--metrics` without `--json`):
/// phases with at least one span, non-zero counters, and the per-worker
/// table.
fn metrics_human(baseline: &MetricsBaseline) -> String {
    let registry = dioph_obs::snapshot().since(&baseline.registry);
    let phases = dioph_obs::phase::since(&dioph_obs::phase::snapshot(), &baseline.phases);
    let mut out = String::from("metrics (this command):\n");
    for stat in phases {
        if stat.calls == 0 {
            continue;
        }
        writeln!(
            out,
            "  phase {:<8} {:>7} span(s)  {:>10}",
            stat.phase.name(),
            stat.calls,
            format_ns(u128::from(stat.wall_ns))
        )
        .expect("writing to a String cannot fail");
    }
    for (cell, value) in registry.iter() {
        if value == 0 {
            continue;
        }
        writeln!(out, "  {:<34} {value}", cell.name()).expect("writing to a String cannot fail");
    }
    for w in dioph_obs::pool::snapshot() {
        writeln!(
            out,
            "  worker {}/{}: {} claim(s), busy {}, max unit {}",
            w.pool,
            w.worker,
            w.claims,
            format_ns(u128::from(w.busy_ns)),
            format_ns(u128::from(w.max_unit_ns))
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Drains the trace collector and writes the Chrome trace-event file.
fn write_trace(path: &str) -> Result<(), CliError> {
    let trace = dioph_obs::trace::take();
    std::fs::write(path, trace.to_chrome_json())
        .map_err(|e| CliError::Failure(format!("{path}: {e}")))
}

// ---------------------------------------------------------------------------
// Input loading
// ---------------------------------------------------------------------------

/// One input file (or stdin) with its raw text — kept around so span-carrying
/// diagnostics can name the file and resolve line/column positions.
struct LoadedSource {
    name: String,
    text: String,
}

fn read_sources(files: &[String], stdin: &mut dyn Read) -> Result<Vec<LoadedSource>, CliError> {
    let mut sources: Vec<LoadedSource> = Vec::new();
    if files.is_empty() {
        let mut text = String::new();
        stdin.read_to_string(&mut text).map_err(|e| CliError::Failure(format!("<stdin>: {e}")))?;
        sources.push(LoadedSource { name: "<stdin>".to_string(), text });
    } else {
        for file in files {
            let text = std::fs::read_to_string(file)
                .map_err(|e| CliError::Failure(format!("{file}: {e}")))?;
            sources.push(LoadedSource { name: file.clone(), text });
        }
    }
    Ok(sources)
}

/// A parsed query tagged with the index of the [`LoadedSource`] it came from.
type SourcedQuery = (usize, SpannedQuery);

/// Parses every source, keeping the span side-table and a back-pointer from
/// each query to the source it came from (an index into the returned list).
fn load_spanned_queries(
    files: &[String],
    stdin: &mut dyn Read,
) -> Result<(Vec<LoadedSource>, Vec<SourcedQuery>), CliError> {
    let sources = read_sources(files, stdin)?;
    let _parse_span = dioph_obs::span(dioph_obs::Phase::Parse);
    let mut queries = Vec::new();
    for (index, source) in sources.iter().enumerate() {
        let parsed = parse_program_spanned(&source.text).map_err(|e| {
            CliError::Failure(format!(
                "{}:{}:{}: {}",
                source.name,
                e.line(),
                e.column(),
                e.message()
            ))
        })?;
        // Each source must pair up on its own: concatenating an odd-count
        // file would silently shift every later pair by one query.
        if !parsed.len().is_multiple_of(2) {
            return Err(CliError::Failure(format!(
                "{}: holds {} queries, but every input must hold an even number \
                 (consecutive (containee, containing) pairs); concatenate files with `cat` \
                 if a pair spans them",
                source.name,
                parsed.len()
            )));
        }
        dioph_obs::registry::PARSE_QUERIES.add(parsed.len() as u64);
        queries.extend(parsed.into_iter().map(|q| (index, q)));
    }
    Ok((sources, queries))
}

fn load_queries(files: &[String], stdin: &mut dyn Read) -> Result<Vec<ConjunctiveQuery>, CliError> {
    let (_, queries) = load_spanned_queries(files, stdin)?;
    Ok(queries.into_iter().map(|(_, q)| q.query).collect())
}

fn into_pairs(
    queries: Vec<ConjunctiveQuery>,
) -> Result<Vec<(ConjunctiveQuery, ConjunctiveQuery)>, CliError> {
    if queries.is_empty() {
        return Err(CliError::Failure(
            "no queries in the input; expected '.'-terminated datalog queries in consecutive \
             (containee, containing) pairs — see docs/grammar.md"
                .to_string(),
        ));
    }
    // Evenness is guaranteed per source by `load_queries`.
    let mut pairs = Vec::with_capacity(queries.len() / 2);
    let mut it = queries.into_iter();
    while let (Some(containee), Some(containing)) = (it.next(), it.next()) {
        pairs.push((containee, containing));
    }
    Ok(pairs)
}

// ---------------------------------------------------------------------------
// decide / equiv
// ---------------------------------------------------------------------------

/// Decides one direction under the selected semantics; returns the verdict
/// and its rendering in the requested output mode only (no point formatting
/// JSON for a human run, or vice versa).
fn decide_direction(
    opts: &DecideOpts,
    engine: &DecisionEngine,
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
) -> Result<(bool, String), CliError> {
    match opts.semantics {
        Semantics::Bag => {
            let result = engine.decide(containee, containing).map_err(|e| {
                CliError::Failure(format!(
                    "cannot decide {} {} {}: {e}",
                    containee.name(),
                    opts.semantics.symbol(),
                    containing.name()
                ))
            })?;
            let rendered = if opts.json { result.to_json() } else { result.to_string() };
            Ok((result.holds(), rendered))
        }
        Semantics::Set => Ok(render_set_result(&set_containment(containee, containing), opts.json)),
        Semantics::BagSet => {
            let result = bag_set_containment(containee, containing).map_err(|e| {
                CliError::Failure(format!(
                    "cannot decide {} {} {}: {e}",
                    containee.name(),
                    opts.semantics.symbol(),
                    containing.name()
                ))
            })?;
            Ok(render_set_result(&result, opts.json))
        }
    }
}

/// Renders a [`SetContainment`] verdict (shared by set and bag-set modes —
/// the latter coincides with set containment on its fragment, so both carry
/// the same witness-homomorphism certificates).
fn render_set_result(result: &SetContainment, json_mode: bool) -> (bool, String) {
    let rendered = match (result.witness(), json_mode) {
        (Some(witness), false) => format!("contained (witness homomorphism {witness})"),
        (Some(witness), true) => format!(
            "{{\"verdict\":\"contained\",\"witness\":{}}}",
            json::string(&witness.to_string())
        ),
        (None, false) => "not contained (no containment mapping exists)".to_string(),
        (None, true) => "{\"verdict\":\"not_contained\"}".to_string(),
    };
    (result.holds(), rendered)
}

/// Pre-flight fragment check for `decide`/`equiv` under bag semantics: a
/// containee outside the engine's fragment (unsafe, projection-bearing,
/// empty-bodied) is reported with the file, line and column of the offending
/// variable — the engine's own [`ContainmentError`] knows only query names.
fn precheck_containees(
    sources: &[LoadedSource],
    queries: &[SourcedQuery],
    mutual: bool,
    symbol: &str,
) -> Result<(), CliError> {
    let _check_span = dioph_obs::span(dioph_obs::Phase::Check);
    let config = LintConfig::new();
    for chunk in queries.chunks_exact(2) {
        // equiv decides both directions, so both queries act as containee;
        // forward is decided (and therefore reported) first.
        let mut roles = vec![(&chunk[0], &chunk[1])];
        if mutual {
            roles.push((&chunk[1], &chunk[0]));
        }
        for ((source_index, left), (_, right)) in roles {
            let source = &sources[*source_index];
            let Some(d) =
                containee_fragment_diagnostics(left, &source.text, &config).into_iter().next()
            else {
                continue;
            };
            return Err(CliError::Failure(format!(
                "{} (cannot decide {} {symbol} {})",
                d.render(&source.name),
                left.query.name(),
                right.query.name(),
            )));
        }
    }
    Ok(())
}

fn cmd_decide(args: &[String], stdin: &mut dyn Read, mutual: bool) -> CliResult {
    let opts = parse_decide_opts(args)?;
    if opts.repeat_set {
        return Err(CliError::Usage("--repeat only applies to bench".to_string()));
    }
    if opts.keep_going {
        return Err(CliError::Usage("--keep-going only applies to batch".to_string()));
    }
    let baseline = start_observability(opts.metrics, opts.trace_out.as_deref());
    let (sources, spanned) = load_spanned_queries(&opts.files, stdin)?;
    if opts.semantics != Semantics::Set {
        // Set semantics (Chandra–Merlin) accepts any safe-or-not shape the
        // grammar allows; both the bag and bag-set paths enforce the
        // projection-free containee fragment up front, with positions.
        precheck_containees(&sources, &spanned, mutual, opts.semantics.symbol())?;
    }
    let pairs = into_pairs(spanned.into_iter().map(|(_, q)| q.query).collect())?;
    // At `--jobs 1` the engine runs the sequential decider itself.
    let engine = DecisionEngine::new(opts.engine_config());
    let mut human = String::new();
    let mut json_pairs: Vec<String> = Vec::new();
    for (i, (containee, containing)) in pairs.iter().enumerate() {
        let index = i + 1;
        let forward = decide_direction(&opts, &engine, containee, containing)?;
        if mutual {
            let backward = decide_direction(&opts, &engine, containing, containee)?;
            let equivalent = forward.0 && backward.0;
            if opts.json {
                json_pairs.push(format!(
                    "{{\"index\":{index},\"containee\":{},\"containing\":{},\"equivalent\":{},\
                     \"forward\":{},\"backward\":{}}}",
                    json::string(&containee.to_string()),
                    json::string(&containing.to_string()),
                    equivalent,
                    forward.1,
                    backward.1,
                ));
            } else {
                let eq_symbol = match opts.semantics {
                    Semantics::Bag => "≡b",
                    Semantics::Set => "≡s",
                    Semantics::BagSet => "≡bs",
                };
                let verdict = if equivalent { "equivalent" } else { "NOT equivalent" };
                writeln!(
                    human,
                    "[{index}] {} {eq_symbol} {}: {verdict}\n    forward  ({} {} {}): {}\n    \
                     backward ({} {} {}): {}",
                    containee.name(),
                    containing.name(),
                    containee.name(),
                    opts.semantics.symbol(),
                    containing.name(),
                    forward.1,
                    containing.name(),
                    opts.semantics.symbol(),
                    containee.name(),
                    backward.1,
                )
                .expect("writing to a String cannot fail");
            }
        } else if opts.json {
            json_pairs.push(format!(
                "{{\"index\":{index},\"containee\":{},\"containing\":{},\"result\":{}}}",
                json::string(&containee.to_string()),
                json::string(&containing.to_string()),
                forward.1,
            ));
        } else {
            writeln!(
                human,
                "[{index}] {} {} {}: {}",
                containee.name(),
                opts.semantics.symbol(),
                containing.name(),
                forward.1
            )
            .expect("writing to a String cannot fail");
        }
    }
    if let Some(path) = &opts.trace_out {
        write_trace(path)?;
    }
    if opts.json {
        let command = if mutual { "equiv" } else { "decide" };
        let metrics = if opts.metrics {
            format!(",\"metrics\":{}", metrics_json(&baseline))
        } else {
            String::new()
        };
        Ok(format!(
            "{{\"command\":\"{command}\",\"semantics\":\"{}\",\"algorithm\":\"{}\",\
             \"engine\":\"simplex\",\"pairs\":[{}]{metrics}}}\n",
            opts.semantics.name(),
            opts.algorithm_name,
            json_pairs.join(",")
        ))
    } else {
        if opts.metrics {
            human.push_str(&metrics_human(&baseline));
        }
        Ok(human)
    }
}

// ---------------------------------------------------------------------------
// batch
// ---------------------------------------------------------------------------

/// Concatenates several owned readers into one (std's `Read::chain` nests
/// types, which does not scale to a runtime file list).
struct MultiReader {
    sources: std::collections::VecDeque<Box<dyn Read + Send>>,
}

impl Read for MultiReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        while let Some(front) = self.sources.front_mut() {
            let n = front.read(buf)?;
            if n > 0 {
                return Ok(n);
            }
            self.sources.pop_front();
        }
        Ok(0)
    }
}

/// Renders one batch verdict as a single output line.
fn render_verdict(opts: &DecideOpts, verdict: &Verdict) -> String {
    match (&verdict.outcome, opts.json) {
        (Ok(outcome), true) => format!(
            "{{\"id\":{},\"containee\":{},\"containing\":{},\"result\":{}}}\n",
            verdict.id,
            json::string(&outcome.containee.to_string()),
            json::string(&outcome.containing.to_string()),
            outcome.verdict.to_json(),
        ),
        (Ok(outcome), false) => format!(
            "[{}] {} ⊑b {}: {}\n",
            verdict.id,
            outcome.containee.name(),
            outcome.containing.name(),
            outcome.verdict
        ),
        (Err(error), true) => format!(
            "{{\"id\":{},\"error\":{{\"stage\":\"{}\",\"message\":{}}}}}\n",
            verdict.id,
            error.stage(),
            json::string(error.message()),
        ),
        (Err(error), false) => {
            format!("[{}] {} error: {}\n", verdict.id, error.stage(), error.message())
        }
    }
}

fn cmd_batch(
    args: &[String],
    stdin: &mut (dyn Read + Send),
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let opts = parse_decide_opts(args)?;
    if opts.semantics != Semantics::Bag {
        return Err(CliError::Usage(format!(
            "batch decides bag containment; drop --{}",
            opts.semantics.name()
        )));
    }
    if opts.repeat_set {
        return Err(CliError::Usage("--repeat only applies to bench".to_string()));
    }
    let baseline = start_observability(opts.metrics, opts.trace_out.as_deref());

    // Input: stdin, or the FILEs concatenated — consumed lazily either way,
    // so verdicts stream out while input is still arriving.
    let source: Box<dyn Read + Send> = if opts.files.is_empty() {
        Box::new(stdin)
    } else {
        let mut sources: std::collections::VecDeque<Box<dyn Read + Send>> =
            std::collections::VecDeque::new();
        for file in &opts.files {
            let handle =
                std::fs::File::open(file).map_err(|e| CliError::Failure(format!("{file}: {e}")))?;
            sources.push_back(Box::new(handle));
        }
        Box::new(MultiReader { sources })
    };

    let engine = DecisionEngine::new(opts.engine_config());
    let mut stream_error: Option<CliError> = None;
    let stats = engine.run_batch(JobReader::new(BufReader::new(source)), |verdict| {
        if let (Err(error), false) = (&verdict.outcome, opts.keep_going) {
            // Without --keep-going the first failure aborts the stream; the
            // diagnostic goes to stderr like decide's, not into the output.
            // Printed immediately (not after run_batch returns) because the
            // abort only completes once the input yields its next line or
            // closes — an interactive user must see why the batch stopped
            // while that drain is still pending.
            let message = format!("pair {}: {}", verdict.id, error);
            eprintln!("diophantus: {message}");
            stream_error = Some(CliError::Reported);
            return false;
        }
        match write_out(out, &render_verdict(&opts, &verdict)) {
            Ok(()) => true,
            Err(e) => {
                stream_error = Some(e);
                false
            }
        }
    });
    if let Some(error) = stream_error {
        return Err(error);
    }
    if let Some(path) = &opts.trace_out {
        write_trace(path)?;
    }
    // The metrics trailer is emitted even when some pairs failed under
    // --keep-going — the run completed, and the failure count is itself one
    // of the deterministic counters.
    if opts.metrics {
        if opts.json {
            write_out(out, &format!("{{\"metrics\":{}}}\n", metrics_json(&baseline)))?;
        } else {
            write_out(out, &metrics_human(&baseline))?;
        }
    }
    if stats.failures > 0 {
        return Err(CliError::Failure(format!(
            "{} of {} pair(s) failed (error lines inline above)",
            stats.failures, stats.jobs_processed
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

struct CheckOpts {
    json: bool,
    config: LintConfig,
    files: Vec<String>,
}

fn parse_check_opts(args: &[String]) -> Result<CheckOpts, CliError> {
    let mut json = false;
    let mut config = LintConfig::new();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny" => {
                let value = next_value(&mut it, "--deny")?;
                if value == "warnings" {
                    config.deny_warnings();
                } else {
                    config.set(&value, Severity::Error).map_err(CliError::Usage)?;
                }
            }
            "--allow" => {
                let value = next_value(&mut it, "--allow")?;
                config.set(&value, Severity::Allow).map_err(CliError::Usage)?;
            }
            "-W" | "--warn" => {
                let value = next_value(&mut it, "-W")?;
                config.set(&value, Severity::Warning).map_err(CliError::Usage)?;
            }
            flag if flag.starts_with('-') && flag.len() > 1 => {
                return Err(CliError::Usage(format!("unknown option '{flag}' for check")));
            }
            file => files.push(file.to_string()),
        }
    }
    Ok(CheckOpts { json, config, files })
}

/// Renders one diagnostic as a JSON object (stable key order, so `--json`
/// output is byte-reproducible and pinned by a golden fixture).
fn diagnostic_to_json(d: &dioph_analyze::Diagnostic) -> String {
    let span = match d.span {
        Some(span) => format!("{{\"start\":{},\"end\":{}}}", span.start, span.end),
        None => "null".to_string(),
    };
    format!(
        "{{\"code\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"query\":{},\"line\":{},\
         \"column\":{},\"span\":{span},\"message\":{}}}",
        d.code,
        d.name,
        d.severity,
        json::string(&d.query),
        d.line,
        d.column,
        json::string(&d.message),
    )
}

/// Renders one pair analysis as a JSON object.
fn pair_analysis_to_json(pair: &dioph_analyze::PairAnalysis) -> String {
    let cost = match &pair.cost {
        Some(cost) => {
            let probe = match cost.probe_space {
                Some(n) => n.to_string(),
                None => "null".to_string(),
            };
            format!(
                "{{\"probe_space\":{probe},\"lp_unknowns\":{},\"lp_rows_bound\":{}}}",
                cost.lp_unknowns, cost.lp_rows_bound
            )
        }
        None => "null".to_string(),
    };
    format!(
        "{{\"index\":{},\"containee\":{},\"containing\":{},\"fragment\":\"{}\",\"cost\":{cost}}}",
        pair.index,
        json::string(&pair.containee),
        json::string(&pair.containing),
        pair.fragment.label(),
    )
}

fn cmd_check(args: &[String], stdin: &mut dyn Read, out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_check_opts(args)?;
    let sources = read_sources(&opts.files, stdin)?;
    let mut human = String::new();
    let mut json_files: Vec<String> = Vec::new();
    let mut totals = (0usize, 0usize, 0usize);
    let mut exit = 0;
    for source in &sources {
        let analysis = analyze_source(&source.text, &opts.config);
        let (errors, warnings, notes) = analysis.counts();
        totals = (totals.0 + errors, totals.1 + warnings, totals.2 + notes);
        exit = exit.max(analysis.max_severity().map_or(0, Severity::exit_code));
        if opts.json {
            let diagnostics: Vec<String> =
                analysis.all_diagnostics().map(diagnostic_to_json).collect();
            let pairs: Vec<String> = analysis.pairs.iter().map(pair_analysis_to_json).collect();
            json_files.push(format!(
                "{{\"file\":{},\"diagnostics\":[{}],\"pairs\":[{}]}}",
                json::string(&source.name),
                diagnostics.join(","),
                pairs.join(","),
            ));
        } else {
            for d in analysis.all_diagnostics() {
                writeln!(human, "{}", d.render(&source.name))
                    .expect("writing to a String cannot fail");
            }
            for pair in &analysis.pairs {
                let cost = match &pair.cost {
                    Some(c) => match c.probe_space {
                        Some(p) => format!(
                            " (probe space {p}, lp ≤ {}×{})",
                            c.lp_unknowns, c.lp_rows_bound
                        ),
                        None => {
                            format!(" (lp ≤ {}×{})", c.lp_unknowns, c.lp_rows_bound)
                        }
                    },
                    None => String::new(),
                };
                writeln!(
                    human,
                    "{}: pair {} ({} ⊑b {}): {}{cost}",
                    source.name, pair.index, pair.containee, pair.containing, pair.fragment
                )
                .expect("writing to a String cannot fail");
            }
        }
    }
    if opts.json {
        write_out(
            out,
            &format!(
                "{{\"command\":\"check\",\"files\":[{}],\"summary\":{{\"errors\":{},\
                 \"warnings\":{},\"notes\":{},\"exit\":{exit}}}}}\n",
                json_files.join(","),
                totals.0,
                totals.1,
                totals.2,
            ),
        )?;
    } else {
        if totals != (0, 0, 0) {
            writeln!(
                human,
                "check: {} error(s), {} warning(s), {} note(s)",
                totals.0, totals.1, totals.2
            )
            .expect("writing to a String cannot fail");
        }
        write_out(out, &human)?;
    }
    if exit == 0 {
        Ok(())
    } else {
        Err(CliError::Lints(exit))
    }
}

// ---------------------------------------------------------------------------
// verify
// ---------------------------------------------------------------------------

/// Running tallies of one `verify` invocation.
#[derive(Default)]
struct VerifyReport {
    lines: String,
    verified: usize,
    contained: usize,
    /// `bench --json` pair entries: latency numbers plus a bare verdict,
    /// no certificate — acknowledged so a bench document round-trips
    /// through verify instead of erroring out.
    timing_entries: usize,
    error_lines: usize,
    /// `"metrics"` envelope members (and batch `--metrics` trailer lines)
    /// acknowledged and structurally validated.
    metrics_blocks: usize,
    /// Certificates (counterexamples, contained verdicts, disagreements)
    /// that failed their re-check.
    failed: usize,
    /// Metrics blocks that failed structural validation.
    metrics_failed: usize,
}

impl VerifyReport {
    fn record(&mut self, label: &str, check: Result<String, String>) {
        match check {
            Ok(line) => {
                self.verified += 1;
                self.lines.push_str(&format!("[{label}] {line}\n"));
            }
            Err(line) => {
                self.failed += 1;
                self.lines.push_str(&format!("[{label}] VERIFICATION FAILED: {line}\n"));
            }
        }
    }
}

/// Structurally validates one `"metrics"` envelope member (decide, equiv,
/// bench and fuzz envelopes, and the trailing batch `--metrics` line). The
/// deterministic `"counters"` block must hold exactly the registry's
/// deterministic cells as non-negative integers and satisfy the verdict
/// invariant (contained + not-contained ≤ pairs decided); the volatile
/// counters, phases and workers are timing- and scheduling-dependent by
/// contract, so only their names and shapes are checked, never their values.
fn check_metrics(metrics: &Json) -> Result<String, String> {
    let uint = |value: &Json, what: &str| -> Result<u64, String> {
        match value {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!("{what} must be a non-negative integer")),
        }
    };
    let Some(Json::Object(counters)) = metrics.get("counters") else {
        return Err("\"metrics\" is missing its \"counters\" object".to_string());
    };
    let expected: Vec<&str> = dioph_obs::counters()
        .iter()
        .filter(|c| c.stability() == dioph_obs::Stability::Deterministic)
        .map(|c| c.name())
        .collect();
    let names: Vec<&str> = counters.keys().map(String::as_str).collect();
    if names != expected {
        return Err(format!(
            "deterministic counter block holds [{}]; the registry defines [{}]",
            names.join(", "),
            expected.join(", ")
        ));
    }
    for (name, value) in counters {
        uint(value, &format!("counter \"{name}\""))?;
    }
    let named = |name: &str| uint(&counters[name], name).expect("checked above");
    let pairs = named("engine.pairs_decided");
    let contained = named("engine.verdicts.contained");
    let not_contained = named("engine.verdicts.not_contained");
    if contained.saturating_add(not_contained) > pairs {
        return Err(format!(
            "verdict counters are inconsistent: {contained} contained + {not_contained} \
             not-contained > {pairs} pairs decided"
        ));
    }
    if let Some(volatile) = metrics.get("volatile") {
        let Json::Object(map) = volatile else {
            return Err("\"volatile\" must be an object".to_string());
        };
        for (name, value) in map {
            if dioph_obs::registry::counter(name).is_none() {
                return Err(format!("\"volatile\" names unknown counter \"{name}\""));
            }
            uint(value, &format!("volatile counter \"{name}\""))?;
        }
    }
    let phases = member(metrics, "phases")?.as_array().ok_or("\"phases\" must be an array")?;
    let known: Vec<&str> = dioph_obs::Phase::ALL.iter().map(|p| p.name()).collect();
    for entry in phases {
        let name = member_str(entry, "phase")?;
        if !known.contains(&name) {
            return Err(format!("unknown phase \"{name}\" (expected one of {})", known.join(", ")));
        }
        uint(member(entry, "calls")?, "phase calls")?;
        uint(member(entry, "wall_ns")?, "phase wall_ns")?;
    }
    let workers = member(metrics, "workers")?.as_array().ok_or("\"workers\" must be an array")?;
    for entry in workers {
        member_str(entry, "pool")?;
        uint(member(entry, "worker")?, "worker index")?;
        uint(member(entry, "claims")?, "worker claims")?;
    }
    Ok(format!(
        "metrics block verified ({pairs} pair decision(s): {contained} contained, \
         {not_contained} not contained; volatile counters and timings skipped by contract)"
    ))
}

/// Records one `"metrics"` member against the report.
fn acknowledge_metrics(report: &mut VerifyReport, metrics: &Json) {
    report.metrics_blocks += 1;
    match check_metrics(metrics) {
        Ok(line) => report.lines.push_str(&format!("[metrics] {line}\n")),
        Err(diagnostic) => {
            report.metrics_failed += 1;
            report.lines.push_str(&format!("[metrics] VERIFICATION FAILED: {diagnostic}\n"));
        }
    }
}

/// Reconstructs a [`Term`] from its datalog rendering by parsing a
/// synthetic single-term head.
fn term_from_text(text: &str) -> Result<Term, String> {
    let q = parse_query(&format!("w({text}) <- true."))
        .map_err(|e| format!("probe term '{text}' does not parse: {e}"))?;
    Ok(q.head()[0].clone())
}

/// Reconstructs an [`Atom`] from its datalog rendering by parsing a
/// synthetic Boolean body.
fn atom_from_text(text: &str) -> Result<Atom, String> {
    let q = parse_query(&format!("w() <- {text}."))
        .map_err(|e| format!("bag atom '{text}' does not parse: {e}"))?;
    let atom = q.body_atoms().next().cloned();
    atom.ok_or_else(|| format!("bag atom '{text}' is empty"))
}

/// JSON member access with a verify-flavoured diagnostic.
fn member<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    value.get(key).ok_or_else(|| format!("certificate object is missing \"{key}\""))
}

fn member_str<'a>(value: &'a Json, key: &str) -> Result<&'a str, String> {
    member(value, key)?.as_str().ok_or_else(|| format!("\"{key}\" must be a string"))
}

/// Re-checks one recorded direction (`containee ⊑b containing` plus its
/// `result` object) against the independent Equation-2 evaluator. Returns
/// the human line on success (`Ok`) or the mismatch diagnostic (`Err`);
/// contained verdicts carry no certificate and verify vacuously.
fn check_direction(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
    result: &Json,
) -> Result<(bool, String), String> {
    match member_str(result, "verdict")? {
        "contained" => Ok((
            false,
            format!(
                "{} ⊑b {}: contained (no counterexample to re-check)",
                containee.name(),
                containing.name()
            ),
        )),
        "not_contained" => {
            let ce = member(result, "counterexample")?;
            let (lhs, rhs) = check_counterexample(containee, containing, ce)?;
            Ok((
                true,
                format!(
                    "{} ⋢b {}: counterexample verified ({lhs} > {rhs})",
                    containee.name(),
                    containing.name()
                ),
            ))
        }
        other => Err(format!("unknown verdict '{other}'")),
    }
}

/// Re-checks one recorded counterexample object against the independent
/// Equation-2 evaluator; on success returns the verified (containee,
/// containing) multiplicities. Shared by the decide/equiv/batch certificate
/// path and the fuzz disagreement-witness path.
fn check_counterexample(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
    ce: &Json,
) -> Result<(Natural, Natural), String> {
    let probe_json = member(ce, "probe")?.as_array().ok_or("\"probe\" must be an array")?;
    let probe: Vec<Term> = probe_json
        .iter()
        .map(|t| term_from_text(t.as_str().ok_or("probe terms must be strings")?))
        .collect::<Result<_, String>>()?;
    let bag_json = member(ce, "bag")?.as_array().ok_or("\"bag\" must be an array")?;
    let mut entries: Vec<(Atom, Natural)> = Vec::with_capacity(bag_json.len());
    for entry in bag_json {
        let atom = atom_from_text(member_str(entry, "atom")?)?;
        let mult = Natural::from_decimal_str(member_str(entry, "multiplicity")?)
            .map_err(|e| format!("bad multiplicity: {e}"))?;
        entries.push((atom, mult));
    }
    let bag = BagInstance::from_multiplicities(entries);
    let recorded_lhs = Natural::from_decimal_str(member_str(ce, "containee_multiplicity")?)
        .map_err(|e| format!("bad containee_multiplicity: {e}"))?;
    let recorded_rhs = Natural::from_decimal_str(member_str(ce, "containing_multiplicity")?)
        .map_err(|e| format!("bad containing_multiplicity: {e}"))?;

    // The independent check: Equation 2, sharing no code with the
    // MPI route that produced the certificate.
    let lhs = bag_answer_multiplicity(containee, &bag, &probe);
    let rhs = bag_answer_multiplicity(containing, &bag, &probe);
    if lhs != recorded_lhs {
        return Err(format!(
            "recorded containee multiplicity {recorded_lhs}, evaluator says {lhs}"
        ));
    }
    if rhs != recorded_rhs {
        return Err(format!(
            "recorded containing multiplicity {recorded_rhs}, evaluator says {rhs}"
        ));
    }
    if lhs <= rhs {
        return Err(format!("the recorded bag does not violate containment ({lhs} ≤ {rhs})"));
    }
    Ok((lhs, rhs))
}

/// Re-checks one fuzz disagreement entry: the shrunk reproducer's
/// counterexample (when the disagreement carries one) must still violate
/// containment under the independent evaluator. Structural problems (missing
/// keys, unparseable queries) are hard errors, like everywhere in `verify`.
fn check_disagreement(report: &mut VerifyReport, label: &str, entry: &Json) -> Result<(), String> {
    let kind = member_str(entry, "kind")?;
    let minimized = member(entry, "minimized")?;
    let containee = parse_query(member_str(minimized, "containee")?)
        .map_err(|e| format!("minimized containee does not parse: {e}"))?;
    let containing = parse_query(member_str(minimized, "containing")?)
        .map_err(|e| format!("minimized containing query does not parse: {e}"))?;
    match minimized.get("counterexample") {
        Some(ce) => {
            let outcome = check_counterexample(&containee, &containing, ce).map(|(lhs, rhs)| {
                format!(
                    "recorded {kind} disagreement: minimized witness verified \
                     ({} ⋢b {} on the recorded bag, {lhs} > {rhs})",
                    containee.name(),
                    containing.name()
                )
            });
            report.record(label, outcome);
        }
        None => {
            // Set-side disagreements (a bag-set/set mismatch, a Contained
            // verdict without a set witness) have no bag to replay; they are
            // surfaced but nothing is independently re-checkable.
            report.error_lines += 1;
            report.lines.push_str(&format!(
                "[{label}] recorded {kind} disagreement: no counterexample to re-check\n"
            ));
        }
    }
    Ok(())
}

/// Parses the two query texts of a certificate entry and re-checks one or
/// both recorded directions.
fn check_entry(
    report: &mut VerifyReport,
    label: &str,
    entry: &Json,
    timing_only: bool,
) -> Result<(), String> {
    let containee = parse_query(member_str(entry, "containee")?)
        .map_err(|e| format!("recorded containee does not parse: {e}"))?;
    let containing = parse_query(member_str(entry, "containing")?)
        .map_err(|e| format!("recorded containing query does not parse: {e}"))?;
    let directions: Vec<(String, &ConjunctiveQuery, &ConjunctiveQuery, &Json)> =
        if let Some(result) = entry.get("result") {
            vec![(label.to_string(), &containee, &containing, result)]
        } else if let (Some(forward), Some(backward)) =
            (entry.get("forward"), entry.get("backward"))
        {
            vec![
                (format!("{label} forward"), &containee, &containing, forward),
                (format!("{label} backward"), &containing, &containee, backward),
            ]
        } else if let (true, Some(verdict)) =
            (timing_only, entry.get("verdict").and_then(Json::as_str))
        {
            // A bench --json pair: timing plus a bare verdict, no
            // certificate to re-check. Only reachable inside a
            // `"command":"bench"` envelope — a decide/equiv/batch entry
            // whose certificate went missing must still FAIL verification,
            // not be waved through as a timing entry.
            report.timing_entries += 1;
            report.lines.push_str(&format!(
                "[{label}] bench timing entry (verdict \"{verdict}\", no certificate to \
                 re-check)\n"
            ));
            return Ok(());
        } else {
            return Err(
                "entry has neither \"result\" nor \"forward\"/\"backward\" — only decide, \
                 equiv, batch and bench --json output is verifiable"
                    .to_string(),
            );
        };
    for (label, containee, containing, result) in directions {
        match check_direction(containee, containing, result) {
            Ok((was_counterexample, line)) => {
                if was_counterexample {
                    report.record(&label, Ok(line));
                } else {
                    report.contained += 1;
                    report.lines.push_str(&format!("[{label}] {line}\n"));
                }
            }
            Err(diagnostic) => report.record(&label, Err(diagnostic)),
        }
    }
    Ok(())
}

fn cmd_verify(
    args: &[String],
    stdin: &mut (dyn Read + Send),
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let mut files = Vec::new();
    for arg in args {
        if arg.starts_with("--") {
            return Err(CliError::Usage(format!(
                "unknown option '{arg}' (verify takes only certificate FILEs)"
            )));
        }
        files.push(arg.clone());
    }
    let sources = read_sources(&files, stdin)?;

    let mut report = VerifyReport::default();
    let mut saw_entries = false;
    for LoadedSource { name, text } in &sources {
        for (line_index, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let location = format!("{name}:{}", line_index + 1);
            let doc = Json::parse(line)
                .map_err(|e| CliError::Failure(format!("{location}: not JSON: {e}")))?;
            if let Some(pairs) = doc.get("pairs").and_then(Json::as_array) {
                // A decide/equiv/bench/fuzz envelope. Only a bench envelope
                // may carry certificate-less timing entries, and only a fuzz
                // envelope may record per-pair decision errors; everything
                // else must present a re-checkable result.
                let command = doc.get("command").and_then(Json::as_str);
                let is_bench = command == Some("bench");
                let is_fuzz = command == Some("fuzz");
                for (i, entry) in pairs.iter().enumerate() {
                    saw_entries = true;
                    let label = format!("{}", i + 1);
                    if is_fuzz {
                        if let Some(error) = entry.get("error") {
                            let code =
                                error.get("code").and_then(Json::as_str).unwrap_or("no code");
                            report.error_lines += 1;
                            report.lines.push_str(&format!(
                                "[{label}] recorded decide error ({code}): nothing to re-check\n"
                            ));
                            continue;
                        }
                    }
                    check_entry(&mut report, &label, entry, is_bench)
                        .map_err(|e| CliError::Failure(format!("{location}: pair {label}: {e}")))?;
                }
                if is_fuzz {
                    let disagreements =
                        doc.get("disagreements").and_then(Json::as_array).ok_or_else(|| {
                            CliError::Failure(format!(
                                "{location}: fuzz envelope is missing \"disagreements\""
                            ))
                        })?;
                    for (i, entry) in disagreements.iter().enumerate() {
                        saw_entries = true;
                        let label = format!("disagreement {}", i + 1);
                        check_disagreement(&mut report, &label, entry)
                            .map_err(|e| CliError::Failure(format!("{location}: {label}: {e}")))?;
                    }
                }
                if let Some(metrics) = doc.get("metrics") {
                    acknowledge_metrics(&mut report, metrics);
                }
            } else if doc.get("id").is_some() {
                // A batch --json line.
                saw_entries = true;
                let label = match doc.get("id") {
                    Some(Json::Number(n)) => format!("{n}"),
                    _ => "?".to_string(),
                };
                if let Some(error) = doc.get("error") {
                    report.error_lines += 1;
                    let stage = error.get("stage").and_then(Json::as_str).unwrap_or("unknown");
                    report.lines.push_str(&format!(
                        "[{label}] recorded {stage} error: nothing to re-check\n"
                    ));
                } else {
                    check_entry(&mut report, &label, &doc, false)
                        .map_err(|e| CliError::Failure(format!("{location}: {e}")))?;
                }
            } else if let Some(metrics) = doc.get("metrics") {
                // The trailing `batch --json --metrics` line: a bare
                // `{"metrics":{...}}` object after the per-job lines.
                saw_entries = true;
                acknowledge_metrics(&mut report, metrics);
            } else {
                return Err(CliError::Failure(format!(
                    "{location}: unrecognised JSON (expected a decide/equiv envelope with \
                     \"pairs\" or batch --json lines)"
                )));
            }
        }
    }
    if !saw_entries {
        return Err(CliError::Failure(
            "no certificates in the input; pass a file produced with --json".to_string(),
        ));
    }
    // Metrics blocks are opt-in (`--metrics`); the summary only grows a
    // clause when one was actually present, so metrics-free documents keep
    // their historical byte-identical summary line.
    let metrics_clause = if report.metrics_blocks > 0 {
        format!(", {} metrics block(s)", report.metrics_blocks)
    } else {
        String::new()
    };
    let summary = format!(
        "verify: {} counterexample(s) verified, {} contained verdict(s), {} timing-only \
         entr{}, {} recorded error line(s){metrics_clause}, {} failure(s)\n",
        report.verified,
        report.contained,
        report.timing_entries,
        if report.timing_entries == 1 { "y" } else { "ies" },
        report.error_lines,
        report.failed + report.metrics_failed
    );
    write_out(out, &report.lines)?;
    write_out(out, &summary)?;
    let mut failures = Vec::new();
    if report.failed > 0 {
        failures.push(format!("{} counterexample(s)", report.failed));
    }
    if report.metrics_failed > 0 {
        failures.push(format!("{} metrics block(s)", report.metrics_failed));
    }
    if !failures.is_empty() {
        return Err(CliError::Failure(format!("{} failed verification", failures.join(" and "))));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// fuzz
// ---------------------------------------------------------------------------

struct FuzzOpts {
    config: FuzzConfig,
    json: bool,
    replay: Option<String>,
    metrics: bool,
    trace_out: Option<String>,
}

fn parse_fuzz_opts(args: &[String]) -> Result<FuzzOpts, CliError> {
    let mut config = FuzzConfig::default();
    let mut json = false;
    let mut replay: Option<String> = None;
    let mut metrics = false;
    let mut trace_out: Option<String> = None;
    let mut cases_set = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--seed" => {
                let text = next_value(&mut it, "--seed")?;
                config.seed = text
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--seed needs a number, got '{text}'")))?;
            }
            "--cases" => {
                config.cases = parse_count(&next_value(&mut it, "--cases")?, "--cases")?;
                cases_set = true;
            }
            "--max-adom" => {
                config.max_adom = parse_count(&next_value(&mut it, "--max-adom")?, "--max-adom")?;
            }
            "--max-mult" => {
                let text = next_value(&mut it, "--max-mult")?;
                config.max_mult = text.parse().map_err(|_| {
                    CliError::Usage(format!("--max-mult needs a number, got '{text}'"))
                })?;
            }
            "--samples" => {
                config.samples = parse_count(&next_value(&mut it, "--samples")?, "--samples")?;
            }
            "--jobs" => config.jobs = parse_count(&next_value(&mut it, "--jobs")?, "--jobs")?,
            "--replay" => replay = Some(next_value(&mut it, "--replay")?),
            "--metrics" => metrics = true,
            "--trace-out" => trace_out = Some(next_value(&mut it, "--trace-out")?),
            "--inject" => {
                let bug = next_value(&mut it, "--inject")?;
                config.injection = Some(match bug.as_str() {
                    "flip-verdict" => Injection::FlipVerdict,
                    "tamper-certificate" => Injection::TamperCertificate,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown injection '{other}' (expected flip-verdict or \
                             tamper-certificate)"
                        )))
                    }
                });
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option '{flag}'")))
            }
            positional => {
                return Err(CliError::Usage(format!(
                    "unexpected argument '{positional}' (fuzz generates its own cases; \
                     use --replay DIR for a corpus)"
                )))
            }
        }
    }
    if cases_set && replay.is_some() {
        return Err(CliError::Usage(
            "--cases only applies to generated runs; drop --replay".to_string(),
        ));
    }
    if config.jobs == 0 {
        return Err(CliError::Usage("--jobs must be at least 1".to_string()));
    }
    if config.max_adom == 0 {
        return Err(CliError::Usage("--max-adom must be at least 1".to_string()));
    }
    if config.max_mult == 0 {
        return Err(CliError::Usage("--max-mult must be at least 1".to_string()));
    }
    Ok(FuzzOpts { config, json, replay, metrics, trace_out })
}

/// Loads the `*.dl` corpus files of `dir` (sorted by file name, consecutive
/// (containee, containing) pairs per file) as labelled replay cases.
fn load_corpus(dir: &str) -> Result<Vec<(String, ConjunctiveQuery, ConjunctiveQuery)>, CliError> {
    let entries = std::fs::read_dir(dir).map_err(|e| CliError::Failure(format!("{dir}: {e}")))?;
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| CliError::Failure(format!("{dir}: {e}")))?;
        let path = entry.path();
        if path.extension().and_then(std::ffi::OsStr::to_str) == Some("dl") {
            paths.push(path);
        }
    }
    // Directory iteration order is filesystem-dependent; the corpus replay
    // must not be, so the case order is pinned to the sorted file names.
    paths.sort();
    if paths.is_empty() {
        return Err(CliError::Failure(format!("{dir}: no *.dl corpus files to replay")));
    }
    let mut pairs = Vec::new();
    for path in &paths {
        let name = path
            .file_name()
            .map_or_else(|| path.display().to_string(), |n| n.to_string_lossy().into_owned());
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Failure(format!("{}: {e}", path.display())))?;
        let queries = dioph_cq::parse_program(&text).map_err(|e| {
            CliError::Failure(format!("{name}:{}:{}: {}", e.line(), e.column(), e.message()))
        })?;
        if queries.is_empty() || !queries.len().is_multiple_of(2) {
            return Err(CliError::Failure(format!(
                "{name}: holds {} queries, but every corpus file must hold a positive even \
                 number (consecutive (containee, containing) pairs)",
                queries.len()
            )));
        }
        let mut it = queries.into_iter();
        let mut index = 0usize;
        while let (Some(containee), Some(containing)) = (it.next(), it.next()) {
            index += 1;
            pairs.push((format!("{name}:pair{index}"), containee, containing));
        }
    }
    Ok(pairs)
}

fn cmd_fuzz(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_fuzz_opts(args)?;
    let baseline = start_observability(opts.metrics, opts.trace_out.as_deref());
    let report = match &opts.replay {
        Some(dir) => run_replay(&opts.config, load_corpus(dir)?),
        None => run_fuzz(&opts.config),
    };
    if let Some(path) = &opts.trace_out {
        write_trace(path)?;
    }
    if opts.json {
        let mut rendered = report.to_json();
        if opts.metrics {
            // The report renders its own envelope; splice the metrics member
            // in before the closing brace (the envelope ends "…}\n").
            let body = rendered
                .trim_end_matches('\n')
                .strip_suffix('}')
                .expect("the fuzz envelope is a JSON object")
                .to_string();
            rendered = format!("{body},\"metrics\":{}}}\n", metrics_json(&baseline));
        }
        write_out(out, &rendered)?;
    } else {
        write_out(out, &report.disagreement_lines())?;
        write_out(out, &format!("{}\n", report.summary_line()))?;
        if opts.metrics {
            write_out(out, &metrics_human(&baseline))?;
        }
    }
    if report.disagreements.is_empty() {
        Ok(())
    } else {
        Err(CliError::Failure(format!(
            "{} disagreement(s) found (minimized reproducers above)",
            report.disagreements.len()
        )))
    }
}

// ---------------------------------------------------------------------------
// gen
// ---------------------------------------------------------------------------

fn cmd_gen(args: &[String]) -> CliResult {
    let mut kind_name: Option<String> = None;
    let mut count = DEFAULT_COUNT;
    let mut size: Option<usize> = None;
    let mut seed = DEFAULT_SEED;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--count" => count = parse_count(&next_value(&mut it, "--count")?, "--count")?,
            "--size" => size = Some(parse_count(&next_value(&mut it, "--size")?, "--size")?),
            "--seed" => {
                let text = next_value(&mut it, "--seed")?;
                seed = text
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--seed needs a number, got '{text}'")))?;
            }
            "--json" => json = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option '{flag}'")))
            }
            positional => {
                if kind_name.is_some() {
                    return Err(CliError::Usage(format!(
                        "unexpected extra argument '{positional}'"
                    )));
                }
                kind_name = Some(positional.to_string());
            }
        }
    }
    let kind_name = kind_name.unwrap_or_else(|| "spec".to_string());
    // Resolve the kind-specific size parameter up front so the provenance
    // header records the *effective* value, not whatever was (or wasn't)
    // passed — re-running the recorded command must regenerate the workload
    // even if a default changes.
    let (kind, size) = match kind_name.as_str() {
        "spec" | "specialization" => {
            let atoms = size.unwrap_or(4);
            (WorkloadKind::Specialization { atoms }, atoms)
        }
        "inflated" => {
            let atoms = size.unwrap_or(4);
            (WorkloadKind::Inflated { atoms }, atoms)
        }
        "contained" => {
            let atoms = size.unwrap_or(4);
            (WorkloadKind::Contained { atoms }, atoms)
        }
        "path" => {
            let length = size.unwrap_or(3);
            if length == 0 {
                return Err(CliError::Usage("--size must be at least 1 for path".to_string()));
            }
            (WorkloadKind::Path { length }, length)
        }
        "expmap" => {
            let mappings_log2 = size.unwrap_or(2);
            (WorkloadKind::ExponentialMapping { mappings_log2 }, mappings_log2)
        }
        "threecol" => {
            let vertices = size.unwrap_or(5);
            if vertices == 0 {
                return Err(CliError::Usage("--size must be at least 1 for threecol".to_string()));
            }
            (WorkloadKind::ThreeColorability { vertices }, vertices)
        }
        "chain" => {
            let length = size.unwrap_or(3);
            if length == 0 {
                return Err(CliError::Usage("--size must be at least 1 for chain".to_string()));
            }
            (WorkloadKind::Chain { length }, length)
        }
        "star" => {
            let rays = size.unwrap_or(3);
            if rays == 0 {
                return Err(CliError::Usage("--size must be at least 1 for star".to_string()));
            }
            (WorkloadKind::Star { rays }, rays)
        }
        "clique" => {
            let vertices = size.unwrap_or(3);
            if vertices < 2 {
                return Err(CliError::Usage("--size must be at least 2 for clique".to_string()));
            }
            (WorkloadKind::Clique { vertices }, vertices)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown workload kind '{other}' (expected spec, inflated, contained, path, \
                 expmap, threecol, chain, star or clique)"
            )))
        }
    };
    let pairs = generate_pairs(kind, count, seed);
    if json {
        let rendered: Vec<String> = pairs
            .iter()
            .map(|p| {
                format!(
                    "{{\"label\":{},\"containee\":{},\"containing\":{}}}",
                    json::string(&p.label),
                    json::string(&p.containee.to_string()),
                    json::string(&p.containing.to_string())
                )
            })
            .collect();
        Ok(format!(
            "{{\"command\":\"gen\",\"kind\":\"{kind_name}\",\"count\":{count},\"size\":{size},\
             \"seed\":{seed},\"pairs\":[{}]}}\n",
            rendered.join(",")
        ))
    } else {
        let mut out =
            format!("% diophantus gen {kind_name} --count {count} --size {size} --seed {seed}\n");
        for (i, WorkloadPair { label, containee, containing }) in pairs.iter().enumerate() {
            writeln!(out, "% pair {}: {label}\n{containee}.\n{containing}.", i + 1)
                .expect("writing to a String cannot fail");
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// bench
// ---------------------------------------------------------------------------

/// Renders a duration in nanoseconds with a human-friendly unit.
fn format_ns(ns: u128) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Allocation-discipline tallies accumulated over `bench`'s timed repeat
/// loops (one registry delta per loop, mirroring the arith fast-path
/// snapshots), rendered as the `"alloc"` block of `bench --json`.
#[derive(Default)]
struct AllocTally {
    /// Heap allocations observed by the counting allocator (zero outside
    /// the installed binary — in-process tests have no counting allocator).
    heap_allocs: u64,
    /// Probe tuples decided in the timed region (the denominator).
    probes: u64,
    monomial_inline: u64,
    monomial_spills: u64,
    scratch_reuses: u64,
    scratch_spills: u64,
    /// High-water mark (gauge): the deepest pooled-row stash any scratch
    /// reached, maxed across repeat loops.
    pool_rows_hwm: u64,
}

impl AllocTally {
    fn absorb(&mut self, delta: &dioph_obs::MetricsSnapshot) {
        let get = |name: &str| delta.get(name).unwrap_or(0);
        self.heap_allocs = self.heap_allocs.saturating_add(get("alloc.heap.allocs"));
        self.probes = self.probes.saturating_add(get("containment.probes.decided"));
        self.monomial_inline = self.monomial_inline.saturating_add(get("alloc.monomial.inline"));
        self.monomial_spills = self.monomial_spills.saturating_add(get("alloc.monomial.spills"));
        self.scratch_reuses = self.scratch_reuses.saturating_add(get("alloc.scratch.reuses"));
        self.scratch_spills = self.scratch_spills.saturating_add(get("alloc.scratch.spills"));
        self.pool_rows_hwm = self.pool_rows_hwm.max(get("alloc.pool.rows.hwm"));
    }

    /// Mean heap allocations per decided probe, or `None` with no probes.
    fn heap_allocs_per_probe(&self) -> Option<f64> {
        (self.probes > 0).then(|| self.heap_allocs as f64 / self.probes as f64)
    }
}

fn cmd_bench(args: &[String], stdin: &mut dyn Read) -> CliResult {
    let opts = parse_decide_opts(args)?;
    if opts.semantics != Semantics::Bag {
        return Err(CliError::Usage(format!(
            "bench times the bag-containment decider; drop --{}",
            opts.semantics.name()
        )));
    }
    if opts.jobs_set {
        return Err(CliError::Usage(
            "--jobs applies to decide, equiv and batch (bench times the sequential decider; \
             sweep threads with batch --jobs N or decide --jobs N)"
                .to_string(),
        ));
    }
    if opts.keep_going {
        return Err(CliError::Usage("--keep-going only applies to batch".to_string()));
    }
    let baseline = start_observability(opts.metrics, opts.trace_out.as_deref());
    let pairs = into_pairs(load_queries(&opts.files, stdin)?)?;
    let decider = BagContainmentDecider::new(opts.algorithm);
    let mut human = String::new();
    let mut json_pairs: Vec<String> = Vec::new();
    let mut total_ns: u128 = 0;
    // Counter deltas over the timed runs report how often the hybrid numeric
    // tower stayed on its allocation-free machine-word path. Accumulated as
    // one registry delta per repeat loop — not one process-lifetime reading
    // at the end — so the numbers cover exactly the runs the latencies
    // cover: compilation arithmetic and earlier in-process benches are
    // excluded instead of silently folded in.
    let mut arith = dioph_arith::stats::Snapshot::default();
    // Same discipline for the allocation counters: per-loop registry deltas,
    // so the per-probe figure covers exactly the timed decisions.
    let mut alloc = AllocTally::default();
    for (i, (containee, containing)) in pairs.iter().enumerate() {
        let index = i + 1;
        let cannot_decide = |e: &dyn std::fmt::Display| {
            CliError::Failure(format!(
                "cannot decide {} ⊑b {}: {e}",
                containee.name(),
                containing.name()
            ))
        };
        // Compile the pair once and share it across the repeat loop, so the
        // timings measure the decision procedure — not recompilation of the
        // containment-mapping enumeration on every run. (The first run still
        // pays lazy compilation of the probes it touches.)
        let pair = CompiledPair::new(containee.clone(), containing.clone())
            .map_err(|e| cannot_decide(&e))?;
        let mut durations_ns: Vec<u128> = Vec::with_capacity(opts.repeat);
        let mut verdict: Option<BagContainment> = None;
        let run_before = dioph_arith::stats::snapshot();
        let reg_before = dioph_obs::snapshot();
        for _ in 0..opts.repeat {
            let start = Instant::now();
            let result = decider.decide_pair(&pair).map_err(|e| cannot_decide(&e))?;
            durations_ns.push(start.elapsed().as_nanos());
            verdict.get_or_insert(result);
        }
        let run_delta = dioph_arith::stats::snapshot().since(&run_before);
        alloc.absorb(&dioph_obs::snapshot().since(&reg_before));
        arith = dioph_arith::stats::Snapshot {
            int_small_hits: arith.int_small_hits.saturating_add(run_delta.int_small_hits),
            int_big_fallbacks: arith.int_big_fallbacks.saturating_add(run_delta.int_big_fallbacks),
        };
        let verdict = verdict.expect("repeat >= 1 guarantees at least one run");
        let min = *durations_ns.iter().min().expect("at least one run");
        let max = *durations_ns.iter().max().expect("at least one run");
        let sum: u128 = durations_ns.iter().sum();
        let mean = sum / durations_ns.len() as u128;
        total_ns += sum;
        if opts.json {
            json_pairs.push(format!(
                "{{\"index\":{index},\"containee\":{},\"containing\":{},\"verdict\":\"{}\",\
                 \"runs\":{},\"min_ns\":{min},\"mean_ns\":{mean},\"max_ns\":{max}}}",
                json::string(&containee.to_string()),
                json::string(&containing.to_string()),
                if verdict.holds() { "contained" } else { "not_contained" },
                opts.repeat,
            ));
        } else {
            let verdict_name = if verdict.holds() { "contained" } else { "not contained" };
            writeln!(
                human,
                "[{index}] {} ⊑b {}: {verdict_name:<13} min {:>8}  mean {:>8}  max {:>8}  \
                 ({} runs)",
                containee.name(),
                containing.name(),
                format_ns(min),
                format_ns(mean),
                format_ns(max),
                opts.repeat
            )
            .expect("writing to a String cannot fail");
        }
    }
    if let Some(path) = &opts.trace_out {
        write_trace(path)?;
    }
    if opts.json {
        // `hit_rate` is a JSON number or the literal `null` when the timed
        // region recorded no operations at all — both shapes round-trip
        // through `jsonv`/`verify` (pinned by tests; the totals behind the
        // rates saturate instead of wrapping on counter overflow).
        let rate_or_null = |rate: Option<f64>| match rate {
            Some(rate) => format!("{rate:.6}"),
            None => "null".to_string(),
        };
        let int_hit_rate = rate_or_null(arith.int_hit_rate());
        let allocs_per_probe = rate_or_null(alloc.heap_allocs_per_probe());
        let metrics = if opts.metrics {
            format!(",\"metrics\":{}", metrics_json(&baseline))
        } else {
            String::new()
        };
        Ok(format!(
            "{{\"command\":\"bench\",\"algorithm\":\"{}\",\"engine\":\"simplex\",\"repeat\":{},\
             \"total_ns\":{total_ns},\"arith_int_path\":{{\"small_hits\":{},\"big_fallbacks\":{},\
             \"hit_rate\":{int_hit_rate}}},\
             \"alloc\":{{\"heap_allocs\":{},\"probes\":{},\
             \"heap_allocs_per_probe\":{allocs_per_probe},\"monomial_inline\":{},\
             \"monomial_spills\":{},\"scratch_reuses\":{},\"scratch_spills\":{},\
             \"pool_rows_hwm\":{}}},\"pairs\":[{}]{metrics}}}\n",
            opts.algorithm_name,
            opts.repeat,
            arith.int_small_hits,
            arith.int_big_fallbacks,
            alloc.heap_allocs,
            alloc.probes,
            alloc.monomial_inline,
            alloc.monomial_spills,
            alloc.scratch_reuses,
            alloc.scratch_spills,
            alloc.pool_rows_hwm,
            json_pairs.join(",")
        ))
    } else {
        writeln!(
            human,
            "total: {} pair(s) × {} run(s) in {}",
            pairs.len(),
            opts.repeat,
            format_ns(total_ns)
        )
        .expect("writing to a String cannot fail");
        if let Some(rate) = arith.int_hit_rate() {
            writeln!(
                human,
                "arith int path: {:.1}% of {} integer kernel op(s) stayed machine-word \
                 ({} fell back to limbs)",
                rate * 100.0,
                arith.int_total(),
                arith.int_big_fallbacks
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(per_probe) = alloc.heap_allocs_per_probe() {
            writeln!(
                human,
                "alloc: {} heap alloc(s) over {} probe(s) ({per_probe:.1}/probe), \
                 {} scratch reuse(s), {} spill(s)",
                alloc.heap_allocs, alloc.probes, alloc.scratch_reuses, alloc.scratch_spills
            )
            .expect("writing to a String cannot fail");
        }
        if opts.metrics {
            human.push_str(&metrics_human(&baseline));
        }
        Ok(human)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `dispatch` against in-memory stdin/stdout; returns the captured
    /// stdout alongside the outcome (batch writes output even on failure).
    fn run_captured(args: &[&str], stdin: &str) -> (Result<(), CliError>, String) {
        let args: Vec<String> = args.iter().map(std::string::ToString::to_string).collect();
        let mut input = stdin.as_bytes();
        let mut out: Vec<u8> = Vec::new();
        let result = dispatch(&args, &mut input, &mut out);
        (result, String::from_utf8(out).expect("CLI output must be UTF-8"))
    }

    fn run_ok(args: &[&str], stdin: &str) -> String {
        match run_captured(args, stdin) {
            (Ok(()), out) => out,
            (Err(CliError::Usage(m) | CliError::Failure(m)), _) => {
                panic!("unexpected error: {m}")
            }
            (Err(CliError::Reported), _) => panic!("unexpected mid-stream failure"),
            (Err(CliError::BrokenPipe), _) => panic!("unexpected broken pipe"),
            (Err(CliError::Lints(code)), out) => panic!("unexpected lint exit {code}:\n{out}"),
        }
    }

    fn run_err(args: &[&str], stdin: &str) -> (bool, String) {
        match run_captured(args, stdin) {
            (Ok(()), out) => panic!("expected an error, got output:\n{out}"),
            (Err(CliError::Usage(m)), _) => (true, m),
            (Err(CliError::Failure(m)), _) => (false, m),
            (Err(CliError::Reported), _) => (false, "<reported on stderr>".to_string()),
            (Err(CliError::BrokenPipe), _) => panic!("unexpected broken pipe"),
            (Err(CliError::Lints(code)), out) => panic!("unexpected lint exit {code}:\n{out}"),
        }
    }

    /// Runs `check`, returning the exit code and the captured report.
    fn run_check(args: &[&str], stdin: &str) -> (i32, String) {
        match run_captured(args, stdin) {
            (Ok(()), out) => (0, out),
            (Err(CliError::Lints(code)), out) => (code, out),
            (Err(CliError::Usage(m) | CliError::Failure(m)), _) => {
                panic!("unexpected error: {m}")
            }
            (Err(CliError::Reported | CliError::BrokenPipe), _) => panic!("unexpected outcome"),
        }
    }

    const ACCEPTANCE: &str = "q(x) <- R^2(x, x). p(x) <- R(x, y), R(y, x).";

    #[test]
    fn decide_prints_a_verdict_for_the_acceptance_pair() {
        let out = run_ok(&["decide", "--bag"], ACCEPTANCE);
        assert!(out.contains("q ⊑b p"), "{out}");
        assert!(out.contains("contained"), "{out}");
        assert!(!out.contains("not contained"), "{out}");
    }

    #[test]
    fn decide_reports_counterexamples_with_the_violating_bag() {
        let out = run_ok(&["decide"], "q(x) <- R(x, x), S(x). p(x) <- R(x, x).");
        assert!(out.contains("not contained"), "{out}");
        assert!(out.contains("on bag {"), "{out}");
    }

    #[test]
    fn decide_supports_all_algorithms() {
        for algorithm in ["most-general", "all-probes", "guess-check"] {
            let out = run_ok(&["decide", "--algorithm", algorithm], ACCEPTANCE);
            assert!(out.contains("contained"), "{algorithm}: {out}");
        }
        let out =
            run_ok(&["decide", "--algorithm", "guess-check", "--budget", "100000"], ACCEPTANCE);
        assert!(out.contains("contained"), "{out}");
    }

    #[test]
    fn decide_set_semantics() {
        // Dropping a conjunct is a set containment but not a bag containment.
        let input = "q(x) <- R(x, x), S(x). p(x) <- R(x, x).";
        let set = run_ok(&["decide", "--set"], input);
        assert!(set.contains("⊑s") && set.contains("witness"), "{set}");
        let bag = run_ok(&["decide", "--bag"], input);
        assert!(bag.contains("not contained"), "{bag}");
    }

    #[test]
    fn equiv_decides_both_directions() {
        let out = run_ok(
            &["equiv"],
            "q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2).\n\
             q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2).",
        );
        assert!(out.contains("NOT equivalent"), "{out}");
        assert!(out.contains("forward") && out.contains("backward"), "{out}");
        let out = run_ok(&["equiv"], "q(x) <- R(x, x). q(x) <- R(x, x).");
        assert!(out.contains(": equivalent"), "{out}");
    }

    #[test]
    fn gen_is_reproducible_and_round_trips_through_decide() {
        let a = run_ok(&["gen", "spec", "--count", "3", "--seed", "42"], "");
        let b = run_ok(&["gen", "spec", "--count", "3", "--seed", "42"], "");
        assert_eq!(a, b, "gen must be byte-for-byte reproducible");
        let c = run_ok(&["gen", "spec", "--count", "3", "--seed", "43"], "");
        assert_ne!(a, c, "different seeds must give different workloads");
        // The emitted datalog feeds straight back into decide, and
        // specialisation pairs are contained by construction.
        let verdicts = run_ok(&["decide"], &a);
        assert_eq!(verdicts.lines().count(), 3, "{verdicts}");
        assert!(verdicts.lines().all(|l| l.contains("contained")), "{verdicts}");
        assert!(!verdicts.contains("not contained"), "{verdicts}");
    }

    #[test]
    fn gen_header_records_the_effective_size() {
        // The provenance header must regenerate the workload verbatim, so it
        // records the resolved --size even when the caller relied on the
        // default.
        let out = run_ok(&["gen", "spec", "--count", "2", "--seed", "5"], "");
        assert!(out.starts_with("% diophantus gen spec --count 2 --size 4 --seed 5\n"), "{out}");
        let sized = run_ok(&["gen", "spec", "--count", "2", "--size", "4", "--seed", "5"], "");
        assert_eq!(out, sized, "explicit default size must match the recorded command");
        let json = run_ok(&["gen", "--json", "--count", "1", "--size", "3", "--seed", "5"], "");
        assert!(json.contains("\"size\":3"), "{json}");
    }

    #[test]
    fn gen_covers_every_kind() {
        for kind in [
            "spec",
            "inflated",
            "contained",
            "path",
            "expmap",
            "threecol",
            "chain",
            "star",
            "clique",
        ] {
            let out = run_ok(&["gen", kind, "--count", "2", "--seed", "7"], "");
            assert_eq!(out.matches("% pair").count(), 2, "{kind}: {out}");
            // Every emitted query parses back.
            let queries = dioph_cq::parse_program(&out).expect(kind);
            assert_eq!(queries.len(), 4, "{kind}");
        }
    }

    #[test]
    fn bench_reports_latency_stats() {
        let out = run_ok(&["bench", "--repeat", "2"], ACCEPTANCE);
        assert!(out.contains("min") && out.contains("mean") && out.contains("max"), "{out}");
        assert!(out.contains("total: 1 pair(s) × 2 run(s)"), "{out}");
    }

    #[test]
    fn bench_json_reports_int_path_hit_rates() {
        // A pair whose LP genuinely pivots: the ACCEPTANCE pair
        // short-circuits on a zero row before the kernel runs, and the
        // contained direction R^2 ⊑ R^3 is refuted by the first optimality
        // check, before any pivot.
        let input = "q(x) <- R^3(x, x). p(x) <- R^2(x, x).";
        let out = run_ok(&["bench", "--json", "--repeat", "2"], input);
        assert!(out.contains("\"arith_int_path\":{\"small_hits\":"), "{out}");
        assert!(out.contains("\"big_fallbacks\":"), "{out}");
        assert!(out.contains("\"hit_rate\":"), "{out}");
        // The decider does no rational arithmetic, so there is no rational
        // fast-path block to report.
        assert!(!out.contains("arith_small_path"), "{out}");
        // The fraction-free kernel's pivot arithmetic (exact divisions and
        // gcds) lives on the integer machine-word path at this size: some
        // hits must be recorded.
        let hits: u64 = out
            .split("\"arith_int_path\":{\"small_hits\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|n| n.parse().ok())
            .expect("small_hits must be a JSON number");
        assert!(hits > 0, "{out}");
    }

    #[test]
    fn bench_json_reports_the_alloc_block() {
        // The allocation-discipline block sits next to the arith fast-path
        // tallies and covers exactly the timed repeat loops.
        // A 16-probe pair, so the per-pair scratch demonstrably serves many
        // probes per decision.
        let input = "q(x1, x2) <- R(x1, x2), R('c1', x2), R^3(x1, 'c2').\n\
                     p(x1, x2) <- R(x1, x2), R('c1', x2), R^3(x1, 'c2').";
        let out = run_ok(&["bench", "--json", "--repeat", "2", "--algorithm", "all-probes"], input);
        let doc = Json::parse(out.trim_end()).expect("bench --json must be valid JSON");
        let alloc = doc.get("alloc").unwrap_or_else(|| panic!("alloc block missing: {out}"));
        for key in [
            "heap_allocs",
            "probes",
            "heap_allocs_per_probe",
            "monomial_inline",
            "monomial_spills",
            "scratch_reuses",
            "scratch_spills",
            "pool_rows_hwm",
        ] {
            assert!(alloc.get(key).is_some(), "alloc.{key} missing: {out}");
        }
        // The timed region decided probes, so the denominator is live and
        // the per-probe figure is a number (not null). The heap count itself
        // is zero here — the in-process test harness installs no counting
        // allocator — which is exactly the documented fallback shape.
        let probes = match alloc.get("probes") {
            Some(Json::Number(n)) => *n,
            other => panic!("alloc.probes must be a number, got {other:?}"),
        };
        assert!(probes > 0.0, "{out}");
        assert!(
            matches!(alloc.get("heap_allocs_per_probe"), Some(Json::Number(_))),
            "per-probe figure must be a number when probes were decided: {out}"
        );
        // All-probes over one pair reuses the per-pair scratch: every probe
        // after the first of each repeat counts as a warmed reuse.
        let reuses = match alloc.get("scratch_reuses") {
            Some(Json::Number(n)) => *n,
            other => panic!("alloc.scratch_reuses must be a number, got {other:?}"),
        };
        assert!(reuses > 0.0, "{out}");
    }

    #[test]
    fn bench_json_round_trips_through_jsonv_and_verify() {
        // The bench document must parse with the in-house JSON reader —
        // including the `"hit_rate":null` shape when a counter saw no ops —
        // and `verify` must accept it instead of erroring on the
        // certificate-free pair entries.
        let input = "q(x) <- R^2(x, x). p(x) <- R^3(x, x).";
        let out = run_ok(&["bench", "--json", "--repeat", "2"], input);
        let doc = Json::parse(out.trim_end()).expect("bench --json must be valid JSON");
        let rate = doc
            .get("arith_int_path")
            .and_then(|s| s.get("hit_rate"))
            .unwrap_or_else(|| panic!("arith_int_path.hit_rate missing: {out}"));
        assert!(
            matches!(rate, Json::Null | Json::Number(_)),
            "arith_int_path.hit_rate must be null or a number, got {rate:?}"
        );
        assert!(doc.get("arith_small_path").is_none(), "{out}");
        let verified = run_ok(&["verify"], &out);
        assert!(verified.contains("bench timing entry"), "{verified}");
        assert!(verified.contains("1 timing-only entry"), "{verified}");
        assert!(verified.contains("0 failure(s)"), "{verified}");
        // A synthetic zero-op document pins the null branch end to end. It
        // keeps the older envelope's `arith_small_path` block, so `verify`
        // still accepts bench output written before that block was dropped.
        let null_doc = "{\"command\":\"bench\",\"algorithm\":\"most-general\",\
             \"engine\":\"simplex\",\"repeat\":1,\"total_ns\":0,\
             \"arith_small_path\":{\"small_hits\":0,\"big_fallbacks\":0,\"hit_rate\":null},\
             \"arith_int_path\":{\"small_hits\":0,\"big_fallbacks\":0,\"hit_rate\":null},\
             \"pairs\":[{\"index\":1,\"containee\":\"q(x) <- R(x, x)\",\
             \"containing\":\"p(x) <- R(x, x)\",\"verdict\":\"contained\",\"runs\":1,\
             \"min_ns\":1,\"mean_ns\":1,\"max_ns\":1}]}";
        assert_eq!(
            Json::parse(null_doc)
                .expect("shape must parse")
                .get("arith_small_path")
                .and_then(|s| s.get("hit_rate")),
            Some(&Json::Null)
        );
        let verified = run_ok(&["verify"], null_doc);
        assert!(verified.contains("0 failure(s)"), "{verified}");
    }

    #[test]
    fn certificate_less_entries_outside_bench_envelopes_still_fail_verification() {
        // Tamper scenario: strip a decide pair's "result" certificate and
        // plant a bare "verdict" string. The bench timing-entry path must
        // not wave it through — only a "command":"bench" envelope may carry
        // certificate-less entries.
        let honest = run_ok(&["decide", "--json"], "q(x) <- R(x, x), S(x). p(x) <- R(x, x).");
        let (before, _) = honest.split_once(",\"result\":").expect("decide emits a result");
        let tampered = format!("{before},\"verdict\":\"not_contained\"}}]}}\n");
        assert!(Json::parse(tampered.trim_end()).is_ok(), "fixture must stay valid JSON");
        let (result, _) = run_captured(&["verify"], &tampered);
        let Err(CliError::Failure(message)) = result else {
            panic!("a certificate-less decide entry must fail verification");
        };
        assert!(message.contains("neither"), "{message}");
    }

    #[test]
    fn json_outputs_have_the_expected_envelopes() {
        let out = run_ok(&["decide", "--json"], ACCEPTANCE);
        assert!(out.starts_with("{\"command\":\"decide\",\"semantics\":\"bag\""), "{out}");
        assert!(out.contains("\"verdict\":\"contained\""), "{out}");
        let out = run_ok(&["equiv", "--json"], "q(x) <- R(x, x). q(x) <- R(x, x).");
        assert!(out.contains("\"equivalent\":true"), "{out}");
        let out = run_ok(&["gen", "--json", "--count", "1", "--seed", "1"], "");
        assert!(out.starts_with("{\"command\":\"gen\""), "{out}");
        let out = run_ok(&["bench", "--json", "--repeat", "1"], ACCEPTANCE);
        assert!(out.contains("\"min_ns\":"), "{out}");
    }

    #[test]
    fn batch_streams_one_verdict_line_per_pair_in_input_order() {
        let input = "q1(x) <- R(x, x). p1(x) <- R(x, x).\n\
                     q2(x) <- R(x, x), S(x). p2(x) <- R(x, x).\n\
                     q3(x) <- R^2(x, x). p3(x) <- R(x, y), R(y, x).\n";
        for jobs in ["1", "2", "4"] {
            let out = run_ok(&["batch", "--jobs", jobs], input);
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(lines.len(), 3, "jobs={jobs}: {out}");
            assert!(lines[0].starts_with("[1] q1 ⊑b p1: contained"), "{out}");
            assert!(lines[1].starts_with("[2] q2 ⊑b p2: not contained"), "{out}");
            assert!(lines[2].starts_with("[3] q3 ⊑b p3: contained"), "{out}");
        }
    }

    #[test]
    fn batch_json_lines_carry_the_same_certificates_as_decide() {
        let input = "q(x) <- R(x, x), S(x). p(x) <- R(x, x).";
        let batch = run_ok(&["batch", "--json", "--jobs", "2"], input);
        let decide = run_ok(&["decide", "--json"], input);
        // One JSON object per line, embedding the same result object the
        // decide envelope carries.
        assert_eq!(batch.lines().count(), 1, "{batch}");
        assert!(batch.starts_with("{\"id\":1,"), "{batch}");
        let result = batch
            .split_once("\"result\":")
            .map(|(_, tail)| tail.trim_end().trim_end_matches('}'))
            .unwrap();
        assert!(decide.contains(result), "decide output {decide} must embed {result}");
    }

    #[test]
    fn batch_empty_stream_is_not_an_error() {
        assert_eq!(run_ok(&["batch"], ""), "");
        assert_eq!(run_ok(&["batch"], "% nothing but comments\n"), "");
    }

    #[test]
    fn batch_without_keep_going_stops_at_the_first_failure() {
        let input = "q1(x) <- R(x, x). p1(x) <- R(x, x).\n\
                     broken(x <- R(x, x). p2(x) <- R(x, x).\n\
                     q3(x) <- R(x, x). p3(x) <- R(x, x).\n";
        let (result, out) = run_captured(&["batch"], input);
        // The diagnostic goes straight to stderr mid-stream (the abort may
        // have to wait for the input's next line), so dispatch reports a
        // bare already-reported failure.
        assert!(matches!(result, Err(CliError::Reported)), "expected a failure, got {out}");
        assert!(out.contains("[1] q1 ⊑b p1"), "verdicts before the failure stream out: {out}");
        assert!(!out.contains("[3]"), "the stream must stop at the failure: {out}");
    }

    #[test]
    fn batch_keep_going_emits_error_lines_and_continues() {
        let input = "q1(x) <- R(x, x). p1(x) <- R(x, x).\n\
                     broken(x <- R(x, x). p2(x) <- R(x, x).\n\
                     q3(x) <- R(x, y). p3(x) <- R(x, x).\n\
                     q4(x) <- R(x, x). p4(x) <- R(x, x).\n";
        let (result, out) = run_captured(&["batch", "--keep-going", "--jobs", "3"], input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[1].starts_with("[2] parse error:"), "{out}");
        assert!(lines[2].starts_with("[3] decide error:"), "{out}");
        assert!(lines[2].contains("projection-free"), "{out}");
        assert!(lines[3].starts_with("[4] q4 ⊑b p4: contained"), "{out}");
        // The run still exits non-zero so scripts notice the failures.
        let Err(CliError::Failure(message)) = result else {
            panic!("keep-going with failures must still fail overall");
        };
        assert!(message.contains("2 of 4"), "{message}");

        let json = run_captured(&["batch", "--keep-going", "--json"], input).1;
        assert!(json.lines().count() == 4, "{json}");
        assert!(json.contains("\"error\":{\"stage\":\"parse\""), "{json}");
        assert!(json.contains("\"error\":{\"stage\":\"decide\""), "{json}");
    }

    #[test]
    fn decide_and_equiv_with_jobs_match_the_sequential_output_bytes() {
        // equiv needs both sides projection-free (each acts as containee), so
        // it gets a handcrafted workload; decide takes a generated one.
        let equiv_workload = "q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2).\n\
                              q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2).\n\
                              q3(x) <- R(x, x), S(x). q4(x) <- R(x, x).\n";
        let decide_workload = run_ok(&["gen", "inflated", "--count", "4", "--seed", "11"], "");
        for (command, workload) in
            [("decide", &decide_workload), ("equiv", &equiv_workload.to_string())]
        {
            for extra in [&[][..], &["--json"][..], &["--algorithm", "all-probes"][..]] {
                let mut base = vec![command];
                base.extend_from_slice(extra);
                let sequential = run_ok(&base, workload);
                let mut parallel_args = base.clone();
                parallel_args.extend_from_slice(&["--jobs", "4"]);
                let parallel = run_ok(&parallel_args, workload);
                assert_eq!(
                    parallel, sequential,
                    "{command} {extra:?} must be byte-identical under --jobs 4"
                );
            }
        }
    }

    #[test]
    fn verify_confirms_decide_equiv_and_batch_certificates() {
        let failing = "q(x) <- R(x, x), S(x). p(x) <- R(x, x).";
        let decide_json = run_ok(&["decide", "--json"], failing);
        let out = run_ok(&["verify"], &decide_json);
        assert!(out.contains("[1] q ⋢b p: counterexample verified (2 > 1)"), "{out}");
        assert!(out.contains("verify: 1 counterexample(s) verified"), "{out}");

        let equiv_json = run_ok(&["equiv", "--json"], "q(x) <- R^2(x, x). p(x) <- R(x, x).");
        let out = run_ok(&["verify"], &equiv_json);
        assert!(out.contains("[1 forward]"), "{out}");
        assert!(out.contains("[1 backward]"), "{out}");

        let batch_json = run_captured(
            &["batch", "--json", "--keep-going"],
            "q(x) <- R(x, x), S(x). p(x) <- R(x, x).\nbroken( <- R(x, x). p(x) <- R(x, x).\n",
        )
        .1;
        let out = run_ok(&["verify"], &batch_json);
        assert!(out.contains("[1] q ⋢b p: counterexample verified"), "{out}");
        assert!(out.contains("[2] recorded parse error: nothing to re-check"), "{out}");
    }

    #[test]
    fn verify_rejects_tampered_certificates() {
        let failing = "q(x) <- R(x, x), S(x). p(x) <- R(x, x).";
        let honest = run_ok(&["decide", "--json"], failing);

        // Tamper with the recorded multiplicity: the evaluator must object.
        let tampered =
            honest.replace("\"containee_multiplicity\":\"2\"", "\"containee_multiplicity\":\"9\"");
        assert_ne!(honest, tampered, "the fixture must actually change");
        let (result, out) = run_captured(&["verify"], &tampered);
        assert!(matches!(result, Err(CliError::Failure(_))));
        assert!(out.contains("VERIFICATION FAILED"), "{out}");
        assert!(out.contains("evaluator says 2"), "{out}");

        // Tamper with the bag so it no longer violates containment.
        let harmless = honest.replace("\"multiplicity\":\"2\"", "\"multiplicity\":\"1\"");
        let (result, out) = run_captured(&["verify"], &harmless);
        assert!(matches!(result, Err(CliError::Failure(_))), "{out}");
        assert!(out.contains("VERIFICATION FAILED"), "{out}");
    }

    #[test]
    fn verify_rejects_unusable_inputs() {
        let (usage, _) = run_err(&["verify", "--json"], "");
        assert!(usage, "verify takes no flags");
        let (usage, message) = run_err(&["verify"], "{\"pairs\":[]}");
        assert!(!usage);
        assert!(message.contains("no certificates"), "{message}");
        let (_, message) = run_err(&["verify"], "not json at all");
        assert!(message.contains("not JSON"), "{message}");
        let (_, message) = run_err(&["verify"], "{\"something\":\"else\"}");
        assert!(message.contains("unrecognised"), "{message}");
    }

    #[test]
    fn parse_errors_name_the_line_and_column() {
        let (usage, message) = run_err(&["decide"], "q(x <- R(x, x).");
        assert!(!usage, "parse errors are failures, not usage errors");
        assert!(message.contains("<stdin>:1:5"), "{message}");
    }

    #[test]
    fn unpaired_queries_are_rejected() {
        let (_, message) = run_err(&["decide"], "q(x) <- R(x, x).");
        assert!(message.contains("even number"), "{message}");
        let (_, message) = run_err(&["decide"], "% only comments\n");
        assert!(message.contains("no queries"), "{message}");
    }

    #[test]
    fn undecidable_containees_fail_with_context() {
        let (_, message) = run_err(&["decide"], "q(x) <- R(x, y). p(x) <- R(x, x).");
        assert!(message.contains("projection-free"), "{message}");
    }

    #[test]
    fn decide_fragment_errors_name_the_position_of_the_variable() {
        // The projection-bearing variable y sits at line 1, column 14.
        let (usage, message) = run_err(&["decide"], "q(x) <- R(x, y).\np(x) <- R(x, x).");
        assert!(!usage);
        assert!(message.starts_with("<stdin>:1:14: error[D002]"), "{message}");
        assert!(message.contains("cannot decide q ⊑b p"), "{message}");
        // An unsafe containee points at the offending head variable.
        let (_, message) = run_err(&["decide"], "q(x, z) <- R(x, x).\np(x, z) <- R(x, z).");
        assert!(message.starts_with("<stdin>:1:6: error[D001]"), "{message}");
        // equiv validates both sides; a right-hand defect is positioned too.
        let (_, message) = run_err(&["equiv"], "q(x) <- R(x, x).\np(x) <- R(x, y).\n");
        assert!(message.starts_with("<stdin>:2:14: error[D002]"), "{message}");
        assert!(message.contains("cannot decide p ⊑b q"), "{message}");
        // decide only validates the left side: the same program decides fine.
        let out = run_ok(&["decide"], "q(x) <- R(x, x).\np(x) <- R(x, y).\n");
        assert!(out.contains("q ⊑b p"), "{out}");
        // Set semantics accepts projection-bearing containees unchanged.
        let out = run_ok(&["decide", "--set"], "q(x) <- R(x, y).\np(x) <- R(x, x).");
        assert!(out.contains("⊑s"), "{out}");
    }

    #[test]
    fn check_clean_program_is_exit_zero_with_fragment_labels() {
        let (code, out) = run_check(&["check"], ACCEPTANCE);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("pair 1 (q ⊑b p): paper-decidable"), "{out}");
        assert!(!out.contains("error["), "{out}");
    }

    #[test]
    fn check_reports_spanned_diagnostics_with_severity_exit_codes() {
        // An error-level defect (projection-bearing containee): exit 2.
        let (code, out) = run_check(&["check"], "q(x) <- R(x, y).\np(x) <- R(x, x).");
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("<stdin>:1:14: error[D002]"), "{out}");
        assert!(out.contains("pair 1 (q ⊑b p): bag-set"), "{out}");
        assert!(out.contains("check: 1 error(s)"), "{out}");
        // A warning-level defect (duplicate atom): exit 1.
        let dup = "q(x) <- R(x, x), R(x, x).\np(x) <- R(x, x).";
        let (code, out) = run_check(&["check"], dup);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("warning[D013]"), "{out}");
        // --deny warnings promotes it to exit 2; --allow silences it.
        let (code, _) = run_check(&["check", "--deny", "warnings"], dup);
        assert_eq!(code, 2);
        let (code, out) = run_check(&["check", "--allow", "duplicate-atom"], dup);
        assert_eq!(code, 0, "{out}");
        // -W opts an allow-by-default lint in.
        let cart = "q(x, y) <- R(x, x), S(y, y).\np(x, y) <- R(x, y), S(y, x).";
        let (code, _) = run_check(&["check"], cart);
        assert_eq!(code, 0);
        let (code, out) = run_check(&["check", "-W", "cartesian-product-body"], cart);
        assert_eq!(code, 1);
        assert!(out.contains("warning[D011]"), "{out}");
        // A syntax error is a D000 diagnostic, not a CLI failure.
        let (code, out) = run_check(&["check"], "q(x <- R(x, x).");
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("error[D000]"), "{out}");
    }

    #[test]
    fn check_json_documents_the_run() {
        let (code, out) =
            run_check(&["check", "--json"], "q(x) <- R(x, x), R(x, x).\np(x) <- R(x, x).");
        assert_eq!(code, 1, "{out}");
        assert!(out.starts_with("{\"command\":\"check\","), "{out}");
        assert!(out.contains("\"code\":\"D013\""), "{out}");
        assert!(out.contains("\"span\":{\"start\":17,\"end\":24}"), "{out}");
        assert!(out.contains("\"fragment\":\"paper-decidable\""), "{out}");
        assert!(out.contains("\"cost\":{\"probe_space\":1,"), "{out}");
        assert!(
            out.contains("\"summary\":{\"errors\":0,\"warnings\":1,\"notes\":0,\"exit\":1}"),
            "{out}"
        );
        assert!(out.ends_with("}\n"), "{out}");
    }

    #[test]
    fn check_rejects_unknown_lints_and_flags() {
        assert!(run_err(&["check", "--deny", "D999"], "").0);
        assert!(run_err(&["check", "--allow", "nonsense"], "").0);
        assert!(run_err(&["check", "-W"], "").0, "-W needs a value");
        assert!(run_err(&["check", "--frobnicate"], "").0);
    }

    #[test]
    fn usage_errors() {
        assert!(run_err(&["frobnicate"], "").0);
        assert!(run_err(&["decide", "--algorithm", "magic"], "").0);
        // The LP kernel is not selectable: stale engine/route flags from
        // older scripts fail loudly instead of being ignored.
        assert!(run_err(&["decide", "--lp-route", "bareiss"], "").0);
        assert!(run_err(&["decide", "--engine", "fm"], "").0);
        assert!(run_err(&["gen", "nope"], "").0);
        assert!(run_err(&["gen", "--seed"], "").0);
        assert!(run_err(&["bench", "--set"], "").0);
        assert!(run_err(&["bench", "--repeat", "0"], "").0);
        assert!(run_err(&["decide", "--repeat", "3"], "").0, "--repeat is bench-only");
        assert!(run_err(&["equiv", "--repeat", "3"], "").0, "--repeat is bench-only");
        assert!(run_err(&["decide", "--set", "--algorithm", "all-probes"], "").0);
        assert!(run_err(&["decide", "--set", "--budget", "9"], "").0);
        assert!(run_err(&["decide", "--budget", "9"], "").0, "budget needs guess-check");
        assert!(run_err(&["gen", "path", "--size", "0"], "").0, "path needs size >= 1");
        assert!(run_err(&["gen", "threecol", "--size", "0"], "").0);
        assert!(run_err(&["gen", "chain", "--size", "0"], "").0, "chain needs size >= 1");
        assert!(run_err(&["gen", "star", "--size", "0"], "").0, "star needs size >= 1");
        assert!(run_err(&["gen", "clique", "--size", "1"], "").0, "clique needs size >= 2");
        assert!(run_err(&["decide", "--jobs", "0"], "").0, "--jobs must be positive");
        assert!(run_err(&["decide", "--set", "--jobs", "2"], "").0, "set path has no engine");
        assert!(run_err(&["decide", "--keep-going"], "").0, "--keep-going is batch-only");
        assert!(run_err(&["bench", "--jobs", "2"], "").0, "bench is sequential");
        assert!(run_err(&["bench", "--keep-going"], "").0);
        assert!(run_err(&["batch", "--set"], "").0, "batch is bag-only");
        assert!(run_err(&["batch", "--repeat", "2"], "").0, "--repeat is bench-only");
        assert!(run_err(&["decide", "--set", "--metrics"], "").0, "metrics is bag-only");
        assert!(run_err(&["decide", "--bag-set", "--trace-out", "t.json"], "").0);
        assert!(run_err(&["equiv", "--set", "--metrics"], "").0);
        assert!(run_err(&["gen", "--metrics"], "").0, "gen has no decision pipeline");
        assert!(run_err(&["check", "--trace-out", "t.json"], "").0);
        assert!(run_err(&["decide", "--trace-out"], "").0, "--trace-out needs a FILE");
        assert!(run_err(&[], "").0);
    }

    // -- metrics / tracing --------------------------------------------------
    //
    // In-process tests share one registry across the whole (parallel) test
    // binary, so commands running concurrently can bleed counter increments
    // into each other's deltas. These tests therefore assert structure only;
    // the byte-for-byte determinism contract is pinned by tests/metrics.rs,
    // which spawns one isolated process per command line.

    #[test]
    fn decide_json_metrics_member_is_well_formed() {
        let out = run_ok(&["decide", "--json", "--metrics"], ACCEPTANCE);
        assert!(out.contains(",\"metrics\":{\"counters\":{"), "{out}");
        let doc = Json::parse(out.trim_end()).expect("envelope must stay valid JSON");
        let metrics = doc.get("metrics").expect("metrics member");
        let Some(Json::Object(counters)) = metrics.get("counters") else {
            panic!("counters must be an object: {out}");
        };
        let expected: Vec<&str> = dioph_obs::counters()
            .iter()
            .filter(|c| c.stability() == dioph_obs::Stability::Deterministic)
            .map(|c| c.name())
            .collect();
        let names: Vec<&str> = counters.keys().map(String::as_str).collect();
        assert_eq!(names, expected, "deterministic block must hold exactly the registry cells");
        assert!(metrics.get("volatile").is_some(), "{out}");
        assert!(metrics.get("phases").and_then(Json::as_array).is_some(), "{out}");
        assert!(metrics.get("workers").and_then(Json::as_array).is_some(), "{out}");
        // Without the flag the envelope must not mention metrics at all.
        let plain = run_ok(&["decide", "--json"], ACCEPTANCE);
        assert!(!plain.contains("metrics"), "{plain}");
    }

    #[test]
    fn decide_human_metrics_breakdown_is_labelled() {
        let out = run_ok(&["decide", "--metrics"], ACCEPTANCE);
        assert!(out.contains("metrics (this command):"), "{out}");
        assert!(out.contains("engine.pairs_decided"), "{out}");
        let plain = run_ok(&["decide"], ACCEPTANCE);
        assert!(!plain.contains("metrics"), "{plain}");
    }

    #[test]
    fn batch_bench_fuzz_emit_metrics_under_json() {
        let batch = run_ok(&["batch", "--json", "--metrics"], ACCEPTANCE);
        let trailer = batch.lines().last().expect("batch emits a metrics trailer");
        let doc = Json::parse(trailer).expect("trailer must be JSON");
        assert!(doc.get("metrics").and_then(|m| m.get("counters")).is_some(), "{batch}");

        let bench = run_ok(&["bench", "--json", "--repeat", "1", "--metrics"], ACCEPTANCE);
        let doc = Json::parse(bench.trim_end()).expect("bench envelope must be JSON");
        assert!(doc.get("metrics").and_then(|m| m.get("phases")).is_some(), "{bench}");

        let fuzz = run_ok(&["fuzz", "--json", "--cases", "2", "--metrics"], "");
        let doc = Json::parse(fuzz.trim_end()).expect("fuzz envelope must be JSON");
        assert!(doc.get("metrics").and_then(|m| m.get("counters")).is_some(), "{fuzz}");
        assert!(doc.get("summary").is_some(), "metrics must not displace the report: {fuzz}");
    }

    #[test]
    fn trace_out_writes_a_chrome_trace() {
        let dir = std::env::temp_dir().join(format!("dioph-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("decide.trace.json");
        let path_str = path.to_str().expect("temp path is UTF-8");
        run_ok(&["decide", "--jobs", "2", "--trace-out", path_str], ACCEPTANCE);
        let text = std::fs::read_to_string(&path).expect("trace file must exist");
        let doc = Json::parse(&text).expect("trace must be valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
        assert!(!events.is_empty(), "{text}");
        for event in events {
            let ph = event.get("ph").and_then(Json::as_str).expect("ph");
            assert!(matches!(ph, "X" | "M"), "unexpected phase record {ph}: {text}");
            assert!(event.get("pid").is_some() && event.get("tid").is_some(), "{text}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fully synthetic, value-controlled metrics block (in-process runs
    /// cannot guarantee delta purity, so verify is tested against synthetic
    /// splices rather than live output).
    fn synthetic_metrics(contained: u64, pairs: u64, volatile: &str) -> String {
        format!(
            "{{\"counters\":{{\"containment.decided_by.dominance\":{contained},\
             \"containment.decided_by.lp\":0,\"containment.decided_by.no_mapping\":0,\
             \"engine.batch.failures\":0,\"engine.batch.jobs\":0,\
             \"engine.pairs_decided\":{pairs},\"engine.verdicts.contained\":{contained},\
             \"engine.verdicts.not_contained\":0,\"parse.queries\":2}},\
             \"volatile\":{{{volatile}}},\
             \"phases\":[{{\"phase\":\"probe\",\"calls\":4,\"wall_ns\":812}}],\
             \"workers\":[{{\"pool\":\"probe\",\"worker\":0,\"claims\":4,\
             \"busy_ns\":812,\"max_unit_ns\":311}}]}}"
        )
    }

    #[test]
    fn verify_acknowledges_metrics_blocks() {
        let envelope = run_ok(&["decide", "--json"], ACCEPTANCE);
        let spliced = format!(
            "{},\"metrics\":{}}}\n",
            envelope.trim_end().strip_suffix('}').expect("decide envelope is an object"),
            synthetic_metrics(1, 1, "\"lp.bareiss.pivots\":3")
        );
        let out = run_ok(&["verify"], &spliced);
        assert!(out.contains("[metrics] metrics block verified"), "{out}");
        assert!(out.contains("1 metrics block(s), 0 failure(s)"), "{out}");

        // The batch trailer shape: a bare {"metrics":...} line.
        let trailer = format!("{{\"metrics\":{}}}\n", synthetic_metrics(2, 3, ""));
        let out = run_ok(&["verify"], &trailer);
        assert!(out.contains("1 metrics block(s)"), "{out}");

        // Metrics-free documents keep the historical summary line verbatim.
        let out = run_ok(&["verify"], &envelope);
        assert!(!out.contains("metrics"), "{out}");
    }

    #[test]
    fn verify_rejects_corrupted_metrics_blocks() {
        let reject = |metrics: &str, why: &str| {
            let line = format!("{{\"metrics\":{metrics}}}\n");
            let (usage, message) = run_err(&["verify"], &line);
            assert!(!usage, "{why}: expected a verification failure, got usage error");
            assert!(message.contains("failed verification"), "{why}: {message}");
        };
        // More verdicts than decided pairs.
        reject(&synthetic_metrics(5, 1, ""), "verdict invariant");
        // A volatile counter the registry does not define.
        reject(&synthetic_metrics(1, 1, "\"lp.warp.calls\":1"), "unknown volatile counter");
        // A deterministic block missing registry cells.
        reject(
            "{\"counters\":{\"engine.pairs_decided\":1},\"volatile\":{},\"phases\":[],\
             \"workers\":[]}",
            "incomplete deterministic block",
        );
        // Negative and fractional counters are not counts.
        reject(&synthetic_metrics(1, 1, "\"lp.bareiss.pivots\":-2"), "negative volatile counter");
    }

    #[test]
    fn verify_names_a_failed_metrics_block_alone() {
        // The counterexample verifies; only the metrics block is rejected,
        // so the exit message must not blame a counterexample.
        let envelope = run_ok(&["decide", "--json"], "q(x) <- R(x, x), S(x). p(x) <- R(x, x).");
        assert!(run_ok(&["verify"], &envelope).contains("1 counterexample(s) verified"));
        let spliced = format!(
            "{},\"metrics\":{}}}\n",
            envelope.trim_end().strip_suffix('}').expect("decide envelope is an object"),
            synthetic_metrics(5, 1, "")
        );
        let (usage, message) = run_err(&["verify"], &spliced);
        assert!(!usage, "expected a verification failure, got usage error: {message}");
        assert!(message.contains("1 metrics block(s) failed verification"), "{message}");
        assert!(!message.contains("counterexample"), "{message}");
    }

    #[test]
    fn verify_rejects_the_retired_rational_counters() {
        // The registry no longer has `arith.small_hits`/`arith.big_fallbacks`
        // (the decider does no rational arithmetic), so a metrics block
        // naming either is refused rather than silently accepted.
        for name in ["arith.small_hits", "arith.big_fallbacks"] {
            assert!(dioph_obs::registry::counters().iter().all(|c| c.name() != name), "{name}");
            let line =
                format!("{{\"metrics\":{}}}\n", synthetic_metrics(1, 1, &format!("\"{name}\":3")));
            let (usage, message) = run_err(&["verify"], &line);
            assert!(!usage, "{name}: expected a verification failure, got usage error");
            assert!(message.contains("failed verification"), "{name}: {message}");
        }
    }

    #[test]
    fn help_and_version() {
        let help = run_ok(&["help"], "");
        for needle in
            ["decide", "equiv", "fuzz", "gen", "bench", "docs/grammar.md", "ARCHITECTURE.md"]
        {
            assert!(help.contains(needle), "help must mention {needle}");
        }
        let version = run_ok(&["--version"], "");
        assert!(version.starts_with("diophantus "), "{version}");
    }

    #[test]
    fn decide_bag_set_semantics_coincides_with_set_on_the_fragment() {
        // R^2(x,x) ⊑ R(x,x): contained under set and bag-set semantics
        // (multiplicities are invisible on set databases), NOT under bag.
        let input = "q(x) <- R^2(x, x). p(x) <- R(x, x).";
        let out = run_ok(&["decide", "--bag-set"], input);
        assert!(out.contains("q ⊑bs p"), "{out}");
        assert!(out.contains("contained (witness homomorphism"), "{out}");
        let bag = run_ok(&["decide", "--bag"], input);
        assert!(bag.contains("not contained"), "{bag}");
        let set = run_ok(&["decide", "--set"], input);
        assert_eq!(
            out.replace("⊑bs", "⊑s"),
            set,
            "bag-set verdicts must coincide with set on the fragment"
        );
        // equiv decides both directions with the ≡bs symbol.
        let out = run_ok(&["equiv", "--bag-set"], input);
        assert!(out.contains("q ≡bs p: equivalent"), "{out}");
        // The JSON envelope names the semantics.
        let json = run_ok(&["decide", "--bag-set", "--json"], input);
        assert!(json.contains("\"semantics\":\"bag-set\""), "{json}");
        assert!(json.contains("\"witness\":"), "{json}");
    }

    #[test]
    fn decide_bag_set_enforces_the_containee_fragment() {
        // Unlike --set, the bag-set mode rejects projection-bearing
        // containees — the Section 3 coincidence only covers the fragment.
        let input = "q(x) <- R(x, y).\np(x) <- R(x, x).";
        let (usage, message) = run_err(&["decide", "--bag-set"], input);
        assert!(!usage);
        assert!(message.starts_with("<stdin>:1:14: error[D002]"), "{message}");
        assert!(message.contains("cannot decide q ⊑bs p"), "{message}");
        let out = run_ok(&["decide", "--set"], input);
        assert!(out.contains("⊑s"), "{out}");
        // Bag-only engine flags stay rejected under --bag-set.
        assert!(run_err(&["decide", "--bag-set", "--jobs", "2"], "").0);
        assert!(run_err(&["decide", "--bag-set", "--algorithm", "all-probes"], "").0);
        assert!(run_err(&["batch", "--bag-set"], "").0, "batch is bag-only");
        assert!(run_err(&["bench", "--bag-set"], "").0, "bench is bag-only");
    }

    #[test]
    fn fuzz_runs_clean_and_is_reproducible() {
        let args = &["fuzz", "--cases", "8", "--seed", "7", "--samples", "8"];
        let a = run_ok(args, "");
        assert!(a.contains("fuzz seed 7: 8 case(s)"), "{a}");
        assert!(a.contains("0 disagreement(s)"), "{a}");
        assert_eq!(a, run_ok(args, ""), "fuzz must be reproducible");
    }

    #[test]
    fn fuzz_json_is_byte_identical_across_jobs() {
        let base = &["fuzz", "--cases", "6", "--seed", "3", "--samples", "8", "--json"];
        let reference = run_ok(base, "");
        assert!(
            reference.starts_with("{\"command\":\"fuzz\",\"seed\":3,\"cases\":6,"),
            "{reference}"
        );
        for jobs in ["2", "4"] {
            let mut args = base.to_vec();
            args.extend_from_slice(&["--jobs", jobs]);
            assert_eq!(run_ok(&args, ""), reference, "fuzz --json diverged under --jobs {jobs}");
        }
    }

    #[test]
    fn fuzz_injected_bugs_exit_nonzero_with_minimized_reproducers() {
        for bug in ["flip-verdict", "tamper-certificate"] {
            let (result, out) = run_captured(
                &["fuzz", "--cases", "8", "--seed", "7", "--samples", "8", "--inject", bug],
                "",
            );
            let Err(CliError::Failure(message)) = result else {
                panic!("--inject {bug} must make the run fail:\n{out}");
            };
            assert!(message.contains("disagreement(s) found"), "{bug}: {message}");
            assert!(out.contains("minimized containee:"), "{bug}: {out}");
            assert!(out.contains("minimized containing:"), "{bug}: {out}");
        }
    }

    #[test]
    fn fuzz_usage_errors() {
        assert!(run_err(&["fuzz", "--cases", "3", "--replay", "dir"], "").0);
        assert!(run_err(&["fuzz", "--inject", "nonsense"], "").0);
        assert!(run_err(&["fuzz", "--lp-route", "bareiss"], "").0, "the LP kernel is fixed");
        assert!(run_err(&["fuzz", "--jobs", "0"], "").0);
        assert!(run_err(&["fuzz", "--max-adom", "0"], "").0);
        assert!(run_err(&["fuzz", "--max-mult", "0"], "").0);
        assert!(run_err(&["fuzz", "--frobnicate"], "").0);
        assert!(run_err(&["fuzz", "positional"], "").0);
        let (usage, message) = run_err(&["fuzz", "--replay", "/nonexistent-corpus-dir"], "");
        assert!(!usage, "a missing corpus directory is a failure, not a usage error");
        assert!(message.contains("/nonexistent-corpus-dir"), "{message}");
    }

    #[test]
    fn verify_accepts_fuzz_reports() {
        // A clean report: every recorded certificate re-checks.
        let report =
            run_ok(&["fuzz", "--cases", "6", "--seed", "3", "--samples", "8", "--json"], "");
        let out = run_ok(&["verify"], &report);
        assert!(out.contains("0 failure(s)"), "{out}");

        // Per-pair decision errors are acknowledged, not fatal.
        let with_error = "{\"command\":\"fuzz\",\"pairs\":[{\"index\":0,\
             \"error\":{\"message\":\"out of fragment\",\"code\":\"D002\"}}],\
             \"disagreements\":[]}";
        let out = run_ok(&["verify"], with_error);
        assert!(out.contains("recorded decide error (D002)"), "{out}");
        assert!(out.contains("1 recorded error line(s), 0 failure(s)"), "{out}");
    }

    #[test]
    fn verify_rechecks_fuzz_disagreement_witnesses() {
        // An injected verdict flip leaves shrunk witnesses in the report;
        // verify must replay them through the independent evaluator. The
        // corrupted pair entries themselves must FAIL verification — the
        // report records the lie the injection told.
        let (result, report) = run_captured(
            &[
                "fuzz",
                "--cases",
                "8",
                "--seed",
                "7",
                "--samples",
                "8",
                "--json",
                "--inject",
                "flip-verdict",
            ],
            "",
        );
        assert!(matches!(result, Err(CliError::Failure(_))));
        let (vresult, out) = run_captured(&["verify"], &report);
        assert!(matches!(vresult, Err(CliError::Failure(_))), "{out}");
        assert!(out.contains("VERIFICATION FAILED"), "{out}");
        assert!(out.contains("disagreement"), "{out}");
        if out.contains("minimized witness verified") {
            assert!(out.contains("contained-refuted-by-database"), "{out}");
        }
    }
}
