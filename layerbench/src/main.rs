//! # dioph-layerbench — a seeded, layered benchmark of bag containment
//!
//! One in-process harness that links the workspace crates and measures each
//! exponential layer of the decision procedure from outside, by timing calls
//! into the layer's public functions.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload compile_clique --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it are a
//! human summary. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones and writes its spans to
//! `layerbench/traces/<workload>-seed<seed>.jsonl`.
//!
//! ## Workloads
//!
//! Each is generated from `--seed` and loads a different layer. LP route and
//! algorithm are the library defaults, except that `probe_stream` names
//! all-probes, so a change of default route needs no edit here.
//!
//! * `compile_clique` — one client deciding clique-6 self-containment with
//!   pendants at jobs=1 (most-general probe). Every pair has D(6) = 265
//!   containment mappings, a 1-pivot LP and is contained by construction,
//!   so compile (the Chandra–Merlin-hard mapping search) is nearly all of
//!   the verdict. It is the workload for **cq** and **containment**.
//! * `lp_star` — the same loop on Boolean unary stars: 5 ground unknowns,
//!   125 mappings, and a phase-1 LP of a few hundred pivots over up to 125
//!   rows. The LP is nearly all of the verdict, and most verdicts are not
//!   contained, so **bagdb** verification runs on them too. It is the
//!   workload for **poly**, **linalg** and **arith**.
//! * `probe_stream` — `run_batch` at jobs=2 over all-probes, fed as capacity
//!   frees (a closed loop four jobs deep). Blocks of ten jobs: seven small
//!   suite pairs (spec, inflated, contained, chain, star, threecol in turn),
//!   one byte-for-byte replay that hits the compile cache, and two path-4
//!   giants of 3,125 probe units each, every third one inflated so that it
//!   stops at its first unit and exercises cutoff and cancellation. The
//!   compile and LP layers run as thousands of tiny calls, so per-call
//!   overhead added to speed up the first two workloads shows up here as a
//!   loss. It is the workload for **engine** (scheduler, in-order emission,
//!   compile cache and its clearing) and **bagdb**.
//!
//! ## End-to-end metrics (untraced runs)
//!
//! Every time and rate is scaled to a reference host by a machine-speed
//! calibration (see [`calib`]); the summary lines state the factor.
//!
//! * `setup_s` — median of sixteen set-ups, eight before the timed passes
//!   and eight after them: `parse_program_spanned` over the whole workload text,
//!   `first_fragment_error` per pair and engine construction (the CLI's
//!   parse and check phases). Every workload text is sized so this reads
//!   tens of milliseconds, not microseconds.
//! * `pairs_per_s` — cold verdicts per second: for the closed loop, per
//!   second the client spent waiting on cold verdicts; for the stream, per
//!   second of batch wall time.
//! * `verdict_p50_ms`, `verdict_tail_ms` — cold time to verdict, from the
//!   moment a pair is handed to the engine to the moment its verdict
//!   arrives. The tail is the highest percentile with ten samples beyond
//!   it; the summary states its percentile and sample count.
//! * `warm_p50_ms` — `DecisionEngine::decide_pair` a second time on the same
//!   `CompiledPair`: probe, LP and merge on a hot compile memo. The stream
//!   re-decides its contained giants this way in the last tenth of the run.
//! * `peak_heap_mb` — high-water mark of live heap bytes (MiB) over the
//!   measured passes, from the counting allocator in this binary.
//! * `verdict_ok_share` — share of attempted pairs whose verdicts were
//!   verified: contained-by-construction pairs must come out contained,
//!   threecol verdicts must equal `Graph::is_three_colorable`, every
//!   not-contained verdict must pass `Counterexample::verify`, and a warm
//!   re-decision must equal the cold one. Errors count as failures.
//!
//! ## Per-layer metrics (traced runs)
//!
//! See [`layers`]. Layer metrics are named after the crates; each should
//! move one end-to-end metric on one workload: `cq.parse_ms` and
//! `analyze.gate_ms` move `setup_s`; `cq.search_ms`, `cq.mappings` and
//! `containment.compile_ms` move `verdict_p50_ms` on `compile_clique`;
//! `poly.*`, `linalg.*` and `arith.small_hit_rate` move `warm_p50_ms` and
//! `verdict_p50_ms` on `lp_star`; `bagdb.verify_*` moves `verdict_tail_ms`
//! on `lp_star` and `probe_stream`; `engine.*` and `alloc.*` move
//! `pairs_per_s`, `verdict_tail_ms` and `peak_heap_mb` on `probe_stream`.
//!
//! ## Lessons from an earlier, too-noisy version
//!
//! * Decide many pairs per run: a run that decided one pair had a tail
//!   equal to its median. Every timed pass here keeps going until it has at
//!   least forty samples.
//! * Never time a memo hit: a warm sample re-decides the pair.
//! * Sub-millisecond set-up readings moved 11% between identical runs, so
//!   set-up is repeated sixteen times on a text of hundreds of kilobytes.
//! * RSS moved 6% with thread arenas on the threaded workload; live heap
//!   bytes from a counting allocator do not depend on arenas.
//! * Draw each family so its cost is unimodal: with ray multiplicities that
//!   may repeat, star LP sizes split into two clusters and the median
//!   jumped between them from seed to seed, so the rays are distinct.
//! * Keep every median inside a dense band of compute-bound samples: in the
//!   stream, in-order emission splits latencies into jobs waiting on a giant
//!   and jobs running free, and a median on the edge between them, or among
//!   free-running small pairs whose latency is mostly thread hand-offs,
//!   moved 30–80% between runs. The stream layout is fixed (see
//!   `gen::probe_stream`); the seed draws the pairs, not their mix.
//! * Machine speed drifts on a shared host: the same pairs took 48 ms to
//!   decide in one run and 78 ms a few minutes later, which no statistic
//!   over raw times can hide. Times are scaled by a calibration kernel
//!   timed all through the run, which cut the spread over five seeds to
//!   2–5% on most metrics. The kernel must share the cores as the measured
//!   work does: a one-thread kernel tracked the one-client loops but not the
//!   two-worker stream, whose threads fill both cores of a two-core host
//!   and are not slowed when a neighbour takes the idle one; run on as many
//!   threads as the stream's workers, it tracks the stream too.
//! * The stream's warm pass re-decides only contained giants: an inflated
//!   giant stops at its first unit, and mixing its 0.1 ms re-decisions with
//!   the contained giants' 0.8 ms ones put the warm median in one cluster
//!   or the other from seed to seed.

mod calib;
mod counters;
mod gen;
mod layers;
mod measure;
mod stats;
mod sys;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use workload::Workload;

#[global_allocator]
static ALLOCATOR: sys::CountingAllocator = sys::CountingAllocator;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: dioph-layerbench --workload <compile_clique|lp_star|probe_stream> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
fn result_line(attempted: u64, failed: u64, metrics: &[layers::Metric]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(body, "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    let correct = failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    format!("{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}")
}

fn end_to_end(args: &Args) -> Result<String, String> {
    let e = measure::run(args.workload, args.seed, args.seconds)?;
    println!(
        "{}: verdict_tail_ms is p{:.1} of {} cold samples ({} beyond it)",
        args.workload.name(),
        e.verdict_tail.percentile,
        e.verdict_tail.samples,
        stats::TAIL_BEYOND
    );
    println!(
        "  times scaled by {:.4} to the reference host; {} threads available",
        e.scale,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let ok_share = (e.attempted - e.failed) as f64 / e.attempted as f64;
    let metrics = [
        ("setup_s", e.setup_s, "s"),
        ("pairs_per_s", e.pairs_per_s, "1/s"),
        ("verdict_p50_ms", e.verdict_p50_ms, "ms"),
        ("verdict_tail_ms", e.verdict_tail.value, "ms"),
        ("warm_p50_ms", e.warm_p50_ms, "ms"),
        ("peak_heap_mb", e.peak_heap_mb, "MiB"),
        ("verdict_ok_share", ok_share, "ratio"),
    ];
    for (name, value, unit) in &metrics {
        println!("  {name:<18} {value:>14.4} {unit}");
    }
    Ok(result_line(e.attempted, e.failed, &metrics))
}

fn per_layer(args: &Args) -> Result<String, String> {
    let run = layers::run(args.workload, args.seed)?;
    println!("{}: spans of the first traced replay (ms)", args.workload.name());
    println!("  {:<28} {:>8} {:>12} {:>12}", "span", "count", "total", "self");
    for (name, t) in run.trace.totals() {
        println!("  {name:<28} {:>8} {:>12.3} {:>12.3}", t.count, t.ms, t.self_ms);
    }
    for (name, value, unit) in &run.metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    let dir = std::path::Path::new("layerbench").join("traces");
    let file = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, run.trace.to_json_lines()))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    Ok(result_line(run.attempted, run.failed, &run.metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace { per_layer(&args) } else { end_to_end(&args) };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("dioph-layerbench: {message}");
            ExitCode::FAILURE
        }
    }
}
