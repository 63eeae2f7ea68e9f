//! The untraced run: the seven end-to-end metrics.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dioph_containment::CompiledPair;
use dioph_cq::SpannedQuery;
use dioph_engine::{DecisionEngine, EngineConfig, Job};

use crate::calib::Calibration;
use crate::gen::Expect;
use crate::stats::{self, Tail};
use crate::sys;
use crate::workload::{set_up, verdict_ok, Front, Prepared, Workload};

/// Set-up repetitions before the timed passes and after them; `setup_s` is
/// the median of all of them. Spreading them over the run averages out
/// slow drifts in machine speed that a burst of back-to-back set-ups would
/// catch whole.
const SETUP_REPEATS: (usize, usize) = (8, 8);
/// A timed pass keeps going past its deadline until it has this many
/// samples, so the tail always has ten samples beyond it.
const MIN_SAMPLES: usize = 40;
/// Share of the run the batch front spends on its cold stream; the rest
/// re-decides pairs warm.
const STREAM_SHARE: f64 = 0.9;
/// The cold stream runs as this many back-to-back `run_batch` calls, with
/// calibration samples taken between them while the workers are idle.
/// Samples taken only before and after the stream caught the host's speed
/// at too few moments to track it.
const STREAM_SEGMENTS: u32 = 8;
/// Calibration samples between two stream segments.
const SEGMENT_CALIBRATIONS: usize = 16;

/// What an untraced run measured. Times and rates are scaled to the
/// reference host (see [`crate::calib`]).
pub struct EndToEnd {
    /// Median set-up time, in seconds.
    pub setup_s: f64,
    /// Cold verdicts per second.
    pub pairs_per_s: f64,
    /// Median cold time to verdict, in milliseconds.
    pub verdict_p50_ms: f64,
    /// Tail of the cold time to verdict, in milliseconds.
    pub verdict_tail: Tail,
    /// Median warm re-decision, in milliseconds.
    pub warm_p50_ms: f64,
    /// High-water mark of live heap bytes over the measured passes, in MiB.
    pub peak_heap_mb: f64,
    /// Pairs whose verdicts were checked.
    pub attempted: u64,
    /// Pairs that errored or whose verdict failed a check.
    pub failed: u64,
    /// The factor that turned raw times into reference-host times.
    pub scale: f64,
}

#[derive(Default)]
struct Pass {
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Pass {
    /// Records one pair: its cold time (infinite when it failed, so a
    /// failure misses any latency limit) and whether it was verified.
    fn record(&mut self, cold: Duration, ok: bool) {
        self.attempted += 1;
        if ok {
            self.cold_ms.push(ms(cold));
        } else {
            self.failed += 1;
            self.cold_ms.push(f64::INFINITY);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `workload` untraced for about `seconds`.
///
/// # Errors
/// A set-up failure (the generators never cause one).
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<EndToEnd, String> {
    let prepared = Prepared::new(workload.pairs(seed));
    // Set-up runs on one thread and the passes on `jobs`, so each has a
    // calibration that keeps as many threads busy.
    let (mut setup_cal, mut cal) = (Calibration::new(1), Calibration::new(workload.config().jobs));
    let (mut setups, queries, engine) =
        timed_set_up(&prepared, workload.config(), SETUP_REPEATS.0, &mut setup_cal)?;
    let start = Instant::now();
    let run_for = Duration::from_secs_f64(seconds);

    sys::reset_peak();
    let (cold, pairs_per_s, warm) = match workload.front() {
        Front::ClosedLoop => {
            let pass = closed_loop(
                workload,
                &engine,
                &queries,
                &prepared.expects,
                start + run_for,
                &mut cal,
            );
            let busy_s: f64 = pass.cold_ms.iter().sum::<f64>() * 1e-3;
            let rate = pass.cold_ms.len() as f64 / busy_s;
            (pass, rate, None)
        }
        Front::Batch => {
            let stream_end = start + run_for.mul_f64(STREAM_SHARE);
            let (pass, rate) = stream(&engine, &prepared, stream_end, &mut cal);
            let warm = closed_loop(
                workload,
                &engine,
                &queries,
                &prepared.expects,
                start + run_for,
                &mut cal,
            );
            (pass, rate, Some(warm))
        }
    };
    let peak_heap_mb = sys::peak_bytes() as f64 / (1024.0 * 1024.0);
    drop(queries);
    setups.extend(timed_set_up(&prepared, workload.config(), SETUP_REPEATS.1, &mut setup_cal)?.0);

    let (mut cold_ms, mut attempted, mut failed) = (cold.cold_ms, cold.attempted, cold.failed);
    let mut warm_ms = cold.warm_ms;
    if let Some(warm) = warm {
        warm_ms = warm.warm_ms;
        attempted += warm.attempted;
        failed += warm.failed;
    }
    let scale = cal.scale();
    let mut verdict_tail = stats::tail(&mut cold_ms).ok_or("too few cold samples for a tail")?;
    verdict_tail.value *= scale;
    Ok(EndToEnd {
        setup_s: stats::median(&mut setups) * setup_cal.scale(),
        pairs_per_s: pairs_per_s / scale,
        verdict_p50_ms: stats::median(&mut cold_ms) * scale,
        verdict_tail,
        warm_p50_ms: stats::median(&mut warm_ms) * scale,
        peak_heap_mb,
        attempted,
        failed,
        scale,
    })
}

/// Times [`set_up`] `repeats` times, a calibration sample after each, and
/// keeps the last result.
fn timed_set_up(
    prepared: &Prepared,
    config: EngineConfig,
    repeats: usize,
    cal: &mut Calibration,
) -> Result<(Vec<f64>, Vec<SpannedQuery>, DecisionEngine), String> {
    let mut seconds = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let ready = set_up(prepared, config)?;
        seconds.push(start.elapsed().as_secs_f64());
        // Dropped untimed, as the CLI drops its program when it exits.
        last = Some(ready);
        cal.sample();
    }
    let (queries, engine) = last.expect("set-up runs at least once");
    Ok((seconds, queries, engine))
}

/// One client deciding the pairs `workload` visits in order, cycling through
/// them until `deadline`. Each pair is decided cold (`CompiledPair::new` then
/// `decide_pair`, which is exactly `DecisionEngine::decide`), then decided
/// again on the same, now hot, `CompiledPair`: the warm sample covers probe,
/// LP and merge, never a bare memo lookup. A calibration sample follows
/// every pair.
fn closed_loop(
    workload: Workload,
    engine: &DecisionEngine,
    queries: &[SpannedQuery],
    expects: &[Expect],
    deadline: Instant,
    cal: &mut Calibration,
) -> Pass {
    let mut pass = Pass::default();
    let visited =
        expects.iter().copied().enumerate().filter(|&(i, expect)| workload.visits(i, expect));
    for (i, expect) in visited.cycle() {
        if Instant::now() >= deadline && pass.cold_ms.len() >= MIN_SAMPLES {
            break;
        }
        let (containee, containing) = (&queries[2 * i].query, &queries[2 * i + 1].query);
        let start = Instant::now();
        let decided = CompiledPair::new(containee.clone(), containing.clone())
            .and_then(|pair| engine.decide_pair(&pair).map(|verdict| (pair, verdict)));
        let cold = start.elapsed();
        let ok = decided.is_ok_and(|(pair, verdict)| {
            let start = Instant::now();
            let again = engine.decide_pair(&pair);
            pass.warm_ms.push(ms(start.elapsed()));
            again.as_ref() == Ok(&verdict) && verdict_ok(expect, containee, containing, &verdict)
        });
        pass.record(cold, ok);
        cal.sample();
    }
    pass
}

/// `run_batch` over the workload's jobs, cycling until `deadline`, in
/// [`STREAM_SEGMENTS`] back-to-back calls with calibration samples between
/// them. A job is timed from the moment the feeder pulls it to the moment
/// its verdict is emitted. Returns the pass and the jobs emitted per second
/// of batch wall time.
fn stream(
    engine: &DecisionEngine,
    prepared: &Prepared,
    deadline: Instant,
    cal: &mut Calibration,
) -> (Pass, f64) {
    let n = prepared.len();
    let segment = deadline.saturating_duration_since(Instant::now()) / STREAM_SEGMENTS;
    let mut pass = Pass::default();
    let (mut next, mut emitted, mut wall_s) = (0usize, 0u64, 0.0);
    for _ in 0..STREAM_SEGMENTS {
        let handed: Mutex<HashMap<u64, Instant>> = Mutex::new(HashMap::new());
        let start = Instant::now();
        let segment_end = (start + segment).min(deadline);
        let jobs = std::iter::from_fn(|| {
            let now = Instant::now();
            if now >= segment_end {
                return None;
            }
            let id = next as u64 + 1;
            handed.lock().expect("no thread panics holding the job clock").insert(id, now);
            let source = prepared.sources[next % n].clone();
            next += 1;
            Some(Job { id, source, read_error: None })
        });
        let stats = engine.run_batch(jobs, |verdict| {
            let handed_at = handed
                .lock()
                .expect("no thread panics holding the job clock")
                .remove(&verdict.id)
                .expect("every emitted job was handed out");
            let latency = handed_at.elapsed();
            let expect = prepared.expects[(verdict.id - 1) as usize % n];
            let ok = verdict.outcome.as_ref().is_ok_and(|outcome| {
                verdict_ok(expect, &outcome.containee, &outcome.containing, &outcome.verdict)
            });
            pass.record(latency, ok);
            true
        });
        wall_s += start.elapsed().as_secs_f64();
        emitted += stats.jobs_processed;
        cal.settle();
        for _ in 0..SEGMENT_CALIBRATIONS {
            cal.sample();
        }
    }
    (pass, emitted as f64 / wall_s)
}
