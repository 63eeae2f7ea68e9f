//! The unified (pair × probe) work-stealing scheduler: one shared work
//! queue serves both the single-pair `decide` pool and the streaming
//! `batch` pool.
//!
//! ## The work unit
//!
//! The schedulable unit is a **(pair, probe-index) claim**, not a whole
//! pair. Every admitted [`PairTask`] publishes its probe space as a range
//! of claimable unit indices (`0..units`): one unit per raw probe index
//! for the all-probes and guess-and-check algorithms, a single unit for
//! the most-general-probe route, and a single no-op unit for a degenerate
//! empty probe space (so some worker always retires — and therefore
//! finalizes — the pair). Workers claim *chunks* of consecutive units with
//! one relaxed `fetch_add` on the task's `next_unit` cursor: chunking keeps
//! cache locality on giant probe spaces and keeps tiny pairs from paying
//! one atomic claim per probe, while the shared cursor means any worker can
//! pull units from any in-flight pair — a giant pair amid small ones is
//! drained by the whole pool instead of starving on one thread.
//!
//! ## Unit lifecycle
//!
//! ```text
//!   admit ──▶ claim chunk ──▶ decide probes ──▶ retire chunk ──▶ finalize
//!   (feeder   (fetch_add on    (the sequential   (per-task tally  (last
//!    blocks    next_unit; a     decide_probe;     under one lock   retired
//!    at the    foreign pair     indices past      per chunk)       chunk
//!    in-flight counts one       the cutoff are                     builds the
//!    capacity) steal)           skipped)                           verdict)
//! ```
//!
//! A claimed chunk always retires in full — skipped units (past the
//! cutoff, or after a cancellation) retire without being decided — so the
//! per-task `remaining` tally reaches zero exactly once, and the worker
//! that retires the last chunk finalizes the pair: it assembles the
//! verdict from the merged event and hands it to the caller's sink. The
//! per-task completion tally lives under a `Mutex` locked once per retired
//! chunk, which is also what publishes every worker's probe outcomes to
//! the finalizer (the claim cursors only use relaxed atomics).
//!
//! ## Deterministic merging
//!
//! The sequential decider returns the outcome of the **first** probe (in
//! probe order) that produces an event — a witness assignment or a
//! guess-and-check budget error. To be bit-identical for any worker count
//! and any claim interleaving, each task keeps only the event with the
//! lowest probe index and uses that index as a *cutoff*: units above a
//! known event are skipped (their outcome could never win the merge),
//! while lower units are still decided and may replace the event.
//! Contained verdicts count every probe tuple exactly once, so
//! `probes_checked` also matches the sequential run.
//!
//! ## Cancellation
//!
//! Early termination never poisons the pool. A per-pair event (a witness,
//! a `--keep-going` budget error) cancels only that pair's remaining units
//! through its cutoff; other in-flight pairs are untouched. A scheduler
//! abort (the batch collector's `emit` returned `false`) flips one relaxed
//! flag: workers retire remaining units without deciding them, finalize
//! normally, and the collector discards the drained results — no worker is
//! ever detached or killed mid-unit.

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use dioph_arith::Natural;
use dioph_containment::{
    BagContainment, BagContainmentDecider, CompiledPair, ContainmentError, ProbeScratch, Rung,
};

/// The outcome of one probe that can decide the whole pair.
enum ProbeEvent {
    /// An MPI assignment witnessing non-containment at this probe, and the
    /// rung that found it.
    Witness(Vec<Natural>, Option<Rung>),
    /// The per-probe decision failed (guess-and-check budget exhaustion).
    Error(ContainmentError),
}

/// How a scheduled pair is owned: the single-pair pool borrows its caller's
/// pair, the batch pool shares the compilation cache's.
pub(crate) enum PairRef<'a> {
    /// Borrowed from the caller (`DecisionEngine::decide`).
    Borrowed(&'a CompiledPair),
    /// Shared with the batch [`CompilationCache`](crate::CompilationCache).
    Shared(Arc<CompiledPair>),
}

impl Deref for PairRef<'_> {
    type Target = CompiledPair;

    fn deref(&self) -> &CompiledPair {
        match self {
            PairRef::Borrowed(pair) => pair,
            PairRef::Shared(pair) => pair,
        }
    }
}

/// What one unit index of a task means.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum UnitKind {
    /// One unit: the pair's most-general probe (Theorem 5.3 route).
    MostGeneral,
    /// One unit per raw probe-space index (all-probes, guess-and-check).
    ProbeSpace,
}

/// The merge-and-completion state of one task, locked once per retired
/// chunk. Holding `checked` and the winning event under the same lock as
/// `remaining` is what hands the finalizing worker every peer's outcome.
struct Progress {
    /// Units not yet retired; the chunk that takes this to zero finalizes.
    remaining: usize,
    /// Probe tuples decided (the `probes_checked` of a Contained verdict).
    checked: usize,
    /// The costliest rung among the probes decided without an event (the
    /// rung a Contained verdict is attributed to).
    hardest: Option<Rung>,
    /// The lowest-index probe event seen so far.
    event: Option<(usize, ProbeEvent)>,
}

/// One admitted pair: a claimable range of `units` probe indices plus the
/// merge state that turns retired units back into a single verdict.
pub(crate) struct PairTask<'a> {
    /// Submission sequence; handed back to the sink for in-order collection.
    seq: u64,
    pair: PairRef<'a>,
    kind: UnitKind,
    /// Total claimable units (≥ 1).
    units: usize,
    /// Consecutive units claimed per `fetch_add` on `next_unit`.
    chunk: usize,
    /// The claim cursor: the next unclaimed unit index.
    next_unit: AtomicUsize,
    /// Lowest unit index with a known event; higher units are skipped.
    cutoff: AtomicUsize,
    /// The worker that claimed first; foreign claims count as steals.
    owner: AtomicUsize,
    progress: Mutex<Progress>,
}

impl PairTask<'_> {
    /// Whether the task still has unclaimed units (racy, by design: a
    /// losing claimer just moves on).
    fn has_units(&self) -> bool {
        self.next_unit.load(Ordering::Relaxed) < self.units
    }
}

/// The scheduler's shared queue state, guarded by [`Scheduler::state`].
struct SchedState<'a> {
    /// In-flight tasks with unclaimed units, in submission order.
    queue: Vec<Arc<PairTask<'a>>>,
    /// Tasks admitted but not yet finalized (the feeder's backpressure).
    in_flight: usize,
    /// No further admissions; drained workers may exit.
    closed: bool,
    /// Per-worker claimed-unit tallies, for the claim-spread gauge.
    claims: Vec<u64>,
}

/// One shared work queue of (pair, probe-index) units.
///
/// The same implementation serves the single-pair pool (`pool` label
/// `"probe"`, one pre-admitted task) and the streaming batch pool (label
/// `"batch"`, tasks admitted by the feeder while workers run).
pub(crate) struct Scheduler<'a> {
    /// Pool label for worker thread names and per-worker stats.
    pool: &'static str,
    workers: usize,
    /// Maximum tasks in flight before [`Self::admit`] blocks.
    capacity: usize,
    state: Mutex<SchedState<'a>>,
    /// Signalled on admission and close: workers wait here when drained.
    work_available: Condvar,
    /// Signalled on finalize and abort: the feeder waits here when full.
    slot_available: Condvar,
    aborted: AtomicBool,
}

impl<'a> Scheduler<'a> {
    pub(crate) fn new(pool: &'static str, workers: usize, capacity: usize) -> Self {
        Scheduler {
            pool,
            workers: workers.max(1),
            capacity: capacity.max(1),
            state: Mutex::new(SchedState {
                queue: Vec::new(),
                in_flight: 0,
                closed: false,
                claims: vec![0; workers.max(1)],
            }),
            work_available: Condvar::new(),
            slot_available: Condvar::new(),
            aborted: AtomicBool::new(false),
        }
    }

    /// Publishes a compiled pair's probe space as claimable units, blocking
    /// while the scheduler is at capacity. Returns `false` (without
    /// admitting) once the scheduler is aborted.
    pub(crate) fn admit(&self, seq: u64, pair: PairRef<'a>, kind: UnitKind) -> bool {
        dioph_obs::registry::ENGINE_PAIRS_DECIDED.incr();
        let units = match kind {
            UnitKind::MostGeneral => 1,
            UnitKind::ProbeSpace => pair.probe_units(),
        };
        // Chunks aim for a few claims per worker per pair — enough that a
        // giant pair spreads across the pool, few enough that a tiny pair
        // costs one claim — capped so late-joining workers on a giant pair
        // still find units to steal.
        let chunk = (units / (self.workers * 4)).clamp(1, 64);
        let task = Arc::new(PairTask {
            seq,
            pair,
            kind,
            units,
            chunk,
            next_unit: AtomicUsize::new(0),
            cutoff: AtomicUsize::new(usize::MAX),
            owner: AtomicUsize::new(usize::MAX),
            progress: Mutex::new(Progress {
                remaining: units,
                checked: 0,
                hardest: None,
                event: None,
            }),
        });
        let mut state = self.state.lock().expect("scheduler users never panic");
        while state.in_flight >= self.capacity && !self.aborted.load(Ordering::Relaxed) {
            state = self.slot_available.wait(state).expect("scheduler users never panic");
        }
        if self.aborted.load(Ordering::Relaxed) {
            return false;
        }
        state.in_flight += 1;
        if self.pool == "batch" {
            let depth = state.in_flight as u64;
            dioph_obs::registry::ENGINE_BATCH_QUEUE_DEPTH_MAX.record_max(depth);
        }
        state.queue.push(task);
        drop(state);
        self.work_available.notify_all();
        true
    }

    /// Declares the stream complete: workers exit once the queue drains.
    pub(crate) fn close(&self) {
        self.state.lock().expect("scheduler users never panic").closed = true;
        self.work_available.notify_all();
    }

    /// Cancels everything: admissions stop, un-decided units retire as
    /// skips. In-flight tasks still finalize (their sinks still run), so
    /// the caller keeps draining its result channel as usual.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::Relaxed);
        drop(self.state.lock().expect("scheduler users never panic"));
        self.work_available.notify_all();
        self.slot_available.notify_all();
    }

    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Picks the next task with unclaimed units — earliest submission
    /// first, which unblocks the in-order collector soonest — or blocks
    /// until one is admitted. `None` means the stream is closed (or
    /// aborted) and drained.
    fn next_task(&self) -> Option<Arc<PairTask<'a>>> {
        let mut state = self.state.lock().expect("scheduler users never panic");
        loop {
            state.queue.retain(|task| task.has_units());
            if let Some(task) = state.queue.first() {
                return Some(Arc::clone(task));
            }
            if state.closed || self.aborted.load(Ordering::Relaxed) {
                return None;
            }
            state = self.work_available.wait(state).expect("scheduler users never panic");
        }
    }

    /// The worker loop: claim a chunk, decide its units, retire it, and
    /// finalize the pair when the last chunk retires. `sink` receives every
    /// finalized `(seq, verdict)`.
    pub(crate) fn run_worker(
        &self,
        worker: usize,
        decider: &BagContainmentDecider,
        sink: &impl Fn(u64, Result<BagContainment, ContainmentError>),
    ) {
        dioph_obs::trace::name_current_thread(&format!("{}-worker-{worker}", self.pool));
        let mut claims = 0u64;
        let mut busy_ns = 0u64;
        let mut max_unit_ns = 0u64;
        // One scratch per worker thread for the whole run: every probe this
        // worker decides — across chunks, across pairs — reuses the same
        // warmed buffers. Scratch reuse is capacity-only, so worker verdicts
        // stay bit-identical to the sequential loop.
        let mut scratch = ProbeScratch::new();
        let mut current: Option<Arc<PairTask<'a>>> = None;
        loop {
            let task = match current.take() {
                // Locality: keep claiming from the task this worker already
                // touched while it has units left (no queue lock needed).
                Some(task) if task.has_units() => task,
                _ => match self.next_task() {
                    Some(task) => task,
                    None => break,
                },
            };
            let start = task.next_unit.fetch_add(task.chunk, Ordering::Relaxed);
            if start >= task.units {
                continue; // lost the race for the task's tail
            }
            let end = task.units.min(start + task.chunk);
            let claimed = end - start;
            claims += claimed as u64;
            dioph_obs::registry::ENGINE_UNITS_CLAIMED.add(claimed as u64);
            if task.kind == UnitKind::ProbeSpace {
                dioph_obs::registry::ENGINE_PROBES_CLAIMED.add(claimed as u64);
            }
            // The first claim marks ownership; every chunk another worker
            // pulls from the pair afterwards is a steal.
            let claim = task.owner.compare_exchange(
                usize::MAX,
                worker,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            if claim.is_err_and(|owner| owner != worker) {
                dioph_obs::registry::ENGINE_STEALS.incr();
            }
            let (decided, hardest, event) = self.decide_units(
                &task,
                decider,
                start..end,
                &mut scratch,
                &mut busy_ns,
                &mut max_unit_ns,
            );
            let finished = {
                let mut progress = task.progress.lock().expect("scheduler workers never panic");
                if let Some((index, event)) = event {
                    if progress.event.as_ref().is_none_or(|(winner, _)| index < *winner) {
                        progress.event = Some((index, event));
                        // Written only under this task's progress lock, so
                        // the store is monotone decreasing; readers race it
                        // harmlessly (skipping is only an optimisation).
                        task.cutoff.store(index, Ordering::Relaxed);
                    }
                }
                progress.checked += decided;
                progress.hardest = progress.hardest.max(hardest);
                progress.remaining -= claimed;
                progress.remaining == 0
            };
            if finished {
                self.finalize(&task, decider, sink);
            }
            current = Some(task);
        }
        dioph_obs::pool::record(self.pool, worker, claims, busy_ns, max_unit_ns);
        self.state.lock().expect("scheduler users never panic").claims[worker] = claims;
    }

    /// Decides the units of one claimed chunk; returns how many probes were
    /// decided, the costliest rung among those without an event, and the
    /// chunk's lowest-index event, if any.
    fn decide_units(
        &self,
        task: &PairTask<'a>,
        decider: &BagContainmentDecider,
        range: std::ops::Range<usize>,
        scratch: &mut ProbeScratch,
        busy_ns: &mut u64,
        max_unit_ns: &mut u64,
    ) -> (usize, Option<Rung>, Option<(usize, ProbeEvent)>) {
        let mut decided = 0usize;
        let mut hardest = None;
        let raw_len = task.pair.probe_space().raw_len();
        for index in range {
            if self.aborted.load(Ordering::Relaxed) {
                // Cancelled: the rest of the chunk retires as skips.
                break;
            }
            // An event at a lower index already decides the pair; skipping
            // is only an optimisation (a stale read costs wasted work,
            // never a wrong merge).
            if index > task.cutoff.load(Ordering::Relaxed) {
                continue;
            }
            let unit_start = dioph_obs::phase::timing_enabled().then(Instant::now);
            let outcome = match task.kind {
                UnitKind::MostGeneral => decider.decide_most_general_in(&task.pair, scratch),
                UnitKind::ProbeSpace if index < raw_len => {
                    match decider.decide_probe_at(&task.pair, index, scratch) {
                        Some(outcome) => outcome,
                        None => continue,
                    }
                }
                UnitKind::ProbeSpace => continue, // the degenerate no-op unit
            };
            decided += 1;
            if let Some(unit_start) = unit_start {
                let ns = u64::try_from(unit_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                *busy_ns = busy_ns.saturating_add(ns);
                *max_unit_ns = (*max_unit_ns).max(ns);
            }
            let event = match outcome {
                Ok((None, rung)) => {
                    hardest = hardest.max(rung);
                    continue;
                }
                Ok((Some(assignment), rung)) => ProbeEvent::Witness(assignment, rung),
                Err(error) => ProbeEvent::Error(error),
            };
            // Later units of this chunk have strictly higher indices, so
            // they can never win the merge against this event: stop here
            // and let the remainder retire as skips.
            return (decided, hardest, Some((index, event)));
        }
        (decided, hardest, None)
    }

    /// Turns a fully retired task back into a verdict and hands it to the
    /// sink; runs on whichever worker retired the last chunk.
    fn finalize(
        &self,
        task: &PairTask<'a>,
        decider: &BagContainmentDecider,
        sink: &impl Fn(u64, Result<BagContainment, ContainmentError>),
    ) {
        let (event, checked, hardest) = {
            let mut progress = task.progress.lock().expect("scheduler workers never panic");
            (progress.event.take(), progress.checked, progress.hardest)
        };
        let (result, rung) = match event {
            Some((index, ProbeEvent::Witness(assignment, rung))) => {
                let ce = match task.kind {
                    UnitKind::MostGeneral => {
                        task.pair.counterexample(task.pair.most_general(), &assignment)
                    }
                    UnitKind::ProbeSpace => {
                        decider.counterexample_at(&task.pair, index, &assignment)
                    }
                };
                (Ok(BagContainment::NotContained(Box::new(ce))), rung)
            }
            Some((_, ProbeEvent::Error(error))) => (Err(error), None),
            None => (Ok(BagContainment::Contained { probes_checked: checked }), hardest),
        };
        if let Ok(verdict) = &result {
            dioph_containment::observe_verdict(verdict, rung);
        }
        sink(task.seq, result);
        let mut state = self.state.lock().expect("scheduler users never panic");
        state.in_flight -= 1;
        drop(state);
        self.slot_available.notify_all();
    }

    /// Records the run's claim spread (busiest minus idlest worker's
    /// claimed units) into the `engine.claim_spread.max` gauge. Call after
    /// every worker has exited.
    pub(crate) fn finish(&self) {
        let state = self.state.lock().expect("scheduler users never panic");
        if let (Some(max), Some(min)) = (state.claims.iter().max(), state.claims.iter().min()) {
            dioph_obs::registry::ENGINE_CLAIM_SPREAD_MAX.record_max(max - min);
        }
    }
}

/// Decides `pair` with up to `jobs` worker threads; bit-identical to
/// `decider.decide_pair(pair)`.
pub(crate) fn decide_pair_parallel(
    decider: &BagContainmentDecider,
    pair: &CompiledPair,
    jobs: usize,
) -> Result<BagContainment, ContainmentError> {
    decide_on(&probe_scheduler(pair, jobs), decider, pair)
}

/// The single-pair scheduler for `pair` at `jobs`. Never spawn more workers
/// than there are claimable units: `--jobs 8` on a 3-probe pair gets 3
/// threads, not 8 (5 of which could only idle).
fn probe_scheduler<'a>(pair: &CompiledPair, jobs: usize) -> Scheduler<'a> {
    Scheduler::new("probe", jobs.min(pair.probe_units()).max(1), 1)
}

/// Admits `pair` as the only task of a fresh `scheduler` and runs one worker
/// thread per scheduler slot until its verdict is finalized.
fn decide_on<'a>(
    scheduler: &Scheduler<'a>,
    decider: &BagContainmentDecider,
    pair: &'a CompiledPair,
) -> Result<BagContainment, ContainmentError> {
    scheduler.admit(0, PairRef::Borrowed(pair), UnitKind::ProbeSpace);
    scheduler.close();
    let slot: Mutex<Option<Result<BagContainment, ContainmentError>>> = Mutex::new(None);
    std::thread::scope(|s| {
        for worker in 0..scheduler.workers {
            let slot = &slot;
            s.spawn(move || {
                scheduler.run_worker(worker, decider, &|_seq, result| {
                    *slot.lock().expect("probe workers never panic") = Some(result);
                });
            });
        }
    });
    scheduler.finish();
    slot.into_inner()
        .expect("probe workers never panic")
        .expect("the admitted pair is always finalized")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_containment::Algorithm;
    use dioph_cq::parse_query;

    #[test]
    fn parallel_all_probes_matches_sequential_probe_counts() {
        // The diagonal-probe example has 16 probe tuples; all must be
        // checked (and counted) when containment holds.
        let q = parse_query("q(x1, x2) <- R(x1, x2), R('c1', x2), R^3(x1, 'c2')").unwrap();
        let decider = BagContainmentDecider::new(Algorithm::AllProbes);
        let pair = CompiledPair::new(q.clone(), q.clone()).unwrap();
        let sequential = decider.decide_pair(&pair).unwrap();
        for jobs in [1, 2, 3, 8, 64] {
            let parallel = decide_pair_parallel(&decider, &pair, jobs).unwrap();
            assert_eq!(parallel, sequential, "jobs={jobs}");
        }
        assert!(matches!(sequential, BagContainment::Contained { probes_checked: 16 }));
    }

    #[test]
    fn parallel_merge_picks_the_first_failing_probe() {
        // A failing pair: the counterexample must be the one the sequential
        // loop finds (the lowest-index failing probe), for every job count.
        let q1 = parse_query("q(x, y) <- R(x, y)").unwrap();
        let q2 = parse_query("p(x, y) <- R(x, x)").unwrap();
        let decider = BagContainmentDecider::new(Algorithm::AllProbes);
        let sequential = decider.decide(&q1, &q2).unwrap();
        let ce = sequential.counterexample().expect("pair must fail");
        for jobs in [2, 4, 16] {
            let pair = CompiledPair::new(q1.clone(), q2.clone()).unwrap();
            let parallel = decide_pair_parallel(&decider, &pair, jobs).unwrap();
            assert_eq!(parallel.counterexample(), Some(ce), "jobs={jobs}");
            assert_eq!(parallel.to_json(), sequential.to_json(), "jobs={jobs}");
        }
    }

    /// Per-run claim tallies of a single-pair run (one entry per spawned
    /// worker). The tests read these instead of the process-global pool
    /// table and counters, which every concurrently running test also feeds.
    fn run_claims(pair: &CompiledPair, jobs: usize) -> Vec<u64> {
        let scheduler = probe_scheduler(pair, jobs);
        let decider = BagContainmentDecider::new(Algorithm::AllProbes);
        decide_on(&scheduler, &decider, pair).unwrap();
        let claims = scheduler.state.lock().unwrap().claims.clone();
        claims
    }

    #[test]
    fn workers_are_capped_at_the_unit_count() {
        // A pair with a 1-unit probe space run at jobs=64 must spawn at most
        // one worker per unit (the cap is what keeps thread spawns bounded
        // by available work).
        let q = parse_query("q(x) <- R(x, x), S(x)").unwrap();
        let pair = CompiledPair::new(q.clone(), q.clone()).unwrap();
        let units = pair.probe_units();
        assert!(units < 64, "the example must be smaller than the job count");
        let claims = run_claims(&pair, 64);
        assert!(!claims.is_empty());
        assert!(claims.len() <= units, "{} workers for {units} units", claims.len());
    }

    #[test]
    fn every_admitted_unit_is_claimed_exactly_once() {
        // Unit claims must add up to the admitted probe space — no unit is
        // lost or double-claimed, even with many workers racing tiny chunks.
        let q = parse_query("q(x1, x2) <- R(x1, x2), R('c1', x2), R^3(x1, 'c2')").unwrap();
        let pair = CompiledPair::new(q.clone(), q.clone()).unwrap();
        let claims = run_claims(&pair, 8);
        assert_eq!(claims.len(), 8, "the example must keep all eight workers");
        assert_eq!(claims.iter().sum::<u64>(), pair.probe_units() as u64);
    }
}
