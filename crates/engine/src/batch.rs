//! The streaming batch front-end: `Job` in, `Verdict` out, in order,
//! continuously.
//!
//! A batch run wires four pieces together inside one `std::thread::scope`:
//!
//! ```text
//!   input ──JobReader──▶ feeder ──admit──▶ unified scheduler ──▶ workers
//!   (stdin,  (splits on    thread  (parse,  (each pair's probe    (claim
//!    file)    '.' pair      │       check,   space published as    (pair,
//!             boundaries)   │       compile) claimable units)      probe)
//!                           ▼                                      chunks)
//!                    collector (calling thread) ◀── finalized ──────┘
//!                    reorders by submission seq,      verdicts
//!                    emits Verdicts in order
//! ```
//!
//! The feeder admits pairs: it parses, fragment-checks and compiles (via
//! the shared [`CompilationCache`]) each job, answers broken jobs
//! immediately, and publishes every compiled pair's probe space into the
//! shared [`Scheduler`](crate::pool) as claimable unit ranges. Workers
//! pull (pair, probe-index) chunks from *any* in-flight pair, so a giant
//! pair amid small ones is drained by the whole pool. The input iterator
//! is pulled lazily (the feeder blocks admission while the pool is
//! saturated), so memory stays bounded no matter how long the stream is,
//! and verdict `k` is emitted as soon as jobs `1..=k` are done — not when
//! the stream ends.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::BufRead;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use dioph_analyze::first_fragment_error;
use dioph_containment::{Algorithm, BagContainment, CompiledPair, ContainmentError};
use dioph_cq::{parse_program_spanned, ConjunctiveQuery};

use crate::pool::{PairRef, Scheduler, UnitKind};
use crate::DecisionEngine;

/// How many compiled pairs the per-stream cache retains before it is
/// (crudely, but boundedly) cleared.
const CACHE_CAPACITY: usize = 256;

/// One unit of batch work: a `.`-terminated (containee, containing) pair in
/// the datalog notation of `docs/grammar.md`, plus a stable id the matching
/// [`Verdict`] carries back.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Job {
    /// Caller-chosen stable identifier (JobReader numbers jobs from 1).
    pub id: u64,
    /// The pair's source text (exactly two `.`-terminated queries).
    pub source: String,
    /// Set when the reader could not produce this job's source (an I/O
    /// failure, e.g. invalid UTF-8 in the stream); the engine reports it as
    /// a structured `read` failure instead of deciding anything.
    pub read_error: Option<String>,
}

/// A successfully decided pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PairOutcome {
    /// The parsed containee (left side of `⊑b`).
    pub containee: ConjunctiveQuery,
    /// The parsed containing query (right side of `⊑b`).
    pub containing: ConjunctiveQuery,
    /// The containment verdict, with certificate.
    pub verdict: BagContainment,
}

/// A per-job failure that does not abort the stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BatchError {
    /// The input stream failed before the job's source was complete.
    Read {
        /// The underlying I/O diagnostic.
        message: String,
    },
    /// The job's source text is not a well-formed pair of queries.
    Parse {
        /// Diagnostic (line/column are relative to the job's source text).
        message: String,
    },
    /// The pair parsed but could not be decided.
    Decide {
        /// Diagnostic naming the pair and the violated precondition.
        message: String,
    },
}

impl BatchError {
    /// The pipeline stage that failed: `"read"`, `"parse"` or `"decide"`.
    pub fn stage(&self) -> &'static str {
        match self {
            BatchError::Read { .. } => "read",
            BatchError::Parse { .. } => "parse",
            BatchError::Decide { .. } => "decide",
        }
    }

    /// The human-readable diagnostic.
    pub fn message(&self) -> &str {
        match self {
            BatchError::Read { message }
            | BatchError::Parse { message }
            | BatchError::Decide { message } => message,
        }
    }
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} error: {}", self.stage(), self.message())
    }
}

impl std::error::Error for BatchError {}

/// The engine's answer for one [`Job`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Verdict {
    /// The id of the job this verdict answers.
    pub id: u64,
    /// The decided pair, or the structured per-job failure.
    pub outcome: Result<PairOutcome, BatchError>,
}

/// Throughput statistics of one [`DecisionEngine::run_batch`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BatchStats {
    /// Jobs whose verdict was emitted (including failures).
    pub jobs_processed: u64,
    /// Emitted verdicts that carried a [`BatchError`].
    pub failures: u64,
    /// Compilations served from the shared cache.
    pub cache_hits: u64,
    /// Pairs compiled fresh (cache misses).
    pub cache_misses: u64,
}

// ---------------------------------------------------------------------------
// The compilation cache
// ---------------------------------------------------------------------------

/// A thread-safe cache of [`CompiledPair`]s keyed by the pair's
/// name-normalised datalog text.
///
/// Query names are erased from the key because they never influence a
/// verdict — `q1a ⊑b q1b` and `q7a ⊑b q7b` over the same bodies share one
/// compilation. The cached [`CompiledPair`] is itself a lazy per-probe
/// cache, so a stream that replays a pair skips the containment-mapping
/// enumeration and MPI assembly entirely, not just the parse.
pub struct CompilationCache {
    map: Mutex<HashMap<(String, String), Arc<CompiledPair>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CompilationCache {
    /// A cache that holds up to `capacity` compiled pairs (it is cleared —
    /// not evicted entry-by-entry — when full, keeping memory bounded on
    /// adversarial streams).
    pub fn new(capacity: usize) -> Self {
        CompilationCache {
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks the pair up, compiling (and validating) it on a miss.
    ///
    /// # Errors
    /// The validation errors of [`CompiledPair::new`].
    fn get_or_compile(
        &self,
        containee: &ConjunctiveQuery,
        containing: &ConjunctiveQuery,
    ) -> Result<Arc<CompiledPair>, ContainmentError> {
        let key = (normalised_text(containee), normalised_text(containing));
        if let Some(pair) = self.map.lock().expect("cache users never panic").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            dioph_obs::registry::CACHE_COMPILED_PAIR_HITS.incr();
            return Ok(Arc::clone(pair));
        }
        // Validate outside the lock; CompiledPair fills its probe slots
        // lazily, so this is cheap.
        let fresh = Arc::new(CompiledPair::new(containee.clone(), containing.clone())?);
        let mut map = self.map.lock().expect("cache users never panic");
        if let Some(raced) = map.get(&key) {
            // Another worker compiled the same pair while we validated; keep
            // the incumbent so both jobs share one per-probe cache.
            self.hits.fetch_add(1, Ordering::Relaxed);
            dioph_obs::registry::CACHE_COMPILED_PAIR_HITS.incr();
            return Ok(Arc::clone(raced));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        dioph_obs::registry::CACHE_COMPILED_PAIR_MISSES.incr();
        if map.len() >= self.capacity {
            map.clear();
        }
        map.insert(key, Arc::clone(&fresh));
        Ok(fresh)
    }

    /// Number of cache lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of fresh compilations.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// The cache key rendering: the query with its name erased.
fn normalised_text(query: &ConjunctiveQuery) -> String {
    query.clone().with_name("q").to_string()
}

// ---------------------------------------------------------------------------
// The job reader (streaming pair splitter)
// ---------------------------------------------------------------------------

/// Splits a `BufRead` into [`Job`]s — one per consecutive pair of
/// `.`-terminated queries — **without waiting for end of input**, so a batch
/// over stdin answers pairs as they arrive.
///
/// The splitter understands just enough of the grammar to find query
/// boundaries: `%` and `#` start line comments (a `.` inside a comment does
/// not terminate a query). Leading comments stay attached to the following
/// job. A trailing fragment at end of input (an unterminated query, or an
/// odd query left without a partner) becomes a final job whose parse failure
/// the batch reports like any other per-job error. An I/O failure (including
/// invalid UTF-8 in the stream) ends the stream with a final job carrying
/// [`Job::read_error`], so a truncated input is reported as a `read`
/// failure — never silently passed off as a clean end of input.
pub struct JobReader<R: BufRead> {
    reader: R,
    next_id: u64,
    ready: VecDeque<Job>,
    buffer: String,
    /// `.`-terminated queries accumulated in `buffer` so far (0 or 1).
    queries_in_buffer: usize,
    /// Whether `buffer` holds anything besides whitespace and comments.
    buffer_has_content: bool,
    exhausted: bool,
}

impl<R: BufRead> JobReader<R> {
    /// Wraps a reader; jobs are numbered from 1 in stream order.
    pub fn new(reader: R) -> Self {
        JobReader {
            reader,
            next_id: 1,
            ready: VecDeque::new(),
            buffer: String::new(),
            queries_in_buffer: 0,
            buffer_has_content: false,
            exhausted: false,
        }
    }

    fn push_job(&mut self, source: String, read_error: Option<String>) {
        self.ready.push_back(Job { id: self.next_id, source, read_error });
        self.next_id += 1;
    }

    fn complete_job(&mut self) {
        let source = std::mem::take(&mut self.buffer);
        self.queries_in_buffer = 0;
        self.buffer_has_content = false;
        self.push_job(source, None);
    }

    fn consume_line(&mut self, line: &str) {
        let mut in_comment = false;
        for ch in line.chars() {
            // Don't start a job's source with the whitespace left over from
            // the line a previous job ended on: diagnostics are job-relative
            // (`line:column` within `Job::source`), so every job must begin
            // at 1:1 with its first meaningful character.
            if self.buffer.is_empty() && ch.is_whitespace() {
                continue;
            }
            self.buffer.push(ch);
            if in_comment {
                continue;
            }
            match ch {
                '%' | '#' => in_comment = true,
                '.' => {
                    self.queries_in_buffer += 1;
                    if self.queries_in_buffer == 2 {
                        self.complete_job();
                    }
                }
                c if !c.is_whitespace() => self.buffer_has_content = true,
                _ => {}
            }
        }
    }
}

impl<R: BufRead> Iterator for JobReader<R> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        loop {
            if let Some(job) = self.ready.pop_front() {
                return Some(job);
            }
            if self.exhausted {
                return None;
            }
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => {
                    self.exhausted = true;
                    if self.buffer_has_content || self.queries_in_buffer > 0 {
                        // Unterminated tail: surface it as a job so its parse
                        // error is reported instead of silently dropped.
                        self.complete_job();
                    }
                }
                Err(error) => {
                    // The stream died mid-read (invalid UTF-8, a failing
                    // disk, …): everything after this point is unreadable,
                    // so flush any partial pair and then report the failure
                    // as a job of its own — the batch must not mistake a
                    // truncated input for a clean end of stream.
                    self.exhausted = true;
                    if self.buffer_has_content || self.queries_in_buffer > 0 {
                        self.complete_job();
                    }
                    self.push_job(String::new(), Some(format!("input stream failed: {error}")));
                }
                Ok(_) => self.consume_line(&line),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The batch runner
// ---------------------------------------------------------------------------

/// The feeder's admission decision for one job.
enum Admission {
    /// Already answered without scheduling (read / parse / fragment /
    /// compile failure).
    Answered(Verdict),
    /// Compiled and ready to publish as claimable units.
    Scheduled { context: JobContext, pair: Arc<CompiledPair> },
}

/// The job-local half of a scheduled pair: its id and *its own* parsed
/// queries. The scheduler decides through the cached [`CompiledPair`],
/// which may carry the names of whichever job compiled the same bodies
/// first — the emitted [`Verdict`] must echo this job's names.
struct JobContext {
    id: u64,
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
}

impl JobContext {
    /// Wraps the scheduler's pair result back into this job's verdict.
    fn into_verdict(self, result: Result<BagContainment, ContainmentError>) -> Verdict {
        let outcome = match result {
            Ok(verdict) => {
                Ok(PairOutcome { containee: self.containee, containing: self.containing, verdict })
            }
            Err(error) => Err(BatchError::Decide {
                message: format!(
                    "cannot decide {} ⊑b {}: {error}",
                    self.containee.name(),
                    self.containing.name()
                ),
            }),
        };
        Verdict { id: self.id, outcome }
    }
}

/// Parses, checks and compiles one job (runs on the feeder thread; the
/// probe decisions themselves stay on the workers, since a fresh
/// [`CompiledPair`] fills its probe slots lazily).
fn admit_job(cache: &CompilationCache, job: Job) -> Admission {
    let id = job.id;
    if let Some(message) = job.read_error {
        return Admission::Answered(Verdict { id, outcome: Err(BatchError::Read { message }) });
    }
    match compile_source(cache, &job.source) {
        Ok((containee, containing, pair)) => {
            Admission::Scheduled { context: JobContext { id, containee, containing }, pair }
        }
        Err(error) => Admission::Answered(Verdict { id, outcome: Err(error) }),
    }
}

fn compile_source(
    cache: &CompilationCache,
    source: &str,
) -> Result<(ConjunctiveQuery, ConjunctiveQuery, Arc<CompiledPair>), BatchError> {
    let queries = {
        let _parse_span = dioph_obs::span(dioph_obs::Phase::Parse);
        parse_program_spanned(source).map_err(|e| BatchError::Parse {
            message: format!("{}:{}: {}", e.line(), e.column(), e.message()),
        })?
    };
    dioph_obs::registry::PARSE_QUERIES.add(queries.len() as u64);
    let mut it = queries.into_iter();
    let (Some(containee), Some(containing), None) = (it.next(), it.next(), it.next()) else {
        return Err(BatchError::Parse {
            message: "a batch job must hold exactly one (containee, containing) pair of \
                      '.'-terminated queries"
                .to_string(),
        });
    };
    // Pre-flight fragment check: a containee the compiler would reject is
    // reported with its job-relative line:column and stable lint code
    // instead of the span-less `ContainmentError` rendering.
    let fragment_error = {
        let _check_span = dioph_obs::span(dioph_obs::Phase::Check);
        first_fragment_error(&containee, source)
    };
    if let Some(rendered) = fragment_error {
        return Err(BatchError::Decide {
            message: format!(
                "cannot decide {} ⊑b {}: {rendered}",
                containee.query.name(),
                containing.query.name()
            ),
        });
    }
    let (containee, containing) = (containee.query, containing.query);
    let pair = cache.get_or_compile(&containee, &containing).map_err(|e| BatchError::Decide {
        message: format!("cannot decide {} ⊑b {}: {e}", containee.name(), containing.name()),
    })?;
    Ok((containee, containing, pair))
}

/// See [`DecisionEngine::run_batch`].
pub(crate) fn run_batch<I, F>(engine: &DecisionEngine, jobs: I, mut emit: F) -> BatchStats
where
    I: Iterator<Item = Job> + Send,
    F: FnMut(Verdict) -> bool,
{
    let workers = engine.config().jobs.max(1);
    let cache = CompilationCache::new(CACHE_CAPACITY);
    let decider = engine.sequential_decider();
    let mut stats = BatchStats::default();

    // Every scheduled pair publishes its units through one shared queue,
    // so a worker drained of its own pair steals units from any other
    // in-flight pair instead of idling behind a giant one.
    let kind = if engine.config().algorithm == Algorithm::MostGeneralProbe {
        UnitKind::MostGeneral
    } else {
        UnitKind::ProbeSpace
    };
    // The in-flight-task capacity is the old bounded job channel's
    // backpressure: the feeder blocks when the pool is saturated, keeping
    // memory bounded on endless streams.
    let scheduler = Scheduler::new("batch", workers, workers * 2);
    let (out_tx, out_rx) = mpsc::channel::<(u64, Verdict)>();
    // The job-local context of every scheduled pair, keyed by submission
    // sequence; the finalizing worker takes it back out to assemble the
    // verdict.
    let contexts: Mutex<HashMap<u64, JobContext>> = Mutex::new(HashMap::new());

    std::thread::scope(|s| {
        for worker in 0..workers {
            let out_tx = out_tx.clone();
            let (scheduler, decider, contexts) = (&scheduler, &decider, &contexts);
            s.spawn(move || {
                scheduler.run_worker(worker, decider, &|seq, result| {
                    let context = contexts
                        .lock()
                        .expect("batch workers never panic")
                        .remove(&seq)
                        .expect("every scheduled job has a context");
                    let _ = out_tx.send((seq, context.into_verdict(result)));
                });
            });
        }

        let feeder_tx = out_tx.clone();
        drop(out_tx);
        let (scheduler_ref, cache_ref, contexts_ref) = (&scheduler, &cache, &contexts);
        s.spawn(move || {
            dioph_obs::trace::name_current_thread("batch-feeder");
            for (seq, job) in (0u64..).zip(jobs) {
                if scheduler_ref.is_aborted() {
                    break;
                }
                match admit_job(cache_ref, job) {
                    Admission::Answered(verdict) => {
                        if feeder_tx.send((seq, verdict)).is_err() {
                            break;
                        }
                    }
                    Admission::Scheduled { context, pair } => {
                        contexts_ref
                            .lock()
                            .expect("the batch feeder never panics")
                            .insert(seq, context);
                        if !scheduler_ref.admit(seq, PairRef::Shared(pair), kind) {
                            // Aborted while waiting for a slot; the context
                            // will never be finalized.
                            contexts_ref
                                .lock()
                                .expect("the batch feeder never panics")
                                .remove(&seq);
                            break;
                        }
                    }
                }
            }
            scheduler_ref.close();
        });

        // Collector (this thread): reorder by submission sequence, emit in
        // order as soon as every earlier verdict is out. When `emit` asks to
        // stop, the scheduler is aborted and the remaining in-flight results
        // are drained without being emitted.
        let mut next_seq = 0u64;
        let mut pending: BTreeMap<u64, Verdict> = BTreeMap::new();
        for (seq, verdict) in out_rx {
            if scheduler.is_aborted() {
                continue; // drain without emitting
            }
            pending.insert(seq, verdict);
            while let Some(verdict) = pending.remove(&next_seq) {
                let _merge_span = dioph_obs::span(dioph_obs::Phase::Merge);
                next_seq += 1;
                stats.jobs_processed += 1;
                dioph_obs::registry::ENGINE_BATCH_JOBS.incr();
                if verdict.outcome.is_err() {
                    stats.failures += 1;
                    dioph_obs::registry::ENGINE_BATCH_FAILURES.incr();
                }
                if !emit(verdict) {
                    scheduler.abort();
                    break;
                }
            }
        }
    });

    scheduler.finish();
    stats.cache_hits = cache.hits();
    stats.cache_misses = cache.misses();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use dioph_cq::parse_program;

    fn reader(text: &str) -> JobReader<&[u8]> {
        JobReader::new(text.as_bytes())
    }

    #[test]
    fn job_reader_splits_pairs_across_and_within_lines() {
        let jobs: Vec<Job> = reader(
            "q1(x) <- R(x, x). p1(x) <- R(x, x).\n\
             q2(x) <- R(x, x).\np2(x) <- R(x, x). q3(x) <- S(x). p3(x) <- S(x).",
        )
        .collect();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].id, 1);
        assert_eq!(jobs[2].id, 3);
        for job in &jobs {
            assert_eq!(parse_program(&job.source).unwrap().len(), 2, "{}", job.source);
        }
    }

    #[test]
    fn job_reader_ignores_dots_in_comments_and_pure_comment_tails() {
        let jobs: Vec<Job> =
            reader("% a comment. with dots.\nq(x) <- R(x, x). p(x) <- R(x, x).\n% trailing.\n")
                .collect();
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].source.starts_with("% a comment"));
        assert_eq!(parse_program(&jobs[0].source).unwrap().len(), 2);
    }

    #[test]
    fn job_reader_surfaces_unterminated_tails_as_a_final_job() {
        let jobs: Vec<Job> =
            reader("q(x) <- R(x, x). p(x) <- R(x, x). odd(x) <- R(x, x).").collect();
        assert_eq!(jobs.len(), 2);
        assert_eq!(parse_program(&jobs[1].source).unwrap().len(), 1);

        let jobs: Vec<Job> = reader("q(x) <- R(x, x). p(x) <- R(x").collect();
        assert_eq!(jobs.len(), 1, "the cut-off text must not be dropped");
        assert!(parse_program(&jobs[0].source).is_err());
    }

    /// A reader that yields `data` and then fails, like a stream with a
    /// stray invalid-UTF-8 byte or a dying disk.
    struct FailingReader {
        data: &'static [u8],
        pos: usize,
    }

    impl std::io::Read for FailingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos < self.data.len() {
                let n = buf.len().min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            } else {
                Err(std::io::Error::other("stray invalid byte"))
            }
        }
    }

    #[test]
    fn job_reader_surfaces_io_failures_as_read_error_jobs() {
        let failing = FailingReader { data: b"q1(x) <- R(x, x). p1(x) <- R(x, x).\n", pos: 0 };
        let jobs: Vec<Job> = JobReader::new(std::io::BufReader::new(failing)).collect();
        assert_eq!(jobs.len(), 2, "{jobs:?}");
        assert_eq!(jobs[0].read_error, None);
        let message = jobs[1].read_error.as_deref().expect("the failure must become a job");
        assert!(message.contains("stray invalid byte"), "{message}");

        // Through the engine, the failure is a structured `read` verdict —
        // a truncated stream can never end with exit-success silence.
        let failing = FailingReader { data: b"q1(x) <- R(x, x). p1(x) <- R(x, x).\n", pos: 0 };
        let engine = DecisionEngine::new(EngineConfig::default());
        let mut got: Vec<Verdict> = Vec::new();
        let stats = engine.run_batch(JobReader::new(std::io::BufReader::new(failing)), |v| {
            got.push(v);
            true
        });
        assert_eq!(stats.failures, 1);
        assert!(got[0].outcome.is_ok());
        assert_eq!(got[1].outcome.as_ref().unwrap_err().stage(), "read");
    }

    #[test]
    fn batch_emits_verdicts_in_submission_order_for_any_worker_count() {
        let mut input = String::new();
        for i in 0..12 {
            // Alternate contained / not-contained pairs so outcomes differ.
            if i % 2 == 0 {
                input.push_str(&format!("q{i}(x) <- R(x, x). p{i}(x) <- R(x, x).\n"));
            } else {
                input.push_str(&format!("q{i}(x) <- R(x, x), S(x). p{i}(x) <- R(x, x).\n"));
            }
        }
        let mut reference: Vec<Verdict> = Vec::new();
        DecisionEngine::new(EngineConfig { jobs: 1, ..Default::default() }).run_batch(
            reader(&input),
            |v| {
                reference.push(v);
                true
            },
        );
        for workers in [2usize, 4, 8] {
            let engine = DecisionEngine::new(EngineConfig { jobs: workers, ..Default::default() });
            let mut got: Vec<Verdict> = Vec::new();
            let stats = engine.run_batch(reader(&input), |v| {
                got.push(v);
                true
            });
            assert_eq!(got, reference, "workers={workers}");
            assert_eq!(stats.jobs_processed, 12);
            assert_eq!(stats.failures, 0);
        }
        assert_eq!(reference.len(), 12);
        assert!(reference.iter().enumerate().all(|(i, v)| v.id == i as u64 + 1));
        assert!(reference[0].outcome.as_ref().unwrap().verdict.holds());
        assert!(!reference[1].outcome.as_ref().unwrap().verdict.holds());
    }

    #[test]
    fn batch_failures_are_values_and_the_stream_continues() {
        let input = "q1(x) <- R(x, x). p1(x) <- R(x, x).\n\
                     broken(x <- R(x, x). p2(x) <- R(x, x).\n\
                     q3(x) <- R(x, y). p3(x) <- R(x, x).\n\
                     q4(x) <- R(x, x). p4(x) <- R(x, x).\n";
        let engine = DecisionEngine::new(EngineConfig { jobs: 3, ..Default::default() });
        let mut got: Vec<Verdict> = Vec::new();
        let stats = engine.run_batch(reader(input), |v| {
            got.push(v);
            true
        });
        assert_eq!(got.len(), 4);
        assert!(got[0].outcome.is_ok());
        let parse = got[1].outcome.as_ref().unwrap_err();
        assert_eq!(parse.stage(), "parse");
        let decide = got[2].outcome.as_ref().unwrap_err();
        assert_eq!(decide.stage(), "decide");
        assert!(decide.message().contains("projection-free"), "{decide}");
        // The fragment pre-check names the job-relative position of the
        // offending variable and the stable lint code.
        assert!(decide.message().contains("1:15: error[D002]"), "{decide}");
        assert!(got[3].outcome.is_ok());
        assert_eq!(stats.failures, 2);
        assert_eq!(stats.jobs_processed, 4);
    }

    #[test]
    fn batch_cache_amortises_replayed_pairs() {
        // The same pair body under rotating names: one compilation, many hits.
        let mut input = String::new();
        for i in 0..10 {
            input.push_str(&format!("q{i}(x) <- R^2(x, x). p{i}(x) <- R(x, y), R(y, x).\n"));
        }
        let engine = DecisionEngine::new(EngineConfig { jobs: 4, ..Default::default() });
        let mut verdicts = Vec::new();
        let stats = engine.run_batch(reader(&input), |v| {
            verdicts.push(v);
            true
        });
        assert_eq!(stats.jobs_processed, 10);
        assert_eq!(stats.cache_hits + stats.cache_misses, 10);
        assert!(stats.cache_misses < 10, "identical pairs must share a compilation: {stats:?}");
        // All ten verdicts agree (same underlying pair).
        let first = verdicts[0].outcome.as_ref().unwrap().verdict.clone();
        for v in &verdicts {
            assert_eq!(v.outcome.as_ref().unwrap().verdict, first);
        }
    }

    #[test]
    fn compilation_cache_clears_rather_than_grows_past_capacity() {
        let cache = CompilationCache::new(2);
        let qs: Vec<(ConjunctiveQuery, ConjunctiveQuery)> = (0..4)
            .map(|i| {
                let body = format!("q(x) <- R^{}(x, x)", i + 1);
                (dioph_cq::parse_query(&body).unwrap(), dioph_cq::parse_query(&body).unwrap())
            })
            .collect();
        for (a, b) in &qs {
            cache.get_or_compile(a, b).unwrap();
        }
        assert_eq!(cache.misses(), 4);
        // Replaying the last pair hits.
        cache.get_or_compile(&qs[3].0, &qs[3].1).unwrap();
        assert_eq!(cache.hits(), 1);
    }
}
