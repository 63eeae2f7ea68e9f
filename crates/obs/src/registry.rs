//! The process-wide counter/gauge registry.
//!
//! Every instrumented event in the workspace increments one of the static
//! [`Counter`]s defined here, under a stable dotted name
//! (`arith.int_small_hits`, `lp.bareiss.pivots`, …). The registry is a
//! **static table**: no runtime registration, no locks on the hot path, one
//! relaxed atomic add per event.
//! [`snapshot`] reads every cell at once; [`MetricsSnapshot::since`] turns
//! two snapshots into a delta, which is how the CLI reports per-command (and
//! `bench` per-run) numbers instead of process-lifetime totals.
//!
//! Counters carry a [`Stability`] class. `Deterministic` counters are a pure
//! function of the input stream and the selected algorithm — invariant
//! across `--jobs` — and may appear in byte-stable output. `Volatile`
//! counters measure implementation work (the arith fast-path tallies, the
//! LP kernel's pivots) or depend on thread scheduling (probes racing
//! workers decide past the first failing one, cache hit/miss splits, probe
//! claims) and must never be emitted into output that is pinned
//! byte-identical across `--jobs`.

use core::sync::atomic::{AtomicU64, Ordering};

/// How a counter's value relates to the run configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stability {
    /// A pure function of (input, algorithm, semantics): byte-identical
    /// across `--jobs`. Safe to embed in deterministic output.
    Deterministic,
    /// Measures implementation work or depends on thread scheduling;
    /// compare only statistically.
    Volatile,
}

/// The accumulation semantics of a registry cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Monotone event count; deltas between snapshots are meaningful.
    Counter,
    /// High-water mark updated with a relaxed `fetch_max`; snapshots report
    /// the current watermark, and deltas pass it through undifferenced.
    Gauge,
}

/// One named relaxed-atomic cell of the registry.
pub struct Counter {
    name: &'static str,
    stability: Stability,
    kind: Kind,
    help: &'static str,
    cell: AtomicU64,
}

impl Counter {
    const fn new(name: &'static str, stability: Stability, kind: Kind, help: &'static str) -> Self {
        Counter { name, stability, kind, help, cell: AtomicU64::new(0) }
    }

    /// The stable dotted name (`engine.pairs_decided`, …).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The stability class (see [`Stability`]).
    pub fn stability(&self) -> Stability {
        self.stability
    }

    /// Counter or gauge (see [`Kind`]).
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// A one-line description, surfaced by `docs/metrics.md`.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Adds `n` events (relaxed; the only ordering the whole registry uses).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Raises a gauge to at least `value` (relaxed `fetch_max`).
    #[inline]
    pub fn record_max(&self, value: u64) {
        self.cell.fetch_max(value, Ordering::Relaxed);
    }

    /// Reads the current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Resets the cell to zero (benches and tests; production readers
    /// difference snapshots instead).
    pub fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

use Kind::{Counter as C, Gauge as G};
use Stability::{Deterministic as Det, Volatile as Vol};

/// Heap allocations observed by the counting-allocator harness.
pub static ALLOC_HEAP_ALLOCS: Counter = Counter::new(
    "alloc.heap.allocs",
    Vol,
    C,
    "heap allocations observed by the counting-allocator harness (zero when no counting \
     allocator is installed in the binary)",
);
/// Monomials whose exponents fit the inline cap.
pub static ALLOC_MONOMIAL_INLINE: Counter = Counter::new(
    "alloc.monomial.inline",
    Vol,
    C,
    "monomial exponent vectors stored inline on the stack (length within the inline cap)",
);
/// Monomials whose exponents spilled to the heap.
pub static ALLOC_MONOMIAL_SPILLS: Counter = Counter::new(
    "alloc.monomial.spills",
    Vol,
    C,
    "monomial exponent vectors that spilled to the heap (length past the inline cap)",
);
/// High-water mark of pooled row buffers held by one scratch.
pub static ALLOC_POOL_ROWS_HWM: Counter = Counter::new(
    "alloc.pool.rows.hwm",
    Vol,
    G,
    "high-water mark of recycled row buffers held by a single probe scratch's pools",
);
/// Scratch buffer acquisitions served from recycled capacity.
pub static ALLOC_SCRATCH_REUSES: Counter = Counter::new(
    "alloc.scratch.reuses",
    Vol,
    C,
    "probe decisions served by an already-warmed ProbeScratch (recycled buffer capacity)",
);
/// Scratch buffer acquisitions that had to allocate fresh.
pub static ALLOC_SCRATCH_SPILLS: Counter = Counter::new(
    "alloc.scratch.spills",
    Vol,
    C,
    "pooled-buffer requests the scratch pools could not serve from recycled capacity",
);
/// Integer kernel ops that fell back to the limb representation.
pub static ARITH_INT_BIG_FALLBACKS: Counter = Counter::new(
    "arith.int_big_fallbacks",
    Vol,
    C,
    "integer kernel operations that fell back to the limb representation",
);
/// Integer kernel ops served by the machine-word fast path.
pub static ARITH_INT_SMALL_HITS: Counter = Counter::new(
    "arith.int_small_hits",
    Vol,
    C,
    "integer kernel operations (exact division, gcd) served by the machine-word fast path; \
     the LP kernel's row normalisation counts once per row",
);
/// Batch compilation-cache hits.
pub static CACHE_COMPILED_PAIR_HITS: Counter = Counter::new(
    "cache.compiled_pair.hits",
    Vol,
    C,
    "batch compilation-cache lookups answered by a cached CompiledPair",
);
/// Batch compilation-cache misses.
pub static CACHE_COMPILED_PAIR_MISSES: Counter = Counter::new(
    "cache.compiled_pair.misses",
    Vol,
    C,
    "batch compilation-cache lookups that compiled a fresh CompiledPair",
);
/// Probe compilations (cold `CompiledProbe` builds).
pub static CACHE_PROBE_COMPILED: Counter = Counter::new(
    "cache.probe.compiled",
    Vol,
    C,
    "cold probe compilations (memoised probe slots count only their first fill)",
);
/// Verdicts decided by a dominating containment mapping.
pub static CONTAINMENT_DECIDED_BY_DOMINANCE: Counter = Counter::new(
    "containment.decided_by.dominance",
    Det,
    C,
    "verdicts decided by a containment mapping whose exponents dominate the containee monomial \
     (contained without an LP)",
);
/// Verdicts decided by the LP.
pub static CONTAINMENT_DECIDED_BY_LP: Counter = Counter::new(
    "containment.decided_by.lp",
    Det,
    C,
    "verdicts that needed the Theorem 4.1 LP (a contained all-probes verdict counts here when \
     any of its probes did)",
);
/// Verdicts decided by an empty containment-mapping set.
pub static CONTAINMENT_DECIDED_BY_NO_MAPPING: Counter = Counter::new(
    "containment.decided_by.no_mapping",
    Det,
    C,
    "verdicts decided by a probe with no containment mapping (the all-ones bag refutes)",
);
/// Containment mappings enumerated during probe compilation.
pub static CONTAINMENT_MAPPINGS: Counter = Counter::new(
    "containment.mappings.enumerated",
    Vol,
    C,
    "containment mappings enumerated while assembling MPIs",
);
/// Probes decided (sequential loop and pool workers alike).
pub static CONTAINMENT_PROBES_DECIDED: Counter = Counter::new(
    "containment.probes.decided",
    Vol,
    C,
    "probe tuples decided (the parallel pool may legitimately decide fewer after an early \
     non-containment event)",
);
/// Batch jobs that failed.
pub static ENGINE_BATCH_FAILURES: Counter =
    Counter::new("engine.batch.failures", Det, C, "batch jobs that ended in a structured error");
/// Batch jobs emitted.
pub static ENGINE_BATCH_JOBS: Counter =
    Counter::new("engine.batch.jobs", Det, C, "batch jobs emitted (success or failure)");
/// High-water mark of the batch channel queue depth.
pub static ENGINE_BATCH_QUEUE_DEPTH_MAX: Counter = Counter::new(
    "engine.batch.queue_depth.max",
    Vol,
    G,
    "high-water mark of jobs in flight between the batch feeder and the workers",
);
/// High-water mark of the per-run worker claim spread.
pub static ENGINE_CLAIM_SPREAD_MAX: Counter = Counter::new(
    "engine.claim_spread.max",
    Vol,
    G,
    "high-water mark of the per-run claim spread (busiest minus idlest worker's claimed units)",
);
/// Pairs decided.
pub static ENGINE_PAIRS_DECIDED: Counter = Counter::new(
    "engine.pairs_decided",
    Det,
    C,
    "(containee, containing) pairs decided (equiv counts both directions)",
);
/// Probe indices claimed by pool workers.
pub static ENGINE_PROBES_CLAIMED: Counter = Counter::new(
    "engine.probes_claimed",
    Vol,
    C,
    "probe indices claimed by probe-pool workers (includes claims skipped past the cutoff)",
);
/// Unit chunks stolen from a pair another worker started.
pub static ENGINE_STEALS: Counter = Counter::new(
    "engine.steals",
    Vol,
    C,
    "unit chunks claimed from a pair that a different worker claimed first",
);
/// Work units claimed by scheduler workers.
pub static ENGINE_UNITS_CLAIMED: Counter = Counter::new(
    "engine.units_claimed",
    Vol,
    C,
    "(pair, probe-index) work units claimed by scheduler workers (includes units skipped past a \
     cutoff)",
);
/// Contained verdicts.
pub static ENGINE_VERDICTS_CONTAINED: Counter =
    Counter::new("engine.verdicts.contained", Det, C, "decisions that ended in 'contained'");
/// Not-contained verdicts.
pub static ENGINE_VERDICTS_NOT_CONTAINED: Counter = Counter::new(
    "engine.verdicts.not_contained",
    Det,
    C,
    "decisions that ended in 'not contained'",
);
/// Bareiss kernel pivots.
pub static LP_BAREISS_PIVOTS: Counter = Counter::new(
    "lp.bareiss.pivots",
    Vol,
    C,
    "pivot iterations of the fraction-free Bareiss phase-1 simplex",
);
/// LP feasibility decisions.
pub static LP_FEASIBILITY_CALLS: Counter = Counter::new(
    "lp.feasibility.calls",
    Vol,
    C,
    "strict-homogeneous-system feasibility decisions (one per probe reaching the LP)",
);
/// Fourier–Motzkin variable eliminations.
pub static LP_FM_ELIMINATIONS: Counter = Counter::new(
    "lp.fm.eliminations",
    Vol,
    C,
    "variables eliminated by the Fourier-Motzkin engine",
);
/// Queries parsed.
pub static PARSE_QUERIES: Counter =
    Counter::new("parse.queries", Det, C, "datalog queries parsed from input sources");

/// Every registry cell, sorted by name (the sort is pinned by a test, so
/// snapshot iteration — and therefore every rendered counter block — is in
/// stable name order).
static COUNTERS: [&Counter; 30] = [
    &ALLOC_HEAP_ALLOCS,
    &ALLOC_MONOMIAL_INLINE,
    &ALLOC_MONOMIAL_SPILLS,
    &ALLOC_POOL_ROWS_HWM,
    &ALLOC_SCRATCH_REUSES,
    &ALLOC_SCRATCH_SPILLS,
    &ARITH_INT_BIG_FALLBACKS,
    &ARITH_INT_SMALL_HITS,
    &CACHE_COMPILED_PAIR_HITS,
    &CACHE_COMPILED_PAIR_MISSES,
    &CACHE_PROBE_COMPILED,
    &CONTAINMENT_DECIDED_BY_DOMINANCE,
    &CONTAINMENT_DECIDED_BY_LP,
    &CONTAINMENT_DECIDED_BY_NO_MAPPING,
    &CONTAINMENT_MAPPINGS,
    &CONTAINMENT_PROBES_DECIDED,
    &ENGINE_BATCH_FAILURES,
    &ENGINE_BATCH_JOBS,
    &ENGINE_BATCH_QUEUE_DEPTH_MAX,
    &ENGINE_CLAIM_SPREAD_MAX,
    &ENGINE_PAIRS_DECIDED,
    &ENGINE_PROBES_CLAIMED,
    &ENGINE_STEALS,
    &ENGINE_UNITS_CLAIMED,
    &ENGINE_VERDICTS_CONTAINED,
    &ENGINE_VERDICTS_NOT_CONTAINED,
    &LP_BAREISS_PIVOTS,
    &LP_FEASIBILITY_CALLS,
    &LP_FM_ELIMINATIONS,
    &PARSE_QUERIES,
];

/// The full registry, in stable (sorted-by-name) order.
pub fn counters() -> &'static [&'static Counter] {
    &COUNTERS
}

/// Looks a cell up by its dotted name.
pub fn counter(name: &str) -> Option<&'static Counter> {
    COUNTERS.binary_search_by(|c| c.name.cmp(name)).ok().map(|i| COUNTERS[i])
}

/// A point-in-time reading of every registry cell, aligned with
/// [`counters`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    values: Vec<u64>,
}

impl MetricsSnapshot {
    /// Per-cell deltas since `earlier` (saturating, so a concurrent
    /// [`reset`] cannot underflow). Gauges are high-water marks, not event
    /// counts: the delta passes the later watermark through undifferenced.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let values = COUNTERS
            .iter()
            .zip(&self.values)
            .zip(&earlier.values)
            .map(|((c, later), earlier)| match c.kind {
                Kind::Counter => later.saturating_sub(*earlier),
                Kind::Gauge => *later,
            })
            .collect();
        MetricsSnapshot { values }
    }

    /// Iterates `(cell, value)` in stable registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static Counter, u64)> + '_ {
        COUNTERS.iter().copied().zip(self.values.iter().copied())
    }

    /// The recorded value of the named cell.
    pub fn get(&self, name: &str) -> Option<u64> {
        COUNTERS.binary_search_by(|c| c.name.cmp(name)).ok().map(|i| self.values[i])
    }
}

/// Reads every cell at once.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot { values: COUNTERS.iter().map(|c| c.get()).collect() }
}

/// Resets every cell to zero (benches and tests; production readers
/// difference snapshots instead — in-process concurrent readers would see
/// each other's resets).
pub fn reset() {
    for c in COUNTERS {
        c.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_sorted_and_duplicate_free() {
        let names: Vec<&str> = counters().iter().map(|c| c.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted, "the registry table must be sorted by name, without repeats");
    }

    #[test]
    fn lookup_finds_every_cell() {
        for cell in counters() {
            assert!(std::ptr::eq(counter(cell.name()).unwrap(), *cell));
        }
        assert!(counter("no.such.counter").is_none());
    }

    #[test]
    fn snapshots_difference_counters_and_pass_gauges_through() {
        // Deltas of this test's own events: tests share the process, so
        // absolute values are off-limits.
        let before = snapshot();
        LP_FM_ELIMINATIONS.add(3);
        ENGINE_BATCH_QUEUE_DEPTH_MAX.record_max(u64::MAX);
        let delta = snapshot().since(&before);
        assert!(delta.get("lp.fm.eliminations").unwrap() >= 3);
        // The gauge reports the watermark itself, not a difference.
        assert_eq!(delta.get("engine.batch.queue_depth.max"), Some(u64::MAX));
        assert_eq!(delta.get("no.such.counter"), None);
    }

    #[test]
    fn names_follow_the_dotted_lowercase_convention() {
        for cell in counters() {
            assert!(
                cell.name().chars().all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "{} breaks the naming convention",
                cell.name()
            );
            assert!(cell.name().contains('.'), "{} has no namespace", cell.name());
            assert!(!cell.help().is_empty());
        }
    }
}
