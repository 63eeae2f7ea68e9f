//! Pipeline phase spans.
//!
//! The decide pipeline has six real phases — parse → check → compile →
//! probe loop → LP → merge — and each instrumented region opens a
//! [`span`] over its [`Phase`]. Spans aggregate into per-phase wall-clock
//! and invocation counts (read with [`snapshot`]), and, when tracing is
//! enabled, also become per-thread Chrome trace events.
//!
//! Timing is **off by default**: a span on a disabled recorder takes one
//! relaxed load and no clock read, so instrumented hot paths (the LP, the
//! per-probe loop) cost nothing unless the user asked for `--metrics` or
//! `--trace-out`. Phases nest (an `lp` span runs inside a `probe` span), so
//! per-phase wall-clocks overlap and do not sum to the run's wall-clock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::trace;

/// One pipeline phase. The numeric order is the pipeline order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Datalog parsing of input sources.
    Parse,
    /// Pre-compilation lint/fragment analysis.
    Check,
    /// MPI compilation (containment-mapping enumeration and assembly).
    Compile,
    /// The per-pair probe loop (sequential or pooled).
    Probe,
    /// LP feasibility of the strict homogeneous systems.
    Lp,
    /// Result merging and in-order emission.
    Merge,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 6] =
        [Phase::Parse, Phase::Check, Phase::Compile, Phase::Probe, Phase::Lp, Phase::Merge];

    /// The stable phase name used in metrics output and trace events.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Check => "check",
            Phase::Compile => "compile",
            Phase::Probe => "probe",
            Phase::Lp => "lp",
            Phase::Merge => "merge",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

static TIMING: AtomicBool = AtomicBool::new(false);
static WALL_NS: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];
static CALLS: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];

/// Turns span recording on or off (the CLI enables it for `--metrics` and
/// `--trace-out` runs).
pub fn set_timing(enabled: bool) {
    TIMING.store(enabled, Ordering::Relaxed);
}

/// `true` while spans are being recorded.
pub fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed)
}

/// An open span over one phase; records on drop. Obtain with [`span`].
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let i = self.phase.index();
        let elapsed = u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        WALL_NS[i].fetch_add(elapsed, Ordering::Relaxed);
        CALLS[i].fetch_add(1, Ordering::Relaxed);
        trace::record(self.phase.name(), start, end);
    }
}

/// Opens a span over `phase`; hold the guard for the duration of the work.
/// Inert (no clock read) while timing is disabled.
#[must_use = "a span records the region between its creation and its drop"]
pub fn span(phase: Phase) -> Span {
    let start = timing_enabled().then(Instant::now);
    Span { phase, start }
}

/// Aggregated numbers for one phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// Which phase.
    pub phase: Phase,
    /// Completed spans.
    pub calls: u64,
    /// Total wall-clock across those spans, in nanoseconds (overlapping:
    /// nested phases both count the shared time).
    pub wall_ns: u64,
}

/// A point-in-time reading of every phase, in pipeline order.
pub fn snapshot() -> [PhaseStat; 6] {
    Phase::ALL.map(|phase| PhaseStat {
        phase,
        calls: CALLS[phase.index()].load(Ordering::Relaxed),
        wall_ns: WALL_NS[phase.index()].load(Ordering::Relaxed),
    })
}

/// Per-phase deltas between two [`snapshot`]s (saturating).
pub fn since(later: &[PhaseStat; 6], earlier: &[PhaseStat; 6]) -> [PhaseStat; 6] {
    let mut out = *later;
    for (slot, before) in out.iter_mut().zip(earlier) {
        debug_assert_eq!(slot.phase, before.phase);
        slot.calls = slot.calls.saturating_sub(before.calls);
        slot.wall_ns = slot.wall_ns.saturating_sub(before.wall_ns);
    }
    out
}

/// Resets every phase aggregate to zero (benches and tests).
pub fn reset() {
    for i in 0..Phase::ALL.len() {
        WALL_NS[i].store(0, Ordering::Relaxed);
        CALLS[i].store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable_and_in_pipeline_order() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["parse", "check", "compile", "probe", "lp", "merge"]);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        // The suite shares process-global state: assert on deltas, and only
        // for a span opened while timing was off (another test may enable
        // it briefly; no other test records Merge spans). The guard itself
        // says whether it was opened disabled, so there is no window
        // between checking the flag and opening the span.
        let before = snapshot();
        let merge = span(Phase::Merge);
        if merge.start.is_some() {
            return;
        }
        drop(merge);
        let delta = since(&snapshot(), &before);
        assert_eq!(delta[5].calls, 0, "a disabled span must not count");
    }

    #[test]
    fn enabled_spans_aggregate_calls_and_wall_clock() {
        let before = snapshot();
        set_timing(true);
        {
            let _outer = span(Phase::Probe);
            let _inner = span(Phase::Lp);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_timing(false);
        let delta = since(&snapshot(), &before);
        let probe = delta.iter().find(|s| s.phase == Phase::Probe).unwrap();
        let lp = delta.iter().find(|s| s.phase == Phase::Lp).unwrap();
        assert!(probe.calls >= 1);
        assert!(lp.calls >= 1);
        assert!(probe.wall_ns > 0, "the span slept, so wall-clock must move");
    }
}
