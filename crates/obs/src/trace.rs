//! Chrome trace-event collection (`--trace-out`).
//!
//! When enabled, every phase span (see [`crate::phase`]) is recorded as a
//! complete (`"ph":"X"`) trace event on the track of the thread that ran it,
//! with worker threads named by the pools that spawn them. [`Trace::to_chrome_json`]
//! renders the collected events as a trace-event JSON object loadable in
//! `chrome://tracing` and Perfetto.
//!
//! Collection is off by default and costs one relaxed load per span; once
//! [`enable`]d, each span takes one mutex push. Tracing is an explicit
//! observability mode, not a hot-path feature, so the simple global
//! collector wins over per-thread buffers.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static THREADS: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The trace-local id of the calling thread, assigned on first use.
fn current_tid() -> u64 {
    TID.with(|slot| match slot.get() {
        Some(tid) => tid,
        None => {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            slot.set(Some(tid));
            tid
        }
    })
}

/// One complete span on one thread's track.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// The phase name (`parse`, `lp`, …).
    pub name: &'static str,
    /// The trace-local thread id.
    pub tid: u64,
    /// Start offset from the trace epoch, in nanoseconds.
    pub ts_ns: u128,
    /// Duration in nanoseconds.
    pub dur_ns: u128,
}

/// Starts collecting trace events (idempotent). The first call pins the
/// trace epoch that all timestamps are relative to.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// `true` while spans are being recorded into the trace.
fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records one finished span on the current thread's track. No-op unless
/// [`enable`]d.
pub fn record(name: &'static str, start: Instant, end: Instant) {
    if !is_enabled() {
        return;
    }
    let Some(epoch) = EPOCH.get() else { return };
    let event = TraceEvent {
        name,
        tid: current_tid(),
        ts_ns: start.duration_since(*epoch).as_nanos(),
        dur_ns: end.duration_since(start).as_nanos(),
    };
    if let Ok(mut events) = EVENTS.lock() {
        events.push(event);
    }
}

/// Names the current thread's track (`main`, `batch-worker-0`, …). The last
/// name registered for a thread wins.
pub fn name_current_thread(label: &str) {
    if !is_enabled() {
        return;
    }
    let tid = current_tid();
    if let Ok(mut threads) = THREADS.lock() {
        if let Some(slot) = threads.iter_mut().find(|(t, _)| *t == tid) {
            slot.1 = label.to_string();
        } else {
            threads.push((tid, label.to_string()));
        }
    }
}

/// Everything collected since [`enable`]: the spans plus the thread-name
/// table.
pub struct Trace {
    /// The recorded spans.
    pub events: Vec<TraceEvent>,
    /// `(tid, name)` labels registered via [`name_current_thread`].
    pub threads: Vec<(u64, String)>,
}

/// Stops collection and drains everything recorded so far.
pub fn take() -> Trace {
    ENABLED.store(false, Ordering::Relaxed);
    let events = EVENTS.lock().map(|mut e| std::mem::take(&mut *e)).unwrap_or_default();
    let mut threads = THREADS.lock().map(|mut t| std::mem::take(&mut *t)).unwrap_or_default();
    threads.sort();
    Trace { events, threads }
}

/// Renders nanoseconds as the microsecond numbers Chrome's `ts`/`dur`
/// fields expect, keeping nanosecond precision in the fraction.
fn micros(ns: u128) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

impl Trace {
    /// The trace-event JSON object (`{"traceEvents":[…]}`) Chrome and
    /// Perfetto load directly.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |text: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&text);
        };
        for (tid, name) in &self.threads {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                ),
                &mut first,
            );
        }
        for event in &self.events {
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{},\"dur\":{}}}",
                    event.tid,
                    event.name,
                    micros(event.ts_ns),
                    micros(event.dur_ns),
                ),
                &mut first,
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_keeps_nanosecond_precision() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_234_567), "1234.567");
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        // The suite shares the process; this test must not enable tracing.
        let t = Instant::now();
        record("parse", t, t);
        assert!(!is_enabled());
    }

    #[test]
    fn chrome_json_renders_threads_then_events() {
        let trace = Trace {
            events: vec![TraceEvent { name: "lp", tid: 3, ts_ns: 1_500, dur_ns: 250 }],
            threads: vec![(3, "probe-worker-1".to_string())],
        };
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":3,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"probe-worker-1\"}}"
        ));
        assert!(json.contains(
            "{\"ph\":\"X\",\"pid\":1,\"tid\":3,\"name\":\"lp\",\"ts\":1.500,\"dur\":0.250}"
        ));
        assert!(json.ends_with("]}\n"));
    }
}
