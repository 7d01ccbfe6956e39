//! The runtime trace sink: a thread-local collector for structured
//! events emitted by instrumented kernel paths.
//!
//! Mirrors the scoping model of `fpr_faults::with_plan`: a sink is
//! installed for the dynamic extent of one operation with [`with_sink`],
//! which returns the operation's result together with every event
//! emitted inside the scope. Outside a scope every emit function is a
//! no-op costing one thread-local flag check, so instrumentation can sit
//! on hot paths (COW breaks, PTE copies) without perturbing the cycle
//! model — tracing charges **zero** simulated cycles by construction.
//!
//! While a sink is active, a `fpr_faults` observer is installed so every
//! fault-site crossing is mirrored in an instant event named
//! `fault.<site>` in category `"fault"` — no fault path is silent. An
//! event stands for `count` consecutive crossings of its site (a fork
//! crosses `pt_node_alloc` once per PTE it copies, a run of a page-table
//! node at a time); a crossing that injects is always an event of its own.
//!
//! ```
//! use fpr_trace::{sink, Phase};
//!
//! let ((), events) = sink::with_sink(|| {
//!     sink::span_begin("fork", "api", 100);
//!     sink::instant("cow_break", "mem", 150);
//!     sink::span_end("fork", 200);
//! });
//! assert_eq!(events.len(), 3);
//! assert_eq!(events[0].ph, Phase::Begin);
//! assert_eq!(events[2].ph, Phase::End);
//! assert!(!sink::is_active(), "sink is scoped");
//! ```

use crate::event::{Phase, TraceEvent};
use std::cell::{Cell, RefCell};

struct SinkState {
    events: Vec<TraceEvent>,
    last_ts: u64,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SINK: RefCell<Option<SinkState>> = const { RefCell::new(None) };
}

/// True while a [`with_sink`] scope is active on this thread.
///
/// Instrumentation uses this to skip argument construction entirely when
/// nothing is listening:
///
/// ```
/// use fpr_trace::{sink, Phase, TraceEvent};
///
/// // Outside a scope: the check is one thread-local read.
/// if sink::is_active() {
///     sink::emit(TraceEvent::new("expensive", "mem", Phase::Instant, 0));
/// }
/// ```
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// The timestamp of the most recently emitted event (0 before any).
///
/// Used by emitters that have no cycle accumulator in reach — e.g. the
/// fault observer — to stamp events with the best-known current time.
pub(crate) fn last_ts() -> u64 {
    SINK.with(|s| s.borrow().as_ref().map(|st| st.last_ts).unwrap_or(0))
}

/// Records `ev` if a sink is active; otherwise drops it.
pub fn emit(ev: TraceEvent) {
    if !is_active() {
        return;
    }
    SINK.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.last_ts = st.last_ts.max(ev.ts);
            st.events.push(ev);
        }
    });
}

/// Opens a span: emits a `Begin` event at `ts`.
pub fn span_begin(name: &'static str, cat: &'static str, ts: u64) {
    if is_active() {
        emit(TraceEvent::new(name, cat, Phase::Begin, ts));
    }
}

/// Closes the innermost span: emits an `End` event at `ts`. Callers are
/// responsible for balance — the canonical pattern wraps a whole
/// function body so every early return still passes through the end:
///
/// ```
/// use fpr_trace::sink;
///
/// fn fallible(fail: bool) -> Result<(), ()> {
///     if fail { Err(()) } else { Ok(()) }
/// }
///
/// fn traced(fail: bool) -> Result<(), ()> {
///     sink::span_begin("op", "api", 10);
///     let r = fallible(fail);
///     sink::span_end("op", 20);
///     r
/// }
///
/// let (res, events) = sink::with_sink(|| traced(true));
/// assert!(res.is_err());
/// assert_eq!(events.len(), 2, "balanced even on the error path");
/// ```
pub fn span_end(name: &'static str, ts: u64) {
    if is_active() {
        emit(TraceEvent::new(name, "", Phase::End, ts));
    }
}

/// Emits an instant (point) event.
#[inline] // on every demand fill and COW break: keep the inactive check in the caller's crate
pub fn instant(name: &'static str, cat: &'static str, ts: u64) {
    if is_active() {
        emit(TraceEvent::new(name, cat, Phase::Instant, ts));
    }
}

/// Emits a counter sample: `name` takes `value` at time `ts`.
pub fn counter(name: &'static str, ts: u64, value: u64) {
    if is_active() {
        emit(TraceEvent::new(name, "metric", Phase::Counter, ts).arg("value", value));
    }
}

/// Runs `f` with a fresh sink installed, returning its result and every
/// event emitted during the scope, in order. Scopes do not nest — a
/// nested call panics, mirroring `fpr_faults::with_plan`.
///
/// A fault observer is installed for the scope (and the previous one
/// restored afterwards, even on panic), so each run of `fpr_faults`
/// crossings appears as an instant event `fault.<site>` with `occurrence`
/// (of the run's first crossing), `count` and `injected` arguments.
pub fn with_sink<R>(f: impl FnOnce() -> R) -> (R, Vec<TraceEvent>) {
    assert!(!is_active(), "fpr-trace: with_sink scopes do not nest");
    SINK.with(|s| {
        *s.borrow_mut() = Some(SinkState {
            events: Vec::new(),
            last_ts: 0,
        });
    });
    ACTIVE.with(|a| a.set(true));
    let prev_observer =
        fpr_faults::set_observer(Some(Box::new(|site, occurrence, count, injected| {
            if is_active() {
                let ts = last_ts();
                emit(
                    TraceEvent::new(site.event_name(), "fault", Phase::Instant, ts)
                        .arg("occurrence", occurrence)
                        .arg("count", count)
                        .arg("injected", injected),
                );
            }
        })));
    // The guard tears the sink down even if `f` panics, or later scopes
    // on this thread would inherit a stale observer and a poisoned flag.
    struct Teardown(Option<fpr_faults::Observer>);
    impl Drop for Teardown {
        fn drop(&mut self) {
            ACTIVE.with(|a| a.set(false));
            SINK.with(|s| *s.borrow_mut() = None);
            fpr_faults::set_observer(self.0.take());
        }
    }
    let mut guard = Teardown(prev_observer);
    let out = f();
    let events = SINK.with(|s| {
        s.borrow_mut()
            .take()
            .map(|st| st.events)
            .unwrap_or_default()
    });
    ACTIVE.with(|a| a.set(false));
    fpr_faults::set_observer(guard.0.take());
    std::mem::forget(guard);
    (out, events)
}

/// Convenience: true if `events` is a balanced span sequence — every
/// `End` matches the innermost open `Begin` by name, and nothing stays
/// open. Instants and counters are ignored.
///
/// ```
/// use fpr_trace::{sink, Phase, TraceEvent};
///
/// let ok = vec![
///     TraceEvent::new("a", "api", Phase::Begin, 0),
///     TraceEvent::new("b", "mem", Phase::Begin, 1),
///     TraceEvent::new("b", "", Phase::End, 2),
///     TraceEvent::new("a", "", Phase::End, 3),
/// ];
/// assert!(sink::spans_balanced(&ok));
/// assert!(!sink::spans_balanced(&ok[..3]));
/// ```
pub fn spans_balanced(events: &[TraceEvent]) -> bool {
    let mut stack: Vec<&str> = Vec::new();
    for ev in events {
        match ev.ph {
            Phase::Begin => stack.push(ev.name),
            // The guard pops unconditionally on `End`: a matching name
            // falls through to the no-op arm with the stack advanced.
            Phase::End if stack.pop() != Some(ev.name) => return false,
            _ => {}
        }
    }
    stack.is_empty()
}

/// Convenience filter: events in category `cat`.
pub fn in_category<'a>(events: &'a [TraceEvent], cat: &str) -> Vec<&'a TraceEvent> {
    events.iter().filter(|e| e.cat == cat).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_sink_drops_events() {
        emit(TraceEvent::new("x", "api", Phase::Instant, 1));
        let ((), events) = with_sink(|| {});
        assert!(events.is_empty());
    }

    #[test]
    fn events_recorded_in_order_with_last_ts() {
        let ((), events) = with_sink(|| {
            span_begin("outer", "api", 10);
            span_begin("inner", "mem", 20);
            assert_eq!(last_ts(), 20);
            counter("frames", 25, 4);
            span_end("inner", 30);
            span_end("outer", 40);
        });
        assert_eq!(events.len(), 5);
        assert!(spans_balanced(&events));
        assert_eq!(events[2].ph, Phase::Counter);
        assert_eq!(events[2].arg_u64("value"), Some(4));
    }

    #[test]
    fn fault_crossings_mirror_as_events() {
        let ((), events) = with_sink(|| {
            span_begin("op", "api", 100);
            let _ = fpr_faults::cross(fpr_faults::FaultSite::FrameAlloc);
            let _ = fpr_faults::cross_n(fpr_faults::FaultSite::PtNodeAlloc, 512);
            span_end("op", 200);
        });
        let faults = in_category(&events, "fault");
        assert_eq!(faults.len(), 2, "one event a run, however long");
        assert_eq!(faults[0].name, "fault.frame_alloc");
        assert_eq!(faults[0].ts, 100, "stamped with last known time");
        assert_eq!(faults[0].arg_u64("count"), Some(1));
        assert_eq!(faults[1].name, "fault.pt_node_alloc");
        assert_eq!(faults[1].arg_u64("count"), Some(512));
    }

    #[test]
    fn unbalanced_sequences_detected() {
        let evs = vec![
            TraceEvent::new("a", "api", Phase::Begin, 0),
            TraceEvent::new("b", "", Phase::End, 1),
        ];
        assert!(!spans_balanced(&evs));
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn nested_sinks_panic() {
        let _ = with_sink(|| with_sink(|| {}));
    }

    #[test]
    fn sink_cleared_even_on_panic() {
        let caught = std::panic::catch_unwind(|| {
            let _ = with_sink(|| panic!("boom"));
        });
        assert!(caught.is_err());
        assert!(!is_active());
        let ((), events) = with_sink(|| instant("after", "api", 1));
        assert_eq!(events.len(), 1);
    }
}
