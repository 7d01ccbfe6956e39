//! Structured trace events: the vocabulary every span, instant marker,
//! and counter sample shares.
//!
//! Events deliberately mirror the Chrome trace-event format (`ph`, `ts`,
//! `cat`, `args`) so the [`crate::chrome`] exporter is a straight
//! serialisation, but they are plain data — sinks, tests, and reports
//! consume them directly without going through JSON.
//!
//! Timestamps are **simulated cycles** (the kernel's deterministic cycle
//! accumulator), not wall-clock time; the exporter scales them to the
//! microseconds Chrome expects.

use std::borrow::Cow;

/// Event phase, matching the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`): a nested duration starts.
    Begin,
    /// Span end (`"E"`): the innermost open duration ends.
    End,
    /// Instant event (`"I"`): a point marker (fault hits, aborts).
    Instant,
    /// Counter sample (`"C"`): a named value at a point in time.
    Counter,
}

impl Phase {
    /// The Chrome trace-event `ph` letter.
    ///
    /// ```
    /// assert_eq!(fpr_trace::Phase::Begin.letter(), "B");
    /// assert_eq!(fpr_trace::Phase::Counter.letter(), "C");
    /// ```
    pub fn letter(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "I",
            Phase::Counter => "C",
        }
    }
}

/// One argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer (counts, cycles, pids).
    U64(u64),
    /// A floating-point value (ratios, percentages).
    F64(f64),
    /// A string (mode names, paths): a literal is borrowed, not copied.
    Str(Cow<'static, str>),
    /// A boolean flag.
    Bool(bool),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::F64(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> ArgValue {
        ArgValue::Bool(v)
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> ArgValue {
        ArgValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(Cow::Owned(v))
    }
}

/// One trace event emitted by the runtime sink.
///
/// ```
/// use fpr_trace::{ArgValue, Phase, TraceEvent};
///
/// let ev = TraceEvent::new("fork", "api", Phase::Begin, 350)
///     .arg("mode", "cow")
///     .arg("parent", 1u64);
/// assert_eq!(ev.ts, 350);
/// assert_eq!(ev.arg_u64("parent"), Some(1));
/// assert_eq!(ev.args.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (`"fork"`, `"clone_address_space"`, `"fault.frame_alloc"`):
    /// one of a fixed vocabulary, so recording an event allocates no name.
    pub name: &'static str,
    /// Category: the subsystem that emitted it (`"api"`, `"mem"`,
    /// `"kernel"`, `"exec"`, `"fault"`).
    pub cat: &'static str,
    /// Phase (begin/end/instant/counter).
    pub ph: Phase,
    /// Timestamp in simulated cycles.
    pub ts: u64,
    /// Arguments, in insertion order.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// Creates an event with no arguments.
    pub fn new(name: &'static str, cat: &'static str, ph: Phase, ts: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat,
            ph,
            ts,
            args: Vec::new(),
        }
    }

    /// Attaches one argument (builder style).
    pub fn arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> TraceEvent {
        self.args.push((key, value.into()));
        self
    }

    /// Looks up an argument as a `u64`, if present and numeric.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
            ArgValue::U64(n) => Some(*n),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_letters_match_chrome() {
        assert_eq!(Phase::Begin.letter(), "B");
        assert_eq!(Phase::End.letter(), "E");
        assert_eq!(Phase::Instant.letter(), "I");
        assert_eq!(Phase::Counter.letter(), "C");
    }

    #[test]
    fn arg_lookup_by_key_and_type() {
        let ev = TraceEvent::new("x", "api", Phase::Instant, 7)
            .arg("count", 3u64)
            .arg("mode", "eager")
            .arg("ok", true);
        assert_eq!(ev.arg_u64("count"), Some(3));
        assert_eq!(ev.arg_u64("mode"), None);
        assert_eq!(ev.arg_u64("missing"), None);
    }
}
