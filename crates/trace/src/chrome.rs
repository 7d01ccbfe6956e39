//! Chrome trace-event exporter: turns a recorded event stream into the
//! JSON object format `about:tracing` and [Perfetto](https://ui.perfetto.dev)
//! load directly.
//!
//! The output is the standard envelope — a `traceEvents` array of
//! records with `name`/`cat`/`ph`/`ts`/`pid`/`tid`/`args` — with
//! timestamps scaled from simulated cycles to the microseconds the
//! format expects. The whole simulator is one logical process on one
//! logical thread, so every record uses `pid`/`tid` 1 and nesting is
//! carried purely by `B`/`E` ordering; the *simulated* pid of an
//! operation travels in its `args` instead.
//!
//! ```
//! use fpr_trace::{chrome, json, sink};
//!
//! let ((), events) = sink::with_sink(|| {
//!     sink::span_begin("fork", "api", 3_000);
//!     sink::counter("frames_used", 4_500, 10);
//!     sink::span_end("fork", 6_000);
//! });
//! let text = chrome::to_chrome_string(&events, 3_000);
//! let doc = json::parse(&text).expect("exporter emits valid JSON");
//! let records = doc.get("traceEvents").unwrap().as_arr().unwrap();
//! assert_eq!(records.len(), 3);
//! assert_eq!(records[0].get("ph").unwrap().as_str(), Some("B"));
//! assert_eq!(records[0].get("ts").unwrap().as_f64(), Some(1.0));
//! ```

use crate::event::{ArgValue, Phase, TraceEvent};
use crate::json::Value;

/// Nominal simulated clock rate used to scale cycle timestamps into the
/// microseconds the trace-event format expects: a 3 GHz machine, i.e.
/// 3000 cycles per microsecond. Exporters may pass any other rate; this
/// is the default the demo and reports use.
pub const CYCLES_PER_US: u64 = 3_000;

/// Converts one recorded event stream into a Chrome trace-event JSON
/// document. `cycles_per_us` scales simulated cycles to microseconds
/// (the kernel's cost model uses 3000).
pub(crate) fn to_chrome_json(events: &[TraceEvent], cycles_per_us: u64) -> Value {
    let scale = cycles_per_us.max(1) as f64;
    let records: Vec<Value> = events.iter().map(|ev| record(ev, scale)).collect();
    Value::Obj(vec![
        ("traceEvents".into(), Value::Arr(records)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        (
            "otherData".into(),
            Value::Obj(vec![
                (
                    "source".into(),
                    Value::Str("forkroad simulator (deterministic cycle model)".into()),
                ),
                ("cycles_per_us".into(), Value::Num(cycles_per_us as f64)),
            ]),
        ),
    ])
}

/// Like `to_chrome_json`, rendered to a string ready to be written to
/// a `.json` file and dropped into `about:tracing` or Perfetto.
pub fn to_chrome_string(events: &[TraceEvent], cycles_per_us: u64) -> String {
    let mut s = to_chrome_json(events, cycles_per_us).pretty();
    s.push('\n');
    s
}

fn record(ev: &TraceEvent, scale: f64) -> Value {
    let mut members: Vec<(String, Value)> = vec![
        ("name".into(), Value::Str(ev.name.into())),
        ("cat".into(), Value::Str(ev.cat.into())),
        ("ph".into(), Value::Str(ev.ph.letter().into())),
        ("ts".into(), Value::Num(ev.ts as f64 / scale)),
        ("pid".into(), Value::Num(1.0)),
        ("tid".into(), Value::Num(1.0)),
    ];
    if ev.ph == Phase::Instant {
        // Thread-scoped instants render as small arrows in the viewer.
        members.push(("s".into(), Value::Str("t".into())));
    }
    let mut args: Vec<(String, Value)> = ev
        .args
        .iter()
        .map(|(k, v)| ((*k).to_string(), arg_value(v)))
        .collect();
    // Raw cycle timestamps survive the µs scaling in args, so a viewer
    // tooltip still shows the exact deterministic time.
    args.push(("ts_cycles".into(), Value::Num(ev.ts as f64)));
    members.push(("args".into(), Value::Obj(args)));
    Value::Obj(members)
}

fn arg_value(v: &ArgValue) -> Value {
    match v {
        ArgValue::U64(n) => Value::Num(*n as f64),
        ArgValue::F64(n) => Value::Num(*n),
        ArgValue::Str(s) => Value::Str(s.to_string()),
        ArgValue::Bool(b) => Value::Bool(*b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::new("fork", "api", Phase::Begin, 3_000).arg("mode", "ondemand"),
            TraceEvent::new("clone_address_space", "mem", Phase::Begin, 3_300),
            TraceEvent::new("fault.frame_alloc", "fault", Phase::Instant, 3_400)
                .arg("occurrence", 0u64)
                .arg("count", 1u64)
                .arg("injected", false),
            TraceEvent::new("clone_address_space", "", Phase::End, 5_000),
            TraceEvent::new("frames_used", "metric", Phase::Counter, 5_500).arg("value", 42u64),
            TraceEvent::new("fork", "", Phase::End, 6_000),
        ]
    }

    #[test]
    fn envelope_has_trace_events_array() {
        let doc = to_chrome_json(&sample(), 3_000);
        let arr = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 6);
        assert!(doc.get("otherData").is_some());
    }

    #[test]
    fn phases_timestamps_and_args_serialise() {
        let text = to_chrome_string(&sample(), 3_000);
        let doc = json::parse(&text).unwrap();
        let arr = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let phs: Vec<&str> = arr
            .iter()
            .map(|r| r.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phs, vec!["B", "B", "I", "E", "C", "E"]);
        assert_eq!(arr[0].get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(arr[5].get("ts").unwrap().as_f64(), Some(2.0));
        let args = arr[0].get("args").unwrap();
        assert_eq!(args.get("mode").unwrap().as_str(), Some("ondemand"));
        assert_eq!(args.get("ts_cycles").unwrap().as_f64(), Some(3000.0));
        let counter_args = arr[4].get("args").unwrap();
        assert_eq!(counter_args.get("value").unwrap().as_f64(), Some(42.0));
        assert_eq!(arr[2].get("s").unwrap().as_str(), Some("t"));
    }

    #[test]
    fn zero_scale_does_not_divide_by_zero() {
        let doc = to_chrome_json(&sample(), 0);
        assert!(doc.get("traceEvents").is_some());
    }
}
