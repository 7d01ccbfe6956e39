//! # fpr-trace — runtime observability, workloads, and experiment records
//!
//! Two halves, one crate:
//!
//! * **Runtime observability** — the measurement substrate every other
//!   crate threads through:
//!   - [`event`]: structured [`TraceEvent`]s (spans, instants, counters)
//!     whose timestamps are deterministic simulated cycles;
//!   - [`sink`]: a scoped thread-local collector ([`sink::with_sink`])
//!     that records events around one operation, mirrors every
//!     `fpr_faults` crossing as a `fault.<site>` event, and costs one
//!     flag check when inactive;
//!   - [`metrics`]: always-on thread-local counters, one
//!     [`metrics::Counter`] each, bumped by an indexed add and read by
//!     snapshot-diff ([`metrics::Snapshot::delta`]), and the log-scale
//!     [`metrics::Histogram`] value type;
//!   - [`vclock`] and [`smp`]: the per-thread virtual clock and the
//!     named virtual-time lock ([`smp::VLock`]) the SMP experiments
//!     price contention with, each lock counting its own waits
//!     ([`smp::VLock::stats`]);
//!   - [`chrome`]: a Chrome trace-event / Perfetto JSON exporter;
//!   - [`report`]: a flamegraph-style text cost-attribution report.
//!
//! * **Benchmark plumbing** — [`workload`] holds the two parent shapes
//!   (shell-sized, or a given heap) and the touch patterns every
//!   experiment sweeps over; [`records`]
//!   defines the figure/table result types all bench binaries print and
//!   serialise, so EXPERIMENTS.md can be regenerated mechanically;
//!   [`json`] is the hermetic JSON value type both halves serialise
//!   through (the workspace uses no external crates).
//!
//! See `docs/OBSERVABILITY.md` for the full model and a worked
//! Chrome-trace example.
//!
//! ```
//! use fpr_trace::metrics::{self, Counter};
//! use fpr_trace::{chrome, json, sink};
//!
//! let before = metrics::snapshot();
//! let ((), events) = sink::with_sink(|| {
//!     sink::span_begin("fork", "api", 0);
//!     Counter::ForkPteCopy.add(259);
//!     sink::span_end("fork", 12_258);
//! });
//! assert_eq!(metrics::snapshot().delta(&before).counter("mem.fork.pte_copy"), 259);
//! let doc = json::parse(&chrome::to_chrome_string(&events, 3_000)).unwrap();
//! assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod records;
pub mod report;
pub mod sink;
pub mod smp;
pub mod vclock;
pub mod workload;

pub use chrome::CYCLES_PER_US;
pub use event::{ArgValue, Phase, TraceEvent};
pub use records::{FigureData, Point, Series, TableData};
pub use workload::{fig1_footprints, ProcessShape, TouchPattern};
