//! Metric definitions, the JSON the benchmark prints and writes, and the
//! `compare` verdicts.

use fpr_trace::json::Value;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As spelt in `BENCHMARK.json`.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's value by which it may worsen.
    pub bound: f64,
    /// Not a host-clock figure: identical for a seed, so two runs of one
    /// seed are compared with no tolerance at all. Its `bound` only
    /// absorbs the difference between seeds.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEndDef {
    EndToEndDef {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// The end-to-end metrics every workload reports, in output order.
pub const END_TO_END: [EndToEndDef; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("host_req_per_s", "req/s", Better::Higher, 0.25, false),
    e2e("host_peak_rss_mib", "MiB", Better::Lower, 0.2, false),
    e2e("virt_cycles_p50", "cycles", Better::Lower, 0.02, true),
    e2e("virt_cycles_p99", "cycles", Better::Lower, 0.02, true),
    e2e(
        "virt_capacity_req_per_s",
        "req/s",
        Better::Higher,
        0.02,
        true,
    ),
    e2e(
        "virt_sojourn_p99_cycles",
        "cycles",
        Better::Lower,
        0.06,
        true,
    ),
    // The issue's `failed_ops_ratio`, turned round: an end-to-end metric
    // is judged as a share of its median, so it may never read 0, and
    // this one reads 1 while that one reads 0.
    e2e("ok_ops_ratio", "ratio", Better::Higher, 0.001, true),
];

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// The per-layer metrics of the traced run: `(name, unit, better)`. The
/// first dotted component is the layer (a crate of the workspace).
/// `.count` figures are per request of the workload's mix.
pub const PER_LAYER: [(&str, &str, Better); 55] = [
    ("api.spawn_fast.host_ns", "ns", L),
    ("api.spawn_fast.virt_cycles", "cycles", L),
    ("api.spawn_fast.host_ns_per_kcycle", "ns/kcycle", L),
    ("api.fork_cow.host_ns", "ns", L),
    ("api.fork_cow.virt_cycles", "cycles", L),
    ("api.fork_cow.host_ns_per_kcycle", "ns/kcycle", L),
    ("api.fork_ondemand.host_ns", "ns", L),
    ("api.fork_ondemand.virt_cycles", "cycles", L),
    ("api.fork_ondemand.host_ns_per_kcycle", "ns/kcycle", L),
    ("api.vfork_exec.host_ns", "ns", L),
    ("api.vfork_exec.virt_cycles", "cycles", L),
    ("api.vfork_exec.host_ns_per_kcycle", "ns/kcycle", L),
    ("api.xproc.host_ns", "ns", L),
    ("api.xproc.virt_cycles", "cycles", L),
    ("api.xproc.host_ns_per_kcycle", "ns/kcycle", L),
    ("api.pool_autoscale.host_ns", "ns", L),
    ("api.pool.hit_ratio", "ratio", H),
    ("api.calls.time_share", "ratio", L),
    ("exec.execve.host_ns", "ns", L),
    ("exec.execve.virt_cycles", "cycles", L),
    ("exec.image_cache.hit_ratio", "ratio", H),
    ("exec.calls.time_share", "ratio", L),
    ("kernel.populate.host_ns", "ns", L),
    ("kernel.write_mem.host_ns", "ns", L),
    ("kernel.exit.host_ns", "ns", L),
    ("kernel.waitpid.host_ns", "ns", L),
    ("kernel.fd_clone.count", "count", L),
    ("kernel.calls.time_share", "ratio", L),
    ("mem.fork_cow.host_ns", "ns", L),
    ("mem.fork_ondemand.host_ns", "ns", L),
    ("mem.destroy.host_ns", "ns", L),
    ("mem.cow_fault.host_ns", "ns", L),
    ("mem.frame_alloc.host_ns", "ns", L),
    ("mem.fork.pte_copy.count", "count", L),
    ("mem.fork.vma_clone.count", "count", L),
    ("mem.tlb.shootdown.count", "count", L),
    ("mem.tlb.entries_flushed.count", "count", L),
    ("mem.fault.cow_copy.count", "count", L),
    ("mem.page_copy.count", "count", L),
    ("mem.unshare.pte_copy.count", "count", L),
    ("mem.unshare.pt_node.count", "count", L),
    ("mem.frame_alloc.count", "count", L),
    ("mem.frame_free.count", "count", L),
    ("mem.probes.time_share", "ratio", L),
    ("trace.traced_run.overhead_ratio", "ratio", L),
    ("trace.sink_on.overhead_ratio", "ratio", L),
    ("trace.events.count", "count", L),
    ("trace.metrics_add.host_ns", "ns", L),
    ("trace.counter_updates.count", "count", L),
    ("faults.cross.host_ns", "ns", L),
    ("faults.crossings.count", "count", L),
    ("core.boot.host_ns", "ns", L),
    ("core.make_parent.host_ns_per_page", "ns/page", L),
    ("core.queue_wait.virt_cycles_p99", "cycles", L),
    ("core.loop.time_share", "ratio", L),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|d| (d.name, d.unit))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not defined in report.rs"))
        .1
}

/// One measured figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// The figure, with all its digits.
    pub value: f64,
    /// Unit, from the definition tables.
    pub unit: &'static str,
    /// How far the same estimate made from each quarter of the run alone
    /// lies apart, as a share of it (0 for figures not on the host clock).
    pub spread: f64,
}

impl Measured {
    /// A figure for the defined metric `name`.
    pub fn new(name: &'static str, value: f64, spread: f64) -> Measured {
        Measured {
            name,
            value,
            unit: unit_of(name),
            spread,
        }
    }
}

/// One workload's part of a report.
#[derive(Debug)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls failed, OOM kills, children not reaped.
    pub failed: u64,
    /// Failed output checks, verbatim.
    pub violations: Vec<String>,
    /// End-to-end metrics (untraced run), if it ran.
    pub end_to_end: Vec<Measured>,
    /// Per-layer metrics (traced run), if it ran.
    pub per_layer: Vec<Measured>,
    /// Free-form detail: raw batch sequence, digest, sample counts.
    pub detail: Vec<(String, Value)>,
}

impl WorkloadReport {
    /// Every call succeeded and every output check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// `failed_ops_ratio`: failed over attempted.
    pub fn failed_ops_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// This workload's part of a report.
    pub fn value(&self) -> Value {
        obj([
            ("name", Value::Str(self.name.into())),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("failed_ops_ratio", Value::Num(self.failed_ops_ratio())),
            (
                "violations",
                Value::Arr(self.violations.iter().cloned().map(Value::Str).collect()),
            ),
            ("end_to_end", metrics_value(&self.end_to_end, true)),
            ("per_layer", metrics_value(&self.per_layer, false)),
            ("detail", Value::Obj(self.detail.clone())),
        ])
    }
}

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON array of numbers.
pub fn nums(values: impl IntoIterator<Item = f64>) -> Value {
    Value::Arr(values.into_iter().map(Value::Num).collect())
}

fn metrics_value(metrics: &[Measured], with_spread: bool) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut members = vec![
                    ("value".to_string(), Value::Num(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.into())),
                ];
                if with_spread {
                    members.push(("spread".into(), Value::Num(m.spread)));
                }
                (m.name.to_string(), Value::Obj(members))
            })
            .collect(),
    )
}

/// The result the benchmark contract asks for, from a workload's part of
/// a report: exactly `correct`, `attempted`, `failed` and `metrics`, the
/// metrics being every end-to-end and per-layer one that was measured,
/// each with exactly `value` and `unit`.
pub fn contract_value(workload: &Value) -> Value {
    let metrics = ["end_to_end", "per_layer"]
        .into_iter()
        .filter_map(|section| match workload.get(section) {
            Some(Value::Obj(members)) => Some(members),
            _ => None,
        })
        .flatten()
        .map(|(name, m)| {
            let field = |key: &str| m.get(key).cloned().unwrap_or(Value::Null);
            let stripped = obj([("value", field("value")), ("unit", field("unit"))]);
            (name.clone(), stripped)
        })
        .collect();
    let field = |key: &str| workload.get(key).cloned().unwrap_or(Value::Null);
    obj([
        ("correct", field("correct")),
        ("attempted", field("attempted")),
        ("failed", field("failed")),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// A whole report, what `--out` writes and `compare` reads, from the
/// workloads' parts.
pub fn report_value(seed: u64, seconds: f64, smoke: bool, workloads: Vec<Value>) -> Value {
    let correct = workloads
        .iter()
        .all(|w| w.get("correct") == Some(&Value::Bool(true)));
    obj([
        ("benchmark", Value::Str("forkroad".into())),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("smoke", Value::Bool(smoke)),
        ("correct", Value::Bool(correct)),
        ("workloads", Value::Arr(workloads)),
    ])
}

/// Serialises `v` on one line. Numbers print with every digit Rust needs
/// to round-trip them.
pub fn compact(v: &Value) -> String {
    let mut out = String::new();
    write_compact(v, &mut out);
    out
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&Value::Str(k.clone()).pretty());
                out.push_str(": ");
                write_compact(item, out);
            }
            out.push('}');
        }
        Value::Num(n) if !n.is_finite() => out.push_str("null"),
        Value::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
            let _ = write!(out, "{}", *n as i64);
        }
        // Scalars have no layout: the pretty printer's form is already compact.
        scalar => out.push_str(&scalar.pretty()),
    }
}

/// What `compare` concluded about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the spread.
    Better,
    /// Within the bound and the spread.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The spread exceeds the bound and the change lies inside it.
    Unresolved,
}

impl Verdict {
    /// Lower-case word for tables.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `parent` the `change` is worse (negative: better).
pub fn worsening(parent: f64, change: f64, better: Better) -> f64 {
    if parent == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (change - parent) / parent,
        Better::Higher => (parent - change) / parent,
    }
}

/// The verdict rule. `spread` is the larger of the two sides' spreads.
/// A change hidden inside a spread wider than the bound is unresolved,
/// not unchanged; one that clears the spread is judged by its sign.
pub fn verdict(parent: f64, change: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    let worse_by = worsening(parent, change, better);
    if spread > bound && worse_by.abs() <= spread {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < 0.0 && -worse_by > spread {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn metric_field(workload: &Value, section: &str, metric: &str, field: &str) -> Option<f64> {
    workload.get(section)?.get(metric)?.get(field)?.as_f64()
}

/// `compare A.json B.json`: one row per workload × end-to-end metric,
/// then the per-layer metrics that moved most. Returns the table and
/// whether any metric came out worse.
pub fn compare(parent: &Value, change: &Value) -> Result<(String, bool), String> {
    let workloads = |v: &'_ Value| -> Result<Vec<Value>, String> {
        Ok(v.get("workloads")
            .and_then(Value::as_arr)
            .ok_or("not a benchmark report: no \"workloads\" array")?
            .to_vec())
    };
    let seed = |v: &Value| v.get("seed").and_then(Value::as_f64);
    let same_seed = seed(parent).is_some() && seed(parent) == seed(change);
    let (a, b) = (workloads(parent)?, workloads(change)?);

    let mut out = String::new();
    let mut any_worse = false;
    if !same_seed {
        out.push_str("note: the reports have different seeds; virtual metrics are judged by their bound, not exactly\n");
    }
    let _ = writeln!(
        out,
        "{:<12} {:<26} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "parent", "change", "ratio", "bound", "spread"
    );
    for wa in &a {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = b
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            let _ = writeln!(out, "{name:<12} missing from the second report");
            continue;
        };
        for def in &END_TO_END {
            let get = |w: &Value, f: &str| metric_field(w, "end_to_end", def.name, f);
            let (Some(pa), Some(pb)) = (get(wa, "value"), get(wb, "value")) else {
                continue;
            };
            let spread = get(wa, "spread")
                .unwrap_or(0.0)
                .max(get(wb, "spread").unwrap_or(0.0));
            let bound = if def.exact && same_seed {
                0.0
            } else {
                def.bound
            };
            let v = verdict(pa, pb, def.better, bound, spread);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<12} {:<26} {:>14.4} {:>14.4} {:>9.4} {:>7.3} {:>7.3}  {} ({} is better; ratio = change / parent {:.4})",
                name,
                def.name,
                pa,
                pb,
                pb / pa,
                bound,
                spread,
                v.word(),
                def.better.word(),
                pa,
            );
        }

        let mut moved: Vec<(f64, &str, f64, f64)> = PER_LAYER
            .iter()
            .filter_map(|&(metric, _, _)| {
                let pa = metric_field(wa, "per_layer", metric, "value")?;
                let pb = metric_field(wb, "per_layer", metric, "value")?;
                let rel = if pa == 0.0 {
                    if pb == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (pb - pa) / pa
                };
                Some((rel, metric, pa, pb))
            })
            .filter(|(rel, ..)| *rel != 0.0)
            .collect();
        moved.sort_by(|x, y| y.0.abs().total_cmp(&x.0.abs()));
        if !moved.is_empty() {
            let _ = writeln!(
                out,
                "{name:<12} per-layer metrics that moved most (change vs parent):"
            );
            for (rel, metric, pa, pb) in moved.into_iter().take(8) {
                let _ = writeln!(
                    out,
                    "{:<12}   {:<38} {:>14.4} -> {:>14.4}  {:+.1}% of {:.4}",
                    "",
                    metric,
                    pa,
                    pb,
                    rel * 100.0,
                    pa
                );
            }
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_rule() {
        use Better::{Higher, Lower};
        // Lower is better, bound 10 %, spread 2 %.
        assert_eq!(verdict(100.0, 100.0, Lower, 0.1, 0.02), Verdict::Same);
        assert_eq!(verdict(100.0, 109.0, Lower, 0.1, 0.02), Verdict::Same);
        assert_eq!(verdict(100.0, 111.0, Lower, 0.1, 0.02), Verdict::Worse);
        assert_eq!(verdict(100.0, 97.0, Lower, 0.1, 0.02), Verdict::Better);
        assert_eq!(verdict(100.0, 99.0, Lower, 0.1, 0.02), Verdict::Same);
        // Higher is better: the same numbers read the other way round.
        assert_eq!(verdict(100.0, 111.0, Higher, 0.1, 0.02), Verdict::Better);
        assert_eq!(verdict(100.0, 89.0, Higher, 0.1, 0.02), Verdict::Worse);
        // A spread wider than the bound hides a change inside it...
        assert_eq!(verdict(100.0, 112.0, Lower, 0.1, 0.15), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 95.0, Lower, 0.1, 0.15), Verdict::Unresolved);
        // ...but not one that clears it.
        assert_eq!(verdict(100.0, 130.0, Lower, 0.1, 0.15), Verdict::Worse);
        assert_eq!(verdict(100.0, 70.0, Lower, 0.1, 0.15), Verdict::Better);
        // Exact metrics: bound 0, spread 0, any difference is a verdict.
        assert_eq!(verdict(7366.0, 7366.0, Lower, 0.0, 0.0), Verdict::Same);
        assert_eq!(verdict(7366.0, 7367.0, Lower, 0.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(7366.0, 7365.0, Lower, 0.0, 0.0), Verdict::Better);
    }

    #[test]
    fn compact_json_round_trips_on_one_line() {
        let v = obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(1000.0)),
            ("value", Value::Num(1.203_456_789_012_3)),
            ("unit", Value::Str("req/s".into())),
            ("list", nums([1.0, 2.5])),
        ]);
        let line = compact(&v);
        assert!(!line.contains('\n'));
        assert!(line.contains("\"attempted\": 1000,"), "{line}");
        assert_eq!(fpr_trace::json::parse(&line).expect("valid JSON"), v);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|p| p.0))
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a metric name is used twice");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
    }

    #[test]
    fn compare_names_the_metric_that_got_worse() {
        let report = |rate: f64, pte: f64| {
            let w = WorkloadReport {
                name: "fork_big",
                attempted: 10,
                failed: 0,
                violations: vec![],
                end_to_end: vec![Measured::new("host_req_per_s", rate, 0.01)],
                per_layer: vec![Measured::new("mem.fork.pte_copy.count", pte, 0.0)],
                detail: vec![],
            };
            report_value(42, 1.0, true, vec![w.value()])
        };
        let (table, worse) = compare(&report(1000.0, 8192.0), &report(700.0, 16384.0)).unwrap();
        assert!(worse);
        assert!(table.contains("worse"), "{table}");
        assert!(table.contains("mem.fork.pte_copy.count"), "{table}");
        let (_, worse) = compare(&report(1000.0, 8192.0), &report(990.0, 8192.0)).unwrap();
        assert!(!worse);
    }
}
