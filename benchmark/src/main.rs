//! The forkroad repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! forkroad-benchmark run     [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                            [--smoke] [--out F] [--trace-out F]
//! forkroad-benchmark repeat N [--workload W] [--seed N] [--seconds S] [--smoke]
//! forkroad-benchmark compare A.json B.json
//! ```
//!
//! A process measures one workload once: peak resident set is a figure
//! of the process. `run` over several workloads and `repeat` start one
//! child of this executable per measurement and wait for it.

mod engine;
mod report;
mod run;
mod stats;
mod traced;
mod workload;

use fpr_trace::json::{self, Value};
use report::{
    compact, contract_value, nums, obj, report_value, Measured, WorkloadReport, END_TO_END,
};
use run::{run_untraced, EndToEnd, Sizes};
use std::process::{Command, ExitCode, Stdio};
use workload::{Kind, Spec, SPECS};

/// `run_seconds` of `BENCHMARK.json`: what a run measures for when
/// `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 25.0;

/// E15's checked-in gate, whose per-path medians `svc_mix` must agree with.
const SERVICE_GATE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_service.json");

/// Options shared by `run` and `repeat`.
struct Options {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: untraced only; `Some(true)`: traced only; `None`: both.
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
    /// Print the whole report, not the contract's object, as the last
    /// line: how a child hands its measurement to the process that
    /// started it.
    report_line: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: SPECS.iter().collect(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        out: None,
        trace_out: None,
        report_line: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = workload::spec(&name).ok_or_else(|| {
                    let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?;
                o.workloads = vec![spec];
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(value()?),
            "--trace-out" => o.trace_out = Some(value()?),
            "--report-line" => o.report_line = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

/// `svc_mix` only: the per-path virtual medians beside the ones
/// `BENCH_service.json` records for E15, which must agree within 2 %.
fn check_service_gate(e2e: &EndToEnd, violations: &mut Vec<String>) {
    let Ok(text) = std::fs::read_to_string(SERVICE_GATE) else {
        eprintln!("  BENCH_service.json is not there: per-path medians not cross-checked");
        return;
    };
    let gate = json::parse(&text).ok();
    let paths = gate
        .as_ref()
        .and_then(|g| g.get("per_path_cycles"))
        .and_then(Value::as_arr);
    let Some(paths) = paths else {
        violations.push("BENCH_service.json has no per_path_cycles array".into());
        return;
    };
    for &(kind, median, count) in &e2e.virt.per_kind {
        let gate_p50 = paths
            .iter()
            .find(|p| p.get("path").and_then(Value::as_str) == Some(kind.label()))
            .and_then(|p| p.get("p50"))
            .and_then(Value::as_f64);
        let Some(gate_p50) = gate_p50 else {
            violations.push(format!(
                "BENCH_service.json has no p50 for {}",
                kind.label()
            ));
            continue;
        };
        let off = (median as f64 - gate_p50).abs() / gate_p50;
        eprintln!(
            "  {:<22} median {:>7} cycles over {:>6} requests; BENCH_service.json p50 {:>7} ({:+.2} %)",
            kind.label(),
            median,
            count,
            gate_p50,
            (median as f64 / gate_p50 - 1.0) * 100.0
        );
        if off > 0.02 {
            violations.push(format!(
                "{} median {median} cycles is {:.2} % off BENCH_service.json's {gate_p50}",
                kind.label(),
                off * 100.0
            ));
        }
    }
}

fn print_metrics(title: &str, metrics: &[Measured]) {
    println!("  {title}");
    for m in metrics {
        println!("    {:<40} {:>18.4} {}", m.name, m.value, m.unit);
    }
}

/// Runs one workload, untraced and/or traced, and prints what it measured.
fn run_workload(spec: &'static Spec, o: &Options) -> WorkloadReport {
    let sizes = if o.smoke {
        Sizes::smoke(spec)
    } else {
        Sizes::full(spec)
    };
    let mut report = WorkloadReport {
        name: spec.name,
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        detail: Vec::new(),
    };
    println!(
        "{}: {} ({} requests per batch, seed {})",
        spec.name, spec.why, sizes.requests, o.seed
    );
    if o.trace != Some(true) {
        let e2e = run_untraced(spec, o.seed, o.seconds, sizes);
        report.attempted += e2e.tally.attempted;
        report.failed += e2e.tally.failed;
        report
            .violations
            .extend(e2e.tally.violations.iter().cloned());
        report.end_to_end = e2e.metrics();
        print_metrics(
            "end to end (untraced; host_* = wall time of the simulator, virt_* = modelled 3 GHz cycles)",
            &report.end_to_end,
        );
        let v = &e2e.virt;
        println!(
            "    {} batches; virtual figures over {} requests ({} beyond p99), offered {:.0} req/s = {:.1} % of capacity, cycle digest {:016x}",
            e2e.timed.batch_ns.len(),
            v.samples,
            v.beyond_p99,
            spec.offered_rate,
            v.utilisation * 100.0,
            v.digest
        );
        if spec.name == "svc_mix" && !o.smoke {
            check_service_gate(&e2e, &mut report.violations);
        }
        let us_per_req = e2e
            .timed
            .batch_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3 / sizes.requests as f64);
        report.detail.extend([
            (
                "batches".to_string(),
                Value::Num(e2e.timed.batch_ns.len() as f64),
            ),
            ("batch_us_per_req".to_string(), nums(us_per_req)),
            (
                "setup_s".to_string(),
                nums(e2e.setups.iter().map(|s| s.setup_s)),
            ),
            ("virt_samples".to_string(), Value::Num(v.samples as f64)),
            (
                "virt_samples_beyond_p99".to_string(),
                Value::Num(v.beyond_p99 as f64),
            ),
            ("virt_utilisation".to_string(), Value::Num(v.utilisation)),
            (
                "cycle_digest".to_string(),
                Value::Str(format!("{:016x}", v.digest)),
            ),
            (
                "per_path_p50_cycles".to_string(),
                Value::Obj(
                    v.per_kind
                        .iter()
                        .map(|&(k, p50, _)| (Kind::label(k).to_string(), Value::Num(p50 as f64)))
                        .collect(),
                ),
            ),
        ]);
    }
    if o.trace != Some(false) {
        let layers = traced::run_traced(spec, o.seed, o.seconds, sizes);
        report.attempted += layers.tally.attempted;
        report.failed += layers.tally.failed;
        report
            .violations
            .extend(layers.tally.violations.iter().cloned());
        print_metrics(
            "per layer (traced run; host figures are lower quartiles per call)",
            &layers.metrics,
        );
        report.per_layer = layers.metrics;
        report.detail.extend(layers.detail);
        if let Some(path) = &o.trace_out {
            match std::fs::write(path, traced::chrome_trace(&layers.spans)) {
                Ok(()) => println!("  spans written to {path}"),
                Err(e) => report.violations.push(format!("cannot write {path}: {e}")),
            }
        }
    }
    println!(
        "  {}: {} calls attempted, {} failed (failed_ops_ratio {})",
        if report.correct() {
            "outputs correct"
        } else {
            "OUTPUT CHECKS FAILED"
        },
        report.attempted,
        report.failed,
        report.failed_ops_ratio()
    );
    for v in &report.violations {
        println!("  violation: {v}");
    }
    report
}

fn write_out(o: &Options, report: &Value) -> Result<(), String> {
    if let Some(path) = &o.out {
        std::fs::write(path, report.pretty() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("report written to {path}");
    }
    Ok(())
}

/// Measures `spec` in a child process with `o`'s options and returns its
/// report. What the child prints for people goes to standard error.
fn measure_in_child(spec: &Spec, o: &Options) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut child = Command::new(exe);
    child.args(["run", "--report-line", "--workload", spec.name]);
    child.args(["--seed", &o.seed.to_string()]);
    child.args(["--seconds", &o.seconds.to_string()]);
    if let Some(traced) = o.trace {
        child.args(["--trace", if traced { "1" } else { "0" }]);
    }
    if o.smoke {
        child.arg("--smoke");
    }
    if let Some(path) = &o.trace_out {
        child.args(["--trace-out", &format!("{path}.{}", spec.name)]);
    }
    let output = child
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (text, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    eprintln!("{text}");
    json::parse(line).map_err(|e| {
        format!(
            "the {} child ({}) printed no report: {e:?}",
            spec.name, output.status
        )
    })
}

/// The workloads of a report.
fn workloads_of(report: &Value) -> &[Value] {
    report
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or_default()
}

fn all_correct(report: &Value) -> bool {
    report.get("correct") == Some(&Value::Bool(true))
}

/// `run`: every selected workload once. The last line of standard output
/// is the result: for one workload the contract's object (`correct`,
/// `attempted`, `failed`, `metrics`), for several one such object per
/// workload under `workloads`.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let o = parse_options(args)?;
    if let [spec] = o.workloads[..] {
        let workload = run_workload(spec, &o);
        let report = report_value(o.seed, o.seconds, o.smoke, vec![workload.value()]);
        write_out(&o, &report)?;
        if o.report_line {
            println!("{}", compact(&report));
        } else {
            println!("{}", compact(&contract_value(&workload.value())));
        }
        return Ok(workload.correct());
    }
    let mut workloads = Vec::new();
    for spec in &o.workloads {
        workloads.extend_from_slice(workloads_of(&measure_in_child(spec, &o)?));
    }
    let lines = workloads
        .iter()
        .map(|w| {
            let name = w.get("name").and_then(Value::as_str).unwrap_or("?");
            (name.to_string(), contract_value(w))
        })
        .collect();
    let report = report_value(o.seed, o.seconds, o.smoke, workloads);
    write_out(&o, &report)?;
    println!("{}", compact(&obj([("workloads", Value::Obj(lines))])));
    Ok(all_correct(&report))
}

/// `repeat N`: the untraced set N times, each measurement in a process
/// of its own. Prints each end-to-end metric's min / median / max across
/// sets and fails when two sets disagree by more than the metric's bound
/// (at all, for a metric on the virtual clock, or for the cycle digest).
fn cmd_repeat(args: &[String]) -> Result<bool, String> {
    let (n, rest) = args.split_first().ok_or("repeat needs a count")?;
    let n: usize = n.parse().map_err(|e| format!("repeat count: {e}"))?;
    if n < 2 {
        return Err("repeat needs at least 2 sets to compare".into());
    }
    let mut o = parse_options(rest)?;
    o.trace = Some(false);
    let mut sets = Vec::new();
    for set in 0..n {
        eprintln!("=== set {} of {n} ===", set + 1);
        let mut reports = Vec::new();
        for spec in &o.workloads {
            reports.push(measure_in_child(spec, &o)?);
        }
        sets.push(reports);
    }

    let (mut agree, mut correct) = (true, true);
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>14} {:>8} {:>7}  agree",
        "workload", "metric", "min", "median", "max", "range", "bound"
    );
    for (w, spec) in o.workloads.iter().enumerate() {
        // The one workload of each set's report for `spec`.
        let runs: Vec<&Value> = sets
            .iter()
            .filter_map(|set| workloads_of(&set[w]).first())
            .collect();
        if runs.len() < n {
            return Err(format!("a {} child reported no workload", spec.name));
        }
        correct &= runs
            .iter()
            .all(|r| r.get("correct") == Some(&Value::Bool(true)));
        for def in &END_TO_END {
            let mut values = Vec::new();
            for r in &runs {
                let value = r
                    .get("end_to_end")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64);
                values
                    .push(value.ok_or_else(|| format!("a {} run has no {}", spec.name, def.name))?);
            }
            let median = stats::quantile_f64(&mut values, 0.5);
            let (min, max) = (values[0], values[n - 1]);
            let range = (max - min) / min;
            let bound = if def.exact { 0.0 } else { def.bound };
            let ok = range <= bound;
            agree &= ok;
            println!(
                "{:<12} {:<26} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>7.3}  {}",
                spec.name,
                def.name,
                min,
                median,
                max,
                range,
                bound,
                if ok { "yes" } else { "NO" }
            );
        }
        let digest = |r: &Value| {
            r.get("detail")
                .and_then(|d| d.get("cycle_digest"))
                .and_then(|v| v.as_str().map(String::from))
        };
        let same_digest = runs.iter().all(|r| digest(r) == digest(runs[0]));
        agree &= same_digest;
        println!(
            "{:<12} cycle digest {} across sets: {}",
            spec.name,
            digest(runs[0]).unwrap_or_default(),
            if same_digest { "identical" } else { "DIFFERS" }
        );
    }
    println!(
        "{}",
        compact(&obj([
            ("sets", Value::Num(n as f64)),
            ("correct", Value::Bool(correct)),
            ("agree", Value::Bool(agree)),
        ]))
    );
    Ok(correct && agree)
}

/// `compare A.json B.json`: the verdict table; fails if a metric is worse.
fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two report files".into());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
    };
    let (table, any_worse) = report::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "repeat" => cmd_repeat(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => Err("usage: forkroad-benchmark run|repeat N|compare A.json B.json [options]; see benchmark/README.md".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::PER_LAYER;

    /// `BENCHMARK.json` is what the driver reads; the tables in this
    /// package are what the binary prints. They must say the same.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).expect(key).to_vec();
        let text_of =
            |v: &Value, key: &str| v.get(key).and_then(Value::as_str).expect(key).to_string();

        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let command: Vec<String> = list("command")
            .iter()
            .map(|v| v.as_str().expect("string").into())
            .collect();
        assert_eq!(command.last().map(String::as_str), Some("run"));
        assert!(command.contains(&"benchmark/Cargo.toml".to_string()));

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let specs: Vec<(String, String)> = SPECS
            .iter()
            .map(|s| (s.name.into(), s.why.into()))
            .collect();
        assert_eq!(workloads, specs);

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    bound,
                )
            })
            .collect();
        let defs: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.into(),
                    d.unit.into(),
                    d.better.word().into(),
                    d.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, defs);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let defs: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(name, unit, better)| (name.into(), unit.into(), better.word().into()))
            .collect();
        assert_eq!(per_layer, defs);
    }

    #[test]
    fn options_are_checked_where_they_enter() {
        let parse =
            |args: &[&str]| parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let o = parse(&[
            "--workload",
            "fork_big",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid options");
        assert_eq!(
            (o.workloads.len(), o.seed, o.seconds, o.trace),
            (1, 7, 3.0, Some(true))
        );
        assert_eq!(parse(&[]).expect("defaults").workloads.len(), SPECS.len());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
